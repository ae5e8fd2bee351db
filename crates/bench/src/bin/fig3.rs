//! Figure 3 — "Effect of reuse-driven execution".
//!
//! Reuse-distance histograms (log₂ bins, counts in thousands) for ADI at
//! 50² and 100² and SP at 14³ and 28³, comparing program order against
//! reuse-driven execution; the SP 28³ plot adds the third curve of the
//! paper, reuse-based fusion. The headline feature to look for is the
//! "elevated hills" at large distances in program order that shrink or
//! move left under reuse-driven execution, and how the hills move right as
//! the input grows (the evadable reuses).
//!
//! A machine-readable report set (schema `gcr-report-set/v1`, one entry
//! per plot; the curves ride in the profile section's `per_phase` list,
//! labelled by execution order) is written to `results/fig3.json`
//! (override with `--json <path>`).
//!
//! The four plots are independent, so they run as one job list on the
//! parallel sweep engine (`GCR_THREADS`/`--threads`); each worker renders
//! its text plot off-thread and the driver prints them in input order, so
//! stdout and the JSON are byte-identical across thread counts.
//!
//! Usage: `fig3 [--quick] [--threads N] [--json PATH]`

use gcr_bench::{capture_trace, histogram_text};
use gcr_cli::report::{ProfileSection, ProgramInfo};
use gcr_cli::{Report, ReportSet, SweepTiming};
use gcr_core::{fuse_program, FusionOptions};
use gcr_ir::ParamBinding;
use gcr_reuse::driven::{measure_order, measure_program_order, reuse_driven_order};
use gcr_reuse::{Histogram, ReuseProfile};
use std::time::Instant;

struct PlotJob {
    name: String,
    prog: gcr_ir::Program,
    size: i64,
    with_fusion: bool,
}

fn main() {
    // Fail fast on a bad GCR_EXEC instead of silently measuring under the
    // default engine.
    if let Err(e) = gcr_exec::ExecEngine::from_env() {
        eprintln!("{e}");
        std::process::exit(2);
    }
    let flags = gcr_bench::cli::Flags::from_env();
    let quick = flags.has("--quick");
    let threads: usize = flags.num("--threads", 0);
    let json_path = flags.value("--json").unwrap_or_else(|| "results/fig3.json".into());
    let adi_sizes: &[i64] = if quick { &[26, 50] } else { &[50, 100] };
    let sp_sizes: &[i64] = if quick { &[8, 14] } else { &[14, 28] };
    let mut set = ReportSet::new("fig3", "Figure 3: effect of reuse-driven execution");

    let mut jobs: Vec<PlotJob> = Vec::new();
    for &n in adi_sizes {
        jobs.push(PlotJob {
            name: format!("ADI, {n}x{n}"),
            prog: gcr_apps::adi::program(),
            size: n,
            with_fusion: false,
        });
    }
    for &n in sp_sizes {
        jobs.push(PlotJob {
            name: format!("NAS/SP, {n}x{n}x{n}"),
            prog: gcr_apps::sp::program(),
            size: n,
            with_fusion: n == *sp_sizes.last().unwrap(),
        });
    }

    let threads = if threads == 0 { gcr_par::thread_count() } else { threads };
    let start = Instant::now();
    let results = gcr_par::scope_map_with(threads, &jobs, plot);
    let wall_ns = start.elapsed().as_nanos() as u64;
    for (text, report) in results {
        print!("{text}");
        set.reports.push(report);
    }
    set.timing = Some(SweepTiming {
        threads,
        wall_ns,
        memo_misses: jobs.len() as u64,
        ..SweepTiming::default()
    });
    match set.write(&json_path) {
        Ok(()) => {
            println!("\nJSON report set ({} plots) written to {json_path}", set.reports.len())
        }
        Err(e) => eprintln!("could not write {json_path}: {e}"),
    }
}

fn plot(job: &PlotJob) -> (String, Report) {
    let PlotJob { name, prog, size, with_fusion } = job;
    let bind = ParamBinding::new(vec![*size]);
    let trace = capture_trace(prog, bind.clone());
    let (h_prog, _) = measure_program_order(&trace);
    let order = reuse_driven_order(&trace);
    let (h_driven, _) = measure_order(&trace, &order);
    let mut curves: Vec<(String, Histogram)> =
        vec![("program order".into(), h_prog.clone()), ("reuse-driven".into(), h_driven.clone())];
    let text = if *with_fusion {
        // Third curve: reuse-based fusion (source-level), program order.
        let opt = gcr_core::pipeline::OptimizeOptions::default();
        let mut fused = prog.clone();
        gcr_core::prelim::preliminary(&mut fused, opt.small_dim_limit);
        fuse_program(&mut fused, &FusionOptions::default());
        let ftrace = capture_trace(&fused, bind);
        let (h_fused, _) = measure_program_order(&ftrace);
        curves.insert(1, ("reuse-fusion".into(), h_fused.clone()));
        histogram_text(
            name,
            &[("program order", &h_prog), ("reuse-fusion", &h_fused), ("reuse-driven", &h_driven)],
        )
    } else {
        histogram_text(name, &[("program order", &h_prog), ("reuse-driven", &h_driven)])
    };
    let info = ProgramInfo::of(prog);
    let report = Report {
        generator: "fig3".into(),
        program: info.clone(),
        output: info,
        requested: name.clone(),
        delivered: name.clone(),
        checks: 0,
        oracle_disabled: None,
        trace: Vec::new(),
        fallbacks: Vec::new(),
        profile: Some(ProfileSection {
            size: *size,
            steps: 1,
            profile: ReuseProfile {
                granularity: 8,
                global: h_prog,
                per_array: Vec::new(),
                per_phase: curves,
            },
        }),
        simulation: None,
        hierarchy: None,
        prediction: None,
    };
    (text, report)
}
