//! SP transformation statistics (Section 4.4 of the paper): loop counts
//! before/after the preliminary passes and per fusion level, and the array
//! splitting / regrouping inventory (15 -> 42 -> 17 in the paper).
//!
//! A machine-readable report set (schema `gcr-report-set/v1`, one entry
//! per fusion depth with the full pass trace) is written to
//! `results/sp_stats.json` (override with `--json <path>`). The fusion
//! depths are optimized in parallel on the sweep engine
//! (`GCR_THREADS`/`--threads`); workers build their text off-thread and
//! the driver prints in input order.
//!
//! Usage: `sp_stats [--threads N] [--json PATH]`

use gcr_cli::{Report, ReportSet, SweepTiming};
use gcr_core::checked::{apply_strategy_checked_traced, SafetyOptions};
use gcr_core::fusion::loops_per_level;
use gcr_core::pipeline::Strategy;
use gcr_core::regroup::RegroupLevel;
use gcr_core::Tracer;
use std::fmt::Write as _;
use std::time::Instant;

fn main() {
    let flags = gcr_bench::cli::Flags::from_env();
    let threads: usize = flags.num("--threads", 0);
    let json_path = flags.value("--json").unwrap_or_else(|| "results/sp_stats.json".into());
    let mut set = ReportSet::new("sp_stats", "Section 4.4: SP transformation statistics");

    let orig = gcr_apps::sp::program();
    println!(
        "SP original: {} loops in {} nests, {} arrays",
        orig.count_loops(),
        orig.count_nests(),
        orig.arrays.iter().filter(|a| !a.is_scalar()).count()
    );

    let mut prelim = orig.clone();
    let prep = gcr_core::prelim::preliminary(&mut prelim, 8);
    println!("after unroll+split+distribute: {:?}", prep);
    println!("  loops per level: {:?}", loops_per_level(&prelim));
    println!("  arrays: {}", prelim.arrays.iter().filter(|a| !a.is_scalar()).count());

    let levels: Vec<usize> = vec![1, 3];
    let threads = if threads == 0 { gcr_par::thread_count() } else { threads };
    let start = Instant::now();
    let results = gcr_par::scope_map_with(threads, &levels, |&levels| {
        let strategy = Strategy::FusionRegroup { levels, regroup: RegroupLevel::Multi };
        let mut tracer = Tracer::enabled();
        let opt = match apply_strategy_checked_traced(
            &orig,
            strategy,
            &SafetyOptions::default(),
            &mut tracer,
        ) {
            Ok(opt) => opt,
            Err(e) => {
                let err = format!("SP/{}: skipped: {e}\n", strategy.label());
                return (String::new(), err, None);
            }
        };
        let mut out = String::new();
        let _ = writeln!(out, "\n{}-level fusion:", levels);
        let _ = writeln!(out, "  loops before: {:?}", opt.fusion.loops_before);
        let _ = writeln!(out, "  loops after:  {:?}", opt.fusion.loops_after);
        let _ = writeln!(
            out,
            "  fused per level: {:?}, embedded {}, peeled {}",
            opt.fusion.fused, opt.fusion.embedded, opt.fusion.peeled
        );
        let _ = writeln!(out, "  infusible reasons: {:?}", opt.fusion.infusible);
        let _ = writeln!(
            out,
            "  regroup: {} arrays -> {} allocations",
            opt.regroup.arrays, opt.regroup.allocations
        );
        for (names, _) in &opt.regroup.groups {
            let _ = writeln!(out, "    group: {}", names.join(", "));
        }
        let mut diag = String::new();
        for d in opt.robustness.describe() {
            let _ = writeln!(diag, "SP/{}: {d}", strategy.label());
        }
        let report = Report::new("sp_stats", &orig, strategy.label(), &opt, tracer.into_events());
        (out, diag, Some(report))
    });
    let wall_ns = start.elapsed().as_nanos() as u64;
    let njobs = results.len() as u64;
    for (text, diag, report) in results {
        print!("{text}");
        eprint!("{diag}");
        if let Some(report) = report {
            set.reports.push(report);
        }
    }
    set.timing =
        Some(SweepTiming { threads, wall_ns, memo_misses: njobs, ..SweepTiming::default() });
    match set.write(&json_path) {
        Ok(()) => println!("\nJSON report set ({} runs) written to {json_path}", set.reports.len()),
        Err(e) => eprintln!("could not write {json_path}: {e}"),
    }
}
