//! Section 6 table — data transferred with no optimization, with the
//! SGI-like local strategies, and with the paper's global strategy.
//!
//! The paper normalizes L1, L2 and TLB miss counts to the unoptimized
//! program and reports per-program rows plus averages; its conclusion is
//! that the global strategy beats the commercial compiler's local
//! strategies "by factors of 9 for L1 misses, 3.4 for L2 misses, and 1.8
//! for TLB misses" in average miss reduction. A machine-readable report
//! set (schema `gcr-report-set/v1`) is written to `results/table6.json`
//! (override with `--json <path>`).
//!
//! The app × strategy cross-product runs as one job list on the parallel
//! sweep engine (`GCR_THREADS`/`--threads`, `GCR_MEASURE_CACHE`); averages
//! are accumulated serially in app order afterwards, so every printed
//! digit is byte-identical across thread counts.
//!
//! Usage: `table6 [--size-scale F] [--steps K] [--threads N] [--json PATH]`

use gcr_bench::sweep::{app_jobs, run_jobs, MeasureCache};
use gcr_bench::{print_table, Measurement, STEPS};
use gcr_cli::{ReportSet, SweepTiming};
use gcr_core::pipeline::Strategy;
use gcr_core::regroup::RegroupLevel;
use std::time::Instant;

fn main() {
    // Fail fast on a bad GCR_EXEC instead of silently measuring under the
    // default engine.
    if let Err(e) = gcr_exec::ExecEngine::from_env() {
        eprintln!("{e}");
        std::process::exit(2);
    }
    let flags = gcr_bench::cli::Flags::from_env();
    let scale: f64 = flags.num("--size-scale", 1.0);
    let steps: usize = flags.num("--steps", STEPS);
    let threads: usize = flags.num("--threads", 0);
    let json_path = flags.value("--json").unwrap_or_else(|| "results/table6.json".into());
    let mut set = ReportSet::new(
        "table6",
        "Section 6: normalized misses and memory traffic (NoOpt / SGI-like / New)",
    );

    let new_strategy = Strategy::FusionRegroup { levels: 3, regroup: RegroupLevel::Multi };
    let strategies = [Strategy::Original, Strategy::Sgi, new_strategy];
    let apps = gcr_apps::evaluation_apps();
    let mut jobs = Vec::new();
    for app in &apps {
        let size = ((app.default_size as f64 * scale) as i64).max(8);
        jobs.extend(app_jobs(app, &strategies, size, steps));
    }

    let cache = MeasureCache::from_env();
    let start = Instant::now();
    let mut results = run_jobs(threads, &cache, "table6", &jobs).into_iter();
    let wall_ns = start.elapsed().as_nanos() as u64;
    if let Err(e) = cache.save() {
        eprintln!("could not persist measurement cache: {e}");
    }

    let mut rows = Vec::new();
    let mut sums = [[0.0f64; 3]; 2]; // [sgi|new][l1|l2|tlb]
    let mut count = 0usize;
    for app in &apps {
        // Skip any app where a version cannot be optimized/measured, rather
        // than aborting the whole table.
        let mut take = |s: Strategy| -> Option<Measurement> {
            match results.next().expect("one result per job") {
                Ok((m, report, diagnostics)) => {
                    for d in diagnostics {
                        eprintln!("{}/{}: {d}", app.name, s.label());
                    }
                    set.reports.push(report);
                    Some(m)
                }
                Err(e) => {
                    eprintln!("{}/{}: skipped: {e}", app.name, s.label());
                    None
                }
            }
        };
        let (base, sgi, new) = (take(Strategy::Original), take(Strategy::Sgi), take(new_strategy));
        let (Some(base), Some(sgi), Some(new)) = (base, sgi, new) else {
            eprintln!("{}: skipped (a version failed)", app.name);
            continue;
        };
        let r_sgi = sgi.rel(&base);
        let r_new = new.rel(&base);
        for k in 0..3 {
            sums[0][k] += r_sgi[k + 1];
            sums[1][k] += r_new[k + 1];
        }
        count += 1;
        let traffic = |m: &Measurement| {
            m.misses.memory_traffic as f64 / base.misses.memory_traffic.max(1) as f64
        };
        rows.push(vec![
            app.name.to_string(),
            "1.00".into(),
            format!("{:.2}", r_sgi[1]),
            format!("{:.2}", r_new[1]),
            "1.00".into(),
            format!("{:.2}", r_sgi[2]),
            format!("{:.2}", r_new[2]),
            "1.00".into(),
            format!("{:.2}", r_sgi[3]),
            format!("{:.2}", r_new[3]),
            format!("{:.2}", traffic(&sgi)),
            format!("{:.2}", traffic(&new)),
        ]);
    }
    let avg = |v: f64| v / count as f64;
    rows.push(vec![
        "average".into(),
        "1.00".into(),
        format!("{:.2}", avg(sums[0][0])),
        format!("{:.2}", avg(sums[1][0])),
        "1.00".into(),
        format!("{:.2}", avg(sums[0][1])),
        format!("{:.2}", avg(sums[1][1])),
        "1.00".into(),
        format!("{:.2}", avg(sums[0][2])),
        format!("{:.2}", avg(sums[1][2])),
    ]);
    print_table(
        "Section 6: normalized misses and memory traffic (NoOpt / SGI-like / New)",
        &[
            "program",
            "L1 NoOpt",
            "L1 SGI",
            "L1 New",
            "L2 NoOpt",
            "L2 SGI",
            "L2 New",
            "TLB NoOpt",
            "TLB SGI",
            "TLB New",
            "traffic SGI",
            "traffic New",
        ],
        &rows,
    );
    // Reduction-ratio summary (paper: 9x L1, 3.4x L2, 1.8x TLB).
    let red = |s: f64| (1.0 - avg(s)).max(0.0);
    println!(
        "\n  average miss reduction New vs SGI-like: L1 {:.1}x, L2 {:.1}x, TLB {:.1}x",
        ratio(red(sums[1][0]), red(sums[0][0])),
        ratio(red(sums[1][1]), red(sums[0][1])),
        ratio(red(sums[1][2]), red(sums[0][2])),
    );
    set.timing = Some(SweepTiming {
        threads: if threads == 0 { gcr_par::thread_count() } else { threads },
        wall_ns,
        memo_hits: cache.hits(),
        memo_misses: cache.misses(),
        memo_evictions: cache.evictions(),
        memo_corrupt: cache.corrupt(),
    });
    match set.write(&json_path) {
        Ok(()) => println!("\nJSON report set ({} runs) written to {json_path}", set.reports.len()),
        Err(e) => eprintln!("could not write {json_path}: {e}"),
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b <= 0.0 {
        f64::INFINITY
    } else {
        a / b
    }
}
