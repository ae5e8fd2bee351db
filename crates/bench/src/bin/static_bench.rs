//! `static_bench` — analytic prediction vs trace simulation wall time.
//!
//! The symbolic reuse model ([`gcr_static`]) pays a one-time fitting cost
//! (a handful of probe simulations at small fixed sizes) and then answers
//! any capacity sweep by evaluating a few polynomials — microseconds,
//! independent of `N`. This benchmark makes that trade concrete on the
//! stream kernel: it times model construction once, then compares
//! per-size evaluation against a full [`gcr_cache::CapacitySweepSink`]
//! simulation at N ∈ {10³, 10⁴, 10⁶, 10⁹}. Simulation is skipped above
//! [`MAX_SIM_SIZE`] (a 10⁹-element simulation would take hours — which is
//! the point); prediction still answers there, exactly.
//!
//! Results merge into the `static_bench` section of `BENCH_sweep.json`
//! (`--json PATH` overrides), preserving every other section.
//!
//! Usage: `static_bench [--evals N] [--json PATH]`

use gcr_bench::cli::{merge_section, Flags};
use gcr_cache::CapacitySweepSink;
use gcr_cli::report::Json;
use gcr_ir::ParamBinding;
use std::time::Instant;

/// Largest size worth simulating interactively (5·10⁶ traced accesses at
/// this program's shape).
const MAX_SIM_SIZE: i64 = 1_000_000;

const LINE: u64 = 32;
const CAPACITIES: [u64; 3] = [256, 1024, 4096];
const SIZES: [i64; 4] = [1_000, 10_000, 1_000_000, 1_000_000_000];

const SRC: &str = "
program stream
param N
array A[N], B[N], C[N]

for i = 1, N {
  B[i] = f(A[i])
}
for i = 1, N {
  C[i] = g(B[i], C[i])
}
";

fn main() {
    let flags = Flags::from_env();
    let evals: u32 = flags.num("--evals", 1000);
    let json_path = flags.value("--json").unwrap_or_else(|| "BENCH_sweep.json".into());

    let prog = gcr_frontend::parse(SRC).expect("benchmark program parses");
    let spec = gcr_static::SweepSpec::new(LINE, CAPACITIES.to_vec(), 1);

    let t0 = Instant::now();
    let analyzer = gcr_static::Analyzer::analyze(&prog, spec).expect("stream is analyzable");
    let model_build_ns = t0.elapsed().as_nanos() as u64;
    let model = analyzer.model();
    println!(
        "model: {} class, degree {}, period {}, regime base {}, {} probe sims, built in {:.2} ms",
        model.class.name(),
        model.degree,
        model.period,
        model.base,
        model.probe_sims,
        model_build_ns as f64 / 1e6
    );

    let mut rows = Vec::new();
    for &n in &SIZES {
        // Evaluation cost: a single predict() is sub-microsecond, so time
        // a batch and report the mean.
        let t0 = Instant::now();
        let mut p = analyzer.predict(n).expect("prediction in regime");
        for _ in 1..evals {
            p = analyzer.predict(n).expect("prediction in regime");
        }
        let eval_ns = (t0.elapsed().as_nanos() as u64) / u64::from(evals.max(1));

        let sim = (n <= MAX_SIM_SIZE).then(|| {
            let binding = ParamBinding::new(vec![n; prog.params.len()]);
            let mut m = gcr_exec::Machine::new(&prog, binding);
            let mut sink = CapacitySweepSink::new(LINE, &CAPACITIES);
            let t0 = Instant::now();
            m.run(&mut sink);
            let ns = t0.elapsed().as_nanos() as u64;
            (ns, sink)
        });

        let (simulation_ns, speedup) = match &sim {
            Some((ns, sink)) => {
                // The benchmark is only honest if both sides agree.
                for cp in &p.capacities {
                    assert_eq!(
                        cp.misses,
                        sink.misses(cp.capacity) as u128,
                        "prediction diverged from simulation at N={n}, {}B",
                        cp.capacity
                    );
                }
                (Json::U(*ns), Json::F(*ns as f64 / (eval_ns.max(1)) as f64))
            }
            None => (Json::Null, Json::Null),
        };
        println!(
            "N={n:>10}: eval {:>8} ns ({}), simulation {}",
            eval_ns,
            p.method.name(),
            match &sim {
                Some((ns, _)) => format!(
                    "{:.1} ms ({:.0}x slower)",
                    *ns as f64 / 1e6,
                    *ns as f64 / eval_ns.max(1) as f64
                ),
                None => format!("skipped (> {MAX_SIM_SIZE} elements)"),
            }
        );

        let misses: Vec<Json> = p
            .capacities
            .iter()
            .map(|cp| {
                Json::O(vec![
                    ("capacity_bytes", Json::U(cp.capacity)),
                    ("misses", big_json(cp.misses)),
                ])
            })
            .collect();
        rows.push(Json::O(vec![
            ("n", Json::I(n)),
            ("method", Json::S(p.method.name().into())),
            ("eval_ns", Json::U(eval_ns)),
            ("simulation_ns", simulation_ns),
            ("speedup", speedup),
            ("refs", big_json(p.refs)),
            ("misses", Json::A(misses)),
        ]));
    }

    let section = Json::O(vec![
        ("program", Json::S("stream".into())),
        ("line_bytes", Json::U(LINE)),
        ("capacities", Json::A(CAPACITIES.iter().map(|&c| Json::U(c)).collect())),
        ("class", Json::S(model.class.name().into())),
        ("degree", Json::U(model.degree as u64)),
        ("probe_sims", Json::U(u64::from(model.probe_sims))),
        ("model_build_ns", Json::U(model_build_ns)),
        ("evals_per_point", Json::U(u64::from(evals))),
        ("sizes", Json::A(rows)),
    ]);
    if let Err(e) = merge_section(&json_path, vec![("static_bench", section)]) {
        eprintln!("could not write {json_path}: {e}");
        std::process::exit(1);
    }
    println!("static_bench section merged into {json_path}");
}

fn big_json(v: u128) -> Json {
    if v <= u64::MAX as u128 {
        Json::U(v as u64)
    } else {
        Json::F(v as f64)
    }
}
