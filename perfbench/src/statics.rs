//! `static`: fits of the analytic reuse model, then predictions.
//!
//! One operation is one `gcr_static::Analyzer::analyze_with` fit of an
//! optimized kernel followed by `predict` at N = 10⁶ and 10⁹. Probe
//! fitting is the whole cost here and nearly absent elsewhere; without
//! this workload `gcr-static` would only be measured through millisecond
//! 1-D fits inside `serve`.
//! - 1-D kernels (the `static_bench` stream kernel, histogram, relax) use
//!   the CLI/serve ladder: 32 B lines, 256 B to 16 KB.
//! - 2-D gallery kernels use a 256 B/1 KB ladder: on the full ladder a
//!   single 2-D fit takes about 3 minutes.

use crate::span::Spans;
use crate::{fnv64, repeat_for, set_up, Config, Outcome, Rng};
use gcr_cache::CapacitySweepSink;
use gcr_core::checked::{apply_strategy_checked_traced, SafetyOptions};
use gcr_core::pipeline::{OptimizedProgram, Strategy};
use gcr_core::regroup::RegroupLevel;
use gcr_core::Tracer;
use gcr_exec::{ExecEngine, Machine};
use gcr_ir::ParamBinding;
use gcr_static::{Analyzer, Class, Prediction, StaticError, SweepSpec, DEFAULT_PROBE_FUEL};
use std::time::Instant;

/// The `static_bench` stream kernel.
pub const STREAM: &str = "
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

/// 1-D gallery kernels on the full ladder.
const KERNELS_1D: &[&str] = &["histogram", "relax"];
/// 2-D gallery kernels on the short ladder.
const KERNELS_2D: &[&str] = &["adi", "guard_stress", "jacobi2d", "laplace", "stencil9", "wave2d"];

const LADDER_1D: &[u64] = &[256, 1024, 4096, 16384];
const LADDER_2D: &[u64] = &[256, 1024];
const LINE: u64 = 32;
/// Sizes each fitted model answers.
const PREDICT_AT: [i64; 2] = [1_000_000, 1_000_000_000];

struct Input {
    name: String,
    source: &'static str,

    opt: OptimizedProgram,
    two_d: bool,
    spec: SweepSpec,
}

fn strategy() -> Strategy {
    Strategy::FusionRegroup { levels: 3, regroup: RegroupLevel::Multi }
}

/// Parses and optimizes every kernel (the static workload times fits,
/// not the optimizer), then fits the stream kernel once as a warm-up.
fn setup(cfg: &Config) -> Vec<Input> {
    let mut named: Vec<(String, &'static str, bool)> = vec![("stream".into(), STREAM, false)];
    let kernels_2d: &[&str] = if cfg.smoke { &["laplace"] } else { KERNELS_2D };
    for (names, two_d) in [(KERNELS_1D, false), (kernels_2d, true)] {
        for name in names {
            let k = gcr_apps::gallery_kernel(name).expect("gallery kernel exists");
            named.push((k.name.to_string(), k.source, two_d));
        }
    }
    Rng::new(cfg.seed).shuffle(&mut named);
    let inputs: Vec<Input> = named
        .into_iter()
        .map(|(name, source, two_d)| {
            let prog = gcr_frontend::parse(source).expect("kernel parses");
            let opt = apply_strategy_checked_traced(
                &prog,
                strategy(),
                &SafetyOptions::default(),
                &mut Tracer::disabled(),
            )
            .expect("kernel optimizes");
            let ladder = if two_d { LADDER_2D } else { LADDER_1D };
            let spec = SweepSpec::new(LINE, ladder.to_vec(), 1);
            Input { name, source, opt, two_d, spec }
        })
        .collect();
    let stream = inputs.iter().find(|i| i.name == "stream").expect("stream is an input");
    let _ = fit(stream, ExecEngine::from_env().unwrap_or_default());
    inputs
}

fn fit<'a>(input: &'a Input, engine: ExecEngine) -> Result<Analyzer<'a>, StaticError> {
    Analyzer::analyze_with(
        &input.opt.program,
        input.spec.clone(),
        engine,
        DEFAULT_PROBE_FUEL,
        |b| input.opt.layout(b),
    )
}

/// A size at or above the regime base where the model's polynomial path
/// answers and a direct simulation is still cheap.
fn check_size(base: i64) -> i64 {
    base + 3
}

/// Direct `CapacitySweepSink` simulation: the reference for a prediction.
fn simulate(input: &Input, n: i64, engine: ExecEngine) -> Result<Vec<u64>, gcr_ir::GcrError> {
    let bind = ParamBinding::new(vec![n; input.opt.program.params.len()]);
    let layout = input.opt.layout(&bind);
    let mut m = Machine::with_layout(&input.opt.program, bind, layout).with_engine(engine);
    let mut sink = CapacitySweepSink::new(input.spec.line, &input.spec.capacities);
    m.run_steps_guarded(&mut sink, input.spec.steps, DEFAULT_PROBE_FUEL)?;
    Ok(sink.miss_counts().into_iter().map(|(_, m)| m).collect())
}

/// Exact models must equal the simulation; bounded ones must stay within
/// their stated tolerance.
fn agrees(p: &Prediction, sim: &[u64]) -> bool {
    p.capacities.len() == sim.len()
        && p.capacities.iter().zip(sim).all(|(c, &s)| match p.class {
            Class::Exact => c.misses == s as u128,
            Class::Bounded => {
                let err = (c.misses as f64 - s as f64).abs() / (s as f64).max(1.0);
                err <= p.tolerance + 1e-12
            }
        })
}

/// A reference simulation: the size it ran at and its miss counts.
type Reference = (i64, Result<Vec<u64>, String>);

/// What one fit produced, for the output check after the timed pass.
struct FitResult {
    check: Result<Prediction, String>,
    base: i64,
    /// Latency of each `predict` at [`PREDICT_AT`], in microseconds.
    eval_us: Vec<f64>,
}

fn op(input: &Input, engine: ExecEngine) -> FitResult {
    match fit(input, engine) {
        Ok(a) => {
            let base = a.model().base;
            let mut eval_us = Vec::new();
            let mut answers = true;
            for n in PREDICT_AT {
                let t = Instant::now();
                answers &= a.predict(n).is_ok();
                eval_us.push(t.elapsed().as_secs_f64() * 1e6);
            }
            let check = a.predict(check_size(base)).map_err(|e| e.to_string());
            let check = if answers { check } else { Err("prediction at 10^6/10^9 failed".into()) };
            FitResult { check, base, eval_us }
        }
        Err(e) => FitResult { check: Err(e.to_string()), base: 0, eval_us: Vec::new() },
    }
}

pub fn run(cfg: &Config) -> Outcome {
    let engine = ExecEngine::from_env().unwrap_or_default();
    let mut o = Outcome::default();
    let inputs = set_up(&mut o, || setup(cfg));
    o.inputs =
        inputs.iter().map(|i| (format!("static/{}", i.name), fnv64(i.source.as_bytes()))).collect();
    // Reference simulations, keyed by input and computed once per run,
    // outside the timed region.
    let mut refs: Vec<Option<Reference>> = (0..inputs.len()).map(|_| None).collect();
    let mut eval_us = Vec::new();
    let mut verify = |o: &mut Outcome, results: Vec<FitResult>| {
        for ((input, r), slot) in inputs.iter().zip(results).zip(refs.iter_mut()) {
            eval_us.extend(&r.eval_us);
            let ok = match &r.check {
                Ok(p) => {
                    let n = check_size(r.base);
                    if slot.as_ref().is_none_or(|(m, _)| *m != n) {
                        *slot = Some((
                            n,
                            simulate(input, n, ExecEngine::Interp).map_err(|e| e.to_string()),
                        ));
                    }
                    matches!(slot, Some((_, Ok(sim))) if agrees(p, sim))
                }
                Err(_) => false,
            };
            o.check(ok, || match &r.check {
                Ok(_) => format!("static {}: prediction disagrees with simulation", input.name),
                Err(e) => format!("static {}: {e}", input.name),
            });
        }
    };
    let pass = |o: &mut Outcome| {
        let t = Instant::now();
        let mut results = Vec::new();
        for (i, input) in inputs.iter().enumerate() {
            let t = Instant::now();
            results.push(op(input, engine));
            o.ops_ms.push((i as u64, t.elapsed().as_secs_f64() * 1e3));
        }
        (t.elapsed().as_secs_f64(), results)
    };
    o.batch = true;
    if cfg.trace {
        let (untraced, results) = pass(&mut o);
        verify(&mut o, results);
        traced(cfg, &inputs, engine, untraced, &mut o);
    } else {
        let start = Instant::now();
        while o.passes_s.len() < 3 || start.elapsed() < cfg.budget() {
            let (s, results) = pass(&mut o);
            o.passes_s.push(s);
            verify(&mut o, results);
        }
        o.detail.insert("static_fit_s", crate::best_pass_s(&o.ops_ms));
        o.detail.insert("static_eval_us", crate::median(&eval_us));
    }
    o
}

fn traced(cfg: &Config, inputs: &[Input], engine: ExecEngine, untraced_s: f64, o: &mut Outcome) {
    let mut sp = Spans::default();
    let (mut probe_sims, mut max_base, mut not_analyzable) = (0u64, 0i64, 0u64);
    let start = Instant::now();
    let npasses = repeat_for(cfg.budget(), 1, || {
        for (i, input) in inputs.iter().enumerate() {
            let op = i as u64;
            let root = sp.enter("bench.fit", op);
            let name = if input.two_d { "static.fit_2d" } else { "static.fit_1d" };
            match sp.time(name, op, || fit(input, engine)) {
                Ok(a) => {
                    probe_sims += u64::from(a.model().probe_sims);
                    max_base = max_base.max(a.model().base);
                    let ok = sp.time("static.eval", op, || {
                        PREDICT_AT.iter().all(|&n| a.predict(n).is_ok())
                    });
                    o.check(ok, || format!("static {}: prediction failed", input.name));
                }
                Err(e) => {
                    not_analyzable += u64::from(matches!(e, StaticError::NotAnalyzable { .. }));
                    o.check(false, || format!("static {}: {e}", input.name));
                }
            }
            sp.exit(root);
        }
    });
    let per = npasses as f64;
    let wall = start.elapsed().as_secs_f64() / per;
    o.layer("static.probe_sims", probe_sims as f64 / per);
    o.layer("static.max_base", max_base as f64);
    o.layer("static.not_analyzable", not_analyzable as f64 / per);
    o.layer("trace.overhead_s", wall - untraced_s);
    o.layers_from_spans(&sp, npasses, wall);
    o.spans = Some(sp);
}
