//! `sweep`: the paper experiments, as `fig10` and `fig3 --quick` run them.
//!
//! One pass is what the experiment binaries run, one operation per job or
//! plot:
//! - the 13 fig10 jobs (4 apps × `fig10_strategies`, half the default
//!   sizes, one step) through `run_jobs` on one worker with a fresh
//!   `MeasureCache` (cold: optimizer plus simulation);
//! - the same jobs again on the same cache (warm: almost all checked
//!   optimizer, ~70% of it checkpoint oracles);
//! - the 4 plots of the fig3 limit study at its `--quick` sizes:
//!   `capture_trace`, then `reuse_driven_order`, then `measure_order` —
//!   the only place `gcr-reuse`'s reuse-driven execution runs.
//!
//! One worker, because on two the warm pass spread 0.53–0.65 s while on
//! one it stayed under 1%; `par.*` in the traced run covers two workers.

use crate::gallery::parse_sections;
use crate::span::Spans;
use crate::{fnv64, repeat_for, set_up, Config, Outcome, Rng};
use gcr_apps::AppSpec;
use gcr_bench::sweep::{measurement_key, run_jobs, CachedRun, JobResult, MeasureCache, SweepJob};
use gcr_bench::{fig10_strategies, Measurement, MEASURE_FUEL};
use gcr_cache::{CostModel, MemoryHierarchy, PhasedHierarchySink};
use gcr_cli::report::SimSection;
use gcr_cli::Report;
use gcr_core::checked::{apply_strategy_checked_traced, SafetyOptions, DEFAULT_MAX_BYTES};
use gcr_core::pipeline::{apply_strategy, Strategy};
use gcr_core::{fuse_program, FusionOptions, Tracer};
use gcr_exec::{ExecEngine, Machine, NullSink};
use gcr_ir::{ParamBinding, Program};
use gcr_reuse::driven::{measure_order, measure_program_order, reuse_driven_order};
use gcr_reuse::{Histogram, InstrTrace, TraceCapture};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Expected outputs, produced by `perfbench --bless` under the reference
/// interpreter (`ExecEngine::Interp`).
const EXPECTED: &str = include_str!("../expected/sweep.txt");

/// One fig3 plot: a program at one size, with the fusion curve on the
/// largest SP size (as `fig3` draws it).
pub struct Plot {
    pub name: String,
    pub prog: Program,
    pub size: i64,
    pub with_fusion: bool,
}

struct Inputs {
    apps: Vec<AppSpec>,
    /// `(app index, strategy, size)`, in seeded order.
    jobs: Vec<(usize, Strategy, i64)>,
    plots: Vec<Plot>,
    expected: BTreeMap<String, String>,
}

impl Inputs {
    fn sweep_jobs(&self) -> Vec<SweepJob<'_>> {
        self.jobs
            .iter()
            .map(|&(a, strategy, size)| SweepJob { app: &self.apps[a], strategy, size, steps: 1 })
            .collect()
    }
}

/// `fig10 --size-scale 0.5`: half the default size. At the default sizes
/// the arrays and simulator state (about 26 MB) live in the host's shared
/// last-level cache, whose contention by other tenants moved whole runs
/// by 30–60%; at half size they fit in the core's own L2.
fn fig10_size(app: &AppSpec) -> i64 {
    ((app.default_size as f64 * 0.5) as i64).max(8)
}

fn job_key(job: &SweepJob<'_>) -> String {
    format!("fig10 {} {} N={}", job.app.name, job.strategy.label(), job.size)
}

fn inputs(cfg: &Config) -> Inputs {
    let apps = gcr_apps::evaluation_apps();
    let mut jobs = Vec::new();
    for (a, app) in apps.iter().enumerate() {
        let size = if cfg.smoke { 12 } else { fig10_size(app) };
        for s in fig10_strategies(app.name) {
            jobs.push((a, s, size));
        }
    }
    let mut rng = Rng::new(cfg.seed);
    rng.shuffle(&mut jobs);
    let (adi, sp): (&[i64], &[i64]) = if cfg.smoke { (&[12], &[6]) } else { (&[26, 50], &[8, 14]) };
    let mut plots = Vec::new();
    for &n in adi {
        plots.push(Plot {
            name: format!("fig3 ADI N={n}"),
            prog: gcr_apps::adi::program(),
            size: n,
            with_fusion: false,
        });
    }
    for &n in sp {
        plots.push(Plot {
            name: format!("fig3 SP N={n}"),
            prog: gcr_apps::sp::program(),
            size: n,
            with_fusion: n == *sp.last().expect("SP sizes"),
        });
    }
    rng.shuffle(&mut plots);
    let mut inputs = Inputs { apps, jobs, plots, expected: BTreeMap::new() };
    // Smoke sizes have no stored reference: compute it on the spot.
    inputs.expected = if cfg.smoke { reference(&inputs) } else { parse_sections(EXPECTED) };
    inputs
}

/// Every job's and plot's deterministic text under the reference
/// interpreter.
fn reference(inputs: &Inputs) -> BTreeMap<String, String> {
    let jobs = inputs.sweep_jobs();
    let cache = MeasureCache::new();
    let results = gcr_bench::sweep::run_jobs_with(1, &cache, "fig10", &jobs, ExecEngine::Interp);
    let mut sections = BTreeMap::new();
    for (job, r) in jobs.iter().zip(results) {
        let (m, rep, _) = r.expect("fig10 job runs under the interpreter");
        sections.insert(job_key(job), job_text(&m, &rep));
    }
    for p in &inputs.plots {
        sections.insert(
            p.name.clone(),
            plot_text(p, |prog, b| capture_with(prog, b, ExecEngine::Interp)),
        );
    }
    sections
}

/// Builds the inputs, then runs each app's original program once at size
/// 12 on a throwaway cache as a warm-up, so first-touch costs land in
/// set-up rather than the first pass.
fn setup(cfg: &Config) -> Inputs {
    let inputs = inputs(cfg);
    let warm: Vec<SweepJob<'_>> = inputs
        .apps
        .iter()
        .map(|app| SweepJob { app, strategy: Strategy::Original, size: 12, steps: 1 })
        .collect();
    let _ = run_jobs(1, &MeasureCache::new(), "fig10", &warm);
    inputs
}

/// The deterministic part of one fig10 job's output: counters, cycles and
/// the report with wall clocks zeroed (hashed; the report is long).
fn job_text(m: &Measurement, report: &Report) -> String {
    let c = &m.misses;
    format!(
        "label={} refs={} l1={} l2={} tlb={} traffic={} cycles={:016x} flops={} report_fnv={:016x}\n",
        m.label,
        c.refs,
        c.l1,
        c.l2,
        c.tlb,
        c.memory_traffic,
        m.cycles.to_bits(),
        m.stats.flops,
        fnv64(report.clone().normalized().to_json().as_bytes())
    )
}

fn hist_line(curve: &str, h: &Histogram) -> String {
    format!("{curve}: cold={} reuses={} bins={:?}\n", h.cold, h.reuses, h.bins)
}

/// Captures a one-step trace under `engine` (`gcr_bench::capture_trace`
/// with the engine made explicit, for the reference run).
fn capture_with(prog: &Program, bind: ParamBinding, engine: ExecEngine) -> InstrTrace {
    let mut m = Machine::new(prog, bind).with_engine(engine);
    let est = m.estimate();
    let mut cap = TraceCapture::with_capacity(est.instances, est.accesses);
    m.run(&mut cap);
    cap.finish()
}

/// The fusion curve's program: prelim plus reuse-based fusion, as `fig3`
/// builds it.
fn fused(prog: &Program) -> Program {
    let opt = gcr_core::pipeline::OptimizeOptions::default();
    let mut fused = prog.clone();
    gcr_core::prelim::preliminary(&mut fused, opt.small_dim_limit);
    fuse_program(&mut fused, &FusionOptions::default());
    fused
}

/// One fig3 plot through the public `gcr-bench`/`gcr-reuse` calls.
fn plot_text(p: &Plot, capture: impl Fn(&Program, ParamBinding) -> InstrTrace) -> String {
    let bind = ParamBinding::new(vec![p.size]);
    let trace = capture(&p.prog, bind.clone());
    let (h_prog, _) = measure_program_order(&trace);
    let order = reuse_driven_order(&trace);
    let (h_driven, _) = measure_order(&trace, &order);
    let mut out = hist_line("program order", &h_prog) + &hist_line("reuse-driven", &h_driven);
    if p.with_fusion {
        let ftrace = capture(&fused(&p.prog), bind);
        out += &hist_line("reuse-fusion", &measure_program_order(&ftrace).0);
    }
    out
}

fn check_jobs(
    o: &mut Outcome,
    inputs: &Inputs,
    jobs: &[SweepJob<'_>],
    results: &[JobResult],
    against: Option<&[JobResult]>,
) {
    for (i, (job, r)) in jobs.iter().zip(results).enumerate() {
        let key = job_key(job);
        let text = r.as_ref().map(|(m, rep, _)| job_text(m, rep));
        let want = match against {
            Some(cold) => cold[i].as_ref().ok().map(|(m, rep, _)| job_text(m, rep)),
            None => inputs.expected.get(&key).cloned(),
        };
        let ok = matches!((&text, &want), (Ok(t), Some(w)) if t == w);
        let what = if against.is_some() {
            "warm pass differs from cold"
        } else {
            "differs from reference"
        };
        o.check(ok, || format!("{key}: {what}"));
    }
}

pub fn run(cfg: &Config) -> Outcome {
    let mut o = Outcome::default();
    let inputs = set_up(&mut o, || setup(cfg));
    for app in &inputs.apps {
        let (prog, _) = (app.build)(app.default_size);
        o.inputs.push((
            format!("app/{}", app.name),
            fnv64(gcr_ir::print::print_program(&prog).as_bytes()),
        ));
    }
    let jobs = inputs.sweep_jobs();
    // Each job and each plot is its own operation, so every input gets a
    // best time of its own: `run_jobs` is called once per job, in order,
    // cold on a fresh cache and then warm on the same one.
    let pass = |o: &mut Outcome| {
        let t = Instant::now();
        let cache = MeasureCache::new();
        let timed_jobs = |o: &mut Outcome, phase: u64| -> Vec<JobResult> {
            let mut results = Vec::new();
            for (i, job) in jobs.iter().enumerate() {
                let t = Instant::now();
                results.extend(run_jobs(1, &cache, "fig10", std::slice::from_ref(job)));
                o.ops_ms.push((phase + i as u64, t.elapsed().as_secs_f64() * 1e3));
            }
            results
        };
        let cold = timed_jobs(o, COLD);
        let warm = timed_jobs(o, WARM);
        let mut plots = Vec::new();
        for (i, p) in inputs.plots.iter().enumerate() {
            let t = Instant::now();
            plots.push(plot_text(p, gcr_bench::capture_trace));
            o.ops_ms.push((FIG3 + i as u64, t.elapsed().as_secs_f64() * 1e3));
        }
        let pass_s = t.elapsed().as_secs_f64();
        check_jobs(o, &inputs, &jobs, &cold, None);
        check_jobs(o, &inputs, &jobs, &warm, Some(&cold));
        for (p, text) in inputs.plots.iter().zip(&plots) {
            let ok = inputs.expected.get(&p.name) == Some(text);
            o.check(ok, || format!("{}: histograms differ from reference", p.name));
        }
        let counters = cache.counters();
        o.require(
            counters.misses == jobs.len() as u64 && counters.hits == jobs.len() as u64,
            || {
                format!(
                    "memo counters {}/{} for {} jobs cold + warm",
                    counters.hits,
                    counters.misses,
                    jobs.len()
                )
            },
        );
        pass_s
    };
    o.batch = true;
    if cfg.trace {
        let untraced = pass(&mut o);
        traced(cfg, &inputs, untraced, &mut o);
    } else {
        let mut passes = Vec::new();
        repeat_for(cfg.budget(), 3, || passes.push(pass(&mut o)));
        o.passes_s = passes;
        // Each phase's time as the sum of its inputs' best times, like
        // `pass_s`.
        let phase = |lo: u64, hi: u64| {
            let ops: Vec<(u64, f64)> =
                o.ops_ms.iter().copied().filter(|(k, _)| (lo..hi).contains(k)).collect();
            crate::best_pass_s(&ops)
        };
        let (cold, warm, fig3) = (phase(COLD, WARM), phase(WARM, FIG3), phase(FIG3, u64::MAX));
        o.detail.extend([("sweep_cold_s", cold), ("sweep_warm_s", warm), ("fig3_s", fig3)]);
    }
    o
}

/// Operation keys: cold job `i` is `COLD + i`, its warm rerun `WARM + i`,
/// fig3 plot `j` is `FIG3 + j`.
const COLD: u64 = 0;
const WARM: u64 = 1000;
const FIG3: u64 = 2000;

#[derive(Default)]
struct Tally {
    accesses: u64,
    calls: u64,
    passes: u64,
    degraded: u64,
    report_bytes: u64,
    parses: u64,
    trace_instrs: u64,
}

/// One fig10 job with `measure_strategy_report_cached_with` taken apart
/// into its layer calls. Returns the job's deterministic text.
fn job_traced(
    sp: &mut Spans,
    t: &mut Tally,
    cache: &MeasureCache,
    job: &SweepJob<'_>,
    engine: ExecEngine,
    op: u64,
) -> Result<String, gcr_ir::GcrError> {
    let app = job.app;
    let (prog, bind) = sp.time("frontend.parse", op, || (app.build)(job.size));
    t.parses += 1;
    let mut tracer = Tracer::enabled();
    let opt = sp.time("core.checked", op, || {
        apply_strategy_checked_traced(&prog, job.strategy, &SafetyOptions::default(), &mut tracer)
    })?;
    sp.time("core.optimize", op, || apply_strategy(&prog, job.strategy));
    t.calls += 1;
    t.passes += tracer.events().len() as u64;
    t.degraded += u64::from(opt.robustness.degraded());
    let layout = opt.layout(&bind);
    let key = sp.time("sweep.key", op, || {
        let text = gcr_ir::print::print_program(&opt.program);
        measurement_key(&text, &layout, &bind, job.steps, app.l1_scale, app.l2_scale)
    });
    let run = match sp.time("sweep.lookup", op, || cache.lookup(key)) {
        Some(run) => run,
        None => {
            let machine = || -> Result<Machine<'_>, gcr_ir::GcrError> {
                Ok(Machine::try_with_layout(
                    &opt.program,
                    bind.clone(),
                    layout.clone(),
                    Some(DEFAULT_MAX_BYTES),
                )?
                .with_engine(engine))
            };
            let mut m = machine()?;
            sp.time("exec.plan", op, || m.compiles());
            let mut bare = machine()?;
            sp.time("exec.run", op, || {
                bare.run_steps_guarded(&mut NullSink, job.steps, MEASURE_FUEL)
            })?;
            t.accesses += bare.stats().accesses();
            let mut sink = PhasedHierarchySink::new(
                MemoryHierarchy::origin2000_scaled(app.l1_scale, app.l2_scale),
                &opt.program,
            );
            sp.time("cache.phased", op, || {
                m.run_steps_guarded(&mut sink, job.steps, MEASURE_FUEL)
            })?;
            let misses = sink.hierarchy.counts();
            let stats = m.stats();
            let cycles = CostModel::default().cycles(&stats, &misses);
            let run = CachedRun { stats, misses, cycles, phases: sink.phases() };
            sp.time("sweep.insert", op, || cache.insert(key, run.clone()));
            run
        }
    };
    let text = sp.time("cli.report", op, || {
        let mut label = job.strategy.label();
        if opt.robustness.degraded() {
            label = format!("{} (degraded: {})", opt.robustness.strategy, label);
        }
        let mut report =
            Report::new("fig10", &prog, job.strategy.label(), &opt, tracer.into_events());
        report.simulation = Some(SimSection {
            size: job.size,
            steps: job.steps,
            cycles: run.cycles,
            flops: run.stats.flops,
            total: run.misses,
            phases: run.phases.clone(),
        });
        let m = Measurement { label, stats: run.stats, misses: run.misses, cycles: run.cycles };
        job_text(&m, &report)
    });
    t.report_bytes += text.len() as u64;
    Ok(text)
}

/// One fig3 plot with each `gcr-reuse` call in its own span.
fn plot_traced(sp: &mut Spans, t: &mut Tally, p: &Plot, op: u64) -> String {
    let bind = ParamBinding::new(vec![p.size]);
    let trace = sp.time("reuse.capture", op, || gcr_bench::capture_trace(&p.prog, bind.clone()));
    t.trace_instrs += trace.len() as u64;
    let (h_prog, _) = sp.time("reuse.distance", op, || measure_program_order(&trace));
    let order = sp.time("reuse.driven", op, || reuse_driven_order(&trace));
    let (h_driven, _) = sp.time("reuse.distance", op, || measure_order(&trace, &order));
    let mut out = hist_line("program order", &h_prog) + &hist_line("reuse-driven", &h_driven);
    if p.with_fusion {
        // Prelim plus fusion, unchecked: not part of `core.optimize`, which
        // pairs with `core.checked` to give the checkpoint share.
        let f = sp.time("core.fuse", op, || fused(&p.prog));
        let ftrace = sp.time("reuse.capture", op, || gcr_bench::capture_trace(&f, bind));
        t.trace_instrs += ftrace.len() as u64;
        out += &hist_line(
            "reuse-fusion",
            &sp.time("reuse.distance", op, || measure_program_order(&ftrace)).0,
        );
    }
    out
}

fn traced(cfg: &Config, inputs: &Inputs, untraced_s: f64, o: &mut Outcome) {
    let engine = ExecEngine::from_env().unwrap_or_default();
    let jobs = inputs.sweep_jobs();
    let mut sp = Spans::default();
    let mut t = Tally::default();
    let (mut hits, mut misses, mut par1, mut par2) = (0u64, 0u64, 0.0, 0.0);
    let start = Instant::now();
    let mut sweep_s = 0.0;
    let npasses = repeat_for(cfg.budget(), 1, || {
        let t0 = Instant::now();
        let cache = MeasureCache::new();
        for phase in ["cold", "warm"] {
            let mut texts = Vec::new();
            for (i, job) in jobs.iter().enumerate() {
                let root = sp.enter("bench.job", i as u64);
                let r = job_traced(&mut sp, &mut t, &cache, job, engine, i as u64);
                sp.exit(root);
                texts.push(r.ok());
            }
            for (job, text) in jobs.iter().zip(&texts) {
                let key = job_key(job);
                let want = inputs.expected.get(&key);
                let ok = text.is_some() && text.as_ref() == want;
                o.check(ok, || format!("{key}: traced {phase} pass differs from reference"));
            }
        }
        for (i, p) in inputs.plots.iter().enumerate() {
            let root = sp.enter("bench.plot", i as u64);
            let text = plot_traced(&mut sp, &mut t, p, i as u64);
            sp.exit(root);
            let ok = inputs.expected.get(&p.name) == Some(&text);
            o.check(ok, || format!("{}: traced histograms differ from reference", p.name));
        }
        let c = cache.counters();
        hits += c.hits;
        misses += c.misses;
        sweep_s += t0.elapsed().as_secs_f64();
        // The cold sweep on one worker and on two: `par` owns both spans.
        for (workers, total) in [(1usize, &mut par1), (2, &mut par2)] {
            let fresh = MeasureCache::new();
            let id =
                sp.enter(if workers == 1 { "par.jobs_1" } else { "par.jobs_2" }, workers as u64);
            let r = run_jobs(workers, &fresh, "fig10", &jobs);
            sp.exit(id);
            *total += sp.all()[id].dur_ns() as f64 / 1e9;
            o.check(r.iter().all(Result::is_ok), || {
                format!("cold sweep on {workers} workers failed")
            });
        }
    });
    let per = npasses as f64;
    let wall = start.elapsed().as_secs_f64() / per;
    o.layer("exec.accesses", t.accesses as f64 / per);
    o.layer("core.calls", t.calls as f64 / per);
    o.layer("core.passes", t.passes as f64 / per);
    o.layer("core.degraded", t.degraded as f64 / per);
    o.layer("frontend.calls", t.parses as f64 / per);
    o.layer("cli.report_bytes", t.report_bytes as f64 / per);
    o.layer("reuse.trace_instrs", t.trace_instrs as f64 / per);
    o.layer("sweep.memo_hits", hits as f64 / per);
    o.layer("sweep.memo_misses", misses as f64 / per);
    o.layer("sweep.hit_ratio", hits as f64 / (hits + misses).max(1) as f64);
    let speedup = par1 / par2.max(1e-9);
    o.layer("par.speedup", speedup);
    o.layer("par.efficiency", speedup / 2.0);
    // Overhead compares the traced sweep with the untraced pass; the `par`
    // runs are extra work the untraced pass does not do.
    o.layer("trace.overhead_s", sweep_s / per - untraced_s);
    o.layers_from_spans(&sp, npasses, wall);
    o.spans = Some(sp);
}

/// Regenerates `expected/sweep.txt` under the reference interpreter.
pub fn bless() {
    let cfg =
        Config { workload: "sweep".into(), seed: 0, seconds: 1.0, trace: false, smoke: false };
    let mut out = String::new();
    for (k, v) in reference(&inputs(&cfg)) {
        let _ = write!(out, "== {k}\n{v}");
    }
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/expected/sweep.txt");
    std::fs::write(path, out).expect("write expected/sweep.txt");
    eprintln!("wrote {path}");
}
