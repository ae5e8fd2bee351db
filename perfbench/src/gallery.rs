//! `gallery`: all 16 gallery kernels through `gcrc`'s library entry point.
//!
//! One operation is one `gcrc <k>.loop --no-emit --simulate N --hierarchy
//! <GALLERY_HIERARCHY> --report -` call ([`gcr_cli::run_source`]) with the
//! default fuse+group strategy. N is 2× the kernel's default size (1× for
//! the cubic mmul, nbody and jacobi3d), so one pass simulates about 0.8 M
//! accesses and the cache sinks do almost all of the work: a cache-engine
//! change shows here, an optimizer change should not.

use crate::span::Spans;
use crate::{fnv64, repeat_for, set_up, Config, Outcome, Rng};
use gcr_apps::GalleryKernel;
use gcr_bench::gallery::GALLERY_HIERARCHY;
use gcr_cache::{
    AssocSweepSink, CacheConfig, CapacitySweepSink, HierarchyRun, HierarchySpec, MemoryHierarchy,
    MultiLevelSink, PhasedHierarchySink, SweepBin,
};
use gcr_cli::report::{HierarchySection, Json};
use gcr_cli::{Options, Report};
use gcr_core::checked::{apply_strategy_checked_traced, SafetyOptions};
use gcr_core::pipeline::apply_strategy;
use gcr_core::Tracer;
use gcr_exec::{ExecEngine, Machine, NullSink};
use gcr_ir::ParamBinding;
use std::collections::BTreeMap;
use std::time::Instant;

/// Expected outputs, produced by `perfbench --bless` under the reference
/// interpreter (`ExecEngine::Interp`).
const EXPECTED: &str = include_str!("../expected/gallery.txt");

/// The simulated size of one kernel: twice the default size, the default
/// for the cubic kernels. At 4× the simulators' working set spills from
/// the core's own L2 into the host's shared last-level cache, where other
/// tenants' traffic made a pass up to 65% slower for minutes at a time,
/// while a default-size pass run in alternation with it moved by 3%. At
/// 2× the peak resident set is no larger than at 1×, and the cache sinks
/// still do almost all of the work.
fn size_of(k: &GalleryKernel, smoke: bool) -> i64 {
    if smoke {
        return k.default_size / 2;
    }
    match k.name {
        "mmul" | "nbody" | "jacobi3d" => k.default_size,
        _ => 2 * k.default_size,
    }
}

fn options(n: i64, engine: ExecEngine) -> Options {
    Options {
        emit: false,
        simulate: Some(n),
        hierarchy: Some(GALLERY_HIERARCHY.into()),
        report_path: Some("-".into()),
        exec: Some(engine),
        ..Options::default()
    }
}

/// Splits `gcrc` output into the console text (simulation line plus
/// hierarchy section, fully deterministic) and the JSON report (which
/// carries wall clocks).
fn split_output(out: &str) -> (&str, &str) {
    match out.find("\n{") {
        Some(i) => out.split_at(i + 1),
        None => (out, ""),
    }
}

/// Parses a `== name N=n` sectioned file into name → text.
pub fn parse_sections(text: &str) -> BTreeMap<String, String> {
    let mut out = BTreeMap::new();
    let mut cur: Option<(String, String)> = None;
    for line in text.lines() {
        if let Some(head) = line.strip_prefix("== ") {
            if let Some((k, v)) = cur.take() {
                out.insert(k, v);
            }
            cur = Some((head.to_string(), String::new()));
        } else if let Some((_, body)) = cur.as_mut() {
            body.push_str(line);
            body.push('\n');
        }
    }
    if let Some((k, v)) = cur {
        out.insert(k, v);
    }
    out
}

struct Input {
    kernel: GalleryKernel,
    n: i64,
    key: String,
    expected: Option<String>,
    opts: Options,
}

fn inputs(cfg: &Config, engine: ExecEngine) -> Vec<Input> {
    let mut kernels = gcr_apps::gallery();
    Rng::new(cfg.seed).shuffle(&mut kernels);
    let mut inputs: Vec<Input> = kernels
        .into_iter()
        .map(|kernel| {
            // Parse once here so a broken source fails set-up, not a pass.
            gcr_frontend::parse(kernel.source).expect("gallery kernel parses");
            let n = size_of(&kernel, cfg.smoke);
            let key = format!("{} N={n}", kernel.name);
            Input { expected: None, key, kernel, n, opts: options(n, engine) }
        })
        .collect();
    // Smoke sizes have no stored reference: compute it on the spot.
    let expected = if cfg.smoke { reference(&inputs) } else { parse_sections(EXPECTED) };
    for i in &mut inputs {
        i.expected = expected.get(&i.key).cloned();
    }
    inputs
}

/// Each kernel's console text under the reference interpreter.
fn reference(inputs: &[Input]) -> BTreeMap<String, String> {
    inputs
        .iter()
        .map(|i| {
            let opts = Options { exec: Some(ExecEngine::Interp), ..i.opts.clone() };
            let out = gcr_cli::run_source(i.kernel.source, &opts).expect("gallery kernel runs");
            (i.key.clone(), split_output(&out).0.to_string())
        })
        .collect()
}

/// Builds the inputs, then runs every kernel once at its default size as a
/// warm-up, so first-touch costs land in set-up rather than the first pass.
fn setup(cfg: &Config, engine: ExecEngine) -> Vec<Input> {
    let inputs = inputs(cfg, engine);
    for i in &inputs {
        let _ = gcr_cli::run_source(i.kernel.source, &options(i.kernel.default_size, engine));
    }
    inputs
}

/// Checks one kernel's `gcrc` output against its expected console text.
/// The JSON report is parsed only when `parse_json` is set, once per input
/// per run: `Json::parse` leaks its object keys, so parsing every pass's
/// report made the peak resident set grow with the number of passes.
fn check(
    input: &Input,
    out: Result<String, impl std::fmt::Display>,
    parse_json: bool,
    o: &mut Outcome,
) {
    match out {
        Ok(out) => {
            let (text, json) = split_output(&out);
            let same = input.expected.as_deref() == Some(text);
            o.check(same && (!parse_json || Json::parse(json).is_ok()), || {
                format!("gallery {}: output differs from the reference", input.key)
            });
        }
        Err(e) => o.check(false, || format!("gallery {}: {e}", input.key)),
    }
}

pub fn run(cfg: &Config) -> Outcome {
    let engine = ExecEngine::from_env().unwrap_or_default();
    let mut o = Outcome::default();
    let inputs = set_up(&mut o, || setup(cfg, engine));
    o.inputs = inputs
        .iter()
        .map(|i| (format!("gallery/{}.loop", i.kernel.name), fnv64(i.kernel.source.as_bytes())))
        .collect();
    let pass = |o: &mut Outcome, first: bool| {
        let mut wall = 0.0;
        for (i, input) in inputs.iter().enumerate() {
            let t = Instant::now();
            let out = gcr_cli::run_source(input.kernel.source, &input.opts);
            let ms = t.elapsed().as_secs_f64() * 1e3;
            wall += ms / 1e3;
            o.ops_ms.push((i as u64, ms));
            check(input, out, first, o);
        }
        wall
    };
    o.batch = true;
    if cfg.trace {
        let untraced = pass(&mut o, true);
        traced(cfg, &inputs, engine, untraced, &mut o);
    } else {
        let mut passes = Vec::new();
        repeat_for(cfg.budget(), 3, || passes.push(pass(&mut o, passes.is_empty())));
        o.passes_s = passes;
        o.detail.insert("gallery_s", crate::best_pass_s(&o.ops_ms));
    }
    o
}

/// The traced pass: the same kernels, with `run_source` taken apart into
/// its layer calls so each layer gets its own span. Each cache span times
/// one guarded engine run into that sink alone; `exec.run` is the same run
/// into `NullSink`, so a cache span minus `exec.run` is the sink's own cost.
fn traced(cfg: &Config, inputs: &[Input], engine: ExecEngine, untraced_s: f64, o: &mut Outcome) {
    let spec = HierarchySpec::parse(GALLERY_HIERARCHY).expect("gallery hierarchy parses");
    let caps = spec.sweep_capacities();
    let line = spec.levels[0].line as u64;
    let sa: Vec<CacheConfig> = caps
        .iter()
        .map(|&c| CacheConfig { size: c as usize, line: line as usize, assoc: 4 })
        .collect();
    let fuel = gcr_bench::MEASURE_FUEL;
    let mut sp = Spans::default();
    let (mut accesses, mut calls, mut passes, mut degraded, mut report_bytes) = (0u64, 0, 0, 0, 0);
    let start = Instant::now();
    let npasses = repeat_for(cfg.budget(), 1, || {
        for (op_id, input) in inputs.iter().enumerate() {
            let op_id = op_id as u64;
            let strategy = input.opts.strategy;
            let root = sp.enter("bench.kernel", op_id);
            let Ok(prog) =
                sp.time("frontend.parse", op_id, || gcr_frontend::parse(input.kernel.source))
            else {
                o.check(false, || format!("gallery {}: parse failed", input.key));
                sp.exit(root);
                continue;
            };
            let mut tracer = Tracer::enabled();
            let opt = sp.time("core.checked", op_id, || {
                apply_strategy_checked_traced(
                    &prog,
                    strategy,
                    &SafetyOptions::default(),
                    &mut tracer,
                )
            });
            let Ok(opt) = opt else {
                o.check(false, || format!("gallery {}: optimizer failed", input.key));
                sp.exit(root);
                continue;
            };
            sp.time("core.optimize", op_id, || apply_strategy(&prog, strategy));
            calls += 1;
            passes += tracer.events().len() as u64;
            degraded += u64::from(opt.robustness.degraded());
            let bind = ParamBinding::new(vec![input.n; prog.params.len()]);
            let layout = opt.layout(&bind);
            let machine = || {
                Machine::with_layout(&opt.program, bind.clone(), layout.clone()).with_engine(engine)
            };
            sp.time("exec.plan", op_id, || machine().compiles());
            let steps = input.opts.steps;
            let mut ok = true;
            let mut run =
                |sp: &mut Spans, name: &'static str, sink: &mut dyn FnMut(&mut Machine) -> bool| {
                    let mut m = machine();
                    let good = sp.time(name, op_id, || sink(&mut m));
                    ok &= good;
                    m.stats().accesses()
                };
            accesses += run(&mut sp, "exec.run", &mut |m| {
                m.run_steps_guarded(&mut NullSink, steps, fuel).is_ok()
            });
            let mut phased = PhasedHierarchySink::new(
                MemoryHierarchy::origin2000_scaled(
                    input.opts.cache_scale.0,
                    input.opts.cache_scale.1,
                ),
                &opt.program,
            );
            run(&mut sp, "cache.phased", &mut |m| {
                m.run_steps_guarded(&mut phased, steps, fuel).is_ok()
            });
            let mut fa = CapacitySweepSink::new(line, &caps);
            run(&mut sp, "cache.fa_sweep", &mut |m| {
                m.run_steps_guarded(&mut fa, steps, fuel).is_ok()
            });
            let mut assoc = AssocSweepSink::new(&sa);
            run(&mut sp, "cache.assoc_sweep", &mut |m| {
                m.run_steps_guarded(&mut assoc, steps, fuel).is_ok()
            });
            let mut ml = MultiLevelSink::new(spec.build());
            run(&mut sp, "cache.multilevel", &mut |m| {
                m.run_steps_guarded(&mut ml, steps, fuel).is_ok()
            });
            let section = HierarchySection {
                size: input.n,
                steps,
                run: HierarchyRun {
                    spec: spec.describe(),
                    configs: spec.levels.clone(),
                    line,
                    counts: ml.model.counts(),
                    sweep: caps
                        .iter()
                        .enumerate()
                        .map(|(i, &c)| SweepBin {
                            capacity: c,
                            fa_misses: fa.misses(c),
                            assoc_misses: assoc.misses(i),
                        })
                        .collect(),
                },
            };
            let json = sp.time("cli.report", op_id, || {
                let mut r =
                    Report::new("gcrc", &prog, strategy.label(), &opt, tracer.into_events());
                let text = section.to_text();
                r.hierarchy = Some(section);
                (text, r.to_json())
            });
            report_bytes += json.1.len() as u64;
            // The separately driven sinks must reproduce `gcrc`'s own
            // hierarchy section.
            let same = input.expected.as_ref().is_some_and(|want| want.contains(&json.0));
            o.check(ok && same, || {
                format!("gallery {}: traced layers disagree with gcrc", input.key)
            });
            sp.exit(root);
        }
    });
    let wall = start.elapsed().as_secs_f64() / npasses as f64;
    let per = npasses as f64;
    o.layer("exec.accesses", accesses as f64 / per);
    o.layer("core.calls", calls as f64 / per);
    o.layer("core.passes", passes as f64 / per);
    o.layer("core.degraded", degraded as f64 / per);
    o.layer("frontend.calls", calls as f64 / per);
    o.layer("cli.report_bytes", report_bytes as f64 / per);
    o.layer("trace.overhead_s", wall - untraced_s);
    o.layers_from_spans(&sp, npasses, wall);
    o.spans = Some(sp);
}

/// Regenerates `expected/gallery.txt` under the reference interpreter.
pub fn bless() {
    let cfg =
        Config { workload: "gallery".into(), seed: 0, seconds: 1.0, trace: false, smoke: false };
    let mut out = String::new();
    for (key, text) in reference(&inputs(&cfg, ExecEngine::Interp)) {
        out.push_str(&format!("== {key}\n{text}"));
    }
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/expected/gallery.txt");
    std::fs::write(path, out).expect("write expected/gallery.txt");
    eprintln!("wrote {path}");
}
