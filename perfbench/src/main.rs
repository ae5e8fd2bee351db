//! `perfbench` — the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! perfbench --workload <gallery|sweep|serve|static> --seed N --seconds S --trace 0|1
//! perfbench --bless     # regenerate expected/*.txt under the reference interpreter
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the
//! metrics are the end-to-end set ([`END_TO_END`]), measured with no span
//! recording; with `--trace 1` they are the per-layer set ([`PER_LAYER`]),
//! taken from spans the benchmark records around its calls into each
//! layer. DESIGN.md next to this crate explains each workload, each
//! metric, and which layer metric should move which end-to-end metric.

mod gallery;
mod serve;
mod span;
mod statics;
mod sweep;

#[cfg(test)]
mod selftest;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// End-to-end metrics, reported by every workload with `--trace 0`:
/// `(name, unit)`. Kept equal to `BENCHMARK.json` by a self-test.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("pass_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_p99_ms", "ms"),
];

/// Per-layer metrics, reported by every workload with `--trace 1` (a layer
/// the workload does not reach reads 0): `(name, unit)`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("cache.fa_sweep_s", "s"),
    ("cache.assoc_sweep_s", "s"),
    ("cache.multilevel_s", "s"),
    ("cache.phased_s", "s"),
    ("cache.ns_per_access", "ns"),
    ("core.optimize_s", "s"),
    ("core.checked_s", "s"),
    ("core.checkpoint_s", "s"),
    ("core.calls", "count"),
    ("core.passes", "count"),
    ("core.degraded", "count"),
    ("exec.plan_s", "s"),
    ("exec.run_s", "s"),
    ("exec.accesses", "count"),
    ("exec.maccess_per_s", "Maccess/s"),
    ("reuse.capture_s", "s"),
    ("reuse.driven_s", "s"),
    ("reuse.distance_s", "s"),
    ("reuse.trace_instrs", "count"),
    ("static.fit_1d_s", "s"),
    ("static.fit_2d_s", "s"),
    ("static.probe_sims", "count"),
    ("static.max_base", "count"),
    ("static.eval_s", "s"),
    ("static.not_analyzable", "count"),
    ("sweep.memo_hits", "count"),
    ("sweep.memo_misses", "count"),
    ("sweep.hit_ratio", "ratio"),
    ("serve.handle_optimize_ms", "ms"),
    ("serve.handle_measure_ms", "ms"),
    ("serve.handle_cold_measure_ms", "ms"),
    ("serve.handle_predict_ms", "ms"),
    ("serve.handle_hier_predict_ms", "ms"),
    ("serve.transport_ms", "ms"),
    ("serve.ok", "count"),
    ("serve.errors", "count"),
    ("serve.shed", "count"),
    ("serve.cache_hit_ratio", "ratio"),
    ("par.speedup", "ratio"),
    ("par.efficiency", "ratio"),
    ("cli.report_s", "s"),
    ("cli.report_bytes", "count"),
    ("frontend.parse_s", "s"),
    ("frontend.calls", "count"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_s", "s"),
];

/// Workload names, in `BENCHMARK.json` order.
pub const WORKLOADS: &[&str] = &["gallery", "sweep", "serve", "static"];

/// How many times each run repeats its set-up; `setup_s` is the median.
pub const SETUPS: usize = 9;

/// The traced run's layer self times must cover at least this share of
/// its traced wall time (and never more than all of it).
pub const MIN_COVERAGE: f64 = 0.9;

/// One run's settings.
#[derive(Clone, Debug)]
pub struct Config {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Small sizes for the self-tests; never set by the command line.
    pub smoke: bool,
}

impl Config {
    pub fn budget(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

/// What a workload run produced. `failed` counts operations whose output
/// differed from its reference, or that returned an error.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// One line per failed operation or check.
    pub failures: Vec<String>,
    /// Wall time of each set-up.
    pub setups_s: Vec<f64>,
    /// Wall time of each measured pass.
    pub passes_s: Vec<f64>,
    /// Latency of each measured operation, keyed by its input: the same
    /// key in every pass for batch workloads, a fresh key per request for
    /// `serve`.
    pub ops_ms: Vec<(u64, f64)>,
    /// Every pass runs every input once (gallery, sweep, static): `pass_s`
    /// is the sum of each input's fastest time. Otherwise (serve) it is
    /// the median pass.
    pub batch: bool,
    /// Per-layer metrics (traced runs only).
    pub layers: BTreeMap<String, f64>,
    /// Workload-specific figures (`sweep_warm_s`, `measure_p50_ms`, ...):
    /// printed and recorded, but not in `BENCHMARK.json`.
    pub detail: BTreeMap<&'static str, f64>,
    /// Input programs for provenance: name and content hash.
    pub inputs: Vec<(String, u64)>,
    /// Spans of the traced run, written out when the run ends.
    pub spans: Option<span::Spans>,
}

impl Outcome {
    /// Records one operation's verdict.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }

    /// Records one benchmark-level check that is not an operation.
    pub fn require(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }

    pub fn layer(&mut self, name: &str, value: f64) {
        self.layers.insert(name.to_string(), value);
    }

    /// Fills the per-layer time metrics that are plain span self times,
    /// divided over `passes` traced passes, plus the shared derived ones.
    pub fn layers_from_spans(&mut self, sp: &span::Spans, passes: usize, traced_wall_s: f64) {
        let per = 1.0 / passes.max(1) as f64;
        for (name, _) in PER_LAYER {
            if let Some(span_name) = name.strip_suffix("_s") {
                if !self.layers.contains_key(*name) {
                    let v = sp.self_s(span_name);
                    if v > 0.0 {
                        self.layer(name, v * per);
                    }
                }
            }
        }
        let get = |o: &Outcome, k: &str| o.layers.get(k).copied().unwrap_or(0.0);
        let checkpoint = (get(self, "core.checked_s") - get(self, "core.optimize_s")).max(0.0);
        self.layer("core.checkpoint_s", checkpoint);
        let exec_run = get(self, "exec.run_s");
        let accesses = get(self, "exec.accesses");
        if exec_run > 0.0 {
            self.layer("exec.maccess_per_s", accesses / exec_run / 1e6);
        }
        let cache_s: f64 =
            ["cache.fa_sweep_s", "cache.assoc_sweep_s", "cache.multilevel_s", "cache.phased_s"]
                .iter()
                .map(|k| get(self, k))
                .sum();
        if accesses > 0.0 && cache_s > 0.0 {
            self.layer("cache.ns_per_access", cache_s * 1e9 / accesses);
        }
        let coverage = sp.layer_self_s() / (traced_wall_s * passes.max(1) as f64).max(1e-9);
        self.layer("trace.coverage", coverage);
        self.require((MIN_COVERAGE..=1.0 + 1e-9).contains(&coverage), || {
            format!("trace coverage {coverage:.3} outside [{MIN_COVERAGE}, 1]")
        });
    }
}

/// FNV-1a, 64-bit: the content hash recorded for every input program.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// SplitMix64: the benchmark's only source of randomness.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            v.swap(i, j);
        }
    }
}

/// Linear-interpolated quantile of unsorted samples (`q` in `[0, 1]`).
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// The fastest latency of each distinct operation key. Batch workloads
/// run every input once per pass, so each input weighs once and
/// `op_p50_ms` is the median input's best latency. Interference from the
/// host only ever slows an operation down, so the fastest of a run's
/// samples is far steadier than their median on a shared machine.
pub fn per_op_best(ops: &[(u64, f64)]) -> Vec<f64> {
    let mut by: BTreeMap<u64, f64> = BTreeMap::new();
    for &(k, ms) in ops {
        let best = by.entry(k).or_insert(ms);
        *best = best.min(ms);
    }
    by.into_values().collect()
}

/// A batch pass with every input at its fastest: the sum of
/// [`per_op_best`], in seconds.
pub fn best_pass_s(ops: &[(u64, f64)]) -> f64 {
    per_op_best(ops).iter().sum::<f64>() / 1e3
}

/// Runs a workload's set-up [`SETUPS`] times, recording each one's wall
/// time, and keeps the last result.
pub fn set_up<T>(o: &mut Outcome, mut f: impl FnMut() -> T) -> T {
    let mut last = None;
    for _ in 0..SETUPS {
        drop(last.take());
        let t = Instant::now();
        last = Some(f());
        o.setups_s.push(t.elapsed().as_secs_f64());
    }
    last.expect("SETUPS is positive")
}

/// Runs `f` until the run's time budget is spent, at least `min` times.
/// Returns how many times it ran.
pub fn repeat_for(budget: Duration, min: usize, mut f: impl FnMut()) -> usize {
    let start = Instant::now();
    let mut n = 0;
    while n < min || start.elapsed() < budget {
        f();
        n += 1;
    }
    n
}

/// Peak resident set size of this process, from `/proc/self/status`.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Host CPU time stolen from this VM so far, in seconds (the `steal`
/// column of `/proc/stat`; 0 where the kernel does not report it).
fn steal_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let cpu = stat.lines().next().unwrap_or_default();
    cpu.split_whitespace().nth(8).and_then(|v| v.parse::<f64>().ok()).map_or(0.0, |t| t / 100.0)
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The checkout's git revision, read from `.git` without running git;
/// `unknown` outside a git checkout.
fn git_revision() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else { return head };
    if let Ok(rev) = std::fs::read_to_string(format!(".git/{reference}")) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_suffix(reference).map(|r| r.trim().to_string()))
        .unwrap_or_else(|| "unknown".into())
}

/// Runs one workload.
pub fn run_workload(cfg: &Config) -> Result<Outcome, String> {
    match cfg.workload.as_str() {
        "gallery" => Ok(gallery::run(cfg)),
        "sweep" => Ok(sweep::run(cfg)),
        "serve" => Ok(serve::run(cfg)),
        "static" => Ok(statics::run(cfg)),
        other => Err(format!("unknown workload {other:?} (expected one of {WORKLOADS:?})")),
    }
}

/// The metrics object of the result line, in table order.
pub fn metrics_of(
    cfg: &Config,
    o: &Outcome,
    rss_mb: f64,
) -> Vec<(&'static str, f64, &'static str)> {
    if cfg.trace {
        return PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, o.layers.get(name).copied().unwrap_or(0.0), unit))
            .collect();
    }
    let best = per_op_best(&o.ops_ms);
    END_TO_END
        .iter()
        .map(|&(name, unit)| {
            let v = match name {
                "setup_s" => median(&o.setups_s),
                "peak_rss_mb" => rss_mb,
                "pass_s" if o.batch => best_pass_s(&o.ops_ms),
                "pass_s" => median(&o.passes_s),
                "op_p50_ms" => median(&best),
                "op_p99_ms" => quantile(&best, 0.99),
                _ => unreachable!("every end-to-end metric has a definition"),
            };
            (name, v, unit)
        })
        .collect()
}

pub fn result_line(o: &Outcome, metrics: &[(&str, f64, &str)]) -> String {
    let mut m = String::new();
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let value = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(
            m,
            "{}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}",
            if i > 0 { ", " } else { "" }
        );
    }
    // A run that attempted nothing measured nothing: report it as one
    // failed attempt rather than as a correct run.
    let (attempted, failed) =
        if o.attempted == 0 { (1, o.failed.max(1)) } else { (o.attempted, o.failed) };
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{m}}}}}",
        failed == 0
    )
}

/// Writes the run record (provenance, samples, failures, spans) under
/// `.perfbench/` in the working directory.
fn write_record(cfg: &Config, o: &Outcome, engine: &str, rev: &str, steal: f64, line: &str) {
    let dir = std::path::Path::new(".perfbench");
    if std::fs::create_dir_all(dir).is_err() {
        return;
    }
    let stem = format!("{}-seed{}-trace{}", cfg.workload, cfg.seed, u8::from(cfg.trace));
    let mut rec = String::new();
    let _ = writeln!(rec, "workload {}\nseed {}\nseconds {}", cfg.workload, cfg.seed, cfg.seconds);
    let _ = writeln!(rec, "nproc {}", nproc());
    let _ = writeln!(rec, "engine {engine}\nrevision {rev}\nsteal_s {steal}");
    for (name, hash) in &o.inputs {
        let _ = writeln!(rec, "input {name} fnv64={hash:016x}");
    }
    let _ = writeln!(rec, "setups_s {:?}\npasses_s {:?}", o.setups_s, o.passes_s);
    let _ = writeln!(rec, "ops {}", o.ops_ms.len());
    if o.batch {
        let mut by: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
        for &(k, ms) in &o.ops_ms {
            by.entry(k).or_default().push(ms);
        }
        for (k, ms) in by {
            let _ = writeln!(rec, "op_ms {k} {ms:?}");
        }
    }
    for (k, v) in &o.detail {
        let _ = writeln!(rec, "detail {k} {v}");
    }
    for f in &o.failures {
        let _ = writeln!(rec, "failure {f}");
    }
    let _ = writeln!(rec, "result {line}");
    let _ = std::fs::write(dir.join(format!("{stem}.txt")), rec);
    if let Some(sp) = &o.spans {
        let _ = std::fs::write(dir.join(format!("{stem}.spans.jsonl")), sp.to_jsonl());
    }
}

fn parse_args(args: &[String]) -> Result<Config, String> {
    let mut cfg =
        Config { workload: String::new(), seed: 1, seconds: 10.0, trace: false, smoke: false };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => cfg.workload = value()?.clone(),
            "--seed" => cfg.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                cfg.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                cfg.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !WORKLOADS.contains(&cfg.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    if !(cfg.seconds > 0.0 && cfg.seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".into());
    }
    Ok(cfg)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--bless") {
        gallery::bless();
        sweep::bless();
        return;
    }
    let cfg = match parse_args(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let engine = match gcr_exec::ExecEngine::from_env() {
        Ok(e) => e.name(),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let rev = git_revision();
    let steal0 = steal_s();
    let o = match run_workload(&cfg) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let steal = steal_s() - steal0;
    let metrics = metrics_of(&cfg, &o, peak_rss_mb());
    let line = result_line(&o, &metrics);
    println!(
        "provenance: workload={} seed={} nproc={} engine={engine} revision={rev} inputs={} steal_s={steal:.2}",
        cfg.workload,
        cfg.seed,
        nproc(),
        o.inputs.len()
    );
    for (k, v) in &o.detail {
        println!("detail: {k} = {v}");
    }
    for f in &o.failures {
        println!("failure: {f}");
    }
    write_record(&cfg, &o, engine, &rev, steal, &line);
    println!("{line}");
}
