#![warn(missing_docs)]

//! `gcr-bench` — experiment harness regenerating every table and figure of
//! the paper's evaluation. Each binary in `src/bin/` reproduces one
//! artifact (see DESIGN.md's per-experiment index); this library holds the
//! shared measurement machinery, and [`sweep`] holds the parallel sweep
//! engine (worker-pool fan-out + content-keyed measurement memoization)
//! those binaries run on.

pub mod cli;
pub mod gallery;
pub mod sweep;

use gcr_apps::AppSpec;
use gcr_cache::{CostModel, HierarchySink, MemoryHierarchy, MissCounts, PhasedHierarchySink};
use gcr_cli::report::SimSection;
use gcr_cli::Report;
use gcr_core::checked::{apply_strategy_checked, apply_strategy_checked_traced, SafetyOptions};
use gcr_core::pipeline::{apply_strategy, Strategy};
use gcr_core::Tracer;
use gcr_exec::{ExecStats, Machine, TraceSink};
use gcr_ir::{GcrError, ParamBinding};
use gcr_reuse::distance::Histogram;
use gcr_reuse::{DistanceSink, InstrTrace, TraceCapture};

/// One measured run of one program version.
#[derive(Clone, Debug)]
pub struct Measurement {
    /// Strategy label.
    pub label: String,
    /// Interpreter statistics.
    pub stats: ExecStats,
    /// Miss counters.
    pub misses: MissCounts,
    /// Modeled cycles.
    pub cycles: f64,
}

/// Modeled clock rate for Mf/s reporting: the paper's 300 MHz R12K.
pub const CLOCK_MHZ: f64 = 300.0;

impl Measurement {
    /// Modeled megaflops per second (the paper quotes SP going from 64.5
    /// to 96.2 Mf/s).
    pub fn mflops(&self) -> f64 {
        if self.cycles == 0.0 {
            0.0
        } else {
            self.stats.flops as f64 * CLOCK_MHZ / self.cycles
        }
    }
}

impl Measurement {
    /// Normalizes against a baseline measurement.
    pub fn rel(&self, base: &Measurement) -> [f64; 4] {
        [
            self.cycles / base.cycles.max(1.0),
            ratio(self.misses.l1, base.misses.l1),
            ratio(self.misses.l2, base.misses.l2),
            ratio(self.misses.tlb, base.misses.tlb),
        ]
    }
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        if a == 0 {
            1.0
        } else {
            f64::INFINITY
        }
    } else {
        a as f64 / b as f64
    }
}

/// Default number of measured time steps.
pub const STEPS: usize = 3;

/// Runs one strategy on one app and measures it through the scaled
/// Origin2000 hierarchy.
pub fn measure_strategy(app: &AppSpec, strategy: Strategy, size: i64, steps: usize) -> Measurement {
    let (prog, bind) = (app.build)(size);
    let opt = apply_strategy(&prog, strategy);
    let layout = opt.layout(&bind);
    let mut machine = Machine::with_layout(&opt.program, bind, layout);
    let mut sink =
        HierarchySink::new(MemoryHierarchy::origin2000_scaled(app.l1_scale, app.l2_scale));
    machine.run_steps(&mut sink, steps);
    let misses = sink.hierarchy.counts();
    let stats = machine.stats();
    let cycles = CostModel::default().cycles(&stats, &misses);
    Measurement { label: strategy.label(), stats, misses, cycles }
}

/// Fail-safe variant of [`measure_strategy`]: optimizes through the
/// checked pipeline (oracle-verified, degradation ladder) and runs the
/// measurement under a fuel guard, so one bad kernel cannot take down a
/// whole sweep. Returns any fallback diagnostics alongside the
/// measurement.
pub fn try_measure_strategy(
    app: &AppSpec,
    strategy: Strategy,
    size: i64,
    steps: usize,
) -> Result<(Measurement, Vec<String>), GcrError> {
    let (prog, bind) = (app.build)(size);
    let opt = apply_strategy_checked(&prog, strategy, &SafetyOptions::default())?;
    let layout = opt.layout(&bind);
    let mut machine = Machine::try_with_layout(
        &opt.program,
        bind,
        layout,
        Some(gcr_core::checked::DEFAULT_MAX_BYTES),
    )?;
    let mut sink =
        HierarchySink::new(MemoryHierarchy::origin2000_scaled(app.l1_scale, app.l2_scale));
    machine.run_steps_guarded(&mut sink, steps, MEASURE_FUEL)?;
    let misses = sink.hierarchy.counts();
    let stats = machine.stats();
    let cycles = CostModel::default().cycles(&stats, &misses);
    let mut label = strategy.label();
    if opt.robustness.degraded() {
        // The sweep should show what was actually measured.
        label = format!("{} (degraded: {})", opt.robustness.strategy, label);
    }
    Ok((Measurement { label, stats, misses, cycles }, opt.robustness.describe()))
}

/// Fuel for guarded measurement runs — generous for the evaluation sizes,
/// finite for runaway programs.
pub const MEASURE_FUEL: u64 = 2_000_000_000;

/// Observable variant of [`try_measure_strategy`]: same fail-safe
/// optimization and guarded measurement, but with per-pass tracing enabled
/// and per-phase miss attribution, packaged as a [`Report`] (schema
/// `gcr-report/v1`) so the experiment binaries can write self-describing
/// JSON artifacts into `results/` alongside their tables.
pub fn try_measure_strategy_report(
    generator: &str,
    app: &AppSpec,
    strategy: Strategy,
    size: i64,
    steps: usize,
) -> Result<(Measurement, Report, Vec<String>), GcrError> {
    let (prog, bind) = (app.build)(size);
    let mut tracer = Tracer::enabled();
    let opt =
        apply_strategy_checked_traced(&prog, strategy, &SafetyOptions::default(), &mut tracer)?;
    let layout = opt.layout(&bind);
    let mut machine = Machine::try_with_layout(
        &opt.program,
        bind,
        layout,
        Some(gcr_core::checked::DEFAULT_MAX_BYTES),
    )?;
    let mut sink = PhasedHierarchySink::new(
        MemoryHierarchy::origin2000_scaled(app.l1_scale, app.l2_scale),
        &opt.program,
    );
    machine.run_steps_guarded(&mut sink, steps, MEASURE_FUEL)?;
    let misses = sink.hierarchy.counts();
    let stats = machine.stats();
    let cycles = CostModel::default().cycles(&stats, &misses);
    let mut label = strategy.label();
    if opt.robustness.degraded() {
        label = format!("{} (degraded: {})", opt.robustness.strategy, label);
    }
    let mut report = Report::new(generator, &prog, strategy.label(), &opt, tracer.into_events());
    report.simulation = Some(SimSection {
        size,
        steps,
        cycles,
        flops: stats.flops,
        total: misses,
        phases: sink.phases(),
    });
    Ok((Measurement { label, stats, misses, cycles }, report, opt.robustness.describe()))
}

/// The strategy set of Figure 10 for a given app (SP gets the extra
/// one-level-fusion bar).
pub fn fig10_strategies(app_name: &str) -> Vec<Strategy> {
    let mut v = vec![Strategy::Original];
    if app_name == "SP" {
        v.push(Strategy::FusionOnly { levels: 1 });
    }
    v.push(Strategy::FusionOnly { levels: 3 });
    v.push(Strategy::FusionRegroup { levels: 3, regroup: gcr_core::regroup::RegroupLevel::Multi });
    v
}

/// Measures the reuse-distance histogram of a program in program order.
pub fn program_order_histogram(prog: &gcr_ir::Program, bind: ParamBinding) -> Histogram {
    let mut m = Machine::new(prog, bind);
    let mut sink = DistanceSink::elements();
    m.run(&mut sink);
    sink.analyzer.hist.clone()
}

/// Captures a one-step instruction trace of a program. Capacity for the
/// whole trace is reserved up front from the interpreter's static
/// estimate, so multi-million-access captures do not reallocate.
pub fn capture_trace(prog: &gcr_ir::Program, bind: ParamBinding) -> InstrTrace {
    let mut m = Machine::new(prog, bind);
    let est = m.estimate();
    let mut cap = TraceCapture::with_capacity(est.instances, est.accesses);
    m.run(&mut cap);
    cap.finish()
}

/// Per-static-reference distance stats in program order.
pub fn per_ref_stats(prog: &gcr_ir::Program, bind: ParamBinding) -> gcr_reuse::RefStats {
    let mut m = Machine::new(prog, bind);
    let mut sink = DistanceSink::elements();
    m.run(&mut sink);
    sink.analyzer.per_ref.clone()
}

/// A sink that counts accesses but also forwards to another sink.
pub struct Tee<'a, A: TraceSink, B: TraceSink> {
    /// First sink.
    pub a: &'a mut A,
    /// Second sink.
    pub b: &'a mut B,
}

impl<A: TraceSink, B: TraceSink> TraceSink for Tee<'_, A, B> {
    #[inline]
    fn access(&mut self, ev: gcr_exec::AccessEvent) {
        self.a.access(ev);
        self.b.access(ev);
    }

    fn end_instance(&mut self, stmt: gcr_ir::StmtId) {
        self.a.end_instance(stmt);
        self.b.end_instance(stmt);
    }

    fn record_batch(&mut self, batch: &gcr_exec::TraceBatch<'_>) {
        // Forward the batch whole so both sides keep their fast paths.
        self.a.record_batch(batch);
        self.b.record_batch(batch);
    }
}

// ---------------------------------------------------------------------------
// Text-table helpers
// ---------------------------------------------------------------------------

/// Prints a plain-text table: header row plus data rows.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for r in rows {
        for (i, c) in r.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(c.len());
            }
        }
    }
    let line = |cells: &[String]| {
        let s: Vec<String> =
            cells.iter().zip(&widths).map(|(c, w)| format!("{c:>w$}", w = w)).collect();
        println!("  {}", s.join("  "));
    };
    line(&header.iter().map(|s| s.to_string()).collect::<Vec<_>>());
    for r in rows {
        line(r);
    }
}

/// Renders a histogram as a text "plot": one line per log₂ bin, in
/// thousands of references (the paper's Figure 3 axes).
pub fn render_histogram(name: &str, hists: &[(&str, &Histogram)]) {
    print!("{}", histogram_text(name, hists));
}

/// [`render_histogram`] into a string, so parallel sweep workers can
/// build their plots off-thread and the driver can print them in input
/// order.
pub fn histogram_text(name: &str, hists: &[(&str, &Histogram)]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "\n-- {name}: references (thousands) per log2(reuse distance) bin --");
    let maxbin = hists.iter().map(|(_, h)| h.bins.len()).max().unwrap_or(0);
    let _ = write!(out, "{:>6}", "bin");
    for (label, _) in hists {
        let _ = write!(out, "{label:>16}");
    }
    out.push('\n');
    for b in 0..maxbin {
        let _ = write!(out, "{b:>6}");
        for (_, h) in hists {
            let v = h.bins.get(b).copied().unwrap_or(0);
            let _ = write!(out, "{:>16.1}", v as f64 / 1e3);
        }
        out.push('\n');
    }
    let _ = write!(out, "{:>6}", "cold");
    for (_, h) in hists {
        let _ = write!(out, "{:>16.1}", h.cold as f64 / 1e3);
    }
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measurement_normalization() {
        let base = Measurement {
            label: "base".into(),
            stats: ExecStats::default(),
            misses: MissCounts { refs: 100, l1: 10, l2: 4, tlb: 2, memory_traffic: 0 },
            cycles: 1000.0,
        };
        let m = Measurement {
            label: "m".into(),
            stats: ExecStats::default(),
            misses: MissCounts { refs: 100, l1: 5, l2: 2, tlb: 2, memory_traffic: 0 },
            cycles: 500.0,
        };
        assert_eq!(m.rel(&base), [0.5, 0.5, 0.5, 1.0]);
    }

    #[test]
    fn tee_duplicates_events() {
        use gcr_exec::{CountingSink, Machine, TraceSink};
        let prog = gcr_apps::adi::program();
        let mut m = Machine::new(&prog, ParamBinding::new(vec![10]));
        let mut a = CountingSink::default();
        let mut b = CountingSink::default();
        {
            let mut tee = Tee { a: &mut a, b: &mut b };
            m.run(&mut tee);
            // use the trait to silence the unused-import path
            tee.end_instance(gcr_ir::StmtId::from_index(0));
        }
        assert_eq!(a.reads, b.reads);
        assert_eq!(a.writes, b.writes);
        assert!(a.reads > 0);
    }

    #[test]
    fn measure_runs_end_to_end() {
        let apps = gcr_apps::evaluation_apps();
        let adi = apps.iter().find(|a| a.name == "ADI").unwrap();
        let m = measure_strategy(adi, Strategy::Original, 24, 1);
        assert!(m.misses.refs > 0);
        assert!(m.cycles > 0.0);
        let f = measure_strategy(
            adi,
            Strategy::FusionRegroup { levels: 3, regroup: gcr_core::regroup::RegroupLevel::Multi },
            24,
            1,
        );
        assert_eq!(f.stats.accesses(), m.stats.accesses(), "same work, different order");
    }
}
