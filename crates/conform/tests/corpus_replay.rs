//! Replays every committed corpus program through the conformance oracles.
//!
//! Run under both engines: `GCR_EXEC=interp cargo test -p gcr-conform`
//! and `GCR_EXEC=vm …`.

use gcr_conform::corpus::{corpus_files, replay};

#[test]
fn corpus_is_populated() {
    assert!(
        corpus_files().len() >= 10,
        "regression corpus must hold at least 10 minimized programs"
    );
}

#[test]
fn corpus_replays_clean() {
    let files = corpus_files();
    assert!(!files.is_empty());
    let mut bad = Vec::new();
    for path in &files {
        let src = std::fs::read_to_string(path).unwrap();
        if let Err(e) = replay(&src) {
            bad.push(format!("{}: {e}", path.file_name().unwrap().to_string_lossy()));
        }
    }
    assert!(bad.is_empty(), "corpus replay failures:\n{}", bad.join("\n"));
}

/// Static≡simulated parity across the whole corpus under *every* execution
/// engine, explicitly — independent of whatever `GCR_EXEC` selects for
/// the rest of the suite. Exact-class models must match the simulator
/// byte-for-byte; bounded ones within their own documented tolerance.
#[test]
fn corpus_static_parity_under_all_engines() {
    use gcr_exec::{DataLayout, ExecEngine, Machine};
    use gcr_ir::ParamBinding;

    let (line, caps, steps, fuel) = (16u64, vec![64u64, 256], 2usize, 50_000_000u64);
    let mut bad = Vec::new();
    let mut analyzed = 0usize;
    for path in corpus_files() {
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        let src = std::fs::read_to_string(&path).unwrap();
        let prog = gcr_frontend::parse(&src).unwrap();
        if prog.params.len() > 1 {
            continue; // outside the univariate model's domain
        }
        for engine in [ExecEngine::Interp, ExecEngine::Vm] {
            let spec = gcr_static::SweepSpec::new(line, caps.clone(), steps);
            let analyzer =
                match gcr_static::Analyzer::analyze_with(&prog, spec, engine, fuel, |b| {
                    DataLayout::column_major(&prog, b, 0)
                }) {
                    Ok(a) => a,
                    Err(gcr_static::StaticError::NotAnalyzable { .. })
                        if gcr_static::has_guards(&prog) =>
                    {
                        continue
                    }
                    Err(e) => {
                        bad.push(format!("{name} [{engine:?}]: analyze failed: {e}"));
                        continue;
                    }
                };
            analyzed += 1;
            let n = analyzer.model().base + 5;
            let p = analyzer.predict(n).unwrap();
            let mut sink = gcr_cache::CapacitySweepSink::new(line, &caps);
            let binding = ParamBinding::new(vec![n; prog.params.len()]);
            let mut m = Machine::new(&prog, binding).with_engine(engine);
            m.run_steps_guarded(&mut sink, steps, fuel).unwrap();
            let tol = analyzer.model().tolerance + 0.02;
            for cp in &p.capacities {
                let want = sink.misses(cp.capacity) as u128;
                let exact = p.class == gcr_static::Class::Exact;
                let err = (cp.misses as f64 - want as f64).abs() / (want as f64).max(1.0);
                if (exact && cp.misses != want) || (!exact && err > tol) {
                    bad.push(format!(
                        "{name} [{engine:?}] N={n} cap {}B: model {} vs simulated {want} \
                         ({} class)",
                        cp.capacity,
                        cp.misses,
                        p.class.name()
                    ));
                }
            }
        }
    }
    assert!(analyzed > 0, "no corpus program was analyzable — the parity test is vacuous");
    assert!(bad.is_empty(), "corpus static-parity failures:\n{}", bad.join("\n"));
}

/// The `assoc` oracle (single-set ≡ FA byte equality + way monotonicity
/// at fixed set count) must hold on every corpus program under every
/// engine — the set-associative `record_batch` fast path included.
#[test]
fn corpus_assoc_parity_under_all_engines() {
    use gcr_exec::ExecEngine;

    for path in corpus_files() {
        let src = std::fs::read_to_string(&path).unwrap();
        let prog = gcr_frontend::parse(&src).unwrap();
        for engine in [ExecEngine::Interp, ExecEngine::Vm] {
            if let Err(e) = gcr_conform::assoc_parity(&prog, engine) {
                panic!("{}: assoc oracle failed under {engine:?}: {e}", path.display());
            }
        }
    }
}
