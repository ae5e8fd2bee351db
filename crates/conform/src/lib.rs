#![warn(missing_docs)]

//! `gcr-conform` — generative conformance harness for the whole workspace.
//!
//! Every measured claim in the reproduction rests on a handful of
//! universals that are individually cheap to check on *one* program:
//!
//! 1. the register bytecode VM is observationally identical to the
//!    reference interpreter (same events, bit-identical memory);
//! 2. the fail-safe optimizer preserves program semantics on every rung of
//!    its degradation ladder;
//! 3. the single-pass [`gcr_cache::CapacitySweepSink`] agrees exactly with
//!    per-capacity LRU simulation, and LRU miss counts are monotone in
//!    capacity (the inclusion property);
//! 4. reuse-distance profiles are internally consistent (histogram mass
//!    equals access count; per-array/per-phase slices sum to the global
//!    histogram);
//! 5. fused programs have size-independent reuse distances bounded by the
//!    paper's `O(k·m)` constant on fusible loop chains;
//! 6. the analytic reuse model ([`gcr_static`]) reproduces the simulator's
//!    miss counts at sizes its fit never saw — byte-exact on guard-free
//!    (affine) programs, within its documented tolerance on guarded ones.
//!
//! This crate checks them on *millions* of programs: [`gen`] draws random
//! valid `gcr-ir` programs from a seeded grammar, [`oracles`] runs the seven
//! metamorphic oracles above, [`mod@shrink`] minimizes any failure by
//! loop/statement/expression deletion, and [`corpus`] replays the minimized
//! reproducers committed under `corpus/*.loop` as ordinary unit tests. The
//! `gcr-fuzz` binary drives the whole loop (in parallel, via
//! [`gcr_par::scope_map`]) and is wired into CI as a PR gate.

pub mod corpus;
pub mod gen;
pub mod oracles;
pub mod rng;
pub mod shrink;

pub use gen::{generate, generate_chain, GenConfig};
pub use oracles::{assoc_parity, run_oracle, Oracle, ALL_ORACLES};
pub use rng::Rng;
pub use shrink::shrink;

/// One fuzzing failure: the oracle that rejected the program, its message,
/// and the printed program before and after shrinking.
#[derive(Clone, Debug)]
pub struct Failure {
    /// Iteration index that produced the program.
    pub iter: u64,
    /// The oracle that failed.
    pub oracle: Oracle,
    /// The oracle's diagnostic.
    pub message: String,
    /// Printed source of the failing program, as generated.
    pub program: String,
    /// Printed source after shrinking (still failing the same oracle).
    pub minimized: String,
}

/// Runs `iters` fuzzing iterations of the given oracles starting from
/// `seed`, in parallel across [`gcr_par::thread_count`] workers, and
/// shrinks every failure. Iteration `i` derives its own generator stream
/// from `(seed, i)`, so any failure is reproducible with
/// `--seed <seed> --iters 1` offset to the reported iteration.
pub fn fuzz(seed: u64, iters: u64, oracles: &[Oracle]) -> Vec<Failure> {
    let items: Vec<u64> = (0..iters).collect();
    let failures = gcr_par::scope_map(&items, |&it| {
        let mut out = Vec::new();
        for &o in oracles {
            if let Some(f) = run_iteration(seed, it, o) {
                out.push(f);
            }
        }
        out
    });
    let mut flat: Vec<Failure> = failures.into_iter().flatten().collect();
    for f in &mut flat {
        f.minimized = minimize(seed, f);
    }
    flat
}

/// Runs one oracle on iteration `it`'s generated program, returning an
/// unshrunk failure on rejection.
fn run_iteration(seed: u64, it: u64, oracle: Oracle) -> Option<Failure> {
    let prog = program_for(seed, it, oracle);
    match run_oracle(oracle, &prog) {
        Ok(()) => None,
        Err(message) => Some(Failure {
            iter: it,
            oracle,
            message,
            program: gcr_ir::print::print_program(&prog),
            minimized: String::new(),
        }),
    }
}

/// The program oracle `o` checks on iteration `it`: the semantic oracles
/// draw from the tame grammar (finite arithmetic, so relative-tolerance
/// comparison is meaningful), the trace oracles from the full grammar, and
/// the fusion-bound oracle from the fusible chain family.
pub fn program_for(seed: u64, it: u64, o: Oracle) -> gcr_ir::Program {
    let mut rng = Rng::for_iteration(seed, it);
    match o {
        Oracle::Bound => generate_chain(&mut rng),
        Oracle::Optimize => generate(&mut rng, &GenConfig::tame()),
        _ => generate(&mut rng, &GenConfig::default()),
    }
}

/// Shrinks a failure's program against "the same oracle still rejects".
fn minimize(_seed: u64, f: &Failure) -> String {
    let prog = match gcr_frontend::parse(&f.program) {
        Ok(p) => p,
        // Printing a generated program is expected to round-trip; if it
        // does not, that is itself a finding — keep the original text.
        Err(_) => return f.program.clone(),
    };
    let oracle = f.oracle;
    let small = shrink(&prog, &mut |p| run_oracle(oracle, p).is_err());
    gcr_ir::print::print_program(&small)
}
