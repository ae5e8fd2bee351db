//! The workload gallery: every `examples/*.loop` kernel, embedded at
//! compile time and registered as a sweep job.
//!
//! The gallery complements [`crate::evaluation_apps`]: where the evaluation
//! apps reproduce the paper's Figure 9 programs, the gallery spans the
//! *space* of LoopLang shapes — dense stencils (Jacobi 2D/3D, 9-point),
//! split-array red-black relaxation, multigrid transfer analogues, an
//! O(N²) N-body force loop, guard-binned histogram reductions, an
//! irregular-guard stress case, transposition, and a wavefront recurrence.
//! Each kernel ships with a golden `gcr-report/v1` file (see
//! `gcr-bench/tests/gallery_golden.rs`), so any change to the simulator,
//! the engines, or the realistic cache models shows up as a reviewable
//! golden diff.
//!
//! Kernels whose paper counterpart needs grammar LoopLang rejects
//! (stride-2 subscripts for multigrid, value-dependent bins for the
//! histogram, a single checkerboard array for red-black) are *structural
//! analogues*: they preserve the reuse structure — gather/scatter between
//! two grids, index-binned reductions, alternating split-array sweeps —
//! under unit-coefficient subscripts and index-range guards.

use gcr_ir::{ParamBinding, Program};

/// A gallery kernel: embedded LoopLang source plus harness defaults.
#[derive(Clone, Copy)]
pub struct GalleryKernel {
    /// Kernel name (the `examples/<name>.loop` stem).
    pub name: &'static str,
    /// Embedded LoopLang source text.
    pub source: &'static str,
    /// Default problem size `N` used by the gallery harness and goldens.
    pub default_size: i64,
    /// Outer time steps to simulate.
    pub steps: usize,
}

impl GalleryKernel {
    /// Parses the embedded source and binds every parameter to
    /// [`Self::default_size`].
    pub fn build(&self) -> (Program, ParamBinding) {
        self.build_at(self.default_size)
    }

    /// Parses the embedded source and binds every parameter to `n`.
    pub fn build_at(&self, n: i64) -> (Program, ParamBinding) {
        let prog = gcr_frontend::parse(self.source)
            .unwrap_or_else(|e| panic!("gallery kernel {}: {e}", self.name));
        let binding = ParamBinding::new(vec![n; prog.params.len()]);
        (prog, binding)
    }
}

macro_rules! kernel {
    ($name:literal, $size:expr, $steps:expr) => {
        GalleryKernel {
            name: $name,
            source: include_str!(concat!("../../../examples/", $name, ".loop")),
            default_size: $size,
            steps: $steps,
        }
    };
}

/// Every gallery kernel, in stable (alphabetical) order.
///
/// Sizes are chosen so each kernel's footprint straddles the default
/// gallery hierarchy (4-way 8K L1, fully-associative 64K L2): big enough
/// that L1 misses are non-trivial, small enough that a full run stays in
/// test-suite time. The N-body kernel is O(N²) per step, so it runs at a
/// deliberately small N.
pub fn gallery() -> Vec<GalleryKernel> {
    vec![
        kernel!("adi", 40, 2),
        kernel!("guard_stress", 40, 2),
        kernel!("histogram", 512, 2),
        kernel!("jacobi2d", 40, 2),
        kernel!("jacobi3d", 14, 2),
        kernel!("laplace", 40, 2),
        kernel!("mg_prolong", 40, 2),
        kernel!("mg_restrict", 40, 2),
        kernel!("mmul", 24, 1),
        kernel!("nbody", 96, 2),
        kernel!("rbgs", 40, 2),
        kernel!("relax", 512, 2),
        kernel!("stencil9", 40, 2),
        kernel!("transpose", 48, 2),
        kernel!("wave2d", 40, 2),
        kernel!("wavefront", 48, 2),
    ]
}

/// Looks a kernel up by name.
pub fn gallery_kernel(name: &str) -> Option<GalleryKernel> {
    gallery().into_iter().find(|k| k.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gallery_is_populated_and_names_are_unique() {
        let g = gallery();
        assert!(g.len() >= 15, "gallery must hold at least 15 kernels, got {}", g.len());
        let mut names: Vec<_> = g.iter().map(|k| k.name).collect();
        names.dedup();
        assert_eq!(names.len(), g.len(), "duplicate kernel names");
        let mut sorted = names.clone();
        sorted.sort_unstable();
        assert_eq!(names, sorted, "gallery() must stay alphabetical");
    }

    #[test]
    fn every_kernel_parses_and_program_name_matches() {
        for k in gallery() {
            let (prog, _binding) = k.build();
            assert_eq!(prog.name, k.name, "program header disagrees with file stem");
            gcr_ir::validate::validate(&prog).unwrap_or_else(|e| panic!("{}: {e:?}", k.name));
        }
    }

    #[test]
    fn every_kernel_runs_under_every_engine() {
        use gcr_exec::{ExecEngine, Machine};

        for k in gallery() {
            for engine in [ExecEngine::Interp, ExecEngine::Vm] {
                let (prog, binding) = k.build();
                let mut sink = gcr_cache::CapacitySweepSink::new(64, &[8192]);
                let mut m = Machine::new(&prog, binding).with_engine(engine);
                m.run_steps_guarded(&mut sink, k.steps, 500_000_000)
                    .unwrap_or_else(|e| panic!("{} under {engine:?}: {e}", k.name));
                assert!(sink.refs() > 0, "{} made no accesses under {engine:?}", k.name);
            }
        }
    }

    #[test]
    fn lookup_by_name() {
        assert!(gallery_kernel("jacobi2d").is_some());
        assert!(gallery_kernel("no-such-kernel").is_none());
    }
}
