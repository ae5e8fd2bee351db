//! Single-pass multi-capacity / multi-configuration cache simulation.
//!
//! The sweep engine's second redundancy killer: the paper's evaluation is
//! a cross-product over cache configurations, and the naive way to cover
//! it is one interpreter run per configuration — every run re-executing
//! the same program and re-generating the same address trace. Both
//! simulators here consume **one** trace pass for *all* configurations at
//! once:
//!
//! * [`CapacitySweepSink`] — one bounded LRU stack
//!   ([`gcr_reuse::CapacityStack`]) whose per-access capacity class
//!   answers the miss count of every fully-associative LRU capacity
//!   simultaneously. On such a cache an access misses iff its reuse
//!   distance (in lines) is at least the capacity (Section 2.1 of the
//!   paper), and the stack classifies each distance against every
//!   capacity in `O(k)` without measuring it, so the output is not an
//!   estimate: it is bit-identical to simulating each capacity
//!   separately, at any capacity — including the sub-bin thresholds the
//!   log₂ histogram cannot see.
//! * [`MultiHierarchySink`] — one access stream fanned out to any number
//!   of full [`MemoryHierarchy`]s (set-associative L1/L2 + TLB), replacing
//!   the one-run-per-hierarchy pattern that [`crate::HierarchySink`]
//!   otherwise forces on capacity sweeps.
//!
//! Both carry bit-identical-totals tests against the per-level paths they
//! replace.

use crate::hierarchy::{MemoryHierarchy, MissCounts};
use gcr_exec::{AccessEvent, TraceSink};
use gcr_reuse::CapacityStack;

/// Exact miss counts of every fully-associative LRU capacity in one trace
/// pass.
///
/// Capacities are in bytes and must be positive multiples of the line
/// size; distances are measured at line granularity, so two addresses in
/// the same line count as one datum (spatial locality is honoured exactly
/// as a real fully-associative cache of that line size would).
pub struct CapacitySweepSink {
    stack: CapacityStack,
    /// `by_class[j]` = accesses that reached exactly `j` capacities
    /// (the last class holds the cold accesses too).
    by_class: Vec<u64>,
    line: u64,
    refs: u64,
}

impl CapacitySweepSink {
    /// A sweep over `capacities_bytes` with `line`-byte lines (`line` a
    /// power of two; each capacity a positive multiple of `line`).
    pub fn new(line: u64, capacities_bytes: &[u64]) -> Self {
        assert!(line.is_power_of_two(), "line size must be a power of two");
        let caps_lines: Vec<u64> = capacities_bytes
            .iter()
            .map(|&c| {
                assert!(
                    c >= line && c % line == 0,
                    "capacity {c} is not a positive multiple of line {line}"
                );
                c / line
            })
            .collect();
        let stack = CapacityStack::new(line, caps_lines);
        let by_class = vec![0; stack.thresholds().len() + 1];
        CapacitySweepSink { stack, by_class, line, refs: 0 }
    }

    /// References observed so far.
    pub fn refs(&self) -> u64 {
        self.refs
    }

    /// Exact misses of a fully associative LRU cache of `capacity_bytes`
    /// (must be one of the registered capacities): cold misses plus
    /// reuses whose line-granular distance reaches the capacity.
    pub fn misses(&self, capacity_bytes: u64) -> u64 {
        let j = self
            .stack
            .thresholds()
            .binary_search(&(capacity_bytes / self.line))
            .unwrap_or_else(|_| panic!("capacity {capacity_bytes} was not registered"));
        self.by_class[j + 1..].iter().sum()
    }

    /// `(capacity_bytes, misses)` for every registered capacity,
    /// ascending.
    pub fn miss_counts(&self) -> Vec<(u64, u64)> {
        self.stack
            .thresholds()
            .iter()
            .map(|&lines| (lines * self.line, self.misses(lines * self.line)))
            .collect()
    }
}

impl TraceSink for CapacitySweepSink {
    #[inline]
    fn access(&mut self, ev: AccessEvent) {
        self.refs += 1;
        self.by_class[self.stack.access(ev.addr)] += 1;
    }

    fn record_batch(&mut self, batch: &gcr_exec::TraceBatch<'_>) {
        // Classes ignore instance boundaries and the write flag; one
        // affine expansion loop in stream order amortizes the virtual
        // call across the whole strip.
        self.refs += batch.len() as u64;
        for k in 0..batch.iters as i64 {
            for sl in batch.slots {
                self.by_class[self.stack.access(sl.addr_at(k))] += 1;
            }
        }
    }
}

/// One access stream fanned out to many [`MemoryHierarchy`]s: the
/// single-pass replacement for running the interpreter once per cache
/// level or configuration.
pub struct MultiHierarchySink {
    /// The simulated hierarchies, in registration order.
    pub hierarchies: Vec<MemoryHierarchy>,
}

impl MultiHierarchySink {
    /// Wraps the given hierarchies.
    pub fn new(hierarchies: Vec<MemoryHierarchy>) -> Self {
        MultiHierarchySink { hierarchies }
    }

    /// Miss counters per hierarchy, in registration order.
    pub fn counts(&self) -> Vec<MissCounts> {
        self.hierarchies.iter().map(|h| h.counts()).collect()
    }
}

impl TraceSink for MultiHierarchySink {
    #[inline]
    fn access(&mut self, ev: AccessEvent) {
        for h in &mut self.hierarchies {
            h.access_rw(ev.addr, ev.is_write);
        }
    }

    fn record_batch(&mut self, batch: &gcr_exec::TraceBatch<'_>) {
        // Hierarchy-major: each hierarchy is independent, so sweeping one
        // hierarchy over the whole strip (in stream order) keeps its tag
        // arrays hot instead of round-robining every hierarchy per event.
        for h in &mut self.hierarchies {
            for k in 0..batch.iters as i64 {
                for sl in batch.slots {
                    h.access_rw(sl.addr_at(k), sl.is_write);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hierarchy::HierarchySink;
    use crate::sim::{Cache, CacheConfig, Tlb};
    use gcr_exec::Machine;
    use gcr_ir::ParamBinding;

    const SRC: &str = "
program p
param N
array A[N, N], B[N, N]
for i = 1, N {
  for j = 1, N {
    A[j, i] = f(A[j, i], B[i, j])
  }
}
for i = 1, N {
  for j = 1, N {
    B[j, i] = g(A[j, i])
  }
}
";

    /// Byte addresses of one run (for replaying the identical stream
    /// through reference simulators).
    fn trace_of(n: i64) -> Vec<(u64, bool)> {
        struct Cap(Vec<(u64, bool)>);
        impl TraceSink for Cap {
            fn access(&mut self, ev: AccessEvent) {
                self.0.push((ev.addr, ev.is_write));
            }
        }
        let prog = gcr_frontend::parse(SRC).unwrap();
        let mut m = Machine::new(&prog, ParamBinding::new(vec![n]));
        let mut cap = Cap(Vec::new());
        m.run(&mut cap);
        cap.0
    }

    #[test]
    fn capacity_sweep_bit_identical_to_per_capacity_lru_simulation() {
        let trace = trace_of(24);
        let line = 32u64;
        // Mix of power-of-two and sub-bin capacities (3 and 25 lines).
        let caps: Vec<u64> = vec![line, 3 * line, 8 * line, 25 * line, 256 * line];
        let mut sweep = CapacitySweepSink::new(line, &caps);
        for &(addr, w) in &trace {
            sweep.access(AccessEvent {
                addr,
                array: gcr_ir::ArrayId::from_index(0),
                ref_id: gcr_ir::RefId::from_index(0),
                stmt: gcr_ir::StmtId::from_index(0),
                is_write: w,
            });
        }
        // Current per-level path: one dedicated pass per capacity through a
        // fully-associative LRU cache simulator.
        for &cap in &caps {
            let assoc = (cap / line) as usize;
            let mut c = Cache::new(CacheConfig { size: cap as usize, line: line as usize, assoc });
            for &(addr, w) in &trace {
                c.access_rw(addr, w);
            }
            assert_eq!(
                sweep.misses(cap),
                c.misses,
                "capacity {} lines must match the dedicated simulation",
                cap / line
            );
        }
        assert_eq!(sweep.refs(), trace.len() as u64);
    }

    #[test]
    fn multi_hierarchy_bit_identical_to_separate_runs() {
        let prog = gcr_frontend::parse(SRC).unwrap();
        let bind = ParamBinding::new(vec![20]);
        let configs: Vec<MemoryHierarchy> = vec![
            MemoryHierarchy::origin2000_scaled(16, 64),
            MemoryHierarchy::origin2000_scaled(4, 16),
            MemoryHierarchy::new(
                CacheConfig { size: 512, line: 32, assoc: 2 },
                CacheConfig { size: 4096, line: 128, assoc: 2 },
                Tlb::new(8, 4096),
            ),
        ];
        // Single pass through all three.
        let mut multi = MultiHierarchySink::new(configs.clone());
        Machine::new(&prog, bind.clone()).run(&mut multi);
        // Per-level path: one interpreter run per hierarchy.
        for (i, h) in configs.into_iter().enumerate() {
            let mut single = HierarchySink::new(h);
            Machine::new(&prog, bind.clone()).run(&mut single);
            assert_eq!(
                multi.counts()[i],
                single.hierarchy.counts(),
                "hierarchy {i} totals must be bit-identical"
            );
        }
    }

    #[test]
    fn capacity_sweep_misses_are_monotone() {
        let trace = trace_of(16);
        let line = 32u64;
        let caps: Vec<u64> = (1..=64).map(|k| k * line).collect();
        let mut sweep = CapacitySweepSink::new(line, &caps);
        for &(addr, w) in &trace {
            sweep.access(AccessEvent {
                addr,
                array: gcr_ir::ArrayId::from_index(0),
                ref_id: gcr_ir::RefId::from_index(0),
                stmt: gcr_ir::StmtId::from_index(0),
                is_write: w,
            });
        }
        let counts = sweep.miss_counts();
        for w in counts.windows(2) {
            assert!(w[1].1 <= w[0].1, "bigger LRU cache cannot miss more: {counts:?}");
        }
    }
}
