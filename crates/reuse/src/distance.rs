//! Online reuse-distance analysis.
//!
//! The reuse distance of an access is the number of *distinct* data items
//! touched since the previous access to the same datum (Figure 1 of the
//! paper); on a fully associative LRU cache an access hits iff its reuse
//! distance is smaller than the cache capacity.
//!
//! The analyzer keeps one *slot* per distinct datum in a Fenwick (binary
//! indexed) tree ordered by last-access time. An access to a datum whose
//! previous slot is `p` has distance = number of live slots after `p`;
//! the datum's slot then moves to the end. Dead slots (tombstones) are
//! compacted when they outnumber live ones, giving amortized `O(log M)` per
//! access with memory proportional to the number of distinct data items —
//! this is the array-based formulation of Olken's tree algorithm.

use crate::hash::FnvHashMap;
use gcr_ir::RefId;

/// Fenwick tree over slot liveness bits.
struct Fenwick {
    tree: Vec<u32>,
}

impl Fenwick {
    fn new(n: usize) -> Self {
        Fenwick { tree: vec![0; n + 1] }
    }

    fn len(&self) -> usize {
        self.tree.len() - 1
    }

    /// Adds `delta` at 0-based position `i`.
    fn add(&mut self, i: usize, delta: i32) {
        let mut k = i + 1;
        while k <= self.len() {
            self.tree[k] = (self.tree[k] as i64 + delta as i64) as u32;
            k += k & k.wrapping_neg();
        }
    }

    /// Sum of positions `0..=i` (0-based inclusive).
    fn prefix(&self, i: usize) -> u64 {
        let mut k = i + 1;
        let mut s = 0u64;
        while k > 0 {
            s += self.tree[k] as u64;
            k -= k & k.wrapping_neg();
        }
        s
    }
}

/// Histogram of reuse distances in log₂ bins.
///
/// Bin 0 counts distance 0; bin `k ≥ 1` counts distances in
/// `[2^(k−1), 2^k)`. Cold (first-ever) accesses are counted separately.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Histogram {
    /// Counts per bin.
    pub bins: Vec<u64>,
    /// First accesses (infinite distance).
    pub cold: u64,
    /// Total finite-distance accesses.
    pub reuses: u64,
}

impl Histogram {
    /// Records one distance.
    pub fn record(&mut self, d: u64) {
        self.record_n(d, 1);
    }

    /// Records a distance with multiplicity `n` (used by sampling, where a
    /// watched reuse represents `n` reuses).
    pub fn record_n(&mut self, d: u64, n: u64) {
        let bin = if d == 0 { 0 } else { 64 - (d.leading_zeros() as usize) };
        if self.bins.len() <= bin {
            self.bins.resize(bin + 1, 0);
        }
        self.bins[bin] += n;
        self.reuses += n;
    }

    /// Number of reuses with distance ≥ `threshold`, **bin-granular**:
    /// only bins that lie entirely at or above `threshold` are counted.
    ///
    /// Exact when `threshold` is a power of two (bin boundaries are powers
    /// of two). For a `threshold` strictly inside a bin the whole bin is
    /// dropped, so the result *under*-counts by up to that bin's
    /// population — the log₂ bins cannot see sub-bin thresholds. Use
    /// [`crate::CapacityStack`] when exact counts at arbitrary thresholds
    /// are needed (the multi-capacity cache simulator does).
    pub fn at_least(&self, threshold: u64) -> u64 {
        let mut total = 0;
        for (k, &c) in self.bins.iter().enumerate() {
            let lo = if k == 0 { 0u64 } else { 1u64 << (k - 1) };
            if lo >= threshold {
                total += c;
            }
        }
        total
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        if self.bins.len() < other.bins.len() {
            self.bins.resize(other.bins.len(), 0);
        }
        for (a, b) in self.bins.iter_mut().zip(&other.bins) {
            *a += b;
        }
        self.cold += other.cold;
        self.reuses += other.reuses;
    }

    /// `(bin upper bound exponent, count)` pairs for plotting: a point at
    /// `(k, c)` means `c` references had distance in `[2^(k−1), 2^k)`.
    pub fn points(&self) -> Vec<(usize, u64)> {
        self.bins.iter().copied().enumerate().filter(|&(_, c)| c > 0).collect()
    }
}

/// Per-static-reference running statistics (for evadable classification).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PerRef {
    /// Finite reuses observed.
    pub count: u64,
    /// Sum of distances.
    pub sum: u64,
    /// Cold accesses.
    pub cold: u64,
}

impl PerRef {
    /// Mean finite reuse distance.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// The reuse-distance analyzer.
///
/// The paper's Figure 1 sequence `a b c a a c b` has reuse distances
/// `2, 0, 1, 2`:
///
/// ```
/// use gcr_reuse::ReuseDistanceAnalyzer;
/// let mut rd = ReuseDistanceAnalyzer::new(1);
/// let seq = [b'a', b'b', b'c', b'a', b'a', b'c', b'b'];
/// let dists: Vec<_> = seq.iter().map(|&x| rd.access(x as u64)).collect();
/// assert_eq!(&dists[3..], &[Some(2), Some(0), Some(1), Some(2)]);
/// ```
pub struct ReuseDistanceAnalyzer {
    /// Granularity shift: 3 = 8-byte elements, 5 = 32-byte blocks, …
    shift: u32,
    last: FnvHashMap<u64, u32>,
    /// Slot → datum (for compaction); `u64::MAX` marks a tombstone.
    slots: Vec<u64>,
    fenwick: Fenwick,
    next: usize,
    /// Global histogram.
    pub hist: Histogram,
    /// Per-reference statistics.
    pub per_ref: FnvHashMap<RefId, PerRef>,
    track_refs: bool,
}

impl ReuseDistanceAnalyzer {
    /// Creates an analyzer measuring at `granularity` bytes (power of two).
    pub fn new(granularity: u64) -> Self {
        assert!(granularity.is_power_of_two());
        ReuseDistanceAnalyzer {
            shift: granularity.trailing_zeros(),
            last: FnvHashMap::default(),
            slots: Vec::new(),
            fenwick: Fenwick::new(1024),
            next: 0,
            hist: Histogram::default(),
            per_ref: FnvHashMap::default(),
            track_refs: false,
        }
    }

    /// Enables per-static-reference statistics.
    pub fn track_refs(mut self) -> Self {
        self.track_refs = true;
        self
    }

    /// Number of distinct data items seen.
    pub fn distinct(&self) -> usize {
        self.last.len()
    }

    /// Processes one access; returns the reuse distance (`None` = cold).
    pub fn access(&mut self, addr: u64) -> Option<u64> {
        let datum = addr >> self.shift;
        let live = self.last.len() as u64;
        let dist = match self.last.get_mut(&datum) {
            Some(slot_ref) => {
                let p = *slot_ref as usize;
                let d = live - self.fenwick.prefix(p);
                self.fenwick.add(p, -1);
                self.slots[p] = u64::MAX;
                let s = self.alloc_slot(datum);
                *self.last.get_mut(&datum).unwrap() = s as u32;
                Some(d)
            }
            None => {
                let s = self.alloc_slot(datum);
                self.last.insert(datum, s as u32);
                None
            }
        };
        match dist {
            Some(d) => self.hist.record(d),
            None => self.hist.cold += 1,
        }
        dist
    }

    /// Processes one access attributed to a static reference.
    pub fn access_ref(&mut self, addr: u64, r: RefId) -> Option<u64> {
        let d = self.access(addr);
        if self.track_refs {
            let e = self.per_ref.entry(r).or_default();
            match d {
                Some(d) => {
                    e.count += 1;
                    e.sum += d;
                }
                None => e.cold += 1,
            }
        }
        d
    }

    fn alloc_slot(&mut self, datum: u64) -> usize {
        if self.next == self.fenwick.len() {
            if self.last.len() * 2 + 64 < self.next {
                self.compact();
            } else {
                let new_len = (self.fenwick.len() * 2).max(2048);
                let mut f = Fenwick::new(new_len);
                self.slots.resize(new_len, u64::MAX);
                for (i, &d) in self.slots.iter().enumerate() {
                    if d != u64::MAX {
                        f.add(i, 1);
                    }
                }
                self.fenwick = f;
            }
        }
        let s = self.next;
        self.next += 1;
        if self.slots.len() <= s {
            self.slots.resize(self.fenwick.len(), u64::MAX);
        }
        self.slots[s] = datum;
        self.fenwick.add(s, 1);
        s
    }

    /// Rebuilds the slot array without tombstones (order preserved).
    fn compact(&mut self) {
        let mut f = Fenwick::new(self.fenwick.len());
        let mut w = 0usize;
        for r in 0..self.next {
            let d = self.slots[r];
            if d != u64::MAX {
                self.slots[w] = d;
                f.add(w, 1);
                *self.last.get_mut(&d).unwrap() = w as u32;
                w += 1;
            }
        }
        for s in self.slots[w..].iter_mut() {
            *s = u64::MAX;
        }
        self.next = w;
        self.fenwick = f;
    }
}

/// A [`gcr_exec::TraceSink`] that feeds every access into a
/// [`ReuseDistanceAnalyzer`] online (program-order measurement without
/// storing the trace).
pub struct DistanceSink {
    /// The analyzer.
    pub analyzer: ReuseDistanceAnalyzer,
}

impl DistanceSink {
    /// Analyzer at element (8-byte) granularity with per-ref tracking.
    pub fn elements() -> Self {
        DistanceSink { analyzer: ReuseDistanceAnalyzer::new(8).track_refs() }
    }
}

impl gcr_exec::TraceSink for DistanceSink {
    #[inline]
    fn access(&mut self, ev: gcr_exec::AccessEvent) {
        self.analyzer.access_ref(ev.addr, ev.ref_id);
    }

    fn record_batch(&mut self, batch: &gcr_exec::TraceBatch<'_>) {
        // Distances ignore instance boundaries: one tight affine
        // expansion loop per strip, in exact stream order.
        for k in 0..batch.iters as i64 {
            for sl in batch.slots {
                self.analyzer.access_ref(sl.addr_at(k), sl.ref_id);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(seq: &[u64]) -> Vec<Option<u64>> {
        let mut a = ReuseDistanceAnalyzer::new(1);
        seq.iter().map(|&x| a.access(x)).collect()
    }

    #[test]
    fn figure1_example() {
        // a b c a a c b: distances None None None 2 0 1 2
        let ds = run(&[0, 1, 2, 0, 0, 2, 1]);
        assert_eq!(ds, vec![None, None, None, Some(2), Some(0), Some(1), Some(2)]);
    }

    #[test]
    fn fused_figure1_all_zero() {
        // a a a b b c c: after "fusion" all reuse distances are zero.
        let ds = run(&[0, 0, 0, 1, 1, 2, 2]);
        let finite: Vec<u64> = ds.into_iter().flatten().collect();
        assert_eq!(finite, vec![0, 0, 0, 0]);
    }

    #[test]
    fn distance_equals_lru_stack_depth() {
        // Cyclic sweep over k elements: steady-state distance k-1.
        let k = 10u64;
        let seq: Vec<u64> = (0..5 * k).map(|i| i % k).collect();
        let ds = run(&seq);
        for d in &ds[k as usize..] {
            assert_eq!(*d, Some(k - 1));
        }
    }

    #[test]
    fn granularity_merges_block_neighbors() {
        let mut a = ReuseDistanceAnalyzer::new(32);
        assert_eq!(a.access(0), None);
        assert_eq!(a.access(24), Some(0), "same 32-byte block");
        assert_eq!(a.access(32), None, "next block");
    }

    #[test]
    fn compaction_preserves_distances() {
        // Force many tombstones by re-touching a small working set many
        // times, then verify against a naive implementation.
        let mut xs = Vec::new();
        for round in 0..200u64 {
            for e in 0..37u64 {
                xs.push((e * 7 + round) % 41);
            }
        }
        let fast = run(&xs);
        // naive
        let mut seen: Vec<u64> = Vec::new();
        let mut naive = Vec::new();
        for &x in &xs {
            match seen.iter().rposition(|&y| y == x) {
                Some(p) => {
                    let mut distinct: Vec<u64> = seen[p + 1..].to_vec();
                    distinct.sort_unstable();
                    distinct.dedup();
                    naive.push(Some(distinct.len() as u64));
                    seen.remove(p);
                    seen.push(x);
                }
                None => {
                    naive.push(None);
                    seen.push(x);
                }
            }
        }
        assert_eq!(fast, naive);
    }

    #[test]
    fn histogram_bins() {
        let mut h = Histogram::default();
        h.record(0);
        h.record(1);
        h.record(2);
        h.record(3);
        h.record(4);
        h.record(1023);
        assert_eq!(h.bins[0], 1); // d=0
        assert_eq!(h.bins[1], 1); // d=1
        assert_eq!(h.bins[2], 2); // d=2,3
        assert_eq!(h.bins[3], 1); // d=4
        assert_eq!(h.bins[10], 1); // d=1023 in [512,1024)
        assert_eq!(h.reuses, 6);
        assert_eq!(h.at_least(512), 1);
    }

    #[test]
    fn per_ref_tracking() {
        let mut a = ReuseDistanceAnalyzer::new(1).track_refs();
        let r0 = RefId::from_index(0);
        let r1 = RefId::from_index(1);
        a.access_ref(10, r0);
        a.access_ref(11, r1);
        a.access_ref(10, r0);
        a.access_ref(11, r1);
        assert_eq!(a.per_ref[&r0].count, 1);
        assert_eq!(a.per_ref[&r0].mean(), 1.0);
        assert_eq!(a.per_ref[&r1].cold, 1);
    }
}
