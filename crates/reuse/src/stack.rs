//! Bounded LRU stack: exact fully-associative capacity classes in `O(k)`.
//!
//! Section 2.1 of the paper: an access misses a fully associative LRU
//! cache of capacity `c` iff its reuse distance is at least `c`. A
//! capacity sweep over `k` thresholds therefore only needs to know *which*
//! thresholds each distance reaches, not the distance itself.
//!
//! [`CapacityStack`] is Mattson's LRU stack truncated at the largest
//! threshold `c_max`: by the inclusion property, the truncated stack holds
//! exactly the top `c_max` entries of the full stack, so every answer is
//! bit-identical to classifying the exact distance (as
//! [`ReuseDistanceAnalyzer`](crate::ReuseDistanceAnalyzer) measures it).
//! Every node carries its *class* — how many thresholds do not exceed
//! its depth — and one boundary pointer per threshold marks the node at
//! that depth. An access moves its line to the top, which pushes each
//! boundary above the line's old depth one node up: `O(k)` pointer moves
//! plus one small hash operation, with memory bounded by `c_max` lines
//! however long the trace.

use crate::hash::LineHashMap;

const NIL: u32 = u32::MAX;

#[derive(Clone, Copy)]
struct Node {
    line: u64,
    prev: u32,
    next: u32,
    /// Number of thresholds `≤` this node's depth (0 = top region).
    class: u32,
}

/// An LRU stack truncated at the largest registered threshold, answering
/// for every access how many thresholds its reuse distance reaches.
///
/// The sequence `a b c a a c b` has reuse distances `2, 0, 1, 2`; against
/// thresholds `{1, 2}` (in data items) the repeated accesses reach 2, 0,
/// 1 and 2 of them, and a first access reaches all `k = 2`:
///
/// ```
/// use gcr_reuse::CapacityStack;
/// let mut s = CapacityStack::new(1, vec![2, 1]);
/// let seq = [b'a', b'b', b'c', b'a', b'a', b'c', b'b'];
/// let classes: Vec<usize> = seq.iter().map(|&x| s.access(x as u64)).collect();
/// assert_eq!(classes, [2, 2, 2, 2, 0, 1, 2]);
/// assert_eq!(s.len(), 2); // never more than the largest threshold
/// ```
pub struct CapacityStack {
    /// Granularity shift: 5 = 32-byte lines, …
    shift: u32,
    /// Thresholds in data items, ascending, deduplicated, positive.
    caps: Vec<u64>,
    index: LineHashMap<u32>,
    /// Node arena; never longer than the largest threshold.
    nodes: Vec<Node>,
    head: u32,
    tail: u32,
    /// `bounds[j]` = the node at depth `caps[j]` (`NIL` while the stack
    /// is not that deep), for every threshold but the largest.
    bounds: Vec<u32>,
}

impl CapacityStack {
    /// A stack measuring at `granularity` bytes (a power of two) against
    /// `thresholds` in data items of that size (any order, duplicates
    /// merged, each at least 1).
    pub fn new(granularity: u64, mut thresholds: Vec<u64>) -> Self {
        assert!(granularity.is_power_of_two(), "granularity must be a power of two");
        thresholds.sort_unstable();
        thresholds.dedup();
        assert!(
            thresholds.first().is_some_and(|&c| c >= 1),
            "thresholds must be non-empty and positive"
        );
        let k = thresholds.len();
        CapacityStack {
            shift: granularity.trailing_zeros(),
            caps: thresholds,
            index: LineHashMap::default(),
            nodes: Vec::new(),
            head: NIL,
            tail: NIL,
            bounds: vec![NIL; k - 1],
        }
    }

    /// Registered thresholds, ascending.
    pub fn thresholds(&self) -> &[u64] {
        &self.caps
    }

    /// Number of data items currently held (at most the largest
    /// threshold).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True before the first access.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Processes one access and returns its class: the number of
    /// thresholds `c` with `c ≤ d` for the access's reuse distance `d`.
    /// A first access — or one whose distance is at least the largest
    /// threshold — returns `k`, the number of thresholds. So the access
    /// misses a fully associative LRU cache of `thresholds()[j]` items iff
    /// its class is greater than `j`.
    #[inline]
    pub fn access(&mut self, addr: u64) -> usize {
        let line = addr >> self.shift;
        // Distance 0 — the common case of consecutive same-line accesses.
        if self.head != NIL && self.nodes[self.head as usize].line == line {
            return 0;
        }
        match self.index.get(&line) {
            Some(&x) => {
                let class = self.nodes[x as usize].class as usize;
                // Every node above `x` sinks one level: the boundaries at
                // depths ≤ depth(x) each move to their predecessor.
                for b in &mut self.bounds[..class] {
                    *b = self.nodes[*b as usize].prev;
                    self.nodes[*b as usize].class += 1;
                }
                self.unlink(x);
                self.push_front(x, line);
                class
            }
            None => {
                // The whole stack sinks one level.
                let len = self.nodes.len() as u64;
                for (j, b) in self.bounds.iter_mut().enumerate() {
                    if *b != NIL {
                        *b = self.nodes[*b as usize].prev;
                    } else if len == self.caps[j] {
                        *b = self.tail;
                    } else {
                        break; // deeper thresholds are not reached either
                    }
                    self.nodes[*b as usize].class += 1;
                }
                let x = if len == *self.caps.last().unwrap() {
                    // The bottom line falls past the largest threshold.
                    let t = self.tail;
                    self.index.remove(&self.nodes[t as usize].line);
                    self.unlink(t);
                    t
                } else {
                    self.nodes.push(Node { line, prev: NIL, next: NIL, class: 0 });
                    len as u32
                };
                self.push_front(x, line);
                self.index.insert(line, x);
                self.caps.len()
            }
        }
    }

    fn unlink(&mut self, x: u32) {
        let Node { prev, next, .. } = self.nodes[x as usize];
        match prev {
            NIL => self.head = next,
            p => self.nodes[p as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.nodes[n as usize].prev = prev,
        }
    }

    fn push_front(&mut self, x: u32, line: u64) {
        self.nodes[x as usize] = Node { line, prev: NIL, next: self.head, class: 0 };
        match self.head {
            NIL => self.tail = x,
            h => self.nodes[h as usize].prev = x,
        }
        self.head = x;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::{Histogram, ReuseDistanceAnalyzer};

    /// A seeded LCG address stream over `span` distinct items.
    fn stream(seed: u64, len: usize, span: u64) -> Vec<u64> {
        let mut x = seed;
        (0..len)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (x >> 33) % span
            })
            .collect()
    }

    /// Class of every access through the stack, and through the exact
    /// analyzer's distance (`caps.partition_point(|&c| c <= d)`, absent →
    /// k). Returns both.
    fn both(gran: u64, caps: &[u64], addrs: &[u64]) -> (Vec<usize>, Vec<usize>) {
        let mut s = CapacityStack::new(gran, caps.to_vec());
        let sorted = s.thresholds().to_vec();
        let mut rd = ReuseDistanceAnalyzer::new(gran);
        let cmax = *sorted.last().unwrap() as usize;
        let mut got = Vec::with_capacity(addrs.len());
        let mut want = Vec::with_capacity(addrs.len());
        for &a in addrs {
            got.push(s.access(a));
            assert!(s.len() <= cmax, "stack holds {} > {cmax} items", s.len());
            want.push(match rd.access(a) {
                Some(d) => sorted.partition_point(|&c| c <= d),
                None => sorted.len(),
            });
        }
        (got, want)
    }

    #[test]
    fn matches_analyzer_on_sub_bin_thresholds() {
        // 3, 5, 6, 25 and 100 all lie strictly inside log₂ bins.
        let addrs = stream(0xdead_beef, 20_000, 150);
        let (got, want) = both(1, &[3, 5, 6, 25, 100], &addrs);
        assert_eq!(got, want);
    }

    #[test]
    fn one_item_capacity() {
        // A 1-item cache hits only on immediate repeats.
        let addrs = [0u64, 0, 1, 0, 1, 1, 2, 2, 0];
        let mut s = CapacityStack::new(1, vec![1]);
        let classes: Vec<usize> = addrs.iter().map(|&a| s.access(a)).collect();
        assert_eq!(classes, [1, 0, 1, 1, 1, 0, 1, 0, 1]);
        assert_eq!(s.len(), 1);
        let (got, want) = both(1, &[1], &stream(7, 5_000, 6));
        assert_eq!(got, want);
    }

    #[test]
    fn unsorted_and_duplicate_thresholds() {
        let s = CapacityStack::new(1, vec![64, 8, 1, 8, 300, 64]);
        assert_eq!(s.thresholds(), &[1, 8, 64, 300]);
        let (got, want) = both(1, &[64, 8, 1, 8, 300, 64], &stream(99, 30_000, 400));
        assert_eq!(got, want);
    }

    #[test]
    fn granularity_merges_line_neighbors() {
        let mut s = CapacityStack::new(32, vec![1, 2]);
        assert_eq!(s.access(0), 2);
        assert_eq!(s.access(24), 0, "same 32-byte line");
        assert_eq!(s.access(32), 2, "next line");
        assert_eq!(s.access(8), 1, "one line in between");
        // Byte-address streams at 32-byte lines agree with the analyzer.
        let addrs: Vec<u64> = stream(3, 20_000, 4096).into_iter().map(|a| a * 8).collect();
        let (got, want) = both(32, &[1, 3, 7, 32, 100], &addrs);
        assert_eq!(got, want);
    }

    #[test]
    fn long_streaming_trace_stays_bounded() {
        // A cyclic sweep much larger than every threshold: after the first
        // pass every access has distance span−1 and misses them all.
        let span = 5_000u64;
        let caps = [4u64, 16, 256];
        let mut s = CapacityStack::new(8, caps.to_vec());
        for i in 0..20 * span {
            assert_eq!(s.access((i % span) * 8), caps.len());
            assert!(s.len() <= 256);
        }
        assert_eq!(s.len(), 256);
        // Mixed short and long reuses on the same trace shape.
        let addrs: Vec<u64> =
            (0..60_000u64).map(|i| if i % 3 == 0 { i % 97 } else { 1_000 + i }).collect();
        let (got, want) = both(1, &caps, &addrs);
        assert_eq!(got, want);
    }

    #[test]
    fn classes_count_misses_exactly_where_bins_undercount() {
        // Cyclic sweep over 7 items: steady-state distance 6, inside
        // histogram bin [4, 8).
        let mut h = Histogram::default();
        let mut s = CapacityStack::new(1, vec![6, 8]);
        let mut by_class = [0u64; 3];
        for i in 0..70u64 {
            by_class[s.access(i % 7)] += 1;
            if i >= 7 {
                h.record(6);
            }
        }
        assert_eq!(h.at_least(6), 0, "documented bin-granular undercount");
        // Misses at 6 items: every access (7 cold + 63 distance-6 reuses).
        assert_eq!(by_class[1] + by_class[2], 70);
        // Misses at 8 items: only the 7 cold ones.
        assert_eq!(by_class[2], 7);
    }

    #[test]
    fn agrees_with_histogram_at_powers_of_two() {
        let caps = [1u64, 2, 4, 8, 16, 32, 64];
        let mut s = CapacityStack::new(1, caps.to_vec());
        let mut rd = ReuseDistanceAnalyzer::new(1);
        let mut by_class = [0u64; 8];
        for a in stream(11, 10_000, 90) {
            by_class[s.access(a)] += 1;
            rd.access(a);
        }
        for (j, &cap) in caps.iter().enumerate() {
            let misses: u64 = by_class[j + 1..].iter().sum();
            assert_eq!(misses, rd.hist.cold + rd.hist.at_least(cap), "power of two {cap}");
        }
    }
}
