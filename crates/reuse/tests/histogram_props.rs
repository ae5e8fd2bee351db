//! Exactness laws of the reuse-distance counters.
//!
//! `Histogram::at_least` is bin-granular: exact at power-of-two
//! thresholds, a documented *under*-count strictly inside a bin.
//! `CapacityStack` is the exact counterpart at arbitrary registered
//! thresholds — in particular at the line-granularity capacities
//! (`capacity / line` with non-power-of-two line counts) that regrouped
//! layouts produce. These properties pin the histogram against a brute
//! force over random distance streams, and the stack against the exact
//! distances of `ReuseDistanceAnalyzer` over random address streams.

use gcr_reuse::{CapacityStack, Histogram, ReuseDistanceAnalyzer};
use proptest::collection::vec;
use proptest::prelude::*;

/// A random distance stream with both short and long distances, so every
/// histogram bin range gets populated.
fn distances() -> impl Strategy<Value = Vec<u64>> {
    vec((0u64..400).prop_map(|x| if x >= 200 { (x - 200) * 37 } else { x }), 1..120)
}

/// A random byte-address stream mixing a hot set (short distances) with
/// a wider range (long distances and first accesses).
fn addresses() -> impl Strategy<Value = Vec<u64>> {
    vec((0u64..1200).prop_map(|x| if x >= 600 { x * 13 } else { x % 40 }), 1..400)
}

fn brute_at_least(ds: &[u64], t: u64) -> u64 {
    ds.iter().filter(|&&d| d >= t).count() as u64
}

fn histogram_of(ds: &[u64]) -> Histogram {
    let mut h = Histogram::default();
    for &d in ds {
        h.record(d);
    }
    h
}

proptest! {
    /// At powers of two (and 0 and 1, the first bin boundaries) the
    /// log₂-binned count is exact.
    #[test]
    fn histogram_exact_at_bin_boundaries(ds in distances(), k in 0u32..13) {
        let h = histogram_of(&ds);
        let t = 1u64 << k;
        prop_assert_eq!(h.at_least(t), brute_at_least(&ds, t), "threshold {}", t);
        prop_assert_eq!(h.at_least(0), ds.len() as u64);
    }

    /// At any threshold the bin-granular count never *over*-counts, and
    /// its undercount is bounded by the population of the bin the
    /// threshold cuts through.
    #[test]
    fn histogram_undercount_is_bounded(ds in distances(), t in 1u64..5000) {
        let h = histogram_of(&ds);
        let exact = brute_at_least(&ds, t);
        let binned = h.at_least(t);
        prop_assert!(binned <= exact, "overcount at {}: {} > {}", t, binned, exact);
        // The cut bin is [2^(bit-1), 2^bit); only its members can be lost.
        let lo = if t <= 1 { 0 } else { 1u64 << (63 - (t - 1).leading_zeros()) };
        let hi = if t <= 1 { 1 } else { lo * 2 };
        let cut = ds.iter().filter(|&&d| d >= lo && d < hi).count() as u64;
        prop_assert!(exact - binned <= cut, "lost more than the cut bin at {}", t);
    }

    /// Every `CapacityStack` class equals the analyzer's distance
    /// classified against the thresholds (`partition_point(c <= d)`,
    /// first access → k) — at line granularity, for capacities that are
    /// not powers of two, unsorted and duplicated — and the stack never
    /// holds more than the largest threshold.
    #[test]
    fn capacity_stack_matches_analyzer_distances(
        addrs in addresses(),
        gran_log in 0u32..6,
        caps in vec(1u64..200, 1..8),
    ) {
        let gran = 1u64 << gran_log;
        let mut s = CapacityStack::new(gran, caps.clone());
        let sorted = s.thresholds().to_vec();
        prop_assert!(sorted.windows(2).all(|w| w[0] < w[1]));
        prop_assert!(caps.iter().all(|c| sorted.binary_search(c).is_ok()));
        let mut rd = ReuseDistanceAnalyzer::new(gran);
        for &a in &addrs {
            let want = match rd.access(a) {
                Some(d) => sorted.partition_point(|&c| c <= d),
                None => sorted.len(),
            };
            prop_assert_eq!(s.access(a), want, "addr {}", a);
            prop_assert!(s.len() as u64 <= *sorted.last().unwrap());
        }
    }

    /// The stack refines the binned histogram: at a registered
    /// power-of-two threshold both agree; at any registered threshold the
    /// exact miss count is ≥ the binned one.
    #[test]
    fn capacity_stack_refines_histogram(addrs in addresses(), k in 0u32..9, t in 1u64..300) {
        let mut s = CapacityStack::new(1, vec![1u64 << k, t]);
        let classes = s.thresholds().len();
        let mut rd = ReuseDistanceAnalyzer::new(1);
        let mut by_class = vec![0u64; classes + 1];
        for &a in &addrs {
            by_class[s.access(a)] += 1;
            rd.access(a);
        }
        let misses = |cap: u64| -> u64 {
            let j = s.thresholds().binary_search(&cap).unwrap();
            by_class[j + 1..].iter().sum()
        };
        let binned = |cap: u64| rd.hist.cold + rd.hist.at_least(cap);
        prop_assert_eq!(misses(1 << k), binned(1 << k));
        prop_assert!(misses(t) >= binned(t));
    }

    /// Merging histograms is counting on the concatenated stream.
    #[test]
    fn histogram_merge_is_concatenation(a in distances(), b in distances(), k in 0u32..13) {
        let mut ha = histogram_of(&a);
        let hb = histogram_of(&b);
        ha.merge(&hb);
        let mut all = a.clone();
        all.extend_from_slice(&b);
        prop_assert_eq!(ha.reuses, all.len() as u64);
        prop_assert_eq!(ha.at_least(1 << k), brute_at_least(&all, 1 << k));
    }
}
