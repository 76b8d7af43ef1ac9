//! Property tests for histogram merging and percentile math — the
//! invariant `Registry::merge_hist` relies on when the profiler records
//! its per-conflict distances into a private `Histogram` and publishes
//! it once per run: partitioning a sample stream across N recorders,
//! each recording into a private `Histogram`, and merging the parts must be
//! *indistinguishable* from recording every sample into one histogram.
//! In particular p50/p90/p99 (what every exporter prints) must match
//! exactly, not just approximately, because the merge adds bucket
//! counts and the percentile walk only looks at buckets, count, min,
//! and max.

use lp_obs::{Hist, Histogram, Registry};
use proptest::prelude::*;

/// Sample values spanning several buckets, including the 0/1 shared
/// bucket and values far enough apart to exercise min/max clamping.
fn samples() -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec(
        prop_oneof![
            (0u64..4).boxed(),
            (4u64..1024).boxed(),
            (1024u64..1_000_000).boxed(),
            (u64::MAX - 1000..u64::MAX).boxed(),
        ],
        1..200,
    )
}

/// Cut points partitioning the stream into up to 8 worker shards.
fn partition() -> impl Strategy<Value = (Vec<u64>, usize)> {
    (samples(), 1usize..8).prop_map(|(s, n)| (s, n))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn merging_worker_histograms_equals_one_combined_histogram(
        part in partition()
    ) {
        let (values, workers) = part;
        // One histogram over the whole stream...
        let mut combined = Histogram::default();
        for &v in &values {
            combined.record(v);
        }
        // ...versus per-worker shards merged pairwise (round-robin
        // assignment, like the sweep's work-stealing index).
        let mut shards: Vec<Histogram> = (0..workers).map(|_| Histogram::default()).collect();
        for (i, &v) in values.iter().enumerate() {
            shards[i % workers].record(v);
        }
        let mut merged = Histogram::default();
        for shard in &shards {
            merged.merge(shard);
        }

        prop_assert_eq!(merged.buckets, combined.buckets);
        prop_assert_eq!(merged.count, combined.count);
        prop_assert_eq!(merged.sum, combined.sum);
        prop_assert_eq!(merged.min, combined.min);
        prop_assert_eq!(merged.max, combined.max);
        for p in [0.0, 25.0, 50.0, 90.0, 99.0, 100.0] {
            prop_assert_eq!(merged.percentile(p), combined.percentile(p));
        }
        prop_assert_eq!(merged.quantile_summary(), combined.quantile_summary());
    }

    #[test]
    fn merge_order_is_irrelevant(values in samples()) {
        let mid = values.len() / 2;
        let mut a = Histogram::default();
        let mut b = Histogram::default();
        for &v in &values[..mid] {
            a.record(v);
        }
        for &v in &values[mid..] {
            b.record(v);
        }
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        prop_assert_eq!(ab.quantile_summary(), ba.quantile_summary());
        prop_assert_eq!(ab.buckets, ba.buckets);
        prop_assert_eq!((ab.count, ab.sum, ab.min, ab.max), (ba.count, ba.sum, ba.min, ba.max));
    }

    #[test]
    fn registry_merge_hist_matches_local_accumulation(values in samples()) {
        // The actual flush path: a local accumulator folded into a
        // registry slot via `Registry::merge_hist` must leave the slot
        // identical to having recorded every sample there directly.
        let mut local = Histogram::default();
        for &v in &values {
            local.record(v);
        }
        let reg = Registry::new();
        reg.record_hist(Hist::EvalNanos, 7);
        reg.merge_hist(Hist::EvalNanos, &local);
        let merged = reg.hist(Hist::EvalNanos);
        let mut direct = Histogram::default();
        direct.record(7);
        for &v in &values {
            direct.record(v);
        }
        prop_assert_eq!(merged.buckets, direct.buckets);
        prop_assert_eq!((merged.count, merged.sum, merged.min, merged.max),
                        (direct.count, direct.sum, direct.min, direct.max));
        prop_assert_eq!(merged.quantile_summary(), direct.quantile_summary());
    }
}
