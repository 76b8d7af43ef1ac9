//! Property tests for the cross-run layer: snapshot JSON must
//! round-trip *exactly* (the diff engine compares two documents that
//! may have crossed a filesystem and a CI artifact store), a snapshot
//! diffed against itself must be silent, and swapping the operands must
//! flip a diff without changing what it flags.

use lp_obs::diff::{diff, DiffOptions};
use lp_obs::{Histogram, RunSnapshot};
use proptest::prelude::*;

/// A histogram built the only way production code builds one: by
/// recording samples (keeps count/sum/min/max consistent with buckets).
fn hist() -> impl Strategy<Value = Histogram> {
    prop::collection::vec(
        prop_oneof![
            (0u64..4).boxed(),
            (4u64..100_000).boxed(),
            (u64::MAX - 100..u64::MAX).boxed(),
        ],
        0..60,
    )
    .prop_map(|samples| {
        let mut h = Histogram::default();
        for v in samples {
            h.record(v);
        }
        h
    })
}

/// Sorts `(name, payload)` pairs and drops duplicate names — the real
/// capture path guarantees unique names via `Counter::ALL`.
fn dedup<T>(mut pairs: Vec<(String, T)>) -> Vec<(String, T)> {
    pairs.sort_by(|x, y| x.0.cmp(&y.0));
    pairs.dedup_by(|a, b| a.0 == b.0);
    pairs
}

/// Named counter values drawn from a small id space (so two generated
/// snapshots share some names and disagree on others).
fn counters() -> impl Strategy<Value = Vec<(String, u64)>> {
    prop::collection::vec((0u8..40, any::<u64>()), 0..12).prop_map(|pairs| {
        dedup(
            pairs
                .into_iter()
                .map(|(id, v)| (format!("ctr_{id:02}"), v))
                .collect(),
        )
    })
}

/// Named histograms drawn from a small id space.
fn hists() -> impl Strategy<Value = Vec<(String, Histogram)>> {
    prop::collection::vec((0u8..10, hist()), 0..5).prop_map(|pairs| {
        dedup(
            pairs
                .into_iter()
                .map(|(id, h)| (format!("hist_{id:02}"), h))
                .collect(),
        )
    })
}

/// An arbitrary-but-plausible snapshot: unique names, free counter
/// values, recorded histograms, and free ring totals.
fn snapshot() -> impl Strategy<Value = RunSnapshot> {
    (
        (0u32..1000, counters(), hists()),
        (any::<u64>(), any::<u64>(), any::<u64>()),
    )
        .prop_map(
            |((p, counters, hists), (spans_retained, journal_total, journal_retained))| {
                RunSnapshot {
                    process: format!("proc{p}"),
                    counters,
                    hists,
                    spans_retained,
                    journal_total,
                    journal_retained,
                }
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn snapshot_json_round_trips_exactly(snap in snapshot()) {
        let json = snap.to_json();
        let back = RunSnapshot::from_json(&json).expect("own output must parse");
        prop_assert_eq!(&back, &snap);
        // And the round trip is a fixed point: re-serialising the
        // parsed snapshot reproduces the document byte-for-byte.
        prop_assert_eq!(back.to_json(), json);
    }

    #[test]
    fn self_diff_is_always_empty(snap in snapshot()) {
        let d = diff(&snap, &snap, &DiffOptions::default());
        prop_assert!(d.is_empty(), "self-diff flagged: {}", d.render());
        prop_assert_eq!(d.significant(), 0);
    }

    #[test]
    fn diff_is_antisymmetric(a in snapshot(), b in snapshot()) {
        let opts = DiffOptions::default();
        let ab = diff(&a, &b, &opts);
        let ba = diff(&b, &a, &opts);
        prop_assert_eq!(ab.significant(), ba.significant());

        // Counter deltas mirror exactly: same names, operands swapped,
        // identical relative delta and significance.
        let mut fwd: Vec<_> = ab.counters.iter()
            .map(|c| (c.name.clone(), c.a, c.b, c.significant))
            .collect();
        let mut rev: Vec<_> = ba.counters.iter()
            .map(|c| (c.name.clone(), c.b, c.a, c.significant))
            .collect();
        fwd.sort();
        rev.sort();
        prop_assert_eq!(fwd, rev);

        // Histogram deltas mirror too, with per-bucket z-scores negated.
        let mut hfwd: Vec<_> = ab.hists.iter()
            .map(|h| (h.name.clone(), h.count_a, h.count_b, h.significant))
            .collect();
        let mut hrev: Vec<_> = ba.hists.iter()
            .map(|h| (h.name.clone(), h.count_b, h.count_a, h.significant))
            .collect();
        hfwd.sort();
        hrev.sort();
        prop_assert_eq!(hfwd, hrev);
        for h in &ab.hists {
            let Some(mirror) = ba.hists.iter().find(|m| m.name == h.name) else {
                prop_assert!(false, "hist {} missing from the reverse diff", h.name);
                continue;
            };
            for bd in &h.buckets {
                let Some(mb) = mirror.buckets.iter().find(|m| m.bucket == bd.bucket) else {
                    prop_assert!(false, "bucket {} missing from the reverse diff", bd.bucket);
                    continue;
                };
                prop_assert!((bd.z + mb.z).abs() < 1e-12,
                    "bucket z not negated: {} vs {}", bd.z, mb.z);
            }
        }
    }
}
