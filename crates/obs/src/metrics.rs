//! Typed counters and histograms.
//!
//! Every countable event in the pipeline has a named slot in [`Counter`];
//! the registry backs each slot with one relaxed atomic, so incrementing
//! from the interpreter hot path costs a single uncontended RMW (hot
//! loops should still batch locally and flush once — see
//! `lp_interp::MeteredSink`). Histograms use power-of-two buckets.

use std::sync::atomic::{AtomicU64, Ordering};

/// One per-predictor-kind family of hit/miss counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PredictorKind {
    /// Last-value predictor.
    LastValue,
    /// Constant-stride predictor.
    Stride,
    /// Two-delta stride predictor.
    TwoDeltaStride,
    /// Finite-context-method predictor.
    Fcm,
    /// The arbitrating hybrid over the four components.
    Hybrid,
}

impl PredictorKind {
    /// All predictor kinds, component order first, hybrid last.
    pub const ALL: [PredictorKind; 5] = [
        PredictorKind::LastValue,
        PredictorKind::Stride,
        PredictorKind::TwoDeltaStride,
        PredictorKind::Fcm,
        PredictorKind::Hybrid,
    ];

    /// Short lowercase label used in exports.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            PredictorKind::LastValue => "last_value",
            PredictorKind::Stride => "stride",
            PredictorKind::TwoDeltaStride => "two_delta_stride",
            PredictorKind::Fcm => "fcm",
            PredictorKind::Hybrid => "hybrid",
        }
    }
}

/// Every counter the pipeline maintains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Counter {
    /// Instrumentation events consumed by sinks (all kinds).
    EventsConsumed,
    /// Basic-block entry events.
    BlocksEntered,
    /// Load events.
    Loads,
    /// Store events.
    Stores,
    /// Phi-resolution events.
    PhisResolved,
    /// Function-entry events.
    FuncsEntered,
    /// Builtin-invocation events.
    BuiltinCalls,
    /// Watched-value definition events.
    ValueDefs,
    /// Cross-iteration memory RAW conflicts detected.
    RawConflicts,
    /// Accesses the cactus-stack frame filter proved iteration-local.
    CactusFilterHits,
    /// Value-predictor hits, per kind.
    PredictorHit(PredictorKind),
    /// Value-predictor misses, per kind.
    PredictorMiss(PredictorKind),
    /// Region-tree nodes created by the profiler.
    RegionsCreated,
    /// Loop instances recorded by the profiler.
    LoopInstances,
    /// Instrumented profiling runs completed.
    ProfilesTaken,
    /// `(model, config)` evaluations performed.
    EvalsPerformed,
    /// Spans discarded because the registry hit its capacity.
    SpansDropped,
    /// Profile-store lookups served from the persistent cache (the
    /// interpreter run was skipped entirely).
    StoreHits,
    /// Profile-store lookups that found no usable entry and fell back to
    /// a fresh instrumented run.
    StoreMisses,
    /// Persistent cache entries discarded because they were corrupt,
    /// truncated, or written by another format version.
    StoreCorruptDiscarded,
    /// Profile-store garbage collections skipped because the cheap size
    /// pre-scan found the cache already under budget.
    StoreGcSkipped,
    /// Loops that passed the full replay certification (static DOALL
    /// classification, observed-dependence absence, and the independence
    /// witness) and were executed across threads.
    ReplayLoopsCertified,
    /// Candidate loops the independence witness rejected before any
    /// parallel execution (footprints overlapped across iterations).
    ReplayWitnessRejected,
    /// Replayed runs whose final memory image or observable output
    /// diverged from the serial reference (hard failures).
    ReplayDivergences,
    /// Pages of last-writer shadow memory the profiler allocated.
    ShadowPages,
    /// Pages of stack-store frame push times the profiler allocated (a
    /// subset of the shadow's pages).
    StackPushPages,
    /// Pages of independence-witness word records, over every level.
    WitnessPages,
    /// Context entries held by the value predictors' FCM tables when the
    /// profile finished (at most one per observation).
    FcmEntries,
    /// Entries of the largest single value predictor's FCM table when its
    /// profile finished, over every profile (a maximum, not a sum).
    FcmEntriesMax,
    /// Context entries of the FCM tables the profiler freed when an
    /// instance of a final loop closed (counted in [`Counter::FcmEntries`]
    /// too).
    FcmEntriesRetired,
    /// Runs of equal-length iterations the finished profiles' timelines
    /// hold (at most one per iteration).
    TimelineRuns,
}

impl Counter {
    /// Every counter and its exported name, in export order: the one
    /// declaration of both. A counter's slot in [`CounterBank`] is its
    /// index here. Slots never leave the process (snapshots, the Chrome
    /// trace and `lpstudy diff` all go by name), so a counter may be
    /// added or removed anywhere in the list.
    pub const ALL: [(Counter, &'static str); 39] = [
        (Counter::EventsConsumed, "events_consumed"),
        (Counter::BlocksEntered, "blocks_entered"),
        (Counter::Loads, "loads"),
        (Counter::Stores, "stores"),
        (Counter::PhisResolved, "phis_resolved"),
        (Counter::FuncsEntered, "funcs_entered"),
        (Counter::BuiltinCalls, "builtin_calls"),
        (Counter::ValueDefs, "value_defs"),
        (Counter::RawConflicts, "raw_conflicts"),
        (Counter::CactusFilterHits, "cactus_filter_hits"),
        (Counter::RegionsCreated, "regions_created"),
        (Counter::LoopInstances, "loop_instances"),
        (Counter::ProfilesTaken, "profiles_taken"),
        (Counter::EvalsPerformed, "evals_performed"),
        (Counter::SpansDropped, "spans_dropped"),
        (Counter::StoreHits, "store_hits"),
        (Counter::StoreMisses, "store_misses"),
        (Counter::StoreCorruptDiscarded, "store_corrupt_discarded"),
        (Counter::StoreGcSkipped, "store_gc_skipped"),
        (Counter::ReplayLoopsCertified, "replay_loops_certified"),
        (Counter::ReplayWitnessRejected, "replay_witness_rejected"),
        (Counter::ReplayDivergences, "replay_divergences"),
        (Counter::ShadowPages, "shadow_pages"),
        (Counter::StackPushPages, "stack_push_pages"),
        (Counter::WitnessPages, "witness_pages"),
        (Counter::FcmEntries, "fcm_entries"),
        (Counter::FcmEntriesMax, "fcm_entries_max"),
        (Counter::FcmEntriesRetired, "fcm_entries_retired"),
        (Counter::TimelineRuns, "timeline_runs"),
        (
            Counter::PredictorHit(PredictorKind::LastValue),
            "predictor_hit_last_value",
        ),
        (
            Counter::PredictorMiss(PredictorKind::LastValue),
            "predictor_miss_last_value",
        ),
        (
            Counter::PredictorHit(PredictorKind::Stride),
            "predictor_hit_stride",
        ),
        (
            Counter::PredictorMiss(PredictorKind::Stride),
            "predictor_miss_stride",
        ),
        (
            Counter::PredictorHit(PredictorKind::TwoDeltaStride),
            "predictor_hit_two_delta_stride",
        ),
        (
            Counter::PredictorMiss(PredictorKind::TwoDeltaStride),
            "predictor_miss_two_delta_stride",
        ),
        (
            Counter::PredictorHit(PredictorKind::Fcm),
            "predictor_hit_fcm",
        ),
        (
            Counter::PredictorMiss(PredictorKind::Fcm),
            "predictor_miss_fcm",
        ),
        (
            Counter::PredictorHit(PredictorKind::Hybrid),
            "predictor_hit_hybrid",
        ),
        (
            Counter::PredictorMiss(PredictorKind::Hybrid),
            "predictor_miss_hybrid",
        ),
    ];

    /// Dense slot index into the registry's atomic array.
    #[must_use]
    pub fn slot(self) -> usize {
        Counter::ALL
            .iter()
            .position(|&(c, _)| c == self)
            .expect("every counter is declared in Counter::ALL")
    }

    /// Stable snake-case name used by every exporter.
    #[must_use]
    pub fn name(self) -> &'static str {
        Counter::ALL[self.slot()].1
    }
}

/// The atomic backing store for all counters.
#[derive(Debug)]
pub struct CounterBank {
    slots: [AtomicU64; Counter::ALL.len()],
}

impl Default for CounterBank {
    fn default() -> CounterBank {
        CounterBank {
            slots: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl CounterBank {
    /// Adds `n` to `counter`.
    pub fn add(&self, counter: Counter, n: u64) {
        self.slots[counter.slot()].fetch_add(n, Ordering::Relaxed);
    }

    /// Raises `counter` to `n` if it is below: for gauges that report a
    /// maximum.
    pub fn max(&self, counter: Counter, n: u64) {
        self.slots[counter.slot()].fetch_max(n, Ordering::Relaxed);
    }

    /// Current value of `counter`.
    #[must_use]
    pub fn get(&self, counter: Counter) -> u64 {
        self.slots[counter.slot()].load(Ordering::Relaxed)
    }

    /// Zeroes every slot.
    pub fn reset(&self) {
        for slot in &self.slots {
            slot.store(0, Ordering::Relaxed);
        }
    }

    /// `(name, value)` for every non-zero counter, in export order.
    #[must_use]
    pub fn snapshot(&self) -> Vec<(String, u64)> {
        Counter::ALL
            .iter()
            .zip(&self.slots)
            .filter_map(|(&(_, name), slot)| {
                let v = slot.load(Ordering::Relaxed);
                (v > 0).then(|| (name.to_string(), v))
            })
            .collect()
    }
}

/// A power-of-two-bucket histogram of `u64` samples.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    /// `buckets[k]` counts samples with `floor(log2(v)) == k` (`v == 0`
    /// lands in bucket 0).
    pub buckets: [u64; 64],
    /// Number of samples.
    pub count: u64,
    /// Sum of samples.
    pub sum: u64,
    /// Minimum sample (`u64::MAX` when empty).
    pub min: u64,
    /// Maximum sample.
    pub max: u64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            buckets: [0; 64],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl Histogram {
    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        let bucket = if value == 0 {
            0
        } else {
            63 - value.leading_zeros() as usize
        };
        self.buckets[bucket] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Mean sample (0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Upper bound of the log2 bucket containing the `p`-th percentile
    /// sample (0 when empty), clamped to the observed `[min, max]` range
    /// so degenerate distributions report exact values.
    ///
    /// The estimate is conservative: a sample in bucket `k` lies in
    /// `[2^k, 2^(k+1))`, and we report the bucket's inclusive upper end
    /// `2^(k+1) - 1`. `p` is clamped to `[0, 100]`.
    #[must_use]
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let p = p.clamp(0.0, 100.0);
        // Rank of the percentile sample, 1-based (nearest-rank method).
        let rank = ((p / 100.0 * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (k, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                let upper = if k >= 63 {
                    u64::MAX
                } else {
                    (1u64 << (k + 1)) - 1
                };
                return upper.clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// The `(p50, p90, p99)` triple every exporter prints.
    #[must_use]
    pub fn quantile_summary(&self) -> (u64, u64, u64) {
        (
            self.percentile(50.0),
            self.percentile(90.0),
            self.percentile(99.0),
        )
    }

    /// Merges `other` into `self`.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Named histogram slots.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Hist {
    /// Iterations per recorded loop instance.
    LoopIterations,
    /// Wall-clock nanoseconds per profiling run.
    ProfileNanos,
    /// Wall-clock nanoseconds per `(model, config)` evaluation.
    EvalNanos,
    /// Iteration distance (consumer − producer) of each cross-iteration
    /// memory RAW edge the tracker observes.
    ConflictDistance,
}

impl Hist {
    /// Every histogram and its exported name, in export order; a
    /// histogram's slot in the registry is its index here.
    pub const ALL: [(Hist, &'static str); 4] = [
        (Hist::LoopIterations, "loop_iterations"),
        (Hist::ProfileNanos, "profile_nanos"),
        (Hist::EvalNanos, "eval_nanos"),
        (Hist::ConflictDistance, "conflict_distance"),
    ];

    /// Dense index into the registry's histogram array.
    #[must_use]
    pub fn slot(self) -> usize {
        Hist::ALL
            .iter()
            .position(|&(h, _)| h == self)
            .expect("every histogram is declared in Hist::ALL")
    }

    /// Stable snake-case name used by every exporter.
    #[must_use]
    pub fn name(self) -> &'static str {
        Hist::ALL[self.slot()].1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_are_declared_once_with_unique_names() {
        let names: std::collections::HashSet<&str> = Counter::ALL.iter().map(|&(_, n)| n).collect();
        assert_eq!(names.len(), Counter::ALL.len());
        for (i, &(c, name)) in Counter::ALL.iter().enumerate() {
            assert_eq!(c.slot(), i, "{name}");
            assert_eq!(c.name(), name);
        }
        for kind in PredictorKind::ALL {
            assert_eq!(
                Counter::PredictorHit(kind).name(),
                format!("predictor_hit_{}", kind.label())
            );
            assert_eq!(
                Counter::PredictorMiss(kind).name(),
                format!("predictor_miss_{}", kind.label())
            );
        }
    }

    #[test]
    fn bank_adds_and_snapshots() {
        let bank = CounterBank::default();
        bank.add(Counter::Loads, 3);
        bank.add(Counter::Loads, 2);
        bank.add(Counter::PredictorHit(PredictorKind::Fcm), 7);
        assert_eq!(bank.get(Counter::Loads), 5);
        let snap = bank.snapshot();
        assert_eq!(
            snap,
            vec![
                ("loads".to_string(), 5),
                ("predictor_hit_fcm".to_string(), 7)
            ]
        );
        bank.reset();
        assert!(bank.snapshot().is_empty());
    }

    #[test]
    fn histogram_buckets_and_stats() {
        let mut h = Histogram::default();
        for v in [0u64, 1, 1, 2, 3, 1024] {
            h.record(v);
        }
        assert_eq!(h.count, 6);
        assert_eq!(h.sum, 1031);
        assert_eq!(h.min, 0);
        assert_eq!(h.max, 1024);
        assert_eq!(h.buckets[0], 3); // 0, 1, 1
        assert_eq!(h.buckets[1], 2); // 2, 3
        assert_eq!(h.buckets[10], 1); // 1024
        assert!((h.mean() - 1031.0 / 6.0).abs() < 1e-9);

        let mut other = Histogram::default();
        other.record(5);
        h.merge(&other);
        assert_eq!(h.count, 7);
        assert_eq!(h.buckets[2], 1);
    }

    #[test]
    fn percentile_empty_and_degenerate() {
        let h = Histogram::default();
        assert_eq!(h.percentile(50.0), 0);
        // One sample: every percentile is that sample (clamped to
        // [min, max] even though bucket 2's upper bound is 7).
        let mut h = Histogram::default();
        h.record(5);
        assert_eq!(h.percentile(0.0), 5);
        assert_eq!(h.percentile(50.0), 5);
        assert_eq!(h.percentile(100.0), 5);
    }

    #[test]
    fn percentile_walks_buckets_by_rank() {
        // 4 samples in bucket 0 (values ≤ 1), 4 in bucket 1 (2..4),
        // 1 in bucket 3 (8..16), 1 in bucket 10 (1024..2048).
        let mut h = Histogram::default();
        for v in [1u64, 1, 1, 1, 2, 2, 3, 3, 9, 1024] {
            h.record(v);
        }
        assert_eq!(h.count, 10);
        // rank(p50) = 5 → bucket 1, upper bound 3.
        assert_eq!(h.percentile(50.0), 3);
        // rank(p40) = 4 → still bucket 0; upper bound 1.
        assert_eq!(h.percentile(40.0), 1);
        // rank(p90) = 9 → bucket 3, upper bound 15.
        assert_eq!(h.percentile(90.0), 15);
        // rank(p99) = 10 → bucket 10, upper 2047, clamped to max 1024.
        assert_eq!(h.percentile(99.0), 1024);
        let (p50, p90, p99) = h.quantile_summary();
        assert_eq!((p50, p90, p99), (3, 15, 1024));
    }

    #[test]
    fn percentile_is_monotone_in_p() {
        let mut h = Histogram::default();
        for v in 0..2000u64 {
            h.record(v * 37 % 4096);
        }
        let mut prev = 0;
        for p in [0.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 100.0] {
            let q = h.percentile(p);
            assert!(q >= prev, "p{p}: {q} < {prev}");
            prev = q;
        }
        assert_eq!(h.percentile(100.0), h.max);
    }

    #[test]
    fn hist_slots_cover_all() {
        for (i, &(h, name)) in Hist::ALL.iter().enumerate() {
            assert_eq!(h.slot(), i, "{name}");
            assert_eq!(h.name(), name);
        }
        assert!(Hist::ALL.iter().any(|&(_, n)| n == "conflict_distance"));
    }
}
