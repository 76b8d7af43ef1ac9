//! # lp-predict — value predictors for register LCDs
//!
//! Loopapalooza's `dep2` configuration accelerates non-computable register
//! LCDs with run-time value prediction (paper §III-C). Four predictor
//! types are supported, matching the paper:
//!
//! 1. [`LastValue`] — predicts the previous value;
//! 2. [`Stride`] — previous value plus the last observed delta;
//! 3. [`TwoDeltaStride`] — stride updated only after the same delta is
//!    seen twice in a row (classic 2-delta filtering of noisy strides);
//! 4. [`Fcm`] — a Finite Context Method predictor (Sazeides & Smith): a
//!    hash of the last `ORDER` values indexes a table of next values.
//!
//! [`HybridPredictor`] combines them with *perfect hybridization*: a value
//! counts as predicted if **any** component predicts it — exactly the
//! idealization the paper adopts for its limit study.
//!
//! Values are 64-bit fingerprints (`lp_interp::Value::fingerprint`-style:
//! integers as themselves, floats as IEEE bits).

#![forbid(unsafe_code)]

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Pass-through hasher for the FCM table: its keys are already-mixed
/// context hashes, so the map has nothing left to do. Rehashing a
/// 64-bit hash through SipHash costs more than the table probe itself.
#[derive(Debug, Default, Clone)]
struct Prehashed {
    hash: u64,
}

impl Hasher for Prehashed {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("FCM table keys are u64 hashes");
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.hash = n;
    }
}

type PrehashedMap = HashMap<u64, u64, BuildHasherDefault<Prehashed>>;

/// A single-stream value predictor.
///
/// Call order per observation: [`Predictor::predict`], compare against the
/// actual value, then [`Predictor::update`] with the actual value.
pub trait Predictor {
    /// Predicted next value, or `None` while warming up.
    fn predict(&self) -> Option<u64>;

    /// Feeds the actually produced value.
    fn update(&mut self, actual: u64);

    /// Short name for reports.
    fn name(&self) -> &'static str;
}

/// Predicts the previously seen value.
#[derive(Debug, Clone, Default)]
pub struct LastValue {
    last: Option<u64>,
}

impl LastValue {
    /// Creates an empty predictor.
    #[must_use]
    pub fn new() -> LastValue {
        LastValue::default()
    }
}

impl Predictor for LastValue {
    fn predict(&self) -> Option<u64> {
        self.last
    }

    fn update(&mut self, actual: u64) {
        self.last = Some(actual);
    }

    fn name(&self) -> &'static str {
        "last-value"
    }
}

/// Predicts `last + stride`, where the stride is the delta between the two
/// most recent values.
#[derive(Debug, Clone, Default)]
pub struct Stride {
    last: Option<u64>,
    stride: Option<u64>,
}

impl Stride {
    /// Creates an empty predictor.
    #[must_use]
    pub fn new() -> Stride {
        Stride::default()
    }
}

impl Predictor for Stride {
    fn predict(&self) -> Option<u64> {
        Some(self.last?.wrapping_add(self.stride?))
    }

    fn update(&mut self, actual: u64) {
        if let Some(last) = self.last {
            self.stride = Some(actual.wrapping_sub(last));
        }
        self.last = Some(actual);
    }

    fn name(&self) -> &'static str {
        "stride"
    }
}

/// A stride predictor whose stride is only replaced after the *same* new
/// delta has been observed twice consecutively, filtering one-off jumps.
#[derive(Debug, Clone, Default)]
pub struct TwoDeltaStride {
    last: Option<u64>,
    stride: Option<u64>,
    candidate: Option<u64>,
}

impl TwoDeltaStride {
    /// Creates an empty predictor.
    #[must_use]
    pub fn new() -> TwoDeltaStride {
        TwoDeltaStride::default()
    }
}

impl Predictor for TwoDeltaStride {
    fn predict(&self) -> Option<u64> {
        Some(self.last?.wrapping_add(self.stride?))
    }

    fn update(&mut self, actual: u64) {
        if let Some(last) = self.last {
            let delta = actual.wrapping_sub(last);
            if self.stride.is_none() {
                self.stride = Some(delta);
            } else if self.stride != Some(delta) {
                if self.candidate == Some(delta) {
                    self.stride = Some(delta);
                    self.candidate = None;
                } else {
                    self.candidate = Some(delta);
                }
            } else {
                self.candidate = None;
            }
        }
        self.last = Some(actual);
    }

    fn name(&self) -> &'static str {
        "2-delta-stride"
    }
}

/// Finite Context Method predictor of the given order: the hash of the
/// last `order` values selects the predicted next value from a table.
#[derive(Debug, Clone)]
pub struct Fcm {
    order: usize,
    /// Ring buffer of the last `order` values in *mixed* form (oldest at
    /// `head`). Only the mixed form is ever read: the rolling context
    /// hash needs the outgoing term, never the raw value.
    history: Vec<u64>,
    head: usize,
    table: PrehashedMap,
    warm: usize,
    /// Rolling polynomial hash of `history`, slid in O(1) per observation
    /// so `predict` + `update` share one computation and the hash cost is
    /// independent of the order.
    ctx: u64,
    /// `FCM_BASE^(order - 1)`: the weight of the oldest term, subtracted
    /// out when the window slides.
    drop_pow: u64,
}

/// Default FCM context length used by [`Fcm::new`] and the hybrid.
pub const DEFAULT_FCM_ORDER: usize = 3;

/// Base of the rolling polynomial context hash (odd, so multiplying by it
/// is a bijection on `u64`).
const FCM_BASE: u64 = 0x9E37_79B9_7F4A_7C15;

/// One splitmix64 finalization round. Induction values and trip counts
/// are small integers; mixing each value before it enters the polynomial
/// spreads contexts across the full 64-bit key space so the pass-through
/// hashed table buckets stay uniform.
#[inline]
fn mix(v: u64) -> u64 {
    let mut z = v.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Fcm {
    /// An FCM predictor with the default order.
    #[must_use]
    pub fn new() -> Fcm {
        Fcm::with_order(DEFAULT_FCM_ORDER)
    }

    /// An FCM predictor with an explicit context length.
    ///
    /// # Panics
    /// Panics if `order` is zero.
    #[must_use]
    pub fn with_order(order: usize) -> Fcm {
        assert!(order > 0, "FCM order must be positive");
        Fcm {
            order,
            history: Vec::with_capacity(order),
            head: 0,
            table: PrehashedMap::default(),
            warm: 0,
            ctx: 0,
            drop_pow: FCM_BASE.wrapping_pow(order as u32 - 1),
        }
    }

    /// Slides the context window over `actual`, rolling `ctx` in O(1):
    /// `ctx' = (ctx - oldest·BASE^(order-1))·BASE + mix(actual)`.
    #[inline]
    fn push_value(&mut self, actual: u64) {
        let m = mix(actual);
        if self.history.len() < self.order {
            self.history.push(m);
            self.ctx = self.ctx.wrapping_mul(FCM_BASE).wrapping_add(m);
        } else {
            let old = std::mem::replace(&mut self.history[self.head], m);
            self.head += 1;
            if self.head == self.order {
                self.head = 0;
            }
            self.ctx = self
                .ctx
                .wrapping_sub(old.wrapping_mul(self.drop_pow))
                .wrapping_mul(FCM_BASE)
                .wrapping_add(m);
        }
        self.warm += 1;
    }

    /// Fused predict-then-update: returns what [`Predictor::predict`]
    /// would have, trains on `actual`, and touches the context table once
    /// instead of twice. Exactly equivalent to `predict()` + `update()`.
    fn observe_value(&mut self, actual: u64) -> Option<u64> {
        let predicted = if self.warm >= self.order {
            match self.table.entry(self.ctx) {
                std::collections::hash_map::Entry::Occupied(mut e) => {
                    Some(std::mem::replace(e.get_mut(), actual))
                }
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(actual);
                    None
                }
            }
        } else {
            None
        };
        self.push_value(actual);
        predicted
    }
}

impl Default for Fcm {
    fn default() -> Fcm {
        Fcm::new()
    }
}

impl Predictor for Fcm {
    fn predict(&self) -> Option<u64> {
        if self.warm < self.order {
            return None;
        }
        self.table.get(&self.ctx).copied()
    }

    fn update(&mut self, actual: u64) {
        if self.warm >= self.order {
            self.table.insert(self.ctx, actual);
        }
        self.push_value(actual);
    }

    fn name(&self) -> &'static str {
        "fcm"
    }
}

/// Accuracy statistics for a predictor stream.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PredictorStats {
    /// Number of observed values.
    pub observed: u64,
    /// Number of correct predictions.
    pub correct: u64,
}

impl PredictorStats {
    /// Fraction of observations predicted correctly (0 when empty).
    #[must_use]
    pub fn accuracy(&self) -> f64 {
        if self.observed == 0 {
            0.0
        } else {
            self.correct as f64 / self.observed as f64
        }
    }
}

/// The paper's hybrid: last-value + stride + 2-delta stride + FCM with
/// perfect hybridization (correct if any component is correct).
///
/// ```
/// use lp_predict::HybridPredictor;
///
/// let mut hybrid = HybridPredictor::new();
/// let mut hits = 0;
/// for v in (0..100u64).map(|i| 10 + 3 * i) {
///     if hybrid.observe(v) {
///         hits += 1;
///     }
/// }
/// assert!(hits >= 98, "an affine stream is stride-predictable: {hits}");
/// ```
#[derive(Debug, Clone)]
pub struct HybridPredictor {
    last_value: LastValue,
    stride: Stride,
    two_delta: TwoDeltaStride,
    fcm: Fcm,
    stats: PredictorStats,
    /// Per-component correct counts; every component observes every
    /// value, so the observed counts are all `stats.observed` and are
    /// materialized on demand instead of incremented four extra times
    /// per observation on the hot path.
    component_correct: [u64; 4],
}

impl HybridPredictor {
    /// Creates the four-component hybrid.
    #[must_use]
    pub fn new() -> HybridPredictor {
        HybridPredictor {
            last_value: LastValue::new(),
            stride: Stride::new(),
            two_delta: TwoDeltaStride::new(),
            fcm: Fcm::new(),
            stats: PredictorStats::default(),
            component_correct: [0; 4],
        }
    }

    /// Observes one value: returns `true` if any component had predicted
    /// it, then trains all components.
    pub fn observe(&mut self, actual: u64) -> bool {
        let predictions = [
            self.last_value.predict(),
            self.stride.predict(),
            self.two_delta.predict(),
            self.fcm.observe_value(actual),
        ];
        let mut any = false;
        for (i, p) in predictions.iter().enumerate() {
            if *p == Some(actual) {
                self.component_correct[i] += 1;
                any = true;
            }
        }
        self.last_value.update(actual);
        self.stride.update(actual);
        self.two_delta.update(actual);
        self.stats.observed += 1;
        if any {
            self.stats.correct += 1;
        }
        any
    }

    /// Hybrid accuracy statistics.
    #[must_use]
    pub fn stats(&self) -> PredictorStats {
        self.stats
    }

    /// Context entries in the FCM component's table (at most one per
    /// observation).
    #[must_use]
    pub fn fcm_entries(&self) -> usize {
        self.fcm.table.len()
    }

    /// Per-component statistics in `[last-value, stride, 2-delta, fcm]`
    /// order.
    #[must_use]
    pub fn component_stats(&self) -> [PredictorStats; 4] {
        self.component_correct.map(|correct| PredictorStats {
            observed: self.stats.observed,
            correct,
        })
    }
}

impl Default for HybridPredictor {
    fn default() -> HybridPredictor {
        HybridPredictor::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn accuracy_on<P: Predictor>(mut p: P, seq: &[u64]) -> (u64, u64) {
        let mut correct = 0;
        let mut total = 0;
        for &v in seq {
            total += 1;
            if p.predict() == Some(v) {
                correct += 1;
            }
            p.update(v);
        }
        (correct, total)
    }

    #[test]
    fn last_value_on_constant_stream() {
        let seq = vec![42u64; 10];
        let (correct, total) = accuracy_on(LastValue::new(), &seq);
        assert_eq!((correct, total), (9, 10)); // all but the first
    }

    #[test]
    fn stride_on_arithmetic_stream() {
        let seq: Vec<u64> = (0..20).map(|i| 100 + 7 * i).collect();
        let (correct, _) = accuracy_on(Stride::new(), &seq);
        assert_eq!(correct, 18); // misses the first two (warm-up)
    }

    #[test]
    fn stride_handles_negative_deltas_via_wrapping() {
        let seq: Vec<u64> = (0..10).map(|i| (1000 - 13 * i) as u64).collect();
        let (correct, _) = accuracy_on(Stride::new(), &seq);
        assert_eq!(correct, 8);
    }

    #[test]
    fn two_delta_resists_one_off_jump() {
        // Arithmetic with a single glitch: plain stride mispredicts twice
        // (after the glitch it chases the bogus delta), 2-delta only once.
        let mut seq: Vec<u64> = (0..20).map(|i| 10 * i).collect();
        seq[10] = 5; // glitch
        let (plain, _) = accuracy_on(Stride::new(), &seq);
        let (two_delta, _) = accuracy_on(TwoDeltaStride::new(), &seq);
        assert!(
            two_delta > plain,
            "2-delta ({two_delta}) should beat stride ({plain}) on glitchy streams"
        );
    }

    #[test]
    fn fcm_learns_repeating_pattern() {
        // Period-4 pattern; FCM with order 3 nails it after one period,
        // stride never does.
        let pattern = [3u64, 1, 4, 1];
        let seq: Vec<u64> = (0..40).map(|i| pattern[i % 4]).collect();
        let (fcm, _) = accuracy_on(Fcm::new(), &seq);
        let (stride, _) = accuracy_on(Stride::new(), &seq);
        assert!(fcm >= 32, "FCM should learn the period: {fcm}");
        assert!(fcm > stride);
    }

    #[test]
    fn fcm_order_validation() {
        let f = Fcm::with_order(1);
        assert_eq!(f.predict(), None);
    }

    #[test]
    #[should_panic(expected = "order must be positive")]
    fn fcm_zero_order_panics() {
        let _ = Fcm::with_order(0);
    }

    #[test]
    fn hybrid_is_at_least_as_good_as_each_component() {
        let pattern = [3u64, 1, 4, 1, 5, 9];
        let seq: Vec<u64> = (0..60)
            .map(|i| {
                if i % 10 == 0 {
                    77
                } else {
                    pattern[i % 6] + i as u64
                }
            })
            .collect();
        let mut hybrid = HybridPredictor::new();
        for &v in &seq {
            hybrid.observe(v);
        }
        let hs = hybrid.stats();
        assert_eq!(hs.observed, 60);
        for cs in hybrid.component_stats() {
            assert!(
                hs.correct >= cs.correct,
                "perfect hybridization dominates components"
            );
        }
    }

    #[test]
    fn hybrid_perfect_on_constant() {
        let mut hybrid = HybridPredictor::new();
        let mut hits = 0;
        for _ in 0..10 {
            if hybrid.observe(5) {
                hits += 1;
            }
        }
        assert_eq!(hits, 9);
        assert!((hybrid.stats().accuracy() - 0.9).abs() < 1e-9);
    }

    #[test]
    fn stats_accuracy_empty_is_zero() {
        assert_eq!(PredictorStats::default().accuracy(), 0.0);
    }

    #[test]
    fn random_stream_defeats_everything() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        let seq: Vec<u64> = (0..500).map(|_| rng.gen()).collect();
        let mut hybrid = HybridPredictor::new();
        let mut hits = 0u64;
        for &v in &seq {
            if hybrid.observe(v) {
                hits += 1;
            }
        }
        assert!(hits < 10, "random 64-bit values are unpredictable: {hits}");
    }
}
