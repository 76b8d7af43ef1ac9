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

use std::collections::hash_map::{Entry, HashMap};
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

/// Number of maps a [`CtxTable`] splits its contexts over.
const CTX_SHARDS: usize = 16;

/// The FCM context table, split into [`CTX_SHARDS`] maps by bits 32..36
/// of the context key. The map takes its bucket index from the key's low
/// bits and its tag from the top seven, so the shard bits bias neither.
/// The split bounds the memory of a resize: growing one map rebuilds a
/// sixteenth of the table, instead of holding the old and the new copy
/// of all of it at once.
#[derive(Debug, Clone, Default)]
struct CtxTable {
    shards: [PrehashedMap; CTX_SHARDS],
}

impl CtxTable {
    #[inline]
    fn shard(ctx: u64) -> usize {
        (ctx >> 32) as usize % CTX_SHARDS
    }

    #[inline]
    fn get(&self, ctx: u64) -> Option<u64> {
        self.shards[Self::shard(ctx)].get(&ctx).copied()
    }

    /// Maps `ctx` to `next`, returning the value it mapped to before.
    /// Unlike `HashMap::insert`, which reserves room before it probes,
    /// this grows a map only for a context it does not hold yet.
    #[inline]
    fn insert(&mut self, ctx: u64, next: u64) -> Option<u64> {
        match self.shards[Self::shard(ctx)].entry(ctx) {
            Entry::Occupied(mut e) => Some(std::mem::replace(e.get_mut(), next)),
            Entry::Vacant(e) => {
                e.insert(next);
                None
            }
        }
    }

    /// Contexts held, summed over the maps (read once per profile).
    fn len(&self) -> usize {
        self.shards.iter().map(HashMap::len).sum()
    }
}

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
    table: CtxTable,
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
            table: CtxTable::default(),
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
            self.table.insert(self.ctx, actual)
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
        self.table.get(self.ctx)
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

    /// The reference FCM: the context is hashed from scratch over a window
    /// of the last `order` values, and one map holds the whole table.
    struct RefFcm {
        order: usize,
        window: std::collections::VecDeque<u64>,
        table: PrehashedMap,
    }

    impl RefFcm {
        fn new(order: usize) -> RefFcm {
            RefFcm {
                order,
                window: std::collections::VecDeque::new(),
                table: PrehashedMap::default(),
            }
        }

        fn ctx(&self) -> Option<u64> {
            (self.window.len() == self.order).then(|| {
                self.window.iter().fold(0, |c: u64, &v| {
                    c.wrapping_mul(FCM_BASE).wrapping_add(mix(v))
                })
            })
        }
    }

    impl Predictor for RefFcm {
        fn predict(&self) -> Option<u64> {
            self.table.get(&self.ctx()?).copied()
        }

        fn update(&mut self, actual: u64) {
            if let Some(ctx) = self.ctx() {
                self.table.insert(ctx, actual);
                self.window.pop_front();
            }
            self.window.push_back(actual);
        }

        fn name(&self) -> &'static str {
            "reference-fcm"
        }
    }

    /// The reference hybrid: every component predicts, then every
    /// component is trained, with the FCM on [`RefFcm`].
    struct RefHybrid {
        components: (LastValue, Stride, TwoDeltaStride, RefFcm),
        correct: [u64; 4],
        stats: PredictorStats,
    }

    impl RefHybrid {
        fn new() -> RefHybrid {
            RefHybrid {
                components: (
                    LastValue::new(),
                    Stride::new(),
                    TwoDeltaStride::new(),
                    RefFcm::new(DEFAULT_FCM_ORDER),
                ),
                correct: [0; 4],
                stats: PredictorStats::default(),
            }
        }

        fn observe(&mut self, actual: u64) -> bool {
            let (lv, st, td, fcm) = &mut self.components;
            let predictions = [lv.predict(), st.predict(), td.predict(), fcm.predict()];
            let hits = predictions.map(|p| p == Some(actual));
            for (correct, hit) in self.correct.iter_mut().zip(hits) {
                *correct += u64::from(hit);
            }
            lv.update(actual);
            st.update(actual);
            td.update(actual);
            fcm.update(actual);
            let any = hits.contains(&true);
            self.stats.observed += 1;
            self.stats.correct += u64::from(any);
            any
        }
    }

    /// Drives the fused path (`HybridPredictor::observe`, and
    /// `Fcm::observe_value` at orders 1 and 3) and the `predict` +
    /// `update` path against the references, observation by observation.
    /// Returns the hybrid's FCM statistics.
    fn assert_exact(label: &str, seq: &[u64]) -> PredictorStats {
        let mut hybrid = HybridPredictor::new();
        let mut reference = RefHybrid::new();
        for (i, &v) in seq.iter().enumerate() {
            assert_eq!(
                hybrid.observe(v),
                reference.observe(v),
                "{label}: hybrid hit at {i}"
            );
        }
        assert_eq!(hybrid.stats(), reference.stats, "{label}: hybrid stats");
        let ref_components = reference.correct.map(|correct| PredictorStats {
            observed: reference.stats.observed,
            correct,
        });
        assert_eq!(
            hybrid.component_stats(),
            ref_components,
            "{label}: components"
        );
        assert_eq!(
            hybrid.fcm_entries(),
            reference.components.3.table.len(),
            "{label}: hybrid fcm_entries"
        );

        for order in [1, DEFAULT_FCM_ORDER] {
            let mut fused = Fcm::with_order(order);
            let mut plain = Fcm::with_order(order);
            let mut reference = RefFcm::new(order);
            for (i, &v) in seq.iter().enumerate() {
                let want = reference.predict();
                assert_eq!(
                    plain.predict(),
                    want,
                    "{label}: order {order} predict at {i}"
                );
                assert_eq!(
                    fused.observe_value(v),
                    want,
                    "{label}: order {order} fused at {i}"
                );
                plain.update(v);
                reference.update(v);
            }
            assert_eq!(
                plain.table.len(),
                reference.table.len(),
                "{label}: plain entries"
            );
            assert_eq!(
                fused.table.len(),
                reference.table.len(),
                "{label}: fused entries"
            );
        }
        hybrid.component_stats()[3]
    }

    /// Inverse of `x ^= x >> shift`.
    fn unshift(y: u64, shift: u32) -> u64 {
        let mut x = y;
        for _ in 0..64 / shift {
            x = y ^ (x >> shift);
        }
        x
    }

    /// Multiplicative inverse of an odd `c` modulo 2^64 (Newton's method).
    fn inverse(c: u64) -> u64 {
        let mut x = c;
        for _ in 0..5 {
            x = x.wrapping_mul(2u64.wrapping_sub(c.wrapping_mul(x)));
        }
        x
    }

    /// The value whose [`mix`] is `key`, so that an order-1 FCM that has
    /// just seen it looks up exactly `key`.
    fn unmix(key: u64) -> u64 {
        let z = unshift(key, 31).wrapping_mul(inverse(0x94D0_49BB_1331_11EB));
        let z = unshift(z, 27).wrapping_mul(inverse(0xBF58_476D_1CE4_E5B9));
        unshift(z, 30).wrapping_sub(0x9E37_79B9_7F4A_7C15)
    }

    /// Context keys that stress the split: the key 0, keys that share
    /// bits 32..36 (one shard), and keys that share every other bit and
    /// differ only there (one per shard).
    fn adversarial_keys() -> Vec<u64> {
        let mut keys = vec![0];
        let shard_bits = 0xF << 32;
        keys.extend((1..2000u64).map(|i| i.wrapping_mul(FCM_BASE) & !shard_bits | (5 << 32)));
        keys.extend((0..CTX_SHARDS as u64).map(|s| 0xABCD_0000_1234_5678 | (s << 32)));
        keys
    }

    #[test]
    fn ctx_table_matches_one_map_on_adversarial_keys() {
        let keys = adversarial_keys();
        let mut table = CtxTable::default();
        let mut reference = PrehashedMap::default();
        for round in 0..2u64 {
            for (i, &k) in keys.iter().enumerate() {
                let next = round * 10_000 + i as u64;
                assert_eq!(table.get(k), reference.get(&k).copied(), "get {k:#x}");
                assert_eq!(
                    table.insert(k, next),
                    reference.insert(k, next),
                    "insert {k:#x}"
                );
            }
            assert_eq!(table.len(), reference.len());
        }
        assert!(
            table.shards.iter().all(|m| !m.is_empty()),
            "the keys span every shard"
        );
        assert_eq!(
            table.shards[5].len(),
            2000,
            "keys sharing bits 32..36 share a shard"
        );
    }

    #[test]
    fn unmix_inverts_mix() {
        for k in adversarial_keys() {
            assert_eq!(mix(unmix(k)), k);
        }
    }

    #[test]
    fn split_table_is_exact_on_chaotic_streams() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let random: Vec<u64> = (0..100_000).map(|_| rng.gen()).collect();
        assert_eq!(assert_exact("random", &random).correct, 0);
        // A logistic map read to a few hundred levels: chaotic, but
        // contexts recur, so the FCM both hits and misses.
        let mut x = 0.3141_f64;
        let logistic: Vec<u64> = (0..60_000)
            .map(|_| {
                x = 3.99 * x * (1.0 - x);
                (x * 300.0) as u64
            })
            .collect();
        let fcm = assert_exact("logistic", &logistic);
        assert!(0 < fcm.correct && fcm.correct < fcm.observed, "{fcm:?}");
    }

    #[test]
    fn split_table_is_exact_on_periodic_streams() {
        for period in [1usize, 2, 7, 64, 1000, 4099] {
            let seq: Vec<u64> = (0..20_000)
                .map(|i| ((i % period) as u64).wrapping_mul(0x1234_5678_9ABC))
                .collect();
            assert_exact(&format!("period {period}"), &seq);
        }
        let affine: Vec<u64> = (0..5000).map(|i| 17 + 3 * i).collect();
        assert_exact("affine", &affine);
    }

    #[test]
    fn split_table_is_exact_on_adversarial_keys() {
        // At order 1 the key after value v is mix(v): twice over the keys,
        // so the second pass hits what the first inserted.
        let values: Vec<u64> = adversarial_keys().into_iter().map(unmix).collect();
        let twice: Vec<u64> = values.iter().chain(&values).copied().collect();
        assert_exact("adversarial, order 1", &twice);
        // At order 3, a window (z, z, v) with mix(z) = 0 has the key
        // mix(v), and (z, z, z) has the key 0.
        let z = unmix(0);
        let order3: Vec<u64> = [z, z, z]
            .into_iter()
            .chain(values.iter().flat_map(|&v| [z, z, v]))
            .collect();
        let twice: Vec<u64> = order3.iter().chain(&order3).copied().collect();
        assert_exact("adversarial, order 3", &twice);
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
