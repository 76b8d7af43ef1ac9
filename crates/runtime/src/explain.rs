//! Limiter attribution: *why* each loop hit its speedup limit.
//!
//! The evaluator ([`crate::eval`]) reports opaque numbers — a loop was
//! "marked serial" or stopped short of ideal scaling. This module names
//! the responsible cost term. While folding the region tree in explain
//! mode, each loop instance records:
//!
//! - its **best** cost (what the model achieved, `min(serial, parallel)`),
//! - its **ideal** cost (the same model re-costed with every liftable
//!   limiter removed: no memory conflicts, no register LCDs, no call
//!   gate, perfect prediction — i.e. pure wave/pipeline scheduling of the
//!   adjusted iteration lengths), and
//! - the **gap** `best − ideal`: dynamic IR instructions of unrealized
//!   parallelism. A loop marked serial has `best = serial`, so the gap is
//!   exactly the speedup the model left on the table.
//!
//! Each manifested cause (a [`LimiterKind`]) is then **counterfactually
//! re-costed** with that cause alone lifted; the savings answer "lifting
//! this limiter alone unlocks ≤N× more". The gap is allocated across
//! causes conservatively (see [`allocate`]): each limiter's weight never
//! exceeds its solo counterfactual savings, any unexplained residue goes
//! to [`LimiterKind::LoadImbalance`], and the weights **sum exactly to
//! the gap** — the conservation law the proptests enforce.
//!
//! Attribution is strictly opt-in: the normal [`crate::evaluate`] path
//! performs none of this work and its `EvalReport` stays byte-identical.

use crate::config::{Config, ExecModel};
use crate::profile::CallClass;
use lp_ir::BlockId;
use std::fmt;

/// The cost term that limited a loop's parallel speedup.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum LimiterKind {
    /// Cross-iteration memory RAW conflicts (serializes DOALL, breaks
    /// PDOALL chunks, stretches the HELIX sync window).
    MemoryRaw,
    /// A non-computable register loop-carried dependence.
    RegisterLcd,
    /// A reduction LCD evaluated without reduction hardware (`reduc0`).
    Reduction,
    /// Value-prediction misses on an otherwise-decoupled LCD (`dep2`).
    ValuePrediction,
    /// The `fn` flag gate: calls of this class serialized the loop.
    CallGate(CallClass),
    /// Residual gap no single lift explains: uneven iteration lengths
    /// under wave scheduling, or causes that only matter in combination.
    LoadImbalance,
}

impl LimiterKind {
    /// Stable machine-readable name (used in `explain.json`).
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            LimiterKind::MemoryRaw => "memory-raw",
            LimiterKind::RegisterLcd => "register-lcd",
            LimiterKind::Reduction => "reduction",
            LimiterKind::ValuePrediction => "value-prediction",
            LimiterKind::CallGate(CallClass::NoCalls) => "call-gate(none)",
            LimiterKind::CallGate(CallClass::PureCalls) => "call-gate(pure)",
            LimiterKind::CallGate(CallClass::InstrumentedCalls) => "call-gate(instrumented)",
            LimiterKind::CallGate(CallClass::UnsafeCalls) => "call-gate(unsafe)",
            LimiterKind::LoadImbalance => "load-imbalance",
        }
    }

    /// One-line human description for the `lpstudy explain` table.
    #[must_use]
    pub fn describe(&self) -> &'static str {
        match self {
            LimiterKind::MemoryRaw => "cross-iteration memory RAW dependence",
            LimiterKind::RegisterLcd => "non-computable register LCD",
            LimiterKind::Reduction => "reduction LCD without reduction hardware",
            LimiterKind::ValuePrediction => "value-prediction misses",
            LimiterKind::CallGate(_) => "calls disallowed by the fn flag",
            LimiterKind::LoadImbalance => "iteration length imbalance / combined causes",
        }
    }
}

impl fmt::Display for LimiterKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One ranked limiter: its conserved share of the gap plus the solo
/// counterfactual.
#[derive(Debug, Clone)]
pub struct Limiter {
    /// What limited the loop.
    pub kind: LimiterKind,
    /// Share of the gap attributed to this cause. Per loop, limiter
    /// weights sum exactly to the loop's gap (conservation).
    pub weight: u64,
    /// Counterfactual: re-costing with this cause alone lifted saves at
    /// most this many dynamic IR instructions.
    pub savings: u64,
    /// Dynamic loop instances in which this limiter carried weight.
    pub instances: u64,
}

impl Limiter {
    /// "Lifting this limiter alone unlocks ≤N× more": the speedup factor
    /// if `savings` came off a best cost of `best`.
    #[must_use]
    pub fn unlock_factor(&self, best: u64) -> f64 {
        if best == 0 {
            return 1.0;
        }
        let lifted = best.saturating_sub(self.savings).max(1);
        best as f64 / lifted as f64
    }
}

/// Attribution for one static loop, aggregated over its dynamic
/// instances.
#[derive(Debug, Clone)]
pub struct LoopAttribution {
    /// Function containing the loop.
    pub func_name: String,
    /// Header block (source location within the function).
    pub header: BlockId,
    /// Nesting depth (outermost = 1).
    pub depth: u32,
    /// Dynamic instances executed.
    pub instances: u64,
    /// Instances the model parallelized.
    pub parallel_instances: u64,
    /// Raw serial cost across instances (matches `LoopSummary`).
    pub serial_cost: u64,
    /// Loop-local serial cost after child savings were folded in; the
    /// upper bound of `best_cost`.
    pub serial_adj: u64,
    /// Achieved cost across instances (`Σ min(serial, parallel)`).
    pub best_cost: u64,
    /// Cost with every liftable limiter removed.
    pub ideal_cost: u64,
    /// `best_cost − ideal_cost`: unrealized parallelism, conserved across
    /// `limiters`.
    pub gap: u64,
    /// Ranked limiters (largest weight first); weights sum to `gap`.
    pub limiters: Vec<Limiter>,
}

impl LoopAttribution {
    /// `"func/bN"` — the loop's source location.
    #[must_use]
    pub fn location(&self) -> String {
        format!("{}/{}", self.func_name, self.header)
    }

    /// Verdict string for tables and collapsed stacks.
    #[must_use]
    pub fn verdict(&self) -> &'static str {
        if self.parallel_instances == 0 {
            "serial"
        } else if self.parallel_instances < self.instances {
            "partial"
        } else {
            "parallel"
        }
    }
}

/// The full attribution for one `(model, config)` evaluation.
#[derive(Debug, Clone)]
pub struct Attribution {
    /// Program (module) name.
    pub program: String,
    /// Execution model evaluated.
    pub model: ExecModel,
    /// Configuration evaluated.
    pub config: Config,
    /// Sequential cost of the whole program.
    pub total_cost: u64,
    /// Best achievable cost under the model/config.
    pub best_cost: u64,
    /// Per-static-loop attribution (only loops that executed), ranked by
    /// gap descending.
    pub loops: Vec<LoopAttribution>,
    /// Program-level rollup: limiter weights summed across loops, ranked
    /// by weight descending.
    pub limiters: Vec<Limiter>,
    /// Per-region parallel verdict, indexed by `RegionId` (false for call
    /// regions). Drives the serial/parallel annotation in the
    /// collapsed-stack export.
    pub region_parallel: Vec<bool>,
}

impl Attribution {
    /// Sum of per-loop gaps — total unrealized parallelism.
    #[must_use]
    pub fn total_gap(&self) -> u64 {
        self.loops.iter().map(|l| l.gap).sum()
    }

    /// The human-readable ranked table `lpstudy explain` prints.
    #[must_use]
    pub fn render_table(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "== limiter attribution: {} · {} {} ==",
            self.program, self.model, self.config
        );
        let speedup = self.total_cost.max(1) as f64 / self.best_cost.max(1) as f64;
        let _ = writeln!(
            out,
            "program: total={} best={} speedup={speedup:.2}x gap={}",
            self.total_cost,
            self.best_cost,
            self.total_gap(),
        );
        if self.limiters.is_empty() {
            out.push_str("no limiters: every loop reached its ideal cost\n");
        } else {
            out.push_str("top limiters (program):\n");
            let gap = self.total_gap().max(1);
            for (i, lim) in self.limiters.iter().enumerate() {
                let _ = writeln!(
                    out,
                    "  #{} {:<24} weight={:<10} {:>5.1}% of gap  lifts<={:.2}x  ({})",
                    i + 1,
                    lim.kind.name(),
                    lim.weight,
                    100.0 * lim.weight as f64 / gap as f64,
                    lim.unlock_factor(self.best_cost),
                    lim.kind.describe(),
                );
            }
        }
        for l in &self.loops {
            let _ = writeln!(
                out,
                "loop {} depth={} [{}] instances={} serial={} best={} ideal={} gap={}",
                l.location(),
                l.depth,
                l.verdict(),
                l.instances,
                l.serial_cost,
                l.best_cost,
                l.ideal_cost,
                l.gap,
            );
            for lim in &l.limiters {
                let _ = writeln!(
                    out,
                    "  - {:<24} weight={:<10} saves<={:<10} lifts<={:.2}x",
                    lim.kind.name(),
                    lim.weight,
                    lim.savings,
                    lim.unlock_factor(l.best_cost),
                );
            }
        }
        out
    }
}

/// Allocates a loop instance's `gap` across its manifested causes.
///
/// Each cause's weight is capped by its solo counterfactual savings; the
/// portion of the gap no cause explains goes to
/// [`LimiterKind::LoadImbalance`]. When the solo savings over-explain the
/// gap (causes overlap), they are scaled down proportionally with a
/// largest-remainder pass so the integer weights still **sum exactly to
/// `gap`**.
#[must_use]
pub(crate) fn allocate(gap: u64, contribs: &[(LimiterKind, u64)]) -> Vec<(LimiterKind, u64, u64)> {
    if gap == 0 {
        return Vec::new();
    }
    let total: u128 = contribs.iter().map(|&(_, s)| u128::from(s)).sum();
    let mut out: Vec<(LimiterKind, u64, u64)> = Vec::new();
    if total == 0 {
        out.push((LimiterKind::LoadImbalance, gap, 0));
        return out;
    }
    if total <= u128::from(gap) {
        // Solo savings under-explain the gap: take them verbatim and
        // charge the residue to load imbalance.
        for &(kind, s) in contribs {
            if s > 0 {
                out.push((kind, s, s));
            }
        }
        let explained = total as u64;
        if explained < gap {
            out.push((LimiterKind::LoadImbalance, gap - explained, 0));
        }
        return out;
    }
    // Overlapping causes: scale down proportionally, largest remainder.
    let mut floors: Vec<(usize, u64, u128)> = Vec::with_capacity(contribs.len());
    let mut allocated = 0u64;
    for (i, &(_, s)) in contribs.iter().enumerate() {
        let num = u128::from(gap) * u128::from(s);
        let w = (num / total) as u64;
        allocated += w;
        floors.push((i, w, num % total));
    }
    let mut rest = gap - allocated;
    // Hand the leftover units to the largest remainders (ties: first in
    // cause order) — deterministic and exact.
    floors.sort_by(|a, b| b.2.cmp(&a.2).then(a.0.cmp(&b.0)));
    for f in &mut floors {
        if rest == 0 {
            break;
        }
        f.1 += 1;
        rest -= 1;
    }
    floors.sort_by_key(|f| f.0);
    for (i, w, _) in floors {
        if w > 0 {
            out.push((contribs[i].0, w, contribs[i].1));
        }
    }
    out
}

/// Per-static-loop accumulator used while folding the tree in explain
/// mode.
#[derive(Debug, Clone, Default)]
pub(crate) struct LoopAttrAgg {
    pub instances: u64,
    pub parallel_instances: u64,
    pub serial_cost: u64,
    pub serial_adj: u64,
    pub best_cost: u64,
    pub ideal_cost: u64,
    pub gap: u64,
    /// `(kind, weight, savings, instances)` — linear scan; at most a
    /// handful of kinds per loop.
    pub limiters: Vec<(LimiterKind, u64, u64, u64)>,
}

/// Collects per-instance evidence during an explained evaluation.
///
/// Public only so the reference evaluator in the differential tests can
/// fold its evidence through the same bookkeeping; not a stable API.
#[doc(hidden)]
#[derive(Debug)]
pub struct AttrCollector {
    loops: Vec<LoopAttrAgg>,
    region_parallel: Vec<bool>,
}

impl AttrCollector {
    /// An empty collector for `n_loops` static loops and `n_regions`
    /// regions.
    #[must_use]
    pub fn new(n_loops: usize, n_regions: usize) -> AttrCollector {
        AttrCollector {
            loops: vec![LoopAttrAgg::default(); n_loops],
            region_parallel: vec![false; n_regions],
        }
    }

    /// Folds one evaluated loop instance in.
    #[allow(clippy::too_many_arguments)]
    pub fn record_instance(
        &mut self,
        meta: usize,
        region: usize,
        serial_raw: u64,
        serial_adj: u64,
        best: u64,
        ideal: u64,
        parallel: bool,
        contribs: &[(LimiterKind, u64)],
    ) {
        self.region_parallel[region] = parallel;
        let gap = best.saturating_sub(ideal);
        let agg = &mut self.loops[meta];
        agg.instances += 1;
        agg.parallel_instances += u64::from(parallel);
        agg.serial_cost += serial_raw;
        agg.serial_adj += serial_adj;
        agg.best_cost += best;
        agg.ideal_cost += ideal;
        agg.gap += gap;
        for (kind, weight, savings) in allocate(gap, contribs) {
            match agg.limiters.iter_mut().find(|l| l.0 == kind) {
                Some(l) => {
                    l.1 += weight;
                    l.2 += savings;
                    l.3 += 1;
                }
                None => agg.limiters.push((kind, weight, savings, 1)),
            }
        }
    }

    /// Finalizes into the public [`Attribution`] (ranked, rolled up).
    #[must_use]
    pub fn finish(
        self,
        program: &str,
        model: ExecModel,
        config: Config,
        total_cost: u64,
        best_cost: u64,
        meta: &[crate::profile::LoopMeta],
    ) -> Attribution {
        let mut loops: Vec<LoopAttribution> = Vec::new();
        let mut rollup: Vec<(LimiterKind, u64, u64, u64)> = Vec::new();
        for (i, agg) in self.loops.into_iter().enumerate() {
            if agg.instances == 0 {
                continue;
            }
            for &(kind, w, s, n) in &agg.limiters {
                match rollup.iter_mut().find(|l| l.0 == kind) {
                    Some(l) => {
                        l.1 += w;
                        l.2 += s;
                        l.3 += n;
                    }
                    None => rollup.push((kind, w, s, n)),
                }
            }
            let mut limiters: Vec<Limiter> = agg
                .limiters
                .into_iter()
                .map(|(kind, weight, savings, instances)| Limiter {
                    kind,
                    weight,
                    savings,
                    instances,
                })
                .collect();
            limiters.sort_by(|a, b| b.weight.cmp(&a.weight).then(b.savings.cmp(&a.savings)));
            loops.push(LoopAttribution {
                func_name: meta[i].func_name.clone(),
                header: meta[i].header,
                depth: meta[i].depth,
                instances: agg.instances,
                parallel_instances: agg.parallel_instances,
                serial_cost: agg.serial_cost,
                serial_adj: agg.serial_adj,
                best_cost: agg.best_cost,
                ideal_cost: agg.ideal_cost,
                gap: agg.gap,
                limiters,
            });
        }
        loops.sort_by(|a, b| b.gap.cmp(&a.gap).then(b.serial_cost.cmp(&a.serial_cost)));
        let mut limiters: Vec<Limiter> = rollup
            .into_iter()
            .map(|(kind, weight, savings, instances)| Limiter {
                kind,
                weight,
                savings,
                instances,
            })
            .collect();
        limiters.sort_by(|a, b| b.weight.cmp(&a.weight).then(b.savings.cmp(&a.savings)));
        Attribution {
            program: program.to_string(),
            model,
            config,
            total_cost,
            best_cost,
            loops,
            limiters,
            region_parallel: self.region_parallel,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MEM: LimiterKind = LimiterKind::MemoryRaw;
    const REG: LimiterKind = LimiterKind::RegisterLcd;

    fn weights(v: &[(LimiterKind, u64, u64)]) -> u64 {
        v.iter().map(|&(_, w, _)| w).sum()
    }

    #[test]
    fn allocate_conserves_the_gap() {
        for (gap, contribs) in [
            (100u64, vec![(MEM, 60u64), (REG, 20)]),
            (100, vec![(MEM, 70), (REG, 70)]),
            (100, vec![]),
            (100, vec![(MEM, 0), (REG, 0)]),
            (7, vec![(MEM, 3), (REG, 3), (LimiterKind::Reduction, 3)]),
            (1, vec![(MEM, 1000), (REG, 999)]),
        ] {
            let out = allocate(gap, &contribs);
            assert_eq!(weights(&out), gap, "gap={gap} contribs={contribs:?}");
        }
        assert!(allocate(0, &[(MEM, 5)]).is_empty());
    }

    #[test]
    fn allocate_caps_weights_and_charges_residue_to_imbalance() {
        // Under-explained: solo savings 60+20 < gap 100 → 20 to imbalance.
        let out = allocate(100, &[(MEM, 60), (REG, 20)]);
        assert_eq!(out[0], (MEM, 60, 60));
        assert_eq!(out[1], (REG, 20, 20));
        assert_eq!(out[2], (LimiterKind::LoadImbalance, 20, 0));
        // Unexplained entirely.
        let out = allocate(50, &[]);
        assert_eq!(out, vec![(LimiterKind::LoadImbalance, 50, 0)]);
    }

    #[test]
    fn allocate_scales_overlapping_causes() {
        // Over-explained: 70+70 > 100 → proportional 50/50.
        let out = allocate(100, &[(MEM, 70), (REG, 70)]);
        assert_eq!(out, vec![(MEM, 50, 70), (REG, 50, 70)]);
        // Largest remainder: 7 over (3,3,3) → 3,2,2 (first wins the tie).
        let out = allocate(7, &[(MEM, 3), (REG, 3), (LimiterKind::Reduction, 3)]);
        assert_eq!(weights(&out), 7);
        assert_eq!(out[0].1, 3);
        // No cause's weight exceeds its savings-derived share by more
        // than the remainder unit.
        for &(_, w, s) in &out {
            assert!(w <= s);
        }
    }

    #[test]
    fn unlock_factor_guards_division() {
        let lim = Limiter {
            kind: MEM,
            weight: 10,
            savings: 10,
            instances: 1,
        };
        assert!((lim.unlock_factor(20) - 2.0).abs() < 1e-12);
        assert_eq!(lim.unlock_factor(0), 1.0);
        // Savings >= best: clamps instead of dividing by zero.
        assert!(lim.unlock_factor(5) >= 1.0);
    }

    #[test]
    fn kind_names_are_stable() {
        assert_eq!(LimiterKind::MemoryRaw.name(), "memory-raw");
        assert_eq!(
            LimiterKind::CallGate(CallClass::UnsafeCalls).name(),
            "call-gate(unsafe)"
        );
        assert_eq!(format!("{}", LimiterKind::LoadImbalance), "load-imbalance");
    }
}
