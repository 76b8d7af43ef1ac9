//! The limit-study evaluator.
//!
//! Consumes a [`Profile`] and computes, for one `(execution model,
//! configuration)` pair, the achievable speedup in the limit. The dynamic
//! region tree is folded bottom-up:
//!
//! - each region's **best cost** is its serial cost minus the savings of
//!   its children (nested, SWARM/T4-style multi-level parallelism: inner
//!   loop savings shrink the enclosing iteration lengths before the outer
//!   loop's model is applied — the paper's "propagated up to the nest of
//!   parent loops and functions");
//! - a loop instance then applies the execution-model cost over its
//!   adjusted iteration lengths and keeps `min(serial, parallel)`;
//! - loops whose modelled parallel cost does not beat serial are "marked
//!   serial", exactly as §III-B prescribes.
//!
//! Coverage is the fraction of dynamic IR instructions executing inside
//! loops judged parallel (Fig. 5); Amdahl makes it the other half of the
//! speedup story.
//!
//! Every loop instance, in every mode, is costed over its iteration
//! runs (DESIGN.md §16): the timeline's [`Segment`]s, split where a
//! child's saving lands, feed the cost models, so no per-iteration array
//! is built. What the points of a lattice share, computed once per
//! profile in an [`EvalPlan`], is which regions hold a loop, in them or
//! below them; a walk skips loop-free subtrees.

use crate::config::{Config, DepMode, ExecModel, FnMode, ReducMode};
use crate::explain::{AttrCollector, Attribution, LimiterKind};
use crate::iters::Segments;
use crate::model::{doall_cost, helix_cost, pdoall_cost, Segment};
use crate::profile::{CallClass, LoopInstance, LoopMeta, Profile, Region, RegionId, RegionKind};
use lp_analysis::LcdClass;
use lp_ir::BlockId;
use std::cell::Cell;
use std::ops::Range;

/// Per-static-loop aggregation across all its dynamic instances.
#[derive(Debug, Clone, Default)]
pub struct LoopSummary {
    /// Function containing the loop.
    pub func_name: String,
    /// Header block.
    pub header: BlockId,
    /// Nesting depth (outermost = 1).
    pub depth: u32,
    /// Dynamic instances executed.
    pub instances: u64,
    /// Instances the model parallelized.
    pub parallel_instances: u64,
    /// Total iterations across instances.
    pub iterations: u64,
    /// Total raw serial cost across instances.
    pub serial_cost: u64,
    /// Total best (possibly parallel) cost across instances.
    pub best_cost: u64,
}

impl LoopSummary {
    /// Per-loop speedup across all instances.
    #[must_use]
    pub fn speedup(&self) -> f64 {
        if self.best_cost == 0 {
            1.0
        } else {
            self.serial_cost as f64 / self.best_cost as f64
        }
    }
}

/// The result of evaluating one `(model, config)` pair on one profile.
#[derive(Debug, Clone)]
pub struct EvalReport {
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
    /// `total_cost / best_cost`.
    pub speedup: f64,
    /// Percent of dynamic IR instructions inside parallel loops.
    pub coverage: f64,
    /// Per-static-loop details (only loops that executed).
    pub loops: Vec<LoopSummary>,
}

struct RegionEval {
    serial: u64,
    best: u64,
    covered: u64,
}

/// Which limiter causes to *remove* when re-costing a loop instance.
///
/// `Lift::NONE` reproduces the normal evaluation bit-for-bit; the
/// attribution layer re-costs with a single cause lifted to compute its
/// counterfactual savings, and with [`Lift::ALL`] to compute the ideal
/// (limiter-free) cost.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Lift {
    /// Ignore the `fn` flag gate (treat the loop as making no calls).
    fn_gate: bool,
    /// Drop all cross-iteration memory RAW evidence.
    mem: bool,
    /// Drop non-computable (non-reduction) register LCDs.
    reg_lcd: bool,
    /// Decouple reduction LCDs as if `reduc1` were set.
    reduction: bool,
    /// Treat every value prediction as a hit (as if `dep3`).
    value_pred: bool,
}

impl Lift {
    const NONE: Lift = Lift {
        fn_gate: false,
        mem: false,
        reg_lcd: false,
        reduction: false,
        value_pred: false,
    };
    const ALL: Lift = Lift {
        fn_gate: true,
        mem: true,
        reg_lcd: true,
        reduction: true,
        value_pred: true,
    };

    /// The single-cause lift used for a limiter's counterfactual.
    fn for_kind(kind: LimiterKind) -> Lift {
        let mut l = Lift::NONE;
        match kind {
            LimiterKind::MemoryRaw => l.mem = true,
            LimiterKind::RegisterLcd => l.reg_lcd = true,
            LimiterKind::Reduction => l.reduction = true,
            LimiterKind::ValuePrediction => l.value_pred = true,
            LimiterKind::CallGate(_) => l.fn_gate = true,
            LimiterKind::LoadImbalance => {}
        }
        l
    }
}

/// Which causes manifested while costing a loop instance (explain mode
/// only).
#[derive(Debug, Clone, Copy, Default)]
struct Causes {
    call_gate: bool,
    mem: bool,
    reg_lcd: bool,
    reduction: bool,
    value_pred: bool,
}

impl Causes {
    /// The manifested causes as limiter kinds, in taxonomy order.
    fn kinds(&self, call_class: CallClass) -> Vec<LimiterKind> {
        let mut out = Vec::new();
        if self.mem {
            out.push(LimiterKind::MemoryRaw);
        }
        if self.reg_lcd {
            out.push(LimiterKind::RegisterLcd);
        }
        if self.reduction {
            out.push(LimiterKind::Reduction);
        }
        if self.value_pred {
            out.push(LimiterKind::ValuePrediction);
        }
        if self.call_gate {
            out.push(LimiterKind::CallGate(call_class));
        }
        out
    }
}

/// Which iterations break a Partial-DOALL instance into phases: its
/// memory RAW conflicts and the mispredicts of the register LCDs the
/// configuration leaves to value prediction.
#[derive(Debug, Clone, Copy)]
struct ConflictSet {
    /// Memory RAW conflicts.
    mem: bool,
    /// Mispredicts of reduction LCDs.
    reductions: bool,
    /// Mispredicts of the other traced LCDs.
    others: bool,
}

impl ConflictSet {
    /// The conflicting iterations of `inst` in this set, as ascending,
    /// disjoint ranges listed in `buf`: the union of the sets' intervals.
    fn ranges<'a>(
        self,
        meta: &LoopMeta,
        inst: &LoopInstance,
        buf: &'a mut Vec<Range<u32>>,
    ) -> &'a [Range<u32>] {
        buf.clear();
        let mut sets = 0;
        if self.mem && !inst.mem_conflict_iters.is_empty() {
            buf.extend(inst.mem_conflict_iters.ranges());
            sets += 1;
        }
        if self.reductions || self.others {
            for ((_, class), lcd) in meta.traced_phis.iter().zip(&inst.lcds) {
                let wanted = if matches!(class, LcdClass::Reduction(_)) {
                    self.reductions
                } else {
                    self.others
                };
                if wanted && !lcd.mispredict_iters.is_empty() {
                    buf.extend(lcd.mispredict_iters.ranges());
                    sets += 1;
                }
            }
        }
        if sets > 1 {
            buf.sort_unstable_by_key(|r| r.start);
            let mut kept = 0;
            for i in 1..buf.len() {
                if buf[i].start <= buf[kept].end {
                    buf[kept].end = buf[kept].end.max(buf[i].end);
                } else {
                    kept += 1;
                    buf[kept] = buf[i].clone();
                }
            }
            buf.truncate(kept + 1);
        }
        buf
    }
}

/// What one evaluation point makes of a loop instance before any
/// iteration length is read: O(traced phis).
struct Verdict {
    /// The model marks the loop sequential outright.
    forced: bool,
    /// HELIX synchronization skew per iteration.
    delta: u64,
    /// Partial-DOALL phase breakers.
    conflicts: ConflictSet,
}

/// What the `(model, config)` points of a profile share, computed once
/// per profile by [`Profile::eval_plan`].
///
/// It holds no per-iteration data: a loop instance's lengths depend on
/// the configuration and are read from its timeline on each walk.
#[derive(Debug, Clone)]
pub struct EvalPlan {
    /// Bit `r` is set when region `r`'s subtree, itself included, holds a
    /// loop instance. A loop-free subtree saves nothing and covers
    /// nothing, so the walk skips it.
    has_loop: Vec<u64>,
    /// Bit `r` is set when a loop instance lies strictly below region
    /// `r`. The walk reads a loop instance's children only then: most
    /// regions are loop-free calls, and most of them hang below loops
    /// with no loop inside.
    loop_below: Vec<u64>,
}

impl EvalPlan {
    fn build(profile: &Profile) -> EvalPlan {
        let n = profile.regions.len();
        // Depth-first pre-order: every region comes after its parent.
        let mut order = Vec::with_capacity(n);
        let mut stack: Vec<RegionId> = if n > 0 {
            vec![profile.root()]
        } else {
            Vec::new()
        };
        while let Some(r) = stack.pop() {
            order.push(r);
            stack.extend(profile.region(r).children.iter().rev());
        }
        let mut plan = EvalPlan {
            has_loop: vec![0; n.div_ceil(64)],
            loop_below: vec![0; n.div_ceil(64)],
        };
        let set = |bits: &mut [u64], r: RegionId| bits[r.index() / 64] |= 1 << (r.index() % 64);
        for &r in order.iter().rev() {
            let region = profile.region(r);
            let below = region.children.iter().any(|&c| plan.has_loop(c));
            if below {
                set(&mut plan.loop_below, r);
            }
            if below || matches!(region.kind, RegionKind::Loop(_)) {
                set(&mut plan.has_loop, r);
            }
        }
        plan
    }

    fn has_loop(&self, r: RegionId) -> bool {
        bit(&self.has_loop, r)
    }

    fn loop_below(&self, r: RegionId) -> bool {
        bit(&self.loop_below, r)
    }
}

fn bit(bits: &[u64], r: RegionId) -> bool {
    bits[r.index() / 64] & (1 << (r.index() % 64)) != 0
}

impl Profile {
    /// The profile's evaluation plan: built by the first evaluation,
    /// inside its `evaluate` span under an `eval-plan` span of its own,
    /// and shared by every later one.
    pub fn eval_plan(&self) -> &EvalPlan {
        self.plan.get_or_init(|| {
            let _span = lp_obs::span!("eval-plan");
            EvalPlan::build(self)
        })
    }
}

/// One static loop's running totals during a walk.
#[derive(Debug, Clone, Copy, Default)]
struct LoopTotals {
    instances: u64,
    parallel_instances: u64,
    iterations: u64,
    serial_cost: u64,
    best_cost: u64,
}

/// Buffers a walk reuses. They are kept per thread between evaluations,
/// so a lattice point allocates little more than its report.
#[derive(Default)]
struct Scratch {
    /// A stack of `(iteration, saving)` pairs, one frame per open loop
    /// instance: the savings of its children, by the iteration each
    /// started in.
    savings: Vec<(u32, u64)>,
    /// The adjusted iteration segments of the instance being costed.
    segments: Vec<Segment>,
    /// A merged Partial-DOALL conflict set.
    conflicts: Vec<Range<u32>>,
    /// Per-static-loop totals, parallel to [`Profile::loop_meta`].
    totals: Vec<LoopTotals>,
}

thread_local! {
    static SCRATCH: Cell<Scratch> = Cell::new(Scratch::default());
}

/// The evaluation point: what every loop instance is costed under.
#[derive(Clone, Copy)]
struct Point {
    model: ExecModel,
    config: Config,
    options: EvalOptions,
}

struct Evaluator<'p> {
    profile: &'p Profile,
    plan: &'p EvalPlan,
    point: Point,
    scratch: Scratch,
    /// Present only in explain mode; `None` keeps the normal path free of
    /// any attribution work.
    attr: Option<AttrCollector>,
}

/// Evaluator behaviour knobs (ablations).
#[derive(Debug, Clone, Copy, Default)]
pub struct EvalOptions {
    /// Model classic DOACROSS instead of HELIX: a *single* synchronization
    /// point per iteration pair, placed "after the last write in the
    /// previous iteration and immediately before the first read in the
    /// next" (paper §II-C). The per-iteration skew becomes
    /// `max(producers) − min(consumers)` across ALL manifesting LCDs,
    /// whereas HELIX synchronizes each LCD independently and takes the
    /// largest individual skew.
    pub doacross_single_sync: bool,
    /// Bound the number of cores (`None` = the paper's infinite-resource
    /// limit study). Parallel regions are scheduled in in-order waves;
    /// HELIX additionally respects core-reuse: iteration `i` waits for
    /// iteration `i − cores` to finish.
    pub cores: Option<u32>,
}

/// Evaluates `profile` under one `(model, config)` pair.
#[must_use]
pub fn evaluate(profile: &Profile, model: ExecModel, config: Config) -> EvalReport {
    evaluate_with(profile, model, config, EvalOptions::default())
}

/// As [`evaluate`] with explicit evaluator knobs.
#[must_use]
pub fn evaluate_with(
    profile: &Profile,
    model: ExecModel,
    config: Config,
    options: EvalOptions,
) -> EvalReport {
    run(profile, model, config, options, false).0
}

/// As [`evaluate`], additionally attributing every loop's speedup gap to
/// ranked [`LimiterKind`]s with counterfactual savings (see
/// [`crate::explain`]).
#[must_use]
pub fn evaluate_explained(
    profile: &Profile,
    model: ExecModel,
    config: Config,
) -> (EvalReport, Attribution) {
    evaluate_explained_with(profile, model, config, EvalOptions::default())
}

/// As [`evaluate_explained`] with explicit evaluator knobs.
///
/// # Panics
/// Never panics; the collector is always present in explain mode.
#[must_use]
pub fn evaluate_explained_with(
    profile: &Profile,
    model: ExecModel,
    config: Config,
    options: EvalOptions,
) -> (EvalReport, Attribution) {
    let (report, attr) = run(profile, model, config, options, true);
    (report, attr.expect("explain mode always collects"))
}

fn run(
    profile: &Profile,
    model: ExecModel,
    config: Config,
    options: EvalOptions,
    explain: bool,
) -> (EvalReport, Option<Attribution>) {
    let _span = lp_obs::span!("evaluate");
    let reg = lp_obs::registry();
    let t0 = reg.now_ns();
    let mut scratch = SCRATCH.with(Cell::take);
    scratch.totals.clear();
    scratch
        .totals
        .resize(profile.loop_meta.len(), LoopTotals::default());
    let mut ev = Evaluator {
        profile,
        plan: profile.eval_plan(),
        point: Point {
            model,
            config,
            options,
        },
        scratch,
        attr: explain.then(|| AttrCollector::new(profile.loop_meta.len(), profile.regions.len())),
    };
    let root = ev.eval_region(profile.root());
    let total = profile.total_cost.max(1);
    let best = root.best.max(1);
    lp_obs::counters().add(lp_obs::Counter::EvalsPerformed, 1);
    reg.record_hist(lp_obs::Hist::EvalNanos, reg.now_ns().saturating_sub(t0));
    let attribution = ev.attr.take().map(|c| {
        c.finish(
            &profile.program,
            model,
            config,
            profile.total_cost,
            root.best,
            &profile.loop_meta,
        )
    });
    let report = EvalReport {
        program: profile.program.clone(),
        model,
        config,
        total_cost: profile.total_cost,
        best_cost: root.best,
        speedup: total as f64 / best as f64,
        coverage: 100.0 * root.covered as f64 / total as f64,
        loops: profile
            .loop_meta
            .iter()
            .zip(&ev.scratch.totals)
            .filter(|(_, t)| t.instances > 0)
            .map(|(m, t)| LoopSummary {
                func_name: m.func_name.clone(),
                header: m.header,
                depth: m.depth,
                instances: t.instances,
                parallel_instances: t.parallel_instances,
                iterations: t.iterations,
                serial_cost: t.serial_cost,
                best_cost: t.best_cost,
            })
            .collect(),
    };
    SCRATCH.with(|s| s.set(ev.scratch));
    (report, attribution)
}

impl<'p> Evaluator<'p> {
    fn eval_region(&mut self, rid: RegionId) -> RegionEval {
        let region = self.profile.region(rid);
        match &region.kind {
            RegionKind::Call { .. } => {
                let mut saving = 0u64;
                let mut covered = 0u64;
                for &c in &region.children {
                    if self.plan.has_loop(c) {
                        let ce = self.eval_region(c);
                        saving += ce.serial - ce.best;
                        covered += ce.covered;
                    }
                }
                let serial = region.serial_cost();
                RegionEval {
                    serial,
                    best: serial.saturating_sub(saving),
                    covered,
                }
            }
            RegionKind::Loop(inst) => self.eval_loop(rid, region, inst),
        }
    }

    fn eval_loop(
        &mut self,
        rid: RegionId,
        region: &'p Region,
        inst: &'p LoopInstance,
    ) -> RegionEval {
        let meta = &self.profile.loop_meta[inst.meta];
        let n = inst.timeline.len() as u32;
        let serial_raw = region.serial_cost();

        // Fold children: inner savings shrink the iteration that contained
        // them (multi-level nested parallelism). A leaf has none.
        let base = self.scratch.savings.len();
        let mut child_covered = 0u64;
        let children = if self.plan.loop_below(rid) {
            &region.children[..]
        } else {
            &[]
        };
        for &c in children {
            if !self.plan.has_loop(c) {
                continue;
            }
            let ce = self.eval_region(c);
            let saving = ce.serial - ce.best;
            if n > 0 && saving > 0 {
                let k = self.profile.region(c).parent_iter.min(n - 1);
                self.scratch.savings.push((k, saving));
            }
            child_covered += ce.covered;
        }
        let Scratch {
            savings,
            segments,
            conflicts,
            ..
        } = &mut self.scratch;
        let savings = &mut savings[base..];
        if !savings.is_sorted_by_key(|&(k, _)| k) {
            savings.sort_unstable_by_key(|&(k, _)| k);
        }
        let serial_adj = adjust(inst.timeline.segments(region.end), savings, segments);
        let adj = &segments[..];

        let mut causes = Causes::default();
        let collect = self.attr.is_some();
        let parallel_cost = self.point.loop_cost(
            meta,
            inst,
            adj,
            Lift::NONE,
            collect.then_some(&mut causes),
            conflicts,
        );
        // The modelled parallel cost wins only when it beats the adjusted
        // serial cost; otherwise the loop is marked serial and covers only
        // what its children covered.
        let (best, covered, parallel) = match parallel_cost {
            Some(p) if p < serial_adj => (p, serial_raw, true),
            _ => (serial_adj, child_covered, false),
        };

        if let Some(attr) = self.attr.as_mut() {
            // Ideal: the same model with every liftable limiter removed —
            // pure wave/pipeline scheduling of the adjusted lengths. Each
            // manifested cause is then re-costed with that cause alone
            // lifted; the savings feed the conserved gap allocation.
            let ideal = self
                .point
                .loop_cost(meta, inst, adj, Lift::ALL, None, conflicts)
                .map_or(serial_adj, |c| c.min(serial_adj));
            let gap = best.saturating_sub(ideal);
            let mut contribs: Vec<(LimiterKind, u64)> = Vec::new();
            if gap > 0 {
                for kind in causes.kinds(inst.call_class) {
                    let cf = self.point.loop_cost(
                        meta,
                        inst,
                        adj,
                        Lift::for_kind(kind),
                        None,
                        conflicts,
                    );
                    let cf_best = match cf {
                        Some(p) if p < serial_adj => p,
                        _ => serial_adj,
                    };
                    contribs.push((kind, best.saturating_sub(cf_best)));
                }
            }
            attr.record_instance(
                inst.meta,
                rid.index(),
                serial_raw,
                serial_adj,
                best,
                ideal,
                parallel,
                &contribs,
            );
        }
        self.scratch.savings.truncate(base);
        self.tally(inst, serial_raw, best, parallel);
        RegionEval {
            serial: serial_raw,
            best,
            covered,
        }
    }

    /// Adds one costed instance to its static loop's totals.
    fn tally(&mut self, inst: &LoopInstance, serial_raw: u64, best: u64, parallel: bool) {
        let t = &mut self.scratch.totals[inst.meta];
        t.instances += 1;
        t.parallel_instances += u64::from(parallel);
        t.iterations += inst.iterations() as u64;
        t.serial_cost += serial_raw;
        t.best_cost += best;
    }
}

/// Lists a loop instance's iteration segments in `out` with its
/// children's savings taken off the iterations they started in, and
/// returns their sum, the adjusted serial cost. A saving splits the
/// segment it lands in; neighbours of equal length merge.
///
/// `savings` holds `(iteration, saving)` pairs, ascending by iteration,
/// every iteration below the instance's count.
fn adjust(segments: Segments<'_>, mut savings: &[(u32, u64)], out: &mut Vec<Segment>) -> u64 {
    out.clear();
    let mut serial = 0u64;
    let mut push = |len: u64, count: u32| {
        serial += len * u64::from(count);
        match out.last_mut() {
            Some((last, n)) if *last == len => *n += count,
            _ => out.push((len, count)),
        }
    };
    let mut first = 0u32;
    for (len, count) in segments {
        let end = first + count;
        while let Some(&(k, _)) = savings.first().filter(|&&(k, _)| k < end) {
            if k > first {
                push(len, k - first);
            }
            let mut saving = 0u64;
            while let Some((&(_, s), rest)) = savings.split_first().filter(|(&(j, _), _)| j == k) {
                saving += s;
                savings = rest;
            }
            push(len.saturating_sub(saving), 1);
            first = k + 1;
        }
        if end > first {
            push(len, end - first);
        }
        first = end;
    }
    serial
}

impl Point {
    /// Models the parallel cost of one loop instance over its adjusted
    /// iteration segments, with the causes named in `lift` removed.
    /// [`Lift::NONE`] is the normal evaluation; `causes` (explain mode,
    /// passed only on the un-lifted run) records which limiter causes
    /// manifested. `buf` is scratch for a merged conflict set.
    fn loop_cost(
        &self,
        meta: &LoopMeta,
        inst: &LoopInstance,
        adj: &[Segment],
        lift: Lift,
        causes: Option<&mut Causes>,
        buf: &mut Vec<Range<u32>>,
    ) -> Option<u64> {
        let v = self.verdict(meta, inst, lift, causes);
        let cores = self.options.cores;
        match self.model {
            ExecModel::Doall => {
                let has_conflicts = !lift.mem && !inst.mem_conflict_iters.is_empty();
                doall_cost(adj.iter().copied(), has_conflicts, v.forced, cores)
            }
            ExecModel::PartialDoall if v.forced => None,
            ExecModel::PartialDoall => {
                let conflicts = v.conflicts.ranges(meta, inst, buf);
                pdoall_cost(adj.iter().copied(), conflicts, false, cores)
            }
            ExecModel::Helix => helix_cost(adj.iter().copied(), v.delta, v.forced, cores),
        }
    }

    /// The length-independent part of costing one loop instance: the
    /// `fn` gate, the register-LCD handling, and the HELIX skew.
    fn verdict(
        &self,
        meta: &LoopMeta,
        inst: &LoopInstance,
        lift: Lift,
        mut causes: Option<&mut Causes>,
    ) -> Verdict {
        // fn-flag gate.
        let gated = match self.config.fnm {
            FnMode::Fn0 => inst.call_class > CallClass::NoCalls,
            FnMode::Fn1 => inst.call_class > CallClass::PureCalls,
            FnMode::Fn2 => inst.call_class > CallClass::InstrumentedCalls,
            FnMode::Fn3 => false,
        };
        let mut forced = gated && !lift.fn_gate;
        let single_sync = self.options.doacross_single_sync;
        let mem = !lift.mem && inst.mem_edges > 0;
        if let Some(c) = causes.as_deref_mut() {
            c.call_gate = gated;
            c.mem = match self.model {
                ExecModel::Doall | ExecModel::PartialDoall => !inst.mem_conflict_iters.is_empty(),
                ExecModel::Helix => inst.mem_max_skew > 0 || (single_sync && inst.mem_edges > 0),
            };
        }

        // Register-LCD handling. Under the DOACROSS ablation the loop
        // gets one sync point: track the producer/consumer extremes
        // across all LCD sources instead of per-LCD skews. A register
        // LCD is produced at offset `max_def_rel` and consumed at the
        // next iteration's start (offset 0).
        let mut delta = if lift.mem { 0 } else { inst.mem_max_skew };
        let mut max_producer = if mem { inst.mem_max_producer_rel } else { 0 };
        let mut reg_lcd_synced = false;
        for (idx, (_, class)) in meta.traced_phis.iter().enumerate() {
            let is_reduction = matches!(class, LcdClass::Reduction(_));
            if is_reduction && self.config.reduc == ReducMode::Reduc1 {
                continue; // decoupled by reduction hardware
            }
            if is_reduction && lift.reduction {
                continue; // counterfactual: reduction hardware enabled
            }
            if !is_reduction && lift.reg_lcd {
                continue; // counterfactual: the register LCD vanishes
            }
            // A reduction phi blames its reduction-ness; otherwise a
            // dep2 residual is a prediction problem, and a hard
            // serialization or sync under dep0/dep1 is the LCD itself.
            let blame = |causes: &mut Option<&mut Causes>, predicted: bool| {
                if let Some(c) = causes.as_deref_mut() {
                    if is_reduction {
                        c.reduction = true;
                    } else if predicted {
                        c.value_pred = true;
                    } else {
                        c.reg_lcd = true;
                    }
                }
            };
            let predicted_perfect = lift.value_pred && !is_reduction;
            let lcd = &inst.lcds[idx];
            match (self.model, self.config.dep) {
                // DOALL supports no non-computable register LCDs at all
                // (dep1..dep3 are incompatible with DOALL, §IV).
                (ExecModel::Doall, _) => {
                    forced = true;
                    blame(&mut causes, false);
                }
                // Perfect value prediction removes the LCD entirely.
                (_, DepMode::Dep3) => {}
                (ExecModel::PartialDoall, DepMode::Dep0 | DepMode::Dep1) => {
                    forced = true;
                    blame(&mut causes, false);
                }
                // Mispredicted iterations break the phase; the conflict
                // set below takes them in.
                (ExecModel::PartialDoall, DepMode::Dep2) => {
                    if !lcd.mispredict_iters.is_empty() {
                        blame(&mut causes, true);
                    }
                }
                (ExecModel::Helix, DepMode::Dep0) => {
                    forced = true;
                    blame(&mut causes, false);
                }
                (ExecModel::Helix, DepMode::Dep1) => {
                    delta = delta.max(lcd.max_def_rel);
                    max_producer = max_producer.max(lcd.max_def_rel);
                    reg_lcd_synced = true;
                    blame(&mut causes, false);
                }
                (ExecModel::Helix, DepMode::Dep2) => {
                    // Predicted iterations run free; any mispredicts fall
                    // back to synchronization on this LCD.
                    if !lcd.mispredict_iters.is_empty() {
                        blame(&mut causes, true);
                        if !predicted_perfect {
                            delta = delta.max(lcd.max_def_rel);
                            max_producer = max_producer.max(lcd.max_def_rel);
                            reg_lcd_synced = true;
                        }
                    }
                }
            }
        }

        if single_sync && (mem || reg_lcd_synced) {
            // Register-LCD consumers sit at iteration start (offset 0);
            // memory consumers at their recorded earliest offset.
            let min_consumer = if reg_lcd_synced {
                0
            } else {
                inst.mem_min_consumer_rel
            };
            delta = delta.max(max_producer.saturating_sub(min_consumer));
        }
        // Under PDOALL dep2 every mispredict of an LCD that is neither
        // decoupled nor lifted breaks a phase.
        let dep2 = self.model == ExecModel::PartialDoall && self.config.dep == DepMode::Dep2;
        Verdict {
            forced,
            delta,
            conflicts: ConflictSet {
                mem: !lift.mem,
                reductions: dep2 && self.config.reduc == ReducMode::Reduc0 && !lift.reduction,
                others: dep2 && !lift.reg_lcd && !lift.value_pred,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Config, DepMode, ExecModel, FnMode, ReducMode};
    use crate::tracker::profile_module;
    use lp_analysis::analyze_module;
    use lp_interp::MachineConfig;
    use lp_ir::builder::FunctionBuilder;
    use lp_ir::{Global, IcmpPred, Module, Type};

    fn cfg(reduc: ReducMode, dep: DepMode, fnm: FnMode) -> Config {
        Config::new(reduc, dep, fnm)
    }

    fn profile_of(m: &Module) -> Profile {
        let analysis = analyze_module(m);
        let (p, _) = profile_module(m, &analysis, &[], MachineConfig::default()).unwrap();
        p
    }

    /// DOALL-able loop: disjoint stores, computable IV only.
    fn doall_program(n: i64) -> Module {
        let mut m = Module::new("doall");
        let g = m.add_global(Global::zeroed("a", n as u64 + 1));
        let mut fb = FunctionBuilder::new("main", &[], Type::I64);
        let nn = fb.const_i64(n);
        let zero = fb.const_i64(0);
        let one = fb.const_i64(1);
        let base = fb.global_addr(g);
        let header = fb.create_block("header");
        let body = fb.create_block("body");
        let exit = fb.create_block("exit");
        fb.br(header);
        fb.switch_to(header);
        let i = fb.phi(Type::I64);
        let c = fb.icmp(IcmpPred::Slt, i, nn);
        fb.cond_br(c, body, exit);
        fb.switch_to(body);
        let addr = fb.gep(base, i, 8, 0);
        let v = fb.mul(i, i);
        let v2 = fb.add(v, one);
        let v3 = fb.mul(v2, v2);
        fb.store(v3, addr);
        let i2 = fb.add(i, one);
        fb.add_phi_incoming(i, lp_ir::BlockId::ENTRY, zero);
        fb.add_phi_incoming(i, body, i2);
        fb.br(header);
        fb.switch_to(exit);
        fb.ret(Some(zero));
        m.add_function(fb.finish().unwrap());
        m
    }

    /// Serial pointer-chase-like loop: a non-computable register LCD whose
    /// producer sits early in the iteration, plus filler work after it.
    fn register_lcd_program(n: i64) -> Module {
        let mut m = Module::new("reglcd");
        let g = m.add_global(Global::zeroed("a", 4096));
        let mut fb = FunctionBuilder::new("main", &[], Type::I64);
        let nn = fb.const_i64(n);
        let zero = fb.const_i64(0);
        let one = fb.const_i64(1);
        let mask = fb.const_i64(1023);
        let base = fb.global_addr(g);
        let header = fb.create_block("header");
        let body = fb.create_block("body");
        let exit = fb.create_block("exit");
        fb.br(header);
        fb.switch_to(header);
        let i = fb.phi(Type::I64);
        let x = fb.phi(Type::I64); // non-computable: x' = (x*1103515245+12345) & mask
        let c = fb.icmp(IcmpPred::Slt, i, nn);
        fb.cond_br(c, body, exit);
        fb.switch_to(body);
        let mul = fb.const_i64(1103515245);
        let inc = fb.const_i64(12345);
        let t1 = fb.mul(x, mul);
        let t2 = fb.add(t1, inc);
        let x2 = fb.and(t2, mask); // producer: early in the iteration
                                   // Filler work AFTER the producer (uses x2 address, iteration-local
                                   // stores to disjoint slots).
        let addr = fb.gep(base, i, 8, 0);
        let mut acc = x2;
        for _ in 0..10 {
            acc = fb.mul(acc, mul);
            acc = fb.add(acc, inc);
        }
        fb.store(acc, addr);
        let i2 = fb.add(i, one);
        fb.add_phi_incoming(i, lp_ir::BlockId::ENTRY, zero);
        fb.add_phi_incoming(i, body, i2);
        fb.add_phi_incoming(x, lp_ir::BlockId::ENTRY, one);
        fb.add_phi_incoming(x, body, x2);
        fb.br(header);
        fb.switch_to(exit);
        fb.ret(Some(x));
        m.add_function(fb.finish().unwrap());
        m
    }

    #[test]
    fn doall_program_parallelizes_under_minimum_config() {
        let p = profile_of(&doall_program(200));
        let r = evaluate(
            &p,
            ExecModel::Doall,
            cfg(ReducMode::Reduc0, DepMode::Dep0, FnMode::Fn0),
        );
        assert!(
            r.speedup > 20.0,
            "DOALL loop should approach num_iter speedup, got {}",
            r.speedup
        );
        assert!(r.coverage > 80.0, "coverage {}", r.coverage);
        assert_eq!(r.loops.len(), 1);
        assert_eq!(r.loops[0].parallel_instances, 1);
    }

    #[test]
    fn register_lcd_serializes_doall_but_not_helix_dep1() {
        let p = profile_of(&register_lcd_program(200));
        let doall = evaluate(
            &p,
            ExecModel::Doall,
            cfg(ReducMode::Reduc0, DepMode::Dep0, FnMode::Fn0),
        );
        assert!(
            doall.speedup < 1.01,
            "DOALL must serialize: {}",
            doall.speedup
        );
        let helix0 = evaluate(
            &p,
            ExecModel::Helix,
            cfg(ReducMode::Reduc0, DepMode::Dep0, FnMode::Fn2),
        );
        assert!(
            helix0.speedup < 1.01,
            "HELIX dep0 must serialize: {}",
            helix0.speedup
        );
        let helix1 = evaluate(
            &p,
            ExecModel::Helix,
            cfg(ReducMode::Reduc0, DepMode::Dep1, FnMode::Fn2),
        );
        assert!(
            helix1.speedup > 1.5,
            "HELIX dep1 should overlap the post-producer work: {}",
            helix1.speedup
        );
        // dep3 (perfect prediction) under PDOALL removes the LCD entirely.
        let pd3 = evaluate(
            &p,
            ExecModel::PartialDoall,
            cfg(ReducMode::Reduc0, DepMode::Dep3, FnMode::Fn2),
        );
        assert!(pd3.speedup > helix1.speedup);
    }

    #[test]
    fn monotonicity_across_dep_relaxations_pdoall() {
        let p = profile_of(&register_lcd_program(100));
        let s = |dep| {
            evaluate(
                &p,
                ExecModel::PartialDoall,
                cfg(ReducMode::Reduc0, dep, FnMode::Fn2),
            )
            .speedup
        };
        let s0 = s(DepMode::Dep0);
        let s2 = s(DepMode::Dep2);
        let s3 = s(DepMode::Dep3);
        assert!(s0 <= s2 + 1e-9, "dep0 {s0} <= dep2 {s2}");
        assert!(s2 <= s3 + 1e-9, "dep2 {s2} <= dep3 {s3}");
    }

    #[test]
    fn explained_report_matches_plain_and_conserves_gap() {
        let p = profile_of(&register_lcd_program(120));
        for model in ExecModel::all() {
            for config in Config::all() {
                let plain = evaluate(&p, model, config);
                let (report, attr) = evaluate_explained(&p, model, config);
                assert_eq!(
                    format!("{plain:?}"),
                    format!("{report:?}"),
                    "{model} {config}: explain mode changed the report"
                );
                for l in &attr.loops {
                    assert!(l.ideal_cost <= l.best_cost, "{model} {config}");
                    assert!(l.best_cost <= l.serial_adj, "{model} {config}");
                    assert_eq!(l.gap, l.best_cost - l.ideal_cost);
                    let weight_sum: u64 = l.limiters.iter().map(|x| x.weight).sum();
                    assert_eq!(
                        weight_sum,
                        l.gap,
                        "{model} {config} {}: weights must conserve the gap",
                        l.location()
                    );
                }
            }
        }
    }

    #[test]
    fn serial_register_lcd_loop_names_its_limiter() {
        let p = profile_of(&register_lcd_program(120));
        let (_, attr) = evaluate_explained(
            &p,
            ExecModel::Doall,
            cfg(ReducMode::Reduc0, DepMode::Dep0, FnMode::Fn0),
        );
        let l = attr
            .loops
            .iter()
            .find(|l| l.gap > 0)
            .expect("serialized loop has a gap");
        assert_eq!(l.verdict(), "serial");
        let lim = &l.limiters[0];
        assert_eq!(lim.kind, LimiterKind::RegisterLcd);
        assert!(lim.weight > 0 && lim.savings > 0);
        // Program rollup sees the same dominant limiter.
        assert_eq!(attr.limiters[0].kind, LimiterKind::RegisterLcd);
        // The counterfactual is realized: HELIX dep1 lifts the sync.
        assert!(lim.unlock_factor(l.best_cost) > 1.0);
    }

    #[test]
    fn parallel_doall_loop_has_no_gap() {
        let p = profile_of(&doall_program(100));
        let (_, attr) = evaluate_explained(
            &p,
            ExecModel::Doall,
            cfg(ReducMode::Reduc0, DepMode::Dep0, FnMode::Fn0),
        );
        let l = &attr.loops[0];
        assert_eq!(l.verdict(), "parallel");
        assert_eq!(l.gap, 0, "conflict-free DOALL is already ideal");
        assert!(l.limiters.is_empty());
        // Region verdicts mark the loop region parallel.
        assert!(attr.region_parallel.iter().any(|&b| b));
    }

    #[test]
    fn fn_gate_is_attributed_to_calls() {
        // The metered-fidelity sample shape: a loop calling a callee, so
        // fn0 gates it. Reuse register_lcd_program? It makes no calls —
        // build a tiny caller loop instead.
        use lp_ir::Global;
        let mut m = Module::new("callgate");
        let g = m.add_global(Global::zeroed("a", 256));
        let mut fb = FunctionBuilder::new("leaf", &[Type::I64], Type::I64);
        let a = fb.param(0);
        let one = fb.const_i64(1);
        let r = fb.add(a, one);
        fb.ret(Some(r));
        let leaf = m.add_function(fb.finish().unwrap());
        let mut fb = FunctionBuilder::new("main", &[], Type::I64);
        let nn = fb.const_i64(50);
        let zero = fb.const_i64(0);
        let one = fb.const_i64(1);
        let base = fb.global_addr(g);
        let header = fb.create_block("header");
        let body = fb.create_block("body");
        let exit = fb.create_block("exit");
        fb.br(header);
        fb.switch_to(header);
        let i = fb.phi(Type::I64);
        let c = fb.icmp(IcmpPred::Slt, i, nn);
        fb.cond_br(c, body, exit);
        fb.switch_to(body);
        let v = fb.call(leaf, Type::I64, &[i]);
        let addr = fb.gep(base, i, 8, 0);
        fb.store(v, addr);
        let i2 = fb.add(i, one);
        fb.add_phi_incoming(i, lp_ir::BlockId::ENTRY, zero);
        fb.add_phi_incoming(i, body, i2);
        fb.br(header);
        fb.switch_to(exit);
        fb.ret(Some(zero));
        m.add_function(fb.finish().unwrap());

        let p = profile_of(&m);
        let (_, attr) = evaluate_explained(
            &p,
            ExecModel::Doall,
            cfg(ReducMode::Reduc0, DepMode::Dep0, FnMode::Fn0),
        );
        let l = attr.loops.iter().find(|l| l.gap > 0).expect("gated loop");
        assert!(
            l.limiters
                .iter()
                .any(|lim| matches!(lim.kind, LimiterKind::CallGate(_)) && lim.weight > 0),
            "fn0 gate must be attributed to calls: {:?}",
            l.limiters
        );
        // Under fn3 the gate is gone and so is its limiter.
        let (_, attr3) = evaluate_explained(
            &p,
            ExecModel::Doall,
            cfg(ReducMode::Reduc0, DepMode::Dep0, FnMode::Fn3),
        );
        for l in &attr3.loops {
            assert!(
                !l.limiters
                    .iter()
                    .any(|lim| matches!(lim.kind, LimiterKind::CallGate(_))),
                "fn3 cannot gate: {:?}",
                l.limiters
            );
        }
    }

    #[test]
    fn speedup_never_below_one() {
        let p = profile_of(&register_lcd_program(50));
        for model in ExecModel::all() {
            for config in Config::all() {
                let r = evaluate(&p, model, config);
                assert!(
                    r.speedup >= 0.999,
                    "{model} {config}: speedup {} < 1",
                    r.speedup
                );
                assert!(r.best_cost <= r.total_cost);
                assert!((0.0..=100.0).contains(&r.coverage));
            }
        }
    }
}
