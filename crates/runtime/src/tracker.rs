//! The profiler: Loopapalooza's run-time component.
//!
//! [`Profiler`] implements [`lp_interp::EventSink`] and reconstructs, from
//! the instrumentation call-back stream, everything §III-B needs:
//!
//! - the dynamic region tree (function activations and loop instances)
//!   with iteration start stamps derived from header-block entries;
//! - cross-iteration memory RAW conflicts via per-instance last-writer
//!   conflict tracking, with the cactus-stack filter of §II-E (accesses
//!   to frames created during the current iteration are iteration-local
//!   and cannot conflict);
//! - register-LCD value streams fed through the hybrid value predictor,
//!   recording mispredicted iterations (`dep2`) and maximum producer
//!   offsets (`dep1` HELIX sync deltas);
//! - the worst dynamic call class per loop instance (`fn0..fn3` gate).
//!
//! # Hot-path layout
//!
//! Every load/store event consults last-writer state, and every block
//! entry consults the loop tables — so neither may hash (DESIGN.md §10).
//! Last-writer state lives in **one run-global shadow memory**, a
//! `PageTable<u64>` — the interpreter memory's own page table, with the
//! same directory and geometry — holding for each word the
//! *absolute* time of its last in-loop store (8 bytes a word, `u64::MAX`
//! for never written): a store writes one time no matter how deep the
//! loop nest, a load compares it against each level's instance/iteration
//! start (two compares; iteration numbers are re-derived by binary
//! search only on the rare conflict path), and stale times die by
//! comparison, so loop entry invalidates nothing. The push time of the
//! frame a stack store wrote through — the store side of the
//! cactus-stack filter — sits in a second `PageTable<u64>` written only
//! for stack-region stores with the cactus stack on and read only on the
//! conflict path, so non-stack words pay nothing for it. The
//! per-`(func, value)` / per-`(func, block)` side tables are interned
//! into dense vectors indexed directly by ids, with `u32::MAX` as the
//! "not tracked" sentinel.

use crate::iters::IterSet;
use crate::profile::{
    CallClass, LcdInstance, LoopInstance, LoopMeta, Profile, Region, RegionId, RegionKind,
};
use crate::witness::{WitnessReport, WitnessState};
use lp_analysis::{LcdClass, LoopId, ModuleAnalysis, Purity};
use lp_interp::{
    EventCounts, EventSink, Exec, ExecUnit, MachineConfig, MeteredSink, PageTable, RunResult,
    Value, STACK_BASE,
};
use lp_ir::{BlockId, Builtin, FuncId, Inst, Module, ValueId, ValueKind};
use lp_obs::{span, Counter, Hist, Histogram, PredictorKind};
use lp_predict::HybridPredictor;
use std::ops::Range;

/// Sentinel for "no entry" in the dense interning tables.
const NONE: u32 = u32::MAX;

/// Shadow value of a word no loop has stored to: always time-excluded,
/// since real store times satisfy `t <= now`.
const NEVER_WRITTEN: u64 = u64::MAX;

/// An actively executing loop instance. Last-writer state lives in the
/// run-global shadow [`PageTable`]s; this holds the per-level iteration
/// stamps and the [`LoopInstance`] being recorded, which moves into the
/// region tree when the loop exits.
#[derive(Debug)]
struct ActiveLoop {
    region: RegionId,
    func: u32,
    loop_id: u32,
    frame_depth: u32,
    cur_iter: u32,
    /// Start stamp of the instance (of its iteration 0).
    start: u64,
    iter_start: u64,
    /// The record so far; `inst.meta` indexes [`Profiler::loop_meta`]
    /// (and `loop_blocks`).
    inst: LoopInstance,
}

#[derive(Debug, Clone, Copy)]
struct FrameRec {
    base: u64,
    push_cost: u64,
}

/// Synthetic address standing in for the architectural stack pointer when
/// the cactus-stack assumption is disabled (kept out of the stack region
/// so the frame filter never hides it).
const SP_HAZARD_ADDR: u64 = crate::profile_sp_hazard_addr();

/// Profiler behaviour knobs (ablations).
#[derive(Debug, Clone, Copy)]
pub struct ProfilerOptions {
    /// Apply the cactus-stack filter of §II-E: accesses to frames created
    /// during the current iteration are iteration-local and generate no
    /// conflicts. Disabling it models a conventional sequential call
    /// stack, where reused frame addresses serialize loops with calls.
    pub cactus_stack: bool,
}

impl Default for ProfilerOptions {
    fn default() -> ProfilerOptions {
        ProfilerOptions { cactus_stack: true }
    }
}

/// The run-time component: consumes interpreter events, produces a
/// [`Profile`].
#[derive(Debug)]
pub struct Profiler<'a> {
    analysis: &'a ModuleAnalysis,
    program: String,
    /// Per function, per block: the loop id this block heads, or [`NONE`].
    header_loop: Vec<Vec<u32>>,
    /// Per function, per value: index into `traced_slots`, or [`NONE`].
    traced: Vec<Vec<u32>>,
    /// `(loop id, traced-lcd index)` per traced phi; parallel to
    /// `predictors`.
    traced_slots: Vec<(u32, u32)>,
    /// Per function, per value: index into `watch_lists`, or [`NONE`].
    watched: Vec<Vec<u32>>,
    /// The traced LCDs each watched latch value feeds.
    watch_lists: Vec<Vec<(u32, u32)>>,
    /// Per function, per loop id: index into `loop_meta`, or [`NONE`].
    meta_of: Vec<Vec<u32>>,
    /// Per meta index, per block: loop membership bitmap.
    loop_blocks: Vec<Vec<bool>>,
    /// Per meta index: the `predictors` slots whose FCM tables an
    /// instance's close frees, because the loop is final
    /// ([`ModuleAnalysis::loop_is_final`]); empty for every other loop.
    retire_on_close: Vec<Range<usize>>,
    loop_meta: Vec<LoopMeta>,
    // Dynamic state.
    now: u64,
    regions: Vec<Region>,
    region_stack: Vec<RegionId>,
    loop_stack: Vec<ActiveLoop>,
    /// Run-global last-writer shadow memory, shared by all loop levels:
    /// the absolute time of each word's latest in-loop store, or
    /// [`NEVER_WRITTEN`]. One table serves every active level because the
    /// time is absolute: each level decides by comparing against its own
    /// instance and iteration start stamps whether the store is a
    /// cross-iteration producer, so no per-level state and no
    /// invalidation are needed.
    shadow: PageTable<u64>,
    /// Push time of the frame each stack word's latest in-loop store
    /// wrote through (0: no frame owns the word). Written only for
    /// stack-region stores while the cactus stack is on, and read only
    /// by [`Profiler::conflict_scan`], so its pages are a subset of
    /// `shadow`'s and the common paths never touch it.
    stack_push: PageTable<u64>,
    /// Optional independence-witness engine (replay certification);
    /// boxed to keep the common no-witness profiler lean.
    witness: Option<Box<WitnessState>>,
    frames: Vec<FrameRec>,
    call_depth: u32,
    /// One predictor per traced phi, parallel to `traced_slots`.
    predictors: Vec<HybridPredictor>,
    options: ProfilerOptions,
    cactus_filter_hits: u64,
    /// Function names by [`FuncId`] (for the collapsed-stack export).
    func_names: Vec<String>,
    /// Iteration distance of each cross-iteration RAW edge, accumulated
    /// lock-free here and merged into the global registry at flush.
    conflict_dists: Histogram,
}

impl<'a> Profiler<'a> {
    /// Prepares the profiler for `module` using its compile-time analysis.
    /// A profiler observes one run: it frees the predictor tables of a
    /// loop that the run can never enter again.
    #[must_use]
    pub fn new(module: &Module, analysis: &'a ModuleAnalysis) -> Profiler<'a> {
        Profiler::with_options(module, analysis, ProfilerOptions::default())
    }

    /// As [`Profiler::new`] with explicit behaviour knobs.
    #[must_use]
    pub fn with_options(
        module: &Module,
        analysis: &'a ModuleAnalysis,
        options: ProfilerOptions,
    ) -> Profiler<'a> {
        let n_funcs = module.iter_functions().count();
        let mut header_loop: Vec<Vec<u32>> = vec![Vec::new(); n_funcs];
        let mut traced: Vec<Vec<u32>> = vec![Vec::new(); n_funcs];
        let mut watched: Vec<Vec<u32>> = vec![Vec::new(); n_funcs];
        let mut meta_of: Vec<Vec<u32>> = vec![Vec::new(); n_funcs];
        let mut traced_slots: Vec<(u32, u32)> = Vec::new();
        let mut watch_lists: Vec<Vec<(u32, u32)>> = Vec::new();
        let mut loop_blocks: Vec<Vec<bool>> = Vec::new();
        let mut retire_on_close: Vec<Range<usize>> = Vec::new();
        let mut loop_meta = Vec::new();

        for (fid, func) in module.iter_functions() {
            let fa = analysis.function(fid);
            let fi = fid.index();
            if fa.lcds.is_empty() {
                continue;
            }
            header_loop[fi] = vec![NONE; func.blocks.len()];
            meta_of[fi] = vec![NONE; fa.lcds.len()];
            for (lid, lp) in fa.loops.iter() {
                header_loop[fi][lp.header.index()] = lid.0;
                let lcds = &fa.lcds[lid.index()];
                let traced_phis: Vec<(ValueId, LcdClass)> = lcds
                    .phis
                    .iter()
                    .filter(|(_, c)| !c.is_computable())
                    .map(|&(v, c)| (v, c))
                    .collect();
                let computable = lcds.phis.len() - traced_phis.len();
                let meta_idx = loop_meta.len();
                meta_of[fi][lid.index()] = meta_idx as u32;
                let mut membership = vec![false; func.blocks.len()];
                for &b in &lp.blocks {
                    membership[b.index()] = true;
                }
                loop_blocks.push(membership);
                let first_slot = traced_slots.len();
                // Register traced phis and their latch producers.
                if lp.latches.len() == 1 {
                    let latch = lp.latches[0];
                    for (idx, (phi, _)) in traced_phis.iter().enumerate() {
                        if traced[fi].is_empty() {
                            traced[fi] = vec![NONE; func.values.len()];
                        }
                        traced[fi][phi.index()] = traced_slots.len() as u32;
                        traced_slots.push((lid.0, idx as u32));
                        if let ValueKind::Inst(iid) = func.value(*phi) {
                            if let Inst::Phi { incomings, .. } = &func.inst(*iid).inst {
                                if let Some((_, update)) =
                                    incomings.iter().find(|(b, _)| *b == latch)
                                {
                                    // Only instruction results have def
                                    // events; invariant updates produce at
                                    // offset 0 anyway.
                                    if matches!(func.value(*update), ValueKind::Inst(_)) {
                                        if watched[fi].is_empty() {
                                            watched[fi] = vec![NONE; func.values.len()];
                                        }
                                        let slot = watched[fi][update.index()];
                                        if slot == NONE {
                                            watched[fi][update.index()] = watch_lists.len() as u32;
                                            watch_lists.push(vec![(lid.0, idx as u32)]);
                                        } else {
                                            watch_lists[slot as usize].push((lid.0, idx as u32));
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
                retire_on_close.push(if analysis.loop_is_final(module, fid, lid) {
                    first_slot..traced_slots.len()
                } else {
                    0..0
                });
                loop_meta.push(LoopMeta {
                    func: fid,
                    loop_id: lid,
                    func_name: func.name.clone(),
                    header: lp.header,
                    depth: lp.depth,
                    traced_phis,
                    computable_phis: computable as u32,
                });
            }
        }

        let predictors = std::iter::repeat_with(HybridPredictor::default)
            .take(traced_slots.len())
            .collect();

        Profiler {
            analysis,
            program: module.name.clone(),
            func_names: module
                .iter_functions()
                .map(|(_, f)| f.name.clone())
                .collect(),
            conflict_dists: Histogram::default(),
            header_loop,
            traced,
            traced_slots,
            watched,
            watch_lists,
            meta_of,
            loop_blocks,
            retire_on_close,
            loop_meta,
            now: 0,
            regions: Vec::new(),
            region_stack: Vec::new(),
            loop_stack: Vec::new(),
            shadow: PageTable::new(NEVER_WRITTEN),
            stack_push: PageTable::new(0),
            witness: None,
            frames: Vec::new(),
            call_depth: 0,
            predictors,
            options,
            cactus_filter_hits: 0,
        }
    }

    /// Arms the independence-witness engine for `targets`.
    pub fn enable_witness(&mut self, targets: &[(FuncId, LoopId)]) {
        self.witness = Some(Box::new(WitnessState::new(targets)));
    }

    /// The `(func, value)` pairs the machine must report definitions for.
    #[must_use]
    pub fn watched_values(&self) -> Vec<(FuncId, ValueId)> {
        let mut out = Vec::new();
        for (f, row) in self.watched.iter().enumerate() {
            for (v, &slot) in row.iter().enumerate() {
                if slot != NONE {
                    out.push((FuncId(f as u32), ValueId(v as u32)));
                }
            }
        }
        out
    }

    fn push_region(&mut self, kind: RegionKind) -> RegionId {
        let parent = self.region_stack.last().copied();
        let parent_iter = match (parent, self.loop_stack.last()) {
            (Some(p), Some(al)) if al.region == p => al.cur_iter,
            _ => 0,
        };
        let rid = RegionId(self.regions.len() as u32);
        self.regions.push(Region {
            parent,
            parent_iter,
            start: self.now,
            end: self.now,
            kind,
            children: Vec::new(),
        });
        if let Some(p) = parent {
            self.regions[p.index()].children.push(rid);
        }
        self.region_stack.push(rid);
        rid
    }

    fn close_top_loop(&mut self, stamp: u64) {
        let al = self.loop_stack.pop().expect("active loop to close");
        if let Some(wit) = self.witness.as_deref_mut() {
            wit.deactivate(self.loop_stack.len(), al.cur_iter);
        }
        let rid = self
            .region_stack
            .pop()
            .expect("loop region on region stack");
        debug_assert_eq!(rid, al.region, "region stack out of sync");
        // No phi of a final loop resolves again, so nothing will read
        // its FCM tables.
        for pred in &mut self.predictors[self.retire_on_close[al.inst.meta].clone()] {
            pred.retire();
        }
        let region = &mut self.regions[rid.index()];
        region.end = stamp;
        region.kind = RegionKind::Loop(Box::new(al.inst));
    }

    fn bump_call_class(&mut self, class: CallClass) {
        for al in &mut self.loop_stack {
            if class > al.inst.call_class {
                al.inst.call_class = class;
            }
        }
    }

    /// The push time of the stack frame owning `addr` (0 for non-stack
    /// addresses or when the cactus-stack assumption is off). Frames have
    /// strictly increasing bases, so the owner is the last frame with
    /// `base <= addr`.
    fn owner_frame_push(&self, addr: u64) -> u64 {
        if !self.options.cactus_stack || addr < STACK_BASE {
            return 0;
        }
        let i = self.frames.partition_point(|fr| fr.base <= addr);
        if i == 0 {
            0
        } else {
            self.frames[i - 1].push_cost
        }
    }

    /// Feeds one access to every active witness instance, applying the
    /// cactus-stack (iteration-local frame) rule per level.
    fn witness_access(&mut self, addr: u64, is_store: bool) {
        let push = self.owner_frame_push(addr);
        let Some(wit) = self.witness.as_deref_mut() else {
            return;
        };
        for aw in wit.active_mut() {
            let al = &self.loop_stack[aw.depth()];
            if push > 0 && push >= al.iter_start {
                aw.note_exempt();
                continue;
            }
            aw.observe(addr, al.cur_iter, is_store);
        }
    }

    fn track_access(&mut self, addr: u64, is_store: bool, now: u64) {
        self.now = self.now.max(now);
        if self.witness.as_ref().is_some_and(|w| w.any_active()) {
            self.witness_access(addr, is_store);
        }
        if is_store {
            // A store with no loop active can never become a
            // cross-iteration producer: every later instance's first
            // iteration starts after it, so the `w < start`
            // exclusion would always discard its time, and an unwritten
            // word takes the same fast path. Skipping the write avoids
            // paging in shadow memory for init-phase stores.
            if self.loop_stack.is_empty() {
                return;
            }
            // One store time serves every loop level: each level
            // re-derives iteration numbers from the absolute time on the
            // (rare) conflict path.
            self.shadow.set(addr, now);
            if self.options.cactus_stack && addr >= STACK_BASE {
                let push = self.owner_frame_push(addr);
                self.stack_push.set(addr, push);
            }
            return;
        }
        let Some(top) = self.loop_stack.last() else {
            return;
        };
        let w = self.shadow.get(addr);
        // Fast path: last written during the innermost loop's current
        // iteration (or never — `NEVER_WRITTEN` is `u64::MAX`). Inner
        // iteration starts bound all outer ones, so no level conflicts.
        if w >= top.iter_start {
            return;
        }
        // Second fast path: a store from before the *outermost* active
        // instance began is excluded at every level by `conflict_scan`'s
        // first test (before any tally), so the whole walk is a no-op.
        // Init-phase producers — arrays filled by an earlier loop — land
        // here on every load of the consuming loop nest.
        if w < self.loop_stack[0].start {
            return;
        }
        self.conflict_scan(addr, w, now);
    }

    /// The load slow path: walks every active loop level and records
    /// the cross-iteration RAW conflicts that the store at time `w`
    /// produces for the load of `addr` at `now`. Only reached when the
    /// last store predates the innermost current iteration — rare by
    /// construction.
    #[cold]
    fn conflict_scan(&mut self, addr: u64, w: u64, now: u64) {
        let load_push = self.owner_frame_push(addr);
        // The writer's frame push time; `stack_push` holds nothing
        // outside the stack region (or with the cactus stack off), where
        // it reads 0 as `owner_frame_push` would have.
        let w_push = if addr >= STACK_BASE {
            self.stack_push.get(addr)
        } else {
            0
        };
        for al in &mut self.loop_stack {
            // Store from before this instance began: not a producer here.
            // (This is what makes stale store times harmless without any
            // per-instance invalidation.)
            if w < al.start || w >= al.iter_start {
                continue;
            }
            // Cactus-stack filter, paper §II-E: a frame created during
            // this level's current iteration is iteration-local — both
            // the consumer's frame (checked against the load) and the
            // producer's frame (checked against the store's own
            // iteration) generate no cross-iteration conflict.
            if load_push > 0 && load_push >= al.iter_start {
                self.cactus_filter_hits += 1;
                continue;
            }
            // 0-based iteration containing the store: a binary search over
            // this level's runs of equal-length iterations, then one
            // division inside the run.
            let (w_iter, w_iter_start) = al
                .inst
                .timeline
                .iteration_of(w)
                .expect("the store falls inside this instance");
            if w_push > 0 && w_push >= w_iter_start {
                self.cactus_filter_hits += 1;
                continue;
            }
            let inst = &mut al.inst;
            inst.mem_conflict_iters.insert(al.cur_iter);
            inst.mem_edges += 1;
            let rel = now.saturating_sub(al.iter_start);
            let w_rel = w - w_iter_start;
            let span = u64::from(al.cur_iter - w_iter);
            self.conflict_dists.record(span);
            let skew = w_rel.saturating_sub(rel) / span;
            if skew > inst.mem_max_skew {
                inst.mem_max_skew = skew;
            }
            inst.mem_max_producer_rel = inst.mem_max_producer_rel.max(w_rel);
            inst.mem_min_consumer_rel = inst.mem_min_consumer_rel.min(rel);
        }
    }

    /// Publishes this run's tallies into the process-wide [`lp_obs`]
    /// counter bank: regions/loops built, RAW conflict edges, cactus-stack
    /// filter hits, per-iteration-count histogram samples, per-kind
    /// value-predictor hit/miss totals, and the footprint of the growing
    /// tables (shadow, stack-push and witness pages, FCM entries in all,
    /// in the largest table and in the tables final loops freed,
    /// timeline runs).
    fn flush_counters(&self) {
        let c = lp_obs::counters();
        c.add(Counter::RegionsCreated, self.regions.len() as u64);
        let mut edges = 0u64;
        let mut loops = 0u64;
        let mut runs = 0u64;
        for r in &self.regions {
            if let RegionKind::Loop(inst) = &r.kind {
                loops += 1;
                edges += inst.mem_edges;
                runs += inst.timeline.runs() as u64;
                lp_obs::record_hist(Hist::LoopIterations, inst.iterations() as u64);
            }
        }
        c.add(Counter::LoopInstances, loops);
        c.add(Counter::TimelineRuns, runs);
        c.add(Counter::RawConflicts, edges);
        c.add(Counter::CactusFilterHits, self.cactus_filter_hits);
        c.add(Counter::ShadowPages, self.shadow.pages());
        c.add(Counter::StackPushPages, self.stack_push.pages());
        if let Some(wit) = &self.witness {
            c.add(Counter::WitnessPages, wit.pages());
        }
        lp_obs::merge_hist(Hist::ConflictDistance, &self.conflict_dists);
        let components = [
            PredictorKind::LastValue,
            PredictorKind::Stride,
            PredictorKind::TwoDeltaStride,
            PredictorKind::Fcm,
        ];
        for pred in &self.predictors {
            c.add(Counter::FcmEntries, pred.fcm_entries() as u64);
            c.max(Counter::FcmEntriesMax, pred.fcm_entries() as u64);
            c.add(
                Counter::FcmEntriesRetired,
                pred.fcm_entries_retired() as u64,
            );
            let s = pred.stats();
            c.add(Counter::PredictorHit(PredictorKind::Hybrid), s.correct);
            c.add(
                Counter::PredictorMiss(PredictorKind::Hybrid),
                s.observed - s.correct,
            );
            for (kind, cs) in components.iter().zip(pred.component_stats()) {
                c.add(Counter::PredictorHit(*kind), cs.correct);
                c.add(Counter::PredictorMiss(*kind), cs.observed - cs.correct);
            }
        }
    }

    /// As [`Profiler::finish`], additionally returning the gathered
    /// independence witnesses (empty report when
    /// [`Profiler::enable_witness`] was never called).
    #[must_use]
    pub fn finish_with_witness(self) -> (Profile, WitnessReport) {
        let (profile, witness) = self.close();
        let report = witness.map_or_else(WitnessReport::default, |w| w.into_report());
        (profile, report)
    }

    /// Finalizes the profile. Call after the machine run completes.
    ///
    /// # Panics
    /// Panics if regions are still open (the run did not complete).
    #[must_use]
    pub fn finish(self) -> Profile {
        self.close().0
    }

    /// Closes every open region, publishes the run's counters and
    /// splits off the witness engine, whose instances closing the loops
    /// has finalized.
    fn close(mut self) -> (Profile, Option<Box<WitnessState>>) {
        // A trapped/aborted run may leave regions open; close them at the
        // final stamp so partial profiles remain well-formed.
        let stamp = self.now;
        while !self.loop_stack.is_empty() {
            self.close_top_loop(stamp);
        }
        while let Some(rid) = self.region_stack.pop() {
            self.regions[rid.index()].end = stamp;
        }
        self.flush_counters();
        let profile = Profile::new(
            self.program,
            self.now,
            self.regions,
            self.loop_meta,
            self.func_names,
        );
        (profile, self.witness)
    }
}

impl EventSink for Profiler<'_> {
    fn block_entered(&mut self, func: FuncId, block: BlockId, _cost: u64, now: u64) {
        let stamp = now;
        self.now = self.now.max(now);
        // Close loops (of this frame) the control flow has left.
        while let Some(top) = self.loop_stack.last() {
            if top.frame_depth != self.call_depth || top.func != func.0 {
                break;
            }
            if self.loop_blocks[top.inst.meta][block.index()] {
                break;
            }
            self.close_top_loop(stamp);
        }
        // Header entry: new iteration of the top instance, or a new
        // instance.
        let lid = self.header_loop[func.index()]
            .get(block.index())
            .copied()
            .unwrap_or(NONE);
        if lid != NONE {
            let is_top = self.loop_stack.last().is_some_and(|t| {
                t.frame_depth == self.call_depth && t.func == func.0 && t.loop_id == lid
            });
            if is_top {
                let t = self.loop_stack.last_mut().expect("checked above");
                t.cur_iter += 1;
                t.iter_start = stamp;
                t.inst.timeline.push(stamp);
            } else {
                let meta = self.meta_of[func.index()][lid as usize] as usize;
                let n_lcds = self.loop_meta[meta].traced_phis.len();
                // The instance stays in its `ActiveLoop` until the loop
                // closes; until then its region carries the enclosing
                // function as a stand-in kind.
                let region = self.push_region(RegionKind::Call { func });
                self.regions[region.index()].start = stamp;
                self.loop_stack.push(ActiveLoop {
                    region,
                    func: func.0,
                    loop_id: lid,
                    frame_depth: self.call_depth,
                    cur_iter: 0,
                    start: stamp,
                    iter_start: stamp,
                    inst: LoopInstance {
                        meta,
                        timeline: std::iter::once(stamp).collect(),
                        mem_conflict_iters: IterSet::default(),
                        mem_max_skew: 0,
                        mem_max_producer_rel: 0,
                        mem_min_consumer_rel: u64::MAX,
                        mem_edges: 0,
                        lcds: vec![LcdInstance::default(); n_lcds],
                        call_class: CallClass::NoCalls,
                    },
                });
                if let Some(wit) = self.witness.as_deref_mut() {
                    if wit.is_target(func.0, lid) {
                        wit.activate(self.loop_stack.len() - 1, func.0, lid);
                    }
                }
            }
        }
    }

    fn phi_resolved(
        &mut self,
        func: FuncId,
        _block: BlockId,
        phi: ValueId,
        value: Value,
        _now: u64,
    ) {
        let slot = self.traced[func.index()]
            .get(phi.index())
            .copied()
            .unwrap_or(NONE);
        if slot == NONE {
            return;
        }
        let (lid, idx) = self.traced_slots[slot as usize];
        if let Some(al) = self
            .loop_stack
            .iter_mut()
            .rev()
            .find(|a| a.func == func.0 && a.loop_id == lid)
        {
            let pred = &mut self.predictors[slot as usize];
            let hit = pred.observe(value.fingerprint());
            let lcd = &mut al.inst.lcds[idx as usize];
            lcd.observed += 1;
            if hit {
                lcd.predicted += 1;
            } else if al.cur_iter >= 1 {
                // Iteration 0 consumes the loop-invariant initial
                // value — not a cross-iteration dependency.
                lcd.mispredict_iters.insert(al.cur_iter);
            }
        }
    }

    fn load(&mut self, addr: u64, now: u64) {
        self.track_access(addr, false, now);
    }

    fn store(&mut self, addr: u64, now: u64) {
        self.track_access(addr, true, now);
    }

    fn func_entered(&mut self, func: FuncId, frame_base: u64, now: u64) {
        self.now = self.now.max(now);
        if !self.options.cactus_stack && !self.loop_stack.is_empty() {
            // Conventional sequential stack: the stack-pointer update is
            // a read-modify-write in strict program order (paper §II-E) —
            // a frequent memory LCD for every loop containing calls.
            self.track_access(SP_HAZARD_ADDR, false, now);
            self.track_access(SP_HAZARD_ADDR, true, now);
        }
        if !self.loop_stack.is_empty() {
            let class = match self.analysis.callgraph.purity(func) {
                Purity::Pure => CallClass::PureCalls,
                Purity::Impure => CallClass::InstrumentedCalls,
            };
            self.bump_call_class(class);
        }
        self.call_depth += 1;
        self.frames.push(FrameRec {
            base: frame_base,
            push_cost: now,
        });
        self.push_region(RegionKind::Call { func });
    }

    fn func_exited(&mut self, _func: FuncId, now: u64) {
        self.now = self.now.max(now);
        let stamp = now;
        while self
            .loop_stack
            .last()
            .is_some_and(|t| t.frame_depth == self.call_depth)
        {
            self.close_top_loop(stamp);
        }
        let rid = self.region_stack.pop().expect("call region to close");
        self.regions[rid.index()].end = stamp;
        self.frames.pop();
        self.call_depth -= 1;
    }

    fn builtin_called(&mut self, _caller: FuncId, builtin: Builtin, _now: u64) {
        let class = if builtin.is_pure() {
            CallClass::PureCalls
        } else if builtin.is_thread_safe() {
            CallClass::InstrumentedCalls
        } else {
            CallClass::UnsafeCalls
        };
        self.bump_call_class(class);
    }

    fn value_defined(&mut self, func: FuncId, value: ValueId, _val: Value, now: u64) {
        self.now = self.now.max(now);
        let slot = self.watched[func.index()]
            .get(value.index())
            .copied()
            .unwrap_or(NONE);
        if slot == NONE {
            return;
        }
        for k in 0..self.watch_lists[slot as usize].len() {
            let (lid, idx) = self.watch_lists[slot as usize][k];
            if let Some(al) = self
                .loop_stack
                .iter_mut()
                .rev()
                .find(|a| a.func == func.0 && a.loop_id == lid)
            {
                let rel = now.saturating_sub(al.iter_start);
                let lcd = &mut al.inst.lcds[idx as usize];
                if rel > lcd.max_def_rel {
                    lcd.max_def_rel = rel;
                }
            }
        }
    }
}

/// Runs `module` under the profiler and returns the profile plus the raw
/// run result.
///
/// # Errors
/// Propagates interpreter traps ([`lp_interp::InterpError`]).
pub fn profile_module(
    module: &Module,
    analysis: &ModuleAnalysis,
    args: &[Value],
    machine_config: MachineConfig,
) -> Result<(Profile, RunResult), lp_interp::InterpError> {
    profile_module_with(
        module,
        analysis,
        args,
        machine_config,
        ProfilerOptions::default(),
    )
}

/// As [`profile_module`] with explicit profiler knobs (ablations).
///
/// # Errors
/// Propagates interpreter traps.
pub fn profile_module_with(
    module: &Module,
    analysis: &ModuleAnalysis,
    args: &[Value],
    mut machine_config: MachineConfig,
    options: ProfilerOptions,
) -> Result<(Profile, RunResult), lp_interp::InterpError> {
    let _span = span!("profile");
    let t0 = lp_obs::registry().now_ns();
    let mut profiler = Profiler::with_options(module, analysis, options);
    machine_config.watched_values = profiler.watched_values();
    let mut metered = MeteredSink::new(&mut profiler);
    // The engine comes in through the machine config: one `ExecUnit`
    // compiled here serves the whole profiling run.
    let unit = ExecUnit::with_engine(module, machine_config.engine);
    let result = Exec::new(&unit)
        .sink(&mut metered)
        .config(machine_config)
        .run(args)
        .map(|out| out.result);
    record_profiling_run(metered.counts(), t0);
    let result = result?;
    Ok((profiler.finish(), result))
}

/// Publishes one instrumented run's event tallies (from its
/// [`MeteredSink`]), counts it in `profiles_taken`, and records its wall
/// time since `t0` (registry nanoseconds) as a `profile_nanos` sample.
/// Every profiling path calls this once per run, trapped or not, so the
/// event-kind and profile-time audit laws cover it.
pub(crate) fn record_profiling_run(counts: EventCounts, t0: u64) {
    let c = lp_obs::counters();
    c.add(Counter::EventsConsumed, counts.total());
    c.add(Counter::BlocksEntered, counts.blocks);
    c.add(Counter::PhisResolved, counts.phis);
    c.add(Counter::Loads, counts.loads);
    c.add(Counter::Stores, counts.stores);
    c.add(Counter::FuncsEntered, counts.funcs);
    c.add(Counter::BuiltinCalls, counts.builtins);
    c.add(Counter::ValueDefs, counts.defs);
    c.add(Counter::ProfilesTaken, 1);
    let now = lp_obs::registry().now_ns();
    lp_obs::record_hist(Hist::ProfileNanos, now.saturating_sub(t0));
}

#[cfg(test)]
mod tests {
    use super::*;
    use lp_analysis::analyze_module;
    use lp_interp::Engine;
    use lp_ir::builder::FunctionBuilder;
    use lp_ir::{Global, IcmpPred, Module, Type};

    fn profile(m: &Module, args: &[Value]) -> Profile {
        let analysis = analyze_module(m);
        let (p, _) = profile_module(m, &analysis, args, MachineConfig::default()).unwrap();
        p
    }

    /// Independent-iteration array sum into distinct slots (DOALL-able,
    /// modulo the reduction).
    fn doall_module(n: i64) -> Module {
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
        fb.store(v, addr);
        let i2 = fb.add(i, one);
        fb.add_phi_incoming(i, lp_ir::BlockId::ENTRY, zero);
        fb.add_phi_incoming(i, body, i2);
        fb.br(header);
        fb.switch_to(exit);
        fb.ret(Some(zero));
        m.add_function(fb.finish().unwrap());
        m
    }

    /// Loop carrying a RAW through one memory cell (frequent memory LCD).
    fn serial_mem_module(n: i64) -> Module {
        let mut m = Module::new("serial_mem");
        let g = m.add_global(Global::zeroed("cell", 1));
        let mut fb = FunctionBuilder::new("main", &[], Type::I64);
        let nn = fb.const_i64(n);
        let zero = fb.const_i64(0);
        let one = fb.const_i64(1);
        let cell = fb.global_addr(g);
        let header = fb.create_block("header");
        let body = fb.create_block("body");
        let exit = fb.create_block("exit");
        fb.br(header);
        fb.switch_to(header);
        let i = fb.phi(Type::I64);
        let c = fb.icmp(IcmpPred::Slt, i, nn);
        fb.cond_br(c, body, exit);
        fb.switch_to(body);
        let v = fb.load(Type::I64, cell);
        let v2 = fb.add(v, one);
        fb.store(v2, cell);
        let i2 = fb.add(i, one);
        fb.add_phi_incoming(i, lp_ir::BlockId::ENTRY, zero);
        fb.add_phi_incoming(i, body, i2);
        fb.br(header);
        fb.switch_to(exit);
        let r = fb.load(Type::I64, cell);
        fb.ret(Some(r));
        m.add_function(fb.finish().unwrap());
        m
    }

    #[test]
    fn doall_loop_has_no_conflicts() {
        let m = doall_module(50);
        let p = profile(&m, &[]);
        let instances: Vec<_> = p.loop_instances().collect();
        assert_eq!(instances.len(), 1);
        let (_, region, inst) = instances[0];
        // 50 body iterations + the exiting header check.
        assert_eq!(inst.iterations(), 51);
        assert!(inst.mem_conflict_iters.is_empty());
        assert_eq!(inst.call_class, CallClass::NoCalls);
        assert!(region.serial_cost() > 0);
        // Only the computable counter phi: nothing traced.
        assert!(p.loop_meta[inst.meta].traced_phis.is_empty());
        assert_eq!(p.loop_meta[inst.meta].computable_phis, 1);
    }

    #[test]
    fn memory_lcd_detected_every_iteration() {
        let m = serial_mem_module(40);
        let p = profile(&m, &[]);
        let (_, _, inst) = p.loop_instances().next().unwrap();
        // Every iteration from 1 loads what iteration k-1 stored.
        assert_eq!(inst.mem_conflict_iters.len(), 39);
        assert_eq!(inst.mem_conflict_iters.iter().next(), Some(1));
        assert!(inst.mem_edges >= 39);
    }

    #[test]
    fn conflict_distances_and_func_names_are_captured() {
        let before = lp_obs::registry().hist(Hist::ConflictDistance).count;
        let m = serial_mem_module(40);
        let p = profile(&m, &[]);
        assert_eq!(p.func_names, vec!["main".to_string()]);
        // Every iteration 1..40 consumes the previous store: 39 edges at
        // iteration distance 1 merged into the global histogram. Other
        // tests in this binary may add samples too, so bound from below.
        let after = lp_obs::registry().hist(Hist::ConflictDistance).count;
        assert!(after >= before + 39, "before={before} after={after}");
    }

    #[test]
    fn stores_outside_loops_never_reach_the_shadow() {
        // A store made while no loop is active can never be a
        // cross-iteration producer, so the profiler skips it: the
        // init-then-scan kernel fills interpreter memory with stores
        // before its loop, and its loop only loads, so the shadow stays
        // empty.
        let n = 64i64;
        let mut m = Module::new("init_then_scan");
        let g = m.add_global(Global::zeroed("a", n as u64));
        let mut fb = FunctionBuilder::new("main", &[], Type::I64);
        let nn = fb.const_i64(n);
        let zero = fb.const_i64(0);
        let one = fb.const_i64(1);
        let base = fb.global_addr(g);
        // Init phase: straight-line stores before any loop begins.
        for k in 0..n {
            let kk = fb.const_i64(k);
            let addr = fb.gep(base, kk, 8, 0);
            fb.store(kk, addr);
        }
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
        fb.load(Type::I64, addr);
        let i2 = fb.add(i, one);
        fb.add_phi_incoming(i, lp_ir::BlockId::ENTRY, zero);
        fb.add_phi_incoming(i, body, i2);
        fb.br(header);
        fb.switch_to(exit);
        fb.ret(Some(zero));
        m.add_function(fb.finish().unwrap());

        let analysis = analyze_module(&m);
        let mut profiler = Profiler::new(&m, &analysis);
        let cfg = MachineConfig {
            watched_values: profiler.watched_values(),
            ..Default::default()
        };
        let mut metered = MeteredSink::new(&mut profiler);
        let unit = ExecUnit::new(&m);
        let out = Exec::new(&unit)
            .sink(&mut metered)
            .config(cfg)
            .keep_memory(true)
            .run(&[])
            .unwrap();
        assert_eq!(metered.counts().stores, n as u64);
        assert_eq!(metered.counts().loads, n as u64);
        let memory = out.memory.expect("keep_memory was requested");
        assert_eq!(memory.pages(), 1, "the stores filled interpreter memory");
        assert_eq!(profiler.shadow.pages(), 0);
        assert_eq!(profiler.stack_push.pages(), 0);
    }

    /// Nested loops over two arrays with a call per inner iteration: the
    /// callee reads a stack slot before writing it (stale frames from
    /// earlier iterations feed the cactus-stack filter) and the body
    /// stores into a row the next outer iteration reads back.
    fn nested_calls_module() -> Module {
        let (rows, cols) = (8i64, 96i64);
        let mut m = Module::new("nested_calls");
        let a = m.add_global(Global::zeroed("a", (rows * cols) as u64));
        let b = m.add_global(Global::zeroed("b", cols as u64));

        let mut fb = FunctionBuilder::new("bump", &[Type::I64], Type::I64);
        let x = fb.param(0);
        let slot = fb.alloca(1);
        let old = fb.load(Type::I64, slot);
        let new = fb.add(old, x);
        fb.store(new, slot);
        fb.ret(Some(new));
        let bump = m.add_function(fb.finish().unwrap());

        let mut fb = FunctionBuilder::new("main", &[], Type::I64);
        let zero = fb.const_i64(0);
        let one = fb.const_i64(1);
        let nrows = fb.const_i64(rows);
        let ncols = fb.const_i64(cols);
        let abase = fb.global_addr(a);
        let bbase = fb.global_addr(b);
        let oh = fb.create_block("outer.header");
        let ih = fb.create_block("inner.header");
        let ib = fb.create_block("inner.body");
        let ol = fb.create_block("outer.latch");
        let exit = fb.create_block("exit");
        fb.br(oh);
        fb.switch_to(oh);
        let i = fb.phi(Type::I64);
        let ci = fb.icmp(IcmpPred::Slt, i, nrows);
        fb.cond_br(ci, ih, exit);
        fb.switch_to(ih);
        let j = fb.phi(Type::I64);
        let cj = fb.icmp(IcmpPred::Slt, j, ncols);
        fb.cond_br(cj, ib, ol);
        fb.switch_to(ib);
        let row = fb.mul(i, ncols);
        let idx = fb.add(row, j);
        let pa = fb.gep(abase, idx, 8, 0);
        let pb = fb.gep(bbase, j, 8, 0);
        let prev = fb.load(Type::I64, pb);
        let got = fb.call(bump, Type::I64, &[prev]);
        fb.store(got, pa);
        fb.store(got, pb);
        let j2 = fb.add(j, one);
        fb.br(ih);
        fb.switch_to(ol);
        let i2 = fb.add(i, one);
        fb.br(oh);
        fb.switch_to(exit);
        fb.ret(Some(zero));
        fb.add_phi_incoming(i, lp_ir::BlockId::ENTRY, zero);
        fb.add_phi_incoming(i, ol, i2);
        fb.add_phi_incoming(j, oh, zero);
        fb.add_phi_incoming(j, ib, j2);
        m.add_function(fb.finish().unwrap());
        m
    }

    #[test]
    fn profiler_telemetry_is_engine_independent() {
        // Both engines deliver the same event stream, so the profiler's
        // tallies must agree as well as its profile.
        let m = nested_calls_module();
        let analysis = analyze_module(&m);
        let run = |engine: Engine| {
            let mut profiler = Profiler::new(&m, &analysis);
            let cfg = MachineConfig {
                watched_values: profiler.watched_values(),
                ..Default::default()
            };
            let unit = ExecUnit::with_engine(&m, engine);
            Exec::new(&unit)
                .sink(&mut profiler)
                .config(cfg)
                .run(&[])
                .unwrap();
            let tallies = (
                profiler.shadow.pages(),
                profiler.stack_push.pages(),
                profiler.cactus_filter_hits,
            );
            (tallies, format!("{:?}", profiler.finish()))
        };
        let (tree, tree_profile) = run(Engine::Tree);
        let (bc, bc_profile) = run(Engine::Bc);
        assert!(tree.0 > 0, "the shadow holds no page");
        assert!(tree.1 > 0, "no stack store recorded a push time");
        assert!(tree.2 > 0, "cactus-stack filter never fired");
        assert_eq!(tree, bc, "(shadow pages, stack-push pages, cactus hits)");
        assert_eq!(tree_profile, bc_profile);
    }

    /// Drives a `Profiler` through raw [`EventSink`] calls: `main`'s loop
    /// calls `leaf` in iteration 0 only, `leaf` stores into its own
    /// frame, and iteration 1 loads that stack word back from `main`.
    /// The load's owner frame (`main`'s) predates the loop, so the
    /// load-side cactus check never fires; only the store-side check —
    /// the push time recorded with the store — can prove the word
    /// iteration-private. Returns the loop's conflicting iterations and
    /// the filter-hit tally.
    fn stack_word_reread_across_iterations(cactus_stack: bool) -> (Vec<u32>, u64) {
        let mut m = Module::new("stack_reread");
        let mut fb = FunctionBuilder::new("leaf", &[], Type::I64);
        let zero = fb.const_i64(0);
        fb.ret(Some(zero));
        let leaf = m.add_function(fb.finish().unwrap());
        let mut fb = FunctionBuilder::new("main", &[], Type::I64);
        let n = fb.const_i64(2);
        let zero = fb.const_i64(0);
        let one = fb.const_i64(1);
        let header = fb.create_block("header");
        let body = fb.create_block("body");
        let exit = fb.create_block("exit");
        fb.br(header);
        fb.switch_to(header);
        let i = fb.phi(Type::I64);
        let c = fb.icmp(IcmpPred::Slt, i, n);
        fb.cond_br(c, body, exit);
        fb.switch_to(body);
        fb.call(leaf, Type::I64, &[]);
        let i2 = fb.add(i, one);
        fb.add_phi_incoming(i, lp_ir::BlockId::ENTRY, zero);
        fb.add_phi_incoming(i, body, i2);
        fb.br(header);
        fb.switch_to(exit);
        fb.ret(Some(zero));
        let main = m.add_function(fb.finish().unwrap());
        let analysis = analyze_module(&m);
        let mut p = Profiler::with_options(&m, &analysis, ProfilerOptions { cactus_stack });

        let slot = STACK_BASE + 0x100;
        p.func_entered(main, STACK_BASE, 0);
        p.block_entered(main, lp_ir::BlockId::ENTRY, 1, 1);
        p.block_entered(main, header, 1, 2); // iteration 0 starts at 2
        p.block_entered(main, body, 1, 3);
        p.func_entered(leaf, slot, 4); // frame pushed inside iteration 0
        p.store(slot, 5);
        p.func_exited(leaf, 6);
        p.block_entered(main, header, 1, 7); // iteration 1 starts at 7
        p.block_entered(main, body, 1, 8);
        p.load(slot, 9); // owner frame is main's, pushed at 0
        p.block_entered(main, header, 1, 10);
        p.block_entered(main, exit, 1, 11);
        p.func_exited(main, 12);
        let hits = p.cactus_filter_hits;
        let profile = p.finish();
        let (_, _, inst) = profile.loop_instances().next().unwrap();
        (inst.mem_conflict_iters.iter().collect(), hits)
    }

    #[test]
    fn store_side_cactus_check_alone_hides_a_released_frame() {
        assert_eq!(stack_word_reread_across_iterations(true), (vec![], 1));
        // A sequential stack reuses the address: the reread is a real
        // cross-iteration flow in iteration 1.
        assert_eq!(stack_word_reread_across_iterations(false), (vec![1], 0));
    }

    #[test]
    fn region_tree_is_closed_and_ordered() {
        let m = serial_mem_module(10);
        let p = profile(&m, &[]);
        assert_eq!(p.region(p.root()).start, 0);
        assert_eq!(p.region(p.root()).end, p.total_cost);
        for r in &p.regions {
            assert!(r.start <= r.end);
            for &c in &r.children {
                let child = p.region(c);
                assert!(child.start >= r.start && child.end <= r.end);
            }
        }
    }

    #[test]
    fn reentered_loop_instance_starts_with_clean_shadow_state() {
        // An outer loop runs an inner loop twice. The inner loop stores to
        // `cell` only on (outer 0, inner 0) and loads `cell` every inner
        // iteration. The first inner instance therefore carries real RAW
        // conflicts (iters 1..=4 consume iter 0's store); the second must
        // have none — a stale last-writer stamp escaping the
        // instance-start time exclusion would fabricate them.
        let mut m = Module::new("reentry");
        let g = m.add_global(Global::zeroed("cell", 1));
        let mut fb = FunctionBuilder::new("main", &[], Type::I64);
        let two = fb.const_i64(2);
        let five = fb.const_i64(5);
        let zero = fb.const_i64(0);
        let one = fb.const_i64(1);
        let cell = fb.global_addr(g);
        let outer_header = fb.create_block("outer_header");
        let outer_body = fb.create_block("outer_body");
        let inner_header = fb.create_block("inner_header");
        let inner_body = fb.create_block("inner_body");
        let do_store = fb.create_block("do_store");
        let after = fb.create_block("after");
        let outer_latch = fb.create_block("outer_latch");
        let exit = fb.create_block("exit");
        fb.br(outer_header);
        fb.switch_to(outer_header);
        let j = fb.phi(Type::I64);
        let cj = fb.icmp(IcmpPred::Slt, j, two);
        fb.cond_br(cj, outer_body, exit);
        fb.switch_to(outer_body);
        fb.br(inner_header);
        fb.switch_to(inner_header);
        let i = fb.phi(Type::I64);
        let ci = fb.icmp(IcmpPred::Slt, i, five);
        fb.cond_br(ci, inner_body, outer_latch);
        fb.switch_to(inner_body);
        let s = fb.add(i, j);
        let first = fb.icmp(IcmpPred::Eq, s, zero);
        fb.cond_br(first, do_store, after);
        fb.switch_to(do_store);
        fb.store(one, cell);
        fb.br(after);
        fb.switch_to(after);
        fb.load(Type::I64, cell);
        let i2 = fb.add(i, one);
        fb.add_phi_incoming(i, outer_body, zero);
        fb.add_phi_incoming(i, after, i2);
        fb.br(inner_header);
        fb.switch_to(outer_latch);
        let j2 = fb.add(j, one);
        fb.add_phi_incoming(j, lp_ir::BlockId::ENTRY, zero);
        fb.add_phi_incoming(j, outer_latch, j2);
        fb.br(outer_header);
        fb.switch_to(exit);
        fb.ret(Some(zero));
        m.add_function(fb.finish().unwrap());

        let p = profile(&m, &[]);
        let inner: Vec<_> = p
            .loop_instances()
            .filter(|(_, _, inst)| p.loop_meta[inst.meta].depth == 2)
            .collect();
        assert_eq!(inner.len(), 2, "two inner instances");
        let (_, _, first_inst) = inner[0];
        let (_, _, second_inst) = inner[1];
        assert_eq!(
            first_inst.mem_conflict_iters.iter().collect::<Vec<_>>(),
            vec![1, 2, 3, 4]
        );
        assert!(
            second_inst.mem_conflict_iters.is_empty(),
            "stale shadow stamps leaked into the re-entered instance: {:?}",
            second_inst.mem_conflict_iters
        );
    }

    /// Forwards every event to a profiler and, when the run first enters
    /// `header`, records the FCM entries the predictor in `slot` has freed
    /// by then.
    struct RetireProbe<'p, 'a> {
        profiler: &'p mut Profiler<'a>,
        header: BlockId,
        slot: usize,
        retired_at_header: Option<usize>,
    }

    impl EventSink for RetireProbe<'_, '_> {
        fn block_entered(&mut self, func: FuncId, block: BlockId, cost: u64, now: u64) {
            self.profiler.block_entered(func, block, cost, now);
            if block == self.header && self.retired_at_header.is_none() {
                let pred = &self.profiler.predictors[self.slot];
                self.retired_at_header = Some(pred.fcm_entries_retired());
            }
        }
        fn phi_resolved(&mut self, func: FuncId, block: BlockId, phi: ValueId, v: Value, now: u64) {
            self.profiler.phi_resolved(func, block, phi, v, now);
        }
        fn load(&mut self, addr: u64, now: u64) {
            self.profiler.load(addr, now);
        }
        fn store(&mut self, addr: u64, now: u64) {
            self.profiler.store(addr, now);
        }
        fn func_entered(&mut self, func: FuncId, frame_base: u64, now: u64) {
            self.profiler.func_entered(func, frame_base, now);
        }
        fn func_exited(&mut self, func: FuncId, now: u64) {
            self.profiler.func_exited(func, now);
        }
        fn builtin_called(&mut self, caller: FuncId, builtin: Builtin, now: u64) {
            self.profiler.builtin_called(caller, builtin, now);
        }
        fn value_defined(&mut self, func: FuncId, value: ValueId, val: Value, now: u64) {
            self.profiler.value_defined(func, value, val, now);
        }
    }

    /// Two sequential loops in an uncalled `main`, each stepping an LCG
    /// twelve times: both are final, so the first loop's FCM table is
    /// freed when its instance closes, before the second loop starts, and
    /// the profile and every predictor count stay as they are when no
    /// table is freed.
    #[test]
    fn a_final_loop_frees_its_tables_at_its_close() {
        use lp_suite::kernels::{counted_loop, lcg_step};
        let mut m = Module::new("two_final_loops");
        let mut fb = FunctionBuilder::new("main", &[], Type::I64);
        let twelve = fb.const_i64(12);
        let mut results = Vec::new();
        for seed in [0x5EED, 0xF00D] {
            let seed = fb.const_i64(seed);
            let x = counted_loop(&mut fb, twelve, &[(Type::I64, seed)], |fb, _, phis| {
                vec![lcg_step(fb, phis[0])]
            });
            results.push(x[0]);
        }
        let r = fb.xor(results[0], results[1]);
        fb.ret(Some(r));
        m.add_function(fb.finish().unwrap());
        let analysis = analyze_module(&m);
        let main = m.entry().unwrap();
        let run = |frees: bool| {
            let mut profiler = Profiler::new(&m, &analysis);
            assert_eq!(profiler.predictors.len(), 2, "one traced phi per loop");
            if !frees {
                profiler.retire_on_close.iter_mut().for_each(|r| *r = 0..0);
            }
            // Loops are met in block order: the first loop's header was
            // created first.
            let mut metas: Vec<usize> = (0..profiler.loop_meta.len()).collect();
            metas.sort_by_key(|&i| profiler.loop_meta[i].header);
            let [first, second] = metas[..] else {
                panic!("two loops")
            };
            assert!(analysis.loop_is_final(&m, main, profiler.loop_meta[first].loop_id));
            let slot = profiler.retire_on_close[first].start;
            let header = profiler.loop_meta[second].header;
            let config = MachineConfig {
                watched_values: profiler.watched_values(),
                ..MachineConfig::default()
            };
            let mut probe = RetireProbe {
                profiler: &mut profiler,
                header,
                slot,
                retired_at_header: None,
            };
            let unit = ExecUnit::new(&m);
            Exec::new(&unit)
                .sink(&mut probe)
                .config(config)
                .run(&[])
                .unwrap();
            let retired_at_header = probe.retired_at_header.expect("the second loop ran");
            let counts: Vec<_> = profiler
                .predictors
                .iter()
                .map(|p| (p.stats(), p.component_stats(), p.fcm_entries()))
                .collect();
            let first_entries = profiler.predictors[slot].fcm_entries();
            (retired_at_header, first_entries, counts, profiler.finish())
        };
        let (retired, entries, counts, profile) = run(true);
        let (kept, _, control_counts, control) = run(false);
        assert!(entries > 0);
        assert_eq!(retired, entries, "freed before the second loop began");
        assert_eq!(kept, 0);
        assert_eq!(counts, control_counts);
        assert_eq!(format!("{profile:?}"), format!("{control:?}"));
    }
}
