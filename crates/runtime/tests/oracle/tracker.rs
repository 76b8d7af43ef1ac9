//! The reference tracker for differential tests: an [`EventSink`] that
//! builds the same [`Profile`] as `lp_runtime::Profiler`, written for
//! clarity, not speed.
//!
//! Where the profiler keeps one run-global shadow of store *times* and
//! decides everything by comparing stamps, the reference keeps the
//! definitions explicit:
//!
//! - every active loop instance owns a map from address to the last
//!   write it saw (iteration, time, and whether the writing frame was
//!   pushed in that iteration), so a load conflicts at a level exactly
//!   when that level's map holds a write from an earlier iteration;
//! - every active instance owns the set of frames pushed during its
//!   current iteration, which is the cactus-stack rule of paper §II-E:
//!   such frames are iteration-local on both the load and the store side;
//! - the value predictors are plain: last value, stride and two-delta
//!   stride from the last values seen, and an order-3 FCM keyed by the
//!   raw values themselves (`HashMap<Vec<u64>, u64>`) instead of a
//!   rolling hash.
//!
//! The output is assembled from `lp_runtime`'s public profile types only.

use lp_analysis::{LcdClass, ModuleAnalysis, Purity};
use lp_interp::{
    Engine, EventSink, Exec, ExecUnit, InterpError, MachineConfig, RunResult, Value, STACK_BASE,
};
use lp_ir::{BlockId, Builtin, FuncId, Inst, Module, ValueId, ValueKind};
use lp_runtime::profile::LcdInstance;
use lp_runtime::{
    CallClass, LoopInstance, LoopMeta, Profile, ProfilerOptions, Region, RegionId, RegionKind,
};
use std::collections::{HashMap, HashSet};

/// FCM context length, as in the paper's hybrid (`lp_predict`'s default).
const FCM_ORDER: usize = 3;

/// The paper's hybrid with perfect hybridization, kept as plainly as
/// possible: a value counts as predicted when any component named it.
#[derive(Debug, Default)]
struct RefPredictor {
    /// The last `FCM_ORDER` values, oldest first.
    recent: Vec<u64>,
    /// The latest delta between consecutive values.
    last_delta: Option<u64>,
    /// The two-delta stride: the first delta, then every delta seen twice
    /// in a row.
    two_delta: Option<u64>,
    /// Next value seen after each context of `FCM_ORDER` raw values.
    fcm: HashMap<Vec<u64>, u64>,
}

impl RefPredictor {
    /// Predicts, compares with `actual`, then trains every component.
    fn observe(&mut self, actual: u64) -> bool {
        let last = self.recent.last().copied();
        let last_value = last;
        let stride = last.zip(self.last_delta).map(|(l, d)| l.wrapping_add(d));
        let two_delta = last.zip(self.two_delta).map(|(l, d)| l.wrapping_add(d));
        let full = self.recent.len() == FCM_ORDER;
        let fcm = if full {
            self.fcm.get(&self.recent).copied()
        } else {
            None
        };
        let hit = [last_value, stride, two_delta, fcm].contains(&Some(actual));

        if full {
            self.fcm.insert(self.recent.clone(), actual);
        }
        if let Some(l) = last {
            let delta = actual.wrapping_sub(l);
            if self.two_delta.is_none() || self.last_delta == Some(delta) {
                self.two_delta = Some(delta);
            }
            self.last_delta = Some(delta);
        }
        if full {
            self.recent.remove(0);
        }
        self.recent.push(actual);
        hit
    }
}

/// The last write an active loop instance saw to one address.
#[derive(Debug, Clone, Copy)]
struct Write {
    iter: u32,
    time: u64,
    /// Start of the writing iteration.
    iter_start: u64,
    /// The written word lies in a frame pushed during that iteration.
    frame_local: bool,
}

/// One executing loop instance.
#[derive(Debug)]
struct Active {
    region: RegionId,
    meta: usize,
    /// Call depth of the frame running the loop.
    depth: u32,
    iter: u32,
    iter_start: u64,
    starts: Vec<u64>,
    writes: HashMap<u64, Write>,
    /// Frames pushed since the current iteration began.
    frames_this_iter: HashSet<u64>,
    conflicts: Vec<u32>,
    edges: u64,
    max_skew: u64,
    max_producer_rel: u64,
    min_consumer_rel: u64,
    lcds: Vec<LcdInstance>,
    /// Mispredicted iterations per traced LCD.
    mispredicts: Vec<Vec<u32>>,
    call_class: CallClass,
}

/// One live stack frame.
#[derive(Debug, Clone, Copy)]
struct Frame {
    id: u64,
    base: u64,
}

/// The reference tracker. Feed it events, then call [`RefProfiler::finish`].
#[derive(Debug)]
pub struct RefProfiler<'a> {
    analysis: &'a ModuleAnalysis,
    program: String,
    func_names: Vec<String>,
    options: ProfilerOptions,
    metas: Vec<LoopMeta>,
    /// `(func, header)` → meta index.
    headers: HashMap<(FuncId, BlockId), usize>,
    /// Blocks of each meta's loop.
    blocks: Vec<HashSet<BlockId>>,
    /// Traced phi → (meta, index among the loop's traced phis).
    traced: HashMap<(FuncId, ValueId), (usize, usize)>,
    predictors: HashMap<(FuncId, ValueId), RefPredictor>,
    /// Latch value → the traced LCDs it feeds.
    watched: HashMap<(FuncId, ValueId), Vec<(usize, usize)>>,
    clock: u64,
    regions: Vec<Region>,
    open: Vec<RegionId>,
    loops: Vec<Active>,
    frames: Vec<Frame>,
    next_frame: u64,
}

impl<'a> RefProfiler<'a> {
    /// Prepares the reference for `module`.
    #[must_use]
    pub fn new(
        module: &Module,
        analysis: &'a ModuleAnalysis,
        options: ProfilerOptions,
    ) -> RefProfiler<'a> {
        let mut me = RefProfiler {
            analysis,
            program: module.name.clone(),
            func_names: module
                .iter_functions()
                .map(|(_, f)| f.name.clone())
                .collect(),
            options,
            metas: Vec::new(),
            headers: HashMap::new(),
            blocks: Vec::new(),
            traced: HashMap::new(),
            predictors: HashMap::new(),
            watched: HashMap::new(),
            clock: 0,
            regions: Vec::new(),
            open: Vec::new(),
            loops: Vec::new(),
            frames: Vec::new(),
            next_frame: 0,
        };
        for (fid, func) in module.iter_functions() {
            let fa = analysis.function(fid);
            for (lid, lp) in fa.loops.iter() {
                let meta = me.metas.len();
                let phis = &fa.lcds[lid.index()].phis;
                let traced_phis: Vec<(ValueId, LcdClass)> = phis
                    .iter()
                    .copied()
                    .filter(|(_, c)| !c.is_computable())
                    .collect();
                // Only a single-latch loop has one update value per phi.
                if let [latch] = lp.latches[..] {
                    for (idx, &(phi, _)) in traced_phis.iter().enumerate() {
                        me.traced.insert((fid, phi), (meta, idx));
                        me.predictors.insert((fid, phi), RefPredictor::default());
                        let ValueKind::Inst(iid) = func.value(phi) else {
                            continue;
                        };
                        let Inst::Phi { incomings, .. } = &func.inst(*iid).inst else {
                            continue;
                        };
                        for &(from, update) in incomings {
                            if from == latch && matches!(func.value(update), ValueKind::Inst(_)) {
                                me.watched
                                    .entry((fid, update))
                                    .or_default()
                                    .push((meta, idx));
                                break;
                            }
                        }
                    }
                }
                me.headers.insert((fid, lp.header), meta);
                me.blocks.push(lp.blocks.iter().copied().collect());
                me.metas.push(LoopMeta {
                    func: fid,
                    loop_id: lid,
                    func_name: func.name.clone(),
                    header: lp.header,
                    depth: lp.depth,
                    computable_phis: (phis.len() - traced_phis.len()) as u32,
                    traced_phis,
                });
            }
        }
        me
    }

    /// The values whose definitions the machine must report.
    #[must_use]
    pub fn watched_values(&self) -> Vec<(FuncId, ValueId)> {
        let mut out: Vec<_> = self.watched.keys().copied().collect();
        out.sort_by_key(|&(f, v)| (f.0, v.0));
        out
    }

    fn tick(&mut self, now: u64) {
        self.clock = self.clock.max(now);
    }

    fn open_region(&mut self, kind: RegionKind, start: u64) -> RegionId {
        let parent = self.open.last().copied();
        let parent_iter = match (parent, self.loops.last()) {
            (Some(p), Some(top)) if top.region == p => top.iter,
            _ => 0,
        };
        let id = RegionId(self.regions.len() as u32);
        self.regions.push(Region {
            parent,
            parent_iter,
            start,
            end: start,
            kind,
            children: Vec::new(),
        });
        if let Some(p) = parent {
            self.regions[p.index()].children.push(id);
        }
        self.open.push(id);
        id
    }

    fn close_loop(&mut self, stamp: u64) {
        let a = self.loops.pop().expect("a loop to close");
        assert_eq!(self.open.pop(), Some(a.region), "region stack in step");
        let region = &mut self.regions[a.region.index()];
        region.end = stamp;
        region.kind = RegionKind::Loop(Box::new(LoopInstance {
            meta: a.meta,
            timeline: a.starts.into_iter().collect(),
            mem_conflict_iters: a.conflicts.into_iter().collect(),
            mem_max_skew: a.max_skew,
            mem_max_producer_rel: a.max_producer_rel,
            mem_min_consumer_rel: a.min_consumer_rel,
            mem_edges: a.edges,
            lcds: a
                .lcds
                .into_iter()
                .zip(a.mispredicts)
                .map(|(lcd, iters)| LcdInstance {
                    mispredict_iters: iters.into_iter().collect(),
                    ..lcd
                })
                .collect(),
            call_class: a.call_class,
        }));
    }

    fn raise_call_class(&mut self, class: CallClass) {
        for a in &mut self.loops {
            a.call_class = a.call_class.max(class);
        }
    }

    /// The live frame holding `addr`: the one with the highest base at or
    /// below it. Only stack words have one, and only when the cactus
    /// stack is modelled.
    fn owner_frame(&self, addr: u64) -> Option<u64> {
        if !self.options.cactus_stack || addr < STACK_BASE {
            return None;
        }
        self.frames
            .iter()
            .filter(|f| f.base <= addr)
            .max_by_key(|f| f.base)
            .map(|f| f.id)
    }

    fn on_load(&mut self, addr: u64, now: u64) {
        self.tick(now);
        let owner = self.owner_frame(addr);
        for a in &mut self.loops {
            let Some(w) = a.writes.get(&addr).copied() else {
                continue;
            };
            if w.iter >= a.iter {
                continue;
            }
            if owner.is_some_and(|f| a.frames_this_iter.contains(&f)) || w.frame_local {
                continue;
            }
            if a.conflicts.last() != Some(&a.iter) {
                a.conflicts.push(a.iter);
            }
            a.edges += 1;
            let rel = now.saturating_sub(a.iter_start);
            let w_rel = w.time - w.iter_start;
            let skew = w_rel.saturating_sub(rel) / u64::from(a.iter - w.iter);
            a.max_skew = a.max_skew.max(skew);
            a.max_producer_rel = a.max_producer_rel.max(w_rel);
            a.min_consumer_rel = a.min_consumer_rel.min(rel);
        }
    }

    fn on_store(&mut self, addr: u64, now: u64) {
        self.tick(now);
        let owner = self.owner_frame(addr);
        for a in &mut self.loops {
            let write = Write {
                iter: a.iter,
                time: now,
                iter_start: a.iter_start,
                frame_local: owner.is_some_and(|f| a.frames_this_iter.contains(&f)),
            };
            a.writes.insert(addr, write);
        }
    }

    /// Closes everything still open and returns the profile.
    #[must_use]
    pub fn finish(mut self) -> Profile {
        let stamp = self.clock;
        while !self.loops.is_empty() {
            self.close_loop(stamp);
        }
        while let Some(r) = self.open.pop() {
            self.regions[r.index()].end = stamp;
        }
        Profile::new(
            self.program,
            self.clock,
            self.regions,
            self.metas,
            self.func_names,
        )
    }
}

impl EventSink for RefProfiler<'_> {
    fn block_entered(&mut self, func: FuncId, block: BlockId, _cost: u64, now: u64) {
        self.tick(now);
        // Leaving a loop of the running frame closes its instance.
        while let Some(top) = self.loops.last() {
            let same_frame =
                top.depth == self.frames.len() as u32 && self.metas[top.meta].func == func;
            if !same_frame || self.blocks[top.meta].contains(&block) {
                break;
            }
            self.close_loop(now);
        }
        let Some(&meta) = self.headers.get(&(func, block)) else {
            return;
        };
        let depth = self.frames.len() as u32;
        if let Some(top) = self
            .loops
            .last_mut()
            .filter(|t| t.meta == meta && t.depth == depth)
        {
            top.iter += 1;
            top.iter_start = now;
            top.starts.push(now);
            top.frames_this_iter.clear();
            return;
        }
        let n_lcds = self.metas[meta].traced_phis.len();
        let placeholder = RegionKind::Call { func };
        let region = self.open_region(placeholder, now);
        self.loops.push(Active {
            region,
            meta,
            depth,
            iter: 0,
            iter_start: now,
            starts: vec![now],
            writes: HashMap::new(),
            frames_this_iter: HashSet::new(),
            conflicts: Vec::new(),
            edges: 0,
            max_skew: 0,
            max_producer_rel: 0,
            min_consumer_rel: u64::MAX,
            lcds: vec![LcdInstance::default(); n_lcds],
            mispredicts: vec![Vec::new(); n_lcds],
            call_class: CallClass::NoCalls,
        });
    }

    fn phi_resolved(
        &mut self,
        func: FuncId,
        _block: BlockId,
        phi: ValueId,
        value: Value,
        _now: u64,
    ) {
        let Some(&(meta, idx)) = self.traced.get(&(func, phi)) else {
            return;
        };
        let Some(a) = self.loops.iter_mut().rev().find(|a| a.meta == meta) else {
            return;
        };
        let hit = self
            .predictors
            .get_mut(&(func, phi))
            .expect("every traced phi has a predictor")
            .observe(value.fingerprint());
        let lcd = &mut a.lcds[idx];
        lcd.observed += 1;
        if hit {
            lcd.predicted += 1;
        } else if a.iter >= 1 {
            // Iteration 0 reads the value from before the loop.
            a.mispredicts[idx].push(a.iter);
        }
    }

    fn load(&mut self, addr: u64, now: u64) {
        self.on_load(addr, now);
    }

    fn store(&mut self, addr: u64, now: u64) {
        self.on_store(addr, now);
    }

    fn func_entered(&mut self, func: FuncId, frame_base: u64, now: u64) {
        self.tick(now);
        if !self.loops.is_empty() {
            if !self.options.cactus_stack {
                // A sequential stack: the stack pointer is one memory cell
                // that every call reads and writes.
                let sp = lp_runtime::profile_sp_hazard_addr();
                self.on_load(sp, now);
                self.on_store(sp, now);
            }
            let class = match self.analysis.callgraph.purity(func) {
                Purity::Pure => CallClass::PureCalls,
                Purity::Impure => CallClass::InstrumentedCalls,
            };
            self.raise_call_class(class);
        }
        let id = self.next_frame;
        self.next_frame += 1;
        for a in &mut self.loops {
            a.frames_this_iter.insert(id);
        }
        self.frames.push(Frame {
            id,
            base: frame_base,
        });
        let start = self.clock;
        self.open_region(RegionKind::Call { func }, start);
    }

    fn func_exited(&mut self, _func: FuncId, now: u64) {
        self.tick(now);
        let depth = self.frames.len() as u32;
        while self.loops.last().is_some_and(|a| a.depth == depth) {
            self.close_loop(now);
        }
        let r = self.open.pop().expect("a call region to close");
        self.regions[r.index()].end = now;
        self.frames.pop();
    }

    fn builtin_called(&mut self, _caller: FuncId, builtin: Builtin, _now: u64) {
        let class = if builtin.is_pure() {
            CallClass::PureCalls
        } else if builtin.is_thread_safe() {
            CallClass::InstrumentedCalls
        } else {
            CallClass::UnsafeCalls
        };
        self.raise_call_class(class);
    }

    fn value_defined(&mut self, func: FuncId, value: ValueId, _val: Value, now: u64) {
        self.tick(now);
        let Some(feeds) = self.watched.get(&(func, value)) else {
            return;
        };
        for &(meta, idx) in feeds {
            if let Some(a) = self.loops.iter_mut().rev().find(|a| a.meta == meta) {
                let rel = now.saturating_sub(a.iter_start);
                let lcd = &mut a.lcds[idx];
                lcd.max_def_rel = lcd.max_def_rel.max(rel);
            }
        }
    }
}

/// Runs `module` on the tree walk under the reference tracker.
///
/// # Errors
/// Propagates interpreter traps.
pub fn reference_profile(
    module: &Module,
    analysis: &ModuleAnalysis,
    options: ProfilerOptions,
) -> Result<(Profile, RunResult), InterpError> {
    let mut reference = RefProfiler::new(module, analysis, options);
    let config = MachineConfig {
        watched_values: reference.watched_values(),
        engine: Engine::Tree,
        ..MachineConfig::default()
    };
    let unit = ExecUnit::with_engine(module, Engine::Tree);
    let out = Exec::new(&unit)
        .sink(&mut reference)
        .config(config)
        .run(&[])?;
    Ok((reference.finish(), out.result))
}

/// Asserts two profiles are equal, naming the first region that differs.
///
/// # Panics
/// Panics on the first difference.
pub fn assert_same_profile(want: &Profile, got: &Profile, label: &str) {
    assert_eq!(want.program, got.program, "{label}: program");
    assert_eq!(want.total_cost, got.total_cost, "{label}: total cost");
    assert_eq!(want.func_names, got.func_names, "{label}: function names");
    assert_eq!(
        format!("{:?}", want.loop_meta),
        format!("{:?}", got.loop_meta),
        "{label}: loop metadata"
    );
    assert_eq!(
        want.regions.len(),
        got.regions.len(),
        "{label}: region count"
    );
    for (i, (w, g)) in want.regions.iter().zip(&got.regions).enumerate() {
        assert_eq!(format!("{w:?}"), format!("{g:?}"), "{label}: region {i}");
    }
}
