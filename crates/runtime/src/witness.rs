//! Independence witnesses: machine-checkable evidence that a loop's
//! iterations touched pairwise-disjoint memory.
//!
//! Static DOALL certification (`lp_analysis::certify`) plus an
//! observed-dependence-free profile is still not enough to hand a loop
//! to real threads: the profiler tracks cross-iteration *RAW* flow only,
//! so a loop whose iterations silently overwrite each other (a WAW-only
//! conflict, e.g. every iteration also storing to slot 0) profiles
//! clean yet replays nondeterministically. The witness closes that gap
//! by recording, per target loop instance, every word each iteration
//! read or wrote and checking the footprints pairwise-disjoint *online*:
//!
//! - a **write** in iteration `k` conflicts with *any* earlier access to
//!   the same word from an iteration `j ≠ k` (covers WAW and WAR; the
//!   symmetric RAW case is caught when the later read arrives);
//! - a **read** in iteration `k` conflicts with an earlier *write* from
//!   `j ≠ k`;
//! - read–read sharing is allowed (loop-invariant inputs);
//! - words inside stack frames pushed during the current iteration are
//!   exempt (the cactus-stack rule of §II-E: iteration-local scratch).
//!
//! The check is exact over the *profiled* execution — the same
//! profile-once/evaluate-many bargain the limit study itself makes —
//! and every replayed run is additionally byte-compared against a
//! serial run, so a witness that slips through still cannot produce a
//! silently wrong result.
//!
//! # Storage
//!
//! Every access of an active instance consults its word's record, so
//! the records must not hash (DESIGN.md §10). Each witness nesting level
//! owns one [`PageTable`] of 16-byte records, reused by every instance
//! that runs at that level. A record carries the epoch of the instance
//! that wrote it; activation hands the level a fresh epoch, which turns
//! every older record stale at once, so deactivation frees and clears
//! nothing and `distinct_words` counts the records the current epoch
//! created. A level that runs out of `u32` epochs drops its table rather
//! than wrap onto an epoch whose records are still there.

use crate::profile::Profile;
use crate::tracker::{record_profiling_run, Profiler};
use lp_analysis::{LoopId, ModuleAnalysis};
use lp_interp::{
    Exec, ExecUnit, InterpError, MachineConfig, Memory, MeteredSink, PageTable, RunResult, Value,
};
use lp_ir::{FuncId, Module};

/// Sentinel iteration meaning "no access recorded yet".
const NO_ITER: u32 = u32::MAX;

/// How two iterations collided on one word.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConflictKind {
    /// Two different iterations wrote the word.
    WriteWrite,
    /// One iteration wrote a word another iteration read (either order).
    ReadWrite,
}

impl ConflictKind {
    /// Short human-readable tag (used by reports and exports).
    #[must_use]
    pub fn tag(self) -> &'static str {
        match self {
            ConflictKind::WriteWrite => "write-write",
            ConflictKind::ReadWrite => "read-write",
        }
    }
}

/// The first footprint-disjointness violation observed in one loop
/// instance — enough to name the offending word and iteration pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WitnessViolation {
    /// The conflicting word's address.
    pub addr: u64,
    /// The earlier iteration involved (0-based).
    pub earlier_iter: u32,
    /// The later iteration (the one whose access exposed the conflict).
    pub later_iter: u32,
    /// Conflict flavour.
    pub kind: ConflictKind,
}

/// Per-instance independence evidence for one target loop.
#[derive(Debug, Clone)]
pub struct IndependenceWitness {
    /// Containing function.
    pub func: FuncId,
    /// Loop id within that function's forest.
    pub loop_id: LoopId,
    /// Completed iterations of this instance.
    pub iterations: u32,
    /// Distinct words the instance touched (exempt words excluded).
    pub distinct_words: u64,
    /// Total reads observed.
    pub reads: u64,
    /// Total writes observed.
    pub writes: u64,
    /// Accesses skipped by the cactus-stack (iteration-local frame) rule.
    pub cactus_exempt: u64,
    /// First disjointness violation, or `None` — the witness holds.
    pub violation: Option<WitnessViolation>,
}

impl IndependenceWitness {
    /// Whether this instance's iteration footprints were pairwise
    /// disjoint.
    #[must_use]
    pub fn holds(&self) -> bool {
        self.violation.is_none()
    }
}

/// All witnesses gathered over one profiled run.
#[derive(Debug, Clone, Default)]
pub struct WitnessReport {
    /// One entry per completed target loop instance, in completion order.
    pub witnesses: Vec<IndependenceWitness>,
}

impl WitnessReport {
    /// Whether `(func, loop_id)` is replay-safe: at least one instance
    /// was observed and every instance's witness holds.
    #[must_use]
    pub fn loop_holds(&self, func: FuncId, loop_id: LoopId) -> bool {
        let mut seen = false;
        for w in &self.witnesses {
            if w.func == func && w.loop_id == loop_id {
                if !w.holds() {
                    return false;
                }
                seen = true;
            }
        }
        seen
    }

    /// The first violating witness for `(func, loop_id)`, if any.
    #[must_use]
    pub fn first_violation(&self, func: FuncId, loop_id: LoopId) -> Option<&IndependenceWitness> {
        self.witnesses
            .iter()
            .find(|w| w.func == func && w.loop_id == loop_id && !w.holds())
    }
}

/// Per-word access record: the instance epoch that wrote the record,
/// the iteration that last wrote the word, the iteration that last read
/// it, and whether reads came from more than one iteration. A record
/// whose epoch is not the level's current one belongs to an earlier
/// instance and reads as [`EMPTY_REC`].
#[derive(Debug, Clone, Copy)]
struct AccessRec {
    epoch: u32,
    writer: u32,
    reader: u32,
    multi_reader: bool,
}

/// A word the current instance has not touched. Epoch 0 is never
/// current, so never-written words need no special case.
const EMPTY_REC: AccessRec = AccessRec {
    epoch: 0,
    writer: NO_ITER,
    reader: NO_ITER,
    multi_reader: false,
};

/// One witness nesting level: the per-word records every instance at
/// this level reuses, and the tallies of the instance now using them.
#[derive(Debug)]
pub(crate) struct WitnessLevel {
    /// Position of the instance on the profiler's loop stack.
    depth: usize,
    func: u32,
    loop_id: u32,
    /// Per-word records, tagged with the epoch of the instance that
    /// wrote them; kept across instances so deactivation frees nothing.
    words: PageTable<AccessRec>,
    /// The current instance's epoch (from 1; 0 marks untouched words).
    epoch: u32,
    /// Words whose record the current epoch created.
    distinct_words: u64,
    reads: u64,
    writes: u64,
    cactus_exempt: u64,
    violation: Option<WitnessViolation>,
}

impl WitnessLevel {
    fn new() -> WitnessLevel {
        WitnessLevel {
            depth: 0,
            func: 0,
            loop_id: 0,
            words: PageTable::new(EMPTY_REC),
            epoch: 0,
            distinct_words: 0,
            reads: 0,
            writes: 0,
            cactus_exempt: 0,
            violation: None,
        }
    }

    /// Starts a new instance at this level under a fresh epoch, which
    /// turns every record of earlier instances stale at once. Should the
    /// epoch run out, the records are dropped instead of letting an old
    /// epoch come back.
    fn begin(&mut self, depth: usize, func: u32, loop_id: u32) {
        self.epoch = match self.epoch.checked_add(1) {
            Some(epoch) => epoch,
            None => {
                self.words = PageTable::new(EMPTY_REC);
                1
            }
        };
        self.depth = depth;
        self.func = func;
        self.loop_id = loop_id;
        self.distinct_words = 0;
        self.reads = 0;
        self.writes = 0;
        self.cactus_exempt = 0;
        self.violation = None;
    }

    /// The instance's loop-stack position.
    pub(crate) fn depth(&self) -> usize {
        self.depth
    }

    /// Counts one cactus-exempt (iteration-local frame) access.
    pub(crate) fn note_exempt(&mut self) {
        self.cactus_exempt += 1;
    }

    /// Feeds one access from iteration `iter` through the disjointness
    /// check.
    pub(crate) fn observe(&mut self, addr: u64, iter: u32, is_store: bool) {
        if is_store {
            self.writes += 1;
        } else {
            self.reads += 1;
        }
        if self.violation.is_some() {
            return; // first violation already pinned; stay cheap
        }
        let mut rec = self.words.get(addr);
        if rec.epoch != self.epoch {
            rec = AccessRec {
                epoch: self.epoch,
                ..EMPTY_REC
            };
            self.distinct_words += 1;
        }
        if is_store {
            if rec.writer != NO_ITER && rec.writer != iter {
                self.violation = Some(WitnessViolation {
                    addr,
                    earlier_iter: rec.writer,
                    later_iter: iter,
                    kind: ConflictKind::WriteWrite,
                });
                return;
            }
            if rec.reader != NO_ITER && (rec.multi_reader || rec.reader != iter) {
                // Some reader iteration differs from the writer.
                let earlier = if rec.reader == iter { 0 } else { rec.reader };
                self.violation = Some(WitnessViolation {
                    addr,
                    earlier_iter: earlier,
                    later_iter: iter,
                    kind: ConflictKind::ReadWrite,
                });
                return;
            }
            rec.writer = iter;
        } else {
            if rec.writer != NO_ITER && rec.writer != iter {
                self.violation = Some(WitnessViolation {
                    addr,
                    earlier_iter: rec.writer,
                    later_iter: iter,
                    kind: ConflictKind::ReadWrite,
                });
                return;
            }
            if rec.reader == NO_ITER {
                rec.reader = iter;
            } else if rec.reader != iter {
                rec.multi_reader = true;
                rec.reader = iter;
            }
        }
        self.words.set(addr, rec);
    }
}

/// The witness engine the profiler drives: which loops to watch, the
/// currently-active instances, and the finished evidence.
#[derive(Debug, Default)]
pub(crate) struct WitnessState {
    /// Target loops, sorted for binary search.
    targets: Vec<(u32, u32)>,
    /// Every witness nesting level reached so far, outermost first; the
    /// first `active` hold the live instances, innermost last (stack
    /// discipline mirrors the profiler's loop stack).
    levels: Vec<WitnessLevel>,
    active: usize,
    done: Vec<IndependenceWitness>,
}

impl WitnessState {
    pub(crate) fn new(targets: &[(FuncId, LoopId)]) -> WitnessState {
        let mut targets: Vec<(u32, u32)> = targets.iter().map(|&(f, l)| (f.0, l.0)).collect();
        targets.sort_unstable();
        targets.dedup();
        WitnessState {
            targets,
            levels: Vec::new(),
            active: 0,
            done: Vec::new(),
        }
    }

    pub(crate) fn is_target(&self, func: u32, loop_id: u32) -> bool {
        self.targets.binary_search(&(func, loop_id)).is_ok()
    }

    /// Whether any instance is currently being tracked (fast-path gate).
    pub(crate) fn any_active(&self) -> bool {
        self.active > 0
    }

    /// Starts tracking the instance just pushed at `depth`.
    pub(crate) fn activate(&mut self, depth: usize, func: u32, loop_id: u32) {
        if self.active == self.levels.len() {
            self.levels.push(WitnessLevel::new());
        }
        self.levels[self.active].begin(depth, func, loop_id);
        self.active += 1;
    }

    /// Mutable view of the active instances (the profiler pairs each
    /// with its loop-stack level when feeding accesses).
    pub(crate) fn active_mut(&mut self) -> &mut [WitnessLevel] {
        &mut self.levels[..self.active]
    }

    /// Finishes the instance at loop-stack position `depth` (the one the
    /// profiler just popped), if it was tracked. Its records stay in
    /// place: the level's next instance takes a new epoch.
    pub(crate) fn deactivate(&mut self, depth: usize, iterations: u32) {
        if self.active == 0 || self.levels[self.active - 1].depth != depth {
            return;
        }
        self.active -= 1;
        let aw = &self.levels[self.active];
        self.done.push(IndependenceWitness {
            func: FuncId(aw.func),
            loop_id: LoopId(aw.loop_id),
            iterations,
            distinct_words: aw.distinct_words,
            reads: aw.reads,
            writes: aw.writes,
            cactus_exempt: aw.cactus_exempt,
            violation: aw.violation,
        });
    }

    /// Record pages allocated over the run, summed over every level.
    pub(crate) fn pages(&self) -> u64 {
        self.levels.iter().map(|aw| aw.words.pages()).sum()
    }

    pub(crate) fn into_report(self) -> WitnessReport {
        debug_assert!(self.active == 0, "witness instances left open");
        WitnessReport {
            witnesses: self.done,
        }
    }
}

/// Profiles `module` while gathering independence witnesses for
/// `targets`, returning the profile, the run result, and the evidence.
///
/// # Errors
/// Propagates interpreter traps.
pub fn profile_module_witnessed(
    module: &Module,
    analysis: &ModuleAnalysis,
    args: &[Value],
    machine_config: MachineConfig,
    targets: &[(FuncId, LoopId)],
) -> Result<(Profile, RunResult, WitnessReport), InterpError> {
    let unit = ExecUnit::with_engine(module, machine_config.engine);
    let (profile, result, _, report) =
        witnessed_run(&unit, analysis, args, machine_config, targets)?;
    Ok((profile, result, report))
}

/// [`profile_module_witnessed`] on the caller's [`ExecUnit`] (so the
/// module is compiled once), also returning the final memory image. The
/// run is serial and unreplayed, and its sink only observes, so its
/// result and memory are those of a plain run: replay uses them as its
/// serial reference.
pub(crate) fn witnessed_run(
    unit: &ExecUnit<'_>,
    analysis: &ModuleAnalysis,
    args: &[Value],
    mut machine_config: MachineConfig,
    targets: &[(FuncId, LoopId)],
) -> Result<(Profile, RunResult, Memory, WitnessReport), InterpError> {
    let t0 = lp_obs::registry().now_ns();
    let mut profiler = Profiler::new(unit.module(), analysis);
    profiler.enable_witness(targets);
    machine_config.watched_values = profiler.watched_values();
    let mut metered = MeteredSink::new(&mut profiler);
    let out = Exec::new(unit)
        .sink(&mut metered)
        .config(machine_config)
        .keep_memory(true)
        .run(args);
    record_profiling_run(metered.counts(), t0);
    let out = out?;
    let (profile, report) = profiler.finish_with_witness();
    let memory = out.memory.expect("keep_memory was requested");
    Ok((profile, out.result, memory, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use lp_analysis::analyze_module;
    use lp_ir::builder::FunctionBuilder;
    use lp_ir::{BlockId, Global, IcmpPred, Type};

    const GLOBAL: u64 = lp_interp::GLOBAL_BASE;

    /// `for i in 0..n { a[i] = i; extra(i) }` — `extra` injects the
    /// hazard under test.
    fn kernel(extra: impl FnOnce(&mut FunctionBuilder, lp_ir::ValueId, lp_ir::ValueId)) -> Module {
        let mut m = Module::new("w");
        let g = m.add_global(Global::zeroed("a", 64));
        let mut fb = FunctionBuilder::new("main", &[], Type::I64);
        let n = fb.const_i64(32);
        let zero = fb.const_i64(0);
        let one = fb.const_i64(1);
        let base = fb.global_addr(g);
        let header = fb.create_block("header");
        let body = fb.create_block("body");
        let exit = fb.create_block("exit");
        fb.br(header);
        fb.switch_to(header);
        let i = fb.phi(Type::I64);
        let c = fb.icmp(IcmpPred::Slt, i, n);
        fb.cond_br(c, body, exit);
        fb.switch_to(body);
        let addr = fb.gep(base, i, 8, 0);
        fb.store(i, addr);
        extra(&mut fb, base, i);
        let i2 = fb.add(i, one);
        fb.add_phi_incoming(i, BlockId::ENTRY, zero);
        fb.add_phi_incoming(i, body, i2);
        fb.br(header);
        fb.switch_to(exit);
        fb.ret(Some(zero));
        m.add_function(fb.finish().unwrap());
        m
    }

    fn witness(m: &Module) -> (Profile, WitnessReport) {
        let analysis = analyze_module(m);
        let targets = vec![(lp_ir::FuncId(0), LoopId(0))];
        let (p, _, r) =
            profile_module_witnessed(m, &analysis, &[], MachineConfig::default(), &targets)
                .unwrap();
        (p, r)
    }

    #[test]
    fn disjoint_stores_produce_a_holding_witness() {
        let m = kernel(|_, _, _| {});
        let (_, report) = witness(&m);
        assert_eq!(report.witnesses.len(), 1);
        let w = &report.witnesses[0];
        assert!(w.holds());
        assert_eq!(w.iterations, 32);
        assert_eq!(w.distinct_words, 32);
        assert_eq!(w.writes, 32);
        assert!(report.loop_holds(lp_ir::FuncId(0), LoopId(0)));
    }

    #[test]
    fn waw_only_conflict_is_caught_despite_clean_raw_profile() {
        // Every iteration also stores to a[0]: no load ever observes the
        // cross-iteration flow, so the RAW profiler sees nothing — but
        // the footprints overlap and replay would be nondeterministic.
        let m = kernel(|fb, base, i| {
            fb.store(i, base);
        });
        let (profile, report) = witness(&m);
        let (_, _, inst) = profile.loop_instances().next().unwrap();
        assert!(
            inst.mem_conflict_iters.is_empty(),
            "RAW profiling must stay blind to the WAW hazard"
        );
        assert!(!report.loop_holds(lp_ir::FuncId(0), LoopId(0)));
        let v = report
            .first_violation(lp_ir::FuncId(0), LoopId(0))
            .unwrap()
            .violation
            .unwrap();
        assert_eq!(v.kind, ConflictKind::WriteWrite);
        assert_eq!((v.earlier_iter, v.later_iter), (0, 1));
        assert_eq!(v.addr, lp_interp::GLOBAL_BASE);
    }

    #[test]
    fn cross_iteration_read_write_is_caught() {
        // Iteration i reads a[i] *then* writes it — self-overlap is fine —
        // but also reads a[0], which iteration 0 wrote.
        let m = kernel(|fb, base, _| {
            fb.load(Type::I64, base);
        });
        let (_, report) = witness(&m);
        let v = report
            .first_violation(lp_ir::FuncId(0), LoopId(0))
            .unwrap()
            .violation
            .unwrap();
        assert_eq!(v.kind, ConflictKind::ReadWrite);
        assert_eq!(v.addr, lp_interp::GLOBAL_BASE);
    }

    #[test]
    fn shared_reads_do_not_violate() {
        // Every iteration reads the same loop-invariant cell (a[63],
        // never written inside the loop): read–read sharing is allowed.
        let m = kernel(|fb, base, _| {
            let k = fb.const_i64(63);
            let addr = fb.gep(base, k, 8, 0);
            fb.load(Type::I64, addr);
        });
        let (_, report) = witness(&m);
        assert!(report.loop_holds(lp_ir::FuncId(0), LoopId(0)));
        assert_eq!(report.witnesses[0].reads, 32);
    }

    #[test]
    fn level_records_go_stale_across_instances_and_epoch_exhaustion() {
        let target = [(lp_ir::FuncId(0), LoopId(0))];
        let mut state = WitnessState::new(&target);
        let (a, b, c) = (GLOBAL, GLOBAL + 8, GLOBAL + 16);
        // One instance at level 0 storing to `words` from iteration 1.
        let instance = |state: &mut WitnessState, words: &[u64]| {
            state.activate(0, 0, 0);
            for &w in words {
                state.active_mut()[0].observe(w, 1, true);
            }
            state.deactivate(0, 2);
        };
        // Epoch 1 leaves a record on `a`, epoch 2 one on `b`; the second
        // instance's store to `a` is a first touch, not a conflict.
        state.activate(0, 0, 0);
        state.active_mut()[0].observe(a, 0, true);
        state.deactivate(0, 1);
        instance(&mut state, &[a, b]);
        assert_eq!(state.levels.len(), 1, "the level's table is reused");
        assert_eq!(state.levels[0].epoch, 2);
        // Out of epochs: wrapping to 1 would revive `a`'s epoch-1 record
        // (a write-write conflict with iteration 0), and wrapping to 0
        // would make the untouched `c` look touched. The level starts
        // over instead.
        state.levels[0].epoch = u32::MAX;
        instance(&mut state, &[a, c]);
        assert_eq!(state.levels[0].epoch, 1);
        assert_eq!(state.pages(), 1);
        let report = state.into_report();
        let words: Vec<_> = report.witnesses.iter().map(|w| w.distinct_words).collect();
        assert_eq!(words, [1, 2, 2]);
        assert!(report.witnesses.iter().all(IndependenceWitness::holds));
    }

    #[test]
    fn untargeted_loops_are_ignored() {
        let m = kernel(|fb, base, i| {
            fb.store(i, base); // would violate, but nobody is watching
        });
        let analysis = analyze_module(&m);
        let (_, _, report) =
            profile_module_witnessed(&m, &analysis, &[], MachineConfig::default(), &[]).unwrap();
        assert!(report.witnesses.is_empty());
        assert!(!report.loop_holds(lp_ir::FuncId(0), LoopId(0)));
    }
}
