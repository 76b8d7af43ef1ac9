//! Parallel DOALL replay orchestration: certify, witness, execute on
//! real threads, and differentially validate every prediction.
//!
//! The limit study's numbers are *predictions* — cost-model folds over a
//! profile. This module closes the loop by actually executing certified
//! DOALL loops across worker threads and byte-comparing the outcome
//! against the serial run. Per module, [`replay_module`] runs the
//! five-stage pipeline:
//!
//! 1. **Static certification** — `lp_analysis::certify` selects loops
//!    whose shape guarantees the replay mechanism works (closed-form
//!    phis, pure single-exit header, no frame growth or unsafe
//!    builtins).
//! 2. **Witnessed profiling** — one profiled run gathers, per certified
//!    loop instance, an [`IndependenceWitness`](crate::witness) checking
//!    all iteration footprints pairwise-disjoint. Loops whose witness
//!    fails (or that never executed) are rejected *before any parallel
//!    execution* — this is what catches a WAW-only false DOALL that RAW
//!    profiling cannot see.
//! 3. **Serial reference** — the same witnessed run: it is serial and
//!    unreplayed, and its sink only observes, so it also records the
//!    final memory image, captured output, return value, and exact
//!    dynamic cost that the replayed runs must reproduce.
//! 4. **Replayed runs** — the interpreter re-runs the program twice with
//!    the surviving loops' [`ReplayPlan`]s armed: once with one worker
//!    (the timing baseline) and once with `jobs` workers, chunks run on
//!    scoped threads by [`ThreadedExec`], which wall-clocks every
//!    replayed loop.
//! 5. **Differential validation** — both replayed runs must match the
//!    serial reference byte-for-byte: final global/heap memory (first
//!    differing address reported), captured output, return value, and
//!    dynamic cost. Any mismatch is a hard divergence naming the loop
//!    (bisected by re-running with single-loop plans) — never a silent
//!    wrong answer.
//!
//! Stages 2, 4 and 5 record `lp_obs` spans nested under `replay`:
//! `replay-witness`, one `replay-run` per replayed run (bisect re-runs
//! included), and one `replay-compare` per comparison, so a Chrome trace
//! (`--trace-out`) shows where replay time went.
//!
//! Alongside the measured speedup (serial wall time of the loop's chunk
//! execution over its parallel wall time), each loop reports the limit
//! study's *predicted* DOALL speedup for the same profile, so
//! `lpstudy replay` renders a measured-vs-predicted table per suite.

use crate::config::{Config, DepMode, ExecModel, FnMode, ReducMode};
use crate::eval::evaluate;
use crate::export::Export;
use crate::sweep::Jobs;
use crate::witness::{witnessed_run, WitnessViolation};
use lp_analysis::{analyze_module, certify_module, CertifiedLoop};
use lp_interp::{
    run_chunk, ChunkOut, ChunkRequest, Engine, Exec, ExecUnit, InterpError, MachineConfig,
    ParallelExec, ReplayPlan, Value,
};
use lp_ir::fx::FxHashMap;
use lp_ir::{BlockId, Module};
use lp_obs::{span, Counter, JsonWriter};
use std::sync::Mutex;

/// Chunk executor on scoped threads: runs each replayed loop's chunks one
/// apiece, the first on the calling thread and the rest on spawned ones
/// (the machine already carved the loop into at most `plan.jobs()`
/// chunks), and wall-clocks each replay, accumulating nanoseconds per
/// `(func, header)`. It journals nothing: a replayed loop is not a sweep.
#[derive(Debug, Default)]
pub struct ThreadedExec {
    elapsed_ns: Mutex<FxHashMap<(u32, u32), u64>>,
}

impl ThreadedExec {
    /// Accumulated wall time spent replaying `(func, header)`, in
    /// nanoseconds (0 if the loop was never replayed).
    #[must_use]
    pub fn loop_ns(&self, func: u32, header: u32) -> u64 {
        self.elapsed_ns
            .lock()
            .expect("timing lock")
            .get(&(func, header))
            .copied()
            .unwrap_or(0)
    }
}

impl ParallelExec for ThreadedExec {
    fn run_chunks(&self, req: ChunkRequest<'_>) -> Result<Vec<ChunkOut>, InterpError> {
        let reg = lp_obs::registry();
        let t0 = reg.now_ns();
        let outs: Vec<Result<ChunkOut, InterpError>> = match req.chunks.split_first() {
            None => Vec::new(),
            Some((first, rest)) => std::thread::scope(|scope| {
                let req = &req;
                let spawned: Vec<_> = rest
                    .iter()
                    .map(|c| scope.spawn(move || run_chunk(req, c)))
                    .collect();
                std::iter::once(run_chunk(req, first))
                    .chain(
                        spawned
                            .into_iter()
                            .map(|h| h.join().expect("replay chunk worker panicked")),
                    )
                    .collect()
            }),
        };
        let elapsed = reg.now_ns().saturating_sub(t0);
        let key = (req.cert.func.0, req.cert.header.index() as u32);
        *self
            .elapsed_ns
            .lock()
            .expect("timing lock")
            .entry(key)
            .or_insert(0) += elapsed;
        outs.into_iter().collect()
    }
}

/// Why a statically-certified loop was refused replay.
#[derive(Debug, Clone)]
pub enum RejectReason {
    /// The independence witness found overlapping iteration footprints.
    Violation(WitnessViolation),
    /// The profiled run never entered the loop, so there is no witness
    /// (the observed-independence gate requires at least one instance).
    NeverExecuted,
}

/// A certified loop the witness gate kept off the threads.
#[derive(Debug, Clone)]
pub struct RejectedLoop {
    /// Containing function's name.
    pub func_name: String,
    /// Loop header.
    pub header: BlockId,
    /// Why it was rejected.
    pub reason: RejectReason,
}

/// Measured-vs-predicted record for one replayed loop.
#[derive(Debug, Clone)]
pub struct LoopReplay {
    /// Containing function's name.
    pub func_name: String,
    /// Loop header.
    pub header: BlockId,
    /// Loop instances observed by the witness run.
    pub instances: u64,
    /// Completed iterations across those instances.
    pub iterations: u64,
    /// Limit-study predicted DOALL speedup for this loop (infinite
    /// processors; from `evaluate` on the same profile).
    pub predicted_speedup: f64,
    /// Wall time of the loop's chunk execution in the 1-worker replay.
    pub serial_ns: u64,
    /// Wall time of the loop's chunk execution in the N-worker replay.
    pub parallel_ns: u64,
}

impl LoopReplay {
    /// Measured speedup: serial chunk wall time over parallel chunk wall
    /// time (1.0 when the loop was never replayed at run time).
    #[must_use]
    pub fn measured_speedup(&self) -> f64 {
        if self.serial_ns == 0 || self.parallel_ns == 0 {
            1.0
        } else {
            self.serial_ns as f64 / self.parallel_ns as f64
        }
    }
}

/// What diverged between a replayed run and the serial reference.
#[derive(Debug, Clone)]
pub enum DivergenceKind {
    /// First differing word of the final global/heap memory image.
    Memory {
        /// Address of the first differing word (lowest address).
        addr: u64,
        /// The serial run's word.
        expected: u64,
        /// The replayed run's word.
        actual: u64,
    },
    /// The entry function returned a different value.
    Ret {
        /// Serial return value.
        expected: Value,
        /// Replayed return value.
        actual: Value,
    },
    /// Captured output differs, first at this 0-based line.
    Output {
        /// Index of the first differing (or missing) line.
        line: usize,
    },
    /// Dynamic IR cost drifted (the replay mechanism's exact-cost
    /// invariant was broken).
    Cost {
        /// Serial cost.
        expected: u64,
        /// Replayed cost.
        actual: u64,
    },
}

/// A hard replay failure: some replayed run did not reproduce the serial
/// execution.
#[derive(Debug, Clone)]
pub struct Divergence {
    /// Worker count of the diverging run.
    pub jobs: usize,
    /// The loop responsible, bisected by single-loop re-runs (`None`
    /// when only a combination of loops reproduces the mismatch).
    pub loop_name: Option<String>,
    /// The first observed mismatch.
    pub kind: DivergenceKind,
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let at = self.loop_name.as_deref().unwrap_or("<combination>");
        match &self.kind {
            DivergenceKind::Memory {
                addr,
                expected,
                actual,
            } => write!(
                f,
                "loop {at}: memory diverges at {addr:#x} (serial {expected:#x}, replay {actual:#x}, jobs {})",
                self.jobs
            ),
            DivergenceKind::Ret { expected, actual } => write!(
                f,
                "loop {at}: return value diverges (serial {expected:?}, replay {actual:?}, jobs {})",
                self.jobs
            ),
            DivergenceKind::Output { line } => write!(
                f,
                "loop {at}: output diverges at line {line} (jobs {})",
                self.jobs
            ),
            DivergenceKind::Cost { expected, actual } => write!(
                f,
                "loop {at}: dynamic cost diverges (serial {expected}, replay {actual}, jobs {})",
                self.jobs
            ),
        }
    }
}

/// Full replay outcome for one module.
#[derive(Debug, Clone)]
pub struct BenchReplay {
    /// Benchmark (module) name.
    pub name: String,
    /// Requested worker count.
    pub jobs: usize,
    /// Loops that certified, passed the witness gate, and were replayed.
    pub loops: Vec<LoopReplay>,
    /// Statically-certified loops the witness gate rejected.
    pub rejected: Vec<RejectedLoop>,
    /// First divergence, if any replayed run failed validation.
    pub divergence: Option<Divergence>,
}

/// The DOALL-limit configuration used for per-loop predictions:
/// reductions decoupled, no value prediction, every call parallel —
/// matching what certification lets the replayer execute.
#[must_use]
pub fn prediction_config() -> Config {
    Config::new(ReducMode::Reduc1, DepMode::Dep0, FnMode::Fn3)
}

/// One replayed execution with `loops` armed on `jobs` workers.
fn run_with_plan(
    unit: &ExecUnit<'_>,
    loops: Vec<CertifiedLoop>,
    jobs: usize,
    args: &[Value],
    config: &MachineConfig,
) -> Result<(lp_interp::RunResult, lp_interp::Memory, ThreadedExec), InterpError> {
    let _s = span!("replay-run");
    let plan = ReplayPlan::new(loops, jobs);
    let exec = ThreadedExec::default();
    let out = Exec::new(unit)
        .config(config.clone())
        .keep_memory(true)
        .replay(&plan, &exec)
        .run(args)?;
    let memory = out.memory.expect("keep_memory was requested");
    Ok((out.result, memory, exec))
}

/// Compares one replayed run against the serial reference, returning the
/// first mismatch.
fn compare(
    serial: &lp_interp::RunResult,
    serial_mem: &lp_interp::Memory,
    replay: &lp_interp::RunResult,
    replay_mem: &lp_interp::Memory,
) -> Option<DivergenceKind> {
    let _s = span!("replay-compare");
    if let Some((addr, expected, actual)) = serial_mem.first_difference(replay_mem) {
        return Some(DivergenceKind::Memory {
            addr,
            expected,
            actual,
        });
    }
    if serial.ret != replay.ret {
        return Some(DivergenceKind::Ret {
            expected: serial.ret,
            actual: replay.ret,
        });
    }
    if serial.output != replay.output {
        let line = serial
            .output
            .iter()
            .zip(&replay.output)
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| serial.output.len().min(replay.output.len()));
        return Some(DivergenceKind::Output { line });
    }
    if serial.cost != replay.cost {
        return Some(DivergenceKind::Cost {
            expected: serial.cost,
            actual: replay.cost,
        });
    }
    None
}

/// Bisects a divergence to a single loop by re-running with one-loop
/// plans (`plans` pairs each loop with its display name); returns the
/// first loop that reproduces a mismatch on its own.
fn bisect_culprit(
    unit: &ExecUnit<'_>,
    plans: &[(&CertifiedLoop, String)],
    jobs: usize,
    args: &[Value],
    config: &MachineConfig,
    serial: &lp_interp::RunResult,
    serial_mem: &lp_interp::Memory,
) -> Option<String> {
    for (cert, name) in plans {
        let Ok((res, mem, _)) = run_with_plan(unit, vec![(*cert).clone()], jobs, args, config)
        else {
            return Some(name.clone());
        };
        if compare(serial, serial_mem, &res, &mem).is_some() {
            return Some(name.clone());
        }
    }
    None
}

/// Runs the full certify → witness → replay → validate pipeline on one
/// module. See the module docs for the stages.
///
/// # Errors
/// Propagates interpreter traps from the profiled, serial, or replayed
/// runs. A *divergence* is not an error — it is reported in
/// [`BenchReplay::divergence`] (and counted on
/// [`Counter::ReplayDivergences`]) so the caller can fail loudly with
/// full context.
///
/// # Panics
/// Panics if a certified loop's metadata is missing from the profile
/// (would indicate an analysis/profiler disagreement).
pub fn replay_module(
    module: &Module,
    args: &[Value],
    jobs: Jobs,
) -> Result<BenchReplay, InterpError> {
    replay_module_with(module, args, jobs, Engine::default())
}

/// As [`replay_module`] with an explicit top-level [`Engine`].
///
/// The engine drives the witnessed run (which is also the serial
/// reference) and the replayed top-level runs; replay chunk *workers*
/// always execute the bytecode dispatch loop, entered at the loop
/// header (a tree run compiles the module once for them).
///
/// # Errors
/// See [`replay_module`].
///
/// # Panics
/// See [`replay_module`].
pub fn replay_module_with(
    module: &Module,
    args: &[Value],
    jobs: Jobs,
    engine: Engine,
) -> Result<BenchReplay, InterpError> {
    let _span = span!("replay");
    let analysis = analyze_module(module);
    let candidates = certify_module(module, &analysis);
    let targets: Vec<_> = candidates.iter().map(|c| (c.func, c.loop_id)).collect();

    let base_config = MachineConfig {
        capture_output: true,
        engine,
        ..MachineConfig::default()
    };
    let unit = ExecUnit::with_engine(module, engine);
    // The witnessed run doubles as the serial reference: it is serial and
    // unreplayed, and the profiler sink only observes.
    let (profile, serial, serial_mem, witness) = {
        let _s = span!("replay-witness");
        witnessed_run(&unit, &analysis, args, base_config.clone(), &targets)?
    };

    // Witness gate: at least one observed instance, all footprints
    // disjoint. Rejected loops never reach a thread.
    let mut gated: Vec<CertifiedLoop> = Vec::new();
    let mut rejected: Vec<RejectedLoop> = Vec::new();
    for c in candidates {
        let func_name = module.function(c.func).name.clone();
        if witness.loop_holds(c.func, c.loop_id) {
            gated.push(c);
        } else {
            let reason = witness
                .first_violation(c.func, c.loop_id)
                .and_then(|w| w.violation)
                .map_or(RejectReason::NeverExecuted, RejectReason::Violation);
            rejected.push(RejectedLoop {
                func_name,
                header: c.header,
                reason,
            });
        }
    }
    let counters = lp_obs::counters();
    counters.add(Counter::ReplayLoopsCertified, gated.len() as u64);
    counters.add(
        Counter::ReplayWitnessRejected,
        rejected
            .iter()
            .filter(|r| matches!(r.reason, RejectReason::Violation(_)))
            .count() as u64,
    );

    // Replayed runs: 1 worker (timing baseline), then `jobs` workers.
    let plans: Vec<(&CertifiedLoop, String)> = gated
        .iter()
        .map(|c| (c, format!("{}:{}", module.function(c.func).name, c.header)))
        .collect();
    let (res1, mem1, exec1) = run_with_plan(&unit, gated.clone(), 1, args, &base_config)?;
    let (res_n, mem_n, exec_n) =
        run_with_plan(&unit, gated.clone(), jobs.get(), args, &base_config)?;

    let mut divergence = None;
    for (run_jobs, res, mem) in [(1usize, &res1, &mem1), (jobs.get(), &res_n, &mem_n)] {
        if divergence.is_some() {
            break;
        }
        if let Some(kind) = compare(&serial, &serial_mem, res, mem) {
            let loop_name = bisect_culprit(
                &unit,
                &plans,
                run_jobs,
                args,
                &base_config,
                &serial,
                &serial_mem,
            );
            divergence = Some(Divergence {
                jobs: run_jobs,
                loop_name,
                kind,
            });
        }
    }
    if divergence.is_some() {
        counters.add(Counter::ReplayDivergences, 1);
    }

    // Measured vs predicted per surviving loop.
    let prediction = evaluate(&profile, ExecModel::Doall, prediction_config());
    let loops = gated
        .iter()
        .map(|c| {
            let func_name = module.function(c.func).name.clone();
            let (instances, iterations) = witness
                .witnesses
                .iter()
                .filter(|w| w.func == c.func && w.loop_id == c.loop_id)
                .fold((0u64, 0u64), |(n, it), w| {
                    (n + 1, it + u64::from(w.iterations))
                });
            let predicted_speedup = prediction
                .loops
                .iter()
                .find(|l| l.func_name == func_name && l.header == c.header)
                .map_or(1.0, crate::eval::LoopSummary::speedup);
            LoopReplay {
                func_name,
                header: c.header,
                instances,
                iterations,
                predicted_speedup,
                serial_ns: exec1.loop_ns(c.func.0, c.header.index() as u32),
                parallel_ns: exec_n.loop_ns(c.func.0, c.header.index() as u32),
            }
        })
        .collect();

    Ok(BenchReplay {
        name: module.name.clone(),
        jobs: jobs.get(),
        loops,
        rejected,
        divergence,
    })
}

/// The `lp-replay-v1` document: per-benchmark replay outcomes plus
/// run-wide totals. Timing-derived fields (`serial_ns`, `parallel_ns`,
/// `measured_speedup`) are wall-clock and therefore *not* byte-stable
/// across runs; schema consumers must treat them as opaque numbers (the
/// golden test compares structure, not values).
#[derive(Debug, Clone, Copy)]
pub struct ReplayExport<'a> {
    /// Suite label the benchmarks came from.
    pub suite: &'a str,
    /// Requested worker count.
    pub jobs: usize,
    /// Per-benchmark outcomes.
    pub benches: &'a [BenchReplay],
}

impl Export for ReplayExport<'_> {
    fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object();
        w.key("format");
        w.string("lp-replay-v1");
        w.key("suite");
        w.string(self.suite);
        w.key("jobs");
        w.uint(self.jobs as u64);
        w.key("benchmarks");
        w.begin_array();
        for b in self.benches {
            w.begin_object();
            w.key("name");
            w.string(&b.name);
            w.key("loops");
            w.begin_array();
            for l in &b.loops {
                w.begin_object();
                w.key("function");
                w.string(&l.func_name);
                w.key("header");
                w.string(&l.header.to_string());
                w.key("instances");
                w.uint(l.instances);
                w.key("iterations");
                w.uint(l.iterations);
                w.key("predicted_speedup");
                w.fixed(l.predicted_speedup, 3);
                w.key("measured_speedup");
                w.fixed(l.measured_speedup(), 3);
                w.key("serial_ns");
                w.uint(l.serial_ns);
                w.key("parallel_ns");
                w.uint(l.parallel_ns);
                w.end_object();
            }
            w.end_array();
            w.key("rejected");
            w.begin_array();
            for r in &b.rejected {
                w.begin_object();
                w.key("function");
                w.string(&r.func_name);
                w.key("header");
                w.string(&r.header.to_string());
                match &r.reason {
                    RejectReason::Violation(v) => {
                        w.key("reason");
                        w.string("witness-violation");
                        w.key("kind");
                        w.string(v.kind.tag());
                        w.key("addr");
                        w.uint(v.addr);
                        w.key("earlier_iter");
                        w.uint(u64::from(v.earlier_iter));
                        w.key("later_iter");
                        w.uint(u64::from(v.later_iter));
                    }
                    RejectReason::NeverExecuted => {
                        w.key("reason");
                        w.string("never-executed");
                    }
                }
                w.end_object();
            }
            w.end_array();
            w.key("divergence");
            match &b.divergence {
                None => w.null(),
                Some(d) => w.string(&d.to_string()),
            }
            w.end_object();
        }
        w.end_array();
        w.key("totals");
        w.begin_object();
        w.key("loops_certified");
        w.uint(self.benches.iter().map(|b| b.loops.len() as u64).sum());
        w.key("witness_rejected");
        w.uint(
            self.benches
                .iter()
                .flat_map(|b| &b.rejected)
                .filter(|r| matches!(r.reason, RejectReason::Violation(_)))
                .count() as u64,
        );
        w.key("divergences");
        w.uint(
            self.benches
                .iter()
                .filter(|b| b.divergence.is_some())
                .count() as u64,
        );
        w.end_object();
        w.end_object();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lp_ir::builder::FunctionBuilder;
    use lp_ir::{Global, IcmpPred, Type};

    /// `a[i] = i*3` for i in 0..64, returning the sum via a reduction.
    fn fill_and_sum() -> Module {
        let mut m = Module::new("fill_and_sum");
        let g = m.add_global(Global::zeroed("a", 64));
        let mut fb = FunctionBuilder::new("main", &[], Type::I64);
        let n = fb.const_i64(64);
        let zero = fb.const_i64(0);
        let one = fb.const_i64(1);
        let three = fb.const_i64(3);
        let base = fb.global_addr(g);
        let header = fb.create_block("header");
        let body = fb.create_block("body");
        let exit = fb.create_block("exit");
        fb.br(header);
        fb.switch_to(header);
        let i = fb.phi(Type::I64);
        let s = fb.phi(Type::I64);
        let c = fb.icmp(IcmpPred::Slt, i, n);
        fb.cond_br(c, body, exit);
        fb.switch_to(body);
        let v = fb.mul(i, three);
        let addr = fb.gep(base, i, 8, 0);
        fb.store(v, addr);
        let s2 = fb.add(s, v);
        let i2 = fb.add(i, one);
        fb.add_phi_incoming(i, lp_ir::BlockId::ENTRY, zero);
        fb.add_phi_incoming(i, body, i2);
        fb.add_phi_incoming(s, lp_ir::BlockId::ENTRY, zero);
        fb.add_phi_incoming(s, body, s2);
        fb.br(header);
        fb.switch_to(exit);
        fb.ret(Some(s));
        m.add_function(fb.finish().unwrap());
        m
    }

    /// Statically certifiable, RAW-clean, but WAW-unsafe: every
    /// iteration also stores to `a[0]`.
    fn false_doall() -> Module {
        let mut m = Module::new("false_doall");
        let g = m.add_global(Global::zeroed("a", 64));
        let mut fb = FunctionBuilder::new("main", &[], Type::I64);
        let n = fb.const_i64(64);
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
        fb.store(i, base); // hidden cross-iteration WAW
        let i2 = fb.add(i, one);
        fb.add_phi_incoming(i, lp_ir::BlockId::ENTRY, zero);
        fb.add_phi_incoming(i, body, i2);
        fb.br(header);
        fb.switch_to(exit);
        fb.ret(Some(zero));
        m.add_function(fb.finish().unwrap());
        m
    }

    #[test]
    fn clean_kernel_replays_without_divergence() {
        let m = fill_and_sum();
        for jobs in [1, 2, 8] {
            let r = replay_module(&m, &[], Jobs::new(jobs)).unwrap();
            assert!(r.divergence.is_none(), "jobs={jobs}: {:?}", r.divergence);
            assert_eq!(r.loops.len(), 1, "jobs={jobs}");
            assert!(r.rejected.is_empty());
            let l = &r.loops[0];
            assert_eq!(l.instances, 1);
            assert_eq!(l.iterations, 64);
            assert!(l.predicted_speedup > 1.0);
            assert!(l.serial_ns > 0 && l.parallel_ns > 0);
        }
    }

    #[test]
    fn false_doall_is_rejected_by_witness_not_executed() {
        let m = false_doall();
        let r = replay_module(&m, &[], Jobs::new(4)).unwrap();
        assert!(r.loops.is_empty(), "must not replay: {:?}", r.loops);
        assert_eq!(r.rejected.len(), 1);
        assert!(matches!(
            r.rejected[0].reason,
            RejectReason::Violation(WitnessViolation {
                kind: crate::witness::ConflictKind::WriteWrite,
                ..
            })
        ));
        assert!(r.divergence.is_none());
    }

    #[test]
    fn replay_export_is_valid_json() {
        let m = fill_and_sum();
        let r = replay_module(&m, &[], Jobs::new(2)).unwrap();
        let benches = vec![r];
        let doc = ReplayExport {
            suite: "adhoc",
            jobs: 2,
            benches: &benches,
        };
        let json = doc.to_json();
        lp_obs::validate_json(&json).expect("lp-replay-v1 must be valid JSON");
        assert!(json.starts_with("{\"format\":\"lp-replay-v1\""), "{json}");
        assert!(json.contains("\"measured_speedup\""));
        assert!(json.contains("\"totals\""));
        assert!(json.contains("\"divergence\":null"));
    }
}
