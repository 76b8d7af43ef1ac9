//! Parallel DOALL replay: plans over certified loops, chunk
//! specifications, and the executor hook.
//!
//! The limit study predicts speedups; replay *executes* them. A loop
//! that the static classifier calls DOALL, whose profile shows no
//! cross-iteration memory flow, and whose independence witness checked
//! out (see `lp-runtime`) is planned here as its [`CertifiedLoop`],
//! exactly as certification emitted it. When the machine reaches that
//! loop's header from outside the loop, it
//!
//! 1. derives the trip count `N` by evaluating the header's pure
//!    instructions against closed-form induction values (no memory, no
//!    cost charged),
//! 2. splits `0..N` into balanced chunks via [`split_iterations`],
//! 3. seeds one register file per chunk — affine phis jump to
//!    `entry + lo·step`, reduction phis start from the entry value
//!    (first chunk) or the identity certification attached (the rest),
//! 4. hands the chunks to a [`ParallelExec`] implementation, which runs
//!    each on a worker machine over a clone of the parent memory with a
//!    write log armed: [`run_chunk`] enters the run's compiled bytecode
//!    at the header's pc with the seeded register file and runs the one
//!    dispatch loop until the chunk's last latch→header arrival (a
//!    tree-engine run compiles the module once for its chunks), and
//! 5. merges the logs back in chunk order, folds reduction partials in
//!    chunk order, and sets the exit phi values — then lets the header
//!    run once more so the loop exits through its ordinary compare.
//!
//! The split keeps `lp-interp` free of threading policy: the *mechanism*
//! (plans, chunk execution, deterministic merge) lives here, next to
//! the interpreter internals it needs, while the *policy* (worker
//! fan-out on scoped threads, witness gating, timing, export) lives in
//! `lp-runtime`. [`SerialExec`] is the degenerate in-process executor
//! used as the jobs=1 baseline and by unit tests.
//!
//! Cost accounting is exact: workers charge each iteration's header and
//! body once, the parent charges the final (exiting) header evaluation,
//! and the probe charges nothing — so a replayed run's dynamic IR cost
//! equals the serial run's, keeping the paper's cost model intact.

use crate::bytecode::CompiledModule;
use crate::machine::MachineConfig;
use crate::memory::Memory;
use crate::value::Value;
use crate::Result;
use lp_analysis::CertifiedLoop;
use lp_ir::{BlockId, FuncId, Module};

pub use crate::bytecode::run_chunk;

/// Splits an iteration space of `total` iterations into at most `parts`
/// contiguous, balanced, non-overlapping half-open ranges covering
/// `0..total` in order.
///
/// The first `total % parts` ranges get one extra iteration, so sizes
/// differ by at most one. The machine carves a certified DOALL loop's
/// trip count into per-worker chunks with it.
///
/// Degenerate inputs collapse gracefully: `total == 0` yields no ranges,
/// and `parts == 0` is treated as 1. When `total < parts` only `total`
/// singleton ranges are produced — never an empty range.
#[must_use]
pub fn split_iterations(total: u64, parts: usize) -> Vec<std::ops::Range<u64>> {
    let parts = (parts.max(1) as u64).min(total);
    let mut out = Vec::with_capacity(parts as usize);
    if parts == 0 {
        return out;
    }
    let base = total / parts;
    let extra = total % parts;
    let mut lo = 0u64;
    for k in 0..parts {
        let len = base + u64::from(k < extra);
        out.push(lo..lo + len);
        lo += len;
    }
    out
}

/// A set of certified loops plus the worker count — the machine
/// consults this at every header entry.
#[derive(Debug, Clone)]
pub struct ReplayPlan {
    loops: Vec<CertifiedLoop>,
    jobs: usize,
}

impl ReplayPlan {
    /// Builds a plan over `loops` with `jobs` workers (0 is treated
    /// as 1).
    #[must_use]
    pub fn new(loops: Vec<CertifiedLoop>, jobs: usize) -> ReplayPlan {
        ReplayPlan {
            loops,
            jobs: jobs.max(1),
        }
    }

    /// The loop planned at `(func, header)`, if any.
    #[must_use]
    pub fn loop_at(&self, func: FuncId, header: BlockId) -> Option<&CertifiedLoop> {
        self.loops
            .iter()
            .find(|c| c.func == func && c.header == header)
    }

    /// Requested worker count (≥ 1; the per-loop chunk count is further
    /// clamped to the trip count).
    #[must_use]
    pub fn jobs(&self) -> usize {
        self.jobs
    }
}

/// One worker's slice of a replayed loop.
#[derive(Debug, Clone)]
pub struct ChunkSpec {
    /// Chunk position in iteration order (merge order).
    pub index: usize,
    /// Number of iterations this chunk executes.
    pub iters: u64,
    /// Frame register file, pre-seeded: affine phis at the chunk's
    /// first iteration, reduction phis at the entry value (chunk 0) or
    /// the operator identity (later chunks); everything else is the
    /// parent frame's value at loop entry.
    pub regs: Vec<Value>,
}

/// What one chunk produced.
#[derive(Debug, Clone)]
pub struct ChunkOut {
    /// The chunk's [`ChunkSpec::index`].
    pub index: usize,
    /// Dynamic IR cost the chunk charged.
    pub cost: u64,
    /// `(addr, word)` writes in program order — the chunk's memory
    /// delta against the loop-entry image.
    pub log: Vec<(u64, u64)>,
    /// Final value of each header phi, in [`CertifiedLoop::phis`] order.
    pub phi_out: Vec<Value>,
}

/// Everything an executor needs to run one loop's chunks. The borrows
/// are all shared, so implementations may fan chunks out across scoped
/// threads.
#[derive(Debug)]
pub struct ChunkRequest<'m> {
    /// The program.
    pub module: &'m Module,
    /// The program's bytecode, compiled once per run; chunks execute on
    /// its dispatch loop.
    pub code: &'m CompiledModule,
    /// The loop being replayed.
    pub cert: &'m CertifiedLoop,
    /// Parent memory image at loop entry; every worker clones it.
    pub memory: &'m Memory,
    /// Worker machine configuration (remaining fuel and call depth).
    pub config: &'m MachineConfig,
    /// The chunks, in iteration order.
    pub chunks: Vec<ChunkSpec>,
}

/// Executor hook: `lp-runtime` implements this on scoped threads;
/// [`SerialExec`] runs chunks inline.
pub trait ParallelExec: std::fmt::Debug {
    /// Runs every chunk and returns their outputs in chunk order.
    ///
    /// # Errors
    /// Propagates the first chunk failure (trap, fuel exhaustion, or a
    /// chunk escaping its certified loop).
    fn run_chunks(&self, req: ChunkRequest<'_>) -> Result<Vec<ChunkOut>>;
}

/// In-process executor: runs chunks one at a time on the calling
/// thread. The jobs=1 baseline, and what unit tests use.
#[derive(Debug, Default, Clone, Copy)]
pub struct SerialExec;

impl ParallelExec for SerialExec {
    fn run_chunks(&self, req: ChunkRequest<'_>) -> Result<Vec<ChunkOut>> {
        req.chunks.iter().map(|c| run_chunk(&req, c)).collect()
    }
}

/// Replay control a machine carries in its one `Option` slot, checked
/// once per CFG edge: a top-level run's plan, or a chunk worker's bound.
/// A worker never has a plan armed, so nested loops inside a chunk run
/// serially.
#[derive(Debug, Clone, Copy)]
pub(crate) enum ReplayCtl<'a> {
    /// Certified loops in `plan` fan out through `exec`; their chunks
    /// run on `code`'s dispatch loop.
    Plan {
        plan: &'a ReplayPlan,
        exec: &'a dyn ParallelExec,
        code: &'a CompiledModule,
    },
    /// The frame at call depth `depth` is running `cert`'s blocks and
    /// stops after `left` more latch→header arrivals.
    Chunk {
        cert: &'a CertifiedLoop,
        depth: u32,
        left: u64,
    },
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::exec_bin;
    use lp_analysis::reduction_identity;
    use lp_ir::BinOp;

    #[test]
    fn split_iterations_covers_and_balances() {
        for total in [0u64, 1, 2, 3, 7, 8, 100, 101] {
            for parts in [0usize, 1, 2, 3, 8, 200] {
                let ranges = split_iterations(total, parts);
                // Exact cover, in order, no empty ranges.
                let mut next = 0u64;
                for r in &ranges {
                    assert_eq!(r.start, next, "{total}/{parts}");
                    assert!(r.end > r.start, "{total}/{parts}");
                    next = r.end;
                }
                assert_eq!(next, total, "{total}/{parts}");
                assert_eq!(ranges.len() as u64, (parts.max(1) as u64).min(total));
                // Balanced: sizes differ by at most one.
                if let (Some(min), Some(max)) = (
                    ranges.iter().map(|r| r.end - r.start).min(),
                    ranges.iter().map(|r| r.end - r.start).max(),
                ) {
                    assert!(max - min <= 1, "{total}/{parts}");
                }
            }
        }
    }

    /// Every `BinOp`, so a new operator cannot slip past the identity
    /// check below.
    const ALL_OPS: [BinOp; 18] = [
        BinOp::Add,
        BinOp::Sub,
        BinOp::Mul,
        BinOp::SDiv,
        BinOp::SRem,
        BinOp::And,
        BinOp::Or,
        BinOp::Xor,
        BinOp::Shl,
        BinOp::AShr,
        BinOp::SMin,
        BinOp::SMax,
        BinOp::FAdd,
        BinOp::FSub,
        BinOp::FMul,
        BinOp::FDiv,
        BinOp::FMin,
        BinOp::FMax,
    ];

    #[test]
    fn certified_reduction_identities_are_identities_under_exec_bin() {
        let samples = [0, 1, -1, 2, -7, 0x5555, i64::MIN, i64::MAX, i64::MIN + 1];
        let mut replayable = Vec::new();
        for op in ALL_OPS {
            // Adding a variant without listing it above fails to compile.
            match op {
                BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::SDiv | BinOp::SRem => {}
                BinOp::And | BinOp::Or | BinOp::Xor | BinOp::Shl | BinOp::AShr => {}
                BinOp::SMin | BinOp::SMax | BinOp::FAdd | BinOp::FSub => {}
                BinOp::FMul | BinOp::FDiv | BinOp::FMin | BinOp::FMax => {}
            }
            let Some(id) = reduction_identity(op) else {
                continue;
            };
            replayable.push(op);
            for x in samples {
                let (x, id) = (Value::I(x), Value::I(id));
                assert_eq!(exec_bin(op, x, id), Ok(x), "{op:?}: x op id");
                assert_eq!(exec_bin(op, id, x), Ok(x), "{op:?}: id op x");
            }
        }
        assert!(
            replayable.iter().all(|op| !op.is_float()),
            "floats reassociate"
        );
        assert!(!replayable.contains(&BinOp::Sub));
        assert_eq!(replayable.len(), 7, "{replayable:?}");
    }

    #[test]
    fn plan_lookup_and_jobs_clamp() {
        let cert = CertifiedLoop {
            func: FuncId(0),
            loop_id: lp_analysis::LoopId(0),
            header: BlockId(1),
            latch: BlockId(2),
            blocks: vec![BlockId(1), BlockId(2)],
            phis: Vec::new(),
        };
        let plan = ReplayPlan::new(vec![cert], 0);
        assert_eq!(plan.jobs(), 1);
        assert!(plan.loop_at(FuncId(0), BlockId(1)).is_some());
        assert!(plan.loop_at(FuncId(0), BlockId(2)).is_none());
        assert!(plan.loop_at(FuncId(1), BlockId(1)).is_none());
        let c = plan.loop_at(FuncId(0), BlockId(1)).unwrap();
        assert!(c.contains(BlockId(2)));
        assert!(!c.contains(BlockId(0)));
    }
}
