//! Parallel DOALL replay: loop shapes, chunk specifications, and the
//! executor hook.
//!
//! The limit study predicts speedups; replay *executes* them. A loop
//! that the static classifier calls DOALL, whose profile shows no
//! cross-iteration memory flow, and whose independence witness checked
//! out (see `lp-runtime`) gets a [`LoopShape`] here. When the machine
//! reaches that loop's header from outside the loop, it
//!
//! 1. derives the trip count `N` by evaluating the header's pure
//!    instructions against closed-form induction values (no memory, no
//!    cost charged),
//! 2. splits `0..N` into balanced chunks via [`split_iterations`],
//! 3. seeds one register file per chunk — affine phis jump to
//!    `entry + lo·step`, reduction phis start from the entry value
//!    (first chunk) or the operator's identity (the rest),
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
//! (shapes, chunk execution, deterministic merge) lives here, next to
//! the interpreter internals it needs, while the *policy* (worker
//! fan-out over `parallel_map`, witness gating, timing, export) lives in
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
use lp_ir::{BinOp, BlockId, FuncId, Module, ValueId};

pub use crate::bytecode::run_chunk;

/// A loop-invariant affine step expression: `konst + Σ coeff · reg`.
///
/// Certification derives one per affine header phi from the latch
/// update's affine decomposition; the machine evaluates it once against
/// the frame registers at loop entry (every referenced register is
/// loop-invariant by construction).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StepExpr {
    /// Constant term.
    pub konst: i64,
    /// `(register, coefficient)` terms, all loop-invariant integers.
    pub terms: Vec<(ValueId, i64)>,
}

impl StepExpr {
    /// A constant step (the common `i += C` case).
    #[must_use]
    pub fn constant(konst: i64) -> StepExpr {
        StepExpr {
            konst,
            terms: Vec::new(),
        }
    }

    /// Evaluates the step against a frame register file (wrapping
    /// arithmetic, matching the interpreter's integer semantics).
    ///
    /// # Errors
    /// Fails with a type confusion if a referenced register does not
    /// hold an integer.
    pub fn eval(&self, regs: &[Value]) -> Result<i64> {
        let mut acc = self.konst;
        for &(v, c) in &self.terms {
            acc = acc.wrapping_add(regs[v.index()].as_i64()?.wrapping_mul(c));
        }
        Ok(acc)
    }
}

/// How one certified header phi evolves across iterations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PhiKind {
    /// `phi(k) = phi(0) + k · step` with a loop-invariant step — the
    /// machine can seed any iteration's value in closed form.
    Affine {
        /// The per-iteration increment.
        step: StepExpr,
    },
    /// An integer reduction: chunk partials are folded with `op` in
    /// chunk order. Float reductions are deliberately excluded — chunk
    /// reassociation changes `f64` results bit-for-bit, and replay's
    /// contract is byte-identity with the serial run.
    Reduction {
        /// The (exactly associative) combining operator.
        op: BinOp,
    },
}

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

/// Identity element of an exactly-associative integer reduction
/// operator, or `None` when `op` cannot seed non-first replay chunks
/// (floats and non-reduction operators).
#[must_use]
pub fn reduction_identity(op: BinOp) -> Option<i64> {
    Some(match op {
        BinOp::Add => 0,
        BinOp::Mul => 1,
        BinOp::And => -1,
        BinOp::Or | BinOp::Xor => 0,
        BinOp::SMin => i64::MAX,
        BinOp::SMax => i64::MIN,
        _ => return None,
    })
}

/// The static shape of one certified loop — everything the machine
/// needs to probe, split, and replay it without re-running analysis.
#[derive(Debug, Clone)]
pub struct LoopShape {
    /// Function containing the loop.
    pub func: FuncId,
    /// Loop header (the only block that may exit the loop).
    pub header: BlockId,
    /// The single latch branching back to the header.
    pub latch: BlockId,
    /// Every block of the loop, sorted by id.
    pub blocks: Vec<BlockId>,
    /// Header phis in a fixed order; chunk seeding, partial collection,
    /// and exit-value reconstruction all iterate this order.
    pub phis: Vec<(ValueId, PhiKind)>,
}

impl LoopShape {
    /// Whether `block` belongs to the loop.
    #[must_use]
    pub fn contains(&self, block: BlockId) -> bool {
        self.blocks.binary_search(&block).is_ok()
    }
}

/// A set of certified loop shapes plus the worker count — the machine
/// consults this at every header entry.
#[derive(Debug, Clone)]
pub struct ReplayPlan {
    shapes: Vec<LoopShape>,
    jobs: usize,
}

impl ReplayPlan {
    /// Builds a plan over `shapes` with `jobs` workers (0 is treated
    /// as 1).
    #[must_use]
    pub fn new(shapes: Vec<LoopShape>, jobs: usize) -> ReplayPlan {
        ReplayPlan {
            shapes,
            jobs: jobs.max(1),
        }
    }

    /// The shape planned for `(func, header)`, if any.
    #[must_use]
    pub fn shape_at(&self, func: FuncId, header: BlockId) -> Option<&LoopShape> {
        self.shapes
            .iter()
            .find(|s| s.func == func && s.header == header)
    }

    /// Requested worker count (≥ 1; the per-loop chunk count is further
    /// clamped to the trip count).
    #[must_use]
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// All planned shapes.
    #[must_use]
    pub fn shapes(&self) -> &[LoopShape] {
        &self.shapes
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
    /// Final value of each header phi, in [`LoopShape::phis`] order.
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
    pub shape: &'m LoopShape,
    /// Parent memory image at loop entry; every worker clones it.
    pub memory: &'m Memory,
    /// Worker machine configuration (remaining fuel and call depth).
    pub config: &'m MachineConfig,
    /// The chunks, in iteration order.
    pub chunks: Vec<ChunkSpec>,
}

/// Executor hook: `lp-runtime` implements this over `parallel_map`;
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
    /// The frame at call depth `depth` is running `shape`'s blocks and
    /// stops after `left` more latch→header arrivals.
    Chunk {
        shape: &'a LoopShape,
        depth: u32,
        left: u64,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn step_expr_evaluates_terms() {
        let step = StepExpr {
            konst: 3,
            terms: vec![(ValueId(0), 2), (ValueId(1), -1)],
        };
        let regs = [Value::I(10), Value::I(4)];
        assert_eq!(step.eval(&regs).unwrap(), 3 + 20 - 4);
        assert_eq!(StepExpr::constant(7).eval(&[]).unwrap(), 7);
        let bad = StepExpr {
            konst: 0,
            terms: vec![(ValueId(0), 1)],
        };
        assert!(bad.eval(&[Value::F(1.0)]).is_err());
    }

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

    #[test]
    fn reduction_identities() {
        assert_eq!(reduction_identity(BinOp::Add), Some(0));
        assert_eq!(reduction_identity(BinOp::Mul), Some(1));
        assert_eq!(reduction_identity(BinOp::And), Some(-1));
        assert_eq!(reduction_identity(BinOp::SMin), Some(i64::MAX));
        assert_eq!(reduction_identity(BinOp::SMax), Some(i64::MIN));
        assert_eq!(reduction_identity(BinOp::FAdd), None, "floats reassociate");
        assert_eq!(reduction_identity(BinOp::Sub), None);
    }

    #[test]
    fn plan_lookup_and_jobs_clamp() {
        let shape = LoopShape {
            func: FuncId(0),
            header: BlockId(1),
            latch: BlockId(2),
            blocks: vec![BlockId(1), BlockId(2)],
            phis: Vec::new(),
        };
        let plan = ReplayPlan::new(vec![shape], 0);
        assert_eq!(plan.jobs(), 1);
        assert!(plan.shape_at(FuncId(0), BlockId(1)).is_some());
        assert!(plan.shape_at(FuncId(0), BlockId(2)).is_none());
        assert!(plan.shape_at(FuncId(1), BlockId(1)).is_none());
        let s = plan.shape_at(FuncId(0), BlockId(1)).unwrap();
        assert!(s.contains(BlockId(2)));
        assert!(!s.contains(BlockId(0)));
    }
}
