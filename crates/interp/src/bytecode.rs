//! The flat pre-resolved bytecode engine (`lp-bc`).
//!
//! [`CompiledModule`] is the compile-once artifact produced by
//! [`crate::compile`]; the dispatch loop below executes it with
//! observationally identical semantics to the tree walk
//! (`Machine::call_function`): same results, same dynamic cost, same
//! event stream with the same `now` stamps, same error on the same
//! instruction. The speed comes from what was pre-resolved — operands
//! are direct register indices, branch targets are absolute offsets,
//! per-edge phi-run tables replace the per-entry `incomings` search,
//! block costs are table lookups, and the dominant dispatch pairs of
//! the EEMBC opcode-pair table (EXPERIMENTS.md, "Extension: interpreter
//! dispatch heat") are fused ([`Bc::IcmpBr`], [`Bc::GepLoad`]) — never
//! from skipping bookkeeping: fused superinstructions still charge fuel
//! and stamp events once per constituent instruction.
//!
//! Events go straight to the sink as they happen, one [`EventSink`]
//! callback per block entry, phi, load, store and watched definition —
//! the same single delivery path as the tree walk.

use crate::events::{EventSink, NullSink};
use crate::machine::{exec_bin, Machine};
use crate::replay::{ChunkOut, ChunkRequest, ChunkSpec, ReplayCtl};
use crate::value::Value;
use crate::{InterpError, Result};
use lp_ir::{BinOp, BlockId, Builtin, CastKind, FcmpPred, FuncId, IcmpPred, Module, Type, ValueId};

/// One flat bytecode instruction. Operands are dense `u32` indices into
/// the function's register file (the same indexing as [`ValueId`], so
/// the replay probe and chunk workers interoperate unchanged); branch
/// operands are indices into the function's [`Edge`] table.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Bc {
    /// Binary arithmetic/logic.
    Bin {
        op: BinOp,
        dst: u32,
        lhs: u32,
        rhs: u32,
    },
    /// Integer comparison.
    Icmp {
        pred: IcmpPred,
        dst: u32,
        lhs: u32,
        rhs: u32,
    },
    /// Ordered float comparison.
    Fcmp {
        pred: FcmpPred,
        dst: u32,
        lhs: u32,
        rhs: u32,
    },
    /// Ternary select.
    Select {
        dst: u32,
        cond: u32,
        then_val: u32,
        else_val: u32,
    },
    /// Value cast.
    Cast { kind: CastKind, dst: u32, val: u32 },
    /// Memory load.
    Load { ty: Type, dst: u32, addr: u32 },
    /// Memory store (`dst` receives `Unit`, mirroring the tree walk).
    Store { dst: u32, val: u32, addr: u32 },
    /// Address computation: `base + index * scale + offset`.
    Gep {
        dst: u32,
        base: u32,
        index: u32,
        scale: i64,
        offset: i64,
    },
    /// Fused `gep` + `load` superinstruction: computes the address,
    /// writes it to `gep_dst`, then loads through it into `dst`.
    GepLoad {
        ty: Type,
        gep_dst: u32,
        dst: u32,
        base: u32,
        index: u32,
        scale: i64,
        offset: i64,
    },
    /// Fused `gep` + `store` superinstruction: computes the address,
    /// writes it to `gep_dst`, then stores `val` through it.
    GepStore {
        gep_dst: u32,
        dst: u32,
        val: u32,
        base: u32,
        index: u32,
        scale: i64,
        offset: i64,
    },
    /// Fused pair of adjacent binary ops (the second may read the
    /// first's destination; they execute strictly in order).
    BinBin {
        op1: BinOp,
        dst1: u32,
        lhs1: u32,
        rhs1: u32,
        op2: BinOp,
        dst2: u32,
        lhs2: u32,
        rhs2: u32,
    },
    /// Fused `store` + immediately following binary op. The store
    /// executes first; it only defines `Unit`, so order is the only
    /// constraint.
    StoreBin {
        sdst: u32,
        val: u32,
        addr: u32,
        op: BinOp,
        dst: u32,
        lhs: u32,
        rhs: u32,
    },
    /// Fused `load` + immediately following binary op. The load defines
    /// `ldst` first, so the bin is free to read it.
    LoadBin {
        ty: Type,
        ldst: u32,
        addr: u32,
        op: BinOp,
        dst: u32,
        lhs: u32,
        rhs: u32,
    },
    /// Fused block-terminal binary op + unconditional branch.
    BinBr {
        op: BinOp,
        dst: u32,
        lhs: u32,
        rhs: u32,
        edge: u32,
    },
    /// Stack allocation.
    Alloca { dst: u32, words: u32 },
    /// Direct call of a user function.
    CallFunc {
        dst: u32,
        func: u32,
        args: Box<[u32]>,
    },
    /// Direct call of a builtin.
    CallBuiltin {
        dst: u32,
        builtin: Builtin,
        args: Box<[u32]>,
    },
    /// Unconditional branch.
    Br { edge: u32 },
    /// Conditional branch.
    CondBr {
        cond: u32,
        then_edge: u32,
        else_edge: u32,
    },
    /// Fused `icmp` + `cond_br` superinstruction: compares, writes the
    /// `i1` result to `dst`, then branches on it.
    IcmpBr {
        pred: IcmpPred,
        dst: u32,
        lhs: u32,
        rhs: u32,
        then_edge: u32,
        else_edge: u32,
    },
    /// Return a value.
    Ret { val: u32 },
    /// Return void.
    RetVoid,
}

/// A pre-resolved CFG edge: where to jump, which block that is (for
/// events and replay interception), the target's static cost, and the
/// phi-run move table resolving the target's phi prefix for this
/// specific predecessor.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Edge {
    /// Absolute pc of the target block's first instruction.
    pub(crate) target: u32,
    /// The target block id.
    pub(crate) block: BlockId,
    /// Static cost of the target block.
    pub(crate) cost: u64,
    /// Parallel-copy `(dst, src)` register moves for the target's phis.
    pub(crate) moves: Box<[(u32, u32)]>,
    /// `true` when no move reads an earlier move's destination, so the
    /// parallel copy can be executed as a plain in-order loop without
    /// the two-phase scratch buffer (see `compile::compile_function`).
    pub(crate) sequential: bool,
}

/// One compiled function: flat code plus its edge table.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct BcFunc {
    /// Flat instruction stream; blocks are contiguous, entry at pc 0.
    pub(crate) code: Vec<Bc>,
    /// Pre-resolved CFG edges referenced by branch instructions.
    pub(crate) edges: Vec<Edge>,
    /// Static cost of the entry block.
    pub(crate) entry_cost: u64,
}

/// A module compiled to flat bytecode — the compile-once artifact an
/// [`crate::ExecUnit`] holds and executes many times. Owns no borrows
/// of the source module; register indexing matches [`ValueId`] so the
/// per-function register templates, replay probe, and chunk workers are
/// shared with the tree walk unchanged.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledModule {
    /// Compiled functions, indexed by [`FuncId`].
    pub(crate) funcs: Vec<BcFunc>,
}

impl CompiledModule {
    /// Compiles `module`. Pure and infallible; the module is expected to
    /// be verified (the tree walk has the same precondition).
    #[must_use]
    pub fn compile(module: &Module) -> CompiledModule {
        crate::compile::compile_module(module)
    }
}

/// Integer comparison with the tree walk's pointer special case
/// (`ptr`/`ptr` compares are allowed and compare the raw addresses).
#[inline]
fn icmp_eval(pred: IcmpPred, lv: Value, rv: Value) -> Result<bool> {
    let (l, r) = match (lv, rv) {
        (Value::P(a), Value::P(b)) => (a as i64, b as i64),
        (a, b) => (a.as_i64()?, b.as_i64()?),
    };
    Ok(match pred {
        IcmpPred::Eq => l == r,
        IcmpPred::Ne => l != r,
        IcmpPred::Slt => l < r,
        IcmpPred::Sle => l <= r,
        IcmpPred::Sgt => l > r,
        IcmpPred::Sge => l >= r,
    })
}

#[inline]
fn fcmp_eval(pred: FcmpPred, lv: Value, rv: Value) -> Result<bool> {
    let l = lv.as_f64()?;
    let r = rv.as_f64()?;
    Ok(match pred {
        FcmpPred::Oeq => l == r,
        FcmpPred::One => l != r,
        FcmpPred::Olt => l < r,
        FcmpPred::Ole => l <= r,
        FcmpPred::Ogt => l > r,
        FcmpPred::Oge => l >= r,
    })
}

#[inline]
fn cast_eval(kind: CastKind, v: Value) -> Result<Value> {
    Ok(match kind {
        CastKind::SiToFp => Value::F(v.as_i64()? as f64),
        CastKind::FpToSi => Value::I(v.as_f64()? as i64),
        CastKind::PtrToInt => Value::I(v.as_ptr()? as i64),
        CastKind::IntToPtr => Value::P(v.as_i64()? as u64),
        CastKind::BoolToInt => Value::I(i64::from(v.as_bool()?)),
    })
}

/// Flattened GEP address arithmetic (wrapping, as in the tree walk).
#[inline]
fn gep_addr(base: Value, index: Value, scale: i64, offset: i64) -> Result<u64> {
    let b = base.as_ptr()?;
    let i = index.as_i64()?;
    Ok((b as i64)
        .wrapping_add(i.wrapping_mul(scale))
        .wrapping_add(offset) as u64)
}

impl<'a, S: EventSink> Machine<'a, S> {
    /// Writes an instruction result and reports it if watched —
    /// the bytecode twin of the tree walk's per-instruction epilogue.
    #[inline]
    fn set_reg(
        &mut self,
        fid: FuncId,
        watch: bool,
        regs: &mut [Value],
        dst: u32,
        v: Value,
        now: u64,
    ) {
        regs[dst as usize] = v;
        if watch && self.watched[fid.index()][dst as usize] {
            self.sink.value_defined(fid, ValueId(dst), v, now);
        }
    }

    /// Takes a pre-resolved CFG edge: block-entry event, phi-run moves
    /// (parallel-copy, with per-phi events exactly as the tree walk
    /// orders them), then the replay check. The caller updates its
    /// `block`/`pc` from the edge afterwards.
    ///
    /// `cost` is the frame's live fuel counter (see `call_function_bc`);
    /// phi resolution charges nothing, but replay interception runs
    /// whole loop chunks, so the counter is synced across it.
    fn take_edge(
        &mut self,
        fid: FuncId,
        func: &'a lp_ir::Function,
        from: BlockId,
        e: &Edge,
        regs: &mut [Value],
        cost: &mut u64,
    ) -> std::result::Result<(), Halt> {
        self.sink.block_entered(fid, e.block, e.cost, *cost);
        if e.sequential {
            // No move reads an earlier move's destination (the compiler
            // proved it), so the parallel copy degenerates to a plain
            // loop — same values, same event order, no scratch buffer.
            for &(dst, src) in e.moves.iter() {
                let v = regs[src as usize];
                regs[dst as usize] = v;
                self.sink.phi_resolved(fid, e.block, ValueId(dst), v, *cost);
            }
        } else {
            let mut updates = std::mem::take(&mut self.phi_scratch);
            for &(dst, src) in e.moves.iter() {
                updates.push((ValueId(dst), regs[src as usize]));
            }
            for &(r, v) in &updates {
                regs[r.index()] = v;
                self.sink.phi_resolved(fid, e.block, r, v, *cost);
            }
            updates.clear();
            self.phi_scratch = updates;
        }
        if self.replay.is_some() {
            self.replay_edge(fid, func, Some(from), e.block, regs, cost)?;
        }
        Ok(())
    }

    /// The replay check on entering block `to` (from `from`, or as the
    /// frame's entry block). A planned run may fan a certified loop out
    /// at `to`; a chunk worker's own frame must stay inside its loop and
    /// stops after its last latch→header arrival. Frames called from
    /// inside a chunk run unbounded.
    fn replay_edge(
        &mut self,
        fid: FuncId,
        func: &'a lp_ir::Function,
        from: Option<BlockId>,
        to: BlockId,
        regs: &mut [Value],
        cost: &mut u64,
    ) -> std::result::Result<(), Halt> {
        if let Some(ReplayCtl::Chunk { cert, depth, left }) = &mut self.replay {
            if self.depth != *depth {
                return Ok(());
            }
            if !cert.contains(to) {
                return Err(Halt::Trap(ESCAPED));
            }
            if to == cert.header {
                *left -= 1;
                if *left == 0 {
                    return Err(Halt::ChunkDone);
                }
            }
            return Ok(());
        }
        self.cost = *cost;
        let r = self.maybe_replay(fid, func, to, from, regs);
        *cost = self.cost;
        Ok(r?)
    }

    /// Calls `fid` on the bytecode engine — the fast twin of
    /// `call_function`. Every observable (events, `now` stamps, fuel
    /// charges, error instruction) matches the tree walk exactly; see the
    /// module docs for where the speed comes from.
    ///
    /// This is the frame prologue and epilogue around `run_blocks`. It
    /// keeps `self.cost` authoritative at the call boundary; the block
    /// loop runs on a frame-local fuel counter so the per-instruction
    /// charge is register arithmetic, not a load/store round-trip
    /// through `self`.
    pub(crate) fn call_function_bc(
        &mut self,
        code: &CompiledModule,
        fid: FuncId,
        args: &[Value],
    ) -> Result<Value> {
        self.depth += 1;
        if self.depth > self.config.max_call_depth {
            return Err(InterpError::CallDepthExceeded);
        }
        let func = self.module.function(fid);
        let bf = &code.funcs[fid.index()];
        debug_assert_eq!(args.len(), func.params.len());
        let mut regs = self.frame_pool.pop().unwrap_or_default();
        regs.clone_from(&self.reg_templates[fid.index()]);
        regs[..args.len()].copy_from_slice(args);
        let frame_mark = self.memory.stack_top();
        let mut cost = self.cost;
        self.sink.func_entered(fid, frame_mark, cost);

        self.sink
            .block_entered(fid, BlockId::ENTRY, bf.entry_cost, cost);
        if self.replay.is_some() {
            self.replay_edge(fid, func, None, BlockId::ENTRY, &mut regs, &mut cost)?;
        }
        let ret = self.run_blocks(code, fid, &mut regs, BlockId::ENTRY, 0, &mut cost);
        self.cost = cost;
        let ret = ret?;
        self.memory.stack_release(frame_mark);
        self.sink.func_exited(fid, cost);
        self.depth -= 1;
        self.frame_pool.push(regs);
        Ok(ret)
    }

    /// The block loop of one frame: executes from `pc` (the first
    /// instruction of `block`) until the frame returns, a trap, or — in
    /// a replay chunk's own frame — the chunk's last latch→header
    /// arrival ([`Halt::ChunkDone`]).
    fn run_blocks(
        &mut self,
        code: &CompiledModule,
        fid: FuncId,
        regs: &mut [Value],
        mut block: BlockId,
        mut pc: usize,
        cost: &mut u64,
    ) -> std::result::Result<Value, Halt> {
        let func = self.module.function(fid);
        let bf = &code.funcs[fid.index()];
        let max_cost = self.config.max_cost;
        let watch = !self.watched[fid.index()].is_empty();
        loop {
            let inst = &bf.code[pc];
            pc += 1;
            match inst {
                Bc::Bin { op, dst, lhs, rhs } => {
                    charge(cost, max_cost)?;
                    let v = exec_bin(*op, regs[*lhs as usize], regs[*rhs as usize])?;
                    self.set_reg(fid, watch, regs, *dst, v, *cost);
                }
                Bc::Icmp {
                    pred,
                    dst,
                    lhs,
                    rhs,
                } => {
                    charge(cost, max_cost)?;
                    let c = icmp_eval(*pred, regs[*lhs as usize], regs[*rhs as usize])?;
                    self.set_reg(fid, watch, regs, *dst, Value::B(c), *cost);
                }
                Bc::Fcmp {
                    pred,
                    dst,
                    lhs,
                    rhs,
                } => {
                    charge(cost, max_cost)?;
                    let c = fcmp_eval(*pred, regs[*lhs as usize], regs[*rhs as usize])?;
                    self.set_reg(fid, watch, regs, *dst, Value::B(c), *cost);
                }
                Bc::Select {
                    dst,
                    cond,
                    then_val,
                    else_val,
                } => {
                    charge(cost, max_cost)?;
                    let c = regs[*cond as usize].as_bool()?;
                    let v = regs[if c { *then_val } else { *else_val } as usize];
                    self.set_reg(fid, watch, regs, *dst, v, *cost);
                }
                Bc::Cast { kind, dst, val } => {
                    charge(cost, max_cost)?;
                    let v = cast_eval(*kind, regs[*val as usize])?;
                    self.set_reg(fid, watch, regs, *dst, v, *cost);
                }
                Bc::Load { ty, dst, addr } => {
                    charge(cost, max_cost)?;
                    let a = regs[*addr as usize].as_ptr()?;
                    let bits = self.memory.read(a)?;
                    self.sink.load(a, *cost);
                    self.set_reg(fid, watch, regs, *dst, Value::from_bits(*ty, bits), *cost);
                }
                Bc::Store { dst, val, addr } => {
                    charge(cost, max_cost)?;
                    let v = regs[*val as usize].to_bits()?;
                    let a = regs[*addr as usize].as_ptr()?;
                    self.memory.write(a, v)?;
                    self.sink.store(a, *cost);
                    self.set_reg(fid, watch, regs, *dst, Value::Unit, *cost);
                }
                Bc::Gep {
                    dst,
                    base,
                    index,
                    scale,
                    offset,
                } => {
                    charge(cost, max_cost)?;
                    let a = gep_addr(regs[*base as usize], regs[*index as usize], *scale, *offset)?;
                    self.set_reg(fid, watch, regs, *dst, Value::P(a), *cost);
                }
                Bc::GepLoad {
                    ty,
                    gep_dst,
                    dst,
                    base,
                    index,
                    scale,
                    offset,
                } => {
                    // Fused, but each half keeps its own charge so
                    // cost stamps and fuel-exhaustion points are exact.
                    charge(cost, max_cost)?;
                    let a = gep_addr(regs[*base as usize], regs[*index as usize], *scale, *offset)?;
                    self.set_reg(fid, watch, regs, *gep_dst, Value::P(a), *cost);
                    charge(cost, max_cost)?;
                    let bits = self.memory.read(a)?;
                    self.sink.load(a, *cost);
                    self.set_reg(fid, watch, regs, *dst, Value::from_bits(*ty, bits), *cost);
                }
                Bc::GepStore {
                    gep_dst,
                    dst,
                    val,
                    base,
                    index,
                    scale,
                    offset,
                } => {
                    // Fused, but each half keeps its own charge so
                    // cost stamps and fuel-exhaustion points are exact.
                    charge(cost, max_cost)?;
                    let a = gep_addr(regs[*base as usize], regs[*index as usize], *scale, *offset)?;
                    self.set_reg(fid, watch, regs, *gep_dst, Value::P(a), *cost);
                    charge(cost, max_cost)?;
                    let v = regs[*val as usize].to_bits()?;
                    self.memory.write(a, v)?;
                    self.sink.store(a, *cost);
                    self.set_reg(fid, watch, regs, *dst, Value::Unit, *cost);
                }
                Bc::BinBin {
                    op1,
                    dst1,
                    lhs1,
                    rhs1,
                    op2,
                    dst2,
                    lhs2,
                    rhs2,
                } => {
                    charge(cost, max_cost)?;
                    let v = exec_bin(*op1, regs[*lhs1 as usize], regs[*rhs1 as usize])?;
                    self.set_reg(fid, watch, regs, *dst1, v, *cost);
                    charge(cost, max_cost)?;
                    let v = exec_bin(*op2, regs[*lhs2 as usize], regs[*rhs2 as usize])?;
                    self.set_reg(fid, watch, regs, *dst2, v, *cost);
                }
                Bc::StoreBin {
                    sdst,
                    val,
                    addr,
                    op,
                    dst,
                    lhs,
                    rhs,
                } => {
                    // Fused, but each half keeps its own charge so
                    // cost stamps and fuel-exhaustion points are exact.
                    charge(cost, max_cost)?;
                    let v = regs[*val as usize].to_bits()?;
                    let a = regs[*addr as usize].as_ptr()?;
                    self.memory.write(a, v)?;
                    self.sink.store(a, *cost);
                    self.set_reg(fid, watch, regs, *sdst, Value::Unit, *cost);
                    charge(cost, max_cost)?;
                    let v = exec_bin(*op, regs[*lhs as usize], regs[*rhs as usize])?;
                    self.set_reg(fid, watch, regs, *dst, v, *cost);
                }
                Bc::LoadBin {
                    ty,
                    ldst,
                    addr,
                    op,
                    dst,
                    lhs,
                    rhs,
                } => {
                    // Fused, but each half keeps its own charge so
                    // cost stamps and fuel-exhaustion points are exact.
                    charge(cost, max_cost)?;
                    let a = regs[*addr as usize].as_ptr()?;
                    let bits = self.memory.read(a)?;
                    self.sink.load(a, *cost);
                    self.set_reg(fid, watch, regs, *ldst, Value::from_bits(*ty, bits), *cost);
                    charge(cost, max_cost)?;
                    let v = exec_bin(*op, regs[*lhs as usize], regs[*rhs as usize])?;
                    self.set_reg(fid, watch, regs, *dst, v, *cost);
                }
                Bc::BinBr {
                    op,
                    dst,
                    lhs,
                    rhs,
                    edge,
                } => {
                    charge(cost, max_cost)?;
                    let v = exec_bin(*op, regs[*lhs as usize], regs[*rhs as usize])?;
                    self.set_reg(fid, watch, regs, *dst, v, *cost);
                    charge(cost, max_cost)?;
                    let e = &bf.edges[*edge as usize];
                    self.take_edge(fid, func, block, e, regs, cost)?;
                    block = e.block;
                    pc = e.target as usize;
                }
                Bc::Alloca { dst, words } => {
                    charge(cost, max_cost)?;
                    let base = self.memory.stack_alloc(u64::from(*words));
                    self.set_reg(fid, watch, regs, *dst, Value::P(base), *cost);
                }
                Bc::CallFunc { dst, func, args } => {
                    charge(cost, max_cost)?;
                    let argv: Vec<Value> = args.iter().map(|&a| regs[a as usize]).collect();
                    self.cost = *cost;
                    let v = self.call_function_bc(code, FuncId(*func), &argv);
                    *cost = self.cost;
                    let v = v?;
                    self.set_reg(fid, watch, regs, *dst, v, *cost);
                }
                Bc::CallBuiltin { dst, builtin, args } => {
                    charge(cost, max_cost)?;
                    let argv: Vec<Value> = args.iter().map(|&a| regs[a as usize]).collect();
                    self.sink.builtin_called(fid, *builtin, *cost);
                    self.cost = *cost;
                    let v = self.exec_builtin(*builtin, &argv);
                    *cost = self.cost;
                    let v = v?;
                    self.set_reg(fid, watch, regs, *dst, v, *cost);
                }
                Bc::Br { edge } => {
                    charge(cost, max_cost)?;
                    let e = &bf.edges[*edge as usize];
                    self.take_edge(fid, func, block, e, regs, cost)?;
                    block = e.block;
                    pc = e.target as usize;
                }
                Bc::CondBr {
                    cond,
                    then_edge,
                    else_edge,
                } => {
                    charge(cost, max_cost)?;
                    let c = regs[*cond as usize].as_bool()?;
                    let e = &bf.edges[if c { *then_edge } else { *else_edge } as usize];
                    self.take_edge(fid, func, block, e, regs, cost)?;
                    block = e.block;
                    pc = e.target as usize;
                }
                Bc::IcmpBr {
                    pred,
                    dst,
                    lhs,
                    rhs,
                    then_edge,
                    else_edge,
                } => {
                    // Fused, with per-constituent charges.
                    charge(cost, max_cost)?;
                    let c = icmp_eval(*pred, regs[*lhs as usize], regs[*rhs as usize])?;
                    self.set_reg(fid, watch, regs, *dst, Value::B(c), *cost);
                    charge(cost, max_cost)?;
                    let e = &bf.edges[if c { *then_edge } else { *else_edge } as usize];
                    self.take_edge(fid, func, block, e, regs, cost)?;
                    block = e.block;
                    pc = e.target as usize;
                }
                Bc::Ret { val } => {
                    charge(cost, max_cost)?;
                    return Ok(regs[*val as usize]);
                }
                Bc::RetVoid => {
                    charge(cost, max_cost)?;
                    return Ok(Value::Unit);
                }
            }
        }
    }
}

/// Why a frame's block loop stopped without returning. Crate-private,
/// so a chunk's stop can never reach a caller as an [`InterpError`], and
/// a real trap inside a chunk always travels as itself.
#[derive(Debug)]
pub(crate) enum Halt {
    /// A trap or resource-limit failure.
    Trap(InterpError),
    /// A replay chunk completed its iterations (see [`run_chunk`]).
    ChunkDone,
}

/// The defensive check on a chunk: control left its certified loop.
const ESCAPED: InterpError = InterpError::TypeConfusion("certified loop escaped during replay");

impl From<InterpError> for Halt {
    fn from(e: InterpError) -> Halt {
        Halt::Trap(e)
    }
}

impl From<Halt> for InterpError {
    /// Only a chunk worker's own frame can stop with
    /// [`Halt::ChunkDone`], and [`run_chunk`] enters that frame directly,
    /// so every other frame sees only traps.
    fn from(h: Halt) -> InterpError {
        match h {
            Halt::Trap(e) => e,
            Halt::ChunkDone => InterpError::TypeConfusion("replay chunk stop outside its frame"),
        }
    }
}

/// Runs one replay chunk on a worker machine over a clone of the parent
/// memory, returning the chunk's write log, cost, and final phi values.
///
/// The chunk enters the compiled loop at the header's pc with the seeded
/// register file and runs the ordinary block loop until its last
/// latch→header arrival. Workers carry no replay plan, so any nested loop
/// inside the chunk runs serially.
///
/// # Errors
/// Propagates interpreter traps, fuel exhaustion, and the defensive
/// escape check (control leaving the certified loop's blocks — which
/// certification should make impossible).
///
/// # Panics
/// Panics if a chunk register file has the wrong length for the loop's
/// function (the machine that built the [`ChunkSpec`] guarantees this).
pub fn run_chunk(req: &ChunkRequest<'_>, spec: &ChunkSpec) -> Result<ChunkOut> {
    let cert = req.cert;
    let mut regs = spec.regs.clone();
    assert_eq!(
        regs.len(),
        req.module.function(cert.func).values.len(),
        "chunk register file length"
    );
    let pc = req.code.funcs[cert.func.index()]
        .edges
        .iter()
        .find(|e| e.block == cert.header)
        .ok_or(ESCAPED)?
        .target as usize;
    let mut memory = req.memory.clone();
    memory.enable_write_log();
    let mut sink = NullSink;
    let mut machine = Machine::with_memory(req.module, &mut sink, req.config.clone(), Some(memory));
    machine.replay = Some(ReplayCtl::Chunk {
        cert,
        depth: machine.depth,
        left: spec.iters,
    });
    let mut cost = 0;
    match machine.run_blocks(req.code, cert.func, &mut regs, cert.header, pc, &mut cost) {
        Err(Halt::ChunkDone) => {}
        Err(Halt::Trap(e)) => return Err(e),
        Ok(_) => return Err(ESCAPED),
    }
    Ok(ChunkOut {
        index: spec.index,
        cost,
        log: machine.memory.take_write_log(),
        phi_out: cert.phis.iter().map(|(v, _)| regs[v.index()]).collect(),
    })
}

/// The per-instruction fuel charge on the frame-local counter — plain
/// register arithmetic instead of a `self.cost` round-trip (the sole
/// reason `run_blocks` threads `cost` explicitly).
#[inline]
fn charge(cost: &mut u64, max_cost: u64) -> Result<()> {
    *cost += 1;
    if *cost > max_cost {
        return Err(InterpError::FuelExhausted);
    }
    Ok(())
}
