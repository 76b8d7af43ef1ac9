//! The interpreter core.

use crate::events::EventSink;
use crate::memory::Memory;
use crate::replay::{split_iterations, ChunkRequest, ChunkSpec, ReplayCtl};
use crate::value::Value;
use crate::{InterpError, Result};
use lp_analysis::{CertPhi, CertifiedLoop, StepSpec};
use lp_ir::{
    BinOp, BlockId, Builtin, Callee, CastKind, FcmpPred, FuncId, IcmpPred, Inst, Module, Term,
    ValueId, ValueKind,
};

/// Which execution engine interprets the module.
///
/// Both engines implement identical semantics — same results, same
/// dynamic cost, same event stream with the same `now` stamps — proven
/// by the engine differential suite. The bytecode engine is the default
/// fast path; the tree walk stays available as the reference oracle
/// (`--engine tree` on every CLI).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Engine {
    /// Walk the `lp_ir` arena directly (reference oracle).
    Tree,
    /// Execute flat pre-resolved bytecode compiled once per module
    /// (see [`crate::bytecode`] and [`crate::ExecUnit`]).
    #[default]
    Bc,
}

impl Engine {
    /// Parses the `--engine` CLI spelling.
    ///
    /// # Errors
    /// Returns the offending string for anything but `tree` or `bc`.
    pub fn parse(s: &str) -> std::result::Result<Engine, String> {
        match s {
            "tree" => Ok(Engine::Tree),
            "bc" => Ok(Engine::Bc),
            other => Err(other.to_string()),
        }
    }

    /// The CLI spelling (`tree` / `bc`).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Engine::Tree => "tree",
            Engine::Bc => "bc",
        }
    }
}

/// Resource limits and reproducibility knobs.
#[derive(Debug, Clone)]
pub struct MachineConfig {
    /// Maximum total dynamic IR cost before [`InterpError::FuelExhausted`].
    pub max_cost: u64,
    /// Maximum user-function call depth.
    pub max_call_depth: u32,
    /// Seed of the deterministic `rand` builtin.
    pub rng_seed: u64,
    /// Whether `print_*` builtins capture their output into
    /// [`RunResult::output`] (capped at 10 000 lines) or discard it.
    pub capture_output: bool,
    /// Values whose definitions should be reported through
    /// [`EventSink::value_defined`]. Loopapalooza registers the latch
    /// incoming values of traced register LCDs here.
    pub watched_values: Vec<(FuncId, ValueId)>,
    /// Which engine executes the module. Engines are observationally
    /// identical, so this never affects results or profiles — only
    /// wall-clock speed (lp_runtime's `ProfileKey` excludes it for the
    /// same reason).
    pub engine: Engine,
}

impl Default for MachineConfig {
    fn default() -> MachineConfig {
        MachineConfig {
            max_cost: 2_000_000_000,
            max_call_depth: 4096,
            rng_seed: 0x5EED_1234_ABCD_0001,
            capture_output: false,
            watched_values: Vec::new(),
            engine: Engine::Bc,
        }
    }
}

/// Result of a completed run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Return value of the entry function.
    pub ret: Value,
    /// Total dynamic IR cost (the paper's sequential "time").
    pub cost: u64,
    /// Captured `print_*` output, if enabled.
    pub output: Vec<String>,
}

/// An interpreter instance bound to a module and an event sink.
///
/// The machine is single-use per program run: [`crate::Exec`] constructs
/// it, runs it once, and hands back the result. Globals are laid out and
/// initialized at construction.
#[derive(Debug)]
pub struct Machine<'a, S> {
    pub(crate) module: &'a Module,
    pub(crate) sink: &'a mut S,
    pub(crate) config: MachineConfig,
    pub(crate) memory: Memory,
    pub(crate) cost: u64,
    pub(crate) rng: u64,
    pub(crate) output: Vec<String>,
    pub(crate) depth: u32,
    /// Per-function bitmap of watched value ids (empty vec = none).
    pub(crate) watched: Vec<Vec<bool>>,
    /// Per-function register-file template with every constant value
    /// (ints, floats, bools, null, global/function addresses) already
    /// materialized. A frame starts as a memcpy of its template, so
    /// operand evaluation is a plain indexed load with no `ValueKind`
    /// dispatch on the hot path.
    pub(crate) reg_templates: Vec<Vec<Value>>,
    /// Reused scratch for two-phase phi resolution, so header re-entry
    /// (every loop iteration) does not allocate.
    pub(crate) phi_scratch: Vec<(ValueId, Value)>,
    /// Recycled register files for the bytecode engine: a returning
    /// frame parks its `Vec` here and the next call reuses the
    /// allocation (`clone_from` the template), so call-heavy code does
    /// not hit the allocator per frame.
    pub(crate) frame_pool: Vec<Vec<Value>>,
    /// Parallel replay control: in a planned run, entering a certified
    /// loop header from outside the loop fans its iterations out through
    /// the executor; in a chunk worker, it bounds the chunk. One `Option`
    /// check per block entry when disarmed.
    pub(crate) replay: Option<ReplayCtl<'a>>,
}

impl<'a, S: EventSink> Machine<'a, S> {
    /// Creates a machine with an explicit configuration.
    ///
    /// # Panics
    /// Panics if global initializers are longer than their globals.
    #[must_use]
    pub fn with_config(
        module: &'a Module,
        sink: &'a mut S,
        config: MachineConfig,
    ) -> Machine<'a, S> {
        Machine::with_memory(module, sink, config, None)
    }

    /// As [`Machine::with_config`] over `memory`, a parent run's image
    /// (replay chunk workers start from a clone of it), whose globals
    /// are already initialized; `None` starts from a fresh image.
    pub(crate) fn with_memory(
        module: &'a Module,
        sink: &'a mut S,
        config: MachineConfig,
        memory: Option<Memory>,
    ) -> Machine<'a, S> {
        let fresh = memory.is_none();
        let mut memory = memory.unwrap_or_default();
        let mut global_bases = Vec::with_capacity(module.globals.len());
        let mut base = crate::memory::GLOBAL_BASE;
        for g in &module.globals {
            global_bases.push(base);
            if fresh {
                assert!(
                    g.init.len() as u64 <= g.words,
                    "global {} initializer too long",
                    g.name
                );
                for (i, w) in g.init.iter().enumerate() {
                    memory
                        .write(base + (i as u64) * 8, *w)
                        .expect("global layout is aligned");
                }
            }
            base += g.words.max(1) * 8;
        }
        let rng = config.rng_seed;
        let mut watched: Vec<Vec<bool>> = vec![Vec::new(); module.functions.len()];
        for (fid, vid) in &config.watched_values {
            let func = module.function(*fid);
            let map = &mut watched[fid.index()];
            if map.is_empty() {
                map.resize(func.values.len(), false);
            }
            map[vid.index()] = true;
        }
        let reg_templates = module
            .functions
            .iter()
            .map(|func| {
                func.values
                    .iter()
                    .map(|kind| match kind {
                        ValueKind::Param(_) | ValueKind::Inst(_) => Value::Unit,
                        ValueKind::ConstInt(c) => Value::I(*c),
                        ValueKind::ConstFloat(c) => Value::F(*c),
                        ValueKind::ConstBool(b) => Value::B(*b),
                        ValueKind::ConstNull => Value::P(0),
                        ValueKind::GlobalAddr(g) => Value::P(global_bases[g.index()]),
                        ValueKind::FuncAddr(f) => Value::P(0xF000_0000_0000 | u64::from(f.0)),
                    })
                    .collect()
            })
            .collect();
        Machine {
            module,
            sink,
            config,
            memory,
            cost: 0,
            rng,
            output: Vec::new(),
            depth: 0,
            watched,
            reg_templates,
            phi_scratch: Vec::new(),
            frame_pool: Vec::new(),
            replay: None,
        }
    }

    /// Shared run entry for both engines, reached through the
    /// [`crate::Exec`] builder: resolves the entry function, dispatches to
    /// the tree walk or — when `code` is present — the bytecode loop, and
    /// finalizes memory bookkeeping identically on both paths.
    ///
    /// # Errors
    /// Propagates traps and resource-limit failures, or an
    /// [`InterpError::TypeConfusion`] if the entry function is missing.
    pub(crate) fn run_entry(
        mut self,
        function: Option<&str>,
        args: &[Value],
        code: Option<&crate::bytecode::CompiledModule>,
    ) -> Result<(RunResult, Memory)> {
        let entry = match function {
            Some(name) => self
                .module
                .function_by_name(name)
                .ok_or(InterpError::TypeConfusion("unknown function"))?,
            None => self
                .module
                .entry()
                .map_err(|_| InterpError::TypeConfusion("missing main"))?,
        };
        let ret = match code {
            Some(code) => self.call_function_bc(code, entry, args),
            None => self.call_function(entry, args),
        }?;
        self.sink.run_finished();
        Ok((
            RunResult {
                ret,
                cost: self.cost,
                output: self.output,
            },
            self.memory,
        ))
    }

    pub(crate) fn charge(&mut self, c: u64) -> Result<()> {
        self.cost += c;
        if self.cost > self.config.max_cost {
            return Err(InterpError::FuelExhausted);
        }
        Ok(())
    }

    /// Operand evaluation. Constants were materialized into the frame's
    /// register file at entry (see `reg_templates`), so every operand —
    /// param, instruction result, or constant — is a plain indexed load.
    #[inline]
    fn eval(&self, _func: &lp_ir::Function, regs: &[Value], v: ValueId) -> Value {
        regs[v.index()]
    }

    fn call_function(&mut self, fid: FuncId, args: &[Value]) -> Result<Value> {
        self.depth += 1;
        if self.depth > self.config.max_call_depth {
            return Err(InterpError::CallDepthExceeded);
        }
        let func = self.module.function(fid);
        debug_assert_eq!(args.len(), func.params.len());
        let mut regs: Vec<Value> = self.reg_templates[fid.index()].clone();
        regs[..args.len()].copy_from_slice(args);
        let frame_mark = self.memory.stack_top();
        self.sink.func_entered(fid, frame_mark, self.cost);

        let mut block = BlockId::ENTRY;
        let mut prev: Option<BlockId> = None;
        let ret = loop {
            let cost = func.block_cost(block);
            self.sink.block_entered(fid, block, cost, self.cost);

            // Two-phase phi resolution (parallel-copy semantics). Phis are
            // free (resolved on edges), so no cost is charged.
            if let Some(pred) = prev {
                let blk = func.block(block);
                let mut updates = std::mem::take(&mut self.phi_scratch);
                for &iid in &blk.insts {
                    let data = func.inst(iid);
                    let Inst::Phi { incomings, .. } = &data.inst else {
                        break;
                    };
                    let (_, v) = incomings
                        .iter()
                        .find(|(b, _)| *b == pred)
                        .expect("verified phi covers predecessors");
                    updates.push((data.result, self.eval(func, &regs, *v)));
                }
                for &(r, v) in &updates {
                    regs[r.index()] = v;
                    self.sink.phi_resolved(fid, block, r, v, self.cost);
                }
                updates.clear();
                self.phi_scratch = updates;
            }

            // Parallel replay interception: entering a planned certified
            // header from outside its loop (phis hold iteration-0 values)
            // runs all iterations across workers and leaves the exit phi
            // values in `regs`; the header then executes once more below
            // and exits through its ordinary compare.
            if self.replay.is_some() {
                self.maybe_replay(fid, func, block, prev, &mut regs)?;
            }

            // Body, charged one cost unit per instruction so producer and
            // consumer timestamps have instruction granularity. `func`
            // borrows from the module (lifetime `'a`), not from `self`, so
            // iterating it while mutating `self` is fine.
            for &iid in &func.block(block).insts {
                let data = func.inst(iid);
                if data.inst.is_phi() {
                    continue;
                }
                self.charge(1)?;
                let result = self.exec_inst(fid, func, &mut regs, &data.inst)?;
                regs[data.result.index()] = result;
                let map = &self.watched[fid.index()];
                if !map.is_empty() && map[data.result.index()] {
                    self.sink.value_defined(fid, data.result, result, self.cost);
                }
            }

            // Terminator (one cost unit).
            self.charge(1)?;
            match &func.block(block).term {
                Term::Br(t) => {
                    prev = Some(block);
                    block = *t;
                }
                Term::CondBr {
                    cond,
                    then_blk,
                    else_blk,
                } => {
                    let c = self.eval(func, &regs, *cond).as_bool()?;
                    prev = Some(block);
                    block = if c { *then_blk } else { *else_blk };
                }
                Term::Ret(v) => {
                    break match v {
                        Some(v) => self.eval(func, &regs, *v),
                        None => Value::Unit,
                    };
                }
            }
        };
        self.memory.stack_release(frame_mark);
        self.sink.func_exited(fid, self.cost);
        self.depth -= 1;
        Ok(ret)
    }

    /// Replays a certified loop across workers if `block` is a planned
    /// header being entered from outside its loop. On return, `regs`
    /// holds the loop's exit phi values, memory holds every iteration's
    /// writes, and exactly the serial cost has been charged — minus the
    /// final header evaluation, which the caller performs next.
    ///
    /// Falls through (leaving everything untouched) when the header is
    /// not planned, is being re-entered from its latch, or runs fewer
    /// than two iterations.
    pub(crate) fn maybe_replay(
        &mut self,
        fid: FuncId,
        func: &lp_ir::Function,
        block: BlockId,
        prev: Option<BlockId>,
        regs: &mut [Value],
    ) -> Result<()> {
        let Some(ReplayCtl::Plan { plan, exec, code }) = self.replay else {
            return Ok(());
        };
        let Some(cert) = plan.loop_at(fid, block) else {
            return Ok(());
        };
        if prev.is_some_and(|p| cert.contains(p)) {
            // Latch re-entry: the serial tail of a loop the probe
            // declined to replay (fewer than two iterations).
            return Ok(());
        }

        // Loop-invariant step values, evaluated once at entry.
        let mut steps = Vec::with_capacity(cert.phis.len());
        for (_, kind) in &cert.phis {
            steps.push(match kind {
                CertPhi::Affine(step) => step_value(step, regs)?,
                CertPhi::Reduction { .. } => 0,
            });
        }
        let probe_budget = (self.config.max_cost - self.cost) / func.block_cost(block).max(1) + 2;
        let n = probe_trip_count(func, cert, regs, &steps, probe_budget)?;
        if n < 2 {
            return Ok(());
        }

        // Seed one register file per chunk.
        let entries: Vec<Value> = cert.phis.iter().map(|(v, _)| regs[v.index()]).collect();
        let ranges = split_iterations(n, plan.jobs());
        let mut chunks = Vec::with_capacity(ranges.len());
        for (ci, range) in ranges.iter().enumerate() {
            let mut cregs = regs.to_vec();
            for (pi, (v, kind)) in cert.phis.iter().enumerate() {
                cregs[v.index()] = match kind {
                    CertPhi::Affine(_) => Value::I(
                        entries[pi]
                            .as_i64()?
                            .wrapping_add((range.start as i64).wrapping_mul(steps[pi])),
                    ),
                    CertPhi::Reduction { .. } if ci == 0 => {
                        // First chunk carries the live-in value; make
                        // sure it really is an integer before workers
                        // start folding.
                        Value::I(entries[pi].as_i64()?)
                    }
                    CertPhi::Reduction { identity, .. } => Value::I(*identity),
                };
            }
            chunks.push(ChunkSpec {
                index: ci,
                iters: range.end - range.start,
                regs: cregs,
            });
        }

        // Fan out. Workers inherit the remaining fuel and call depth;
        // certified loops cannot print, draw random numbers, or touch
        // the allocators, so no other machine state needs to travel.
        let worker_config = MachineConfig {
            max_cost: self.config.max_cost - self.cost,
            max_call_depth: self.config.max_call_depth - self.depth,
            rng_seed: self.config.rng_seed,
            ..MachineConfig::default()
        };
        let request = ChunkRequest {
            module: self.module,
            code,
            cert,
            memory: &self.memory,
            config: &worker_config,
            chunks,
        };
        let outs = exec.run_chunks(request)?;
        if outs.len() != ranges.len() {
            return Err(InterpError::TypeConfusion(
                "replay executor returned wrong chunk count",
            ));
        }

        // Charge every worker's cost before touching memory, so fuel
        // exhaustion surfaces exactly as it would have serially.
        for out in &outs {
            self.charge(out.cost)?;
        }
        // Deterministic delta merge: apply chunk logs in chunk (=
        // iteration) order. Addresses at or above the loop-entry stack
        // top are worker-private scratch frames (dead on both sides)
        // and are skipped; live caller-frame and global/heap writes land.
        let stack_mark = self.memory.stack_top();
        for out in &outs {
            for &(addr, word) in &out.log {
                if addr < stack_mark {
                    self.memory.write(addr, word)?;
                }
            }
        }
        // Exit phi values: affine phis in closed form, reduction phis
        // as the in-chunk-order fold of the partials.
        for (pi, (v, kind)) in cert.phis.iter().enumerate() {
            regs[v.index()] = match kind {
                CertPhi::Affine(_) => Value::I(
                    entries[pi]
                        .as_i64()?
                        .wrapping_add((n as i64).wrapping_mul(steps[pi])),
                ),
                CertPhi::Reduction { op, .. } => {
                    let mut acc = outs[0].phi_out[pi];
                    for out in &outs[1..] {
                        acc = exec_bin(*op, acc, out.phi_out[pi])?;
                    }
                    acc
                }
            };
        }
        Ok(())
    }

    fn exec_inst(
        &mut self,
        fid: FuncId,
        func: &lp_ir::Function,
        regs: &mut [Value],
        inst: &Inst,
    ) -> Result<Value> {
        match inst {
            Inst::Bin { .. }
            | Inst::Icmp { .. }
            | Inst::Fcmp { .. }
            | Inst::Select { .. }
            | Inst::Cast { .. }
            | Inst::Gep { .. } => exec_pure(regs, inst),
            Inst::Load { ty, addr } => {
                let a = self.eval(func, regs, *addr).as_ptr()?;
                let bits = self.memory.read(a)?;
                self.sink.load(a, self.cost);
                Ok(Value::from_bits(*ty, bits))
            }
            Inst::Store { val, addr } => {
                let v = self.eval(func, regs, *val).to_bits()?;
                let a = self.eval(func, regs, *addr).as_ptr()?;
                self.memory.write(a, v)?;
                self.sink.store(a, self.cost);
                Ok(Value::Unit)
            }
            Inst::Alloca { words } => {
                let base = self.memory.stack_alloc(u64::from(*words));
                Ok(Value::P(base))
            }
            Inst::Call { callee, args } => {
                let argv: Vec<Value> = args.iter().map(|a| self.eval(func, regs, *a)).collect();
                match callee {
                    Callee::Func(target) => self.call_function(*target, &argv),
                    Callee::Builtin(b) => {
                        self.sink.builtin_called(fid, *b, self.cost);
                        self.exec_builtin(*b, &argv)
                    }
                }
            }
            Inst::Phi { .. } => unreachable!("phis handled at block entry"),
        }
    }

    pub(crate) fn exec_builtin(&mut self, b: Builtin, args: &[Value]) -> Result<Value> {
        match b {
            Builtin::Malloc => {
                let bytes = args[0].as_i64()?.max(0) as u64;
                Ok(Value::P(self.memory.heap_alloc(bytes)))
            }
            Builtin::Free => Ok(Value::Unit),
            Builtin::Memcpy => {
                // Forward word copy: like C `memcpy`, overlapping
                // dst/src ranges are not supported (no memmove variant).
                let dst = args[0].as_ptr()?;
                let src = args[1].as_ptr()?;
                let bytes = args[2].as_i64()?.max(0) as u64;
                for w in 0..bytes.div_ceil(8) {
                    let bits = self.memory.read(src + w * 8)?;
                    self.sink.load(src + w * 8, self.cost);
                    self.memory.write(dst + w * 8, bits)?;
                    self.sink.store(dst + w * 8, self.cost);
                }
                Ok(Value::Unit)
            }
            Builtin::Memset => {
                let dst = args[0].as_ptr()?;
                let word = args[1].as_i64()? as u64;
                let bytes = args[2].as_i64()?.max(0) as u64;
                for w in 0..bytes.div_ceil(8) {
                    self.memory.write(dst + w * 8, word)?;
                    self.sink.store(dst + w * 8, self.cost);
                }
                Ok(Value::Unit)
            }
            Builtin::PrintI64 => {
                if self.config.capture_output && self.output.len() < 10_000 {
                    self.output.push(args[0].as_i64()?.to_string());
                }
                Ok(Value::Unit)
            }
            Builtin::PrintF64 => {
                if self.config.capture_output && self.output.len() < 10_000 {
                    self.output.push(format!("{:?}", args[0].as_f64()?));
                }
                Ok(Value::Unit)
            }
            Builtin::Rand => {
                self.rng = self
                    .rng
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                Ok(Value::I((self.rng >> 33) as i64))
            }
            Builtin::Sqrt => {
                let x = args[0].as_f64()?;
                if x < 0.0 {
                    return Err(InterpError::MathDomain("sqrt"));
                }
                Ok(Value::F(x.sqrt()))
            }
            Builtin::Sin => Ok(Value::F(args[0].as_f64()?.sin())),
            Builtin::Cos => Ok(Value::F(args[0].as_f64()?.cos())),
            Builtin::Exp => Ok(Value::F(args[0].as_f64()?.exp())),
            Builtin::Log => {
                let x = args[0].as_f64()?;
                if x <= 0.0 {
                    return Err(InterpError::MathDomain("log"));
                }
                Ok(Value::F(x.ln()))
            }
            Builtin::FAbs => Ok(Value::F(args[0].as_f64()?.abs())),
            Builtin::Floor => Ok(Value::F(args[0].as_f64()?.floor())),
            Builtin::Pow => Ok(Value::F(args[0].as_f64()?.powf(args[1].as_f64()?))),
        }
    }
}

pub(crate) fn exec_bin(op: BinOp, l: Value, r: Value) -> Result<Value> {
    if op.is_float() {
        let (a, b) = (l.as_f64()?, r.as_f64()?);
        return Ok(Value::F(match op {
            BinOp::FAdd => a + b,
            BinOp::FSub => a - b,
            BinOp::FMul => a * b,
            BinOp::FDiv => a / b,
            BinOp::FMin => a.min(b),
            BinOp::FMax => a.max(b),
            _ => unreachable!(),
        }));
    }
    let (a, b) = (l.as_i64()?, r.as_i64()?);
    Ok(Value::I(match op {
        BinOp::Add => a.wrapping_add(b),
        BinOp::Sub => a.wrapping_sub(b),
        BinOp::Mul => a.wrapping_mul(b),
        BinOp::SDiv => {
            if b == 0 {
                return Err(InterpError::DivByZero);
            }
            a.checked_div(b).unwrap_or(i64::MIN)
        }
        BinOp::SRem => {
            if b == 0 {
                return Err(InterpError::DivByZero);
            }
            a.checked_rem(b).unwrap_or(0)
        }
        BinOp::And => a & b,
        BinOp::Or => a | b,
        BinOp::Xor => a ^ b,
        BinOp::Shl => a.wrapping_shl(b as u32 & 63),
        BinOp::AShr => a.wrapping_shr(b as u32 & 63),
        BinOp::SMin => a.min(b),
        BinOp::SMax => a.max(b),
        _ => unreachable!(),
    }))
}

/// Evaluates a register-pure instruction against `regs` — no memory, no
/// allocators, no calls. This is both the interpreter's fast path for
/// such instructions and the replay trip-count probe's evaluator (the
/// only instruction kinds certification admits into a certified header).
fn exec_pure(regs: &[Value], inst: &Inst) -> Result<Value> {
    let get = |v: &ValueId| regs[v.index()];
    match inst {
        Inst::Bin { op, lhs, rhs } => exec_bin(*op, get(lhs), get(rhs)),
        Inst::Icmp { pred, lhs, rhs } => {
            let (l, r) = match (get(lhs), get(rhs)) {
                (Value::P(a), Value::P(b)) => (a as i64, b as i64),
                (a, b) => (a.as_i64()?, b.as_i64()?),
            };
            Ok(Value::B(match pred {
                IcmpPred::Eq => l == r,
                IcmpPred::Ne => l != r,
                IcmpPred::Slt => l < r,
                IcmpPred::Sle => l <= r,
                IcmpPred::Sgt => l > r,
                IcmpPred::Sge => l >= r,
            }))
        }
        Inst::Fcmp { pred, lhs, rhs } => {
            let l = get(lhs).as_f64()?;
            let r = get(rhs).as_f64()?;
            Ok(Value::B(match pred {
                FcmpPred::Oeq => l == r,
                FcmpPred::One => l != r,
                FcmpPred::Olt => l < r,
                FcmpPred::Ole => l <= r,
                FcmpPred::Ogt => l > r,
                FcmpPred::Oge => l >= r,
            }))
        }
        Inst::Select {
            cond,
            then_val,
            else_val,
        } => {
            let c = get(cond).as_bool()?;
            Ok(if c { get(then_val) } else { get(else_val) })
        }
        Inst::Cast { kind, val } => {
            let v = get(val);
            Ok(match kind {
                CastKind::SiToFp => Value::F(v.as_i64()? as f64),
                CastKind::FpToSi => Value::I(v.as_f64()? as i64),
                CastKind::PtrToInt => Value::I(v.as_ptr()? as i64),
                CastKind::IntToPtr => Value::P(v.as_i64()? as u64),
                CastKind::BoolToInt => Value::I(i64::from(v.as_bool()?)),
            })
        }
        Inst::Gep {
            base,
            index,
            scale,
            offset,
        } => {
            let b = get(base).as_ptr()?;
            let i = get(index).as_i64()?;
            let addr = (b as i64)
                .wrapping_add(i.wrapping_mul(*scale))
                .wrapping_add(*offset) as u64;
            Ok(Value::P(addr))
        }
        _ => Err(InterpError::TypeConfusion(
            "impure instruction in pure context",
        )),
    }
}

/// Evaluates a certified affine step against a frame register file
/// (wrapping arithmetic, matching the interpreter's integer semantics).
/// Every referenced register is loop-invariant by construction, so one
/// evaluation at loop entry serves the whole loop.
fn step_value(step: &StepSpec, regs: &[Value]) -> Result<i64> {
    let mut acc = step.konst;
    for &(v, c) in &step.terms {
        acc = acc.wrapping_add(regs[v.index()].as_i64()?.wrapping_mul(c));
    }
    Ok(acc)
}

/// Derives a certified loop's exact trip count by evaluating the
/// header's pure instructions against closed-form induction values
/// `entry + k·step` for `k = 0, 1, …` until the header's branch selects
/// an exit successor. Charges nothing; `budget` bounds the walk so a
/// diverging loop surfaces as fuel exhaustion just like it would
/// serially.
fn probe_trip_count(
    func: &lp_ir::Function,
    cert: &CertifiedLoop,
    regs: &[Value],
    steps: &[i64],
    budget: u64,
) -> Result<u64> {
    let mut scratch = regs.to_vec();
    // Reduction phis never feed the exit condition (certification
    // guarantees it), so only affine entries matter below.
    let entries: Vec<i64> = cert
        .phis
        .iter()
        .map(|(v, kind)| match kind {
            CertPhi::Affine(_) => scratch[v.index()].as_i64(),
            CertPhi::Reduction { .. } => Ok(0),
        })
        .collect::<Result<_>>()?;
    let header = func.block(cert.header);
    for k in 0..=budget {
        for (pi, (v, kind)) in cert.phis.iter().enumerate() {
            if matches!(kind, CertPhi::Affine(_)) {
                scratch[v.index()] =
                    Value::I(entries[pi].wrapping_add((k as i64).wrapping_mul(steps[pi])));
            }
        }
        for &iid in &header.insts {
            let data = func.inst(iid);
            if data.inst.is_phi() {
                continue;
            }
            scratch[data.result.index()] = exec_pure(&scratch, &data.inst)?;
        }
        let Term::CondBr {
            cond,
            then_blk,
            else_blk,
        } = &header.term
        else {
            return Err(InterpError::TypeConfusion(
                "certified header must end in a conditional branch",
            ));
        };
        let taken = if scratch[cond.index()].as_bool()? {
            *then_blk
        } else {
            *else_blk
        };
        if !cert.contains(taken) {
            return Ok(k);
        }
    }
    Err(InterpError::FuelExhausted)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::CountingSink;
    use lp_ir::builder::FunctionBuilder;
    use lp_ir::{Global, Type};

    use crate::{Exec, ExecUnit};

    /// Runs `m` on both engines with the same config and asserts the
    /// results are identical — every machine test doubles as an engine
    /// differential test.
    fn run_both_cfg(m: &Module, cfg: &MachineConfig, args: &[Value]) -> RunResult {
        let tree_unit = ExecUnit::with_engine(m, Engine::Tree);
        let tree = Exec::new(&tree_unit)
            .config(cfg.clone())
            .run(args)
            .unwrap()
            .result;
        let bc_unit = ExecUnit::with_engine(m, Engine::Bc);
        let bc = Exec::new(&bc_unit)
            .config(cfg.clone())
            .run(args)
            .unwrap()
            .result;
        assert_eq!(tree, bc, "tree and bc engines diverged");
        tree
    }

    fn run_main(m: &Module, args: &[Value]) -> RunResult {
        run_both_cfg(m, &MachineConfig::default(), args)
    }

    /// As [`run_both_cfg`] for runs that must trap: both engines must
    /// fail with the same error.
    fn err_both(m: &Module, cfg: &MachineConfig, args: &[Value]) -> InterpError {
        let tree_unit = ExecUnit::with_engine(m, Engine::Tree);
        let tree = Exec::new(&tree_unit)
            .config(cfg.clone())
            .run(args)
            .unwrap_err();
        let bc_unit = ExecUnit::with_engine(m, Engine::Bc);
        let bc = Exec::new(&bc_unit)
            .config(cfg.clone())
            .run(args)
            .unwrap_err();
        assert_eq!(tree, bc, "tree and bc engines trapped differently");
        tree
    }

    /// sum of 0..n via loop.
    fn sum_module() -> Module {
        let mut m = Module::new("sum");
        let mut fb = FunctionBuilder::new("main", &[Type::I64], Type::I64);
        let n = fb.param(0);
        let zero = fb.const_i64(0);
        let one = fb.const_i64(1);
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
        let s2 = fb.add(s, i);
        let i2 = fb.add(i, one);
        fb.add_phi_incoming(i, BlockId::ENTRY, zero);
        fb.add_phi_incoming(i, body, i2);
        fb.add_phi_incoming(s, BlockId::ENTRY, zero);
        fb.add_phi_incoming(s, body, s2);
        fb.br(header);
        fb.switch_to(exit);
        fb.ret(Some(s));
        m.add_function(fb.finish().unwrap());
        m
    }

    #[test]
    fn loop_sums_correctly() {
        let m = sum_module();
        assert_eq!(run_main(&m, &[Value::I(10)]).ret, Value::I(45));
        assert_eq!(run_main(&m, &[Value::I(0)]).ret, Value::I(0));
    }

    #[test]
    fn cost_is_dynamic_ir_count() {
        let m = sum_module();
        let r0 = run_main(&m, &[Value::I(0)]);
        let r10 = run_main(&m, &[Value::I(10)]);
        let r20 = run_main(&m, &[Value::I(20)]);
        // Each extra iteration costs the same (header + body).
        assert_eq!(r20.cost - r10.cost, r10.cost - r0.cost);
        assert!(r0.cost > 0);
    }

    #[test]
    fn events_are_emitted() {
        let mut m = Module::new("ev");
        let g = m.add_global(Global::zeroed("buf", 4));
        let mut fb = FunctionBuilder::new("main", &[], Type::I64);
        let p = fb.global_addr(g);
        let x = fb.const_i64(5);
        fb.store(x, p);
        let y = fb.load(Type::I64, p);
        fb.ret(Some(y));
        m.add_function(fb.finish().unwrap());
        // Both engines deliver the same per-instruction callbacks.
        let mut sink = CountingSink::default();
        let unit = ExecUnit::with_engine(&m, Engine::Tree);
        let r = Exec::new(&unit).sink(&mut sink).run(&[]).unwrap().result;
        assert_eq!(r.ret, Value::I(5));
        assert_eq!(sink.loads, 1);
        assert_eq!(sink.stores, 1);
        assert_eq!(sink.blocks, 1);
        assert_eq!(sink.calls, 1); // main itself
        assert_eq!(r.cost, sink.cost);
        let mut bc_sink = CountingSink::default();
        let bc_unit = ExecUnit::with_engine(&m, Engine::Bc);
        let rb = Exec::new(&bc_unit)
            .sink(&mut bc_sink)
            .run(&[])
            .unwrap()
            .result;
        assert_eq!(rb, r);
        assert_eq!(format!("{bc_sink:?}"), format!("{sink:?}"));
    }

    #[test]
    fn globals_are_initialized() {
        let mut m = Module::new("gi");
        let g = m.add_global(Global::from_i64("tab", &[7, 8, 9]));
        let mut fb = FunctionBuilder::new("main", &[], Type::I64);
        let p = fb.global_addr(g);
        let two = fb.const_i64(2);
        let a = fb.gep(p, two, 8, 0);
        let v = fb.load(Type::I64, a);
        fb.ret(Some(v));
        m.add_function(fb.finish().unwrap());
        assert_eq!(run_main(&m, &[]).ret, Value::I(9));
    }

    #[test]
    fn user_calls_and_stack_frames() {
        let mut m = Module::new("call");
        // callee: alloca a slot, store arg, load it back doubled.
        let mut fb = FunctionBuilder::new("twice", &[Type::I64], Type::I64);
        let x = fb.param(0);
        let slot = fb.alloca(1);
        fb.store(x, slot);
        let v = fb.load(Type::I64, slot);
        let r = fb.add(v, v);
        fb.ret(Some(r));
        let twice = m.add_function(fb.finish().unwrap());
        let mut fb = FunctionBuilder::new("main", &[], Type::I64);
        let a = fb.const_i64(21);
        let r = fb.call(twice, Type::I64, &[a]);
        fb.ret(Some(r));
        m.add_function(fb.finish().unwrap());
        assert_eq!(run_main(&m, &[]).ret, Value::I(42));
    }

    #[test]
    fn builtins_work() {
        let mut m = Module::new("b");
        let mut fb = FunctionBuilder::new("main", &[], Type::I64);
        let sixty_four = fb.const_i64(64);
        let p = fb.call_builtin(Builtin::Malloc, &[sixty_four]);
        let x = fb.const_i64(-3);
        fb.store(x, p);
        let four = fb.const_f64(4.0);
        let s = fb.call_builtin(Builtin::Sqrt, &[four]);
        let si = fb.fptosi(s);
        let v = fb.load(Type::I64, p);
        let r = fb.add(si, v);
        fb.call_builtin(Builtin::Free, &[p]);
        fb.ret(Some(r));
        m.add_function(fb.finish().unwrap());
        assert_eq!(run_main(&m, &[]).ret, Value::I(-1));
    }

    #[test]
    fn rand_is_deterministic() {
        let mut m = Module::new("r");
        let mut fb = FunctionBuilder::new("main", &[], Type::I64);
        let a = fb.call_builtin(Builtin::Rand, &[]);
        let b = fb.call_builtin(Builtin::Rand, &[]);
        let r = fb.xor(a, b);
        fb.ret(Some(r));
        m.add_function(fb.finish().unwrap());
        let r1 = run_main(&m, &[]);
        let r2 = run_main(&m, &[]);
        assert_eq!(r1.ret, r2.ret);
        assert_ne!(r1.ret, Value::I(0), "two draws should differ");
    }

    #[test]
    fn div_by_zero_traps() {
        let mut m = Module::new("d");
        let mut fb = FunctionBuilder::new("main", &[Type::I64], Type::I64);
        let x = fb.const_i64(1);
        let n = fb.param(0);
        let r = fb.sdiv(x, n);
        fb.ret(Some(r));
        m.add_function(fb.finish().unwrap());
        let e = err_both(&m, &MachineConfig::default(), &[Value::I(0)]);
        assert_eq!(e, InterpError::DivByZero);
    }

    #[test]
    fn fuel_exhaustion() {
        let mut m = Module::new("inf");
        let mut fb = FunctionBuilder::new("main", &[], Type::I64);
        let l = fb.create_block("l");
        fb.br(l);
        fb.switch_to(l);
        fb.br(l);
        // No phis needed: infinite empty loop.
        m.add_function(fb.finish().unwrap());
        let cfg = MachineConfig {
            max_cost: 1000,
            ..MachineConfig::default()
        };
        let e = err_both(&m, &cfg, &[]);
        assert_eq!(e, InterpError::FuelExhausted);
    }

    #[test]
    fn output_capture() {
        let mut m = Module::new("o");
        let mut fb = FunctionBuilder::new("main", &[], Type::I64);
        let x = fb.const_i64(7);
        fb.call_builtin(Builtin::PrintI64, &[x]);
        fb.ret(Some(x));
        m.add_function(fb.finish().unwrap());
        let cfg = MachineConfig {
            capture_output: true,
            ..MachineConfig::default()
        };
        let r = run_both_cfg(&m, &cfg, &[]);
        assert_eq!(r.output, vec!["7".to_string()]);
    }

    #[test]
    fn phi_swap_has_parallel_copy_semantics() {
        // a, b = b, a each iteration; after 3 iterations of swapping
        // (1, 2) we get (2, 1).
        let mut m = Module::new("swap");
        let mut fb = FunctionBuilder::new("main", &[], Type::I64);
        let one = fb.const_i64(1);
        let two = fb.const_i64(2);
        let zero = fb.const_i64(0);
        let three = fb.const_i64(3);
        let header = fb.create_block("header");
        let body = fb.create_block("body");
        let exit = fb.create_block("exit");
        fb.br(header);
        fb.switch_to(header);
        let i = fb.phi(Type::I64);
        let a = fb.phi(Type::I64);
        let b = fb.phi(Type::I64);
        let c = fb.icmp(IcmpPred::Slt, i, three);
        fb.cond_br(c, body, exit);
        fb.switch_to(body);
        let i2 = fb.add(i, one);
        fb.add_phi_incoming(i, BlockId::ENTRY, zero);
        fb.add_phi_incoming(i, body, i2);
        fb.add_phi_incoming(a, BlockId::ENTRY, one);
        fb.add_phi_incoming(a, body, b); // a <- b
        fb.add_phi_incoming(b, BlockId::ENTRY, two);
        fb.add_phi_incoming(b, body, a); // b <- a (old a!)
        fb.br(header);
        fb.switch_to(exit);
        let ten = fb.const_i64(10);
        let hi = fb.mul(a, ten);
        let r = fb.add(hi, b);
        fb.ret(Some(r));
        m.add_function(fb.finish().unwrap());
        // After odd number of swaps: a=2, b=1 -> 21.
        assert_eq!(run_main(&m, &[]).ret, Value::I(21));
    }

    #[test]
    fn memcpy_and_memset_move_words_and_emit_events() {
        let mut m = Module::new("mm");
        let src = m.add_global(Global::from_i64("src", &[1, 2, 3, 4]));
        let dst = m.add_global(Global::zeroed("dst", 4));
        let mut fb = FunctionBuilder::new("main", &[], Type::I64);
        let s = fb.global_addr(src);
        let d = fb.global_addr(dst);
        let bytes = fb.const_i64(32);
        fb.call_builtin(Builtin::Memcpy, &[d, s, bytes]);
        let word = fb.const_i64(9);
        let half = fb.const_i64(16);
        fb.call_builtin(Builtin::Memset, &[s, word, half]);
        let two = fb.const_i64(2);
        let a = fb.gep(d, two, 8, 0);
        let v1 = fb.load(Type::I64, a); // dst[2] == 3 (copied)
        let z = fb.const_i64(0);
        let b = fb.gep(s, z, 8, 8);
        let v2 = fb.load(Type::I64, b); // src[1] == 9 (memset)
        let r = fb.mul(v1, v2);
        fb.ret(Some(r));
        m.add_function(fb.finish().unwrap());
        for engine in [Engine::Tree, Engine::Bc] {
            let mut sink = CountingSink::default();
            let unit = ExecUnit::with_engine(&m, engine);
            let res = Exec::new(&unit).sink(&mut sink).run(&[]).unwrap().result;
            assert_eq!(res.ret, Value::I(27), "{engine:?}");
            // 4 memcpy loads + 2 explicit loads; 4 memcpy + 2 memset stores.
            assert_eq!(sink.loads, 6, "{engine:?}");
            assert_eq!(sink.stores, 6, "{engine:?}");
            assert_eq!(sink.builtins, 2, "{engine:?}");
        }
    }

    #[test]
    fn call_depth_limit_trips_on_infinite_recursion() {
        let mut m = Module::new("rec");
        let mut fb = FunctionBuilder::new("main", &[], Type::I64);
        let r = fb.call(lp_ir::FuncId(0), Type::I64, &[]); // self-call
        fb.ret(Some(r));
        m.add_function(fb.finish().unwrap());
        let cfg = MachineConfig {
            max_call_depth: 64,
            ..MachineConfig::default()
        };
        let e = err_both(&m, &cfg, &[]);
        assert_eq!(e, InterpError::CallDepthExceeded);
    }

    #[test]
    fn null_and_unaligned_accesses_trap() {
        let mut m = Module::new("bad");
        let mut fb = FunctionBuilder::new("main", &[Type::I64], Type::I64);
        let x = fb.param(0);
        let p = fb.cast(lp_ir::CastKind::IntToPtr, x);
        let v = fb.load(Type::I64, p);
        fb.ret(Some(v));
        m.add_function(fb.finish().unwrap());
        let run = |arg: i64| err_both(&m, &MachineConfig::default(), &[Value::I(arg)]);
        assert_eq!(run(0), InterpError::NullDeref(0));
        assert_eq!(run(0x1000_0004), InterpError::Unaligned(0x1000_0004));
    }

    use lp_ir::{BlockId, IcmpPred};

    /// What certification emits for `m`'s one loop — the machine's
    /// replay tests plan exactly what the replay pipeline would.
    fn certified(m: &Module) -> Vec<CertifiedLoop> {
        let loops = lp_analysis::certify_module(m, &lp_analysis::analyze_module(m));
        assert_eq!(loops.len(), 1, "the test loop must certify");
        loops
    }

    #[test]
    fn step_value_evaluates_terms() {
        let step = StepSpec {
            konst: 3,
            terms: vec![(ValueId(0), 2), (ValueId(1), -1)],
        };
        let regs = [Value::I(10), Value::I(4)];
        assert_eq!(step_value(&step, &regs).unwrap(), 3 + 20 - 4);
        assert!(step_value(&step, &[Value::F(1.0), Value::I(4)]).is_err());
    }

    #[test]
    fn exec_memory_and_named_entry_match_plain_run() {
        // Keeping the memory image or naming `main` explicitly must not
        // change the run's result on either engine.
        let m = sum_module();
        let expect = run_main(&m, &[Value::I(10)]);
        for engine in [Engine::Tree, Engine::Bc] {
            let unit = ExecUnit::with_engine(&m, engine);
            let out = Exec::new(&unit)
                .keep_memory(true)
                .run(&[Value::I(10)])
                .unwrap();
            assert_eq!(out.result, expect, "{engine:?}");
            assert!(out.memory.is_some(), "{engine:?}");
            let out = Exec::new(&unit)
                .function("main")
                .run(&[Value::I(10)])
                .unwrap();
            assert_eq!(out.result, expect, "{engine:?}");
            assert!(out.memory.is_none(), "{engine:?}");
        }
    }

    #[test]
    fn replayed_sum_matches_serial_result_and_cost() {
        use crate::replay::{ReplayPlan, SerialExec};
        let m = sum_module();
        for n in [0i64, 1, 2, 3, 10, 97] {
            let serial = run_main(&m, &[Value::I(n)]);
            for engine in [Engine::Tree, Engine::Bc] {
                let unit = ExecUnit::with_engine(&m, engine);
                for jobs in [1usize, 2, 3, 8] {
                    let plan = ReplayPlan::new(certified(&m), jobs);
                    let r = Exec::new(&unit)
                        .replay(&plan, &SerialExec)
                        .run(&[Value::I(n)])
                        .unwrap()
                        .result;
                    assert_eq!(r.ret, serial.ret, "{engine:?} n={n} jobs={jobs}");
                    assert_eq!(
                        r.cost, serial.cost,
                        "replay cost invariant {engine:?} n={n} jobs={jobs}"
                    );
                }
            }
        }
    }

    /// Runs `m` unreplayed and replayed through [`SerialExec`] at 1 and 2
    /// chunks, on both top-level engines, and asserts every replayed
    /// outcome — result or trap — equals the unreplayed one.
    fn assert_replay_matches_serial(m: &Module, cfg: &MachineConfig, args: &[Value]) {
        use crate::replay::{ReplayPlan, SerialExec};
        for engine in [Engine::Tree, Engine::Bc] {
            let unit = ExecUnit::with_engine(m, engine);
            let run = |plan: Option<&ReplayPlan>| {
                let exec = Exec::new(&unit).config(cfg.clone());
                match plan {
                    Some(plan) => exec.replay(plan, &SerialExec).run(args),
                    None => exec.run(args),
                }
                .map(|out| out.result)
            };
            let serial = run(None);
            for jobs in [1usize, 2] {
                let plan = ReplayPlan::new(certified(m), jobs);
                assert_eq!(
                    run(Some(&plan)),
                    serial,
                    "{engine:?} jobs={jobs} max_cost={}",
                    cfg.max_cost
                );
            }
        }
    }

    #[test]
    fn traps_inside_replayed_chunks_match_the_serial_run() {
        // s += 100 / (i - k): the certified loop divides by zero at
        // iteration k, which lands in the first or the second chunk.
        for k in [0i64, 37, 60, 96] {
            let mut m = Module::new("div");
            let mut fb = FunctionBuilder::new("main", &[Type::I64], Type::I64);
            let n = fb.param(0);
            let zero = fb.const_i64(0);
            let one = fb.const_i64(1);
            let kk = fb.const_i64(k);
            let hundred = fb.const_i64(100);
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
            let d = fb.sub(i, kk);
            let q = fb.sdiv(hundred, d);
            let s2 = fb.add(s, q);
            let i2 = fb.add(i, one);
            fb.add_phi_incoming(i, BlockId::ENTRY, zero);
            fb.add_phi_incoming(i, body, i2);
            fb.add_phi_incoming(s, BlockId::ENTRY, zero);
            fb.add_phi_incoming(s, body, s2);
            fb.br(header);
            fb.switch_to(exit);
            fb.ret(Some(s));
            m.add_function(fb.finish().unwrap());
            let cfg = MachineConfig::default();
            assert_eq!(
                err_both(&m, &cfg, &[Value::I(97)]),
                InterpError::DivByZero,
                "k={k}"
            );
            assert_replay_matches_serial(&m, &cfg, &[Value::I(97)]);
            // Stopping short of iteration k never traps.
            assert_replay_matches_serial(&m, &cfg, &[Value::I(k)]);
        }
    }

    #[test]
    fn fuel_running_out_inside_replayed_chunks_matches_the_serial_run() {
        // 300 iterations cost 5 units each. Budgets from starving to
        // ample exhaust in the trip-count probe, inside a chunk, at the
        // parent's charge of the chunk costs, or not at all; each must
        // end exactly as the unreplayed run does.
        let m = sum_module();
        let full = run_main(&m, &[Value::I(300)]).cost;
        for max_cost in (50..=full + 50).step_by(50).chain([700, full - 1, full]) {
            let cfg = MachineConfig {
                max_cost,
                ..MachineConfig::default()
            };
            assert_replay_matches_serial(&m, &cfg, &[Value::I(300)]);
        }
        let starved = MachineConfig {
            max_cost: 700,
            ..MachineConfig::default()
        };
        assert_eq!(
            err_both(&m, &starved, &[Value::I(300)]),
            InterpError::FuelExhausted
        );
    }

    #[test]
    fn replayed_memory_image_is_byte_identical() {
        use crate::replay::{ReplayPlan, SerialExec};
        // a[i] = i * 3 over a 64-word global; the final images of the
        // serial and replayed runs must not differ in a single word.
        let mut m = Module::new("fill");
        let g = m.add_global(Global::zeroed("a", 64));
        let mut fb = FunctionBuilder::new("main", &[], Type::I64);
        let base = fb.global_addr(g);
        let n = fb.const_i64(64);
        let zero = fb.const_i64(0);
        let one = fb.const_i64(1);
        let three = fb.const_i64(3);
        let header = fb.create_block("header");
        let body = fb.create_block("body");
        let exit = fb.create_block("exit");
        fb.br(header);
        fb.switch_to(header);
        let i = fb.phi(Type::I64);
        let c = fb.icmp(IcmpPred::Slt, i, n);
        fb.cond_br(c, body, exit);
        fb.switch_to(body);
        let v = fb.mul(i, three);
        let p = fb.gep(base, i, 8, 0);
        fb.store(v, p);
        let i2 = fb.add(i, one);
        fb.add_phi_incoming(i, BlockId::ENTRY, zero);
        fb.add_phi_incoming(i, body, i2);
        fb.br(header);
        fb.switch_to(exit);
        fb.ret(Some(zero));
        m.add_function(fb.finish().unwrap());

        let serial_unit = ExecUnit::new(&m);
        let serial_mem = Exec::new(&serial_unit)
            .keep_memory(true)
            .run(&[])
            .unwrap()
            .memory
            .unwrap();
        for engine in [Engine::Tree, Engine::Bc] {
            let unit = ExecUnit::with_engine(&m, engine);
            let plan = ReplayPlan::new(certified(&m), 4);
            let replay_mem = Exec::new(&unit)
                .replay(&plan, &SerialExec)
                .keep_memory(true)
                .run(&[])
                .unwrap()
                .memory
                .unwrap();
            assert_eq!(serial_mem.first_difference(&replay_mem), None, "{engine:?}");
            assert_eq!(
                replay_mem
                    .read(crate::memory::GLOBAL_BASE + 8 * 63)
                    .unwrap(),
                189
            );
        }
    }
}
