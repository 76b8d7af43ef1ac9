//! Static DOALL certification for parallel replay.
//!
//! The limit study's classifier asks "*could* this loop be DOALL under
//! some config"; replay asks the much stricter "may I actually run its
//! iterations on real threads and still produce a byte-identical
//! result?" A loop is **statically certifiable** when every part of the
//! replay recipe is guaranteed to work:
//!
//! 1. **Canonical form** — unique preheader, single latch
//!    ([`Loop::is_canonical`]), so "entered from outside" and "one
//!    iteration per latch→header arrival" are well defined.
//! 2. **Closed-form phis** — every header phi is either an affine
//!    induction (`phi(k) = phi(0) + k·step`, step loop-invariant;
//!    [`derive_step`]) or an *integer* reduction whose operator is
//!    exactly associative (`add/mul/and/or/xor/smin/smax`, the operators
//!    [`reduction_identity`] knows). Float reductions are rejected:
//!    chunked reassociation changes `f64` bits.
//! 3. **Pure header** — the header's non-phi instructions are
//!    register-only (`bin/icmp/fcmp/select/cast/gep`) and independent of
//!    the reduction phis, so the trip count can be derived by evaluating
//!    the header against closed-form induction values without memory,
//!    and workers holding partial reduction values never leak them into
//!    addresses or the exit test.
//! 4. **Header-only exits** — the header ends in a conditional branch
//!    with exactly one successor inside the loop; every other loop
//!    block branches only within the loop. Chunk workers can therefore
//!    never escape mid-iteration.
//! 5. **No frame growth, no unsafe builtins** — no `alloca` in loop
//!    blocks (iteration-local scratch must come from *called* functions,
//!    whose frames the replay merge discards), and the loop's transitive
//!    call closure is free of `malloc`/`free` (bump-allocator state),
//!    `rand` (shared LCG state), and `print_*` (output ordering).
//!
//! Static certification is necessary but not sufficient: the runtime
//! additionally requires an observed-dependence-free profile and a
//! per-iteration footprint-disjointness witness (`lp-runtime`) before a
//! loop is replayed.

use crate::callgraph::CallGraph;
use crate::loops::{Loop, LoopId};
use crate::reduction::detect_reduction;
use crate::scev::{derive_step, StepSpec};
use crate::ModuleAnalysis;
use lp_ir::{BinOp, BlockId, Builtin, Callee, FuncId, Inst, Module, Term, ValueId};

/// How a certified header phi evolves, with everything replay needs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CertPhi {
    /// Affine induction with a derivable loop-invariant step:
    /// `phi(k) = phi(0) + k·step`, so any iteration's value can be
    /// seeded in closed form.
    Affine(StepSpec),
    /// Integer reduction with an exactly-associative operator. Chunk
    /// partials are folded with `op` in chunk order; every chunk but the
    /// first starts from `identity` ([`reduction_identity`]).
    Reduction {
        /// The combining operator.
        op: BinOp,
        /// Its identity element over `i64`.
        identity: i64,
    },
}

/// One loop that passed every static certification check.
#[derive(Debug, Clone)]
pub struct CertifiedLoop {
    /// Containing function.
    pub func: FuncId,
    /// Loop id within the function's forest.
    pub loop_id: LoopId,
    /// Loop header.
    pub header: BlockId,
    /// The single latch.
    pub latch: BlockId,
    /// All loop blocks, sorted by id.
    pub blocks: Vec<BlockId>,
    /// Header phis in block order with their certified kinds; chunk
    /// seeding, partial collection and exit-value reconstruction all
    /// iterate this order.
    pub phis: Vec<(ValueId, CertPhi)>,
}

impl CertifiedLoop {
    /// Whether `block` belongs to the loop.
    #[must_use]
    pub fn contains(&self, block: BlockId) -> bool {
        self.blocks.binary_search(&block).is_ok()
    }
}

/// The identity element of a reduction operator replay can fold chunk
/// partials with, or `None` when `op` is not replayable. Replayable
/// operators are exactly associative over `i64`; floats never qualify
/// (reassociation changes results bit-for-bit), and neither do
/// non-associative ops like `sub`.
#[must_use]
pub fn reduction_identity(op: BinOp) -> Option<i64> {
    Some(match op {
        BinOp::Add | BinOp::Or | BinOp::Xor => 0,
        BinOp::Mul => 1,
        BinOp::And => -1,
        BinOp::SMin => i64::MAX,
        BinOp::SMax => i64::MIN,
        _ => return None,
    })
}

/// Builtins whose presence anywhere in a loop's transitive call closure
/// disqualifies it from replay: they mutate machine state that the
/// per-worker memory clone does not capture (`malloc`/`free` move the
/// bump allocator, `rand` advances the shared LCG, `print_*` appends to
/// the ordered output stream).
fn is_replay_unsafe(b: Builtin) -> bool {
    matches!(
        b,
        Builtin::Malloc | Builtin::Free | Builtin::Rand | Builtin::PrintI64 | Builtin::PrintF64
    )
}

/// Statically certifies every loop in the module, in `(function, loop)`
/// order.
#[must_use]
pub fn certify_module(module: &Module, analysis: &ModuleAnalysis) -> Vec<CertifiedLoop> {
    (0..module.functions.len())
        .flat_map(|i| certify_function(module, analysis, FuncId(i as u32)))
        .collect()
}

/// Statically certifies every loop of one function.
#[must_use]
pub fn certify_function(
    module: &Module,
    analysis: &ModuleAnalysis,
    fid: FuncId,
) -> Vec<CertifiedLoop> {
    let fa = analysis.function(fid);
    fa.loops
        .iter()
        .filter_map(|(loop_id, lp)| certify_loop(module, &analysis.callgraph, fid, loop_id, lp))
        .collect()
}

fn certify_loop(
    module: &Module,
    cg: &CallGraph,
    fid: FuncId,
    loop_id: LoopId,
    lp: &Loop,
) -> Option<CertifiedLoop> {
    let func = module.function(fid);
    // 1. Canonical form.
    if !lp.is_canonical() {
        return None;
    }
    let latch = lp.latches[0];

    // 4. Header-only exits: the header ends in a conditional branch with
    // exactly one in-loop successor; everything else stays inside.
    let header_blk = func.block(lp.header);
    let Term::CondBr {
        cond,
        then_blk,
        else_blk,
    } = &header_blk.term
    else {
        return None;
    };
    if lp.contains(*then_blk) == lp.contains(*else_blk) {
        return None;
    }
    for &b in &lp.blocks {
        if b == lp.header {
            continue;
        }
        if func
            .block(b)
            .term
            .successors()
            .iter()
            .any(|s| !lp.contains(*s))
        {
            return None;
        }
    }

    // 2. Closed-form phis. Reduction recognition goes straight to
    // `detect_reduction` rather than through `LcdClass`: SCEV calls a
    // sum-of-induction phi (`s += i`) *computable*, but replay treats it
    // as a reduction — and `detect_reduction` additionally guarantees
    // partial sums never escape the chain, which chunking requires.
    let mut phis: Vec<(ValueId, CertPhi)> = Vec::new();
    let mut reduction_phis: Vec<ValueId> = Vec::new();
    for &iid in &header_blk.insts {
        let data = func.inst(iid);
        if !data.inst.is_phi() {
            break;
        }
        let phi = data.result;
        if let Some(step) = derive_step(func, lp, phi) {
            phis.push((phi, CertPhi::Affine(step)));
            continue;
        }
        let Inst::Phi { incomings, .. } = &data.inst else {
            unreachable!("is_phi guarantees a phi instruction");
        };
        let update = incomings
            .iter()
            .find(|(b, _)| *b == latch)
            .map(|(_, v)| *v)?;
        let op = detect_reduction(func, lp, phi, update)?;
        let identity = reduction_identity(op)?;
        reduction_phis.push(phi);
        phis.push((phi, CertPhi::Reduction { op, identity }));
    }

    // 3. Pure header, independent of reduction partials. The branch
    // condition is a header-local value, so checking every non-phi
    // header instruction (plus the condition itself) covers the exit
    // test too.
    if reduction_phis.contains(cond) {
        return None;
    }
    for &iid in &header_blk.insts {
        let data = func.inst(iid);
        if data.inst.is_phi() {
            continue;
        }
        match data.inst {
            Inst::Bin { .. }
            | Inst::Icmp { .. }
            | Inst::Fcmp { .. }
            | Inst::Select { .. }
            | Inst::Cast { .. }
            | Inst::Gep { .. } => {}
            _ => return None,
        }
        // Header instructions can only reference header phis, earlier
        // header results, and loop invariants (by dominance), so direct
        // operand checks against the reduction phis suffice.
        if data.inst.operands().any(|v| reduction_phis.contains(&v)) {
            return None;
        }
    }

    // 5. No frame growth, no replay-unsafe builtins (transitively).
    let mut callees: Vec<FuncId> = Vec::new();
    for &b in &lp.blocks {
        for &iid in &func.block(b).insts {
            match &func.inst(iid).inst {
                Inst::Alloca { .. } => return None,
                Inst::Call { callee, .. } => match callee {
                    Callee::Builtin(bi) => {
                        if is_replay_unsafe(*bi) {
                            return None;
                        }
                    }
                    Callee::Func(f) => callees.push(*f),
                },
                _ => {}
            }
        }
    }
    if closure_has_unsafe_builtin(cg, &callees) {
        return None;
    }

    Some(CertifiedLoop {
        func: fid,
        loop_id,
        header: lp.header,
        latch,
        blocks: lp.blocks.clone(),
        phis,
    })
}

/// Walks the call closure of `roots`, returning `true` if any reachable
/// function uses a replay-unsafe builtin. `CallGraph::calls_non_thread_safe`
/// is not enough here: `malloc`/`free` are thread-safe for the limit
/// study's models but still disqualify replay (they move the shared bump
/// allocator).
fn closure_has_unsafe_builtin(cg: &CallGraph, roots: &[FuncId]) -> bool {
    let mut visited: Vec<FuncId> = Vec::new();
    let mut work: Vec<FuncId> = roots.to_vec();
    while let Some(f) = work.pop() {
        if visited.contains(&f) {
            continue;
        }
        visited.push(f);
        if cg.builtins(f).iter().any(|&b| is_replay_unsafe(b)) {
            return true;
        }
        work.extend_from_slice(cg.callees(f));
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze_module;
    use lp_ir::builder::FunctionBuilder;
    use lp_ir::{BlockId, Global, IcmpPred, Type};

    /// `for i in 0..n { body }` with optional extra phis; returns the
    /// module (entry `main` taking `n`).
    fn loop_module(
        extra_phis: usize,
        body: impl FnOnce(&mut FunctionBuilder, ValueId, &[ValueId]) -> Vec<ValueId>,
    ) -> Module {
        let mut m = Module::new("t");
        m.add_global(Global::zeroed("a", 256));
        let mut fb = FunctionBuilder::new("main", &[Type::I64], Type::I64);
        let n = fb.param(0);
        let zero = fb.const_i64(0);
        let one = fb.const_i64(1);
        let header = fb.create_block("header");
        let bodyb = fb.create_block("body");
        let exit = fb.create_block("exit");
        fb.br(header);
        fb.switch_to(header);
        let i = fb.phi(Type::I64);
        let phis: Vec<ValueId> = (0..extra_phis).map(|_| fb.phi(Type::I64)).collect();
        let c = fb.icmp(IcmpPred::Slt, i, n);
        fb.cond_br(c, bodyb, exit);
        fb.switch_to(bodyb);
        let updates = body(&mut fb, i, &phis);
        let i2 = fb.add(i, one);
        fb.add_phi_incoming(i, BlockId::ENTRY, zero);
        fb.add_phi_incoming(i, bodyb, i2);
        for (&p, &u) in phis.iter().zip(&updates) {
            fb.add_phi_incoming(p, BlockId::ENTRY, zero);
            fb.add_phi_incoming(p, bodyb, u);
        }
        fb.br(header);
        fb.switch_to(exit);
        fb.ret(Some(i));
        m.add_function(fb.finish().unwrap());
        m
    }

    fn certify(m: &Module) -> Vec<CertifiedLoop> {
        certify_module(m, &analyze_module(m))
    }

    #[test]
    fn plain_store_loop_certifies() {
        let m = loop_module(0, |fb, i, _| {
            let g = fb.global_addr(lp_ir::GlobalId(0));
            let p = fb.gep(g, i, 8, 0);
            fb.store(i, p);
            vec![]
        });
        let certified = certify(&m);
        assert_eq!(certified.len(), 1);
        let c = &certified[0];
        assert_eq!(c.phis.len(), 1);
        let CertPhi::Affine(step) = &c.phis[0].1 else {
            panic!("counter must be affine");
        };
        assert_eq!(step.konst, 1);
        assert!(step.terms.is_empty());
    }

    #[test]
    fn integer_sum_reduction_certifies() {
        let m = loop_module(1, |fb, i, phis| {
            let s2 = fb.add(phis[0], i);
            vec![s2]
        });
        let certified = certify(&m);
        assert_eq!(certified.len(), 1);
        assert_eq!(
            certified[0].phis[1].1,
            CertPhi::Reduction {
                op: BinOp::Add,
                identity: 0
            }
        );
        assert!(certified[0].contains(certified[0].latch));
        assert!(!certified[0].contains(BlockId::ENTRY));
    }

    #[test]
    fn float_reduction_is_rejected() {
        // f64 accumulation reassociates; replay must refuse it.
        let mut m = Module::new("t");
        let mut fb = FunctionBuilder::new("main", &[Type::I64], Type::F64);
        let n = fb.param(0);
        let zero = fb.const_i64(0);
        let one = fb.const_i64(1);
        let fzero = fb.const_f64(0.0);
        let fc = fb.const_f64(1.5);
        let header = fb.create_block("header");
        let bodyb = fb.create_block("body");
        let exit = fb.create_block("exit");
        fb.br(header);
        fb.switch_to(header);
        let i = fb.phi(Type::I64);
        let s = fb.phi(Type::F64);
        let c = fb.icmp(IcmpPred::Slt, i, n);
        fb.cond_br(c, bodyb, exit);
        fb.switch_to(bodyb);
        let s2 = fb.fadd(s, fc);
        let i2 = fb.add(i, one);
        fb.add_phi_incoming(i, BlockId::ENTRY, zero);
        fb.add_phi_incoming(i, bodyb, i2);
        fb.add_phi_incoming(s, BlockId::ENTRY, fzero);
        fb.add_phi_incoming(s, bodyb, s2);
        fb.br(header);
        fb.switch_to(exit);
        fb.ret(Some(s));
        m.add_function(fb.finish().unwrap());
        assert!(certify(&m).is_empty());
    }

    #[test]
    fn alloca_malloc_and_rand_disqualify() {
        let with_alloca = loop_module(0, |fb, i, _| {
            let slot = fb.alloca(1);
            fb.store(i, slot);
            vec![]
        });
        assert!(certify(&with_alloca).is_empty());

        let with_malloc = loop_module(0, |fb, _, _| {
            let sz = fb.const_i64(8);
            fb.call_builtin(lp_ir::Builtin::Malloc, &[sz]);
            vec![]
        });
        assert!(certify(&with_malloc).is_empty());

        let with_rand = loop_module(1, |fb, _, phis| {
            let r = fb.call_builtin(lp_ir::Builtin::Rand, &[]);
            let s2 = fb.add(phis[0], r);
            vec![s2]
        });
        assert!(certify(&with_rand).is_empty());
    }

    #[test]
    fn transitive_malloc_through_callee_disqualifies() {
        let mut m = Module::new("t");
        let mut fb = FunctionBuilder::new("leak", &[], Type::I64);
        let sz = fb.const_i64(8);
        let p = fb.call_builtin(lp_ir::Builtin::Malloc, &[sz]);
        let v = fb.cast(lp_ir::CastKind::PtrToInt, p);
        fb.ret(Some(v));
        let leak = m.add_function(fb.finish().unwrap());

        let mut fb = FunctionBuilder::new("main", &[Type::I64], Type::I64);
        let n = fb.param(0);
        let zero = fb.const_i64(0);
        let one = fb.const_i64(1);
        let header = fb.create_block("header");
        let bodyb = fb.create_block("body");
        let exit = fb.create_block("exit");
        fb.br(header);
        fb.switch_to(header);
        let i = fb.phi(Type::I64);
        let c = fb.icmp(IcmpPred::Slt, i, n);
        fb.cond_br(c, bodyb, exit);
        fb.switch_to(bodyb);
        fb.call(leak, Type::I64, &[]);
        let i2 = fb.add(i, one);
        fb.add_phi_incoming(i, BlockId::ENTRY, zero);
        fb.add_phi_incoming(i, bodyb, i2);
        fb.br(header);
        fb.switch_to(exit);
        fb.ret(Some(i));
        m.add_function(fb.finish().unwrap());
        assert!(certify(&m).is_empty());
    }

    #[test]
    fn non_affine_phi_is_rejected() {
        // x_{n+1} = load a[i] — no closed form, not a reduction chain.
        let m = loop_module(1, |fb, i, _| {
            let g = fb.global_addr(lp_ir::GlobalId(0));
            let p = fb.gep(g, i, 8, 0);
            let x = fb.load(Type::I64, p);
            vec![x]
        });
        assert!(certify(&m).is_empty());
    }
}
