//! Reduction (recurrence-descriptor) detection.
//!
//! A header phi is a *reduction accumulator* (paper §II-A) when its only
//! in-loop use is a read-modify-write chain of a single associative,
//! commutative opcode whose result feeds back into the phi at the latch.
//! Such LCDs "may be decoupled from the remainder of the execution of the
//! loop" by tree/linear-chain reduction hardware (e.g. Arm SVE), so under
//! `reduc1` they stop being serializing dependencies.
//!
//! This mirrors LLVM's `RecurrenceDescriptor` for binary-op reductions
//! (`add`, `mul`, bitwise ops, min/max — both integer and fast-math float).

use crate::loops::Loop;
use lp_ir::{BinOp, Function, Inst, InstId, ValueId, ValueKind};

/// Tries to recognize `phi` (a header phi of `lp` with latch update
/// `update`) as a reduction. Returns the reduction opcode on success.
/// Recognizes both binary-op accumulation chains and the select/compare
/// min-max idiom (`m' = select(cmp(m, x), m, x)`).
#[must_use]
pub fn detect_reduction(
    func: &Function,
    lp: &Loop,
    phi: ValueId,
    update: ValueId,
) -> Option<BinOp> {
    if let Some(op) = detect_select_minmax(func, lp, phi, update) {
        return Some(op);
    }
    // The update must be a reduction-op chain containing exactly one leaf
    // occurrence of the phi.
    let ValueKind::Inst(top) = func.value(update) else {
        return None;
    };
    let Inst::Bin { op, .. } = func.inst(*top).inst else {
        return None;
    };
    if !op.is_reduction_op() {
        return None;
    }
    let mut chain: Vec<InstId> = Vec::new();
    let leaf_count = collect_chain(func, lp, op, update, phi, &mut chain)?;
    if leaf_count != 1 || chain.is_empty() {
        return None;
    }
    // Every in-loop use of the phi AND of every intermediate chain value
    // must stay inside the chain (the final update value may additionally
    // feed the phi's latch edge, which is not an instruction use). If a
    // partial sum escapes — e.g. `x += a[i]` where each `x` is also used
    // as a position — the accumulator cannot be decoupled, matching
    // LLVM's RecurrenceDescriptor.
    let chain_results: Vec<_> = chain.iter().map(|iid| func.inst(*iid).result).collect();
    for &b in &lp.blocks {
        for &iid in &func.block(b).insts {
            let data = func.inst(iid);
            if data.result == phi || chain.contains(&iid) {
                continue; // the phi itself or a chain link
            }
            if data
                .inst
                .operands()
                .any(|o| o == phi || chain_results.contains(&o))
            {
                return None;
            }
        }
        // Uses in terminators (e.g. compares feed condbr via an icmp
        // instruction, which is already covered above); `ret`/`condbr`
        // cannot use an i64/f64 phi directly except `ret`, which is
        // outside the loop for natural loops with in-loop latches.
    }
    Some(op)
}

/// Collects the same-opcode instruction chain from `v` down to `phi`,
/// returning the number of leaf occurrences of `phi`. Returns `None` if a
/// different opcode intervenes on a path that reaches the phi.
fn collect_chain(
    func: &Function,
    lp: &Loop,
    op: BinOp,
    v: ValueId,
    phi: ValueId,
    chain: &mut Vec<InstId>,
) -> Option<usize> {
    if v == phi {
        return Some(1);
    }
    let ValueKind::Inst(iid) = func.value(v) else {
        return Some(0);
    };
    let data = func.inst(*iid);
    if !lp.contains(data.block) {
        return Some(0);
    }
    match &data.inst {
        Inst::Bin { op: o, lhs, rhs } if *o == op => {
            let l = collect_chain(func, lp, op, *lhs, phi, chain)?;
            let r = collect_chain(func, lp, op, *rhs, phi, chain)?;
            if l + r > 0 {
                chain.push(*iid);
            }
            Some(l + r)
        }
        _ => {
            // A non-chain instruction: fine as long as the phi does not
            // hide beneath it.
            if value_reaches(func, lp, *iid, phi) {
                None
            } else {
                Some(0)
            }
        }
    }
}

/// Recognizes the select/compare min-max reduction idiom:
/// `m' = select(cmp(m, x), a, b)` where `{a, b} = {m, x}` and `m`'s only
/// in-loop uses are the compare and the select. Returns the equivalent
/// min/max opcode (by operand type; the exact min-vs-max flavour depends
/// on predicate and arm order, which does not matter for decoupling).
fn detect_select_minmax(
    func: &Function,
    lp: &Loop,
    phi: ValueId,
    update: ValueId,
) -> Option<BinOp> {
    let ValueKind::Inst(sel_id) = func.value(update) else {
        return None;
    };
    let Inst::Select {
        cond,
        then_val,
        else_val,
    } = &func.inst(*sel_id).inst
    else {
        return None;
    };
    // One arm must be the phi, the other the compared value.
    let other = if *then_val == phi {
        *else_val
    } else if *else_val == phi {
        *then_val
    } else {
        return None;
    };
    let ValueKind::Inst(cmp_id) = func.value(*cond) else {
        return None;
    };
    let (is_float, l, r) = match &func.inst(*cmp_id).inst {
        Inst::Icmp { lhs, rhs, .. } => (false, *lhs, *rhs),
        Inst::Fcmp { lhs, rhs, .. } => (true, *lhs, *rhs),
        _ => return None,
    };
    // The compare must be between the phi and the other arm.
    if !((l == phi && r == other) || (l == other && r == phi)) {
        return None;
    }
    // The phi must have no other in-loop uses.
    for &b in &lp.blocks {
        for &iid in &func.block(b).insts {
            if iid == *sel_id || iid == *cmp_id {
                continue;
            }
            let data = func.inst(iid);
            if data.result == phi {
                continue;
            }
            if data.inst.operands().any(|o| o == phi) {
                return None;
            }
        }
    }
    Some(if is_float { BinOp::FMax } else { BinOp::SMax })
}

/// Exact check whether `phi` feeds (transitively, through in-loop
/// non-phi definitions) into `iid`. Worklist over the def DAG with a
/// visited set, so arbitrarily deep chains are handled.
fn value_reaches(func: &Function, lp: &Loop, iid: InstId, phi: ValueId) -> bool {
    let mut visited: std::collections::HashSet<InstId> = std::collections::HashSet::new();
    let mut work = vec![iid];
    while let Some(cur) = work.pop() {
        if !visited.insert(cur) {
            continue;
        }
        let data = func.inst(cur);
        for op in data.inst.operands() {
            if op == phi {
                return true;
            }
            if let ValueKind::Inst(sub) = func.value(op) {
                // Only chase defs inside the loop; values from outside
                // cannot contain this iteration's phi. Skip phis: their
                // values come from previous iterations or the preheader.
                let sub_data = func.inst(*sub);
                if lp.contains(sub_data.block) && !sub_data.inst.is_phi() {
                    work.push(*sub);
                }
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cfg::Cfg;
    use crate::dom::DomTree;
    use crate::loops::LoopForest;
    use lp_ir::builder::FunctionBuilder;
    use lp_ir::{BlockId, IcmpPred, Type};

    /// Loop skeleton with one extra phi; `body` returns its latch update.
    fn reduction_loop(
        phi_ty: Type,
        body: impl FnOnce(&mut FunctionBuilder, ValueId, ValueId) -> ValueId,
    ) -> (Function, LoopForest, ValueId, ValueId) {
        let mut fb = FunctionBuilder::new("f", &[Type::I64], Type::I64);
        let n = fb.param(0);
        let zero = fb.const_i64(0);
        let one = fb.const_i64(1);
        let header = fb.create_block("header");
        let bodyb = fb.create_block("body");
        let exit = fb.create_block("exit");
        fb.br(header);
        fb.switch_to(header);
        let i = fb.phi(Type::I64);
        let acc = fb.phi(phi_ty);
        let c = fb.icmp(IcmpPred::Slt, i, n);
        fb.cond_br(c, bodyb, exit);
        fb.switch_to(bodyb);
        let update = body(&mut fb, acc, i);
        let i2 = fb.add(i, one);
        fb.add_phi_incoming(i, BlockId::ENTRY, zero);
        fb.add_phi_incoming(i, bodyb, i2);
        let init = if phi_ty == Type::F64 {
            fb.const_f64(0.0)
        } else {
            zero
        };
        fb.add_phi_incoming(acc, BlockId::ENTRY, init);
        fb.add_phi_incoming(acc, bodyb, update);
        fb.br(header);
        fb.switch_to(exit);
        fb.ret(Some(i));
        let f = fb.finish().unwrap();
        let cfg = Cfg::new(&f);
        let dom = DomTree::new(&f, &cfg);
        let forest = LoopForest::new(&cfg, &dom);
        (f, forest, acc, update)
    }

    #[test]
    fn integer_sum_is_a_reduction() {
        let (f, forest, acc, update) = reduction_loop(Type::I64, |fb, acc, i| fb.add(acc, i));
        let lp = &forest.loops()[0];
        assert_eq!(detect_reduction(&f, lp, acc, update), Some(BinOp::Add));
    }

    #[test]
    fn float_product_is_a_reduction() {
        let (f, forest, acc, update) = reduction_loop(Type::F64, |fb, acc, i| {
            let x = fb.sitofp(i);
            fb.fmul(acc, x)
        });
        let lp = &forest.loops()[0];
        assert_eq!(detect_reduction(&f, lp, acc, update), Some(BinOp::FMul));
    }

    #[test]
    fn max_reduction_via_binop() {
        let (f, forest, acc, update) =
            reduction_loop(Type::I64, |fb, acc, i| fb.bin(BinOp::SMax, acc, i));
        let lp = &forest.loops()[0];
        assert_eq!(detect_reduction(&f, lp, acc, update), Some(BinOp::SMax));
    }

    #[test]
    fn chained_adds_in_one_iteration_still_reduce() {
        // acc' = (acc + a) + b — a two-link chain.
        let (f, forest, acc, update) = reduction_loop(Type::I64, |fb, acc, i| {
            let two = fb.const_i64(2);
            let t = fb.add(acc, i);
            fb.add(t, two)
        });
        let lp = &forest.loops()[0];
        assert_eq!(detect_reduction(&f, lp, acc, update), Some(BinOp::Add));
    }

    #[test]
    fn select_minmax_idiom_detected() {
        // m' = select(m < x, x, m) — max via compare+select.
        let (f, forest, acc, update) = reduction_loop(Type::I64, |fb, acc, i| {
            let c = fb.icmp(IcmpPred::Slt, acc, i);
            fb.select(c, i, acc)
        });
        let lp = &forest.loops()[0];
        assert_eq!(detect_reduction(&f, lp, acc, update), Some(BinOp::SMax));
    }

    #[test]
    fn float_select_minmax_idiom_detected() {
        let (f, forest, acc, update) = reduction_loop(Type::F64, |fb, acc, i| {
            let x = fb.sitofp(i);
            let c = fb.fcmp(lp_ir::FcmpPred::Ogt, acc, x);
            fb.select(c, acc, x)
        });
        let lp = &forest.loops()[0];
        assert_eq!(detect_reduction(&f, lp, acc, update), Some(BinOp::FMax));
    }

    #[test]
    fn select_with_foreign_arm_is_not_minmax() {
        // select(m < x, x+1, m) — the taken arm is not the compared value.
        let (f, forest, acc, update) = reduction_loop(Type::I64, |fb, acc, i| {
            let c = fb.icmp(IcmpPred::Slt, acc, i);
            let one = fb.const_i64(1);
            let xp = fb.add(i, one);
            fb.select(c, xp, acc)
        });
        let lp = &forest.loops()[0];
        assert_eq!(detect_reduction(&f, lp, acc, update), None);
    }

    #[test]
    fn select_minmax_with_escaping_phi_rejected() {
        // The accumulator is also stored each iteration: not decouplable.
        let (f, forest, acc, update) = reduction_loop(Type::I64, |fb, acc, i| {
            let p = fb.const_null();
            fb.store(acc, p);
            let c = fb.icmp(IcmpPred::Slt, acc, i);
            fb.select(c, i, acc)
        });
        let lp = &forest.loops()[0];
        assert_eq!(detect_reduction(&f, lp, acc, update), None);
    }

    #[test]
    fn subtraction_is_not_a_reduction() {
        let (f, forest, acc, update) = reduction_loop(Type::I64, |fb, acc, i| fb.sub(acc, i));
        let lp = &forest.loops()[0];
        assert_eq!(detect_reduction(&f, lp, acc, update), None);
    }

    #[test]
    fn extra_use_of_accumulator_disqualifies() {
        // The accumulator is also stored to memory each iteration — its
        // per-iteration value escapes, so it cannot be decoupled.
        let (f, forest, acc, update) = reduction_loop(Type::I64, |fb, acc, i| {
            let p = fb.const_null();
            fb.store(acc, p);
            fb.add(acc, i)
        });
        let lp = &forest.loops()[0];
        assert_eq!(detect_reduction(&f, lp, acc, update), None);
    }

    #[test]
    fn mixed_opcode_on_phi_path_disqualifies() {
        // acc' = (acc * 3) + i — the phi flows through a `mul` into an
        // `add` chain: not a single-op reduction.
        let (f, forest, acc, update) = reduction_loop(Type::I64, |fb, acc, i| {
            let three = fb.const_i64(3);
            let t = fb.mul(acc, three);
            fb.add(t, i)
        });
        let lp = &forest.loops()[0];
        assert_eq!(detect_reduction(&f, lp, acc, update), None);
    }

    #[test]
    fn phi_used_twice_disqualifies() {
        // acc' = acc + acc — doubling, not an accumulation over new values.
        let (f, forest, acc, update) = reduction_loop(Type::I64, |fb, acc, _i| fb.add(acc, acc));
        let lp = &forest.loops()[0];
        assert_eq!(detect_reduction(&f, lp, acc, update), None);
    }
}
