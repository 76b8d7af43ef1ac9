//! Scalar evolution: classification of loop-header phis as *computable*
//! add-recurrences.
//!
//! The paper (§II-A) classifies a register LCD as computable when "a
//! compiler analysis can determine a static, compile-time known scalar
//! evolution expression" — induction variables (`{start,+,step}` with a
//! loop-invariant step), mutual induction variables, and generally any
//! recurrence whose per-iteration value is a function of the iteration
//! index alone. We implement the integer add-recurrence fragment that LLVM
//! SCEV resolves:
//!
//! - the latch update of a phi is decomposed into an **affine expression**
//!   `c0 + Σ ci·xi` over header phis and loop-invariant values (through
//!   `add`, `sub`, `mul`-by-constant and `shl`-by-constant chains);
//! - a phi is computable iff its update's self-coefficient is 0 or 1 and
//!   every other phi it references is itself computable (fixpoint);
//!   self-coefficient 1 yields a (possibly polynomial) add-recurrence,
//!   self-coefficient ≠ {0,1} is a geometric recurrence, which LLVM SCEV
//!   does not express.
//!
//! Floating-point phis are never computable (LLVM SCEV is integer-only);
//! they may still be classified as reductions by [`crate::reduction`].

use crate::loops::{Loop, LoopForest, LoopId};
use lp_ir::{BinOp, Function, Inst, Type, ValueId, ValueKind};
use std::collections::HashMap;

/// SCEV classification of a loop-header phi.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScevClass {
    /// A plain induction variable: `{start, +, step}` with loop-invariant
    /// step and no dependence on other phis.
    Induction,
    /// Computable through other computable phis (mutual induction /
    /// polynomial chains).
    Mutual,
    /// No compile-time scalar evolution exists.
    NonComputable,
}

impl ScevClass {
    /// Returns `true` for [`ScevClass::Induction`] and
    /// [`ScevClass::Mutual`].
    #[must_use]
    pub fn is_computable(self) -> bool {
        !matches!(self, ScevClass::NonComputable)
    }
}

/// Per-loop SCEV results for one function.
#[derive(Debug, Clone, Default)]
pub struct ScevInfo {
    /// For each loop (indexed by [`LoopId`]): the header phis in block
    /// order with their classification.
    per_loop: Vec<Vec<(ValueId, ScevClass)>>,
}

impl ScevInfo {
    /// Runs scalar evolution on every loop of `func`.
    #[must_use]
    pub fn new(func: &Function, forest: &LoopForest) -> ScevInfo {
        let per_loop = forest
            .iter()
            .map(|(_, lp)| classify_loop_phis(func, lp))
            .collect();
        ScevInfo { per_loop }
    }

    /// Header phis and their classes for `loop_id`.
    ///
    /// # Panics
    /// Panics if out of bounds.
    #[must_use]
    pub fn header_phis(&self, loop_id: LoopId) -> &[(ValueId, ScevClass)] {
        &self.per_loop[loop_id.index()]
    }

    /// Class of a specific phi in a loop, if it is a header phi there.
    #[must_use]
    pub fn class_of(&self, loop_id: LoopId, phi: ValueId) -> Option<ScevClass> {
        self.per_loop[loop_id.index()]
            .iter()
            .find(|(v, _)| *v == phi)
            .map(|(_, c)| *c)
    }
}

/// An affine expression `konst + Σ coeff·value` where values are header
/// phis or loop-invariant values.
#[derive(Debug, Clone, Default)]
struct Affine {
    konst: i64,
    terms: HashMap<ValueId, i64>,
}

impl Affine {
    fn constant(c: i64) -> Affine {
        Affine {
            konst: c,
            terms: HashMap::new(),
        }
    }

    fn term(v: ValueId) -> Affine {
        let mut terms = HashMap::new();
        terms.insert(v, 1);
        Affine { konst: 0, terms }
    }

    fn add(mut self, other: &Affine, sign: i64) -> Affine {
        self.konst = self.konst.wrapping_add(other.konst.wrapping_mul(sign));
        for (v, c) in &other.terms {
            *self.terms.entry(*v).or_insert(0) += c.wrapping_mul(sign);
        }
        self.terms.retain(|_, c| *c != 0);
        self
    }

    fn scale(mut self, k: i64) -> Affine {
        self.konst = self.konst.wrapping_mul(k);
        for c in self.terms.values_mut() {
            *c = c.wrapping_mul(k);
        }
        self.terms.retain(|_, c| *c != 0);
        self
    }

    fn as_constant(&self) -> Option<i64> {
        self.terms.is_empty().then_some(self.konst)
    }
}

fn is_loop_invariant(func: &Function, lp: &Loop, v: ValueId) -> bool {
    match func.value(v) {
        ValueKind::Inst(iid) => !lp.contains(func.inst(*iid).block),
        _ => true, // params, constants, global/function addresses
    }
}

/// Decomposes `v` into an affine expression over header phis of `lp` and
/// loop-invariant values. `depth` bounds recursion on pathological chains.
fn decompose(
    func: &Function,
    lp: &Loop,
    header_phis: &[ValueId],
    v: ValueId,
    depth: u32,
) -> Option<Affine> {
    if depth == 0 {
        return None;
    }
    if let ValueKind::ConstInt(c) = func.value(v) {
        return Some(Affine::constant(*c));
    }
    if header_phis.contains(&v) {
        return Some(Affine::term(v));
    }
    if is_loop_invariant(func, lp, v) {
        if func.value_type(v) != Type::I64 {
            return None;
        }
        return Some(Affine::term(v));
    }
    let ValueKind::Inst(iid) = func.value(v) else {
        return None;
    };
    match &func.inst(*iid).inst {
        Inst::Bin { op, lhs, rhs } => {
            let l = decompose(func, lp, header_phis, *lhs, depth - 1);
            let r = decompose(func, lp, header_phis, *rhs, depth - 1);
            match op {
                BinOp::Add => Some(l?.add(&r?, 1)),
                BinOp::Sub => Some(l?.add(&r?, -1)),
                BinOp::Mul => {
                    let (l, r) = (l?, r?);
                    if let Some(k) = r.as_constant() {
                        Some(l.scale(k))
                    } else {
                        l.as_constant().map(|k| r.scale(k))
                    }
                }
                BinOp::Shl => {
                    let (l, r) = (l?, r?);
                    let k = r.as_constant()?;
                    (0..64).contains(&k).then(|| l.scale(1i64 << k))
                }
                _ => None,
            }
        }
        _ => None,
    }
}

/// A derivable per-iteration step: `konst + Σ coeff·value` over
/// loop-invariant integer values. The replay certifier hands this to the
/// interpreter so it can seed any iteration's induction value in closed
/// form (`entry + k·step`) without running the preceding iterations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StepSpec {
    /// Constant term.
    pub konst: i64,
    /// `(value, coefficient)` terms, every value loop-invariant `I64`,
    /// sorted by value id for determinism.
    pub terms: Vec<(ValueId, i64)>,
}

/// Derives the exact per-iteration step of header phi `phi` of `lp`, or
/// `None` when the phi is not a plain add-recurrence.
///
/// This is stricter than [`ScevClass::Induction`]: the latch update must
/// decompose affinely with a self-coefficient of exactly 1 (so
/// `phi(k) = phi(0) + k·step`), reference no other header phi, and every
/// remaining term must be a loop-invariant integer. Mutual-induction and
/// reset (`self-coefficient 0`) phis are rejected — their closed forms
/// are not a single step expression.
#[must_use]
pub fn derive_step(func: &Function, lp: &Loop, phi: ValueId) -> Option<StepSpec> {
    if lp.latches.len() != 1 || func.value_type(phi) != Type::I64 {
        return None;
    }
    let latch = lp.latches[0];
    let header = func.block(lp.header);
    let mut phis: Vec<ValueId> = Vec::new();
    for &iid in &header.insts {
        let data = func.inst(iid);
        if data.inst.is_phi() {
            phis.push(data.result);
        } else {
            break;
        }
    }
    let ValueKind::Inst(iid) = func.value(phi) else {
        return None;
    };
    let Inst::Phi { incomings, .. } = &func.inst(*iid).inst else {
        return None;
    };
    let (_, update) = incomings.iter().find(|(b, _)| *b == latch)?;
    let a = decompose(func, lp, &phis, *update, 16)?;
    // step = update − phi: the self term must carry coefficient exactly
    // 1, and what remains must be free of other header phis.
    let mut terms: Vec<(ValueId, i64)> = Vec::new();
    let mut self_coeff = 0i64;
    for (&v, &c) in &a.terms {
        if v == phi {
            self_coeff = c;
        } else if phis.contains(&v) {
            return None;
        } else {
            terms.push((v, c));
        }
    }
    if self_coeff != 1 {
        return None;
    }
    terms.sort_unstable_by_key(|(v, _)| v.index());
    Some(StepSpec {
        konst: a.konst,
        terms,
    })
}

/// Classifies the header phis of one loop.
fn classify_loop_phis(func: &Function, lp: &Loop) -> Vec<(ValueId, ScevClass)> {
    let header = func.block(lp.header);
    let mut phis: Vec<ValueId> = Vec::new();
    for &iid in &header.insts {
        let data = func.inst(iid);
        if data.inst.is_phi() {
            phis.push(data.result);
        } else {
            break;
        }
    }
    // Non-canonical (multi-latch) loops: loopsimplify would rewrite them;
    // we conservatively mark every phi non-computable.
    if lp.latches.len() != 1 {
        return phis
            .iter()
            .map(|&p| (p, ScevClass::NonComputable))
            .collect();
    }
    let latch = lp.latches[0];

    // Latch-incoming update value of each phi.
    let mut updates: HashMap<ValueId, ValueId> = HashMap::new();
    for &p in &phis {
        let ValueKind::Inst(iid) = func.value(p) else {
            continue;
        };
        if let Inst::Phi { incomings, .. } = &func.inst(*iid).inst {
            if let Some((_, v)) = incomings.iter().find(|(b, _)| *b == latch) {
                updates.insert(p, *v);
            }
        }
    }

    // Fixpoint: start with every integer phi plausible, drop violators.
    let mut affine: HashMap<ValueId, Option<Affine>> = HashMap::new();
    for &p in &phis {
        let a = if func.value_type(p) == Type::I64 {
            updates
                .get(&p)
                .and_then(|&u| decompose(func, lp, &phis, u, 16))
        } else {
            None
        };
        affine.insert(p, a);
    }
    let mut computable: Vec<ValueId> = phis
        .iter()
        .copied()
        .filter(|p| affine[p].is_some())
        .collect();
    loop {
        let snapshot = computable.clone();
        computable.retain(|&p| {
            let a = affine[&p].as_ref().expect("retained implies some");
            a.terms.iter().all(|(&v, &coeff)| {
                if v == p {
                    coeff == 1 || coeff == 0
                } else if phis.contains(&v) {
                    snapshot.contains(&v)
                } else {
                    true // loop-invariant term
                }
            })
        });
        if computable.len() == snapshot.len() {
            break;
        }
    }

    phis.iter()
        .map(|&p| {
            if !computable.contains(&p) {
                return (p, ScevClass::NonComputable);
            }
            let a = affine[&p].as_ref().expect("computable implies affine");
            let refs_other_phi = a.terms.keys().any(|&v| v != p && phis.contains(&v));
            let class = if refs_other_phi {
                ScevClass::Mutual
            } else {
                ScevClass::Induction
            };
            (p, class)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cfg::Cfg;
    use crate::dom::DomTree;
    use lp_ir::builder::FunctionBuilder;
    use lp_ir::{BlockId, IcmpPred};

    /// Builds a single loop whose body is produced by `body`, which
    /// receives the builder, the set of header phis it should fill, and
    /// returns latch updates for each phi. Phi 0 is always the counter.
    fn one_loop(
        extra_phis: &[Type],
        body: impl FnOnce(&mut FunctionBuilder, &[ValueId]) -> Vec<ValueId>,
    ) -> (Function, LoopForest) {
        let mut fb = FunctionBuilder::new("f", &[Type::I64], Type::I64);
        let n = fb.param(0);
        let zero = fb.const_i64(0);
        let one = fb.const_i64(1);
        let fzero = fb.const_f64(0.0);
        let header = fb.create_block("header");
        let bodyb = fb.create_block("body");
        let exit = fb.create_block("exit");
        fb.br(header);
        fb.switch_to(header);
        let i = fb.phi(Type::I64);
        let mut phis = vec![i];
        for &ty in extra_phis {
            phis.push(fb.phi(ty));
        }
        let c = fb.icmp(IcmpPred::Slt, i, n);
        fb.cond_br(c, bodyb, exit);
        fb.switch_to(bodyb);
        let i2 = fb.add(i, one);
        let mut updates = vec![i2];
        updates.extend(body(&mut fb, &phis));
        fb.add_phi_incoming(i, BlockId::ENTRY, zero);
        fb.add_phi_incoming(i, bodyb, i2);
        for (k, &p) in phis.iter().enumerate().skip(1) {
            let init = if extra_phis[k - 1] == Type::F64 {
                fzero
            } else {
                zero
            };
            fb.add_phi_incoming(p, BlockId::ENTRY, init);
            fb.add_phi_incoming(p, bodyb, updates[k]);
        }
        fb.br(header);
        fb.switch_to(exit);
        fb.ret(Some(i));
        let f = fb.finish().unwrap();
        let cfg = Cfg::new(&f);
        let dom = DomTree::new(&f, &cfg);
        let forest = LoopForest::new(&cfg, &dom);
        (f, forest)
    }

    #[test]
    fn plain_counter_is_induction() {
        let (f, forest) = one_loop(&[], |_, _| vec![]);
        let scev = ScevInfo::new(&f, &forest);
        let phis = scev.header_phis(LoopId(0));
        assert_eq!(phis.len(), 1);
        assert_eq!(phis[0].1, ScevClass::Induction);
    }

    #[test]
    fn mutual_induction_detected() {
        // j_{n+1} = i_n * 3 + 2 — computable through i.
        let (f, forest) = one_loop(&[Type::I64], |fb, phis| {
            let three = fb.const_i64(3);
            let two = fb.const_i64(2);
            let t = fb.mul(phis[0], three);
            let j2 = fb.add(t, two);
            vec![j2]
        });
        let scev = ScevInfo::new(&f, &forest);
        let phis = scev.header_phis(LoopId(0));
        assert_eq!(phis[1].1, ScevClass::Mutual);
    }

    #[test]
    fn polynomial_chain_is_computable() {
        // s_{n+1} = s_n + i_n — a second-order (triangular-number) chain.
        let (f, forest) = one_loop(&[Type::I64], |fb, phis| {
            let s2 = fb.add(phis[1], phis[0]);
            vec![s2]
        });
        let scev = ScevInfo::new(&f, &forest);
        let phis = scev.header_phis(LoopId(0));
        assert_eq!(phis[1].1, ScevClass::Mutual);
    }

    #[test]
    fn geometric_recurrence_not_computable() {
        // x_{n+1} = 2*x_n + 1 — geometric, no SCEV.
        let (f, forest) = one_loop(&[Type::I64], |fb, phis| {
            let two = fb.const_i64(2);
            let one = fb.const_i64(1);
            let t = fb.mul(phis[1], two);
            let x2 = fb.add(t, one);
            vec![x2]
        });
        let scev = ScevInfo::new(&f, &forest);
        let phis = scev.header_phis(LoopId(0));
        assert_eq!(phis[1].1, ScevClass::NonComputable);
    }

    #[test]
    fn loaded_value_not_computable() {
        // p_{n+1} = load(p_n as address base) — pointer chasing.
        let (f, forest) = one_loop(&[Type::I64], |fb, phis| {
            let base = fb.const_null();
            let a = fb.gep(base, phis[1], 8, 0);
            let x = fb.load(Type::I64, a);
            vec![x]
        });
        let scev = ScevInfo::new(&f, &forest);
        let phis = scev.header_phis(LoopId(0));
        assert_eq!(phis[1].1, ScevClass::NonComputable);
    }

    #[test]
    fn float_phi_not_computable() {
        let (f, forest) = one_loop(&[Type::F64], |fb, phis| {
            let c = fb.const_f64(0.5);
            let x2 = fb.fadd(phis[1], c);
            vec![x2]
        });
        let scev = ScevInfo::new(&f, &forest);
        let phis = scev.header_phis(LoopId(0));
        assert_eq!(phis[1].1, ScevClass::NonComputable);
    }

    #[test]
    fn strided_iv_with_invariant_step() {
        // k_{n+1} = k_n + n (param is loop-invariant).
        let (f, forest) = one_loop(&[Type::I64], |fb, phis| {
            let step = fb.param(0);
            let k2 = fb.add(phis[1], step);
            vec![k2]
        });
        let scev = ScevInfo::new(&f, &forest);
        let phis = scev.header_phis(LoopId(0));
        assert_eq!(phis[1].1, ScevClass::Induction);
        assert!(phis[1].1.is_computable());
    }

    #[test]
    fn mutual_pair_where_one_breaks_drags_other_down() {
        // a_{n+1} = b_n + 1; b_{n+1} = load(...) — b non-computable, so a
        // must be too.
        let (f, forest) = one_loop(&[Type::I64, Type::I64], |fb, phis| {
            let one = fb.const_i64(1);
            let a2 = fb.add(phis[2], one);
            let base = fb.const_null();
            let addr = fb.gep(base, phis[2], 8, 0);
            let b2 = fb.load(Type::I64, addr);
            vec![a2, b2]
        });
        let scev = ScevInfo::new(&f, &forest);
        let phis = scev.header_phis(LoopId(0));
        assert_eq!(phis[1].1, ScevClass::NonComputable);
        assert_eq!(phis[2].1, ScevClass::NonComputable);
    }
}
