//! Register-LCD categorization (paper Table I, "True Register RAW").
//!
//! Combines scalar evolution and reduction detection into the three-way
//! classification the run-time component consumes:
//!
//! - **Computable** (IVs / MIVs): generated thread-locally from the
//!   iteration index — never a parallelization constraint;
//! - **Reduction accumulators**: decoupled from the loop's critical path
//!   under `reduc1`, otherwise treated as non-computable;
//! - **Non-computable**: the remaining register LCDs, whose handling is
//!   decided at run time by the `dep0..dep3` flags (value prediction,
//!   lowering to memory, or serialization).

use crate::loops::LoopForest;
use crate::reduction::detect_reduction;
use crate::scev::{ScevClass, ScevInfo};
use lp_ir::{Function, Inst, ValueId, ValueKind};

/// The reduction opcode recognized for an accumulator LCD.
pub type ReductionKind = lp_ir::BinOp;

/// Classification of one register LCD (loop-header phi).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LcdClass {
    /// Compile-time computable scalar evolution (IV / MIV).
    Computable(ScevClass),
    /// Reduction accumulator with the given opcode.
    Reduction(ReductionKind),
    /// Neither computable nor a recognizable reduction.
    NonComputable,
}

impl LcdClass {
    /// Returns `true` if this LCD never constrains parallelization,
    /// regardless of configuration flags.
    #[must_use]
    pub fn is_computable(self) -> bool {
        matches!(self, LcdClass::Computable(_))
    }

    /// Returns `true` for reduction accumulators.
    #[must_use]
    pub fn is_reduction(self) -> bool {
        matches!(self, LcdClass::Reduction(_))
    }
}

/// Register-LCD classification for one loop.
#[derive(Debug, Clone)]
pub struct LoopLcds {
    /// Header phis in block order with their classes.
    pub phis: Vec<(ValueId, LcdClass)>,
}

impl LoopLcds {
    /// Reduction phis (the set the `reduc` flags act upon).
    pub fn reductions(&self) -> impl Iterator<Item = (ValueId, ReductionKind)> + '_ {
        self.phis.iter().filter_map(|(v, c)| match c {
            LcdClass::Reduction(op) => Some((*v, *op)),
            _ => None,
        })
    }

    /// Class of a specific phi, if it is a header phi of this loop.
    #[must_use]
    pub fn class_of(&self, phi: ValueId) -> Option<LcdClass> {
        self.phis.iter().find(|(v, _)| *v == phi).map(|(_, c)| *c)
    }
}

/// Classifies the header phis of every loop in `func`.
#[must_use]
pub fn classify_loops(func: &Function, forest: &LoopForest, scev: &ScevInfo) -> Vec<LoopLcds> {
    forest
        .iter()
        .map(|(loop_id, lp)| {
            let phis = scev
                .header_phis(loop_id)
                .iter()
                .map(|&(phi, class)| {
                    if class.is_computable() {
                        return (phi, LcdClass::Computable(class));
                    }
                    // Try the reduction pattern on the latch update.
                    if lp.latches.len() == 1 {
                        let latch = lp.latches[0];
                        let update = match func.value(phi) {
                            ValueKind::Inst(iid) => match &func.inst(*iid).inst {
                                Inst::Phi { incomings, .. } => {
                                    incomings.iter().find(|(b, _)| *b == latch).map(|(_, v)| *v)
                                }
                                _ => None,
                            },
                            _ => None,
                        };
                        if let Some(update) = update {
                            if let Some(op) = detect_reduction(func, lp, phi, update) {
                                return (phi, LcdClass::Reduction(op));
                            }
                        }
                    }
                    (phi, LcdClass::NonComputable)
                })
                .collect();
            LoopLcds { phis }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze_function;
    use lp_ir::builder::FunctionBuilder;
    use lp_ir::{BlockId, IcmpPred, Type};

    /// One loop with: a counter (computable), a sum reduction, and a
    /// pointer-chase phi (non-computable).
    fn three_kinds() -> Function {
        let mut fb = FunctionBuilder::new("f", &[Type::I64, Type::Ptr], Type::I64);
        let n = fb.param(0);
        let base = fb.param(1);
        let zero = fb.const_i64(0);
        let one = fb.const_i64(1);
        let header = fb.create_block("header");
        let body = fb.create_block("body");
        let exit = fb.create_block("exit");
        fb.br(header);
        fb.switch_to(header);
        let i = fb.phi(Type::I64);
        let s = fb.phi(Type::I64);
        let p = fb.phi(Type::Ptr);
        let c = fb.icmp(IcmpPred::Slt, i, n);
        fb.cond_br(c, body, exit);
        fb.switch_to(body);
        let x = fb.load(Type::I64, p);
        let s2 = fb.add(s, x);
        let p2 = fb.load(Type::Ptr, p);
        let i2 = fb.add(i, one);
        fb.add_phi_incoming(i, BlockId::ENTRY, zero);
        fb.add_phi_incoming(i, body, i2);
        fb.add_phi_incoming(s, BlockId::ENTRY, zero);
        fb.add_phi_incoming(s, body, s2);
        fb.add_phi_incoming(p, BlockId::ENTRY, base);
        fb.add_phi_incoming(p, body, p2);
        fb.br(header);
        fb.switch_to(exit);
        fb.ret(Some(s));
        fb.finish().unwrap()
    }

    #[test]
    fn classifies_all_three_kinds() {
        let f = three_kinds();
        let a = analyze_function(&f);
        assert_eq!(a.loops.len(), 1);
        let lcds = &a.lcds[0];
        assert_eq!(lcds.phis.len(), 3);
        assert!(lcds.phis[0].1.is_computable());
        assert!(matches!(
            lcds.phis[1].1,
            LcdClass::Reduction(lp_ir::BinOp::Add)
        ));
        assert_eq!(lcds.phis[2].1, LcdClass::NonComputable);
        assert_eq!(lcds.reductions().count(), 1);
    }

    #[test]
    fn class_of_lookup() {
        let f = three_kinds();
        let a = analyze_function(&f);
        let lcds = &a.lcds[0];
        let (phi, _) = lcds.phis[1];
        assert_eq!(
            lcds.class_of(phi),
            Some(LcdClass::Reduction(lp_ir::BinOp::Add))
        );
        assert_eq!(lcds.class_of(lp_ir::ValueId(999)), None);
    }
}
