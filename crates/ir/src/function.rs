//! Functions, blocks, and instruction arenas.

use crate::inst::{Callee, Inst, Term};
use crate::types::Type;
use crate::value::{ValueId, ValueKind};
use std::fmt;

/// Dense index of a basic block within a [`Function`].
///
/// The default is the entry block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct BlockId(pub u32);

impl BlockId {
    /// The entry block of every function.
    pub const ENTRY: BlockId = BlockId(0);

    /// Returns the arena index as `usize`.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b{}", self.0)
    }
}

/// Dense index of an instruction within a [`Function`]'s instruction arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct InstId(pub u32);

impl InstId {
    /// Returns the arena index as `usize`.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// An instruction plus its metadata in the arena.
#[derive(Debug, Clone, PartialEq)]
pub struct InstData {
    /// The instruction payload.
    pub inst: Inst,
    /// The containing block.
    pub block: BlockId,
    /// Result type ([`Type::Void`] for stores and void calls).
    pub ty: Type,
    /// The value id assigned to the result (also assigned — but unused — for
    /// void-typed instructions, to keep indices dense).
    pub result: ValueId,
}

/// A basic block: a phi prefix, a body of non-phi instructions, and a
/// terminator.
#[derive(Debug, Clone, PartialEq)]
pub struct Block {
    /// Instructions in program order. Phis must form a prefix (enforced by
    /// the verifier).
    pub insts: Vec<InstId>,
    /// The block terminator.
    pub term: Term,
    /// Optional label for printing; auto-generated when absent.
    pub name: Option<String>,
}

/// A function: parameters, a value arena, an instruction arena, and blocks.
///
/// Block 0 is always the entry block. The arenas are append-only; the
/// [`crate::builder::FunctionBuilder`] is the intended construction path.
#[derive(Debug, Clone, PartialEq)]
pub struct Function {
    /// Function name (unique within a module; enforced on insertion).
    pub name: String,
    /// Formal parameter types.
    pub params: Vec<Type>,
    /// Return type.
    pub ret: Type,
    /// Basic blocks; index = [`BlockId`].
    pub blocks: Vec<Block>,
    /// Instruction arena; index = [`InstId`].
    pub insts: Vec<InstData>,
    /// Value arena; index = [`ValueId`].
    pub values: Vec<ValueKind>,
    /// Types of the values in `values` (parallel array).
    pub value_types: Vec<Type>,
}

impl Function {
    /// Creates an empty function with a single (empty) entry block ending in
    /// `ret void`/`ret <undef>` — the builder replaces the terminator.
    #[must_use]
    pub fn new(name: impl Into<String>, params: &[Type], ret: Type) -> Function {
        let mut f = Function {
            name: name.into(),
            params: params.to_vec(),
            ret,
            blocks: vec![Block {
                insts: Vec::new(),
                term: Term::Ret(None),
                name: Some("entry".to_string()),
            }],
            insts: Vec::new(),
            values: Vec::new(),
            value_types: Vec::new(),
        };
        for (i, &ty) in params.iter().enumerate() {
            f.values.push(ValueKind::Param(i as u32));
            f.value_types.push(ty);
        }
        f
    }

    /// Looks up instruction data.
    ///
    /// # Panics
    /// Panics if `id` is out of bounds.
    #[must_use]
    pub fn inst(&self, id: InstId) -> &InstData {
        &self.insts[id.index()]
    }

    /// Looks up a block.
    ///
    /// # Panics
    /// Panics if `id` is out of bounds.
    #[must_use]
    pub fn block(&self, id: BlockId) -> &Block {
        &self.blocks[id.index()]
    }

    /// Kind of a value.
    ///
    /// # Panics
    /// Panics if `id` is out of bounds.
    #[must_use]
    pub fn value(&self, id: ValueId) -> &ValueKind {
        &self.values[id.index()]
    }

    /// Type of a value.
    ///
    /// # Panics
    /// Panics if `id` is out of bounds.
    #[must_use]
    pub fn value_type(&self, id: ValueId) -> Type {
        self.value_types[id.index()]
    }

    /// The value id of the `index`-th parameter.
    ///
    /// Parameters occupy the first `params.len()` value slots.
    ///
    /// # Panics
    /// Panics if `index >= params.len()`.
    #[must_use]
    pub fn param_value(&self, index: usize) -> ValueId {
        assert!(index < self.params.len(), "parameter index out of range");
        ValueId(index as u32)
    }

    /// Iterator over all block ids.
    pub fn block_ids(&self) -> impl Iterator<Item = BlockId> {
        (0..self.blocks.len() as u32).map(BlockId)
    }

    /// Computes the predecessor lists of every block.
    #[must_use]
    pub fn predecessors(&self) -> Vec<Vec<BlockId>> {
        let mut preds = vec![Vec::new(); self.blocks.len()];
        for bid in self.block_ids() {
            for succ in self.block(bid).term.successors() {
                if succ.index() < preds.len() {
                    preds[succ.index()].push(bid);
                }
            }
        }
        preds
    }

    /// Total number of non-phi, non-terminator instructions per block — the
    /// static per-block IR cost Loopapalooza hard-codes into its call-backs
    /// (paper §III-A). Terminators cost 1 (they are dynamic IR instructions
    /// too); phis cost 0, matching LLVM's view of phis as metadata resolved
    /// on edges.
    #[must_use]
    pub fn block_cost(&self, id: BlockId) -> u64 {
        let blk = self.block(id);
        let body = blk
            .insts
            .iter()
            .filter(|i| !self.inst(**i).inst.is_phi())
            .count() as u64;
        body + 1
    }

    /// Returns every block's static cost ([`Function::block_cost`]) in
    /// one pass, indexed by block id. Ahead-of-time consumers (the
    /// bytecode compiler) use this so the per-entry cost lookup in the
    /// dispatch loop is a plain indexed load instead of a phi-filtering
    /// walk over the block body.
    #[must_use]
    pub fn block_costs(&self) -> Vec<u64> {
        self.block_ids().map(|b| self.block_cost(b)).collect()
    }

    /// Returns all direct user-function callees referenced by this function.
    #[must_use]
    pub fn callees(&self) -> Vec<crate::module::FuncId> {
        let mut out = Vec::new();
        for data in &self.insts {
            if let Inst::Call {
                callee: Callee::Func(fid),
                ..
            } = &data.inst
            {
                if !out.contains(fid) {
                    out.push(*fid);
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;

    #[test]
    fn new_function_has_entry_block_and_param_values() {
        let f = Function::new("f", &[Type::I64, Type::Ptr], Type::Void);
        assert_eq!(f.blocks.len(), 1);
        assert_eq!(f.param_value(0), ValueId(0));
        assert_eq!(f.param_value(1), ValueId(1));
        assert_eq!(f.value_type(ValueId(0)), Type::I64);
        assert_eq!(f.value_type(ValueId(1)), Type::Ptr);
    }

    #[test]
    #[should_panic(expected = "parameter index out of range")]
    fn param_value_out_of_range_panics() {
        let f = Function::new("f", &[], Type::Void);
        let _ = f.param_value(0);
    }

    #[test]
    fn predecessors_of_diamond() {
        // entry -> (a | b) -> join
        let mut fb = FunctionBuilder::new("diamond", &[Type::I1], Type::Void);
        let a = fb.create_block("a");
        let b = fb.create_block("b");
        let join = fb.create_block("join");
        let cond = fb.param(0);
        fb.cond_br(cond, a, b);
        fb.switch_to(a);
        fb.br(join);
        fb.switch_to(b);
        fb.br(join);
        fb.switch_to(join);
        fb.ret(None);
        let f = fb.finish().unwrap();
        let preds = f.predecessors();
        assert_eq!(preds[join.index()], vec![a, b]);
        assert_eq!(preds[BlockId::ENTRY.index()], Vec::<BlockId>::new());
    }

    #[test]
    fn block_cost_counts_body_plus_terminator_not_phis() {
        let mut fb = FunctionBuilder::new("cost", &[], Type::I64);
        let body = fb.create_block("body");
        let zero = fb.const_i64(0);
        fb.br(body);
        fb.switch_to(body);
        let phi = fb.phi(Type::I64);
        fb.add_phi_incoming(phi, BlockId::ENTRY, zero);
        fb.add_phi_incoming(phi, body, phi);
        let one = fb.const_i64(1);
        let _sum = fb.add(phi, one);
        fb.br(body);
        let f = fb.finish().unwrap();
        // body block: 1 phi (free) + 1 add + terminator = 2.
        assert_eq!(f.block_cost(body), 2);
    }
}
