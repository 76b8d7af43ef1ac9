//! Instructions, terminators, and builtins.

use crate::function::BlockId;
use crate::module::FuncId;
use crate::types::Type;
use crate::value::ValueId;
use std::fmt;

/// Binary arithmetic / logical opcodes.
///
/// Integer opcodes operate on `i64` (and `ptr` where noted); `F*` opcodes on
/// `f64`. Division and remainder follow Rust `i64` semantics in the
/// interpreter (division by zero traps).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    SDiv,
    SRem,
    And,
    Or,
    Xor,
    Shl,
    AShr,
    SMin,
    SMax,
    FAdd,
    FSub,
    FMul,
    FDiv,
    FMin,
    FMax,
}

impl BinOp {
    /// Returns `true` for floating-point opcodes.
    #[must_use]
    pub fn is_float(self) -> bool {
        matches!(
            self,
            BinOp::FAdd | BinOp::FSub | BinOp::FMul | BinOp::FDiv | BinOp::FMin | BinOp::FMax
        )
    }

    /// Result type of the opcode.
    #[must_use]
    pub fn result_type(self) -> Type {
        if self.is_float() {
            Type::F64
        } else {
            Type::I64
        }
    }

    /// Returns `true` if the opcode is associative and commutative — the
    /// property required for tree-reduction of accumulator LCDs (paper
    /// §II-A). `FAdd`/`FMul` are included because `-Ofast` (the paper's
    /// baseline) enables fast-math reassociation.
    #[must_use]
    pub fn is_reduction_op(self) -> bool {
        matches!(
            self,
            BinOp::Add
                | BinOp::Mul
                | BinOp::And
                | BinOp::Or
                | BinOp::Xor
                | BinOp::SMin
                | BinOp::SMax
                | BinOp::FAdd
                | BinOp::FMul
                | BinOp::FMin
                | BinOp::FMax
        )
    }

    /// Textual mnemonic.
    #[must_use]
    pub fn mnemonic(self) -> &'static str {
        match self {
            BinOp::Add => "add",
            BinOp::Sub => "sub",
            BinOp::Mul => "mul",
            BinOp::SDiv => "sdiv",
            BinOp::SRem => "srem",
            BinOp::And => "and",
            BinOp::Or => "or",
            BinOp::Xor => "xor",
            BinOp::Shl => "shl",
            BinOp::AShr => "ashr",
            BinOp::SMin => "smin",
            BinOp::SMax => "smax",
            BinOp::FAdd => "fadd",
            BinOp::FSub => "fsub",
            BinOp::FMul => "fmul",
            BinOp::FDiv => "fdiv",
            BinOp::FMin => "fmin",
            BinOp::FMax => "fmax",
        }
    }

    /// Inverse of [`BinOp::mnemonic`].
    #[must_use]
    pub fn from_mnemonic(text: &str) -> Option<BinOp> {
        Some(match text {
            "add" => BinOp::Add,
            "sub" => BinOp::Sub,
            "mul" => BinOp::Mul,
            "sdiv" => BinOp::SDiv,
            "srem" => BinOp::SRem,
            "and" => BinOp::And,
            "or" => BinOp::Or,
            "xor" => BinOp::Xor,
            "shl" => BinOp::Shl,
            "ashr" => BinOp::AShr,
            "smin" => BinOp::SMin,
            "smax" => BinOp::SMax,
            "fadd" => BinOp::FAdd,
            "fsub" => BinOp::FSub,
            "fmul" => BinOp::FMul,
            "fdiv" => BinOp::FDiv,
            "fmin" => BinOp::FMin,
            "fmax" => BinOp::FMax,
            _ => return None,
        })
    }

    /// All opcodes, for exhaustive testing.
    #[must_use]
    pub fn all() -> &'static [BinOp] {
        &[
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
        ]
    }
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// Signed integer comparison predicates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IcmpPred {
    Eq,
    Ne,
    Slt,
    Sle,
    Sgt,
    Sge,
}

impl IcmpPred {
    /// Textual mnemonic.
    #[must_use]
    pub fn mnemonic(self) -> &'static str {
        match self {
            IcmpPred::Eq => "eq",
            IcmpPred::Ne => "ne",
            IcmpPred::Slt => "slt",
            IcmpPred::Sle => "sle",
            IcmpPred::Sgt => "sgt",
            IcmpPred::Sge => "sge",
        }
    }

    /// Inverse of [`IcmpPred::mnemonic`].
    #[must_use]
    pub fn from_mnemonic(text: &str) -> Option<IcmpPred> {
        Some(match text {
            "eq" => IcmpPred::Eq,
            "ne" => IcmpPred::Ne,
            "slt" => IcmpPred::Slt,
            "sle" => IcmpPred::Sle,
            "sgt" => IcmpPred::Sgt,
            "sge" => IcmpPred::Sge,
            _ => return None,
        })
    }
}

impl fmt::Display for IcmpPred {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// Ordered floating-point comparison predicates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FcmpPred {
    Oeq,
    One,
    Olt,
    Ole,
    Ogt,
    Oge,
}

impl FcmpPred {
    /// Textual mnemonic.
    #[must_use]
    pub fn mnemonic(self) -> &'static str {
        match self {
            FcmpPred::Oeq => "oeq",
            FcmpPred::One => "one",
            FcmpPred::Olt => "olt",
            FcmpPred::Ole => "ole",
            FcmpPred::Ogt => "ogt",
            FcmpPred::Oge => "oge",
        }
    }

    /// Inverse of [`FcmpPred::mnemonic`].
    #[must_use]
    pub fn from_mnemonic(text: &str) -> Option<FcmpPred> {
        Some(match text {
            "oeq" => FcmpPred::Oeq,
            "one" => FcmpPred::One,
            "olt" => FcmpPred::Olt,
            "ole" => FcmpPred::Ole,
            "ogt" => FcmpPred::Ogt,
            "oge" => FcmpPred::Oge,
            _ => return None,
        })
    }
}

impl fmt::Display for FcmpPred {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// Value casts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CastKind {
    /// `i64 -> f64` (signed).
    SiToFp,
    /// `f64 -> i64` (truncating; saturates on overflow like Rust `as`).
    FpToSi,
    /// `ptr -> i64`.
    PtrToInt,
    /// `i64 -> ptr`.
    IntToPtr,
    /// `i1 -> i64` (zero extension).
    BoolToInt,
}

impl CastKind {
    /// Result type of the cast.
    #[must_use]
    pub fn result_type(self) -> Type {
        match self {
            CastKind::SiToFp => Type::F64,
            CastKind::FpToSi | CastKind::PtrToInt | CastKind::BoolToInt => Type::I64,
            CastKind::IntToPtr => Type::Ptr,
        }
    }

    /// Required operand type.
    #[must_use]
    pub fn operand_type(self) -> Type {
        match self {
            CastKind::SiToFp | CastKind::IntToPtr => Type::I64,
            CastKind::FpToSi => Type::F64,
            CastKind::PtrToInt => Type::Ptr,
            CastKind::BoolToInt => Type::I1,
        }
    }

    /// Textual mnemonic.
    #[must_use]
    pub fn mnemonic(self) -> &'static str {
        match self {
            CastKind::SiToFp => "sitofp",
            CastKind::FpToSi => "fptosi",
            CastKind::PtrToInt => "ptrtoint",
            CastKind::IntToPtr => "inttoptr",
            CastKind::BoolToInt => "booltoint",
        }
    }

    /// Inverse of [`CastKind::mnemonic`].
    #[must_use]
    pub fn from_mnemonic(text: &str) -> Option<CastKind> {
        Some(match text {
            "sitofp" => CastKind::SiToFp,
            "fptosi" => CastKind::FpToSi,
            "ptrtoint" => CastKind::PtrToInt,
            "inttoptr" => CastKind::IntToPtr,
            "booltoint" => CastKind::BoolToInt,
            _ => return None,
        })
    }
}

impl fmt::Display for CastKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// Builtin "library" functions.
///
/// These stand in for the pre-compiled C/C++ standard library of the paper:
/// Loopapalooza cannot instrument libc either, so it attributes calls by
/// purity and re-entrancy (Table II, `fn1`/`fn2`). The attribute methods
/// below drive the `fn0..fn3` configuration lattice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Builtin {
    /// `malloc(bytes) -> ptr`. Thread-safe, impure (mutates the allocator).
    Malloc,
    /// `free(ptr)`. Thread-safe, impure.
    Free,
    /// `memcpy(dst, src, bytes)`. Thread-safe; memory effects are visible to
    /// the instrumentation (the interpreter emits per-word access events).
    Memcpy,
    /// `memset(dst, word, bytes)`. Same instrumentation story as `memcpy`.
    Memset,
    /// `print_i64(x)`. I/O side effect: impure and **not** thread-safe —
    /// output must appear in sequential program order (paper §II).
    PrintI64,
    /// `print_f64(x)`. Same ordering constraint as [`Builtin::PrintI64`].
    PrintF64,
    /// `rand() -> i64`. A deterministic LCG with shared hidden state:
    /// impure and not thread-safe (the hidden state is a frequent LCD).
    Rand,
    /// `sqrt(x)`. Pure math.
    Sqrt,
    /// `sin(x)`. Pure math.
    Sin,
    /// `cos(x)`. Pure math.
    Cos,
    /// `exp(x)`. Pure math.
    Exp,
    /// `log(x)`. Pure math (natural log; traps on non-positive input).
    Log,
    /// `fabs(x)`. Pure math.
    FAbs,
    /// `floor(x)`. Pure math.
    Floor,
    /// `pow(x, y)`. Pure math.
    Pow,
}

impl Builtin {
    /// Pure builtins have no side effects and read no memory: calls to them
    /// never restrict parallelization (allowed from `fn1` upward).
    #[must_use]
    pub fn is_pure(self) -> bool {
        matches!(
            self,
            Builtin::Sqrt
                | Builtin::Sin
                | Builtin::Cos
                | Builtin::Exp
                | Builtin::Log
                | Builtin::FAbs
                | Builtin::Floor
                | Builtin::Pow
        )
    }

    /// Thread-safe (re-entrant) builtins may be called from concurrent
    /// iterations (allowed from `fn2` upward).
    #[must_use]
    pub fn is_thread_safe(self) -> bool {
        match self {
            Builtin::PrintI64 | Builtin::PrintF64 | Builtin::Rand => false,
            Builtin::Malloc | Builtin::Free | Builtin::Memcpy | Builtin::Memset => true,
            _ => self.is_pure(),
        }
    }

    /// Number of formal parameters.
    #[must_use]
    pub fn arity(self) -> usize {
        match self {
            Builtin::Rand => 0,
            Builtin::Malloc
            | Builtin::Free
            | Builtin::PrintI64
            | Builtin::PrintF64
            | Builtin::Sqrt
            | Builtin::Sin
            | Builtin::Cos
            | Builtin::Exp
            | Builtin::Log
            | Builtin::FAbs
            | Builtin::Floor => 1,
            Builtin::Pow => 2,
            Builtin::Memcpy | Builtin::Memset => 3,
        }
    }

    /// Return type.
    #[must_use]
    pub fn return_type(self) -> Type {
        match self {
            Builtin::Malloc => Type::Ptr,
            Builtin::Free
            | Builtin::Memcpy
            | Builtin::Memset
            | Builtin::PrintI64
            | Builtin::PrintF64 => Type::Void,
            Builtin::Rand => Type::I64,
            _ => Type::F64,
        }
    }

    /// Parameter types.
    #[must_use]
    pub fn param_types(self) -> &'static [Type] {
        match self {
            Builtin::Malloc => &[Type::I64],
            Builtin::Free => &[Type::Ptr],
            Builtin::Memcpy => &[Type::Ptr, Type::Ptr, Type::I64],
            Builtin::Memset => &[Type::Ptr, Type::I64, Type::I64],
            Builtin::PrintI64 => &[Type::I64],
            Builtin::PrintF64 => &[Type::F64],
            Builtin::Rand => &[],
            Builtin::Pow => &[Type::F64, Type::F64],
            _ => &[Type::F64],
        }
    }

    /// Textual name (used by printer/parser, prefixed with `@!`).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Builtin::Malloc => "malloc",
            Builtin::Free => "free",
            Builtin::Memcpy => "memcpy",
            Builtin::Memset => "memset",
            Builtin::PrintI64 => "print_i64",
            Builtin::PrintF64 => "print_f64",
            Builtin::Rand => "rand",
            Builtin::Sqrt => "sqrt",
            Builtin::Sin => "sin",
            Builtin::Cos => "cos",
            Builtin::Exp => "exp",
            Builtin::Log => "log",
            Builtin::FAbs => "fabs",
            Builtin::Floor => "floor",
            Builtin::Pow => "pow",
        }
    }

    /// Inverse of [`Builtin::name`].
    #[must_use]
    pub fn from_name(text: &str) -> Option<Builtin> {
        Some(match text {
            "malloc" => Builtin::Malloc,
            "free" => Builtin::Free,
            "memcpy" => Builtin::Memcpy,
            "memset" => Builtin::Memset,
            "print_i64" => Builtin::PrintI64,
            "print_f64" => Builtin::PrintF64,
            "rand" => Builtin::Rand,
            "sqrt" => Builtin::Sqrt,
            "sin" => Builtin::Sin,
            "cos" => Builtin::Cos,
            "exp" => Builtin::Exp,
            "log" => Builtin::Log,
            "fabs" => Builtin::FAbs,
            "floor" => Builtin::Floor,
            "pow" => Builtin::Pow,
            _ => return None,
        })
    }

    /// All builtins, for exhaustive testing.
    #[must_use]
    pub fn all() -> &'static [Builtin] {
        &[
            Builtin::Malloc,
            Builtin::Free,
            Builtin::Memcpy,
            Builtin::Memset,
            Builtin::PrintI64,
            Builtin::PrintF64,
            Builtin::Rand,
            Builtin::Sqrt,
            Builtin::Sin,
            Builtin::Cos,
            Builtin::Exp,
            Builtin::Log,
            Builtin::FAbs,
            Builtin::Floor,
            Builtin::Pow,
        ]
    }
}

impl fmt::Display for Builtin {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A call target: user function or builtin.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Callee {
    /// A user-defined (instrumentable) function in the same module.
    Func(FuncId),
    /// A builtin "library" function.
    Builtin(Builtin),
}

/// A non-terminator instruction.
#[derive(Debug, Clone, PartialEq)]
pub enum Inst {
    /// Binary arithmetic/logic.
    Bin {
        op: BinOp,
        lhs: ValueId,
        rhs: ValueId,
    },
    /// Signed integer comparison producing `i1`.
    Icmp {
        pred: IcmpPred,
        lhs: ValueId,
        rhs: ValueId,
    },
    /// Ordered float comparison producing `i1`.
    Fcmp {
        pred: FcmpPred,
        lhs: ValueId,
        rhs: ValueId,
    },
    /// Ternary select: `cond ? then_val : else_val`.
    Select {
        cond: ValueId,
        then_val: ValueId,
        else_val: ValueId,
    },
    /// Value cast.
    Cast { kind: CastKind, val: ValueId },
    /// Memory load of one word at `addr`.
    Load { ty: Type, addr: ValueId },
    /// Memory store of one word to `addr`. Produces no value.
    Store { val: ValueId, addr: ValueId },
    /// Flattened GEP: result = `base + index * scale + offset` (bytes).
    Gep {
        base: ValueId,
        index: ValueId,
        scale: i64,
        offset: i64,
    },
    /// Stack allocation of `words` 8-byte slots in the current frame;
    /// returns the address of the first slot.
    Alloca { words: u32 },
    /// Direct call.
    Call { callee: Callee, args: Vec<ValueId> },
    /// SSA phi. Must appear in the phi-prefix of a block; incoming entries
    /// must exactly cover the block's CFG predecessors.
    Phi {
        ty: Type,
        incomings: Vec<(BlockId, ValueId)>,
    },
}

impl Inst {
    /// Returns `true` for phis.
    #[must_use]
    pub fn is_phi(&self) -> bool {
        matches!(self, Inst::Phi { .. })
    }

    /// Iterates over the operand values of this instruction.
    pub fn operands(&self) -> impl Iterator<Item = ValueId> + '_ {
        let slice: Vec<ValueId> = match self {
            Inst::Bin { lhs, rhs, .. }
            | Inst::Icmp { lhs, rhs, .. }
            | Inst::Fcmp { lhs, rhs, .. } => vec![*lhs, *rhs],
            Inst::Select {
                cond,
                then_val,
                else_val,
            } => vec![*cond, *then_val, *else_val],
            Inst::Cast { val, .. } => vec![*val],
            Inst::Load { addr, .. } => vec![*addr],
            Inst::Store { val, addr } => vec![*val, *addr],
            Inst::Gep { base, index, .. } => vec![*base, *index],
            Inst::Alloca { .. } => vec![],
            Inst::Call { args, .. } => args.clone(),
            Inst::Phi { incomings, .. } => incomings.iter().map(|(_, v)| *v).collect(),
        };
        slice.into_iter()
    }
}

/// A basic-block terminator.
#[derive(Debug, Clone, PartialEq)]
pub enum Term {
    /// Unconditional branch.
    Br(BlockId),
    /// Conditional branch on an `i1` value.
    CondBr {
        cond: ValueId,
        then_blk: BlockId,
        else_blk: BlockId,
    },
    /// Function return. The operand must match the function return type
    /// (`None` for `void`).
    Ret(Option<ValueId>),
}

impl Term {
    /// Successor blocks of this terminator.
    #[must_use]
    pub fn successors(&self) -> Vec<BlockId> {
        match self {
            Term::Br(b) => vec![*b],
            Term::CondBr {
                then_blk, else_blk, ..
            } => vec![*then_blk, *else_blk],
            Term::Ret(_) => vec![],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binop_mnemonic_round_trip() {
        for &op in BinOp::all() {
            assert_eq!(BinOp::from_mnemonic(op.mnemonic()), Some(op));
        }
        assert_eq!(BinOp::from_mnemonic("bogus"), None);
    }

    #[test]
    fn builtin_name_round_trip_and_attrs() {
        for &b in Builtin::all() {
            assert_eq!(Builtin::from_name(b.name()), Some(b));
            assert_eq!(b.param_types().len(), b.arity());
            // Pure implies thread-safe.
            if b.is_pure() {
                assert!(b.is_thread_safe(), "{b} pure but not thread-safe");
            }
        }
        assert!(!Builtin::PrintI64.is_thread_safe());
        assert!(!Builtin::Rand.is_thread_safe());
        assert!(Builtin::Malloc.is_thread_safe());
        assert!(!Builtin::Malloc.is_pure());
    }

    #[test]
    fn reduction_ops_exclude_non_associative() {
        assert!(BinOp::Add.is_reduction_op());
        assert!(BinOp::FAdd.is_reduction_op());
        assert!(BinOp::SMax.is_reduction_op());
        assert!(!BinOp::Sub.is_reduction_op());
        assert!(!BinOp::SDiv.is_reduction_op());
        assert!(!BinOp::Shl.is_reduction_op());
    }

    #[test]
    fn term_successors() {
        assert_eq!(Term::Br(BlockId(3)).successors(), vec![BlockId(3)]);
        assert_eq!(Term::Ret(None).successors(), vec![]);
        let t = Term::CondBr {
            cond: ValueId(0),
            then_blk: BlockId(1),
            else_blk: BlockId(2),
        };
        assert_eq!(t.successors(), vec![BlockId(1), BlockId(2)]);
    }

    #[test]
    fn operand_iteration() {
        let call = Inst::Call {
            callee: Callee::Builtin(Builtin::Pow),
            args: vec![ValueId(4), ValueId(5)],
        };
        assert_eq!(
            call.operands().collect::<Vec<_>>(),
            vec![ValueId(4), ValueId(5)]
        );
        let phi = Inst::Phi {
            ty: Type::I64,
            incomings: vec![(BlockId(0), ValueId(1)), (BlockId(1), ValueId(2))],
        };
        assert_eq!(phi.operands().count(), 2);
        let alloca = Inst::Alloca { words: 4 };
        assert_eq!(alloca.operands().count(), 0);
    }
}
