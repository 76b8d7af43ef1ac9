//! # lp-ir — SSA intermediate representation for Loopapalooza
//!
//! A compact, LLVM-flavoured SSA IR. This crate is the substrate standing in
//! for LLVM IR in the Loopapalooza (ISPASS 2021) reproduction: typed SSA
//! values, basic blocks with explicit terminators, header phis, loads/stores
//! over a flat byte-addressed memory, GEP-style address arithmetic, direct
//! calls and attributed builtins.
//!
//! The crate provides:
//! - the data model ([`Module`], [`Function`], [`Block`], [`Inst`]),
//! - an ergonomic [`builder::FunctionBuilder`],
//! - a textual [`printer`] and round-tripping [`parser`],
//! - a structural [`verifier`] (SSA dominance checking lives in
//!   `lp-analysis`, which owns the dominator tree).
//!
//! # Example
//!
//! ```
//! use lp_ir::builder::FunctionBuilder;
//! use lp_ir::{Module, Type};
//!
//! # fn main() -> Result<(), lp_ir::IrError> {
//! let mut module = Module::new("demo");
//! let mut fb = FunctionBuilder::new("add1", &[Type::I64], Type::I64);
//! let x = fb.param(0);
//! let one = fb.const_i64(1);
//! let y = fb.add(x, one);
//! fb.ret(Some(y));
//! module.add_function(fb.finish()?);
//! assert!(lp_ir::verify_module(&module).is_ok());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub mod builder;
pub mod function;
pub mod fx;
pub mod inst;
pub mod module;
pub mod parser;
pub mod printer;
pub mod types;
pub mod value;
pub mod verifier;

pub use function::{Block, BlockId, Function, InstData, InstId};
pub use inst::{BinOp, Builtin, Callee, CastKind, FcmpPred, IcmpPred, Inst, Term};
pub use module::{FuncId, Global, GlobalId, Module};
pub use types::Type;
pub use value::{ValueId, ValueKind};
pub use verifier::{verify_function, verify_module};

use std::fmt;

/// Errors produced while building, parsing, or verifying IR.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IrError {
    /// A structural invariant of the IR was violated.
    Invalid(String),
    /// The textual IR could not be parsed. Carries a line number (1-based)
    /// and a message.
    Parse { line: usize, message: String },
}

impl fmt::Display for IrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IrError::Invalid(message) => write!(f, "invalid IR: {message}"),
            IrError::Parse { line, message } => {
                write!(f, "parse error at line {line}: {message}")
            }
        }
    }
}

impl std::error::Error for IrError {}

/// Convenience alias used throughout the crate.
pub type Result<T, E = IrError> = std::result::Result<T, E>;
