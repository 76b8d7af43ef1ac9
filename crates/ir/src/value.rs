//! SSA values.
//!
//! Every value in a function — parameters, constants, and instruction
//! results — is identified by a dense [`ValueId`] indexing the function's
//! value arena. Constants are function-local (not interned across
//! functions), which keeps functions self-contained and serializable.

use crate::function::InstId;
use crate::module::{FuncId, GlobalId};
use std::fmt;

/// Dense index of an SSA value within a [`crate::Function`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ValueId(pub u32);

impl ValueId {
    /// Returns the arena index as `usize`.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ValueId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "%v{}", self.0)
    }
}

/// What a [`ValueId`] denotes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ValueKind {
    /// The `index`-th formal parameter of the enclosing function.
    Param(u32),
    /// A 64-bit signed integer constant.
    ConstInt(i64),
    /// A 64-bit float constant.
    ConstFloat(f64),
    /// A boolean constant.
    ConstBool(bool),
    /// The null pointer.
    ConstNull,
    /// The address of a module global.
    GlobalAddr(GlobalId),
    /// The address of a function (for indirect-call-free code this is used
    /// only as an opaque token value).
    FuncAddr(FuncId),
    /// The result of the given instruction.
    Inst(InstId),
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_id_display() {
        assert_eq!(ValueId(12).to_string(), "%v12");
    }
}
