//! Runtime values.

use crate::InterpError;
use lp_ir::Type;
use std::fmt;

/// A runtime value: the dynamic counterpart of [`lp_ir::Type`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    /// `i64`.
    I(i64),
    /// `f64`.
    F(f64),
    /// `ptr` (a flat 64-bit address).
    P(u64),
    /// `i1`.
    B(bool),
    /// `void` (result of value-less instructions).
    Unit,
}

impl Value {
    /// The dynamic type of this value.
    #[must_use]
    pub fn type_of(&self) -> Type {
        match self {
            Value::I(_) => Type::I64,
            Value::F(_) => Type::F64,
            Value::P(_) => Type::Ptr,
            Value::B(_) => Type::I1,
            Value::Unit => Type::Void,
        }
    }

    /// Extracts an `i64`.
    ///
    /// # Errors
    /// [`InterpError::TypeConfusion`] if the value is not an integer.
    pub fn as_i64(&self) -> Result<i64, InterpError> {
        match self {
            Value::I(v) => Ok(*v),
            _ => Err(InterpError::TypeConfusion("as_i64")),
        }
    }

    /// Extracts an `f64`.
    ///
    /// # Errors
    /// [`InterpError::TypeConfusion`] if the value is not a float.
    pub fn as_f64(&self) -> Result<f64, InterpError> {
        match self {
            Value::F(v) => Ok(*v),
            _ => Err(InterpError::TypeConfusion("as_f64")),
        }
    }

    /// Extracts a pointer.
    ///
    /// # Errors
    /// [`InterpError::TypeConfusion`] if the value is not a pointer.
    pub fn as_ptr(&self) -> Result<u64, InterpError> {
        match self {
            Value::P(v) => Ok(*v),
            _ => Err(InterpError::TypeConfusion("as_ptr")),
        }
    }

    /// Extracts a boolean.
    ///
    /// # Errors
    /// [`InterpError::TypeConfusion`] if the value is not a boolean.
    pub fn as_bool(&self) -> Result<bool, InterpError> {
        match self {
            Value::B(v) => Ok(*v),
            _ => Err(InterpError::TypeConfusion("as_bool")),
        }
    }

    /// Raw 64-bit memory representation (floats as IEEE bits).
    ///
    /// # Errors
    /// [`InterpError::TypeConfusion`] for non-memory values.
    pub fn to_bits(&self) -> Result<u64, InterpError> {
        match self {
            Value::I(v) => Ok(*v as u64),
            Value::F(v) => Ok(v.to_bits()),
            Value::P(v) => Ok(*v),
            _ => Err(InterpError::TypeConfusion("to_bits")),
        }
    }

    /// Reinterprets raw memory bits as a value of `ty`.
    ///
    /// # Panics
    /// Panics for non-memory types (loads of `i1`/`void` are rejected by
    /// the verifier).
    #[must_use]
    pub fn from_bits(ty: Type, bits: u64) -> Value {
        match ty {
            Type::I64 => Value::I(bits as i64),
            Type::F64 => Value::F(f64::from_bits(bits)),
            Type::Ptr => Value::P(bits),
            _ => panic!("from_bits of non-memory type {ty}"),
        }
    }

    /// A stable 64-bit fingerprint for value-prediction traces. Integer and
    /// pointer values map to themselves; floats to their bit pattern.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        match self {
            Value::I(v) => *v as u64,
            Value::F(v) => v.to_bits(),
            Value::P(v) => *v,
            Value::B(v) => u64::from(*v),
            Value::Unit => 0,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::I(v) => write!(f, "{v}"),
            Value::F(v) => write!(f, "{v:?}"),
            Value::P(v) => write!(f, "{v:#x}"),
            Value::B(v) => write!(f, "{v}"),
            Value::Unit => write!(f, "()"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Value {
        Value::I(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Value {
        Value::F(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Value {
        Value::B(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bits_round_trip() {
        for v in [Value::I(-5), Value::F(2.5), Value::P(0x1000)] {
            let bits = v.to_bits().unwrap();
            assert_eq!(Value::from_bits(v.type_of(), bits), v);
        }
    }

    #[test]
    fn extraction_type_checks() {
        assert_eq!(Value::I(3).as_i64().unwrap(), 3);
        assert!(Value::I(3).as_f64().is_err());
        assert!(Value::F(1.0).as_ptr().is_err());
        assert!(Value::B(true).as_bool().unwrap());
        assert!(Value::Unit.to_bits().is_err());
    }

    #[test]
    fn fingerprint_distinguishes_floats_by_bits() {
        assert_ne!(Value::F(1.0).fingerprint(), Value::F(2.0).fingerprint());
        assert_eq!(Value::I(7).fingerprint(), 7);
    }
}
