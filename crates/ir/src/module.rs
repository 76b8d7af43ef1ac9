//! Modules and globals.

use crate::function::Function;
use crate::{IrError, Result};
use std::collections::HashMap;
use std::fmt;

/// Dense index of a function within a [`Module`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FuncId(pub u32);

impl FuncId {
    /// Returns the arena index as `usize`.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for FuncId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "f{}", self.0)
    }
}

/// Dense index of a global within a [`Module`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GlobalId(pub u32);

impl GlobalId {
    /// Returns the arena index as `usize`.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A module-level global: a named, statically allocated array of 8-byte
/// words.
#[derive(Debug, Clone, PartialEq)]
pub struct Global {
    /// Name (unique within the module).
    pub name: String,
    /// Size in 8-byte words.
    pub words: u64,
    /// Initial contents (raw bit patterns). Shorter than `words` means the
    /// remainder is zeroed; must not be longer.
    pub init: Vec<u64>,
}

impl Global {
    /// A zero-initialized global of `words` 8-byte words.
    #[must_use]
    pub fn zeroed(name: impl Into<String>, words: u64) -> Global {
        Global {
            name: name.into(),
            words,
            init: Vec::new(),
        }
    }

    /// A global initialized from `i64` values.
    #[must_use]
    pub fn from_i64(name: impl Into<String>, values: &[i64]) -> Global {
        Global {
            name: name.into(),
            words: values.len() as u64,
            init: values.iter().map(|v| *v as u64).collect(),
        }
    }

    /// A global initialized from `f64` values (stored as raw bits).
    #[must_use]
    pub fn from_f64(name: impl Into<String>, values: &[f64]) -> Global {
        Global {
            name: name.into(),
            words: values.len() as u64,
            init: values.iter().map(|v| v.to_bits()).collect(),
        }
    }

    /// Size in bytes.
    #[must_use]
    pub fn size_bytes(&self) -> u64 {
        self.words * 8
    }
}

/// A compilation unit: functions plus globals.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Module {
    /// Module name (informational).
    pub name: String,
    /// Function arena; index = [`FuncId`].
    pub functions: Vec<Function>,
    /// Global arena; index = [`GlobalId`].
    pub globals: Vec<Global>,
    fn_names: HashMap<String, FuncId>,
    global_names: HashMap<String, GlobalId>,
}

impl Module {
    /// Creates an empty module.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Module {
        Module {
            name: name.into(),
            ..Module::default()
        }
    }

    /// Adds a function, returning its id.
    ///
    /// # Panics
    /// Panics if a function with the same name already exists; function
    /// names are the module's symbol table.
    pub fn add_function(&mut self, func: Function) -> FuncId {
        let id = FuncId(self.functions.len() as u32);
        assert!(
            !self.fn_names.contains_key(&func.name),
            "duplicate function name {:?}",
            func.name
        );
        self.fn_names.insert(func.name.clone(), id);
        self.functions.push(func);
        id
    }

    /// Adds a global, returning its id.
    ///
    /// # Panics
    /// Panics if a global with the same name already exists.
    pub fn add_global(&mut self, global: Global) -> GlobalId {
        let id = GlobalId(self.globals.len() as u32);
        assert!(
            !self.global_names.contains_key(&global.name),
            "duplicate global name {:?}",
            global.name
        );
        self.global_names.insert(global.name.clone(), id);
        self.globals.push(global);
        id
    }

    /// Looks up a function by name.
    #[must_use]
    pub fn function_by_name(&self, name: &str) -> Option<FuncId> {
        self.fn_names.get(name).copied()
    }

    /// Returns the function for an id.
    ///
    /// # Panics
    /// Panics if `id` is out of bounds.
    #[must_use]
    pub fn function(&self, id: FuncId) -> &Function {
        &self.functions[id.index()]
    }

    /// Returns the global for an id.
    ///
    /// # Panics
    /// Panics if `id` is out of bounds.
    #[must_use]
    pub fn global(&self, id: GlobalId) -> &Global {
        &self.globals[id.index()]
    }

    /// The conventional program entry point, a function named `main`.
    ///
    /// # Errors
    /// Returns [`IrError::Invalid`] if no `main` exists.
    pub fn entry(&self) -> Result<FuncId> {
        self.function_by_name("main")
            .ok_or_else(|| IrError::Invalid("module has no `main` function".to_string()))
    }

    /// Iterator over `(FuncId, &Function)`.
    pub fn iter_functions(&self) -> impl Iterator<Item = (FuncId, &Function)> {
        self.functions
            .iter()
            .enumerate()
            .map(|(i, f)| (FuncId(i as u32), f))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Type;

    #[test]
    fn function_symbol_table() {
        let mut m = Module::new("m");
        let id = m.add_function(Function::new("main", &[], Type::I64));
        assert_eq!(m.function_by_name("main"), Some(id));
        assert_eq!(m.entry().unwrap(), id);
        assert!(m.function_by_name("other").is_none());
    }

    #[test]
    fn entry_requires_main() {
        let m = Module::new("m");
        assert!(m.entry().is_err());
    }

    #[test]
    #[should_panic(expected = "duplicate function name")]
    fn duplicate_function_panics() {
        let mut m = Module::new("m");
        m.add_function(Function::new("f", &[], Type::Void));
        m.add_function(Function::new("f", &[], Type::Void));
    }

    #[test]
    fn global_constructors() {
        let g = Global::zeroed("buf", 16);
        assert_eq!(g.size_bytes(), 128);
        assert!(g.init.is_empty());
        let g = Global::from_i64("tab", &[1, -2, 3]);
        assert_eq!(g.words, 3);
        assert_eq!(g.init[1], -2i64 as u64);
        let g = Global::from_f64("ftab", &[1.5]);
        assert_eq!(g.init[0], 1.5f64.to_bits());
    }

    #[test]
    #[should_panic(expected = "duplicate global name")]
    fn duplicate_global_panics() {
        let mut m = Module::new("m");
        m.add_global(Global::zeroed("g", 1));
        m.add_global(Global::zeroed("g", 2));
    }
}
