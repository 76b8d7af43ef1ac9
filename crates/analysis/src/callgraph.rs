//! Call graph and purity inference.
//!
//! Purity drives the `fn1` configuration: "only user and library function
//! calls identified by the compiler as pure (read-only with no side
//! effects) are considered parallel" (paper Table II). A user function is
//! pure when it contains no stores, no allocas, and calls only pure
//! callees (builtin or user); loads are allowed (read-only).

use lp_ir::{Builtin, Callee, FuncId, Inst, Module};

/// Purity classification of a function.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Purity {
    /// Read-only, no side effects, calls only pure callees.
    Pure,
    /// May write memory or perform side effects.
    Impure,
}

/// Whole-module call graph with purity results.
#[derive(Debug, Clone)]
pub struct CallGraph {
    /// Direct user-function callees per function.
    callees: Vec<Vec<FuncId>>,
    /// Builtins referenced per function.
    builtins: Vec<Vec<Builtin>>,
    purity: Vec<Purity>,
    /// Whether the function (transitively) calls a non-thread-safe
    /// builtin; drives `fn2`'s "thread-safe" requirement.
    calls_non_thread_safe: Vec<bool>,
}

impl CallGraph {
    /// Builds the call graph and runs the purity fixpoint.
    #[must_use]
    pub fn new(module: &Module) -> CallGraph {
        let n = module.functions.len();
        let mut callees: Vec<Vec<FuncId>> = vec![Vec::new(); n];
        let mut builtins: Vec<Vec<Builtin>> = vec![Vec::new(); n];
        let mut locally_impure = vec![false; n];
        let mut locally_non_ts = vec![false; n];
        for (fid, func) in module.iter_functions() {
            for data in &func.insts {
                match &data.inst {
                    Inst::Store { .. } | Inst::Alloca { .. } => {
                        locally_impure[fid.index()] = true;
                    }
                    Inst::Call { callee, .. } => match callee {
                        Callee::Func(target) => {
                            if !callees[fid.index()].contains(target) {
                                callees[fid.index()].push(*target);
                            }
                        }
                        Callee::Builtin(b) => {
                            if !builtins[fid.index()].contains(b) {
                                builtins[fid.index()].push(*b);
                            }
                            if !b.is_pure() {
                                locally_impure[fid.index()] = true;
                            }
                            if !b.is_thread_safe() {
                                locally_non_ts[fid.index()] = true;
                            }
                        }
                    },
                    _ => {}
                }
            }
        }
        // Fixpoint: impurity and non-thread-safety propagate up the call
        // graph (callers inherit them).
        let mut purity: Vec<bool> = locally_impure.clone(); // true = impure
        let mut non_ts = locally_non_ts;
        let mut changed = true;
        while changed {
            changed = false;
            for f in 0..n {
                for target in &callees[f] {
                    if purity[target.index()] && !purity[f] {
                        purity[f] = true;
                        changed = true;
                    }
                    if non_ts[target.index()] && !non_ts[f] {
                        non_ts[f] = true;
                        changed = true;
                    }
                }
            }
        }
        CallGraph {
            callees,
            builtins,
            purity: purity
                .into_iter()
                .map(|imp| if imp { Purity::Impure } else { Purity::Pure })
                .collect(),
            calls_non_thread_safe: non_ts,
        }
    }

    /// Purity of a function.
    ///
    /// # Panics
    /// Panics if out of bounds.
    #[must_use]
    pub fn purity(&self, f: FuncId) -> Purity {
        self.purity[f.index()]
    }

    /// Returns `true` if `f` transitively calls a non-thread-safe builtin
    /// (I/O, shared-state RNG). Such functions cannot run from concurrent
    /// iterations under `fn2`.
    #[must_use]
    pub fn calls_non_thread_safe(&self, f: FuncId) -> bool {
        self.calls_non_thread_safe[f.index()]
    }

    /// Direct user-function callees of `f`.
    #[must_use]
    pub fn callees(&self, f: FuncId) -> &[FuncId] {
        &self.callees[f.index()]
    }

    /// Returns `true` if some call site in the module targets `f`.
    #[must_use]
    pub fn has_callers(&self, f: FuncId) -> bool {
        self.callees.iter().any(|targets| targets.contains(&f))
    }

    /// Builtins referenced directly by `f`.
    #[must_use]
    pub fn builtins(&self, f: FuncId) -> &[Builtin] {
        &self.builtins[f.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lp_ir::builder::FunctionBuilder;
    use lp_ir::Type;

    fn module() -> (Module, FuncId, FuncId, FuncId, FuncId) {
        let mut m = Module::new("m");
        // pure_leaf: returns its argument squared (reads nothing).
        let mut fb = FunctionBuilder::new("pure_leaf", &[Type::I64], Type::I64);
        let x = fb.param(0);
        let r = fb.mul(x, x);
        fb.ret(Some(r));
        let pure_leaf = m.add_function(fb.finish().unwrap());

        // reader: loads from a pointer (read-only => pure).
        let mut fb = FunctionBuilder::new("reader", &[Type::Ptr], Type::I64);
        let p = fb.param(0);
        let v = fb.load(Type::I64, p);
        let r = fb.call(pure_leaf, Type::I64, &[v]);
        fb.ret(Some(r));
        let reader = m.add_function(fb.finish().unwrap());

        // writer: stores (impure, but thread-safe: no bad builtins).
        let mut fb = FunctionBuilder::new("writer", &[Type::Ptr, Type::I64], Type::Void);
        let p = fb.param(0);
        let v = fb.param(1);
        fb.store(v, p);
        fb.ret(None);
        let writer = m.add_function(fb.finish().unwrap());

        // printer: calls print_i64 (impure AND non-thread-safe).
        let mut fb = FunctionBuilder::new("printer", &[Type::I64], Type::Void);
        let v = fb.param(0);
        fb.call_builtin(lp_ir::Builtin::PrintI64, &[v]);
        fb.ret(None);
        let printer = m.add_function(fb.finish().unwrap());

        (m, pure_leaf, reader, writer, printer)
    }

    #[test]
    fn purity_inference() {
        let (m, pure_leaf, reader, writer, printer) = module();
        let cg = CallGraph::new(&m);
        assert_eq!(cg.purity(pure_leaf), Purity::Pure);
        assert_eq!(cg.purity(reader), Purity::Pure);
        assert_eq!(cg.purity(writer), Purity::Impure);
        assert_eq!(cg.purity(printer), Purity::Impure);
    }

    #[test]
    fn thread_safety_propagates_up() {
        let (mut m, _, _, writer, printer) = module();
        // caller -> printer (inherits non-thread-safety); caller2 -> writer
        // (stays thread-safe).
        let mut fb = FunctionBuilder::new("caller", &[], Type::Void);
        let v = fb.const_i64(1);
        fb.call(printer, Type::Void, &[v]);
        fb.ret(None);
        let caller = m.add_function(fb.finish().unwrap());

        let mut fb = FunctionBuilder::new("caller2", &[], Type::Void);
        let p = fb.const_null();
        let v = fb.const_i64(1);
        fb.call(writer, Type::Void, &[p, v]);
        fb.ret(None);
        let caller2 = m.add_function(fb.finish().unwrap());

        let cg = CallGraph::new(&m);
        assert!(cg.calls_non_thread_safe(printer));
        assert!(cg.calls_non_thread_safe(caller));
        assert!(!cg.calls_non_thread_safe(caller2));
        assert_eq!(cg.callees(caller), &[printer]);
        assert!(cg.has_callers(printer) && cg.has_callers(writer));
        assert!(!cg.has_callers(caller) && !cg.has_callers(caller2));
        assert_eq!(cg.builtins(printer), &[lp_ir::Builtin::PrintI64]);
    }

    #[test]
    fn recursive_functions_reach_fixpoint() {
        let mut m = Module::new("m");
        // Mutually recursive pure pair (physically impossible to run, but
        // the fixpoint must terminate). Declare a first, patch b later via
        // a second function referencing FuncId(0)/(1) by construction
        // order.
        let mut fb = FunctionBuilder::new("a", &[Type::I64], Type::I64);
        let x = fb.param(0);
        let r = fb.call(FuncId(1), Type::I64, &[x]);
        fb.ret(Some(r));
        m.add_function(fb.finish().unwrap());
        let mut fb = FunctionBuilder::new("b", &[Type::I64], Type::I64);
        let x = fb.param(0);
        let r = fb.call(FuncId(0), Type::I64, &[x]);
        fb.ret(Some(r));
        m.add_function(fb.finish().unwrap());
        let cg = CallGraph::new(&m);
        assert_eq!(cg.purity(FuncId(0)), Purity::Pure);
        assert_eq!(cg.purity(FuncId(1)), Purity::Pure);
    }
}
