//! # lp-analysis — compile-time component of Loopapalooza
//!
//! Reimplements the LLVM analyses the paper's compile-time component relies
//! on (§III-A):
//!
//! - [`mod@cfg`]: reverse-postorder traversal and successor/predecessor maps;
//! - [`dom`]: dominator trees (Cooper–Harvey–Kennedy);
//! - [`loops`]: the natural-loop forest with canonicalization checks
//!   (LLVM `loopsimplify`'s invariants: unique preheader, single latch,
//!   dedicated exits);
//! - [`scev`]: scalar evolution — classifies loop-header phis as
//!   *computable* add-recurrences (induction and mutual-induction
//!   variables) or non-computable (paper §II-A);
//! - [`reduction`]: recurrence-descriptor style reduction detection;
//! - [`classify`]: the register-LCD categorization of Table I built from
//!   the two analyses above;
//! - [`callgraph`]: call graph plus purity inference (drives `fn1`);
//! - [`ssa`]: the SSA dominance verifier that complements
//!   `lp_ir::verify_module`.
//!
//! The top-level [`analyze_function`] and [`analyze_module`] helpers bundle
//! everything the interpreter and the run-time component need.

#![forbid(unsafe_code)]

pub mod callgraph;
pub mod certify;
pub mod cfg;
pub mod classify;
pub mod dom;
pub mod dump;
pub mod loops;
pub mod reduction;
pub mod scev;
pub mod ssa;

pub use callgraph::{CallGraph, Purity};
pub use certify::{certify_function, certify_module, reduction_identity, CertPhi, CertifiedLoop};
pub use cfg::Cfg;
pub use classify::{LcdClass, LoopLcds, ReductionKind};
pub use dom::DomTree;
pub use dump::{dump_function, dump_module};
pub use loops::{Loop, LoopForest, LoopId};
pub use scev::{derive_step, ScevClass, ScevInfo, StepSpec};
pub use ssa::verify_ssa;

use lp_ir::{FuncId, Function, Module};

/// All per-function analysis results bundled together.
#[derive(Debug)]
pub struct FunctionAnalysis {
    /// Control-flow graph helpers.
    pub cfg: Cfg,
    /// Dominator tree.
    pub dom: DomTree,
    /// Natural-loop forest.
    pub loops: LoopForest,
    /// Scalar-evolution classification of header phis, per loop.
    pub scev: ScevInfo,
    /// Register-LCD categorization (computable / reduction /
    /// non-computable), per loop.
    pub lcds: Vec<LoopLcds>,
}

/// Runs the full compile-time analysis pipeline on one function.
#[must_use]
pub fn analyze_function(func: &Function) -> FunctionAnalysis {
    let cfg = Cfg::new(func);
    let dom = DomTree::new(func, &cfg);
    let loops = LoopForest::new(&cfg, &dom);
    let scev = ScevInfo::new(func, &loops);
    let lcds = classify::classify_loops(func, &loops, &scev);
    FunctionAnalysis {
        cfg,
        dom,
        loops,
        scev,
        lcds,
    }
}

/// Whole-module analysis: per-function bundles plus the call graph.
#[derive(Debug)]
pub struct ModuleAnalysis {
    /// Per-function analyses, indexed by [`FuncId`].
    pub functions: Vec<FunctionAnalysis>,
    /// Call graph with purity classification.
    pub callgraph: CallGraph,
}

impl ModuleAnalysis {
    /// Analysis bundle for one function.
    ///
    /// # Panics
    /// Panics if `id` is out of bounds.
    #[must_use]
    pub fn function(&self, id: FuncId) -> &FunctionAnalysis {
        &self.functions[id.index()]
    }

    /// Returns `true` if loop `loop_id` of `func` is *final*: once one of
    /// its instances ends, the run never enters its header, and so never
    /// resolves its phis, again. Two static facts make it so:
    ///
    /// - `func` is `module`'s entry (`main`) and no call site in the
    ///   module targets it, so it has at most one activation;
    /// - the header cannot be reached from any of the loop's exit blocks,
    ///   so that activation, once it has left the loop, never returns.
    ///
    /// The second test is plain CFG reachability, so it stays exact on
    /// irreducible control flow, where a path back to the header need not
    /// form an enclosing natural loop.
    #[must_use]
    pub fn loop_is_final(&self, module: &Module, func: FuncId, loop_id: LoopId) -> bool {
        if module.entry().ok() != Some(func) || self.callgraph.has_callers(func) {
            return false;
        }
        let fa = self.function(func);
        let lp = fa.loops.loop_(loop_id);
        !fa.cfg.reaches(&lp.exit_blocks, lp.header)
    }
}

/// Runs [`analyze_function`] on every function and builds the call graph.
///
/// ```
/// use lp_ir::builder::FunctionBuilder;
/// use lp_ir::{Module, Type};
///
/// let mut module = Module::new("demo");
/// let mut fb = FunctionBuilder::new("main", &[], Type::I64);
/// let x = fb.const_i64(1);
/// fb.ret(Some(x));
/// module.add_function(fb.finish().unwrap());
///
/// let analysis = lp_analysis::analyze_module(&module);
/// assert!(analysis.function(lp_ir::FuncId(0)).loops.is_empty());
/// ```
#[must_use]
pub fn analyze_module(module: &Module) -> ModuleAnalysis {
    let functions = module
        .functions
        .iter()
        .map(analyze_function)
        .collect::<Vec<_>>();
    let callgraph = CallGraph::new(module);
    ModuleAnalysis {
        functions,
        callgraph,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lp_ir::builder::FunctionBuilder;
    use lp_ir::{BlockId, IcmpPred, Type, ValueId};

    /// Emits `for i in 1..n {}` (a one-block loop) and leaves the builder
    /// in its exit block.
    fn simple_loop(fb: &mut FunctionBuilder, n: ValueId) {
        let zero = fb.const_i64(0);
        let one = fb.const_i64(1);
        let pre = fb.current_block();
        let header = fb.create_block("header");
        let exit = fb.create_block("exit");
        fb.br(header);
        fb.switch_to(header);
        let i = fb.phi(Type::I64);
        let i2 = fb.add(i, one);
        let more = fb.icmp(IcmpPred::Slt, i2, n);
        fb.add_phi_incoming(i, pre, zero);
        fb.add_phi_incoming(i, header, i2);
        fb.cond_br(more, header, exit);
        fb.switch_to(exit);
    }

    fn main_with_one_loop(m: &mut Module) -> FuncId {
        let mut fb = FunctionBuilder::new("main", &[], Type::Void);
        let n = fb.const_i64(4);
        simple_loop(&mut fb, n);
        fb.ret(None);
        m.add_function(fb.finish().unwrap())
    }

    #[test]
    fn a_loop_of_an_uncalled_main_is_final() {
        let mut m = Module::new("m");
        let main = main_with_one_loop(&mut m);
        let analysis = analyze_module(&m);
        assert!(analysis.loop_is_final(&m, main, LoopId(0)));
    }

    #[test]
    fn a_loop_of_a_main_with_a_caller_is_not_final() {
        let mut m = Module::new("m");
        let main = main_with_one_loop(&mut m);
        let mut fb = FunctionBuilder::new("again", &[], Type::Void);
        fb.call(main, Type::Void, &[]);
        fb.ret(None);
        m.add_function(fb.finish().unwrap());
        let analysis = analyze_module(&m);
        assert!(!analysis.loop_is_final(&m, main, LoopId(0)));
    }

    #[test]
    fn a_loop_outside_main_is_not_final() {
        let mut m = Module::new("m");
        let mut fb = FunctionBuilder::new("work", &[], Type::Void);
        let n = fb.const_i64(4);
        simple_loop(&mut fb, n);
        fb.ret(None);
        let work = m.add_function(fb.finish().unwrap());
        let mut fb = FunctionBuilder::new("main", &[], Type::Void);
        fb.call(work, Type::Void, &[]);
        fb.ret(None);
        m.add_function(fb.finish().unwrap());
        let analysis = analyze_module(&m);
        assert!(!analysis.loop_is_final(&m, work, LoopId(0)));
    }

    /// `main` enters the loop either directly or through `again`, and the
    /// loop's exit branches to `again`: a cycle through the header that
    /// no natural loop encloses, since neither `again` nor the header
    /// dominates the other.
    #[test]
    fn a_loop_whose_header_its_exit_reaches_is_not_final() {
        let mut m = Module::new("m");
        let mut fb = FunctionBuilder::new("main", &[Type::I1], Type::Void);
        let flag = fb.param(0);
        let zero = fb.const_i64(0);
        let one = fb.const_i64(1);
        let four = fb.const_i64(4);
        let header = fb.create_block("header");
        let exit = fb.create_block("exit");
        let again = fb.create_block("again");
        let done = fb.create_block("done");
        fb.cond_br(flag, header, again);
        fb.switch_to(header);
        let i = fb.phi(Type::I64);
        let i2 = fb.add(i, one);
        let more = fb.icmp(IcmpPred::Slt, i2, four);
        fb.cond_br(more, header, exit);
        fb.switch_to(exit);
        fb.cond_br(flag, again, done);
        fb.switch_to(again);
        fb.br(header);
        fb.switch_to(done);
        fb.ret(None);
        fb.add_phi_incoming(i, BlockId::ENTRY, zero);
        fb.add_phi_incoming(i, header, i2);
        fb.add_phi_incoming(i, again, zero);
        let main = m.add_function(fb.finish().unwrap());
        let analysis = analyze_module(&m);
        let loops = &analysis.function(main).loops;
        assert_eq!(loops.len(), 1, "the cycle through `again` is no loop");
        assert!(!analysis.loop_is_final(&m, main, LoopId(0)));
    }
}
