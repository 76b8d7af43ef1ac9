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
