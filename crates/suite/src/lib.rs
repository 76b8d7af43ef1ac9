//! # lp-suite — synthetic SPEC CPU2000/2006 and EEMBC stand-ins
//!
//! SPEC and EEMBC are proprietary, so this crate supplies one synthetic
//! kernel per benchmark the paper evaluates, hand-built in `lp-ir` to
//! mimic that benchmark's published loop and dependence character (see
//! DESIGN.md §2 for the substitution argument). The limit study's *shape*
//! — which configuration wins, where INT and FP diverge, which benchmarks
//! prefer PDOALL over HELIX — is driven by the mix of LCD categories,
//! trip counts, and call structure, which the recipes here reproduce:
//!
//! - non-numeric (CINT) programs lean on pointer chasing, DP chains,
//!   shared-cell accumulation and calls inside loops — frequent register
//!   and memory LCDs plus structural hazards;
//! - numeric (CFP, EEMBC) programs lean on stencils, SAXPY, mat-vec and
//!   reductions — computable IVs, disjoint memory, reduction LCDs;
//! - a few benchmarks (`429.mcf`, `179.art`, `450.soplex`,
//!   `482.sphinx3`) carry highly *predictable* non-computable LCDs with
//!   late producers, so best-PDOALL (`reduc1-dep2-fn2`) beats best-HELIX
//!   (`reduc1-dep1-fn2`) on them, as in the paper's Fig. 4.
//!
//! Use [`registry`] to enumerate everything, [`Benchmark::build`] to get
//! a verified [`Module`].

#![forbid(unsafe_code)]

pub mod cfp2000;
pub mod cfp2006;
pub mod cint2000;
pub mod cint2006;
pub mod eembc;
pub mod kernels;
pub mod patterns;

use lp_ir::builder::FunctionBuilder;
use lp_ir::{Global, Module, Type, ValueId};

/// Benchmark suite grouping (paper: numeric vs non-numeric).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SuiteId {
    /// SPEC CINT2000 (non-numeric).
    Cint2000,
    /// SPEC CFP2000 (numeric).
    Cfp2000,
    /// SPEC CINT2006 (non-numeric).
    Cint2006,
    /// SPEC CFP2006 (numeric).
    Cfp2006,
    /// EEMBC (numeric/embedded).
    Eembc,
}

impl SuiteId {
    /// All five suites.
    #[must_use]
    pub fn all() -> [SuiteId; 5] {
        [
            SuiteId::Cint2000,
            SuiteId::Cfp2000,
            SuiteId::Cint2006,
            SuiteId::Cfp2006,
            SuiteId::Eembc,
        ]
    }

    /// Display label matching the paper's figures.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            SuiteId::Cint2000 => "cint2000",
            SuiteId::Cfp2000 => "cfp2000",
            SuiteId::Cint2006 => "cint2006",
            SuiteId::Cfp2006 => "cfp2006",
            SuiteId::Eembc => "eembc",
        }
    }
}

impl std::fmt::Display for SuiteId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Input-size scaling for a benchmark run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Scale {
    /// Tiny inputs for unit tests (seconds for the whole suite).
    Test,
    /// Small inputs for quick sweeps.
    Small,
    /// The reference size used by the experiment harness.
    #[default]
    Default,
}

impl Scale {
    /// Multiplier applied to base trip counts.
    #[must_use]
    pub fn factor(self) -> i64 {
        match self {
            Scale::Test => 1,
            Scale::Small => 2,
            Scale::Default => 6,
        }
    }

    /// Scales a base trip count.
    #[must_use]
    pub fn n(self, base: i64) -> i64 {
        base * self.factor()
    }
}

/// A registered benchmark.
#[derive(Debug, Clone, Copy)]
pub struct Benchmark {
    /// Canonical name (e.g. `429.mcf`).
    pub name: &'static str,
    /// Owning suite.
    pub suite: SuiteId,
    /// Module constructor.
    pub build: fn(Scale) -> Module,
}

impl Benchmark {
    /// Builds the benchmark at the given scale.
    #[must_use]
    pub fn build(&self, scale: Scale) -> Module {
        (self.build)(scale)
    }
}

/// Every benchmark in every suite.
#[must_use]
pub fn registry() -> Vec<Benchmark> {
    let mut out = Vec::new();
    out.extend(cint2000::benchmarks());
    out.extend(cfp2000::benchmarks());
    out.extend(cint2006::benchmarks());
    out.extend(cfp2006::benchmarks());
    out.extend(eembc::benchmarks());
    out
}

/// Benchmarks of one suite.
#[must_use]
pub fn suite(id: SuiteId) -> Vec<Benchmark> {
    registry().into_iter().filter(|b| b.suite == id).collect()
}

/// Finds a benchmark by name.
#[must_use]
pub fn find(name: &str) -> Option<Benchmark> {
    registry().into_iter().find(|b| b.name == name)
}

/// Suite-level "glue" code injected into every benchmark before its
/// recipe: a serial DP chain (frequent memory LCD with a *late*
/// producer — resists every model) and a shared-cell accumulation
/// (frequent memory LCD with an *early* producer — HELIX-friendly,
/// PDOALL-resistant). Real programs carry exactly this kind of
/// driver/bookkeeping code; its weight per suite calibrates the
/// dependence mix (see DESIGN.md).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Glue {
    /// Trip count of the serial DP chain (0 disables it).
    pub serial_n: i64,
    /// Trip count of the shared-cell accumulation (0 disables it).
    pub accum_n: i64,
    /// Trip count of a carried-LCG fill — an *unpredictable*
    /// non-computable register LCD with an early producer: `dep2` cannot
    /// remove it, `dep3` and HELIX `dep1` can (0 disables it).
    pub lcg_n: i64,
    /// Filler work per glue iteration.
    pub work: u32,
}

/// Shared program-construction harness for the recipe files: creates the
/// module and zeroed globals, optionally emits the suite [`Glue`], hands
/// `main`'s builder plus the global base pointers to the recipe,
/// finalizes and verifies.
///
/// The recipe must terminate `main` (usually `fb.ret(Some(checksum))`).
///
/// # Panics
/// Panics if the recipe produces invalid IR — recipes are static program
/// text, so this is a programmer error, caught by the suite's tests.
pub(crate) fn build_program_glued(
    name: &str,
    glue: Option<Glue>,
    globals: &[(&str, u64)],
    recipe: impl FnOnce(&mut Module, &mut FunctionBuilder, &[ValueId]),
) -> Module {
    let mut module = Module::new(name);
    let glue_globals = glue.map(|g| {
        (
            module.add_global(Global::zeroed("_glue_dp", g.serial_n.max(12) as u64 + 4)),
            module.add_global(Global::zeroed("_glue_cell", 4)),
            module.add_global(Global::zeroed(
                "_glue_scr",
                g.accum_n.max(g.lcg_n).max(12) as u64 + 4,
            )),
        )
    });
    let gids: Vec<_> = globals
        .iter()
        .map(|(gname, words)| module.add_global(Global::zeroed(*gname, *words)))
        .collect();
    let mut fb = FunctionBuilder::new("main", &[], Type::I64);
    if let (Some(g), Some((dp, cell, scr))) = (glue, glue_globals) {
        let dp = fb.global_addr(dp);
        let cell = fb.global_addr(cell);
        let scr = fb.global_addr(scr);
        if g.serial_n > 0 {
            // Floor at 12 iterations so tiny benchmarks still exhibit a
            // *frequent* (>50% of iterations) memory LCD.
            let n = fb.const_i64(g.serial_n.max(12));
            patterns::dp_chain(&mut fb, dp, n, g.work);
        }
        if g.accum_n > 0 {
            let n = fb.const_i64(g.accum_n.max(12));
            let one = fb.const_i64(1);
            let cell_b = fb.gep(cell, one, 8, 0);
            patterns::accum_cell_pair(&mut fb, cell, cell_b, scr, n, g.work);
        }
        if g.lcg_n > 0 {
            let n = fb.const_i64(g.lcg_n);
            glue_lcg(&mut fb, scr, n, g.work);
        }
    }
    let bases: Vec<ValueId> = gids.iter().map(|g| fb.global_addr(*g)).collect();
    recipe(&mut module, &mut fb, &bases);
    module.add_function(fb.finish().expect("benchmark main must be complete"));
    lp_ir::verify_module(&module).expect("benchmark module must verify");
    module
}

/// A carried-LCG loop with `work` filler after the early producer; the
/// glue's unpredictable-register-LCD component.
fn glue_lcg(fb: &mut FunctionBuilder, scr: ValueId, n: ValueId, work: u32) {
    let seed = fb.const_i64(0x00C0_FFEE);
    kernels::counted_loop(fb, n, &[(Type::I64, seed)], |fb, i, phis| {
        let x2 = kernels::lcg_step(fb, phis[0]); // early producer
        let w = kernels::int_filler(fb, x2, work);
        kernels::store_elem(fb, scr, i, w);
        vec![x2]
    });
}

/// [`build_program_glued`] without glue (tests and bare kernels).
#[allow(dead_code)]
pub(crate) fn build_program(
    name: &str,
    globals: &[(&str, u64)],
    recipe: impl FnOnce(&mut Module, &mut FunctionBuilder, &[ValueId]),
) -> Module {
    build_program_glued(name, None, globals, recipe)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lp_interp::{Engine, Exec, ExecUnit};

    #[test]
    fn registry_is_complete_and_unique() {
        let all = registry();
        assert!(
            all.len() >= 55,
            "expected >= 55 benchmarks, got {}",
            all.len()
        );
        let mut names = std::collections::HashSet::new();
        for b in &all {
            assert!(names.insert(b.name), "duplicate benchmark {}", b.name);
        }
        assert_eq!(suite(SuiteId::Cint2000).len(), 12);
        assert_eq!(suite(SuiteId::Cint2006).len(), 12);
        assert_eq!(suite(SuiteId::Cfp2000).len(), 14);
        assert_eq!(suite(SuiteId::Cfp2006).len(), 7);
        assert_eq!(suite(SuiteId::Eembc).len(), 10);
    }

    #[test]
    fn find_works() {
        assert!(find("429.mcf").is_some());
        assert!(find("no.such").is_none());
    }

    #[test]
    fn every_benchmark_builds_verifies_and_runs_at_test_scale() {
        for b in registry() {
            let m = b.build(Scale::Test);
            lp_ir::verify_module(&m)
                .unwrap_or_else(|e| panic!("{} fails verification: {e}", b.name));
            lp_analysis::verify_ssa(&m)
                .unwrap_or_else(|e| panic!("{} fails SSA check: {e}", b.name));
            // Both engines must agree on every suite program (the tree
            // walk is spelled out — `ExecUnit::new` defaults to bc).
            let tree = ExecUnit::with_engine(&m, Engine::Tree);
            let r = Exec::new(&tree)
                .run(&[])
                .unwrap_or_else(|e| panic!("{} traps: {e}", b.name))
                .result;
            assert!(r.cost > 1000, "{} does almost nothing: {}", b.name, r.cost);
            let bc = ExecUnit::with_engine(&m, Engine::Bc);
            let rb = Exec::new(&bc)
                .run(&[])
                .unwrap_or_else(|e| panic!("{} traps under bc: {e}", b.name))
                .result;
            assert_eq!(r, rb, "{} diverges between engines", b.name);
        }
    }

    #[test]
    fn benchmarks_are_deterministic() {
        for b in [find("164.gzip").unwrap(), find("470.lbm").unwrap()] {
            let m = b.build(Scale::Test);
            let unit = ExecUnit::new(&m);
            let run = || Exec::new(&unit).run(&[]).unwrap().result;
            let r1 = run();
            let r2 = run();
            assert_eq!(r1.ret, r2.ret);
            assert_eq!(r1.cost, r2.cost);
        }
    }

    #[test]
    fn scales_are_monotonic() {
        let b = find("171.swim").unwrap();
        let cost = |s: Scale| {
            let m = b.build(s);
            let unit = ExecUnit::new(&m);
            Exec::new(&unit).run(&[]).unwrap().result.cost
        };
        let t = cost(Scale::Test);
        let d = cost(Scale::Default);
        assert!(d > t, "Default ({d}) must exceed Test ({t})");
    }

    #[test]
    fn suite_labels() {
        assert_eq!(SuiteId::Cint2000.label(), "cint2000");
        assert_eq!(SuiteId::all().len(), 5);
    }
}
