//! Mid-level loop patterns with known dependence character.
//!
//! Every synthetic benchmark is composed from these patterns. Each doc
//! comment states the pattern's classification in the paper's taxonomy
//! (Table I) so the per-benchmark recipes read as dependence profiles:
//!
//! | pattern | character |
//! |---|---|
//! | `fill_affine*` / `stencil3` / `saxpy` | DOALL (computable IVs, disjoint memory) |
//! | `vector_sum_*` / `max_i64` | reduction accumulator |
//! | `pointer_chase` | frequent, unpredictable, non-computable register LCD |
//! | `predictable_walk` | frequent but *predictable* non-computable register LCD |
//! | `accum_cell` | frequent memory LCD, producer early (HELIX-friendly) |
//! | `dp_chain` | frequent memory LCD, producer late (HELIX-hostile) |
//! | `histogram` | infrequent memory LCDs (PDOALL-friendly) |
//! | `map_call` | structural: calls inside loops (`fn` lattice) |
//! | `print_every` | non-thread-safe I/O call in a loop |

use crate::kernels::{
    counted_loop, float_filler, if_else, int_filler, lcg_index, lcg_step, load_elem, store_elem,
};
use lp_ir::builder::FunctionBuilder;
use lp_ir::{Builtin, FuncId, IcmpPred, Module, Type, ValueId};

/// DOALL integer fill: `a[i] = i*mul + add`.
pub fn fill_affine(fb: &mut FunctionBuilder, base: ValueId, n: ValueId, mul: i64, add: i64) {
    let mulc = fb.const_i64(mul);
    let addc = fb.const_i64(add);
    counted_loop(fb, n, &[], |fb, i, _| {
        let t = fb.mul(i, mulc);
        let v = fb.add(t, addc);
        store_elem(fb, base, i, v);
        vec![]
    });
}

/// DOALL float fill: `a[i] = sin-free polynomial of i` (cheap, regular).
pub fn fill_affine_f64(fb: &mut FunctionBuilder, base: ValueId, n: ValueId, scale: f64) {
    let sc = fb.const_f64(scale);
    let one = fb.const_f64(1.0);
    counted_loop(fb, n, &[], |fb, i, _| {
        let fi = fb.sitofp(i);
        let t = fb.fmul(fi, sc);
        let v = fb.fadd(t, one);
        store_elem(fb, base, i, v);
        vec![]
    });
}

/// Serial fill through a carried LCG — an unpredictable non-computable
/// register LCD whose producer sits *early* in each iteration; the store
/// targets disjoint slots. Returns the final LCG state.
pub fn fill_lcg(
    fb: &mut FunctionBuilder,
    base: ValueId,
    n: ValueId,
    seed: i64,
    mask: i64,
) -> ValueId {
    let s = fb.const_i64(seed);
    let phis = counted_loop(fb, n, &[(Type::I64, s)], |fb, i, phis| {
        let x2 = lcg_step(fb, phis[0]);
        let idx = lcg_index(fb, x2, mask);
        store_elem(fb, base, i, idx);
        vec![x2]
    });
    phis[0]
}

/// Fills `next[i] = (i + stride) mod n` — a *stride-predictable* chase
/// table (DOALL fill).
pub fn fill_stride_chain(fb: &mut FunctionBuilder, base: ValueId, n: ValueId, stride: i64) {
    let st = fb.const_i64(stride);
    counted_loop(fb, n, &[], |fb, i, _| {
        let t = fb.add(i, st);
        let v = fb.srem(t, n);
        store_elem(fb, base, i, v);
        vec![]
    });
}

/// Fills `next[i] = (a*i + c) mod n` — with `gcd(a, n) = 1` this is a
/// scrambled permutation, giving an *unpredictable* chase (DOALL fill).
pub fn fill_affine_perm(fb: &mut FunctionBuilder, base: ValueId, n: ValueId, a: i64, c: i64) {
    let ac = fb.const_i64(a);
    let cc = fb.const_i64(c);
    counted_loop(fb, n, &[], |fb, i, _| {
        let t = fb.mul(i, ac);
        let t2 = fb.add(t, cc);
        let v = fb.srem(t2, n);
        store_elem(fb, base, i, v);
        vec![]
    });
}

/// Pointer chasing: `j = table[j]` for `steps` iterations, with `work`
/// units of filler *after* the producing load. The chase phi is a
/// frequent non-computable register LCD; whether it is predictable
/// depends on how the table was filled. Returns the folded result.
pub fn pointer_chase(
    fb: &mut FunctionBuilder,
    table: ValueId,
    steps: ValueId,
    work: u32,
) -> ValueId {
    let zero = fb.const_i64(0);
    let phis = counted_loop(
        fb,
        steps,
        &[(Type::I64, zero), (Type::I64, zero)],
        |fb, _i, phis| {
            let j2 = load_elem(fb, Type::I64, table, phis[0]);
            let w = int_filler(fb, j2, work);
            let acc = fb.add(phis[1], w);
            vec![j2, acc]
        },
    );
    phis[1]
}

/// Float sum reduction `s += a[i]` with filler. A reduction accumulator
/// (non-computable by SCEV since the addends are loaded).
pub fn vector_sum_f64(fb: &mut FunctionBuilder, base: ValueId, n: ValueId, work: u32) -> ValueId {
    let z = fb.const_f64(0.0);
    let phis = counted_loop(fb, n, &[(Type::F64, z)], |fb, i, phis| {
        let v = load_elem(fb, Type::F64, base, i);
        let w = float_filler(fb, v, work);
        vec![fb.fadd(phis[0], w)]
    });
    phis[0]
}

/// Integer sum reduction with filler.
pub fn vector_sum_i64(fb: &mut FunctionBuilder, base: ValueId, n: ValueId, work: u32) -> ValueId {
    let z = fb.const_i64(0);
    let phis = counted_loop(fb, n, &[(Type::I64, z)], |fb, i, phis| {
        let v = load_elem(fb, Type::I64, base, i);
        let w = int_filler(fb, v, work);
        vec![fb.add(phis[0], w)]
    });
    phis[0]
}

/// Max reduction over an integer array.
pub fn max_i64(fb: &mut FunctionBuilder, base: ValueId, n: ValueId) -> ValueId {
    let min = fb.const_i64(i64::MIN);
    let phis = counted_loop(fb, n, &[(Type::I64, min)], |fb, i, phis| {
        let v = load_elem(fb, Type::I64, base, i);
        vec![fb.bin(lp_ir::BinOp::SMax, phis[0], v)]
    });
    phis[0]
}

/// 3-point float stencil: `dst[i] = |src[i-1] + src[i] + src[i+1]| / 3`
/// for `i in 1..n-1`, plus filler. Iterations are independent, but — as
/// in real FP codes that call libm from inner loops — each iteration
/// makes a *pure math call* (`fabs`), so `fn0` keeps the loop
/// sequential and `fn1`/`fn2` unlock it.
pub fn stencil3(fb: &mut FunctionBuilder, src: ValueId, dst: ValueId, n: ValueId, work: u32) {
    let two = fb.const_i64(2);
    let third = fb.const_f64(1.0 / 3.0);
    let inner = fb.sub(n, two);
    counted_loop(fb, inner, &[], |fb, i, _| {
        let left = fb.gep(src, i, 8, 0);
        let mid = fb.gep(src, i, 8, 8);
        let right = fb.gep(src, i, 8, 16);
        let a = fb.load(Type::F64, left);
        let b = fb.load(Type::F64, mid);
        let c = fb.load(Type::F64, right);
        let s1 = fb.fadd(a, b);
        let s2 = fb.fadd(s1, c);
        let raw = fb.fmul(s2, third);
        let avg = fb.call_builtin(Builtin::FAbs, &[raw]); // libm-style pure call
        let w = float_filler(fb, avg, work);
        let out = fb.gep(dst, i, 8, 8);
        fb.store(w, out);
        vec![]
    });
}

/// DOALL `y[i] += a * x[i]` with filler.
pub fn saxpy(fb: &mut FunctionBuilder, x: ValueId, y: ValueId, n: ValueId, a: f64, work: u32) {
    let ac = fb.const_f64(a);
    counted_loop(fb, n, &[], |fb, i, _| {
        let xv = load_elem(fb, Type::F64, x, i);
        let yv = load_elem(fb, Type::F64, y, i);
        let t = fb.fmul(xv, ac);
        let t2 = fb.fadd(yv, t);
        let w = float_filler(fb, t2, work);
        store_elem(fb, y, i, w);
        vec![]
    });
}

/// Frequent memory LCD with an *early* producer: each iteration loads a
/// shared cell, bumps it, stores it back immediately, then does `work`
/// units of independent filler stored to a disjoint slot. HELIX overlaps
/// the filler; DOALL/PDOALL serialize.
pub fn accum_cell(
    fb: &mut FunctionBuilder,
    cell: ValueId,
    scratch: ValueId,
    n: ValueId,
    work: u32,
) {
    let one = fb.const_i64(1);
    counted_loop(fb, n, &[], |fb, i, _| {
        let v = fb.load(Type::I64, cell);
        let v2 = fb.add(v, one);
        fb.store(v2, cell); // producer: early in the iteration
        let w = int_filler(fb, v2, work);
        store_elem(fb, scratch, i, w);
        vec![]
    });
}

/// Frequent memory LCD with a *late* producer: `work` units of filler
/// feed the value that is stored to `a[i]` and read back from `a[i-1]`
/// at the start of the next iteration. HELIX gains almost nothing.
pub fn dp_chain(fb: &mut FunctionBuilder, base: ValueId, n: ValueId, work: u32) {
    let one = fb.const_i64(1);
    counted_loop(fb, n, &[], |fb, i, _| {
        let prev_i = fb.sub(i, one);
        // dp[-1] aliases slot n (the array is sized n+2 by callers); keep
        // indices non-negative by offsetting all accesses by one slot.
        let _ = prev_i;
        let prev = fb.gep(base, i, 8, 0); // a[i]   (previous iteration's store)
        let v = fb.load(Type::I64, prev);
        let w = int_filler(fb, v, work); // long chain BEFORE the store
        let cur = fb.gep(base, i, 8, 8); // a[i+1]
        fb.store(w, cur);
        vec![]
    });
}

/// Histogram updates with hashed indices: `h[hash(i) & mask] += 1`.
/// Conflicts appear only when two iterations hit the same bin — tune
/// `mask` (bins−1) against `n` for infrequent aliasing (PDOALL's sweet
/// spot).
pub fn histogram(fb: &mut FunctionBuilder, hist: ValueId, n: ValueId, mask: i64, work: u32) {
    let one = fb.const_i64(1);
    counted_loop(fb, n, &[], |fb, i, _| {
        let h = int_filler(fb, i, work.max(2));
        let idx = {
            let m = fb.const_i64(mask);
            let sh = fb.const_i64(7);
            let t = fb.ashr(h, sh);
            fb.and(t, m)
        };
        let addr = fb.gep(hist, idx, 8, 0);
        let v = fb.load(Type::I64, addr);
        let v2 = fb.add(v, one);
        fb.store(v2, addr);
        vec![]
    });
}

/// Frequent but highly *predictable* non-computable register LCD: `x +=
/// a[i]` where the table holds a constant stride except every `period`-th
/// entry. Stride/2-delta predictors hit ≳90 %. Returns the walker.
pub fn predictable_walk(fb: &mut FunctionBuilder, data: ValueId, n: ValueId, work: u32) -> ValueId {
    let zero = fb.const_i64(0);
    let phis = counted_loop(
        fb,
        n,
        &[(Type::I64, zero), (Type::I64, zero)],
        |fb, i, phis| {
            let d = load_elem(fb, Type::I64, data, i);
            let x2 = fb.add(phis[0], d); // producer early
            let w = int_filler(fb, x2, work);
            let acc = fb.add(phis[1], w);
            vec![x2, acc]
        },
    );
    phis[1]
}

/// Fills a table with `common` except every `period`-th slot gets `rare`
/// (DOALL fill). Feed to [`predictable_walk`].
pub fn fill_mostly_const(
    fb: &mut FunctionBuilder,
    base: ValueId,
    n: ValueId,
    common: i64,
    rare: i64,
    period: i64,
) {
    let cc = fb.const_i64(common);
    let rc = fb.const_i64(rare);
    let pc = fb.const_i64(period);
    let zero = fb.const_i64(0);
    counted_loop(fb, n, &[], |fb, i, _| {
        let r = fb.srem(i, pc);
        let is_rare = fb.icmp(IcmpPred::Eq, r, zero);
        let v = fb.select(is_rare, rc, cc);
        store_elem(fb, base, i, v);
        vec![]
    });
}

/// Two shared-cell read-modify-writes per iteration, one *early* and one
/// *late* (after the filler). Each LCD individually has a tiny
/// producer-consumer skew, so HELIX's per-LCD sync points keep the loop
/// parallel — but a classic DOACROSS single sync point must span from the
/// late producer to the early consumer, serializing it (paper §II-C).
pub fn accum_cell_pair(
    fb: &mut FunctionBuilder,
    cell_a: ValueId,
    cell_b: ValueId,
    scratch: ValueId,
    n: ValueId,
    work: u32,
) {
    let one = fb.const_i64(1);
    counted_loop(fb, n, &[], |fb, i, _| {
        let a = fb.load(Type::I64, cell_a);
        let a2 = fb.add(a, one);
        fb.store(a2, cell_a); // early LCD
        let w = int_filler(fb, a2, work);
        store_elem(fb, scratch, i, w);
        let b = fb.load(Type::I64, cell_b);
        let b2 = fb.add(b, one);
        fb.store(b2, cell_b); // late LCD
        vec![]
    });
}

/// Memory-carried pointer chase: the position lives in a memory cell
/// (`pos = *cell; next = table[pos]; *cell = next` — producer early),
/// followed by `work` filler stored to disjoint slots. A frequent
/// *memory* LCD: value prediction (`dep2`/`dep3`) cannot remove it, but
/// HELIX synchronization overlaps the tail — the INT-suite anchor that
/// keeps even `dep3-fn3` PDOALL modest (paper §IV).
pub fn chase_mem(
    fb: &mut FunctionBuilder,
    table: ValueId,
    cell: ValueId,
    scratch: ValueId,
    steps: ValueId,
    work: u32,
) {
    counted_loop(fb, steps, &[], |fb, i, _| {
        let pos = fb.load(Type::I64, cell);
        let addr = fb.gep(table, pos, 8, 0);
        let next = fb.load(Type::I64, addr);
        fb.store(next, cell); // producer: early in the iteration
        let w = int_filler(fb, next, work);
        store_elem(fb, scratch, i, w);
        vec![]
    });
}

/// Maps `dst[i] = callee(src[i])` — calls inside a loop (the structural
/// constraint). The callee decides the `fn` class.
pub fn map_call(fb: &mut FunctionBuilder, callee: FuncId, src: ValueId, dst: ValueId, n: ValueId) {
    counted_loop(fb, n, &[], |fb, i, _| {
        let v = load_elem(fb, Type::I64, src, i);
        let r = fb.call(callee, Type::I64, &[v]);
        store_elem(fb, dst, i, r);
        vec![]
    });
}

/// A loop that prints its accumulator every `period` iterations — a
/// non-thread-safe I/O call on a rarely taken path (only `fn3`
/// parallelizes it). Returns the accumulator.
pub fn print_every(fb: &mut FunctionBuilder, base: ValueId, n: ValueId, period: i64) -> ValueId {
    let zero = fb.const_i64(0);
    let pc = fb.const_i64(period);
    let phis = counted_loop(fb, n, &[(Type::I64, zero)], |fb, i, phis| {
        let v = load_elem(fb, Type::I64, base, i);
        let acc = fb.add(phis[0], v);
        let r = fb.srem(i, pc);
        let hit = fb.icmp(IcmpPred::Eq, r, zero);
        let merged = if_else(
            fb,
            hit,
            Type::I64,
            |fb| {
                fb.call_builtin(Builtin::PrintI64, &[acc]);
                acc
            },
            |_| acc,
        );
        vec![merged]
    });
    phis[0]
}

/// Dense matrix–vector product: `out[r] = Σ_c m[r][c] * v[c]` — outer
/// loop DOALL (disjoint `out` rows), inner loop a float reduction.
pub fn matvec(
    fb: &mut FunctionBuilder,
    mat: ValueId,
    vec_in: ValueId,
    out: ValueId,
    rows: ValueId,
    cols: ValueId,
    cols_stride: i64,
) {
    counted_loop(fb, rows, &[], |fb, r, _| {
        let row_base = {
            let stride = fb.const_i64(cols_stride * 8);
            let off = fb.mul(r, stride);
            let cast = fb.cast(lp_ir::CastKind::PtrToInt, mat);
            let sum = fb.add(cast, off);
            fb.cast(lp_ir::CastKind::IntToPtr, sum)
        };
        let z = fb.const_f64(0.0);
        let acc = counted_loop(fb, cols, &[(Type::F64, z)], |fb, c, phis| {
            let a = load_elem(fb, Type::F64, row_base, c);
            let x = load_elem(fb, Type::F64, vec_in, c);
            let p = fb.fmul(a, x);
            vec![fb.fadd(phis[0], p)]
        });
        store_elem(fb, out, r, acc[0]);
        vec![]
    });
}

// ---- module-level callee builders --------------------------------------

/// Builds a pure arithmetic function `fn(x) -> x`-ish (no memory).
pub fn make_pure_fn(module: &mut Module, name: &str) -> FuncId {
    let mut fb = FunctionBuilder::new(name, &[Type::I64], Type::I64);
    let x = fb.param(0);
    let r = int_filler(&mut fb, x, 6);
    fb.ret(Some(r));
    module.add_function(fb.finish().expect("valid pure fn"))
}

/// Builds a pure function using a pure math builtin (`sqrt`).
pub fn make_pure_math_fn(module: &mut Module, name: &str) -> FuncId {
    let mut fb = FunctionBuilder::new(name, &[Type::I64], Type::I64);
    let x = fb.param(0);
    let mask = fb.const_i64(0xFFFF);
    let pos = fb.and(x, mask);
    let xf = fb.sitofp(pos);
    let s = fb.call_builtin(Builtin::Sqrt, &[xf]);
    let r = fb.fptosi(s);
    fb.ret(Some(r));
    module.add_function(fb.finish().expect("valid math fn"))
}

/// Builds an impure-but-thread-safe helper: uses a private stack buffer
/// (cactus-stack local), so concurrent calls never conflict.
pub fn make_scratch_fn(module: &mut Module, name: &str) -> FuncId {
    let mut fb = FunctionBuilder::new(name, &[Type::I64], Type::I64);
    let x = fb.param(0);
    let buf = fb.alloca(4);
    let two = fb.const_i64(2);
    fb.store(x, buf);
    let addr1 = fb.gep(buf, two, 8, -8);
    let t = fb.mul(x, two);
    fb.store(t, addr1);
    let a = fb.load(Type::I64, buf);
    let b = fb.load(Type::I64, addr1);
    let r0 = fb.add(a, b);
    let r = int_filler(&mut fb, r0, 4);
    fb.ret(Some(r));
    module.add_function(fb.finish().expect("valid scratch fn"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use lp_analysis::analyze_module;
    use lp_interp::MachineConfig;
    use lp_ir::{Global, Module};
    use lp_runtime::{evaluate, profile_module, ExecModel};

    fn speedup(m: &Module, model: ExecModel, config: &str) -> f64 {
        let analysis = analyze_module(m);
        let (p, _) = profile_module(m, &analysis, &[], MachineConfig::default()).unwrap();
        evaluate(&p, model, config.parse().unwrap()).speedup
    }

    fn module_with_main(
        globals: &[(&str, u64)],
        build: impl FnOnce(&mut Module, &mut FunctionBuilder, &[ValueId]),
    ) -> Module {
        let mut m = Module::new("pattern_test");
        let gids: Vec<_> = globals
            .iter()
            .map(|(name, words)| m.add_global(Global::zeroed(*name, *words)))
            .collect();
        let mut fb = FunctionBuilder::new("main", &[], Type::I64);
        let bases: Vec<ValueId> = gids.iter().map(|g| fb.global_addr(*g)).collect();
        build(&mut m, &mut fb, &bases);
        m.add_function(fb.finish().unwrap());
        lp_ir::verify_module(&m).unwrap();
        m
    }

    #[test]
    fn stencil_is_doall() {
        let m = module_with_main(&[("src", 130), ("dst", 130)], |_m, fb, bases| {
            let n = fb.const_i64(128);
            fill_affine_f64(fb, bases[0], n, 0.5);
            stencil3(fb, bases[0], bases[1], n, 4);
            let zero = fb.const_i64(0);
            fb.ret(Some(zero));
        });
        // The stencil's iterations are independent, but each makes a pure
        // math call (like real FP code): fn0 serializes it, fn1 unlocks.
        let fn0 = speedup(&m, ExecModel::Doall, "reduc0-dep0-fn0");
        let fn1 = speedup(&m, ExecModel::PartialDoall, "reduc0-dep0-fn1");
        assert!(
            fn1 > 20.0,
            "stencil should be DOALL once pure calls pass: {fn1}"
        );
        assert!(fn1 > fn0 * 2.0, "fn0 must gate the stencil: {fn0} -> {fn1}");
    }

    #[test]
    fn chase_needs_helix_dep1_or_prediction() {
        let m = module_with_main(&[("next", 256), ("_s", 1)], |_m, fb, bases| {
            let n = fb.const_i64(256);
            fill_affine_perm(fb, bases[0], n, 37, 11);
            let steps = fb.const_i64(256);
            let r = pointer_chase(fb, bases[0], steps, 8);
            fb.ret(Some(r));
        });
        let doall = speedup(&m, ExecModel::Doall, "reduc0-dep0-fn0");
        let helix = speedup(&m, ExecModel::Helix, "reduc1-dep1-fn2");
        assert!(
            doall < 2.6,
            "fills are DOALL but the chase dominates: {doall}"
        );
        assert!(
            helix > doall,
            "HELIX dep1 should beat DOALL: {helix} vs {doall}"
        );
    }

    #[test]
    fn predictable_walk_rewards_dep2() {
        let m = module_with_main(&[("tab", 2048), ("_s", 1)], |_m, fb, bases| {
            let n = fb.const_i64(2048);
            fill_mostly_const(fb, bases[0], n, 3, 17, 64);
            let r = predictable_walk(fb, bases[0], n, 6);
            fb.ret(Some(r));
        });
        let dep0 = speedup(&m, ExecModel::PartialDoall, "reduc1-dep0-fn2");
        let dep2 = speedup(&m, ExecModel::PartialDoall, "reduc1-dep2-fn2");
        assert!(
            dep2 > dep0 * 2.0,
            "value prediction should unlock the walk: dep0 {dep0}, dep2 {dep2}"
        );
    }

    #[test]
    fn accum_cell_is_helix_friendly_dp_chain_is_not() {
        let build = |late: bool| {
            module_with_main(&[("a", 1100), ("b", 1100)], move |_m, fb, bases| {
                let n = fb.const_i64(1000);
                if late {
                    dp_chain(fb, bases[0], n, 24);
                } else {
                    accum_cell(fb, bases[0], bases[1], n, 24);
                }
                let zero = fb.const_i64(0);
                fb.ret(Some(zero));
            })
        };
        let early = speedup(&build(false), ExecModel::Helix, "reduc0-dep0-fn2");
        let late = speedup(&build(true), ExecModel::Helix, "reduc0-dep0-fn2");
        assert!(
            early > 3.0 && early > late * 2.0,
            "early producer {early} should dwarf late producer {late}"
        );
        assert!(late < 1.5, "late-producer chain gains little: {late}");
    }

    #[test]
    fn histogram_is_pdoall_friendly() {
        let m = module_with_main(&[("hist", 4096)], |_m, fb, bases| {
            let n = fb.const_i64(512);
            histogram(fb, bases[0], n, 4095, 4);
            let zero = fb.const_i64(0);
            fb.ret(Some(zero));
        });
        let doall = speedup(&m, ExecModel::Doall, "reduc0-dep0-fn0");
        let pdoall = speedup(&m, ExecModel::PartialDoall, "reduc0-dep0-fn0");
        assert!(
            pdoall > doall.max(2.0),
            "rare collisions: PDOALL {pdoall} must beat DOALL {doall}"
        );
    }

    #[test]
    fn call_classes_gate_fn_lattice() {
        let m = module_with_main(&[("src", 300), ("dst", 300)], |m, fb, bases| {
            let pure = make_pure_fn(m, "work");
            let n = fb.const_i64(256);
            fill_affine(fb, bases[0], n, 3, 1);
            map_call(fb, pure, bases[0], bases[1], n);
            let zero = fb.const_i64(0);
            fb.ret(Some(zero));
        });
        let fn0 = speedup(&m, ExecModel::PartialDoall, "reduc0-dep0-fn0");
        let fn1 = speedup(&m, ExecModel::PartialDoall, "reduc0-dep0-fn1");
        assert!(fn1 > fn0 * 3.0, "pure calls unlock at fn1: {fn0} -> {fn1}");
    }

    #[test]
    fn print_every_needs_fn3() {
        let m = module_with_main(&[("src", 300)], |_m, fb, bases| {
            let n = fb.const_i64(256);
            fill_affine(fb, bases[0], n, 1, 0);
            let r = print_every(fb, bases[0], n, 64);
            fb.ret(Some(r));
        });
        // The accumulator flows through the if/else join phi, so it is a
        // non-computable LCD: remove it with dep3 to isolate the fn gate.
        let fn2 = speedup(&m, ExecModel::PartialDoall, "reduc1-dep3-fn2");
        let fn3 = speedup(&m, ExecModel::PartialDoall, "reduc1-dep3-fn3");
        assert!(fn3 > fn2, "I/O loop unlocks only at fn3: {fn2} vs {fn3}");
    }

    #[test]
    fn matvec_runs_and_parallelizes() {
        let m = module_with_main(&[("mat", 1024), ("v", 32), ("out", 32)], |_m, fb, bases| {
            let n = fb.const_i64(1024);
            fill_affine_f64(fb, bases[0], n, 0.01);
            let cols = fb.const_i64(32);
            fill_affine_f64(fb, bases[1], cols, 0.1);
            matvec(fb, bases[0], bases[1], bases[2], cols, cols, 32);
            let zero = fb.const_i64(0);
            fb.ret(Some(zero));
        });
        // Inner reduction blocks reduc0 DOALL of the inner loop, but the
        // outer loop is DOALL under reduc1 via nested propagation.
        let s = speedup(&m, ExecModel::PartialDoall, "reduc1-dep0-fn0");
        assert!(s > 5.0, "matvec outer loop should parallelize: {s}");
    }

    #[test]
    fn scratch_fn_is_thread_safe_via_cactus_stack() {
        let m = module_with_main(&[("src", 300), ("dst", 300)], |m, fb, bases| {
            let scratch = make_scratch_fn(m, "scratch");
            let n = fb.const_i64(256);
            fill_affine(fb, bases[0], n, 5, 2);
            map_call(fb, scratch, bases[0], bases[1], n);
            let zero = fb.const_i64(0);
            fb.ret(Some(zero));
        });
        // The callee stores to its own frame; with the cactus-stack filter
        // those stores are iteration-local, so fn2 parallelizes the loop.
        let fn2 = speedup(&m, ExecModel::PartialDoall, "reduc0-dep0-fn2");
        assert!(fn2 > 5.0, "scratch calls must not serialize fn2: {fn2}");
        let fn1 = speedup(&m, ExecModel::PartialDoall, "reduc0-dep0-fn1");
        assert!(fn2 > fn1, "impure callee blocks fn1: {fn1} vs {fn2}");
    }
}
