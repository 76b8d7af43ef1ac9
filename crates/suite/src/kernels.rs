//! Low-level loop-construction helpers used by every synthetic benchmark.

use lp_ir::builder::FunctionBuilder;
use lp_ir::{BlockId, IcmpPred, Type, ValueId};

/// Builds a canonical counted loop `for i in 0..n` with extra
/// loop-carried values.
///
/// `carried` lists `(type, initial value)` pairs; `body` receives the
/// builder, the induction variable, and the carried phis, and must return
/// one update value per carried phi. The body may create additional
/// blocks as long as control returns to the block it leaves current (that
/// block becomes the latch). After the call the builder sits in the exit
/// block; the returned values are the carried phis (their values upon
/// loop exit).
///
/// # Panics
/// Panics if `body` returns the wrong number of updates.
pub fn counted_loop<F>(
    fb: &mut FunctionBuilder,
    n: ValueId,
    carried: &[(Type, ValueId)],
    body: F,
) -> Vec<ValueId>
where
    F: FnOnce(&mut FunctionBuilder, ValueId, &[ValueId]) -> Vec<ValueId>,
{
    let zero = fb.const_i64(0);
    let one = fb.const_i64(1);
    let pre = fb.current_block();
    let header = fb.fresh_block("header");
    let body_blk = fb.fresh_block("body");
    let exit = fb.fresh_block("exit");
    fb.br(header);
    fb.switch_to(header);
    let i = fb.phi(Type::I64);
    let phis: Vec<ValueId> = carried.iter().map(|&(ty, _)| fb.phi(ty)).collect();
    let cond = fb.icmp(IcmpPred::Slt, i, n);
    fb.cond_br(cond, body_blk, exit);
    fb.switch_to(body_blk);
    let updates = body(fb, i, &phis);
    assert_eq!(
        updates.len(),
        carried.len(),
        "body must return one update per carried value"
    );
    let i2 = fb.add(i, one);
    let latch = fb.current_block();
    fb.add_phi_incoming(i, pre, zero);
    fb.add_phi_incoming(i, latch, i2);
    for ((phi, &(_, init)), update) in phis.iter().zip(carried).zip(&updates) {
        fb.add_phi_incoming(*phi, pre, init);
        fb.add_phi_incoming(*phi, latch, *update);
    }
    fb.br(header);
    fb.switch_to(exit);
    phis
}

/// Emits an `if cond { then } else { else_ }` diamond that merges one
/// value. Returns the merged value; the builder ends in the join block.
pub fn if_else<T, E>(
    fb: &mut FunctionBuilder,
    cond: ValueId,
    ty: Type,
    then_arm: T,
    else_arm: E,
) -> ValueId
where
    T: FnOnce(&mut FunctionBuilder) -> ValueId,
    E: FnOnce(&mut FunctionBuilder) -> ValueId,
{
    let then_blk = fb.fresh_block("then");
    let else_blk = fb.fresh_block("else");
    let join = fb.fresh_block("join");
    fb.cond_br(cond, then_blk, else_blk);
    fb.switch_to(then_blk);
    let tv = then_arm(fb);
    let t_end = fb.current_block();
    fb.br(join);
    fb.switch_to(else_blk);
    let ev = else_arm(fb);
    let e_end = fb.current_block();
    fb.br(join);
    fb.switch_to(join);
    let phi = fb.phi(ty);
    fb.add_phi_incoming(phi, t_end, tv);
    fb.add_phi_incoming(phi, e_end, ev);
    phi
}

/// One step of a 64-bit LCG: `x' = x * 6364136223846793005 +
/// 1442695040888963407`. Cheap pseudo-randomness inside generated code.
pub fn lcg_step(fb: &mut FunctionBuilder, x: ValueId) -> ValueId {
    let a = fb.const_i64(6364136223846793005u64 as i64);
    let c = fb.const_i64(1442695040888963407u64 as i64);
    let t = fb.mul(x, a);
    fb.add(t, c)
}

/// Derives a table index in `0..(mask+1)` from an LCG state: `(x >> 17) &
/// mask`. `mask + 1` must be a power of two.
pub fn lcg_index(fb: &mut FunctionBuilder, x: ValueId, mask: i64) -> ValueId {
    let seventeen = fb.const_i64(17);
    let m = fb.const_i64(mask);
    let sh = fb.ashr(x, seventeen);
    fb.and(sh, m)
}

/// Loads `a[i]` from a word array at `base`.
pub fn load_elem(fb: &mut FunctionBuilder, ty: Type, base: ValueId, i: ValueId) -> ValueId {
    let addr = fb.gep(base, i, 8, 0);
    fb.load(ty, addr)
}

/// Stores `v` to `a[i]` of a word array at `base`.
pub fn store_elem(fb: &mut FunctionBuilder, base: ValueId, i: ValueId, v: ValueId) {
    let addr = fb.gep(base, i, 8, 0);
    fb.store(v, addr);
}

/// Emits `amount` units of integer register-only filler work derived from
/// `seed`, returning the folded result. Keeps iteration bodies fat enough
/// that model differences (sync deltas, restarts) are visible.
pub fn int_filler(fb: &mut FunctionBuilder, seed: ValueId, amount: u32) -> ValueId {
    let mut acc = seed;
    let k1 = fb.const_i64(0x9E37_79B9_7F4A_7C15u64 as i64);
    let k2 = fb.const_i64(0xBF58_476D_1CE4_E5B9u64 as i64);
    for round in 0..amount {
        if round % 2 == 0 {
            acc = fb.mul(acc, k1);
            acc = fb.xor(acc, k2);
        } else {
            acc = fb.add(acc, k2);
            let sh = fb.const_i64(13);
            acc = fb.ashr(acc, sh);
            acc = fb.xor(acc, k1);
        }
    }
    acc
}

/// Emits `amount` units of floating-point filler work.
pub fn float_filler(fb: &mut FunctionBuilder, seed: ValueId, amount: u32) -> ValueId {
    let mut acc = seed;
    let k1 = fb.const_f64(1.000_000_11);
    let k2 = fb.const_f64(0.999_999_43);
    for round in 0..amount {
        if round % 2 == 0 {
            acc = fb.fmul(acc, k1);
        } else {
            acc = fb.fmul(acc, k2);
            acc = fb.fadd(acc, k1);
        }
    }
    acc
}

/// Returns the entry-block id (just a readable alias at call sites).
#[must_use]
pub fn entry() -> BlockId {
    BlockId::ENTRY
}

#[cfg(test)]
mod tests {
    use super::*;
    use lp_interp::{Exec, ExecUnit, Value};
    use lp_ir::{IcmpPred, Module};

    fn run(m: &Module) -> Value {
        let unit = ExecUnit::new(m);
        Exec::new(&unit).run(&[]).unwrap().result.ret
    }

    #[test]
    fn counted_loop_sums() {
        let mut m = Module::new("t");
        let mut fb = FunctionBuilder::new("main", &[], Type::I64);
        let n = fb.const_i64(10);
        let zero = fb.const_i64(0);
        let phis = counted_loop(&mut fb, n, &[(Type::I64, zero)], |fb, i, phis| {
            vec![fb.add(phis[0], i)]
        });
        fb.ret(Some(phis[0]));
        m.add_function(fb.finish().unwrap());
        lp_ir::verify_module(&m).unwrap();
        assert_eq!(run(&m), Value::I(45));
    }

    #[test]
    fn counted_loop_zero_trip() {
        let mut m = Module::new("t");
        let mut fb = FunctionBuilder::new("main", &[], Type::I64);
        let n = fb.const_i64(0);
        let seven = fb.const_i64(7);
        let phis = counted_loop(&mut fb, n, &[(Type::I64, seven)], |fb, i, phis| {
            vec![fb.add(phis[0], i)]
        });
        fb.ret(Some(phis[0]));
        m.add_function(fb.finish().unwrap());
        assert_eq!(run(&m), Value::I(7), "zero-trip loop keeps the init");
    }

    #[test]
    fn nested_counted_loops() {
        // sum_{i<4} sum_{j<3} 1 = 12
        let mut m = Module::new("t");
        let mut fb = FunctionBuilder::new("main", &[], Type::I64);
        let n = fb.const_i64(4);
        let inner_n = fb.const_i64(3);
        let zero = fb.const_i64(0);
        let one = fb.const_i64(1);
        let outer = counted_loop(&mut fb, n, &[(Type::I64, zero)], |fb, _i, phis| {
            let inner = counted_loop(fb, inner_n, &[(Type::I64, phis[0])], |fb, _j, ph| {
                vec![fb.add(ph[0], one)]
            });
            vec![inner[0]]
        });
        fb.ret(Some(outer[0]));
        m.add_function(fb.finish().unwrap());
        lp_ir::verify_module(&m).unwrap();
        assert_eq!(run(&m), Value::I(12));
    }

    #[test]
    fn if_else_merges() {
        let mut m = Module::new("t");
        let mut fb = FunctionBuilder::new("main", &[Type::I64], Type::I64);
        let x = fb.param(0);
        let ten = fb.const_i64(10);
        let c = fb.icmp(IcmpPred::Slt, x, ten);
        let one = fb.const_i64(1);
        let two = fb.const_i64(2);
        let v = if_else(&mut fb, c, Type::I64, |_| one, |_| two);
        fb.ret(Some(v));
        m.add_function(fb.finish().unwrap());
        let unit = ExecUnit::new(&m);
        let r = Exec::new(&unit).run(&[Value::I(3)]).unwrap().result;
        assert_eq!(r.ret, Value::I(1));
        let r = Exec::new(&unit).run(&[Value::I(30)]).unwrap().result;
        assert_eq!(r.ret, Value::I(2));
    }

    #[test]
    fn lcg_is_well_distributed_enough() {
        let mut m = Module::new("t");
        let mut fb = FunctionBuilder::new("main", &[], Type::I64);
        let n = fb.const_i64(64);
        let seed = fb.const_i64(12345);
        let zero = fb.const_i64(0);
        // Count how many of 64 draws land in the upper half of a 256-entry
        // table: should be near 32.
        let phis = counted_loop(
            &mut fb,
            n,
            &[(Type::I64, seed), (Type::I64, zero)],
            |fb, _i, phis| {
                let x2 = lcg_step(fb, phis[0]);
                let idx = lcg_index(fb, x2, 255);
                let mid = fb.const_i64(128);
                let hi = fb.icmp(IcmpPred::Sge, idx, mid);
                let hi_i = fb.cast(lp_ir::CastKind::BoolToInt, hi);
                let cnt = fb.add(phis[1], hi_i);
                vec![x2, cnt]
            },
        );
        fb.ret(Some(phis[1]));
        m.add_function(fb.finish().unwrap());
        let Value::I(count) = run(&m) else { panic!() };
        assert!(
            (16..=48).contains(&count),
            "suspicious LCG distribution: {count}"
        );
    }

    #[test]
    fn fillers_produce_work() {
        let mut m = Module::new("t");
        let mut fb = FunctionBuilder::new("main", &[], Type::I64);
        let s = fb.const_i64(3);
        let v = int_filler(&mut fb, s, 8);
        let fs = fb.const_f64(1.5);
        let fv = float_filler(&mut fb, fs, 8);
        let fvi = fb.fptosi(fv);
        let r = fb.xor(v, fvi);
        fb.ret(Some(r));
        m.add_function(fb.finish().unwrap());
        lp_ir::verify_module(&m).unwrap();
        let _ = run(&m);
    }
}
