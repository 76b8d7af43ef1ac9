//! Textual IR output.
//!
//! The format round-trips through [`crate::parser`]. Every instruction
//! prints its result type explicitly (`%v5: i64 = add ...`) so the parser
//! can resolve forward references (phis) in two passes. Constants are
//! printed inline as typed literals.
//!
//! Everything is written straight into one output buffer: no operand,
//! line or list is formatted into a `String` of its own. The text is the
//! profile store's key input, so the printer runs on every warm lookup.

use crate::function::{BlockId, Function, InstData};
use crate::inst::{Callee, Inst, Term};
use crate::module::Module;
use crate::types::Type;
use crate::value::{ValueId, ValueKind};
use std::fmt::Write;

/// Returns the label used for a block (its name, or `bN`).
#[must_use]
pub fn block_label(func: &Function, id: BlockId) -> String {
    let mut out = String::new();
    write_label(&mut out, func, id);
    out
}

// `fmt::Write` for `String` never fails, so the `write!` results below
// are discarded.

fn write_label(out: &mut String, func: &Function, id: BlockId) {
    match &func.block(id).name {
        Some(n) => out.push_str(n),
        None => {
            let _ = write!(out, "b{}", id.0);
        }
    }
}

fn write_operand(out: &mut String, func: &Function, module: Option<&Module>, v: ValueId) {
    let _ = match func.value(v) {
        ValueKind::ConstInt(i) => write!(out, "i64 {i}"),
        // `{:?}` keeps a decimal point / exponent so the parser can
        // distinguish float literals.
        ValueKind::ConstFloat(x) => write!(out, "f64 {x:?}"),
        ValueKind::ConstBool(b) => write!(out, "bool {b}"),
        ValueKind::ConstNull => out.write_str("null"),
        ValueKind::GlobalAddr(g) => match module {
            Some(m) => write!(out, "global @{}", m.global(*g).name),
            None => write!(out, "global #{}", g.0),
        },
        ValueKind::FuncAddr(f) => match module {
            Some(m) => write!(out, "fnaddr @{}", m.function(*f).name),
            None => write!(out, "fnaddr #{}", f.0),
        },
        ValueKind::Param(_) | ValueKind::Inst(_) => write!(out, "{v}"),
    };
}

/// Writes `items` separated by `", "`.
fn write_list<T: Copy>(out: &mut String, items: &[T], mut item: impl FnMut(&mut String, T)) {
    for (i, &x) in items.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        item(out, x);
    }
}

fn write_inst(out: &mut String, func: &Function, module: Option<&Module>, data: &InstData) {
    let op = |out: &mut String, v: ValueId| write_operand(out, func, module, v);
    // Stores and void calls define no printed result.
    let void_call = matches!(data.inst, Inst::Call { .. }) && data.ty == Type::Void;
    if !void_call && !matches!(data.inst, Inst::Store { .. }) {
        let _ = write!(out, "{}: {} = ", data.result, data.ty);
    }
    match &data.inst {
        Inst::Bin { op: o, lhs, rhs } => {
            let _ = write!(out, "{o} ");
            write_list(out, &[*lhs, *rhs], op);
        }
        Inst::Icmp { pred, lhs, rhs } => {
            let _ = write!(out, "icmp {pred} ");
            write_list(out, &[*lhs, *rhs], op);
        }
        Inst::Fcmp { pred, lhs, rhs } => {
            let _ = write!(out, "fcmp {pred} ");
            write_list(out, &[*lhs, *rhs], op);
        }
        Inst::Select {
            cond,
            then_val,
            else_val,
        } => {
            out.push_str("select ");
            write_list(out, &[*cond, *then_val, *else_val], op);
        }
        Inst::Cast { kind, val } => {
            let _ = write!(out, "{kind} ");
            op(out, *val);
        }
        Inst::Load { ty, addr } => {
            let _ = write!(out, "load {ty}, ");
            op(out, *addr);
        }
        Inst::Store { val, addr } => {
            out.push_str("store ");
            write_list(out, &[*val, *addr], op);
        }
        Inst::Gep {
            base,
            index,
            scale,
            offset,
        } => {
            out.push_str("gep ");
            write_list(out, &[*base, *index], op);
            let _ = write!(out, ", scale {scale}, offset {offset}");
        }
        Inst::Alloca { words } => {
            let _ = write!(out, "alloca {words}");
        }
        Inst::Call { callee, args } => {
            let _ = match (callee, module) {
                (Callee::Func(fid), Some(m)) => write!(out, "call @{} (", m.function(*fid).name),
                (Callee::Func(fid), None) => write!(out, "call @#{} (", fid.0),
                (Callee::Builtin(b), _) => write!(out, "call @!{b} ("),
            };
            write_list(out, args, op);
            let _ = write!(out, ") -> {}", data.ty);
        }
        Inst::Phi { ty, incomings } => {
            let _ = write!(out, "phi {ty} ");
            write_list(out, incomings, |out, (b, v)| {
                out.push_str("[ ");
                write_label(out, func, b);
                out.push_str(": ");
                op(out, v);
                out.push_str(" ]");
            });
        }
    }
}

fn write_function(out: &mut String, func: &Function, module: Option<&Module>) {
    let _ = write!(out, "fn @{}(", func.name);
    for (i, ty) in func.params.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "%v{i}: {ty}");
    }
    let _ = writeln!(out, ") -> {} {{", func.ret);
    for bid in func.block_ids() {
        write_label(out, func, bid);
        out.push_str(":\n");
        let block = func.block(bid);
        for &iid in &block.insts {
            out.push_str("  ");
            write_inst(out, func, module, func.inst(iid));
            out.push('\n');
        }
        out.push_str("  ");
        match &block.term {
            Term::Br(t) => {
                out.push_str("br ");
                write_label(out, func, *t);
            }
            Term::CondBr {
                cond,
                then_blk,
                else_blk,
            } => {
                out.push_str("condbr ");
                write_operand(out, func, module, *cond);
                out.push_str(", ");
                write_label(out, func, *then_blk);
                out.push_str(", ");
                write_label(out, func, *else_blk);
            }
            Term::Ret(None) => out.push_str("ret void"),
            Term::Ret(Some(v)) => {
                out.push_str("ret ");
                write_operand(out, func, module, *v);
            }
        }
        out.push('\n');
    }
    out.push_str("}\n");
}

/// Prints a function to a string.
#[must_use]
pub fn print_function(func: &Function, module: Option<&Module>) -> String {
    let mut out = String::new();
    write_function(&mut out, func, module);
    out
}

/// Prints a whole module to a string.
#[must_use]
pub fn print_module(module: &Module) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "module \"{}\"\n", module.name);
    for g in &module.globals {
        let _ = write!(out, "global @{} = words({})", g.name, g.words);
        if !g.init.is_empty() {
            out.push_str(" init [");
            write_list(&mut out, &g.init, |out, w| {
                let _ = write!(out, "{w}");
            });
            out.push(']');
        }
        out.push('\n');
    }
    if !module.globals.is_empty() {
        out.push('\n');
    }
    for (_, f) in module.iter_functions() {
        write_function(&mut out, f, Some(module));
        out.push('\n');
    }
    out
}

impl std::fmt::Display for Module {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&print_module(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::inst::{BinOp, Builtin, CastKind, FcmpPred, IcmpPred};
    use crate::Global;

    #[test]
    fn prints_a_loop() {
        let mut m = Module::new("demo");
        let g = m.add_global(Global::from_i64("tab", &[5, 6, 7]));
        let mut fb = FunctionBuilder::new("main", &[], Type::I64);
        let n = fb.const_i64(3);
        let zero = fb.const_i64(0);
        let one = fb.const_i64(1);
        let base = fb.global_addr(g);
        let header = fb.create_block("header");
        let body = fb.create_block("body");
        let exit = fb.create_block("exit");
        fb.br(header);
        fb.switch_to(header);
        let i = fb.phi(Type::I64);
        let s = fb.phi(Type::I64);
        let c = fb.icmp(IcmpPred::Slt, i, n);
        fb.cond_br(c, body, exit);
        fb.switch_to(body);
        let addr = fb.gep(base, i, 8, 0);
        let x = fb.load(Type::I64, addr);
        let s2 = fb.add(s, x);
        let i2 = fb.add(i, one);
        fb.add_phi_incoming(i, BlockId::ENTRY, zero);
        fb.add_phi_incoming(i, body, i2);
        fb.add_phi_incoming(s, BlockId::ENTRY, zero);
        fb.add_phi_incoming(s, body, s2);
        fb.br(header);
        fb.switch_to(exit);
        let xf = fb.sitofp(s);
        let r = fb.call_builtin(Builtin::Sqrt, &[xf]);
        let ri = fb.fptosi(r);
        fb.ret(Some(ri));
        m.add_function(fb.finish().unwrap());

        let text = print_module(&m);
        assert!(text.contains("module \"demo\""));
        assert!(text.contains("global @tab = words(3) init [5, 6, 7]"));
        assert!(text.contains("phi i64"));
        assert!(text.contains("call @!sqrt"));
        assert!(text.contains("condbr"));
    }

    /// A module that reaches every `Inst`, `Term` and `ValueKind` arm of
    /// the printer, including the module-less `#N` forms.
    fn every_arm_module() -> Module {
        let mut m = Module::new("arms");
        let buf = m.add_global(Global::zeroed("buf", 4));
        let tab = m.add_global(Global::from_i64("tab", &[1, -2, 3]));
        m.add_global(Global::from_f64("coef", &[0.5, -1.25]));

        let mut sink = FunctionBuilder::new("sink", &[Type::Ptr, Type::I64], Type::Void);
        let (p, v) = (sink.param(0), sink.param(1));
        sink.store(v, p);
        sink.ret(None);
        let sink_id = m.add_function(sink.finish().unwrap());

        let mut scale = FunctionBuilder::new("scale", &[Type::F64], Type::F64);
        let x = scale.param(0);
        let k = scale.const_f64(0.1);
        let y = scale.fmul(x, k);
        let big = scale.const_f64(-2.5e-300);
        let z = scale.fadd(y, big);
        let w = scale.bin(BinOp::FMax, z, x);
        scale.ret(Some(w));
        let scale_id = m.add_function(scale.finish().unwrap());

        let mut fb = FunctionBuilder::new("main", &[], Type::I64);
        let zero = fb.const_i64(0);
        let one = fb.const_i64(1);
        let neg = fb.const_i64(-7);
        let t = fb.const_bool(true);
        let f = fb.const_bool(false);
        let null = fb.const_null();
        let gbuf = fb.global_addr(buf);
        let gtab = fb.global_addr(tab);
        let fa = fb.func_addr(scale_id);
        let slot = fb.alloca(2);
        let header = fb.create_block("header");
        let body = fb.fresh_block("body");
        let exit = fb.create_block("exit");
        fb.br(header);
        fb.switch_to(header);
        let i = fb.phi(Type::I64);
        let acc = fb.phi(Type::F64);
        let c = fb.icmp(IcmpPred::Sle, i, neg);
        let sel = fb.select(t, c, f);
        fb.cond_br(sel, body, exit);
        fb.switch_to(body);
        let addr = fb.gep(gtab, i, 8, -16);
        let ld = fb.load(Type::I64, addr);
        let pld = fb.load(Type::Ptr, slot);
        let pi = fb.cast(CastKind::PtrToInt, pld);
        let ip = fb.cast(CastKind::IntToPtr, pi);
        let fx = fb.sitofp(ld);
        let sc = fb.call(scale_id, Type::F64, &[fx]);
        let sq = fb.call_builtin(Builtin::Sqrt, &[sc]);
        let acc2 = fb.fsub(acc, sq);
        let fc = fb.fcmp(FcmpPred::Olt, acc2, sq);
        let bi = fb.cast(CastKind::BoolToInt, fc);
        let mn = fb.bin(BinOp::SMin, bi, ld);
        fb.call(sink_id, Type::Void, &[gbuf, mn]);
        fb.call_builtin(Builtin::PrintI64, &[mn]);
        fb.store(fa, slot);
        fb.store(null, ip);
        let i2 = fb.add(i, one);
        fb.add_phi_incoming(i, BlockId::ENTRY, zero);
        fb.add_phi_incoming(i, body, i2);
        let fzero = fb.const_f64(0.0);
        fb.add_phi_incoming(acc, BlockId::ENTRY, fzero);
        fb.add_phi_incoming(acc, body, acc2);
        fb.br(header);
        fb.switch_to(exit);
        let r = fb.fptosi(acc);
        fb.ret(Some(r));
        let mut main = fb.finish().unwrap();
        main.blocks[body.index()].name = None;
        m.add_function(main);
        m
    }

    /// `print_module(&every_arm_module())`, byte for byte.
    const PINNED_MODULE: &str = r#"module "arms"

global @buf = words(4)
global @tab = words(3) init [1, 18446744073709551614, 3]
global @coef = words(2) init [4602678819172646912, 13831680355561635840]

fn @sink(%v0: ptr, %v1: i64) -> void {
entry:
  store %v1, %v0
  ret void
}

fn @scale(%v0: f64) -> f64 {
entry:
  %v2: f64 = fmul %v0, f64 0.1
  %v4: f64 = fadd %v2, f64 -2.5e-300
  %v5: f64 = fmax %v4, %v0
  ret %v5
}

fn @main() -> i64 {
entry:
  %v9: ptr = alloca 2
  br header
header:
  %v10: i64 = phi i64 [ entry: i64 0 ], [ b2: %v30 ]
  %v11: f64 = phi f64 [ entry: f64 0.0 ], [ b2: %v22 ]
  %v12: i1 = icmp sle %v10, i64 -7
  %v13: i1 = select bool true, %v12, bool false
  condbr %v13, b2, exit
b2:
  %v14: ptr = gep global @tab, %v10, scale 8, offset -16
  %v15: i64 = load i64, %v14
  %v16: ptr = load ptr, %v9
  %v17: i64 = ptrtoint %v16
  %v18: ptr = inttoptr %v17
  %v19: f64 = sitofp %v15
  %v20: f64 = call @scale (%v19) -> f64
  %v21: f64 = call @!sqrt (%v20) -> f64
  %v22: f64 = fsub %v11, %v21
  %v23: i1 = fcmp olt %v22, %v21
  %v24: i64 = booltoint %v23
  %v25: i64 = smin %v24, %v15
  call @sink (global @buf, %v25) -> void
  call @!print_i64 (%v25) -> void
  store fnaddr @scale, %v9
  store null, %v18
  %v30: i64 = add %v10, i64 1
  br header
exit:
  %v32: i64 = fptosi %v11
  ret %v32
}

"#;

    /// `print_function` of `@main` without a module (`#N` references).
    const PINNED_MAIN_BARE: &str = r#"fn @main() -> i64 {
entry:
  %v9: ptr = alloca 2
  br header
header:
  %v10: i64 = phi i64 [ entry: i64 0 ], [ b2: %v30 ]
  %v11: f64 = phi f64 [ entry: f64 0.0 ], [ b2: %v22 ]
  %v12: i1 = icmp sle %v10, i64 -7
  %v13: i1 = select bool true, %v12, bool false
  condbr %v13, b2, exit
b2:
  %v14: ptr = gep global #1, %v10, scale 8, offset -16
  %v15: i64 = load i64, %v14
  %v16: ptr = load ptr, %v9
  %v17: i64 = ptrtoint %v16
  %v18: ptr = inttoptr %v17
  %v19: f64 = sitofp %v15
  %v20: f64 = call @#1 (%v19) -> f64
  %v21: f64 = call @!sqrt (%v20) -> f64
  %v22: f64 = fsub %v11, %v21
  %v23: i1 = fcmp olt %v22, %v21
  %v24: i64 = booltoint %v23
  %v25: i64 = smin %v24, %v15
  call @#0 (global #0, %v25) -> void
  call @!print_i64 (%v25) -> void
  store fnaddr #1, %v9
  store null, %v18
  %v30: i64 = add %v10, i64 1
  br header
exit:
  %v32: i64 = fptosi %v11
  ret %v32
}
"#;

    #[test]
    fn pins_every_arm() {
        let m = every_arm_module();
        let text = print_module(&m);
        assert_eq!(text, PINNED_MODULE);
        let main = m.function(m.function_by_name("main").unwrap());
        assert_eq!(print_function(main, None), PINNED_MAIN_BARE);
        // The parser renumbers values, so the round trip is pinned at its
        // fixpoint rather than against the builder's numbering.
        let once = print_module(&crate::parser::parse_module(&text).expect("parse"));
        let twice = print_module(&crate::parser::parse_module(&once).expect("reparse"));
        assert_eq!(twice, once);
    }
}
