//! One-pass compiler from [`lp_ir`] to the flat bytecode executed by
//! [`crate::bytecode`].
//!
//! The compiler pre-resolves everything the tree walk re-derives on
//! every dispatch:
//!
//! - operands become dense `u32` register indices into the function's
//!   frame (constants were already materialized into the per-function
//!   register template at machine construction),
//! - branch targets become absolute instruction offsets via per-edge
//!   records,
//! - each CFG edge carries its block-local phi-run table — the
//!   parallel-copy `(dst, src)` moves for the target block's phi prefix,
//!   so loop back-edges no longer search `incomings` per phi per
//!   iteration,
//! - block costs are precomputed ([`lp_ir::Function::block_costs`])
//!   instead of re-counted on every block entry,
//! - the dominant dispatch pairs (the EEMBC opcode-pair table recorded
//!   in EXPERIMENTS.md, "Extension: interpreter dispatch heat") are
//!   fused into superinstructions: a block-terminal `icmp` feeding its
//!   own `cond_br` becomes [`Bc::IcmpBr`], and a `gep` feeding the
//!   immediately following `load` becomes [`Bc::GepLoad`]. Fused forms
//!   keep per-constituent cost charging and event stamps, so the
//!   observable stream is identical to the unfused one.

use crate::bytecode::{Bc, BcFunc, CompiledModule, Edge};
use lp_ir::{BlockId, Callee, Function, Inst, InstData, Module, Term};

/// Compiles every function of `module`. Pure and infallible: the module
/// is expected to be verified (the same precondition the tree walk has).
#[must_use]
pub(crate) fn compile_module(module: &Module) -> CompiledModule {
    CompiledModule {
        funcs: module.functions.iter().map(compile_function).collect(),
    }
}

/// The phi-run table for the edge `from -> to`: one `(dst, src)`
/// register move per phi in `to`'s phi prefix, in phi order.
fn edge_moves(func: &Function, from: BlockId, to: BlockId) -> Box<[(u32, u32)]> {
    func.block(to)
        .insts
        .iter()
        .map_while(|&iid| {
            let data = func.inst(iid);
            let Inst::Phi { incomings, .. } = &data.inst else {
                return None;
            };
            let (_, v) = incomings
                .iter()
                .find(|(b, _)| *b == from)
                .expect("verified phi covers predecessors");
            Some((data.result.0, v.0))
        })
        .collect()
}

fn compile_function(func: &Function) -> BcFunc {
    let costs = func.block_costs();
    let mut code: Vec<Bc> = Vec::new();
    let mut edges: Vec<Edge> = Vec::new();
    let mut block_starts = vec![0u32; func.blocks.len()];

    let add_edge = |edges: &mut Vec<Edge>, from: BlockId, to: BlockId| -> u32 {
        let idx = u32::try_from(edges.len()).expect("edge count fits u32");
        let moves = edge_moves(func, from, to);
        // A phi run is a *parallel* copy: all sources are read before
        // any destination is written. When no move reads an earlier
        // move's destination, executing the moves in order is
        // equivalent, and the dispatch loop can skip the two-phase
        // scratch buffer. Loop phis almost always read body-computed
        // registers, so this is the overwhelmingly common case.
        let sequential = moves
            .iter()
            .enumerate()
            .all(|(j, &(_, src))| !moves[..j].iter().any(|&(dst, _)| dst == src));
        edges.push(Edge {
            target: 0, // patched below once every block's start pc is known
            block: to,
            cost: costs[to.index()],
            moves,
            sequential,
        });
        idx
    };

    for (bi, blk) in func.blocks.iter().enumerate() {
        let b = BlockId(bi as u32);
        block_starts[bi] = u32::try_from(code.len()).expect("bytecode length fits u32");
        let body: Vec<&InstData> = blk
            .insts
            .iter()
            .map(|&iid| func.inst(iid))
            .filter(|d| !d.inst.is_phi())
            .collect();

        // cmp+br fusion: a block-terminal icmp feeding its own cond_br.
        let fuse_tail = matches!(
            (&blk.term, body.last()),
            (Term::CondBr { cond, .. }, Some(d))
                if matches!(&d.inst, Inst::Icmp { .. }) && d.result == *cond
        );
        // bin+br fusion: a block-terminal binary op before a plain br.
        let fuse_bin_tail = matches!(
            (&blk.term, body.last()),
            (Term::Br(_), Some(d)) if matches!(&d.inst, Inst::Bin { .. })
        );
        let body_emit = if fuse_tail || fuse_bin_tail {
            &body[..body.len() - 1]
        } else {
            &body[..]
        };

        let mut k = 0;
        while k < body_emit.len() {
            let d = body_emit[k];
            // gep+load / gep+store fusion: a gep feeding the immediately
            // following memory op. The gep result register is still
            // written (later instructions may reuse the address).
            if let Inst::Gep {
                base,
                index,
                scale,
                offset,
            } = &d.inst
            {
                match body_emit.get(k + 1).map(|next| (&next.inst, *next)) {
                    Some((Inst::Load { ty, addr }, next)) if *addr == d.result => {
                        code.push(Bc::GepLoad {
                            ty: *ty,
                            gep_dst: d.result.0,
                            dst: next.result.0,
                            base: base.0,
                            index: index.0,
                            scale: *scale,
                            offset: *offset,
                        });
                        k += 2;
                        continue;
                    }
                    Some((Inst::Store { val, addr }, next)) if *addr == d.result => {
                        code.push(Bc::GepStore {
                            gep_dst: d.result.0,
                            dst: next.result.0,
                            val: val.0,
                            base: base.0,
                            index: index.0,
                            scale: *scale,
                            offset: *offset,
                        });
                        k += 2;
                        continue;
                    }
                    _ => {}
                }
            }
            // bin+bin fusion: adjacent binary ops execute strictly in
            // order, so the second is free to read the first's result.
            if let Inst::Bin { op, lhs, rhs } = &d.inst {
                if let Some(next) = body_emit.get(k + 1) {
                    if let Inst::Bin {
                        op: op2,
                        lhs: lhs2,
                        rhs: rhs2,
                    } = &next.inst
                    {
                        code.push(Bc::BinBin {
                            op1: *op,
                            dst1: d.result.0,
                            lhs1: lhs.0,
                            rhs1: rhs.0,
                            op2: *op2,
                            dst2: next.result.0,
                            lhs2: lhs2.0,
                            rhs2: rhs2.0,
                        });
                        k += 2;
                        continue;
                    }
                }
            }
            // store+bin / load+bin fusion: a memory op followed by a
            // binary op. The memory half executes first, so the bin may
            // read the loaded value; both halves keep their own charge.
            if let Some(next) = body_emit.get(k + 1) {
                if let Inst::Bin {
                    op: bop,
                    lhs: blhs,
                    rhs: brhs,
                } = &next.inst
                {
                    match &d.inst {
                        Inst::Store { val, addr } => {
                            code.push(Bc::StoreBin {
                                sdst: d.result.0,
                                val: val.0,
                                addr: addr.0,
                                op: *bop,
                                dst: next.result.0,
                                lhs: blhs.0,
                                rhs: brhs.0,
                            });
                            k += 2;
                            continue;
                        }
                        Inst::Load { ty, addr } => {
                            code.push(Bc::LoadBin {
                                ty: *ty,
                                ldst: d.result.0,
                                addr: addr.0,
                                op: *bop,
                                dst: next.result.0,
                                lhs: blhs.0,
                                rhs: brhs.0,
                            });
                            k += 2;
                            continue;
                        }
                        _ => {}
                    }
                }
            }
            code.push(lower(d));
            k += 1;
        }

        match &blk.term {
            Term::Br(t) => {
                let edge = add_edge(&mut edges, b, *t);
                if fuse_bin_tail {
                    let d = body.last().expect("fuse_bin_tail implies a body tail");
                    let Inst::Bin { op, lhs, rhs } = &d.inst else {
                        unreachable!("fuse_bin_tail implies a tail bin");
                    };
                    code.push(Bc::BinBr {
                        op: *op,
                        dst: d.result.0,
                        lhs: lhs.0,
                        rhs: rhs.0,
                        edge,
                    });
                } else {
                    code.push(Bc::Br { edge });
                }
            }
            Term::CondBr {
                cond,
                then_blk,
                else_blk,
            } => {
                let then_edge = add_edge(&mut edges, b, *then_blk);
                let else_edge = add_edge(&mut edges, b, *else_blk);
                if fuse_tail {
                    let d = body.last().expect("fuse_tail implies a body tail");
                    let Inst::Icmp { pred, lhs, rhs } = &d.inst else {
                        unreachable!("fuse_tail implies a tail icmp");
                    };
                    code.push(Bc::IcmpBr {
                        pred: *pred,
                        dst: d.result.0,
                        lhs: lhs.0,
                        rhs: rhs.0,
                        then_edge,
                        else_edge,
                    });
                } else {
                    code.push(Bc::CondBr {
                        cond: cond.0,
                        then_edge,
                        else_edge,
                    });
                }
            }
            Term::Ret(Some(v)) => code.push(Bc::Ret { val: v.0 }),
            Term::Ret(None) => code.push(Bc::RetVoid),
        }
    }

    for e in &mut edges {
        e.target = block_starts[e.block.index()];
    }
    BcFunc {
        code,
        edges,
        entry_cost: costs.first().copied().unwrap_or(1),
    }
}

/// Lowers one unfused non-phi instruction.
fn lower(d: &InstData) -> Bc {
    let dst = d.result.0;
    match &d.inst {
        Inst::Bin { op, lhs, rhs } => Bc::Bin {
            op: *op,
            dst,
            lhs: lhs.0,
            rhs: rhs.0,
        },
        Inst::Icmp { pred, lhs, rhs } => Bc::Icmp {
            pred: *pred,
            dst,
            lhs: lhs.0,
            rhs: rhs.0,
        },
        Inst::Fcmp { pred, lhs, rhs } => Bc::Fcmp {
            pred: *pred,
            dst,
            lhs: lhs.0,
            rhs: rhs.0,
        },
        Inst::Select {
            cond,
            then_val,
            else_val,
        } => Bc::Select {
            dst,
            cond: cond.0,
            then_val: then_val.0,
            else_val: else_val.0,
        },
        Inst::Cast { kind, val } => Bc::Cast {
            kind: *kind,
            dst,
            val: val.0,
        },
        Inst::Load { ty, addr } => Bc::Load {
            ty: *ty,
            dst,
            addr: addr.0,
        },
        Inst::Store { val, addr } => Bc::Store {
            dst,
            val: val.0,
            addr: addr.0,
        },
        Inst::Gep {
            base,
            index,
            scale,
            offset,
        } => Bc::Gep {
            dst,
            base: base.0,
            index: index.0,
            scale: *scale,
            offset: *offset,
        },
        Inst::Alloca { words } => Bc::Alloca { dst, words: *words },
        Inst::Call { callee, args } => {
            let args: Box<[u32]> = args.iter().map(|a| a.0).collect();
            match callee {
                Callee::Func(f) => Bc::CallFunc {
                    dst,
                    func: f.0,
                    args,
                },
                Callee::Builtin(b) => Bc::CallBuiltin {
                    dst,
                    builtin: *b,
                    args,
                },
            }
        }
        Inst::Phi { .. } => unreachable!("phis are lowered into edge move tables"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lp_ir::builder::FunctionBuilder;
    use lp_ir::{Global, IcmpPred, Type};

    /// `for (i = 0; i < n; i++) acc += a[i]` — the canonical hot loop:
    /// tail icmp feeding the cond_br, and a gep feeding the next load.
    fn sum_module(n: i64) -> Module {
        let mut m = Module::new("sum");
        let a = m.add_global(Global::from_i64("a", &(1..=n).collect::<Vec<_>>()));
        let mut fb = FunctionBuilder::new("main", &[], Type::I64);
        let zero = fb.const_i64(0);
        let one = fb.const_i64(1);
        let bound = fb.const_i64(n);
        let base = fb.global_addr(a);
        let header = fb.create_block("header");
        let body = fb.create_block("body");
        let exit = fb.create_block("exit");
        fb.br(header);
        fb.switch_to(header);
        let i = fb.phi(Type::I64);
        let acc = fb.phi(Type::I64);
        let done = fb.icmp(IcmpPred::Sge, i, bound);
        fb.cond_br(done, exit, body);
        fb.switch_to(body);
        let addr = fb.gep(base, i, 8, 0);
        let v = fb.load(Type::I64, addr);
        let acc2 = fb.add(acc, v);
        let i2 = fb.add(i, one);
        fb.add_phi_incoming(i, BlockId::ENTRY, zero);
        fb.add_phi_incoming(i, body, i2);
        fb.add_phi_incoming(acc, BlockId::ENTRY, zero);
        fb.add_phi_incoming(acc, body, acc2);
        fb.br(header);
        fb.switch_to(exit);
        fb.ret(Some(acc));
        m.add_function(fb.finish().unwrap());
        m
    }

    #[test]
    fn fuses_tail_icmp_and_gep_load() {
        let m = sum_module(4);
        let code = &compile_module(&m).funcs[0].code;
        assert!(
            code.iter().any(|b| matches!(b, Bc::IcmpBr { .. })),
            "tail icmp + cond_br must fuse: {code:?}"
        );
        assert!(
            code.iter().any(|b| matches!(b, Bc::GepLoad { .. })),
            "gep + load must fuse: {code:?}"
        );
        // The fused constituents are gone from the unfused stream.
        assert!(!code.iter().any(|b| matches!(b, Bc::Icmp { .. })));
        assert!(!code.iter().any(|b| matches!(b, Bc::Gep { .. })));
        assert!(!code.iter().any(|b| matches!(b, Bc::Load { .. })));
        assert!(!code.iter().any(|b| matches!(b, Bc::CondBr { .. })));
    }

    #[test]
    fn fuses_memory_and_bin_pairs() {
        // Block 1: load+add -> LoadBin, store+add -> StoreBin, and the
        // block-terminal add before the br -> BinBr.
        // Block 2: gep+store -> GepStore, adjacent adds -> BinBin.
        let mut m = Module::new("pairs");
        let g = m.add_global(Global::from_i64("g", &[7, 0]));
        let mut fb = FunctionBuilder::new("main", &[], Type::I64);
        let one = fb.const_i64(1);
        let base = fb.global_addr(g);
        let second = fb.create_block("second");
        let x = fb.load(Type::I64, base);
        let y = fb.add(x, one);
        fb.store(y, base);
        let z = fb.add(y, one);
        let w = fb.add(z, one);
        fb.br(second);
        fb.switch_to(second);
        let addr = fb.gep(base, one, 8, 0);
        fb.store(w, addr);
        let p = fb.add(w, one);
        let q = fb.add(p, one);
        fb.ret(Some(q));
        m.add_function(fb.finish().unwrap());
        let code = &compile_module(&m).funcs[0].code;
        for (want, name) in [
            (
                code.iter().any(|b| matches!(b, Bc::LoadBin { .. })),
                "LoadBin",
            ),
            (
                code.iter().any(|b| matches!(b, Bc::StoreBin { .. })),
                "StoreBin",
            ),
            (code.iter().any(|b| matches!(b, Bc::BinBr { .. })), "BinBr"),
            (
                code.iter().any(|b| matches!(b, Bc::GepStore { .. })),
                "GepStore",
            ),
            (
                code.iter().any(|b| matches!(b, Bc::BinBin { .. })),
                "BinBin",
            ),
        ] {
            assert!(want, "{name} must fuse: {code:?}");
        }
        // Everything fused: no lone memory op, bin, gep, or plain br
        // survives in the stream.
        assert!(!code.iter().any(|b| matches!(
            b,
            Bc::Load { .. } | Bc::Store { .. } | Bc::Gep { .. } | Bc::Bin { .. } | Bc::Br { .. }
        )));
    }

    #[test]
    fn edges_are_patched_and_carry_phi_moves() {
        let m = sum_module(4);
        let bf = &compile_module(&m).funcs[0];
        for e in &bf.edges {
            assert!(
                (e.target as usize) < bf.code.len(),
                "edge target {e:?} out of range"
            );
            assert!(e.cost >= 1, "block cost includes the terminator");
        }
        // The two edges into the header (entry fallthrough + latch) each
        // carry the header's two phi moves; edges into body/exit carry none.
        let func = &m.functions[0];
        let header_start: Vec<&Edge> = bf.edges.iter().filter(|e| e.moves.len() == 2).collect();
        assert_eq!(header_start.len(), 2, "edges: {:?}", bf.edges);
        let (h0, h1) = (header_start[0], header_start[1]);
        assert_eq!(h0.target, h1.target);
        assert_eq!(h0.block, h1.block);
        // Move tables differ per predecessor: from entry both phis read
        // the same zero constant; from the latch they read distinct regs.
        let from_entry = if h0.moves[0].1 == h0.moves[1].1 {
            h0
        } else {
            h1
        };
        let from_latch = if std::ptr::eq(from_entry, h0) { h1 } else { h0 };
        assert_eq!(from_entry.moves[0].1, from_entry.moves[1].1);
        assert_ne!(from_latch.moves[0].1, from_latch.moves[1].1);
        // Destination registers are the phi results, in phi order.
        let phis: Vec<u32> = func
            .block(from_entry.block)
            .insts
            .iter()
            .map(|&iid| func.inst(iid))
            .filter(|d| d.inst.is_phi())
            .map(|d| d.result.0)
            .collect();
        assert_eq!(
            from_entry.moves.iter().map(|(d, _)| *d).collect::<Vec<_>>(),
            phis
        );
        assert!(bf.edges.iter().any(|e| e.moves.is_empty()));
    }

    #[test]
    fn straight_line_function_has_no_edges() {
        let mut m = Module::new("s");
        let mut fb = FunctionBuilder::new("main", &[], Type::I64);
        let x = fb.const_i64(7);
        fb.ret(Some(x));
        m.add_function(fb.finish().unwrap());
        let bf = &compile_module(&m).funcs[0];
        assert!(bf.edges.is_empty());
        assert_eq!(bf.code.len(), 1);
        assert!(matches!(bf.code[0], Bc::Ret { .. }));
        assert_eq!(bf.entry_cost, 1);
    }
}
