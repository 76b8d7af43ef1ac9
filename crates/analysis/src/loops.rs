//! Natural-loop detection and the loop nesting forest.
//!
//! A natural loop exists for every back edge `latch -> header` where
//! `header` dominates `latch`; loops sharing a header are merged (as LLVM
//! does). The forest records nesting, and per-loop canonicalization facts
//! mirroring what LLVM's `loopsimplify` guarantees: a unique preheader, a
//! single latch, and dedicated exit blocks. The paper (§III-A) runs
//! `loopsimplify` precisely so loops "within arbitrarily complex loop
//! nests" are uniquely identifiable — our suite builds canonical loops by
//! construction, and [`Loop::is_canonical`] lets the profiler check.

use crate::cfg::Cfg;
use crate::dom::DomTree;
use lp_ir::BlockId;
use std::collections::BTreeSet;

/// Dense index of a loop within a function's [`LoopForest`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LoopId(pub u32);

impl LoopId {
    /// Returns the arena index as `usize`.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for LoopId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "L{}", self.0)
    }
}

/// One natural loop.
#[derive(Debug, Clone)]
pub struct Loop {
    /// The loop header (target of the back edges).
    pub header: BlockId,
    /// Latch blocks (sources of back edges).
    pub latches: Vec<BlockId>,
    /// All blocks in the loop body, header included (sorted).
    pub blocks: Vec<BlockId>,
    /// Parent loop in the nesting forest.
    pub parent: Option<LoopId>,
    /// Directly nested loops.
    pub children: Vec<LoopId>,
    /// Nesting depth (outermost = 1).
    pub depth: u32,
    /// The unique preheader, if the loop has exactly one entering edge
    /// from outside.
    pub preheader: Option<BlockId>,
    /// Blocks outside the loop targeted by exit edges (sorted, deduped).
    pub exit_blocks: Vec<BlockId>,
}

impl Loop {
    /// Returns `true` if `b` is inside the loop.
    #[must_use]
    pub fn contains(&self, b: BlockId) -> bool {
        self.blocks.binary_search(&b).is_ok()
    }

    /// `loopsimplify`-style canonical form: unique preheader and a single
    /// latch.
    #[must_use]
    pub fn is_canonical(&self) -> bool {
        self.preheader.is_some() && self.latches.len() == 1
    }
}

/// The loop nesting forest of a function.
#[derive(Debug, Clone, Default)]
pub struct LoopForest {
    loops: Vec<Loop>,
}

impl LoopForest {
    /// Detects all natural loops of the function `cfg` describes.
    #[must_use]
    pub fn new(cfg: &Cfg, dom: &DomTree) -> LoopForest {
        // 1. Find back edges grouped by header.
        let mut by_header: Vec<(BlockId, Vec<BlockId>)> = Vec::new();
        for &b in cfg.rpo() {
            for &s in cfg.succs(b) {
                if dom.dominates(s, b) {
                    match by_header.iter_mut().find(|(h, _)| *h == s) {
                        Some((_, latches)) => latches.push(b),
                        None => by_header.push((s, vec![b])),
                    }
                }
            }
        }
        // 2. Natural loop body: backward reachability from latches without
        //    crossing the header.
        let mut loops: Vec<Loop> = Vec::new();
        for (header, latches) in by_header {
            let mut set: BTreeSet<BlockId> = BTreeSet::new();
            set.insert(header);
            let mut stack: Vec<BlockId> = Vec::new();
            for &l in &latches {
                if set.insert(l) {
                    stack.push(l);
                }
            }
            while let Some(b) = stack.pop() {
                for &p in cfg.preds(b) {
                    if cfg.is_reachable(p) && set.insert(p) {
                        stack.push(p);
                    }
                }
            }
            let blocks: Vec<BlockId> = set.into_iter().collect();
            loops.push(Loop {
                header,
                latches,
                blocks,
                parent: None,
                children: Vec::new(),
                depth: 1,
                preheader: None,
                exit_blocks: Vec::new(),
            });
        }
        // 3. Nesting: sort by body size ascending; the parent of a loop is
        //    the smallest strictly larger loop containing its header.
        let mut order: Vec<usize> = (0..loops.len()).collect();
        order.sort_by_key(|&i| loops[i].blocks.len());
        let rank: Vec<usize> = {
            let mut r = vec![0; loops.len()];
            for (pos, &i) in order.iter().enumerate() {
                r[i] = pos;
            }
            r
        };
        for &i in &order {
            let header = loops[i].header;
            let mut best: Option<usize> = None;
            for &j in &order {
                if j == i || loops[j].blocks.len() < loops[i].blocks.len() {
                    continue;
                }
                if j != i && loops[j].contains(header) && rank[j] > rank[i] {
                    best = match best {
                        None => Some(j),
                        Some(b) if loops[j].blocks.len() < loops[b].blocks.len() => Some(j),
                        other => other,
                    };
                }
            }
            if let Some(p) = best {
                loops[i].parent = Some(LoopId(p as u32));
            }
        }
        for i in 0..loops.len() {
            if let Some(p) = loops[i].parent {
                loops[p.index()].children.push(LoopId(i as u32));
            }
        }
        // Depths via parent chains.
        for i in 0..loops.len() {
            let mut d = 1;
            let mut cur = loops[i].parent;
            while let Some(p) = cur {
                d += 1;
                cur = loops[p.index()].parent;
            }
            loops[i].depth = d;
        }
        // 4. Preheaders and exits.
        for lp in &mut loops {
            let mut outside_preds: Vec<BlockId> = cfg
                .preds(lp.header)
                .iter()
                .copied()
                .filter(|p| cfg.is_reachable(*p) && lp.blocks.binary_search(p).is_err())
                .collect();
            outside_preds.sort_unstable();
            outside_preds.dedup();
            if outside_preds.len() == 1 {
                // A true preheader must branch only to the header.
                let cand = outside_preds[0];
                if cfg.succs(cand).len() == 1 {
                    lp.preheader = Some(cand);
                }
            }
            let mut exits = BTreeSet::new();
            for &b in &lp.blocks {
                for &s in cfg.succs(b) {
                    if lp.blocks.binary_search(&s).is_err() {
                        exits.insert(s);
                    }
                }
            }
            lp.exit_blocks = exits.into_iter().collect();
        }
        LoopForest { loops }
    }

    /// All loops (arena order; not nesting order).
    #[must_use]
    pub fn loops(&self) -> &[Loop] {
        &self.loops
    }

    /// Number of loops.
    #[must_use]
    pub fn len(&self) -> usize {
        self.loops.len()
    }

    /// Returns `true` if the function has no loops.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.loops.is_empty()
    }

    /// Loop lookup.
    ///
    /// # Panics
    /// Panics if out of bounds.
    #[must_use]
    pub fn loop_(&self, id: LoopId) -> &Loop {
        &self.loops[id.index()]
    }

    /// The loop whose header is `b`, if any.
    #[must_use]
    pub fn loop_with_header(&self, b: BlockId) -> Option<LoopId> {
        self.loops
            .iter()
            .position(|l| l.header == b)
            .map(|i| LoopId(i as u32))
    }

    /// Iterator over `(LoopId, &Loop)`.
    pub fn iter(&self) -> impl Iterator<Item = (LoopId, &Loop)> {
        self.loops
            .iter()
            .enumerate()
            .map(|(i, l)| (LoopId(i as u32), l))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lp_ir::builder::FunctionBuilder;
    use lp_ir::{Function, IcmpPred, Type};

    /// Builds a canonical 2-deep nest:
    /// entry -> oh; oh -> ob|exit; ob -> ih; ih -> ib|olatch; ib -> ih;
    /// olatch -> oh.
    fn nested() -> Function {
        let mut fb = FunctionBuilder::new("nest", &[Type::I64], Type::I64);
        let n = fb.param(0);
        let zero = fb.const_i64(0);
        let one = fb.const_i64(1);
        let oh = fb.create_block("outer_header");
        let ob = fb.create_block("outer_body");
        let ih = fb.create_block("inner_header");
        let ib = fb.create_block("inner_body");
        let ol = fb.create_block("outer_latch");
        let exit = fb.create_block("exit");
        fb.br(oh);
        fb.switch_to(oh);
        let i = fb.phi(Type::I64);
        let ci = fb.icmp(IcmpPred::Slt, i, n);
        fb.cond_br(ci, ob, exit);
        fb.switch_to(ob);
        fb.br(ih);
        fb.switch_to(ih);
        let j = fb.phi(Type::I64);
        let cj = fb.icmp(IcmpPred::Slt, j, n);
        fb.cond_br(cj, ib, ol);
        fb.switch_to(ib);
        let j2 = fb.add(j, one);
        fb.add_phi_incoming(j, ob, zero);
        fb.add_phi_incoming(j, ib, j2);
        fb.br(ih);
        fb.switch_to(ol);
        let i2 = fb.add(i, one);
        fb.add_phi_incoming(i, lp_ir::BlockId::ENTRY, zero);
        fb.add_phi_incoming(i, ol, i2);
        fb.br(oh);
        fb.switch_to(exit);
        fb.ret(Some(i));
        fb.finish().unwrap()
    }

    fn forest(f: &Function) -> LoopForest {
        let cfg = Cfg::new(f);
        let dom = DomTree::new(f, &cfg);
        LoopForest::new(&cfg, &dom)
    }

    #[test]
    fn detects_nested_loops_with_depths() {
        let f = nested();
        let forest = forest(&f);
        assert_eq!(forest.len(), 2);
        let outer = forest.loop_with_header(BlockId(1)).unwrap();
        let inner = forest.loop_with_header(BlockId(3)).unwrap();
        assert_eq!(forest.loop_(outer).depth, 1);
        assert_eq!(forest.loop_(inner).depth, 2);
        assert_eq!(forest.loop_(inner).parent, Some(outer));
        assert_eq!(forest.loop_(outer).children, vec![inner]);
        assert!(forest.loop_(outer).contains(BlockId(3)));
        assert!(!forest.loop_(inner).contains(BlockId(1)));
    }

    #[test]
    fn canonical_form_detected() {
        let f = nested();
        let forest = forest(&f);
        for (_, l) in forest.iter() {
            assert!(l.is_canonical(), "loop at {:?} not canonical", l.header);
            assert_eq!(l.latches.len(), 1);
        }
        let outer = forest.loop_with_header(BlockId(1)).unwrap();
        assert_eq!(forest.loop_(outer).preheader, Some(BlockId::ENTRY));
        assert_eq!(forest.loop_(outer).exit_blocks, vec![BlockId(6)]);
    }

    #[test]
    fn straight_line_code_has_no_loops() {
        let mut fb = FunctionBuilder::new("s", &[], Type::Void);
        fb.ret(None);
        let f = fb.finish().unwrap();
        assert!(forest(&f).is_empty());
    }

    #[test]
    fn self_loop_detected() {
        let mut fb = FunctionBuilder::new("s", &[Type::I64], Type::I64);
        let n = fb.param(0);
        let zero = fb.const_i64(0);
        let one = fb.const_i64(1);
        let l = fb.create_block("l");
        let exit = fb.create_block("exit");
        fb.br(l);
        fb.switch_to(l);
        let i = fb.phi(Type::I64);
        let i2 = fb.add(i, one);
        fb.add_phi_incoming(i, BlockId::ENTRY, zero);
        fb.add_phi_incoming(i, l, i2);
        let c = fb.icmp(IcmpPred::Slt, i2, n);
        fb.cond_br(c, l, exit);
        fb.switch_to(exit);
        fb.ret(Some(i2));
        let f = fb.finish().unwrap();
        let forest = forest(&f);
        assert_eq!(forest.len(), 1);
        let lp = &forest.loops()[0];
        assert_eq!(lp.header, l);
        assert_eq!(lp.latches, vec![l]);
        assert_eq!(lp.blocks, vec![l]);
        assert!(lp.is_canonical());
    }
}
