//! Control-flow graph helpers: successor/predecessor maps and a
//! reverse-postorder block numbering.

use lp_ir::{BlockId, Function};

/// Precomputed CFG adjacency and orderings for one function.
#[derive(Debug, Clone)]
pub struct Cfg {
    succs: Vec<Vec<BlockId>>,
    preds: Vec<Vec<BlockId>>,
    /// Blocks in reverse postorder (entry first).
    rpo: Vec<BlockId>,
    /// Position of each block in `rpo`, or `usize::MAX` if unreachable.
    rpo_index: Vec<usize>,
}

impl Cfg {
    /// Builds the CFG for `func`.
    #[must_use]
    pub fn new(func: &Function) -> Cfg {
        let n = func.blocks.len();
        let mut succs = Vec::with_capacity(n);
        for bid in func.block_ids() {
            succs.push(func.block(bid).term.successors());
        }
        let mut preds = vec![Vec::new(); n];
        for (b, ss) in succs.iter().enumerate() {
            for s in ss {
                preds[s.index()].push(BlockId(b as u32));
            }
        }
        // Iterative postorder DFS from entry.
        let mut post = Vec::with_capacity(n);
        let mut visited = vec![false; n];
        let mut stack: Vec<(BlockId, usize)> = vec![(BlockId::ENTRY, 0)];
        visited[BlockId::ENTRY.index()] = true;
        while let Some(&mut (block, ref mut next)) = stack.last_mut() {
            let ss = &succs[block.index()];
            if *next < ss.len() {
                let s = ss[*next];
                *next += 1;
                if !visited[s.index()] {
                    visited[s.index()] = true;
                    stack.push((s, 0));
                }
            } else {
                post.push(block);
                stack.pop();
            }
        }
        let rpo: Vec<BlockId> = post.into_iter().rev().collect();
        let mut rpo_index = vec![usize::MAX; n];
        for (i, b) in rpo.iter().enumerate() {
            rpo_index[b.index()] = i;
        }
        Cfg {
            succs,
            preds,
            rpo,
            rpo_index,
        }
    }

    /// Successors of a block.
    #[must_use]
    pub fn succs(&self, b: BlockId) -> &[BlockId] {
        &self.succs[b.index()]
    }

    /// Predecessors of a block.
    #[must_use]
    pub fn preds(&self, b: BlockId) -> &[BlockId] {
        &self.preds[b.index()]
    }

    /// Blocks in reverse postorder (entry first). Unreachable blocks are
    /// omitted.
    #[must_use]
    pub fn rpo(&self) -> &[BlockId] {
        &self.rpo
    }

    /// Position of `b` in the reverse postorder, if reachable.
    #[must_use]
    pub fn rpo_index(&self, b: BlockId) -> Option<usize> {
        let i = self.rpo_index[b.index()];
        (i != usize::MAX).then_some(i)
    }

    /// Returns `true` if `b` is reachable from the entry block.
    #[must_use]
    pub fn is_reachable(&self, b: BlockId) -> bool {
        self.rpo_index(b).is_some()
    }

    /// Returns `true` if a path of zero or more edges leads from one of
    /// the blocks in `from` to `target`.
    #[must_use]
    pub fn reaches(&self, from: &[BlockId], target: BlockId) -> bool {
        let mut seen = vec![false; self.succs.len()];
        let mut stack = from.to_vec();
        while let Some(b) = stack.pop() {
            if b == target {
                return true;
            }
            if !std::mem::replace(&mut seen[b.index()], true) {
                stack.extend_from_slice(self.succs(b));
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lp_ir::builder::FunctionBuilder;
    use lp_ir::Type;

    fn diamond() -> Function {
        let mut fb = FunctionBuilder::new("d", &[Type::I1], Type::Void);
        let a = fb.create_block("a");
        let b = fb.create_block("b");
        let j = fb.create_block("j");
        let cond = fb.param(0);
        fb.cond_br(cond, a, b);
        fb.switch_to(a);
        fb.br(j);
        fb.switch_to(b);
        fb.br(j);
        fb.switch_to(j);
        fb.ret(None);
        fb.finish().unwrap()
    }

    #[test]
    fn rpo_starts_at_entry_and_covers_reachable() {
        let f = diamond();
        let cfg = Cfg::new(&f);
        assert_eq!(cfg.rpo()[0], BlockId::ENTRY);
        assert_eq!(cfg.rpo().len(), 4);
        // join must come after both arms.
        let j = cfg.rpo_index(BlockId(3)).unwrap();
        assert!(j > cfg.rpo_index(BlockId(1)).unwrap());
        assert!(j > cfg.rpo_index(BlockId(2)).unwrap());
    }

    #[test]
    fn preds_and_succs_agree() {
        let f = diamond();
        let cfg = Cfg::new(&f);
        assert_eq!(cfg.succs(BlockId::ENTRY), &[BlockId(1), BlockId(2)]);
        assert_eq!(cfg.preds(BlockId(3)), &[BlockId(1), BlockId(2)]);
        assert!(cfg.preds(BlockId::ENTRY).is_empty());
    }

    #[test]
    fn reaches_follows_edges_forward_only() {
        let f = diamond();
        let cfg = Cfg::new(&f);
        let (a, b, j) = (BlockId(1), BlockId(2), BlockId(3));
        assert!(cfg.reaches(&[BlockId::ENTRY], j));
        assert!(cfg.reaches(&[a], a), "a block reaches itself");
        assert!(!cfg.reaches(&[a], b));
        assert!(!cfg.reaches(&[j], BlockId::ENTRY));
        assert!(!cfg.reaches(&[], j));
    }

    #[test]
    fn unreachable_blocks_are_flagged() {
        let mut fb = FunctionBuilder::new("u", &[], Type::Void);
        let dead = fb.create_block("dead");
        fb.ret(None);
        fb.switch_to(dead);
        fb.ret(None);
        let f = fb.finish().unwrap();
        let cfg = Cfg::new(&f);
        assert!(cfg.is_reachable(BlockId::ENTRY));
        assert!(!cfg.is_reachable(dead));
        assert_eq!(cfg.rpo().len(), 1);
    }
}
