//! Natural-loop discovery and per-block nesting depth.
//!
//! Loops are recovered from dominator back edges (`u → v` with `v`
//! dominating `u`): the natural loop of a back edge is `v` plus every
//! block that reaches `u` backwards without passing through `v`.
//! Loops sharing a header are merged. A block's nesting depth is the
//! number of distinct loop headers whose loop contains it — the static
//! hotness signal the `smc-overlaps-hot-loop` lint keys on. Irreducible
//! regions (multi-entry cycles) produce no back edge and simply keep
//! depth 0; they are tolerated, not misclassified.

use std::collections::BTreeMap;

use crate::bits::Bits;
use crate::cfg::{BlockId, Cfg};
use crate::dom::Dominators;

/// One natural loop.
#[derive(Clone, Debug)]
pub struct NaturalLoop {
    /// The loop header (dominates every block in the body).
    pub header: BlockId,
    /// Body membership bitset, including the header.
    pub body: Bits,
}

/// All natural loops of a CFG plus per-block nesting depth.
#[derive(Clone, Debug)]
pub struct LoopNest {
    loops: Vec<NaturalLoop>,
    depth: Vec<u32>,
}

impl LoopNest {
    /// Finds the natural loops of `cfg` using `doms`.
    pub fn compute(cfg: &Cfg, doms: &Dominators) -> LoopNest {
        // Merge back edges per header, then flood each loop body.
        let mut latches: BTreeMap<BlockId, Vec<BlockId>> = BTreeMap::new();
        for (u, v) in doms.back_edges(cfg) {
            latches.entry(v).or_default().push(u);
        }

        let mut loops = Vec::new();
        let mut depth = vec![0u32; cfg.len()];
        for (header, latches) in latches {
            let mut body = Bits::empty(cfg.len());
            body.insert(header);
            let mut stack = Vec::new();
            for latch in latches {
                if !body.contains(latch) {
                    body.insert(latch);
                    stack.push(latch);
                }
            }
            while let Some(id) = stack.pop() {
                for &pred in &cfg.blocks()[id].preds {
                    if !body.contains(pred) {
                        body.insert(pred);
                        stack.push(pred);
                    }
                }
            }
            for id in body.iter() {
                depth[id] += 1;
            }
            loops.push(NaturalLoop { header, body });
        }

        LoopNest { loops, depth }
    }

    /// The discovered loops, in header order.
    pub fn loops(&self) -> &[NaturalLoop] {
        &self.loops
    }

    /// Loop nesting depth of `block` (0 = not in any natural loop).
    pub fn depth(&self, block: BlockId) -> u32 {
        self.depth[block]
    }

    /// The deepest nesting level in the program.
    pub fn max_depth(&self) -> u32 {
        self.depth.iter().copied().max().unwrap_or(0)
    }

    /// True if `block` is a loop header.
    pub fn is_header(&self, block: BlockId) -> bool {
        self.loops.iter().any(|l| l.header == block)
    }
}
