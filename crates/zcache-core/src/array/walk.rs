//! The replacement-candidate walk (§III-A of the paper).
//!
//! On a zcache miss, the controller walks the tag array breadth-first:
//! level-0 candidates are the `W` locations the incoming block hashes to;
//! expanding a candidate holding block `B` in way `w` yields `W−1` further
//! candidates at rows `h_{w'}(B)` for every other way `w'`. The walk tree
//! for a victim at level `d` implies `d` relocations along its path.

use super::tags::INVALID_TAG;
use crate::types::{LineAddr, SlotId};

/// Walk expansion order.
///
/// The paper's hardware design is BFS (§III-D): the walk table is a few
/// hundred bits, accesses pipeline level by level, and relocations stay
/// shallow. DFS is the cuckoo-hashing order, kept here for the ablation
/// bench: it needs no walk table but makes every additional candidate cost
/// a relocation level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WalkKind {
    /// Breadth-first search (the paper's design).
    #[default]
    Bfs,
    /// Depth-first search (cuckoo-hashing order), for ablation.
    Dfs,
}

impl std::fmt::Display for WalkKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            WalkKind::Bfs => "bfs",
            WalkKind::Dfs => "dfs",
        })
    }
}

/// Per-walk measurements, used by the energy model and the ablations.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalkStats {
    /// Candidates gathered (the paper's `R`, after dedup/early stop).
    pub candidates: u32,
    /// Levels of the tree touched (1 = first-level only).
    pub levels: u32,
    /// Tag reads performed (== candidates: one read discovers one node).
    pub tag_reads: u32,
    /// Children skipped because their slot repeated an ancestor's slot.
    pub path_dups_skipped: u32,
    /// Children skipped by the Bloom repeat filter.
    pub bloom_skipped: u32,
}

/// Number of replacement candidates of a full `levels`-deep walk on a
/// `ways`-way zcache, assuming no repeats: `R = W · Σ_{l=0}^{L−1} (W−1)^l`.
///
/// # Examples
///
/// ```
/// use zcache_core::replacement_candidates;
///
/// assert_eq!(replacement_candidates(4, 2), 16); // the paper's Z4/16
/// assert_eq!(replacement_candidates(4, 3), 52); // the paper's Z4/52
/// assert_eq!(replacement_candidates(3, 3), 21); // the Fig. 1 example
/// ```
pub fn replacement_candidates(ways: u32, levels: u32) -> u64 {
    let w = u64::from(ways);
    if ways == 0 || levels == 0 {
        return 0;
    }
    let mut per_root = 0u64;
    let mut term = 1u64;
    for _ in 0..levels {
        per_root = per_root.saturating_add(term);
        term = term.saturating_mul(w - 1);
    }
    w.saturating_mul(per_root)
}

pub(crate) const NO_PARENT: u32 = u32::MAX;

/// The controller's walk table: the SRAM that remembers candidate
/// positions so relocations can retrace the victim's path (§III-C).
///
/// A structure of arrays, one entry per walk node in discovery order
/// (BFS order for the paper's walk): a node's index is its candidate
/// token. The columns are kept at least `len` entries long and are
/// written by index, so the walk's inner loop appends with plain stores
/// instead of `Vec` pushes; victim selection scores the dense `slot`
/// column directly. The tag column records each frame's resident block
/// ([`INVALID_TAG`] = empty) as the walk read it. A node's way needs no
/// column: slot ids are `way · rows + row` with a power-of-two row
/// count, so the way is the slot id's high bits.
#[derive(Debug, Clone, Default)]
pub(crate) struct WalkTable {
    /// Frame of each node.
    pub slot: Vec<SlotId>,
    /// Block resident in each node's frame when the walk read it.
    pub tag: Vec<u64>,
    /// Index of each node's parent ([`NO_PARENT`] for level-0 roots).
    pub parent: Vec<u32>,
    /// Nodes written by the most recent walk.
    pub len: usize,
    /// Index of the first empty-frame node (`u32::MAX` = none).
    pub first_empty: u32,
    /// Address the walk was performed for; guards stale installs.
    pub for_addr: Option<LineAddr>,
    pub stats: WalkStats,
    /// Reusable buffer for [`fill_path`](Self::fill_path), so installs
    /// allocate nothing in steady state.
    pub path: Vec<u32>,
    /// Reusable DFS work stack of `(node, level)` (empty outside a DFS
    /// walk).
    pub stack: Vec<(u32, u32)>,
    /// Reusable score vector for victim selection, parallel to `slot`.
    pub scores: Vec<u64>,
}

impl WalkTable {
    pub fn clear(&mut self, addr: LineAddr) {
        self.len = 0;
        self.first_empty = u32::MAX;
        self.for_addr = Some(addr);
        self.stats = WalkStats::default();
    }

    /// Grows every column to hold at least `nodes` entries (and the
    /// path, stack and score buffers to match). Walks call it before
    /// each BFS level (each DFS expansion) that could outgrow the
    /// columns, which only happens below the steady-state size.
    #[cold]
    pub fn grow(&mut self, nodes: usize) {
        let n = nodes.max(2 * self.slot.len());
        self.slot.resize(n, SlotId(0));
        self.tag.resize(n, INVALID_TAG);
        self.parent.resize(n, NO_PARENT);
        self.path.reserve(n);
        self.stack.reserve(n);
        self.scores.reserve(n);
    }

    /// Writes node `i`; the columns must already hold index `i`.
    #[inline(always)]
    pub fn set(&mut self, i: usize, slot: SlotId, tag: u64, parent: u32) {
        self.slot[i] = slot;
        self.tag[i] = tag;
        self.parent[i] = parent;
    }

    /// Tree level of `node` (0 for a root).
    pub fn level(&self, mut node: u32) -> u32 {
        let mut level = 0;
        while self.parent[node as usize] != NO_PARENT {
            node = self.parent[node as usize];
            level += 1;
        }
        level
    }

    /// Fills [`path`](Self::path) with the node indices from `node` to
    /// its root (inclusive, in that order), reusing the buffer.
    pub fn fill_path(&mut self, mut node: u32) {
        self.path.clear();
        loop {
            self.path.push(node);
            let p = self.parent[node as usize];
            if p == NO_PARENT {
                break;
            }
            node = p;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn candidate_counts_match_paper() {
        // Table II design points and the Fig. 1 example.
        assert_eq!(replacement_candidates(4, 1), 4); // skew-associative
        assert_eq!(replacement_candidates(4, 2), 16);
        assert_eq!(replacement_candidates(4, 3), 52);
        assert_eq!(replacement_candidates(2, 2), 4);
        assert_eq!(replacement_candidates(2, 4), 8);
        assert_eq!(replacement_candidates(3, 3), 21);
    }

    #[test]
    fn degenerate_counts() {
        assert_eq!(replacement_candidates(0, 3), 0);
        assert_eq!(replacement_candidates(4, 0), 0);
        assert_eq!(replacement_candidates(1, 5), 1); // direct-mapped can't expand
    }

    #[test]
    fn walk_kind_display() {
        assert_eq!(WalkKind::Bfs.to_string(), "bfs");
        assert_eq!(WalkKind::Dfs.to_string(), "dfs");
        assert_eq!(WalkKind::default(), WalkKind::Bfs);
    }

    #[test]
    fn path_follows_parents() {
        let mut t = WalkTable::default();
        t.clear(99);
        t.grow(3);
        t.set(0, SlotId(0), 1, NO_PARENT);
        t.set(1, SlotId(5), 2, 0);
        t.set(2, SlotId(9), 3, 1);
        t.len = 3;
        t.fill_path(2);
        assert_eq!(t.path, vec![2, 1, 0]);
        assert_eq!(t.level(2), 2);
        assert_eq!(t.level(0), 0);
    }
}
