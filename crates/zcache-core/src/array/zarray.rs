//! The zcache tag array (§III of the paper).
//!
//! # Layout
//!
//! **Frames.** `frames[way · rows + row]` holds one 16-byte [`Frame`]
//! per tag-array frame: the resident block's tag (with [`INVALID_TAG`]
//! for an empty frame) next to the block's cached per-way row vector.
//! Expanding a walk node therefore reads one cache line, the one its
//! tag read already touched.
//!
//! **Walk table.** A miss's replacement walk (§III-A) writes a structure
//! of arrays, one entry per candidate in discovery order:
//!
//! | column   | type     | holds                                        |
//! |----------|----------|----------------------------------------------|
//! | `slot`   | `SlotId` | the candidate's frame                        |
//! | `tag`    | `u64`    | the block the walk read there                |
//! | `parent` | `u32`    | the node it was reached from (roots: none)   |
//!
//! A node's index is its candidate token; its way is the slot id's high
//! bits (rows per way are a power of two). Breadth-first order keeps
//! each level contiguous, so the walk expands the frontier `lo..hi`
//! level by level with one kernel ([`Expander`]) that holds the frame
//! array and the columns as local slices. A child lives in another way
//! than its parent, so the path-repeat check only compares the child
//! against the ancestors above the parent.
//!
//! **Selection.** On the access path
//! ([`candidates_select`](CacheArray::candidates_select)) the policy
//! scores the dense `slot` column with one
//! [`score_slots`](ReplacementPolicy::score_slots) call and the victim
//! is the first highest score, or the first empty frame, which wins
//! before any scoring. No [`Candidate`] record is built there unless
//! the policy's select prepass needs them. Records are built on request
//! from the retained table: by [`candidates`](CacheArray::candidates),
//! by [`rebuild_candidates`](CacheArray::rebuild_candidates) (behind
//! `Cache::last_candidates`), and for a prepass. `install` retraces the
//! victim's path through the `parent` column.

use super::tags::INVALID_TAG;
use super::walk::{WalkKind, WalkStats, WalkTable, NO_PARENT};
use super::{max_first, CacheArray, Candidate, CandidateSet, InstallOutcome};
use crate::repl::ReplacementPolicy;
use crate::types::{LineAddr, Location, SlotId};
use zhash::{AnyHasher, BloomFilter, HashKind, Hasher64};

/// A zcache array: `W` ways indexed by distinct hash functions, with a
/// multi-level replacement walk.
///
/// Hits behave exactly like a skew-associative cache — one location per
/// way, a single parallel tag lookup. On a miss, [`candidates`] performs
/// the breadth-first walk of §III-A, discovering up to
/// `R = W·Σ_{l<L}(W−1)^l` replacement candidates, and [`install`] evicts
/// the chosen victim and relocates the blocks along its walk path so the
/// incoming block can land in a first-level position.
///
/// [`candidates`]: CacheArray::candidates
/// [`install`]: CacheArray::install
///
/// # Examples
///
/// ```
/// use zcache_core::{CacheArray, CandidateSet, ZArray};
///
/// // The paper's Z4/52: 4 ways, 3-level walk.
/// let mut z = ZArray::new(1 << 12, 4, 3, 42);
/// let mut cands = CandidateSet::new();
/// z.candidates(0x1234, &mut cands);
/// // Empty cache: the walk stops at the first level of empty frames.
/// assert_eq!(cands.len(), 4);
/// ```
#[derive(Debug, Clone)]
pub struct ZArray {
    ways: u32,
    rows: u64,
    row_bits: u32,
    levels: u32,
    max_candidates: u32,
    walk_kind: WalkKind,
    hashers: Vec<AnyHasher>,
    /// `frames[way * rows + row]`: one record per frame.
    frames: Vec<Frame>,
    /// Probe memo `(addr, per-way rows)` stashed by
    /// [`lookup_mut`](CacheArray::lookup_mut): on a miss, the walk
    /// reuses the rows the lookup just hashed instead of rehashing.
    /// Rows are a pure function of the address and the fixed hash
    /// family, so the memo can never go stale; it is only ever *read*
    /// when the stashed address matches. 4-way only (`FRAME_WAYS`).
    probe: (LineAddr, [u32; FRAME_WAYS]),
    /// Fused byte-sliced H3 tables: `fused[b][v]` holds the per-way hash
    /// contributions of byte value `v` at byte position `b`, interleaved
    /// so one pass over the address bytes yields all four ways' hashes
    /// from shared cache lines (the per-way tables would cost four
    /// separate scans). Built from the public [`Hasher64::hash`], so the
    /// values are identical to the per-way path by GF(2) linearity.
    /// `None` unless `ways == 4` with H3 hashing.
    fused: Option<Box<[[[u64; FRAME_WAYS]; 256]; 8]>>,
    walk: WalkTable,
    bloom: Option<BloomFilter>,
}

/// Ways whose rows are cached inline in [`Frame`]; wider configurations
/// fall back to hashing during the walk.
const FRAME_WAYS: usize = 4;

/// One tag-array frame: the resident block's sentinel-encoded tag
/// interleaved with its cached per-way row vector (maintained by
/// `install`). §III-A performs W−1 hash evaluations per walk expansion;
/// caching the row vector *next to the tag* turns those into reads of a
/// cache line the walk has already touched — expanding a node costs one
/// random line (the child's tag) instead of two (tag here, row vector in
/// a separate array). `u16` rows keep the record at 16 bytes (four per
/// cache line); arrays with more than `2^16` rows per way skip the cache
/// (see [`ZArray::rows_cacheable`]). Rows of empty frames are stale and
/// never read.
#[derive(Debug, Clone, Copy)]
struct Frame {
    tag: u64,
    rows: [u16; FRAME_WAYS],
}

const EMPTY_FRAME: Frame = Frame {
    tag: INVALID_TAG,
    rows: [0; FRAME_WAYS],
};

/// Public view of one walk-tree node (see [`ZArray::walk_node`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalkNodeInfo {
    /// Physical `(way, row)` of the candidate frame.
    pub location: Location,
    /// Block resident there when the walk visited it.
    pub addr: Option<LineAddr>,
    /// Tree level (0 = first-level candidate).
    pub level: u32,
    /// Parent node token (`None` for level-0 roots).
    pub parent: Option<u32>,
}

/// Interleaves the four ways' byte-sliced evaluation tables. A single
/// byte at position `b` contributes `hash((v as u64) << (8 * b))` to each
/// way's hash, and H3 is linear over GF(2), so XORing these entries per
/// input byte reproduces every way's full hash exactly.
fn build_fused(hashers: &[AnyHasher]) -> Box<[[[u64; FRAME_WAYS]; 256]; 8]> {
    let mut t = vec![[[0u64; FRAME_WAYS]; 256]; 8];
    for (b, table) in t.iter_mut().enumerate() {
        for (v, entry) in table.iter_mut().enumerate() {
            for (w, h) in hashers.iter().enumerate().take(FRAME_WAYS) {
                entry[w] = h.hash((v as u64) << (8 * b));
            }
        }
    }
    let boxed: Box<[[[u64; FRAME_WAYS]; 256]; 8]> =
        t.into_boxed_slice().try_into().expect("exactly 8 tables");
    boxed
}

impl ZArray {
    /// Creates a zcache with `lines` total frames, `ways` ways and a walk
    /// of `levels` full levels, using H3 hashing (the paper's choice).
    ///
    /// # Panics
    ///
    /// Panics if `ways == 0`, `levels == 0`, `lines` is not a multiple of
    /// `ways`, or rows-per-way is not a power of two.
    pub fn new(lines: u64, ways: u32, levels: u32, seed: u64) -> Self {
        Self::with_hash(lines, ways, levels, HashKind::H3, seed)
    }

    /// Creates a zcache with an explicit hash family.
    ///
    /// `HashKind::Mix64` reproduces the paper's "SHA-1 quality" data
    /// point; `HashKind::BitSelect` is degenerate (all ways alias) and
    /// only useful in tests.
    ///
    /// # Panics
    ///
    /// Same conditions as [`ZArray::new`].
    pub fn with_hash(lines: u64, ways: u32, levels: u32, hash: HashKind, seed: u64) -> Self {
        assert!(ways > 0, "need at least one way");
        assert!(levels > 0, "walk needs at least one level");
        assert!(
            lines.is_multiple_of(u64::from(ways)),
            "lines ({lines}) must be a multiple of ways ({ways})"
        );
        // Slot ids are u32 (`slot()` packs way*rows+row into a SlotId);
        // reject sizes that would silently truncate.
        assert!(
            lines <= u64::from(u32::MAX),
            "lines ({lines}) must fit in a u32 slot id"
        );
        let rows = lines / u64::from(ways);
        assert!(
            rows.is_power_of_two(),
            "rows per way ({rows}) must be a power of two"
        );
        let hashers: Vec<AnyHasher> = (0..ways)
            .map(|w| hash.build(seed.wrapping_mul(0x1000).wrapping_add(u64::from(w))))
            .collect();
        let fused = (ways == 4 && hash == HashKind::H3).then(|| build_fused(&hashers));
        // Pre-size the walk table to the full R = W·Σ(W−1)^l bound
        // (capped for degenerate configurations, and never below the W
        // roots every walk writes) so steady-state walks never grow it.
        let reserve = super::walk::replacement_candidates(ways, levels).min(4096) as usize;
        let mut walk = WalkTable::default();
        walk.grow(reserve.max(ways as usize));
        Self {
            ways,
            rows,
            row_bits: rows.trailing_zeros(),
            levels,
            max_candidates: u32::MAX,
            walk_kind: WalkKind::Bfs,
            hashers,
            frames: vec![EMPTY_FRAME; lines as usize],
            probe: (INVALID_TAG, [0; FRAME_WAYS]),
            fused,
            walk,
            bloom: None,
        }
    }

    /// Caps the walk at `max` candidates, modelling the early-stopped
    /// walks the paper suggests when tag bandwidth or energy is scarce.
    pub fn with_max_candidates(mut self, max: u32) -> Self {
        self.set_max_candidates(max);
        self
    }

    /// Adjusts the candidate cap at run time (used by the adaptive
    /// controller of §VIII); clamped to at least the way count.
    pub fn set_max_candidates(&mut self, max: u32) {
        self.max_candidates = max.max(self.ways);
    }

    /// The current candidate cap (`u32::MAX` when unlimited).
    pub fn max_candidates(&self) -> u32 {
        self.max_candidates
    }

    /// Selects the walk expansion order (BFS is the paper's design).
    pub fn with_walk_kind(mut self, kind: WalkKind) -> Self {
        self.walk_kind = kind;
        self
    }

    /// Enables the Bloom-filter repeat avoidance of §III-D, sized for the
    /// walk's candidate count.
    pub fn with_bloom_dedup(mut self, enable: bool) -> Self {
        self.bloom = if enable {
            let cap = super::walk::replacement_candidates(self.ways, self.levels).min(4096);
            Some(BloomFilter::for_capacity(cap.max(16)))
        } else {
            None
        };
        self
    }

    /// Walk depth in levels.
    pub fn levels(&self) -> u32 {
        self.levels
    }

    /// Rows per way.
    pub fn rows_per_way(&self) -> u64 {
        self.rows
    }

    /// The `(way, row)` location of `slot`.
    pub fn location(&self, slot: SlotId) -> Location {
        Location {
            way: (u64::from(slot.0) / self.rows) as u32,
            row: u64::from(slot.0) % self.rows,
        }
    }

    /// The row `addr` hashes to in `way`.
    pub fn row_of(&self, addr: LineAddr, way: u32) -> u64 {
        self.hashers[way as usize].index(addr, self.row_bits)
    }

    /// All four ways' rows in one pass over the address bytes, via the
    /// fused tables; `None` for non-H3 or non-4-way configurations.
    #[inline]
    fn rows4(&self, addr: LineAddr) -> Option<[u64; FRAME_WAYS]> {
        let t = self.fused.as_deref()?;
        let mask = self.rows - 1;
        let mut acc = [0u64; FRAME_WAYS];
        let mut x = addr;
        let mut byte = 0usize;
        while x != 0 {
            let e = &t[byte][(x & 0xff) as usize];
            acc[0] ^= e[0];
            acc[1] ^= e[1];
            acc[2] ^= e[2];
            acc[3] ^= e[3];
            x >>= 8;
            byte += 1;
        }
        for (w, a) in acc.iter_mut().enumerate() {
            *a &= mask;
            debug_assert_eq!(*a, self.row_of(addr, w as u32), "fused H3 mismatch");
        }
        Some(acc)
    }

    /// Describes node `token` of the most recent walk (for diagnostics
    /// and the Fig. 1 walkthrough); `None` if the token is out of range.
    pub fn walk_node(&self, token: u32) -> Option<WalkNodeInfo> {
        let i = token as usize;
        if i >= self.walk.len {
            return None;
        }
        let parent = self.walk.parent[i];
        Some(WalkNodeInfo {
            location: self.location(self.walk.slot[i]),
            addr: tag_opt(self.walk.tag[i]),
            level: self.walk.level(token),
            parent: (parent != NO_PARENT).then_some(parent),
        })
    }

    #[inline]
    fn slot(&self, way: u32, row: u64) -> SlotId {
        SlotId((u64::from(way) * self.rows + row) as u32)
    }

    /// Whether per-way rows fit the 16-bit cache in [`Frame`].
    #[inline]
    fn rows_cacheable(&self) -> bool {
        self.row_bits <= u16::BITS
    }

    /// The expansion kernel over this array and its walk table, whose
    /// columns must already hold every node the next expansions write.
    fn expander(&mut self) -> Expander<'_> {
        let len = self.walk.slot.len();
        let cached = self.rows_cacheable();
        Expander {
            frames: &self.frames,
            hashers: &self.hashers,
            bloom: self.bloom.as_mut(),
            row_bits: self.row_bits,
            ways: self.ways,
            cached,
            slot: &mut self.walk.slot[..len],
            tag: &mut self.walk.tag[..len],
            parent: &mut self.walk.parent[..len],
            stats: &mut self.walk.stats,
        }
    }

    /// The replacement walk: fills the walk table for `addr` (the
    /// candidates of §III-A, in discovery order) and its statistics.
    fn walk(&mut self, addr: LineAddr) {
        self.walk.clear(addr);
        if let Some(b) = self.bloom.as_mut() {
            b.clear();
        }
        let ways = self.ways as usize;

        // Level 0: the W first-level candidates (also what a lookup
        // reads — and, on the access path, the rows the preceding
        // `lookup_mut` already hashed and stashed).
        let probed = (ways == FRAME_WAYS && self.probe.0 == addr).then_some(self.probe.1);
        let mut first_empty = u32::MAX;
        for way in 0..self.ways {
            let row = match probed {
                Some(rows) => u64::from(rows[way as usize]),
                None => self.row_of(addr, way),
            };
            debug_assert_eq!(row, self.row_of(addr, way), "stale probe memo");
            let slot = self.slot(way, row);
            let tag = self.frames[slot.idx()].tag;
            self.walk.set(way as usize, slot, tag, NO_PARENT);
            if tag == INVALID_TAG {
                first_empty = first_empty.min(way);
            } else if let Some(b) = self.bloom.as_mut() {
                b.insert(tag);
            }
        }
        let mut n = ways;
        let mut levels = 1;

        if first_empty == u32::MAX && self.levels > 1 {
            match self.walk_kind {
                WalkKind::Bfs => {
                    // Level by level: the frontier `lo..hi` is contiguous
                    // in the table (discovery order is BFS order).
                    let fast4 = ways == FRAME_WAYS && self.rows_cacheable() && self.bloom.is_none();
                    let cap = self.max_candidates as usize;
                    let (mut lo, mut hi) = (0, n);
                    let mut child_level = 1;
                    'walk: while child_level < self.levels && lo < hi {
                        // Room for every child this level can add.
                        let most = n + (hi - lo) * (ways - 1);
                        let need = cap.min(most);
                        if need > self.walk.slot.len() {
                            self.walk.grow(need);
                        }
                        // The fast path needs no cap checks: every child
                        // of this level fits under the cap.
                        let fast = fast4 && most <= cap;
                        let mut k = self.expander();
                        for i in lo..hi {
                            if n >= cap {
                                break 'walk;
                            }
                            let (next, empty) = if fast {
                                k.expand::<true>(i, n, cap)
                            } else {
                                k.expand::<false>(i, n, cap)
                            };
                            n = next;
                            if empty {
                                first_empty = n as u32 - 1;
                                break 'walk;
                            }
                        }
                        (lo, hi) = (hi, n);
                        child_level += 1;
                    }
                    // Nodes are in nondecreasing level order.
                    levels = self.walk.level(n as u32 - 1) + 1;
                }
                WalkKind::Dfs => {
                    // Cuckoo order: follow one chain as deep as the
                    // candidate budget allows, then backtrack. Budget is
                    // the same R as the BFS configuration so ablations
                    // compare equal associativity.
                    let budget = super::walk::replacement_candidates(self.ways, self.levels)
                        .min(u64::from(self.max_candidates))
                        as usize;
                    self.walk.stack.clear();
                    self.walk.stack.extend((0..n as u32).rev().map(|i| (i, 0)));
                    while let Some((i, level)) = self.walk.stack.pop() {
                        if n >= budget {
                            break;
                        }
                        if n + ways > self.walk.slot.len() {
                            self.walk.grow(n + ways);
                        }
                        let before = n;
                        let (next, empty) = self.expander().expand::<false>(i as usize, n, budget);
                        n = next;
                        if n > before {
                            levels = levels.max(level + 2);
                        }
                        if empty {
                            first_empty = n as u32 - 1;
                            break;
                        }
                        // Push new children so the most recent is expanded
                        // first (depth-first).
                        for child in (before..n).rev() {
                            self.walk.stack.push((child as u32, level + 1));
                        }
                    }
                    self.walk.stack.clear();
                }
            }
        }

        self.walk.len = n;
        self.walk.first_empty = first_empty;
        // One tag read discovers one node.
        self.walk.stats.candidates = n as u32;
        self.walk.stats.tag_reads = n as u32;
        self.walk.stats.levels = levels;
    }

    /// Candidate record of walk node `i` (its token is its index).
    #[inline]
    fn candidate(&self, i: usize) -> Candidate {
        Candidate {
            slot: self.walk.slot[i],
            addr: tag_opt(self.walk.tag[i]),
            token: i as u32,
        }
    }
}

#[inline]
fn tag_opt(tag: u64) -> Option<LineAddr> {
    (tag != INVALID_TAG).then_some(tag)
}

/// Slot id no frame has (`lines` fits in a `u32`, so the largest slot
/// id is `u32::MAX - 1`).
const NO_SLOT: SlotId = SlotId(u32::MAX);

/// The walk's expansion kernel: the frame array and the walk table's
/// columns as plain local slices, all columns of one length. Built per
/// BFS level, so the expansion loop keeps geometry and column bases in
/// registers instead of reloading them through `self` after every
/// store.
struct Expander<'a> {
    frames: &'a [Frame],
    hashers: &'a [AnyHasher],
    bloom: Option<&'a mut BloomFilter>,
    row_bits: u32,
    ways: u32,
    /// Whether frames cache their block's rows (see [`Frame`]).
    cached: bool,
    slot: &'a mut [SlotId],
    tag: &'a mut [u64],
    parent: &'a mut [u32],
    stats: &'a mut WalkStats,
}

impl Expander<'_> {
    /// Expands walk node `i`, writing its children from index `n` on
    /// (at most `cap` nodes in all). Returns the new node count and
    /// whether the last child written is an empty frame — a perfect
    /// victim, so callers stop the walk there.
    ///
    /// `FAST` is the common 4-way shape with cached rows and no Bloom
    /// filter, on a level whose children all fit under the cap: the
    /// child rows come straight from the parent's frame record, the loop
    /// has a fixed trip count and no cap check. Otherwise rows the frame
    /// cannot cache are rehashed, the Bloom filter (if any) drops
    /// repeated blocks, and `cap` is checked before each child. Child
    /// order, dedup decisions and stats do not depend on `FAST`.
    #[inline(always)]
    fn expand<const FAST: bool>(&mut self, i: usize, mut n: usize, cap: usize) -> (usize, bool) {
        let baddr = self.tag[i];
        if baddr == INVALID_TAG {
            return (n, false); // empty frames have no block to rehash
        }
        let pslot = self.slot[i];
        let pway = pslot.0 >> self.row_bits;
        // A slot already on this path would make the relocation chain
        // touch the same frame twice; such children are skipped
        // (repeats across sibling branches remain allowed, as in the
        // paper). The parent sits in another way than all of its
        // children, so only the ancestors above it can repeat a child's
        // frame: the grandparent is checked directly, anything higher
        // (walks deeper than three levels) by a parent chase.
        let grandparent = self.parent[i];
        let (gslot, above) = if grandparent == NO_PARENT {
            (NO_SLOT, NO_PARENT)
        } else {
            let g = grandparent as usize;
            (self.slot[g], self.parent[g])
        };
        // The resident block's row vector was cached next to its tag at
        // install time; the line is warm from the tag read that created
        // this node, so the W−1 rehashes of §III-A cost nothing here.
        let rows = self.frames[pslot.idx()].rows;
        let ways = if FAST { FRAME_WAYS as u32 } else { self.ways };
        // Every way but the parent's own (where the block already is), in
        // ascending order.
        for k in 0..ways - 1 {
            let way = k + u32::from(k >= pway);
            if !FAST && n >= cap {
                break;
            }
            let row = if (FAST || self.cached) && (way as usize) < FRAME_WAYS {
                u32::from(rows[way as usize])
            } else {
                self.hashers[way as usize].index(baddr, self.row_bits) as u32
            };
            debug_assert_eq!(
                u64::from(row),
                self.hashers[way as usize].index(baddr, self.row_bits),
                "stale block row"
            );
            let slot = SlotId(way << self.row_bits | row);
            let dup = slot == gslot || (above != NO_PARENT && self.on_path(above, slot));
            debug_assert_eq!(dup, self.on_path(i as u32, slot), "ancestor dedup");
            if dup {
                self.stats.path_dups_skipped += 1;
                continue;
            }
            let tag = self.frames[slot.idx()].tag;
            if !FAST && tag != INVALID_TAG {
                if let Some(b) = self.bloom.as_deref_mut() {
                    if b.test_and_insert(tag) {
                        self.stats.bloom_skipped += 1;
                        continue;
                    }
                }
            }
            self.slot[n] = slot;
            self.tag[n] = tag;
            self.parent[n] = i as u32;
            n += 1;
            if tag == INVALID_TAG {
                return (n, true);
            }
        }
        (n, false)
    }

    /// True if `slot` is the frame of node `a` or of one of its
    /// ancestors.
    fn on_path(&self, mut a: u32, slot: SlotId) -> bool {
        while a != NO_PARENT {
            if self.slot[a as usize] == slot {
                return true;
            }
            a = self.parent[a as usize];
        }
        false
    }
}

impl CacheArray for ZArray {
    fn lines(&self) -> u64 {
        self.frames.len() as u64
    }

    fn ways(&self) -> u32 {
        self.ways
    }

    fn lookup(&self, addr: LineAddr) -> Option<SlotId> {
        // Sentinel encoding makes each probe a single u64 compare. The
        // common 4-way shape is unrolled so the four tag loads issue
        // together (independent rows → memory-level parallelism) instead
        // of serializing behind the early-return of the generic loop.
        if self.ways == 4 {
            let [r0, r1, r2, r3] = match self.rows4(addr) {
                Some(rows) => rows,
                None => [
                    self.row_of(addr, 0),
                    self.row_of(addr, 1),
                    self.row_of(addr, 2),
                    self.row_of(addr, 3),
                ],
            };
            let s0 = self.slot(0, r0);
            let s1 = self.slot(1, r1);
            let s2 = self.slot(2, r2);
            let s3 = self.slot(3, r3);
            let t0 = self.frames[s0.idx()].tag;
            let t1 = self.frames[s1.idx()].tag;
            let t2 = self.frames[s2.idx()].tag;
            let t3 = self.frames[s3.idx()].tag;
            if t0 == addr {
                return Some(s0);
            }
            if t1 == addr {
                return Some(s1);
            }
            if t2 == addr {
                return Some(s2);
            }
            if t3 == addr {
                return Some(s3);
            }
            return None;
        }
        for way in 0..self.ways {
            let slot = self.slot(way, self.row_of(addr, way));
            if self.frames[slot.idx()].tag == addr {
                return Some(slot);
            }
        }
        None
    }

    fn lookup_mut(&mut self, addr: LineAddr) -> Option<SlotId> {
        if self.ways == 4 && addr != INVALID_TAG {
            let [r0, r1, r2, r3] = match self.rows4(addr) {
                Some(rows) => rows.map(|r| r as u32),
                None => [
                    self.row_of(addr, 0) as u32,
                    self.row_of(addr, 1) as u32,
                    self.row_of(addr, 2) as u32,
                    self.row_of(addr, 3) as u32,
                ],
            };
            // On a miss the caller walks this same address next; hand the
            // freshly hashed rows over so level 0 skips the rehash.
            self.probe = (addr, [r0, r1, r2, r3]);
            let s0 = self.slot(0, u64::from(r0));
            let s1 = self.slot(1, u64::from(r1));
            let s2 = self.slot(2, u64::from(r2));
            let s3 = self.slot(3, u64::from(r3));
            if self.frames[s0.idx()].tag == addr {
                return Some(s0);
            }
            if self.frames[s1.idx()].tag == addr {
                return Some(s1);
            }
            if self.frames[s2.idx()].tag == addr {
                return Some(s2);
            }
            if self.frames[s3.idx()].tag == addr {
                return Some(s3);
            }
            return None;
        }
        self.lookup(addr)
    }

    fn addr_at(&self, slot: SlotId) -> Option<LineAddr> {
        tag_opt(self.frames[slot.idx()].tag)
    }

    fn candidates(&mut self, addr: LineAddr, out: &mut CandidateSet) {
        self.walk(addr);
        self.rebuild_candidates(out);
    }

    /// The walk, then victim selection straight off the walk table: the
    /// policy scores the dense slot column in one call and no candidate
    /// record is built, except for policies whose select prepass
    /// ([`before_select`](ReplacementPolicy::before_select)) must see
    /// them. The victim is the one the two-pass sequence picks.
    fn candidates_select<P: ReplacementPolicy + ?Sized>(
        &mut self,
        addr: LineAddr,
        policy: &mut P,
        out: &mut CandidateSet,
    ) -> (Candidate, WalkStats) {
        self.walk(addr);
        if policy.has_select_prepass() {
            self.rebuild_candidates(out);
            policy.before_select(out.as_slice());
        }
        let victim = if self.walk.first_empty != u32::MAX {
            self.walk.first_empty as usize
        } else {
            let scores = &mut self.walk.scores;
            scores.clear();
            policy.score_slots(&self.walk.slot[..self.walk.len], scores);
            max_first(scores).expect("walks are never empty")
        };
        (self.candidate(victim), self.walk.stats)
    }

    fn rebuild_candidates(&self, out: &mut CandidateSet) {
        let n = self.walk.len;
        out.fill_from_walk(
            &self.walk.slot[..n],
            &self.walk.tag[..n],
            self.walk.first_empty,
        );
        out.levels = self.walk.stats.levels;
        out.tag_reads = self.walk.stats.tag_reads;
    }

    fn install(&mut self, addr: LineAddr, victim: &Candidate, out: &mut InstallOutcome) {
        out.clear();
        assert_eq!(
            self.walk.for_addr,
            Some(addr),
            "install must follow a candidates() walk for the same address"
        );
        let token = victim.token as usize;
        assert!(
            token < self.walk.len,
            "victim token {} not in walk table",
            victim.token
        );
        let victim_slot = self.walk.slot[token];
        assert_eq!(victim_slot, victim.slot, "victim token/slot mismatch");

        // Evict the victim (or fill the empty frame).
        let prev = tag_opt(self.frames[victim_slot.idx()].tag);
        debug_assert_eq!(prev, victim.addr, "stale candidate");
        out.evicted = prev;
        out.evicted_slot = prev.map(|_| victim_slot);

        // Relocate ancestors down the path: the parent's block moves into
        // the child's (now free) frame, level by level, until the root
        // frame is free for the incoming block. The path lives in the
        // walk table's reusable buffer — steady-state installs allocate
        // nothing.
        self.walk.fill_path(victim.token);
        for k in 1..self.walk.path.len() {
            let dst = self.walk.slot[self.walk.path[k - 1] as usize];
            let src = self.walk.slot[self.walk.path[k] as usize];
            let moving = self.frames[src.idx()];
            debug_assert_ne!(moving.tag, INVALID_TAG, "relocating an empty frame");
            {
                let dst_loc = self.location(dst);
                debug_assert_eq!(
                    self.row_of(moving.tag, dst_loc.way),
                    dst_loc.row,
                    "relocated block must hash to its destination row"
                );
            }
            // The whole record — tag and row vector — travels with the
            // block.
            self.frames[dst.idx()] = moving;
            out.moves.push((src, dst));
        }
        let root_slot =
            self.walk.slot[*self.walk.path.last().expect("path is never empty") as usize];
        let mut root = Frame {
            tag: addr,
            rows: [0; FRAME_WAYS],
        };
        if self.rows_cacheable() {
            if self.ways == 4 && self.probe.0 == addr {
                // The lookup that missed (and the walk after it) already
                // hashed this address; its row vector is still in the
                // probe memo — an address's rows never change, so the
                // memo cannot be stale.
                for (way, &row) in self.probe.1.iter().enumerate() {
                    debug_assert_eq!(u64::from(row), self.row_of(addr, way as u32));
                    root.rows[way] = row as u16;
                }
            } else {
                for way in 0..self.ways.min(FRAME_WAYS as u32) {
                    root.rows[way as usize] = self.row_of(addr, way) as u16;
                }
            }
        }
        self.frames[root_slot.idx()] = root;
        out.filled_slot = root_slot;

        // Consume the walk: a second install against it would relocate
        // stale state.
        self.walk.for_addr = None;
    }

    fn invalidate(&mut self, addr: LineAddr) -> Option<SlotId> {
        let slot = self.lookup(addr)?;
        self.frames[slot.idx()].tag = INVALID_TAG;
        Some(slot)
    }

    fn for_each_valid(&self, f: &mut dyn FnMut(SlotId, LineAddr)) {
        for (i, fr) in self.frames.iter().enumerate() {
            if fr.tag != INVALID_TAG {
                f(SlotId(i as u32), fr.tag);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::array::walk::replacement_candidates;

    fn fill(z: &mut ZArray, addrs: impl IntoIterator<Item = u64>) {
        let mut cands = CandidateSet::new();
        let mut out = InstallOutcome::default();
        for a in addrs {
            if z.lookup(a).is_some() {
                continue;
            }
            z.candidates(a, &mut cands);
            let victim = *cands.first_empty().unwrap_or_else(|| &cands.as_slice()[0]);
            z.install(a, &victim, &mut out);
        }
    }

    #[test]
    fn lookup_after_install() {
        let mut z = ZArray::new(64, 4, 2, 1);
        fill(&mut z, [10, 20, 30]);
        assert!(z.lookup(10).is_some());
        assert!(z.lookup(20).is_some());
        assert!(z.lookup(30).is_some());
        assert!(z.lookup(40).is_none());
    }

    #[test]
    fn full_walk_reaches_r_candidates() {
        // Fill a small zcache completely, then check a walk for a new
        // address gathers close to R candidates (repeats may trim a few).
        let mut z = ZArray::new(256, 4, 2, 7);
        fill(&mut z, (0..100_000u64).map(|i| i * 3 + 1));
        assert_eq!(z.occupancy(), 256);
        let mut cands = CandidateSet::new();
        z.candidates(999_999, &mut cands);
        let r = replacement_candidates(4, 2) as usize;
        assert!(
            cands.len() >= r - 4 && cands.len() <= r,
            "got {} candidates, expected ~{}",
            cands.len(),
            r
        );
        assert_eq!(cands.levels, 2);
    }

    #[test]
    fn relocations_preserve_all_blocks() {
        // Every install must keep every other resident block findable:
        // relocations move blocks only to rows they hash to.
        let mut z = ZArray::new(128, 4, 3, 3);
        let mut resident: Vec<u64> = Vec::new();
        let mut cands = CandidateSet::new();
        let mut out = InstallOutcome::default();
        for a in 1..=500u64 {
            z.candidates(a, &mut cands);
            // Prefer deepest victim to exercise long relocation chains.
            let victim = *cands
                .first_empty()
                .unwrap_or_else(|| cands.as_slice().last().unwrap());
            z.install(a, &victim, &mut out);
            if let Some(e) = out.evicted {
                resident.retain(|&x| x != e);
            }
            resident.push(a);
            for &r in &resident {
                assert!(z.lookup(r).is_some(), "lost block {r} after installing {a}");
            }
        }
    }

    #[test]
    fn install_reports_moves_matching_level() {
        let mut z = ZArray::new(128, 4, 3, 5);
        fill(&mut z, (0..100_000u64).map(|i| i * 7 + 13));
        let mut cands = CandidateSet::new();
        let mut out = InstallOutcome::default();
        z.candidates(123_456_789, &mut cands);
        // pick a level-2 victim (token >= first two levels' sizes)
        let lvl2 = cands
            .as_slice()
            .iter()
            .find(|c| c.token >= 4 + 12)
            .copied()
            .expect("full cache must have level-2 candidates");
        z.install(123_456_789, &lvl2, &mut out);
        assert_eq!(out.moves.len(), 2, "level-2 victim needs 2 relocations");
        assert!(z.lookup(123_456_789).is_some());
    }

    #[test]
    fn empty_frame_needs_no_eviction() {
        let mut z = ZArray::new(64, 4, 2, 2);
        let mut cands = CandidateSet::new();
        let mut out = InstallOutcome::default();
        z.candidates(42, &mut cands);
        let v = *cands.first_empty().unwrap();
        z.install(42, &v, &mut out);
        assert_eq!(out.evicted, None);
        assert!(out.moves.is_empty());
    }

    #[test]
    fn walk_stops_early_on_empty_frames() {
        let mut z = ZArray::new(1024, 4, 3, 9);
        fill(&mut z, 0..8u64); // mostly empty
        let mut cands = CandidateSet::new();
        z.candidates(777, &mut cands);
        // With an almost-empty array, the walk should stop at level 0.
        assert_eq!(cands.levels, 1);
        assert!(cands.first_empty().is_some());
    }

    #[test]
    #[should_panic(expected = "must follow a candidates() walk")]
    fn install_without_walk_panics() {
        let mut z = ZArray::new(64, 4, 2, 1);
        let mut cands = CandidateSet::new();
        let mut out = InstallOutcome::default();
        z.candidates(1, &mut cands);
        let v = cands.as_slice()[0];
        z.install(1, &v, &mut out);
        z.install(1, &v, &mut out); // walk consumed — must panic
    }

    #[test]
    #[should_panic(expected = "same address")]
    fn install_wrong_addr_panics() {
        let mut z = ZArray::new(64, 4, 2, 1);
        let mut cands = CandidateSet::new();
        let mut out = InstallOutcome::default();
        z.candidates(1, &mut cands);
        let v = cands.as_slice()[0];
        z.install(2, &v, &mut out);
    }

    #[test]
    fn dfs_walk_gathers_same_budget() {
        let mut z = ZArray::new(256, 4, 2, 11).with_walk_kind(WalkKind::Dfs);
        fill(&mut z, (0..100_000u64).map(|i| i * 5 + 3));
        let mut cands = CandidateSet::new();
        z.candidates(424_242, &mut cands);
        let r = replacement_candidates(4, 2) as usize;
        assert!(
            cands.len() >= r - 6 && cands.len() <= r,
            "dfs got {} candidates",
            cands.len()
        );
        // DFS reaches deeper levels than BFS for the same budget.
        assert!(cands.levels >= 2);
    }

    #[test]
    fn max_candidates_caps_walk() {
        let mut z = ZArray::new(256, 4, 3, 13).with_max_candidates(10);
        fill(&mut z, (0..100_000u64).map(|i| i * 11 + 1));
        let mut cands = CandidateSet::new();
        z.candidates(555_555, &mut cands);
        assert!(cands.len() <= 10, "cap violated: {}", cands.len());
    }

    #[test]
    fn bloom_dedup_never_loses_blocks() {
        let mut z = ZArray::new(64, 4, 3, 17).with_bloom_dedup(true);
        let mut resident: Vec<u64> = Vec::new();
        let mut cands = CandidateSet::new();
        let mut out = InstallOutcome::default();
        for a in 1..=200u64 {
            z.candidates(a, &mut cands);
            let victim = *cands
                .first_empty()
                .unwrap_or_else(|| cands.as_slice().last().unwrap());
            z.install(a, &victim, &mut out);
            if let Some(e) = out.evicted {
                resident.retain(|&x| x != e);
            }
            resident.push(a);
            for &r in &resident {
                assert!(z.lookup(r).is_some());
            }
        }
        // In a tiny array, the filter should actually skip repeats.
        let (_, walk) = z.candidates_select(9_999, &mut crate::FullLru::new(64), &mut cands);
        assert!(walk.bloom_skipped > 0 || walk.candidates < 52);
    }

    #[test]
    fn location_roundtrip() {
        let z = ZArray::new(64, 4, 2, 1);
        for slot in [0u32, 15, 16, 63] {
            let loc = z.location(SlotId(slot));
            assert_eq!(
                u64::from(slot),
                u64::from(loc.way) * z.rows_per_way() + loc.row
            );
        }
    }

    #[test]
    fn way1_degenerates_to_direct_mapped() {
        let mut z = ZArray::new(16, 1, 3, 1);
        let mut cands = CandidateSet::new();
        z.candidates(5, &mut cands);
        assert_eq!(cands.len(), 1);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_rows_panics() {
        ZArray::new(12, 4, 2, 0);
    }

    #[test]
    #[should_panic(expected = "at least one level")]
    fn zero_levels_panics() {
        ZArray::new(16, 4, 0, 0);
    }
}
