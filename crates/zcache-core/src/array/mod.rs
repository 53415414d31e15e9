//! Cache array organizations.
//!
//! An array holds tags, implements associative lookup, and — the part the
//! paper cares about — produces a set of *replacement candidates* on a
//! miss. The five organizations match §II–§III of the paper:
//!
//! * [`SetAssocArray`] — conventional set-associative, optionally with a
//!   hashed index.
//! * [`SkewArray`] — skew-associative (Seznec): one hash function per way;
//!   candidates are the `W` first-level locations.
//! * [`ZArray`] — the zcache: same lookup as skew, but a multi-level BFS
//!   walk over the candidate tree yields up to `W·Σ(W−1)^l` candidates,
//!   and installs perform relocations along the victim's path.
//! * [`FullyAssocArray`] — every block is a candidate (the associativity
//!   reference point).
//! * [`RandomCandsArray`] — the §IV-B *random candidates cache*: `n`
//!   uniformly random candidates, which meets the uniformity assumption by
//!   construction.

mod fully;
mod random_cands;
mod setassoc;
mod skew;
mod tags;
mod walk;
mod zarray;

pub use fully::FullyAssocArray;
pub use random_cands::RandomCandsArray;
pub use setassoc::SetAssocArray;
pub use skew::SkewArray;
pub use tags::{TagIndex, TagStore, INVALID_TAG};
pub use walk::{replacement_candidates, WalkKind, WalkStats};
pub use zarray::{WalkNodeInfo, ZArray};

use crate::repl::ReplacementPolicy;
use crate::types::{LineAddr, SlotId};
use zhash::HashKind;

/// One replacement candidate returned by [`CacheArray::candidates`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Candidate {
    /// The frame that would be vacated.
    pub slot: SlotId,
    /// The block currently in that frame; `None` if the frame is empty
    /// (an empty frame is always the preferred "victim").
    pub addr: Option<LineAddr>,
    /// Array-private handle (for [`ZArray`], the walk-tree node index) that
    /// [`CacheArray::install`] uses to reconstruct the relocation path.
    pub token: u32,
}

/// Reusable buffer of replacement candidates for one miss.
///
/// Owned by the caller and cleared by [`CacheArray::candidates`], so the
/// hot path performs no per-miss allocation after warm-up.
#[derive(Debug, Clone)]
pub struct CandidateSet {
    items: Vec<Candidate>,
    /// Scratch for scoring; reused across misses.
    scores: Vec<u64>,
    /// Index of the first empty-frame candidate, tracked by [`push`]
    /// (`u32::MAX` = none) so selection never rescans the set for one.
    ///
    /// [`push`]: CandidateSet::push
    first_empty: u32,
    /// Walk levels used to produce this set (1 for non-walking arrays).
    pub levels: u32,
    /// Tag reads performed to produce this set (the paper's `R`).
    pub tag_reads: u32,
}

impl Default for CandidateSet {
    fn default() -> Self {
        Self {
            items: Vec::new(),
            scores: Vec::new(),
            first_empty: u32::MAX,
            levels: 0,
            tag_reads: 0,
        }
    }
}

impl CandidateSet {
    /// Creates an empty candidate set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Clears the buffer for reuse.
    pub fn clear(&mut self) {
        self.items.clear();
        self.scores.clear();
        self.first_empty = u32::MAX;
        self.levels = 0;
        self.tag_reads = 0;
    }

    /// Adds a candidate.
    pub fn push(&mut self, c: Candidate) {
        if c.addr.is_none() && self.first_empty == u32::MAX {
            self.first_empty = self.items.len() as u32;
        }
        self.items.push(c);
    }

    /// Pre-sizes the buffer for at least `n` candidates (e.g. the
    /// [`replacement_candidates`] bound), so the hot path never grows it.
    pub fn reserve(&mut self, n: usize) {
        self.items.reserve(n);
    }

    /// Replaces the contents with the records of a walk table's slot and
    /// tag columns (token `i` is node `i`); `first_empty` comes from the
    /// walker, which knows where the first empty frame landed.
    pub(crate) fn fill_from_walk(&mut self, slots: &[SlotId], tags: &[u64], first_empty: u32) {
        self.clear();
        self.items.extend(
            slots
                .iter()
                .zip(tags)
                .enumerate()
                .map(|(i, (&slot, &tag))| Candidate {
                    slot,
                    addr: (tag != INVALID_TAG).then_some(tag),
                    token: i as u32,
                }),
        );
        self.first_empty = first_empty;
        debug_assert_eq!(
            first_empty,
            self.items
                .iter()
                .position(|c| c.addr.is_none())
                .map_or(u32::MAX, |i| i as u32),
            "walker-supplied first_empty must match a rescan"
        );
    }

    /// The candidates gathered so far.
    pub fn as_slice(&self) -> &[Candidate] {
        &self.items
    }

    /// Number of candidates.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether no candidates were gathered.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// First candidate whose frame is empty, if any.
    pub fn first_empty(&self) -> Option<&Candidate> {
        self.items.get(self.first_empty as usize)
    }

    /// The walk summary of this set: its size, levels and tag reads.
    pub(crate) fn walk_stats(&self) -> WalkStats {
        WalkStats {
            candidates: self.items.len() as u32,
            levels: self.levels,
            tag_reads: self.tag_reads,
            ..WalkStats::default()
        }
    }

    /// Selects the victim from this set: the first empty frame if any,
    /// otherwise the highest-scoring occupied candidate (first wins
    /// ties) — the same choice as
    /// [`select_victim`](crate::select_victim). `None` only for an empty
    /// set.
    pub fn select_with<P: ReplacementPolicy + ?Sized>(&mut self, policy: &P) -> Option<Candidate> {
        // An empty frame (tracked at push time) wins before any scoring —
        // `score` is pure, so not scoring cannot change policy state.
        if let Some(c) = self.first_empty() {
            return Some(*c);
        }
        self.compute_scores(policy);
        max_first(&self.scores).map(|i| self.items[i])
    }

    /// Scores every candidate with
    /// [`score`](ReplacementPolicy::score) into the internal scratch
    /// vector (read it back with
    /// [`scores`](Self::scores)). Custom victim-selection layers use
    /// this to see exactly the score vector
    /// [`select_with`](Self::select_with) would scan.
    pub fn compute_scores<P: ReplacementPolicy + ?Sized>(&mut self, policy: &P) {
        self.scores.clear();
        self.scores
            .extend(self.items.iter().map(|c| policy.score(c.slot)));
    }

    /// The score vector of the most recent
    /// [`compute_scores`](Self::compute_scores) call, parallel to
    /// [`as_slice`](Self::as_slice) (empty before the first call).
    pub fn scores(&self) -> &[u64] {
        &self.scores
    }
}

/// Index of the highest score, taking the first of equal maxima (the
/// victim-selection scan); `None` for an empty slice.
///
/// Short vectors (set-associative and skew candidate sets) take a
/// running `(best, index)` scan. Long ones (zcache walks) would make that
/// scan mispredict on nearly every new maximum of their unordered
/// scores, so they take the maximum from four independent running maxima
/// first, with no data-dependent branch, and then its first position.
/// Each form measured slower on the other's side of the cut (see "Walk
/// cost" in EXPERIMENTS.md).
#[inline]
pub(crate) fn max_first(scores: &[u64]) -> Option<usize> {
    if scores.len() <= 8 {
        let (&first, rest) = scores.split_first()?;
        let (mut best, mut at) = (first, 0);
        for (i, &s) in rest.iter().enumerate() {
            if s > best {
                best = s;
                at = i + 1;
            }
        }
        return Some(at);
    }
    let mut lanes = [0u64; 4];
    let mut chunks = scores.chunks_exact(4);
    for c in &mut chunks {
        for (m, &s) in lanes.iter_mut().zip(c) {
            *m = (*m).max(s);
        }
    }
    let max = chunks
        .remainder()
        .iter()
        .chain(&lanes)
        .fold(0, |m, &s| m.max(s));
    scores.iter().position(|&s| s == max)
}

/// Result of installing a block, including relocation bookkeeping.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct InstallOutcome {
    /// Block evicted to make room, if the victim frame was occupied.
    pub evicted: Option<LineAddr>,
    /// Frame the evicted block vacated (valid when `evicted` is `Some`).
    pub evicted_slot: Option<SlotId>,
    /// Frame the incoming block landed in (after relocations).
    pub filled_slot: SlotId,
    /// Relocations performed, oldest-ancestor first, as `(from, to)` slot
    /// moves. Empty for non-zcache arrays.
    pub moves: Vec<(SlotId, SlotId)>,
}

impl InstallOutcome {
    /// Clears the outcome for reuse across installs.
    pub fn clear(&mut self) {
        self.evicted = None;
        self.evicted_slot = None;
        self.filled_slot = SlotId(0);
        self.moves.clear();
    }
}

/// Folds one `(slot, addr, dirty)` triple into a running tag-state
/// digest.
///
/// This is the digest arithmetic shared by [`CacheArray::state_digest`]
/// and the `zoracle` reference models: both sides fold their resident
/// blocks in ascending slot order starting from
/// [`DIGEST_SEED`], so two caches agree on the digest iff they agree on
/// the exact placement (and dirtiness) of every block. SplitMix64-style
/// finalizer; any single-bit difference avalanches.
#[inline]
pub fn digest_step(h: u64, slot: SlotId, addr: LineAddr, dirty: bool) -> u64 {
    let mut z = h
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(u64::from(slot.0))
        .wrapping_add(addr.rotate_left(17))
        .wrapping_add(u64::from(dirty));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Initial value for [`digest_step`] chains.
pub const DIGEST_SEED: u64 = 0xCBF2_9CE4_8422_2325;

/// A cache tag array: associative lookup plus replacement-candidate
/// generation and installation.
///
/// Slot identifiers are dense in `0..lines()`, so per-slot replacement
/// state can live in flat vectors.
pub trait CacheArray {
    /// Total frames.
    fn lines(&self) -> u64;

    /// Number of ways (locations a block can be in).
    fn ways(&self) -> u32;

    /// Finds the frame holding `addr`, if resident.
    fn lookup(&self, addr: LineAddr) -> Option<SlotId>;

    /// [`lookup`](Self::lookup) on the access path, where the caller
    /// holds `&mut self`. Semantically identical; arrays may use the
    /// mutable access to memoize probe work a subsequent
    /// [`candidates`](Self::candidates) call for the same address would
    /// otherwise repeat ([`ZArray`] stashes the hashed row vector, which
    /// depends only on the address and the fixed hash family).
    fn lookup_mut(&mut self, addr: LineAddr) -> Option<SlotId> {
        self.lookup(addr)
    }

    /// The block resident in `slot`, if any.
    fn addr_at(&self, slot: SlotId) -> Option<LineAddr>;

    /// Gathers replacement candidates for a missing `addr` into `out`.
    ///
    /// `&mut self` allows arrays to advance internal PRNG state or cache
    /// the walk tree for the subsequent [`install`](Self::install).
    fn candidates(&mut self, addr: LineAddr, out: &mut CandidateSet);

    /// Gathers replacement candidates for `addr` *and* selects the
    /// victim; returns it with the walk's summary (candidates, levels,
    /// tag reads).
    ///
    /// Semantics are pinned to the two-pass sequence — `candidates`,
    /// [`before_select`](ReplacementPolicy::before_select), then
    /// [`CandidateSet::select_with`] — and any override must pick the
    /// exact same victim. `out` is scratch: an override may leave it
    /// without the candidate records (the [`ZArray`] access path builds
    /// none unless the policy's select prepass needs them);
    /// [`rebuild_candidates`](Self::rebuild_candidates) restores them.
    ///
    /// # Panics
    ///
    /// Panics if the array produced an empty candidate set (arrays never
    /// do).
    fn candidates_select<P: ReplacementPolicy + ?Sized>(
        &mut self,
        addr: LineAddr,
        policy: &mut P,
        out: &mut CandidateSet,
    ) -> (Candidate, WalkStats)
    where
        Self: Sized,
    {
        self.candidates(addr, out);
        policy.before_select(out.as_slice());
        let victim = out
            .select_with(policy)
            .expect("candidate sets are never empty");
        (victim, out.walk_stats())
    }

    /// Writes into `out` the candidate records of the most recent
    /// [`candidates_select`](Self::candidates_select) when that call
    /// may have left them unbuilt. The default leaves `out` as it is:
    /// arrays that keep the default `candidates_select` have already
    /// filled it.
    fn rebuild_candidates(&self, _out: &mut CandidateSet) {}

    /// Issues best-effort memory-system hints for the tag frames a
    /// subsequent [`lookup`](Self::lookup) of `addr` would probe.
    ///
    /// Purely a prefetch: no array state changes, no statistics move,
    /// and the result of the later lookup is unaffected, so callers may
    /// hint speculatively and arbitrarily far ahead. The default does
    /// nothing; only arrays whose probe set is a pure function of the
    /// address (no per-call state, no recomputation worth hiding)
    /// override it — [`SetAssocArray`] hints its one indexed set, which
    /// is how the execution-driven simulator overlaps independent
    /// per-core L1 tag reads across a batched dispatch group. The walk
    /// designs deliberately keep the no-op default: their row vector
    /// costs real hash work that [`lookup_mut`](Self::lookup_mut)
    /// memoizes instead, and recomputing it in a hint was measured
    /// slower than the fetches it hides (see "Walk cost" in
    /// EXPERIMENTS.md).
    fn prefetch_lookup(&self, _addr: LineAddr) {}

    /// Installs `addr`, vacating `victim` (a candidate returned by the
    /// immediately preceding `candidates` call for the same address).
    ///
    /// # Panics
    ///
    /// Implementations may panic if `victim` does not belong to the most
    /// recent candidate set for `addr`.
    fn install(&mut self, addr: LineAddr, victim: &Candidate, out: &mut InstallOutcome);

    /// Removes `addr` if resident, returning its former frame.
    fn invalidate(&mut self, addr: LineAddr) -> Option<SlotId>;

    /// Calls `f` for every valid (occupied) frame.
    fn for_each_valid(&self, f: &mut dyn FnMut(SlotId, LineAddr));

    /// Number of occupied frames.
    fn occupancy(&self) -> u64 {
        let mut n = 0;
        self.for_each_valid(&mut |_, _| n += 1);
        n
    }

    /// Digest of the full tag state: every resident `(slot, addr)` pair,
    /// folded in ascending slot order with [`digest_step`].
    ///
    /// Two arrays produce the same digest iff they agree on the placement
    /// of every resident block. Dirty bits are not the array's concern;
    /// [`Cache::state_digest`](crate::Cache::state_digest) folds them in.
    fn state_digest(&self) -> u64 {
        let mut entries: Vec<(SlotId, LineAddr)> = Vec::new();
        self.for_each_valid(&mut |s, a| entries.push((s, a)));
        entries.sort_unstable_by_key(|(s, _)| s.0);
        entries
            .iter()
            .fold(DIGEST_SEED, |h, &(s, a)| digest_step(h, s, a, false))
    }
}

/// Array organization selector for [`CacheBuilder`](crate::CacheBuilder).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArrayKind {
    /// Set-associative with the given index hash.
    SetAssoc {
        /// Index hash family (`BitSelect` = conventional indexing).
        hash: HashKind,
    },
    /// Skew-associative (H3-hashed ways).
    Skew,
    /// ZCache with a BFS walk of `levels` full levels.
    ZCache {
        /// Walk depth; candidates `R = W·Σ_{l<levels}(W−1)^l`.
        levels: u32,
    },
    /// Fully associative.
    Fully,
    /// Random-candidates reference design with `n` candidates per miss.
    RandomCands {
        /// Candidates drawn uniformly (with repetition) per miss.
        n: u32,
    },
}

impl std::fmt::Display for ArrayKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArrayKind::SetAssoc { hash } => write!(f, "setassoc({hash})"),
            ArrayKind::Skew => write!(f, "skew"),
            ArrayKind::ZCache { levels } => write!(f, "zcache(L={levels})"),
            ArrayKind::Fully => write!(f, "fully"),
            ArrayKind::RandomCands { n } => write!(f, "random({n})"),
        }
    }
}

/// A runtime-selected array, for configuration-driven experiments.
///
/// Enum dispatch (not `dyn`) keeps the per-access cost at a predictable
/// branch while letting `zbench` pick organizations from the command line.
#[derive(Debug, Clone)]
#[allow(clippy::large_enum_variant)] // enum dispatch by design; arrays are long-lived
pub enum AnyArray {
    /// See [`SetAssocArray`].
    SetAssoc(SetAssocArray),
    /// See [`SkewArray`].
    Skew(SkewArray),
    /// See [`ZArray`].
    ZCache(ZArray),
    /// See [`FullyAssocArray`].
    Fully(FullyAssocArray),
    /// See [`RandomCandsArray`].
    RandomCands(RandomCandsArray),
}

macro_rules! delegate {
    ($self:ident, $inner:ident => $e:expr) => {
        match $self {
            AnyArray::SetAssoc($inner) => $e,
            AnyArray::Skew($inner) => $e,
            AnyArray::ZCache($inner) => $e,
            AnyArray::Fully($inner) => $e,
            AnyArray::RandomCands($inner) => $e,
        }
    };
}

impl AnyArray {
    /// Adjusts the zcache walk-budget cap at run time (clamped to at
    /// least the way count); returns whether the array has one.
    /// Non-zcache arrays ignore the call — their candidate count is
    /// structural — so runtime controllers can steer a [`DynCache`]
    /// without matching on the array kind.
    ///
    /// [`DynCache`]: crate::DynCache
    pub fn set_max_candidates(&mut self, max: u32) -> bool {
        match self {
            AnyArray::ZCache(z) => {
                z.set_max_candidates(max);
                true
            }
            _ => false,
        }
    }

    /// The current zcache candidate cap (`u32::MAX` when unlimited), or
    /// `None` for arrays without a walk budget.
    pub fn max_candidates(&self) -> Option<u32> {
        match self {
            AnyArray::ZCache(z) => Some(z.max_candidates()),
            _ => None,
        }
    }
}

impl CacheArray for AnyArray {
    #[inline]
    fn lines(&self) -> u64 {
        delegate!(self, a => a.lines())
    }
    #[inline]
    fn ways(&self) -> u32 {
        delegate!(self, a => a.ways())
    }
    #[inline]
    fn lookup(&self, addr: LineAddr) -> Option<SlotId> {
        delegate!(self, a => a.lookup(addr))
    }
    #[inline]
    fn lookup_mut(&mut self, addr: LineAddr) -> Option<SlotId> {
        delegate!(self, a => a.lookup_mut(addr))
    }
    #[inline]
    fn addr_at(&self, slot: SlotId) -> Option<LineAddr> {
        delegate!(self, a => a.addr_at(slot))
    }
    #[inline]
    fn prefetch_lookup(&self, addr: LineAddr) {
        delegate!(self, a => a.prefetch_lookup(addr))
    }
    #[inline]
    fn candidates(&mut self, addr: LineAddr, out: &mut CandidateSet) {
        delegate!(self, a => a.candidates(addr, out))
    }
    #[inline]
    fn candidates_select<P: ReplacementPolicy + ?Sized>(
        &mut self,
        addr: LineAddr,
        policy: &mut P,
        out: &mut CandidateSet,
    ) -> (Candidate, WalkStats) {
        delegate!(self, a => a.candidates_select(addr, policy, out))
    }
    #[inline]
    fn rebuild_candidates(&self, out: &mut CandidateSet) {
        delegate!(self, a => a.rebuild_candidates(out))
    }
    #[inline]
    fn install(&mut self, addr: LineAddr, victim: &Candidate, out: &mut InstallOutcome) {
        delegate!(self, a => a.install(addr, victim, out))
    }
    #[inline]
    fn invalidate(&mut self, addr: LineAddr) -> Option<SlotId> {
        delegate!(self, a => a.invalidate(addr))
    }
    #[inline]
    fn for_each_valid(&self, f: &mut dyn FnMut(SlotId, LineAddr)) {
        delegate!(self, a => a.for_each_valid(f))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn candidate_set_reuse() {
        let mut s = CandidateSet::new();
        s.push(Candidate {
            slot: SlotId(0),
            addr: Some(1),
            token: 0,
        });
        s.levels = 2;
        s.tag_reads = 4;
        assert_eq!(s.len(), 1);
        assert!(!s.is_empty());
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.levels, 0);
        assert_eq!(s.tag_reads, 0);
    }

    #[test]
    fn first_empty_finds_hole() {
        let mut s = CandidateSet::new();
        s.push(Candidate {
            slot: SlotId(0),
            addr: Some(5),
            token: 0,
        });
        s.push(Candidate {
            slot: SlotId(1),
            addr: None,
            token: 1,
        });
        assert_eq!(s.first_empty().unwrap().slot, SlotId(1));
    }

    #[test]
    fn array_kind_display() {
        assert_eq!(
            ArrayKind::SetAssoc { hash: HashKind::H3 }.to_string(),
            "setassoc(h3)"
        );
        assert_eq!(ArrayKind::ZCache { levels: 3 }.to_string(), "zcache(L=3)");
        assert_eq!(ArrayKind::RandomCands { n: 16 }.to_string(), "random(16)");
        assert_eq!(ArrayKind::Skew.to_string(), "skew");
        assert_eq!(ArrayKind::Fully.to_string(), "fully");
    }

    #[test]
    fn install_outcome_clear() {
        let mut o = InstallOutcome {
            evicted: Some(9),
            evicted_slot: Some(SlotId(3)),
            filled_slot: SlotId(7),
            moves: vec![(SlotId(1), SlotId(2))],
        };
        o.clear();
        assert_eq!(o, InstallOutcome::default());
    }
}
