//! A seeded open-addressing map for `u64` keys, shared by every hot
//! lookup structure in the workspace.
//!
//! Generalized from the tag index the arrays use
//! ([`TagIndex`](crate::TagIndex) is now a thin wrapper): a seeded
//! [`Mix64`]-hashed table with linear probing, backward-shift deletion
//! (no tombstones), power-of-two capacity and load factor ≤ 0.5. The
//! same structure backs the zsim MESI directory and the OPT next-use
//! oracle, replacing `std::collections::HashMap` on those paths.
//!
//! Two properties matter to the consumers:
//!
//! * **Determinism** — layout is a pure function of `(seed, contents)`.
//!   `HashMap`'s `RandomState` draws a fresh seed per process, which is
//!   exactly the kind of latent nondeterminism the differential
//!   conformance harness exists to rule out.
//! * **Speed** — Mix64 is a handful of arithmetic ops vs SipHash's
//!   rounds, probes touch a dense key vector (values live in a parallel
//!   vector, so probing never drags payload bytes through the cache),
//!   and a pre-sized map never rehashes in steady state.
//!
//! Keys are line addresses; `u64::MAX` ([`EMPTY_KEY`]) is reserved as
//! the free-bucket sentinel, matching the tag stores' invalid tag.

use zhash::{Hasher64, Mix64};

/// Reserved key marking a free bucket (same value as
/// [`INVALID_TAG`](crate::INVALID_TAG)).
pub const EMPTY_KEY: u64 = u64::MAX;

/// A seeded open-addressing `u64 → V` map (linear probing,
/// backward-shift deletion, power-of-two capacity, load ≤ 0.5).
///
/// Grows by doubling when load exceeds 0.5 — unless constructed with
/// [`fixed_capacity`](Self::fixed_capacity), in which case overfilling
/// panics (the arrays size their index once per configuration and treat
/// growth as a bug).
///
/// # Examples
///
/// ```
/// use zcache_core::SeededMap;
///
/// let mut m: SeededMap<u32> = SeededMap::with_capacity(4, 1);
/// m.insert(100, 7);
/// assert_eq!(m.get(100), Some(7));
/// assert_eq!(m.remove(100), Some(7));
/// assert!(m.is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct SeededMap<V> {
    hasher: Mix64,
    mask: usize,
    /// Probe keys; [`EMPTY_KEY`] marks a free bucket.
    keys: Vec<u64>,
    /// Payloads, parallel to `keys`.
    vals: Vec<V>,
    len: usize,
    fixed: bool,
}

impl<V: Copy + Default> SeededMap<V> {
    /// Creates a map able to hold `entries` at ≤ 0.5 load before its
    /// first (deterministic) doubling.
    pub fn with_capacity(entries: usize, seed: u64) -> Self {
        let cap = (entries.max(1) * 2).next_power_of_two();
        Self {
            hasher: Mix64::new(seed),
            mask: cap - 1,
            keys: vec![EMPTY_KEY; cap],
            vals: vec![V::default(); cap],
            len: 0,
            fixed: false,
        }
    }

    /// Like [`with_capacity`](Self::with_capacity), but inserting beyond
    /// `entries` panics instead of growing.
    pub fn fixed_capacity(entries: usize, seed: u64) -> Self {
        Self {
            fixed: true,
            ..Self::with_capacity(entries, seed)
        }
    }

    /// Entries currently stored.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the map is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Removes every entry, keeping the allocated capacity.
    pub fn clear(&mut self) {
        if self.len > 0 {
            self.keys.fill(EMPTY_KEY);
            self.len = 0;
        }
    }

    #[inline(always)]
    fn start(&self, key: u64) -> usize {
        self.hasher.hash(key) as usize & self.mask
    }

    /// The value stored for `key`, if any.
    #[inline]
    pub fn get(&self, key: u64) -> Option<V> {
        let mut i = self.start(key);
        loop {
            let k = self.keys[i];
            if k == key {
                return Some(self.vals[i]);
            }
            if k == EMPTY_KEY {
                return None;
            }
            i = (i + 1) & self.mask;
        }
    }

    /// The bucket currently holding `key`, if present. Sorting keys by
    /// slot reproduces [`iter`](Self::iter) order without a full scan.
    #[inline]
    pub fn slot(&self, key: u64) -> Option<usize> {
        let mut i = self.start(key);
        loop {
            let k = self.keys[i];
            if k == key {
                return Some(i);
            }
            if k == EMPTY_KEY {
                return None;
            }
            i = (i + 1) & self.mask;
        }
    }

    /// A mutable reference to the value stored for `key`, if any.
    #[inline]
    pub fn get_mut(&mut self, key: u64) -> Option<&mut V> {
        let mut i = self.start(key);
        loop {
            let k = self.keys[i];
            if k == key {
                return Some(&mut self.vals[i]);
            }
            if k == EMPTY_KEY {
                return None;
            }
            i = (i + 1) & self.mask;
        }
    }

    /// Inserts or updates `key → val`, returning the previous value.
    ///
    /// # Panics
    ///
    /// Panics if `key` is the reserved [`EMPTY_KEY`], or on overfill of
    /// a [`fixed_capacity`](Self::fixed_capacity) map.
    #[inline]
    pub fn insert(&mut self, key: u64, val: V) -> Option<V> {
        let prev = self.get_or_insert_with(key, || val);
        let old = std::mem::replace(prev.0, val);
        prev.1.then_some(old)
    }

    /// The value for `key`, inserting `default()` first if absent.
    #[inline]
    pub fn get_or_insert_with<F: FnOnce() -> V>(&mut self, key: u64, default: F) -> (&mut V, bool) {
        assert_ne!(key, EMPTY_KEY, "EMPTY_KEY is a reserved key");
        let mut i = self.start(key);
        loop {
            let k = self.keys[i];
            if k == key {
                return (&mut self.vals[i], true);
            }
            if k == EMPTY_KEY {
                if self.len >= (self.mask + 1).div_ceil(2) {
                    assert!(!self.fixed, "seeded map over capacity");
                    self.grow();
                    i = self.start(key);
                    while self.keys[i] != EMPTY_KEY {
                        i = (i + 1) & self.mask;
                    }
                }
                self.keys[i] = key;
                self.vals[i] = default();
                self.len += 1;
                return (&mut self.vals[i], false);
            }
            i = (i + 1) & self.mask;
        }
    }

    /// Doubles the table and reinserts every entry. Layout after growth
    /// is still a pure function of `(seed, contents)`.
    #[cold]
    fn grow(&mut self) {
        let new_cap = (self.mask + 1) * 2;
        let old_keys = std::mem::replace(&mut self.keys, vec![EMPTY_KEY; new_cap]);
        let old_vals = std::mem::replace(&mut self.vals, vec![V::default(); new_cap]);
        self.mask = new_cap - 1;
        for (k, v) in old_keys.into_iter().zip(old_vals) {
            if k == EMPTY_KEY {
                continue;
            }
            let mut i = self.start(k);
            while self.keys[i] != EMPTY_KEY {
                i = (i + 1) & self.mask;
            }
            self.keys[i] = k;
            self.vals[i] = v;
        }
    }

    /// Removes `key`, returning its value if it was present.
    ///
    /// Uses backward-shift deletion instead of tombstones, so probe
    /// chains never grow with churn and behavior stays a pure function
    /// of the current contents.
    pub fn remove(&mut self, key: u64) -> Option<V> {
        let mut hole = self.start(key);
        loop {
            let k = self.keys[hole];
            if k == key {
                break;
            }
            if k == EMPTY_KEY {
                return None;
            }
            hole = (hole + 1) & self.mask;
        }
        let removed = self.vals[hole];

        // Shift any displaced entries back toward their home bucket so
        // the invariant "every entry is reachable from its home without
        // crossing a free bucket" is restored.
        let mut cur = (hole + 1) & self.mask;
        while self.keys[cur] != EMPTY_KEY {
            let home = self.start(self.keys[cur]);
            // `cur`'s entry may fill the hole iff its home bucket is not
            // cyclically inside (hole, cur] — otherwise moving it would
            // place it before its own probe start.
            if (cur.wrapping_sub(home) & self.mask) >= (cur.wrapping_sub(hole) & self.mask) {
                self.keys[hole] = self.keys[cur];
                self.vals[hole] = self.vals[cur];
                hole = cur;
            }
            cur = (cur + 1) & self.mask;
        }
        self.keys[hole] = EMPTY_KEY;
        self.len -= 1;
        Some(removed)
    }

    /// Iterates `(key, value)` pairs in table (layout) order.
    ///
    /// The order is deterministic for a given `(seed, contents)` but has
    /// no semantic meaning — consumers that need a canonical order must
    /// sort (the zsim directory sorts by line address).
    pub fn iter(&self) -> impl Iterator<Item = (u64, V)> + '_ {
        self.keys
            .iter()
            .zip(self.vals.iter())
            .filter(|(&k, _)| k != EMPTY_KEY)
            .map(|(&k, &v)| (k, v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut m: SeededMap<u64> = SeededMap::with_capacity(8, 1);
        assert!(m.is_empty());
        for a in 0..8u64 {
            assert_eq!(m.insert(a * 1000 + 1, a), None);
        }
        assert_eq!(m.len(), 8);
        for a in 0..8u64 {
            assert_eq!(m.get(a * 1000 + 1), Some(a));
        }
        assert_eq!(m.get(999), None);
        assert_eq!(m.remove(5001), Some(5));
        assert_eq!(m.remove(5001), None);
        assert_eq!(m.len(), 7);
        for a in 0..8u64 {
            if a != 5 {
                assert_eq!(m.get(a * 1000 + 1), Some(a), "survivor {a}");
            }
        }
    }

    #[test]
    fn insert_returns_previous_value() {
        let mut m: SeededMap<u32> = SeededMap::with_capacity(2, 7);
        assert_eq!(m.insert(3, 10), None);
        assert_eq!(m.insert(3, 20), Some(10));
        assert_eq!(m.len(), 1);
        assert_eq!(m.get(3), Some(20));
    }

    #[test]
    fn get_or_insert_with_reports_presence() {
        let mut m: SeededMap<u32> = SeededMap::with_capacity(2, 7);
        let (v, present) = m.get_or_insert_with(9, || 5);
        assert!(!present);
        *v += 1;
        let (v, present) = m.get_or_insert_with(9, || 99);
        assert!(present);
        assert_eq!(*v, 6);
    }

    #[test]
    fn growth_preserves_contents() {
        let mut m: SeededMap<u64> = SeededMap::with_capacity(2, 3);
        for a in 0..1000u64 {
            m.insert(a * 7 + 1, a);
        }
        assert_eq!(m.len(), 1000);
        for a in 0..1000u64 {
            assert_eq!(m.get(a * 7 + 1), Some(a));
        }
    }

    #[test]
    #[should_panic(expected = "over capacity")]
    fn fixed_capacity_rejects_overfill() {
        let mut m: SeededMap<u32> = SeededMap::fixed_capacity(2, 1);
        for a in 0..10u64 {
            m.insert(a + 1, a as u32);
        }
    }

    #[test]
    fn clear_keeps_capacity_and_determinism() {
        let mut m: SeededMap<u32> = SeededMap::with_capacity(16, 5);
        for a in 0..16u64 {
            m.insert(a + 100, a as u32);
        }
        let first: Vec<_> = m.iter().collect();
        m.clear();
        assert!(m.is_empty());
        assert_eq!(m.get(100), None);
        for a in 0..16u64 {
            m.insert(a + 100, a as u32);
        }
        assert_eq!(m.iter().collect::<Vec<_>>(), first);
    }

    #[test]
    fn layout_is_seed_deterministic() {
        let build = |seed| {
            let mut m: SeededMap<u32> = SeededMap::with_capacity(32, seed);
            for a in 0..32u64 {
                m.insert(a * 31 + 7, a as u32);
            }
            m.remove(7);
            m.remove(31 * 5 + 7);
            m.iter().collect::<Vec<_>>()
        };
        assert_eq!(build(9), build(9));
        assert_ne!(build(9), build(10), "seed must permute the layout");
    }

    #[test]
    fn heavy_churn_matches_model() {
        // Backward-shift deletion is the easiest thing to get wrong;
        // hammer it against a model map, crossing growth boundaries.
        let mut m: SeededMap<u32> = SeededMap::with_capacity(4, 3);
        let mut model = std::collections::BTreeMap::new();
        let mut x = 0x1234_5678_9abc_def0u64;
        for step in 0..20_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let addr = x % 200;
            if step % 3 == 0 && model.contains_key(&addr) {
                assert_eq!(m.remove(addr), model.remove(&addr));
            } else if model.len() < 150 {
                let val = (step % 64) as u32;
                m.insert(addr, val);
                model.insert(addr, val);
            }
            if step % 97 == 0 {
                for (&a, &v) in &model {
                    assert_eq!(m.get(a), Some(v), "step {step} addr {a}");
                }
                assert_eq!(m.len(), model.len());
            }
        }
    }
}
