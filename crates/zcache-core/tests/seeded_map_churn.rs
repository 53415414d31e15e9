//! Property test: `SeededMap` survives interleaved insert/delete storms.
//!
//! The zserve shard directory (client pending-op table) leans on
//! `SeededMap`'s backward-shift deletion: every timeout/retry cycle
//! removes and re-inserts entries, so probe chains churn constantly. A
//! deletion bug would silently corrupt lookups long after the faulty
//! remove. This test drives randomized storms — bursts of inserts, then
//! bursts of deletes, interleaved point ops — against a `BTreeMap`
//! model and checks full agreement at every phase boundary, including
//! that `iter()` order is `slot()` order.

use proptest::prelude::*;
use std::collections::BTreeMap;
use zcache_core::SeededMap;

fn check_agreement(map: &SeededMap<u64>, model: &BTreeMap<u64, u64>, phase: &str) {
    assert_eq!(map.len(), model.len(), "{phase}: length drift");
    for (&k, &v) in model {
        assert_eq!(map.get(k), Some(v), "{phase}: lost key {k}");
    }
    let mut seen: Vec<(u64, u64)> = map.iter().collect();
    seen.sort_unstable();
    let want: Vec<(u64, u64)> = model.iter().map(|(&k, &v)| (k, v)).collect();
    assert_eq!(seen, want, "{phase}: iter disagrees with model");
    check_slots(map, model.keys().copied(), phase);
}

/// `iter()` visits exactly the live keys in `slot` order — the
/// property zserve relies on to replay a table scan's order from a
/// handful of keys.
fn check_slots(map: &SeededMap<u64>, live: impl Iterator<Item = u64>, phase: &str) {
    let mut by_slot: Vec<(usize, u64)> = live
        .map(|k| (map.slot(k).expect("live key has a slot"), k))
        .collect();
    by_slot.sort_unstable();
    let by_slot: Vec<u64> = by_slot.into_iter().map(|(_, k)| k).collect();
    let iter_order: Vec<u64> = map.iter().map(|(k, _)| k).collect();
    assert_eq!(iter_order, by_slot, "{phase}: iter order is not slot order");
}

#[test]
fn slot_order_matches_iter_across_growth_and_deletes() {
    let mut map: SeededMap<u64> = SeededMap::with_capacity(4, 0x5eed);
    let mut live = BTreeMap::new();
    // 300 inserts into an 8-bucket table force several doublings.
    for k in 1..=300u64 {
        map.insert(k * 7919, k);
        live.insert(k * 7919, k);
    }
    assert!(
        live.keys().any(|&k| map.slot(k).unwrap() >= 8),
        "the table never grew"
    );
    // Deletes in a scattered order exercise backward shifting.
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    for round in 0..200 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let k = (x % 300 + 1) * 7919;
        assert_eq!(map.remove(k), live.remove(&k));
        if round % 3 == 0 {
            map.insert(k + 1, round);
            live.insert(k + 1, round);
        }
        check_slots(&map, live.keys().copied(), &format!("round {round}"));
    }
    for k in (1..=300u64)
        .map(|k| k * 7919)
        .filter(|k| !live.contains_key(k))
    {
        assert_eq!(map.slot(k), None, "removed key {k} still has a slot");
    }
    assert_eq!(map.slot(3), None, "never-inserted key has a slot");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    #[test]
    fn insert_delete_storms_preserve_lookups(
        seed in 0u64..1_000_000,
        key_space in 16u64..400,
        storms in proptest::collection::vec((0u8..3, 1usize..120), 1..24),
    ) {
        let mut map: SeededMap<u64> = SeededMap::with_capacity(4, seed);
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();
        // Deterministic key stream derived from the case inputs.
        let mut x = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        let mut next_key = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % key_space
        };
        for (i, &(kind, len)) in storms.iter().enumerate() {
            match kind {
                // Insert storm: hammer keys in, overwriting repeats.
                0 => {
                    for step in 0..len {
                        let k = next_key();
                        let v = (i * 1_000 + step) as u64;
                        prop_assert_eq!(map.insert(k, v), model.insert(k, v),
                                        "insert storm {} step {}", i, step);
                    }
                }
                // Delete storm: remove whatever the stream names,
                // present or not (backward-shift must handle both).
                1 => {
                    for step in 0..len {
                        let k = next_key();
                        prop_assert_eq!(map.remove(k), model.remove(&k),
                                        "delete storm {} step {}", i, step);
                    }
                }
                // Interleaved point ops: tightest churn on probe chains.
                _ => {
                    for step in 0..len {
                        let k = next_key();
                        if step % 2 == 0 {
                            let v = k.wrapping_mul(31) + i as u64;
                            prop_assert_eq!(map.insert(k, v), model.insert(k, v));
                        } else {
                            prop_assert_eq!(map.remove(k), model.remove(&k));
                        }
                    }
                }
            }
            check_agreement(&map, &model, &format!("after storm {i}"));
            // Keys at or beyond `key_space` are never inserted.
            prop_assert_eq!(map.slot(key_space + i as u64), None);
        }
        // Drain completely: every removal must still find its entry.
        let keys: Vec<u64> = model.keys().copied().collect();
        for k in keys {
            prop_assert_eq!(map.remove(k), model.remove(&k), "drain {}", k);
        }
        prop_assert!(map.is_empty());
    }
}
