//! Property test: the batched [`ReplacementPolicy::score_slots`] fast
//! path must agree element-wise with per-slot
//! [`ReplacementPolicy::score`] for every policy, under arbitrary access
//! histories.
//!
//! Victim selection — `CandidateSet::select_with` and the zcache access
//! path, which scores the walk table's slot column directly — trusts
//! `score_slots` completely: a policy whose override drifts from its
//! scalar `score` would silently change eviction decisions, so this
//! property is what keeps the batched path conformant. The same cases
//! check that `select_with` picks the victim of the scalar
//! [`select_victim`](zcache_core::select_victim) scan.
//!
//! [`ReplacementPolicy::score_slots`]: zcache_core::ReplacementPolicy::score_slots
//! [`ReplacementPolicy::score`]: zcache_core::ReplacementPolicy::score

use proptest::prelude::*;
use zcache_core::{
    select_victim, AccessCtx, Candidate, CandidateSet, PolicyKind, ReplacementPolicy, SlotId,
};

const LINES: u64 = 64;

fn all_policies() -> Vec<(&'static str, PolicyKind)> {
    vec![
        ("lru", PolicyKind::Lru),
        ("bucketed-lru", PolicyKind::BucketedLru { bits: 4, k: 8 }),
        ("lfu", PolicyKind::Lfu),
        ("random", PolicyKind::Random),
        ("opt", PolicyKind::Opt),
        ("rrip", PolicyKind::Rrip),
        ("drrip", PolicyKind::Drrip),
        ("tree-plru", PolicyKind::TreePlru),
    ]
}

/// One synthetic policy event as a raw tuple:
/// `(kind, slot, other, addr, next_use)` — `kind % 4` selects
/// fill/hit/evict/move.
type Event = (u8, u8, u8, u64, u64);

fn events() -> impl Strategy<Value = Vec<Event>> {
    prop::collection::vec(
        (
            any::<u8>(),
            any::<u8>(),
            any::<u8>(),
            0..1_000u64,
            0..10_000u64,
        ),
        1..200,
    )
}

fn cand_slots() -> impl Strategy<Value = Vec<(u8, bool)>> {
    // (slot, occupied): empty candidates carry `addr: None`, whose slots
    // `score_slots` must score exactly like `score` does.
    prop::collection::vec((any::<u8>(), any::<bool>()), 1..52)
}

proptest! {
    #[test]
    fn score_slots_matches_score_elementwise(
        evs in events(),
        cands in cand_slots(),
        seed in 0..u64::MAX,
    ) {
        for (name, kind) in all_policies() {
            let mut p = kind.build_with_ways(LINES, 4, seed);
            for &(kind, slot, other, addr, next_use) in &evs {
                let slot = SlotId(u32::from(slot) % LINES as u32);
                let ctx = AccessCtx { next_use };
                match kind % 4 {
                    0 => p.on_fill(slot, addr, &ctx),
                    1 => p.on_hit(slot, addr, &ctx),
                    2 => p.on_evict(slot),
                    _ => p.on_move(slot, SlotId(u32::from(other) % LINES as u32)),
                }
            }
            let set: Vec<Candidate> = cands
                .iter()
                .enumerate()
                .map(|(i, &(s, occupied))| Candidate {
                    slot: SlotId(u32::from(s) % LINES as u32),
                    addr: occupied.then_some(u64::from(s)),
                    token: i as u32,
                })
                .collect();
            let slots: Vec<SlotId> = set.iter().map(|c| c.slot).collect();
            let mut batched = Vec::new();
            p.score_slots(&slots, &mut batched);
            let scalar: Vec<u64> = slots.iter().map(|&s| p.score(s)).collect();
            prop_assert_eq!(
                &batched,
                &scalar,
                "policy {} diverged between score_slots and score",
                name
            );
            let mut cs = CandidateSet::new();
            for &c in &set {
                cs.push(c);
            }
            prop_assert_eq!(
                cs.select_with(&p),
                select_victim(&p, &set),
                "policy {} selected a different victim",
                name
            );
        }
    }
}
