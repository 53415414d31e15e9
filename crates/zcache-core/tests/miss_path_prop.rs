//! Property test: the cache's access path and the two-pass materialized
//! path pick the same victims.
//!
//! [`Cache::access_full`] selects through
//! [`CacheArray::candidates_select`], which on a zcache scores the walk
//! table's slot column in place and builds no candidate records. The
//! reference here drives a clone of the same array and policy through
//! the public two-pass sequence — [`CacheArray::candidates`],
//! [`ReplacementPolicy::before_select`], [`CandidateSet::select_with`],
//! [`CacheArray::install`] — the way the traced benchmark pass does.
//! For every array organization × policy, on random streams, both sides
//! must agree on hits, on the candidate records
//! ([`Cache::last_candidates`] is rebuilt on request), on the walk
//! summary, on every install (eviction, relocations, filled frame) and
//! on the final tag placement.
//!
//! [`Cache::access_full`]: zcache_core::Cache::access_full
//! [`Cache::last_candidates`]: zcache_core::Cache::last_candidates
//! [`CacheArray::candidates_select`]: zcache_core::CacheArray::candidates_select
//! [`CacheArray::candidates`]: zcache_core::CacheArray::candidates
//! [`CacheArray::install`]: zcache_core::CacheArray::install
//! [`ReplacementPolicy::before_select`]: zcache_core::ReplacementPolicy::before_select
//! [`CandidateSet::select_with`]: zcache_core::CandidateSet::select_with

use proptest::prelude::*;
use zcache_core::{
    AccessCtx, ArrayKind, CacheArray, CacheBuilder, CandidateSet, InstallOutcome, PolicyKind,
    ReplacementPolicy, WalkKind,
};
use zhash::HashKind;

const LINES: u64 = 64;

/// Every array organization, plus the zcache walk variants the walk
/// kernel treats separately (a candidate cap, Bloom dedup, DFS order).
fn builders() -> Vec<(&'static str, CacheBuilder)> {
    let base = || CacheBuilder::new().lines(LINES).ways(4);
    let z3 = || base().array(ArrayKind::ZCache { levels: 3 });
    vec![
        (
            "sa-bitsel",
            base().array(ArrayKind::SetAssoc {
                hash: HashKind::BitSelect,
            }),
        ),
        (
            "sa-h3",
            base().array(ArrayKind::SetAssoc { hash: HashKind::H3 }),
        ),
        ("skew", base().array(ArrayKind::Skew)),
        ("z2", base().array(ArrayKind::ZCache { levels: 2 })),
        ("z3", z3()),
        ("z3-cap7", z3().max_candidates(7)),
        ("z3-bloom", z3().bloom_dedup(true)),
        ("z3-dfs", z3().walk_kind(WalkKind::Dfs)),
        ("fully", base().array(ArrayKind::Fully)),
        ("random8", base().array(ArrayKind::RandomCands { n: 8 })),
    ]
}

fn policies() -> Vec<PolicyKind> {
    vec![
        PolicyKind::Lru,
        PolicyKind::BucketedLru { bits: 4, k: 8 },
        PolicyKind::Lfu,
        PolicyKind::Random,
        PolicyKind::Opt,
        PolicyKind::Rrip,
        PolicyKind::Drrip,
        PolicyKind::TreePlru,
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn access_path_matches_materialized_path(
        refs in prop::collection::vec((0..160u64, any::<bool>(), 0..4_000u64), 200..600),
        seed in 0..u64::MAX,
    ) {
        for (name, builder) in builders() {
            for policy in policies() {
                let mut cache = builder.clone().policy(policy).seed(seed).build();
                let mut array = cache.array().clone();
                let mut pol = cache.policy().clone();
                let mut cands = CandidateSet::new();
                let mut install = InstallOutcome::default();
                for (i, &(addr, write, next_use)) in refs.iter().enumerate() {
                    let out = cache.access_full(addr, write, next_use);
                    let ctx = AccessCtx { next_use };
                    if let Some(slot) = array.lookup_mut(addr) {
                        prop_assert!(out.hit, "{} {}: access {} hit only in the reference", name, policy, i);
                        pol.on_hit(slot, addr, &ctx);
                        continue;
                    }
                    prop_assert!(!out.hit, "{} {}: access {} hit only in the cache", name, policy, i);
                    array.candidates(addr, &mut cands);
                    pol.before_select(cands.as_slice());
                    let victim = cands.select_with(&pol).expect("candidate sets are never empty");
                    array.install(addr, &victim, &mut install);
                    if let Some(slot) = install.evicted_slot {
                        pol.on_evict(slot);
                    }
                    for &(from, to) in &install.moves {
                        pol.on_move(from, to);
                    }
                    pol.on_fill(install.filled_slot, addr, &ctx);

                    let last = cache.last_candidates();
                    prop_assert_eq!(last.as_slice(), cands.as_slice(), "{} {}: candidates at access {}", name, policy, i);
                    prop_assert_eq!((last.levels, last.tag_reads), (cands.levels, cands.tag_reads));
                    let walk = cache.last_walk();
                    prop_assert_eq!(
                        (walk.candidates as usize, walk.levels, walk.tag_reads),
                        (cands.len(), cands.levels, cands.tag_reads),
                        "{} {}: walk summary at access {}", name, policy, i
                    );
                    prop_assert_eq!(cache.last_install(), &install, "{} {}: install at access {}", name, policy, i);
                    prop_assert_eq!(out.evicted, victim.addr, "{} {}: victim at access {}", name, policy, i);
                }
                prop_assert_eq!(cache.array().state_digest(), array.state_digest(), "{} {}: final placement", name, policy);
            }
        }
    }
}
