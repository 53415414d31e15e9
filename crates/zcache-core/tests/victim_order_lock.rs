//! Victim-order regression lock for the cache miss path.
//!
//! `walk_order_lock` pins the candidate sequence a walk emits; this test
//! pins what the cache *does* with it. Every miss of a fixed-seed mixed
//! read/write stream is driven through [`Cache::access_full`], and its
//! eviction (victim slot, evicted address, dirtiness), relocation moves
//! and filled slot are folded into one digest per walk shape × policy.
//!
//! The shapes are those of `walk_order_lock` (4-way BFS at three depths,
//! capped walks, Bloom dedup, 3- and 5-way arrays, DFS); the policies
//! span unique scores (LRU), future knowledge (OPT), a mutating select
//! prepass with heavy score ties (RRIP) and coarse timestamps with ties
//! (bucketed LRU). Victim selection takes the first of equally scored
//! candidates, so a selection scan that let a later tie win would
//! change these digests.
//!
//! The pinned values were captured from the two-pass miss path
//! (candidate records, `before_select`, batched scoring, first-wins max
//! scan). If an intentional semantic change ever invalidates them,
//! re-pin alongside the goldens of `zbench check` — never to silence a
//! diff.

use zcache_core::{Cache, OptTrace, PolicyKind, WalkKind, ZArray};
use zhash::SplitMix64;

/// FNV-1a step over one 64-bit value.
fn fold(digest: &mut u64, v: u64) {
    *digest = (*digest ^ v).wrapping_mul(0x0000_0100_0000_01b3);
}

struct Shape {
    name: &'static str,
    ways: u32,
    levels: u32,
    kind: WalkKind,
    bloom: bool,
    max_candidates: Option<u32>,
}

const fn bfs(name: &'static str, ways: u32, levels: u32, cap: Option<u32>) -> Shape {
    Shape {
        name,
        ways,
        levels,
        kind: WalkKind::Bfs,
        bloom: false,
        max_candidates: cap,
    }
}

const SHAPES: &[Shape] = &[
    bfs("z2", 4, 2, None),
    bfs("z3", 4, 3, None),
    bfs("z4", 4, 4, None),
    bfs("z4-cap100", 4, 4, Some(100)),
    bfs("z3-cap5", 4, 3, Some(5)),
    Shape {
        bloom: true,
        ..bfs("z3-bloom", 4, 3, None)
    },
    bfs("w3-l3", 3, 3, None),
    bfs("w5-l2", 5, 2, None),
    Shape {
        kind: WalkKind::Dfs,
        ..bfs("z3-dfs", 4, 3, None)
    },
];

const POLICIES: &[(&str, PolicyKind)] = &[
    ("lru", PolicyKind::Lru),
    ("opt", PolicyKind::Opt),
    ("rrip", PolicyKind::Rrip),
    ("bucketed-lru", PolicyKind::BucketedLru { bits: 8, k: 64 }),
];

/// Pinned digests, one per `shape/policy` pair.
const EXPECTED: &[(&str, u64)] = &[
    ("z2/lru", 0x3467f089c3f871b0),
    ("z2/opt", 0x456736fa610286eb),
    ("z2/rrip", 0x8b4cb1f449722e19),
    ("z2/bucketed-lru", 0xa12f7dced36e33d9),
    ("z3/lru", 0xbcd9bc5cf5433d62),
    ("z3/opt", 0x639a393e42c75e04),
    ("z3/rrip", 0x6311df2e3915c021),
    ("z3/bucketed-lru", 0x800b481f74650949),
    ("z4/lru", 0x63ca40375a9ddd71),
    ("z4/opt", 0xc802904804244549),
    ("z4/rrip", 0xdce9a4d82950c9ce),
    ("z4/bucketed-lru", 0x16d427abf2db5c75),
    ("z4-cap100/lru", 0x4b5bf8f6d84719fd),
    ("z4-cap100/opt", 0x48139745fc04d863),
    ("z4-cap100/rrip", 0xc52429d025066c20),
    ("z4-cap100/bucketed-lru", 0xb11bac3df1c5d7b0),
    ("z3-cap5/lru", 0xf99db27459fe6f4f),
    ("z3-cap5/opt", 0x272ab70691943507),
    ("z3-cap5/rrip", 0x28176f0d6b63a777),
    ("z3-cap5/bucketed-lru", 0xcb4e0ec40f0da5bb),
    ("z3-bloom/lru", 0xd69f7357f2d13d57),
    ("z3-bloom/opt", 0x639a393e42c75e04),
    ("z3-bloom/rrip", 0x2c1900ff0ce12723),
    ("z3-bloom/bucketed-lru", 0x792efb70a5576bb3),
    ("w3-l3/lru", 0xf0aac0202186b1e0),
    ("w3-l3/opt", 0x75cba51b8af7fdf1),
    ("w3-l3/rrip", 0x819b92438c391e64),
    ("w3-l3/bucketed-lru", 0x66d7d8ccbbc9a71f),
    ("w5-l2/lru", 0xb88587ed1066fcde),
    ("w5-l2/opt", 0xdfa7b31a83e96d94),
    ("w5-l2/rrip", 0x1ec48a737c32bb12),
    ("w5-l2/bucketed-lru", 0x0d05e552ac33140d),
    ("z3-dfs/lru", 0xea46a3a42cc44e9a),
    ("z3-dfs/opt", 0xca6076127241045c),
    ("z3-dfs/rrip", 0x42231a45335cd73b),
    ("z3-dfs/bucketed-lru", 0x97ec822cbb6e98c6),
];

/// Accesses per shape × policy run.
const ACCESSES: usize = 12_000;

fn digest_run(shape: &Shape, policy: PolicyKind) -> u64 {
    let lines = 256 * u64::from(shape.ways);
    let mut z = ZArray::new(lines, shape.ways, shape.levels, 11).with_walk_kind(shape.kind);
    if shape.bloom {
        z = z.with_bloom_dedup(true);
    }
    if let Some(cap) = shape.max_candidates {
        z = z.with_max_candidates(cap);
    }
    let mut cache = Cache::new(z, policy.build_with_ways(lines, shape.ways, 5));
    // A skewed stream over ~3x the capacity: hot lines hit, cold lines
    // miss into a full array, so walks run at full depth.
    let mut rng = SplitMix64::new(23);
    let refs: Vec<(u64, bool)> = (0..ACCESSES)
        .map(|_| {
            let hot = rng.next_below(4) != 0;
            let span = if hot { lines / 2 } else { lines * 3 };
            (rng.next_below(span) + 1, rng.next_below(5) == 0)
        })
        .collect();
    let trace = OptTrace::new(refs.iter().map(|&(a, _)| a).collect());
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    for (i, &(addr, write)) in refs.iter().enumerate() {
        let out = cache.access_full(addr, write, trace.next_use(i));
        if out.hit {
            continue;
        }
        let install = cache.last_install();
        fold(&mut digest, 0x5eed); // miss frame marker
        fold(
            &mut digest,
            install.evicted_slot.map_or(u64::MAX, |s| s.0.into()),
        );
        fold(&mut digest, out.evicted.unwrap_or(u64::MAX));
        fold(&mut digest, u64::from(out.evicted_dirty));
        fold(&mut digest, install.moves.len() as u64);
        for &(from, to) in &install.moves {
            fold(&mut digest, u64::from(from.0) << 32 | u64::from(to.0));
        }
        fold(&mut digest, install.filled_slot.0.into());
    }
    digest
}

fn all_digests() -> Vec<(String, u64)> {
    let mut out = Vec::new();
    for shape in SHAPES {
        for &(pname, policy) in POLICIES {
            out.push((format!("{}/{pname}", shape.name), digest_run(shape, policy)));
        }
    }
    out
}

#[test]
fn victim_order_is_locked() {
    let got = all_digests();
    assert_eq!(got.len(), EXPECTED.len(), "one pinned digest per pair");
    for (name, d) in &got {
        let want = EXPECTED
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, d)| d)
            .unwrap_or_else(|| panic!("no pinned digest for {name}"));
        assert_eq!(
            *d, want,
            "victim order changed for {name} (got {d:#018x}, pinned {want:#018x})"
        );
    }
}

/// Prints the digests for re-pinning after an *intentional* semantic
/// change: `cargo test -p zcache-core --test victim_order_lock -- --ignored --nocapture`.
#[test]
#[ignore]
fn print_digests() {
    for (name, d) in all_digests() {
        println!("    (\"{name}\", {d:#018x}),");
    }
}
