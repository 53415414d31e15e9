//! Walk-engine costs: BFS vs DFS expansion order and walk depth. The
//! paper argues BFS is the hardware-friendly order (§III-D); this bench
//! quantifies the software-model cost per walk as candidates grow
//! geometrically with depth.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use zcache_core::{CacheArray, CandidateSet, WalkKind, ZArray};

fn full_zarray(levels: u32, kind: WalkKind) -> ZArray {
    let mut z = ZArray::new(4096, 4, levels, 7).with_walk_kind(kind);
    let mut cands = CandidateSet::new();
    let mut out = zcache_core::InstallOutcome::default();
    let mut addr = 1u64;
    while z.occupancy() < 4096 {
        if z.lookup(addr).is_none() {
            z.candidates(addr, &mut cands);
            let v = *cands.first_empty().unwrap_or(&cands.as_slice()[0]);
            z.install(addr, &v, &mut out);
        }
        addr = addr.wrapping_mul(6364136223846793005).wrapping_add(1);
    }
    z
}

fn bench_walks(c: &mut Criterion) {
    let mut group = c.benchmark_group("walk");
    for levels in [1u32, 2, 3] {
        group.bench_function(format!("bfs-l{levels}"), |b| {
            let mut z = full_zarray(levels, WalkKind::Bfs);
            let mut cands = CandidateSet::new();
            let mut probe = 0u64;
            b.iter(|| {
                probe = probe.wrapping_add(0x9e37_79b9_7f4a_7c15);
                z.candidates(black_box(probe), &mut cands);
                cands.len()
            })
        });
    }
    group.bench_function("dfs-l3", |b| {
        let mut z = full_zarray(3, WalkKind::Dfs);
        let mut cands = CandidateSet::new();
        let mut probe = 0u64;
        b.iter(|| {
            probe = probe.wrapping_add(0x9e37_79b9_7f4a_7c15);
            z.candidates(black_box(probe), &mut cands);
            cands.len()
        })
    });
    group.bench_function("bfs-l3-bloom", |b| {
        let mut z = ZArray::new(4096, 4, 3, 7).with_bloom_dedup(true);
        // Fill.
        let mut cands = CandidateSet::new();
        let mut out = zcache_core::InstallOutcome::default();
        for a in 0..40_000u64 {
            if z.lookup(a).is_none() {
                z.candidates(a, &mut cands);
                let v = *cands.first_empty().unwrap_or(&cands.as_slice()[0]);
                z.install(a, &v, &mut out);
            }
        }
        let mut probe = 0u64;
        b.iter(|| {
            probe = probe.wrapping_add(0x9e37_79b9_7f4a_7c15);
            z.candidates(black_box(probe), &mut cands);
            cands.len()
        })
    });
    group.finish();
}

/// Candidates-only cost per lineup design (`z2`/`z3`/`z4` — the rows
/// BENCH_access.json pins): a full array, so every walk runs to its
/// configured depth with no empty-frame early stop. This isolates the
/// walk kernel from selection and install; run it before and after
/// touching the `ZArray` walk or its expander (the CI bench-smoke job
/// runs this group on every push).
fn bench_walk_lineup(c: &mut Criterion) {
    let mut group = c.benchmark_group("walk-lineup");
    for (name, levels) in [("z2", 2u32), ("z3", 3), ("z4", 4)] {
        group.bench_function(format!("{name}-candidates"), |b| {
            let mut z = full_zarray(levels, WalkKind::Bfs);
            let mut cands = CandidateSet::new();
            let mut probe = 0u64;
            b.iter(|| {
                probe = probe.wrapping_add(0x9e37_79b9_7f4a_7c15);
                z.candidates(black_box(probe), &mut cands);
                cands.len()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_walks, bench_walk_lineup);
criterion_main!(benches);
