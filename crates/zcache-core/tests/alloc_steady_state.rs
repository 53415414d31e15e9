//! Steady-state allocation audit for the zcache hot path.
//!
//! The miss path (`lookup` → walk → select → `install`) is the
//! simulator's inner loop; after warm-up it must not touch the heap.
//! A global allocator counting per thread makes that a hard test
//! rather than a bench note: the walk table's columns, its path, stack
//! and score buffers, the caller's `CandidateSet` and the
//! `InstallOutcome` move list are all reusable buffers that reach their
//! steady-state capacity during warm-up.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use zcache_core::{
    ArrayKind, CacheArray, CacheBuilder, CandidateSet, InstallOutcome, PartitionConfig,
    PartitionedCache, PolicyKind, TenantGrant, WalkKind, ZArray,
};

struct CountingAlloc;

thread_local! {
    /// Allocations made by this thread. Per thread, so tests running in
    /// parallel never count each other's warm-ups.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_alloc() {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_alloc();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Drives `steps` misses through the array, always evicting the first
/// non-empty candidate (worst case for relocation-chain length when the
/// set is walked deepest-first is irrelevant here — any victim works).
fn drive(z: &mut ZArray, cands: &mut CandidateSet, out: &mut InstallOutcome, lo: u64, steps: u64) {
    for a in lo..lo + steps {
        if z.lookup(a).is_some() {
            continue;
        }
        z.candidates(a, cands);
        let victim = cands
            .first_empty()
            .copied()
            .unwrap_or_else(|| *cands.as_slice().last().unwrap());
        z.install(a, &victim, out);
    }
}

fn assert_steady(mut z: ZArray, label: &str) {
    let mut cands = CandidateSet::new();
    let mut out = InstallOutcome::default();
    // Warm-up: fill the array and let every reusable buffer reach its
    // steady-state capacity.
    drive(&mut z, &mut cands, &mut out, 0, 4_000);
    // Steady state: misses on fresh addresses, full walks, deep victims.
    let before = allocs();
    drive(&mut z, &mut cands, &mut out, 1_000_000, 2_000);
    let after = allocs();
    assert_eq!(
        after - before,
        0,
        "{label}: steady-state walk/install path allocated {} time(s)",
        after - before
    );
}

#[test]
fn bfs_install_path_is_allocation_free() {
    assert_steady(ZArray::new(1 << 10, 4, 3, 7), "Z4/52 BFS");
}

#[test]
fn dfs_install_path_is_allocation_free() {
    assert_steady(
        ZArray::new(1 << 10, 4, 3, 7).with_walk_kind(WalkKind::Dfs),
        "Z4/52 DFS",
    );
}

/// The cache's own access path: `Cache::access_full` on a `DynCache`
/// Z4/52 under LRU selects victims straight off the walk table, and
/// neither that nor the enum dispatch may allocate.
#[test]
fn dyn_cache_miss_path_is_allocation_free() {
    let mut cache = CacheBuilder::new()
        .lines(1 << 10)
        .ways(4)
        .array(ArrayKind::ZCache { levels: 3 })
        .policy(PolicyKind::Lru)
        .seed(7)
        .build();
    let drive = |cache: &mut zcache_core::DynCache, lo: u64, steps: u64| {
        for a in lo..lo + steps {
            // Fresh addresses: every access misses into a full array.
            assert!(cache.access_full(a, a % 3 == 0, u64::MAX).is_miss());
        }
    };
    drive(&mut cache, 0, 4_000);
    let before = allocs();
    drive(&mut cache, 1_000_000, 2_000);
    let after = allocs();
    assert_eq!(
        after - before,
        0,
        "DynCache steady-state miss path allocated {} time(s)",
        after - before
    );
}

/// The multi-tenant wrapper layers quota-aware victim selection (a
/// closure over the candidate/score slices) and per-tenant bookkeeping
/// on top of the walk; none of it may allocate once the shared array's
/// buffers reach steady-state capacity.
#[test]
fn partitioned_access_path_is_allocation_free() {
    let cfg = PartitionConfig::new(
        1 << 10,
        4,
        3,
        PolicyKind::Lru,
        7,
        vec![
            TenantGrant {
                quota: 600,
                walk_budget: u32::MAX,
            },
            TenantGrant {
                quota: 300,
                // A capped walk exercises the walk's cap checks next to
                // the uncapped tenant's full walks.
                walk_budget: 20,
            },
        ],
    );
    let mut part = PartitionedCache::new(&cfg);
    let drive = |part: &mut PartitionedCache, lo: u64, steps: u64| {
        for a in lo..lo + steps {
            // Both tenants miss, walk under different budgets, and evict
            // across quota boundaries; every third access is a write.
            part.access(0, a, a % 3 == 0);
            part.access(1, a ^ 0x5a5a, false);
        }
    };
    drive(&mut part, 0, 4_000);
    let before = allocs();
    drive(&mut part, 1_000_000, 2_000);
    let after = allocs();
    assert_eq!(
        after - before,
        0,
        "partitioned steady-state access path allocated {} time(s)",
        after - before
    );
}
