//! Steady-state allocation audit for the service loop.
//!
//! A fault-free run's per-tick work — delivering replies, popping the
//! deadline queues, admitting arrivals, stepping shards — reuses
//! buffers that reach their working size early in the run. The only
//! container that grows with run length is the latency sample vector,
//! which doubles, so allocations must be flat in run length up to a
//! few doublings. A global allocator counting per thread makes that a
//! hard test: a buffer freed and rebuilt every tick shows up as
//! thousands of extra allocations in the longer run.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use zserve::{FaultPlan, ServeConfig, ZServe};

struct CountingAlloc;

thread_local! {
    /// Allocations made by this thread. Per thread, so tests running in
    /// parallel never count each other's work.
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

/// Allocations made building and running a fault-free smoke service of
/// `ops` operations.
///
/// The shard caches are shrunk to 256 frames so both run lengths fill
/// them: the arrays' own walk and relocation buffers grow until the
/// first evictions (zcache-core's allocation audit covers them after
/// that), and a 4 000-op run never evicts from 1024-frame shards.
fn run_allocs(ops: u64) -> u64 {
    let mut cfg = ServeConfig::default().smoke();
    cfg.lines_per_shard = 256;
    cfg.total_ops = ops;
    cfg.tick_limit = 4 * cfg.issue_horizon();
    let before = allocs();
    let report = ZServe::new(cfg, FaultPlan::none()).run();
    let after = allocs();
    assert_eq!(report.stats.acked, ops, "fault-free run lost acks");
    after - before
}

/// Quadrupling the run may add at most this many allocations: the
/// latency vector's two extra doublings, plus slack for buffers sized
/// by a rarer, deeper burst that only a longer run meets.
const GROWTH_BOUND: u64 = 8;

#[test]
fn fault_free_run_allocations_are_flat_in_run_length() {
    let short = run_allocs(4_000);
    let long = run_allocs(16_000);
    assert!(
        long <= short + GROWTH_BOUND,
        "16 000-op run made {long} allocations vs {short} for 4 000 ops \
         (bound: +{GROWTH_BOUND})"
    );
}
