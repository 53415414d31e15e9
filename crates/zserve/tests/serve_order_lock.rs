//! Order lock for the service loop: every modelled number of a run,
//! pinned.
//!
//! The client acts on each tick's due timeouts, hedges and retries in
//! pending-table layout order, and that order decides shard queue
//! order — hence hits, latencies, retries and digests. This test pins
//! an FNV digest of the whole [`ServeReport`] (every [`ServeStats`]
//! counter, each latency sample, `ticks`, the shard digests and
//! `combined_digest`) for the smoke schedule matrix — all eight
//! schedules, overload included — on seeds 1–4. Sorting a tick's due
//! ops by `op_id` instead of table slot, for one, moves 17 of the 32.
//!
//! The pins must only ever change together with a documented change of
//! the service model.

use zserve::soak::{effective_cfg, schedule_matrix};
use zserve::{ServeConfig, ServeReport, ServeStats, ZServe};

/// `(seed, schedule name, report digest)`, captured from the
/// full-table-scan client that the deadline queues replaced.
const PINNED: [(u64, &str, u64); 32] = [
    (1, "baseline", 0x72831e98114c8733),
    (1, "stall", 0x5daa4f9aa55d8ecc),
    (1, "slowdown", 0x72831e98114c8733),
    (1, "drop", 0x8e5483199164bc6c),
    (1, "burst", 0x2ca723cd9e4649d8),
    (1, "poison", 0x50ea560225cda6be),
    (1, "mixed", 0x0f304cac2411ea70),
    (1, "overload", 0x37f76a96f363cc5a),
    (2, "baseline", 0x9d32c3ed92b1915b),
    (2, "stall", 0x5ca831a5f3cb2daa),
    (2, "slowdown", 0x9d32c3ed92b1915b),
    (2, "drop", 0x9281c05be9caf692),
    (2, "burst", 0x9c7b8459646d13e5),
    (2, "poison", 0xea2cbc941d46c925),
    (2, "mixed", 0x93cdbf79340fdf52),
    (2, "overload", 0x4a4a34f0c27fc7dd),
    (3, "baseline", 0xb6eb00b27c8eec57),
    (3, "stall", 0x099822dace43bdae),
    (3, "slowdown", 0xb6eb00b27c8eec57),
    (3, "drop", 0x137316612ed18fdb),
    (3, "burst", 0xa87e290d3accadd8),
    (3, "poison", 0x6d0fee8739afbd0b),
    (3, "mixed", 0x33837d82aca31952),
    (3, "overload", 0x158b180aadeee179),
    (4, "baseline", 0xb9cd0149980d3e65),
    (4, "stall", 0x85ce92cf2adad2c5),
    (4, "slowdown", 0xb9cd0149980d3e65),
    (4, "drop", 0x81bd3c98d586747c),
    (4, "burst", 0x670d6f96c74e4d50),
    (4, "poison", 0x24c507f5052706f4),
    (4, "mixed", 0x57ef8e67e51d6921),
    (4, "overload", 0x2365cda98c5b9c69),
];

const FNV_SEED: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Folds every field of a report into one digest.
fn report_digest(r: &ServeReport) -> u64 {
    let ServeStats {
        ops_issued,
        acked,
        duplicate_acks,
        failed,
        hits,
        misses,
        queue_rejections,
        admission_rejections,
        retries,
        hedges,
        timeouts,
        dropped_replies,
        shard_crashes,
        shard_rebuilds,
        budget_reductions,
        budget_restorations,
        latencies,
    } = &r.stats;
    let counters = [
        *ops_issued,
        *acked,
        *duplicate_acks,
        *failed,
        *hits,
        *misses,
        *queue_rejections,
        *admission_rejections,
        *retries,
        *hedges,
        *timeouts,
        *dropped_replies,
        *shard_crashes,
        *shard_rebuilds,
        *budget_reductions,
        *budget_restorations,
        latencies.len() as u64,
    ];
    let tail = [r.ticks, r.combined_digest, u64::from(r.livelocked)];
    counters
        .iter()
        .chain(latencies)
        .chain(&r.shard_digests)
        .chain(&tail)
        .fold(FNV_SEED, |d, &x| (d ^ x).wrapping_mul(FNV_PRIME))
}

fn matrix_digests() -> Vec<(u64, String, u64)> {
    let base = ServeConfig::default().smoke();
    let mut out = Vec::new();
    for seed in 1..=4u64 {
        for schedule in schedule_matrix(&base, seed) {
            let cfg = effective_cfg(&base, &schedule, seed);
            let report = ZServe::new(cfg, schedule.plan).run();
            out.push((seed, schedule.name, report_digest(&report)));
        }
    }
    out
}

#[test]
fn smoke_matrix_reports_match_pins() {
    let got = matrix_digests();
    let table: String = got
        .iter()
        .map(|(seed, name, d)| format!("    ({seed}, {name:?}, 0x{d:016x}),\n"))
        .collect();
    let pinned: Vec<(u64, String, u64)> = PINNED
        .iter()
        .map(|&(seed, name, d)| (seed, name.to_string(), d))
        .collect();
    assert_eq!(got, pinned, "service reports moved; now:\n{table}");
}
