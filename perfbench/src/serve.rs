//! `serve-chaos`: the full zserve soak matrix at `ServeConfig::default()`
//! size, plus a capacity ladder.
//!
//! Per sub-seed: the eight schedules of `schedule_matrix` (baseline,
//! stall, slowdown, drop, burst, poison, mixed, overload), each 24 000
//! YCSB-A ops over 4 shards of 1024-frame Z4/52, then the fault-free
//! schedule at a ladder of arrival rates. Traffic is open loop in virtual
//! time: each tick admits `ops_per_tick` new ops whatever the backlog
//! (up to the client's in-flight limit, beyond which arrivals wait), and
//! latency runs from an op's first submission to its ack. The only
//! workload of zserve's queue, retry, hedge and rebuild layer, and the
//! only one with failing operations: the overload schedule sheds ops,
//! which are counted, not hidden.

use crate::reference::Clock;
use crate::trace::Tracer;
use crate::{fnv, median, Bench, Layers, Modelled, PassOut, FNV_SEED};
use zserve::soak::{schedule_matrix, soak_point, Schedule};
use zserve::{FaultPlan, LatencySummary, ServeConfig, ServeReport, ZServe};

/// Soak matrices per pass; the sub-seeds of `--seed s` are
/// `s·K + 1 ..= s·K + K`, so seed 0 covers `zbench serve --chaos`'s 1–4.
/// Pooling eight matrices keeps the modelled results steady across seeds.
const SUB_SEEDS: u64 = 8;

/// Arrival rates of the capacity ladder, ops/tick: from the default rate
/// to well past the shard tier's saturation, finer where it saturates.
const LADDER: [u32; 17] = [
    8, 16, 24, 32, 40, 48, 56, 64, 68, 72, 76, 80, 84, 88, 96, 112, 128,
];

/// Latency limit of the capacity ladder, ticks: half the 64-tick client
/// timeout, below the 48-tick hedge.
const P99_LIMIT: u64 = 32;

/// What one service run is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Job {
    /// Schedule `schedule` of sub-seed `sub`'s soak matrix.
    Matrix { sub: usize, schedule: usize },
    /// The fault-free schedule of sub-seed `sub` at `rate` ops/tick.
    Ladder { sub: usize, rate: u32 },
}

/// The soak's overload variant of a config: `zserve::soak` applies the
/// same surge (5× arrivals against a fifth of the service rate, with a
/// deeper in-flight window); `check` verifies the two agree.
fn overload(mut cfg: ServeConfig) -> ServeConfig {
    cfg.ops_per_tick *= 5;
    cfg.units_per_tick = (cfg.units_per_tick / 5).max(1);
    cfg.inflight_limit = cfg.inflight_limit.max(512);
    cfg
}

/// The serve-chaos workload.
pub struct ServeChaos {
    base: ServeConfig,
    subs: Vec<u64>,
    matrices: Vec<Vec<Schedule>>,
    jobs: Vec<(Job, ServeConfig, FaultPlan)>,
    /// Reports of the latest pass, one per job.
    reports: Vec<ServeReport>,
}

impl ServeChaos {
    /// Builds every schedule and config, and times the construction of
    /// each service once (passes rebuild them outside the timed section).
    pub fn new(seed: u64) -> Self {
        let base = ServeConfig::default();
        let subs: Vec<u64> = (1..=SUB_SEEDS)
            .map(|i| seed.wrapping_mul(SUB_SEEDS).wrapping_add(i))
            .collect();
        let matrices: Vec<Vec<Schedule>> =
            subs.iter().map(|&s| schedule_matrix(&base, s)).collect();
        let mut jobs = Vec::new();
        for (sub, (&s, matrix)) in subs.iter().zip(&matrices).enumerate() {
            for (schedule, sch) in matrix.iter().enumerate() {
                let mut cfg = ServeConfig {
                    seed: s,
                    ..base.clone()
                };
                if sch.overload {
                    cfg = overload(cfg);
                }
                jobs.push((Job::Matrix { sub, schedule }, cfg, sch.plan.clone()));
            }
            for rate in LADDER {
                let cfg = ServeConfig {
                    seed: s,
                    ops_per_tick: rate,
                    ..base.clone()
                };
                jobs.push((Job::Ladder { sub, rate }, cfg, FaultPlan::none()));
            }
        }
        for (_, cfg, plan) in &jobs {
            std::hint::black_box(ZServe::new(cfg.clone(), plan.clone()));
        }
        Self {
            base,
            subs,
            matrices,
            jobs,
            reports: Vec::new(),
        }
    }

    /// Reports of the soak-matrix runs (the ladder left out).
    fn matrix_reports(&self) -> impl Iterator<Item = &ServeReport> {
        self.jobs
            .iter()
            .zip(&self.reports)
            .filter(|((j, _, _), _)| matches!(j, Job::Matrix { .. }))
            .map(|(_, r)| r)
    }

    /// Whether a ladder rung meets the latency limit with no failed op
    /// and no backlog at admission.
    fn rung_ok(r: &ServeReport) -> bool {
        r.stats.latency_summary().p99 <= P99_LIMIT
            && r.stats.failed == 0
            && r.stats.admission_rejections == 0
            && !r.livelocked
    }

    /// Per sub-seed: the highest ladder rate that meets the limits.
    fn capacities(&self) -> Vec<f64> {
        (0..self.subs.len())
            .map(|s| {
                self.jobs
                    .iter()
                    .zip(&self.reports)
                    .filter_map(|((j, _, _), r)| match *j {
                        Job::Ladder { sub, rate } if sub == s && Self::rung_ok(r) => Some(rate),
                        _ => None,
                    })
                    .max()
                    .map_or(0.0, f64::from)
            })
            .collect()
    }
}

fn report_digest(h: u64, r: &ServeReport) -> u64 {
    let s = &r.stats;
    let h = fnv(
        h,
        &[
            s.ops_issued,
            s.acked,
            s.duplicate_acks,
            s.failed,
            s.hits,
            s.misses,
            s.queue_rejections,
            s.admission_rejections,
            s.retries,
            s.hedges,
            s.timeouts,
            s.dropped_replies,
            s.shard_crashes,
            s.shard_rebuilds,
            s.budget_reductions,
            s.budget_restorations,
            r.ticks,
            r.combined_digest,
            u64::from(r.livelocked),
        ],
    );
    fnv(h, &s.latencies)
}

impl Bench for ServeChaos {
    fn pass(&mut self, tr: &mut Tracer, clock: &mut Clock) -> PassOut {
        // Free the previous pass's latency samples before making new ones.
        self.reports.clear();
        let mut reports = Vec::with_capacity(self.jobs.len());
        for (_, cfg, plan) in &self.jobs {
            // Construction is set-up work: only the run is timed.
            let svc = ZServe::new(cfg.clone(), plan.clone());
            clock.start();
            let id = tr.enter("zserve.run");
            reports.push(svc.run());
            tr.exit(id);
            clock.stop();
        }
        let accesses = reports.iter().map(|r| r.stats.acked).sum();
        let digest = reports.iter().fold(FNV_SEED, report_digest);
        self.reports = reports;
        PassOut { accesses, digest }
    }

    fn check(&mut self, failures: &mut Vec<String>) {
        for ((job, cfg, _), r) in self.jobs.iter().zip(&self.reports) {
            let s = &r.stats;
            // Exactly-once acks: every op ends acked once or failed once
            // (a livelocked run fails everything outstanding), and every
            // ack is counted once.
            if s.acked + s.failed != cfg.total_ops {
                failures.push(format!(
                    "serve-chaos {job:?}: acked {} + failed {} != {} ops",
                    s.acked, s.failed, cfg.total_ops
                ));
            }
            if s.latencies.len() as u64 != s.acked {
                failures.push(format!(
                    "serve-chaos {job:?}: {} latency samples for {} acks",
                    s.latencies.len(),
                    s.acked
                ));
            }
            if !r.livelocked && s.ops_issued != cfg.total_ops {
                failures.push(format!(
                    "serve-chaos {job:?}: issued {} of {} ops",
                    s.ops_issued, cfg.total_ops
                ));
            }
        }
        // The first matrix as run here must match the soak harness's own
        // run of the same points (configs, overload variant, outcomes).
        for (schedule, sch) in self.matrices[0].iter().enumerate() {
            let row = soak_point(&self.base, sch, self.subs[0], false);
            let r = &self.reports[schedule];
            if (row.acked, row.failed, row.ticks, row.digest)
                != (r.stats.acked, r.stats.failed, r.ticks, r.combined_digest)
            {
                failures.push(format!(
                    "serve-chaos: schedule {} differs from zserve::soak's run",
                    sch.name
                ));
            }
        }
    }

    fn modelled(&self) -> Modelled {
        let (mut hits, mut misses, mut acked, mut ops) = (0u64, 0u64, 0u64, 0u64);
        let mut latencies = Vec::new();
        for r in self.matrix_reports() {
            hits += r.stats.hits;
            misses += r.stats.misses;
            acked += r.stats.acked;
            ops += self.base.total_ops;
            latencies.extend_from_slice(&r.stats.latencies);
        }
        Modelled {
            miss_ratio: misses as f64 / (hits + misses).max(1) as f64,
            p99_latency_ticks: Some(LatencySummary::from_samples(&latencies).p99 as f64),
            capacity_ops_per_tick: Some(median(&self.capacities())),
            acked_frac: acked as f64 / ops as f64,
            ..Modelled::default()
        }
    }

    fn layers(&mut self, tr: &mut Tracer, out: &mut Layers) {
        let passes = self.traced_passes() as f64;
        let run = tr.totals().get("zserve.run").map_or(0, |t| t.total_ns);
        let ticks: u64 = self.reports.iter().map(|r| r.ticks).sum();
        out.insert("zserve.run_s", run as f64 * 1e-9 / passes);
        out.insert("zserve.ns_per_tick", run as f64 / passes / ticks as f64);
        out.insert("zserve.ticks", ticks as f64);

        let sum = |f: fn(&ServeReport) -> u64| self.matrix_reports().map(f).sum::<u64>() as f64;
        let issued = sum(|r| r.stats.ops_issued);
        let (retries, hedges) = (sum(|r| r.stats.retries), sum(|r| r.stats.hedges));
        let (hits, misses) = (sum(|r| r.stats.hits), sum(|r| r.stats.misses));
        out.insert("zserve.retries_per_op", retries / issued);
        out.insert("zserve.hedges_per_op", hedges / issued);
        out.insert("zserve.timeouts", sum(|r| r.stats.timeouts));
        out.insert("zserve.queue_rejections", sum(|r| r.stats.queue_rejections));
        out.insert(
            "zserve.admission_rejections",
            sum(|r| r.stats.admission_rejections),
        );
        out.insert(
            "zserve.budget_reductions",
            sum(|r| r.stats.budget_reductions),
        );
        out.insert("zserve.shard_crashes", sum(|r| r.stats.shard_crashes));
        out.insert("zserve.shard.hit_ratio", hits / (hits + misses));
        out.insert(
            "zserve.acks_per_attempt",
            sum(|r| r.stats.acked) / (issued + retries + hedges),
        );
        out.insert("zserve.failed_frac", 1.0 - self.modelled().acked_frac);
    }

    fn describe(&self) -> Vec<String> {
        let mut lines = Vec::new();
        for (sub, &s) in self.subs.iter().enumerate() {
            let rungs: Vec<String> = self
                .jobs
                .iter()
                .zip(&self.reports)
                .filter_map(|((j, _, _), r)| match *j {
                    Job::Ladder { sub: js, rate } if js == sub => Some(format!(
                        "{rate}:p99={}{}",
                        r.stats.latency_summary().p99,
                        if Self::rung_ok(r) { "" } else { "x" }
                    )),
                    _ => None,
                })
                .collect();
            lines.push(format!("ladder seed {s}: {}", rungs.join(" ")));
        }
        for ((job, _, _), r) in self.jobs.iter().zip(&self.reports) {
            if let Job::Matrix { sub, schedule } = *job {
                if r.stats.failed > 0 || r.livelocked {
                    lines.push(format!(
                        "seed {} {}: {} of {} ops failed{}",
                        self.subs[sub],
                        self.matrices[sub][schedule].name,
                        self.base.total_ops - r.stats.acked,
                        self.base.total_ops,
                        if r.livelocked { " (livelocked)" } else { "" }
                    ));
                }
            }
        }
        lines
    }
}
