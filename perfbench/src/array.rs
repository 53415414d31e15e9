//! `array-z52`: one Z4/52 cache (4 ways, 3-level walk, 52 candidates) of
//! 4096 frames under full LRU, driven through `Cache::access_full` by the
//! `zbench perf` reference stream.
//!
//! The H3 probe, walk, policy scoring and relocation do nearly all the
//! work, and the 64 KiB of frame records stays in the host's L1/L2, so
//! this workload isolates compute-path changes in zcache-core and zhash.
//!
//! The traced pass replays the same accesses through the array and policy
//! of the warmed cache, calling the public array API step by step
//! (lookup, walk, select, install, policy update) inside one span each.
//! It must end in the same statistics and state digest as `access_full`.

use crate::reference::Clock;
use crate::trace::Tracer;
use crate::{fnv, percentile, Bench, Layers, Modelled, PassOut, FNV_SEED};
use std::hint::black_box;
use zcache_core::{
    digest_step, AccessCtx, ArrayKind, CacheArray, CacheBuilder, CacheStats, CandidateSet,
    DynCache, InstallOutcome, LineAddr, PolicyKind, ReplacementPolicy, SlotId, DIGEST_SEED,
};
use zhash::{HashKind, Hasher64};
use zoracle::{run_diff, Access, CheckConfig, CheckDesign, CheckPolicy};
use zsim::L2Design;
use zworkloads::{AddressStream, Component, CoreSpec, Workload};

const LINES: u64 = 4096;
const WAYS: u32 = 4;
const LEVELS: u32 = 3;
/// Replacement candidates of a Z4/52 walk.
const CANDIDATES: u32 = 52;
/// Accesses replayed before the measured pass.
const WARMUP: usize = 200_000;
/// Accesses in one measured pass.
const PASS: usize = 100_000;
/// Accesses replayed in lockstep against the zoracle reference.
const ORACLE_PREFIX: usize = 20_000;

/// The `zbench perf` reference stream: one core, Zipf(0.8) over 16 K
/// lines, 20 % writes.
fn stream_spec() -> Workload {
    Workload::uniform(
        "perf",
        CoreSpec::new(
            vec![(
                1.0,
                Component::Zipf {
                    lines: 16_384,
                    s: 0.8,
                },
            )],
            0.2,
            1,
        ),
    )
}

fn gen_refs(seed: u64, n: usize) -> Vec<(u64, bool)> {
    let mut s = stream_spec().streams(1, seed).remove(0);
    (0..n)
        .map(|_| {
            let r = s.next_ref();
            (r.line, r.write)
        })
        .collect()
}

fn stats_digest(s: &CacheStats, state: u64) -> u64 {
    fnv(
        FNV_SEED,
        &[
            s.accesses,
            s.hits,
            s.misses,
            s.evictions,
            s.writebacks,
            s.invalidations,
            s.tag_reads,
            s.tag_writes,
            s.data_reads,
            s.data_writes,
            s.candidates_examined,
            s.relocations,
            s.walk_levels,
            state,
        ],
    )
}

/// The array-z52 workload.
pub struct ArrayZ52 {
    seed: u64,
    cfg: CheckConfig,
    refs: Vec<(u64, bool)>,
    /// The cache after warm-up; every pass starts from a copy.
    warm: DynCache,
    /// Statistics of the latest untraced pass.
    stats: CacheStats,
}

impl ArrayZ52 {
    /// Generates the stream, builds the cache and warms it.
    pub fn new(seed: u64) -> Self {
        let cfg = CheckConfig::new(CheckDesign::Z3, CheckPolicy::Lru, LINES, WAYS, 1);
        let refs = gen_refs(seed, WARMUP + PASS);
        let mut warm = cfg.build_dut();
        for &(a, w) in &refs[..WARMUP] {
            warm.access_full(a, w, u64::MAX);
        }
        warm.reset_stats();
        Self {
            seed,
            cfg,
            refs,
            warm,
            stats: CacheStats::new(),
        }
    }

    fn timed(&self) -> &[(u64, bool)] {
        &self.refs[WARMUP..]
    }

    /// The untraced pass: `access_full` over the measured accesses.
    fn plain_pass(&mut self, clock: &mut Clock) -> PassOut {
        let mut c = self.warm.clone();
        clock.start();
        for &(a, w) in &self.refs[WARMUP..] {
            black_box(c.access_full(a, w, u64::MAX));
        }
        clock.stop();
        self.stats = c.stats().clone();
        PassOut {
            accesses: PASS as u64,
            digest: stats_digest(c.stats(), c.state_digest()),
        }
    }

    /// The traced pass: the same accesses through the warmed cache's
    /// array and policy, one span per layer call. Rebuilds the cache's
    /// statistics and dirty bits on the side so the digest can be
    /// compared with the untraced pass.
    fn decomposed_pass(&mut self, tr: &mut Tracer, clock: &mut Clock) -> PassOut {
        let mut array = self.warm.array().clone();
        let mut policy = self.warm.policy().clone();
        let mut dirty = vec![false; LINES as usize];
        array.for_each_valid(&mut |s, a| dirty[s.idx()] = self.warm.is_dirty(a));
        let mut cands = CandidateSet::new();
        let mut install = InstallOutcome::default();
        let mut s = CacheStats::new();
        let ctx = AccessCtx { next_use: u64::MAX };
        let ways = u64::from(array.ways());

        clock.start();
        for &(a, w) in &self.refs[WARMUP..] {
            s.accesses += 1;
            let id = tr.enter("zcache.array.lookup");
            let hit = array.lookup_mut(a);
            tr.exit(id);
            if let Some(slot) = hit {
                let id = tr.enter("zcache.repl.update");
                policy.on_hit(slot, a, &ctx);
                tr.exit(id);
                s.hits += 1;
                s.tag_reads += ways;
                if w {
                    s.data_writes += 1;
                    dirty[slot.idx()] = true;
                } else {
                    s.data_reads += 1;
                }
                continue;
            }
            s.misses += 1;
            let id = tr.enter("zcache.array.walk");
            array.candidates(a, &mut cands);
            tr.exit(id);
            let id = tr.enter("zcache.repl.select");
            policy.before_select(cands.as_slice());
            let victim = cands.select_with(&policy);
            tr.exit(id);
            let victim = victim.expect("candidate sets are never empty");
            let id = tr.enter("zcache.array.install");
            array.install(a, &victim, &mut install);
            tr.exit(id);
            let id = tr.enter("zcache.repl.update");
            if let (Some(_), Some(slot)) = (install.evicted, install.evicted_slot) {
                s.evictions += 1;
                if dirty[slot.idx()] {
                    s.writebacks += 1;
                    s.data_reads += 1;
                }
                policy.on_evict(slot);
            }
            for &(from, to) in &install.moves {
                policy.on_move(from, to);
                dirty[to.idx()] = dirty[from.idx()];
            }
            dirty[install.filled_slot.idx()] = w;
            policy.on_fill(install.filled_slot, a, &ctx);
            tr.exit(id);
            let m = install.moves.len() as u64;
            s.candidates_examined += cands.len() as u64;
            s.walk_levels += u64::from(cands.levels);
            s.tag_reads += u64::from(cands.tag_reads) + m;
            s.relocations += m;
            s.tag_writes += m + 1;
            s.data_reads += m;
            s.data_writes += m + 1;
        }
        clock.stop();

        let mut resident: Vec<(SlotId, LineAddr)> = Vec::new();
        array.for_each_valid(&mut |slot, a| resident.push((slot, a)));
        resident.sort_unstable_by_key(|(slot, _)| slot.0);
        let state = resident.iter().fold(DIGEST_SEED, |h, &(slot, a)| {
            digest_step(h, slot, a, dirty[slot.idx()])
        });
        PassOut {
            accesses: PASS as u64,
            digest: stats_digest(&s, state),
        }
    }
}

impl Bench for ArrayZ52 {
    fn traced_passes(&self) -> usize {
        // About three spans per access keep the traced passes few.
        3
    }

    fn residual_checked(&self) -> bool {
        true
    }

    fn pass(&mut self, tr: &mut Tracer, clock: &mut Clock) -> PassOut {
        if tr.is_on() {
            self.decomposed_pass(tr, clock)
        } else {
            self.plain_pass(clock)
        }
    }

    fn check(&mut self, failures: &mut Vec<String>) {
        let s = &self.stats;
        if s.hits + s.misses != s.accesses || s.accesses != PASS as u64 {
            failures.push(format!(
                "array-z52: hits {} + misses {} != accesses {}",
                s.hits, s.misses, s.accesses
            ));
        }
        // Lockstep against the brute-force reference built from the same
        // CheckConfig as the measured cache.
        let prefix: Vec<Access> = self.refs[..ORACLE_PREFIX]
            .iter()
            .map(|&(addr, write)| Access { addr, write })
            .collect();
        if let Err(d) = run_diff(&self.cfg, &prefix, 1_000) {
            failures.push(format!("array-z52: zoracle divergence: {d:?}"));
        }
    }

    fn modelled(&self) -> Modelled {
        Modelled {
            miss_ratio: self.stats.miss_rate(),
            acked_frac: 1.0,
            ..Modelled::default()
        }
    }

    fn layers(&mut self, tr: &mut Tracer, out: &mut Layers) {
        let cost = out["trace.span_cost_ns"];
        let totals = tr.totals();
        let per = |name: &str, n: u64| {
            totals.get(name).map_or(0.0, |t| {
                (t.self_ns as f64 - cost * t.count as f64).max(0.0) / n.max(1) as f64
            })
        };
        let count = |name: &str| totals.get(name).map_or(0, |t| t.count);
        let (lookups, misses) = (count("zcache.array.lookup"), count("zcache.array.walk"));
        out.insert(
            "zcache.array.lookup_ns",
            per("zcache.array.lookup", lookups),
        );
        out.insert(
            "zcache.array.walk_ns_per_miss",
            per("zcache.array.walk", misses),
        );
        out.insert(
            "zcache.repl.select_ns_per_miss",
            per("zcache.repl.select", misses),
        );
        out.insert(
            "zcache.array.install_ns_per_miss",
            per("zcache.array.install", misses),
        );
        out.insert(
            "zcache.repl.update_ns_per_access",
            per("zcache.repl.update", lookups),
        );

        // Walk shape from the cache's own counters (the `--profile walks`
        // definitions: walk reads exclude the hit probes and relocations).
        let s = &self.stats;
        let m = s.misses.max(1) as f64;
        let walk_reads = s.tag_reads - s.hits * u64::from(WAYS) - s.relocations;
        out.insert(
            "zcache.array.candidates_per_miss",
            s.candidates_examined as f64 / m,
        );
        out.insert(
            "zcache.array.walk_tag_reads_per_miss",
            walk_reads as f64 / m,
        );
        out.insert(
            "zcache.array.walk_levels_per_miss",
            s.walk_levels as f64 / m,
        );
        out.insert(
            "zcache.array.candidates_per_tag_read",
            s.candidates_examined as f64 / walk_reads.max(1) as f64,
        );
        out.insert(
            "zcache.array.relocations_per_miss",
            s.relocations as f64 / m,
        );
        let cost_model = L2Design::zcache(WAYS, LEVELS).cache_design(LINES, 1).cost();
        let (per_access, walk_per_miss) = crate::sim::l2_energy(s, &cost_model);
        out.insert("zenergy.l2_nj_per_access", per_access);
        out.insert("zenergy.walk_nj_per_miss", walk_per_miss);

        // Stream generation, the cache's per-call cost split by outcome,
        // and H3 hashing: each measured in its own traced run.
        tr.next_run();
        let id = tr.enter("zworkloads.stream");
        let refs = gen_refs(self.seed, WARMUP + PASS);
        tr.exit(id);
        black_box(&refs);
        let stream_ns = tr.durations("zworkloads.stream")[0] as f64;
        out.insert("zworkloads.refs", refs.len() as f64);
        out.insert(
            "zworkloads.stream.ns_per_ref",
            stream_ns / refs.len() as f64,
        );

        tr.next_run();
        let mut c = self.warm.clone();
        for &(a, w) in self.timed() {
            let id = tr.enter("zcache.cache");
            let hit = c.access_full(a, w, u64::MAX).hit;
            tr.exit_as(
                id,
                if hit {
                    "zcache.cache.hit"
                } else {
                    "zcache.cache.miss"
                },
            );
        }
        let hit: Vec<f64> = tr
            .durations("zcache.cache.hit")
            .iter()
            .map(|&d| d as f64 - cost)
            .collect();
        let miss: Vec<f64> = tr
            .durations("zcache.cache.miss")
            .iter()
            .map(|&d| d as f64 - cost)
            .collect();
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
        out.insert("zcache.cache.hit_ns", mean(&hit));
        out.insert("zcache.cache.miss_ns", mean(&miss));
        out.insert(
            "zcache.cache.miss_ns_p99",
            if miss.is_empty() {
                0.0
            } else {
                percentile(&miss, 99.0)
            },
        );
        out.insert(
            "zcache.cache.hit_ratio",
            c.stats().hits as f64 / c.stats().accesses as f64,
        );

        tr.next_run();
        let hasher = HashKind::H3.build(self.cfg.seed);
        let mut acc = 0u64;
        for chunk in self.timed().chunks(4096) {
            let id = tr.enter("zhash.h3");
            for &(a, _) in chunk {
                acc = acc.wrapping_add(hasher.hash(black_box(a)));
            }
            tr.exit(id);
        }
        black_box(acc);
        let t = tr.totals()["zhash.h3"];
        out.insert(
            "zhash.h3.ns_per_hash",
            (t.total_ns as f64 - cost * t.count as f64) / PASS as f64,
        );

        // Associativity health: the eviction-priority distribution of a
        // metered twin (same hash seed as the measured cache) against
        // F_A(x) = x^52.
        let mut metered = CacheBuilder::new()
            .lines(LINES)
            .ways(WAYS)
            .array(ArrayKind::ZCache { levels: LEVELS })
            .policy(PolicyKind::Lru)
            .seed(self.cfg.seed)
            .meter(100, 4)
            .build();
        for &(a, w) in &self.refs {
            metered.access_full(a, w, u64::MAX);
        }
        let ks = metered
            .meter()
            .map_or(0.0, |m| m.ks_distance_to_uniform(CANDIDATES));
        out.insert("zcache.assoc.ks_to_xn", ks);
    }
}
