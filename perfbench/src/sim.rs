//! The two zsim workloads.
//!
//! `sim-exec`: execution-driven `System::new` + `System::run`, the only
//! path through the MESI directory, bank ports, memory channels and
//! batched dispatch. It runs the Table I machine at SMALL scale (8 cores,
//! 64-line L1s, 8-bank L2 of 16384 Z4/52 frames under LRU): at the full
//! 32-core, 131072-frame scale each machine touches ~26 MiB of host
//! memory, and its host throughput followed other tenants' memory
//! traffic too closely to bound (see README.md).
//!
//! `sim-fig4`: the trace pipeline the fig3/fig4/fig5/conflicts/ablate
//! sweeps spend their time in, at SMALL scale (8 cores, 16384-frame L2):
//! per suite workload one `record_trace_into`, one
//! `L2Trace::next_uses_into`, then `replay_with` for the six figure
//! designs under LRU and under OPT. The only user of the recorder, the
//! OPT oracle and replay; half its replays are set-associative.
//!
//! Both run the same four-workload mix (a miss-heavy pointer chase, a
//! mid-locality mix, an L1-resident kernel and a streaming grid).

use crate::reference::Clock;
use crate::trace::Tracer;
use crate::{fnv, Bench, Layers, Modelled, PassOut, FNV_SEED};
use zcache_core::{ArrayKind, CacheArray, CacheStats, PolicyKind, SeededMap};
use zenergy::{CacheCost, SystemPowerModel};
use zsim::trace::{record_trace_into, replay_with, L2Trace, ReplayScratch};
use zsim::{cores_in, L2Design, SimConfig, SimStats, System};
use zworkloads::suite::{by_name, Scale};
use zworkloads::{AddressStream, Workload, ZipfCache};

/// The suite mix both zsim workloads run.
const MIX: [&str; 4] = ["canneal", "gcc", "blackscholes", "cactusADM"];

/// Cores and instructions per core of one `sim-exec` workload run.
const EXEC_CORES: u32 = 8;
const EXEC_INSTRS: u64 = 150_000;

/// Cores and instructions per core of one `sim-fig4` workload record.
const FIG4_CORES: u32 = 8;
const FIG4_INSTRS: u64 = 100_000;

/// Seed of the next-use scratch map (its layout never escapes).
const NEXT_USE_SEED: u64 = 0x0b75_ace1_0f75_ace1;

fn mix(cores: u32, scale: Scale) -> Vec<Workload> {
    MIX.iter()
        .map(|n| by_name(n, cores as usize, scale).expect("mix workloads are in the suite"))
        .collect()
}

fn cache_digest(h: u64, s: &CacheStats) -> u64 {
    fnv(
        h,
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
        ],
    )
}

/// Folds every field of `s` into `h`.
fn sim_digest(h: u64, s: &SimStats) -> u64 {
    let h = fnv(
        h,
        &[
            s.instructions,
            s.max_cycles,
            s.sum_core_cycles,
            u64::from(s.cores),
            u64::from(s.banks),
            s.mem_accesses,
            s.mem_queue_cycles,
            s.invalidation_rounds,
            s.downgrades,
            s.back_invalidations,
            s.l2_tag_contention_cycles,
            s.l2_walk_delay_cycles,
        ],
    );
    cache_digest(cache_digest(h, &s.l1), &s.l2)
}

/// L2 dynamic energy per access and walk energy per miss (nJ): the
/// `CacheStats` events priced with `CacheCost` fields, by the same
/// accounting as `SystemPowerModel::evaluate`.
pub fn l2_energy(s: &CacheStats, c: &CacheCost) -> (f64, f64) {
    let lookups = (s.hits + s.misses) as f64;
    let walk_reads = (s.tag_reads as f64 - lookups * f64::from(c.ways.max(1))).max(0.0);
    let total = s.hits as f64 * c.hit_energy_nj
        + s.misses as f64 * c.tag_lookup_energy_nj
        + walk_reads * c.e_rt_nj
        + s.tag_writes as f64 * c.e_wt_nj
        + s.data_reads as f64 * c.e_rd_nj
        + s.data_writes as f64 * c.e_wd_nj;
    (
        total / s.accesses.max(1) as f64,
        walk_reads * c.e_rt_nj / s.misses.max(1) as f64,
    )
}

/// Aggregate modelled results over several runs of one design.
fn cmp_results(runs: &[&SimStats], cost: &CacheCost) -> Modelled {
    let power = SystemPowerModel::paper_cmp();
    let (mut instr, mut cycles, mut joules, mut misses, mut accesses) =
        (0u64, 0u64, 0f64, 0u64, 0u64);
    for s in runs {
        instr += s.instructions;
        cycles += s.max_cycles;
        joules += power.evaluate(&s.energy_counts(), cost).total_j;
        misses += s.l2.misses;
        accesses += s.l2.accesses;
    }
    Modelled {
        miss_ratio: misses as f64 / accesses.max(1) as f64,
        ipc: Some(instr as f64 / cycles.max(1) as f64),
        bips_per_watt: Some(instr as f64 / 1e9 / joules),
        acked_frac: 1.0,
        ..Modelled::default()
    }
}

/// Layer metrics every zsim workload reports from its statistics: the
/// L1 and the L2's walk shape and energy.
fn stat_layers(l1: &CacheStats, l2: &CacheStats, cost: &CacheCost, out: &mut Layers) {
    out.insert(
        "zsim.l1.hit_ratio",
        l1.hits as f64 / l1.accesses.max(1) as f64,
    );
    let m = l2.misses.max(1) as f64;
    let ways = u64::from(cost.ways);
    let walk_reads = l2.tag_reads.saturating_sub(l2.hits * ways + l2.relocations);
    out.insert(
        "zcache.array.candidates_per_miss",
        l2.candidates_examined as f64 / m,
    );
    out.insert(
        "zcache.array.walk_tag_reads_per_miss",
        walk_reads as f64 / m,
    );
    out.insert(
        "zcache.array.walk_levels_per_miss",
        l2.walk_levels as f64 / m,
    );
    out.insert(
        "zcache.array.candidates_per_tag_read",
        l2.candidates_examined as f64 / walk_reads.max(1) as f64,
    );
    out.insert(
        "zcache.array.relocations_per_miss",
        l2.relocations as f64 / m,
    );
    let (per_access, walk_per_miss) = l2_energy(l2, cost);
    out.insert("zenergy.l2_nj_per_access", per_access);
    out.insert("zenergy.walk_nj_per_miss", walk_per_miss);
}

/// Draws each core's references until its instruction budget is spent,
/// the way `System::run` and `record_trace_into` consume the streams.
/// Returns the references drawn and the lines of core 0.
fn draw_streams(wl: &Workload, cfg: &SimConfig) -> (u64, Vec<u64>) {
    let mut refs = 0u64;
    let mut lines = Vec::new();
    for (core, mut s) in wl
        .streams(cfg.cores as usize, cfg.seed)
        .into_iter()
        .enumerate()
    {
        let mut instrs = 0u64;
        while instrs < cfg.instrs_per_core {
            let r = s.next_ref();
            instrs += u64::from(r.gap);
            refs += 1;
            if core == 0 {
                lines.push(r.line);
            }
        }
    }
    (refs, lines)
}

/// Per-pass seconds of every span named `name`.
fn per_pass(tr: &Tracer, name: &str, passes: f64) -> f64 {
    tr.totals()
        .get(name)
        .map_or(0.0, |t| t.total_ns as f64 * 1e-9 / passes)
}

/// The sim-exec workload.
pub struct SimExec {
    cfg: SimConfig,
    wls: Vec<Workload>,
    /// Freshly built machines for the next pass, one per mix workload.
    next: Vec<System>,
    /// The machines of the latest pass, after their run.
    ran: Vec<System>,
    stats: Vec<SimStats>,
}

impl SimExec {
    /// Builds the specs and the first pass's machines.
    pub fn new(seed: u64) -> Self {
        let mut cfg = SimConfig::small().with_l2(L2Design::zcache(4, 3));
        cfg.cores = EXEC_CORES;
        cfg.instrs_per_core = EXEC_INSTRS;
        cfg.seed = seed;
        let wls = mix(cfg.cores, Scale::SMALL);
        let next = wls.iter().map(|_| System::new(cfg.clone())).collect();
        Self {
            cfg,
            wls,
            next,
            ran: Vec::new(),
            stats: Vec::new(),
        }
    }

    fn cost(&self) -> CacheCost {
        self.cfg
            .l2
            .cache_design(self.cfg.l2_lines, self.cfg.l2_banks)
            .cost()
    }
}

impl Bench for SimExec {
    fn pass(&mut self, tr: &mut Tracer, clock: &mut Clock) -> PassOut {
        let mut systems = std::mem::take(&mut self.next);
        let mut stats = Vec::with_capacity(self.wls.len());
        for (sys, wl) in systems.iter_mut().zip(&self.wls) {
            clock.start();
            let id = tr.enter("zsim.system_run");
            stats.push(sys.run(wl));
            tr.exit(id);
            clock.stop();
        }
        // The next pass's machines are built outside the timed section:
        // construction is set-up work.
        self.next = self
            .wls
            .iter()
            .map(|_| System::new(self.cfg.clone()))
            .collect();
        self.ran = systems;
        let accesses = stats.iter().map(|s| s.l1.accesses).sum();
        let digest = stats.iter().fold(FNV_SEED, sim_digest);
        self.stats = stats;
        PassOut { accesses, digest }
    }

    fn check(&mut self, failures: &mut Vec<String>) {
        for ((s, sys), name) in self.stats.iter().zip(&self.ran).zip(MIX) {
            for (level, c) in [("L1", &s.l1), ("L2", &s.l2)] {
                if c.hits + c.misses != c.accesses {
                    failures.push(format!(
                        "sim-exec {name}: {level} hits {} + misses {} != accesses {}",
                        c.hits, c.misses, c.accesses
                    ));
                }
            }
            // Every directory sharer must hold the line in its L1.
            let l1s = sys.l1s();
            for (line, entry) in sys.directory().iter() {
                if let Some(core) =
                    cores_in(entry.sharers).find(|&c| !l1s[c as usize].contains(line))
                {
                    failures.push(format!(
                        "sim-exec {name}: directory lists core {core} as a sharer of line {line:#x}, \
                         which its L1 does not hold"
                    ));
                    break;
                }
            }
        }
    }

    fn modelled(&self) -> Modelled {
        cmp_results(&self.stats.iter().collect::<Vec<_>>(), &self.cost())
    }

    fn layers(&mut self, tr: &mut Tracer, out: &mut Layers) {
        let passes = self.traced_passes() as f64;
        let cost = out["trace.span_cost_ns"];
        let run_s = per_pass(tr, "zsim.system_run", passes);
        out.insert("zsim.system_run_s", run_s);

        // Growing slices over the same inputs: the streams alone, the
        // streams through the L1s (the recorder), and the recorded L2
        // stream through the timed L2 banks (replay). What System::run
        // spends beyond them is the directory, dispatch and timing.
        let mut refs = 0u64;
        let mut core0_lines = Vec::new();
        for wl in &self.wls {
            tr.next_run();
            let id = tr.enter("zsim.slice.streams");
            let (n, lines) = draw_streams(wl, &self.cfg);
            tr.exit(id);
            refs += n;
            if core0_lines.is_empty() {
                core0_lines = lines;
            }
            let mut trace = L2Trace::default();
            tr.span("zsim.slice.record", |_| {
                record_trace_into(&self.cfg, wl, &mut ZipfCache::new(), &mut trace)
            });
            tr.span("zsim.slice.l2", |_| {
                replay_with(&self.cfg, &trace, None, &mut ReplayScratch::new())
            });
        }
        let streams_s = per_pass(tr, "zsim.slice.streams", 1.0);
        let record_s = per_pass(tr, "zsim.slice.record", 1.0);
        let l2_s = per_pass(tr, "zsim.slice.l2", 1.0);
        out.insert("zsim.slice.streams_s", streams_s);
        out.insert("zsim.slice.l1_s", record_s - streams_s);
        out.insert("zsim.slice.l2_s", l2_s);
        out.insert(
            "zsim.slice.residual_frac",
            (run_s - record_s - l2_s) / run_s,
        );
        out.insert("zworkloads.refs", refs as f64);
        out.insert(
            "zworkloads.stream.ns_per_ref",
            streams_s * 1e9 / refs as f64,
        );

        // Probe cost on the warmed L2 of the miss-heavy workload.
        let sys = &self.ran[0];
        tr.next_run();
        let mut found = 0u64;
        for chunk in core0_lines.chunks(4096) {
            let id = tr.enter("zcache.array.lookup");
            for &line in chunk {
                found += u64::from(
                    sys.banks()[sys.bank_index(line)]
                        .array()
                        .lookup(line)
                        .is_some(),
                );
            }
            tr.exit(id);
        }
        std::hint::black_box(found);
        let t = tr.totals()["zcache.array.lookup"];
        out.insert(
            "zcache.array.lookup_ns",
            (t.total_ns as f64 - cost * t.count as f64) / core0_lines.len().max(1) as f64,
        );

        let (mut l1, mut l2) = (CacheStats::new(), CacheStats::new());
        let sum = |f: fn(&SimStats) -> u64| self.stats.iter().map(f).sum::<u64>() as f64;
        for s in &self.stats {
            l1.merge(&s.l1);
            l2.merge(&s.l2);
        }
        stat_layers(&l1, &l2, &self.cost(), out);
        out.insert(
            "zsim.dir.invalidation_rounds",
            sum(|s| s.invalidation_rounds),
        );
        out.insert("zsim.dir.back_invalidations", sum(|s| s.back_invalidations));
        out.insert(
            "zsim.mem.queue_cycles_per_access",
            sum(|s| s.mem_queue_cycles) / sum(|s| s.mem_accesses).max(1.0),
        );
        out.insert(
            "zsim.ports.contention_cycles",
            sum(|s| s.l2_tag_contention_cycles),
        );
        out.insert(
            "zsim.ports.walk_delay_cycles",
            sum(|s| s.l2_walk_delay_cycles),
        );
    }
}

/// The sim-fig4 workload.
pub struct SimFig4 {
    cfg: SimConfig,
    wls: Vec<Workload>,
    designs: Vec<L2Design>,
    zipf: ZipfCache,
    trace: L2Trace,
    next_uses: Vec<u64>,
    last_seen: SeededMap<u64>,
    scratch: ReplayScratch,
    /// Per mix workload: the recorder's L1 statistics and every replay.
    l1: Vec<CacheStats>,
    replays: Vec<Vec<SimStats>>,
    trace_refs: u64,
}

/// The six figure designs (SA-4, SA-16, SA-32, Z4/4, Z4/16, Z4/52)
/// under LRU, then under OPT.
fn fig_designs() -> Vec<L2Design> {
    let base = [
        L2Design::setassoc(4),
        L2Design::setassoc(16),
        L2Design::setassoc(32),
        L2Design::zcache(4, 1),
        L2Design::zcache(4, 2),
        L2Design::zcache(4, 3),
    ];
    [PolicyKind::Lru, PolicyKind::Opt]
        .iter()
        .flat_map(|&p| base.iter().map(move |d| d.with_policy(p)))
        .collect()
}

/// Index of Z4/52 under LRU in [`fig_designs`].
const Z452_LRU: usize = 5;

impl SimFig4 {
    /// Builds the specs and buffers, warming them with one recording of
    /// every workload.
    pub fn new(seed: u64) -> Self {
        let mut cfg = SimConfig::small();
        cfg.cores = FIG4_CORES;
        cfg.instrs_per_core = FIG4_INSTRS;
        cfg.seed = seed;
        let wls = mix(cfg.cores, Scale::SMALL);
        let mut zipf = ZipfCache::new();
        let mut trace = L2Trace::default();
        for wl in &wls {
            record_trace_into(&cfg, wl, &mut zipf, &mut trace);
        }
        Self {
            cfg,
            wls,
            designs: fig_designs(),
            zipf,
            trace,
            next_uses: Vec::new(),
            last_seen: SeededMap::with_capacity(1024, NEXT_USE_SEED),
            scratch: ReplayScratch::new(),
            l1: Vec::new(),
            replays: Vec::new(),
            trace_refs: 0,
        }
    }

    fn cost(&self) -> CacheCost {
        self.designs[Z452_LRU]
            .cache_design(self.cfg.l2_lines, self.cfg.l2_banks)
            .cost()
    }
}

impl Bench for SimFig4 {
    fn pass(&mut self, tr: &mut Tracer, clock: &mut Clock) -> PassOut {
        let mut l1 = Vec::with_capacity(self.wls.len());
        let mut replays = Vec::with_capacity(self.wls.len());
        let mut accesses = 0u64;
        let mut trace_refs = 0u64;
        for wl in &self.wls {
            clock.start();
            tr.span("zsim.record", |_| {
                record_trace_into(&self.cfg, wl, &mut self.zipf, &mut self.trace)
            });
            tr.span("zsim.oracle", |_| {
                self.trace
                    .next_uses_into(&mut self.next_uses, &mut self.last_seen)
            });
            accesses += self.trace.l1_stats.accesses;
            let mut runs = Vec::with_capacity(self.designs.len());
            for d in &self.designs {
                let name = match d.array {
                    ArrayKind::ZCache { .. } => "zsim.replay.z",
                    _ => "zsim.replay.sa",
                };
                let oracle = (d.policy == PolicyKind::Opt).then_some(self.next_uses.as_slice());
                let cfg = self.cfg.clone().with_l2(*d);
                let id = tr.enter(name);
                runs.push(replay_with(&cfg, &self.trace, oracle, &mut self.scratch));
                tr.exit(id);
                accesses += self.trace.len() as u64;
                trace_refs += self.trace.len() as u64;
            }
            l1.push(self.trace.l1_stats.clone());
            replays.push(runs);
            clock.stop();
        }
        let digest = l1.iter().zip(&replays).fold(FNV_SEED, |h, (l, runs)| {
            runs.iter().fold(cache_digest(h, l), sim_digest)
        });
        self.l1 = l1;
        self.replays = replays;
        self.trace_refs = trace_refs;
        PassOut { accesses, digest }
    }

    fn check(&mut self, failures: &mut Vec<String>) {
        for ((l1, runs), name) in self.l1.iter().zip(&self.replays).zip(MIX) {
            if l1.hits + l1.misses != l1.accesses {
                failures.push(format!(
                    "sim-fig4 {name}: L1 hits {} + misses {} != accesses {}",
                    l1.hits, l1.misses, l1.accesses
                ));
            }
            for (s, d) in runs.iter().zip(&self.designs) {
                if s.l2.hits + s.l2.misses != s.l2.accesses {
                    failures.push(format!(
                        "sim-fig4 {name} {}: L2 hits {} + misses {} != accesses {}",
                        d.label(),
                        s.l2.hits,
                        s.l2.misses,
                        s.l2.accesses
                    ));
                }
            }
        }
    }

    fn modelled(&self) -> Modelled {
        let z: Vec<&SimStats> = self.replays.iter().map(|r| &r[Z452_LRU]).collect();
        cmp_results(&z, &self.cost())
    }

    fn layers(&mut self, tr: &mut Tracer, out: &mut Layers) {
        let passes = self.traced_passes() as f64;
        let record = per_pass(tr, "zsim.record", passes);
        let (sa, z) = (
            per_pass(tr, "zsim.replay.sa", passes),
            per_pass(tr, "zsim.replay.z", passes),
        );
        out.insert("zsim.record_s", record);
        out.insert("zsim.oracle_s", per_pass(tr, "zsim.oracle", passes));
        out.insert("zsim.replay_s.sa", sa);
        out.insert("zsim.replay_s.z", z);
        out.insert(
            "zsim.replay_ns_per_ref",
            (sa + z) * 1e9 / self.trace_refs as f64,
        );

        let mut refs = 0u64;
        tr.next_run();
        for wl in &self.wls {
            let id = tr.enter("zsim.slice.streams");
            refs += draw_streams(wl, &self.cfg).0;
            tr.exit(id);
        }
        let streams_s = per_pass(tr, "zsim.slice.streams", 1.0);
        out.insert("zworkloads.refs", refs as f64);
        out.insert(
            "zworkloads.stream.ns_per_ref",
            streams_s * 1e9 / refs as f64,
        );

        let (mut l1, mut l2) = (CacheStats::new(), CacheStats::new());
        for (l, runs) in self.l1.iter().zip(&self.replays) {
            l1.merge(l);
            l2.merge(&runs[Z452_LRU].l2);
        }
        stat_layers(&l1, &l2, &self.cost(), out);
    }
}
