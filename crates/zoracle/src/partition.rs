//! Differential conformance for the multi-tenant [`PartitionedCache`].
//!
//! The production partitioned cache keeps per-tenant occupancy as
//! incremental counters updated on installs and evictions, walks under a
//! per-tenant candidate budget via the array's early-stop cap, and picks
//! victims with a single fused scan over batched scores. Every one of
//! those optimizations is a place for a quota-accounting or truncation
//! bug to hide. This module provides the brute-force twin:
//!
//! * [`RefPartitionedCache`] recounts every tenant's occupancy
//!   **exhaustively from the array tags on every miss**, re-derives the
//!   budget-capped walk with [`RefArray::candidates_capped`], and picks
//!   the victim by re-ranking candidates from address-keyed policy maps
//!   — first empty frame, else the highest-ranked candidate whose owner
//!   is at/over quota, else the global highest (the production
//!   contract).
//! * [`run_part_diff`] drives both sides in lockstep over a
//!   tenant-tagged trace, comparing hit/miss, the full candidate list,
//!   the install outcome, write-back flags, **per-tenant occupancies
//!   (incremental vs. exhaustive) after every access**, and periodic
//!   state digests.
//! * [`run_part_diff_mutated`] reintroduces the quota-bypass bug on the
//!   production side only (victim selection ignores quotas), so the
//!   harness can prove the lockstep actually catches enforcement bugs;
//!   [`shrink_part`] delta-debugs any divergence to a minimal
//!   tenant-tagged trace, and the `.ptrace` corpus functions persist it
//!   for regression replay.
//!
//! The check grid ([`part_check_grid`]) covers two adversarial tenant
//! mixes (a Zipf-hot tenant vs. scan-heavy neighbors on a 3-level walk,
//! and overcommitted twins on a 2-level walk) under LRU, LFU and OPT.

use crate::array::{RefArray, RefCand};
use crate::corpus::parse_u64;
use crate::shrink::{ddmin_items, greedy_min_items};
use crate::stream::{next_uses, Access};
use crate::{CheckConfig, CheckDesign, CheckPolicy, RefPolicy};
use std::collections::HashSet;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use zcache_core::partition::{tenant_of, tenant_tag};
use zcache_core::{
    digest_step, PartitionConfig, PartitionedCache, SlotId, TenantGrant, DIGEST_SEED,
};
use zhash::SplitMix64;

/// One tenant-tagged access of a partition trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PartAccess {
    /// Issuing tenant.
    pub tenant: usize,
    /// Line address (must fit below the tenant tag bits).
    pub addr: u64,
    /// Whether the access is a write.
    pub write: bool,
}

/// One fully-specified partition conformance check: a zcache design ×
/// policy pair plus geometry, seed, and the per-tenant grants.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartConfig {
    /// Array design under test ([`CheckDesign::Z2`] or
    /// [`CheckDesign::Z3`] — partitioning is a walk property).
    pub design: CheckDesign,
    /// Replacement policy shared by all tenants.
    pub policy: CheckPolicy,
    /// Total frames.
    pub lines: u64,
    /// Ways.
    pub ways: u32,
    /// Hash seed shared by both sides.
    pub seed: u64,
    /// Whether quotas constrain victim selection (`false` = the shared
    /// baseline; both sides model plain sharing).
    pub enforce_quota: bool,
    /// Per-tenant quotas and walk budgets.
    pub tenants: Vec<TenantGrant>,
}

impl PartConfig {
    /// Walk depth of the design.
    ///
    /// # Panics
    ///
    /// Panics on non-zcache designs.
    pub fn levels(&self) -> u32 {
        match self.design {
            CheckDesign::Z2 => 2,
            CheckDesign::Z3 => 3,
            other => panic!("partition lockstep requires a zcache design, got {other}"),
        }
    }

    /// The single-cache check configuration sharing this geometry and
    /// seed (what the reference array is built from).
    pub fn check_config(&self) -> CheckConfig {
        CheckConfig::new(self.design, self.policy, self.lines, self.ways, self.seed)
    }

    /// Builds the production cache under test.
    pub fn build_dut(&self) -> PartitionedCache {
        self.build_dut_mutated(false)
    }

    /// Builds the production cache with the quota-bypass mutation
    /// optionally reintroduced: `bypass` disables quota enforcement on
    /// the production side *only*, so the lockstep run must catch it.
    pub fn build_dut_mutated(&self, bypass: bool) -> PartitionedCache {
        let mut pc = PartitionConfig::new(
            self.lines,
            self.ways,
            self.levels(),
            self.policy.policy_kind(),
            self.seed,
            self.tenants.clone(),
        );
        pc.enforce_quota = self.enforce_quota && !bypass;
        PartitionedCache::new(&pc)
    }

    /// Builds the reference twin.
    pub fn build_oracle(&self) -> RefPartitionedCache {
        RefPartitionedCache::new(self)
    }

    /// Short label, e.g. `z3/lru/3t`.
    pub fn label(&self) -> String {
        format!("{}/{}/{}t", self.design, self.policy, self.tenants.len())
    }
}

/// What the reference model observed for one partitioned access.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RefPartOutcome {
    /// Whether the access hit.
    pub hit: bool,
    /// Tagged address evicted (occupied-victim misses only); decode the
    /// owner with [`tenant_of`].
    pub evicted: Option<u64>,
    /// Whether the evicted block was dirty.
    pub evicted_dirty: bool,
    /// Frame the evicted block vacated.
    pub evicted_slot: Option<u32>,
    /// Frame the incoming block landed in (misses only).
    pub filled_slot: Option<u32>,
    /// Relocations performed, deepest first.
    pub moves: Vec<(u32, u32)>,
    /// Candidate `(slot, resident)` pairs in discovery order (misses
    /// only; residents are tagged).
    pub cands: Vec<(u32, Option<u64>)>,
}

/// The brute-force reference for a [`PartitionedCache`]: every per-miss
/// quantity the production side keeps incrementally — tenant
/// occupancies, the budget-capped walk, the quota-filtered victim rank —
/// is recomputed from scratch here.
#[derive(Debug, Clone)]
pub struct RefPartitionedCache {
    array: RefArray,
    policy: RefPolicy,
    dirty: HashSet<u64>,
    tick: u64,
    tenants: Vec<TenantGrant>,
    enforce: bool,
}

impl RefPartitionedCache {
    /// Builds the reference twin for a partition check configuration.
    pub fn new(cfg: &PartConfig) -> Self {
        assert!(!cfg.tenants.is_empty(), "need at least one tenant");
        Self {
            array: RefArray::new(&cfg.check_config()),
            policy: RefPolicy::new(cfg.policy),
            dirty: HashSet::new(),
            tick: 0,
            tenants: cfg.tenants.clone(),
            enforce: cfg.enforce_quota,
        }
    }

    /// Every tenant's occupancy, recounted exhaustively from the tags.
    pub fn occupancies(&self) -> Vec<u64> {
        let mut occ = vec![0u64; self.tenants.len()];
        self.array.for_each_valid(&mut |_, a| {
            let t = tenant_of(a);
            if t < occ.len() {
                occ[t] += 1;
            }
        });
        occ
    }

    /// The partition victim rule, re-derived: first empty frame wins;
    /// otherwise the highest-ranked candidate whose owner is at/over
    /// quota (first-seen wins ties); with enforcement off or no eligible
    /// candidate, the plain highest-ranked candidate.
    fn select_victim(&self, cands: &[RefCand], occ: &[u64]) -> usize {
        let mut best_any: Option<(usize, u64)> = None;
        let mut best_eligible: Option<(usize, u64)> = None;
        for (i, c) in cands.iter().enumerate() {
            let Some(a) = c.addr else { return i };
            let r = self.policy.rank(a);
            if best_any.is_none_or(|(_, br)| r > br) {
                best_any = Some((i, r));
            }
            let owner = tenant_of(a);
            if occ[owner] >= self.tenants[owner].quota && best_eligible.is_none_or(|(_, br)| r > br)
            {
                best_eligible = Some((i, r));
            }
        }
        if self.enforce {
            if let Some((i, _)) = best_eligible {
                return i;
            }
        }
        best_any.expect("candidate sets are never empty").0
    }

    /// Processes one access by `tenant`. `next_use` is the stream
    /// position of the next reference to the same tagged block
    /// (`u64::MAX` = never), consumed only by the OPT rank.
    pub fn access(
        &mut self,
        tenant: usize,
        addr: u64,
        write: bool,
        next_use: u64,
    ) -> RefPartOutcome {
        assert!(
            tenant < self.tenants.len(),
            "tenant {tenant} out of range ({} tenants)",
            self.tenants.len()
        );
        let tagged = tenant_tag(tenant, addr);
        let now = self.tick;
        self.tick += 1;

        if self.array.lookup(tagged).is_some() {
            self.policy.on_hit(tagged, now, next_use);
            if write {
                self.dirty.insert(tagged);
            }
            return RefPartOutcome {
                hit: true,
                ..RefPartOutcome::default()
            };
        }

        let cands = self
            .array
            .candidates_capped(tagged, self.tenants[tenant].walk_budget);
        let occ = self.occupancies();
        let victim_idx = self.select_victim(&cands, &occ);
        let install = self.array.install(tagged, victim_idx, &cands);

        let mut evicted_dirty = false;
        if let Some(e) = install.evicted {
            evicted_dirty = self.dirty.remove(&e);
            self.policy.on_evict(e);
        }
        self.policy.on_fill(tagged, now, next_use);
        if write {
            self.dirty.insert(tagged);
        }

        RefPartOutcome {
            hit: false,
            evicted: install.evicted,
            evicted_dirty,
            evicted_slot: install.evicted_slot,
            filled_slot: Some(install.filled_slot),
            moves: install.moves,
            cands: cands.iter().map(|c| (c.slot, c.addr)).collect(),
        }
    }

    /// Digest over the reference tag + dirty state, same fold as the
    /// production side.
    pub fn state_digest(&self) -> u64 {
        let mut h = DIGEST_SEED;
        self.array.for_each_valid(&mut |slot, a| {
            h = digest_step(h, SlotId(slot), a, self.dirty.contains(&a));
        });
        h
    }
}

/// Install outcome `(evicted, evicted_slot, filled, moves)` as observed
/// on one side (evicted addresses are tenant-tagged).
pub type PartInstallOutcome = (Option<u64>, Option<u32>, u32, Vec<(u32, u32)>);

/// What diverged between the production partitioned cache and its
/// reference.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PartDivergenceKind {
    /// One side hit where the other missed.
    HitMiss {
        /// Production outcome.
        dut: bool,
        /// Reference outcome.
        oracle: bool,
    },
    /// The budget-capped candidate lists differ.
    Candidates {
        /// Production `(slot, resident)` list.
        dut: Vec<(u32, Option<u64>)>,
        /// Reference `(slot, resident)` list.
        oracle: Vec<(u32, Option<u64>)>,
    },
    /// The install outcomes differ (victim, relocations, or fill) —
    /// where a quota-enforcement bug surfaces.
    Install {
        /// Production install.
        dut: PartInstallOutcome,
        /// Reference install.
        oracle: PartInstallOutcome,
    },
    /// The write-back flags of an eviction differ.
    EvictedDirty {
        /// Production flag.
        dut: bool,
        /// Reference flag.
        oracle: bool,
    },
    /// The production incremental occupancy counters disagree with the
    /// exhaustive recount.
    Occupancy {
        /// Production per-tenant counters.
        dut: Vec<u64>,
        /// Reference exhaustive recount.
        oracle: Vec<u64>,
    },
    /// The tag/dirty state digests differ.
    Digest {
        /// Production digest.
        dut: u64,
        /// Reference digest.
        oracle: u64,
    },
}

/// A divergence at a specific access of a partition trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartDivergence {
    /// Index into the trace of the offending access.
    pub index: usize,
    /// The access itself.
    pub access: PartAccess,
    /// What differed.
    pub kind: PartDivergenceKind,
}

impl std::fmt::Display for PartDivergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let op = if self.access.write { "W" } else { "R" };
        write!(
            f,
            "access #{} (T{} {op} {:#x}): ",
            self.index, self.access.tenant, self.access.addr
        )?;
        match &self.kind {
            PartDivergenceKind::HitMiss { dut, oracle } => {
                write!(f, "hit/miss mismatch (dut hit={dut}, oracle hit={oracle})")
            }
            PartDivergenceKind::Candidates { dut, oracle } => write!(
                f,
                "candidate lists differ (dut {} cands {:?}, oracle {} cands {:?})",
                dut.len(),
                dut,
                oracle.len(),
                oracle
            ),
            PartDivergenceKind::Install { dut, oracle } => {
                write!(f, "install differs (dut {dut:?}, oracle {oracle:?})")
            }
            PartDivergenceKind::EvictedDirty { dut, oracle } => write!(
                f,
                "write-back flag differs (dut dirty={dut}, oracle dirty={oracle})"
            ),
            PartDivergenceKind::Occupancy { dut, oracle } => write!(
                f,
                "occupancy counters differ (dut incremental {dut:?}, oracle recount {oracle:?})"
            ),
            PartDivergenceKind::Digest { dut, oracle } => write!(
                f,
                "state digests differ (dut {dut:#018x}, oracle {oracle:#018x})"
            ),
        }
    }
}

/// Statistics of a clean partition lockstep run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PartSummary {
    /// Accesses compared.
    pub accesses: u64,
    /// Misses (agreed on by both sides).
    pub misses: u64,
    /// Evictions (agreed on by both sides).
    pub evictions: u64,
    /// Evictions where the victim belonged to another tenant.
    pub cross_evictions: u64,
    /// Relocations performed by the production side.
    pub relocations: u64,
    /// Final state digest (identical on both sides).
    pub digest: u64,
}

/// Drives the production [`PartitionedCache`] and its reference twin
/// over a tenant-tagged trace, comparing every observable of every
/// access plus per-tenant occupancies after each one and a full state
/// digest every `digest_every` accesses and at the end.
///
/// # Panics
///
/// Panics if `digest_every == 0`.
#[allow(clippy::result_large_err)]
pub fn run_part_diff(
    cfg: &PartConfig,
    trace: &[PartAccess],
    digest_every: u64,
) -> Result<PartSummary, PartDivergence> {
    run_part_diff_mutated(cfg, false, trace, digest_every)
}

/// [`run_part_diff`] with the quota-bypass mutation optionally applied
/// to the production side (see [`PartConfig::build_dut_mutated`]): the
/// harness's proof that the lockstep catches enforcement bugs, and the
/// replay mode of bypass corpus repros.
// Like diff::run_diff, the large Err variant carries full repro detail
// and is produced at most once per run.
#[allow(clippy::result_large_err)]
pub fn run_part_diff_mutated(
    cfg: &PartConfig,
    bypass: bool,
    trace: &[PartAccess],
    digest_every: u64,
) -> Result<PartSummary, PartDivergence> {
    assert!(digest_every > 0, "digest_every must be positive");
    let tagged: Vec<Access> = trace
        .iter()
        .map(|a| Access {
            addr: tenant_tag(a.tenant, a.addr),
            write: a.write,
        })
        .collect();
    let next = next_uses(&tagged);
    let mut dut = cfg.build_dut_mutated(bypass);
    let mut oracle = cfg.build_oracle();
    let mut evictions = 0u64;

    for (i, &acc) in trace.iter().enumerate() {
        let out = dut.access_full(acc.tenant, acc.addr, acc.write, next[i]);
        let ref_out = oracle.access(acc.tenant, acc.addr, acc.write, next[i]);

        let diverge = |kind| {
            Err(PartDivergence {
                index: i,
                access: acc,
                kind,
            })
        };

        if out.hit != ref_out.hit {
            return diverge(PartDivergenceKind::HitMiss {
                dut: out.hit,
                oracle: ref_out.hit,
            });
        }

        if !out.hit {
            let dut_cands: Vec<(u32, Option<u64>)> = dut
                .last_candidates()
                .as_slice()
                .iter()
                .map(|c| (c.slot.0, c.addr))
                .collect();
            if dut_cands != ref_out.cands {
                return diverge(PartDivergenceKind::Candidates {
                    dut: dut_cands,
                    oracle: ref_out.cands,
                });
            }

            let install = dut.cache().last_install();
            let dut_install = (
                install.evicted,
                install.evicted_slot.map(|s| s.0),
                install.filled_slot.0,
                install
                    .moves
                    .iter()
                    .map(|&(a, b)| (a.0, b.0))
                    .collect::<Vec<_>>(),
            );
            let ref_install = (
                ref_out.evicted,
                ref_out.evicted_slot,
                ref_out.filled_slot.expect("miss always fills"),
                ref_out.moves.clone(),
            );
            if dut_install != ref_install {
                return diverge(PartDivergenceKind::Install {
                    dut: dut_install,
                    oracle: ref_install,
                });
            }

            if out.evicted_dirty != ref_out.evicted_dirty {
                return diverge(PartDivergenceKind::EvictedDirty {
                    dut: out.evicted_dirty,
                    oracle: ref_out.evicted_dirty,
                });
            }
            if out.evicted.is_some() {
                evictions += 1;
            }
        }

        let (docc, oocc) = (dut.occupancies(), oracle.occupancies());
        if docc != oocc {
            return diverge(PartDivergenceKind::Occupancy {
                dut: docc,
                oracle: oocc,
            });
        }

        if (i as u64 + 1).is_multiple_of(digest_every) {
            let (d, o) = (dut.state_digest(), oracle.state_digest());
            if d != o {
                return diverge(PartDivergenceKind::Digest { dut: d, oracle: o });
            }
        }
    }

    let (d, o) = (dut.state_digest(), oracle.state_digest());
    if d != o {
        return Err(PartDivergence {
            index: trace.len().saturating_sub(1),
            access: *trace.last().unwrap_or(&PartAccess {
                tenant: 0,
                addr: 0,
                write: false,
            }),
            kind: PartDivergenceKind::Digest { dut: d, oracle: o },
        });
    }

    let stats = dut.cache().stats();
    let cross = (0..dut.tenant_count())
        .map(|t| dut.tenant_stats(t).cross_evictions)
        .sum();
    Ok(PartSummary {
        accesses: stats.accesses,
        misses: stats.misses,
        evictions,
        cross_evictions: cross,
        relocations: stats.relocations,
        digest: d,
    })
}

/// Shrinks a diverging partition trace (same three stages as
/// [`crate::shrink::shrink`]: failing-prefix truncation, ddmin, greedy
/// 1-minimization). Returns the input unchanged if it does not diverge.
pub fn shrink_part(
    cfg: &PartConfig,
    bypass: bool,
    trace: &[PartAccess],
    digest_every: u64,
) -> Vec<PartAccess> {
    let fails = |t: &[PartAccess]| run_part_diff_mutated(cfg, bypass, t, digest_every).is_err();

    let Err(d) = run_part_diff_mutated(cfg, bypass, trace, digest_every) else {
        return trace.to_vec();
    };
    let cur: Vec<PartAccess> = trace[..=d.index].to_vec();
    debug_assert!(fails(&cur), "truncation must preserve the divergence");

    let cur = ddmin_items(&cur, &fails);
    greedy_min_items(cur, &fails)
}

/// A deserialized partition repro: configuration, whether the
/// quota-bypass mutation must be applied to reproduce, and the shrunk
/// tenant-tagged trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartRepro {
    /// The failing check configuration.
    pub cfg: PartConfig,
    /// Whether the production side must be built with the quota-bypass
    /// mutation to reproduce the divergence.
    pub bypass: bool,
    /// The shrunk trace.
    pub trace: Vec<PartAccess>,
    /// Human-readable description of the original divergence.
    pub note: String,
}

impl PartRepro {
    /// Replays the repro; a still-live bug returns the divergence.
    #[allow(clippy::result_large_err)]
    pub fn replay(&self, digest_every: u64) -> Result<PartSummary, PartDivergence> {
        run_part_diff_mutated(&self.cfg, self.bypass, &self.trace, digest_every)
    }
}

/// Serializes a partition repro to `path` (use the `.ptrace` extension
/// so [`load_part_corpus`] finds it).
pub fn write_part_repro(
    path: &Path,
    cfg: &PartConfig,
    bypass: bool,
    trace: &[PartAccess],
    note: &str,
) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut f = std::fs::File::create(path)?;
    writeln!(f, "# zoracle partition repro: {}", note.replace('\n', " "))?;
    writeln!(f, "# design: {}", cfg.design)?;
    writeln!(f, "# policy: {}", cfg.policy)?;
    writeln!(f, "# lines: {}", cfg.lines)?;
    writeln!(f, "# ways: {}", cfg.ways)?;
    writeln!(f, "# seed: {}", cfg.seed)?;
    writeln!(f, "# enforce: {}", cfg.enforce_quota)?;
    for g in &cfg.tenants {
        writeln!(f, "# tenant: {} {}", g.quota, g.walk_budget)?;
    }
    if bypass {
        writeln!(f, "# mutation: quota-bypass")?;
    }
    for a in trace {
        writeln!(
            f,
            "T{} {} {:#x}",
            a.tenant,
            if a.write { "W" } else { "R" },
            a.addr
        )?;
    }
    Ok(())
}

fn bad(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// Parses a partition repro file written by [`write_part_repro`].
pub fn read_part_repro(path: &Path) -> io::Result<PartRepro> {
    let text = std::fs::read_to_string(path)?;
    let mut note = String::new();
    let mut design = None;
    let mut policy = None;
    let mut lines_cfg = None;
    let mut ways = None;
    let mut seed = None;
    let mut enforce = None;
    let mut bypass = false;
    let mut tenants = Vec::new();
    let mut trace = Vec::new();

    for (ln, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('#') {
            let rest = rest.trim();
            if let Some(v) = rest.strip_prefix("zoracle partition repro:") {
                note = v.trim().to_string();
            } else if let Some(v) = rest.strip_prefix("design:") {
                let v = v.trim();
                design = Some(
                    CheckDesign::from_name(v)
                        .ok_or_else(|| bad(format!("unknown design {v:?}")))?,
                );
            } else if let Some(v) = rest.strip_prefix("policy:") {
                let v = v.trim();
                policy = Some(
                    CheckPolicy::from_name(v)
                        .ok_or_else(|| bad(format!("unknown policy {v:?}")))?,
                );
            } else if let Some(v) = rest.strip_prefix("lines:") {
                lines_cfg = Some(parse_u64(v.trim(), ln)?);
            } else if let Some(v) = rest.strip_prefix("ways:") {
                ways = Some(parse_u64(v.trim(), ln)? as u32);
            } else if let Some(v) = rest.strip_prefix("seed:") {
                seed = Some(parse_u64(v.trim(), ln)?);
            } else if let Some(v) = rest.strip_prefix("enforce:") {
                enforce = Some(match v.trim() {
                    "true" => true,
                    "false" => false,
                    other => return Err(bad(format!("line {}: bad enforce {other:?}", ln + 1))),
                });
            } else if let Some(v) = rest.strip_prefix("tenant:") {
                let mut parts = v.split_whitespace();
                let quota = parse_u64(
                    parts
                        .next()
                        .ok_or_else(|| bad(format!("line {}: missing quota", ln + 1)))?,
                    ln,
                )?;
                let walk_budget = parse_u64(
                    parts
                        .next()
                        .ok_or_else(|| bad(format!("line {}: missing walk budget", ln + 1)))?,
                    ln,
                )? as u32;
                tenants.push(TenantGrant { quota, walk_budget });
            } else if let Some(v) = rest.strip_prefix("mutation:") {
                match v.trim() {
                    "quota-bypass" => bypass = true,
                    other => return Err(bad(format!("unknown mutation {other:?}"))),
                }
            }
            continue;
        }
        let mut parts = line.split_whitespace();
        let tenant_s = parts
            .next()
            .ok_or_else(|| bad(format!("line {}: missing tenant", ln + 1)))?;
        let tenant = tenant_s
            .strip_prefix('T')
            .and_then(|t| t.parse::<usize>().ok())
            .ok_or_else(|| bad(format!("line {}: bad tenant {tenant_s:?}", ln + 1)))?;
        let op = parts
            .next()
            .ok_or_else(|| bad(format!("line {}: missing op", ln + 1)))?;
        let write = match op {
            "R" | "r" => false,
            "W" | "w" => true,
            other => return Err(bad(format!("line {}: bad op {other:?}", ln + 1))),
        };
        let addr_s = parts
            .next()
            .ok_or_else(|| bad(format!("line {}: missing address", ln + 1)))?;
        trace.push(PartAccess {
            tenant,
            addr: parse_u64(addr_s, ln)?,
            write,
        });
    }

    if tenants.is_empty() {
        return Err(bad("missing '# tenant:' headers".into()));
    }
    if let Some(a) = trace.iter().find(|a| a.tenant >= tenants.len()) {
        return Err(bad(format!(
            "trace references tenant {} but only {} declared",
            a.tenant,
            tenants.len()
        )));
    }
    let cfg = PartConfig {
        design: design.ok_or_else(|| bad("missing '# design:' header".into()))?,
        policy: policy.ok_or_else(|| bad("missing '# policy:' header".into()))?,
        lines: lines_cfg.ok_or_else(|| bad("missing '# lines:' header".into()))?,
        ways: ways.ok_or_else(|| bad("missing '# ways:' header".into()))?,
        seed: seed.ok_or_else(|| bad("missing '# seed:' header".into()))?,
        enforce_quota: enforce.ok_or_else(|| bad("missing '# enforce:' header".into()))?,
        tenants,
    };
    Ok(PartRepro {
        cfg,
        bypass,
        trace,
        note,
    })
}

/// Loads every `.ptrace` repro under `dir`, sorted by file name. A
/// missing directory is an empty corpus.
pub fn load_part_corpus(dir: &Path) -> io::Result<Vec<(PathBuf, PartRepro)>> {
    let mut out = Vec::new();
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(out),
        Err(e) => return Err(e),
    };
    let mut paths: Vec<PathBuf> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "ptrace"))
        .collect();
    paths.sort();
    for p in paths {
        let repro = read_part_repro(&p)?;
        out.push((p, repro));
    }
    Ok(out)
}

/// A tenant mix of the partition check grid: who the tenants are, what
/// they are granted, and what their interleaved streams look like.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PartMix {
    /// Three tenants on a 3-level walk: a Zipf-skewed hot tenant with
    /// the majority quota and the full walk, a sequential scanner
    /// throttled to the way-count budget floor, and a random-touch
    /// neighbor in between. The isolation scenario.
    HotVsScan,
    /// Two equally-granted Zipf tenants on a 2-level walk whose
    /// footprints overcommit the array, one with a truncated walk. The
    /// fairness scenario.
    Twins,
}

impl PartMix {
    /// Every mix in the grid.
    pub const ALL: [PartMix; 2] = [PartMix::HotVsScan, PartMix::Twins];

    /// Command-line name of this mix.
    pub fn name(self) -> &'static str {
        match self {
            PartMix::HotVsScan => "hot-vs-scan",
            PartMix::Twins => "twins",
        }
    }

    /// Parses a command-line name.
    pub fn from_name(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|m| m.name() == s)
    }

    /// Per-tenant grants scaled to `lines` frames.
    pub fn grants(self, lines: u64) -> Vec<TenantGrant> {
        match self {
            PartMix::HotVsScan => vec![
                TenantGrant {
                    quota: 5 * lines / 8,
                    walk_budget: 52,
                },
                TenantGrant {
                    quota: lines / 4,
                    walk_budget: 4,
                },
                TenantGrant {
                    quota: lines / 8,
                    walk_budget: 16,
                },
            ],
            PartMix::Twins => vec![
                TenantGrant {
                    quota: lines / 2,
                    walk_budget: 16,
                },
                TenantGrant {
                    quota: lines / 2,
                    walk_budget: 8,
                },
            ],
        }
    }

    /// The full check configuration for this mix under `policy`.
    pub fn config(self, policy: CheckPolicy, lines: u64, ways: u32, seed: u64) -> PartConfig {
        let design = match self {
            PartMix::HotVsScan => CheckDesign::Z3,
            PartMix::Twins => CheckDesign::Z2,
        };
        PartConfig {
            design,
            policy,
            lines,
            ways,
            seed,
            enforce_quota: true,
            tenants: self.grants(lines),
        }
    }

    /// Generates this mix's deterministic interleaved trace: `n`
    /// tenant-tagged accesses stressing a cache of `lines` frames.
    /// (zoracle deliberately has no zworkloads dependency; the richer
    /// mixer lives there, this one exists to make conformance runs
    /// self-contained.)
    pub fn gen_stream(self, n: usize, lines: u64, seed: u64) -> Vec<PartAccess> {
        let mut rng = SplitMix64::new(seed);
        let mut trace = Vec::with_capacity(n);
        match self {
            PartMix::HotVsScan => {
                let hot_span = (3 * lines / 4).max(8);
                let scan_span = 4 * lines;
                let mut scan_pos = 0u64;
                for _ in 0..n {
                    let r = rng.next_below(4);
                    if r < 2 {
                        // Skew toward low addresses: min of two uniforms.
                        let a = rng.next_below(hot_span).min(rng.next_below(hot_span));
                        trace.push(PartAccess {
                            tenant: 0,
                            addr: 0x10_0000 + a,
                            write: rng.next_below(4) == 0,
                        });
                    } else if r == 2 {
                        scan_pos += 1;
                        trace.push(PartAccess {
                            tenant: 1,
                            addr: 0x20_0000 + scan_pos % scan_span,
                            write: rng.next_below(10) == 0,
                        });
                    } else {
                        trace.push(PartAccess {
                            tenant: 2,
                            addr: 0x30_0000 + rng.next_below(scan_span),
                            write: rng.next_below(10) == 0,
                        });
                    }
                }
            }
            PartMix::Twins => {
                let span = (5 * lines / 4).max(8);
                for _ in 0..n {
                    let tenant = rng.next_below(2) as usize;
                    let a = rng.next_below(span).min(rng.next_below(span));
                    trace.push(PartAccess {
                        tenant,
                        addr: 0x10_0000 + a,
                        write: rng.next_below(4) == 0,
                    });
                }
            }
        }
        trace
    }
}

/// The partition conformance grid: every mix × policy pair.
pub fn part_check_grid() -> Vec<(PartMix, CheckPolicy)> {
    let mut grid = Vec::with_capacity(PartMix::ALL.len() * CheckPolicy::ALL.len());
    for m in PartMix::ALL {
        for p in CheckPolicy::ALL {
            grid.push((m, p));
        }
    }
    grid
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_covers_all_pairs() {
        let g = part_check_grid();
        assert_eq!(g.len(), 6);
        for m in PartMix::ALL {
            assert_eq!(PartMix::from_name(m.name()), Some(m));
            for p in CheckPolicy::ALL {
                assert!(g.contains(&(m, p)));
            }
        }
    }

    #[test]
    fn streams_are_deterministic_and_cover_all_tenants() {
        for mix in PartMix::ALL {
            let a = mix.gen_stream(3_000, 64, 7);
            let b = mix.gen_stream(3_000, 64, 7);
            assert_eq!(a, b, "{}: same seed must replay", mix.name());
            let c = mix.gen_stream(3_000, 64, 8);
            assert_ne!(a, c, "{}: different seeds must differ", mix.name());
            let tenants = mix.grants(64).len();
            for t in 0..tenants {
                assert!(
                    a.iter().any(|x| x.tenant == t),
                    "{}: tenant {t} idle",
                    mix.name()
                );
            }
        }
    }

    #[test]
    fn lockstep_grid_is_clean() {
        for (mix, policy) in part_check_grid() {
            let cfg = mix.config(policy, 64, 4, 5);
            let trace = mix.gen_stream(4_000, 64, 17);
            let summary =
                run_part_diff(&cfg, &trace, 128).unwrap_or_else(|d| panic!("{}: {d}", cfg.label()));
            assert_eq!(summary.accesses, 4_000);
            assert!(summary.misses > 0, "{}: no misses", cfg.label());
            assert!(summary.evictions > 0, "{}: no evictions", cfg.label());
        }
    }

    #[test]
    fn lockstep_is_clean_with_enforcement_off() {
        // The shared baseline (quota enforcement disabled on *both*
        // sides) must also agree — the reference models plain sharing.
        let mut cfg = PartMix::HotVsScan.config(CheckPolicy::Lru, 64, 4, 5);
        cfg.enforce_quota = false;
        let trace = PartMix::HotVsScan.gen_stream(6_000, 64, 19);
        let summary = run_part_diff(&cfg, &trace, 128).unwrap_or_else(|d| panic!("{d}"));
        assert!(summary.cross_evictions > 0, "sharing must cross-evict");
    }

    #[test]
    fn quota_bypass_mutation_is_caught_within_bounds() {
        let cfg = PartMix::HotVsScan.config(CheckPolicy::Lru, 64, 4, 9);
        let trace = PartMix::HotVsScan.gen_stream(20_000, 64, 23);
        let d = run_part_diff_mutated(&cfg, true, &trace, 128)
            .expect_err("quota bypass must diverge from the enforcing oracle");
        assert!(
            d.index < 5_000,
            "bypass took {} accesses to surface (bound: 5000)",
            d.index
        );
        assert!(
            matches!(
                d.kind,
                PartDivergenceKind::Install { .. } | PartDivergenceKind::Occupancy { .. }
            ),
            "bypass should surface as a victim/occupancy divergence, got {d}"
        );
    }

    #[test]
    fn shrunk_bypass_repro_round_trips_and_replays() {
        let cfg = PartMix::Twins.config(CheckPolicy::Lru, 64, 4, 3);
        let trace = PartMix::Twins.gen_stream(8_000, 64, 29);
        let shrunk = shrink_part(&cfg, true, &trace, 64);
        assert!(
            shrunk.len() < trace.len(),
            "shrinking must make progress ({} accesses)",
            shrunk.len()
        );
        assert!(run_part_diff_mutated(&cfg, true, &shrunk, 64).is_err());

        let dir = std::env::temp_dir().join("zoracle-partition-corpus-test");
        let path = dir.join("bypass.ptrace");
        write_part_repro(&path, &cfg, true, &shrunk, "quota bypass (unit test)").unwrap();
        let loaded = load_part_corpus(&dir).unwrap();
        assert_eq!(loaded.len(), 1);
        let r = &loaded[0].1;
        assert_eq!(r.cfg, cfg);
        assert!(r.bypass);
        assert_eq!(r.trace, shrunk);
        assert!(r.replay(64).is_err(), "repro must still diverge on replay");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn shrink_returns_input_when_clean() {
        let cfg = PartMix::Twins.config(CheckPolicy::Lru, 64, 4, 3);
        let trace = PartMix::Twins.gen_stream(500, 64, 1);
        assert_eq!(shrink_part(&cfg, false, &trace, 64), trace);
    }

    #[test]
    fn capped_reference_walk_respects_budgets() {
        // Fill a reference array well past any empties, then check the
        // capped walk truncates to the budget (clamped to >= ways).
        let cfg = PartMix::HotVsScan.config(CheckPolicy::Lru, 64, 4, 5);
        let mut o = cfg.build_oracle();
        let trace = PartMix::HotVsScan.gen_stream(2_000, 64, 11);
        for a in &trace {
            o.access(a.tenant, a.addr, a.write, u64::MAX);
        }
        let probe = tenant_tag(0, 0x10_0000 + 1_000_000);
        let full = o.array.candidates_capped(probe, u32::MAX).len();
        assert!(full > 4 && full <= 52, "deep walk expected, got {full}");
        for cap in [1u32, 4, 7, 16, 52] {
            let n = o.array.candidates_capped(probe, cap).len();
            // Level 0 always emits all ways; past that the budget binds
            // (clamped up to the way count).
            assert!(n >= 4, "level 0 always emits all ways, got {n}");
            assert!(
                n <= cap.max(4) as usize,
                "cap {cap} produced {n} candidates"
            );
        }
    }

    #[test]
    fn corpus_rejects_malformed_files() {
        let dir = std::env::temp_dir().join("zoracle-partition-corpus-bad");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.ptrace");
        // Missing tenant headers.
        std::fs::write(
            &path,
            "# design: z3\n# policy: lru\n# lines: 64\n# ways: 4\n# seed: 1\n# enforce: true\nT0 R 0x1\n",
        )
        .unwrap();
        assert!(read_part_repro(&path).is_err());
        // Trace references an undeclared tenant.
        std::fs::write(
            &path,
            "# design: z3\n# policy: lru\n# lines: 64\n# ways: 4\n# seed: 1\n# enforce: true\n# tenant: 32 52\nT5 R 0x1\n",
        )
        .unwrap();
        assert!(read_part_repro(&path).is_err());
        // Unknown mutation.
        std::fs::write(
            &path,
            "# design: z3\n# policy: lru\n# lines: 64\n# ways: 4\n# seed: 1\n# enforce: true\n# tenant: 32 52\n# mutation: gremlins\nT0 R 0x1\n",
        )
        .unwrap();
        assert!(read_part_repro(&path).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }
}
