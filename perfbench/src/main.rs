//! `perfbench` — an outside-in benchmark of the zcache workspace.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <array-z52|sim-exec|sim-fig4|serve-chaos> --seed N --seconds S --trace 0|1
//! ```
//!
//! Each run builds one workload's inputs from `--seed`, times repeated
//! passes of it for `--seconds`, checks the outputs, prints a readable
//! report, and ends with one JSON line:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! With `--trace 0` the metrics are the end-to-end ones (host throughput,
//! set-up time, memory, and the modelled results); with `--trace 1` they
//! are the per-layer ones from a separate traced run. The exit code is 1
//! when an output check fails and 2 on bad arguments. See README.md.

mod array;
mod reference;
mod serve;
mod sim;
mod trace;

use reference::Clock;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;
use trace::Tracer;

/// Fewest set-up repeats per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;

/// Set-up keeps repeating until this much wall clock has gone, so a quick
/// set-up gets more repeats (at most `MAX_SETUP_REPS`).
const SETUP_BUDGET_S: f64 = 0.5;

/// Most set-up repeats per run.
const MAX_SETUP_REPS: usize = 200;

/// Fewest timed passes a run makes, however long they take.
const MIN_PASSES: usize = 3;

/// Untraced passes run on each side of a traced pass as its baseline.
const BRACKET: usize = 2;

/// Largest |residual| the traced run accepts where it is checked: the
/// layer self-times of a traced pass must sum to its untraced baseline
/// within this share.
const RESIDUAL_TOLERANCE: f64 = 0.25;

/// The end-to-end metrics, in output order, with their units.
const END_TO_END: &[(&str, &str)] = &[
    ("accesses_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("miss_ratio", "fraction"),
    ("ipc", "instr/cycle"),
    ("bips_per_watt", "BIPS/W"),
    ("p99_latency_ticks", "ticks"),
    ("capacity_ops_per_tick", "ops/tick"),
    ("acked_frac", "fraction"),
];

/// The per-layer metrics of the traced run, with their units. A layer a
/// workload does not exercise reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("zworkloads.stream.ns_per_ref", "ns"),
    ("zworkloads.refs", "count"),
    ("zhash.h3.ns_per_hash", "ns"),
    ("zcache.cache.hit_ns", "ns"),
    ("zcache.cache.miss_ns", "ns"),
    ("zcache.cache.miss_ns_p99", "ns"),
    ("zcache.cache.hit_ratio", "fraction"),
    ("zcache.array.lookup_ns", "ns"),
    ("zcache.array.walk_ns_per_miss", "ns"),
    ("zcache.array.candidates_per_miss", "count"),
    ("zcache.array.walk_tag_reads_per_miss", "count"),
    ("zcache.array.walk_levels_per_miss", "count"),
    ("zcache.array.candidates_per_tag_read", "ratio"),
    ("zcache.repl.select_ns_per_miss", "ns"),
    ("zcache.repl.update_ns_per_access", "ns"),
    ("zcache.array.install_ns_per_miss", "ns"),
    ("zcache.array.relocations_per_miss", "count"),
    ("zcache.assoc.ks_to_xn", "distance"),
    ("zsim.system_run_s", "s"),
    ("zsim.slice.streams_s", "s"),
    ("zsim.slice.l1_s", "s"),
    ("zsim.slice.l2_s", "s"),
    ("zsim.slice.residual_frac", "fraction"),
    ("zsim.l1.hit_ratio", "fraction"),
    ("zsim.dir.invalidation_rounds", "count"),
    ("zsim.dir.back_invalidations", "count"),
    ("zsim.mem.queue_cycles_per_access", "cycles"),
    ("zsim.ports.contention_cycles", "cycles"),
    ("zsim.ports.walk_delay_cycles", "cycles"),
    ("zsim.record_s", "s"),
    ("zsim.oracle_s", "s"),
    ("zsim.replay_s.sa", "s"),
    ("zsim.replay_s.z", "s"),
    ("zsim.replay_ns_per_ref", "ns"),
    ("zserve.run_s", "s"),
    ("zserve.ns_per_tick", "ns"),
    ("zserve.ticks", "count"),
    ("zserve.retries_per_op", "ratio"),
    ("zserve.hedges_per_op", "ratio"),
    ("zserve.timeouts", "count"),
    ("zserve.queue_rejections", "count"),
    ("zserve.admission_rejections", "count"),
    ("zserve.budget_reductions", "count"),
    ("zserve.shard_crashes", "count"),
    ("zserve.shard.hit_ratio", "fraction"),
    ("zserve.acks_per_attempt", "ratio"),
    ("zserve.failed_frac", "fraction"),
    ("zenergy.l2_nj_per_access", "nJ"),
    ("zenergy.walk_nj_per_miss", "nJ"),
    ("trace.overhead_frac", "fraction"),
    ("trace.residual_frac", "fraction"),
    ("trace.span_cost_ns", "ns"),
];

/// Modelled end-to-end results of one workload: deterministic for a
/// given seed. `None` marks a result the workload does not model.
#[derive(Debug, Clone, Default)]
pub struct Modelled {
    /// Misses ÷ accesses of the cache level under test.
    pub miss_ratio: f64,
    /// Instructions per cycle (simulated CMP workloads).
    pub ipc: Option<f64>,
    /// Fig. 5 efficiency (simulated CMP workloads).
    pub bips_per_watt: Option<f64>,
    /// p99 latency over all acked service ops, virtual ticks.
    pub p99_latency_ticks: Option<f64>,
    /// Highest arrival rate meeting the latency limit with no backlog.
    pub capacity_ops_per_tick: Option<f64>,
    /// Operations acknowledged ÷ operations issued; 1 where every
    /// modelled access completes by construction.
    pub acked_frac: f64,
}

/// What one timed pass did.
#[derive(Debug, Clone, Copy)]
pub struct PassOut {
    /// Modelled accesses processed (the `accesses_per_s` numerator).
    pub accesses: u64,
    /// FNV digest of every modelled statistic the pass produced.
    pub digest: u64,
}

/// Per-layer metric values of the traced run.
pub type Layers = BTreeMap<&'static str, f64>;

/// One benchmark workload.
pub trait Bench {
    /// Runs one pass of the workload: the same inputs every time, so
    /// every pass yields the same modelled statistics. The measured work
    /// runs between `clock.start()` and `clock.stop()`; spans go to `tr`.
    fn pass(&mut self, tr: &mut Tracer, clock: &mut Clock) -> PassOut;
    /// Checks the outputs of the passes run so far; each failure is
    /// pushed as a message.
    fn check(&mut self, failures: &mut Vec<String>);
    /// The modelled results of a pass.
    fn modelled(&self) -> Modelled;
    /// Traced-only layer measurements beyond the traced passes.
    fn layers(&mut self, tr: &mut Tracer, out: &mut Layers);
    /// Traced passes the traced run makes.
    fn traced_passes(&self) -> usize {
        7
    }
    /// Whether the traced pass splits each call into layer spans, so the
    /// residual checks attribution. Workloads that span whole calls only
    /// report it.
    fn residual_checked(&self) -> bool {
        false
    }
    /// Extra report lines about the latest pass.
    fn describe(&self) -> Vec<String> {
        Vec::new()
    }
}

/// Command-line arguments.
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <array-z52|sim-exec|sim-fig4|serve-chaos> \
                     --seed N --seconds S --trace 0|1";

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("bad {what} {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("seed"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("seconds"))?;
                if !(s.is_finite() && s > 0.0 && s <= 600.0) {
                    return Err(bad("seconds"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("trace")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// Builds the named workload from `seed`; `None` for an unknown name.
fn build(name: &str, seed: u64) -> Option<Box<dyn Bench>> {
    Some(match name {
        "array-z52" => Box::new(array::ArrayZ52::new(seed)),
        "sim-exec" => Box::new(sim::SimExec::new(seed)),
        "sim-fig4" => Box::new(sim::SimFig4::new(seed)),
        "serve-chaos" => Box::new(serve::ServeChaos::new(seed)),
        _ => return None,
    })
}

/// Sorted copy of `v`.
fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Quartiles `(q1, median, q3)` by linear interpolation.
pub fn quartiles(v: &[f64]) -> (f64, f64, f64) {
    let s = sorted(v);
    let at = |q: f64| {
        let pos = q * (s.len() - 1) as f64;
        let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
        s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
    };
    (at(0.25), at(0.5), at(0.75))
}

/// Median of a non-empty sample.
pub fn median(v: &[f64]) -> f64 {
    quartiles(v).1
}

/// Nearest-rank percentile of a non-empty sample.
pub fn percentile(v: &[f64], p: f64) -> f64 {
    let s = sorted(v);
    let rank = ((s.len() as f64 * p / 100.0).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}

/// FNV-1a fold of a sequence of 64-bit values.
pub fn fnv(h: u64, values: &[u64]) -> u64 {
    values.iter().fold(h, |h, v| {
        v.to_le_bytes().iter().fold(h, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    })
}

/// Initial FNV-1a state.
pub const FNV_SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// Peak resident set (`VmHWM`) of this process, MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Directory the traced run writes its spans to.
fn trace_dir() -> PathBuf {
    let base = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("perfbench/target"));
    base.join("perfbench-spans")
}

/// Mean measured duration of an empty span, ns: the clock cost every
/// recorded span carries inside its own interval.
fn span_cost_ns() -> f64 {
    let mut t = Tracer::on();
    let mut means = Vec::new();
    for _ in 0..9 {
        let first = t.spans().len();
        for _ in 0..10_000 {
            let id = t.enter("empty");
            t.exit(id);
        }
        let total: u64 = t.spans()[first..].iter().map(|s| s.dur()).sum();
        means.push(total as f64 / 10_000.0);
    }
    median(&means)
}

/// A timed pass with its measured wall seconds and reference-host
/// seconds.
#[derive(Debug, Clone, Copy)]
struct Timed {
    pass: PassOut,
    wall: f64,
    scaled: f64,
}

/// Times passes until `budget` seconds of wall clock have gone and at
/// least `min` passes ran. Returns every pass.
fn timed_passes(
    bench: &mut dyn Bench,
    tr: &mut Tracer,
    clock: &mut Clock,
    budget: f64,
    min: usize,
) -> Vec<Timed> {
    let t0 = Instant::now();
    let mut out = Vec::new();
    while out.len() < min || t0.elapsed().as_secs_f64() < budget {
        tr.next_run();
        let root = tr.enter("bench.pass");
        let pass = bench.pass(tr, clock);
        tr.exit(root);
        let (wall, scaled) = clock.take();
        out.push(Timed { pass, wall, scaled });
    }
    out
}

fn fmt_metrics(values: &[(&str, f64, &str)]) -> String {
    let body: Vec<String> = values
        .iter()
        .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };

    // Set-up: input generation, construction and warm-up, repeated and
    // reported as the median in reference-host seconds; the last instance
    // is the one measured.
    let mut clock = Clock::new();
    let mut setups = Vec::new();
    let mut wall_setups = Vec::new();
    let mut bench = None;
    let setup_start = Instant::now();
    while setups.len() < SETUP_REPS
        || (setups.len() < MAX_SETUP_REPS && setup_start.elapsed().as_secs_f64() < SETUP_BUDGET_S)
    {
        drop(bench.take());
        clock.start();
        let Some(b) = build(&args.workload, args.seed) else {
            eprintln!("perfbench: unknown workload {:?}\n{USAGE}", args.workload);
            std::process::exit(2);
        };
        clock.stop();
        let (wall, scaled) = clock.take();
        setups.push(scaled);
        wall_setups.push(wall);
        bench = Some(b);
    }
    let mut bench = bench.expect("at least one set-up ran");
    let setup_s = median(&setups);

    // Untraced passes: the end-to-end figures. A traced run spends half
    // its budget here, then makes its traced passes and the layer
    // measurements.
    let untraced_budget = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let mut off = Tracer::off();
    let passes = timed_passes(
        bench.as_mut(),
        &mut off,
        &mut clock,
        untraced_budget,
        MIN_PASSES,
    );
    let rate = |secs: f64, t: &Timed| t.pass.accesses as f64 / secs.max(1e-9);
    let wall_rates: Vec<f64> = passes.iter().map(|t| rate(t.wall, t)).collect();
    let rates: Vec<f64> = passes.iter().map(|t| rate(t.scaled, t)).collect();
    let pass_secs: Vec<f64> = passes.iter().map(|t| t.wall).collect();

    let mut failures = Vec::new();
    let digest = passes[0].pass.digest;
    let mut failed_passes = passes.iter().filter(|t| t.pass.digest != digest).count();
    bench.check(&mut failures);
    let modelled = bench.modelled();

    let (q1, med, q3) = quartiles(&rates);
    let peak = peak_rss_mib();
    let na = |v: Option<f64>| v.map_or("n/a".to_string(), |x| format!("{x}"));
    println!("workload {} seed {}", args.workload, args.seed);
    println!(
        "  accesses_per_s        {med:.0} 1/s (q1 {q1:.0}, q3 {q3:.0}, {} passes, median pass {:.4} s)",
        rates.len(),
        median(&pass_secs)
    );
    let scales: Vec<f64> = passes.iter().map(|t| t.scaled / t.wall).collect();
    println!(
        "  wall clock            {:.0} 1/s, set-up {:.6} s; median time scale {:.3}",
        median(&wall_rates),
        median(&wall_setups),
        median(&scales)
    );
    println!(
        "  setup_s               {setup_s:.6} s (median of {})",
        setups.len()
    );
    println!("  peak_rss_mib          {peak:.1} MiB");
    println!("  miss_ratio            {:.6}", modelled.miss_ratio);
    println!("  ipc                   {}", na(modelled.ipc));
    println!("  bips_per_watt         {}", na(modelled.bips_per_watt));
    println!("  p99_latency_ticks     {}", na(modelled.p99_latency_ticks));
    println!(
        "  capacity_ops_per_tick {}",
        na(modelled.capacity_ops_per_tick)
    );
    println!("  acked_frac            {:.6}", modelled.acked_frac);
    println!("  failed_frac           {:.6}", 1.0 - modelled.acked_frac);
    println!("  digest                {digest:#018x}");
    for line in bench.describe() {
        println!("  {line}");
    }

    let mut attempted = passes.len();
    let metrics = if args.trace {
        let mut layers: Layers = PER_LAYER.iter().map(|&(n, _)| (n, 0.0)).collect();
        let mut tr = Tracer::on();
        // Each traced pass is compared with the untraced passes just
        // before and just after it, so drift in host speed over the run
        // does not show up as overhead or residual.
        let clock = &mut clock;
        let mut before = timed_passes(bench.as_mut(), &mut off, clock, 0.0, BRACKET);
        let mut traced = Vec::new();
        let mut baselines = Vec::new();
        let mut bracketing = before.clone();
        for _ in 0..bench.traced_passes() {
            traced.extend(timed_passes(bench.as_mut(), &mut tr, clock, 0.0, 1));
            let after = timed_passes(bench.as_mut(), &mut off, clock, 0.0, BRACKET);
            let secs: Vec<f64> = before.iter().chain(&after).map(|t| t.wall).collect();
            baselines.push(median(&secs));
            bracketing.extend_from_slice(&after);
            before = after;
        }
        for t in traced.iter().chain(&bracketing) {
            attempted += 1;
            failed_passes += usize::from(t.pass.digest != digest);
        }

        // Residual: the layer self-times of each traced pass, each span
        // less the clock cost it carries, against its untraced baseline.
        let cost = span_cost_ns();
        let mut layer_ns: BTreeMap<u32, f64> = BTreeMap::new();
        for (s, &st) in tr.spans().iter().zip(&tr.self_times()) {
            if s.name != "bench.pass" {
                *layer_ns.entry(s.run).or_default() += (st as f64 - cost).max(0.0);
            }
        }
        let pass_runs = tr
            .spans()
            .iter()
            .filter(|s| s.name == "bench.pass")
            .map(|s| s.run);
        let residuals: Vec<f64> = pass_runs
            .zip(&baselines)
            .map(|(run, base)| layer_ns.get(&run).copied().unwrap_or(0.0) * 1e-9 / base - 1.0)
            .collect();
        let overheads: Vec<f64> = traced
            .iter()
            .zip(&baselines)
            .map(|(t, base)| t.wall / base - 1.0)
            .collect();
        let residual = median(&residuals);
        let overhead = median(&overheads);
        layers.insert("trace.overhead_frac", overhead);
        layers.insert("trace.residual_frac", residual);
        layers.insert("trace.span_cost_ns", cost);
        bench.layers(&mut tr, &mut layers);
        let tolerance = if bench.residual_checked() {
            format!("tolerance ±{RESIDUAL_TOLERANCE}")
        } else {
            "not checked".to_string()
        };
        println!(
            "  traced: {} passes, overhead {:+.3}, residual {:+.3} ({tolerance}), \
             span clock cost {cost:.1} ns",
            traced.len(),
            overhead,
            residual
        );
        if bench.residual_checked() && residual.abs() > RESIDUAL_TOLERANCE {
            failures.push(format!(
                "layer self-times miss the untraced pass time by {residual:+.3}"
            ));
        }
        let path = trace_dir().join(format!("spans-{}-seed{}.csv", args.workload, args.seed));
        match tr.write(&path) {
            Ok(()) => println!("  spans written to {}", path.display()),
            Err(e) => failures.push(format!("writing spans to {}: {e}", path.display())),
        }
        for (name, v) in &layers {
            println!("  {name:<40} {v}");
        }
        PER_LAYER
            .iter()
            .map(|&(n, u)| (n, layers[n], u))
            .collect::<Vec<_>>()
    } else {
        let value = |name: &str| match name {
            "accesses_per_s" => med,
            "setup_s" => setup_s,
            "peak_rss_mib" => peak,
            "miss_ratio" => modelled.miss_ratio,
            // Results a workload does not model read as 1 (see README).
            "ipc" => modelled.ipc.unwrap_or(1.0),
            "bips_per_watt" => modelled.bips_per_watt.unwrap_or(1.0),
            "p99_latency_ticks" => modelled.p99_latency_ticks.unwrap_or(1.0),
            "capacity_ops_per_tick" => modelled.capacity_ops_per_tick.unwrap_or(1.0),
            "acked_frac" => modelled.acked_frac,
            _ => unreachable!("every end-to-end metric has a value"),
        };
        END_TO_END
            .iter()
            .map(|&(n, u)| (n, value(n), u))
            .collect::<Vec<_>>()
    };

    for (name, v, _) in &metrics {
        if !v.is_finite() {
            failures.push(format!("metric {name} is not a finite number"));
        }
    }
    let metrics: Vec<_> = metrics
        .into_iter()
        .map(|(n, v, u)| (n, if v.is_finite() { v } else { 0.0 }, u))
        .collect();
    if failed_passes > 0 {
        failures.push(format!(
            "{failed_passes} passes produced a different digest from the first"
        ));
    }
    for f in &failures {
        println!("  CHECK FAILED: {f}");
    }
    let correct = failures.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed_passes}, \"metrics\": {}}}",
        fmt_metrics(&metrics)
    );
    if !correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_interpolate_like_python_inclusive() {
        let (q1, m, q3) = quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!((q1, m, q3), (2.0, 3.0, 4.0));
        assert_eq!(median(&[4.0, 1.0]), 2.5);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn args_reject_bad_values() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(String::from));
        assert!(parse("--workload sim-exec --seed 3 --seconds 2 --trace 1").is_ok());
        assert!(parse("--workload x --trace 2").is_err());
        assert!(parse("--workload x --seconds -1").is_err());
        assert!(parse("--seed 1").is_err());
        assert!(parse("--workload x --bogus 1").is_err());
    }
}
