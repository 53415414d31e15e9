//! The host-speed reference: a fixed kernel timed between the measured
//! segments of every pass and every set-up.
//!
//! Other tenants of a shared host slow the workloads down by up to half,
//! and the slowdown drifts over seconds to minutes. The kernel lives in
//! the benchmark's own code and never changes with the crates, so its time
//! just before and just after a segment measures the host's speed during
//! it. A segment's host seconds are multiplied by (`REFERENCE_SECS` ÷ that
//! kernel time) to the power `SENSITIVITY`, which reads as seconds of the
//! quiet reference host.
//!
//! The kernel is a 4-way set-associative LRU cache of 4096 frames driven
//! by a xorshift stream over 16 K lines: hashing, tag compares and stamp
//! updates in a 48 KiB table, the same kind of work as the code it stands
//! beside. It followed the workloads' slowdown more closely than a pure
//! ALU loop or pointer chases over 1–64 MiB did.

use std::hint::black_box;
use std::time::Instant;

/// The kernel's time on the quiet reference host, seconds. It only sets
/// the scale of the scaled figures; ratios between runs do not depend on
/// it.
pub const REFERENCE_SECS: f64 = 5.9e-4;

/// How much harder a slowdown of the host hits the workloads than the
/// kernel: when the kernel runs `f` times slower, the workloads run about
/// `f^SENSITIVITY` times slower. Log-log slopes of pass speed on kernel
/// speed, fitted per workload over five periods of drifting load on the
/// reference host, ranged from 1.1 to 2.3 (once 0.6), median 1.4.
pub const SENSITIVITY: f64 = 1.5;

const FRAMES: usize = 4096;
const WAYS: usize = 4;
const LINES: u64 = 16_384;
const STEPS: u32 = 1 << 16;

/// Measured time after which a segment is closed by a kernel run, so a
/// long pass is scaled piece by piece. The kernel takes about 0.6 ms.
const SEGMENT_SECS: f64 = 0.05;

/// The reference kernel's cache state, kept warm between runs.
struct Reference {
    tags: Vec<u64>,
    stamps: Vec<u32>,
}

impl Reference {
    /// A kernel whose table has been filled once.
    fn new() -> Self {
        let mut r = Self {
            tags: vec![u64::MAX; FRAMES],
            stamps: vec![0; FRAMES],
        };
        r.time();
        r
    }

    /// Runs the kernel once and returns its host seconds.
    fn time(&mut self) -> f64 {
        let t0 = Instant::now();
        let mut x = 0x2545_f491_4f6c_dd1du64;
        for clock in 0..STEPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let line = (x >> 20) % LINES;
            // 1024 sets of WAYS frames.
            let set = (line.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 54) as usize * WAYS;
            let ways = &mut self.tags[set..set + WAYS];
            match ways.iter().position(|&t| t == line) {
                Some(w) => self.stamps[set + w] = clock,
                None => {
                    let mut victim = 0;
                    for w in 1..WAYS {
                        if self.stamps[set + w] < self.stamps[set + victim] {
                            victim = w;
                        }
                    }
                    self.tags[set + victim] = line;
                    self.stamps[set + victim] = clock;
                }
            }
        }
        black_box(&self.stamps);
        t0.elapsed().as_secs_f64()
    }
}

/// Measures host time in intervals, as wall seconds and as
/// reference-host seconds.
///
/// Intervals add up into segments. Once a segment holds `SEGMENT_SECS`,
/// and whenever the totals are taken, the kernel runs outside the
/// measured time and closes the segment, which is scaled by the kernel
/// times at its two ends.
pub struct Clock {
    reference: Reference,
    /// Kernel time at the start of the open segment.
    kernel: f64,
    /// Start of the running interval.
    started: Option<Instant>,
    /// Wall seconds in the open segment.
    segment: f64,
    /// Wall and scaled seconds of the closed segments not yet taken.
    wall: f64,
    scaled: f64,
}

impl Clock {
    /// A clock with a warmed kernel.
    pub fn new() -> Self {
        let mut reference = Reference::new();
        let kernel = reference.time();
        Self {
            reference,
            kernel,
            started: None,
            segment: 0.0,
            wall: 0.0,
            scaled: 0.0,
        }
    }

    /// Starts a measured interval.
    pub fn start(&mut self) {
        debug_assert!(self.started.is_none(), "interval already running");
        self.started = Some(Instant::now());
    }

    /// Ends the running interval.
    pub fn stop(&mut self) {
        let started = self.started.take().expect("an interval is running");
        self.segment += started.elapsed().as_secs_f64();
        if self.segment >= SEGMENT_SECS {
            self.close_segment();
        }
    }

    /// Wall and reference-host seconds measured since the last call.
    pub fn take(&mut self) -> (f64, f64) {
        if self.segment > 0.0 {
            self.close_segment();
        }
        let out = (self.wall, self.scaled);
        (self.wall, self.scaled) = (0.0, 0.0);
        out
    }

    fn close_segment(&mut self) {
        let kernel = self.reference.time();
        let factor = (2.0 * REFERENCE_SECS / (self.kernel + kernel)).powf(SENSITIVITY);
        self.wall += self.segment;
        self.scaled += self.segment * factor;
        self.segment = 0.0;
        self.kernel = kernel;
    }
}
