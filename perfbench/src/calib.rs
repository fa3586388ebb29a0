//! Machine-speed calibration for the end-to-end timings.
//!
//! On a host shared with other work, throughput-bound code here ran up
//! to 1.8× slower for seconds at a time, while a register-only loop and
//! DRAM-latency-bound reads stayed flat and steal time stayed near 1%:
//! the slowdown is contention for the core itself, which nothing inside
//! the process can remove. So a [`Clock`] cuts a pass's measured work
//! into segments of about `SEGMENT_S`, times a fixed kernel between
//! them, and scales each segment by `NOMINAL_S / kernel time` (the mean
//! of the samples on either side): calibrated seconds are seconds on a
//! machine where the kernel takes `NOMINAL_S`. The kernel rebuilds a
//! small std `HashSet` (SipHash, allocation, cache-resident writes), the
//! kind of work that slowed the most; pass times correlated with it at
//! 0.6–0.9. It runs no code of the program, so a change to the program
//! moves calibrated and raw times alike. Raw seconds are printed and
//! saved next to every calibrated timing.

use std::collections::HashSet;
use std::hint::black_box;
use std::time::Instant;

use crate::alloc;
use crate::report::median;

/// Kernel time taken as the reference speed: its time on the 2-CPU
/// x86-64 VM the benchmark was written on, when that VM was quiet.
const NOMINAL_S: f64 = 0.0022;
/// Kernel runs per sample; their median is the sample.
const RUNS: usize = 3;
/// Measured work between two kernel samples, at least.
const SEGMENT_S: f64 = 0.25;

fn kernel() -> f64 {
    let keys: Vec<u64> = (0..2_000).map(|i| i % 240).collect();
    let t0 = Instant::now();
    let mut distinct = 0;
    for _ in 0..100 {
        let set: HashSet<u64> = black_box(&keys).iter().copied().collect();
        distinct += set.len();
    }
    black_box(distinct);
    t0.elapsed().as_secs_f64()
}

/// Times the kernel, outside any allocation count.
fn sample() -> f64 {
    alloc::paused(|| median(&(0..RUNS).map(|_| kernel()).collect::<Vec<_>>()))
}

/// Measures a pass's work in raw and calibrated seconds. Time spent
/// sampling the kernel is in neither.
pub struct Clock {
    kernel: f64,
    segment: Instant,
    raw_s: f64,
    calibrated_s: f64,
}

impl Clock {
    pub fn start() -> Clock {
        let kernel = sample();
        Clock { kernel, segment: Instant::now(), raw_s: 0.0, calibrated_s: 0.0 }
    }

    /// Marks a point between two calls into the program: ends the
    /// segment there if it has run for `SEGMENT_S`.
    pub fn tick(&mut self) {
        if self.segment.elapsed().as_secs_f64() >= SEGMENT_S {
            self.split();
        }
    }

    fn split(&mut self) {
        let raw = self.segment.elapsed().as_secs_f64();
        let kernel = sample();
        self.raw_s += raw;
        self.calibrated_s += raw * NOMINAL_S / ((self.kernel + kernel) / 2.0);
        self.kernel = kernel;
        self.segment = Instant::now();
    }

    /// Ends the current segment and returns the (raw, calibrated)
    /// seconds since the start or the previous lap.
    pub fn lap(&mut self) -> (f64, f64) {
        self.split();
        let lap = (self.raw_s, self.calibrated_s);
        (self.raw_s, self.calibrated_s) = (0.0, 0.0);
        lap
    }
}
