//! A fixed reference computation that gauges how fast the host runs the
//! benchmark.
//!
//! A shared host slows every process on it by tens of percent for
//! minutes at a time, which no statistic inside one run can remove. So
//! the reference is measured before the timed passes, after every step
//! and around every set-up, and a run scales each time it reports by
//! [`NOMINAL_S`] over the median of its measurements: a host that runs
//! everything 30% slower leaves the scaled time where it was. The median
//! over the whole run keeps one disturbed measurement from moving it.
//!
//! The reference uses nothing from the library, so no change to the
//! simulator moves it. Like the predictors it updates a table larger
//! than the L2 cache at hashed indices, with a branch on the data. It
//! runs on the calling thread, so it starts no thread and allocates
//! nothing after its table.

use std::hint::black_box;
use std::time::Instant;

use crate::metrics::median;

/// Entries of the table: 2 MiB of `u64`.
const TABLE: usize = 1 << 18;

/// Table updates in one run of the reference.
const UPDATES: u64 = 1 << 20;

/// Runs per measurement. A measurement is their median, so the first
/// run after a step, which refills the caches, does not count.
const RUNS: usize = 5;

/// The median measurement on an idle 2-core VM, in seconds: a time
/// scaled by this over a run's median measurement reads in seconds at
/// that VM's speed.
pub const NOMINAL_S: f64 = 0.004;

/// The reference computation, its table and its measurements so far.
pub struct Reference {
    table: Vec<u64>,
    runs: u64,
    measurements: Vec<f64>,
}

impl Reference {
    /// Allocates the table and runs the reference once, unrecorded, so
    /// that page faults stay out of every measurement.
    pub fn new() -> Self {
        let mut r = Self { table: vec![0; TABLE], runs: 0, measurements: Vec::new() };
        r.run();
        r
    }

    /// Measures the reference once: the median wall seconds of [`RUNS`]
    /// runs.
    pub fn measure(&mut self) {
        let times: Vec<f64> = (0..RUNS).map(|_| self.run()).collect();
        self.measurements.push(median(&times));
    }

    /// `raw` seconds scaled to the reference VM's speed by the median of
    /// the measurements so far.
    pub fn scale(&self, raw: f64) -> f64 {
        raw * NOMINAL_S / median(&self.measurements)
    }

    /// The measurements so far, in seconds.
    pub fn measurements(&self) -> &[f64] {
        &self.measurements
    }

    fn run(&mut self) -> f64 {
        self.runs += 1;
        let t = Instant::now();
        black_box(kernel(&mut self.table, self.runs));
        t.elapsed().as_secs_f64()
    }
}

/// Xorshift-driven read-modify-write updates at hashed table indices.
fn kernel(table: &mut [u64], seed: u64) -> u64 {
    let mask = table.len() - 1;
    let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut matched = 0u64;
    for _ in 0..UPDATES {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let i = (x.wrapping_mul(0xD1B5_4A32_D192_ED03) >> 32) as usize & mask;
        let old = table[i];
        if old & 3 == x & 3 {
            matched += 1;
        }
        table[i] = old.wrapping_add(x).rotate_left(5);
    }
    matched
}
