//! Instruction-fetch cache simulators and CPU cycle cost models.
//!
//! The paper measures interpreters with hardware performance counters on an
//! 800 MHz Celeron (16 KB I-cache, 512-entry BTB, ~10-cycle misprediction
//! penalty) and Northwood Pentium 4s (12K-µop trace cache, 4096-entry BTB,
//! ~20-cycle penalty). This crate provides the software equivalents:
//!
//! * [`Icache`] — a set-associative instruction cache with LRU replacement,
//!   accessed by `(address, length)` fetch regions. The Pentium 4 trace
//!   cache is one geometry of it, [`IcacheConfig::pentium4_trace`]: a cache
//!   over decoded µop lines, with Zhou & Ross's 27-cycle miss estimate
//!   (paper §7.3, *miss cycles*).
//! * [`CpuSpec`] — named machine configurations bundling predictor geometry,
//!   cache geometry and penalties for the machines in paper §6.2.
//! * [`PerfCounters`] — the retired-instruction / indirect-branch /
//!   misprediction / I-cache-miss counters of paper §7.3, with the cycle
//!   model `cycles = instructions·CPI + mispredictions·penalty +
//!   misses·miss_penalty`.
//!
//! # Examples
//!
//! ```
//! use ivm_cache::{CpuSpec, PerfCounters};
//!
//! let cpu = CpuSpec::pentium4_northwood();
//! let mut c = PerfCounters::default();
//! c.instructions = 1_000_000;
//! c.indirect_mispredicted = 50_000;
//! c.icache_misses = 1_000;
//! let cycles = c.cycles(&cpu.costs);
//! assert!(cycles > 1_000_000.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cost;
mod cpu;
mod icache;

pub use cost::{CycleCosts, PerfCounters};
pub use cpu::{CpuSpec, PredictorKind};
pub use icache::{FetchCache, Icache, IcacheConfig, PerfectIcache};

/// A simulated native-code address (re-exported from [`ivm_bpred`]).
pub use ivm_bpred::Addr;
