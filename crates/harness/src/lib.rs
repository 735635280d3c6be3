//! Deterministic, zero-dependency test and bench infrastructure.
//!
//! Every experiment in this workspace is a *measurement*: the paper's
//! tables and figures are regenerated from seeded simulations, and the
//! `results/*.txt` goldens are expected to reproduce byte-for-byte on any
//! machine. That rules out external crates whose streams or statistics can
//! shift between versions (`rand`'s `StdRng` is explicitly documented as
//! version-unstable) and, in the offline build environment, rules out
//! registry dependencies entirely. This crate is the in-repo replacement:
//!
//! * [`rng`] — a documented, stable-stream PRNG (splitmix64 seeding +
//!   xoshiro256\*\*). The bit stream is pinned by tests and will never
//!   change; replica selection and every other seeded choice in the
//!   workspace routes through it.
//! * [`prop`] — a minimal property-testing framework: fused
//!   generation/checking against a recorded choice tape, automatic
//!   shrinking by tape reduction, a fixed default seed, and
//!   `IVM_PROP_SEED` / `IVM_PROP_CASES` environment overrides for replay
//!   and soak runs.
//! * [`bench`](mod@bench) — a small statistical micro-benchmark runner (warmup,
//!   N timed samples, median and median-absolute-deviation, human and
//!   JSON output) for `harness = false` bench targets.
//! * [`par`] — a deterministic parallel experiment executor: a scoped
//!   worker pool that shards independent experiment cells across
//!   `IVM_JOBS` threads and merges results in canonical order, so
//!   reports are bit-identical at any job count.
//! * [`cluster`] — deterministic k-means phase clustering for
//!   SimPoint-style interval sampling: seeded by the pinned [`rng`]
//!   streams, fixed iteration cadence, every tie broken by stable index,
//!   so representative-interval selection reproduces byte-for-byte.
//! * [`span`] — low-overhead wall-time span tracing (scoped guards,
//!   monotonic clocks, thread-local stacks). The primitive under
//!   `ivm-obs::span`'s phase attribution; it lives here so `ivm-core`'s
//!   measurement pipeline and the [`par`] executor can open spans
//!   without depending on the observability crate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bench;
pub mod cluster;
pub mod par;
pub mod prop;
pub mod rng;
pub mod span;

pub use bench::Bencher;
pub use cluster::{kmeans, Clustering};
pub use par::{run_cells, run_cells_with, Cell, CellCtx, CellError, CellStat, ExecStats};
pub use prop::{Config, Source};
pub use rng::Xoshiro256StarStar;

/// Asserts a condition inside a [`prop::check`] property, returning
/// `Err(String)` (with the condition text and an optional formatted
/// message) instead of panicking so the framework can shrink the input.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return Err(format!(
                "assertion failed: {} ({}:{})",
                stringify!($cond),
                file!(),
                line!()
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return Err(format!(
                "assertion failed: {} ({}:{}): {}",
                stringify!($cond),
                file!(),
                line!(),
                format_args!($($fmt)+)
            ));
        }
    };
}

/// Equality counterpart of [`prop_assert!`]: reports both operands on
/// failure.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        if l != r {
            return Err(format!(
                "assertion failed: {} == {} ({}:{})\n  left: {:?}\n right: {:?}",
                stringify!($left),
                stringify!($right),
                file!(),
                line!(),
                l,
                r
            ));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        if l != r {
            return Err(format!(
                "assertion failed: {} == {} ({}:{}): {}\n  left: {:?}\n right: {:?}",
                stringify!($left),
                stringify!($right),
                file!(),
                line!(),
                format_args!($($fmt)+),
                l,
                r
            ));
        }
    }};
}
