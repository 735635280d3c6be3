//! A deterministic parallel experiment executor.
//!
//! Every report binary in this workspace replays a grid of independent
//! experiment cells — (program × dispatch technique × predictor × cache)
//! combinations — and the grid is embarrassingly parallel. This module is
//! the zero-dependency worker pool that shards such a grid across
//! `IVM_JOBS` OS threads while keeping the output *bit-identical at any
//! job count*:
//!
//! * Cells are identified by a stable string id chosen by the caller.
//!   Each cell receives its own [`Xoshiro256StarStar`] stream derived
//!   from that id (and the run seed), never from scheduling order, so a
//!   cell draws the same random choices whether it runs first on one
//!   worker or last on sixteen.
//! * Results are written into a slot indexed by the cell's position and
//!   merged back in canonical (submission) order; which worker ran which
//!   cell is unobservable in the result vector.
//! * A panicking cell does not tear down the process from a detached
//!   thread: the panic is caught, the remaining queue is drained, and
//!   the run fails with the cell id in the error.
//!
//! `IVM_JOBS=1` restores fully serial execution on the calling thread —
//! exactly the behaviour the report binaries had before this module
//! existed. The default job count is the machine's available parallelism.
//!
//! Cells must not print: anything a cell writes to stdout would interleave
//! nondeterministically under `IVM_JOBS>1`. Compute in the cell, return
//! the result, and print after the merge.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::rng::{splitmix64, Xoshiro256StarStar};

/// One experiment cell: a stable identifier plus the caller's input.
///
/// The id is part of the experiment's definition, not a debugging label:
/// it keys the cell's private RNG stream, names the cell in panic errors,
/// and labels its wall time in executor metadata. Renaming a cell changes
/// the random choices it draws (and nothing else).
#[derive(Debug, Clone)]
pub struct Cell<T> {
    /// Stable identifier, unique within one [`run_cells`] call by
    /// convention (duplicates are allowed but share an RNG stream).
    pub id: String,
    /// The experiment input handed to the cell closure.
    pub input: T,
}

impl<T> Cell<T> {
    /// A cell named `id` carrying `input`.
    pub fn new(id: impl Into<String>, input: T) -> Self {
        Self { id: id.into(), input }
    }
}

/// Per-cell execution context: the cell's id and its pinned RNG stream.
#[derive(Debug)]
pub struct CellCtx {
    id: String,
    seed: u64,
    rng: Xoshiro256StarStar,
}

impl CellCtx {
    fn new(id: &str, run_seed: u64) -> Self {
        let seed = cell_seed(id, run_seed);
        Self { id: id.to_owned(), seed, rng: Xoshiro256StarStar::seed_from_u64(seed) }
    }

    /// The cell's id.
    pub fn id(&self) -> &str {
        &self.id
    }

    /// The derived seed of this cell's stream (for replay diagnostics).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The cell's private RNG stream. The stream depends only on the cell
    /// id and the run seed — never on worker assignment or execution
    /// order.
    pub fn rng(&mut self) -> &mut Xoshiro256StarStar {
        &mut self.rng
    }
}

/// Derives a cell's RNG seed from its id and the run seed: FNV-1a over
/// the id bytes, mixed with the run seed through splitmix64. Stable by
/// construction — part of this crate's pinned-stream API surface.
#[must_use]
pub fn cell_seed(id: &str, run_seed: u64) -> u64 {
    const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;
    let mut hash = FNV_OFFSET;
    for &b in id.as_bytes() {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    let mut state = hash ^ run_seed.rotate_left(32);
    splitmix64(&mut state)
}

/// The configured worker count: `IVM_JOBS` when set to a positive
/// integer, otherwise the machine's available parallelism (1 if unknown).
#[must_use]
pub fn jobs() -> usize {
    match std::env::var("IVM_JOBS").ok().and_then(|v| v.trim().parse::<usize>().ok()) {
        Some(n) if n >= 1 => n,
        _ => std::thread::available_parallelism().map(usize::from).unwrap_or(1),
    }
}

/// The run seed cells derive their streams from: `IVM_SEED` when set,
/// otherwise 0.
#[must_use]
pub fn run_seed() -> u64 {
    std::env::var("IVM_SEED").ok().and_then(|v| v.trim().parse().ok()).unwrap_or(0)
}

/// Wall time of one executed cell, in canonical cell order.
#[derive(Debug, Clone)]
pub struct CellStat {
    /// The cell's id.
    pub id: String,
    /// Index of the worker that ran the cell (0 for serial runs). Not
    /// deterministic across runs — diagnostics only.
    pub worker: usize,
    /// Wall time the cell's closure took.
    pub wall: Duration,
}

/// Execution statistics of one [`run_cells`] batch.
#[derive(Debug, Clone)]
pub struct ExecStats {
    /// Worker count the batch ran with.
    pub jobs: usize,
    /// Wall time of the whole batch (queue submission to merge).
    pub wall: Duration,
    /// Per-cell wall times, in canonical cell order.
    pub cells: Vec<CellStat>,
}

impl ExecStats {
    /// Estimated serial wall time: the sum of all cell wall times (what a
    /// single worker would have paid, ignoring scheduling overhead).
    #[must_use]
    pub fn serial_estimate(&self) -> Duration {
        self.cells.iter().map(|c| c.wall).sum()
    }

    /// Estimated speedup over serial execution: serial estimate divided
    /// by the batch wall time.
    #[must_use]
    pub fn speedup_estimate(&self) -> f64 {
        let wall = self.wall.as_secs_f64();
        if wall <= 0.0 {
            return 1.0;
        }
        self.serial_estimate().as_secs_f64() / wall
    }
}

/// A cell failed: the experiment must not report partial tables.
#[derive(Debug, Clone)]
pub struct CellError {
    /// Id of the first failing cell in canonical order.
    pub id: String,
    /// The panic payload, when it was a string.
    pub message: String,
}

impl std::fmt::Display for CellError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "experiment cell `{}` panicked: {}", self.id, self.message)
    }
}

impl std::error::Error for CellError {}

/// Runs every cell and merges the results in canonical order, with the
/// job count and run seed taken from the environment ([`jobs`],
/// [`run_seed`]).
///
/// # Errors
///
/// Returns a [`CellError`] naming the first failing cell (in canonical
/// order) if any cell panicked. All queued cells still run to completion
/// first, so one bad cell reports one error, not a cascade of poisoned
/// workers.
pub fn run_cells<T, R, F>(cells: &[Cell<T>], f: F) -> Result<(Vec<R>, ExecStats), CellError>
where
    T: Sync,
    R: Send,
    F: Fn(&Cell<T>, &mut CellCtx) -> R + Sync,
{
    run_cells_with(jobs(), run_seed(), cells, f)
}

/// [`run_cells`] with an explicit worker count and run seed.
///
/// The output is bit-identical for every `jobs >= 1` given the same
/// `cells`, `seed` and a deterministic `f` — the property the workspace's
/// report goldens rely on, pinned by `tests/par.rs`.
///
/// # Errors
///
/// Returns a [`CellError`] naming the first failing cell (in canonical
/// order) if any cell panicked.
pub fn run_cells_with<T, R, F>(
    jobs: usize,
    seed: u64,
    cells: &[Cell<T>],
    f: F,
) -> Result<(Vec<R>, ExecStats), CellError>
where
    T: Sync,
    R: Send,
    F: Fn(&Cell<T>, &mut CellCtx) -> R + Sync,
{
    let start = Instant::now();
    let jobs = jobs.max(1).min(cells.len().max(1));
    let outcomes = if jobs == 1 {
        // Serial path: run on the calling thread in submission order —
        // byte-for-byte the pre-executor behaviour of the report binaries.
        cells.iter().map(|cell| execute(cell, seed, 0, &f)).collect()
    } else {
        let slots: Vec<Mutex<Option<Outcome<R>>>> =
            cells.iter().map(|_| Mutex::new(None)).collect();
        let next = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for worker in 0..jobs {
                let (next, slots, f) = (&next, &slots, &f);
                scope.spawn(move || {
                    // Span tracks are 1-based per worker; track 0 is the
                    // calling thread (which runs the serial path itself).
                    crate::span::set_track(worker as u32 + 1);
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(cell) = cells.get(i) else { break };
                        let outcome = execute(cell, seed, worker, f);
                        *slots[i].lock().expect("slot lock") = Some(outcome);
                    }
                    crate::span::flush();
                });
            }
        });
        slots
            .into_iter()
            .map(|slot| slot.into_inner().expect("slot lock").expect("every cell ran"))
            .collect::<Vec<_>>()
    };

    let mut results = Vec::with_capacity(cells.len());
    let mut stats =
        ExecStats { jobs, wall: Duration::ZERO, cells: Vec::with_capacity(cells.len()) };
    let mut error = None;
    for outcome in outcomes {
        stats.cells.push(outcome.stat);
        match outcome.result {
            Ok(r) => results.push(r),
            Err(message) if error.is_none() => {
                let id = stats.cells.last().expect("pushed above").id.clone();
                error = Some(CellError { id, message });
            }
            Err(_) => {}
        }
    }
    stats.wall = start.elapsed();
    match error {
        Some(e) => Err(e),
        None => Ok((results, stats)),
    }
}

struct Outcome<R> {
    stat: CellStat,
    result: Result<R, String>,
}

fn execute<T, R, F>(cell: &Cell<T>, seed: u64, worker: usize, f: &F) -> Outcome<R>
where
    F: Fn(&Cell<T>, &mut CellCtx) -> R,
{
    let mut ctx = CellCtx::new(&cell.id, seed);
    let start = Instant::now();
    let result = catch_unwind(AssertUnwindSafe(|| {
        let _span = crate::span::enter("cell");
        f(cell, &mut ctx)
    }))
    .map_err(|payload| {
        payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_owned()))
            .unwrap_or_else(|| "non-string panic payload".to_owned())
    });
    Outcome { stat: CellStat { id: cell.id.clone(), worker, wall: start.elapsed() }, result }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_canonical_order() {
        let cells: Vec<Cell<u64>> = (0..40).map(|i| Cell::new(format!("c{i}"), i)).collect();
        let (out, stats) =
            run_cells_with(4, 0, &cells, |cell, _| cell.input * 3).expect("no panics");
        assert_eq!(out, (0..40).map(|i| i * 3).collect::<Vec<_>>());
        assert_eq!(stats.jobs, 4);
        let ids: Vec<&str> = stats.cells.iter().map(|c| c.id.as_str()).collect();
        assert_eq!(ids[0], "c0");
        assert_eq!(ids[39], "c39");
    }

    #[test]
    fn cell_rng_depends_on_id_and_seed_not_on_schedule() {
        let cells: Vec<Cell<()>> = (0..16).map(|i| Cell::new(format!("cell/{i}"), ())).collect();
        let draw = |jobs| {
            let (out, _) =
                run_cells_with(jobs, 7, &cells, |_, ctx| ctx.rng().next_u64()).expect("ok");
            out
        };
        let serial = draw(1);
        assert_eq!(serial, draw(3));
        assert_eq!(serial, draw(16));
        // Distinct ids draw distinct streams.
        assert_ne!(serial[0], serial[1]);
        // A different run seed shifts every stream.
        let (other, _) = run_cells_with(2, 8, &cells, |_, ctx| ctx.rng().next_u64()).expect("ok");
        assert_ne!(serial, other);
    }

    #[test]
    fn cell_seed_is_pinned() {
        // Part of the stable-stream API: changing these values invalidates
        // every golden produced by a seeded parallel experiment.
        assert_eq!(cell_seed("", 0), 0xC381_7C01_6BA4_FF30);
        assert_eq!(cell_seed("forth/brew/threaded", 0), 0xDF15_AB4E_852D_C33A);
        assert_ne!(cell_seed("a", 0), cell_seed("a", 1));
    }

    #[test]
    fn panicking_cell_fails_the_run_with_its_id() {
        let cells: Vec<Cell<u32>> = (0..8).map(|i| Cell::new(format!("cell/{i}"), i)).collect();
        let err = run_cells_with(3, 0, &cells, |cell, _| {
            assert!(cell.input != 5, "boom in {}", cell.id);
            cell.input
        })
        .expect_err("cell 5 panics");
        assert_eq!(err.id, "cell/5");
        assert!(err.to_string().contains("cell/5"), "error names the cell: {err}");
        assert!(err.message.contains("boom"), "payload preserved: {}", err.message);
    }

    #[test]
    fn zero_cells_and_oversized_pools_are_fine() {
        let none: Vec<Cell<u8>> = Vec::new();
        let (out, stats) = run_cells_with(8, 0, &none, |_, _| 1u8).expect("empty ok");
        assert!(out.is_empty());
        assert_eq!(stats.jobs, 1, "pool is clamped to the cell count");

        let one = vec![Cell::new("only", 9u8)];
        let (out, _) = run_cells_with(64, 0, &one, |c, _| c.input).expect("one ok");
        assert_eq!(out, vec![9]);
    }

    #[test]
    fn stats_account_every_cell() {
        let cells: Vec<Cell<u8>> = (0..5).map(|i| Cell::new(format!("s{i}"), i)).collect();
        let (_, stats) = run_cells_with(2, 0, &cells, |c, _| c.input).expect("ok");
        assert_eq!(stats.cells.len(), 5);
        assert!(stats.serial_estimate() <= stats.wall * 5, "sane magnitudes");
        assert!(stats.speedup_estimate() >= 0.0);
    }
}
