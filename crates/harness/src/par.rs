//! A deterministic parallel experiment executor.
//!
//! Every report binary in this workspace replays a grid of independent
//! experiment cells — (program × dispatch technique × predictor × cache)
//! combinations — and the grid is embarrassingly parallel. This module is
//! the zero-dependency worker pool that shards such a grid across
//! `IVM_JOBS` OS threads while keeping the output *bit-identical at any
//! job count*:
//!
//! * Cells are identified by a stable string id chosen by the caller,
//!   which names the cell in panic errors and executor metadata. A cell
//!   sees only its input and its id, never which worker runs it or when.
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

/// One experiment cell: a stable identifier plus the caller's input.
///
/// The id names the cell in panic errors and labels its wall time in
/// executor metadata.
#[derive(Debug, Clone)]
pub struct Cell<T> {
    /// Stable identifier, unique within one [`run_cells`] call by
    /// convention.
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

/// Per-cell execution context: the cell's id.
#[derive(Debug)]
pub struct CellCtx {
    id: String,
}

impl CellCtx {
    /// The cell's id.
    pub fn id(&self) -> &str {
        &self.id
    }
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
/// job count taken from the environment ([`jobs`]).
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
    run_cells_with(jobs(), cells, f)
}

/// [`run_cells`] with an explicit worker count.
///
/// The output is bit-identical for every `jobs >= 1` given the same
/// `cells` and a deterministic `f` — the property the workspace's
/// report goldens rely on, pinned by `tests/par.rs`.
///
/// # Errors
///
/// Returns a [`CellError`] naming the first failing cell (in canonical
/// order) if any cell panicked.
pub fn run_cells_with<T, R, F>(
    jobs: usize,
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
        cells.iter().map(|cell| execute(cell, 0, &f)).collect()
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
                        let outcome = execute(cell, worker, f);
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

fn execute<T, R, F>(cell: &Cell<T>, worker: usize, f: &F) -> Outcome<R>
where
    F: Fn(&Cell<T>, &mut CellCtx) -> R,
{
    let mut ctx = CellCtx { id: cell.id.clone() };
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
        let (out, stats) = run_cells_with(4, &cells, |cell, ctx| {
            assert_eq!(ctx.id(), cell.id);
            cell.input * 3
        })
        .expect("no panics");
        assert_eq!(out, (0..40).map(|i| i * 3).collect::<Vec<_>>());
        assert_eq!(stats.jobs, 4);
        let ids: Vec<&str> = stats.cells.iter().map(|c| c.id.as_str()).collect();
        assert_eq!(ids[0], "c0");
        assert_eq!(ids[39], "c39");
    }

    #[test]
    fn panicking_cell_fails_the_run_with_its_id() {
        let cells: Vec<Cell<u32>> = (0..8).map(|i| Cell::new(format!("cell/{i}"), i)).collect();
        let err = run_cells_with(3, &cells, |cell, _| {
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
        let (out, stats) = run_cells_with(8, &none, |_, _| 1u8).expect("empty ok");
        assert!(out.is_empty());
        assert_eq!(stats.jobs, 1, "pool is clamped to the cell count");

        let one = vec![Cell::new("only", 9u8)];
        let (out, _) = run_cells_with(64, &one, |c, _| c.input).expect("one ok");
        assert_eq!(out, vec![9]);
    }

    #[test]
    fn stats_account_every_cell() {
        let cells: Vec<Cell<u8>> = (0..5).map(|i| Cell::new(format!("s{i}"), i)).collect();
        let (_, stats) = run_cells_with(2, &cells, |c, _| c.input).expect("ok");
        assert_eq!(stats.cells.len(), 5);
        assert!(stats.serial_estimate() <= stats.wall * 5, "sane magnitudes");
        assert!(stats.speedup_estimate() >= 0.0);
    }
}
