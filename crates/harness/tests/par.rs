//! Property tests for the parallel experiment executor: sharding a
//! randomized cell grid across 1, 2 or 7 workers must be unobservable in
//! the results, and a panicking cell must fail the whole run with its id.

use ivm_harness::par::{run_cells_with, Cell};
use ivm_harness::{prop, prop_assert, prop_assert_eq};

/// A deterministic experiment cell: mixes its input with its id, so the
/// property fails if result placement or the id a cell sees ever
/// depends on scheduling.
fn simulate(input: u64, id: &str) -> (u64, String) {
    let mixed = id.bytes().fold(input, |acc, b| acc.rotate_left(7) ^ u64::from(b));
    (mixed, id.to_owned())
}

#[test]
fn output_is_identical_for_jobs_1_2_and_7() {
    prop::check("par_jobs_invariance", prop::Config::from_env().cases(32), |src| {
        // A random grid: random size, random (possibly colliding) ids,
        // random payloads.
        let n = src.int_in(0usize..40);
        let cells: Vec<Cell<u64>> = (0..n)
            .map(|i| {
                let id = if src.bool() {
                    format!("{}/{}", src.lowercase(1..6), src.below(8))
                } else {
                    format!("cell-{i}")
                };
                Cell::new(id, src.below(1 << 48))
            })
            .collect();

        let run = |jobs: usize| {
            run_cells_with(jobs, &cells, |cell, ctx| simulate(cell.input, ctx.id()))
                .expect("cells do not panic")
        };
        let (serial, serial_stats) = run(1);
        for jobs in [2usize, 7] {
            let (parallel, stats) = run(jobs);
            prop_assert_eq!(&serial, &parallel, "jobs={} diverged from serial", jobs);
            prop_assert_eq!(
                stats.cells.len(),
                serial_stats.cells.len(),
                "stats cover every cell at jobs={}",
                jobs
            );
            // Stats come back in canonical order regardless of schedule.
            for (a, b) in stats.cells.iter().zip(&serial_stats.cells) {
                prop_assert_eq!(&a.id, &b.id, "canonical stat order at jobs={}", jobs);
            }
        }
        Ok(())
    });
}

#[test]
fn panicking_cell_reports_first_failure_in_canonical_order() {
    prop::check("par_panic_reporting", prop::Config::from_env().cases(32), |src| {
        let n = src.int_in(1usize..20);
        let bad: Vec<bool> = (0..n).map(|_| src.weighted(&[3, 1]) == 1).collect();
        let cells: Vec<Cell<bool>> =
            bad.iter().enumerate().map(|(i, &b)| Cell::new(format!("grid/{i}"), b)).collect();
        let outcome = run_cells_with(src.int_in(1usize..8), &cells, |cell, _| {
            assert!(!cell.input, "injected failure in {}", cell.id);
            cell.input
        });
        match bad.iter().position(|&b| b) {
            None => prop_assert!(outcome.is_ok(), "no injected failure, run must pass"),
            Some(first) => {
                let err = match outcome {
                    Ok(_) => return Err("injected failure not reported".into()),
                    Err(e) => e,
                };
                prop_assert_eq!(&err.id, &format!("grid/{}", first), "first bad cell wins");
                prop_assert!(
                    err.to_string().contains(&format!("grid/{first}")),
                    "error message names the cell: {}",
                    err
                );
            }
        }
        Ok(())
    });
}

/// Held by the test below while it reads the span sink. Worker threads
/// block on it in a thread-local destructor; cells register that
/// destructor after the span layer's own, and glibc runs thread-local
/// destructors last-registered first, so a worker's exit-time span flush
/// cannot happen before the read. (Elsewhere the test still passes with
/// the executor's explicit flush; it just may not catch its removal.)
static EXIT_GATE: std::sync::Mutex<()> = std::sync::Mutex::new(());

struct WaitForGate;

impl Drop for WaitForGate {
    fn drop(&mut self) {
        drop(EXIT_GATE.lock());
    }
}

thread_local! {
    static WAIT_FOR_GATE: WaitForGate = const { WaitForGate };
}

#[test]
fn worker_spans_reach_the_sink_before_the_batch_returns() {
    // `std::thread::scope` returns once the worker closures finish, before
    // their threads' thread-local destructors run; spans the workers left
    // to the span layer's exit-time flush would miss this snapshot.
    let gate = EXIT_GATE.lock().expect("gate lock");
    let cells: Vec<Cell<u64>> = (0..16).map(|i| Cell::new(format!("span-{i}"), i)).collect();
    run_cells_with(4, &cells, |_, _| {
        WAIT_FOR_GATE.with(|_| {});
        let _g = ivm_harness::span::enter("test-par-cell-body");
    })
    .expect("no cell panics");
    let seen =
        ivm_harness::span::snapshot().iter().filter(|s| s.name == "test-par-cell-body").count();
    drop(gate);
    assert_eq!(seen, cells.len(), "every worker's spans are in the sink when the batch returns");
}
