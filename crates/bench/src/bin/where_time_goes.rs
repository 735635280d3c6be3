//! Where does the wall time go? A phase-attributed profile of the
//! measurement pipeline itself.
//!
//! Runs a representative grid — one benchmark per frontend, its full
//! technique suite, plus a capture-then-sweep pass over the predictor
//! registry — entirely through executor cells, then reports how the
//! cell wall time splits across pipeline phases (image build, training,
//! translate, execute, trace capture/encode/decode, dispatch
//! simulation, predictor sweep, BBV extraction, clustering, sampled
//! combine). The `% cell wall` column is each
//! phase's *self* time inside cells as a percentage of the summed cell
//! wall; together with the `(untracked)` row the percentages sum to
//! 100% by construction, so hot-loop PRs can cite before/after phase
//! profiles that account for every microsecond.
//!
//! Wall times are machine-dependent: this report is *not* committed to
//! `results/` and is excluded from determinism comparisons.
//!
//! Run with: `cargo run --release -p ivm-bench --bin where_time_goes`

use ivm_bench::pipeline;
use ivm_bench::{frontend, predictor_registry, run_cells, smoke, trace_store, Cell, Report, Row};
use ivm_bpred::AnyPredictor;
use ivm_cache::CpuSpec;
use ivm_core::{simulate_many, Technique};
use ivm_obs::span;

/// One representative workload: a frontend, a benchmark and the paper's
/// CPU for that frontend.
struct Plan {
    frontend: &'static str,
    bench: &'static str,
    cpu: CpuSpec,
}

fn plans() -> Vec<Plan> {
    vec![
        Plan {
            frontend: "forth",
            bench: if smoke() { "micro" } else { "bench-gc" },
            cpu: CpuSpec::celeron800(),
        },
        Plan { frontend: "java", bench: "mpeg", cpu: CpuSpec::pentium4_northwood() },
        Plan {
            frontend: "calc",
            bench: if smoke() { "triangle" } else { "gcd" },
            cpu: CpuSpec::celeron800(),
        },
    ]
}

/// Runs one workload through the full pipeline, every stage inside
/// executor cells so its time is cell-attributed: train, a (technique ×
/// 1 benchmark) measurement grid, record, trace capture, a single-pass
/// predictor-registry sweep over the captured stream, and one sampled
/// pipeline pass (BBV extraction, clustering, representative-interval
/// simulation, weighted combine).
fn run_plan(plan: &Plan) {
    let f = frontend(plan.frontend);
    let (name, bench, cpu) = (plan.frontend, plan.bench, &plan.cpu);

    let one = |stage: &str| vec![Cell::new(format!("wtg/{name}/{bench}/{stage}"), ())];
    let training =
        run_cells(one("training"), |_, _| f.training_for(bench)).pop().expect("one training cell");

    let techniques = f.techniques();
    let cells: Vec<Cell<Technique>> =
        techniques.iter().map(|&t| Cell::new(format!("wtg/{name}/{bench}/{t}"), t)).collect();
    run_cells(cells, |cell, _| {
        let image = f.image(bench);
        ivm_core::measure(&*image, cell.input, cpu, Some(&training))
            .unwrap_or_else(|e| panic!("wtg/{name}/{bench}/{}: {e}", cell.input))
            .0
    });

    let image = f.image(bench);
    let exec = run_cells(one("record"), |_, _| ivm_core::record(&*image).expect("recording run").0)
        .pop()
        .expect("one record cell");
    let stored = run_cells(one("capture"), |_, _| {
        trace_store().get_or_capture(
            name,
            bench,
            &*image,
            &exec,
            Technique::Threaded,
            Some(&training),
        )
    })
    .pop()
    .expect("one capture cell");
    run_cells(one("sweep"), |_, _| {
        let mut predictors: Vec<AnyPredictor> =
            predictor_registry().iter().map(|(_, build)| build()).collect();
        simulate_many(stored.trace(), &mut predictors).len()
    });
    run_cells(one("sampled"), |_, _| {
        let plan = pipeline::plan(stored.trace(), 1024, 4);
        let (_, build) = predictor_registry()[0];
        pipeline::combine(&pipeline::simulate_sampled(stored.trace(), &plan, &build))
            .simulated_events
    });
}

fn ms(us: u64) -> f64 {
    us as f64 / 1000.0
}

fn main() {
    let mut out = Report::new("where_time_goes");
    for plan in plans() {
        run_plan(&plan);
    }

    let records = span::snapshot();
    let phases = span::aggregate(&records);
    // Root cells only: a serial executor (1 job, or a single-core box)
    // nests inner `run_cells` batches inside an outer cell, and those
    // nested cell durations are already inside their root's wall.
    let cell_wall_us = span::cell_wall_us(&records);
    let pct = |us: u64| {
        if cell_wall_us == 0 {
            0.0
        } else {
            us as f64 * 100.0 / cell_wall_us as f64
        }
    };

    // Self times partition wall time, so these rows — every phase's
    // in-cell self time plus the cells' own (untracked) self time — sum
    // to exactly 100% of the measured cell wall.
    let mut in_cell: Vec<_> =
        phases.iter().filter(|p| p.name != span::CELL_SPAN && p.in_cell_self_us > 0).collect();
    in_cell.sort_by(|a, b| b.in_cell_self_us.cmp(&a.in_cell_self_us).then(a.name.cmp(b.name)));
    let mut rows: Vec<Row> = in_cell
        .iter()
        .map(|p| Row {
            label: p.name.to_owned(),
            values: vec![p.count as f64, ms(p.total_us), ms(p.self_us), pct(p.in_cell_self_us)],
        })
        .collect();
    if let Some(cell) = phases.iter().find(|p| p.name == span::CELL_SPAN) {
        rows.push(Row {
            label: "(untracked)".to_owned(),
            values: vec![
                cell.count as f64,
                ms(cell.total_us),
                ms(cell.self_us),
                pct(cell.in_cell_self_us),
            ],
        });
    }
    out.table(
        "Where the time goes: phase self-time inside executor cells",
        &["calls", "total ms", "self ms", "% cellwall"],
        &rows,
        2,
    );

    // Work that ran outside executor cells (main thread): report render,
    // merge overhead, anything not yet cell-routed.
    let mut outside: Vec<Row> = phases
        .iter()
        .filter(|p| p.self_us > p.in_cell_self_us)
        .map(|p| Row {
            label: p.name.to_owned(),
            values: vec![p.count as f64, ms(p.self_us - p.in_cell_self_us)],
        })
        .collect();
    outside
        .sort_by(|a, b| b.values[1].partial_cmp(&a.values[1]).unwrap_or(std::cmp::Ordering::Equal));
    if !outside.is_empty() {
        out.table(
            "Out-of-cell phase self-time (calling thread)",
            &["calls", "self ms"],
            &outside,
            2,
        );
    }

    let traced_us: u64 = records.iter().filter(|r| r.depth == 0).map(|r| r.dur_us).sum();
    out.table(
        "Totals",
        &["ms"],
        &[
            Row { label: "cell wall (summed)".to_owned(), values: vec![ms(cell_wall_us)] },
            Row { label: "all traced spans".to_owned(), values: vec![ms(traced_us)] },
        ],
        2,
    );
    out.finish();
}
