//! Cross-frontend study: every registered guest VM through the one
//! generic pipeline.
//!
//! This binary is deliberately ignorant of which frontends exist. It
//! iterates [`frontends`] and, for each entry, runs the full suite ×
//! technique grid, prints the speedup table over plain threaded code,
//! and (under JSON output) attaches a per-frontend attribution
//! breakdown of the first benchmark's mispredictions. Adding a new
//! frontend to the registry makes it appear here with zero changes to
//! this file — that is the point.
//!
//! Run with: `cargo run --release -p ivm-bench --bin frontends`

use ivm_bench::{frontends, run_cells, speedup_rows, Cell, Frontend, Report, Row};
use ivm_bpred::BtbConfig;
use ivm_cache::CpuSpec;
use ivm_core::{RunResult, Technique};
use ivm_obs::{DispatchAttribution, Json};

/// Measures one frontend's grid and prints its speedup table. Returns
/// the plain-threaded results for the cross-frontend summary.
fn frontend_tables(out: &mut Report, fe: &'static Frontend, cpu: &CpuSpec) -> Vec<RunResult> {
    let trainings = fe.trainings();
    let per_technique = fe.grid(cpu, &fe.techniques(), &trainings);
    let baselines = per_technique
        .iter()
        .find(|(t, _)| *t == Technique::Threaded)
        .expect("every technique suite includes threaded")
        .1
        .clone();

    let mut rows = vec![Row { label: "plain".to_owned(), values: vec![1.0; baselines.len()] }];
    rows.extend(
        speedup_rows(&baselines, &per_technique).into_iter().filter(|r| r.label != "plain"),
    );
    out.table(
        &format!("{} frontend: speedups over plain threaded code on {}", fe.display, cpu.name),
        &fe.names(),
        &rows,
        2,
    );
    baselines
}

/// Re-runs a frontend's first benchmark with an attribution observer and
/// returns the JSON breakdown. Same shape for every frontend: the
/// machinery only speaks [`ivm_core::GuestVm`].
fn attribution(fe: &'static Frontend, tech: Technique, cpu: &CpuSpec) -> Json {
    let name = fe.benches()[0].name;
    let training = fe.training_for(name);
    let sink = DispatchAttribution::new().with_btb_sets(BtbConfig::celeron());
    let breakdown = fe.attributed_run(name, tech, cpu, &training, sink);
    Json::obj()
        .with("frontend", fe.name)
        .with("benchmark", name)
        .with("technique", tech.paper_name())
        .with("dispatch", breakdown)
}

fn main() {
    let mut report = Report::new("frontends");
    let cpu = CpuSpec::celeron800();

    let mut summary = Vec::new();
    for fe in frontends() {
        let baselines = frontend_tables(&mut report, fe, &cpu);
        let (mispred, branches) = baselines.iter().fold((0u64, 0u64), |(m, b), r| {
            (m + r.counters.indirect_mispredicted, b + r.counters.indirect_branches)
        });
        summary.push(Row {
            label: fe.display.to_owned(),
            values: vec![baselines.len() as f64, 100.0 * mispred as f64 / branches.max(1) as f64],
        });
    }
    report.table(
        "Cross-frontend summary: suite size and plain-threaded BTB misprediction rate",
        &["benches", "mispred%"],
        &summary,
        1,
    );

    // JSON-only: one attribution breakdown per frontend, all through the
    // identical code path. Stdout stays byte-identical without it.
    if report.enabled() {
        let cells: Vec<Cell<&'static Frontend>> = frontends()
            .iter()
            .map(|fe| Cell::new(format!("frontends/attrib/{}", fe.name), fe))
            .collect();
        let breakdowns: Vec<Json> =
            run_cells(cells, |cell, _| attribution(cell.input, Technique::DynamicRepl, &cpu));
        report.section("attribution", Json::Arr(breakdowns));
    }
    report.finish();
}
