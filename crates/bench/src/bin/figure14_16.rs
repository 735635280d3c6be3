//! Figures 14–16: balancing static replication against superinstructions.
//!
//! * Figure 14: cycles for bench-gc (Gforth) on a Celeron-800, sweeping the
//!   replica/superinstruction split for several total budgets.
//! * Figure 15: cycles for mpegaudio (Java) on a Pentium 4, same sweep.
//! * Figure 16: indirect branch mispredictions for the Figure 15 sweep.
//!
//! Run with: `cargo run --release -p ivm-bench --bin figure14_16 -- [forth|java]`
//! (default: both)

use ivm_bench::{frontend, run_cells, smoke, Cell, Report, Row};
use ivm_cache::CpuSpec;
use ivm_core::{CoverAlgorithm, Profile, ReplicaSelection, Technique};

fn percents() -> &'static [usize] {
    if smoke() {
        &[0, 50, 100]
    } else {
        &[0, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100]
    }
}

fn split_technique(total: usize, pct_super: usize) -> Technique {
    let supers = total * pct_super / 100;
    let replicas = total - supers;
    match (replicas, supers) {
        (0, 0) => Technique::Threaded,
        (r, 0) => Technique::StaticRepl { budget: r, selection: ReplicaSelection::RoundRobin },
        (0, s) => Technique::StaticSuper { budget: s, algo: CoverAlgorithm::Greedy },
        (r, s) => Technique::StaticBoth {
            replicas: r,
            supers: s,
            selection: ReplicaSelection::RoundRobin,
            algo: CoverAlgorithm::Greedy,
        },
    }
}

/// Runs the (budget total × superinstruction percentage) grid through the
/// executor, one cell per configuration, and regroups the measurements
/// into one row per total. `prefix` keys the cell ids (e.g.
/// `forth/bench-gc`).
fn sweep(
    prefix: &str,
    totals: &[usize],
    run: impl Fn(Technique) -> (f64, u64) + Sync,
) -> (Vec<Row>, Vec<Row>) {
    let cells: Vec<Cell<(usize, usize)>> = totals
        .iter()
        .flat_map(|&total| {
            percents()
                .iter()
                .map(move |&pct| Cell::new(format!("{prefix}/total{total}/sup{pct}"), (total, pct)))
        })
        .collect();
    let measured = run_cells(cells, |cell, _| {
        let (total, pct) = cell.input;
        run(split_technique(total, pct))
    });

    let mut cycle_rows = Vec::new();
    let mut mispred_rows = Vec::new();
    for (&total, chunk) in totals.iter().zip(measured.chunks(percents().len())) {
        let cycles = chunk.iter().map(|&(c, _)| c).collect();
        let mispreds = chunk.iter().map(|&(_, m)| m as f64).collect();
        cycle_rows.push(Row { label: format!("total {total}"), values: cycles });
        mispred_rows.push(Row { label: format!("total {total}"), values: mispreds });
    }
    (cycle_rows, mispred_rows)
}

fn percent_columns() -> Vec<String> {
    percents().iter().map(|p| format!("{p}%sup")).collect()
}

fn forth_sweep(out: &mut Report) {
    let cpu = CpuSpec::celeron800();
    let forth = frontend("forth");
    let name = if smoke() { "micro" } else { "bench-gc" };
    let training = forth.training_for(name);
    // The paper sweeps up to 1600 additional instructions (Figure 14).
    let totals: &[usize] =
        if smoke() { &[0, 100, 400] } else { &[0, 25, 50, 100, 200, 400, 800, 1600] };
    // Record the execution once and replay it per configuration — the
    // sweep measures the same run under many layouts.
    let image = forth.image(name);
    let (trace, _) = ivm_core::record(&*image).expect("recording run");
    let (cycles, _) = sweep(&format!("forth/{name}"), totals, |tech| {
        let r = ivm_core::measure_trace(&*image, &trace, tech, &cpu, Some(&training));
        (r.cycles, r.counters.indirect_mispredicted)
    });
    let cols = percent_columns();
    let col_refs: Vec<&str> = cols.iter().map(String::as_str).collect();
    out.table(
        &format!("Figure 14: cycles for bench-gc (Gforth) on {}, replica/super split", cpu.name),
        &col_refs,
        &cycles,
        0,
    );
}

fn java_sweep(out: &mut Report) {
    let cpu = CpuSpec::pentium4_northwood();
    let java = frontend("java");
    let training: Profile = java.training_for("mpeg");
    let totals: &[usize] = if smoke() { &[0, 200] } else { &[0, 50, 100, 200, 300, 400] };
    let image = java.image("mpeg");
    let (trace, _) = ivm_core::record(&*image).expect("recording run");
    let (cycles, mispreds) = sweep("java/mpeg", totals, |tech| {
        let r = ivm_core::measure_trace(&*image, &trace, tech, &cpu, Some(&training));
        (r.cycles, r.counters.indirect_mispredicted)
    });
    let cols = percent_columns();
    let col_refs: Vec<&str> = cols.iter().map(String::as_str).collect();
    out.table(
        &format!("Figure 15: cycles for mpegaudio (Java) on {}, replica/super split", cpu.name),
        &col_refs,
        &cycles,
        0,
    );
    out.table(
        "Figure 16: indirect branch mispredictions for the Figure 15 sweep",
        &col_refs,
        &mispreds,
        0,
    );
}

fn main() {
    let mut out = Report::new("figure14_16");
    let arg = std::env::args().nth(1);
    match arg.as_deref() {
        Some("forth") => forth_sweep(&mut out),
        Some("java") => java_sweep(&mut out),
        _ => {
            forth_sweep(&mut out);
            java_sweep(&mut out);
        }
    }
    out.finish();
}
