//! Section 3 validation: BTB misprediction rates of switch-dispatch vs
//! threaded-code interpreters.
//!
//! The paper (§1, §3, citing Ertl & Gregg 2003b) reports that BTBs
//! mispredict 81%–98% of indirect branches under switch dispatch and
//! 57%–63% under threaded code (50%–61% with 2-bit counters), and that
//! ~13%–16.5% of retired instructions are indirect branches in Gforth
//! vs ~6% in the JVM (§7.2.2).
//!
//! Run with: `cargo run --release -p ivm-bench --bin section3`
//!
//! With JSON output enabled (`IVM_JSON=1`), the report also carries an
//! `attribution` section: the first benchmark re-run under
//! switch/threaded/dynamic-replication dispatch with a
//! [`DispatchAttribution`] observer attached, breaking the mispredictions
//! down per opcode, per instance and per Celeron BTB set.

use ivm_bench::{frontend, run_cells, Cell, Frontend, Report, Row};
use ivm_bpred::BtbConfig;
use ivm_cache::CpuSpec;
use ivm_core::{Profile, Technique};
use ivm_obs::{DispatchAttribution, Json};

/// Re-runs a benchmark under `tech` with an attribution observer attached
/// and returns the JSON breakdown. Fully frontend-generic: everything it
/// needs comes through [`ivm_core::GuestVm`].
fn attribution_for(
    fe: &'static Frontend,
    name: &'static str,
    tech: Technique,
    cpu: &CpuSpec,
    training: &Profile,
) -> Json {
    let sink = DispatchAttribution::new().with_btb_sets(BtbConfig::celeron());
    let breakdown = fe.attributed_run(name, tech, cpu, training, sink);
    Json::obj().with("technique", tech.paper_name()).with("dispatch", breakdown)
}

fn main() {
    let mut report = Report::new("section3");
    let cpu = CpuSpec::pentium4_northwood();
    let forth = frontend("forth");
    let trainings = forth.trainings();

    let grid = forth.grid(&cpu, &[Technique::Switch, Technique::Threaded], &trainings);
    let mut rows = Vec::new();
    let mut ratio_rows = Vec::new();
    for ((b, switch), plain) in forth.benches().iter().zip(&grid[0].1).zip(&grid[1].1) {
        rows.push(Row {
            label: b.name.to_owned(),
            values: vec![
                100.0 * switch.counters.misprediction_rate(),
                100.0 * plain.counters.misprediction_rate(),
            ],
        });
        ratio_rows.push(Row {
            label: b.name.to_owned(),
            values: vec![100.0 * plain.counters.indirect_branch_ratio()],
        });
    }
    report.table(
        "BTB misprediction rates (%), Forth suite (paper: switch 81-98%, threaded 57-63%)",
        &["switch", "threaded"],
        &rows,
        1,
    );
    report.table(
        "Indirect branches as % of retired instructions, Forth plain (paper: up to 16.5%)",
        &["ind.br.%"],
        &ratio_rows,
        1,
    );

    let java = frontend("java");
    let jtrainings = java.trainings();
    let jresults = java.suite(&cpu, Technique::Threaded, &jtrainings);
    let jrows: Vec<Row> = java
        .benches()
        .iter()
        .zip(&jresults)
        .map(|(b, plain)| Row {
            label: b.name.to_owned(),
            values: vec![
                100.0 * plain.counters.misprediction_rate(),
                100.0 * plain.counters.indirect_branch_ratio(),
            ],
        })
        .collect();
    report.table(
        "Java plain interpreter (paper: ~6.1% of instructions are indirect branches)",
        &["mispred%", "ind.br.%"],
        &jrows,
        1,
    );

    // JSON-only: attribute the first benchmark's mispredictions per
    // opcode/instance/BTB-set under the three §3 dispatch regimes. Stdout
    // stays byte-identical with and without it.
    if report.enabled() {
        let name = forth.benches()[0].name;
        let training = forth.training_for(name);
        let techniques = [Technique::Switch, Technique::Threaded, Technique::DynamicRepl];
        let cells: Vec<Cell<Technique>> = techniques
            .into_iter()
            .map(|t| Cell::new(format!("section3/attrib/{name}/{t}"), t))
            .collect();
        let breakdowns: Vec<Json> =
            run_cells(cells, |cell, _| attribution_for(forth, name, cell.input, &cpu, &training));
        report.section(
            "attribution",
            Json::obj().with("benchmark", name).with("techniques", Json::Arr(breakdowns)),
        );
    }
    report.finish();
}
