//! Tables I–IV: the paper's hand traces of BTB behaviour, regenerated by
//! replaying the example VM programs against the idealised BTB simulator.
//!
//! Run with: `cargo run --release -p ivm-bench --bin table1_4`
//!
//! With JSON output enabled (`IVM_JSON=1`), each replay's
//! steady-state iteration is also attributed per dispatch branch and per
//! Celeron BTB set by a [`DispatchAttribution`] with one instance per
//! branch, and recorded in `results/json/table1_4.json`.

use std::fmt::Write as _;

use ivm_bench::{run_cells, Cell, Report};
use ivm_bpred::{BtbConfig, IdealBtb, IndirectPredictor};
use ivm_core::DispatchObserver;
use ivm_obs::{DispatchAttribution, Json};

const A: u64 = 0xA00;
const A1: u64 = 0xA10;
const A2: u64 = 0xA20;
const B: u64 = 0xB00;
const B1: u64 = 0xB10;
const B2: u64 = 0xB20;
const GOTO: u64 = 0xC00;
const B_A: u64 = 0xD00;
const SWITCH: u64 = 0x40;

fn name(addr: u64) -> &'static str {
    match addr {
        A => "A",
        A1 => "A1",
        A2 => "A2",
        B => "B",
        B1 => "B1",
        B2 => "B2",
        GOTO => "GOTO",
        B_A => "B_A",
        SWITCH => "switch",
        _ => "?",
    }
}

fn br(entry: u64) -> u64 {
    if entry == SWITCH {
        SWITCH
    } else {
        entry + 8
    }
}

/// The printable name of a dispatch branch address (the inverse of [`br`]).
fn branch_name(branch: u64) -> String {
    if branch == SWITCH {
        "switch".to_owned()
    } else {
        format!("br-{}", name(branch - 8))
    }
}

/// Replays one steady-state iteration of a dispatch sequence, renders the
/// prediction/actual columns of the paper's tables, and returns the
/// rendered text plus the steady-state attribution breakdown for the JSON
/// report. Replays run as executor cells, so this must not print — `main`
/// prints the merged texts in table order.
fn replay(title: &str, seq: &[(u64, u64)]) -> (String, Json) {
    let mut out = String::new();
    let _ = writeln!(out, "{title}");
    let _ = writeln!(out, "  {:<3} {:<10} {:<12} {:<8}", "#", "BTB entry", "prediction", "actual");
    let mut btb = IdealBtb::new();
    // Warm-up iteration (the paper assumes the loop ran once already).
    for &(from, to) in seq {
        btb.predict_and_update(br(from), to);
    }
    // Only the steady-state iteration printed below is attributed, with
    // one instance per dispatch branch in address order.
    let mut branches: Vec<u64> = seq.iter().map(|&(from, _)| br(from)).collect();
    branches.sort_unstable();
    branches.dedup();
    let mut attribution = DispatchAttribution::new().with_btb_sets(BtbConfig::celeron());
    for (i, &(from, to)) in seq.iter().enumerate() {
        let branch = br(from);
        let predicted = btb.predicted_target(branch);
        let hit = btb.predict_and_update(branch, to);
        let instance = branches.binary_search(&branch).expect("every branch is listed");
        attribution.dispatch(instance, branch, to, !hit);
        let _ = writeln!(
            out,
            "  {:<3} br-{:<7} {:<12} {:<8}{}",
            i + 1,
            name(from),
            predicted.map(name).unwrap_or("-"),
            name(to),
            if hit { "" } else { "   <- mispredicted" }
        );
    }
    let misses = attribution.total().mispredicted;
    let _ = writeln!(out, "  mispredictions per iteration: {misses}\n");

    let per_branch = branches
        .iter()
        .zip(attribution.per_instance())
        .map(|(&branch, tally)| {
            Json::obj()
                .with("branch", branch_name(branch))
                .with("executed", tally.executed)
                .with("mispredicted", tally.mispredicted)
        })
        .collect();
    let sets = attribution
        .set_conflicts()
        .into_iter()
        .map(|c| {
            Json::obj()
                .with("set", c.set)
                .with("distinct_branches", c.distinct_branches)
                .with("executed", c.tally.executed)
                .with("mispredicted", c.tally.mispredicted)
        })
        .collect();
    let json = Json::obj()
        .with("title", title)
        .with("mispredictions_per_iteration", misses)
        .with("per_branch", Json::Arr(per_branch))
        .with("celeron_btb_sets", Json::Arr(sets));
    (out, json)
}

/// One replayed table row: the section header printed before it (if it
/// opens a new table), its stable cell id, title and dispatch sequence.
struct ReplaySpec {
    header: Option<&'static str>,
    id: &'static str,
    title: &'static str,
    seq: &'static [(u64, u64)],
}

fn main() {
    let mut report = Report::new("table1_4");

    let specs = [
        ReplaySpec {
            header: Some("== Table I: BTB predictions on a small VM program =="),
            id: "switch",
            title: "Switch dispatch (one shared indirect branch):",
            seq: &[(SWITCH, A), (SWITCH, B), (SWITCH, A), (SWITCH, GOTO)],
        },
        ReplaySpec {
            header: None,
            id: "threaded",
            title: "Threaded dispatch (one branch per VM routine):",
            seq: &[(A, B), (B, A), (A, GOTO), (GOTO, A)],
        },
        ReplaySpec {
            header: Some("== Table II: replication eliminates the mispredictions =="),
            id: "replicas",
            title: "Threaded dispatch with replicas A1, A2:",
            seq: &[(A1, B), (B, A2), (A2, GOTO), (GOTO, A1)],
        },
        ReplaySpec {
            header: Some("== Table III: bad static replication adds mispredictions =="),
            id: "original",
            title: "Original code (A B A B A GOTO):",
            seq: &[(A, B), (B, A), (A, B), (B, A), (A, GOTO), (GOTO, A)],
        },
        ReplaySpec {
            header: None,
            id: "bad-replicas",
            title: "Modified code with replicas B1, B2:",
            seq: &[(A, B1), (B1, A), (A, B2), (B2, A), (A, GOTO), (GOTO, A)],
        },
        ReplaySpec {
            header: Some("== Table IV: superinstruction B_A =="),
            id: "superinstruction",
            title: "Threaded dispatch with superinstruction B_A:",
            seq: &[(A, B_A), (B_A, GOTO), (GOTO, A)],
        },
    ];

    let cells: Vec<Cell<&ReplaySpec>> =
        specs.iter().map(|s| Cell::new(format!("table1_4/{}", s.id), s)).collect();
    let replayed = run_cells(cells, |cell, _| replay(cell.input.title, cell.input.seq));

    let mut replays = Vec::new();
    for (spec, (text, json)) in specs.iter().zip(replayed) {
        if let Some(header) = spec.header {
            println!("{header}\n");
        }
        print!("{text}");
        replays.push(json);
    }

    report.section("replays", Json::Arr(replays));
    report.finish();
}
