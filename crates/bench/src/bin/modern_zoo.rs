//! Does the paper's advice survive 2025 silicon? The paper's conclusions
//! — replication beats superinstructions because BTBs are the binding
//! constraint — are calibrated to a Celeron BTB and a Northwood P4. This
//! binary streams the dispatches of a technique grid (replication ladder,
//! superinstruction axis, all three frontends) through the classic
//! predictors *and* the modern zoo (path-history hybrid, ITTAGE family)
//! and prints the crossover analysis: which techniques still pay under
//! ITTAGE, which invert, and at what replication budget the win
//! disappears.
//!
//! Run with: `cargo run --release -p ivm-bench --bin modern_zoo`

use ivm_bench::{frontends, pipeline, predictor_registry, run_cells, smoke, Cell, Report, Row};
use ivm_bpred::AnyPredictor;
use ivm_core::{CoverAlgorithm, PredictorSweep, ReplicaSelection, Technique};
use ivm_obs::{ittage_breakdown_json, Json};

/// The classic half of the zoo: the paper-era predictors.
const CLASSIC: &[&str] = &["btb-celeron", "btb-p4", "btb-2bit", "two-level-pentium-m", "cascaded"];

/// The modern half: the intermediate hybrid plus the ITTAGE family.
const MODERN: &[&str] =
    &["path-hybrid", "ittage-small", "ittage-medium", "ittage-firestorm", "ittage-64kb"];

/// The two predictors the crossover analysis contrasts.
const PAPER_BTB: &str = "btb-celeron";
const MODERN_REF: &str = "ittage-64kb";

/// The replication ladder plus the superinstruction axis. Budgets walk
/// the static-replication dial so the analysis can locate where the
/// technique stops paying; the superinstruction points test whether the
/// paper's "replication beats superinstructions" ranking survives.
fn techniques() -> Vec<Technique> {
    let repl = |budget| Technique::StaticRepl { budget, selection: ReplicaSelection::RoundRobin };
    let sup = |budget| Technique::StaticSuper { budget, algo: CoverAlgorithm::Greedy };
    if smoke() {
        vec![Technique::Threaded, repl(100), Technique::DynamicRepl, sup(100), Technique::AcrossBb]
    } else {
        vec![
            Technique::Threaded,
            repl(25),
            repl(100),
            repl(400),
            repl(1600),
            Technique::DynamicRepl,
            sup(25),
            sup(100),
            sup(400),
            Technique::DynamicSuper,
            Technique::AcrossBb,
        ]
    }
}

/// The static-replication budgets in ladder order (for the crossover
/// reading), as (budget, index-into-techniques).
fn repl_ladder() -> Vec<(usize, usize)> {
    techniques()
        .iter()
        .enumerate()
        .filter_map(|(i, t)| match t {
            Technique::StaticRepl { budget, .. } => Some((*budget, i)),
            _ => None,
        })
        .collect()
}

/// Builds fresh registry predictors for the given names, in order.
fn build(names: &[&str]) -> Vec<AnyPredictor> {
    let registry = predictor_registry();
    names
        .iter()
        .map(|want| {
            registry
                .iter()
                .find(|(name, _)| name == want)
                .unwrap_or_else(|| panic!("{want} not in predictor registry"))
                .1()
        })
        .collect()
}

/// Everything one sweep cell computes for a `(frontend, technique)`
/// point: per-predictor misprediction rates (classic then modern order),
/// event count, and the ITTAGE reference breakdown.
struct SweepOut {
    rates: Vec<f64>,
    events: u64,
    attribution: Json,
}

fn main() {
    let mut report = Report::new("modern_zoo");
    let techs = techniques();
    let all_names: Vec<&str> = CLASSIC.iter().chain(MODERN.iter()).copied().collect();
    let modern_ref_col = all_names.iter().position(|n| *n == MODERN_REF).expect("ref in zoo");
    let paper_btb_col = all_names.iter().position(|n| *n == PAPER_BTB).expect("btb in zoo");

    // One representative benchmark per frontend — the heaviest member of
    // each smoke-safe subset, matching the other sweep bins.
    let picks: Vec<(&'static str, &'static str)> = frontends()
        .iter()
        .map(|f| {
            let bench = match f.name {
                "forth" => {
                    if smoke() {
                        "micro"
                    } else {
                        "bench-gc"
                    }
                }
                "java" => "mpeg",
                _ => {
                    if smoke() {
                        "triangle"
                    } else {
                        "gcd"
                    }
                }
            };
            (f.name, f.find(bench).name)
        })
        .collect();

    // One cell per (frontend, technique) replays the recorded run and
    // sweeps the whole zoo over its dispatches as they stream, so no cell
    // holds a dispatch trace. The dispatch stream does not depend on the
    // predictor, so every rate is bit-identical to a live engine run with
    // that predictor.
    let mut all_rows: Vec<(usize, Vec<SweepOut>)> = Vec::new();
    for (pi, &(fname, bench)) in picks.iter().enumerate() {
        let fe = ivm_bench::frontend(fname);
        let image = fe.image(bench);
        let training = fe.training_for(bench);
        let (exec, _) = ivm_core::record(&*image).expect("recording run");
        let cells: Vec<Cell<Technique>> = techs
            .iter()
            .map(|&t| Cell::new(format!("modern_zoo/sweep/{fname}/{}", t.id()), t))
            .collect();
        let outs = run_cells(cells, |cell, _| {
            let sweep = PredictorSweep::new(build(&all_names));
            let (stats, predictors) =
                pipeline::replay(&*image, &exec, cell.input, Some(&training), sweep).finish();
            let attribution = predictors[modern_ref_col]
                .ittage_breakdown()
                .map(ittage_breakdown_json)
                .expect("reference predictor is an ITTAGE");
            SweepOut {
                rates: stats.iter().map(|s| 100.0 * s.misprediction_rate()).collect(),
                events: stats.first().map_or(0, |s| s.executed),
                attribution,
            }
        });
        all_rows.push((pi, outs));
    }

    // --- Tables: classic vs modern predictors, one pair per frontend. ---
    let mut zoo_json = Json::obj();
    for &(pi, ref outs) in &all_rows {
        let (fname, bench) = picks[pi];
        let fe = ivm_bench::frontend(fname);
        let rows = |range: std::ops::Range<usize>| -> Vec<Row> {
            techs
                .iter()
                .zip(outs)
                .map(|(t, out)| Row {
                    label: t.paper_name().to_owned(),
                    values: out.rates[range.clone()].to_vec(),
                })
                .collect()
        };
        report.table(
            &format!("{} {bench}: misprediction rate (%), paper-era predictors", fe.display),
            CLASSIC,
            &rows(0..CLASSIC.len()),
            1,
        );
        report.table(
            &format!("{} {bench}: misprediction rate (%), modern zoo", fe.display),
            MODERN,
            &rows(CLASSIC.len()..all_names.len()),
            1,
        );

        let mut fe_json =
            Json::obj().with("bench", bench).with("events", outs.first().map_or(0, |o| o.events));
        let mut grid = Json::obj();
        for (t, out) in techs.iter().zip(outs) {
            let mut per_pred = Json::obj();
            for (name, &rate) in all_names.iter().zip(&out.rates) {
                per_pred.set(name, rate);
            }
            grid.set(&t.id(), per_pred);
        }
        fe_json.set("rates_pct", grid);
        let attrib: Vec<Json> = techs
            .iter()
            .zip(outs)
            .map(|(t, out)| {
                Json::obj().with("technique", t.id()).with(MODERN_REF, out.attribution.clone())
            })
            .collect();
        fe_json.set("ittage_attribution", attrib);
        zoo_json.set(fname, fe_json);
    }
    report.section("modern_zoo", zoo_json);

    // --- Crossover analysis: paper BTB vs the 64KB ITTAGE reference. ---
    let mut inverted: Vec<String> = Vec::new();
    let mut readings: Vec<String> = Vec::new();
    for &(pi, ref outs) in &all_rows {
        let (fname, bench) = picks[pi];
        let fe = ivm_bench::frontend(fname);
        let rows: Vec<Row> = techs
            .iter()
            .zip(outs)
            .map(|(t, out)| Row {
                label: t.paper_name().to_owned(),
                values: vec![
                    out.rates[paper_btb_col],
                    out.rates[modern_ref_col],
                    out.rates[paper_btb_col] - out.rates[modern_ref_col],
                ],
            })
            .collect();
        report.table(
            &format!("{} {bench}: crossover (paper BTB vs 64KB ITTAGE)", fe.display),
            &["celeron", "ittage-64kb", "closed (pp)"],
            &rows,
            1,
        );

        // Which techniques that paid on the Celeron stop paying (or
        // invert) under ITTAGE: compare each against plain threading.
        let threaded = &outs[0];
        for (t, out) in techs.iter().zip(outs).skip(1) {
            let classic_gain = threaded.rates[paper_btb_col] - out.rates[paper_btb_col];
            let modern_gain = threaded.rates[modern_ref_col] - out.rates[modern_ref_col];
            if classic_gain > 1.0 && modern_gain < -0.1 {
                inverted.push(format!("{fname}/{}", t.id()));
            }
        }
        // Where on the replication ladder the ITTAGE win disappears:
        // the first budget whose *additional* gain over the previous
        // rung is under 0.1pp.
        let ladder = repl_ladder();
        if !ladder.is_empty() {
            let mut prev = threaded.rates[modern_ref_col];
            let mut saturated: Option<usize> = None;
            for &(budget, ti) in &ladder {
                let rate = outs[ti].rates[modern_ref_col];
                if prev - rate < 0.1 {
                    saturated = Some(budget);
                    break;
                }
                prev = rate;
            }
            let classic_left =
                threaded.rates[paper_btb_col] - outs[ladder.last().unwrap().1].rates[paper_btb_col];
            let modern_left = threaded.rates[modern_ref_col]
                - outs[ladder.last().unwrap().1].rates[modern_ref_col];
            readings.push(match saturated {
                Some(b) => format!(
                    "{fname}/{bench}: static replication recovers {classic_left:.1}pp on the \
                     Celeron BTB but saturates under ITTAGE at budget {b} \
                     ({modern_left:.1}pp total left to win)",
                ),
                None => format!(
                    "{fname}/{bench}: static replication still pays at every measured budget \
                     even under ITTAGE ({modern_left:.1}pp vs {classic_left:.1}pp on the Celeron)",
                ),
            });
        }
    }

    println!("Crossover reading:");
    for r in &readings {
        println!("  - {r}");
    }
    if inverted.is_empty() {
        println!("  - no technique that paid on the Celeron inverts under ITTAGE");
    } else {
        println!(
            "  - inverted under ITTAGE (paid on the Celeron, now a loss): {}",
            inverted.join(", ")
        );
    }
    println!(
        "Reading: ITTAGE predicts the *history* a shared dispatch branch\n\
         repeats, so the accuracy gap software replication used to close\n\
         largely closes itself in hardware; what replication still buys is\n\
         the few-tenths-of-a-pp tail where contexts exceed the tagged\n\
         tables' reach, at the old code-growth price."
    );
    report.finish();
}
