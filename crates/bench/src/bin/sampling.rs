//! Measured vs sampled: does SimPoint-style interval sampling reproduce
//! full-trace simulation within its reported error bars, and what does
//! it save?
//!
//! For one long workload per frontend this binary runs the staged
//! pipeline end to end — capture the dispatch trace, simulate the full
//! predictor registry over the complete stream (the reference), then
//! sweep interval size × K: build a sampling plan, simulate only the
//! representative intervals (with warm-up replay), and combine the
//! weighted estimates with error bars. The tables report, per sweep
//! configuration, the worst |sampled − full| gap against the worst
//! reported bar, how many predictors land inside their bar, and the
//! events-simulated reduction factor; a per-predictor detail table shows
//! the best in-bounds configuration.
//!
//! Run with: `cargo run --release -p ivm-bench --bin sampling`

use ivm_bench::pipeline::{self, Estimate};
use ivm_bench::{frontend, predictor_registry, run_cells, smoke, Cell, Report, Row};
use ivm_bpred::AnyPredictor;
use ivm_core::{DispatchTrace, Technique};
use ivm_obs::Json;

/// The (interval size, K) sweep grid.
fn configs() -> Vec<(u64, usize)> {
    if smoke() {
        vec![(256, 2), (1024, 4)]
    } else {
        vec![
            (1024, 4),
            (1024, 8),
            (1024, 16),
            (4096, 4),
            (4096, 8),
            (4096, 16),
            (16384, 4),
            (16384, 8),
            (16384, 16),
        ]
    }
}

/// One sampled sweep configuration's outcome across the registry.
struct ConfigOut {
    interval_len: u64,
    k_requested: usize,
    k_effective: usize,
    estimates: Vec<Estimate>,
}

/// One cell of the sweep batch: pick `pick`'s full registry sweep
/// (`config: None`) or one sampled `(interval size, K)` configuration.
#[derive(Clone, Copy)]
struct SweepCell {
    pick: usize,
    config: Option<(u64, usize)>,
}

/// What a [`SweepCell`] computes.
enum SweepOut {
    /// Full-sweep misprediction rates (%), in registry order.
    Full(Vec<f64>),
    /// One sampled configuration's outcome.
    Sampled(ConfigOut),
}

fn main() {
    let mut report = Report::new("sampling");
    let registry = predictor_registry();
    let names: Vec<&str> = registry.iter().map(|(n, _)| *n).collect();
    let cols = ["full %", "sampled %", "delta pp", "bar pp"];

    // The heaviest smoke-safe workload per frontend, as elsewhere.
    let picks: Vec<(&'static str, &'static str)> = [
        ("forth", if smoke() { "micro" } else { "bench-gc" }),
        ("java", "mpeg"),
        ("calc", if smoke() { "triangle" } else { "gcd" }),
    ]
    .into();

    // Stage 1: one cell per pick records the run, trains and captures
    // the dispatch trace, which the plans need whole.
    let cells: Vec<Cell<(&str, &str)>> = picks
        .iter()
        .map(|&(fname, bench)| {
            Cell::new(format!("sampling/capture/{fname}/{bench}"), (fname, bench))
        })
        .collect();
    let traces: Vec<DispatchTrace> = run_cells(cells, |cell, _| {
        let (fname, bench) = cell.input;
        let fe = frontend(fname);
        let image = fe.image(bench);
        let (exec, _) = ivm_core::record(&*image).expect("recording run");
        let training = fe.training_for(bench);
        pipeline::capture(&*image, &exec, Technique::Threaded, Some(&training))
    });

    // Stages 2–3, one batch: the full single-pass registry sweeps (the
    // reference, and the costliest cells) first, then every pick's
    // sampled configurations — plan + representative-interval simulation
    // + weighted combine — so no worker waits on one long sweep.
    let mut cells: Vec<Cell<SweepCell>> = Vec::new();
    for (pick, (fname, bench)) in picks.iter().enumerate() {
        let id = format!("sampling/full/{fname}/{bench}");
        cells.push(Cell::new(id, SweepCell { pick, config: None }));
    }
    for (pick, (fname, bench)) in picks.iter().enumerate() {
        for (ival, k) in configs() {
            let id = format!("sampling/sampled/{fname}/{bench}/i{ival}k{k}");
            cells.push(Cell::new(id, SweepCell { pick, config: Some((ival, k)) }));
        }
    }
    let jobs: Vec<SweepCell> = cells.iter().map(|c| c.input).collect();
    let outs = run_cells(cells, |cell, _| {
        let trace = &traces[cell.input.pick];
        match cell.input.config {
            None => {
                let mut predictors: Vec<AnyPredictor> =
                    predictor_registry().iter().map(|(_, build)| build()).collect();
                SweepOut::Full(
                    ivm_core::simulate_many(trace, &mut predictors)
                        .iter()
                        .map(|s| 100.0 * s.misprediction_rate())
                        .collect(),
                )
            }
            Some((interval_len, k)) => {
                let plan = pipeline::plan(trace, interval_len, k);
                let estimates: Vec<Estimate> = predictor_registry()
                    .iter()
                    .map(|(_, build)| {
                        pipeline::combine(&pipeline::simulate_sampled(trace, &plan, build))
                    })
                    .collect();
                SweepOut::Sampled(ConfigOut {
                    interval_len,
                    k_requested: k,
                    k_effective: plan.k(),
                    estimates,
                })
            }
        }
    });
    let mut full: Vec<Vec<f64>> = vec![Vec::new(); picks.len()];
    let mut sampled: Vec<Vec<ConfigOut>> = picks.iter().map(|_| Vec::new()).collect();
    for (job, out) in jobs.iter().zip(outs) {
        match out {
            SweepOut::Full(rates) => full[job.pick] = rates,
            SweepOut::Sampled(o) => sampled[job.pick].push(o),
        }
    }

    let mut readings: Vec<String> = Vec::new();
    let mut sweep_json = Json::obj();
    for (pi, &(fname, bench)) in picks.iter().enumerate() {
        let fe = frontend(fname);
        let full_events = traces[pi].len() as u64;
        let (full_pct, outs) = (&full[pi], &sampled[pi]);

        // Stage 4: thin consumers of the combined artifacts.
        let rows: Vec<Row> = outs
            .iter()
            .map(|o| {
                let gaps: Vec<f64> = o
                    .estimates
                    .iter()
                    .zip(full_pct)
                    .map(|(e, &f)| (e.rate_pct - f).abs())
                    .collect();
                let within = gaps.iter().zip(&o.estimates).filter(|(g, e)| **g <= e.err_pp).count();
                let sim = o.estimates.first().map_or(0, |e| e.simulated_events);
                Row {
                    label: format!("ival {} K {}", o.interval_len, o.k_requested),
                    values: vec![
                        gaps.iter().fold(0.0, |a: f64, &b| a.max(b)),
                        o.estimates.iter().map(|e| e.err_pp).fold(0.0, f64::max),
                        within as f64,
                        sim as f64 / 1000.0,
                        if sim > 0 { full_events as f64 / sim as f64 } else { 0.0 },
                    ],
                }
            })
            .collect();
        report.table(
            &format!(
                "{} {bench} (threaded, {} predictors): sampled vs full sweep",
                fe.display,
                names.len()
            ),
            &["max |d| pp", "max bar pp", "within", "sim k-ev", "reduction"],
            &rows,
            2,
        );

        // Detail: the in-bounds configuration with the highest reduction.
        let best = outs
            .iter()
            .enumerate()
            .filter(|(i, o)| rows[*i].values[2] as usize == o.estimates.len())
            .max_by(|(i, _), (j, _)| {
                rows[*i].values[4].partial_cmp(&rows[*j].values[4]).expect("finite reductions")
            })
            .map(|(i, _)| i);
        if let Some(bi) = best {
            let o = &outs[bi];
            report.table(
                &format!(
                    "{} {bench}: per-predictor detail at ival {} K {}",
                    fe.display, o.interval_len, o.k_requested
                ),
                &cols,
                &pipeline::error_rows(&names, full_pct, &o.estimates),
                3,
            );
            readings.push(format!(
                "{fname}/{bench}: all {} predictors within their bar at ival {} K {} \
                 ({:.0}x fewer simulated events than the full sweep)",
                names.len(),
                o.interval_len,
                o.k_requested,
                rows[bi].values[4],
            ));
        } else {
            readings.push(format!(
                "{fname}/{bench}: no sweep configuration kept every predictor in its bar"
            ));
        }

        let mut fe_json = Json::obj().with("bench", bench).with("full_events", full_events);
        let cfgs: Vec<Json> = outs
            .iter()
            .map(|o| {
                let preds: Vec<Json> = names
                    .iter()
                    .zip(o.estimates.iter().zip(full_pct))
                    .map(|(name, (e, &f))| {
                        Json::obj()
                            .with("name", *name)
                            .with("full_pct", f)
                            .with("sampled_pct", e.rate_pct)
                            .with("err_pp", e.err_pp)
                            .with("within_bar", (e.rate_pct - f).abs() <= e.err_pp)
                    })
                    .collect();
                let sim = o.estimates.first().map_or(0, |e| e.simulated_events);
                Json::obj()
                    .with("interval_len", o.interval_len)
                    .with("k", o.k_requested as u64)
                    .with("k_effective", o.k_effective as u64)
                    .with("simulated_events", sim)
                    .with("reduction", if sim > 0 { full_events as f64 / sim as f64 } else { 0.0 })
                    .with("predictors", Json::Arr(preds))
            })
            .collect();
        fe_json.set("configs", Json::Arr(cfgs));
        sweep_json.set(fname, fe_json);
    }
    report.section("sampling_sweep", sweep_json);

    println!("Reading:");
    for r in &readings {
        println!("  - {r}");
    }
    println!(
        "  - sampling replaces full-stream replay with K representative\n\
         intervals (one warm-up interval each); the bar stacks cluster\n\
         spread, warm-up sensitivity and a {:.2}pp resolution floor",
        pipeline::ERR_FLOOR_PP
    );
    report.finish();
}
