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
use ivm_core::Technique;
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

    let mut readings: Vec<String> = Vec::new();
    let mut sweep_json = Json::obj();
    for (fname, bench) in picks {
        let fe = frontend(fname);

        // Stage 1: capture (one executor cell; cached across runs).
        let stored =
            run_cells(vec![Cell::new(format!("sampling/capture/{fname}/{bench}"), ())], |_, _| {
                pipeline::capture(fname, bench, Technique::Threaded)
            })
            .pop()
            .expect("one capture cell");
        let trace = stored.trace();
        let full_events = trace.len() as u64;

        // Stage 2 (reference): the full single-pass registry sweep.
        let full_pct =
            run_cells(vec![Cell::new(format!("sampling/full/{fname}/{bench}"), ())], |_, _| {
                let mut predictors: Vec<AnyPredictor> =
                    predictor_registry().iter().map(|(_, build)| build()).collect();
                ivm_core::simulate_many(trace, &mut predictors)
                    .iter()
                    .map(|s| 100.0 * s.misprediction_rate())
                    .collect::<Vec<f64>>()
            })
            .pop()
            .expect("one full-sweep cell");

        // Stages 2–3 (sampled): plan + representative-interval simulation
        // + weighted combine, one executor cell per sweep configuration.
        let cells: Vec<Cell<(u64, usize)>> = configs()
            .iter()
            .map(|&(ival, k)| {
                Cell::new(format!("sampling/sampled/{fname}/{bench}/i{ival}k{k}"), (ival, k))
            })
            .collect();
        let outs: Vec<ConfigOut> = run_cells(cells, |cell, _| {
            let (interval_len, k) = cell.input;
            let plan = pipeline::plan(trace, interval_len, k);
            let estimates: Vec<Estimate> = predictor_registry()
                .iter()
                .map(|(_, build)| {
                    pipeline::combine(&pipeline::simulate_sampled(trace, &plan, build))
                })
                .collect();
            let worst_bar = estimates.iter().map(|e| e.err_pp).fold(0.0, f64::max);
            let worst_gap = estimates
                .iter()
                .zip(&full_pct)
                .map(|(e, &f)| (e.rate_pct - f).abs())
                .fold(0.0, f64::max);
            pipeline::record_sampling(plan.meta_entry(
                format!("{fname}/{bench}/threaded/i{interval_len}k{k}"),
                worst_bar,
                Some(worst_gap),
            ));
            ConfigOut { interval_len, k_requested: k, k_effective: plan.k(), estimates }
        });

        // Stage 4: thin consumers of the combined artifacts.
        let rows: Vec<Row> = outs
            .iter()
            .map(|o| {
                let gaps: Vec<f64> = o
                    .estimates
                    .iter()
                    .zip(&full_pct)
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
                &pipeline::error_rows(&names, &full_pct, &o.estimates),
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
                    .zip(o.estimates.iter().zip(&full_pct))
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
