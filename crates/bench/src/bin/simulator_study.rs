//! Simulator study (the technical-report companion of §6): the paper's
//! authors first explored the techniques on a configurable simulator,
//! varying BTB and cache sizes without measurement noise. This binary
//! reproduces that study: a grid of BTB geometries × techniques on one
//! Forth benchmark, with a perfect I-cache so prediction effects are
//! isolated, plus an I-cache size sweep with an ideal predictor so cache
//! effects are isolated.
//!
//! Run with: `cargo run --release -p ivm-bench --bin simulator_study -- [benchmark]`

use ivm_bench::{frontend, run_cells, smoke, trace_store, Cell, Report, Row};
use ivm_bpred::{AnyPredictor, Btb, BtbConfig, IdealBtb};
use ivm_cache::{CycleCosts, Icache, IcacheConfig};
use ivm_core::{simulate_many, Engine, Technique};

fn techniques() -> Vec<Technique> {
    vec![Technique::Threaded, Technique::DynamicRepl, Technique::DynamicSuper, Technique::AcrossBb]
}

fn main() {
    let mut report = Report::new("simulator_study");
    let default = if smoke() { "micro" } else { "bench-gc" };
    let name =
        std::env::args().skip(1).find(|a| !a.starts_with("--")).unwrap_or_else(|| default.into());
    let forth = frontend("forth");
    let bench = forth.find(&name).name;
    let training = forth.training();
    let costs = CycleCosts::celeron();

    // Part 1: BTB geometry grid with a perfect I-cache.
    let shapes: &[(usize, usize)] = if smoke() {
        &[(256, 1), (2048, 4)]
    } else {
        &[(256, 1), (256, 4), (512, 1), (512, 4), (2048, 4), (8192, 4)]
    };
    let geometries: Vec<(String, BtbConfig)> = shapes
        .iter()
        .copied()
        .flat_map(|(entries, assoc)| {
            [
                (format!("{entries}x{assoc} tagged"), BtbConfig::new(entries, assoc)),
                (format!("{entries}x{assoc} tagless"), BtbConfig::new(entries, assoc).tagless()),
            ]
        })
        .collect();

    // Capture-then-sweep: record the execution once, then one cell per
    // technique captures its dispatch trace (cached in the trace store)
    // and drives every BTB geometry over it in a single pass. The
    // dispatch stream does not depend on the predictor, so the rates are
    // bit-identical to re-running the interpreter per geometry.
    let image = forth.image(bench);
    let (exec, _) = ivm_core::record(&*image).expect("recording run");
    let cells: Vec<Cell<Technique>> =
        techniques().into_iter().map(|t| Cell::new(format!("simstudy/btb-sweep/{t}"), t)).collect();
    let rates = run_cells(cells, |cell, _| {
        let stored = trace_store().get_or_capture(
            "forth",
            bench,
            &*image,
            &exec,
            cell.input,
            Some(&training),
        );
        let mut predictors: Vec<AnyPredictor> =
            geometries.iter().map(|(_, cfg)| Btb::new(*cfg).into()).collect();
        let stats = simulate_many(stored.trace(), &mut predictors);
        stats.iter().map(|s| 100.0 * s.misprediction_rate()).collect::<Vec<f64>>()
    });
    let rows: Vec<Row> = geometries
        .iter()
        .enumerate()
        .map(|(gi, (label, _))| Row {
            label: label.clone(),
            values: rates.iter().map(|per_geometry| per_geometry[gi]).collect(),
        })
        .collect();
    let cols: Vec<&str> = techniques()
        .iter()
        .map(|t| t.paper_name())
        .map(|s| {
            // leak is fine in a short-lived report binary
            Box::leak(s.to_owned().into_boxed_str()) as &str
        })
        .collect();
    report.table(
        &format!("Misprediction rate (%) of {name} across BTB geometries (perfect I-cache)"),
        &cols,
        &rows,
        1,
    );

    // Part 2: I-cache capacity sweep with an ideal predictor.
    let kbs: &[usize] = if smoke() { &[4, 64] } else { &[4, 8, 16, 32, 64] };
    let cells: Vec<Cell<(usize, Technique)>> = kbs
        .iter()
        .flat_map(|&kb| {
            techniques()
                .into_iter()
                .map(move |t| Cell::new(format!("simstudy/icache/{kb}kb/{t}"), (kb, t)))
        })
        .collect();
    let misses = run_cells(cells, |cell, _| {
        let (kb, tech) = cell.input;
        let image = forth.image(bench);
        let engine = Engine::new(
            IdealBtb::new(),
            Box::new(Icache::new(IcacheConfig { capacity: kb * 1024, line_size: 32, assoc: 4 })),
            costs,
        );
        let (r, _) = ivm_core::measure_with(&*image, tech, engine, Some(&*training))
            .unwrap_or_else(|e| panic!("{tech}: {e}"));
        r.counters.icache_misses as f64
    });
    let rows: Vec<Row> = kbs
        .iter()
        .zip(misses.chunks(techniques().len()))
        .map(|(&kb, values)| Row { label: format!("{kb} KB I-cache"), values: values.to_vec() })
        .collect();
    report.table(
        &format!("I-cache misses of {name} across cache sizes (ideal BTB)"),
        &cols,
        &rows,
        0,
    );
    println!(
        "Reading: replication-based code growth only matters below the code\n\
         working set; prediction gains survive at every realistic BTB size\n\
         (the paper's §6 rationale for reporting real-hardware numbers)."
    );
    report.finish();
}
