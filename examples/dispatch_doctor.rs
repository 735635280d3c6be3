//! "Dispatch doctor": find which VM instructions cause the mispredictions.
//!
//! Runs a Forth benchmark under plain threaded code with a
//! `DispatchAttribution` observer on the engine, then maps the worst
//! dispatching instances back to VM words via the translation — the
//! diagnosis that motivates replication in the paper (a VM instruction
//! occurring several times in the working set thrashes its BTB entry).
//!
//! Run with: `cargo run --release --example dispatch_doctor -- [benchmark] [technique]`
//! (technique defaults to `plain`; any paper name parses, e.g. "across bb")

use ivm::cache::CpuSpec;
use ivm::core::{translate, Engine, Measurement, SuperSelection, Technique};
use ivm::forth;
use ivm::obs::DispatchAttribution;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let name = std::env::args().nth(1).unwrap_or_else(|| "bench-gc".into());
    let technique: Technique = std::env::args()
        .nth(2)
        .map(|t| t.parse().expect("technique name"))
        .unwrap_or(Technique::Threaded);
    let bench =
        ivm::forth::programs::find(&name).unwrap_or_else(|| panic!("unknown benchmark {name}"));
    let image = bench.image();
    let cpu = CpuSpec::celeron800();

    let training = (technique.needs_profile()).then(|| {
        ivm::core::profile(&ivm::forth::programs::BRAINLESS.image()).expect("training run")
    });
    let o = forth::ops();
    let translation =
        translate(&o.spec, &image.program, technique, training.as_ref(), SuperSelection::gforth());

    let engine = Engine::for_cpu(&cpu).with_observer(DispatchAttribution::new());
    let mut m = Measurement::new(translation, engine);
    forth::run(&image, &mut m, forth::DEFAULT_FUEL)?;
    // Resolve instances to words before `finish` consumes the translation.
    let words: Vec<String> =
        (0..image.program.len()).map(|i| m.translation().op_name(i).to_owned()).collect();
    let (r, attribution) = m.finish();

    let mut worst: Vec<(usize, _)> =
        attribution.per_instance().iter().copied().enumerate().collect();
    worst.sort_by(|a, b| b.1.mispredicted.cmp(&a.1.mispredicted).then(a.0.cmp(&b.0)));
    println!("Worst dispatching instances for {name} ({technique}, {}):", cpu.name);
    println!(
        "{:<10} {:<12} {:>12} {:>12} {:>8}",
        "instance", "VM word", "executed", "mispred", "rate%"
    );
    for (i, tally) in worst.into_iter().take(12).filter(|(_, t)| t.executed > 0) {
        println!(
            "{i:<10} {:<12} {:>12} {:>12} {:>8.1}",
            words[i],
            tally.executed,
            tally.mispredicted,
            100.0 * tally.mispredicted as f64 / tally.executed as f64,
        );
    }
    println!(
        "\ntotal: {} indirect branches, {} mispredicted ({:.1}%)",
        r.counters.indirect_branches,
        r.counters.indirect_mispredicted,
        100.0 * r.counters.misprediction_rate(),
    );
    println!(
        "Words whose dispatch thrashes occur at multiple points of the working\n\
         set — exactly the candidates replication (paper §4.1) splits apart."
    );
    Ok(())
}
