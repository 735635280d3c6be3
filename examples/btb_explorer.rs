//! Explore how predictor hardware interacts with the software techniques:
//! run one Forth benchmark across predictor families and BTB sizes.
//!
//! Run with: `cargo run --release --example btb_explorer -- [benchmark]`

use ivm::bpred::{
    AnyPredictor, Btb, BtbConfig, IdealBtb, TwoBitBtb, TwoLevelConfig, TwoLevelPredictor,
};
use ivm::cache::{CpuSpec, PerfectIcache};
use ivm::core::{Engine, Technique};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let name = std::env::args().nth(1).unwrap_or_else(|| "bench-gc".into());
    let bench =
        ivm::forth::programs::find(&name).unwrap_or_else(|| panic!("unknown benchmark {name}"));
    let training = ivm::core::profile(&ivm::forth::programs::BRAINLESS.image())?;
    let cpu = CpuSpec::celeron800();

    type Make = fn() -> AnyPredictor;
    let predictors: [(&str, Make); 5] = [
        ("ideal BTB", || IdealBtb::new().into()),
        ("BTB 512x4", || Btb::new(BtbConfig::celeron()).into()),
        ("BTB 4096x4", || Btb::new(BtbConfig::pentium4()).into()),
        ("BTB + 2-bit counters", || TwoBitBtb::new().into()),
        ("two-level (Pentium M)", || TwoLevelPredictor::new(TwoLevelConfig::pentium_m()).into()),
    ];

    println!("Benchmark: {name} (Celeron cost model, perfect I-cache)");
    println!(
        "{:<24} {:>14} {:>14} {:>10}",
        "predictor", "plain mispred%", "drepl mispred%", "drepl gain"
    );
    for (pname, make) in predictors {
        let image = bench.image();
        let engine = Engine::new(make(), Box::new(PerfectIcache), cpu.costs);
        let (plain, _) =
            ivm::core::measure_with(&image, Technique::Threaded, engine, Some(&training))?;
        let image = bench.image();
        let engine = Engine::new(make(), Box::new(PerfectIcache), cpu.costs);
        let (drepl, _) =
            ivm::core::measure_with(&image, Technique::DynamicRepl, engine, Some(&training))?;
        println!(
            "{:<24} {:>14.1} {:>14.1} {:>10.2}",
            pname,
            100.0 * plain.counters.misprediction_rate(),
            100.0 * drepl.counters.misprediction_rate(),
            plain.cycles / drepl.cycles,
        );
    }
    println!(
        "\nReading: on BTBs, dynamic replication removes most mispredictions in\n\
         software; a two-level predictor removes them in hardware, so the\n\
         software technique gains much less (paper §8)."
    );
    Ok(())
}
