//! Microbenchmarks of the staged sampling pipeline: interval slicing,
//! phase clustering, plan construction, and sampled simulation against
//! the full single-pass sweep it replaces.

use ivm_bench::pipeline;
use ivm_bpred::{AnyPredictor, Btb, BtbConfig};
use ivm_core::{simulate_many, DispatchTrace};
use ivm_harness::Bencher;

/// A synthetic phase-structured dispatch stream: four phases of 4096
/// events, each cycling a different (and differently sized) branch set,
/// so the clusterer has real phase boundaries to find.
fn phased_trace() -> DispatchTrace {
    let mut trace = DispatchTrace::new(0, "synthetic");
    for phase in 0..4u64 {
        for i in 0..4096u64 {
            let branch = 0x1000 + phase * 0x10000 + (i % (16 + phase * 16)) * 0x40;
            let target = 0x8000 + phase * 0x10000 + (i / 7 % (3 + phase)) * 0x100;
            trace.push(branch, target);
        }
    }
    trace
}

fn build_predictor() -> AnyPredictor {
    Btb::new(BtbConfig::celeron()).into()
}

/// The plan-construction stages, isolated: BBV extraction over the full
/// stream, k-means over the extracted points, and the two fused.
fn bench_plan_stages(b: &mut Bencher) {
    let trace = phased_trace();
    let points = trace.interval_index(1024).normalized_points();
    let mut group = b.group("pipeline");
    group.bench("interval-index", || trace.interval_index(1024).len());
    group.bench("kmeans", || ivm_harness::cluster::kmeans(&points, 4, 42).k());
    group.bench("plan", || pipeline::plan(&trace, 1024, 4).k());
}

/// What sampling buys at simulate time: the full-stream sweep versus
/// representative intervals plus warm-up replay and the combine step.
/// The trace encode rides along so the trace-cache write path is gated
/// too.
fn bench_sampled_vs_full(b: &mut Bencher) {
    let trace = phased_trace();
    let plan = pipeline::plan(&trace, 1024, 4);
    let mut group = b.group("sampled-vs-full");
    group.bench("full-sweep", || simulate_many(&trace, &mut [build_predictor()])[0].mispredicted);
    group.bench("sampled", || {
        pipeline::combine(&pipeline::simulate_sampled(&trace, &plan, &build_predictor))
            .simulated_events
    });
    group.bench("encode", || trace.to_bytes().len());
}

fn main() {
    let mut b = Bencher::new("pipeline");
    bench_plan_stages(&mut b);
    bench_sampled_vs_full(&mut b);
    b.finish();
}
