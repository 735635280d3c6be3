//! Microbenchmarks of the predictor and cache simulators.

use ivm_bpred::{
    AnyPredictor, Btb, BtbConfig, IdealBtb, IndirectPredictor, Ittage, IttageConfig, PathHybrid,
    PathHybridConfig, TwoBitBtb, TwoLevelConfig, TwoLevelPredictor,
};
use ivm_cache::{FetchCache, Icache, IcacheConfig};
use ivm_core::{simulate_many, DispatchTrace};
use ivm_harness::Bencher;

/// A synthetic dispatch stream: 64 branches cycling over 4 targets each.
fn stream() -> Vec<(u64, u64)> {
    (0..4096u64)
        .map(|i| {
            let branch = (i % 64) * 0x40 + 0x1000;
            let target = 0x8000 + (i / 64 % 4) * 0x100;
            (branch, target)
        })
        .collect()
}

fn bench_predictors(b: &mut Bencher) {
    let s = stream();
    let mut group = b.group("predictors");
    let mut run = |name: &str, p: &mut dyn IndirectPredictor| {
        group.bench(name, || {
            let mut misses = 0u64;
            for &(branch, target) in &s {
                if !p.predict_and_update(branch, target) {
                    misses += 1;
                }
            }
            misses
        });
    };
    run("ideal", &mut IdealBtb::new());
    run("btb-celeron", &mut Btb::new(BtbConfig::celeron()));
    run("btb-p4", &mut Btb::new(BtbConfig::pentium4()));
    run("btb-2bit", &mut TwoBitBtb::new());
    run("two-level", &mut TwoLevelPredictor::new(TwoLevelConfig::pentium_m()));
    run("path-hybrid", &mut PathHybrid::new(PathHybridConfig::classic()));
    run("ittage-small", &mut Ittage::new(IttageConfig::small()));
    run("ittage-medium", &mut Ittage::new(IttageConfig::medium()));
    run("ittage-firestorm", &mut Ittage::new(IttageConfig::firestorm()));
    run("ittage-64kb", &mut Ittage::new(IttageConfig::seznec_64kb()));
}

fn bench_caches(b: &mut Bencher) {
    let mut group = b.group("fetch-caches");
    let mut run = |name: &str, cache: &mut dyn FetchCache| {
        group.bench(name, || {
            let mut misses = 0u64;
            for i in 0..4096u64 {
                misses += cache.fetch((i % 512) * 48, 24);
            }
            misses
        });
    };
    run("celeron-l1i", &mut Icache::new(IcacheConfig::celeron_l1i()));
    run("p4-trace-cache", &mut Icache::new(IcacheConfig::pentium4_trace()));
}

/// The predictor configurations a sweep evaluates together.
fn predictor_zoo() -> Vec<AnyPredictor> {
    vec![
        IdealBtb::new().into(),
        Btb::new(BtbConfig::celeron()).into(),
        Btb::new(BtbConfig::pentium4()).into(),
        TwoBitBtb::new().into(),
        TwoLevelPredictor::new(TwoLevelConfig::pentium_m()).into(),
    ]
}

/// Capture-then-sweep over an encoded dispatch trace: one decode + replay
/// per predictor (how a sweep looked before `simulate_many`) versus a
/// single decode driving every predictor in one pass over the stream.
fn bench_sweep(b: &mut Bencher) {
    let mut trace = DispatchTrace::new(0, "synthetic");
    for (branch, target) in stream() {
        trace.push(branch, target);
    }
    let bytes = trace.to_bytes();
    let mut group = b.group("trace-sweep");
    group.bench("per-predictor-decode", || {
        let mut mispredicted = 0u64;
        for mut p in predictor_zoo() {
            let t = DispatchTrace::from_bytes(&bytes).expect("decodes");
            for (branch, target) in t.iter() {
                mispredicted += u64::from(!p.predict_and_update(branch, target));
            }
        }
        mispredicted
    });
    group.bench("single-pass", || {
        let t = DispatchTrace::from_bytes(&bytes).expect("decodes");
        let stats = simulate_many(&t, &mut predictor_zoo());
        stats.iter().map(|s| s.mispredicted).sum::<u64>()
    });
}

fn main() {
    let mut b = Bencher::new("predictors");
    bench_predictors(&mut b);
    bench_caches(&mut b);
    bench_sweep(&mut b);
    b.finish();
}
