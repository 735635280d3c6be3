//! Microbenchmarks of the library itself: translation cost per technique
//! and simulated execution throughput, measured by `ivm_harness::bench`.
//!
//! (The paper's tables and figures are regenerated by the `src/bin/`
//! harnesses; these benches track the *simulator's* own performance.)

use ivm_cache::CpuSpec;
use ivm_core::Technique;
use ivm_harness::Bencher;

fn small_forth_image() -> ivm_forth::Image {
    ivm_forth::compile(
        "
        : triple dup 2* + ;
        : main 0 200 0 do i triple + 16383 and loop . ;
        ",
    )
    .expect("compiles")
}

fn bench_translate(b: &mut Bencher) {
    let image = small_forth_image();
    let profile = ivm_core::profile(&image).expect("profile");
    let o = ivm_forth::ops();
    let mut group = b.group("translate");
    for tech in [
        Technique::Threaded,
        Technique::StaticSuper { budget: 100, algo: ivm_core::CoverAlgorithm::Greedy },
        Technique::DynamicRepl,
        Technique::AcrossBb,
    ] {
        group.bench(tech, || {
            ivm_core::translate(
                &o.spec,
                &image.program,
                tech,
                Some(&profile),
                ivm_core::SuperSelection::gforth(),
            )
        });
    }
}

fn bench_measure(b: &mut Bencher) {
    let image = small_forth_image();
    let profile = ivm_core::profile(&image).expect("profile");
    let cpu = CpuSpec::pentium4_northwood();
    let mut group = b.group("measure");
    group.sample_size(20);
    for tech in [
        Technique::Threaded,
        Technique::StaticSuper { budget: 100, algo: ivm_core::CoverAlgorithm::Greedy },
        Technique::DynamicRepl,
        Technique::AcrossBb,
    ] {
        group.bench(tech, || ivm_core::measure(&image, tech, &cpu, Some(&profile)).expect("runs"));
    }
    // The full predictor zoo through the engine's hot loop: one measured
    // pass per registry entry, so the enum-dispatched predictor seam is
    // tracked end-to-end (not just in the trace-sweep microbench).
    group.bench("zoo", || {
        ivm_bench::predictor_registry()
            .iter()
            .map(|(_, build)| {
                let engine = ivm_core::Engine::new(build(), cpu.fetch_cache(), cpu.costs);
                ivm_core::measure_with(&image, Technique::Threaded, engine, Some(&profile))
                    .expect("runs")
                    .0
                    .cycles
            })
            .sum::<f64>()
    });
}

fn bench_semantics_only(b: &mut Bencher) {
    let image = small_forth_image();
    b.group("interpret").bench("null-events", || {
        ivm_forth::run(&image, &mut ivm_core::NullEvents, 10_000_000).expect("runs")
    });
}

fn small_java_image() -> ivm_java::JavaImage {
    let mut a = ivm_java::Asm::new();
    a.class("Box", None, &["v"]);
    a.class("Main", None, &[]);
    a.begin_static("Main", "main", 0, 2);
    a.new_object("Box");
    a.istore(0);
    a.ldc(0);
    a.istore(1);
    a.label("head");
    a.iload(0);
    a.iload(1);
    a.putfield("v");
    a.iload(0);
    a.getfield("v");
    a.pop();
    a.iinc(1, 1);
    a.iload(1);
    a.ldc(150);
    a.if_icmplt("head");
    a.ret();
    a.end_method();
    a.link()
}

fn bench_java(b: &mut Bencher) {
    let image = small_java_image();
    let profile = ivm_core::profile(&image).expect("profile");
    let cpu = CpuSpec::pentium4_northwood();
    let mut group = b.group("java-measure");
    group.sample_size(20);
    for tech in [Technique::Threaded, Technique::AcrossBb] {
        group.bench(tech, || ivm_core::measure(&image, tech, &cpu, Some(&profile)).expect("runs"));
    }
}

fn bench_trace_replay(b: &mut Bencher) {
    let image = small_forth_image();
    let profile = ivm_core::profile(&image).expect("profile");
    let (trace, _) = ivm_core::record(&image).expect("records");
    let cpu = CpuSpec::pentium4_northwood();
    let mut group = b.group("replay-vs-interpret");
    group.sample_size(20);
    group.bench("interpret", || {
        ivm_core::measure(&image, Technique::AcrossBb, &cpu, Some(&profile)).expect("runs")
    });
    group.bench("replay", || {
        ivm_core::measure_trace(&image, &trace, Technique::AcrossBb, &cpu, Some(&profile))
    });
}

fn bench_dtrace_codec(b: &mut Bencher) {
    let image = small_forth_image();
    let (exec, _) = ivm_core::record(&image).expect("records");
    let engine = ivm_core::Engine::for_cpu(&CpuSpec::pentium4_northwood())
        .with_observer(ivm_core::DispatchTrace::new(0, "threaded"));
    let (_, trace) = ivm_core::measure_trace_with(&image, &exec, Technique::Threaded, engine, None);
    let bytes = trace.to_bytes();
    let mut group = b.group("dtrace");
    group.bench("encode", || trace.to_bytes().len());
    group.bench("decode", || ivm_core::DispatchTrace::from_bytes(&bytes).expect("decodes").len());
}

fn main() {
    let mut b = Bencher::new("dispatch");
    bench_translate(&mut b);
    bench_measure(&mut b);
    bench_semantics_only(&mut b);
    bench_java(&mut b);
    bench_trace_replay(&mut b);
    bench_dtrace_codec(&mut b);
    b.finish();
}
