//! The generic measurement pipeline (`ivm_core::measure` and friends)
//! driving the Forth frontend through its `GuestVm` impl.

use ivm_cache::CpuSpec;
use ivm_core::{measure, measure_trace, profile, record, Technique};
use ivm_forth::compile;

#[test]
fn measure_produces_counters_and_output() {
    let image = compile(": main 10 0 do i . loop ;").unwrap();
    let prof = profile(&image).unwrap();
    let (result, output) =
        measure(&image, Technique::Threaded, &CpuSpec::celeron800(), Some(&prof)).unwrap();
    assert_eq!(output.text, "0 1 2 3 4 5 6 7 8 9 ");
    assert!(result.counters.instructions > 0);
    assert!(result.counters.dispatches as usize >= output.steps as usize - 1);
}

#[test]
fn trace_replay_matches_direct_measurement() {
    let image = compile(": main 0 30 0 do i + loop . ;").unwrap();
    let prof = profile(&image).unwrap();
    let (trace, out) = record(&image).unwrap();
    assert_eq!(out.text, "435 ");
    let cpu = CpuSpec::celeron800();
    for tech in [Technique::Threaded, Technique::DynamicRepl, Technique::AcrossBb] {
        let (direct, _) = measure(&image, tech, &cpu, Some(&prof)).unwrap();
        let replayed = measure_trace(&image, &trace, tech, &cpu, Some(&prof));
        assert_eq!(direct.counters, replayed.counters, "{tech}");
        assert_eq!(direct.cycles, replayed.cycles, "{tech}");
    }
}

#[test]
fn outputs_identical_across_techniques() {
    let image =
        compile(": fib dup 2 < if exit then dup 1- recurse swap 2 - recurse + ; : main 12 fib . ;")
            .unwrap();
    let prof = profile(&image).unwrap();
    let mut texts = Vec::new();
    for tech in Technique::gforth_suite() {
        let (_, out) = measure(&image, tech, &CpuSpec::pentium4_northwood(), Some(&prof))
            .unwrap_or_else(|e| panic!("{tech}: {e}"));
        texts.push(out.text);
    }
    assert!(texts.windows(2).all(|w| w[0] == w[1]), "semantics must not depend on layout");
    assert_eq!(texts[0], "144 ");
}
