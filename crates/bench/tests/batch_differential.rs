//! Observers agree with the engine. For each frontend and technique,
//! attaching any production observer — the [`DispatchTrace`] `sampling`
//! captures, the [`PredictorSweep`] the sweep reports stream into, or the
//! reports' [`DispatchAttribution`] — must leave the measured run
//! bit-identical, and what the observer collected must account for
//! exactly the dispatches the engine counted.

use ivm_bench::frontend;
use ivm_bpred::{AnyPredictor, Btb, BtbConfig};
use ivm_cache::{CycleCosts, Icache, IcacheConfig};
use ivm_core::{
    simulate_many, DispatchObserver, DispatchTrace, Engine, ExecutionTrace, GuestVm,
    PredictorSweep, Profile, RunResult, Technique,
};
use ivm_obs::DispatchAttribution;

fn celeron_btb() -> AnyPredictor {
    Btb::new(BtbConfig::celeron()).into()
}

/// One measured replay on a Celeron BTB and L1 I-cache, seen by
/// `observer`.
fn replay<G: GuestVm + ?Sized, O: DispatchObserver>(
    vm: &G,
    exec: &ExecutionTrace,
    technique: Technique,
    training: &Profile,
    observer: O,
) -> (RunResult, O) {
    let engine = Engine::new(
        celeron_btb(),
        Box::new(Icache::new(IcacheConfig::celeron_l1i())),
        CycleCosts::celeron(),
    )
    .with_observer(observer);
    ivm_core::measure_trace_with(vm, exec, technique, engine, Some(training))
}

fn assert_same_run(label: &str, plain: &RunResult, observed: &RunResult) {
    assert_eq!(plain.counters, observed.counters, "{label}: hardware counters diverge");
    assert_eq!(
        plain.cycles.to_bits(),
        observed.cycles.to_bits(),
        "{label}: cycle counts are not bit-identical"
    );
    assert_eq!(
        plain.icache_set_misses, observed.icache_set_misses,
        "{label}: per-set misses diverge"
    );
}

#[test]
fn batched_observers_agree_with_the_engine() {
    let plans: [(&str, &str); 3] = [("forth", "micro"), ("java", "mpeg"), ("calc", "triangle")];
    for (fe, bench) in plans {
        let f = frontend(fe);
        let image = f.image(bench);
        let training = f.profile_of(bench);
        let (exec, _) = ivm_core::record(&*image).expect("recording run");

        for technique in [Technique::Threaded, Technique::DynamicRepl] {
            let label = format!("{fe}/{bench}/{technique}");
            let (plain, ()) = replay(&*image, &exec, technique, &training, ());
            let expected = (plain.counters.indirect_branches, plain.counters.indirect_mispredicted);

            let trace = DispatchTrace::new(0, technique.id());
            let (traced, trace) = replay(&*image, &exec, technique, &training, trace);
            assert_same_run(&format!("{label} with a trace"), &plain, &traced);
            assert_eq!(
                trace.len() as u64,
                plain.counters.indirect_branches,
                "{label}: one captured event per indirect branch"
            );
            let swept = simulate_many(&trace, &mut [celeron_btb()])[0];
            assert_eq!(
                (swept.executed, swept.mispredicted),
                expected,
                "{label}: the captured stream does not reproduce the engine's predictions"
            );

            let sweep = PredictorSweep::new(vec![celeron_btb()]);
            let (swept_run, sweep) = replay(&*image, &exec, technique, &training, sweep);
            assert_same_run(&format!("{label} with a sweep"), &plain, &swept_run);
            let streamed = sweep.finish().0[0];
            assert_eq!(
                (streamed.executed, streamed.mispredicted),
                expected,
                "{label}: the streamed sweep does not reproduce the engine's predictions"
            );

            let attrib = DispatchAttribution::new().with_btb_sets(BtbConfig::celeron());
            let (attributed, attrib) = replay(&*image, &exec, technique, &training, attrib);
            assert_same_run(&format!("{label} with attribution"), &plain, &attributed);
            let total = attrib.total();
            assert_eq!(
                (total.executed, total.mispredicted),
                expected,
                "{label}: attribution totals diverge from the counters"
            );
            let per_set = attrib
                .set_conflicts()
                .iter()
                .fold((0, 0), |(e, m), s| (e + s.tally.executed, m + s.tally.mispredicted));
            assert_eq!(per_set, expected, "{label}: per-set sums diverge from the counters");
        }
    }
}
