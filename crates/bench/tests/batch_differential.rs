//! Batched observers agree with the engine. The engine hands dispatch
//! events to its observer in fixed-size batches; for each frontend and
//! technique, attaching either production observer — the trace store's
//! [`DispatchTrace`] or the reports' [`DispatchAttribution`] — must leave
//! the measured run bit-identical, and what the observer collected across
//! every batch must account for exactly the dispatches the engine counted.

use std::cell::RefCell;
use std::rc::Rc;

use ivm_bench::frontend;
use ivm_bpred::{AnyPredictor, Btb, BtbConfig};
use ivm_cache::{CycleCosts, Icache, IcacheConfig};
use ivm_core::{
    simulate_many, DispatchBatch, DispatchObserver, DispatchTrace, Engine, ExecutionTrace, GuestVm,
    Profile, RunResult, SharedObserver, Technique,
};
use ivm_obs::DispatchAttribution;

/// Forwards every batch to `inner`, counting the deliveries.
struct Counted<O> {
    inner: O,
    batches: usize,
}

impl<O: DispatchObserver> DispatchObserver for Counted<O> {
    fn dispatch_batch(&mut self, batch: &DispatchBatch) {
        self.batches += 1;
        self.inner.dispatch_batch(batch);
    }
}

fn counted<O>(inner: O) -> Rc<RefCell<Counted<O>>> {
    Rc::new(RefCell::new(Counted { inner, batches: 0 }))
}

fn celeron_btb() -> AnyPredictor {
    Btb::new(BtbConfig::celeron()).into()
}

/// One measured replay on a Celeron BTB and L1 I-cache, with `observer`
/// attached when given.
fn replay<G: GuestVm + ?Sized>(
    vm: &G,
    exec: &ExecutionTrace,
    technique: Technique,
    training: &Profile,
    observer: Option<SharedObserver>,
) -> RunResult {
    let mut engine = Engine::new(
        celeron_btb(),
        Box::new(Icache::new(IcacheConfig::celeron_l1i())),
        CycleCosts::celeron(),
    );
    if let Some(observer) = observer {
        engine = engine.with_observer(observer);
    }
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
            let plain = replay(&*image, &exec, technique, &training, None);
            let expected = (plain.counters.indirect_branches, plain.counters.indirect_mispredicted);

            let trace = counted(DispatchTrace::new(0, technique.id()));
            let traced = replay(&*image, &exec, technique, &training, Some(trace.clone()));
            assert_same_run(&format!("{label} with a trace"), &plain, &traced);
            let trace = trace.borrow();
            assert_eq!(
                trace.inner.len() as u64,
                plain.counters.indirect_branches,
                "{label}: one captured event per indirect branch"
            );
            assert!(trace.batches > 1, "{label}: the stream must span more than one batch");
            let swept = simulate_many(&trace.inner, &mut [celeron_btb()])[0];
            assert_eq!(
                (swept.executed, swept.mispredicted),
                expected,
                "{label}: the captured stream does not reproduce the engine's predictions"
            );

            let attrib = counted(DispatchAttribution::new().with_btb_sets(BtbConfig::celeron()));
            let attributed = replay(&*image, &exec, technique, &training, Some(attrib.clone()));
            assert_same_run(&format!("{label} with attribution"), &plain, &attributed);
            let attrib = attrib.borrow();
            let total = attrib.inner.total();
            assert_eq!(
                (total.executed, total.mispredicted),
                expected,
                "{label}: attribution totals diverge from the counters"
            );
            let per_set = attrib
                .inner
                .set_conflicts()
                .iter()
                .fold((0, 0), |(e, m), s| (e + s.tally.executed, m + s.tally.mispredicted));
            assert_eq!(per_set, expected, "{label}: per-set sums diverge from the counters");
        }
    }
}
