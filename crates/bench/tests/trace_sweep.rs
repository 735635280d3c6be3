//! The differential proof behind capture-then-sweep: for every predictor
//! configuration in the registry, sweeping a captured dispatch trace with
//! `simulate_many` produces counts and rates *bit-identical* to
//! re-executing the interpreter with that predictor wired into the
//! engine. This is the invariant that lets `simulator_study` (and any
//! future sweep) replace N interpreter runs with one capture.

use ivm_bench::{frontend, predictor_registry};
use ivm_cache::{CycleCosts, PerfectIcache};
use ivm_core::{simulate_many, CoverAlgorithm, DispatchTrace, Engine, ReplicaSelection, Technique};

fn techniques() -> Vec<Technique> {
    vec![
        Technique::Threaded,
        Technique::StaticRepl { budget: 50, selection: ReplicaSelection::RoundRobin },
        Technique::StaticSuper { budget: 20, algo: CoverAlgorithm::Greedy },
        Technique::DynamicSuper,
        Technique::AcrossBb,
    ]
}

/// The registry must keep covering the modern zoo: the bit-identical
/// sweep proof below iterates the registry, so dropping an entry would
/// silently shrink its coverage. The ITTAGE entries must also expose
/// their provider breakdown through the `AnyPredictor` seam — that is
/// what `modern_zoo` reads for its attribution section.
#[test]
fn registry_covers_the_modern_zoo_with_breakdowns() {
    let registry = predictor_registry();
    for name in ["path-hybrid", "ittage-small", "ittage-medium", "ittage-firestorm", "ittage-64kb"]
    {
        let (_, build) = registry
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("{name} missing from the predictor registry"));
        let predictor = build();
        assert_eq!(
            predictor.ittage_breakdown().is_some(),
            name.starts_with("ittage"),
            "{name}: breakdown exposure does not match the predictor family"
        );
    }
}

#[test]
fn simulate_many_is_bit_identical_to_per_predictor_reexecution() {
    let forth = frontend("forth");
    let image = forth.image("micro");
    let training = forth.profile_of("micro");
    let (exec, _) = ivm_core::record(&*image).expect("recording run");
    let costs = CycleCosts::celeron();

    for technique in techniques() {
        // Capture the dispatch stream once, through the same observer
        // seam the trace store uses (the capture engine's predictor is
        // irrelevant — the stream must not depend on it).
        let capture_engine =
            Engine::new(ivm_bpred::IdealBtb::new(), Box::new(PerfectIcache), costs)
                .with_observer(DispatchTrace::new(0, technique.id()));
        let (_, trace) = ivm_core::measure_trace_with(
            &*image,
            &exec,
            technique,
            capture_engine,
            Some(&training),
        );
        assert!(!trace.is_empty(), "{technique}: captured no dispatches");

        // Round-trip through the binary format so the sweep sees exactly
        // what a results/traces/ cache hit would see.
        let trace = DispatchTrace::from_bytes(&trace.to_bytes()).expect("round-trips");

        let registry = predictor_registry();
        let mut predictors: Vec<_> = registry.iter().map(|(_, build)| build()).collect();
        let stats = simulate_many(&trace, &mut predictors);

        for ((name, build), stat) in registry.iter().zip(&stats) {
            // Re-execute the interpreter live with this predictor in the
            // engine — the pre-trace-store way of evaluating it.
            let engine = Engine::new(build(), Box::new(PerfectIcache), costs);
            let (r, _) = ivm_core::measure_with(&*image, technique, engine, Some(&training))
                .unwrap_or_else(|e| panic!("{technique}/{name}: {e}"));
            assert_eq!(
                stat.executed, r.counters.indirect_branches,
                "{technique}/{name}: executed-branch counts diverge"
            );
            assert_eq!(
                stat.mispredicted, r.counters.indirect_mispredicted,
                "{technique}/{name}: misprediction counts diverge"
            );
            assert_eq!(
                stat.misprediction_rate().to_bits(),
                r.counters.misprediction_rate().to_bits(),
                "{technique}/{name}: rates are not bit-identical"
            );
        }
    }
}
