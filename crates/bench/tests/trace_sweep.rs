//! The differential proof behind sweeping one replay: for every predictor
//! configuration in the registry, sweeping the dispatch stream — stored
//! as a trace and fed to `simulate_many`, or observed as it streams by a
//! `PredictorSweep` — produces counts and rates *bit-identical* to
//! re-executing the interpreter with that predictor wired into the
//! engine. This is the invariant that lets `modern_zoo`,
//! `simulator_study` and `sampling` replace N interpreter runs with one.

use ivm_bench::{frontend, pipeline, predictor_registry};
use ivm_cache::{CycleCosts, PerfectIcache};
use ivm_core::{
    simulate_many, CoverAlgorithm, DispatchObserver, DispatchTrace, Engine, PredictorSweep,
    ReplicaSelection, Technique,
};

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
        // Capture the dispatch stream once on the capture machine (its
        // predictor is irrelevant — the stream must not depend on it).
        let trace = pipeline::capture(&*image, &exec, technique, Some(&training));
        assert!(!trace.is_empty(), "{technique}: captured no dispatches");

        // Round-trip through the binary format so the sweep sees exactly
        // what a `TraceStore` serves from a valid `.dtrace` file.
        let trace = DispatchTrace::from_bytes(&trace.to_bytes()).expect("round-trips");

        let registry = predictor_registry();
        let mut predictors: Vec<_> = registry.iter().map(|(_, build)| build()).collect();
        let stored = simulate_many(&trace, &mut predictors);
        // The streamed leg: the same registry observes a replay directly.
        let sweep = PredictorSweep::new(registry.iter().map(|(_, build)| build()).collect());
        let (streamed, _) =
            pipeline::replay(&*image, &exec, technique, Some(&training), sweep).finish();

        for (((name, build), stat), streamed) in registry.iter().zip(&stored).zip(&streamed) {
            assert_eq!(stat, streamed, "{technique}/{name}: stored and streamed sweeps diverge");
            // Re-execute the interpreter live with this predictor in the
            // engine — the way to evaluate it without a sweep.
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

/// A stream shaped like threaded dispatch: each event's branch ends the
/// current opcode's routine and its target is the next opcode's routine.
/// The loop body drops one opcode on every third iteration, so a shared
/// branch's target depends on the path that reached it.
fn synthetic_stream(len: usize) -> Vec<(u64, u64)> {
    const BODY: [u64; 11] = [3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5];
    let routine = |op: u64| 0x8000 + op * 0x40;
    let ops: Vec<u64> = (0u64..)
        .flat_map(|iter| BODY.iter().copied().filter(move |&op| op != 4 || iter % 3 != 0))
        .take(len + 1)
        .collect();
    ops.windows(2).map(|w| (routine(w[0]) + 0x30, routine(w[1]))).collect()
}

/// A `PredictorSweep` runs its predictors chunk by chunk (4,096 events),
/// yet every registry predictor must end where one `simulate_many` pass
/// over the whole stream ends: history, tables and the ITTAGE breakdown
/// carry from one chunk into the next, and the partial last chunk counts.
#[test]
fn streamed_sweep_carries_predictor_state_across_chunks() {
    let events = synthetic_stream(3 * 4096 + 17);
    let registry = predictor_registry();
    let build_all = || -> Vec<_> { registry.iter().map(|(_, build)| build()).collect() };

    let mut trace = DispatchTrace::new(0, "synthetic");
    let mut sweep = PredictorSweep::new(build_all());
    for (i, &(branch, target)) in events.iter().enumerate() {
        trace.push(branch, target);
        sweep.dispatch(i, branch, target, false);
    }
    let (streamed, swept) = sweep.finish();
    let mut whole = build_all();
    let expected = simulate_many(&trace, &mut whole);

    for (i, (name, build)) in registry.iter().enumerate() {
        assert_eq!(streamed[i], expected[i], "{name}: streamed counts diverge");
        assert_eq!(streamed[i].executed, events.len() as u64, "{name}: events lost");
        assert_eq!(
            swept[i].ittage_breakdown(),
            whole[i].ittage_breakdown(),
            "{name}: ITTAGE breakdown diverges"
        );
        // The check has teeth: a predictor rebuilt for every chunk
        // mispredicts more than one that keeps its state.
        let restarted: u64 = events.chunks(4096).map(|c| build().run_stream(c).1).sum();
        assert!(
            restarted > expected[i].mispredicted,
            "{name}: restarting per chunk must cost mispredictions"
        );
    }
}
