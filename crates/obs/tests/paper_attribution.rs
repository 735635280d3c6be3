//! End-to-end attribution checks against the paper's hand traces.
//!
//! Table I's example program (`A B A GOTO` in a loop) is run through the
//! real translator + engine, its steady-state dispatches are fed to a
//! [`DispatchAttribution`], and the per-instance / per-opcode
//! misprediction split must come out exactly as the paper's table says: under threaded dispatch the
//! shared routine branch of `A` takes both mispredictions, under switch
//! dispatch every instance takes one. Table III's bad-replication example
//! is replayed at the predictor level, with misses tallied per branch.

use std::collections::BTreeMap;

use ivm_bpred::{BtbConfig, IdealBtb, IndirectPredictor};
use ivm_cache::{CycleCosts, PerfectIcache};
use ivm_core::{
    translate, DispatchObserver, Engine, InstKind, Measurement, NativeSpec, ProgramCode,
    SuperSelection, Technique, VmEvents, VmSpec,
};
use ivm_obs::DispatchAttribution;

/// The paper's example VM: opcodes A and B (straight-line) and GOTO.
fn table1_spec() -> VmSpec {
    let mut b = VmSpec::builder("paper");
    b.inst("A", NativeSpec::new(3, 12, InstKind::Plain));
    b.inst("B", NativeSpec::new(3, 12, InstKind::Plain));
    b.inst("GOTO", NativeSpec::new(2, 8, InstKind::Jump));
    b.build()
}

/// The example program: `A B A GOTO` with GOTO looping back to the start.
fn table1_program(spec: &VmSpec) -> ProgramCode {
    let a = spec.find("A").unwrap();
    let b = spec.find("B").unwrap();
    let goto = spec.find("GOTO").unwrap();
    let mut p = ProgramCode::builder("table1");
    p.push(a, None); // 0
    p.push(b, None); // 1
    p.push(a, None); // 2
    p.push(goto, Some(0)); // 3 -> 0
    p.finish(spec)
}

/// One dispatch event as the engine reports it:
/// `(from, branch, target, mispredicted)`.
type Event = (usize, u64, u64, bool);

/// Records every dispatch the engine delivers, in execution order.
#[derive(Default)]
struct Recorder(Vec<Event>);

impl DispatchObserver for Recorder {
    fn dispatch(&mut self, from: usize, branch: u64, target: u64, mispredicted: bool) {
        self.0.push((from, branch, target, mispredicted));
    }
}

/// Every dispatch of `iterations` passes through the Table I loop under
/// `technique`.
fn dispatches(technique: Technique, iterations: usize) -> Vec<Event> {
    let spec = table1_spec();
    let program = table1_program(&spec);
    let translation = translate(&spec, &program, technique, None, SuperSelection::gforth());
    let engine = Engine::new(IdealBtb::new(), Box::new(PerfectIcache), CycleCosts::celeron())
        .with_observer(Recorder::default());
    let mut m = Measurement::new(translation, engine);
    m.begin(0);
    let iteration = [(0, 1, false), (1, 2, false), (2, 3, false), (3, 0, true)];
    for _ in 0..iterations {
        for &(from, to, taken) in &iteration {
            m.transfer(from, to, taken);
        }
    }
    let (_, recorder) = m.finish();
    recorder.0
}

/// Attributes one steady-state iteration of the Table I loop under
/// `technique`: the paper's tables assume the loop already ran once, so
/// the iteration is what a 2-iteration run dispatches after the
/// dispatches of a 1-iteration run.
fn steady_state_attribution(
    technique: Technique,
) -> (DispatchAttribution, Vec<(String, u64, u64)>) {
    let warm_up = dispatches(technique, 1).len();
    let mut sink = DispatchAttribution::new().with_btb_sets(BtbConfig::celeron());
    for &(from, branch, target, miss) in &dispatches(technique, 2)[warm_up..] {
        sink.dispatch(from, branch, target, miss);
    }

    let spec = table1_spec();
    let translation =
        translate(&spec, &table1_program(&spec), technique, None, SuperSelection::gforth());
    let per_opcode = sink
        .per_opcode(&translation)
        .into_iter()
        .map(|o| (o.name, o.tally.executed, o.tally.mispredicted))
        .collect();
    (sink, per_opcode)
}

#[test]
fn table1_threaded_attributes_both_misses_to_opcode_a() {
    let (sink, per_opcode) = steady_state_attribution(Technique::Threaded);

    // Table I, right half: both instances of A share routine A's dispatch
    // branch, whose target alternates (B, GOTO) — 2 mispredictions per
    // iteration; B's and GOTO's branches stay monomorphic.
    let total = sink.total();
    assert_eq!((total.executed, total.mispredicted), (4, 2));
    let per_instance: Vec<(u64, u64)> =
        sink.per_instance().iter().map(|t| (t.executed, t.mispredicted)).collect();
    assert_eq!(per_instance, vec![(1, 1), (1, 0), (1, 1), (1, 0)]);

    // Worst-first: opcode A owns every misprediction.
    assert_eq!(per_opcode[0], ("A".to_owned(), 2, 2));
    assert!(per_opcode[1..].iter().all(|&(_, _, m)| m == 0));

    // The BTB-set view is populated and consistent with the totals.
    let conflicts = sink.set_conflicts();
    assert!(!conflicts.is_empty());
    let set_total: u64 = conflicts.iter().map(|c| c.tally.executed).sum();
    let set_missed: u64 = conflicts.iter().map(|c| c.tally.mispredicted).sum();
    assert_eq!((set_total, set_missed), (4, 2));
}

#[test]
fn table1_switch_spreads_misses_across_all_instances() {
    let (sink, per_opcode) = steady_state_attribution(Technique::Switch);

    // Table I, left half: the shared switch branch cycles through four
    // distinct case targets, so all 4 dispatches mispredict, one per
    // instance entered.
    let total = sink.total();
    assert_eq!((total.executed, total.mispredicted), (4, 4));
    let per_instance: Vec<(u64, u64)> =
        sink.per_instance().iter().map(|t| (t.executed, t.mispredicted)).collect();
    assert_eq!(per_instance, vec![(1, 1), (1, 1), (1, 1), (1, 1)]);

    // Per opcode: A's two instances collect 2, B and GOTO 1 each.
    assert_eq!(per_opcode[0], ("A".to_owned(), 2, 2));
    let rest: Vec<(String, u64, u64)> = per_opcode[1..].to_vec();
    assert!(rest.contains(&("B".to_owned(), 1, 1)));
    assert!(rest.contains(&("GOTO".to_owned(), 1, 1)));

    // One shared branch, so exactly one active BTB set with one branch.
    let conflicts = sink.set_conflicts();
    assert_eq!(conflicts.len(), 1);
    assert_eq!(conflicts[0].distinct_branches, 1);
    assert_eq!(conflicts[0].tally.mispredicted, 4);
}

#[test]
fn table3_bad_replication_adds_a_misprediction() {
    // Table III replayed at the predictor level: branch addresses stand in
    // for the dispatch branches of routines A, B, B1, B2, GOTO.
    const BR_A: u64 = 0xA08;
    const BR_B: u64 = 0xB08;
    const BR_B1: u64 = 0xB18;
    const BR_B2: u64 = 0xB28;
    const BR_GOTO: u64 = 0xC08;
    const A: u64 = 0xA00;
    const B: u64 = 0xB00;
    const B1: u64 = 0xB10;
    const B2: u64 = 0xB20;
    const GOTO: u64 = 0xC00;

    // Misses per branch in the second (steady-state) pass over `seq`.
    let steady_misses = |seq: &[(u64, u64)]| -> BTreeMap<u64, u64> {
        let mut p = IdealBtb::new();
        for &(branch, target) in seq {
            p.predict_and_update(branch, target);
        }
        let mut misses = BTreeMap::new();
        for &(branch, target) in seq {
            let hit = p.predict_and_update(branch, target);
            *misses.entry(branch).or_default() += u64::from(!hit);
        }
        misses
    };

    // Original code `A B A B A GOTO`: br-A alternates B, B, GOTO.
    let original =
        steady_misses(&[(BR_A, B), (BR_B, A), (BR_A, B), (BR_B, A), (BR_A, GOTO), (BR_GOTO, A)]);
    assert_eq!(original[&BR_A], 2, "Table III: 2 mispredictions per iteration");
    assert_eq!(original[&BR_B], 0);
    assert_eq!(original[&BR_GOTO], 0);

    // "Improved" replication B -> B1, B2: br-A now sees B1, B2, GOTO —
    // never twice the same — and picks up a third misprediction.
    let modified = steady_misses(&[
        (BR_A, B1),
        (BR_B1, A),
        (BR_A, B2),
        (BR_B2, A),
        (BR_A, GOTO),
        (BR_GOTO, A),
    ]);
    assert_eq!(modified[&BR_A], 3, "Table III: replication made it worse");
    assert_eq!(modified[&BR_B1], 0);
    assert_eq!(modified[&BR_B2], 0);
    assert_eq!(modified[&BR_GOTO], 0);
}
