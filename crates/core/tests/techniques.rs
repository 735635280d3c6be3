//! End-to-end tests of the translators and the dispatch engine, using a
//! tiny hand-driven VM. These check the paper's structural claims (§7.3):
//! identical retired-instruction counts across replication variants,
//! misprediction elimination by replication, dispatch reduction by
//! superinstructions, and code-growth ordering.

use ivm_bpred::{Btb, BtbConfig, IdealBtb};
use ivm_cache::{CycleCosts, PerfectIcache};
use ivm_core::{
    translate, CoverAlgorithm, Engine, InstKind, Measurement, NativeSpec, Profile,
    ProfileCollector, ProgramCode, ReplicaSelection, RunResult, SuperSelection, Technique,
    VmEvents, VmSpec,
};

/// A small Forth-ish instruction set.
struct Mini {
    spec: VmSpec,
    lit: u16,
    add: u16,
    dup: u16,
    drop_: u16,
    beq: u16,
    ret: u16,
}

fn mini() -> Mini {
    let mut b = VmSpec::builder("mini");
    let lit = b.inst("lit", NativeSpec::new(2, 7, InstKind::Plain));
    let add = b.inst("add", NativeSpec::new(3, 9, InstKind::Plain));
    let dup = b.inst("dup", NativeSpec::new(2, 6, InstKind::Plain));
    let drop_ = b.inst("drop", NativeSpec::new(1, 4, InstKind::Plain));
    let beq = b.inst("beq", NativeSpec::new(3, 12, InstKind::CondBranch));
    let ret = b.inst("ret", NativeSpec::new(3, 10, InstKind::Return));
    Mini { spec: b.build(), lit, add, dup, drop_, beq, ret }
}

/// A loop: (lit add dup drop add dup) beq-back, then ret.
fn looped_program(m: &Mini) -> ProgramCode {
    let mut p = ProgramCode::builder("loop");
    p.push(m.lit, None); // 0
    p.push(m.add, None); // 1
    p.push(m.dup, None); // 2
    p.push(m.drop_, None); // 3
    p.push(m.add, None); // 4
    p.push(m.dup, None); // 5
    p.push(m.beq, Some(0)); // 6
    p.push(m.ret, None); // 7
    p.finish(&m.spec)
}

/// Drives `iters` loop iterations then the final fall-out and return.
fn drive(events: &mut dyn VmEvents, iters: usize) {
    events.begin(0);
    for it in 0..iters {
        for i in 0..6 {
            events.transfer(i, i + 1, false);
        }
        if it + 1 < iters {
            events.transfer(6, 0, true);
        } else {
            events.transfer(6, 7, false);
        }
    }
}

fn run(m: &Mini, program: &ProgramCode, tech: Technique, profile: &Profile) -> RunResult {
    let t = translate(&m.spec, program, tech, Some(profile), SuperSelection::gforth());
    let engine = Engine::new(
        IdealBtb::new(),
        Box::new(PerfectIcache),
        CycleCosts { cpi: 1.0, mispredict_penalty: 10.0, icache_miss_penalty: 27.0 },
    );
    let mut meas = Measurement::new(t, engine);
    drive(&mut meas, 100);
    meas.finish().0
}

fn profile_of(_m: &Mini, program: &ProgramCode) -> Profile {
    let mut col = ProfileCollector::new(program);
    drive(&mut col, 100);
    col.into_profile()
}

fn all_techniques() -> Vec<Technique> {
    let mut v = vec![Technique::Switch];
    v.extend(Technique::gforth_suite());
    v.push(Technique::WithStaticSuperAcross { supers: 50, algo: CoverAlgorithm::Greedy });
    v.push(Technique::StaticSuper { budget: 50, algo: CoverAlgorithm::Optimal });
    v.push(Technique::StaticRepl { budget: 40, selection: ReplicaSelection::Random { seed: 7 } });
    v
}

#[test]
fn every_technique_translates_and_runs() {
    let m = mini();
    let program = looped_program(&m);
    let profile = profile_of(&m, &program);
    for tech in all_techniques() {
        let r = run(&m, &program, tech, &profile);
        assert!(r.counters.instructions > 0, "{tech}: no instructions retired");
        assert!(r.cycles > 0.0, "{tech}: no cycles");
    }
}

#[test]
fn replication_variants_retire_identical_instruction_counts() {
    // Paper §7.3: instructions and indirect branches are the same for
    // plain, static repl and dynamic repl — only the copies differ.
    let m = mini();
    let program = looped_program(&m);
    let profile = profile_of(&m, &program);
    let plain = run(&m, &program, Technique::Threaded, &profile);
    let srepl = run(
        &m,
        &program,
        Technique::StaticRepl { budget: 40, selection: ReplicaSelection::RoundRobin },
        &profile,
    );
    let drepl = run(&m, &program, Technique::DynamicRepl, &profile);
    assert_eq!(plain.counters.instructions, srepl.counters.instructions);
    assert_eq!(plain.counters.instructions, drepl.counters.instructions);
    assert_eq!(plain.counters.indirect_branches, srepl.counters.indirect_branches);
    assert_eq!(plain.counters.indirect_branches, drepl.counters.indirect_branches);
}

#[test]
fn super_variants_share_instruction_counts() {
    // Likewise dynamic super and dynamic both differ only in sharing.
    let m = mini();
    let program = looped_program(&m);
    let profile = profile_of(&m, &program);
    let ds = run(&m, &program, Technique::DynamicSuper, &profile);
    let db = run(&m, &program, Technique::DynamicBoth, &profile);
    assert_eq!(ds.counters.instructions, db.counters.instructions);
    assert_eq!(ds.counters.indirect_branches, db.counters.indirect_branches);
}

#[test]
fn dynamic_replication_eliminates_loop_mispredictions() {
    // With one copy per instance, every dispatch branch in the loop body is
    // monomorphic; only warm-up misses remain on an ideal BTB.
    let m = mini();
    let program = looped_program(&m);
    let profile = profile_of(&m, &program);
    let plain = run(&m, &program, Technique::Threaded, &profile);
    let drepl = run(&m, &program, Technique::DynamicRepl, &profile);
    // plain: `dup` occurs twice in the loop with different successors
    // (drop, then beq), so its dispatch branch mispredicts twice per
    // iteration — exactly the Table I pathology.
    assert!(
        plain.counters.indirect_mispredicted >= 2 * 99,
        "plain should thrash: {:?}",
        plain.counters
    );
    assert!(
        drepl.counters.indirect_mispredicted <= 16,
        "dynamic repl should only have warm-up misses: {:?}",
        drepl.counters
    );
    assert!(drepl.cycles < plain.cycles);
}

#[test]
fn dynamic_super_reduces_dispatches() {
    let m = mini();
    let program = looped_program(&m);
    let profile = profile_of(&m, &program);
    let plain = run(&m, &program, Technique::Threaded, &profile);
    let ds = run(&m, &program, Technique::DynamicSuper, &profile);
    // The loop body is one basic block of 7 instructions -> 1 dispatch.
    assert!(ds.counters.dispatches * 4 < plain.counters.dispatches);
    assert!(ds.counters.instructions < plain.counters.instructions);
}

#[test]
fn across_bb_eliminates_fallthrough_dispatches() {
    let m = mini();
    let program = looped_program(&m);
    let profile = profile_of(&m, &program);
    let ds = run(&m, &program, Technique::DynamicSuper, &profile);
    let across = run(&m, &program, Technique::AcrossBb, &profile);
    // Across-bb only dispatches on the taken back edge (99 times) plus
    // warm-up; dynamic super also dispatches at every block end.
    assert!(across.counters.dispatches < ds.counters.dispatches);
}

#[test]
fn switch_dispatch_is_worst() {
    let m = mini();
    let program = looped_program(&m);
    let profile = profile_of(&m, &program);
    let plain = run(&m, &program, Technique::Threaded, &profile);
    let switch = run(&m, &program, Technique::Switch, &profile);
    // One shared branch mispredicts essentially every dispatch.
    assert!(switch.counters.indirect_mispredicted > plain.counters.indirect_mispredicted);
    assert!(switch.counters.instructions > plain.counters.instructions);
    assert!(switch.cycles > plain.cycles);
}

#[test]
fn code_growth_ordering_matches_paper() {
    // dynamic super (shared) < dynamic both <= across bb family; static = small.
    let m = mini();
    let program = looped_program(&m);
    let profile = profile_of(&m, &program);
    let plain = run(&m, &program, Technique::Threaded, &profile);
    let ds = run(&m, &program, Technique::DynamicSuper, &profile);
    let db = run(&m, &program, Technique::DynamicBoth, &profile);
    let dr = run(&m, &program, Technique::DynamicRepl, &profile);
    assert_eq!(plain.counters.code_bytes, 0);
    assert!(ds.counters.code_bytes <= db.counters.code_bytes);
    assert!(db.counters.code_bytes <= dr.counters.code_bytes + 64);
    assert!(dr.counters.code_bytes > 0);
}

#[test]
fn identical_blocks_share_dynamic_superinstructions() {
    // Two identical basic blocks must share one region under dynamic super
    // (paper §5.2) and not under dynamic both.
    let m = mini();
    let mut p = ProgramCode::builder("twins");
    // Block 1: lit add / beq to block 2
    p.push(m.lit, None); // 0
    p.push(m.add, None); // 1
    p.push(m.beq, Some(3)); // 2
                            // Block 2 (identical content): lit add / beq back to 0
    p.push(m.lit, None); // 3
    p.push(m.add, None); // 4
    p.push(m.beq, Some(0)); // 5
    p.push(m.ret, None); // 6
    let program = p.finish(&m.spec);

    let ts = translate(&m.spec, &program, Technique::DynamicSuper, None, SuperSelection::gforth());
    let tb = translate(&m.spec, &program, Technique::DynamicBoth, None, SuperSelection::gforth());
    assert_eq!(ts.slot(0).entry, ts.slot(3).entry, "identical blocks share under dynamic super");
    assert_ne!(tb.slot(0).entry, tb.slot(3).entry, "dynamic both never shares");
    assert!(ts.code_bytes() < tb.code_bytes());
}

#[test]
fn static_superinstructions_cut_retired_instructions() {
    let m = mini();
    let program = looped_program(&m);
    let profile = profile_of(&m, &program);
    let plain = run(&m, &program, Technique::Threaded, &profile);
    let ss = run(
        &m,
        &program,
        Technique::StaticSuper { budget: 50, algo: CoverAlgorithm::Greedy },
        &profile,
    );
    assert!(ss.counters.instructions < plain.counters.instructions);
    assert!(ss.counters.dispatches < plain.counters.dispatches);
}

#[test]
fn greedy_and_optimal_both_run_and_optimal_never_worse() {
    let m = mini();
    let program = looped_program(&m);
    let profile = profile_of(&m, &program);
    let g = run(
        &m,
        &program,
        Technique::StaticSuper { budget: 50, algo: CoverAlgorithm::Greedy },
        &profile,
    );
    let o = run(
        &m,
        &program,
        Technique::StaticSuper { budget: 50, algo: CoverAlgorithm::Optimal },
        &profile,
    );
    assert!(o.counters.dispatches <= g.counters.dispatches);
}

#[test]
fn finite_btb_shows_conflicts_under_replication() {
    // With a tiny BTB, dynamic replication's many branches collide; the
    // ideal BTB doesn't. This is the capacity effect of §7.4.
    let m = mini();
    let program = looped_program(&m);
    let t = translate(&m.spec, &program, Technique::DynamicRepl, None, SuperSelection::gforth());
    let tiny = Engine::new(
        Btb::new(BtbConfig::new(4, 1).tagless()),
        Box::new(PerfectIcache),
        CycleCosts { cpi: 1.0, mispredict_penalty: 10.0, icache_miss_penalty: 27.0 },
    );
    let mut meas = Measurement::new(t, tiny);
    drive(&mut meas, 100);
    let (small, ()) = meas.finish();

    let t = translate(&m.spec, &program, Technique::DynamicRepl, None, SuperSelection::gforth());
    let big = Engine::new(
        IdealBtb::new(),
        Box::new(PerfectIcache),
        CycleCosts { cpi: 1.0, mispredict_penalty: 10.0, icache_miss_penalty: 27.0 },
    );
    let mut meas = Measurement::new(t, big);
    drive(&mut meas, 100);
    let (ideal, ()) = meas.finish();
    assert!(small.counters.indirect_mispredicted > ideal.counters.indirect_mispredicted * 4);
}

#[test]
fn speedup_over_is_cycle_ratio() {
    let m = mini();
    let program = looped_program(&m);
    let profile = profile_of(&m, &program);
    let plain = run(&m, &program, Technique::Threaded, &profile);
    let fast = run(&m, &program, Technique::AcrossBb, &profile);
    let s = fast.speedup_over(&plain);
    assert!(s > 1.0);
    assert!((s - plain.cycles / fast.cycles).abs() < 1e-12);
}
