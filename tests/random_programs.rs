//! Property tests: every dispatch technique must handle arbitrary program
//! shapes, and the paper's structural invariants must hold on all of them.
//!
//! Programs are generated as raw instruction streams (kinds + targets) and
//! driven by a deterministic random walk, so these tests exercise the
//! translators (block/region construction, sharing, quick gaps, side
//! entries) far beyond what the hand-written benchmarks reach.

use ivm_harness::prop::{self, Source};
use ivm_harness::prop_assert;

use ivm_bpred::IdealBtb;
use ivm_cache::{CycleCosts, PerfectIcache};
use ivm_core::{
    translate, CoverAlgorithm, Engine, InstKind, Measurement, NativeSpec, OpId, Profile,
    ProfileCollector, ProgramCode, ReplicaSelection, RunResult, SuperSelection, Technique,
    VmEvents, VmSpec,
};

/// A tiny VM with every instruction kind, including a quickable one.
struct TestVm {
    spec: VmSpec,
    plain: Vec<OpId>,
    cond: OpId,
    jump: OpId,
    call: OpId,
    ret: OpId,
    quickable: OpId,
    quick: OpId,
}

fn test_vm() -> TestVm {
    let mut b = VmSpec::builder("proptest");
    let plain = vec![
        b.inst("p0", NativeSpec::new(2, 6, InstKind::Plain)),
        b.inst("p1", NativeSpec::new(3, 9, InstKind::Plain)),
        b.inst("p2", NativeSpec::new(1, 4, InstKind::Plain)),
        b.inst("p3", NativeSpec::new(5, 14, InstKind::Plain).non_relocatable()),
    ];
    let cond = b.inst("cond", NativeSpec::new(3, 12, InstKind::CondBranch));
    let jump = b.inst("jump", NativeSpec::new(2, 8, InstKind::Jump));
    let call = b.inst("call", NativeSpec::new(4, 12, InstKind::Call));
    let ret = b.inst("ret", NativeSpec::new(3, 10, InstKind::Return));
    let quick = b.inst("gq", NativeSpec::new(4, 12, InstKind::Plain));
    let quickable = b.quickable("g", NativeSpec::new(40, 80, InstKind::Plain), vec![quick]);
    TestVm { spec: b.build(), plain, cond, jump, call, ret, quickable, quick }
}

/// Instruction template drawn by the generator; resolved into a program
/// later.
#[derive(Debug, Clone, Copy)]
enum Templ {
    Plain(u8),
    Quickable,
    Cond(u8),
    Jump(u8),
    Call(u8),
    Ret,
}

fn templ(src: &mut Source) -> Templ {
    match src.weighted(&[5, 1, 2, 1, 1, 1]) {
        0 => Templ::Plain(src.full::<u8>()),
        1 => Templ::Quickable,
        2 => Templ::Cond(src.full::<u8>()),
        3 => Templ::Jump(src.full::<u8>()),
        4 => Templ::Call(src.full::<u8>()),
        _ => Templ::Ret,
    }
}

/// Like [`templ`] but only fully-relocatable, non-quickable
/// instructions: non-relocatable interiors execute dispatch stubs in
/// dynamic code (paper §5.2), so dispatch-count monotonicity only holds for
/// relocatable programs.
fn relocatable_templ(src: &mut Source) -> Templ {
    match src.weighted(&[5, 2, 1, 1, 1]) {
        0 => Templ::Plain(src.int_in(0u8..3)),
        1 => Templ::Cond(src.full::<u8>()),
        2 => Templ::Jump(src.full::<u8>()),
        3 => Templ::Call(src.full::<u8>()),
        _ => Templ::Ret,
    }
}

/// The shared input shape of every property here: a template vector and
/// the 16-decision tape that steers the random walk.
fn inputs(src: &mut Source, element: impl FnMut(&mut Source) -> Templ) -> (Vec<Templ>, Vec<bool>) {
    let templ = src.vec_of(4..50, element);
    let decisions = src.vec_exact(16, Source::bool);
    (templ, decisions)
}

fn build_program(vm: &TestVm, templ: &[Templ]) -> ProgramCode {
    let n = templ.len() as u32;
    let mut p = ProgramCode::builder("random");
    for (i, t) in templ.iter().enumerate() {
        let pick_target = |sel: u8| u32::from(sel) % n;
        match t {
            Templ::Plain(k) => {
                p.push(vm.plain[usize::from(*k) % vm.plain.len()], None);
            }
            Templ::Quickable => {
                p.push(vm.quickable, None);
            }
            Templ::Cond(s) => {
                p.push(vm.cond, Some(pick_target(*s)));
            }
            Templ::Jump(s) => {
                p.push(vm.jump, Some(pick_target(*s)));
            }
            Templ::Call(s) => {
                let t = pick_target(*s);
                let inst = p.push(vm.call, Some(t));
                // call targets are entry points
                let _ = inst;
                p.mark_entry(t);
            }
            Templ::Ret => {
                p.push(vm.ret, None);
            }
        }
        let _ = i;
    }
    // Ensure execution cannot fall off the end.
    p.push(vm.ret, None);
    p.finish(&vm.spec)
}

/// Deterministic random walk over the program, reporting to `events`.
/// Returns the number of steps taken.
fn walk(
    vm: &TestVm,
    program: &ProgramCode,
    decisions: &[bool],
    events: &mut dyn VmEvents,
) -> usize {
    let n = program.len();
    let mut quickened = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut d = 0usize;
    let decide = |d: &mut usize| {
        let v = decisions[*d % decisions.len()];
        *d += 1;
        v
    };
    let mut ip = 0usize;
    events.begin(ip);
    for step in 0..600 {
        let op = program.op(ip);
        let kind = vm.spec.native(op).kind;
        // Quickening happens on the first execution of a quickable site.
        if kind == InstKind::Quickable && !quickened[ip] {
            quickened[ip] = true;
            events.quicken(ip, vm.quick);
        }
        let (next, taken) = match kind {
            InstKind::Plain | InstKind::Quickable => (ip + 1, false),
            InstKind::CondBranch => {
                if decide(&mut d) {
                    (program.target(ip).expect("cond target"), true)
                } else {
                    (ip + 1, false)
                }
            }
            InstKind::Jump => (program.target(ip).expect("jump target"), true),
            InstKind::Call => {
                if stack.len() < 16 {
                    stack.push(ip + 1);
                    (program.target(ip).expect("call target"), true)
                } else {
                    // Too deep: treat as a no-op fall-through is illegal for
                    // Call, so return instead (pop if possible).
                    match stack.pop() {
                        Some(r) => (r, true),
                        None => return step,
                    }
                }
            }
            InstKind::Return => match stack.pop() {
                Some(r) => (r, true),
                None => return step,
            },
        };
        if next >= n {
            return step;
        }
        events.transfer(ip, next, taken);
        ip = next;
    }
    600
}

fn all_techniques() -> Vec<Technique> {
    vec![
        Technique::Switch,
        Technique::Threaded,
        Technique::StaticRepl { budget: 30, selection: ReplicaSelection::RoundRobin },
        Technique::StaticRepl { budget: 13, selection: ReplicaSelection::Random { seed: 5 } },
        Technique::StaticSuper { budget: 20, algo: CoverAlgorithm::Greedy },
        Technique::StaticSuper { budget: 20, algo: CoverAlgorithm::Optimal },
        Technique::StaticBoth {
            replicas: 15,
            supers: 10,
            selection: ReplicaSelection::RoundRobin,
            algo: CoverAlgorithm::Greedy,
        },
        Technique::DynamicRepl,
        Technique::DynamicSuper,
        Technique::DynamicBoth,
        Technique::AcrossBb,
        Technique::WithStaticSuper { supers: 20, algo: CoverAlgorithm::Greedy },
        Technique::WithStaticSuperAcross { supers: 20, algo: CoverAlgorithm::Greedy },
        Technique::SubroutineThreading,
    ]
}

fn profile_of(vm: &TestVm, program: &ProgramCode, decisions: &[bool]) -> Profile {
    let mut collector = ProfileCollector::new(program);
    walk(vm, program, decisions, &mut collector);
    collector.into_profile()
}

fn run_technique(
    vm: &TestVm,
    program: &ProgramCode,
    decisions: &[bool],
    profile: &Profile,
    tech: Technique,
) -> RunResult {
    let t = translate(&vm.spec, program, tech, Some(profile), SuperSelection::gforth());
    assert_eq!(t.validate(), program.len(), "{tech}: layout invariants");
    let engine = Engine::new(
        IdealBtb::new(),
        Box::new(PerfectIcache),
        CycleCosts { cpi: 1.0, mispredict_penalty: 10.0, icache_miss_penalty: 27.0 },
    );
    let mut m = Measurement::new(t, engine);
    walk(vm, program, decisions, &mut m);
    m.finish().0
}

/// The body shared by `all_techniques_survive_random_programs` and the
/// pinned regression cases below: every technique translates, validates
/// and executes the program.
fn assert_all_techniques_survive(templ: &[Templ], decisions: &[bool]) -> Result<(), String> {
    let vm = test_vm();
    let program = build_program(&vm, templ);
    let profile = profile_of(&vm, &program, decisions);
    for tech in all_techniques() {
        let r = run_technique(&vm, &program, decisions, &profile, tech);
        prop_assert!(r.cycles >= 0.0, "{tech}: negative cycles on {templ:?}");
    }
    Ok(())
}

/// Every technique translates and executes every program shape.
#[test]
fn all_techniques_survive_random_programs() {
    prop::check(
        "all_techniques_survive_random_programs",
        prop::Config::from_env().cases(48),
        |src| {
            let (templ, decisions) = inputs(src, templ);
            assert_all_techniques_survive(&templ, &decisions)
        },
    );
}

/// Paper §7.3: plain, static replication and dynamic replication retire
/// exactly the same instructions and indirect branches.
#[test]
fn replication_preserves_instruction_counts() {
    prop::check(
        "replication_preserves_instruction_counts",
        prop::Config::from_env().cases(48),
        |src| {
            let (templ, decisions) = inputs(src, templ);
            assert_replication_preserves_counts(&templ, &decisions)
        },
    );
}

fn assert_replication_preserves_counts(templ: &[Templ], decisions: &[bool]) -> Result<(), String> {
    use ivm_harness::prop_assert_eq;
    let vm = test_vm();
    let program = build_program(&vm, templ);
    let profile = profile_of(&vm, &program, decisions);

    let plain = run_technique(&vm, &program, decisions, &profile, Technique::Threaded);
    let srepl = run_technique(
        &vm,
        &program,
        decisions,
        &profile,
        Technique::StaticRepl { budget: 30, selection: ReplicaSelection::RoundRobin },
    );
    let drepl = run_technique(&vm, &program, decisions, &profile, Technique::DynamicRepl);

    prop_assert_eq!(plain.counters.instructions, srepl.counters.instructions);
    prop_assert_eq!(plain.counters.indirect_branches, srepl.counters.indirect_branches);
    prop_assert_eq!(plain.counters.instructions, drepl.counters.instructions);
    prop_assert_eq!(plain.counters.indirect_branches, drepl.counters.indirect_branches);
    prop_assert_eq!(plain.counters.dispatches, drepl.counters.dispatches);
    Ok(())
}

/// Dynamic super and dynamic both differ only in sharing: identical
/// instruction counts, and sharing never *increases* code size.
#[test]
fn sharing_only_affects_code_size() {
    prop::check("sharing_only_affects_code_size", prop::Config::from_env().cases(48), |src| {
        let (templ, decisions) = inputs(src, templ);
        assert_sharing_only_affects_code_size(&templ, &decisions)
    });
}

fn assert_sharing_only_affects_code_size(
    templ: &[Templ],
    decisions: &[bool],
) -> Result<(), String> {
    use ivm_harness::prop_assert_eq;
    let vm = test_vm();
    let program = build_program(&vm, templ);
    let profile = profile_of(&vm, &program, decisions);

    let ds = run_technique(&vm, &program, decisions, &profile, Technique::DynamicSuper);
    let db = run_technique(&vm, &program, decisions, &profile, Technique::DynamicBoth);
    prop_assert_eq!(ds.counters.instructions, db.counters.instructions);
    prop_assert_eq!(ds.counters.indirect_branches, db.counters.indirect_branches);
    prop_assert!(ds.counters.code_bytes <= db.counters.code_bytes);
    Ok(())
}

/// Superinstructions and fall-through merging only remove dispatches
/// (for relocatable code — stubs for non-relocatable interiors may add
/// them, paper §5.2).
#[test]
fn dispatch_counts_are_monotone() {
    prop::check("dispatch_counts_are_monotone", prop::Config::from_env().cases(48), |src| {
        let (templ, decisions) = inputs(src, relocatable_templ);
        let vm = test_vm();
        let program = build_program(&vm, &templ);
        let profile = profile_of(&vm, &program, &decisions);

        let plain = run_technique(&vm, &program, &decisions, &profile, Technique::Threaded);
        let ds = run_technique(&vm, &program, &decisions, &profile, Technique::DynamicSuper);
        let across = run_technique(&vm, &program, &decisions, &profile, Technique::AcrossBb);
        prop_assert!(ds.counters.dispatches <= plain.counters.dispatches);
        prop_assert!(across.counters.dispatches <= ds.counters.dispatches);
        Ok(())
    });
}

/// The optimal parser never produces more units (dispatches) than
/// greedy under identical superinstruction tables.
#[test]
fn optimal_never_worse_than_greedy() {
    prop::check("optimal_never_worse_than_greedy", prop::Config::from_env().cases(48), |src| {
        let (templ, decisions) = inputs(src, templ);
        assert_optimal_never_worse(&templ, &decisions)
    });
}

fn assert_optimal_never_worse(templ: &[Templ], decisions: &[bool]) -> Result<(), String> {
    let vm = test_vm();
    let program = build_program(&vm, templ);
    let profile = profile_of(&vm, &program, decisions);

    let g = run_technique(
        &vm,
        &program,
        decisions,
        &profile,
        Technique::StaticSuper { budget: 20, algo: CoverAlgorithm::Greedy },
    );
    let o = run_technique(
        &vm,
        &program,
        decisions,
        &profile,
        Technique::StaticSuper { budget: 20, algo: CoverAlgorithm::Optimal },
    );
    prop_assert!(o.counters.dispatches <= g.counters.dispatches);
    Ok(())
}

/// Runs one concrete input through every invariant above that applies to
/// arbitrary (possibly non-relocatable) templates.
fn assert_all_invariants(templ: &[Templ], decisions: &[bool]) {
    assert_all_techniques_survive(templ, decisions).unwrap();
    assert_replication_preserves_counts(templ, decisions).unwrap();
    assert_sharing_only_affects_code_size(templ, decisions).unwrap();
    assert_optimal_never_worse(templ, decisions).unwrap();
}

/// Historical proptest counterexample (formerly
/// `tests/random_programs.proptest-regressions`, hash `d112a630…`): a
/// quickable instruction immediately followed by a backward jump onto the
/// quickened site. Exercises quick-gap handling in every translator.
#[test]
fn regression_quickable_then_jump_to_start() {
    use Templ::{Jump, Plain, Quickable};
    let templ = [Quickable, Plain(83), Jump(0), Plain(0)];
    let decisions = [false; 16];
    assert_all_invariants(&templ, &decisions);
}

/// Historical proptest counterexample (hash `bc21da93…`): a call-heavy
/// program whose call targets double as fall-through successors,
/// exercising side entries into merged regions.
#[test]
fn regression_call_targets_with_side_entries() {
    use Templ::{Call, Cond, Jump, Plain};
    let templ = [
        Plain(0),
        Plain(0),
        Plain(0),
        Plain(0),
        Plain(0),
        Plain(0),
        Plain(0),
        Plain(0),
        Plain(0),
        Cond(11),
        Plain(0),
        Call(22),
        Plain(6),
        Jump(90),
        Cond(82),
        Call(165),
        Plain(124),
        Plain(251),
        Plain(201),
        Call(40),
        Call(3),
        Cond(166),
        Call(106),
    ];
    let decisions = [
        false, false, true, true, false, true, true, false, true, true, false, true, false, false,
        false, true,
    ];
    assert_all_invariants(&templ, &decisions);
}
