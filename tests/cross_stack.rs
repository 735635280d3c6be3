//! Cross-crate integration tests: the whole stack (predictor + cache +
//! translator + VM) glued together the way the paper's experiments are.

use ivm::bpred::{AnyPredictor, Btb, BtbConfig, IdealBtb, TwoLevelConfig, TwoLevelPredictor};
use ivm::cache::{CpuSpec, CycleCosts, PerfectIcache};
use ivm::core::{Engine, Technique};
use ivm::forth;
use ivm::java::Asm;

/// A small Forth workload with the Table I pathology.
fn forth_image() -> forth::Image {
    forth::compile(
        "
        : a dup 1+ swap + ;
        : b 2* 16383 and ;
        : main 1 300 0 do a b a a b loop . ;
        ",
    )
    .expect("compiles")
}

#[test]
fn forth_speedup_hierarchy_on_celeron() {
    // Paper Figures 7: plain <= dynamic super family <= across bb family.
    let image = forth_image();
    let profile = ivm::core::profile(&image).expect("profiles");
    let cpu = CpuSpec::celeron800();
    let cycles = |tech| {
        let image = forth_image();
        ivm::core::measure(&image, tech, &cpu, Some(&profile)).expect("runs").0.cycles
    };
    let plain = cycles(Technique::Threaded);
    let drepl = cycles(Technique::DynamicRepl);
    let across = cycles(Technique::AcrossBb);
    assert!(drepl < plain, "replication must beat plain on this loop");
    assert!(across < plain);
}

#[test]
fn two_level_predictor_shrinks_the_gap() {
    // Paper §8: with a two-level predictor (Pentium M) the techniques
    // matter much less, because plain threaded code already predicts well.
    // Use a call-free loop whose mispredictions are pure dispatch
    // pathology (repeated opcodes with changing successors) — returns
    // would not be fixed by either predictor or technique.
    let straightline = || {
        forth::compile(": main 1 500 0 do dup 1+ swap dup xor swap dup + 2* 1+ 16383 and loop . ;")
            .expect("compiles")
    };
    let image = straightline();
    let profile = ivm::core::profile(&image).expect("profiles");
    let costs = CycleCosts::celeron();

    let run = |tech, two_level: bool| {
        let image = straightline();
        let pred: AnyPredictor = if two_level {
            TwoLevelPredictor::new(TwoLevelConfig::pentium_m()).into()
        } else {
            Btb::new(BtbConfig::celeron()).into()
        };
        let engine = Engine::new(pred, Box::new(PerfectIcache), costs);
        ivm::core::measure_with(&image, tech, engine, Some(&profile)).expect("runs").0
    };

    let btb_gain = run(Technique::Threaded, false).cycles / run(Technique::AcrossBb, false).cycles;
    let two_level_gain =
        run(Technique::Threaded, true).cycles / run(Technique::AcrossBb, true).cycles;
    assert!(
        two_level_gain < btb_gain,
        "software techniques should matter less on a two-level predictor: \
         {two_level_gain:.2} vs {btb_gain:.2}"
    );
}

#[test]
fn java_quickening_interacts_with_every_technique() {
    // An object-heavy loop where quickable sites sit in the middle of
    // blocks: exercises gap patching (dynamic) and re-parsing (static).
    let build_image = || {
        let mut a = Asm::new();
        a.class("Pt", None, &["x", "y"]);
        a.class("Main", None, &[]);
        a.begin_static("Main", "main", 0, 3);
        a.new_object("Pt");
        a.istore(0);
        a.ldc(0);
        a.istore(1);
        a.label("head");
        a.iload(0);
        a.iload(1);
        a.putfield("x");
        a.iload(0);
        a.iload(0);
        a.getfield("x");
        a.ldc(1);
        a.iadd();
        a.putfield("y");
        a.iload(0);
        a.getfield("y");
        a.pop();
        a.iinc(1, 1);
        a.iload(1);
        a.ldc(64);
        a.if_icmplt("head");
        a.iload(0);
        a.getfield("y");
        a.print_int();
        a.ret();
        a.end_method();
        a.link()
    };

    let image = build_image();
    let profile = ivm::core::profile(&image).expect("profiles");
    let cpu = CpuSpec::pentium4_northwood();
    let mut texts = Vec::new();
    for tech in Technique::jvm_suite() {
        let image = build_image();
        let (r, out) = ivm::core::measure(&image, tech, &cpu, Some(&profile))
            .unwrap_or_else(|e| panic!("{tech}: {e}"));
        assert!(out.quickenings >= 4, "{tech}: quickables must quicken");
        assert!(r.counters.instructions > 0);
        texts.push(out.text);
    }
    assert!(texts.windows(2).all(|w| w[0] == w[1]), "{texts:?}");
    assert_eq!(texts[0], "64\n");
}

#[test]
fn predictor_choice_only_affects_prediction_counters() {
    // Swapping the predictor must not change retired instructions,
    // dispatches, or code bytes — only (mis)predictions.
    let image = forth_image();
    let profile = ivm::core::profile(&image).expect("profiles");
    let costs = CycleCosts::celeron();

    let with_pred = |pred: AnyPredictor| {
        let image = forth_image();
        let engine = Engine::new(pred, Box::new(PerfectIcache), costs);
        ivm::core::measure_with(&image, Technique::AcrossBb, engine, Some(&profile))
            .expect("runs")
            .0
    };
    let a = with_pred(IdealBtb::new().into());
    let b = with_pred(Btb::new(BtbConfig::new(16, 1).tagless()).into());
    assert_eq!(a.counters.instructions, b.counters.instructions);
    assert_eq!(a.counters.dispatches, b.counters.dispatches);
    assert_eq!(a.counters.code_bytes, b.counters.code_bytes);
    assert!(a.counters.indirect_mispredicted <= b.counters.indirect_mispredicted);
}
