//! The generic measurement pipeline (`ivm_core::measure` and friends)
//! driving the mini-JVM frontend — including quickening — through its
//! `GuestVm` impl.

use ivm_cache::CpuSpec;
use ivm_core::{measure, measure_trace, profile, record, Technique};
use ivm_java::{Asm, JavaImage};

fn fib_image() -> JavaImage {
    let mut a = Asm::new();
    a.class("Main", None, &[]);
    a.begin_static("Main", "fib", 1, 1);
    a.iload(0);
    a.ldc(2);
    a.if_icmpge("rec");
    a.iload(0);
    a.ireturn();
    a.label("rec");
    a.iload(0);
    a.ldc(1);
    a.isub();
    a.invokestatic("Main.fib");
    a.iload(0);
    a.ldc(2);
    a.isub();
    a.invokestatic("Main.fib");
    a.iadd();
    a.ireturn();
    a.end_method();
    a.begin_static("Main", "main", 0, 0);
    a.ldc(15);
    a.invokestatic("Main.fib");
    a.print_int();
    a.ret();
    a.end_method();
    a.link()
}

#[test]
fn trace_replay_matches_direct_measurement_with_quickening() {
    let image = fib_image();
    let prof = profile(&image).unwrap();
    let (trace, out) = record(&image).unwrap();
    assert_eq!(out.text, "610\n");
    let cpu = CpuSpec::pentium4_northwood();
    for tech in Technique::jvm_suite() {
        let (direct, _) = measure(&image, tech, &cpu, Some(&prof)).unwrap();
        let replayed = measure_trace(&image, &trace, tech, &cpu, Some(&prof));
        assert_eq!(direct.counters, replayed.counters, "{tech}");
    }
}

#[test]
fn outputs_identical_across_jvm_suite() {
    let image = fib_image();
    let prof = profile(&image).unwrap();
    let mut texts = Vec::new();
    for tech in Technique::jvm_suite() {
        let (_, out) = measure(&image, tech, &CpuSpec::pentium4_northwood(), Some(&prof))
            .unwrap_or_else(|e| panic!("{tech}: {e}"));
        texts.push(out.text);
    }
    assert!(texts.iter().all(|t| t == "610\n"), "{texts:?}");
}

#[test]
fn quickening_works_under_measurement() {
    let mut a = Asm::new();
    a.class("Box", None, &["v"]);
    a.class("Main", None, &[]);
    a.begin_static("Main", "main", 0, 2);
    a.new_object("Box");
    a.istore(0);
    a.ldc(0);
    a.istore(1);
    a.label("head");
    a.iload(0);
    a.ldc(1);
    a.putfield("v");
    a.iload(0);
    a.getfield("v");
    a.pop();
    a.iinc(1, 1);
    a.iload(1);
    a.ldc(50);
    a.if_icmplt("head");
    a.ret();
    a.end_method();
    let image = a.link();
    let prof = profile(&image).unwrap();
    for tech in Technique::jvm_suite() {
        let (r, out) = measure(&image, tech, &CpuSpec::pentium4_northwood(), Some(&prof))
            .unwrap_or_else(|e| panic!("{tech}: {e}"));
        assert_eq!(out.quickenings, 3, "{tech}");
        assert!(r.counters.instructions > 0);
    }
}
