//! Front-end robustness: arbitrary token soup must never panic the Forth
//! compiler, the calculator assembler or the VMs behind them — either it
//! compiles and runs within fuel, or it reports a structured error.

use ivm_harness::prop::{self, Source};
use ivm_harness::{prop_assert, prop_assert_eq};

use ivm::calc;
use ivm::core::NullEvents;
use ivm::forth;

/// Words the compiler knows, including structure words.
const KNOWN_WORDS: [&str; 38] = [
    ":", ";", "if", "else", "then", "begin", "until", "while", "repeat", "do", "loop", "+loop",
    "?leave", "case", "of", "endof", "endcase", "recurse", "exit", "dup", "drop", "swap", "+", "-",
    "*", "/", "@", "!", ".", "i", "j", "variable", "constant", "create", "allot", "cells", "main",
    "x",
];

fn token(src: &mut Source) -> String {
    match src.weighted(&[3, 1, 1]) {
        0 => src.pick(&KNOWN_WORDS).to_owned(),
        // Numbers.
        1 => src.int_in(-1000i64..1000).to_string(),
        // Garbage identifiers.
        _ => src.lowercase(1..7),
    }
}

fn tokens(src: &mut Source, max: usize) -> Vec<String> {
    src.vec_of(0..max, token)
}

/// The compiler returns Ok or Err, never panics, on random token soup.
#[test]
fn compiler_never_panics() {
    prop::check("compiler_never_panics", prop::Config::from_env().cases(64), |src| {
        let source = tokens(src, 60).join(" ");
        let _ = forth::compile(&source);
        Ok(())
    });
}

/// Whatever compiles must run to a clean stop or a structured VM error
/// within fuel — never a panic or an infinite loop.
#[test]
fn compiled_soup_runs_or_errors() {
    prop::check("compiled_soup_runs_or_errors", prop::Config::from_env().cases(64), |src| {
        let body = tokens(src, 60)
            .iter()
            .filter(|t| {
                // Keep the body free of definition words so it stays one word.
                !matches!(t.as_str(), ":" | ";" | "variable" | "constant" | "create" | "main")
            })
            .cloned()
            .collect::<Vec<_>>()
            .join(" ");
        let source = format!(": main {body} ;");
        if let Ok(image) = forth::compile(&source) {
            let _ = forth::run(&image, &mut NullEvents, 200_000);
        }
        Ok(())
    });
}

/// Compiling is deterministic: same source, same image shape.
#[test]
fn compilation_is_deterministic() {
    prop::check("compilation_is_deterministic", prop::Config::from_env().cases(64), |src| {
        let source = tokens(src, 40).join(" ");
        match (forth::compile(&source), forth::compile(&source)) {
            (Ok(a), Ok(b)) => {
                prop_assert_eq!(a.program.len(), b.program.len());
                prop_assert_eq!(&a.operands, &b.operands);
            }
            (Err(a), Err(b)) => prop_assert_eq!(&a.message, &b.message),
            (a, b) => prop_assert!(false, "nondeterministic outcome: {a:?} vs {b:?}"),
        }
        Ok(())
    });
}

/// An integer literal: usually small, sometimes anywhere in `i64` or at a
/// boundary that stresses allocation and loop arithmetic.
fn number(src: &mut Source) -> String {
    match src.weighted(&[2, 1, 1]) {
        0 => src.int_in(-1000i64..1000),
        1 => src.int_in(i64::MIN..i64::MAX),
        _ => src.pick(&[i64::MAX, i64::MIN, 1 << 20, 1_000_000_000_000]),
    }
    .to_string()
}

/// Arbitrary source: top-level allocations and compile-time arithmetic
/// over numbers of any size, then a `main` that is mostly straight-line
/// code and counted loops.
fn arbitrary_source(src: &mut Source) -> String {
    const STRAIGHT: [&str; 13] =
        ["dup", "drop", "swap", "+", "-", "*", "/", "@", "!", ".", "i", "j", "do i . loop"];
    let top = src
        .vec_of(0..8, |s| match s.weighted(&[2, 3, 2, 1, 1, 1]) {
            0 => number(s),
            1 => format!("{} allot", number(s)),
            2 => format!("{} {}", s.pick(&["variable", "create"]), s.lowercase(1..3)),
            3 => format!("{} constant {}", number(s), s.lowercase(1..3)),
            4 => s.pick(&["cells", "*"]).to_owned(),
            _ => token(s),
        })
        .join(" ");
    let body = src
        .vec_of(0..30, |s| if s.bool() { s.pick(&STRAIGHT).to_owned() } else { number(s) })
        .join(" ");
    format!("{top} : main {body} ;")
}

/// A bundled benchmark's source with a few bytes replaced, inserted or
/// deleted.
fn mutated_bundled_source(src: &mut Source) -> String {
    const BYTES: &[u8] = b"0123456789 \n()-+*:;abcdefghijklmnopqrstuvwxyz";
    let mut bytes = src.pick(&forth::programs::SUITE).source.as_bytes().to_vec();
    for _ in 0..src.int_in(1..8) {
        let at = src.int_in(0..bytes.len() + 1);
        match src.below(3) {
            0 if at < bytes.len() => bytes[at] = src.pick(BYTES),
            1 => bytes.insert(at, src.pick(BYTES)),
            _ if at < bytes.len() => {
                bytes.remove(at);
            }
            _ => {}
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// Arbitrary text and damaged bundled programs never panic the compiler,
/// and whatever compiles runs to a clean stop or a structured VM error
/// within fuel.
#[test]
fn compile_and_run_are_total() {
    prop::check("forth_compile_and_run_are_total", prop::Config::from_env().cases(128), |src| {
        let source = if src.bool() { mutated_bundled_source(src) } else { arbitrary_source(src) };
        if let Ok(image) = forth::compile(&source) {
            let _ = forth::run(&image, &mut NullEvents, 200_000);
        }
        Ok(())
    });
}

/// Allocations past the data-space bound are compile errors, not an
/// arithmetic overflow or an allocation that aborts the run.
#[test]
fn oversized_data_space_is_a_compile_error() {
    let overflowing =
        ": main ; create a 9223372036854775807 allot create b 9223372036854775807 allot";
    assert!(forth::compile(overflowing).is_err());
    assert!(forth::compile(": main 1 . ; create a 1000000000000 allot").is_err());
    assert!(forth::compile(": main 1 . ; create a 4096 allot").is_ok());
}

/// Labels calculator line soup jumps to and defines.
const CALC_LABELS: [&str; 3] = ["a", "b", "c"];

/// One line of calculator assembly: an instruction with a fitting, wrong
/// or missing operand, or garbage.
fn calc_line(src: &mut Source) -> String {
    const PLAIN: [&str; 15] = [
        "add", "sub", "mul", "div", "mod", "neg", "dup", "drop", "swap", "over", "lt", "eq",
        "print", "ret", "halt",
    ];
    match src.weighted(&[8, 3, 2, 3, 1]) {
        0 => src.pick(&PLAIN).to_owned(),
        1 => format!("push {}", number(src)),
        2 => format!("{} {}", src.pick(&["load", "store"]), src.int_in(-1i64..34)),
        3 => format!("{} {}", src.pick(&["jmp", "jz", "jnz", "call"]), src.pick(&CALC_LABELS)),
        _ => src.pick(&["push", "jmp", "bogus", "a: halt", "# note", "a:"]).to_owned(),
    }
}

/// Line soup never panics the assembler, and whatever assembles runs to
/// a clean stop or a structured VM error within fuel.
#[test]
fn calc_assemble_and_run_are_total() {
    prop::check("calc_assemble_and_run_are_total", prop::Config::from_env(), |src| {
        let mut lines = src.vec_of(0..24, calc_line);
        for label in CALC_LABELS {
            if src.weighted(&[1, 3]) == 1 {
                lines.insert(src.int_in(0..lines.len() + 1), format!("{label}:"));
            }
        }
        if src.bool() {
            lines.push("halt".to_owned());
        }
        let source = lines.join("\n");
        if let Ok(image) = calc::assemble(&source) {
            let _ = calc::run(&image, &mut NullEvents, 100_000);
        }
        Ok(())
    });
}
