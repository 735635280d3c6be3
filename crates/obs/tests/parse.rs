//! Totality of `ivm_obs::parse`: any text, including hostile nesting and
//! damaged reports, comes back as `Ok` or `Err` and never panics or
//! overflows the stack.

use ivm_harness::prop::{self, Source};
use ivm_harness::prop_assert;
use ivm_obs::{parse, Json};

/// Characters that steer the parser into every branch, plus arbitrary
/// Unicode scalars.
fn arbitrary_text(src: &mut Source, len: std::ops::Range<usize>) -> String {
    const JSONISH: &[char] = &[
        '[', ']', '{', '}', '"', ',', ':', '\\', ' ', '\n', '-', '+', '.', '0', '1', '9', 'e', 'E',
        'n', 'u', 'l', 't', 'r', 'f', 'a', 's', '/', 'b',
    ];
    src.vec_of(len, |s| match s.weighted(&[4, 1]) {
        0 => s.pick(JSONISH),
        _ => char::from_u32(s.int_in(0..0x11_0000u32)).unwrap_or('\u{fffd}'),
    })
    .into_iter()
    .collect()
}

/// A report-like value at most `depth` containers deep.
fn arbitrary_json(src: &mut Source, depth: usize) -> Json {
    let container = if depth == 0 { 0 } else { 2 };
    match src.weighted(&[1, 1, 2, 2, 2, container, container]) {
        0 => Json::Null,
        1 => Json::Bool(src.bool()),
        2 => Json::Int(src.int_in(i64::MIN..i64::MAX)),
        3 => Json::Num(f64::from_bits(src.int_in(0..u64::MAX))),
        4 => Json::Str(arbitrary_text(src, 0..12)),
        5 => Json::Arr(src.vec_of(0..4, |s| arbitrary_json(s, depth - 1))),
        _ => {
            Json::Obj(src.vec_of(0..4, |s| (arbitrary_text(s, 0..6), arbitrary_json(s, depth - 1))))
        }
    }
}

#[test]
fn arbitrary_text_never_panics() {
    prop::check("json_parse_arbitrary_text", prop::Config::from_env(), |src| {
        let text = arbitrary_text(src, 0..200);
        let _ = parse(&text);
        Ok(())
    });
}

#[test]
fn mutated_writer_output_never_panics() {
    prop::check("json_parse_mutated_output", prop::Config::from_env(), |src| {
        let doc = arbitrary_json(src, 3).to_json();
        prop_assert!(parse(&doc).is_ok(), "writer output must parse: {doc}");
        let mut bytes = doc.into_bytes();
        for _ in 0..src.int_in(1..8) {
            let at = src.int_in(0..bytes.len() + 1);
            match src.below(3) {
                0 if at < bytes.len() => bytes[at] = src.full::<u8>(),
                1 => bytes.insert(at, src.full::<u8>()),
                _ if at < bytes.len() => {
                    bytes.remove(at);
                }
                _ => {}
            }
        }
        let _ = parse(&String::from_utf8_lossy(&bytes));
        Ok(())
    });
}

#[test]
fn nesting_past_the_bound_is_an_error_not_a_stack_overflow() {
    let nest = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
    assert!(parse(&nest(128)).is_ok(), "128 levels are allowed");
    assert!(parse(&nest(129)).is_err(), "129 levels are rejected");
    assert!(parse(&"[".repeat(100_000)).is_err());
    assert!(parse(&nest(100_000)).is_err());
    assert!(parse(&"{\"k\":".repeat(100_000)).is_err());
}
