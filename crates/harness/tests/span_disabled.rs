//! The span kill switch. `set_enabled` flips a process-global flag, so
//! this test runs in its own binary: inside the library's unit-test
//! binary it would silence spans that sibling tests open concurrently.

use ivm_harness::span;

#[test]
fn disabled_guards_record_nothing() {
    span::set_enabled(false);
    {
        let _g = span::enter("test-span-disabled");
    }
    span::set_enabled(true);
    let spans = span::snapshot();
    assert!(
        spans.iter().all(|s| s.name != "test-span-disabled"),
        "disabled span must not be recorded"
    );
}
