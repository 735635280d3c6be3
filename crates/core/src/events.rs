//! The event interface between interpreting VMs and the measurement layer.

use crate::spec::OpId;

/// Sink for the control-flow events of an interpreter run.
///
/// VM crates execute program semantics and report every control transfer
/// and quickening through this trait; the core crate supplies sinks that
/// measure ([`crate::Measurement`]), profile
/// ([`crate::ProfileCollector`]) or ignore ([`NullEvents`]) those events.
pub trait VmEvents {
    /// Execution (re)starts at instance `entry` via a dispatch.
    fn begin(&mut self, entry: usize);

    /// Control moved from instance `from` to `to`; `taken` is true for
    /// taken VM branches, jumps, calls and returns, false for sequential
    /// fall-through.
    fn transfer(&mut self, from: usize, to: usize, taken: bool);

    /// Instance `instance` rewrote itself into `quick_op` (paper §5.4).
    /// Called during the instance's first (slow) execution; sinks must
    /// apply the rewrite only after the instance's current execution is
    /// fully accounted.
    fn quicken(&mut self, instance: usize, quick_op: OpId);
}

/// A sink that discards all events — for plain semantic runs (e.g. checking
/// program outputs in tests).
#[derive(Debug, Clone, Copy, Default)]
pub struct NullEvents;

impl VmEvents for NullEvents {
    fn begin(&mut self, _entry: usize) {}
    fn transfer(&mut self, _from: usize, _to: usize, _taken: bool) {}
    fn quicken(&mut self, _instance: usize, _quick_op: OpId) {}
}
