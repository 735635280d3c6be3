//! The event interface between interpreting VMs and the measurement layer.

use crate::engine::{RunResult, Runner};
use crate::spec::OpId;
use crate::translate::Translation;

/// Sink for the control-flow events of an interpreter run.
///
/// VM crates execute program semantics and report every control transfer
/// and quickening through this trait; the core crate supplies sinks that
/// measure ([`Measurement`]), profile ([`crate::ProfileCollector`]) or
/// ignore ([`NullEvents`]) those events.
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

/// The standard measurement sink: a [`Translation`] plus a [`Runner`].
///
/// Quickenings are deferred until the transfer *out of* the quickened
/// instance has been accounted, so the first execution runs the slow code —
/// matching the paper's quickening semantics.
#[derive(Debug)]
pub struct Measurement {
    translation: Translation,
    runner: Runner,
    pending: Vec<(usize, OpId)>,
}

impl Measurement {
    /// Couples a translation with a runner.
    pub fn new(translation: Translation, runner: Runner) -> Self {
        Self { translation, runner, pending: Vec::new() }
    }

    /// The translation being executed (reflecting quickenings so far).
    pub fn translation(&self) -> &Translation {
        &self.translation
    }

    /// The runner (for inspecting counters mid-run).
    pub fn runner(&self) -> &Runner {
        &self.runner
    }

    /// Ends the run and produces the result.
    pub fn finish(self) -> RunResult {
        self.runner.finish(&self.translation)
    }

    fn apply_pending(&mut self, just_left: usize) {
        if self.pending.is_empty() {
            return;
        }
        let mut i = 0;
        while i < self.pending.len() {
            if self.pending[i].0 == just_left {
                let (instance, op) = self.pending.swap_remove(i);
                self.translation.quicken(instance, op);
            } else {
                i += 1;
            }
        }
    }
}

impl VmEvents for Measurement {
    fn begin(&mut self, entry: usize) {
        self.runner.begin(&self.translation, entry);
    }

    fn transfer(&mut self, from: usize, to: usize, taken: bool) {
        self.runner.transfer(&self.translation, from, to, taken);
        self.apply_pending(from);
    }

    fn quicken(&mut self, instance: usize, quick_op: OpId) {
        self.pending.push((instance, quick_op));
    }
}
