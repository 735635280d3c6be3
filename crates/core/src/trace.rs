//! Execution traces: record an interpreter run once, replay it against any
//! number of translations.
//!
//! Parameter sweeps (Figures 14–16, BTB grids) measure the *same* execution
//! under many layouts; re-interpreting the program for each configuration
//! repeats the semantic work. An [`ExecutionTrace`] captures the
//! control-transfer and quickening stream of one run and replays it into
//! any [`VmEvents`] sink — the replay is exact because translation never
//! changes control flow (the invariant the property tests enforce).

use crate::events::VmEvents;
use crate::spec::OpId;

/// Narrows a recorded event field to the trace's 32-bit storage width.
///
/// Traces store instance indices as `u32` to halve memory traffic during
/// replay. Indices at or past 2^32 cannot be represented, and silently
/// wrapping them (the old `as u32` behaviour) would corrupt the replayed
/// control flow, so the policy is *error, not saturate*: the conversion
/// panics — `debug_assert!` first for a precise message in debug builds,
/// then a checked conversion that also fires in release builds. The same
/// policy guards every width-narrowing write in the binary
/// [`crate::DispatchTrace`] encoder.
pub(crate) fn checked_u32(value: usize, what: &str) -> u32 {
    debug_assert!(
        u32::try_from(value).is_ok(),
        "{what} {value} exceeds the trace's 32-bit event width"
    );
    u32::try_from(value).unwrap_or_else(|_| {
        panic!("{what} {value} exceeds the trace's 32-bit event width (max {})", u32::MAX)
    })
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Event {
    Begin { entry: u32 },
    Transfer { from: u32, to: u32, taken: bool },
    Quicken { instance: u32, quick_op: OpId },
}

/// A recorded control-flow stream of one interpreter run.
///
/// # Examples
///
/// Record a run through a [`crate::ProfileCollector`]-style sink and replay
/// it into a measurement:
///
/// ```
/// use ivm_core::{ExecutionTrace, NullEvents, VmEvents};
///
/// let mut trace = ExecutionTrace::new();
/// trace.begin(0);
/// trace.transfer(0, 1, false);
/// trace.transfer(1, 0, true);
///
/// let mut sink = NullEvents;
/// trace.replay(&mut sink);
/// assert_eq!(trace.len(), 3);
/// ```
#[derive(Debug, Clone, Default)]
pub struct ExecutionTrace {
    events: Vec<Event>,
}

impl ExecutionTrace {
    /// An empty trace; feed it as the [`VmEvents`] sink of a run to fill it.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Replays the recorded stream into `sink` in order.
    pub fn replay(&self, sink: &mut dyn VmEvents) {
        for &e in &self.events {
            match e {
                Event::Begin { entry } => sink.begin(entry as usize),
                Event::Transfer { from, to, taken } => {
                    sink.transfer(from as usize, to as usize, taken)
                }
                Event::Quicken { instance, quick_op } => sink.quicken(instance as usize, quick_op),
            }
        }
    }
}

impl VmEvents for ExecutionTrace {
    fn begin(&mut self, entry: usize) {
        self.events.push(Event::Begin { entry: checked_u32(entry, "begin entry") });
    }

    fn transfer(&mut self, from: usize, to: usize, taken: bool) {
        self.events.push(Event::Transfer {
            from: checked_u32(from, "transfer source"),
            to: checked_u32(to, "transfer target"),
            taken,
        });
    }

    fn quicken(&mut self, instance: usize, quick_op: OpId) {
        self.events
            .push(Event::Quicken { instance: checked_u32(instance, "quicken instance"), quick_op });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Default)]
    struct Log(Vec<String>);

    impl VmEvents for Log {
        fn begin(&mut self, entry: usize) {
            self.0.push(format!("b{entry}"));
        }
        fn transfer(&mut self, from: usize, to: usize, taken: bool) {
            self.0.push(format!("t{from}-{to}-{}", u8::from(taken)));
        }
        fn quicken(&mut self, instance: usize, quick_op: OpId) {
            self.0.push(format!("q{instance}-{quick_op}"));
        }
    }

    #[test]
    fn replay_preserves_order_and_content() {
        let mut trace = ExecutionTrace::new();
        trace.begin(3);
        trace.transfer(3, 4, false);
        trace.quicken(4, 9);
        trace.transfer(4, 0, true);

        let mut log = Log::default();
        trace.replay(&mut log);
        assert_eq!(log.0, vec!["b3", "t3-4-0", "q4-9", "t4-0-1"]);
        assert_eq!(trace.len(), 4);
        assert!(!trace.is_empty());
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    #[should_panic(expected = "exceeds the trace's 32-bit event width")]
    fn oversized_instance_index_is_rejected_not_wrapped() {
        let mut trace = ExecutionTrace::new();
        trace.begin(u32::MAX as usize + 1);
    }

    #[test]
    fn replaying_twice_is_idempotent() {
        let mut trace = ExecutionTrace::new();
        trace.begin(0);
        trace.transfer(0, 1, false);
        let mut a = Log::default();
        let mut b = Log::default();
        trace.replay(&mut a);
        trace.replay(&mut b);
        assert_eq!(a.0, b.0);
    }
}
