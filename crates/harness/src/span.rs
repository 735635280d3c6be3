//! Low-overhead wall-time span tracing: scoped guards over monotonic
//! clocks, collected through thread-local stacks.
//!
//! This is the primitive layer of the workspace's pipeline profiler: a
//! [`SpanGuard`] times one phase of work (image build, translate,
//! execute, predictor sweep, ...) from construction to drop, nesting
//! naturally with scopes. Finished spans land in a thread-local buffer —
//! entering and leaving a span takes two `Instant::now()` calls and a
//! `Vec` push, no locks — and are moved to a process-wide sink by
//! [`flush`] (which [`snapshot`] calls for its own thread) or, as a last
//! resort, when the thread exits. The aggregation layer lives in
//! `ivm-obs::span`; this module sits in `ivm-harness` because both
//! `ivm-core`'s measurement pipeline and the [`crate::par`] executor
//! below `ivm-obs` need to open spans.
//!
//! Timing is wall-clock and therefore *not* deterministic; nothing in
//! this module may influence simulated results. Spans carry no payload
//! besides a `&'static str` phase name, so recording never allocates
//! per-span strings. Tracing is always on: a guard pair costs tens of
//! nanoseconds against experiment cells that run for hundreds of
//! microseconds.

use std::cell::RefCell;
use std::marker::PhantomData;
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One finished span: a named phase with its wall-time placement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Phase name (a static literal at every instrumentation site).
    pub name: &'static str,
    /// Name of the outermost enclosing span when this one opened (equal
    /// to `name` for root spans). Lets aggregators attribute time to
    /// "inside an executor cell" versus main-thread work.
    pub root: &'static str,
    /// Nesting depth below the thread's root span (0 = root).
    pub depth: u16,
    /// Start offset from the process trace epoch, in microseconds.
    pub start_us: u64,
    /// Wall duration, in microseconds.
    pub dur_us: u64,
    /// Duration minus the summed durations of direct children — the
    /// time spent in this phase itself.
    pub self_us: u64,
}

/// The process-wide sink finished spans are flushed into.
fn sink() -> &'static Mutex<Vec<SpanRecord>> {
    static SINK: OnceLock<Mutex<Vec<SpanRecord>>> = OnceLock::new();
    SINK.get_or_init(|| Mutex::new(Vec::new()))
}

/// The process trace epoch: all span start offsets are relative to the
/// first call (the first span ever entered).
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// An open span on one thread's stack.
struct Frame {
    name: &'static str,
    root: &'static str,
    start: Instant,
    /// Summed durations of direct children closed so far.
    child_us: u64,
}

/// Per-thread span state: the open-span stack and the finished-span
/// buffer, flushed to the process sink when the thread exits.
struct ThreadState {
    stack: Vec<Frame>,
    done: Vec<SpanRecord>,
}

impl ThreadState {
    const fn new() -> Self {
        Self { stack: Vec::new(), done: Vec::new() }
    }

    fn flush(&mut self) {
        if !self.done.is_empty() {
            if let Ok(mut sink) = sink().lock() {
                sink.append(&mut self.done);
            }
        }
    }
}

impl Drop for ThreadState {
    fn drop(&mut self) {
        self.flush();
    }
}

thread_local! {
    static STATE: RefCell<ThreadState> = const { RefCell::new(ThreadState::new()) };
}

/// Opens a span named `name`, closed (and recorded) when the returned
/// guard drops.
pub fn enter(name: &'static str) -> SpanGuard {
    // Pin the epoch before reading the clock so no span can start
    // before it.
    let _ = epoch();
    let start = Instant::now();
    STATE.with(|s| {
        let mut st = s.borrow_mut();
        let root = st.stack.first().map_or(name, |f| f.root);
        st.stack.push(Frame { name, root, start, child_us: 0 });
    });
    SpanGuard { _not_send: PhantomData }
}

/// Closes its span on drop. `!Send` by construction: a span must close
/// on the thread that opened it, or the thread-local stacks would tear.
#[must_use = "a span guard times the scope it lives in; dropping it immediately records an empty span"]
pub struct SpanGuard {
    _not_send: PhantomData<*const ()>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let end = Instant::now();
        STATE.with(|s| {
            let mut st = s.borrow_mut();
            let Some(frame) = st.stack.pop() else { return };
            let dur_us = end.duration_since(frame.start).as_micros() as u64;
            let start_us = frame.start.duration_since(epoch()).as_micros() as u64;
            let depth = st.stack.len() as u16;
            if let Some(parent) = st.stack.last_mut() {
                parent.child_us += dur_us;
            }
            let record = SpanRecord {
                name: frame.name,
                root: frame.root,
                depth,
                start_us,
                dur_us,
                self_us: dur_us.saturating_sub(frame.child_us),
            };
            st.done.push(record);
        });
    }
}

/// Moves the current thread's finished spans into the process sink.
///
/// A worker thread must call this before it returns: the thread-exit
/// flush runs in a thread-local destructor, and `std::thread::scope` does
/// not wait for those, so spans left to it can miss a [`snapshot`] taken
/// right after the scope ends.
pub fn flush() {
    STATE.with(|s| s.borrow_mut().flush());
}

/// Flushes the current thread's finished spans into the process sink
/// and returns a copy of everything collected so far, ordered by
/// `(start_us, depth)` so consumers see a stable layout.
/// Worker-thread spans are present once their threads called [`flush`],
/// which the parallel executor's workers do before they exit.
/// Records are copied, not drained: later callers see them too.
#[must_use]
pub fn snapshot() -> Vec<SpanRecord> {
    flush();
    let mut records = sink().lock().map(|g| g.clone()).unwrap_or_default();
    records.sort_by_key(|r| (r.start_us, r.depth));
    records
}

#[cfg(test)]
mod tests {
    use super::*;

    // Names are per-test literals: the sink is process-global and tests
    // share it, so each test filters the snapshot by its own names.

    #[test]
    fn nested_spans_partition_self_time() {
        {
            let _outer = enter("test-span-outer");
            std::thread::sleep(std::time::Duration::from_millis(4));
            {
                let _inner = enter("test-span-inner");
                std::thread::sleep(std::time::Duration::from_millis(4));
            }
        }
        let spans = snapshot();
        let outer = spans.iter().find(|s| s.name == "test-span-outer").expect("outer recorded");
        let inner = spans.iter().find(|s| s.name == "test-span-inner").expect("inner recorded");
        assert_eq!(outer.depth, 0);
        assert_eq!(inner.depth, 1);
        assert_eq!(outer.root, "test-span-outer");
        assert_eq!(inner.root, "test-span-outer", "inner span carries the root name");
        assert!(inner.dur_us >= 3_000, "inner slept ~4ms: {}", inner.dur_us);
        assert!(outer.dur_us >= inner.dur_us, "outer contains inner");
        assert!(
            outer.self_us <= outer.dur_us - inner.dur_us,
            "outer self time excludes the inner span ({} vs {} - {})",
            outer.self_us,
            outer.dur_us,
            inner.dur_us
        );
        assert!(inner.start_us >= outer.start_us, "child starts after parent");
    }

    #[test]
    fn worker_threads_flush_before_exit() {
        std::thread::scope(|scope| {
            for _ in 0..3 {
                scope.spawn(|| {
                    {
                        let _g = enter("test-span-worker");
                    }
                    flush();
                });
            }
        });
        let spans = snapshot();
        let workers = spans.iter().filter(|s| s.name == "test-span-worker").count();
        assert_eq!(workers, 3, "every worker's span is in the sink");
    }

    #[test]
    fn snapshot_is_stably_ordered_and_non_draining() {
        {
            let _g = enter("test-span-keep");
        }
        let first = snapshot();
        let second = snapshot();
        assert!(first.iter().any(|s| s.name == "test-span-keep"));
        assert!(
            second.iter().filter(|s| s.name == "test-span-keep").count()
                >= first.iter().filter(|s| s.name == "test-span-keep").count(),
            "snapshot copies, it does not drain"
        );
        for w in second.windows(2) {
            assert!(
                (w[0].start_us, w[0].depth) <= (w[1].start_us, w[1].depth),
                "snapshot order is (start, depth)"
            );
        }
    }
}
