//! The benchmark's own span tracing: in-memory spans around every layer
//! call the benchmark makes, written out when the run ends.
//!
//! A span records its name, start, end, parent span and the executor
//! cell it ran in. The parent is the innermost open span on the same
//! thread; spans opened on executor workers name their parent and cell
//! explicitly. Recording is off unless the run traces, so the untraced
//! run pays one relaxed load per call site.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use ivm_obs::Json;

/// One finished (or still open, `end_ns == 0`) span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer call name, e.g. `tracestore.acquire`.
    pub name: String,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Executor cell id the span ran in, if any.
    pub cell: Option<String>,
}

impl Span {
    /// Wall duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

thread_local! {
    /// Open spans on this thread, innermost last.
    static OPEN: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
}

/// Collects spans from every thread of the run.
pub struct Tracer {
    on: AtomicBool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer that records nothing until [`Tracer::set_on`].
    pub fn new() -> Self {
        Self { on: AtomicBool::new(false), epoch: Instant::now(), spans: Mutex::new(Vec::new()) }
    }

    /// Turns recording on or off.
    pub fn set_on(&self, on: bool) {
        self.on.store(on, Ordering::Relaxed);
    }

    /// True while recording.
    pub fn is_on(&self) -> bool {
        self.on.load(Ordering::Relaxed)
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span under the innermost open span of this thread.
    pub fn span(&self, name: &str) -> Guard<'_> {
        let parent = OPEN.with(|o| o.borrow().last().copied());
        self.open(name, parent, None)
    }

    /// Opens the root span of executor cell `cell` on a worker thread,
    /// under `parent` (the span that issued the batch, from
    /// [`Tracer::current`] on the issuing thread).
    pub fn cell(&self, name: &str, parent: Option<usize>, cell: &str) -> Guard<'_> {
        self.open(name, parent, Some(cell.to_owned()))
    }

    /// The innermost open span of this thread.
    pub fn current(&self) -> Option<usize> {
        OPEN.with(|o| o.borrow().last().copied())
    }

    fn open(&self, name: &str, parent: Option<usize>, cell: Option<String>) -> Guard<'_> {
        if !self.is_on() {
            return Guard { tracer: self, id: None };
        }
        let mut spans = self.spans.lock().expect("span list lock");
        let cell = cell.or_else(|| parent.and_then(|p| spans[p].cell.clone()));
        let id = spans.len();
        spans.push(Span {
            name: name.to_owned(),
            start_ns: self.now_ns(),
            end_ns: 0,
            parent,
            cell,
        });
        drop(spans);
        OPEN.with(|o| o.borrow_mut().push(id));
        Guard { tracer: self, id: Some(id) }
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span list lock").clone()
    }

    /// Writes every span as a JSON array to `path`.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let rows: Vec<Json> = self
            .spans()
            .iter()
            .map(|s| {
                Json::obj()
                    .with("name", s.name.as_str())
                    .with("start_ns", s.start_ns)
                    .with("end_ns", s.end_ns)
                    .with("parent", s.parent.map_or(Json::Null, |p| Json::from(p as u64)))
                    .with("cell", s.cell.as_deref().map_or(Json::Null, Json::from))
            })
            .collect();
        std::fs::write(path, Json::Arr(rows).to_json())
    }
}

/// Closes its span when dropped.
pub struct Guard<'a> {
    tracer: &'a Tracer,
    id: Option<usize>,
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        let Some(id) = self.id else { return };
        let end = self.tracer.now_ns();
        if let Ok(mut spans) = self.tracer.spans.lock() {
            spans[id].end_ns = end.max(spans[id].start_ns);
        }
        OPEN.with(|o| {
            let mut open = o.borrow_mut();
            if let Some(pos) = open.iter().rposition(|&s| s == id) {
                open.remove(pos);
            }
        });
    }
}

/// Each span's self time: its duration minus the part of its interval
/// that its children cover. Children on other threads may overlap each
/// other, so their intervals are merged before subtracting.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.dur_ns().saturating_sub(covered)
        })
        .collect()
}

/// Per-name totals of count, wall and self time, in nanoseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Totals {
    /// Spans of this name.
    pub count: u64,
    /// Summed duration.
    pub total_ns: u64,
    /// Summed self time.
    pub self_ns: u64,
}

/// Folds spans into per-name totals, sorted by name.
pub fn by_name(spans: &[Span]) -> BTreeMap<String, Totals> {
    let mut out: BTreeMap<String, Totals> = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        let t = out.entry(s.name.clone()).or_default();
        t.count += 1;
        t.total_ns += s.dur_ns();
        t.self_ns += own;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span { name: name.into(), start_ns, end_ns, parent, cell: None }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let spans = vec![
            span("batch", 0, 100, None),
            span("cell", 10, 60, Some(0)),
            span("cell", 40, 90, Some(0)),
            span("inner", 20, 30, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![20, 40, 50, 10]);
        let totals = by_name(&spans);
        assert_eq!(totals["cell"], Totals { count: 2, total_ns: 100, self_ns: 90 });
    }

    #[test]
    fn disabled_tracer_records_nothing_and_enabled_nests() {
        let tr = Tracer::new();
        {
            let _g = tr.span("off");
        }
        assert!(tr.spans().is_empty());
        tr.set_on(true);
        {
            let _outer = tr.span("outer");
            let parent = tr.current();
            std::thread::scope(|s| {
                s.spawn(|| {
                    let _c = tr.cell("cell", parent, "grid/a");
                    let _leaf = tr.span("leaf");
                });
            });
        }
        let spans = tr.spans();
        let names: Vec<&str> = spans.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["outer", "cell", "leaf"]);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!(spans[2].cell.as_deref(), Some("grid/a"), "cell id is inherited");
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
    }
}
