//! The instrumented dispatch engine: predictors, caches and counters glued
//! to an executing interpreter.

use ivm_bpred::{Addr, AnyPredictor, IndirectPredictor};
use ivm_cache::{CpuSpec, CycleCosts, FetchCache, PerfCounters};

use crate::slots::{AltCode, DispatchPoint};
use crate::technique::Technique;
use crate::translate::Translation;

/// Default capacity of the engine's dispatch event batch, in events.
///
/// Large enough to amortise the per-flush `RefCell` borrow and virtual
/// call over ~1k dispatches, small enough (~33 KiB of parallel arrays)
/// to stay cache-resident next to the predictor tables.
pub const DISPATCH_BATCH_CAPACITY: usize = 1024;

/// A fixed-capacity struct-of-arrays batch of dispatch events.
///
/// The [`Engine`] accumulates every observed dispatch —
/// `(from, to, branch, target, mispredicted)` — into these parallel
/// arrays and hands the whole batch to the observer in one
/// [`DispatchObserver::dispatch_batch`] call, instead of paying a
/// `RefCell` borrow plus a virtual call per dispatch. Batch-native
/// observers consume the column slices directly; everyone else gets the
/// default per-event replay, which preserves exact `dispatch` order.
#[derive(Debug, Clone, Default)]
pub struct DispatchBatch {
    from: Vec<usize>,
    to: Vec<usize>,
    branches: Vec<Addr>,
    targets: Vec<Addr>,
    mispredicted: Vec<bool>,
    capacity: usize,
}

impl DispatchBatch {
    /// An empty batch that flushes after `capacity` events.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "batch capacity must be at least 1");
        Self {
            from: Vec::with_capacity(capacity),
            to: Vec::with_capacity(capacity),
            branches: Vec::with_capacity(capacity),
            targets: Vec::with_capacity(capacity),
            mispredicted: Vec::with_capacity(capacity),
            capacity,
        }
    }

    /// Appends one dispatch event.
    #[inline]
    pub fn push(&mut self, from: usize, to: usize, branch: Addr, target: Addr, miss: bool) {
        self.from.push(from);
        self.to.push(to);
        self.branches.push(branch);
        self.targets.push(target);
        self.mispredicted.push(miss);
    }

    /// Events currently batched.
    pub fn len(&self) -> usize {
        self.branches.len()
    }

    /// Whether the batch holds no events.
    pub fn is_empty(&self) -> bool {
        self.branches.is_empty()
    }

    /// Whether the batch has reached its flush capacity.
    #[inline]
    pub fn is_full(&self) -> bool {
        self.branches.len() >= self.capacity
    }

    /// Drops all events, keeping the allocations.
    pub fn clear(&mut self) {
        self.from.clear();
        self.to.clear();
        self.branches.clear();
        self.targets.clear();
        self.mispredicted.clear();
    }

    /// Dispatching instances (the instance owning each dispatch branch).
    pub fn from_instances(&self) -> &[usize] {
        &self.from
    }

    /// Entered instances.
    pub fn to_instances(&self) -> &[usize] {
        &self.to
    }

    /// Dispatch branch addresses.
    pub fn branches(&self) -> &[Addr] {
        &self.branches
    }

    /// Dispatch target addresses.
    pub fn targets(&self) -> &[Addr] {
        &self.targets
    }

    /// Per-event predictor verdicts (`true` = mispredicted).
    pub fn mispredicted(&self) -> &[bool] {
        &self.mispredicted
    }

    /// The batched events in execution order, row at a time.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, Addr, Addr, bool)> + '_ {
        (0..self.len()).map(|i| {
            (self.from[i], self.to[i], self.branches[i], self.targets[i], self.mispredicted[i])
        })
    }
}

/// Observes every simulated indirect dispatch with full context.
///
/// `from` is the instance whose code owns the dispatch branch (for
/// pre-dispatch stubs such as switch dispatch it equals `to`, the instance
/// being entered), `branch`/`target` are the simulated native addresses fed
/// to the predictor, and `mispredicted` is the predictor's verdict. An
/// observer sees exactly the dispatches counted in
/// [`ivm_cache::PerfCounters::dispatches`], in execution order —
/// attribution sinks (see the `ivm-obs` crate) build per-opcode and
/// per-BTB-set breakdowns from this stream.
///
/// The engine delivers events in [`DispatchBatch`]es (one virtual call
/// per up-to-[`DISPATCH_BATCH_CAPACITY`] events, flushed when full and at
/// run end); the default [`DispatchObserver::dispatch_batch`] replays a
/// batch through `dispatch` one event at a time, so an observer that only
/// implements `dispatch` sees the exact per-event stream it always did —
/// just no earlier than the enclosing flush.
pub trait DispatchObserver {
    /// Called once per executed indirect dispatch.
    fn dispatch(&mut self, from: usize, to: usize, branch: Addr, target: Addr, mispredicted: bool);

    /// Called once per flushed batch. Override to consume the
    /// struct-of-arrays columns directly; the default forwards every
    /// event to [`DispatchObserver::dispatch`] in execution order.
    fn dispatch_batch(&mut self, batch: &DispatchBatch) {
        for (from, to, branch, target, miss) in batch.iter() {
            self.dispatch(from, to, branch, target, miss);
        }
    }
}

/// A shareable [`DispatchObserver`] handle: the caller keeps one clone to
/// read results after the run, the [`Engine`] holds the other.
pub type SharedObserver = std::rc::Rc<std::cell::RefCell<dyn DispatchObserver>>;

/// Simulated microarchitectural state fed by an interpreter run.
pub struct Engine {
    predictor: AnyPredictor,
    fetch: Box<dyn FetchCache>,
    counters: PerfCounters,
    costs: CycleCosts,
    cpu_name: String,
    observer: Option<SharedObserver>,
    batch: DispatchBatch,
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("cpu", &self.cpu_name)
            .field("counters", &self.counters)
            .finish()
    }
}

impl Engine {
    /// An engine modeling `cpu` (fresh predictor and fetch cache).
    pub fn for_cpu(cpu: &CpuSpec) -> Self {
        Self {
            predictor: cpu.predictor(),
            fetch: cpu.fetch_cache(),
            counters: PerfCounters::default(),
            costs: cpu.costs,
            cpu_name: cpu.name.to_owned(),
            observer: None,
            batch: DispatchBatch::new(DISPATCH_BATCH_CAPACITY),
        }
    }

    /// An engine with explicit components (for experiments mixing
    /// predictors and caches). Accepts any concrete in-tree predictor (or
    /// an [`AnyPredictor`], or a `Box<dyn IndirectPredictor>` for
    /// external ones) — in-tree predictors run enum-dispatched in the hot
    /// loop, with no virtual call per dispatch.
    pub fn new(
        predictor: impl Into<AnyPredictor>,
        fetch: Box<dyn FetchCache>,
        costs: CycleCosts,
    ) -> Self {
        Self {
            predictor: predictor.into(),
            fetch,
            counters: PerfCounters::default(),
            costs,
            cpu_name: "custom".into(),
            observer: None,
            batch: DispatchBatch::new(DISPATCH_BATCH_CAPACITY),
        }
    }

    /// The machine name this engine models.
    pub fn cpu_name(&self) -> &str {
        &self.cpu_name
    }

    /// Counters accumulated so far.
    pub fn counters(&self) -> &PerfCounters {
        &self.counters
    }

    /// The engine's cycle cost constants.
    pub fn costs(&self) -> &CycleCosts {
        &self.costs
    }

    /// Attaches a [`DispatchObserver`]; keep a clone of the handle to read
    /// the observer's state after the run. Events are delivered in
    /// [`DispatchBatch`]es (flushed when full and by [`Runner::finish`]),
    /// so the cost is one dynamic call per batch, not per dispatch; it is
    /// off entirely by default.
    #[must_use]
    pub fn with_observer(mut self, observer: SharedObserver) -> Self {
        self.observer = Some(observer);
        self
    }

    /// Overrides the observer batch capacity (default
    /// [`DISPATCH_BATCH_CAPACITY`]). A capacity of 1 flushes every event
    /// immediately — the old per-dispatch delivery, useful for
    /// differential tests and observers that must see events live.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn with_batch_capacity(mut self, capacity: usize) -> Self {
        self.batch = DispatchBatch::new(capacity);
        self
    }

    /// Delivers any batched-but-unflushed dispatch events to the observer
    /// now. [`Runner::finish`] calls this; call it directly only when
    /// reading an observer mid-run.
    pub fn flush_observer(&mut self) {
        if self.batch.is_empty() {
            return;
        }
        if let Some(obs) = &self.observer {
            obs.borrow_mut().dispatch_batch(&self.batch);
        }
        self.batch.clear();
    }

    fn retire(&mut self, n: u32) {
        self.counters.instructions += u64::from(n);
    }

    fn fetch_code(&mut self, addr: Addr, len: u32) {
        if len > 0 {
            self.counters.icache_misses += self.fetch.fetch(addr, len);
            self.counters.icache_accesses += 1;
        }
    }

    fn indirect(&mut self, from: usize, to: usize, branch: Addr, target: Addr) {
        self.counters.indirect_branches += 1;
        let hit = self.predictor.predict_and_update(branch, target);
        if !hit {
            self.counters.indirect_mispredicted += 1;
        }
        if self.observer.is_some() {
            self.batch.push(from, to, branch, target, !hit);
            if self.batch.is_full() {
                self.flush_observer();
            }
        }
    }
}

/// The outcome of one measured interpreter run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Machine name.
    pub cpu: String,
    /// Interpreter technique measured.
    pub technique: Technique,
    /// The hardware-counter bundle.
    pub counters: PerfCounters,
    /// Simulated cycles under the machine's cost model.
    pub cycles: f64,
    /// Misses per I-cache set (empty for fetch paths without per-set
    /// counters, e.g. the perfect I-cache).
    pub icache_set_misses: Vec<u64>,
}

impl RunResult {
    /// Speedup of this run over a `baseline` run of the same workload.
    pub fn speedup_over(&self, baseline: &RunResult) -> f64 {
        baseline.cycles / self.cycles
    }
}

/// Per-slot view after resolving side-entry (alt) state.
struct View {
    entry: Addr,
    work_instrs: u32,
    fetch: (Addr, u32),
    fall: Option<DispatchPoint>,
    taken: Option<DispatchPoint>,
}

/// Drives an [`Engine`] from the control-transfer stream of an interpreter
/// run over a [`Translation`].
#[derive(Debug)]
pub struct Runner {
    engine: Engine,
    /// While `Some(u)`, execution is in non-replicated side-entry code up to
    /// and including instance `u`.
    side_until: Option<u32>,
}

impl Runner {
    /// Wraps an engine.
    pub fn new(engine: Engine) -> Self {
        Self { engine, side_until: None }
    }

    /// Read access to the engine.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    fn in_side(&self, i: usize) -> bool {
        self.side_until.is_some_and(|u| i as u32 <= u)
    }

    fn view(&self, t: &Translation, i: usize) -> View {
        let slot = t.slot(i);
        match slot.alt {
            Some(AltCode { entry, work_instrs, fetch, fall, .. }) if self.in_side(i) => {
                View { entry, work_instrs, fetch, fall: Some(fall), taken: Some(fall) }
            }
            _ => View {
                entry: slot.entry,
                work_instrs: slot.work_instrs,
                fetch: slot.fetch,
                fall: slot.fall,
                taken: slot.taken,
            },
        }
    }

    fn enter(&mut self, t: &Translation, i: usize) {
        // Pre-dispatch stubs are not used on the side-entry path.
        if !self.in_side(i) {
            if let Some(pre) = t.slot(i).pre {
                self.engine.retire(pre.instrs);
                self.engine.fetch_code(pre.fetch.0, pre.fetch.1);
                self.engine.counters.dispatches += 1;
                // A pre-dispatch stub is accounted to the instance it
                // enters, so `from == to == i`.
                self.engine.indirect(i, i, pre.branch, pre.target);
            }
        }
        let v = self.view(t, i);
        self.engine.retire(v.work_instrs);
        self.engine.fetch_code(v.fetch.0, v.fetch.1);
        if !self.in_side(i) {
            let (addr, len) = t.slot(i).extra_fetch;
            self.engine.fetch_code(addr, len);
        }
    }

    /// Starts (or restarts) execution at instance `entry`.
    pub fn begin(&mut self, t: &Translation, entry: usize) {
        self.side_until = None;
        if t.slot(entry).alt.is_some() {
            // Entering mid-superinstruction from outside: side path.
            self.side_until = t.slot(entry).alt.map(|a| a.until);
        }
        self.enter(t, entry);
    }

    /// Records the control transfer `from → to`; `taken` distinguishes a
    /// taken VM branch/jump/call/return from sequential fall-through.
    ///
    /// # Panics
    ///
    /// Panics if the translation has no dispatch for a taken transfer out of
    /// `from` — that indicates a translator bug or a VM reporting an
    /// impossible transfer.
    pub fn transfer(&mut self, t: &Translation, from: usize, to: usize, taken: bool) {
        let vf = self.view(t, from);
        let dp = if taken {
            Some(vf.taken.unwrap_or_else(|| {
                panic!("instance {from} has no taken dispatch but VM took a branch")
            }))
        } else {
            vf.fall
        };

        // Update side-entry state before resolving the target's view.
        if taken {
            self.side_until = t.slot(to).alt.map(|a| a.until);
        } else if self.side_until.is_some_and(|u| to as u32 > u) {
            self.side_until = None;
        }

        if let Some(dp) = dp {
            let target = self.view(t, to).entry;
            self.engine.retire(dp.instrs);
            self.engine.fetch_code(dp.fetch.0, dp.fetch.1);
            self.engine.counters.dispatches += 1;
            self.engine.indirect(from, to, dp.branch, target);
        }
        self.enter(t, to);
    }

    /// Finalises the run, attributing the translation's generated code size
    /// and flushing any batched dispatch events to the observer.
    pub fn finish(mut self, t: &Translation) -> RunResult {
        self.engine.flush_observer();
        self.engine.counters.code_bytes = t.code_bytes();
        let cycles = self.engine.counters.cycles(&self.engine.costs);
        RunResult {
            cpu: self.engine.cpu_name,
            technique: t.technique(),
            counters: self.engine.counters,
            cycles,
            icache_set_misses: self.engine.fetch.set_misses(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ivm_bpred::IdealBtb;
    use ivm_cache::PerfectIcache;

    fn engine() -> Engine {
        Engine::new(
            IdealBtb::new(),
            Box::new(PerfectIcache::default()),
            CycleCosts { cpi: 1.0, mispredict_penalty: 10.0, icache_miss_penalty: 27.0 },
        )
    }

    #[test]
    fn observer_sees_every_dispatch_with_verdict() {
        use std::cell::RefCell;
        use std::rc::Rc;

        #[derive(Default)]
        struct Log(Vec<(usize, usize, Addr, Addr, bool)>);
        impl DispatchObserver for Log {
            fn dispatch(&mut self, f: usize, t: usize, b: Addr, tg: Addr, m: bool) {
                self.0.push((f, t, b, tg, m));
            }
        }

        let log = Rc::new(RefCell::new(Log::default()));
        let mut e = engine().with_observer(log.clone());
        e.indirect(0, 1, 100, 7); // cold: miss
        e.indirect(0, 1, 100, 7); // warm, monomorphic: hit
        e.indirect(0, 2, 100, 8); // target changed: miss
        assert!(log.borrow().0.is_empty(), "events stay batched until a flush");
        e.flush_observer();
        let seen = log.borrow();
        assert_eq!(seen.0, vec![(0, 1, 100, 7, true), (0, 1, 100, 7, false), (0, 2, 100, 8, true)]);
        assert_eq!(e.counters().indirect_mispredicted, 2, "counters agree with observer");
    }

    #[test]
    fn full_batches_flush_automatically_and_preserve_order() {
        use std::cell::RefCell;
        use std::rc::Rc;

        #[derive(Default)]
        struct Log {
            events: Vec<(usize, usize, Addr, Addr, bool)>,
            batches: usize,
        }
        impl DispatchObserver for Log {
            fn dispatch(&mut self, f: usize, t: usize, b: Addr, tg: Addr, m: bool) {
                self.events.push((f, t, b, tg, m));
            }
            fn dispatch_batch(&mut self, batch: &DispatchBatch) {
                self.batches += 1;
                for (f, t, b, tg, m) in batch.iter() {
                    self.dispatch(f, t, b, tg, m);
                }
            }
        }

        let log = Rc::new(RefCell::new(Log::default()));
        let mut e = engine().with_batch_capacity(4).with_observer(log.clone());
        for i in 0..10u64 {
            e.indirect(i as usize, 0, 50 + i, 7);
        }
        assert_eq!(log.borrow().batches, 2, "two full batches of 4 flushed mid-run");
        assert_eq!(log.borrow().events.len(), 8);
        e.flush_observer();
        assert_eq!(log.borrow().batches, 3, "the 2-event remainder flushed on demand");
        let seen = &log.borrow().events;
        assert_eq!(seen.len(), 10);
        for (i, &(f, _, b, _, m)) in seen.iter().enumerate() {
            assert_eq!((f, b), (i, 50 + i as u64), "event {i} out of order");
            assert!(m, "distinct cold branches all mispredict");
        }
    }

    #[test]
    fn batch_capacity_one_delivers_per_dispatch() {
        use std::cell::RefCell;
        use std::rc::Rc;

        #[derive(Default)]
        struct Count(usize);
        impl DispatchObserver for Count {
            fn dispatch(&mut self, _: usize, _: usize, _: Addr, _: Addr, _: bool) {
                self.0 += 1;
            }
        }

        let log = Rc::new(RefCell::new(Count::default()));
        let mut e = engine().with_batch_capacity(1).with_observer(log.clone());
        e.indirect(0, 1, 100, 7);
        assert_eq!(log.borrow().0, 1, "capacity 1 flushes every event immediately");
        e.indirect(0, 1, 100, 7);
        assert_eq!(log.borrow().0, 2);
    }

    #[test]
    fn engine_debug_and_accessors() {
        let e = engine();
        assert_eq!(e.cpu_name(), "custom");
        assert_eq!(e.counters().instructions, 0);
        assert!(format!("{e:?}").contains("Engine"));
        assert!((e.costs().cpi - 1.0).abs() < 1e-12);
    }
}
