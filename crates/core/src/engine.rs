//! The instrumented dispatch engine: predictors, caches and counters glued
//! to an executing interpreter, and the [`Measurement`] sink that drives
//! it from the interpreter's control-transfer events.

use ivm_bpred::{Addr, AnyPredictor, IndirectPredictor};
use ivm_cache::{CpuSpec, CycleCosts, FetchCache, PerfCounters};

use crate::events::VmEvents;
use crate::slots::{AltCode, DispatchPoint};
use crate::spec::OpId;
use crate::technique::Technique;
use crate::translate::Translation;

/// Events the engine batches before handing them to its observer.
///
/// Large enough to amortise the per-flush `RefCell` borrow and virtual
/// call over ~1k dispatches, small enough (~33 KiB of parallel arrays)
/// to stay cache-resident next to the predictor tables.
const BATCH_CAPACITY: usize = 1024;

/// A struct-of-arrays batch of dispatch events.
///
/// The [`Engine`] accumulates every observed dispatch —
/// `(from, to, branch, target, mispredicted)` — into these parallel
/// arrays and hands the whole batch to the observer in one
/// [`DispatchObserver::dispatch_batch`] call, instead of paying a
/// `RefCell` borrow plus a virtual call per dispatch. Observers consume
/// the column slices directly, or walk the rows with
/// [`DispatchBatch::iter`].
#[derive(Debug, Clone, Default)]
pub struct DispatchBatch {
    from: Vec<usize>,
    to: Vec<usize>,
    branches: Vec<Addr>,
    targets: Vec<Addr>,
    mispredicted: Vec<bool>,
}

impl DispatchBatch {
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

    /// Drops all events, keeping the allocations.
    fn clear(&mut self) {
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

    /// The batched events in execution order, row at a time:
    /// `(from, to, branch, target, mispredicted)`.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, Addr, Addr, bool)> + '_ {
        (0..self.len()).map(|i| {
            (self.from[i], self.to[i], self.branches[i], self.targets[i], self.mispredicted[i])
        })
    }
}

/// Observes every simulated indirect dispatch with full context.
///
/// For each event, `from` is the instance whose code owns the dispatch
/// branch (for pre-dispatch stubs such as switch dispatch it equals `to`,
/// the instance being entered), `branch`/`target` are the simulated
/// native addresses fed to the predictor, and `mispredicted` is the
/// predictor's verdict. An observer sees exactly the dispatches counted
/// in [`ivm_cache::PerfCounters::dispatches`], in execution order —
/// attribution sinks (see the `ivm-obs` crate) build per-opcode and
/// per-BTB-set breakdowns from this stream.
pub trait DispatchObserver {
    /// Called with each full batch of 1024 events as it fills, and with
    /// the remainder when [`Measurement::finish`] ends the run.
    fn dispatch_batch(&mut self, batch: &DispatchBatch);
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
            batch: DispatchBatch::default(),
        }
    }

    /// An engine with explicit components (for experiments mixing
    /// predictors and caches). Accepts any in-tree predictor or an
    /// [`AnyPredictor`]; either way it runs enum-dispatched in the hot
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
            batch: DispatchBatch::default(),
        }
    }

    /// Attaches a [`DispatchObserver`]; keep a clone of the handle to read
    /// the observer's state after [`Measurement::finish`]. Events are
    /// delivered in [`DispatchBatch`]es, so the cost is one dynamic call
    /// per batch, not per dispatch; it is off entirely by default.
    #[must_use]
    pub fn with_observer(mut self, observer: SharedObserver) -> Self {
        self.observer = Some(observer);
        self
    }

    /// Delivers the batched dispatch events to the observer.
    fn flush_observer(&mut self) {
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
            if self.batch.len() == BATCH_CAPACITY {
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

/// The standard measurement sink: drives an [`Engine`] from the
/// control-transfer stream of an interpreter run over a [`Translation`].
///
/// Quickenings are deferred until the transfer *out of* the quickened
/// instance has been accounted, so the first execution runs the slow code —
/// matching the paper's quickening semantics.
#[derive(Debug)]
pub struct Measurement {
    translation: Translation,
    engine: Engine,
    /// While `Some(u)`, execution is in non-replicated side-entry code up to
    /// and including instance `u`.
    side_until: Option<u32>,
    pending: Vec<(usize, OpId)>,
}

impl Measurement {
    /// Couples a translation with the engine that simulates it.
    pub fn new(translation: Translation, engine: Engine) -> Self {
        Self { translation, engine, side_until: None, pending: Vec::new() }
    }

    /// The translation being executed (reflecting quickenings so far).
    pub fn translation(&self) -> &Translation {
        &self.translation
    }

    /// Ends the run: delivers the last batch of dispatch events to the
    /// observer and attributes the translation's generated code size.
    pub fn finish(mut self) -> RunResult {
        self.engine.flush_observer();
        self.engine.counters.code_bytes = self.translation.code_bytes();
        let cycles = self.engine.counters.cycles(&self.engine.costs);
        RunResult {
            cpu: self.engine.cpu_name,
            technique: self.translation.technique(),
            counters: self.engine.counters,
            cycles,
            icache_set_misses: self.engine.fetch.set_misses(),
        }
    }

    fn in_side(&self, i: usize) -> bool {
        self.side_until.is_some_and(|u| i as u32 <= u)
    }

    fn view(&self, i: usize) -> View {
        let slot = self.translation.slot(i);
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

    fn enter(&mut self, i: usize) {
        // Pre-dispatch stubs are not used on the side-entry path.
        if !self.in_side(i) {
            if let Some(pre) = self.translation.slot(i).pre {
                self.engine.retire(pre.instrs);
                self.engine.fetch_code(pre.fetch.0, pre.fetch.1);
                self.engine.counters.dispatches += 1;
                // A pre-dispatch stub is accounted to the instance it
                // enters, so `from == to == i`.
                self.engine.indirect(i, i, pre.branch, pre.target);
            }
        }
        let v = self.view(i);
        self.engine.retire(v.work_instrs);
        self.engine.fetch_code(v.fetch.0, v.fetch.1);
        if !self.in_side(i) {
            let (addr, len) = self.translation.slot(i).extra_fetch;
            self.engine.fetch_code(addr, len);
        }
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
    /// Starts (or restarts) execution at instance `entry`.
    fn begin(&mut self, entry: usize) {
        // Entering mid-superinstruction from outside takes the side path.
        self.side_until = self.translation.slot(entry).alt.map(|a| a.until);
        self.enter(entry);
    }

    /// Records the control transfer `from → to`; `taken` distinguishes a
    /// taken VM branch/jump/call/return from sequential fall-through.
    ///
    /// # Panics
    ///
    /// Panics if the translation has no dispatch for a taken transfer out of
    /// `from` — that indicates a translator bug or a VM reporting an
    /// impossible transfer.
    fn transfer(&mut self, from: usize, to: usize, taken: bool) {
        let vf = self.view(from);
        let dp = if taken {
            Some(vf.taken.unwrap_or_else(|| {
                panic!("instance {from} has no taken dispatch but VM took a branch")
            }))
        } else {
            vf.fall
        };

        // Update side-entry state before resolving the target's view.
        if taken {
            self.side_until = self.translation.slot(to).alt.map(|a| a.until);
        } else if self.side_until.is_some_and(|u| to as u32 > u) {
            self.side_until = None;
        }

        if let Some(dp) = dp {
            let target = self.view(to).entry;
            self.engine.retire(dp.instrs);
            self.engine.fetch_code(dp.fetch.0, dp.fetch.1);
            self.engine.counters.dispatches += 1;
            self.engine.indirect(from, to, dp.branch, target);
        }
        self.enter(to);
        self.apply_pending(from);
    }

    fn quicken(&mut self, instance: usize, quick_op: OpId) {
        self.pending.push((instance, quick_op));
    }
}

#[cfg(test)]
mod tests {
    use std::cell::RefCell;
    use std::rc::Rc;

    use super::*;
    use ivm_bpred::IdealBtb;
    use ivm_cache::PerfectIcache;

    fn engine() -> Engine {
        Engine::new(
            IdealBtb::new(),
            Box::new(PerfectIcache),
            CycleCosts { cpi: 1.0, mispredict_penalty: 10.0, icache_miss_penalty: 27.0 },
        )
    }

    /// Every delivered event in order, plus the number of batches.
    #[derive(Default)]
    struct Log {
        events: Vec<(usize, usize, Addr, Addr, bool)>,
        batches: usize,
    }

    impl DispatchObserver for Log {
        fn dispatch_batch(&mut self, batch: &DispatchBatch) {
            self.batches += 1;
            self.events.extend(batch.iter());
        }
    }

    #[test]
    fn observer_sees_every_dispatch_with_verdict() {
        let log = Rc::new(RefCell::new(Log::default()));
        let mut e = engine().with_observer(log.clone());
        e.indirect(0, 1, 100, 7); // cold: miss
        e.indirect(0, 1, 100, 7); // warm, monomorphic: hit
        e.indirect(0, 2, 100, 8); // target changed: miss
        assert!(log.borrow().events.is_empty(), "events stay batched until a flush");
        e.flush_observer();
        let seen = log.borrow();
        assert_eq!(
            seen.events,
            vec![(0, 1, 100, 7, true), (0, 1, 100, 7, false), (0, 2, 100, 8, true)]
        );
        assert_eq!(e.counters.indirect_mispredicted, 2, "counters agree with observer");
        assert!(format!("{e:?}").contains("custom"), "Debug names the machine");
    }

    #[test]
    fn full_batches_flush_automatically_and_preserve_order() {
        let log = Rc::new(RefCell::new(Log::default()));
        let mut e = engine().with_observer(log.clone());
        let n = 2 * BATCH_CAPACITY + 2;
        for i in 0..n {
            e.indirect(i, 0, 50 + i as u64, 7);
        }
        assert_eq!(log.borrow().batches, 2, "two full batches flushed mid-run");
        assert_eq!(log.borrow().events.len(), 2 * BATCH_CAPACITY);
        e.flush_observer();
        assert_eq!(log.borrow().batches, 3, "the 2-event remainder flushed at the end");
        let seen = &log.borrow().events;
        assert_eq!(seen.len(), n);
        for (i, &(f, _, b, _, m)) in seen.iter().enumerate() {
            assert_eq!((f, b), (i, 50 + i as u64), "event {i} out of order");
            assert!(m, "distinct cold branches all mispredict");
        }
    }
}
