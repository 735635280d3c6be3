//! The dispatch-trace cache: capture each cell's predictor-input stream
//! once, persist it to `results/traces/`, and sweep predictors over the
//! frozen stream instead of re-running the interpreter.
//!
//! The cache is keyed by `(frontend, benchmark, technique)` — the
//! [`ivm_core::Technique::id`] encodes every parameter, so two budgets of
//! the same technique never collide — and every stored trace carries the
//! [`ivm_core::dispatch_spec_hash`] of the translation it was captured
//! from. A disk file whose hash no longer matches the freshly computed
//! one (the instruction set, program, technique or training profile
//! changed) is discarded and recaptured, so stale traces can never leak
//! into results.
//!
//! The store is a disk cache only: it keeps no trace in memory. Each
//! acquire returns a trace loaded from disk or captured on the spot,
//! owned by the caller and freed when the caller drops it.
//!
//! Under `IVM_SMOKE` the store has no directory, so every acquire
//! captures: smoke workloads are tiny and must not pollute (or depend
//! on) the on-disk cache. Otherwise traces live under `IVM_TRACE_DIR`,
//! defaulting to `<workspace>/results/traces/`, which is gitignored.
//! Setting `IVM_TRACE_DIR` explicitly re-enables persistence even under
//! smoke — CI's determinism job uses this to byte-compare trace files
//! across worker counts.

use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, OnceLock};

use ivm_bpred::{
    AnyPredictor, Btb, BtbConfig, CascadedPredictor, IdealBtb, Ittage, IttageConfig, PathHybrid,
    PathHybridConfig, TwoBitBtb, TwoLevelConfig, TwoLevelPredictor,
};
use ivm_cache::{CycleCosts, PerfectIcache};
use ivm_core::{
    dispatch_spec_hash, DispatchTrace, Engine, ExecutionTrace, GuestVm, Profile, Technique,
};
use ivm_obs::TraceMeta;

/// Builds one fresh predictor instance for a sweep. Returning the
/// enum-dispatched [`AnyPredictor`] keeps the sweep's inner loops
/// monomorphized — `simulate_many` runs each variant without a virtual
/// call per event.
pub type PredictorBuilder = fn() -> AnyPredictor;

/// Every predictor configuration the sweep studies evaluate, as
/// fresh-instance builders with stable names. One captured dispatch
/// trace serves all of them — `ivm_core::simulate_many` over this
/// registry is the capture-then-sweep counterpart of re-running the
/// interpreter once per configuration.
pub fn predictor_registry() -> Vec<(&'static str, PredictorBuilder)> {
    let registry: Vec<(&'static str, PredictorBuilder)> = vec![
        ("ideal", || IdealBtb::new().into()),
        ("btb-celeron", || Btb::new(BtbConfig::celeron()).into()),
        ("btb-p4", || Btb::new(BtbConfig::pentium4()).into()),
        ("btb-256x1-tagless", || Btb::new(BtbConfig::new(256, 1).tagless()).into()),
        ("btb-2bit", || TwoBitBtb::new().into()),
        ("two-level-pentium-m", || TwoLevelPredictor::new(TwoLevelConfig::pentium_m()).into()),
        ("cascaded", || CascadedPredictor::new(TwoLevelConfig::pentium_m(), 2).into()),
        ("two-level-long-history", || {
            TwoLevelPredictor::new(TwoLevelConfig {
                history_len: 8,
                table_bits: 14,
                target_bits: 6,
            })
            .into()
        }),
        // The modern zoo: path-history hybrid (mid-2010s class) and the
        // ITTAGE family (current high-end cores), smallest budget first.
        ("path-hybrid", || PathHybrid::new(PathHybridConfig::classic()).into()),
        ("ittage-small", || Ittage::new(IttageConfig::small()).into()),
        ("ittage-medium", || Ittage::new(IttageConfig::medium()).into()),
        ("ittage-firestorm", || Ittage::new(IttageConfig::firestorm()).into()),
        ("ittage-64kb", || Ittage::new(IttageConfig::seznec_64kb()).into()),
    ];
    registry
}

/// Process-wide trace-cache statistics, merged into the report manifest.
static TRACE_META: Mutex<Option<TraceMeta>> = Mutex::new(None);

/// The trace-cache statistics accumulated so far, if any traces were
/// acquired. Attached to report manifests by [`crate::Report::finish`].
pub fn trace_meta() -> Option<TraceMeta> {
    TRACE_META.lock().expect("trace metadata lock").clone()
}

fn record_meta(cache_hit: bool, events: u64, bytes: u64) {
    TRACE_META
        .lock()
        .expect("trace metadata lock")
        .get_or_insert_with(TraceMeta::default)
        .absorb(cache_hit, events, bytes);
}

/// One acquired dispatch trace. The store does not keep it: it lives as
/// long as the caller's `Arc`.
#[derive(Debug)]
pub struct StoredTrace {
    trace: DispatchTrace,
}

impl StoredTrace {
    /// The dispatch stream.
    pub fn trace(&self) -> &DispatchTrace {
        &self.trace
    }
}

/// The dispatch-trace cache: an optional directory of `.dtrace` files and
/// nothing in memory.
pub struct TraceStore {
    dir: Option<PathBuf>,
}

/// The global [`TraceStore`], configured from the environment on first
/// use (`IVM_SMOKE` → no directory; `IVM_TRACE_DIR` overrides the
/// default `<workspace>/results/traces/`).
pub fn trace_store() -> &'static TraceStore {
    static STORE: OnceLock<TraceStore> = OnceLock::new();
    STORE.get_or_init(TraceStore::from_env)
}

impl TraceStore {
    fn from_env() -> Self {
        // An explicit IVM_TRACE_DIR wins even under IVM_SMOKE (CI's
        // determinism job captures smoke-sized traces into throwaway
        // directories); only the *default* on-disk location is disabled
        // by smoke mode.
        let dir = match std::env::var_os("IVM_TRACE_DIR") {
            Some(d) => Some(PathBuf::from(d)),
            None if crate::smoke() => None,
            None => Some(ivm_obs::workspace_root().join("results").join("traces")),
        };
        Self { dir }
    }

    /// A store persisting to `dir` unconditionally (even under smoke).
    /// Tests use this to exercise the on-disk recovery path against a
    /// private directory.
    pub fn with_dir(dir: impl Into<PathBuf>) -> Self {
        Self { dir: Some(dir.into()) }
    }

    /// The dispatch trace of `vm` replaying `exec` under `technique`,
    /// loaded from its file when that is valid, otherwise captured now
    /// and persisted. The returned trace is the caller's alone.
    ///
    /// # Panics
    ///
    /// Panics if `technique` needs a profile and `training` is `None`.
    pub fn get_or_capture<G: GuestVm + ?Sized>(
        &self,
        frontend: &str,
        bench: &str,
        vm: &G,
        exec: &ExecutionTrace,
        technique: Technique,
        training: Option<&Profile>,
    ) -> Arc<StoredTrace> {
        let tech_id = technique.id();
        let expected = dispatch_spec_hash(vm.spec(), vm.program(), technique, training);
        let path = self
            .dir
            .as_ref()
            .map(|d| d.join(frontend).join(bench).join(format!("{tech_id}.dtrace")));

        if let Some((trace, bytes)) =
            path.as_deref().and_then(|p| load_valid(p, expected, &tech_id))
        {
            record_meta(true, trace.len() as u64, bytes);
            return Arc::new(StoredTrace { trace });
        }
        let _span = ivm_obs::span::enter("trace_capture");
        // The dispatch stream does not depend on the machine model:
        // control flow never consults the predictor or the caches, so
        // capture runs on the cheapest machine there is.
        let engine = Engine::new(IdealBtb::new(), Box::new(PerfectIcache), CycleCosts::celeron())
            .with_observer(DispatchTrace::new(expected, tech_id));
        let (_, trace) = ivm_core::measure_trace_with(vm, exec, technique, engine, training);
        let encoded = trace.to_bytes();
        if let Some(p) = path.as_deref() {
            persist(p, &encoded);
        }
        record_meta(false, trace.len() as u64, encoded.len() as u64);
        Arc::new(StoredTrace { trace })
    }
}

/// Reads and validates a trace file, returning the trace and the file's
/// size; `None` (recapture) on any mismatch or decode error.
fn load_valid(path: &Path, expected_hash: u64, tech_id: &str) -> Option<(DispatchTrace, u64)> {
    let bytes = std::fs::read(path).ok()?;
    let trace = DispatchTrace::from_bytes(&bytes).ok()?;
    (trace.spec_hash() == expected_hash && trace.technique() == tech_id)
        .then_some((trace, bytes.len() as u64))
}

/// Writes a trace file atomically (temp file + rename), so concurrent
/// writers and interrupted runs can never leave a torn file behind.
/// Failures are non-fatal: the cache is an accelerator, not a result.
fn persist(path: &Path, encoded: &[u8]) {
    let Some(parent) = path.parent() else { return };
    if std::fs::create_dir_all(parent).is_err() {
        return;
    }
    let tmp = path.with_extension(format!("tmp-{}", std::process::id()));
    if std::fs::write(&tmp, encoded).is_ok() && std::fs::rename(&tmp, path).is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ivm_cache::{CpuSpec, PredictorKind};
    use ivm_core::ReplicaSelection;

    /// Acquires calc/triangle through `store`, checks that the store kept
    /// no reference to the trace, and returns it plus the path the store
    /// persists it at.
    fn acquire(store: &TraceStore, dir: &Path) -> (Arc<StoredTrace>, PathBuf) {
        let fe = crate::frontend("calc");
        let image = fe.image("triangle");
        let (exec, _) = ivm_core::record(&*image).expect("recording run");
        let training = fe.training_for("triangle");
        let stored = store.get_or_capture(
            "calc",
            "triangle",
            &*image,
            &exec,
            Technique::Threaded,
            Some(&training),
        );
        assert_eq!(Arc::strong_count(&stored), 1, "the store keeps no trace in memory");
        let path =
            dir.join("calc").join("triangle").join(format!("{}.dtrace", Technique::Threaded.id()));
        (stored, path)
    }

    #[test]
    fn corrupted_cache_artifacts_are_recaptured_not_trusted() {
        let dir =
            std::env::temp_dir().join(format!("ivm-tracestore-recovery-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        // One store for every step: each acquire must go back to the file
        // rather than hand out a trace remembered from an earlier step.
        let store = TraceStore::with_dir(&dir);

        let (original, path) = acquire(&store, &dir);
        assert!(path.is_file(), "capture persists the artifact");
        let good = std::fs::read(&path).expect("persisted trace file");
        let (reloaded, _) = acquire(&store, &dir);
        assert_eq!(reloaded.trace(), original.trace(), "a valid file is served as is");

        // A truncated artifact (interrupted write, torn copy) must be
        // treated as a miss — decoded, rejected, recaptured — not a panic.
        std::fs::write(&path, &good[..good.len() / 2]).unwrap();
        let (recovered, _) = acquire(&store, &dir);
        assert_eq!(recovered.trace(), original.trace(), "truncated file is recaptured");
        assert_eq!(std::fs::read(&path).unwrap(), good, "recapture rewrites the artifact");

        // Arbitrary garbage behind a valid-looking magic is also a miss.
        std::fs::write(&path, b"IVMTgarbage, definitely not a dispatch trace").unwrap();
        let (recovered, _) = acquire(&store, &dir);
        assert_eq!(recovered.trace(), original.trace(), "garbage file is recaptured");
        assert_eq!(std::fs::read(&path).unwrap(), good, "recapture rewrites the artifact");

        // A file from an earlier format version is stale: recaptured and
        // rewritten at the current version.
        let mut stale = good.clone();
        stale[4..8].copy_from_slice(&2u32.to_le_bytes());
        std::fs::write(&path, &stale).unwrap();
        let (recovered, _) = acquire(&store, &dir);
        assert_eq!(recovered.trace(), original.trace(), "stale-version file is recaptured");
        let rewritten = std::fs::read(&path).unwrap();
        assert_eq!(rewritten[4..8], ivm_core::DTRACE_VERSION.to_le_bytes());
        assert_eq!(rewritten, good, "recapture rewrites the artifact");

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn capture_stream_does_not_depend_on_the_machine() {
        // The store captures on an ideal BTB with a perfect I-cache. Its
        // stream must equal what an observer records on full machine
        // models: the Pentium 4, with its trace cache, and the Pentium M,
        // whose history predictor misses where the ideal BTB hits.
        let fe = crate::frontend("forth");
        let image = fe.image("brew");
        let (exec, _) = ivm_core::record(&*image).expect("recording run");
        let training = fe.training_for("brew");
        let store = TraceStore { dir: None };
        let static_repl =
            Technique::StaticRepl { budget: 100, selection: ReplicaSelection::RoundRobin };
        for cpu in [CpuSpec::pentium4_northwood(), CpuSpec::pentium_m()] {
            for technique in [Technique::Threaded, static_repl] {
                let stored = store.get_or_capture(
                    "forth",
                    "brew",
                    &*image,
                    &exec,
                    technique,
                    Some(&training),
                );
                let hash =
                    dispatch_spec_hash(image.spec(), image.program(), technique, Some(&training));
                let engine =
                    Engine::for_cpu(&cpu).with_observer(DispatchTrace::new(hash, technique.id()));
                let (run, observed) = ivm_core::measure_trace_with(
                    &*image,
                    &exec,
                    technique,
                    engine,
                    Some(&training),
                );
                let label = format!("{}/{technique}", cpu.name);
                assert!(run.counters.icache_misses > 0, "{label}: the I-cache misses");
                if matches!(cpu.predictor, PredictorKind::TwoLevel(_)) {
                    let ideal =
                        ivm_core::simulate_many(stored.trace(), &mut [IdealBtb::new().into()]);
                    assert_ne!(
                        run.counters.indirect_mispredicted, ideal[0].mispredicted,
                        "{label}: the machine must predict unlike the capture machine"
                    );
                }
                assert_eq!(stored.trace(), &observed, "{label}: streams differ");
            }
        }
    }
}
