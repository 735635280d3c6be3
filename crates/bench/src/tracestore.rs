//! The on-disk dispatch-trace cache: capture a cell's predictor-input
//! stream once, persist it as a `.dtrace` file, and serve later acquires
//! from the file instead of re-running the interpreter.
//!
//! No report binary uses the cache: they sweep predictors over the
//! replay as it streams (see [`crate::pipeline`]). Only perfbench's
//! `zoo-sweep` and `sampled-sweep` workloads still acquire traces here.
//!
//! The cache is keyed by `(frontend, benchmark, technique)` — the
//! [`ivm_core::Technique::id`] encodes every parameter, so two budgets of
//! the same technique never collide — and every stored trace carries the
//! [`ivm_core::dispatch_spec_hash`] of the translation it was captured
//! from. A disk file whose hash no longer matches the freshly computed
//! one (the instruction set, program, technique or training profile
//! changed) is discarded and recaptured. The hash omits the VM's
//! superinstruction selection and the translator's layout constants, so
//! a file can outlive a change to either.
//!
//! The store keeps no trace in memory. Each acquire returns a trace
//! loaded from disk or captured on the spot, owned by the caller and
//! freed when the caller drops it.

use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use ivm_bpred::{
    AnyPredictor, Btb, BtbConfig, CascadedPredictor, IdealBtb, Ittage, IttageConfig, PathHybrid,
    PathHybridConfig, TwoBitBtb, TwoLevelConfig, TwoLevelPredictor,
};
use ivm_core::{dispatch_spec_hash, DispatchTrace, ExecutionTrace, GuestVm, Profile, Technique};

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

/// How the trace cache behaved in this process: captures versus cache
/// hits, and the volume of trace data involved.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TraceMeta {
    /// Traces captured fresh (cache misses).
    pub captured: usize,
    /// Traces loaded from a valid file in the cache.
    pub cache_hits: usize,
    /// Total dispatch events across all acquired traces.
    pub events: u64,
    /// Total encoded size of those traces, in bytes.
    pub bytes: u64,
}

/// Process-wide trace-cache statistics.
static TRACE_META: Mutex<Option<TraceMeta>> = Mutex::new(None);

/// The trace-cache statistics accumulated so far, if any traces were
/// acquired.
pub fn trace_meta() -> Option<TraceMeta> {
    TRACE_META.lock().expect("trace metadata lock").clone()
}

fn record_meta(cache_hit: bool, events: u64, bytes: u64) {
    let mut meta = TRACE_META.lock().expect("trace metadata lock");
    let meta = meta.get_or_insert_with(TraceMeta::default);
    if cache_hit {
        meta.cache_hits += 1;
    } else {
        meta.captured += 1;
    }
    meta.events += events;
    meta.bytes += bytes;
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

/// The dispatch-trace cache: a directory of `.dtrace` files and nothing
/// in memory. No report binary reaches it; perfbench is its only caller.
pub struct TraceStore {
    dir: PathBuf,
}

impl TraceStore {
    /// A store persisting to `dir`.
    pub fn with_dir(dir: impl Into<PathBuf>) -> Self {
        Self { dir: dir.into() }
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
        let path = self.dir.join(frontend).join(bench).join(format!("{tech_id}.dtrace"));

        if let Some((trace, bytes)) = load_valid(&path, expected, &tech_id) {
            record_meta(true, trace.len() as u64, bytes);
            return Arc::new(StoredTrace { trace });
        }
        let trace = crate::pipeline::capture(vm, exec, technique, training);
        let encoded = trace.to_bytes();
        persist(&path, &encoded);
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
}
