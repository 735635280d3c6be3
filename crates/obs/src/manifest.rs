//! Run manifests: the provenance block attached to every JSON report.

use crate::json::Json;
use crate::span::PhaseAgg;

/// Captures how a report was produced: workspace version, smoke mode and
/// every `IVM_*` environment override in effect.
///
/// Deliberately contains no timestamps or hostnames — two runs with the
/// same inputs produce byte-identical reports, so diffs show only real
/// changes. The exceptions are the `env` section (which records
/// machine-local `IVM_*` overrides such as `IVM_JOBS`), the optional
/// `executor` section (which records wall-clock timing of the parallel
/// experiment executor), the optional `trace` section (whose cache
/// hit/miss counts depend on what `results/traces/` already held), and
/// the optional `phases` section (per-phase span wall times);
/// determinism comparisons exclude all four — see
/// `scripts/check_determinism.py`.
///
/// # Examples
///
/// ```
/// use ivm_obs::RunManifest;
///
/// let m = RunManifest::capture("figure7");
/// assert_eq!(m.report, "figure7");
/// assert!(!m.version.is_empty());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunManifest {
    /// The report (binary or suite) name.
    pub report: String,
    /// Workspace version (`CARGO_PKG_VERSION` of `ivm-obs`, which is
    /// workspace-inherited).
    pub version: String,
    /// Whether `IVM_SMOKE` reduced workloads were in effect.
    pub smoke: bool,
    /// Every `IVM_*` environment variable in effect, sorted by name.
    pub env: Vec<(String, String)>,
    /// Parallel-executor metadata, when the run used the experiment
    /// executor. Timing-bearing and therefore not deterministic.
    pub executor: Option<ExecutorMeta>,
    /// Dispatch-trace cache metadata, when the run captured or reused
    /// cached dispatch traces. Depends on prior disk state (hit/miss
    /// counts) and is therefore excluded from determinism comparisons.
    pub trace: Option<TraceMeta>,
    /// Per-phase span wall-time aggregates ([`crate::span::aggregate`]),
    /// when any spans were recorded. Wall-time-bearing and therefore
    /// excluded from determinism comparisons.
    pub phases: Option<Vec<PhaseAgg>>,
    /// SimPoint-style sampling metadata, when the run simulated
    /// representative intervals instead of (or alongside) full traces.
    /// Excluded from determinism comparisons alongside the other
    /// optional sections so sampled and full runs stay diffable.
    pub sampling: Option<SamplingMeta>,
}

/// How SimPoint-style interval sampling was configured and how well it
/// reconstructed full-trace results, across every sampled workload of
/// one run.
///
/// All fractional quantities are stored in integer micro-units (weights
/// in parts-per-million, error bars in micro-percentage-points) so the
/// manifest stays `Eq`-comparable; the serialised form reports plain
/// fractions and percentage points.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SamplingMeta {
    /// Per sampled workload, its clustering summary in absorb order.
    pub entries: Vec<SamplingEntry>,
}

/// One sampled workload's clustering summary: how the stream was sliced,
/// what K came out, the representative weights, and the sampling error —
/// always the estimated bar, plus the exact error when a full-trace
/// reference was also simulated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SamplingEntry {
    /// Stable workload id (`<vm>/<benchmark>/<technique>`-style).
    pub id: String,
    /// Events per interval slice.
    pub interval_len: u64,
    /// Number of intervals the stream sliced into.
    pub intervals: u64,
    /// Number of clusters (representative intervals simulated).
    pub k: usize,
    /// Per-cluster whole-run weight, in parts-per-million, in canonical
    /// cluster order.
    pub weights_ppm: Vec<u64>,
    /// Estimated sampling error (the reported bar), in
    /// micro-percentage-points of misprediction rate.
    pub est_err_upp: u64,
    /// Worst observed |sampled − full| across the run's predictors, in
    /// micro-percentage-points, when the full trace was also simulated.
    pub exact_err_upp: Option<u64>,
}

impl SamplingEntry {
    /// Builds an entry from natural units: fractional `weights` (summing
    /// to ~1) and percentage-point errors are micro-unit encoded here so
    /// every caller rounds identically.
    pub fn new(
        id: impl Into<String>,
        interval_len: u64,
        intervals: u64,
        weights: &[f64],
        est_err_pp: f64,
        exact_err_pp: Option<f64>,
    ) -> Self {
        let to_u = |v: f64| (v * 1e6).round() as u64;
        Self {
            id: id.into(),
            interval_len,
            intervals,
            k: weights.len(),
            weights_ppm: weights.iter().map(|&w| to_u(w)).collect(),
            est_err_upp: to_u(est_err_pp),
            exact_err_upp: exact_err_pp.map(to_u),
        }
    }
}

impl SamplingMeta {
    /// Appends one sampled workload's summary.
    pub fn absorb(&mut self, entry: SamplingEntry) {
        self.entries.push(entry);
    }

    /// Serialises the sampling section.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let entries = self
            .entries
            .iter()
            .map(|e| {
                let weights: Vec<Json> =
                    e.weights_ppm.iter().map(|&w| Json::Num(round6(w as f64 / 1e6))).collect();
                let mut j = Json::obj()
                    .with("id", e.id.as_str())
                    .with("interval_len", e.interval_len)
                    .with("intervals", e.intervals)
                    .with("k", e.k as u64)
                    .with("weights", Json::Arr(weights))
                    .with("est_err_pp", round6(e.est_err_upp as f64 / 1e6));
                match e.exact_err_upp {
                    Some(v) => j.set("exact_err_pp", round6(v as f64 / 1e6)),
                    None => j.set("exact_err_pp", Json::Null),
                };
                j
            })
            .collect();
        Json::obj().with("workloads", Json::Arr(entries))
    }
}

/// Rounds to 6 decimals (exact for values that came from micro-units).
fn round6(v: f64) -> f64 {
    (v * 1e6).round() / 1e6
}

/// How the dispatch-trace cache behaved during one run: captures versus
/// cache hits, and the volume of trace data involved.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TraceMeta {
    /// Traces captured fresh (cache misses) during this run.
    pub captured: usize,
    /// Traces loaded from a valid file in the on-disk cache.
    pub cache_hits: usize,
    /// Total dispatch events across all traces this run touched.
    pub events: u64,
    /// Total encoded size of those traces, in bytes.
    pub bytes: u64,
}

impl TraceMeta {
    /// Folds one trace acquisition into the summary.
    pub fn absorb(&mut self, cache_hit: bool, events: u64, bytes: u64) {
        if cache_hit {
            self.cache_hits += 1;
        } else {
            self.captured += 1;
        }
        self.events += events;
        self.bytes += bytes;
    }

    /// Serialises the trace section.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::obj()
            .with("captured", self.captured as u64)
            .with("cache_hits", self.cache_hits as u64)
            .with("events", self.events)
            .with("bytes", self.bytes)
    }
}

/// Wall time of one executed experiment cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellWall {
    /// Stable cell id (`<vm>/<benchmark>/<technique>`-style).
    pub id: String,
    /// Wall time of the cell, in microseconds.
    pub wall_us: u64,
}

/// How the parallel experiment executor ran a report: job count, batch
/// count, wall time, and per-cell wall times in canonical cell order.
///
/// Times are recorded in integer microseconds (keeping the manifest
/// `Eq`-comparable); the serialised form reports milliseconds.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ExecutorMeta {
    /// Worker threads per batch (`IVM_JOBS` or available parallelism).
    pub jobs: usize,
    /// Number of `run_cells` batches the report issued.
    pub batches: usize,
    /// Executor wall time summed over batches, in microseconds.
    pub wall_us: u64,
    /// Estimated serial wall time: the sum of all cell wall times.
    pub serial_us: u64,
    /// Per-cell wall times, in canonical cell order across batches.
    pub cells: Vec<CellWall>,
}

impl ExecutorMeta {
    /// Estimated speedup over serial execution (`serial_us / wall_us`).
    #[must_use]
    pub fn speedup_estimate(&self) -> f64 {
        if self.wall_us == 0 {
            return 1.0;
        }
        self.serial_us as f64 / self.wall_us as f64
    }

    /// Folds another batch's statistics into this summary.
    pub fn absorb(&mut self, jobs: usize, wall_us: u64, cells: Vec<CellWall>) {
        self.jobs = self.jobs.max(jobs);
        self.batches += 1;
        self.wall_us += wall_us;
        self.serial_us += cells.iter().map(|c| c.wall_us).sum::<u64>();
        self.cells.extend(cells);
    }

    /// Serialises the executor section.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let cells = self
            .cells
            .iter()
            .map(|c| Json::obj().with("id", c.id.as_str()).with("wall_ms", ms(c.wall_us)))
            .collect();
        Json::obj()
            .with("jobs", self.jobs as u64)
            .with("batches", self.batches as u64)
            .with("wall_ms", ms(self.wall_us))
            .with("serial_estimate_ms", ms(self.serial_us))
            .with("speedup_estimate", round3(self.speedup_estimate()))
            .with("cells", Json::Arr(cells))
    }
}

/// Microseconds to milliseconds, rounded to 3 decimals.
fn ms(us: u64) -> f64 {
    round3(us as f64 / 1000.0)
}

fn round3(v: f64) -> f64 {
    (v * 1000.0).round() / 1000.0
}

impl RunManifest {
    /// Captures the current process environment for report `report`.
    pub fn capture(report: &str) -> Self {
        let mut env: Vec<(String, String)> =
            std::env::vars().filter(|(k, _)| k.starts_with("IVM_")).collect();
        env.sort();
        Self {
            report: report.to_owned(),
            version: env!("CARGO_PKG_VERSION").to_owned(),
            smoke: smoke_enabled(),
            env,
            executor: None,
            trace: None,
            phases: None,
            sampling: None,
        }
    }

    /// Attaches parallel-executor metadata (builder style).
    #[must_use]
    pub fn with_executor(mut self, executor: Option<ExecutorMeta>) -> Self {
        self.executor = executor;
        self
    }

    /// Attaches dispatch-trace cache metadata (builder style).
    #[must_use]
    pub fn with_trace(mut self, trace: Option<TraceMeta>) -> Self {
        self.trace = trace;
        self
    }

    /// Attaches per-phase span aggregates (builder style). `None` and
    /// an empty vector both omit the section.
    #[must_use]
    pub fn with_phases(mut self, phases: Option<Vec<PhaseAgg>>) -> Self {
        self.phases = phases.filter(|p| !p.is_empty());
        self
    }

    /// Attaches SimPoint-sampling metadata (builder style). `None` and a
    /// summary with no workloads both omit the section.
    #[must_use]
    pub fn with_sampling(mut self, sampling: Option<SamplingMeta>) -> Self {
        self.sampling = sampling.filter(|s| !s.entries.is_empty());
        self
    }

    /// Serialises the manifest.
    pub fn to_json(&self) -> Json {
        let mut j = Json::obj()
            .with("report", self.report.as_str())
            .with("version", self.version.as_str())
            .with("smoke", self.smoke);
        let env = self.env.iter().map(|(k, v)| (k.clone(), Json::Str(v.clone()))).collect();
        j.set("env", Json::Obj(env));
        if let Some(executor) = &self.executor {
            j.set("executor", executor.to_json());
        }
        if let Some(trace) = &self.trace {
            j.set("trace", trace.to_json());
        }
        if let Some(phases) = &self.phases {
            j.set("phases", crate::span::phases_json(phases));
        }
        if let Some(sampling) = &self.sampling {
            j.set("sampling", sampling.to_json());
        }
        j
    }
}

/// True when `IVM_SMOKE` requests reduced workloads (same convention as the
/// report binaries: set and not `"0"`).
pub fn smoke_enabled() -> bool {
    std::env::var("IVM_SMOKE").is_ok_and(|v| v != "0")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    #[test]
    fn manifest_serialises_with_all_fields() {
        let m = RunManifest {
            report: "demo".into(),
            version: "0.1.0".into(),
            smoke: true,
            env: vec![("IVM_SMOKE".into(), "1".into())],
            executor: None,
            trace: None,
            phases: None,
            sampling: None,
        };
        let j = parse(&m.to_json().to_json()).unwrap();
        assert_eq!(j.get("report").and_then(Json::as_str), Some("demo"));
        assert_eq!(j.get("smoke"), Some(&Json::Bool(true)));
        assert_eq!(j.get("env").and_then(|e| e.get("IVM_SMOKE")).and_then(Json::as_str), Some("1"));
        assert_eq!(j.get("executor"), None, "no executor section when absent");
    }

    #[test]
    fn executor_metadata_serialises_and_aggregates() {
        let mut meta = ExecutorMeta::default();
        meta.absorb(
            4,
            2_000,
            vec![
                CellWall { id: "forth/brew/switch".into(), wall_us: 1_500 },
                CellWall { id: "forth/brew/threaded".into(), wall_us: 2_500 },
            ],
        );
        meta.absorb(4, 1_000, vec![CellWall { id: "java/db/threaded".into(), wall_us: 3_000 }]);
        assert_eq!(meta.batches, 2);
        assert_eq!(meta.wall_us, 3_000);
        assert_eq!(meta.serial_us, 7_000);
        assert!((meta.speedup_estimate() - 7.0 / 3.0).abs() < 1e-9);

        let m = RunManifest::capture("demo").with_executor(Some(meta));
        let j = parse(&m.to_json().to_json()).unwrap();
        let exec = j.get("executor").expect("executor section present");
        assert_eq!(exec.get("jobs").and_then(Json::as_f64), Some(4.0));
        assert_eq!(exec.get("batches").and_then(Json::as_f64), Some(2.0));
        assert_eq!(exec.get("wall_ms").and_then(Json::as_f64), Some(3.0));
        assert_eq!(exec.get("serial_estimate_ms").and_then(Json::as_f64), Some(7.0));
        let cells = exec.get("cells").and_then(Json::as_arr).expect("cells array");
        assert_eq!(cells.len(), 3);
        assert_eq!(cells[0].get("id").and_then(Json::as_str), Some("forth/brew/switch"));
        assert_eq!(cells[0].get("wall_ms").and_then(Json::as_f64), Some(1.5));
    }

    #[test]
    fn trace_metadata_serialises_and_aggregates() {
        let mut meta = TraceMeta::default();
        meta.absorb(false, 1_000, 2_048);
        meta.absorb(true, 1_000, 2_048);
        meta.absorb(true, 500, 700);
        assert_eq!(meta.captured, 1);
        assert_eq!(meta.cache_hits, 2);

        let m = RunManifest::capture("demo").with_trace(Some(meta));
        let j = parse(&m.to_json().to_json()).unwrap();
        let trace = j.get("trace").expect("trace section present");
        assert_eq!(trace.get("captured").and_then(Json::as_f64), Some(1.0));
        assert_eq!(trace.get("cache_hits").and_then(Json::as_f64), Some(2.0));
        assert_eq!(trace.get("events").and_then(Json::as_f64), Some(2500.0));
        assert_eq!(trace.get("bytes").and_then(Json::as_f64), Some(4796.0));
        assert_eq!(
            RunManifest::capture("demo").to_json().get("trace"),
            None,
            "no trace section when absent"
        );
    }

    #[test]
    fn phases_section_serialises_and_empty_is_omitted() {
        let phases = vec![PhaseAgg {
            name: "execute",
            count: 3,
            total_us: 4_500,
            self_us: 4_000,
            in_cell_self_us: 4_000,
        }];
        let m = RunManifest::capture("demo").with_phases(Some(phases));
        let j = parse(&m.to_json().to_json()).unwrap();
        let rows = j.get("phases").and_then(Json::as_arr).expect("phases array");
        assert_eq!(rows[0].get("name").and_then(Json::as_str), Some("execute"));
        assert_eq!(rows[0].get("count").and_then(Json::as_f64), Some(3.0));
        assert_eq!(rows[0].get("total_ms").and_then(Json::as_f64), Some(4.5));
        assert_eq!(rows[0].get("self_ms").and_then(Json::as_f64), Some(4.0));

        let empty = RunManifest::capture("demo").with_phases(Some(Vec::new()));
        assert_eq!(empty.to_json().get("phases"), None, "empty phases omitted");
        assert_eq!(RunManifest::capture("demo").to_json().get("phases"), None);
    }

    #[test]
    fn sampling_section_serialises_and_empty_is_omitted() {
        let mut meta = SamplingMeta::default();
        meta.absorb(SamplingEntry::new(
            "forth/bench-gc/threaded",
            4096,
            717,
            &[0.25, 0.5, 0.25],
            0.125,
            Some(0.04),
        ));
        meta.absorb(SamplingEntry::new("java/mpeg/threaded", 2048, 219, &[1.0], 0.3, None));

        let m = RunManifest::capture("demo").with_sampling(Some(meta));
        let j = parse(&m.to_json().to_json()).unwrap();
        let rows =
            j.get("sampling").and_then(|s| s.get("workloads")).and_then(Json::as_arr).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].get("id").and_then(Json::as_str), Some("forth/bench-gc/threaded"));
        assert_eq!(rows[0].get("interval_len").and_then(Json::as_f64), Some(4096.0));
        assert_eq!(rows[0].get("k").and_then(Json::as_f64), Some(3.0));
        let weights = rows[0].get("weights").and_then(Json::as_arr).unwrap();
        assert_eq!(weights[1].as_f64(), Some(0.5));
        assert_eq!(rows[0].get("est_err_pp").and_then(Json::as_f64), Some(0.125));
        assert_eq!(rows[0].get("exact_err_pp").and_then(Json::as_f64), Some(0.04));
        assert_eq!(rows[1].get("exact_err_pp"), Some(&Json::Null));

        let empty = RunManifest::capture("demo").with_sampling(Some(SamplingMeta::default()));
        assert_eq!(empty.to_json().get("sampling"), None, "empty sampling omitted");
        assert_eq!(RunManifest::capture("demo").to_json().get("sampling"), None);
    }

    #[test]
    fn capture_records_the_report_name_and_version() {
        let m = RunManifest::capture("report-x");
        assert_eq!(m.report, "report-x");
        assert_eq!(m.version, env!("CARGO_PKG_VERSION"));
        assert!(m.env.windows(2).all(|w| w[0].0 <= w[1].0), "env sorted");
    }
}
