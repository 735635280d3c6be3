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
/// experiment executor), and the optional `phases` section (per-phase
/// span wall times); determinism comparisons exclude all three — see
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
    /// Per-phase span wall-time aggregates ([`crate::span::aggregate`]),
    /// when any spans were recorded. Wall-time-bearing and therefore
    /// excluded from determinism comparisons.
    pub phases: Option<Vec<PhaseAgg>>,
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
            phases: None,
        }
    }

    /// Attaches parallel-executor metadata (builder style).
    #[must_use]
    pub fn with_executor(mut self, executor: Option<ExecutorMeta>) -> Self {
        self.executor = executor;
        self
    }

    /// Attaches per-phase span aggregates (builder style). `None` and
    /// an empty vector both omit the section.
    #[must_use]
    pub fn with_phases(mut self, phases: Option<Vec<PhaseAgg>>) -> Self {
        self.phases = phases.filter(|p| !p.is_empty());
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
        if let Some(phases) = &self.phases {
            j.set("phases", crate::span::phases_json(phases));
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
            phases: None,
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
    fn capture_records_the_report_name_and_version() {
        let m = RunManifest::capture("report-x");
        assert_eq!(m.report, "report-x");
        assert_eq!(m.version, env!("CARGO_PKG_VERSION"));
        assert!(m.env.windows(2).all(|w| w[0].0 <= w[1].0), "env sorted");
    }
}
