//! The shared JSON report sink for the report binaries.
//!
//! Every binary builds one [`Report`], routes its tables through
//! [`Report::table`] (which prints exactly what [`crate::print_table`]
//! prints, keeping `results/*.txt` byte-stable) and calls
//! [`Report::finish`] at the end. When JSON output is enabled —
//! `IVM_JSON=1` or a `--json` CLI flag — the report is written to
//! `results/json/<name>.json` with a [`RunManifest`] attached; otherwise
//! the sink is free.

use ivm_obs::{Json, RunManifest};

use crate::Row;

/// True when JSON report output was requested via `IVM_JSON` (set and not
/// `"0"`) or a `--json` process argument.
pub fn json_enabled() -> bool {
    std::env::var("IVM_JSON").is_ok_and(|v| v != "0")
        || std::env::args().skip(1).any(|a| a == "--json")
}

/// Collects one binary's tables and extra sections, and writes
/// `results/json/<name>.json` on [`Report::finish`].
#[derive(Debug)]
pub struct Report {
    name: String,
    enabled: bool,
    tables: Vec<Json>,
    sections: Vec<(String, Json)>,
}

impl Report {
    /// A report named after its binary (e.g. `"figure7"`), enabled
    /// according to [`json_enabled`].
    pub fn new(name: &str) -> Self {
        Self {
            name: name.to_owned(),
            enabled: json_enabled(),
            tables: Vec::new(),
            sections: Vec::new(),
        }
    }

    /// Whether this report will be written — callers can skip building
    /// expensive JSON-only sections when it will not.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Prints a table exactly like [`crate::print_table`] and records it in
    /// the report.
    pub fn table(&mut self, title: &str, columns: &[&str], rows: &[Row], precision: usize) {
        let _span = ivm_obs::span::enter("report_render");
        crate::print_table(title, columns, rows, precision);
        if !self.enabled {
            return;
        }
        let rows_json = rows
            .iter()
            .map(|r| {
                Json::obj()
                    .with("label", r.label.as_str())
                    .with("values", Json::Arr(r.values.iter().map(|&v| Json::Num(v)).collect()))
            })
            .collect();
        self.tables.push(
            Json::obj()
                .with("title", title)
                .with("columns", Json::Arr(columns.iter().map(|&c| c.into()).collect()))
                .with("rows", Json::Arr(rows_json)),
        );
    }

    /// Attaches a named free-form JSON section (attribution breakdowns,
    /// sweep parameters, ...).
    pub fn section(&mut self, name: &str, value: Json) {
        if self.enabled {
            self.sections.push((name.to_owned(), value));
        }
    }

    /// Serialises the full document (manifest first). The manifest carries
    /// the parallel executor's accumulated wall-time metadata when any
    /// cells ran through [`crate::run_cells`], the dispatch-trace
    /// cache statistics when any traces were acquired through
    /// [`crate::trace_store`], and the per-phase span wall-time
    /// aggregates recorded so far (the `phases` section).
    pub fn to_json(&self) -> Json {
        let phases = ivm_obs::span::aggregate(&ivm_obs::span::snapshot());
        let manifest = RunManifest::capture(&self.name)
            .with_executor(crate::executor_meta())
            .with_trace(crate::trace_meta())
            .with_phases(Some(phases))
            .with_sampling(crate::pipeline::sampling_meta())
            .to_json();
        let mut doc = Json::obj().with("manifest", manifest);
        doc.set("tables", Json::Arr(self.tables.clone()));
        for (name, value) in &self.sections {
            doc.set(name, value.clone());
        }
        doc
    }

    /// Writes `results/json/<name>.json` when enabled (a no-op
    /// otherwise), and — independently, under `IVM_TRACE_JSON=1` — the
    /// Chrome trace-event export `results/json/<name>.trace.json`.
    /// Write failures are reported on stderr but do not abort the binary —
    /// the text output already happened.
    pub fn finish(self) {
        if ivm_obs::span::trace_json_enabled() {
            self.write_chrome_trace();
        }
        if !self.enabled {
            return;
        }
        let dir = ivm_obs::results_json_dir();
        let path = dir.join(format!("{}.json", self.name));
        let doc = format!("{}\n", self.to_json());
        let write = || -> std::io::Result<()> {
            std::fs::create_dir_all(&dir)?;
            std::fs::write(&path, doc.as_bytes())
        };
        match write() {
            Ok(()) => eprintln!("wrote {}", path.display()),
            Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
        }
    }

    /// Writes `results/json/<name>.trace.json`: every span recorded so
    /// far as a Chrome trace-event document, one track per executor
    /// worker (load it in Perfetto or `chrome://tracing`).
    fn write_chrome_trace(&self) {
        let records = ivm_obs::span::snapshot();
        let doc = format!("{}\n", ivm_obs::span::chrome_trace(&records, &self.name));
        let dir = ivm_obs::results_json_dir();
        let path = dir.join(format!("{}.trace.json", self.name));
        let write = || -> std::io::Result<()> {
            std::fs::create_dir_all(&dir)?;
            std::fs::write(&path, doc.as_bytes())
        };
        match write() {
            Ok(()) => eprintln!("wrote {}", path.display()),
            Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> Report {
        // Construct with enabled forced on so tests are independent of the
        // environment.
        let mut r = Report::new("unit-test-report");
        r.enabled = true;
        r
    }

    #[test]
    fn tables_metrics_and_sections_round_trip() {
        let mut r = sample_report();
        r.table("T", &["a", "b"], &[Row { label: "row".into(), values: vec![1.0, 2.5] }], 2);
        r.section("extra", Json::obj().with("k", "v"));
        let doc = r.to_json();
        assert!(doc.get("manifest").is_some(), "manifest always present");
        let tables = doc.get("tables").and_then(Json::as_arr).unwrap();
        assert_eq!(tables[0].get("title").and_then(Json::as_str), Some("T"));
        let row = &tables[0].get("rows").and_then(Json::as_arr).unwrap()[0];
        assert_eq!(row.get("values").and_then(Json::as_arr).unwrap()[1], Json::Num(2.5));
        assert_eq!(doc.get("extra").and_then(|e| e.get("k")).and_then(Json::as_str), Some("v"));
        // The serialised document parses back.
        ivm_obs::parse(&doc.to_json()).expect("report JSON is valid");
    }

    #[test]
    fn disabled_report_records_nothing() {
        let mut r = Report::new("unit-test-report");
        r.enabled = false;
        r.table("T", &["a"], &[Row { label: "x".into(), values: vec![1.0] }], 0);
        r.section("extra", Json::obj());
        assert!(r.tables.is_empty());
        assert!(r.sections.is_empty());
    }

    #[test]
    fn finish_writes_under_ivm_json_dir() {
        let dir = std::env::temp_dir().join("ivm-obs-report-test");
        let _ = std::fs::remove_dir_all(&dir);
        // Avoid std::env::set_var (racy across test threads): exercise the
        // write path directly through to_json + fs, mirroring finish().
        let mut r = sample_report();
        r.table("T", &["a"], &[Row { label: "x".into(), values: vec![1.0] }], 0);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("unit-test-report.json");
        std::fs::write(&path, r.to_json().to_json()).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let parsed = ivm_obs::parse(&text).unwrap();
        assert!(parsed.get("manifest").is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
