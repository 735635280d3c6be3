//! Smoke test: every bin target in `src/bin/` must run end to end on the
//! reduced `IVM_SMOKE` workload, exit successfully, print at least one
//! parseable table row, and (with `IVM_JSON=1`) write exactly one file,
//! a JSON report that parses and carries a matching run manifest with a
//! phase-time section. This is what keeps the 18 report harnesses honest
//! between full `results/` regenerations.

use std::process::Command;

use ivm_harness::par::{run_cells_with, Cell};
use ivm_obs::Json;

/// Every bin target of this crate, resolved at compile time so the test
/// fails to build if a binary is renamed without updating the list.
const BINS: &[(&str, &str)] = &[
    ("ablations", env!("CARGO_BIN_EXE_ablations")),
    ("figure7", env!("CARGO_BIN_EXE_figure7")),
    ("figure8", env!("CARGO_BIN_EXE_figure8")),
    ("figure9", env!("CARGO_BIN_EXE_figure9")),
    ("figure10_13", env!("CARGO_BIN_EXE_figure10_13")),
    ("figure14_16", env!("CARGO_BIN_EXE_figure14_16")),
    ("frontends", env!("CARGO_BIN_EXE_frontends")),
    ("modern_zoo", env!("CARGO_BIN_EXE_modern_zoo")),
    ("related_work", env!("CARGO_BIN_EXE_related_work")),
    ("sampling", env!("CARGO_BIN_EXE_sampling")),
    ("scaling", env!("CARGO_BIN_EXE_scaling")),
    ("section3", env!("CARGO_BIN_EXE_section3")),
    ("simulator_study", env!("CARGO_BIN_EXE_simulator_study")),
    ("superlen", env!("CARGO_BIN_EXE_superlen")),
    ("table1_4", env!("CARGO_BIN_EXE_table1_4")),
    ("table5", env!("CARGO_BIN_EXE_table5")),
    ("table8", env!("CARGO_BIN_EXE_table8")),
    ("table9_10", env!("CARGO_BIN_EXE_table9_10")),
];

/// A line is a table row if it has a label and its last column parses as
/// a number (`print_table` emits right-aligned numeric columns).
fn has_numeric_row(stdout: &str) -> bool {
    stdout.lines().any(|line| {
        let mut fields = line.split_whitespace();
        matches!(
            (fields.next(), fields.next_back()),
            (Some(_), Some(last)) if last.parse::<f64>().is_ok()
        )
    })
}

/// Runs one binary with `IVM_SMOKE=1 IVM_JSON=1` (JSON redirected to a
/// per-binary temp dir) and returns an error description on any failure.
fn run_smoke(name: &str, path: &str) -> Result<(), String> {
    let json_dir =
        std::env::temp_dir().join(format!("ivm-bin-smoke-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&json_dir);
    let out = Command::new(path)
        .env("IVM_SMOKE", "1")
        .env("IVM_JSON", "1")
        .env("IVM_JSON_DIR", &json_dir)
        .output()
        .map_err(|e| format!("{name}: failed to spawn: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "{name}: exited with {:?}\nstderr:\n{}",
            out.status.code(),
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !has_numeric_row(&stdout) {
        return Err(format!("{name}: no parseable numeric table row in output:\n{stdout}"));
    }
    let result = check_json_report(name, &json_dir);
    let _ = std::fs::remove_dir_all(&json_dir);
    result
}

/// The JSON report must be the only file the run wrote, parse, and carry
/// a manifest naming this binary with smoke mode recorded.
fn check_json_report(name: &str, json_dir: &std::path::Path) -> Result<(), String> {
    let mut written: Vec<String> = std::fs::read_dir(json_dir)
        .map_err(|e| format!("{name}: no JSON directory {}: {e}", json_dir.display()))?
        .map(|entry| entry.map(|e| e.file_name().to_string_lossy().into_owned()))
        .collect::<Result<_, _>>()
        .map_err(|e| format!("{name}: unreadable JSON directory: {e}"))?;
    written.sort();
    if written != [format!("{name}.json")] {
        return Err(format!("{name}: expected only {name}.json, the run wrote {written:?}"));
    }
    let path = json_dir.join(format!("{name}.json"));
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("{name}: missing JSON report {}: {e}", path.display()))?;
    let doc = ivm_obs::parse(&text).map_err(|e| format!("{name}: invalid JSON report: {e}"))?;
    let manifest =
        doc.get("manifest").ok_or_else(|| format!("{name}: JSON report has no manifest"))?;
    if manifest.get("report").and_then(Json::as_str) != Some(name) {
        return Err(format!("{name}: manifest names {:?}", manifest.get("report")));
    }
    if manifest.get("smoke") != Some(&Json::Bool(true)) {
        return Err(format!("{name}: manifest does not record smoke mode"));
    }
    if doc.get("tables").and_then(Json::as_arr).is_none() {
        return Err(format!("{name}: JSON report has no tables array"));
    }
    // Every report binary routes its grid through the parallel executor,
    // so the manifest must carry executor metadata.
    let executor = manifest
        .get("executor")
        .ok_or_else(|| format!("{name}: manifest has no executor section"))?;
    match executor.get("jobs").and_then(Json::as_f64) {
        Some(jobs) if jobs >= 1.0 => {}
        other => return Err(format!("{name}: executor section has bad job count {other:?}")),
    }
    check_phases_section(name, manifest)
}

/// Every binary routes work through span-instrumented phases, so the
/// manifest must carry a non-empty `phases` section whose entries are
/// well formed: a name, a positive call count, and numeric wall times
/// with `self <= total`.
fn check_phases_section(name: &str, manifest: &Json) -> Result<(), String> {
    let phases = manifest
        .get("phases")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{name}: manifest has no phases array"))?;
    if phases.is_empty() {
        return Err(format!("{name}: manifest phases section is empty"));
    }
    for phase in phases {
        let pname = phase
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{name}: phase entry without a name: {phase}"))?;
        let field = |key: &str| {
            phase
                .get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("{name}: phase {pname:?} has no numeric {key:?}"))
        };
        if field("count")? < 1.0 {
            return Err(format!("{name}: phase {pname:?} has a zero call count"));
        }
        let (total, own, in_cell) =
            (field("total_ms")?, field("self_ms")?, field("in_cell_self_ms")?);
        if own > total || in_cell > own {
            return Err(format!(
                "{name}: phase {pname:?} times are inconsistent \
                 (total {total}, self {own}, in-cell {in_cell})"
            ));
        }
    }
    Ok(())
}

#[test]
fn every_binary_runs_under_smoke_workload() {
    // All binaries run as one executor cell each, with one worker per
    // binary regardless of IVM_JOBS: the work here is subprocesses, so the
    // wall time is the slowest binary, not the sum.
    let cells: Vec<Cell<&str>> =
        BINS.iter().map(|&(name, path)| Cell::new(format!("smoke/{name}"), path)).collect();
    let (results, _) = run_cells_with(BINS.len(), &cells, |cell, ctx| {
        let name = ctx.id().rsplit('/').next().expect("id has a name segment").to_owned();
        run_smoke(&name, cell.input)
    })
    .expect("no smoke cell panics");
    let failures: Vec<String> = results.into_iter().filter_map(Result::err).collect();
    assert!(failures.is_empty(), "binaries failed under IVM_SMOKE=1:\n{}", failures.join("\n"));
}
