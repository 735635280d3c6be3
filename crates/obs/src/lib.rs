//! Observability for the interpreter-dispatch simulator.
//!
//! The paper's argument is built entirely on measurement — misprediction
//! counts, cache misses, cycles per technique — so this crate makes every
//! measurement in the workspace machine-readable and attributable:
//!
//! * [`DispatchAttribution`] — the attribution sink breaking
//!   mispredictions down per VM opcode, per instance and per BTB set.
//! * [`RunManifest`] — the provenance block (workspace version, smoke
//!   mode, `IVM_*` env overrides, executor, trace-store and phase
//!   sections) attached to every report.
//! * [`span`] — phase-attributed wall-time profiling of the pipeline
//!   itself: aggregation of the span stream recorded through
//!   `ivm_harness::span` guards into per-phase statistics (the
//!   manifest's `phases` section).
//! * [`Json`] — the zero-dependency JSON value/writer/parser everything
//!   above serialises through.
//!
//! "Zero-dependency" here means no crates from outside this workspace:
//! the only dependencies are `ivm-bpred`, `ivm-cache`, `ivm-core` and
//! `ivm-harness`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod attrib;
mod json;
mod manifest;
pub mod span;

pub use attrib::{ittage_breakdown_json, DispatchAttribution, OpTally, SetConflict, Tally};
pub use json::{parse, Json, ParseError};
pub use manifest::{smoke_enabled, CellWall, ExecutorMeta, RunManifest, TraceMeta};
pub use span::PhaseAgg;

use std::path::PathBuf;

/// Finds the workspace root by walking up from `CARGO_MANIFEST_DIR` (set
/// by cargo for `run`/`test`/`bench` processes) or the current directory,
/// looking for a `Cargo.toml` containing a `[workspace]` section. Falls
/// back to the current directory when no workspace manifest is found.
pub fn workspace_root() -> PathBuf {
    let start = std::env::var_os("CARGO_MANIFEST_DIR")
        .map(PathBuf::from)
        .or_else(|| std::env::current_dir().ok())
        .unwrap_or_else(|| PathBuf::from("."));
    let mut dir = start.clone();
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return dir;
            }
        }
        if !dir.pop() {
            return start;
        }
    }
}

/// The directory JSON reports are written to: `IVM_JSON_DIR` when set,
/// otherwise `<workspace root>/results/json`.
pub fn results_json_dir() -> PathBuf {
    match std::env::var_os("IVM_JSON_DIR") {
        Some(dir) => PathBuf::from(dir),
        None => workspace_root().join("results").join("json"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workspace_root_contains_a_workspace_manifest() {
        let root = workspace_root();
        let text = std::fs::read_to_string(root.join("Cargo.toml")).expect("manifest");
        assert!(text.contains("[workspace]"), "found the workspace, not a member crate");
    }

    #[test]
    fn results_json_dir_is_under_the_root_by_default() {
        if std::env::var_os("IVM_JSON_DIR").is_none() {
            assert!(results_json_dir().ends_with("results/json"));
        }
    }
}
