//! The span tracer's own report is well formed: `where_time_goes`
//! accounts for the full cell wall. (That spans never steer results is
//! shown by the byte-identical `results/*.txt` regeneration and the
//! `IVM_JOBS` 1-vs-4 determinism check, whose runs differ in every wall
//! time.)

use std::process::Command;

/// The `where_time_goes` table must account for the entire cell wall:
/// its `% cellwall` column (every phase's in-cell self time plus the
/// untracked remainder) sums to 100%.
#[test]
fn where_time_goes_percentages_sum_to_the_whole_cell_wall() {
    let out = Command::new(env!("CARGO_BIN_EXE_where_time_goes"))
        .env("IVM_SMOKE", "1")
        .env("IVM_JOBS", "3")
        .env_remove("IVM_JSON")
        .output()
        .expect("where_time_goes spawns");
    assert!(
        out.status.success(),
        "where_time_goes failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);

    // The phase table: skip down to its title, then its header, then sum
    // the last (percentage) column of every row until the blank line.
    let mut lines = stdout.lines();
    lines.find(|l| l.starts_with("Where the time goes")).expect("phase table title printed");
    let _header = lines.next().expect("phase table header printed");
    let mut sum = 0.0;
    let mut rows = 0;
    for line in lines.by_ref() {
        if line.trim().is_empty() {
            break;
        }
        let pct: f64 = line
            .split_whitespace()
            .next_back()
            .expect("table row has columns")
            .parse()
            .expect("last column is the percentage");
        sum += pct;
        rows += 1;
    }
    assert!(rows >= 5, "expected several phase rows, got {rows}:\n{stdout}");
    assert!((sum - 100.0).abs() < 0.5, "phase percentages sum to {sum}, not ~100:\n{stdout}");
}
