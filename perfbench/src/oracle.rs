//! The correctness oracle: committed report tables and the tally of
//! cells whose simulated statistics differ from their reference.

use std::path::Path;

/// One text table as `ivm_bench::print_table` prints it: a title line,
/// a header line, then rows of a 24-column label and numeric values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table {
    /// The title line.
    pub title: String,
    /// Column headers split at whitespace (exact for headers without
    /// spaces, such as predictor names).
    pub header: Vec<String>,
    /// Row label and the printed values, in order.
    pub rows: Vec<(String, Vec<String>)>,
}

const LABEL_WIDTH: usize = 24;

/// Parses every table in a report's text output.
pub fn tables(text: &str) -> Vec<Table> {
    let lines: Vec<&str> = text.lines().collect();
    let mut out = Vec::new();
    let mut i = 0;
    while i + 1 < lines.len() {
        let (title, header) = (lines[i], lines[i + 1]);
        let is_table = !title.is_empty()
            && !title.starts_with(' ')
            && header.len() > LABEL_WIDTH
            && header[..LABEL_WIDTH].trim().is_empty();
        if !is_table {
            i += 1;
            continue;
        }
        let mut rows = Vec::new();
        i += 2;
        while i < lines.len()
            && lines[i].len() > LABEL_WIDTH
            && lines[i].is_char_boundary(LABEL_WIDTH)
        {
            let (label, values) = lines[i].split_at(LABEL_WIDTH);
            rows.push((
                label.trim().to_owned(),
                values.split_whitespace().map(String::from).collect(),
            ));
            i += 1;
        }
        let header = header.split_whitespace().map(String::from).collect();
        out.push(Table { title: title.to_owned(), header, rows });
    }
    out
}

/// Reads and parses `results/<name>.txt` under `root`.
pub fn load(root: &Path, name: &str) -> Result<Vec<Table>, String> {
    let path = root.join("results").join(format!("{name}.txt"));
    std::fs::read_to_string(&path)
        .map(|t| tables(&t))
        .map_err(|e| format!("reading {}: {e}", path.display()))
}

/// The first table whose title satisfies `pred`.
pub fn find(tables: &[Table], pred: impl Fn(&str) -> bool) -> Option<&Table> {
    tables.iter().find(|t| pred(&t.title))
}

/// True when `value`, printed with as many decimals as `reference`
/// shows, reads exactly as `reference`.
pub fn matches(reference: &str, value: f64) -> bool {
    let decimals = reference.split_once('.').map_or(0, |(_, frac)| frac.len());
    format!("{value:.decimals$}") == reference
}

/// Cells attempted and cells whose statistics differ from the reference.
#[derive(Debug, Default)]
pub struct Tally {
    /// Cells checked.
    pub attempted: u64,
    /// Cells that differed.
    pub failed: u64,
    /// The first few failures, for the log.
    pub failures: Vec<String>,
}

impl Tally {
    /// Counts one checked cell; `describe` names it if it failed.
    pub fn cell(&mut self, ok: bool, describe: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 20 {
                self.failures.push(describe());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
Gforth bench-gc: misprediction rate (%), modern zoo
                         path-hybrid ittage-small
plain                           3.2        1.5
static repl                     2.2        4.4

Crossover reading:
  - forth/bench-gc: static replication still pays
";

    #[test]
    fn parses_titles_labels_and_values() {
        let t = tables(SAMPLE);
        assert_eq!(t.len(), 1);
        assert_eq!(t[0].title, "Gforth bench-gc: misprediction rate (%), modern zoo");
        assert_eq!(t[0].header, ["path-hybrid", "ittage-small"]);
        assert_eq!(t[0].rows[1], ("static repl".to_owned(), vec!["2.2".into(), "4.4".into()]));
        assert!(find(&t, |title| title.contains("modern zoo")).is_some());
    }

    #[test]
    fn matches_at_the_printed_precision_only() {
        assert!(matches("59.7", 59.703));
        assert!(matches("0.281", 0.28071));
        assert!(!matches("59.7", 59.76));
        assert!(matches("12", 12.0));
    }

    #[test]
    fn an_injected_mismatch_is_counted() {
        let t = tables(SAMPLE);
        let measured = [[3.2, 1.5], [2.2, 4.4]];
        let mut tally = Tally::default();
        let mut check = |measured: &[[f64; 2]; 2]| {
            for ((label, refs), row) in t[0].rows.iter().zip(measured) {
                let ok = refs.iter().zip(row).all(|(r, &v)| matches(r, v));
                tally.cell(ok, || label.clone());
            }
        };
        check(&measured);
        let mut injected = measured;
        injected[1][0] += 0.1;
        check(&injected);
        assert_eq!((tally.attempted, tally.failed), (4, 1));
        assert_eq!(tally.failures, ["static repl"]);
    }
}
