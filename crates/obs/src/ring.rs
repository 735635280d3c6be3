//! A bounded ring buffer of dispatch records, exportable as JSONL.

use std::collections::VecDeque;

use ivm_bpred::Addr;

use crate::json::Json;

/// One recorded dispatch: the raw event an engine observer sees.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DispatchRecord {
    /// Monotonic sequence number across the whole run (not just the
    /// retained window).
    pub seq: u64,
    /// Instance owning the dispatch branch.
    pub from: usize,
    /// Instance dispatched to.
    pub to: usize,
    /// Simulated address of the dispatch branch.
    pub branch: Addr,
    /// Simulated target address.
    pub target: Addr,
    /// Whether the predictor missed.
    pub mispredicted: bool,
}

impl DispatchRecord {
    fn to_json(self) -> Json {
        Json::obj()
            .with("seq", self.seq)
            .with("from", self.from)
            .with("to", self.to)
            .with("branch", self.branch)
            .with("target", self.target)
            .with("mispredicted", self.mispredicted)
    }
}

/// Keeps the last `capacity` dispatches of a run. Pushing is O(1); the
/// total number of dispatches ever seen stays available even after old
/// records fall out of the window.
///
/// # Examples
///
/// ```
/// use ivm_obs::DispatchRing;
///
/// let mut ring = DispatchRing::new(2);
/// for i in 0..5 {
///     ring.record(i, i + 1, 100, 200, false);
/// }
/// assert_eq!(ring.total_recorded(), 5);
/// assert_eq!(ring.len(), 2); // only the last two retained
/// assert_eq!(ring.iter().next().unwrap().seq, 3);
/// ```
#[derive(Debug, Clone, Default)]
pub struct DispatchRing {
    capacity: usize,
    next_seq: u64,
    buf: VecDeque<DispatchRecord>,
}

impl DispatchRing {
    /// A ring retaining at most `capacity` records.
    pub fn new(capacity: usize) -> Self {
        Self { capacity, next_seq: 0, buf: VecDeque::with_capacity(capacity.min(4096)) }
    }

    /// Appends a dispatch, evicting the oldest record when full.
    pub fn record(&mut self, from: usize, to: usize, branch: Addr, target: Addr, miss: bool) {
        let rec =
            DispatchRecord { seq: self.next_seq, from, to, branch, target, mispredicted: miss };
        self.next_seq += 1;
        if self.capacity == 0 {
            return;
        }
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
        }
        self.buf.push_back(rec);
    }

    /// Records currently retained.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// The retention capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Total dispatches ever recorded (including evicted ones).
    pub fn total_recorded(&self) -> u64 {
        self.next_seq
    }

    /// Iterates retained records, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &DispatchRecord> {
        self.buf.iter()
    }

    /// Serialises the retained window as JSON Lines (one record per line,
    /// oldest first, trailing newline).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for rec in &self.buf {
            out.push_str(&rec.to_json().to_json());
            out.push('\n');
        }
        out
    }

    /// Writes the JSONL export to `path`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from creating or writing the file.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        std::fs::write(path, self.to_jsonl())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    #[test]
    fn eviction_keeps_only_the_tail() {
        let mut ring = DispatchRing::new(3);
        for i in 0..10u64 {
            ring.record(i as usize, 0, i, 2 * i, i % 2 == 0);
        }
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.total_recorded(), 10);
        let seqs: Vec<u64> = ring.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![7, 8, 9]);
    }

    #[test]
    fn zero_capacity_counts_but_retains_nothing() {
        let mut ring = DispatchRing::new(0);
        ring.record(0, 1, 2, 3, true);
        assert!(ring.is_empty());
        assert_eq!(ring.total_recorded(), 1);
        assert_eq!(ring.to_jsonl(), "");
    }

    #[test]
    fn jsonl_lines_parse_individually() {
        let mut ring = DispatchRing::new(8);
        ring.record(4, 5, 0x100, 0x200, true);
        ring.record(5, 6, 0x110, 0x210, false);
        let text = ring.to_jsonl();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let first = parse(lines[0]).unwrap();
        assert_eq!(first.get("from").and_then(Json::as_f64), Some(4.0));
        assert_eq!(first.get("mispredicted"), Some(&Json::Bool(true)));
        let second = parse(lines[1]).unwrap();
        assert_eq!(second.get("seq").and_then(Json::as_f64), Some(1.0));
    }

    #[test]
    fn jsonl_at_exact_capacity_exports_every_record_unevicted() {
        let mut ring = DispatchRing::new(4);
        for i in 0..4u64 {
            ring.record(i as usize, i as usize + 1, 0x40 + i, 0x80 + i, false);
        }
        // Exactly full: nothing evicted yet, the export is the whole
        // history in insertion order with a trailing newline.
        assert_eq!(ring.len(), ring.capacity());
        assert_eq!(ring.total_recorded(), 4);
        let text = ring.to_jsonl();
        assert!(text.ends_with('\n'));
        let seqs: Vec<f64> = text
            .lines()
            .map(|l| parse(l).unwrap().get("seq").and_then(Json::as_f64).unwrap())
            .collect();
        assert_eq!(seqs, vec![0.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn jsonl_one_past_capacity_drops_exactly_the_oldest() {
        let mut ring = DispatchRing::new(4);
        for i in 0..5u64 {
            ring.record(0, 1, i, i, i == 4);
        }
        // One wraparound step: seq 0 fell out, 1..=4 remain, and the
        // export agrees with the iterator line for line.
        assert_eq!(ring.len(), 4);
        assert_eq!(ring.total_recorded(), 5);
        let parsed: Vec<Json> = ring.to_jsonl().lines().map(|l| parse(l).unwrap()).collect();
        let seqs: Vec<f64> =
            parsed.iter().map(|r| r.get("seq").and_then(Json::as_f64).unwrap()).collect();
        assert_eq!(seqs, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(parsed.len(), ring.iter().count());
        assert_eq!(
            parsed.last().unwrap().get("mispredicted"),
            Some(&Json::Bool(true)),
            "the newest record is the export's last line"
        );
    }

    #[test]
    fn jsonl_after_many_wraparounds_stays_a_contiguous_window() {
        let mut ring = DispatchRing::new(3);
        for i in 0..100u64 {
            ring.record(i as usize % 7, i as usize % 5, i, i + 1, false);
        }
        let seqs: Vec<f64> = ring
            .to_jsonl()
            .lines()
            .map(|l| parse(l).unwrap().get("seq").and_then(Json::as_f64).unwrap())
            .collect();
        assert_eq!(seqs, vec![97.0, 98.0, 99.0], "the window is the last `capacity` dispatches");
        assert!(seqs.windows(2).all(|w| w[1] == w[0] + 1.0), "no gaps inside the window");
    }
}
