//! Execution profiles for the static (training-based) techniques.

use std::collections::HashMap;

use crate::events::VmEvents;
use crate::program::ProgramCode;
use crate::spec::OpId;

/// A training profile: how often each opcode executed, and how often each
/// basic-block opcode sequence executed.
///
/// The paper selects static replicas and superinstructions from training
/// runs (brainless for Gforth; cross-validated SPECjvm98 members for the
/// JVM, §7.1). Profiles can be collected dynamically with
/// [`ProfileCollector`] or statically with [`Profile::from_static`] (one
/// count per occurrence, the JVM paper's "statically appearing sequences").
#[derive(Debug, Clone, Default)]
pub struct Profile {
    op_counts: HashMap<OpId, u64>,
    block_counts: HashMap<Vec<OpId>, u64>,
}

impl Profile {
    /// An empty profile.
    pub fn new() -> Self {
        Self::default()
    }

    /// A static profile of `program`: every instruction occurrence and
    /// basic-block sequence counted once.
    pub fn from_static(program: &ProgramCode) -> Self {
        let mut p = Self::new();
        for &op in program.ops() {
            *p.op_counts.entry(op).or_insert(0) += 1;
        }
        for block in program.blocks() {
            let seq: Vec<OpId> = block.map(|i| program.op(i)).collect();
            p.record_block(&seq, 1);
        }
        p
    }

    /// Records `count` executions of a basic block with the given opcode
    /// sequence.
    pub fn record_block(&mut self, seq: &[OpId], count: u64) {
        if !seq.is_empty() {
            *self.block_counts.entry(seq.to_vec()).or_insert(0) += count;
        }
    }

    /// Records `count` executions of a single opcode.
    pub fn record_op(&mut self, op: OpId, count: u64) {
        *self.op_counts.entry(op).or_insert(0) += count;
    }

    /// Iterates over `(op, count)` pairs.
    pub fn op_counts(&self) -> impl Iterator<Item = (OpId, u64)> + '_ {
        self.op_counts.iter().map(|(&op, &c)| (op, c))
    }

    /// All distinct basic-block sequences with their execution counts.
    pub fn block_counts(&self) -> impl Iterator<Item = (&[OpId], u64)> + '_ {
        self.block_counts.iter().map(|(seq, &c)| (seq.as_slice(), c))
    }

    /// Counts of every contiguous subsequence (n-gram) of length
    /// `min_len..=max_len` occurring inside profiled blocks, weighted by
    /// block execution counts. This is the candidate pool for
    /// superinstruction selection.
    pub fn ngram_counts(&self, min_len: usize, max_len: usize) -> HashMap<Vec<OpId>, u64> {
        let mut out: HashMap<Vec<OpId>, u64> = HashMap::new();
        for (seq, &count) in &self.block_counts {
            for len in min_len..=max_len.min(seq.len()) {
                for window in seq.windows(len) {
                    *out.entry(window.to_vec()).or_insert(0) += count;
                }
            }
        }
        out
    }

    /// Folds `other` into `self` (for multi-benchmark training sets).
    pub fn merge(&mut self, other: &Profile) {
        for (&op, &c) in &other.op_counts {
            *self.op_counts.entry(op).or_insert(0) += c;
        }
        for (seq, &c) in &other.block_counts {
            *self.block_counts.entry(seq.clone()).or_insert(0) += c;
        }
    }
}

/// Collects a [`Profile`] from a real execution by acting as the
/// [`VmEvents`] sink of an interpreter run.
///
/// Tracks quickening, so the resulting profile speaks in terms of *quick*
/// opcodes — exactly what static selection needs (quickable instructions
/// are too rarely executed to replicate, paper §5.4).
#[derive(Debug, Clone)]
pub struct ProfileCollector {
    ops: Vec<OpId>,
    leaders: Vec<bool>,
    current_block: Vec<OpId>,
    profile: Profile,
}

impl ProfileCollector {
    /// Creates a collector for one run of `program`.
    pub fn new(program: &ProgramCode) -> Self {
        Self {
            ops: program.ops().to_vec(),
            leaders: (0..program.len()).map(|i| program.is_leader(i)).collect(),
            current_block: Vec::new(),
            profile: Profile::new(),
        }
    }

    /// Finishes the run and extracts the profile.
    pub fn into_profile(mut self) -> Profile {
        self.flush();
        self.profile
    }

    fn flush(&mut self) {
        if !self.current_block.is_empty() {
            let seq = std::mem::take(&mut self.current_block);
            self.profile.record_block(&seq, 1);
        }
    }

    fn exec(&mut self, i: usize) {
        let op = self.ops[i];
        self.profile.record_op(op, 1);
        self.current_block.push(op);
    }
}

impl VmEvents for ProfileCollector {
    fn begin(&mut self, entry: usize) {
        self.flush();
        self.exec(entry);
    }

    fn transfer(&mut self, _from: usize, to: usize, taken: bool) {
        if taken || self.leaders[to] {
            self.flush();
        }
        self.exec(to);
    }

    fn quicken(&mut self, instance: usize, quick_op: OpId) {
        self.ops[instance] = quick_op;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::native::{InstKind, NativeSpec};
    use crate::spec::VmSpec;

    fn build() -> (VmSpec, ProgramCode, OpId, OpId, OpId) {
        let mut b = VmSpec::builder("t");
        let a = b.inst("a", NativeSpec::new(1, 4, InstKind::Plain));
        let c = b.inst("c", NativeSpec::new(1, 4, InstKind::CondBranch));
        let r = b.inst("r", NativeSpec::new(1, 4, InstKind::Return));
        let spec = b.build();
        let mut p = ProgramCode::builder("t");
        p.push(a, None);
        p.push(a, None);
        p.push(c, Some(0));
        p.push(r, None);
        let p = p.finish(&spec);
        (spec, p, a, c, r)
    }

    fn op_count(prof: &Profile, op: OpId) -> u64 {
        prof.op_counts().find(|&(o, _)| o == op).map_or(0, |(_, c)| c)
    }

    #[test]
    fn static_profile_counts_occurrences() {
        let (_, p, a, c, r) = build();
        let prof = Profile::from_static(&p);
        assert_eq!(op_count(&prof, a), 2);
        assert_eq!(op_count(&prof, c), 1);
        assert_eq!(op_count(&prof, r), 1);
        assert_eq!(prof.op_counts().map(|(_, c)| c).sum::<u64>(), 4);
        // Two blocks: [a a c] and [r].
        assert_eq!(prof.block_counts().count(), 2);
    }

    #[test]
    fn ngrams_expand_blocks() {
        let (_, p, a, c, _) = build();
        let prof = Profile::from_static(&p);
        let grams = prof.ngram_counts(2, 3);
        assert_eq!(grams.get(&vec![a, a]).copied(), Some(1));
        assert_eq!(grams.get(&vec![a, c]).copied(), Some(1));
        assert_eq!(grams.get(&vec![a, a, c]).copied(), Some(1));
        assert_eq!(grams.len(), 3);
    }

    #[test]
    fn collector_simulates_loop() {
        let (_, p, a, c, r) = build();
        let mut col = ProfileCollector::new(&p);
        // Execute the loop twice then fall out to r.
        col.begin(0);
        col.transfer(0, 1, false);
        col.transfer(1, 2, false);
        col.transfer(2, 0, true); // taken back edge
        col.transfer(0, 1, false);
        col.transfer(1, 2, false);
        col.transfer(2, 3, false); // falls through into leader 3
        let prof = col.into_profile();
        assert_eq!(op_count(&prof, a), 4);
        assert_eq!(op_count(&prof, c), 2);
        assert_eq!(op_count(&prof, r), 1);
        // Block [a a c] executed twice, [r] once.
        let blocks: HashMap<_, _> = prof.block_counts().map(|(s, n)| (s.to_vec(), n)).collect();
        assert_eq!(blocks.get(&vec![a, a, c]).copied(), Some(2));
        assert_eq!(blocks.get(&vec![r]).copied(), Some(1));
    }

    #[test]
    fn collector_tracks_quickening() {
        let (_, p, a, _, _) = build();
        let mut col = ProfileCollector::new(&p);
        col.begin(0);
        col.quicken(1, a); // pretend instance 1 quickened (op unchanged here)
        col.transfer(0, 1, false);
        let prof = col.into_profile();
        assert_eq!(op_count(&prof, a), 2);
    }

    #[test]
    fn merge_adds_counts() {
        let (_, p, a, ..) = build();
        let mut x = Profile::from_static(&p);
        let y = Profile::from_static(&p);
        x.merge(&y);
        assert_eq!(op_count(&x, a), 4);
    }
}

impl Profile {
    /// The profile's canonical text form: sorted `op <id> <count>` lines,
    /// then sorted `block <id,id,...> <count>` lines, so equal counts give
    /// equal text whatever order they were recorded in. It is the form
    /// `dispatch_spec_hash` folds into a trace's invalidation hash, not a
    /// storage format: nothing parses it back.
    pub(crate) fn to_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let mut ops: Vec<(OpId, u64)> = self.op_counts().collect();
        ops.sort_unstable();
        for (op, count) in ops {
            let _ = writeln!(out, "op {op} {count}");
        }
        let mut blocks: Vec<(&[OpId], u64)> = self.block_counts().collect();
        blocks.sort_unstable();
        for (seq, count) in blocks {
            let ids: Vec<String> = seq.iter().map(|o| o.to_string()).collect();
            let _ = writeln!(out, "block {} {count}", ids.join(","));
        }
        out
    }
}

#[cfg(test)]
mod text_form_tests {
    use super::*;

    #[test]
    fn text_form_is_canonical() {
        let mut p = Profile::new();
        p.record_op(3, 100);
        p.record_op(7, 5);
        p.record_block(&[3, 7], 42);
        p.record_block(&[7, 7, 3], 1);
        // The same counts recorded in the opposite order hash alike.
        let mut q = Profile::new();
        q.record_block(&[7, 7, 3], 1);
        q.record_block(&[3, 7], 42);
        q.record_op(7, 5);
        q.record_op(3, 100);
        assert_eq!(p.to_text(), q.to_text());
        assert_eq!(p.to_text(), "op 3 100\nop 7 5\nblock 3,7 42\nblock 7,7,3 1\n");
        // A changed count changes the text.
        q.record_op(3, 1);
        assert_ne!(p.to_text(), q.to_text());
    }
}
