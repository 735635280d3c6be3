//! VM-code programs as seen by the dispatch translator.
//!
//! The translator does not care about operand values or semantics — only
//! about the opcode stream, its basic-block structure, and which instances
//! are dispatch targets. The interpreting VM keeps its operand tables
//! aligned with the same instance indices.

use crate::native::InstKind;
use crate::spec::{OpId, VmSpec};

/// The opcode stream and control-flow shape of a loaded VM program.
///
/// # Examples
///
/// ```
/// use ivm_core::{ProgramCode, VmSpec, NativeSpec, InstKind};
///
/// let mut b = VmSpec::builder("demo");
/// let lit = b.inst("lit", NativeSpec::new(2, 6, InstKind::Plain));
/// let beq = b.inst("beq", NativeSpec::new(3, 12, InstKind::CondBranch));
/// let halt = b.inst("halt", NativeSpec::new(1, 4, InstKind::Return));
/// let spec = b.build();
///
/// let mut p = ProgramCode::builder("loop");
/// p.push(lit, None);          // 0
/// p.push(beq, Some(0));       // 1: loop back to 0
/// p.push(halt, None);         // 2
/// let p = p.finish(&spec);
/// assert_eq!(p.len(), 3);
/// assert!(p.is_leader(0) && !p.is_leader(1) && p.is_leader(2));
/// assert_eq!(p.blocks().count(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct ProgramCode {
    name: String,
    ops: Vec<OpId>,
    targets: Vec<Option<u32>>,
    extra_entries: Vec<u32>,
    leaders: Vec<bool>,
    block_starts: Vec<u32>,
}

/// Builder state for [`ProgramCode`] (returned by [`ProgramCode::builder`]).
#[derive(Debug, Clone)]
pub struct ProgramBuilder {
    name: String,
    ops: Vec<OpId>,
    targets: Vec<Option<u32>>,
    extra_entries: Vec<u32>,
}

impl ProgramCode {
    /// Starts building a program called `name`.
    pub fn builder(name: impl Into<String>) -> ProgramBuilder {
        ProgramBuilder {
            name: name.into(),
            ops: Vec::new(),
            targets: Vec::new(),
            extra_entries: Vec::new(),
        }
    }

    /// The program's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of VM instruction instances.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the program is empty (never true for a finished program).
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// The opcode at instance `i`.
    pub fn op(&self, i: usize) -> OpId {
        self.ops[i]
    }

    /// All opcodes in instance order.
    pub fn ops(&self) -> &[OpId] {
        &self.ops
    }

    /// The static control target of instance `i` (for branches, jumps and
    /// calls).
    pub fn target(&self, i: usize) -> Option<usize> {
        self.targets[i].map(|t| t as usize)
    }

    /// Whether instance `i` starts a basic block.
    pub fn is_leader(&self, i: usize) -> bool {
        self.leaders[i]
    }

    /// Iterates over basic blocks as instance ranges.
    pub fn blocks(&self) -> impl Iterator<Item = std::ops::Range<usize>> + '_ {
        let n = self.ops.len();
        self.block_starts.iter().enumerate().map(move |(bi, &s)| {
            let end = self.block_starts.get(bi + 1).map(|&e| e as usize).unwrap_or(n);
            (s as usize)..end
        })
    }

    /// Function entry points and other addresses reachable only via
    /// dispatch (beyond branch targets).
    pub fn extra_entries(&self) -> &[u32] {
        &self.extra_entries
    }
}

impl ProgramBuilder {
    /// Appends an instance of `op`, with `target` set for control
    /// instructions with a static destination. Returns the instance index.
    pub fn push(&mut self, op: OpId, target: Option<u32>) -> u32 {
        let i = self.ops.len() as u32;
        self.ops.push(op);
        self.targets.push(target);
        i
    }

    /// Number of instances pushed so far (the index the next push returns).
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether nothing has been pushed.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Patches the target of an already-pushed instance (for forward
    /// branches resolved later by a front end).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn patch_target(&mut self, i: u32, target: u32) {
        self.targets[i as usize] = Some(target);
    }

    /// Marks instance `i` as an entry point reachable by dispatch (function
    /// entries, exception handlers).
    pub fn mark_entry(&mut self, i: u32) {
        self.extra_entries.push(i);
    }

    /// Computes leaders and basic blocks and validates the program against
    /// `spec`.
    ///
    /// # Panics
    ///
    /// Panics if the program is empty, a control instruction other than a
    /// return lacks a target, a target is out of range, or a control
    /// instruction with a static target points past the end.
    pub fn finish(self, spec: &VmSpec) -> ProgramCode {
        assert!(!self.ops.is_empty(), "program must have at least one instruction");
        let n = self.ops.len();
        let mut leaders = vec![false; n];
        leaders[0] = true;
        for &e in &self.extra_entries {
            leaders[e as usize] = true;
        }
        for (i, (&op, &target)) in self.ops.iter().zip(&self.targets).enumerate() {
            let kind = spec.native(op).kind;
            match kind {
                InstKind::CondBranch | InstKind::Jump => {
                    let t = target
                        .unwrap_or_else(|| panic!("{} at {} needs a target", spec.name(op), i))
                        as usize;
                    assert!(t < n, "target {t} of instance {i} out of range");
                    leaders[t] = true;
                }
                InstKind::Call => {
                    // A call with no static target is a virtual/computed
                    // call; its possible targets must be marked as entry
                    // points by the front end.
                    if let Some(t) = target {
                        let t = t as usize;
                        assert!(t < n, "target {t} of instance {i} out of range");
                        leaders[t] = true;
                    }
                }
                InstKind::Return => {
                    assert!(target.is_none(), "return at {i} cannot have a target");
                }
                InstKind::Plain | InstKind::Quickable => {}
            }
            if kind.is_control() && i + 1 < n {
                leaders[i + 1] = true;
            }
        }
        let block_starts: Vec<u32> =
            leaders.iter().enumerate().filter_map(|(i, &l)| l.then_some(i as u32)).collect();
        ProgramCode {
            name: self.name,
            ops: self.ops,
            targets: self.targets,
            extra_entries: self.extra_entries,
            leaders,
            block_starts,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::native::NativeSpec;

    fn spec() -> (VmSpec, OpId, OpId, OpId, OpId, OpId) {
        let mut b = VmSpec::builder("t");
        let plain = b.inst("plain", NativeSpec::new(2, 6, InstKind::Plain));
        let cond = b.inst("cond", NativeSpec::new(3, 12, InstKind::CondBranch));
        let jump = b.inst("jump", NativeSpec::new(2, 8, InstKind::Jump));
        let call = b.inst("call", NativeSpec::new(4, 14, InstKind::Call));
        let ret = b.inst("ret", NativeSpec::new(3, 10, InstKind::Return));
        (b.build(), plain, cond, jump, call, ret)
    }

    #[test]
    fn straightline_is_one_block() {
        let (s, plain, _, _, _, ret) = spec();
        let mut p = ProgramCode::builder("s");
        p.push(plain, None);
        p.push(plain, None);
        p.push(ret, None);
        let p = p.finish(&s);
        assert_eq!(p.blocks().collect::<Vec<_>>(), vec![0..3]);
    }

    #[test]
    fn branch_splits_blocks() {
        let (s, plain, cond, _, _, ret) = spec();
        let mut p = ProgramCode::builder("b");
        p.push(plain, None); // 0
        p.push(cond, Some(0)); // 1 -> 0
        p.push(plain, None); // 2 (leader: after control)
        p.push(ret, None); // 3
        let p = p.finish(&s);
        assert!(p.is_leader(0));
        assert!(!p.is_leader(1));
        assert!(p.is_leader(2));
        assert_eq!(p.blocks().collect::<Vec<_>>(), vec![0..2, 2..4]);
    }

    #[test]
    fn call_target_and_entry_are_leaders() {
        let (s, plain, _, _, call, ret) = spec();
        let mut p = ProgramCode::builder("c");
        p.push(call, Some(2)); // 0
        p.push(ret, None); // 1 (program "exit")
        let f = p.push(plain, None); // 2: function body
        p.push(ret, None); // 3
        p.mark_entry(f);
        let p = p.finish(&s);
        assert!(p.is_leader(2));
        assert!(p.is_leader(1)); // after a call
        assert_eq!(p.extra_entries(), &[2]);
    }

    #[test]
    fn forward_branch_via_patch() {
        let (s, plain, cond, _, _, ret) = spec();
        let mut p = ProgramCode::builder("f");
        let br = p.push(cond, None);
        p.push(plain, None);
        let t = p.push(ret, None);
        p.patch_target(br, t);
        let p = p.finish(&s);
        assert_eq!(p.target(0), Some(2));
        assert!(p.is_leader(2));
    }

    #[test]
    #[should_panic(expected = "needs a target")]
    fn missing_target_rejected() {
        let (s, _, cond, _, _, _) = spec();
        let mut p = ProgramCode::builder("bad");
        p.push(cond, None);
        let _ = p.finish(&s);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_target_rejected() {
        let (s, _, _, jump, _, _) = spec();
        let mut p = ProgramCode::builder("bad");
        p.push(jump, Some(17));
        let _ = p.finish(&s);
    }

    #[test]
    #[should_panic(expected = "at least one instruction")]
    fn empty_program_rejected() {
        let (s, ..) = spec();
        let _ = ProgramCode::builder("empty").finish(&s);
    }

    #[test]
    fn jump_successor_is_leader() {
        let (s, plain, _, jump, _, ret) = spec();
        let mut p = ProgramCode::builder("j");
        p.push(jump, Some(2)); // 0
        p.push(plain, None); // 1: dead but still a leader
        p.push(ret, None); // 2
        let p = p.finish(&s);
        assert!(p.is_leader(1));
        assert!(p.is_leader(2));
        assert_eq!(p.blocks().count(), 3);
    }
}
