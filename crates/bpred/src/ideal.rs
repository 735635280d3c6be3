//! The idealised branch target buffer of paper Figure 3.

use std::collections::hash_map::Entry;

use crate::hash::AddrMap;
use crate::{Addr, IndirectPredictor};

/// An idealised BTB: one entry per branch, no capacity or conflict misses.
///
/// Predicts that every indirect branch jumps to the same target as on its
/// previous execution (paper §2.2). This isolates the *inherent*
/// (mis)prediction behaviour of an interpreter's dispatch from finite-BTB
/// effects, and is what the paper's hand traces (Tables I–IV) assume.
///
/// # Examples
///
/// ```
/// use ivm_bpred::{IdealBtb, IndirectPredictor};
///
/// let mut btb = IdealBtb::new();
/// btb.predict_and_update(0x40, 0x100);
/// assert!(btb.predict_and_update(0x40, 0x100)); // repeats: predicted
/// assert!(!btb.predict_and_update(0x40, 0x200)); // changed: mispredicted
/// ```
#[derive(Debug, Clone, Default)]
pub struct IdealBtb {
    entries: AddrMap<Addr>,
}

impl IdealBtb {
    /// Creates an empty idealised BTB.
    pub fn new() -> Self {
        Self::default()
    }

    /// The currently predicted target for `branch`, if it has been seen.
    pub fn predicted_target(&self, branch: Addr) -> Option<Addr> {
        self.entries.get(&branch).copied()
    }
}

impl IndirectPredictor for IdealBtb {
    fn predict_and_update(&mut self, branch: Addr, target: Addr) -> bool {
        // One hash lookup per dispatch: probe and update through the
        // same entry.
        match self.entries.entry(branch) {
            Entry::Occupied(mut e) => {
                let hit = *e.get() == target;
                e.insert(target);
                hit
            }
            Entry::Vacant(v) => {
                v.insert(target);
                false
            }
        }
    }

    fn describe(&self) -> String {
        "ideal-btb".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_miss_then_hit() {
        let mut btb = IdealBtb::new();
        assert!(!btb.predict_and_update(1, 10));
        assert!(btb.predict_and_update(1, 10));
    }

    #[test]
    fn separate_branches_do_not_interfere() {
        let mut btb = IdealBtb::new();
        btb.predict_and_update(1, 10);
        btb.predict_and_update(2, 20);
        assert!(btb.predict_and_update(1, 10));
        assert!(btb.predict_and_update(2, 20));
    }

    #[test]
    fn alternating_targets_always_mispredict() {
        // The switch-dispatch pathology of paper Table I: one branch, ever
        // changing targets.
        let mut btb = IdealBtb::new();
        let mut hits = 0;
        for i in 0..100 {
            if btb.predict_and_update(7, if i % 2 == 0 { 100 } else { 200 }) {
                hits += 1;
            }
        }
        assert_eq!(hits, 0);
    }

    #[test]
    fn predicted_target_reflects_last_execution() {
        let mut btb = IdealBtb::new();
        assert_eq!(btb.predicted_target(5), None);
        btb.predict_and_update(5, 50);
        assert_eq!(btb.predicted_target(5), Some(50));
        btb.predict_and_update(5, 60);
        assert_eq!(btb.predicted_target(5), Some(60));
    }
}
