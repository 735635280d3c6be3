//! A path-history hybrid: the intermediate point between the paper's
//! classic predictors and ITTAGE.
//!
//! Two component tables predict in parallel — a tagless last-target
//! table (exactly the base of a BTB-class predictor) and a *path* table
//! indexed by the branch address hashed with a folded history of the
//! recent *branch-address path* rather than target history. A per-branch
//! two-bit meta counter picks the component to trust, trained toward
//! whichever component was right when they disagree. This is the
//! Driesen/Hölzle hybrid shape with TAGE-style O(1) folded-history
//! indexing: one history length, no tags, no usefulness machinery — the
//! cheapest design that adds path correlation to a last-target table,
//! which is what mid-2010s cores shipped between plain BTBs and full
//! ITTAGE.

use crate::folded::{FoldedHistory, GlobalHistory};
use crate::hash::hash_words;
use crate::{Addr, IndirectPredictor};

/// Path-history bits contributed per dispatch (hashed from the branch
/// address, i.e. the *path*, not the target).
const BITS_PER_EVENT: usize = 2;

/// Configuration for [`PathHybrid`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PathHybridConfig {
    /// log2 of each component table's size.
    pub table_bits: u32,
    /// Path-history length folded into the path component's index, in bits.
    pub history: usize,
}

impl PathHybridConfig {
    /// Two 2048-entry components with 16 bits of path history — a
    /// mid-2010s-core-class budget between the Pentium M two-level
    /// predictor and the ITTAGE points.
    pub fn classic() -> Self {
        Self { table_bits: 11, history: 16 }
    }
}

impl Default for PathHybridConfig {
    fn default() -> Self {
        Self::classic()
    }
}

/// The last-target + path-table hybrid (see module docs).
///
/// # Examples
///
/// ```
/// use ivm_bpred::{PathHybrid, PathHybridConfig, IndirectPredictor};
///
/// let mut p = PathHybrid::new(PathHybridConfig::classic());
/// assert!(!p.predict_and_update(0x10, 0xA00)); // cold miss
/// for _ in 0..8 {
///     p.predict_and_update(0x10, 0xA00);
/// }
/// assert!(p.predict_and_update(0x10, 0xA00));
/// ```
#[derive(Debug, Clone)]
pub struct PathHybrid {
    config: PathHybridConfig,
    last_target: Vec<Option<Addr>>,
    path_table: Vec<Option<Addr>>,
    /// Per-branch-slot choice counter: >= 2 trusts the path component.
    meta: Vec<u8>,
    history: GlobalHistory,
    fold: FoldedHistory,
}

impl PathHybrid {
    /// Creates an empty predictor.
    pub fn new(config: PathHybridConfig) -> Self {
        assert!(config.table_bits <= 24, "table of 2^{} entries", config.table_bits);
        assert!(config.history > 0, "path history must be positive");
        let entries = 1usize << config.table_bits;
        Self {
            config,
            last_target: vec![None; entries],
            path_table: vec![None; entries],
            meta: vec![1; entries], // weakly prefer the last-target stage
            history: GlobalHistory::new(config.history),
            fold: FoldedHistory::new(config.history, config.table_bits as usize),
        }
    }

    /// The configuration this predictor was built with.
    pub fn config(&self) -> PathHybridConfig {
        self.config
    }

    fn path_slot(&self, branch: Addr) -> usize {
        let mask = (1u64 << self.config.table_bits) - 1;
        (hash_words(&[branch, self.fold.value()]) & mask) as usize
    }

    /// Pushes the path bits of a branch whose address hashes to `hashed`.
    fn push_path(&mut self, hashed: u64) {
        // High hash bits: the multiply mixes poorly into the low bits,
        // and path entropy must survive for the fold to discriminate.
        let hashed = hashed >> (64 - BITS_PER_EVENT);
        for b in 0..BITS_PER_EVENT {
            let bit = (hashed >> b) & 1 != 0;
            let outgoing = self.history.bit(self.fold.length() - 1);
            self.history.push(bit);
            self.fold.update(bit, outgoing);
        }
    }
}

impl IndirectPredictor for PathHybrid {
    fn predict_and_update(&mut self, branch: Addr, target: Addr) -> bool {
        let hashed = hash_words(&[branch]);
        let slot = (hashed & ((1u64 << self.config.table_bits) - 1)) as usize;
        let pslot = self.path_slot(branch);
        let last_pred = self.last_target[slot];
        let path_pred = self.path_table[pslot];
        let use_path = self.meta[slot] >= 2;
        let prediction = if use_path { path_pred } else { last_pred };
        let hit = prediction == Some(target);

        // Train the chooser only when the components disagree in outcome.
        let last_correct = last_pred == Some(target);
        let path_correct = path_pred == Some(target);
        if last_correct != path_correct {
            if path_correct {
                self.meta[slot] = (self.meta[slot] + 1).min(3);
            } else {
                self.meta[slot] = self.meta[slot].saturating_sub(1);
            }
        }

        // Both components always learn the observed target.
        self.last_target[slot] = Some(target);
        self.path_table[pslot] = Some(target);
        self.push_path(hashed);
        hit
    }

    fn describe(&self) -> String {
        format!("path-hybrid-h{}-t{}", self.config.history, 1u64 << self.config.table_bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::IdealBtb;

    fn drive(p: &mut impl IndirectPredictor, seq: &[(Addr, Addr)], reps: usize) -> usize {
        let mut misses = 0;
        for _ in 0..reps {
            for &(b, t) in seq {
                if !p.predict_and_update(b, t) {
                    misses += 1;
                }
            }
        }
        misses
    }

    /// Shared dispatch branch with path-dependent targets.
    fn path_dependent_loop() -> Vec<(Addr, Addr)> {
        let br = 0x40;
        vec![(br, 0xA00), (0x50, 0x111), (br, 0xB00), (0x60, 0x222)]
    }

    #[test]
    fn learns_path_dependent_targets() {
        let mut p = PathHybrid::new(PathHybridConfig::classic());
        drive(&mut p, &path_dependent_loop(), 100);
        assert_eq!(drive(&mut p, &path_dependent_loop(), 50), 0);
    }

    #[test]
    fn beats_ideal_btb_on_the_same_loop() {
        let mut hybrid = PathHybrid::new(PathHybridConfig::classic());
        let mut ideal = IdealBtb::new();
        drive(&mut hybrid, &path_dependent_loop(), 100);
        drive(&mut ideal, &path_dependent_loop(), 100);
        let (h, b) = (
            drive(&mut hybrid, &path_dependent_loop(), 50),
            drive(&mut ideal, &path_dependent_loop(), 50),
        );
        assert!(h < b, "hybrid {h} misses should beat ideal-btb {b}");
    }

    #[test]
    fn describe_names_geometry() {
        let p = PathHybrid::new(PathHybridConfig::classic());
        assert_eq!(p.describe(), "path-hybrid-h16-t2048");
    }
}
