//! Multi-stage cascaded indirect branch prediction (Driesen & Hölzle).

use crate::hash::{AddrHashBuilder, AddrMap};
use crate::two_level::{TwoLevelConfig, TwoLevelPredictor};
use crate::{Addr, IndirectPredictor};

/// A two-stage cascaded predictor (Driesen & Hölzle 1999, cited in paper
/// §2.2/§8): a cheap first-stage BTB handles monomorphic branches, and only
/// branches that misbehave there are *promoted* into an expensive
/// second-stage history predictor. The filter keeps easy branches from
/// polluting the history tables.
///
/// # Examples
///
/// ```
/// use ivm_bpred::{CascadedPredictor, IndirectPredictor};
///
/// let mut p = CascadedPredictor::with_defaults();
/// // A monomorphic branch stays in the first stage and predicts well.
/// p.predict_and_update(0x10, 0xA);
/// assert!(p.predict_and_update(0x10, 0xA));
/// ```
#[derive(Debug, Clone)]
pub struct CascadedPredictor {
    /// First stage: last-target table (an ideal BTB keeps the filter's
    /// behaviour free of capacity noise).
    stage1: AddrMap<Addr>,
    /// Mispredictions per branch in stage 1 before promotion.
    strikes: AddrMap<u32>,
    /// Branches promoted to the history stage.
    promoted: std::collections::HashSet<Addr, AddrHashBuilder>,
    stage2: TwoLevelPredictor,
    promote_after: u32,
}

impl CascadedPredictor {
    /// A cascade with the Pentium-M-like second stage and promotion after
    /// 2 first-stage mispredictions.
    pub fn with_defaults() -> Self {
        Self::new(TwoLevelConfig::pentium_m(), 2)
    }

    /// A cascade with an explicit second-stage geometry and promotion
    /// threshold.
    ///
    /// # Panics
    ///
    /// Panics if `promote_after` is zero (everything would be promoted
    /// immediately, defeating the filter).
    pub fn new(second_stage: TwoLevelConfig, promote_after: u32) -> Self {
        assert!(promote_after > 0, "promotion threshold must be at least 1");
        Self {
            stage1: AddrMap::default(),
            strikes: AddrMap::default(),
            promoted: std::collections::HashSet::default(),
            stage2: TwoLevelPredictor::new(second_stage),
            promote_after,
        }
    }

    /// Number of branches promoted to the second stage so far.
    pub fn promoted(&self) -> usize {
        self.promoted.len()
    }
}

impl IndirectPredictor for CascadedPredictor {
    fn predict_and_update(&mut self, branch: Addr, target: Addr) -> bool {
        if self.promoted.contains(&branch) {
            return self.stage2.predict_and_update(branch, target);
        }
        let hit = self.stage1.get(&branch) == Some(&target);
        self.stage1.insert(branch, target);
        if !hit {
            let strikes = self.strikes.entry(branch).or_insert(0);
            *strikes += 1;
            if *strikes >= self.promote_after {
                self.promoted.insert(branch);
            }
        }
        hit
    }

    fn describe(&self) -> String {
        format!("cascaded-p{}-{}", self.promote_after, self.stage2.describe())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::IdealBtb;

    #[test]
    fn monomorphic_branches_are_never_promoted() {
        let mut p = CascadedPredictor::with_defaults();
        for _ in 0..50 {
            p.predict_and_update(0x10, 0xA);
        }
        assert_eq!(p.promoted(), 0);
    }

    #[test]
    fn polymorphic_branches_get_promoted_and_predicted() {
        let mut p = CascadedPredictor::with_defaults();
        // The Table I interpreter loop: br-A alternates B/GOTO.
        let seq: [(u64, u64); 4] = [(0xA8, 0xB00), (0xB8, 0xA00), (0xA8, 0xC00), (0xC8, 0xA00)];
        for _ in 0..30 {
            for &(b, t) in &seq {
                p.predict_and_update(b, t);
            }
        }
        assert_eq!(p.promoted(), 1, "only the alternating branch promotes");
        // Steady state: the cascade should now predict the loop perfectly.
        let mut misses = 0;
        for _ in 0..50 {
            for &(b, t) in &seq {
                if !p.predict_and_update(b, t) {
                    misses += 1;
                }
            }
        }
        assert_eq!(misses, 0);
    }

    #[test]
    fn cascade_beats_plain_btb_on_interpreter_loops() {
        let seq: [(u64, u64); 4] = [(0xA8, 0xB00), (0xB8, 0xA00), (0xA8, 0xC00), (0xC8, 0xA00)];
        let run = |p: &mut dyn IndirectPredictor| {
            let mut misses = 0;
            for _ in 0..100 {
                for &(b, t) in &seq {
                    if !p.predict_and_update(b, t) {
                        misses += 1;
                    }
                }
            }
            misses
        };
        let mut btb = IdealBtb::new();
        let mut cascade = CascadedPredictor::with_defaults();
        assert!(run(&mut cascade) < run(&mut btb));
    }

    #[test]
    #[should_panic(expected = "promotion threshold")]
    fn zero_threshold_rejected() {
        let _ = CascadedPredictor::new(TwoLevelConfig::pentium_m(), 0);
    }
}
