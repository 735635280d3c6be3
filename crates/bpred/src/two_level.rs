//! Two-level (history-based) indirect branch prediction.

use crate::{Addr, IndirectPredictor};

/// Configuration for [`TwoLevelPredictor`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TwoLevelConfig {
    /// Number of recent targets kept in the global history register.
    pub history_len: usize,
    /// log2 of the target table size.
    pub table_bits: u32,
    /// How many low bits of each history entry are folded into the index.
    pub target_bits: u32,
}

impl TwoLevelConfig {
    /// A configuration comparable to the Pentium M's indirect predictor as
    /// sketched by Gochman et al. (paper §8): short global target history
    /// hashed with the branch address into a table of 2048 targets.
    pub fn pentium_m() -> Self {
        Self { history_len: 4, table_bits: 11, target_bits: 6 }
    }
}

impl Default for TwoLevelConfig {
    fn default() -> Self {
        Self::pentium_m()
    }
}

/// A two-level indirect branch predictor (Driesen & Hölzle style).
///
/// The first level is a global history register holding the last
/// `history_len` indirect branch targets; the second level is a table of
/// predicted targets indexed by a hash of the branch address and the
/// history. Because the history disambiguates different *occurrences* of the
/// same VM instruction, such predictors achieve high accuracy on
/// interpreters even without replication — the paper cites this as the
/// hardware alternative to its software techniques (§2.2, §8).
///
/// # Examples
///
/// ```
/// use ivm_bpred::{TwoLevelPredictor, TwoLevelConfig, IndirectPredictor};
///
/// let mut p = TwoLevelPredictor::new(TwoLevelConfig::default());
/// // A context-dependent branch: after (A,B) it goes to X, after (B,A) to Y.
/// // A plain BTB would thrash; the two-level predictor learns both.
/// for _ in 0..4 {
///     p.predict_and_update(1, 0xA);
///     p.predict_and_update(1, 0xB);
///     p.predict_and_update(9, 0x111);
///     p.predict_and_update(1, 0xB);
///     p.predict_and_update(1, 0xA);
///     p.predict_and_update(9, 0x222);
/// }
/// assert!(p.predict_and_update(1, 0xA));
/// ```
#[derive(Debug, Clone)]
pub struct TwoLevelPredictor {
    config: TwoLevelConfig,
    history: Vec<Addr>,
    table: Vec<Option<Addr>>,
}

impl TwoLevelPredictor {
    /// Creates an empty predictor.
    pub fn new(config: TwoLevelConfig) -> Self {
        assert!(config.history_len > 0, "history length must be at least 1");
        assert!(
            config.table_bits <= 24,
            "table of 2^{} entries is unreasonable",
            config.table_bits
        );
        Self {
            config,
            history: Vec::with_capacity(config.history_len),
            table: vec![None; 1 << config.table_bits],
        }
    }

    /// The configuration this predictor was built with.
    pub fn config(&self) -> TwoLevelConfig {
        self.config
    }

    fn index(&self, branch: Addr) -> usize {
        let mask = (1u64 << self.config.table_bits) - 1;
        let mut h = branch.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        for (i, &t) in self.history.iter().enumerate() {
            // Hash the full target first so aligned routine addresses still
            // contribute entropy, then keep `target_bits` of it per entry.
            let hashed = t.wrapping_mul(0xD6E8_FEB8_6659_FD93) >> 32;
            let folded = hashed & ((1 << self.config.target_bits) - 1);
            h ^= folded.rotate_left((i as u32 + 1) * self.config.target_bits);
        }
        // Final mix so that history bits affect all index bits.
        h ^= h >> 33;
        h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        (h & mask) as usize
    }
}

impl IndirectPredictor for TwoLevelPredictor {
    fn predict_and_update(&mut self, branch: Addr, target: Addr) -> bool {
        let idx = self.index(branch);
        let hit = self.table[idx] == Some(target);
        self.table[idx] = Some(target);
        if self.history.len() == self.config.history_len {
            self.history.remove(0);
        }
        self.history.push(target);
        hit
    }

    fn describe(&self) -> String {
        format!("two-level-h{}-t{}", self.config.history_len, 1u64 << self.config.table_bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::IdealBtb;

    /// Replays the paper's Table I loop (A B A GOTO, threaded dispatch) and
    /// counts mispredictions per iteration once warmed up.
    fn steady_state_misses<P: IndirectPredictor>(
        p: &mut P,
        seq: &[(Addr, Addr)],
        warmup: usize,
    ) -> usize {
        for _ in 0..warmup {
            for &(b, t) in seq {
                p.predict_and_update(b, t);
            }
        }
        let mut misses = 0;
        for _ in 0..100 {
            for &(b, t) in seq {
                if !p.predict_and_update(b, t) {
                    misses += 1;
                }
            }
        }
        misses
    }

    /// The threaded-code loop of Table I: branch of A alternates targets.
    /// br-A -> B, br-B -> A, br-A -> GOTO, br-GOTO -> A.
    fn table1_threaded_loop() -> Vec<(Addr, Addr)> {
        let (br_a, br_b, br_goto) = (0xA0, 0xB0, 0xC0);
        let (a, b, goto) = (0xA00, 0xB00, 0xC00);
        vec![(br_a, b), (br_b, a), (br_a, goto), (br_goto, a)]
    }

    #[test]
    fn two_level_predicts_interpreter_loop_perfectly() {
        let mut p = TwoLevelPredictor::new(TwoLevelConfig::default());
        assert_eq!(steady_state_misses(&mut p, &table1_threaded_loop(), 16), 0);
    }

    #[test]
    fn ideal_btb_cannot_predict_same_loop() {
        let mut p = IdealBtb::new();
        // br-A alternates between B and GOTO: 2 misses per iteration.
        assert_eq!(steady_state_misses(&mut p, &table1_threaded_loop(), 16), 200);
    }

    #[test]
    fn monomorphic_branches_hit() {
        let mut p = TwoLevelPredictor::new(TwoLevelConfig::default());
        assert!(!p.predict_and_update(1, 10));
        for _ in 0..20 {
            p.predict_and_update(1, 10);
        }
        assert!(p.predict_and_update(1, 10));
    }

    #[test]
    #[should_panic(expected = "history length")]
    fn zero_history_rejected() {
        let _ = TwoLevelPredictor::new(TwoLevelConfig {
            history_len: 0,
            table_bits: 4,
            target_bits: 4,
        });
    }

    #[test]
    fn describe_mentions_geometry() {
        let p = TwoLevelPredictor::new(TwoLevelConfig::pentium_m());
        assert_eq!(p.describe(), "two-level-h4-t2048");
    }
}
