//! Prediction statistics helpers.

/// Aggregate outcome of feeding one dispatch stream through a predictor,
/// used where many predictors are swept over a shared stream (e.g.
/// `ivm_core::simulate_many`) and the caller only needs the counts.
///
/// # Examples
///
/// ```
/// use ivm_bpred::PredStats;
///
/// let mut s = PredStats::default();
/// s.record(true);
/// s.record(false);
/// assert_eq!(s.executed, 2);
/// assert_eq!(s.mispredicted, 1);
/// assert!((s.misprediction_rate() - 0.5).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PredStats {
    /// Branches fed to the predictor.
    pub executed: u64,
    /// Mispredictions, including cold misses.
    pub mispredicted: u64,
}

impl PredStats {
    /// Tallies one [`crate::IndirectPredictor::predict_and_update`] outcome.
    pub fn record(&mut self, hit: bool) {
        self.executed += 1;
        self.mispredicted += u64::from(!hit);
    }

    /// Fraction of executions that mispredicted; 0.0 when nothing ran.
    pub fn misprediction_rate(&self) -> f64 {
        if self.executed == 0 {
            0.0
        } else {
            self.mispredicted as f64 / self.executed as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{IdealBtb, IndirectPredictor};

    #[test]
    fn pred_stats_tally_and_rate() {
        let mut s = PredStats::default();
        assert_eq!(s.misprediction_rate(), 0.0, "unused stats must not be NaN");
        for hit in [true, false, false, true] {
            s.record(hit);
        }
        assert_eq!(s, PredStats { executed: 4, mispredicted: 2 });
        assert!((s.misprediction_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn counts_and_rate() {
        let mut p = IdealBtb::new();
        let mut s = PredStats::default();
        for i in 0..10u64 {
            s.record(p.predict_and_update(1, i % 2));
        }
        assert_eq!(s, PredStats { executed: 10, mispredicted: 10 });
        assert_eq!(s.misprediction_rate(), 1.0);
    }

    #[test]
    fn misprediction_rate_is_zero_not_nan_when_unused() {
        let s = PredStats::default();
        assert_eq!(s.executed, 0);
        let rate = s.misprediction_rate();
        assert!(!rate.is_nan(), "an unused predictor must not report NaN");
        assert_eq!(rate, 0.0);
    }
}
