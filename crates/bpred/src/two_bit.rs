//! BTB with two-bit hysteresis counters.

use crate::hash::AddrMap;
use crate::{Addr, IndirectPredictor};

/// A BTB whose entries carry a two-bit confidence counter.
///
/// The paper's §3 notes that a "BTB with two-bit counters" improves
/// threaded-code misprediction rates from 57–63% to 50–61%: the stored
/// target is only *replaced* once the counter has been driven to zero by
/// consecutive mispredictions, so a dominant target survives occasional
/// excursions.
///
/// This implementation is unbounded (one entry per branch) so that the
/// hysteresis effect can be studied in isolation; wrap the interpreter's
/// layout in a finite [`crate::Btb`] to study capacity effects.
///
/// # Examples
///
/// ```
/// use ivm_bpred::{TwoBitBtb, IndirectPredictor};
///
/// let mut p = TwoBitBtb::new();
/// // Train on target A, then a single excursion to B does not evict A:
/// p.predict_and_update(1, 0xA); // cold miss
/// p.predict_and_update(1, 0xA);
/// assert!(!p.predict_and_update(1, 0xB)); // mispredicts, but A survives
/// assert!(p.predict_and_update(1, 0xA)); // still predicts A
/// ```
#[derive(Debug, Clone, Default)]
pub struct TwoBitBtb {
    entries: AddrMap<Entry>,
}

#[derive(Debug, Clone, Copy)]
struct Entry {
    target: Addr,
    /// Saturating confidence in `target`, 0..=3.
    counter: u8,
}

impl TwoBitBtb {
    /// Creates an empty predictor.
    pub fn new() -> Self {
        Self::default()
    }

    /// The currently stored target for `branch`, if any.
    pub fn predicted_target(&self, branch: Addr) -> Option<Addr> {
        self.entries.get(&branch).map(|e| e.target)
    }
}

impl IndirectPredictor for TwoBitBtb {
    fn predict_and_update(&mut self, branch: Addr, target: Addr) -> bool {
        match self.entries.get_mut(&branch) {
            None => {
                self.entries.insert(branch, Entry { target, counter: 1 });
                false
            }
            Some(entry) => {
                if entry.target == target {
                    entry.counter = (entry.counter + 1).min(3);
                    true
                } else {
                    if entry.counter == 0 {
                        entry.target = target;
                        entry.counter = 1;
                    } else {
                        entry.counter -= 1;
                    }
                    false
                }
            }
        }
    }

    fn describe(&self) -> String {
        "btb-2bit".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dominant_target_survives_single_excursion() {
        let mut p = TwoBitBtb::new();
        p.predict_and_update(1, 10);
        p.predict_and_update(1, 10);
        p.predict_and_update(1, 10);
        assert!(!p.predict_and_update(1, 20));
        assert_eq!(p.predicted_target(1), Some(10));
        assert!(p.predict_and_update(1, 10));
    }

    #[test]
    fn repeated_mispredictions_eventually_replace() {
        let mut p = TwoBitBtb::new();
        p.predict_and_update(1, 10); // counter = 1
        assert!(!p.predict_and_update(1, 20)); // counter -> 0
        assert!(!p.predict_and_update(1, 20)); // replace with 20
        assert_eq!(p.predicted_target(1), Some(20));
        assert!(p.predict_and_update(1, 20));
    }

    #[test]
    fn alternation_is_better_than_plain_btb_once_trained() {
        // Pattern A A B A A B...: a plain BTB mispredicts on every B and on
        // the A after it (2 per period); the 2-bit BTB only mispredicts on B.
        let mut p = TwoBitBtb::new();
        let mut misses = 0;
        for _ in 0..10 {
            for t in [10u64, 10, 20] {
                if !p.predict_and_update(1, t) {
                    misses += 1;
                }
            }
        }
        // One cold miss on the very first A, then one miss per period.
        assert_eq!(misses, 1 + 10);

        let mut ideal = crate::IdealBtb::new();
        let mut ideal_misses = 0;
        for _ in 0..10 {
            for t in [10u64, 10, 20] {
                if !ideal.predict_and_update(1, t) {
                    ideal_misses += 1;
                }
            }
        }
        assert!(ideal_misses > misses);
    }

    #[test]
    fn counter_saturates() {
        let mut p = TwoBitBtb::new();
        for _ in 0..100 {
            p.predict_and_update(1, 10);
        }
        // Even after heavy training, two mispredictions reach counter 1, two
        // more replace: 4 consecutive wrong targets at most before replace.
        for _ in 0..4 {
            p.predict_and_update(1, 20);
        }
        assert_eq!(p.predicted_target(1), Some(20));
    }
}
