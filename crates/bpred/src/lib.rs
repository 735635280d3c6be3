//! Indirect branch predictor simulators.
//!
//! This crate models the hardware predictors discussed in Casey, Ertl and
//! Gregg, *Optimizing Indirect Branch Prediction Accuracy in Virtual Machine
//! Interpreters*:
//!
//! * [`IdealBtb`] — an unbounded branch target buffer: one entry per branch,
//!   predicting the target of the previous execution (paper §2.2, Figure 3).
//! * [`Btb`] — a finite, set-associative BTB with either *tagged* entries
//!   (a tag mismatch yields no prediction, counted as a misprediction for
//!   an indirect branch that is always taken) or *tagless* entries (aliasing
//!   branches silently share slots, producing conflict mispredictions), as in
//!   the Celeron's 512-entry and the Northwood Pentium 4's 4096-entry BTBs.
//! * [`TwoBitBtb`] — the "BTB with two-bit counters" variation (paper §3):
//!   the stored target is only replaced after two consecutive mispredictions,
//!   which raises accuracy for threaded-code interpreters from 37–43% to
//!   39–50%.
//! * [`TwoLevelPredictor`] — a history-based indirect predictor in the style
//!   of Driesen and Hölzle, as shipped in the Intel Pentium M (paper §8).
//! * [`CascadedPredictor`] — Driesen and Hölzle's multi-stage cascade: a
//!   cheap filter stage plus a history stage for promoted branches (§2.2).
//! * [`PathHybrid`] — a last-target table plus a folded path-history table
//!   behind a two-bit chooser: the mid-2010s intermediate point between the
//!   paper's predictors and the TAGE family.
//! * [`Ittage`] — Seznec/Michaud ITTAGE: N tagged tables over geometric
//!   history lengths with usefulness-guided allocation, the predictor class
//!   in current high-end cores (Apple Firestorm, Qualcomm Oryon). Models
//!   what the paper's conclusions look like on 2025 silicon.
//! * [`AnyPredictor`] — enum dispatch over the predictors above, so
//!   simulate hot loops pay an inlined `match` instead of a virtual call
//!   per dispatch.
//!
//! All predictors implement [`IndirectPredictor`]: feed every executed
//! indirect branch through [`IndirectPredictor::predict_and_update`] and it
//! reports whether the prediction made *before* the update was correct.
//!
//! # Examples
//!
//! ```
//! use ivm_bpred::{Btb, BtbConfig, IndirectPredictor};
//!
//! let mut btb = Btb::new(BtbConfig::celeron());
//! // A dispatch branch at 0x1000 alternates between two targets: the BTB
//! // mispredicts every time because it always predicts the previous target.
//! assert!(!btb.predict_and_update(0x1000, 0xA000)); // cold miss
//! assert!(!btb.predict_and_update(0x1000, 0xB000));
//! assert!(!btb.predict_and_update(0x1000, 0xA000));
//! // A monomorphic branch is predicted perfectly after warm-up.
//! assert!(!btb.predict_and_update(0x2000, 0xC000)); // cold miss
//! assert!(btb.predict_and_update(0x2000, 0xC000));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod any;
mod btb;
mod cascaded;
mod folded;
mod hash;
mod ideal;
mod ittage;
mod path_hybrid;
mod stats;
mod two_bit;
mod two_level;

pub use any::AnyPredictor;
pub use btb::{Btb, BtbConfig};
pub use cascaded::CascadedPredictor;
pub use folded::{FoldedHistory, GlobalHistory};
pub use ideal::IdealBtb;
pub use ittage::{Ittage, IttageBreakdown, IttageConfig};
pub use path_hybrid::{PathHybrid, PathHybridConfig};
pub use stats::PredStats;
pub use two_bit::TwoBitBtb;
pub use two_level::{TwoLevelConfig, TwoLevelPredictor};

/// A simulated native-code address.
///
/// Interpreter code layouts assign every routine copy and every dispatch
/// branch a distinct `Addr`; the predictors only compare and hash these
/// values, so any consistent assignment works.
pub type Addr = u64;

/// An indirect branch predictor simulator.
///
/// Implementations record one executed indirect branch per call and report
/// whether the target was predicted correctly. Predictors are deterministic:
/// replaying the same sequence of `(branch, target)` pairs produces the same
/// sequence of outcomes.
///
/// # Examples
///
/// ```
/// use ivm_bpred::{IdealBtb, IndirectPredictor};
///
/// let mut p = IdealBtb::new();
/// assert!(!p.predict_and_update(4, 100)); // first execution: cold miss
/// assert!(p.predict_and_update(4, 100)); // same target: hit
/// ```
pub trait IndirectPredictor {
    /// Simulates one execution of the indirect branch at `branch` jumping to
    /// `target`, updating predictor state.
    ///
    /// Returns `true` if the predictor had predicted `target` before the
    /// update (a *hit*), `false` on a misprediction. A branch that has never
    /// been seen (or whose entry was evicted) counts as a misprediction,
    /// matching how an unconditionally-taken indirect branch behaves on a
    /// BTB miss.
    fn predict_and_update(&mut self, branch: Addr, target: Addr) -> bool;

    /// A short human-readable description, e.g. `"btb-512x1-tagless"`.
    fn describe(&self) -> String;
}
