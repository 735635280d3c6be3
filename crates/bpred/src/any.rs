//! Enum dispatch over the in-tree predictors.
//!
//! `Box<dyn IndirectPredictor>` costs a virtual call per simulated
//! dispatch, which the compiler can neither inline nor hoist out of the
//! simulate loops. [`AnyPredictor`] closes that hole for the predictors
//! this crate ships: an enum whose [`IndirectPredictor`] impl is a single
//! inlined `match`, so a monomorphic call site (the engine's hot loop, a
//! sweep's per-predictor inner loop) compiles down to direct calls into
//! the variant's update code.

use crate::{
    Addr, Btb, CascadedPredictor, IdealBtb, IndirectPredictor, Ittage, PathHybrid, TwoBitBtb,
    TwoLevelPredictor,
};

/// Every in-tree predictor behind one statically-dispatched type.
///
/// Construct via `From`/`Into` from any concrete predictor; behaviour is
/// bit-identical to calling the wrapped predictor directly — the enum adds
/// dispatch, never state.
///
/// # Examples
///
/// ```
/// use ivm_bpred::{AnyPredictor, IdealBtb, IndirectPredictor};
///
/// let mut p: AnyPredictor = IdealBtb::new().into();
/// assert!(!p.predict_and_update(4, 100)); // cold miss
/// assert!(p.predict_and_update(4, 100));
/// assert_eq!(p.describe(), "ideal-btb");
/// ```
pub enum AnyPredictor {
    /// An unbounded last-target BTB ([`IdealBtb`]).
    Ideal(IdealBtb),
    /// A finite set-associative BTB ([`Btb`]).
    Btb(Btb),
    /// A BTB with two-bit hysteresis counters ([`TwoBitBtb`]).
    TwoBit(TwoBitBtb),
    /// A two-level history predictor ([`TwoLevelPredictor`]).
    TwoLevel(TwoLevelPredictor),
    /// A cascaded filter + history predictor ([`CascadedPredictor`]).
    Cascaded(CascadedPredictor),
    /// A last-target + folded-path-history hybrid ([`PathHybrid`]).
    PathHybrid(PathHybrid),
    /// An ITTAGE-style tagged geometric-history predictor ([`Ittage`]).
    Ittage(Ittage),
}

impl std::fmt::Debug for AnyPredictor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("AnyPredictor").field(&self.describe()).finish()
    }
}

impl From<IdealBtb> for AnyPredictor {
    fn from(p: IdealBtb) -> Self {
        Self::Ideal(p)
    }
}

impl From<Btb> for AnyPredictor {
    fn from(p: Btb) -> Self {
        Self::Btb(p)
    }
}

impl From<TwoBitBtb> for AnyPredictor {
    fn from(p: TwoBitBtb) -> Self {
        Self::TwoBit(p)
    }
}

impl From<TwoLevelPredictor> for AnyPredictor {
    fn from(p: TwoLevelPredictor) -> Self {
        Self::TwoLevel(p)
    }
}

impl From<CascadedPredictor> for AnyPredictor {
    fn from(p: CascadedPredictor) -> Self {
        Self::Cascaded(p)
    }
}

impl From<PathHybrid> for AnyPredictor {
    fn from(p: PathHybrid) -> Self {
        Self::PathHybrid(p)
    }
}

impl From<Ittage> for AnyPredictor {
    fn from(p: Ittage) -> Self {
        Self::Ittage(p)
    }
}

impl IndirectPredictor for AnyPredictor {
    #[inline]
    fn predict_and_update(&mut self, branch: Addr, target: Addr) -> bool {
        match self {
            Self::Ideal(p) => p.predict_and_update(branch, target),
            Self::Btb(p) => p.predict_and_update(branch, target),
            Self::TwoBit(p) => p.predict_and_update(branch, target),
            Self::TwoLevel(p) => p.predict_and_update(branch, target),
            Self::Cascaded(p) => p.predict_and_update(branch, target),
            Self::PathHybrid(p) => p.predict_and_update(branch, target),
            Self::Ittage(p) => p.predict_and_update(branch, target),
        }
    }

    fn describe(&self) -> String {
        match self {
            Self::Ideal(p) => p.describe(),
            Self::Btb(p) => p.describe(),
            Self::TwoBit(p) => p.describe(),
            Self::TwoLevel(p) => p.describe(),
            Self::Cascaded(p) => p.describe(),
            Self::PathHybrid(p) => p.describe(),
            Self::Ittage(p) => p.describe(),
        }
    }
}

impl AnyPredictor {
    /// Feeds every `(branch, target)` event through the predictor,
    /// returning `(executed, mispredicted)` counts. The variant is matched
    /// once here, so the loop runs against the concrete predictor with no
    /// per-event dispatch — how `simulate_many` and sampled simulation
    /// hoist predictor dispatch out of their inner loops.
    pub fn run_stream(&mut self, events: &[(Addr, Addr)]) -> (u64, u64) {
        fn run<P: IndirectPredictor>(p: &mut P, events: &[(Addr, Addr)]) -> (u64, u64) {
            let mut mispredicted = 0u64;
            for &(branch, target) in events {
                mispredicted += u64::from(!p.predict_and_update(branch, target));
            }
            (events.len() as u64, mispredicted)
        }
        match self {
            Self::Ideal(p) => run(p, events),
            Self::Btb(p) => run(p, events),
            Self::TwoBit(p) => run(p, events),
            Self::TwoLevel(p) => run(p, events),
            Self::Cascaded(p) => run(p, events),
            Self::PathHybrid(p) => run(p, events),
            Self::Ittage(p) => run(p, events),
        }
    }

    /// The ITTAGE provider/alternate breakdown, when this predictor is an
    /// [`Ittage`]. Lets sweeps surface tagged-table attribution without
    /// downcasting.
    pub fn ittage_breakdown(&self) -> Option<&crate::IttageBreakdown> {
        match self {
            Self::Ittage(p) => Some(p.breakdown()),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BtbConfig, IttageConfig, PathHybridConfig, TwoLevelConfig};

    fn zoo() -> Vec<AnyPredictor> {
        vec![
            IdealBtb::new().into(),
            Btb::new(BtbConfig::new(8, 2)).into(),
            TwoBitBtb::new().into(),
            TwoLevelPredictor::new(TwoLevelConfig::pentium_m()).into(),
            CascadedPredictor::with_defaults().into(),
            PathHybrid::new(PathHybridConfig::classic()).into(),
            Ittage::new(IttageConfig::small()).into(),
        ]
    }

    #[test]
    fn every_variant_matches_its_wrapped_predictor() {
        // The same stream through the enum and through a fresh copy of the
        // concrete predictor must produce identical verdicts.
        let stream: Vec<(Addr, Addr)> =
            (0..200).map(|i| (i % 7, 100 + i % 3)).chain((0..50).map(|i| (3, i))).collect();
        let fresh: Vec<Box<dyn IndirectPredictor>> = vec![
            Box::new(IdealBtb::new()),
            Box::new(Btb::new(BtbConfig::new(8, 2))),
            Box::new(TwoBitBtb::new()),
            Box::new(TwoLevelPredictor::new(TwoLevelConfig::pentium_m())),
            Box::new(CascadedPredictor::with_defaults()),
            Box::new(PathHybrid::new(PathHybridConfig::classic())),
            Box::new(Ittage::new(IttageConfig::small())),
        ];
        for (mut any, mut plain) in zoo().into_iter().zip(fresh) {
            assert_eq!(any.describe(), plain.describe());
            for &(b, t) in &stream {
                assert_eq!(
                    any.predict_and_update(b, t),
                    plain.predict_and_update(b, t),
                    "{} diverged at ({b}, {t})",
                    plain.describe()
                );
            }
        }
    }

    #[test]
    fn run_stream_counts_match_per_event_calls() {
        let stream: Vec<(Addr, Addr)> = (0..100).map(|i| (i % 5, i % 2)).collect();
        for (mut streamed, mut stepped) in zoo().into_iter().zip(zoo()) {
            let desc = stepped.describe();
            let mut expect = 0u64;
            for &(b, t) in &stream {
                expect += u64::from(!stepped.predict_and_update(b, t));
            }
            let (executed, mispredicted) = streamed.run_stream(&stream);
            assert_eq!(executed, stream.len() as u64);
            assert_eq!(mispredicted, expect, "{desc}");
        }
    }

    #[test]
    fn debug_shows_description() {
        let p: AnyPredictor = TwoBitBtb::new().into();
        assert!(format!("{p:?}").contains("btb-2bit"));
    }

    #[test]
    fn ittage_breakdown_only_on_ittage_variant() {
        let mut p: AnyPredictor = Ittage::new(IttageConfig::small()).into();
        for i in 0..20u64 {
            p.predict_and_update(i % 3, 100 + i % 2);
        }
        let bd = p.ittage_breakdown().expect("ittage variant exposes its breakdown");
        assert_eq!(bd.total(), 20, "breakdown must account every event");
        let other: AnyPredictor = IdealBtb::new().into();
        assert!(other.ittage_breakdown().is_none());
    }
}
