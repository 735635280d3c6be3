//! Named machine configurations.

use ivm_bpred::{AnyPredictor, Btb, BtbConfig, TwoLevelConfig, TwoLevelPredictor};

use crate::cost::CycleCosts;
use crate::icache::{FetchCache, Icache, IcacheConfig};

/// Which indirect predictor family a [`CpuSpec`] instantiates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PredictorKind {
    /// A finite BTB with the given geometry.
    Btb(BtbConfig),
    /// A two-level history predictor (Pentium M class).
    TwoLevel(TwoLevelConfig),
}

/// A complete machine model: predictor, fetch path and cycle costs.
///
/// These mirror the experimental machines of paper §6.2.
///
/// # Examples
///
/// ```
/// use ivm_bpred::IndirectPredictor;
/// use ivm_cache::{CpuSpec, IcacheConfig};
///
/// let cpu = CpuSpec::celeron800();
/// assert_eq!(cpu.name, "celeron-800");
/// let predictor = cpu.predictor();
/// let mut icache = cpu.fetch_cache();
/// assert!(predictor.describe().starts_with("btb"));
/// assert_eq!(cpu.icache, IcacheConfig::celeron_l1i());
/// assert_eq!(icache.fetch(0x1000, 32), 1); // one cold line
/// ```
#[derive(Debug, Clone)]
pub struct CpuSpec {
    /// Short identifier, e.g. `"celeron-800"`.
    pub name: &'static str,
    /// Indirect branch predictor family and geometry.
    pub predictor: PredictorKind,
    /// L1 instruction fetch structure: a conventional I-cache, or the
    /// P4's trace cache modelled as one ([`IcacheConfig::pentium4_trace`]).
    pub icache: IcacheConfig,
    /// Cycle cost constants.
    pub costs: CycleCosts,
}

impl CpuSpec {
    /// The 800 MHz Celeron (Coppermine-128): 512-entry BTB, 16 KB I-cache,
    /// ~10-cycle misprediction penalty. Small caches make code-growth
    /// effects visible (paper §6.2).
    pub fn celeron800() -> Self {
        Self {
            name: "celeron-800",
            predictor: PredictorKind::Btb(BtbConfig::celeron()),
            icache: IcacheConfig::celeron_l1i(),
            costs: CycleCosts::celeron(),
        }
    }

    /// Northwood Pentium 4: 4096-entry BTB, 12K-µop trace cache, ~20-cycle
    /// misprediction penalty.
    pub fn pentium4_northwood() -> Self {
        Self {
            name: "pentium4-northwood",
            predictor: PredictorKind::Btb(BtbConfig::pentium4()),
            icache: IcacheConfig::pentium4_trace(),
            costs: CycleCosts::pentium4_northwood(),
        }
    }

    /// Athlon-1200, used for the native-compiler comparison (paper §7.6):
    /// BTB predictor, conventional 64 KB I-cache.
    pub fn athlon1200() -> Self {
        Self {
            name: "athlon-1200",
            predictor: PredictorKind::Btb(BtbConfig::new(2048, 4)),
            icache: IcacheConfig { capacity: 64 * 1024, line_size: 64, assoc: 2 },
            costs: CycleCosts::athlon(),
        }
    }

    /// Pentium M: the first widely available two-level indirect predictor
    /// (paper §8) — included to show the software techniques matter less
    /// there.
    pub fn pentium_m() -> Self {
        Self {
            name: "pentium-m",
            predictor: PredictorKind::TwoLevel(TwoLevelConfig::pentium_m()),
            icache: IcacheConfig { capacity: 32 * 1024, line_size: 64, assoc: 8 },
            costs: CycleCosts::celeron(),
        }
    }

    /// Instantiates a fresh predictor of this machine's kind, as an
    /// enum-dispatched [`AnyPredictor`] — the engine's hot loop runs it
    /// without a virtual call per dispatch.
    pub fn predictor(&self) -> AnyPredictor {
        match self.predictor {
            PredictorKind::Btb(cfg) => Btb::new(cfg).into(),
            PredictorKind::TwoLevel(cfg) => TwoLevelPredictor::new(cfg).into(),
        }
    }

    /// Instantiates a fresh fetch cache of this machine's kind.
    pub fn fetch_cache(&self) -> Box<dyn FetchCache> {
        Box::new(Icache::new(self.icache))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ivm_bpred::IndirectPredictor;

    #[test]
    fn all_presets_instantiate() {
        for cpu in [
            CpuSpec::celeron800(),
            CpuSpec::pentium4_northwood(),
            CpuSpec::athlon1200(),
            CpuSpec::pentium_m(),
        ] {
            let mut p = cpu.predictor();
            assert!(!p.predict_and_update(1, 2));
            assert!(
                p.predict_and_update(1, 2) || matches!(cpu.predictor, PredictorKind::TwoLevel(_))
            );
            let mut ic = cpu.fetch_cache();
            assert!(ic.fetch(0, 64) > 0, "{}: cold fetch misses", cpu.name);
            assert_eq!(ic.fetch(0, 64), 0, "{}: warm fetch hits", cpu.name);
        }
    }

    #[test]
    fn p4_uses_trace_cache() {
        let cpu = CpuSpec::pentium4_northwood();
        assert_eq!(cpu.icache, IcacheConfig::pentium4_trace());
        assert_eq!(cpu.costs.icache_miss_penalty, 27.0, "Zhou & Ross's trace-cache miss");
    }

    #[test]
    fn celeron_btb_is_512_entries() {
        match CpuSpec::celeron800().predictor {
            PredictorKind::Btb(cfg) => assert_eq!(cfg.entries(), 512),
            _ => panic!("celeron uses a BTB"),
        }
    }
}
