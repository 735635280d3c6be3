//! Performance counters and the cycle cost model.

/// Per-event cycle costs of a simulated CPU.
///
/// The cycle model is the one the paper uses to interpret its counter data
/// (§3, §7.3): straight-line work at `cpi` cycles per retired instruction,
/// plus a fixed penalty per mispredicted indirect branch, plus a fixed
/// penalty per I-cache (or trace cache) miss.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CycleCosts {
    /// Base cycles per retired native instruction (superscalar CPUs < 1.0).
    pub cpi: f64,
    /// Cycles lost per mispredicted indirect branch (Celeron/P3/Athlon ≈ 10,
    /// Northwood P4 ≈ 20, Prescott P4 ≈ 30; paper §2.2).
    pub mispredict_penalty: f64,
    /// Cycles lost per instruction fetch miss (27 for the P4 trace cache
    /// after Zhou & Ross; paper §7.3).
    pub icache_miss_penalty: f64,
}

impl CycleCosts {
    /// Celeron-800 / Pentium III class costs.
    pub fn celeron() -> Self {
        Self { cpi: 0.75, mispredict_penalty: 10.0, icache_miss_penalty: 12.0 }
    }

    /// Northwood Pentium 4 class costs.
    pub fn pentium4_northwood() -> Self {
        Self { cpi: 0.85, mispredict_penalty: 20.0, icache_miss_penalty: 27.0 }
    }

    /// Athlon-1200 class costs.
    pub fn athlon() -> Self {
        Self { cpi: 0.70, mispredict_penalty: 10.0, icache_miss_penalty: 12.0 }
    }
}

/// The hardware-counter bundle of paper §7.3 (Figures 10–13).
///
/// `code_bytes` is the size of run-time generated code — a property of the
/// layout rather than the execution, filled in by the translator.
///
/// # Examples
///
/// ```
/// use ivm_cache::{CycleCosts, PerfCounters};
///
/// let mut c = PerfCounters::default();
/// c.instructions = 100;
/// c.indirect_branches = 10;
/// c.indirect_mispredicted = 5;
/// let costs = CycleCosts { cpi: 1.0, mispredict_penalty: 10.0, icache_miss_penalty: 27.0 };
/// assert_eq!(c.cycles(&costs), 150.0);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PerfCounters {
    /// Retired native instructions (µops on the P4; paper §7.3 notes the
    /// difference is under 1%).
    pub instructions: u64,
    /// Retired indirect branches (dispatches plus indirect VM control flow).
    pub indirect_branches: u64,
    /// Mispredicted retired indirect branches.
    pub indirect_mispredicted: u64,
    /// Instruction fetch misses.
    pub icache_misses: u64,
    /// Instruction fetch accesses (line touches).
    pub icache_accesses: u64,
    /// Bytes of native code generated at run time (0 for purely static
    /// layouts).
    pub code_bytes: u64,
    /// VM-level instruction dispatches executed (bookkeeping; each one is
    /// also counted in `indirect_branches`).
    pub dispatches: u64,
}

impl PerfCounters {
    /// Total simulated cycles under `costs`.
    pub fn cycles(&self, costs: &CycleCosts) -> f64 {
        self.instructions as f64 * costs.cpi
            + self.indirect_mispredicted as f64 * costs.mispredict_penalty
            + self.icache_misses as f64 * costs.icache_miss_penalty
    }

    /// Cycles attributable to indirect branch mispredictions.
    pub fn mispredict_cycles(&self, costs: &CycleCosts) -> f64 {
        self.indirect_mispredicted as f64 * costs.mispredict_penalty
    }

    /// Cycles attributable to instruction fetch misses.
    pub fn miss_cycles(&self, costs: &CycleCosts) -> f64 {
        self.icache_misses as f64 * costs.icache_miss_penalty
    }

    /// Indirect branch misprediction rate in [0, 1]; 0 if none executed.
    pub fn misprediction_rate(&self) -> f64 {
        if self.indirect_branches == 0 {
            0.0
        } else {
            self.indirect_mispredicted as f64 / self.indirect_branches as f64
        }
    }

    /// Fraction of retired instructions that are indirect branches — the
    /// paper reports ≈16.5% for Gforth and ≈6.1% for its JVM on a P4
    /// (§7.2.2).
    pub fn indirect_branch_ratio(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            self.indirect_branches as f64 / self.instructions as f64
        }
    }

    /// Element-wise sum, for aggregating per-phase counters.
    #[must_use]
    pub fn merged(&self, other: &PerfCounters) -> PerfCounters {
        PerfCounters {
            instructions: self.instructions + other.instructions,
            indirect_branches: self.indirect_branches + other.indirect_branches,
            indirect_mispredicted: self.indirect_mispredicted + other.indirect_mispredicted,
            icache_misses: self.icache_misses + other.icache_misses,
            icache_accesses: self.icache_accesses + other.icache_accesses,
            code_bytes: self.code_bytes.max(other.code_bytes),
            dispatches: self.dispatches + other.dispatches,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit_costs() -> CycleCosts {
        CycleCosts { cpi: 1.0, mispredict_penalty: 20.0, icache_miss_penalty: 27.0 }
    }

    #[test]
    fn cycle_model_sums_components() {
        let c = PerfCounters {
            instructions: 1000,
            indirect_branches: 100,
            indirect_mispredicted: 10,
            icache_misses: 2,
            ..Default::default()
        };
        let costs = unit_costs();
        assert_eq!(c.cycles(&costs), 1000.0 + 200.0 + 54.0);
        assert_eq!(c.mispredict_cycles(&costs), 200.0);
        assert_eq!(c.miss_cycles(&costs), 54.0);
    }

    #[test]
    fn rates() {
        let c = PerfCounters {
            instructions: 1000,
            indirect_branches: 160,
            indirect_mispredicted: 80,
            ..Default::default()
        };
        assert!((c.misprediction_rate() - 0.5).abs() < 1e-12);
        assert!((c.indirect_branch_ratio() - 0.16).abs() < 1e-12);
    }

    #[test]
    fn zero_denominators_are_safe() {
        let c = PerfCounters::default();
        assert_eq!(c.misprediction_rate(), 0.0);
        assert_eq!(c.indirect_branch_ratio(), 0.0);
        assert_eq!(c.cycles(&unit_costs()), 0.0);
    }

    #[test]
    fn merged_adds_events_and_maxes_code_bytes() {
        let a = PerfCounters { instructions: 10, code_bytes: 100, ..Default::default() };
        let b = PerfCounters { instructions: 5, code_bytes: 70, ..Default::default() };
        let m = a.merged(&b);
        assert_eq!(m.instructions, 15);
        assert_eq!(m.code_bytes, 100);
    }

    #[test]
    fn penalty_presets_match_paper() {
        assert_eq!(CycleCosts::celeron().mispredict_penalty, 10.0);
        assert_eq!(CycleCosts::pentium4_northwood().mispredict_penalty, 20.0);
        assert_eq!(CycleCosts::pentium4_northwood().icache_miss_penalty, 27.0);
    }
}
