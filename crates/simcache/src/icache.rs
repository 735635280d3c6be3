//! Set-associative instruction cache simulation.

use crate::Addr;

/// Geometry of an [`Icache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct IcacheConfig {
    /// Total capacity in bytes.
    pub capacity: usize,
    /// Cache line size in bytes (power of two).
    pub line_size: usize,
    /// Ways per set.
    pub assoc: usize,
}

impl IcacheConfig {
    /// The Celeron-800's L1 I-cache: 16 KB, 32-byte lines, 4-way (paper §6.2).
    pub fn celeron_l1i() -> Self {
        Self { capacity: 16 * 1024, line_size: 32, assoc: 4 }
    }

    /// The Pentium 4's 12K-µop trace cache, as a conventional cache over
    /// x86 code: 48 KB, 32-byte lines, 6-way.
    ///
    /// The trace cache stores decoded µops rather than x86 bytes. The paper
    /// (§7.3 *miss cycles*) notes that Intel never published enough counter
    /// detail to account trace-cache misses exactly, and adopts Zhou & Ross's
    /// estimate of ≥27 cycles per miss. We model the trace cache as a
    /// set-associative cache over the static code space where one cache "line"
    /// holds eight µops ≈ 32 bytes of x86 code (the average x86 instruction in
    /// an interpreter is ~4 bytes and decodes to ~1 µop, paper §7.3). 12K µops
    /// in 1536 such lines therefore behave like a 48 KB conventional I-cache.
    ///
    /// This deliberately ignores trace construction (multiple traces containing
    /// the same x86 line) — the effect of that simplification is *fewer*
    /// conflict misses than real hardware, the same direction of error the
    /// paper reports for its own simulator.
    ///
    /// # Examples
    ///
    /// ```
    /// use ivm_cache::{FetchCache, Icache, IcacheConfig};
    ///
    /// let mut tc = Icache::new(IcacheConfig::pentium4_trace());
    /// let cold = tc.fetch(0x4000_0000, 480);
    /// assert!(cold > 0);
    /// assert_eq!(tc.fetch(0x4000_0000, 480), 0);
    /// ```
    pub fn pentium4_trace() -> Self {
        Self { capacity: 48 * 1024, line_size: 32, assoc: 6 }
    }

    /// Number of sets implied by the geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent (see [`Icache::new`]).
    pub fn sets(&self) -> usize {
        assert!(self.line_size.is_power_of_two(), "line size must be a power of two");
        assert!(self.assoc > 0 && self.capacity > 0, "degenerate cache");
        let lines = self.capacity / self.line_size;
        assert!(lines.is_multiple_of(self.assoc), "ways must divide line count");
        let sets = lines / self.assoc;
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        sets
    }
}

/// Anything that can service the engine's instruction fetches: the
/// set-associative [`Icache`] (every `CpuSpec` geometry, the Pentium 4
/// trace cache included) or the always-hitting [`PerfectIcache`].
pub trait FetchCache {
    /// Fetches `len` bytes of instructions starting at `addr`, returning the
    /// number of misses incurred (one per missing line).
    fn fetch(&mut self, addr: Addr, len: u32) -> u64;

    /// Misses per cache set, for conflict heatmaps. Empty for fetch paths
    /// without per-set counters.
    fn set_misses(&self) -> Vec<u64> {
        Vec::new()
    }
}

/// A set-associative instruction cache with true-LRU replacement.
///
/// # Examples
///
/// ```
/// use ivm_cache::{Icache, IcacheConfig, FetchCache};
///
/// let mut ic = Icache::new(IcacheConfig::celeron_l1i());
/// assert_eq!(ic.fetch(0x1000, 64), 2); // two cold lines
/// assert_eq!(ic.fetch(0x1000, 64), 0); // now resident
/// ```
#[derive(Debug, Clone)]
pub struct Icache {
    /// Ways per set.
    assoc: usize,
    /// `sets[i]` holds the line tags resident in set `i`.
    sets: Vec<Vec<(Addr, u64)>>,
    line_bits: u32,
    /// `set_misses[i]` counts the misses charged to set `i`.
    set_misses: Vec<u64>,
    tick: u64,
}

impl Icache {
    /// Creates an empty cache.
    ///
    /// # Panics
    ///
    /// Panics if `line_size` is not a power of two, ways do not divide the
    /// line count, or the set count is not a power of two.
    pub fn new(config: IcacheConfig) -> Self {
        let sets = config.sets();
        Self {
            assoc: config.assoc,
            sets: vec![Vec::with_capacity(config.assoc); sets],
            line_bits: config.line_size.trailing_zeros(),
            set_misses: vec![0; sets],
            tick: 0,
        }
    }

    fn touch_line(&mut self, line: Addr) -> bool {
        self.tick += 1;
        let set_count = self.sets.len();
        let set_idx = (line as usize) & (set_count - 1);
        let set = &mut self.sets[set_idx];
        if let Some(entry) = set.iter_mut().find(|(tag, _)| *tag == line) {
            entry.1 = self.tick;
            return false;
        }
        self.set_misses[set_idx] += 1;
        if set.len() == self.assoc {
            let victim = set
                .iter()
                .enumerate()
                .min_by_key(|(_, (_, lru))| *lru)
                .map(|(i, _)| i)
                .expect("full set is non-empty");
            set.swap_remove(victim);
        }
        set.push((line, self.tick));
        true
    }
}

impl FetchCache for Icache {
    fn fetch(&mut self, addr: Addr, len: u32) -> u64 {
        if len == 0 {
            return 0;
        }
        let first = addr >> self.line_bits;
        let last = (addr + u64::from(len) - 1) >> self.line_bits;
        let mut new_misses = 0;
        for line in first..=last {
            if self.touch_line(line) {
                new_misses += 1;
            }
        }
        new_misses
    }

    fn set_misses(&self) -> Vec<u64> {
        self.set_misses.clone()
    }
}

/// A no-op fetch path: every fetch hits. Used when an experiment wants to
/// isolate branch prediction from cache effects (the simulator-only results
/// of paper §6).
#[derive(Debug, Clone, Copy, Default)]
pub struct PerfectIcache;

impl FetchCache for PerfectIcache {
    fn fetch(&mut self, _addr: Addr, _len: u32) -> u64 {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Icache {
        // 4 lines of 32 bytes, 2-way: 2 sets.
        Icache::new(IcacheConfig { capacity: 128, line_size: 32, assoc: 2 })
    }

    /// Streams `passes` sequential `step`-byte fetches over `[0, bytes)`,
    /// returning the misses of each pass.
    fn stream(ic: &mut Icache, passes: usize, bytes: u64, step: u32) -> Vec<u64> {
        (0..passes)
            .map(|_| (0..bytes).step_by(step as usize).map(|a| ic.fetch(a, step)).sum())
            .collect()
    }

    #[test]
    fn cold_fetch_misses_once_per_line() {
        let mut ic = tiny();
        assert_eq!(ic.fetch(0, 32), 1);
        assert_eq!(ic.fetch(32, 32), 1);
        assert_eq!(ic.fetch(0, 64), 0);
    }

    #[test]
    fn fetch_spanning_lines_counts_each() {
        let mut ic = tiny();
        // 40 bytes starting at offset 24 touches lines 0 and 1.
        assert_eq!(ic.fetch(24, 40), 2);
    }

    #[test]
    fn zero_length_fetch_is_free() {
        let mut ic = tiny();
        assert_eq!(ic.fetch(100, 0), 0);
        assert_eq!(ic.set_misses(), vec![0, 0]);
    }

    #[test]
    fn lru_eviction_within_set() {
        let mut ic = tiny();
        // Lines 0, 2, 4 all map to set 0 (even line numbers).
        ic.fetch(0, 1); // line 0
        ic.fetch(64, 1); // line 2
        ic.fetch(128, 1); // line 4: evicts line 0 (LRU)
        assert_eq!(ic.fetch(64, 1), 0); // line 2 still resident
        assert_eq!(ic.fetch(0, 1), 1); // line 0 was evicted
    }

    #[test]
    fn working_set_larger_than_cache_thrashes() {
        let mut ic = Icache::new(IcacheConfig::celeron_l1i());
        // Stream through 4x the capacity twice: every line touch misses.
        let lines = 64 * 1024 / 32;
        assert_eq!(stream(&mut ic, 2, 64 * 1024, 32), vec![lines, lines]);
    }

    #[test]
    fn working_set_within_cache_stops_missing() {
        let mut ic = Icache::new(IcacheConfig::celeron_l1i());
        let misses = stream(&mut ic, 4, 8 * 1024, 32);
        assert_eq!(misses, vec![8 * 1024 / 32, 0, 0, 0]);
    }

    #[test]
    fn per_set_misses_pinpoint_the_conflicting_set() {
        let mut ic = tiny();
        // Lines 0, 2, 4 all land in set 0 of the 2-set cache; line 1 in set 1.
        let misses = ic.fetch(0, 1) // line 0: set 0 miss
            + ic.fetch(32, 1) // line 1: set 1 miss
            + ic.fetch(64, 1) // line 2: set 0 miss
            + ic.fetch(128, 1) // line 4: set 0 miss, evicts line 0
            + ic.fetch(0, 1); // line 0 again: set 0 conflict miss
        assert_eq!(ic.set_misses(), vec![4, 1]);
        assert_eq!(misses, 5, "per-set misses sum to the total");
    }

    #[test]
    fn default_per_set_views_are_empty_for_perfect_icache() {
        let mut p = PerfectIcache;
        p.fetch(0, 64);
        assert!(p.set_misses().is_empty());
    }

    #[test]
    fn perfect_icache_never_misses() {
        let mut p = PerfectIcache;
        assert_eq!(p.fetch(0, 1 << 20), 0);
        assert_eq!(p.fetch(0, 1 << 20), 0);
    }

    #[test]
    fn celeron_geometry() {
        let cfg = IcacheConfig::celeron_l1i();
        assert_eq!(cfg.sets(), 128);
        assert_eq!(Icache::new(cfg).set_misses().len(), 128);
    }

    #[test]
    fn pentium4_trace_is_1536_lines_of_32_bytes() {
        let cfg = IcacheConfig::pentium4_trace();
        // 12K µops at 8 per line = 1536 lines = 48 KB of x86-equivalent code.
        assert_eq!(cfg.capacity / cfg.line_size, 12 * 1024 / 8);
        assert_eq!(cfg.capacity, 48 * 1024);
        assert_eq!(cfg.sets(), 256);
    }

    #[test]
    fn pentium4_trace_resident_code_stops_missing() {
        let mut tc = Icache::new(IcacheConfig::pentium4_trace());
        let misses = stream(&mut tc, 3, 16 * 1024, 16);
        assert_eq!(misses, vec![16 * 1024 / 32, 0, 0]);
    }

    #[test]
    fn pentium4_trace_oversized_working_set_misses() {
        let mut tc = Icache::new(IcacheConfig::pentium4_trace());
        // Stream 1 MB of code twice: way beyond capacity.
        let misses: u64 = stream(&mut tc, 2, 1024 * 1024, 32).iter().sum();
        assert!(misses > 30_000);
    }
}
