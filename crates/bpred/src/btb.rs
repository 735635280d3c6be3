//! Finite set-associative branch target buffers.

use crate::{Addr, IndirectPredictor};

/// Configuration of a finite [`Btb`].
///
/// # Examples
///
/// ```
/// use ivm_bpred::BtbConfig;
///
/// let cfg = BtbConfig::new(512, 4);
/// assert_eq!(cfg.entries(), 512);
/// assert_eq!(cfg.sets(), 128);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BtbConfig {
    entries: usize,
    assoc: usize,
    tagged: bool,
}

impl BtbConfig {
    /// Creates a configuration with `entries` total entries organised into
    /// sets of `assoc` ways, tagged, indexed by the low bits of the full
    /// branch address — the most conflict-averse choice for the
    /// byte-addressed layouts the interpreter model produces.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is zero, `assoc` is zero, `assoc` does not divide
    /// `entries`, or the resulting set count is not a power of two.
    pub fn new(entries: usize, assoc: usize) -> Self {
        assert!(entries > 0, "BTB must have at least one entry");
        assert!(assoc > 0, "associativity must be at least 1");
        assert!(
            entries.is_multiple_of(assoc),
            "associativity {assoc} must divide entry count {entries}"
        );
        let sets = entries / assoc;
        assert!(sets.is_power_of_two(), "set count {sets} must be a power of two");
        Self { entries, assoc, tagged: true }
    }

    /// Uses tagless entries: aliasing branches silently share a slot and
    /// mispredict each other (conflict mispredictions), as in simple
    /// hardware BTBs. Tagged entries instead detect the alias and produce a
    /// no-prediction miss.
    #[must_use]
    pub fn tagless(mut self) -> Self {
        self.tagged = false;
        self
    }

    /// The Celeron-800's BTB: 512 entries, 4-way (paper §6.2).
    pub fn celeron() -> Self {
        Self::new(512, 4)
    }

    /// The Northwood Pentium 4's BTB: 4096 entries, 4-way (paper §6.2).
    pub fn pentium4() -> Self {
        Self::new(4096, 4)
    }

    /// Total number of entries.
    pub fn entries(&self) -> usize {
        self.entries
    }

    /// Ways per set.
    pub fn assoc(&self) -> usize {
        self.assoc
    }

    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.entries / self.assoc
    }

    /// Whether entries carry tags.
    pub fn tagged(&self) -> bool {
        self.tagged
    }

    /// The set a branch at `branch` maps to under this geometry — exposed
    /// so attribution sinks can bucket dispatch branches by BTB set without
    /// duplicating the indexing function.
    pub fn set_index(&self, branch: Addr) -> usize {
        (branch as usize) & (self.sets() - 1)
    }
}

/// A finite set-associative BTB with LRU replacement.
///
/// Models the predictors in all the paper's hardware: the prediction for a
/// branch is the target stored in its entry; the entry is updated to the
/// actual target after every execution. Finite capacity produces the
/// capacity and conflict mispredictions the paper observes once dynamic
/// replication inflates the number of dispatch branches past the BTB size.
///
/// Storage is struct-of-arrays (`tags`/`targets`/`lru`, ways of a set
/// contiguous) and the set scan is branchless: validity is encoded as
/// `lru != 0` (the use tick pre-increments, so a valid way's tick is
/// always ≥ 1) and the hit/victim scans are arithmetic selects over the
/// ways instead of `Option`-per-way control flow, so the lookup runs at a
/// fixed short instruction count regardless of which way matches.
///
/// # Examples
///
/// ```
/// use ivm_bpred::{Btb, BtbConfig, IndirectPredictor};
///
/// // A tiny 2-entry direct-mapped BTB: two branches 2 sets apart collide.
/// let mut btb = Btb::new(BtbConfig::new(2, 1).tagless());
/// btb.predict_and_update(0, 100);
/// btb.predict_and_update(2, 200); // same set as branch 0: evicts it
/// assert!(!btb.predict_and_update(0, 100)); // conflict miss
/// ```
#[derive(Debug, Clone)]
pub struct Btb {
    config: BtbConfig,
    /// Way tags, `assoc` consecutive entries per set.
    tags: Vec<Addr>,
    /// Way targets, parallel to `tags`.
    targets: Vec<Addr>,
    /// Way use ticks, parallel to `tags`; `0` encodes an invalid way
    /// (the tick counter pre-increments, so live ways are always ≥ 1).
    lru: Vec<u64>,
    tick: u64,
}

impl Btb {
    /// Creates an empty BTB with the given configuration.
    pub fn new(config: BtbConfig) -> Self {
        Self {
            config,
            tags: vec![0; config.entries],
            targets: vec![0; config.entries],
            lru: vec![0; config.entries],
            tick: 0,
        }
    }

    /// The configuration this BTB was built with.
    pub fn config(&self) -> BtbConfig {
        self.config
    }

    /// Installs `(tag, target)` into way `w`.
    #[inline]
    fn allocate(&mut self, w: usize, tag: Addr, target: Addr, tick: u64) {
        self.tags[w] = tag;
        self.targets[w] = target;
        self.lru[w] = tick;
    }
}

impl IndirectPredictor for Btb {
    #[inline]
    fn predict_and_update(&mut self, branch: Addr, target: Addr) -> bool {
        self.tick += 1;
        let tick = self.tick;
        let idx = self.config.set_index(branch);
        let assoc = self.config.assoc;
        let base = idx * assoc;

        let way = if self.config.tagged {
            // Slice the set once so the way scans index fixed-length
            // slices (bounds checks hoisted out of the loops).
            let set_lru = &self.lru[base..base + assoc];
            let set_tags = &self.tags[base..base + assoc];
            // Branchless hit scan: a way matches iff it is valid
            // (lru != 0) and its tag is our branch address. Valid tags
            // within a set are distinct, so at most one way matches and
            // the select order is immaterial.
            let mut way = usize::MAX;
            for w in 0..assoc {
                let matches = (set_lru[w] != 0) & (set_tags[w] == branch);
                way = if matches { base + w } else { way };
            }
            if way == usize::MAX {
                // Miss: allocate over the way with the smallest tick. The
                // lru == 0 invalid encoding makes invalid ways sort first
                // for free, and the strict `<` keeps the first minimum —
                // the same victim the old `min_by_key` scan chose.
                let mut victim = 0;
                let mut best = set_lru[0];
                for (w, &t) in set_lru.iter().enumerate().skip(1) {
                    let better = t < best;
                    best = if better { t } else { best };
                    victim = if better { w } else { victim };
                }
                self.allocate(base + victim, branch, target, tick);
                return false;
            }
            way
        } else {
            // Tagless: direct use of the indexed way; with associativity > 1
            // the ways within a set are sub-indexed by the address bits
            // above the set index, so aliasing is still possible but less
            // frequent.
            let way_idx =
                if assoc == 1 { 0 } else { (branch as usize / self.config.sets()) % assoc };
            let w = base + way_idx;
            if self.lru[w] == 0 || self.tags[w] != branch {
                // Invalid or aliased way: (re)allocate. An aliased target
                // can still coincide, which is exactly the silent-sharing
                // hit the tagless model intends.
                let hit = self.lru[w] != 0 && self.targets[w] == target;
                self.allocate(w, branch, target, tick);
                return hit;
            }
            w
        };

        let hit = self.targets[way] == target;
        self.targets[way] = target;
        self.lru[way] = tick;
        hit
    }

    fn describe(&self) -> String {
        format!(
            "btb-{}x{}-{}",
            self.config.sets(),
            self.config.assoc,
            if self.config.tagged { "tagged" } else { "tagless" }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_accessors() {
        let cfg = BtbConfig::new(4096, 4);
        assert_eq!(cfg.entries(), 4096);
        assert_eq!(cfg.assoc(), 4);
        assert_eq!(cfg.sets(), 1024);
        assert!(cfg.tagged());
        assert!(!cfg.tagless().tagged());
    }

    #[test]
    fn public_set_index_matches_btb_placement() {
        let cfg = BtbConfig::new(8, 2);
        assert_eq!(cfg.sets(), 4);
        assert_eq!(cfg.set_index(0x00), 0);
        assert_eq!(cfg.set_index(0x01), 1);
        // The set is the low two bits of the address.
        assert_eq!(cfg.set_index(0x43), 3);
        // Aliasing branches (same public set index) conflict in a
        // direct-mapped tagless BTB, confirming the index is the real one.
        let a = 0x00u64;
        let b = 0x40u64;
        let cfg = BtbConfig::new(4, 1).tagless();
        assert_eq!(cfg.set_index(a), cfg.set_index(b));
        let mut btb = Btb::new(cfg);
        btb.predict_and_update(a, 111);
        btb.predict_and_update(b, 222);
        assert!(!btb.predict_and_update(a, 111), "alias must have evicted a");
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_sets_rejected() {
        let _ = BtbConfig::new(12, 2);
    }

    #[test]
    #[should_panic(expected = "must divide")]
    fn assoc_must_divide_entries() {
        let _ = BtbConfig::new(16, 3);
    }

    #[test]
    fn monomorphic_branch_hits_after_warmup() {
        let mut btb = Btb::new(BtbConfig::celeron());
        assert!(!btb.predict_and_update(0x100, 0x9000));
        for _ in 0..10 {
            assert!(btb.predict_and_update(0x100, 0x9000));
        }
    }

    #[test]
    fn capacity_eviction_under_lru() {
        // 4 entries, fully associative (1 set of 4 ways). Touch 5 branches
        // round-robin: every access misses because LRU always just evicted
        // the branch about to return.
        let mut btb = Btb::new(BtbConfig::new(4, 4));
        for round in 0..3 {
            for b in 0..5u64 {
                let hit = btb.predict_and_update(b, 1000 + b);
                if round > 0 {
                    assert!(!hit, "round {round} branch {b} unexpectedly hit");
                }
            }
        }
        // The four most recent branches fill the BTB.
        for b in (1..5u64).rev() {
            assert!(btb.predict_and_update(b, 1000 + b), "branch {b} resident");
        }
    }

    #[test]
    fn working_set_within_capacity_all_hits() {
        let mut btb = Btb::new(BtbConfig::new(4, 4));
        for _ in 0..3 {
            for b in 0..4u64 {
                btb.predict_and_update(b, 1000 + b);
            }
        }
        for b in 0..4u64 {
            assert!(btb.predict_and_update(b, 1000 + b));
        }
    }

    #[test]
    fn tagless_conflict_produces_misprediction() {
        let sets = BtbConfig::new(8, 1).tagless().sets() as u64;
        let mut btb = Btb::new(BtbConfig::new(8, 1).tagless());
        // Branches `0` and `sets` map to the same set and fight over it.
        btb.predict_and_update(0, 111);
        btb.predict_and_update(sets, 222);
        assert!(!btb.predict_and_update(0, 111));
        assert!(!btb.predict_and_update(sets, 222));
    }

    #[test]
    fn tagged_assoc_resolves_conflicts() {
        let cfg = BtbConfig::new(8, 2);
        let sets = cfg.sets() as u64;
        let mut btb = Btb::new(cfg);
        btb.predict_and_update(0, 111);
        btb.predict_and_update(sets, 222);
        assert!(btb.predict_and_update(0, 111));
        assert!(btb.predict_and_update(sets, 222));
    }

    #[test]
    fn describe_mentions_geometry() {
        let btb = Btb::new(BtbConfig::celeron());
        assert_eq!(btb.describe(), "btb-128x4-tagged");
    }
}
