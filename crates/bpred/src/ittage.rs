//! ITTAGE-style tagged geometric-history indirect prediction.
//!
//! Seznec and Michaud's ITTAGE (the indirect-target member of the TAGE
//! family, and the predictor class shipped in post-2015 high-end cores
//! such as Apple's Firestorm — see arXiv 2411.13900) backs a simple
//! last-target base table with N tagged tables indexed by geometrically
//! increasing global-history lengths. The longest-history table whose
//! partial tag matches *provides* the prediction; the next-longest match
//! (or the base table) is the *alternate*. Mispredictions allocate a new
//! entry in a longer-history table, so hard branches migrate toward the
//! history depth that disambiguates them while easy branches stay cheap.
//!
//! This simulator keeps the published structure (provider/alternate
//! selection, confidence and usefulness counters, allocate-on-mispredict,
//! periodic usefulness aging, folded-history indexing) but replaces every
//! randomized tie-break in the literature with a deterministic rule —
//! first-fit allocation, fixed aging cadence — so replays are bit-exact,
//! matching the repo-wide determinism contract. All index and tag
//! derivation goes through the crate's [`AddrHasher`](crate::AddrHasher)
//! round and finaliser; there are no ad-hoc hash mixers here.

use crate::folded::{FoldedHistory, GlobalHistory};
use crate::hash::{finish, mix};
use crate::{Addr, IndirectPredictor};

/// How many history bits each dispatch event contributes. Interpreter
/// dispatch branches are unconditional indirects, so instead of a
/// taken/not-taken bit the history absorbs two hashed bits of the
/// *target* — the signal that actually distinguishes occurrences.
const BITS_PER_EVENT: usize = 2;

/// Saturation limits: 2-bit confidence, 2-bit usefulness, 4-bit
/// use-alt-on-newly-allocated counter.
const CTR_MAX: u8 = 3;
const USEFUL_MAX: u8 = 3;
const USE_ALT_MIN: i8 = -8;
const USE_ALT_MAX: i8 = 7;

/// A tagged entry's state byte: the valid flag, the confidence counter
/// in bits 2..=3 and the usefulness counter in bits 0..=1. An entry
/// never allocated has state 0.
const VALID: u8 = 0x80;
const CTR_SHIFT: u32 = 2;

/// Configuration for [`Ittage`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct IttageConfig {
    /// log2 of the base (tagless last-target) table size.
    pub base_bits: u32,
    /// log2 of each tagged table's size.
    pub table_bits: u32,
    /// Width of the partial tags stored in tagged entries.
    pub tag_bits: u32,
    /// Shortest tagged-table history length, in bits.
    pub min_history: usize,
    /// Longest tagged-table history length, in bits.
    pub max_history: usize,
    /// Number of tagged tables (geometrically spaced histories).
    pub tables: usize,
    /// Usefulness counters age every this-many predictions.
    pub useful_reset_period: u64,
}

impl IttageConfig {
    /// A small budget: 4 tagged tables of 256 entries over histories
    /// 4..32 plus a 512-entry base — roughly the storage of the paper's
    /// Celeron BTB, for like-for-like comparisons.
    pub fn small() -> Self {
        Self {
            base_bits: 9,
            table_bits: 8,
            tag_bits: 9,
            min_history: 4,
            max_history: 32,
            tables: 4,
            useful_reset_period: 1 << 17,
        }
    }

    /// A medium budget: 6 tagged tables of 512 entries over histories
    /// 4..64 plus a 2048-entry base.
    pub fn medium() -> Self {
        Self {
            base_bits: 11,
            table_bits: 9,
            tag_bits: 10,
            min_history: 4,
            max_history: 64,
            tables: 6,
            useful_reset_period: 1 << 18,
        }
    }

    /// A 64KB-class budget after Seznec's championship ITTAGE: 8 tagged
    /// tables of 2048 entries over histories 4..256 plus an 8192-entry
    /// base.
    pub fn seznec_64kb() -> Self {
        Self {
            base_bits: 13,
            table_bits: 11,
            tag_bits: 12,
            min_history: 4,
            max_history: 256,
            tables: 8,
            useful_reset_period: 1 << 19,
        }
    }

    /// A Firestorm/Oryon-inspired point after the reverse-engineering in
    /// arXiv 2411.13900: few tables, moderate capacity, histories long
    /// enough to cover an interpreter's dispatch loop — modelling the
    /// indirect predictors measured in Apple M-series and Qualcomm Oryon
    /// cores rather than a championship configuration.
    pub fn firestorm() -> Self {
        Self {
            base_bits: 11,
            table_bits: 10,
            tag_bits: 11,
            min_history: 8,
            max_history: 96,
            tables: 3,
            useful_reset_period: 1 << 18,
        }
    }

    /// The geometric history length of tagged table `i` (0-based,
    /// shortest first): `min * (max/min)^(i/(tables-1))`, rounded, and
    /// forced strictly increasing.
    pub fn history_lengths(&self) -> Vec<usize> {
        let mut lengths = Vec::with_capacity(self.tables);
        let (min, max) = (self.min_history as f64, self.max_history as f64);
        for i in 0..self.tables {
            let l = if self.tables == 1 {
                max
            } else {
                min * (max / min).powf(i as f64 / (self.tables - 1) as f64)
            };
            let mut l = l.round() as usize;
            if let Some(&prev) = lengths.last() {
                l = l.max(prev + 1);
            }
            lengths.push(l);
        }
        lengths
    }
}

impl Default for IttageConfig {
    fn default() -> Self {
        Self::medium()
    }
}

/// Which component supplied the final prediction for one event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Component {
    /// The tagless base table (or a cold miss in it).
    Base,
    /// Tagged table `i` as provider.
    Table(usize),
    /// The alternate prediction overrode a weak provider.
    Alt,
}

/// Deterministic accounting of which ITTAGE component predicted, split
/// by outcome. `provider_hits[i]`/`provider_misses[i]` count events
/// where tagged table `i` supplied the final prediction; `base_*` count
/// events the base table supplied (no tag match); `alt_*` count events
/// where the alternate overrode a weak provider. Exposed so the
/// observability layer can attribute accuracy to history depth.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IttageBreakdown {
    /// Final predictions supplied by the base table that hit.
    pub base_hits: u64,
    /// Final predictions supplied by the base table that missed.
    pub base_misses: u64,
    /// Hits per tagged table acting as provider (index 0 = shortest history).
    pub provider_hits: Vec<u64>,
    /// Misses per tagged table acting as provider.
    pub provider_misses: Vec<u64>,
    /// Events where the alternate overrode a newly-allocated provider and hit.
    pub alt_hits: u64,
    /// Events where the alternate overrode a newly-allocated provider and missed.
    pub alt_misses: u64,
    /// Tagged entries allocated on mispredictions.
    pub allocations: u64,
    /// Mispredictions where no allocation slot was free (usefulness decayed instead).
    pub allocation_failures: u64,
}

impl IttageBreakdown {
    fn new(tables: usize) -> Self {
        Self { provider_hits: vec![0; tables], provider_misses: vec![0; tables], ..Self::default() }
    }

    /// Total events accounted for (must equal the executed count).
    pub fn total(&self) -> u64 {
        self.base_hits
            + self.base_misses
            + self.alt_hits
            + self.alt_misses
            + self.provider_hits.iter().sum::<u64>()
            + self.provider_misses.iter().sum::<u64>()
    }
}

/// Per-table folded-history state: one fold for the index and two
/// differently-sized folds for the tag (the standard TAGE trick to keep
/// tag and index decorrelated).
#[derive(Debug, Clone)]
struct TableHistory {
    index_fold: FoldedHistory,
    tag_fold_a: FoldedHistory,
    /// `None` when this fold is as wide as the index fold (`tag_bits - 1
    /// == table_bits`, as in every named config): over the same length
    /// the two are the same image, so the index fold stands in for it.
    tag_fold_b: Option<FoldedHistory>,
}

impl TableHistory {
    fn tag_fold_b(&self) -> u64 {
        self.tag_fold_b.as_ref().unwrap_or(&self.index_fold).value()
    }
}

/// An ITTAGE-style indirect target predictor (see module docs).
///
/// # Examples
///
/// ```
/// use ivm_bpred::{Ittage, IttageConfig, IndirectPredictor};
///
/// let mut p = Ittage::new(IttageConfig::small());
/// // A history-dependent branch a BTB cannot learn: the target after
/// // (A, B) differs from the target after (B, A).
/// for _ in 0..64 {
///     p.predict_and_update(1, 0xA);
///     p.predict_and_update(1, 0xB);
///     p.predict_and_update(1, 0xC);
/// }
/// assert!(p.predict_and_update(1, 0xA));
/// ```
#[derive(Debug, Clone)]
pub struct Ittage {
    config: IttageConfig,
    lengths: Vec<usize>,
    base: Vec<Option<Addr>>,
    /// The tagged tables as struct-of-arrays, table `t`'s entries at
    /// `t << table_bits ..`: partial tags, predicted targets and the
    /// [`VALID`]/confidence/usefulness state bytes.
    tags: Vec<u32>,
    targets: Vec<Addr>,
    states: Vec<u8>,
    history: GlobalHistory,
    folds: Vec<TableHistory>,
    use_alt_on_na: i8,
    /// Events left until the next usefulness aging.
    until_aging: u64,
    /// Alternates between clearing the high and low usefulness bit on
    /// successive aging epochs (Seznec's scheme, made deterministic).
    age_phase: bool,
    breakdown: IttageBreakdown,
}

impl Ittage {
    /// Creates an empty predictor with the given geometry.
    pub fn new(config: IttageConfig) -> Self {
        assert!(config.tables > 0, "need at least one tagged table");
        assert!(config.tables <= 16, "{} tagged tables is unreasonable", config.tables);
        assert!(config.base_bits <= 24, "base table of 2^{} entries", config.base_bits);
        assert!(config.table_bits <= 24, "tagged table of 2^{} entries", config.table_bits);
        assert!((1..=32).contains(&config.tag_bits), "tag width must be in 1..=32");
        assert!(config.min_history > 0, "minimum history must be positive");
        assert!(config.max_history >= config.min_history, "max history shorter than min history");
        assert!(config.useful_reset_period > 0, "aging period must be positive");
        let lengths = config.history_lengths();
        let width_b = (config.tag_bits as usize).max(2) - 1;
        let folds = lengths
            .iter()
            .map(|&l| TableHistory {
                index_fold: FoldedHistory::new(l, config.table_bits as usize),
                // Two near-equal widths whose folds drift apart, so tags
                // do not alias the index fold.
                tag_fold_a: FoldedHistory::new(l, config.tag_bits as usize),
                tag_fold_b: (width_b != config.table_bits as usize)
                    .then(|| FoldedHistory::new(l, width_b)),
            })
            .collect();
        let max_len = *lengths.last().expect("at least one table");
        let entries = config.tables << config.table_bits;
        Self {
            base: vec![None; 1 << config.base_bits],
            tags: vec![0; entries],
            targets: vec![0; entries],
            states: vec![0; entries],
            // Deep enough for the longest table to read the bits one
            // event pushes past it.
            history: GlobalHistory::new(max_len + BITS_PER_EVENT),
            folds,
            use_alt_on_na: 0,
            until_aging: config.useful_reset_period,
            age_phase: false,
            breakdown: IttageBreakdown::new(config.tables),
            config,
            lengths,
        }
    }

    /// The configuration this predictor was built with.
    pub fn config(&self) -> IttageConfig {
        self.config
    }

    /// The realised geometric history lengths, shortest table first.
    pub fn history_lengths(&self) -> &[usize] {
        &self.lengths
    }

    /// Deterministic provider/alternate accounting since construction.
    pub fn breakdown(&self) -> &IttageBreakdown {
        &self.breakdown
    }

    /// Pushes one dispatch event into the global history and keeps every
    /// fold in sync. Each event contributes [`BITS_PER_EVENT`] hashed
    /// bits of the observed target, drawn from the hash's *high* end —
    /// a multiply-based hash mixes poorly into its low bits (bit 0 of
    /// `v * K` is bit 0 of `v` for odd `K`), and nearby targets sharing
    /// low hash bits would collapse the history to a constant.
    fn push_history(&mut self, target: Addr) {
        let hashed = finish(mix(0, target)) >> (64 - BITS_PER_EVENT);
        let bit = |b: usize| (hashed >> b) & 1 != 0;
        for b in 0..BITS_PER_EVENT {
            self.history.push(bit(b));
        }
        for f in &mut self.folds {
            // A table's three folds share one length, so they drop the
            // same bits: the one that was `length - 1` old when bit `b`
            // went in is now `length + BITS_PER_EVENT - 1 - b` old.
            let oldest = f.index_fold.length() + BITS_PER_EVENT - 1;
            for b in 0..BITS_PER_EVENT {
                let outgoing = self.history.bit(oldest - b);
                f.index_fold.update(bit(b), outgoing);
                f.tag_fold_a.update(bit(b), outgoing);
                if let Some(fold) = &mut f.tag_fold_b {
                    fold.update(bit(b), outgoing);
                }
            }
        }
    }

    /// Periodically ages all usefulness counters by clearing one of the
    /// two bits, alternating which — a fixed-cadence version of Seznec's
    /// scheme that keeps replays bit-exact.
    fn age_usefulness(&mut self) {
        let clear = if self.age_phase { 0b10 } else { 0b01 };
        self.age_phase = !self.age_phase;
        for s in &mut self.states {
            *s &= !clear;
        }
    }
}

/// The highest set bit of `mask`, if any.
fn top_bit(mask: u32) -> Option<usize> {
    mask.checked_ilog2().map(|b| b as usize)
}

impl IndirectPredictor for Ittage {
    fn predict_and_update(&mut self, branch: Addr, target: Addr) -> bool {
        // --- Predict: find provider (longest matching) and alternate. ---
        // Every index and tag hashes a tuple that starts with `branch`,
        // so that prefix is mixed once. Fixed-size scratch (tables <= 16)
        // keeps the per-event path allocation-free.
        let prefix = mix(0, branch);
        let index_mask = (1u64 << self.config.table_bits) - 1;
        let tag_mask = (1u64 << self.config.tag_bits) - 1;
        let mut slots = [0usize; 16];
        let mut tags = [0u32; 16];
        let mut matches = 0u32;
        for (t, f) in self.folds.iter().enumerate() {
            let index = finish(mix(mix(prefix, f.index_fold.value()), t as u64)) & index_mask;
            let folded = f.tag_fold_a.value() ^ (f.tag_fold_b() << 1);
            let tag = (finish(mix(mix(prefix, folded), 0x100 | t as u64)) & tag_mask) as u32;
            let slot = (t << self.config.table_bits) | index as usize;
            slots[t] = slot;
            tags[t] = tag;
            let hit = (self.states[slot] & VALID != 0) & (self.tags[slot] == tag);
            matches |= u32::from(hit) << t;
        }
        let provider = top_bit(matches);
        let alt = provider.and_then(|p| top_bit(matches & !(1 << p)));
        let bidx = (finish(prefix) & ((1u64 << self.config.base_bits) - 1)) as usize;
        let base_pred = self.base[bidx];
        let alt_pred = match alt {
            Some(t) => Some(self.targets[slots[t]]),
            None => base_pred,
        };
        let (component, prediction) = match provider {
            Some(t) => {
                let slot = slots[t];
                // A newly-allocated (weak) provider defers to the
                // alternate while use_alt_on_na says alternates are
                // winning.
                if (self.states[slot] >> CTR_SHIFT) & CTR_MAX == 0
                    && self.use_alt_on_na >= 0
                    && alt_pred.is_some()
                {
                    (Component::Alt, alt_pred)
                } else {
                    (Component::Table(t), Some(self.targets[slot]))
                }
            }
            None => (Component::Base, base_pred),
        };
        let hit = prediction == Some(target);

        // --- Account. ---
        let bd = &mut self.breakdown;
        let (hits, misses) = match component {
            Component::Base => (&mut bd.base_hits, &mut bd.base_misses),
            Component::Table(t) => (&mut bd.provider_hits[t], &mut bd.provider_misses[t]),
            Component::Alt => (&mut bd.alt_hits, &mut bd.alt_misses),
        };
        *if hit { hits } else { misses } += 1;

        // --- Update the provider chain. ---
        if let Some(t) = provider {
            let slot = slots[t];
            let state = self.states[slot];
            let (mut ctr, mut useful) = ((state >> CTR_SHIFT) & CTR_MAX, state & USEFUL_MAX);
            let provider_target = self.targets[slot];
            let provider_correct = provider_target == target;
            let alt_correct = alt_pred == Some(target);
            // Track whether alternates beat weak providers.
            if ctr == 0 && provider_correct != alt_correct {
                self.use_alt_on_na = if alt_correct {
                    (self.use_alt_on_na + 1).min(USE_ALT_MAX)
                } else {
                    (self.use_alt_on_na - 1).max(USE_ALT_MIN)
                };
            }
            // Usefulness: the provider proved its worth only when it
            // disagreed with the alternate and was right.
            if provider_target != alt_pred.unwrap_or(u64::MAX) {
                useful = if provider_correct {
                    (useful + 1).min(USEFUL_MAX)
                } else {
                    useful.saturating_sub(1)
                };
            }
            // Confidence: strengthen on correct target, weaken on wrong,
            // replace once confidence is exhausted.
            if provider_correct {
                ctr = (ctr + 1).min(CTR_MAX);
            } else if ctr > 0 {
                ctr -= 1;
            } else {
                self.targets[slot] = target;
            }
            self.states[slot] = VALID | (ctr << CTR_SHIFT) | useful;
        }

        // --- Allocate on final misprediction. ---
        let start = provider.map_or(0, |t| t + 1);
        if !hit && start < self.config.tables {
            let eligible = &slots[start..self.config.tables];
            // Deterministic first-fit: claim the first not-useful entry
            // in the shortest eligible table (an entry never allocated
            // has state 0, so it reads as not useful).
            match eligible.iter().position(|&slot| self.states[slot] & USEFUL_MAX == 0) {
                Some(i) => {
                    let slot = eligible[i];
                    self.tags[slot] = tags[start + i];
                    self.targets[slot] = target;
                    self.states[slot] = VALID;
                    self.breakdown.allocations += 1;
                }
                // Everything useful: decay so a future mispredict can get
                // in. Usefulness is the state's low field and nonzero
                // here, so subtracting one borrows from no other field.
                None => {
                    for &slot in eligible {
                        self.states[slot] -= 1;
                    }
                    self.breakdown.allocation_failures += 1;
                }
            }
        }

        // --- Base table and history always update. ---
        self.base[bidx] = Some(target);
        self.push_history(target);
        self.until_aging -= 1;
        if self.until_aging == 0 {
            self.until_aging = self.config.useful_reset_period;
            self.age_usefulness();
        }
        hit
    }

    fn describe(&self) -> String {
        format!(
            "ittage-{}x{}-h{}..{}-base{}",
            self.config.tables,
            1u64 << self.config.table_bits,
            self.config.min_history,
            self.config.max_history,
            1u64 << self.config.base_bits,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::IdealBtb;

    fn drive(p: &mut impl IndirectPredictor, seq: &[(Addr, Addr)], reps: usize) -> usize {
        let mut misses = 0;
        for _ in 0..reps {
            for &(b, t) in seq {
                if !p.predict_and_update(b, t) {
                    misses += 1;
                }
            }
        }
        misses
    }

    /// A shared dispatch branch whose target depends on context — the
    /// interpreter pattern replication exists to fix in software.
    fn polymorphic_loop() -> Vec<(Addr, Addr)> {
        let br = 0x40;
        vec![(br, 0xA00), (0x41, 0x111), (br, 0xB00), (0x41, 0x222), (br, 0xC00), (0x42, 0x333)]
    }

    #[test]
    fn learns_history_dependent_targets() {
        let mut p = Ittage::new(IttageConfig::small());
        drive(&mut p, &polymorphic_loop(), 200); // warm up
        let misses = drive(&mut p, &polymorphic_loop(), 100);
        assert_eq!(misses, 0, "warmed ITTAGE should predict the periodic loop perfectly");
    }

    #[test]
    fn beats_ideal_btb_on_polymorphic_branches() {
        let mut ittage = Ittage::new(IttageConfig::small());
        let mut ideal = IdealBtb::new();
        drive(&mut ittage, &polymorphic_loop(), 200);
        drive(&mut ideal, &polymorphic_loop(), 200);
        let (i_miss, b_miss) = (
            drive(&mut ittage, &polymorphic_loop(), 100),
            drive(&mut ideal, &polymorphic_loop(), 100),
        );
        assert!(
            i_miss < b_miss,
            "ittage {i_miss} misses should beat ideal-btb {b_miss} on a polymorphic loop"
        );
    }

    #[test]
    fn monomorphic_branches_hit_after_warmup() {
        let mut p = Ittage::new(IttageConfig::medium());
        for _ in 0..8 {
            p.predict_and_update(7, 0x700);
        }
        assert!(p.predict_and_update(7, 0x700));
    }

    #[test]
    fn breakdown_accounts_every_event() {
        let mut p = Ittage::new(IttageConfig::small());
        let events = drive(&mut p, &polymorphic_loop(), 50);
        let _ = events;
        assert_eq!(p.breakdown().total(), 50 * polymorphic_loop().len() as u64);
    }

    #[test]
    fn history_lengths_are_geometric_and_increasing() {
        let cfg = IttageConfig::seznec_64kb();
        let lengths = cfg.history_lengths();
        assert_eq!(lengths.len(), cfg.tables);
        assert_eq!(lengths[0], cfg.min_history);
        assert_eq!(*lengths.last().unwrap(), cfg.max_history);
        assert!(lengths.windows(2).all(|w| w[0] < w[1]), "{lengths:?} not increasing");
    }

    #[test]
    fn describe_names_geometry() {
        let p = Ittage::new(IttageConfig::small());
        assert_eq!(p.describe(), "ittage-4x256-h4..32-base512");
    }

    #[test]
    fn named_configs_construct() {
        for cfg in [
            IttageConfig::small(),
            IttageConfig::medium(),
            IttageConfig::seznec_64kb(),
            IttageConfig::firestorm(),
        ] {
            let mut p = Ittage::new(cfg);
            assert!(!p.predict_and_update(1, 2), "cold miss expected");
        }
    }
}
