//! Property tests for the predictor simulators.

use ivm_harness::prop::{self, Source};
use ivm_harness::{prop_assert, prop_assert_eq};

use ivm_bpred::{
    Btb, BtbConfig, FoldedHistory, GlobalHistory, IdealBtb, IndirectPredictor, Ittage,
    IttageConfig, PathHybrid, PathHybridConfig, PredStats, TwoBitBtb, TwoLevelConfig,
    TwoLevelPredictor,
};

/// A random dispatch stream: branch/target pairs drawn from small pools so
/// that re-use (the interesting case) actually happens.
fn stream(src: &mut Source) -> Vec<(u64, u64)> {
    src.vec_of(1..300, |s| (0x1000 + s.int_in(0u64..24) * 16, 0x9000 + s.int_in(0u64..24) * 16))
}

fn predictors() -> Vec<Box<dyn IndirectPredictor>> {
    vec![
        Box::new(IdealBtb::new()),
        Box::new(Btb::new(BtbConfig::new(16, 1))),
        Box::new(Btb::new(BtbConfig::new(16, 4))),
        Box::new(Btb::new(BtbConfig::new(16, 1).tagless())),
        Box::new(Btb::new(BtbConfig::celeron())),
        Box::new(TwoBitBtb::new()),
        Box::new(TwoLevelPredictor::new(TwoLevelConfig::pentium_m())),
        Box::new(PathHybrid::new(PathHybridConfig::classic())),
        Box::new(Ittage::new(IttageConfig::small())),
        Box::new(Ittage::new(IttageConfig::firestorm())),
    ]
}

/// Predictors are deterministic: two fresh instances fed the same stream
/// give identical outcomes.
#[test]
fn fresh_predictors_agree() {
    prop::check("fresh_predictors_agree", prop::Config::from_env(), |src| {
        let stream = stream(src);
        for (mut p, mut q) in predictors().into_iter().zip(predictors()) {
            let first: Vec<bool> =
                stream.iter().map(|&(b, t)| p.predict_and_update(b, t)).collect();
            let second: Vec<bool> =
                stream.iter().map(|&(b, t)| q.predict_and_update(b, t)).collect();
            prop_assert_eq!(&first, &second, "two fresh {} diverged", p.describe());
        }
        Ok(())
    });
}

/// A monomorphic branch is predicted by every BTB-family predictor
/// after one execution, regardless of interleaved other branches that
/// do not alias it away (ideal/2-bit have no aliasing at all).
#[test]
fn monomorphic_branches_hit_on_unbounded_predictors() {
    prop::check(
        "monomorphic_branches_hit_on_unbounded_predictors",
        prop::Config::from_env(),
        |src| {
            let target = 0x5000 + src.int_in(0u64..1000) * 8;
            for mut p in [
                Box::new(IdealBtb::new()) as Box<dyn IndirectPredictor>,
                Box::new(TwoBitBtb::new()),
            ] {
                p.predict_and_update(0x42, target);
                for _ in 0..10 {
                    prop_assert!(p.predict_and_update(0x42, target), "{}", p.describe());
                }
            }
            Ok(())
        },
    );
}

/// The ideal BTB is an upper bound for any finite tagged BTB on the
/// same stream (finite ones only add capacity/conflict misses).
#[test]
fn ideal_upper_bounds_finite_tagged() {
    prop::check("ideal_upper_bounds_finite_tagged", prop::Config::from_env(), |src| {
        let stream = stream(src);
        let (mut ideal, mut finite) = (IdealBtb::new(), Btb::new(BtbConfig::new(8, 1)));
        let (mut ideal_stats, mut finite_stats) = (PredStats::default(), PredStats::default());
        for &(b, t) in &stream {
            ideal_stats.record(ideal.predict_and_update(b, t));
            finite_stats.record(finite.predict_and_update(b, t));
        }
        prop_assert!(ideal_stats.mispredicted <= finite_stats.mispredicted);
        Ok(())
    });
}

/// Tallied predictor outcomes count every execution.
#[test]
fn stats_count_everything() {
    prop::check("stats_count_everything", prop::Config::from_env(), |src| {
        let stream = stream(src);
        let mut p = IdealBtb::new();
        let mut stats = PredStats::default();
        for &(b, t) in &stream {
            stats.record(p.predict_and_update(b, t));
        }
        prop_assert_eq!(stats.executed, stream.len() as u64);
        prop_assert!(stats.mispredicted <= stats.executed);
        let rate = stats.misprediction_rate();
        prop_assert!((0.0..=1.0).contains(&rate));
        Ok(())
    });
}

/// The O(1) circular-shift fold equals the O(L) from-scratch fold of
/// the raw history ring after every push, for arbitrary (length, width)
/// geometries and bit streams. The ring's capacity is drawn on its own,
/// so rings span several words and are mostly not a power of two; the
/// stream is long enough to wrap the ring, and every age at or past the
/// capacity reads zero.
#[test]
fn folded_history_matches_reference_recompute() {
    prop::check("folded_history_matches_reference_recompute", prop::Config::from_env(), |src| {
        let width = src.int_in(1usize..34);
        let length = src.int_in(1usize..301);
        // The ring must hold the fold's window; beyond that its size is free.
        let capacity = src.int_in(1usize..601).max(length);
        let mut hist = GlobalHistory::new(capacity);
        let mut fold = FoldedHistory::new(length, width);
        let pushes = capacity + src.int_in(1usize..200);
        let bits = src.vec_exact(pushes, |s| s.bool());
        for &bit in &bits {
            let outgoing = hist.bit(length - 1);
            hist.push(bit);
            fold.update(bit, outgoing);
            prop_assert_eq!(
                fold.value(),
                FoldedHistory::recompute(&hist, length, width),
                "fold (len {}, width {}) diverged from reference",
                length,
                width
            );
            prop_assert!(fold.value() < (1 << width), "fold exceeded its width");
        }
        // Ages up to twice the ring's power-of-two span, so ages that
        // wrap onto live ring positions are read too.
        for age in capacity..2 * capacity.next_power_of_two().max(64) {
            prop_assert!(!hist.bit(age), "age {} of a {}-bit ring read one", age, capacity);
        }
        Ok(())
    });
}

/// ITTAGE's provider/alternate breakdown accounts for every event, and
/// its realised history lengths stay within the configured bounds
/// (table-index safety: folds and ring sizes derive from these).
#[test]
fn ittage_breakdown_accounts_every_event() {
    prop::check("ittage_breakdown_accounts_every_event", prop::Config::from_env(), |src| {
        let stream = stream(src);
        let cfg =
            src.pick(&[IttageConfig::small(), IttageConfig::medium(), IttageConfig::firestorm()]);
        let mut p = Ittage::new(cfg);
        let lengths = p.history_lengths().to_vec();
        prop_assert_eq!(lengths.len(), cfg.tables);
        prop_assert!(lengths.windows(2).all(|w| w[0] < w[1]));
        prop_assert!(*lengths.last().unwrap() <= cfg.max_history.max(cfg.tables));
        let mut mispredicted = 0u64;
        for &(b, t) in &stream {
            if !p.predict_and_update(b, t) {
                mispredicted += 1;
            }
        }
        let bd = p.breakdown();
        prop_assert_eq!(bd.total(), stream.len() as u64, "every event must be attributed");
        prop_assert_eq!(
            bd.base_misses + bd.alt_misses + bd.provider_misses.iter().sum::<u64>(),
            mispredicted,
            "attributed misses must equal observed mispredictions"
        );
        Ok(())
    });
}

/// Tag aliasing: two branches whose streams are interleaved never make
/// ITTAGE's verdicts depend on *untracked* state — two fresh instances
/// fed the exact stream agree bit for bit even when tags alias (the
/// aliasing itself must be a deterministic function of the stream).
#[test]
fn ittage_aliasing_is_deterministic() {
    prop::check("ittage_aliasing_is_deterministic", prop::Config::from_env(), |src| {
        // A tiny table forces tag/index aliasing between the pools.
        let cfg = IttageConfig {
            base_bits: 3,
            table_bits: 2,
            tag_bits: 3,
            min_history: 2,
            max_history: 8,
            tables: 2,
            useful_reset_period: 64,
        };
        let stream = stream(src);
        let (mut p, mut q) = (Ittage::new(cfg), Ittage::new(cfg));
        let first: Vec<bool> = stream.iter().map(|&(b, t)| p.predict_and_update(b, t)).collect();
        let second: Vec<bool> = stream.iter().map(|&(b, t)| q.predict_and_update(b, t)).collect();
        prop_assert_eq!(&first, &second, "two fresh aliased ittages diverged");
        prop_assert_eq!(p.breakdown(), q.breakdown(), "breakdown must replay identically");
        Ok(())
    });
}

/// The reference model of a tagged [`Btb`]: each set lists its resident
/// `(branch, target)` entries in LRU order, least recently used first.
/// A hit moves its entry to the back; a miss evicts the front entry of a
/// full set and appends the new one.
struct ReferenceBtb {
    assoc: usize,
    sets: Vec<Vec<(u64, u64)>>,
}

impl ReferenceBtb {
    fn new(sets: usize, assoc: usize) -> Self {
        Self { assoc, sets: vec![Vec::new(); sets] }
    }

    fn predict_and_update(&mut self, branch: u64, target: u64) -> bool {
        let n = self.sets.len() as u64;
        let set = &mut self.sets[(branch % n) as usize];
        let hit = match set.iter().position(|&(b, _)| b == branch) {
            Some(i) => set.remove(i).1 == target,
            None => {
                if set.len() == self.assoc {
                    set.remove(0);
                }
                false
            }
        };
        set.push((branch, target));
        hit
    }
}

/// The tagged `Btb` gives the reference model's verdict on every event,
/// over random geometries (1 to 64 sets, 1 to 8 ways) and streams whose
/// branch pool is larger than the BTB. Branches come mostly from a small
/// working set, so entries are reused as well as evicted, and each
/// target follows from its branch and the previous target, as an
/// interpreter's next routine follows from the current one.
#[test]
fn tagged_btb_matches_reference_lru_model() {
    prop::check("tagged_btb_matches_reference_lru_model", prop::Config::from_env(), |src| {
        let sets = 1usize << src.int_in(0u32..7);
        let assoc = src.int_in(1usize..9);
        let entries = sets * assoc;
        let pool = entries + src.int_in(1usize..2 * entries + 2);
        let stride = src.pick(&[1u64, 3, 4, 16, 64]);
        let working_set = src.int_in(1usize..pool + 1);
        let targets = src.int_in(1u64..9);
        let len = src.int_in(1usize..600);
        let mut stream = Vec::with_capacity(len);
        let mut previous = 0u64;
        for _ in 0..len {
            let b = if src.bool() { src.int_in(0..working_set) } else { src.int_in(0..pool) };
            let t = (b as u64 * 7 + previous) % targets;
            previous = t;
            stream.push((0x1000 + b as u64 * stride, 0x9000 + t * 16));
        }

        let mut btb = Btb::new(BtbConfig::new(entries, assoc));
        let mut reference = ReferenceBtb::new(sets, assoc);
        for (i, &(b, t)) in stream.iter().enumerate() {
            prop_assert_eq!(
                btb.predict_and_update(b, t),
                reference.predict_and_update(b, t),
                "{}x{} BTB diverged from the LRU model at event {} (branch {:#x})",
                sets,
                assoc,
                i,
                b
            );
        }
        Ok(())
    });
}
