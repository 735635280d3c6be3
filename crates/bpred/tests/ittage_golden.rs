//! Golden digests pinning the exact behaviour of the history predictors.
//!
//! `trace_sweep` and the property suites compare a predictor with itself
//! (live engine vs replay, two fresh instances), so a change to ITTAGE's
//! or the path hybrid's arithmetic that is self-consistent would pass them.
//! These tests instead pin every verdict and every [`IttageBreakdown`]
//! counter on seeded, history-correlated dispatch streams to recorded
//! FNV-1a digests: any behaviour change, however small, fails here.

use ivm_bpred::{
    Addr, IndirectPredictor, Ittage, IttageBreakdown, IttageConfig, PathHybrid, PathHybridConfig,
};
use ivm_harness::Xoshiro256StarStar;

/// Events per seeded stream, and the seeds fed to every predictor
/// (about 2M events over the whole file).
const STREAM_LEN: usize = 40_000;
const SEEDS: [u64; 7] = [1, 2, 3, 5, 8, 13, 9173];

/// A seeded interpreter-like dispatch stream. Between 4 and 63 virtual
/// instructions dispatch either through their own branch (threaded code)
/// or through one shared branch (switch dispatch). The next instruction
/// is a fixed random function of the previous two with probability 7/8
/// and uniform otherwise, so targets correlate with history without
/// settling into one loop.
fn stream(seed: u64) -> Vec<(Addr, Addr)> {
    let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
    let ops = 4 + rng.below_usize(60);
    let shared = rng.gen_bool();
    let follow: Vec<usize> = (0..ops * ops).map(|_| rng.below_usize(ops)).collect();
    let addr = |op: usize| 0x8000 + op as u64 * 0x40;
    let (mut prev, mut cur) = (0, 1);
    (0..STREAM_LEN)
        .map(|_| {
            let next =
                if rng.below(8) != 0 { follow[prev * ops + cur] } else { rng.below_usize(ops) };
            let branch = if shared { 0x40 } else { addr(cur) + 0x3c };
            (prev, cur) = (cur, next);
            (branch, addr(next))
        })
        .collect()
}

/// 64-bit FNV-1a over little-endian words.
struct Fnv(u64);

impl Fnv {
    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// Feeds every seeded stream through a fresh predictor from `build`, and
/// digests the positions of the hits plus whatever `per_stream` adds at
/// the end of each stream.
fn digest<P: IndirectPredictor>(
    build: impl Fn() -> P,
    mut per_stream: impl FnMut(&mut Fnv, &P),
) -> u64 {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    for seed in SEEDS {
        let mut p = build();
        for (i, (branch, target)) in stream(seed).into_iter().enumerate() {
            if p.predict_and_update(branch, target) {
                h.word(i as u64);
            }
        }
        per_stream(&mut h, &p);
    }
    h.0
}

/// Checks `cfg`'s verdicts and per-stream breakdowns against `expected`
/// and returns the allocation failures seen over all streams.
fn check_ittage(name: &str, cfg: IttageConfig, expected: u64) -> u64 {
    let mut failures = 0;
    let got = digest(
        || Ittage::new(cfg),
        |h, p| {
            // Destructured so that no field can be left out of the digest.
            let IttageBreakdown {
                base_hits,
                base_misses,
                provider_hits,
                provider_misses,
                alt_hits,
                alt_misses,
                allocations,
                allocation_failures,
            } = p.breakdown();
            for &w in
                [base_hits, base_misses, alt_hits, alt_misses, allocations, allocation_failures]
                    .into_iter()
                    .chain(provider_hits)
                    .chain(provider_misses)
            {
                h.word(w);
            }
            failures += allocation_failures;
        },
    );
    assert_eq!(got, expected, "ittage {name}: behaviour changed (digest {got:#018x})");
    failures
}

#[test]
fn ittage_small_is_pinned() {
    check_ittage("small", IttageConfig::small(), 0xd4a7_5aba_8f6e_dbd7);
}

#[test]
fn ittage_medium_is_pinned() {
    check_ittage("medium", IttageConfig::medium(), 0xb06f_f4cf_6687_06a7);
}

#[test]
fn ittage_firestorm_is_pinned() {
    check_ittage("firestorm", IttageConfig::firestorm(), 0x08ec_22ab_d28e_4f15);
}

#[test]
fn ittage_64kb_is_pinned() {
    check_ittage("seznec_64kb", IttageConfig::seznec_64kb(), 0x6b48_e6ce_3f56_9228);
}

/// Two tables of four entries over one- and two-bit histories: every
/// table aliases constantly, so allocation fails and usefulness ages
/// many times per stream.
#[test]
fn ittage_tiny_aliasing_is_pinned() {
    let cfg = IttageConfig {
        base_bits: 2,
        table_bits: 2,
        tag_bits: 4,
        min_history: 1,
        max_history: 2,
        tables: 2,
        useful_reset_period: 64,
    };
    let failures = check_ittage("tiny", cfg, 0x7a0e_3290_c692_cafc);
    assert!(failures > 0, "the tiny config must exercise allocation failure");
}

/// The widest geometry the predictor accepts: 16 tables and 32-bit tags,
/// with histories up to 300 bits (a 600-bit ring) and usefulness aging
/// every 4096 events, nine times per stream.
#[test]
fn ittage_wide_is_pinned() {
    let cfg = IttageConfig {
        base_bits: 8,
        table_bits: 7,
        tag_bits: 32,
        min_history: 2,
        max_history: 300,
        tables: 16,
        useful_reset_period: 1 << 12,
    };
    check_ittage("wide", cfg, 0xbaec_fb59_0311_d5f1);
}

#[test]
fn path_hybrid_is_pinned() {
    let got = digest(|| PathHybrid::new(PathHybridConfig::classic()), |_, _| {});
    assert_eq!(got, 0x1bb9_6036_8d7c_1623, "path hybrid: behaviour changed (digest {got:#018x})");
}
