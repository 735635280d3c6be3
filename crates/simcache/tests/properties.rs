//! Property tests for the fetch-cache simulators and cost model.

use ivm_harness::prop::{self, Source};
use ivm_harness::{prop_assert, prop_assert_eq};

use ivm_cache::{CycleCosts, FetchCache, Icache, IcacheConfig, PerfCounters};

fn accesses(src: &mut Source) -> Vec<(u64, u32)> {
    src.vec_of(1..300, |s| (s.int_in(0u64..1 << 16), s.int_in(1u32..96)))
}

fn configs() -> Vec<IcacheConfig> {
    vec![
        IcacheConfig::celeron_l1i(),
        IcacheConfig { capacity: 1024, line_size: 32, assoc: 2 },
        IcacheConfig::pentium4_trace(),
    ]
}

/// Total misses, summed over the per-set counters.
fn misses(c: &Icache) -> u64 {
    c.set_misses().iter().sum()
}

/// Misses are bounded by line touches, and the per-set counters account
/// for every miss a fetch reported.
#[test]
fn misses_bounded_by_touches() {
    prop::check("misses_bounded_by_touches", prop::Config::from_env(), |src| {
        let accesses = accesses(src);
        for cfg in configs() {
            let mut c = Icache::new(cfg);
            let mut total_touches = 0u64;
            let mut reported = 0u64;
            for &(addr, len) in &accesses {
                let missed = c.fetch(addr, len);
                // A fetch of len bytes touches at most len/line + 1 lines;
                // use a generous bound independent of geometry.
                prop_assert!(missed <= u64::from(len) + 1, "{:?}", cfg);
                total_touches += u64::from(len / 8) + 2;
                reported += missed;
            }
            prop_assert!(misses(&c) <= total_touches);
            prop_assert_eq!(misses(&c), reported, "{:?}", cfg);
        }
        Ok(())
    });
}

/// Repeating the same access immediately always hits.
#[test]
fn immediate_repeat_hits() {
    prop::check("immediate_repeat_hits", prop::Config::from_env(), |src| {
        let addr = src.int_in(0u64..1 << 20);
        let len = src.int_in(1u32..64);
        for cfg in configs() {
            let mut c = Icache::new(cfg);
            c.fetch(addr, len);
            prop_assert_eq!(c.fetch(addr, len), 0, "{:?}", cfg);
        }
        Ok(())
    });
}

/// Two fresh caches of one geometry agree fetch by fetch: a cache's
/// misses depend only on its geometry and the access stream.
#[test]
fn fresh_caches_agree() {
    prop::check("fresh_caches_agree", prop::Config::from_env(), |src| {
        let accesses = accesses(src);
        for cfg in configs() {
            let (mut a, mut b) = (Icache::new(cfg), Icache::new(cfg));
            let first: Vec<u64> = accesses.iter().map(|&(x, l)| a.fetch(x, l)).collect();
            let second: Vec<u64> = accesses.iter().map(|&(x, l)| b.fetch(x, l)).collect();
            prop_assert_eq!(&first, &second, "{:?}", cfg);
            prop_assert_eq!(a.set_misses(), b.set_misses(), "{:?}", cfg);
        }
        Ok(())
    });
}

/// A strictly larger cache of the same shape never misses more on the
/// same trace (LRU inclusion-style property for same assoc scaling).
#[test]
fn bigger_cache_never_worse() {
    prop::check("bigger_cache_never_worse", prop::Config::from_env(), |src| {
        let accesses = accesses(src);
        let mut small = Icache::new(IcacheConfig { capacity: 2048, line_size: 32, assoc: 64 });
        let mut big = Icache::new(IcacheConfig { capacity: 4096, line_size: 32, assoc: 128 });
        for &(a, l) in &accesses {
            small.fetch(a, l);
            big.fetch(a, l);
        }
        // Fully-associative LRU caches obey inclusion: more capacity can
        // only help.
        prop_assert!(misses(&big) <= misses(&small));
        Ok(())
    });
}

/// The reference model of an [`Icache`]: each set lists its resident
/// line numbers in LRU order, least recently used first. A hit moves its
/// line to the back; a miss evicts the front line of a full set, appends
/// the new one and charges the set.
struct ReferenceIcache {
    assoc: usize,
    line_size: u64,
    sets: Vec<Vec<u64>>,
    misses: Vec<u64>,
}

impl ReferenceIcache {
    fn new(cfg: IcacheConfig) -> Self {
        let sets = cfg.capacity / cfg.line_size / cfg.assoc;
        Self {
            assoc: cfg.assoc,
            line_size: cfg.line_size as u64,
            sets: vec![Vec::new(); sets],
            misses: vec![0; sets],
        }
    }

    fn fetch(&mut self, addr: u64, len: u32) -> u64 {
        if len == 0 {
            return 0;
        }
        let mut missed = 0;
        for line in addr / self.line_size..=(addr + u64::from(len) - 1) / self.line_size {
            let index = (line % self.sets.len() as u64) as usize;
            let set = &mut self.sets[index];
            match set.iter().position(|&l| l == line) {
                Some(i) => {
                    set.remove(i);
                }
                None => {
                    if set.len() == self.assoc {
                        set.remove(0);
                    }
                    self.misses[index] += 1;
                    missed += 1;
                }
            }
            set.push(line);
        }
        missed
    }
}

/// The `Icache` gives the reference model's miss count on every fetch and
/// its per-set misses at the end, over random geometries (1 to 64 sets, 1
/// to 8 ways, 16 to 64 B lines) and fetches from an address pool three
/// times the capacity. Half the fetches come from a smaller working set,
/// so lines are reused as well as evicted; lengths up to two lines make
/// fetches span lines, and zero-length fetches touch nothing.
#[test]
fn icache_matches_reference_lru_model() {
    prop::check("icache_matches_reference_lru_model", prop::Config::from_env(), |src| {
        let sets = 1usize << src.int_in(0u32..7);
        let assoc = src.int_in(1usize..9);
        let line_size = src.pick(&[16usize, 32, 64]);
        let cfg = IcacheConfig { capacity: sets * assoc * line_size, line_size, assoc };
        let pool = 3 * cfg.capacity as u64;
        let working_set = src.int_in(1u64..pool + 1);
        let fetches = src.int_in(1usize..600);
        let mut cache = Icache::new(cfg);
        let mut reference = ReferenceIcache::new(cfg);
        for i in 0..fetches {
            let addr = if src.bool() { src.int_in(0..working_set) } else { src.int_in(0..pool) };
            let len = src.int_in(0u32..2 * line_size as u32 + 1);
            prop_assert_eq!(
                cache.fetch(addr, len),
                reference.fetch(addr, len),
                "{:?} diverged from the LRU model at fetch {} ({:#x}, {} B)",
                cfg,
                i,
                addr,
                len
            );
        }
        prop_assert_eq!(cache.set_misses(), reference.misses, "{:?}: per-set misses", cfg);
        Ok(())
    });
}

/// Cycle model is linear and non-negative.
#[test]
fn cycles_linear() {
    prop::check("cycles_linear", prop::Config::from_env(), |src| {
        let instr = src.int_in(0u64..1 << 40);
        let mis = src.int_in(0u64..1 << 30);
        let miss = src.int_in(0u64..1 << 20);
        let c = PerfCounters {
            instructions: instr,
            indirect_mispredicted: mis,
            icache_misses: miss,
            ..Default::default()
        };
        let costs = CycleCosts::pentium4_northwood();
        let total = c.cycles(&costs);
        prop_assert!(total >= 0.0);
        let parts = instr as f64 * costs.cpi + c.mispredict_cycles(&costs) + c.miss_cycles(&costs);
        prop_assert!((total - parts).abs() < 1e-6 * total.max(1.0));
        Ok(())
    });
}
