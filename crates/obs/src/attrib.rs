//! Misprediction attribution: per instance, per opcode and per BTB set.
//!
//! [`DispatchAttribution`] is a [`DispatchObserver`]: the engine owns it
//! for a run and hands it back from `Measurement::finish`. It attributes
//! every dispatch to the VM instance owning the dispatch branch —
//! resolvable to opcodes through the run's [`Translation`]. Callers that
//! drive a predictor directly (no engine) feed it themselves, choosing
//! what an instance stands for, e.g. one per dispatch branch.
//!
//! It can additionally bucket dispatch branches by BTB set under a
//! [`BtbConfig`] geometry, exposing which sets are overloaded — the
//! software analogue of the set-level probing used in hardware BTB
//! reverse-engineering work.

use std::collections::{BTreeMap, BTreeSet};

use ivm_bpred::{Addr, BtbConfig};
use ivm_core::{DispatchObserver, Translation};

use crate::json::Json;

/// An `(executed, mispredicted)` pair.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Dispatches executed.
    pub executed: u64,
    /// Dispatches the predictor missed.
    pub mispredicted: u64,
}

impl Tally {
    fn bump(&mut self, miss: bool) {
        self.executed += 1;
        self.mispredicted += u64::from(miss);
    }

    fn to_json(self) -> Json {
        Json::obj().with("executed", self.executed).with("mispredicted", self.mispredicted)
    }
}

/// One opcode's aggregated dispatch tally (see
/// [`DispatchAttribution::per_opcode`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpTally {
    /// Opcode name from the VM spec.
    pub name: String,
    /// Aggregated tally over all instances of this opcode.
    pub tally: Tally,
}

/// One BTB set's view: how many distinct branches competed for it and how
/// its dispatches fared.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SetConflict {
    /// Set index under the attribution geometry.
    pub set: usize,
    /// Distinct branch addresses observed mapping to this set.
    pub distinct_branches: usize,
    /// Aggregated tally over those branches.
    pub tally: Tally,
}

/// Per-set bookkeeping of a [`DispatchAttribution`].
#[derive(Debug, Clone)]
struct SetStats {
    cfg: BtbConfig,
    tallies: Vec<Tally>,
    branches: Vec<BTreeSet<Addr>>,
}

impl SetStats {
    fn new(cfg: BtbConfig) -> Self {
        Self {
            cfg,
            tallies: vec![Tally::default(); cfg.sets()],
            branches: vec![BTreeSet::new(); cfg.sets()],
        }
    }

    fn record(&mut self, branch: Addr, miss: bool) {
        let set = self.cfg.set_index(branch);
        self.tallies[set].bump(miss);
        self.branches[set].insert(branch);
    }

    fn conflicts(&self) -> Vec<SetConflict> {
        self.tallies
            .iter()
            .enumerate()
            .filter(|(_, t)| t.executed > 0)
            .map(|(set, &tally)| SetConflict {
                set,
                distinct_branches: self.branches[set].len(),
                tally,
            })
            .collect()
    }

    fn to_json(&self) -> Json {
        let sets = self
            .conflicts()
            .into_iter()
            .map(|c| {
                Json::obj()
                    .with("set", c.set)
                    .with("distinct_branches", c.distinct_branches)
                    .with("executed", c.tally.executed)
                    .with("mispredicted", c.tally.mispredicted)
            })
            .collect();
        Json::obj()
            .with(
                "geometry",
                Json::obj()
                    .with("entries", self.cfg.entries())
                    .with("assoc", self.cfg.assoc())
                    .with("sets", self.cfg.sets()),
            )
            .with("active_sets", Json::Arr(sets))
    }
}

/// The attribution sink.
///
/// Attach to an [`ivm_core::Engine`] with
/// [`ivm_core::Engine::with_observer`]; the run's `Measurement::finish`
/// returns it. Every dispatch is tallied against the instance owning the
/// dispatch branch (`from`), which [`DispatchAttribution::per_opcode`]
/// resolves to opcode names through the [`Translation`].
#[derive(Debug, Clone, Default)]
pub struct DispatchAttribution {
    per_instance: Vec<Tally>,
    sets: Option<SetStats>,
}

impl DispatchAttribution {
    /// A sink with per-instance attribution only.
    pub fn new() -> Self {
        Self::default()
    }

    /// Also bucket dispatch branches by BTB set under `cfg`. The geometry
    /// is independent of the engine's actual predictor, so a run on an
    /// ideal BTB can still report where branches *would* collide on, say,
    /// the Celeron's 128x4 geometry.
    #[must_use]
    pub fn with_btb_sets(mut self, cfg: BtbConfig) -> Self {
        self.sets = Some(SetStats::new(cfg));
        self
    }

    /// Per-instance tallies, indexed by instance. Instances never
    /// dispatched from report zeros.
    pub fn per_instance(&self) -> &[Tally] {
        &self.per_instance
    }

    /// Total dispatches observed.
    pub fn total(&self) -> Tally {
        let mut t = Tally::default();
        for i in &self.per_instance {
            t.executed += i.executed;
            t.mispredicted += i.mispredicted;
        }
        t
    }

    /// Aggregates instance tallies by current opcode, sorted worst-first
    /// (most mispredictions, ties by name). Only opcodes that dispatched
    /// at least once appear.
    pub fn per_opcode(&self, t: &Translation) -> Vec<OpTally> {
        self.tally_opcodes(|i| t.op_name(i))
    }

    /// [`DispatchAttribution::per_opcode`] over any instance → opcode
    /// name mapping.
    fn tally_opcodes<'a>(&self, op_name: impl Fn(usize) -> &'a str) -> Vec<OpTally> {
        let mut by_name: BTreeMap<&str, Tally> = BTreeMap::new();
        for (i, tally) in self.per_instance.iter().enumerate() {
            if tally.executed > 0 {
                let e = by_name.entry(op_name(i)).or_default();
                e.executed += tally.executed;
                e.mispredicted += tally.mispredicted;
            }
        }
        let mut out: Vec<OpTally> = by_name
            .into_iter()
            .map(|(name, tally)| OpTally { name: name.to_owned(), tally })
            .collect();
        out.sort_by(|a, b| {
            b.tally.mispredicted.cmp(&a.tally.mispredicted).then(a.name.cmp(&b.name))
        });
        out
    }

    /// Per-set conflict view (empty without [`with_btb_sets`]).
    ///
    /// [`with_btb_sets`]: DispatchAttribution::with_btb_sets
    pub fn set_conflicts(&self) -> Vec<SetConflict> {
        self.sets.as_ref().map(SetStats::conflicts).unwrap_or_default()
    }

    /// Serialises the attribution breakdown; pass the run's opcode name
    /// per instance to include the per-opcode view.
    ///
    /// Collect the names from [`Translation::op_name`] before
    /// `Measurement::finish` consumes the translation.
    pub fn to_json(&self, op_names: Option<&[String]>) -> Json {
        let total = self.total();
        let mut out = Json::obj().with("total", total.to_json());
        let instances = self
            .per_instance
            .iter()
            .enumerate()
            .filter(|(_, t)| t.executed > 0)
            .map(|(i, t)| t.to_json().with("instance", i))
            .collect();
        out.set("per_instance", Json::Arr(instances));
        if let Some(names) = op_names {
            let ops = self
                .tally_opcodes(|i| names[i].as_str())
                .into_iter()
                .map(|o| o.tally.to_json().with("op", o.name))
                .collect();
            out.set("per_opcode", Json::Arr(ops));
        }
        if let Some(sets) = &self.sets {
            out.set("btb_sets", sets.to_json());
        }
        out
    }
}

impl DispatchObserver for DispatchAttribution {
    fn dispatch(&mut self, from: usize, branch: Addr, _target: Addr, mispredicted: bool) {
        if from >= self.per_instance.len() {
            self.per_instance.resize(from + 1, Tally::default());
        }
        self.per_instance[from].bump(mispredicted);
        if let Some(sets) = &mut self.sets {
            sets.record(branch, mispredicted);
        }
    }
}

/// Renders an ITTAGE provider/alternate breakdown as JSON for report
/// attribution sections: which component (base table, tagged table by
/// history depth, or an alternate override) supplied each prediction,
/// split by outcome, plus the allocation traffic. All counts come from
/// the predictor's deterministic accounting, so the emitted JSON is
/// byte-identical across replays and job counts.
pub fn ittage_breakdown_json(bd: &ivm_bpred::IttageBreakdown) -> Json {
    let tables: Vec<Json> = bd
        .provider_hits
        .iter()
        .zip(&bd.provider_misses)
        .enumerate()
        .map(|(i, (&hits, &misses))| {
            Json::obj().with("table", i).with("hits", hits).with("misses", misses)
        })
        .collect();
    Json::obj()
        .with("base", Json::obj().with("hits", bd.base_hits).with("misses", bd.base_misses))
        .with("providers", tables)
        .with("alt", Json::obj().with("hits", bd.alt_hits).with("misses", bd.alt_misses))
        .with("allocations", bd.allocations)
        .with("allocation_failures", bd.allocation_failures)
        .with("total", bd.total())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feed(sink: &mut DispatchAttribution, events: &[(usize, Addr, Addr, bool)]) {
        for &(f, b, tg, m) in events {
            sink.dispatch(f, b, tg, m);
        }
    }

    #[test]
    fn ittage_breakdown_json_accounts_every_event() {
        use ivm_bpred::{IndirectPredictor, Ittage, IttageConfig};
        let mut p = Ittage::new(IttageConfig::small());
        for i in 0..200u64 {
            p.predict_and_update(0x40 + (i % 3) * 8, 0x1000 + (i % 5) * 64);
        }
        let j = ittage_breakdown_json(p.breakdown());
        assert_eq!(j.get("total").and_then(Json::as_f64), Some(200.0));
        let providers = j.get("providers").and_then(Json::as_arr).unwrap();
        assert_eq!(providers.len(), IttageConfig::small().tables);
        // Rendered twice, the JSON must be byte-identical (determinism).
        assert_eq!(j.to_json(), ittage_breakdown_json(p.breakdown()).to_json());
        // And the component counts must sum to the total.
        let f = |o: &Json, k: &str| o.get(k).and_then(Json::as_f64).unwrap();
        let base = j.get("base").unwrap();
        let alt = j.get("alt").unwrap();
        let sum = f(base, "hits")
            + f(base, "misses")
            + f(alt, "hits")
            + f(alt, "misses")
            + providers.iter().map(|t| f(t, "hits") + f(t, "misses")).sum::<f64>();
        assert_eq!(sum, 200.0);
    }

    #[test]
    fn per_instance_tallies_grow_on_demand() {
        let mut sink = DispatchAttribution::new();
        feed(&mut sink, &[(3, 1, 2, true), (3, 1, 3, false), (0, 9, 1, false)]);
        assert_eq!(sink.per_instance().len(), 4);
        assert_eq!(sink.per_instance()[3], Tally { executed: 2, mispredicted: 1 });
        assert_eq!(sink.per_instance()[1], Tally::default());
        assert_eq!(sink.total(), Tally { executed: 3, mispredicted: 1 });
    }

    #[test]
    fn set_attribution_counts_aliasing_branches() {
        // 4 sets, direct-mapped: branches 0 and 4 alias in set 0.
        let cfg = BtbConfig::new(4, 1).tagless();
        let mut sink = DispatchAttribution::new().with_btb_sets(cfg);
        feed(&mut sink, &[(0, 0, 10, true), (1, 4, 20, true), (0, 0, 10, true), (2, 1, 30, false)]);
        let conflicts = sink.set_conflicts();
        assert_eq!(conflicts.len(), 2);
        let set0 = &conflicts[0];
        assert_eq!((set0.set, set0.distinct_branches), (0, 2));
        assert_eq!(set0.tally, Tally { executed: 3, mispredicted: 3 });
        let set1 = &conflicts[1];
        assert_eq!((set1.set, set1.distinct_branches), (1, 1));
    }

    #[test]
    fn json_includes_all_enabled_sections() {
        let mut sink = DispatchAttribution::new().with_btb_sets(BtbConfig::new(4, 1));
        feed(&mut sink, &[(0, 0, 10, true)]);
        let j = sink.to_json(None);
        assert!(j.get("per_opcode").is_none(), "no translation, no opcode view");
        assert_eq!(j.get("total").and_then(|t| t.get("executed")), Some(&1u64.into()));
        assert!(j.get("btb_sets").is_some());
        let text = j.to_json();
        crate::json::parse(&text).expect("attribution JSON parses");
    }
}
