//! Phase-attributed span profiling: aggregation of the raw span stream
//! into per-phase wall-time statistics.
//!
//! The recording primitive — guards, thread-local stacks, the process
//! sink — lives in [`ivm_harness::span`] (re-exported here) so the
//! measurement pipeline in `ivm-core` and the parallel executor can open
//! spans without depending on this crate. This module is the consumer
//! side: [`aggregate`] folds a span snapshot into deterministic-ordered
//! [`PhaseAgg`] rows (count, total, self time per phase name) — the
//! `phases` section of [`crate::RunManifest`].
//!
//! Wall times are nondeterministic by nature; everything derived here is
//! excluded from determinism comparisons (`scripts/check_determinism.py`
//! strips `manifest.phases`).

pub use ivm_harness::span::{enter, snapshot, SpanGuard, SpanRecord};

use crate::json::Json;

/// Aggregated wall time of one phase across every recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseAgg {
    /// Phase name (the span name at the instrumentation site).
    pub name: &'static str,
    /// Number of spans recorded under this name.
    pub count: u64,
    /// Summed wall duration, in microseconds.
    pub total_us: u64,
    /// Summed self time (duration minus direct children), in
    /// microseconds. Self times partition wall time: across all phases
    /// they sum to the total duration of the root spans.
    pub self_us: u64,
    /// Summed self time of spans nested (at any depth) inside a `cell`
    /// root span — the share of this phase paid inside executor cells.
    pub in_cell_self_us: u64,
}

impl PhaseAgg {
    /// Serialises one phase row (times in milliseconds, 3 decimals).
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::obj()
            .with("name", self.name)
            .with("count", self.count)
            .with("total_ms", ms(self.total_us))
            .with("self_ms", ms(self.self_us))
            .with("in_cell_self_ms", ms(self.in_cell_self_us))
    }
}

/// Microseconds to milliseconds, rounded to 3 decimals.
fn ms(us: u64) -> f64 {
    ((us as f64 / 1000.0) * 1000.0).round() / 1000.0
}

/// The span name the parallel executor wraps every experiment cell in.
const CELL_SPAN: &str = "cell";

/// Folds span records into one [`PhaseAgg`] per phase name, sorted by
/// name. The *structure* (names and counts) is deterministic for a
/// deterministic workload; the times are wall-clock.
#[must_use]
pub fn aggregate(records: &[SpanRecord]) -> Vec<PhaseAgg> {
    let mut by_name: std::collections::BTreeMap<&'static str, PhaseAgg> =
        std::collections::BTreeMap::new();
    for r in records {
        let agg = by_name.entry(r.name).or_insert(PhaseAgg {
            name: r.name,
            count: 0,
            total_us: 0,
            self_us: 0,
            in_cell_self_us: 0,
        });
        agg.count += 1;
        agg.total_us += r.dur_us;
        agg.self_us += r.self_us;
        if r.root == CELL_SPAN {
            agg.in_cell_self_us += r.self_us;
        }
    }
    by_name.into_values().collect()
}

/// Serialises phase aggregates as the manifest's `phases` array.
#[must_use]
pub fn phases_json(phases: &[PhaseAgg]) -> Json {
    Json::Arr(phases.iter().map(PhaseAgg::to_json).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    fn rec(
        name: &'static str,
        root: &'static str,
        depth: u16,
        start_us: u64,
        dur_us: u64,
        self_us: u64,
    ) -> SpanRecord {
        SpanRecord { name, root, depth, start_us, dur_us, self_us }
    }

    #[test]
    fn aggregate_sums_per_phase_and_sorts_by_name() {
        let records = vec![
            rec("translate", "cell", 1, 0, 40, 40),
            rec("execute", "cell", 1, 40, 160, 160),
            rec("cell", "cell", 0, 0, 210, 10),
            rec("translate", "cell", 1, 5, 60, 60),
            rec("report_render", "report_render", 0, 300, 30, 30),
        ];
        let phases = aggregate(&records);
        let names: Vec<&str> = phases.iter().map(|p| p.name).collect();
        assert_eq!(names, vec!["cell", "execute", "report_render", "translate"]);
        let translate = phases.iter().find(|p| p.name == "translate").unwrap();
        assert_eq!(translate.count, 2);
        assert_eq!(translate.total_us, 100);
        assert_eq!(translate.self_us, 100);
        assert_eq!(translate.in_cell_self_us, 100, "both translates ran inside cells");
        let render = phases.iter().find(|p| p.name == "report_render").unwrap();
        assert_eq!(render.in_cell_self_us, 0, "main-thread render is outside cells");
    }

    #[test]
    fn self_times_partition_the_roots() {
        // Summed self time equals summed root duration, so phase shares
        // of the manifest add up to the whole.
        let records = vec![
            rec("cell", "cell", 0, 0, 200, 20),
            rec("translate", "cell", 1, 0, 30, 30),
            rec("execute", "cell", 1, 30, 150, 150),
        ];
        let phases = aggregate(&records);
        let total_self: u64 = phases.iter().map(|p| p.self_us).sum();
        let root_total: u64 = records.iter().filter(|r| r.depth == 0).map(|r| r.dur_us).sum();
        assert_eq!(total_self, root_total);
    }

    #[test]
    fn phases_json_reports_milliseconds() {
        let phases = aggregate(&[rec("execute", "cell", 1, 0, 1500, 1500)]);
        let j = phases_json(&phases);
        let parsed = parse(&j.to_json()).unwrap();
        let row = &parsed.as_arr().unwrap()[0];
        assert_eq!(row.get("name").and_then(Json::as_str), Some("execute"));
        assert_eq!(row.get("total_ms").and_then(Json::as_f64), Some(1.5));
        assert_eq!(row.get("self_ms").and_then(Json::as_f64), Some(1.5));
        assert_eq!(row.get("count").and_then(Json::as_f64), Some(1.0));
    }

    #[test]
    fn live_spans_flow_into_aggregate() {
        {
            let _g = enter("obs-span-live-test");
        }
        let phases = aggregate(&snapshot());
        assert!(phases.iter().any(|p| p.name == "obs-span-live-test" && p.count >= 1));
    }
}
