//! Metric names, summary statistics, process measurements and the
//! result line.

use std::path::Path;

use ivm_obs::Json;

/// The end-to-end metrics, as `(name, unit)`, printed by untraced runs.
pub const END_TO_END: [(&str, &str); 5] = [
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("sim_events_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// Per-layer metrics that do not depend on the predictor registry.
const LAYERS: [(&str, &str); 25] = [
    ("guest.events", "count"),
    ("guest.ns_per_event", "ns"),
    ("translate.calls", "count"),
    ("translate.ms", "ms"),
    ("engine.dispatches", "count"),
    ("engine.ns_per_dispatch", "ns"),
    ("dtrace.encode_ns_per_event", "ns"),
    ("dtrace.bytes_per_event", "B"),
    ("dtrace.decode_ns_per_event", "ns"),
    ("tracestore.acquires", "count"),
    ("tracestore.hit_ratio", "ratio"),
    ("tracestore.capture_ms_p50", "ms"),
    ("tracestore.capture_ms_p90", "ms"),
    ("tracestore.rss_growth_mb", "MB"),
    ("tracestore.disk_mb", "MB"),
    ("pipeline.plan_ms", "ms"),
    ("pipeline.combine_us", "us"),
    ("pipeline.sampled_ns_per_event", "ns"),
    ("pipeline.sampled_event_ratio", "ratio"),
    ("par.cells", "count"),
    ("par.cell_ms_p50", "ms"),
    ("par.cell_ms_p90", "ms"),
    ("par.busy_frac", "ratio"),
    ("trace.unaccounted_ms", "ms"),
    ("trace.overhead_ms", "ms"),
];

/// Every per-layer metric, as `(name, unit)`, printed by traced runs:
/// the fixed layers plus two per registry predictor.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> =
        LAYERS.iter().map(|&(n, u)| (n.to_owned(), u)).collect();
    for (name, _) in ivm_bench::predictor_registry() {
        out.push((format!("bpred.{name}.ns_per_event"), "ns"));
        out.push((format!("bpred.{name}.build_us"), "us"));
    }
    out
}

/// True when `name` is a valid metric name: a letter or digit, then at
/// most 63 more letters, digits, `_`, `.` or `-`.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Named metric values, printed in a fixed order.
pub struct Metrics {
    entries: Vec<(String, &'static str, f64)>,
}

impl Metrics {
    /// Every metric of `names`, each 0 until set: a layer the workload
    /// does not exercise reads 0.
    ///
    /// # Panics
    ///
    /// Panics if a name breaks the metric-name grammar.
    pub fn zeroed(names: &[(String, &'static str)]) -> Self {
        assert!(names.iter().all(|(n, _)| valid_name(n)), "metric names follow the grammar");
        Self { entries: names.iter().map(|(n, u)| (n.clone(), *u, 0.0)).collect() }
    }

    /// Sets a metric. Non-finite values (a ratio over no work) read 0.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not one of the metrics this run prints.
    pub fn set(&mut self, name: &str, value: f64) {
        let entry = self
            .entries
            .iter_mut()
            .find(|(n, _, _)| n == name)
            .unwrap_or_else(|| panic!("{name} is not a metric of this run"));
        entry.2 = if value.is_finite() { value } else { 0.0 };
    }

    /// Human-readable lines, one per metric.
    pub fn lines(&self) -> Vec<String> {
        self.entries.iter().map(|(n, u, v)| format!("{n:<40} {v:>16.6} {u}")).collect()
    }

    /// The `metrics` object of the result line.
    pub fn to_json(&self) -> Json {
        let mut obj = Json::obj();
        for (name, unit, value) in &self.entries {
            obj.set(name, Json::obj().with("value", *value).with("unit", *unit));
        }
        obj
    }
}

/// The median of `values` (0 for none).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The `q` quantile of `values` by linear interpolation (0 for none).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v: Vec<f64> = values.iter().copied().filter(|x| x.is_finite()).collect();
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// A `/proc/self/status` field in kilobytes (`VmHWM`, `VmRSS`), or 0
/// where the file or field is missing.
pub fn status_kb(field: &str) -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

/// User plus system CPU seconds of this process, every thread included,
/// from `/proc/self/stat` (clock ticks of 1/100 s).
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    let fields: Vec<&str> =
        stat.rsplit_once(')').map_or(Vec::new(), |(_, rest)| rest.split_whitespace().collect());
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<u64>().ok()).unwrap_or(0);
    // After the command name: state is field 3, utime 14, stime 15.
    (ticks(11) + ticks(12)) as f64 / 100.0
}

/// Bytes of every regular file under `dir` (0 if it does not exist).
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else { return 0 };
    entries
        .flatten()
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&e.path()),
            Ok(t) if t.is_file() => e.metadata().map_or(0, |m| m.len()),
            _ => 0,
        })
        .sum()
}

/// Megabytes in `bytes`.
pub fn mb(bytes: u64) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_name_grammar() {
        for good in ["wall_s", "bpred.ittage-64kb.ns_per_event", "9lives", "a.b-c_d"] {
            assert!(valid_name(good), "{good}");
        }
        for bad in ["", "_x", ".x", "a b", "a/b", "ns%", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad}");
        }
    }

    #[test]
    fn every_printed_name_follows_the_grammar_once() {
        let mut names: Vec<String> = END_TO_END.iter().map(|(n, _)| (*n).to_owned()).collect();
        names.extend(per_layer().into_iter().map(|(n, _)| n));
        assert!(names.iter().all(|n| valid_name(n)), "{names:?}");
        let mut unique = names.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "metric names are unique");
    }

    #[test]
    fn benchmark_manifest_lists_exactly_the_printed_metrics() {
        let manifest = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(manifest).expect("BENCHMARK.json next to perfbench/");
        let doc = ivm_obs::parse(&text).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(Json::as_arr)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |k| m.get(k).and_then(Json::as_str).expect("name and unit");
                    (field("name").to_owned(), field("unit").to_owned())
                })
                .collect()
        };
        let e2e: Vec<(String, String)> =
            END_TO_END.iter().map(|(n, u)| ((*n).to_owned(), (*u).to_owned())).collect();
        assert_eq!(listed("end_to_end"), e2e);
        let layers: Vec<(String, String)> =
            per_layer().into_iter().map(|(n, u)| (n, u.to_owned())).collect();
        assert_eq!(listed("per_layer"), layers);
    }

    #[test]
    fn interaction_map_names_real_metrics_workloads_and_two_seeds() {
        let read = |file: &str| {
            let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(file);
            ivm_obs::parse(&std::fs::read_to_string(path).expect("readable")).expect("parses")
        };
        let (bench, map) = (read("../BENCHMARK.json"), read("interactions.json"));
        let names = |doc: &Json, key: &str| -> Vec<String> {
            let items = doc.get(key).and_then(Json::as_arr).expect("list");
            items
                .iter()
                .map(|m| m.get("name").and_then(Json::as_str).expect("name").to_owned())
                .collect()
        };
        let (workloads, e2e, layers) =
            (names(&bench, "workloads"), names(&bench, "end_to_end"), names(&bench, "per_layer"));
        let registry: Vec<&str> = ivm_bench::predictor_registry().iter().map(|(n, _)| *n).collect();
        let field = |entry: &Json, key: &str| -> Vec<String> {
            entry
                .get(key)
                .and_then(Json::as_str)
                .map_or(Vec::new(), |s| s.split(", ").map(str::to_owned).collect())
        };
        for section in [
            "layer_to_end_to_end",
            "expected_moves",
            "no_change_predicted",
            "no_regression_allowed",
        ] {
            for entry in map.get(section).and_then(Json::as_arr).expect(section) {
                for w in field(entry, "workload") {
                    assert!(workloads.contains(&w), "{section}: unknown workload {w}");
                }
                for m in field(entry, "end_to_end") {
                    assert!(e2e.contains(&m), "{section}: unknown end-to-end metric {m}");
                }
                for m in field(entry, "per_layer") {
                    let expanded: Vec<String> = if m.contains("<registry-name>") {
                        registry.iter().map(|r| m.replace("<registry-name>", r)).collect()
                    } else {
                        vec![m]
                    };
                    for m in expanded {
                        assert!(layers.contains(&m), "{section}: unknown per-layer metric {m}");
                    }
                }
            }
        }
        let seeds = map.get("seeds").expect("seeds");
        let seed = |k| seeds.get(k).and_then(Json::as_f64).expect("numeric seed");
        assert_ne!(seed("default"), seed("held_out"));
    }

    #[test]
    fn quantiles_interpolate_like_the_inclusive_method() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.25), 1.75);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn unset_layers_read_zero_and_non_finite_values_are_clamped() {
        let mut m = Metrics::zeroed(&per_layer());
        m.set("par.busy_frac", f64::NAN);
        m.set("par.cells", 12.0);
        let json = m.to_json();
        let value = |name| json.get(name).and_then(|v| v.get("value")).and_then(Json::as_f64);
        assert_eq!(value("par.busy_frac"), Some(0.0));
        assert_eq!(value("par.cells"), Some(12.0));
        assert_eq!(value("guest.events"), Some(0.0));
    }
}
