//! The staged experiment pipeline: capture → simulate → combine → report.
//!
//! Report binaries used to run execution, simulation and rendering as one
//! monolithic pass per cell. This module splits the measurement into
//! explicit stages with artifacts between them, so each stage can be
//! parallelised and (for simulation) *sampled*:
//!
//! 1. **capture** ([`replay`], [`capture`]) — one replay per
//!    `(frontend, benchmark, technique)` on the capture machine. A sweep
//!    observes the replay as it streams ([`ivm_core::PredictorSweep`]);
//!    only a study that needs random access to the stream, as the
//!    sampling plan does, keeps it as an in-memory [`DispatchTrace`].
//! 2. **simulate** — predictors run over either the full stream
//!    ([`ivm_core::PredictorSweep`] or [`ivm_core::simulate_many`],
//!    bit-identical to a live run with each predictor) or only the
//!    representative intervals of a [`SamplingPlan`]
//!    ([`simulate_sampled`]), each preceded by a warm-up replay of the
//!    interval before it.
//! 3. **combine** ([`combine`]) — weighted reconstruction of the
//!    whole-run misprediction rate from the sampled intervals, with a
//!    per-cell sampling-error estimate (see *Error bars* below).
//! 4. **report** ([`error_rows`]) — renderers are thin consumers of the
//!    combined artifacts; the `sampling` bin feeds these rows straight
//!    into [`crate::Report::table`].
//!
//! # The sampling plan
//!
//! [`plan`] slices a trace into fixed-size dispatch intervals, computes
//! one basic-block frequency vector per interval
//! ([`DispatchTrace::interval_index`], the `bbv_extract` phase), and
//! clusters the normalised vectors with the deterministic k-means of
//! [`ivm_harness::cluster`] (the `cluster` phase) — the SimPoint
//! methodology applied to dispatch streams. The clustering seed is
//! derived from the trace's spec hash, technique, interval size and K,
//! so a plan is a pure function of its inputs and reproduces
//! byte-identically at any `IVM_JOBS`.
//!
//! # Error bars
//!
//! [`combine`] reports `rate ± err` where `err` stacks three terms, all
//! deterministic:
//!
//! * **within-cluster spread** — each cluster audits up to
//!   [`AUDITS_PER_CLUSTER`] evenly spaced members (the representative
//!   plus a mid-list member); twice the standard error of the weighted
//!   cluster means covers assignment noise;
//! * **warm-up sensitivity** — every representative is simulated both
//!   with and without its warm-up replay; the weighted |warm − cold| gap
//!   bounds how much predictor state carried across interval boundaries
//!   can move the answer;
//! * **a resolution floor** of [`ERR_FLOOR_PP`] percentage points, the
//!   granularity below which interval sampling does not claim accuracy.
//!
//! Full-fidelity mode (K ≥ interval count) degenerates to the identity
//! clustering, and the full-trace simulate stage is exactly the old
//! single-pass sweep — committed `results/*.txt` are unchanged by this
//! refactor.

use ivm_bpred::{AnyPredictor, IdealBtb};
use ivm_cache::{CycleCosts, PerfectIcache};
use ivm_core::{
    dispatch_spec_hash, DispatchObserver, DispatchTrace, Engine, ExecutionTrace, GuestVm,
    IntervalIndex, Profile, SpecHasher, Technique,
};
use ivm_harness::cluster::Clustering;

use crate::Row;

/// Representative intervals audited per cluster (bounded by cluster
/// size): the representative itself plus evenly spaced extra members,
/// which give the within-cluster spread term of the error bar. Four
/// keeps the standard-error estimate honest on heterogeneous clusters
/// while the sampled cost stays far below the full stream.
pub const AUDITS_PER_CLUSTER: usize = 4;

/// The error-bar resolution floor, in percentage points of misprediction
/// rate: sampling never reports a bar tighter than this.
pub const ERR_FLOOR_PP: f64 = 0.25;

// ---------------------------------------------------------------------------
// Stage 1: capture
// ---------------------------------------------------------------------------

/// Replays `exec` of `vm` under `technique` on the capture machine, an
/// ideal BTB with a perfect I-cache, and returns `observer` after it has
/// seen every dispatch.
///
/// The dispatch stream does not depend on the machine model: control
/// flow never consults the predictor or the caches, so the cheapest
/// machine there is serves every study.
///
/// # Panics
///
/// Panics if `technique` needs a profile and `training` is `None`.
pub fn replay<G: GuestVm + ?Sized, O: DispatchObserver>(
    vm: &G,
    exec: &ExecutionTrace,
    technique: Technique,
    training: Option<&Profile>,
    observer: O,
) -> O {
    let engine = Engine::new(IdealBtb::new(), Box::new(PerfectIcache), CycleCosts::celeron())
        .with_observer(observer);
    ivm_core::measure_trace_with(vm, exec, technique, engine, training).1
}

/// The capture stage for studies that need the whole stream at once:
/// the [`replay`] of `exec` kept as a [`DispatchTrace`], tagged with the
/// [`dispatch_spec_hash`] of its translation (which seeds [`plan`]).
///
/// # Panics
///
/// Panics if `technique` needs a profile and `training` is `None`.
pub fn capture<G: GuestVm + ?Sized>(
    vm: &G,
    exec: &ExecutionTrace,
    technique: Technique,
    training: Option<&Profile>,
) -> DispatchTrace {
    let _span = ivm_obs::span::enter("trace_capture");
    let hash = dispatch_spec_hash(vm.spec(), vm.program(), technique, training);
    replay(vm, exec, technique, training, DispatchTrace::new(hash, technique.id()))
}

// ---------------------------------------------------------------------------
// The sampling plan
// ---------------------------------------------------------------------------

/// Which intervals of one trace a sampled simulation runs, and with what
/// whole-run weights: the output of BBV extraction + phase clustering.
#[derive(Debug, Clone)]
pub struct SamplingPlan {
    /// The interval slicing the plan was built from.
    pub index: IntervalIndex,
    /// The phase clustering over the normalised BBV points.
    pub clustering: Clustering,
    /// Per-cluster share of *events* (not intervals — the tail interval
    /// may be short), in canonical cluster order; sums to 1.
    pub weights: Vec<f64>,
}

impl SamplingPlan {
    /// Effective number of clusters (representative intervals).
    pub fn k(&self) -> usize {
        self.clustering.k()
    }
}

/// Builds the sampling plan of `trace` at `interval_len` events per
/// interval and (at most) `k` phases. Deterministic: the clustering seed
/// is derived from the trace identity and the plan parameters.
///
/// # Panics
///
/// Panics if `interval_len` is zero, or `k` is zero while the trace is
/// non-empty.
pub fn plan(trace: &DispatchTrace, interval_len: u64, k: usize) -> SamplingPlan {
    let index = trace.interval_index(interval_len);
    let points = index.normalized_points();
    let seed = SpecHasher::new()
        .str("ivm-sampling-plan")
        .u64(trace.spec_hash())
        .str(trace.technique())
        .u64(interval_len)
        .u64(k as u64)
        .finish();
    let clustering = ivm_harness::cluster::kmeans(&points, k, seed);
    let total = index.total_events();
    let mut events = vec![0u64; clustering.k()];
    for (iv, &a) in index.intervals().iter().zip(&clustering.assignments) {
        events[a] += iv.len;
    }
    let weights =
        events.iter().map(|&e| if total > 0 { e as f64 / total as f64 } else { 0.0 }).collect();
    SamplingPlan { index, clustering, weights }
}

// ---------------------------------------------------------------------------
// Stage 2: simulate
// ---------------------------------------------------------------------------

/// One cluster's sampled measurements for one predictor.
#[derive(Debug, Clone)]
pub struct ClusterSim {
    /// The cluster's share of all events.
    pub weight: f64,
    /// Misprediction rates (fractions) of the audited member intervals,
    /// each simulated with warm-up replay of its preceding interval.
    pub audit_rates: Vec<f64>,
    /// The representative's rate with warm-up replay.
    pub rep_warm: f64,
    /// The representative's rate from a cold predictor (no warm-up) —
    /// the other leg of the warm-up-sensitivity error term.
    pub rep_cold: f64,
}

/// One predictor's sampled simulation over a [`SamplingPlan`].
#[derive(Debug, Clone)]
pub struct SampledRun {
    /// Per-cluster measurements in canonical cluster order.
    pub clusters: Vec<ClusterSim>,
    /// Total events fed through predictors (warm-up replays included) —
    /// the numerator of the sampled-vs-full cost comparison.
    pub simulated_events: u64,
}

/// Feeds `events` through a fresh predictor from `build`, optionally
/// after a warm-up replay, returning the measured misprediction fraction
/// and the number of events fed (warm-up included).
fn run_interval(
    build: &dyn Fn() -> AnyPredictor,
    warmup: Option<&[(u64, u64)]>,
    events: &[(u64, u64)],
) -> (f64, u64) {
    let mut p = build();
    let mut fed = 0u64;
    if let Some(w) = warmup {
        let _ = p.run_stream(w);
        fed += w.len() as u64;
    }
    let (executed, mispredicted) = p.run_stream(events);
    fed += executed;
    (if executed > 0 { mispredicted as f64 / executed as f64 } else { 0.0 }, fed)
}

/// The sampled simulate stage: runs fresh predictors from `build` over
/// the plan's representative (and audit) intervals only, each preceded
/// by a warm-up replay of the interval before it in the stream.
pub fn simulate_sampled(
    trace: &DispatchTrace,
    plan: &SamplingPlan,
    build: &dyn Fn() -> AnyPredictor,
) -> SampledRun {
    let _span = ivm_obs::span::enter("predictor_sweep");
    let events = trace.events();
    let slice = |i: usize| {
        let iv = &plan.index.intervals()[i];
        &events[iv.start as usize..(iv.start + iv.len) as usize]
    };
    let warm = |i: usize| (i > 0).then(|| slice(i - 1));
    let mut simulated_events = 0u64;
    let clusters = (0..plan.k())
        .map(|c| {
            let members = plan.clustering.members(c);
            let rep = plan.clustering.representatives[c];
            // Audit the representative plus evenly spaced other members.
            let mut audits = vec![rep];
            for j in 1..AUDITS_PER_CLUSTER.min(members.len()) {
                let m = members[j * members.len() / AUDITS_PER_CLUSTER.min(members.len())];
                if !audits.contains(&m) {
                    audits.push(m);
                }
            }
            let mut rep_warm = 0.0;
            let audit_rates = audits
                .iter()
                .map(|&i| {
                    let (rate, fed) = run_interval(build, warm(i), slice(i));
                    simulated_events += fed;
                    if i == rep {
                        rep_warm = rate;
                    }
                    rate
                })
                .collect();
            let (rep_cold, fed) = run_interval(build, None, slice(rep));
            simulated_events += fed;
            ClusterSim { weight: plan.weights[c], audit_rates, rep_warm, rep_cold }
        })
        .collect();
    SampledRun { clusters, simulated_events }
}

// ---------------------------------------------------------------------------
// Stage 3: combine
// ---------------------------------------------------------------------------

/// The combined artifact of one `(workload, predictor)` cell: the
/// reconstructed whole-run misprediction rate and its sampling-error
/// estimate (see the [module docs](self) for the error model).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Estimate {
    /// Weighted whole-run misprediction rate, in percent.
    pub rate_pct: f64,
    /// Estimated sampling error, in percentage points: the reported bar
    /// is `rate_pct ± err_pp`.
    pub err_pp: f64,
    /// Events fed through the predictor to produce this estimate.
    pub simulated_events: u64,
}

/// The combine stage: weighted reconstruction of the whole-run rate from
/// one predictor's [`SampledRun`], with the stacked error bar.
pub fn combine(run: &SampledRun) -> Estimate {
    let _span = ivm_obs::span::enter("combine");
    let mut rate = 0.0;
    let mut var = 0.0;
    let mut bias = 0.0;
    for c in &run.clusters {
        let a = c.audit_rates.len();
        if a == 0 {
            continue;
        }
        let mean = c.audit_rates.iter().sum::<f64>() / a as f64;
        rate += c.weight * mean;
        if a >= 2 {
            let s2 =
                c.audit_rates.iter().map(|r| (r - mean) * (r - mean)).sum::<f64>() / (a - 1) as f64;
            var += c.weight * c.weight * s2 / a as f64;
        }
        bias += c.weight * (c.rep_warm - c.rep_cold).abs();
    }
    Estimate {
        rate_pct: 100.0 * rate,
        err_pp: 100.0 * (2.0 * var.sqrt() + bias) + ERR_FLOOR_PP,
        simulated_events: run.simulated_events,
    }
}

// ---------------------------------------------------------------------------
// Stage 4: report (thin consumers)
// ---------------------------------------------------------------------------

/// Measured-vs-sampled rows for [`crate::Report::table`]: one row per
/// predictor with columns `full %`, `sampled %`, `Δ pp`, `± bar pp`.
/// Renderers stay thin — everything here is already computed upstream.
pub fn error_rows(names: &[&str], full_pct: &[f64], estimates: &[Estimate]) -> Vec<Row> {
    names
        .iter()
        .zip(full_pct.iter().zip(estimates))
        .map(|(name, (&full, est))| Row {
            label: (*name).to_owned(),
            values: vec![full, est.rate_pct, est.rate_pct - full, est.err_pp],
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ivm_bpred::{Btb, BtbConfig};
    use ivm_cache::{CpuSpec, PredictorKind};
    use ivm_core::ReplicaSelection;

    /// A two-phase synthetic stream: a tight monomorphic loop, then a
    /// phase alternating between two targets (BTB-hostile).
    fn two_phase_trace(events_per_phase: u64) -> DispatchTrace {
        let mut t = DispatchTrace::new(0x51, "threaded");
        for _ in 0..events_per_phase {
            t.push(0x1000, 0x8000);
        }
        for i in 0..events_per_phase {
            t.push(0x2000, 0x9000 + (i % 2) * 0x40);
        }
        t
    }

    fn builder() -> AnyPredictor {
        Btb::new(BtbConfig::celeron()).into()
    }

    #[test]
    fn plan_weights_are_event_shares() {
        let t = two_phase_trace(1000);
        let p = plan(&t, 100, 2);
        assert_eq!(p.index.len(), 20);
        assert_eq!(p.k(), 2, "two clean phases cluster into two phases");
        assert!((p.weights.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!((p.weights[0] - 0.5).abs() < 1e-12, "equal phases, equal weights");
    }

    #[test]
    fn plan_is_deterministic() {
        let t = two_phase_trace(500);
        let a = plan(&t, 64, 3);
        let b = plan(&t, 64, 3);
        assert_eq!(a.clustering, b.clustering);
        assert_eq!(a.weights, b.weights);
    }

    #[test]
    fn sampled_estimate_matches_full_within_the_bar() {
        let t = two_phase_trace(5_000);
        let mut preds = vec![builder()];
        let full = ivm_core::simulate_many(&t, &mut preds);
        let full_pct = 100.0 * full[0].misprediction_rate();

        let p = plan(&t, 250, 4);
        let run = simulate_sampled(&t, &p, &builder);
        let est = combine(&run);
        assert!(
            (est.rate_pct - full_pct).abs() <= est.err_pp,
            "sampled {} vs full {} exceeds bar {}",
            est.rate_pct,
            full_pct,
            est.err_pp
        );
        assert!(
            est.simulated_events < t.len() as u64 / 2,
            "sampling must simulate far fewer events ({} of {})",
            est.simulated_events,
            t.len()
        );
    }

    #[test]
    fn full_fidelity_plan_is_the_identity() {
        let t = two_phase_trace(400);
        let p = plan(&t, 100, 1_000);
        assert_eq!(p.k(), p.index.len(), "K >= intervals keeps every interval");
        assert!((0..p.k()).all(|c| p.clustering.members(c).len() == 1));
    }

    #[test]
    fn empty_trace_combines_to_zero() {
        let t = DispatchTrace::new(0, "threaded");
        let p = plan(&t, 128, 4);
        assert_eq!(p.k(), 0);
        let est = combine(&simulate_sampled(&t, &p, &builder));
        assert_eq!(est.rate_pct, 0.0);
        assert_eq!(est.simulated_events, 0);
    }

    #[test]
    fn error_rows_are_thin_projections() {
        let est = Estimate { rate_pct: 2.5, err_pp: 0.3, simulated_events: 10 };
        let rows = error_rows(&["btb"], &[2.4], &[est]);
        assert_eq!(rows[0].label, "btb");
        assert_eq!(rows[0].values, vec![2.4, 2.5, 2.5 - 2.4, 0.3]);
    }

    #[test]
    fn capture_stream_does_not_depend_on_the_machine() {
        // Capture replays on an ideal BTB with a perfect I-cache. Its
        // stream must equal what an observer records on full machine
        // models: the Pentium 4, with its trace cache, and the Pentium M,
        // whose history predictor misses where the ideal BTB hits.
        let fe = crate::frontend("forth");
        let image = fe.image("brew");
        let (exec, _) = ivm_core::record(&*image).expect("recording run");
        let training = fe.training_for("brew");
        let static_repl =
            Technique::StaticRepl { budget: 100, selection: ReplicaSelection::RoundRobin };
        for cpu in [CpuSpec::pentium4_northwood(), CpuSpec::pentium_m()] {
            for technique in [Technique::Threaded, static_repl] {
                let captured = capture(&*image, &exec, technique, Some(&training));
                let hash =
                    dispatch_spec_hash(image.spec(), image.program(), technique, Some(&training));
                assert_eq!(captured.spec_hash(), hash, "capture tags the spec hash");
                let engine =
                    Engine::for_cpu(&cpu).with_observer(DispatchTrace::new(hash, technique.id()));
                let (run, observed) = ivm_core::measure_trace_with(
                    &*image,
                    &exec,
                    technique,
                    engine,
                    Some(&training),
                );
                let label = format!("{}/{technique}", cpu.name);
                assert!(run.counters.icache_misses > 0, "{label}: the I-cache misses");
                if matches!(cpu.predictor, PredictorKind::TwoLevel(_)) {
                    let ideal = ivm_core::simulate_many(&captured, &mut [IdealBtb::new().into()]);
                    assert_ne!(
                        run.counters.indirect_mispredicted, ideal[0].mispredicted,
                        "{label}: the machine must predict unlike the capture machine"
                    );
                }
                assert_eq!(captured, observed, "{label}: streams differ");
            }
        }
    }
}
