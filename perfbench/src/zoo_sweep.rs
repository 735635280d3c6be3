//! `zoo-sweep`: the `modern_zoo` pipeline. Each pass opens a fresh
//! `TraceStore` over an empty trace directory and, program by program
//! (one timed step each), captures one dispatch trace per technique, then
//! sweeps all registry predictors over each with `simulate_many`. A
//! program's traces are dropped before the next program's captures, so
//! only the store's memo keeps earlier programs' traces resident.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use ivm_bench::tracestore::PredictorBuilder;
use ivm_bench::{
    frontend, predictor_registry, run_cells, Cell, SharedImage, StoredTrace, TraceStore,
};
use ivm_bpred::{AnyPredictor, PredStats};
use ivm_cache::{CycleCosts, PerfectIcache};
use ivm_core::{
    simulate_many, CoverAlgorithm, DispatchTrace, Engine, ExecutionTrace, Profile,
    ReplicaSelection, Technique,
};

use crate::metrics::{self, median, quantile, Metrics};
use crate::oracle::{self, Tally};
use crate::spans::Tracer;
use crate::synth;
use crate::{Traced, Workload};

/// `modern_zoo`'s technique list, in its table row order.
pub fn zoo_techniques() -> Vec<Technique> {
    let repl = |budget| Technique::StaticRepl { budget, selection: ReplicaSelection::RoundRobin };
    let sup = |budget| Technique::StaticSuper { budget, algo: CoverAlgorithm::Greedy };
    vec![
        Technique::Threaded,
        repl(25),
        repl(100),
        repl(400),
        repl(1600),
        Technique::DynamicRepl,
        sup(25),
        sup(100),
        sup(400),
        Technique::DynamicSuper,
        Technique::AcrossBb,
    ]
}

/// The rows of `modern_zoo`'s tables each pass captures and sweeps:
/// plain threaded code, the paper's static replication budget and
/// dynamic superinstructions.
const ZOO_ROWS: [usize; 3] = [0, 3, 9];

/// One recorded program and the techniques captured for it.
pub struct Input {
    /// Frontend name (`synth` for seeded programs).
    pub frontend: &'static str,
    /// Display name in committed table titles (`None` for seeded programs).
    pub display: Option<&'static str>,
    /// Benchmark name.
    pub bench: String,
    /// The program image.
    pub image: SharedImage,
    /// The recorded execution every capture replays.
    pub exec: ExecutionTrace,
    /// The training profile static techniques select with.
    pub training: Profile,
    /// Captured techniques, with their `modern_zoo` row when bundled.
    pub techniques: Vec<(Option<usize>, Technique)>,
}

/// The heaviest member of each frontend's suite subset, as `modern_zoo`
/// and `sampling` pick them, recorded with its training profile.
pub fn bundled(tr: &Tracer, techniques: &[(Option<usize>, Technique)]) -> Vec<Input> {
    [("forth", "bench-gc"), ("java", "mpeg"), ("calc", "gcd")]
        .into_iter()
        .map(|(name, bench)| {
            let fe = frontend(name);
            let image = fe.image(fe.find(bench).name);
            let training = fe.training_for(bench);
            let exec = {
                let _g = tr.span("guest.record");
                ivm_core::record(&*image).expect("recording run").0
            };
            Input {
                frontend: fe.name,
                display: Some(fe.display),
                bench: bench.to_owned(),
                image,
                exec,
                training,
                techniques: techniques.to_vec(),
            }
        })
        .collect()
}

/// A seeded program, self-trained and recorded.
pub fn seeded(
    tr: &Tracer,
    seed: u64,
    index: u64,
    shape: synth::Shape,
    techniques: &[Technique],
) -> Input {
    let program = synth::program(seed, index, shape);
    let training = ivm_core::profile(&program.image).expect("synthetic program runs");
    let exec = {
        let _g = tr.span("guest.record");
        ivm_core::record(&program.image).expect("recording run").0
    };
    Input {
        frontend: "synth",
        display: None,
        bench: program.name,
        image: Arc::new(program.image),
        exec,
        training,
        techniques: techniques.iter().map(|&t| (None, t)).collect(),
    }
}

/// The live-engine reference of one trace-sweep statistic, as the
/// `trace_sweep` differential computes it: the interpreter re-run with
/// the predictor from `build` in the engine.
pub fn live(input: &Input, technique: Technique, build: PredictorBuilder) -> PredStats {
    let engine = Engine::new(build(), Box::new(PerfectIcache::default()), CycleCosts::celeron());
    let (r, _) = ivm_core::measure_with(&*input.image, technique, engine, Some(&input.training))
        .expect("synthetic program runs");
    PredStats {
        executed: r.counters.indirect_branches,
        mispredicted: r.counters.indirect_mispredicted,
    }
}

/// One pass's statistics, for the oracle and the traced layers.
struct PassOut {
    /// Per capture cell, per registry predictor.
    stats: Vec<Vec<PredStats>>,
    /// VmRSS growth from before the first capture to after the last
    /// sweep, with the store still open.
    rss_growth_kb: u64,
    disk_bytes: u64,
    trace_events: u64,
}

/// The zoo-sweep workload.
pub struct ZooSweep {
    inputs: Vec<Input>,
    dir: PathBuf,
    names: Vec<&'static str>,
    build_spans: Vec<String>,
    passes: Vec<PassOut>,
    /// The current pass's store, open from its first step to its last.
    store: Option<TraceStore>,
    /// VmRSS before the current pass's first capture, in kB.
    rss0: u64,
}

impl ZooSweep {
    /// Set-up: images, training profiles and one recording per program.
    pub fn new(seed: u64, work: &Path, tr: &Tracer) -> Self {
        let all = zoo_techniques();
        let rows: Vec<(Option<usize>, Technique)> =
            ZOO_ROWS.iter().map(|&i| (Some(i), all[i])).collect();
        let synth_techniques = [Technique::Threaded, Technique::DynamicRepl];
        let mut inputs = vec![
            seeded(tr, seed, 0, synth::MEDIUM, &synth_techniques),
            seeded(tr, seed, 1, synth::HUGE, &synth_techniques),
        ];
        // bench-gc, by far the largest, goes last: while its traces are
        // captured and swept, the memo still holds every other program's.
        let mut picks = bundled(tr, &rows);
        picks.rotate_left(1);
        inputs.extend(picks);
        let names: Vec<&'static str> = predictor_registry().iter().map(|(n, _)| *n).collect();
        let build_spans = names.iter().map(|n| format!("bpred.{n}.build")).collect();
        Self {
            inputs,
            dir: work.join("traces"),
            names,
            build_spans,
            passes: Vec::new(),
            store: None,
            rss0: 0,
        }
    }

    /// Capture cells: `(input, technique)` pairs.
    fn cells(&self) -> Vec<(usize, Technique)> {
        self.inputs
            .iter()
            .enumerate()
            .flat_map(|(i, input)| input.techniques.iter().map(move |&(_, t)| (i, t)))
            .collect()
    }
}

impl Workload for ZooSweep {
    fn steps(&self) -> usize {
        self.inputs.len()
    }

    fn pass(&mut self, tr: &Tracer, step: usize) -> u64 {
        if step == 0 {
            let _ = std::fs::remove_dir_all(&self.dir);
            self.store = Some(TraceStore::with_dir(&self.dir));
            self.rss0 = metrics::status_kb("VmRSS");
            self.passes.push(PassOut {
                stats: Vec::new(),
                rss_growth_kb: 0,
                disk_bytes: 0,
                trace_events: 0,
            });
        }
        let store = self.store.as_ref().expect("opened at step 0");
        let registry = predictor_registry();
        let parent = tr.current();
        let input = &self.inputs[step];
        let out = self.passes.last_mut().expect("pushed at step 0");
        let cells: Vec<Cell<Technique>> = input
            .techniques
            .iter()
            .map(|&(_, t)| {
                let id = format!("zoo/capture/{}/{}/{}", input.frontend, input.bench, t.id());
                Cell::new(id, t)
            })
            .collect();
        let traces = run_cells(cells, |cell, _| {
            let _c = tr.cell("tracestore.acquire", parent, &cell.id);
            store.get_or_capture(
                input.frontend,
                &input.bench,
                &*input.image,
                &input.exec,
                cell.input,
                Some(&input.training),
            )
        });
        let sweep: Vec<Cell<usize>> = (0..traces.len())
            .map(|i| Cell::new(format!("zoo/sweep/{}/{}/{i}", input.frontend, input.bench), i))
            .collect();
        let stats = run_cells(sweep, |cell, _| {
            let _c = tr.cell("bpred.sweep", parent, &cell.id);
            let mut predictors: Vec<AnyPredictor> = registry
                .iter()
                .zip(&self.build_spans)
                .map(|((_, build), span)| {
                    let _g = tr.span(span);
                    build()
                })
                .collect();
            let _g = tr.span("bpred.simulate_many");
            simulate_many(traces[cell.input].trace(), &mut predictors)
        });
        let trace_events = traces.iter().map(|t| t.trace().len() as u64).sum::<u64>();
        let swept: u64 = stats.iter().flatten().map(|s| s.executed).sum();
        out.stats.extend(stats);
        out.trace_events += trace_events;
        if step + 1 == self.inputs.len() {
            out.rss_growth_kb = metrics::status_kb("VmRSS").saturating_sub(self.rss0);
            out.disk_bytes = metrics::dir_bytes(&self.dir);
            self.store = None;
        }
        trace_events + swept
    }

    fn check(&mut self, root: &Path, tally: &mut Tally) -> Result<(), String> {
        let zoo = oracle::load(root, "modern_zoo")?;
        let sampling = oracle::load(root, "sampling")?;
        let cells = self.cells();
        let mut live_refs: HashMap<usize, Vec<PredStats>> = HashMap::new();
        let first = &self.passes[0].stats;
        for pass in &self.passes {
            for (c, (stats, &(i, t))) in pass.stats.iter().zip(&cells).enumerate() {
                let input = &self.inputs[i];
                let mut ok = stats == &first[c];
                match input.display {
                    Some(display) => {
                        let row =
                            input.techniques.iter().find(|&&(_, tt)| tt == t).and_then(|&(r, _)| r);
                        let head = format!("{display} {}: ", input.bench);
                        let tables = [
                            oracle::find(&zoo, |x| {
                                x.starts_with(&head) && x.ends_with("paper-era predictors")
                            }),
                            oracle::find(&zoo, |x| {
                                x.starts_with(&head) && x.ends_with("modern zoo")
                            }),
                        ];
                        let detail = oracle::find(&sampling, |x| {
                            x.starts_with(&head) && x.contains("per-predictor detail")
                        });
                        let mut compared = 0;
                        for (name, s) in self.names.iter().zip(stats) {
                            let pct = 100.0 * s.misprediction_rate();
                            for table in tables.iter().flatten() {
                                let col = table.header.iter().position(|h| h == name);
                                if let (Some(col), Some(r)) = (col, row) {
                                    let v = table.rows.get(r).and_then(|(_, v)| v.get(col));
                                    ok &= v.is_some_and(|v| oracle::matches(v, pct));
                                    compared += 1;
                                }
                            }
                            if t == Technique::Threaded {
                                let v = detail
                                    .and_then(|d| d.rows.iter().find(|(l, _)| l == name))
                                    .and_then(|(_, v)| v.first());
                                ok &= v.is_some_and(|v| oracle::matches(v, pct));
                                compared += 1;
                            }
                        }
                        ok &= compared > 0;
                    }
                    None => {
                        let reference = live_refs.entry(c).or_insert_with(|| {
                            predictor_registry().iter().map(|&(_, b)| live(input, t, b)).collect()
                        });
                        ok &= stats == reference;
                    }
                }
                tally.cell(ok, || format!("zoo {}/{}/{}", input.frontend, input.bench, t.id()));
            }
        }
        Ok(())
    }

    fn layers(&mut self, tr: &Tracer, traced: &Traced, m: &mut Metrics) {
        let Some(last) = self.passes.last() else { return };
        // The last pass's traces, loaded from its directory by a new store.
        let store = TraceStore::with_dir(&self.dir);
        let stored: Vec<Arc<StoredTrace>> = self
            .cells()
            .into_iter()
            .map(|(i, t)| {
                let input = &self.inputs[i];
                store.get_or_capture(
                    input.frontend,
                    &input.bench,
                    &*input.image,
                    &input.exec,
                    t,
                    Some(&input.training),
                )
            })
            .collect();
        let traces: Vec<&DispatchTrace> = stored.iter().map(|t| t.trace()).collect();
        let events: u64 = traces.iter().map(|t| t.len() as u64).sum();

        m.set("engine.dispatches", last.trace_events as f64);
        m.set(
            "engine.ns_per_dispatch",
            traced.lib_ns_per_pass("simulate") / last.trace_events as f64,
        );

        let (encode_ns, decode_ns, bytes) = dtrace_probe(tr, &traces);
        m.set("dtrace.encode_ns_per_event", encode_ns / events as f64);
        m.set("dtrace.decode_ns_per_event", decode_ns / events as f64);
        m.set("dtrace.bytes_per_event", bytes as f64 / events as f64);

        let acquires: Vec<f64> =
            traced.named("tracestore.acquire").map(|s| s.dur_ns() as f64 / 1e6).collect();
        m.set("tracestore.capture_ms_p50", median(&acquires));
        m.set("tracestore.capture_ms_p90", quantile(&acquires, 0.9));
        let growth: Vec<f64> =
            self.passes.iter().map(|p| p.rss_growth_kb as f64 / 1024.0).collect();
        m.set("tracestore.rss_growth_mb", median(&growth));
        m.set("tracestore.disk_mb", metrics::mb(last.disk_bytes));

        // One simulate_many call per predictor over the plain threaded
        // traces, so each configuration's per-event cost stands alone.
        let threaded: Vec<&DispatchTrace> = self
            .cells()
            .iter()
            .zip(&traces)
            .filter(|((_, t), _)| *t == Technique::Threaded)
            .map(|(_, &tr)| tr)
            .collect();
        let threaded_events: u64 = threaded.iter().map(|t| t.len() as u64).sum();
        for (name, build) in predictor_registry() {
            let mut ns = 0u128;
            for trace in &threaded {
                let mut p = [build()];
                let t = std::time::Instant::now();
                let _g = tr.span(&format!("bpred.{name}.probe"));
                let _ = simulate_many(trace, &mut p);
                ns += t.elapsed().as_nanos();
            }
            m.set(&format!("bpred.{name}.ns_per_event"), ns as f64 / threaded_events as f64);
        }
        set_build_us(traced, &self.names, m);
    }
}

/// Encodes and decodes every trace under spans: `(encode ns, decode ns,
/// encoded bytes)`, summed.
pub fn dtrace_probe(tr: &Tracer, traces: &[&DispatchTrace]) -> (f64, f64, u64) {
    let (mut enc, mut dec, mut bytes) = (0u128, 0u128, 0u64);
    for trace in traces {
        let t = std::time::Instant::now();
        let encoded = {
            let _g = tr.span("dtrace.encode");
            trace.to_bytes()
        };
        enc += t.elapsed().as_nanos();
        bytes += encoded.len() as u64;
        let t = std::time::Instant::now();
        let decoded = {
            let _g = tr.span("dtrace.decode");
            DispatchTrace::from_bytes(&encoded).expect("a fresh encoding decodes")
        };
        dec += t.elapsed().as_nanos();
        assert_eq!(decoded.len(), trace.len(), "decode returns every event");
    }
    (enc as f64, dec as f64, bytes)
}

/// Mean microseconds per predictor construction, from the build spans.
pub fn set_build_us(traced: &Traced, names: &[&str], m: &mut Metrics) {
    for name in names {
        let span = format!("bpred.{name}.build");
        let us: Vec<f64> = traced.named(&span).map(|s| s.dur_ns() as f64 / 1e3).collect();
        let mean = us.iter().sum::<f64>() / us.len() as f64;
        m.set(&format!("bpred.{name}.build_us"), mean);
    }
}
