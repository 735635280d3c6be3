//! `sampled-sweep`: the `sampling` pipeline. Set-up fills a warm trace
//! directory with plain threaded traces. A pass works input by input, as
//! the `sampling` report does, one timed step per input: the step loads
//! (decodes) the input's trace through a fresh `TraceStore`, then plans
//! every interval × K configuration and runs `simulate_sampled` and
//! `combine` for every registry predictor in one executor batch —
//! thousands of short streams, each on a fresh predictor.

use std::collections::HashMap;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use ivm_bench::pipeline::{self, Estimate};
use ivm_bench::{predictor_registry, run_cells, Cell, StoredTrace, TraceStore};
use ivm_bpred::PredStats;
use ivm_core::{simulate_many, DispatchTrace, Technique};

use crate::metrics::{self, median, quantile, Metrics};
use crate::oracle::{self, Tally};
use crate::spans::Tracer;
use crate::synth;
use crate::zoo_sweep::{bundled, dtrace_probe, live, seeded, set_build_us, Input};
use crate::{Traced, Workload};

/// The `sampling` study's interval × K grid.
const CONFIGS: [(u64, usize); 9] = [
    (1024, 4),
    (1024, 8),
    (1024, 16),
    (4096, 4),
    (4096, 8),
    (4096, 16),
    (16384, 4),
    (16384, 8),
    (16384, 16),
];

/// A seeded program long enough for every configuration to find more
/// intervals than clusters.
const SAMPLED_SHAPE: synth::Shape = synth::Shape { iterations: 56, ..synth::HUGE };

/// One `(trace, configuration)` cell's outcome.
#[derive(Debug, Clone, PartialEq)]
struct CellOut {
    k: usize,
    estimates: Vec<Estimate>,
}

/// The sampled-sweep workload.
pub struct SampledSweep {
    inputs: Vec<Input>,
    dir: PathBuf,
    names: Vec<&'static str>,
    build_spans: Vec<String>,
    sampled_spans: Vec<String>,
    /// Per pass: cells in `(input, config)` order.
    passes: Vec<Vec<CellOut>>,
    /// Per pass: VmRSS growth across the loads, summed over the steps,
    /// in kB.
    rss_growth_kb: Vec<u64>,
    /// Trace lengths, per input.
    lens: Vec<u64>,
}

impl SampledSweep {
    /// Set-up: images, training profiles, recordings, and the warm trace
    /// directory filled with every input's plain threaded trace.
    pub fn new(seed: u64, work: &Path, tr: &Tracer) -> Self {
        let threaded = [(None, Technique::Threaded)];
        let mut inputs = bundled(tr, &threaded);
        inputs.push(seeded(tr, seed, 0, SAMPLED_SHAPE, &[Technique::Threaded]));
        let dir = work.join("warm");
        let store = TraceStore::with_dir(&dir);
        let cells: Vec<Cell<usize>> =
            (0..inputs.len()).map(|i| Cell::new(format!("sampled/fill/{i}"), i)).collect();
        run_cells(cells, |cell, _| {
            let input = &inputs[cell.input];
            let _g = tr.span("setup.capture");
            store.get_or_capture(
                input.frontend,
                &input.bench,
                &*input.image,
                &input.exec,
                Technique::Threaded,
                Some(&input.training),
            )
        });
        let names: Vec<&'static str> = predictor_registry().iter().map(|(n, _)| *n).collect();
        let inputs_len = inputs.len();
        Self {
            inputs,
            dir,
            build_spans: names.iter().map(|n| format!("bpred.{n}.build")).collect(),
            sampled_spans: names.iter().map(|n| format!("bpred.{n}.sampled")).collect(),
            names,
            passes: Vec::new(),
            rss_growth_kb: Vec::new(),
            lens: vec![0; inputs_len],
        }
    }

    /// Loads the traces of `inputs` through a fresh store over the warm
    /// directory.
    fn load(&self, tr: &Tracer, inputs: Range<usize>) -> Vec<Arc<StoredTrace>> {
        let store = TraceStore::with_dir(&self.dir);
        let parent = tr.current();
        let cells: Vec<Cell<usize>> = inputs
            .map(|i| {
                let input = &self.inputs[i];
                Cell::new(format!("sampled/load/{}/{}", input.frontend, input.bench), i)
            })
            .collect();
        run_cells(cells, |cell, _| {
            let input = &self.inputs[cell.input];
            let _c = tr.cell("tracestore.acquire", parent, &cell.id);
            store.get_or_capture(
                input.frontend,
                &input.bench,
                &*input.image,
                &input.exec,
                Technique::Threaded,
                Some(&input.training),
            )
        })
    }

    /// Plan, sampled simulation and combine for one cell, every
    /// predictor built through a span.
    fn sample(&self, tr: &Tracer, trace: &DispatchTrace, (interval, k): (u64, usize)) -> CellOut {
        let plan = {
            let _g = tr.span("pipeline.plan");
            pipeline::plan(trace, interval, k)
        };
        let estimates = predictor_registry()
            .iter()
            .enumerate()
            .map(|(p, (_, build))| {
                let builder = || {
                    let _g = tr.span(&self.build_spans[p]);
                    build()
                };
                let run = {
                    let _g = tr.span(&self.sampled_spans[p]);
                    pipeline::simulate_sampled(trace, &plan, &builder)
                };
                let _g = tr.span("pipeline.combine");
                pipeline::combine(&run)
            })
            .collect();
        CellOut { k: plan.k(), estimates }
    }
}

impl Workload for SampledSweep {
    fn steps(&self) -> usize {
        self.inputs.len()
    }

    fn pass(&mut self, tr: &Tracer, step: usize) -> u64 {
        if step == 0 {
            self.passes.push(Vec::new());
            self.rss_growth_kb.push(0);
        }
        let rss0 = metrics::status_kb("VmRSS");
        let stored = self.load(tr, step..step + 1).pop().expect("one trace per input");
        let growth = metrics::status_kb("VmRSS").saturating_sub(rss0);
        *self.rss_growth_kb.last_mut().expect("pushed at step 0") += growth;
        let trace = stored.trace();
        let input = &self.inputs[step];
        let parent = tr.current();
        let order = costliest_first();
        let cells: Vec<Cell<usize>> = order
            .iter()
            .map(|&c| {
                let (interval, k) = CONFIGS[c];
                Cell::new(format!("sampled/{}/{}/i{interval}k{k}", input.frontend, input.bench), c)
            })
            .collect();
        let outs = run_cells(cells, |cell, _| {
            let _c = tr.cell("pipeline.cell", parent, &cell.id);
            self.sample(tr, trace, CONFIGS[cell.input])
        });
        let mut by_config: Vec<(usize, CellOut)> = order.into_iter().zip(outs).collect();
        by_config.sort_by_key(|&(c, _)| c);
        let outs: Vec<CellOut> = by_config.into_iter().map(|(_, out)| out).collect();
        self.lens[step] = trace.len() as u64;
        let events = outs.iter().flat_map(|o| &o.estimates).map(|e| e.simulated_events).sum();
        self.passes.last_mut().expect("pushed at step 0").extend(outs);
        events
    }

    fn check(&mut self, root: &Path, tally: &mut Tally) -> Result<(), String> {
        let sampling = oracle::load(root, "sampling")?;
        let quiet = Tracer::new();
        let traces = self.load(&quiet, 0..self.inputs.len());
        let Some(first) = self.passes.first() else { return Ok(()) };
        // References, in executor cells of their own: the full-trace
        // sweep each sampled estimate is measured against (seeded traces
        // also against the live engine), and for seeded traces the
        // sampled stages recomputed.
        let registry = predictor_registry();
        let pairs: Vec<Cell<(usize, usize)>> = (0..traces.len())
            .flat_map(|i| (0..registry.len()).map(move |p| (i, p)))
            .map(|(i, p)| Cell::new(format!("sampled/full/{i}/{p}"), (i, p)))
            .collect();
        let full_stats: Vec<(PredStats, bool)> = run_cells(pairs, |cell, _| {
            let (i, p) = cell.input;
            let input = &self.inputs[i];
            let build = registry[p].1;
            let stats = simulate_many(traces[i].trace(), &mut [build()])[0];
            let ok = input.display.is_some() || stats == live(input, Technique::Threaded, build);
            (stats, ok)
        });
        let full: Vec<(Vec<PredStats>, bool)> = full_stats
            .chunks(registry.len())
            .map(|c| (c.iter().map(|(s, _)| *s).collect(), c.iter().all(|(_, ok)| *ok)))
            .collect();
        let seeded: Vec<Cell<usize>> = (0..first.len())
            .filter(|&cell| self.inputs[cell / CONFIGS.len()].display.is_none())
            .map(|cell| Cell::new(format!("sampled/recompute/{cell}"), cell))
            .collect();
        let ids: Vec<usize> = seeded.iter().map(|c| c.input).collect();
        let recomputed: HashMap<usize, CellOut> = ids
            .into_iter()
            .zip(run_cells(seeded, |cell, _| {
                let (i, c) = (cell.input / CONFIGS.len(), cell.input % CONFIGS.len());
                self.sample(&quiet, traces[i].trace(), CONFIGS[c])
            }))
            .collect();
        for pass in &self.passes {
            for (cell, out) in pass.iter().enumerate() {
                let (i, c) = (cell / CONFIGS.len(), cell % CONFIGS.len());
                let input = &self.inputs[i];
                let trace = traces[i].trace();
                let (full_stats, full_ok) = &full[i];
                let full_pct: Vec<f64> =
                    full_stats.iter().map(|s| 100.0 * s.misprediction_rate()).collect();
                let mut ok = *full_ok && out == &first[cell];
                let (interval, k) = CONFIGS[c];
                match input.display {
                    Some(display) => {
                        let head = format!("{display} {} (threaded", input.bench);
                        let row = oracle::find(&sampling, |t| t.starts_with(&head)).and_then(|t| {
                            t.rows.iter().find(|(l, _)| *l == format!("ival {interval} K {k}"))
                        });
                        let values = summary_row(&out.estimates, &full_pct, trace.len() as u64);
                        ok &= row.is_some_and(|(_, refs)| {
                            refs.len() == values.len()
                                && refs.iter().zip(&values).all(|(r, &v)| oracle::matches(r, v))
                        });
                        let detail_head =
                            format!("{display} {}: per-predictor detail", input.bench);
                        if let Some(detail) =
                            oracle::find(&sampling, |t| t.starts_with(&detail_head))
                        {
                            let this_config =
                                detail.title.ends_with(&format!("ival {interval} K {k}"));
                            for ((name, est), full) in
                                self.names.iter().zip(&out.estimates).zip(&full_pct)
                            {
                                let refs =
                                    detail.rows.iter().find(|(l, _)| l == name).map(|(_, v)| v);
                                ok &= refs.is_some_and(|v| {
                                    v.first().is_some_and(|r| oracle::matches(r, *full))
                                        && (!this_config
                                            || (v
                                                .get(1)
                                                .is_some_and(|r| oracle::matches(r, est.rate_pct))
                                                && v.get(3).is_some_and(|r| {
                                                    oracle::matches(r, est.err_pp)
                                                })))
                                });
                            }
                        }
                    }
                    None => ok &= recomputed.get(&cell) == Some(out),
                }
                tally.cell(ok, || {
                    format!("sampled {}/{} ival {interval} K {k}", input.frontend, input.bench)
                });
            }
        }
        Ok(())
    }

    fn layers(&mut self, tr: &Tracer, traced: &Traced, m: &mut Metrics) {
        let Some(last) = self.passes.last() else { return };
        let traces = self.load(tr, 0..self.inputs.len());
        let refs: Vec<&DispatchTrace> = traces.iter().map(|t| t.trace()).collect();
        let events: u64 = refs.iter().map(|t| t.len() as u64).sum();
        let (encode_ns, decode_ns, bytes) = dtrace_probe(tr, &refs);
        m.set("dtrace.encode_ns_per_event", encode_ns / events as f64);
        m.set("dtrace.decode_ns_per_event", decode_ns / events as f64);
        m.set("dtrace.bytes_per_event", bytes as f64 / events as f64);

        let acquires: Vec<f64> =
            traced.named("tracestore.acquire").map(|s| s.dur_ns() as f64 / 1e6).collect();
        m.set("tracestore.capture_ms_p50", median(&acquires));
        m.set("tracestore.capture_ms_p90", quantile(&acquires, 0.9));
        let growth: Vec<f64> = self.rss_growth_kb.iter().map(|&kb| kb as f64 / 1024.0).collect();
        m.set("tracestore.rss_growth_mb", median(&growth));
        m.set("tracestore.disk_mb", metrics::mb(metrics::dir_bytes(&self.dir)));

        let mean_ns = |name: &str| {
            let v: Vec<f64> = traced.named(name).map(|s| s.dur_ns() as f64).collect();
            v.iter().sum::<f64>() / v.len() as f64
        };
        m.set("pipeline.plan_ms", mean_ns("pipeline.plan") / 1e6);
        m.set("pipeline.combine_us", mean_ns("pipeline.combine") / 1e3);

        // Per predictor: sampled-simulation time net of its constructions,
        // over the events it fed.
        let own = crate::spans::self_times(&traced.spans);
        let mut sampled_ns = 0.0;
        let mut sampled_events = 0u64;
        for (p, name) in self.names.iter().enumerate() {
            let ns: f64 = traced
                .spans
                .iter()
                .zip(&own)
                .filter(|(s, _)| s.name == self.sampled_spans[p])
                .map(|(_, &ns)| ns as f64)
                .sum();
            let fed: u64 = last.iter().map(|o| o.estimates[p].simulated_events).sum::<u64>()
                * traced.passes as u64;
            m.set(&format!("bpred.{name}.ns_per_event"), ns / fed as f64);
            sampled_ns +=
                traced.named(&self.sampled_spans[p]).map(|s| s.dur_ns() as f64).sum::<f64>();
            sampled_events += fed;
        }
        m.set("pipeline.sampled_ns_per_event", sampled_ns / sampled_events as f64);
        let full_events: u64 = self.lens.iter().map(|&l| l * CONFIGS.len() as u64).sum::<u64>()
            * self.names.len() as u64;
        m.set(
            "pipeline.sampled_event_ratio",
            sampled_events as f64 / traced.passes as f64 / full_events as f64,
        );
        set_build_us(traced, &self.names, m);
    }
}

/// Indices into [`CONFIGS`], costliest first (most events an interval
/// × K plan can sample, then most clusters). The executor starts cells in
/// order, so a batch's longest cell never starts last and leaves the other
/// worker idle.
fn costliest_first() -> Vec<usize> {
    let mut order: Vec<usize> = (0..CONFIGS.len()).collect();
    order.sort_by_key(|&c| {
        let (interval, k) = CONFIGS[c];
        std::cmp::Reverse((interval * k as u64, k))
    });
    order
}

/// One summary row of the `sampling` report: worst |sampled − full| gap,
/// worst bar, predictors within their bar, thousands of simulated
/// events and the reduction over the full trace.
fn summary_row(estimates: &[Estimate], full_pct: &[f64], full_events: u64) -> Vec<f64> {
    let gaps: Vec<f64> =
        estimates.iter().zip(full_pct).map(|(e, &f)| (e.rate_pct - f).abs()).collect();
    let within = gaps.iter().zip(estimates).filter(|(g, e)| **g <= e.err_pp).count();
    let sim = estimates.first().map_or(0, |e| e.simulated_events);
    vec![
        gaps.iter().fold(0.0, |a: f64, &b| a.max(b)),
        estimates.iter().map(|e| e.err_pp).fold(0.0, f64::max),
        within as f64,
        sim as f64 / 1000.0,
        if sim > 0 { full_events as f64 / sim as f64 } else { 0.0 },
    ]
}
