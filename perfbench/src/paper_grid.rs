//! `paper-grid`: live `measure` over every frontend's suite × technique
//! list on the Celeron and the Pentium 4, plus seeded synthetic Forth
//! programs. Guest interpretation, translation and the engine do the
//! work; no traces, predictor zoo or sampling are involved.

use std::collections::HashMap;
use std::path::Path;

use ivm_bench::{frontends, run_cells, Cell, Frontend};
use ivm_cache::CpuSpec;
use ivm_core::{GuestVm, NullEvents, Profile, RunResult, Technique};

use crate::metrics::Metrics;
use crate::oracle::{self, Table, Tally};
use crate::spans::Tracer;
use crate::synth;
use crate::{Traced, Workload};

/// One seeded program with its self-training profile.
struct Synth {
    program: synth::Program,
    profile: Profile,
}

/// The paper-grid workload.
pub struct PaperGrid {
    cpus: [CpuSpec; 2],
    /// Each frontend with its per-benchmark training profiles.
    grids: Vec<(&'static Frontend, Vec<Profile>)>,
    synth: Vec<Synth>,
    /// Per pass: one result list per batch, bundled batches first
    /// (cpu-major, then frontend), the synthetic batch last.
    passes: Vec<Vec<Vec<RunResult>>>,
}

/// Simulated statistics equal bit for bit.
fn same(a: &RunResult, b: &RunResult) -> bool {
    a.cycles.to_bits() == b.cycles.to_bits()
        && a.counters == b.counters
        && a.icache_set_misses == b.icache_set_misses
}

impl PaperGrid {
    /// Set-up: images and training profiles of every frontend, and the
    /// seeded programs compiled and profiled.
    pub fn new(seed: u64, tr: &Tracer) -> Self {
        let grids = frontends()
            .iter()
            .map(|fe| {
                let _g = tr.span("setup.trainings");
                (fe, fe.trainings())
            })
            .collect();
        let shapes = [synth::SMALL, synth::MEDIUM, synth::LARGE, synth::HUGE];
        let synth = (0u64..)
            .zip(shapes)
            .map(|(i, shape)| {
                let program = synth::program(seed, i, shape);
                let _g = tr.span("guest.profile");
                let profile = ivm_core::profile(&program.image).expect("synthetic program runs");
                Synth { program, profile }
            })
            .collect();
        Self {
            cpus: [CpuSpec::celeron800(), CpuSpec::pentium4_northwood()],
            grids,
            synth,
            passes: Vec::new(),
        }
    }

    /// Synthetic cells in batch order: `(cpu, program, technique)`.
    fn synth_cells(&self) -> Vec<(usize, usize, Technique)> {
        let mut cells = Vec::new();
        for c in 0..self.cpus.len() {
            for p in 0..self.synth.len() {
                for t in Technique::gforth_suite() {
                    cells.push((c, p, t));
                }
            }
        }
        cells
    }

    /// Bundled batch `b` as `(cpu index, frontend index)`.
    fn batch(&self, b: usize) -> (usize, usize) {
        (b / self.grids.len(), b % self.grids.len())
    }

    /// The replay reference of a batch with no committed table: record
    /// once per program, then `measure_trace` per technique.
    fn replay(
        vm: &dyn GuestVm,
        cpu: &CpuSpec,
        techniques: &[Technique],
        training: &Profile,
    ) -> Vec<RunResult> {
        let (exec, _) = ivm_core::record(vm).expect("recording run");
        techniques
            .iter()
            .map(|&t| ivm_core::measure_trace(vm, &exec, t, cpu, Some(training)))
            .collect()
    }

    /// Checks one bundled batch against its committed speedup table:
    /// each cell's speedup over plain threaded code, at the table's
    /// precision. A threaded cell passes when every speedup over it does.
    fn against_table(
        fe: &Frontend,
        table: &Table,
        results: &[RunResult],
        pass_ok: &[bool],
        tally: &mut Tally,
    ) {
        let techniques = fe.techniques();
        let benches = fe.names();
        let n = benches.len();
        let base = techniques.iter().position(|&t| t == Technique::Threaded).expect("threaded");
        let mut column_ok = vec![true; n];
        let mut cell_ok = vec![true; results.len()];
        let mut row = 1; // row 0 is the constant "plain" row
        for (ti, t) in techniques.iter().enumerate() {
            if ti == base {
                continue;
            }
            let reference = table.rows.get(row);
            row += 1;
            for j in 0..n {
                let speedup = results[base * n + j].cycles / results[ti * n + j].cycles;
                let ok = reference.is_some_and(|(label, values)| {
                    label == t.paper_name()
                        && values.get(j).is_some_and(|v| oracle::matches(v, speedup))
                });
                cell_ok[ti * n + j] = ok;
                column_ok[j] &= ok;
            }
        }
        for (i, ok) in cell_ok.iter().enumerate() {
            let (ti, j) = (i / n, i % n);
            let ok = if ti == base { column_ok[j] } else { *ok } && pass_ok[i];
            tally.cell(ok, || {
                format!("{}/{}/{} vs {:?}", fe.name, benches[j], techniques[ti], table.title)
            });
        }
    }

    /// Every seeded program under every Gforth technique on both CPUs, in
    /// one executor batch.
    fn synth_batch(&self, tr: &Tracer) -> Vec<RunResult> {
        let cells: Vec<Cell<(usize, usize, Technique)>> = self
            .synth_cells()
            .into_iter()
            .map(|(c, p, t)| {
                Cell::new(
                    format!("synth/{}/{}/{t}", self.cpus[c].name, self.synth[p].program.name),
                    (c, p, t),
                )
            })
            .collect();
        let _g = tr.span("grid.synth");
        let parent = tr.current();
        run_cells(cells, |cell, _| {
            let (c, p, t) = cell.input;
            let s = &self.synth[p];
            let _c = tr.cell("engine.measure", parent, &cell.id);
            ivm_core::measure(&s.program.image, t, &self.cpus[c], Some(&s.profile))
                .unwrap_or_else(|e| panic!("{}: {e}", cell.id))
                .0
        })
    }
}

impl Workload for PaperGrid {
    /// One step per batch: each frontend's grid on each CPU, then the
    /// synthetic batch.
    fn steps(&self) -> usize {
        self.cpus.len() * self.grids.len() + 1
    }

    fn pass(&mut self, tr: &Tracer, step: usize) -> u64 {
        if step == 0 {
            self.passes.push(Vec::new());
        }
        let batch = if step + 1 < self.steps() {
            let (c, f) = self.batch(step);
            let (cpu, (fe, trainings)) = (&self.cpus[c], &self.grids[f]);
            let _g = tr.span(&format!("grid.{}.{}", fe.name, cpu.name));
            let grid = fe.grid(cpu, &fe.techniques(), trainings);
            grid.into_iter().flat_map(|(_, r)| r).collect()
        } else {
            self.synth_batch(tr)
        };
        let events = batch.iter().map(|r| r.counters.dispatches).sum();
        self.passes.last_mut().expect("pushed at step 0").push(batch);
        events
    }

    fn check(&mut self, root: &Path, tally: &mut Tally) -> Result<(), String> {
        let mut tables = Vec::new();
        for name in ["figure7", "figure8", "figure9", "frontends"] {
            tables.extend(oracle::load(root, name)?);
        }
        let summary = oracle::find(&tables, |t| t.starts_with("Cross-frontend summary"));
        let Some(first) = self.passes.first() else { return Ok(()) };
        let synth_batch = first.len() - 1;
        let mut replays: HashMap<usize, Vec<RunResult>> = HashMap::new();
        for pass in &self.passes {
            for (b, results) in pass.iter().enumerate() {
                let pass_ok: Vec<bool> =
                    results.iter().zip(&first[b]).map(|(r, f)| same(r, f)).collect();
                if b == synth_batch {
                    let reference = replays.entry(b).or_insert_with(|| {
                        let mut out = Vec::new();
                        for cpu in &self.cpus {
                            for s in &self.synth {
                                let techniques = Technique::gforth_suite();
                                out.extend(Self::replay(
                                    &s.program.image,
                                    cpu,
                                    &techniques,
                                    &s.profile,
                                ));
                            }
                        }
                        out
                    });
                    for (i, (r, ok)) in results.iter().zip(&pass_ok).enumerate() {
                        tally.cell(*ok && same(r, &reference[i]), || format!("synthetic cell {i}"));
                    }
                    continue;
                }
                let (c, f) = self.batch(b);
                let (fe, trainings) = &self.grids[f];
                let cpu = &self.cpus[c];
                let on_cpu = format!("on {}", cpu.name);
                let table = oracle::find(&tables, |t| {
                    t.contains("speedups") && t.contains(fe.display) && t.contains(&on_cpu)
                });
                match table {
                    Some(table) => Self::against_table(fe, table, results, &pass_ok, tally),
                    None => {
                        let reference = replays.entry(b).or_insert_with(|| {
                            let techniques = fe.techniques();
                            let per_bench: Vec<Vec<RunResult>> = fe
                                .names()
                                .iter()
                                .zip(trainings)
                                .map(|(name, training)| {
                                    Self::replay(&*fe.image(name), cpu, &techniques, training)
                                })
                                .collect();
                            // Technique-major, as the grid returns them.
                            (0..techniques.len())
                                .flat_map(|t| per_bench.iter().map(move |r| r[t].clone()))
                                .collect()
                        });
                        for (i, (r, ok)) in results.iter().zip(&pass_ok).enumerate() {
                            tally.cell(*ok && same(r, &reference[i]), || {
                                format!("{}/{} cell {i} vs replay", fe.name, cpu.name)
                            });
                        }
                    }
                }
                // The cross-frontend summary: plain-threaded BTB
                // misprediction rate on the Celeron.
                if let (Some(summary), 0) = (summary, c) {
                    let n = fe.names().len();
                    let (m, br) = results[..n].iter().fold((0u64, 0u64), |(m, b), r| {
                        (m + r.counters.indirect_mispredicted, b + r.counters.indirect_branches)
                    });
                    let row = summary.rows.iter().find(|(label, _)| label == fe.display);
                    let ok = row.is_some_and(|(_, v)| {
                        v.get(1).is_some_and(|v| {
                            oracle::matches(v, 100.0 * m as f64 / br.max(1) as f64)
                        })
                    });
                    tally.cell(ok, || format!("{} summary misprediction rate", fe.display));
                }
            }
        }
        Ok(())
    }

    fn layers(&mut self, tr: &Tracer, traced: &Traced, m: &mut Metrics) {
        let Some(last) = self.passes.last() else { return };
        // Guest interpretation alone, once per program, to split the
        // measured runs' execute time into guest and engine.
        let mut guest: HashMap<String, (u64, f64)> = HashMap::new();
        let mut probe = |key: String, vm: &dyn GuestVm| {
            let t = std::time::Instant::now();
            let out = {
                let _g = tr.span("guest.execute");
                vm.execute(&mut NullEvents, vm.default_fuel()).expect("bundled program runs")
            };
            guest.insert(key, (out.steps, t.elapsed().as_nanos() as f64));
        };
        for (fe, _) in &self.grids {
            for name in fe.names() {
                probe(format!("{}/{name}", fe.name), &*fe.image(name));
            }
        }
        for s in &self.synth {
            probe(s.program.name.clone(), &s.program.image);
        }

        // Each measured cell interprets its program once.
        let mut cell_steps = 0u64;
        let mut cell_guest_ns = 0.0;
        let per_cell = |key: &str, runs: usize, steps: &mut u64, ns: &mut f64| {
            let (s, t) = guest[key];
            *steps += s * runs as u64;
            *ns += t * runs as f64;
        };
        for (fe, _) in &self.grids {
            let runs = fe.techniques().len() * self.cpus.len();
            for name in fe.names() {
                per_cell(&format!("{}/{name}", fe.name), runs, &mut cell_steps, &mut cell_guest_ns);
            }
        }
        let synth_runs = Technique::gforth_suite().len() * self.cpus.len();
        for s in &self.synth {
            per_cell(&s.program.name, synth_runs, &mut cell_steps, &mut cell_guest_ns);
        }
        let (probe_steps, probe_ns) =
            guest.values().fold((0u64, 0.0), |(s, n), &(steps, ns)| (s + steps, n + ns));
        m.set("guest.events", cell_steps as f64);
        m.set("guest.ns_per_event", probe_ns / probe_steps as f64);

        let dispatches: u64 = last.iter().flatten().map(|r| r.counters.dispatches).sum();
        m.set("engine.dispatches", dispatches as f64);
        let engine_ns = traced.lib_ns_per_pass("execute") - cell_guest_ns;
        m.set("engine.ns_per_dispatch", engine_ns / dispatches as f64);
    }
}
