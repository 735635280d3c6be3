//! Shared harness for regenerating the paper's tables and figures.
//!
//! Each binary in `src/bin/` reproduces one table or figure; this library
//! holds the common plumbing: the parallel experiment executor front-end
//! ([`run_cells`]), the frontend registry ([`frontends`]) with suite
//! runners and cross-validated training (paper §7.1), once-per-program
//! image caches, the native-code cost model used for the Table IX/X
//! substitution, and text-table formatting.
//!
//! # Frontends
//!
//! Every guest VM is described by a [`Frontend`] entry: its benchmark
//! suite, its technique list, and its training policy. The harness code
//! never names a VM — a binary that iterates [`frontends`] (or fetches
//! one by name with [`frontend`]) runs the translate → Engine →
//! attribution machinery through [`ivm_core::GuestVm`] and works for any
//! registered frontend, including ones added after it was written.
//!
//! # Parallel execution
//!
//! Every suite/grid helper routes its independent experiment cells
//! through [`run_cells`], which shards them across `IVM_JOBS` worker
//! threads (default: available parallelism; `IVM_JOBS=1` is fully
//! serial). Results are merged in canonical cell order, so stdout and
//! the JSON reports are byte-identical at any job count. Executor
//! wall-time metadata is accumulated process-wide and attached to the
//! report manifest by [`Report::finish`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod native_model;
pub mod pipeline;
pub mod report;
pub mod tracestore;

pub use ivm_harness::par::{Cell, CellCtx};
pub use pipeline::SamplingPlan;
pub use report::{json_enabled, Report};
pub use tracestore::{predictor_registry, trace_meta, trace_store, StoredTrace, TraceStore};

use std::sync::{Arc, Mutex, OnceLock};

use ivm_cache::CpuSpec;
use ivm_core::{Engine, GuestVm, Measurement, Memo, Profile, RunResult, Technique};
use ivm_obs::{CellWall, DispatchAttribution, ExecutorMeta, Json};

/// A labelled results row.
#[derive(Debug, Clone)]
pub struct Row {
    /// Row label (e.g. the technique name).
    pub label: String,
    /// One value per column.
    pub values: Vec<f64>,
}

/// Prints a fixed-width table with a title, column headers and rows.
pub fn print_table(title: &str, columns: &[&str], rows: &[Row], precision: usize) {
    println!("{title}");
    print!("{:<24}", "");
    for c in columns {
        print!(" {c:>10}");
    }
    println!();
    for row in rows {
        print!("{:<24}", row.label);
        for v in &row.values {
            print!(" {v:>10.precision$}");
        }
        println!();
    }
    println!();
}

/// True when the `IVM_SMOKE` environment variable is set (to anything
/// but `0`).
///
/// In smoke mode the bin harnesses run a reduced workload — a small
/// subset of each suite and shortened sweeps — so CI can check every
/// binary end to end in seconds. The numbers printed under smoke mode
/// are *not* the paper's numbers; `results/*.txt` is always regenerated
/// without it.
pub fn smoke() -> bool {
    std::env::var("IVM_SMOKE").is_ok_and(|v| v != "0")
}

// ---------------------------------------------------------------------------
// Parallel experiment executor front-end
// ---------------------------------------------------------------------------

/// Process-wide executor metadata, merged into the report manifest.
static EXEC_META: Mutex<Option<ExecutorMeta>> = Mutex::new(None);

/// Runs the experiment cells through the parallel executor and returns
/// the results in canonical cell order.
///
/// This is the single entry point every report binary's grid goes
/// through: it shards cells across `IVM_JOBS` workers (deterministically
/// — see [`ivm_harness::par`]) and accumulates wall-time statistics for
/// the report manifest's `executor` section.
///
/// Cells must not print; compute in the cell and print after the merge.
///
/// # Panics
///
/// Panics (naming the cell id) if any cell panicked — a report must not
/// print partial tables.
pub fn run_cells<T, R>(
    cells: Vec<Cell<T>>,
    f: impl Fn(&Cell<T>, &mut CellCtx) -> R + Sync,
) -> Vec<R>
where
    T: Sync,
    R: Send,
{
    match ivm_harness::par::run_cells(&cells, f) {
        Ok((results, stats)) => {
            let walls = stats
                .cells
                .iter()
                .map(|c| CellWall { id: c.id.clone(), wall_us: c.wall.as_micros() as u64 })
                .collect();
            EXEC_META
                .lock()
                .expect("executor metadata lock")
                .get_or_insert_with(ExecutorMeta::default)
                .absorb(stats.jobs, stats.wall.as_micros() as u64, walls);
            results
        }
        Err(e) => panic!("{e}"),
    }
}

/// The executor metadata accumulated by [`run_cells`] so far, if any
/// cells ran. Attached to report manifests by [`Report::finish`].
pub fn executor_meta() -> Option<ExecutorMeta> {
    EXEC_META.lock().expect("executor metadata lock").clone()
}

// ---------------------------------------------------------------------------
// The frontend registry
// ---------------------------------------------------------------------------

/// A guest VM image shared between parallel experiment cells.
pub type SharedImage = Arc<dyn GuestVm + Send + Sync>;

/// One benchmark of a frontend's suite.
pub struct FrontendBench {
    /// Suite name (paper order within the frontend).
    pub name: &'static str,
    /// What the workload is.
    pub description: &'static str,
    build: Box<dyn Fn() -> SharedImage + Send + Sync>,
}

/// How a frontend derives training profiles (paper §7.1).
enum TrainingPolicy {
    /// One designated trainer program profiles for the whole suite (the
    /// paper's Gforth setup: train on brainless, measure everything).
    Shared {
        /// Trainer in full runs.
        full: &'static str,
        /// Trainer under [`smoke`].
        smoke: &'static str,
    },
    /// Benchmark `i` trains on the merged profiles of all *other*
    /// benchmarks (the paper's Java setup, the compress example).
    CrossValidated,
}

/// One registered guest VM: its suite, techniques and training policy.
///
/// All measurement goes through [`ivm_core::GuestVm`] — the registry
/// holds no VM-specific measurement code, only construction closures.
pub struct Frontend {
    /// Registry name; the first path component of this frontend's
    /// executor cell ids (`{name}/{bench}/{technique}`).
    pub name: &'static str,
    /// Human-readable VM name for table titles (e.g. `Gforth`).
    pub display: &'static str,
    suite: Vec<FrontendBench>,
    extras: Vec<FrontendBench>,
    smoke_names: &'static [&'static str],
    techniques: fn() -> Vec<Technique>,
    training: TrainingPolicy,
    images: Memo<&'static str, SharedImage>,
    profiles: Memo<&'static str, Profile>,
}

impl Frontend {
    /// The benchmarks the harnesses iterate: the full suite, or the
    /// frontend's designated subset under [`smoke`].
    pub fn benches(&self) -> Vec<&FrontendBench> {
        if smoke() {
            self.smoke_names.iter().map(|n| self.find(n)).collect()
        } else {
            self.suite.iter().collect()
        }
    }

    /// The iterated benchmark names, in suite order.
    pub fn names(&self) -> Vec<&'static str> {
        self.benches().iter().map(|b| b.name).collect()
    }

    /// Looks up a benchmark (suite or extra) by name.
    pub fn try_find(&self, name: &str) -> Option<&FrontendBench> {
        self.suite.iter().chain(&self.extras).find(|b| b.name == name)
    }

    /// Looks up a benchmark (suite or extra) by name.
    ///
    /// # Panics
    ///
    /// Panics if no benchmark has that name — bin harnesses only ask for
    /// bundled programs.
    pub fn find(&self, name: &str) -> &FrontendBench {
        self.try_find(name).unwrap_or_else(|| panic!("{}: no benchmark named {name}", self.name))
    }

    /// The technique suite this frontend's figures sweep.
    pub fn techniques(&self) -> Vec<Technique> {
        (self.techniques)()
    }

    /// The benchmark's image, built once per process: parallel grid
    /// cells for the same program share one image instead of
    /// re-translating it per (technique × predictor × cache) cell.
    pub fn image(&self, name: &'static str) -> SharedImage {
        Arc::unwrap_or_clone(self.images.get_or_build(name, || {
            let _span = ivm_obs::span::enter("image_build");
            (self.find(name).build)()
        }))
    }

    /// The benchmark's training profile, collected once per process.
    ///
    /// # Panics
    ///
    /// Panics if the training run fails (a bug in the bundled program).
    pub fn profile_of(&self, name: &'static str) -> Arc<Profile> {
        self.profiles
            .get_or_build(name, || ivm_core::profile(&*self.image(name)).expect("training run"))
    }

    /// The shared training profile (paper §7.1; for Gforth: brainless).
    ///
    /// # Panics
    ///
    /// Panics if this frontend trains cross-validated — use
    /// [`Frontend::trainings`] there, one profile per benchmark.
    pub fn training(&self) -> Arc<Profile> {
        match self.training {
            TrainingPolicy::Shared { full, smoke: s } => {
                self.profile_of(if smoke() { s } else { full })
            }
            TrainingPolicy::CrossValidated => {
                panic!("{} trains cross-validated; use trainings()", self.name)
            }
        }
    }

    /// The training profile a single benchmark measures under: the
    /// shared trainer profile, or — cross-validated — the merged
    /// profiles of all the *other* suite benchmarks.
    ///
    /// # Panics
    ///
    /// Panics if a cross-validated frontend is asked about a benchmark
    /// outside [`Frontend::benches`], or if a training run fails.
    pub fn training_for(&self, name: &str) -> Profile {
        match self.training {
            TrainingPolicy::Shared { .. } => (*self.training()).clone(),
            TrainingPolicy::CrossValidated => {
                let idx =
                    self.benches().iter().position(|b| b.name == name).unwrap_or_else(|| {
                        panic!("{}: {name} not in the iterated suite", self.name)
                    });
                self.trainings().swap_remove(idx)
            }
        }
    }

    /// Per-benchmark training profiles, aligned with [`Frontend::benches`].
    ///
    /// Shared-policy frontends hand every benchmark the same trainer
    /// profile; cross-validated ones give benchmark `i` the merged
    /// profiles of all *other* benchmarks, running the per-benchmark
    /// profiling as parallel cells (cached, so only the first call pays).
    ///
    /// # Panics
    ///
    /// Panics if a training run fails.
    pub fn trainings(&self) -> Vec<Profile> {
        match self.training {
            TrainingPolicy::Shared { .. } => {
                let p = self.training();
                self.benches().iter().map(|_| (*p).clone()).collect()
            }
            TrainingPolicy::CrossValidated => {
                let cells: Vec<Cell<&'static str>> = self
                    .benches()
                    .iter()
                    .map(|b| Cell::new(format!("{}/profile/{}", self.name, b.name), b.name))
                    .collect();
                let profiles = run_cells(cells, |cell, _| self.profile_of(cell.input));
                (0..profiles.len())
                    .map(|i| {
                        let mut p = Profile::new();
                        for (j, other) in profiles.iter().enumerate() {
                            if i != j {
                                p.merge(other);
                            }
                        }
                        p
                    })
                    .collect()
            }
        }
    }

    /// Runs every benchmark under `technique` on `cpu` with the given
    /// per-benchmark training profiles, one executor cell per benchmark.
    ///
    /// # Panics
    ///
    /// Panics if a bundled benchmark fails at runtime (a bug in the
    /// frontend crate).
    pub fn suite(
        &self,
        cpu: &CpuSpec,
        technique: Technique,
        trainings: &[Profile],
    ) -> Vec<RunResult> {
        let mut grid = self.grid(cpu, &[technique], trainings);
        grid.pop().expect("one technique").1
    }

    /// Runs the full (technique × benchmark) grid on `cpu`, one executor
    /// cell per combination, and regroups the results per technique in
    /// the given order.
    ///
    /// # Panics
    ///
    /// Panics if a bundled benchmark fails at runtime.
    pub fn grid(
        &self,
        cpu: &CpuSpec,
        techniques: &[Technique],
        trainings: &[Profile],
    ) -> Vec<(Technique, Vec<RunResult>)> {
        let benches = self.benches();
        assert_eq!(benches.len(), trainings.len(), "one training profile per benchmark");
        let cells: Vec<Cell<(Technique, &'static str, usize)>> = techniques
            .iter()
            .flat_map(|&t| {
                benches.iter().enumerate().map(move |(i, b)| {
                    Cell::new(format!("{}/{}/{t}", self.name, b.name), (t, b.name, i))
                })
            })
            .collect();
        let results = run_cells(cells, |cell, _| {
            let (technique, name, i) = cell.input;
            let image = self.image(name);
            ivm_core::measure(&*image, technique, cpu, Some(&trainings[i]))
                .unwrap_or_else(|e| panic!("{}/{name}/{technique}: {e}", self.name))
                .0
        });
        techniques
            .iter()
            .copied()
            .zip(results.chunks(benches.len()).map(<[RunResult]>::to_vec))
            .collect()
    }

    /// Runs benchmark `name` under `technique` on `cpu` with `sink`
    /// observing the engine, and returns the sink's JSON breakdown with
    /// its per-opcode view.
    ///
    /// # Panics
    ///
    /// Panics if the bundled benchmark fails at runtime.
    pub fn attributed_run(
        &self,
        name: &'static str,
        technique: Technique,
        cpu: &CpuSpec,
        training: &Profile,
        sink: DispatchAttribution,
    ) -> Json {
        let image = self.image(name);
        let translation = ivm_core::translate(
            image.spec(),
            image.program(),
            technique,
            Some(training),
            image.super_selection(),
        );
        let engine = Engine::for_cpu(cpu).with_observer(sink);
        let mut m = Measurement::new(translation, engine);
        image
            .execute(&mut m, image.default_fuel())
            .unwrap_or_else(|e| panic!("{}/{name}/{technique}: {e}", self.name));
        // Resolve instances to opcodes before `finish` consumes the
        // translation.
        let op_names: Vec<String> =
            (0..image.program().len()).map(|i| m.translation().op_name(i).to_owned()).collect();
        let (_, sink) = m.finish();
        sink.to_json(Some(&op_names))
    }
}

fn forth_frontend() -> Frontend {
    let wrap = |b: ivm_forth::programs::Benchmark| FrontendBench {
        name: b.name,
        description: b.description,
        build: Box::new(move || Arc::new(b.image()) as SharedImage),
    };
    Frontend {
        name: "forth",
        display: "Gforth",
        suite: ivm_forth::programs::SUITE.into_iter().map(wrap).collect(),
        extras: vec![wrap(ivm_forth::programs::MICRO)],
        smoke_names: &["micro"],
        techniques: Technique::gforth_suite,
        training: TrainingPolicy::Shared { full: "brainless", smoke: "micro" },
        images: Memo::new(),
        profiles: Memo::new(),
    }
}

fn java_frontend() -> Frontend {
    let wrap = |b: ivm_java::programs::Benchmark| FrontendBench {
        name: b.name,
        description: b.description,
        build: Box::new(move || Arc::new((b.build)()) as SharedImage),
    };
    Frontend {
        name: "java",
        display: "Java",
        suite: ivm_java::programs::SUITE.into_iter().map(wrap).collect(),
        extras: Vec::new(),
        // mpeg stays in the subset because several binaries single it
        // out by name.
        smoke_names: &["mpeg", "db"],
        techniques: Technique::jvm_suite,
        training: TrainingPolicy::CrossValidated,
        images: Memo::new(),
        profiles: Memo::new(),
    }
}

fn calc_frontend() -> Frontend {
    let wrap = |b: ivm_calc::programs::Benchmark| FrontendBench {
        name: b.name,
        description: b.description,
        build: Box::new(move || Arc::new(b.image()) as SharedImage),
    };
    Frontend {
        name: "calc",
        display: "Calc",
        suite: ivm_calc::programs::SUITE.into_iter().map(wrap).collect(),
        extras: Vec::new(),
        smoke_names: &["triangle"],
        techniques: Technique::gforth_suite,
        training: TrainingPolicy::Shared { full: "gcd", smoke: "triangle" },
        images: Memo::new(),
        profiles: Memo::new(),
    }
}

/// Every registered frontend, in report order.
pub fn frontends() -> &'static [Frontend] {
    static REGISTRY: OnceLock<Vec<Frontend>> = OnceLock::new();
    REGISTRY.get_or_init(|| vec![forth_frontend(), java_frontend(), calc_frontend()])
}

/// Fetches a frontend by registry name.
///
/// # Panics
///
/// Panics if no frontend has that name.
pub fn frontend(name: &str) -> &'static Frontend {
    frontends()
        .iter()
        .find(|f| f.name == name)
        .unwrap_or_else(|| panic!("no frontend named {name}"))
}

/// Speedup rows over a plain baseline, one row per technique.
pub fn speedup_rows(
    baselines: &[RunResult],
    per_technique: &[(Technique, Vec<RunResult>)],
) -> Vec<Row> {
    per_technique
        .iter()
        .map(|(tech, results)| Row {
            label: tech.paper_name().to_owned(),
            values: results.iter().zip(baselines).map(|(r, b)| r.speedup_over(b)).collect(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_match_suites() {
        assert_eq!(frontends().len(), 3);
        assert_eq!(frontend("forth").names().len(), 7);
        assert_eq!(frontend("java").names().len(), 7);
        assert_eq!(frontend("calc").names().len(), 5);
        assert!(frontend("forth").names().contains(&"brew"));
        assert!(frontend("java").names().contains(&"mtrt"));
        assert!(frontend("calc").names().contains(&"collatz"));
    }

    #[test]
    fn speedup_rows_divide_cycles() {
        let mk = |cycles: f64| RunResult {
            cpu: "t".into(),
            technique: Technique::Threaded,
            counters: Default::default(),
            cycles,
            icache_set_misses: Vec::new(),
        };
        let base = vec![mk(100.0), mk(200.0)];
        let rows = speedup_rows(&base, &[(Technique::DynamicRepl, vec![mk(50.0), mk(100.0)])]);
        assert_eq!(rows[0].values, vec![2.0, 2.0]);
        assert_eq!(rows[0].label, "dynamic repl");
    }

    #[test]
    fn attribution_accounts_every_dispatch_of_the_run() {
        // The breakdown's total and its per-opcode view must both account
        // for every dispatch a plain measurement of the same cell counts.
        let fe = frontend("calc");
        let image = fe.image("triangle");
        let training = fe.training_for("triangle");
        let cpu = CpuSpec::celeron800();
        for technique in [Technique::Threaded, Technique::DynamicRepl] {
            let (run, _) =
                ivm_core::measure(&*image, technique, &cpu, Some(&training)).expect("runs");
            let expected = [run.counters.dispatches, run.counters.indirect_mispredicted];
            let sink = DispatchAttribution::new().with_btb_sets(ivm_bpred::BtbConfig::celeron());
            let json = fe.attributed_run("triangle", technique, &cpu, &training, sink);
            let count = |o: &Json, key: &str| o.get(key).and_then(Json::as_f64).expect(key);
            let total = json.get("total").expect("total");
            let total = [count(total, "executed"), count(total, "mispredicted")];
            assert_eq!(total, expected.map(|n| n as f64), "{technique}: JSON total");
            let per_opcode = json.get("per_opcode").and_then(Json::as_arr).expect("opcode view");
            let summed = ["executed", "mispredicted"]
                .map(|key| per_opcode.iter().map(|o| count(o, key)).sum::<f64>());
            assert_eq!(summed, expected.map(|n| n as f64), "{technique}: per-opcode sums");
        }
    }

    #[test]
    fn forth_training_is_nonempty() {
        let p = frontend("forth").training();
        assert!(p.op_counts().map(|(_, c)| c).sum::<u64>() > 10_000);
    }

    #[test]
    fn run_cells_merges_in_order_and_records_stats() {
        let cells: Vec<Cell<u32>> = (0..6).map(|i| Cell::new(format!("t/{i}"), i)).collect();
        let out = run_cells(cells, |cell, _| cell.input + 1);
        assert_eq!(out, vec![1, 2, 3, 4, 5, 6]);
        let meta = executor_meta().expect("stats recorded");
        assert!(meta.batches >= 1);
        assert!(meta.cells.iter().any(|c| c.id == "t/0"));
    }

    #[test]
    fn image_caches_return_shared_images() {
        let f = frontend("forth");
        let a1 = f.image("micro");
        let a2 = f.image("micro");
        assert!(Arc::ptr_eq(&a1, &a2), "second fetch hits the cache");
        assert_eq!(a1.program().len(), a2.program().len());
    }

    #[test]
    fn grid_groups_match_suite_runs() {
        // The grid must regroup exactly as per-technique suite calls do.
        let cpu = CpuSpec::celeron800();
        let f = frontend("forth");
        let training = f.training();
        let techniques = [Technique::Switch, Technique::Threaded];
        let image = f.image("micro");
        let grid_cells: Vec<Cell<Technique>> =
            techniques.iter().map(|&t| Cell::new(format!("grid/{t}"), t)).collect();
        let grid = run_cells(grid_cells, |cell, _| {
            ivm_core::measure(&*image, cell.input, &cpu, Some(&training)).expect("runs").0
        });
        let direct: Vec<RunResult> = techniques
            .iter()
            .map(|&t| ivm_core::measure(&*image, t, &cpu, Some(&training)).expect("runs").0)
            .collect();
        for (g, d) in grid.iter().zip(&direct) {
            assert_eq!(g.cycles, d.cycles, "parallel grid reproduces serial measurements");
            assert_eq!(g.counters.dispatches, d.counters.dispatches);
        }
    }

    #[test]
    fn every_frontend_runs_through_the_generic_pipeline() {
        // The seam proof in miniature: no frontend-specific code below
        // this line, yet all three registered VMs measure end to end.
        let cpu = CpuSpec::celeron800();
        for f in frontends() {
            let name = f.benches()[0].name;
            let image = f.image(name);
            let prof = f.profile_of(name);
            let (r, out) = ivm_core::measure(&*image, Technique::Threaded, &cpu, Some(&prof))
                .unwrap_or_else(|e| panic!("{}/{name}: {e}", f.name));
            assert!(r.counters.dispatches > 0, "{}", f.name);
            assert!(!out.text.is_empty() || out.steps > 0, "{}", f.name);
        }
    }
}
