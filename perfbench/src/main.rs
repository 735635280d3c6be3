//! The simulator's benchmark: one workload per process, end-to-end
//! metrics from untraced passes, per-layer metrics from a traced run.
//!
//! ```console
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload zoo-sweep --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Run from the repository root: the oracle reads the committed
//! `results/*.txt`, and scratch files go under `.perfbench/`. The last
//! line of standard output is the JSON result. See `perfbench/README.md`.

mod calib;
mod metrics;
mod oracle;
mod paper_grid;
mod sampled_sweep;
mod spans;
mod synth;
mod zoo_sweep;

use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

use ivm_obs::Json;

use calib::Reference;
use metrics::{median, quantile, Metrics};
use oracle::Tally;
use spans::{Span, Tracer};

/// The executor's worker count inside the timed section: the two cores
/// of the reference machine.
const JOBS: &str = "2";

/// Untraced passes a run always makes, however long they take.
const MIN_PASSES: usize = 2;

/// Cold set-ups an untraced run times in child processes, besides its
/// own, for the median `setup_s`: images and profiles are built once per
/// process, so a second set-up in the same process would be warm.
const SETUP_CHILDREN: usize = 4;

/// One workload: set up in its constructor, then timed passes.
pub trait Workload {
    /// Steps one pass is made of, each timed on its own.
    fn steps(&self) -> usize {
        1
    }

    /// Step `step` of one pass of the timed section. Returns the
    /// simulated events it fed through an engine or predictor.
    fn pass(&mut self, tr: &Tracer, step: usize) -> u64;

    /// Compares every pass's simulated statistics with their references,
    /// outside the timed section.
    ///
    /// # Errors
    ///
    /// Returns an error when a reference cannot be read.
    fn check(&mut self, root: &Path, tally: &mut Tally) -> Result<(), String>;

    /// Sets this workload's per-layer metrics from the traced passes and
    /// its own probes, which run after the traced passes.
    fn layers(&mut self, tr: &Tracer, traced: &Traced, m: &mut Metrics);
}

/// What the traced passes recorded.
pub struct Traced {
    /// The benchmark's spans, set-up and traced passes.
    pub spans: Vec<Span>,
    /// Number of traced passes.
    pub passes: usize,
    /// Library spans opened during the traced passes: name to
    /// `(count, total µs)`.
    pub lib: BTreeMap<&'static str, (u64, u64)>,
}

impl Traced {
    /// Total wall time of library spans named `name`, in ns per pass.
    pub fn lib_ns_per_pass(&self, name: &str) -> f64 {
        self.lib.get(name).map_or(0.0, |&(_, us)| us as f64 * 1e3 / self.passes.max(1) as f64)
    }

    /// Spans named `name`.
    pub fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Set up once and print only the set-up's wall seconds.
    setup_only: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args =
        Args { workload: String::new(), seed: 1, seconds: 30.0, trace: false, setup_only: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--setup-only" {
            args.setup_only = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn build(args: &Args, work: &Path, tr: &Tracer) -> Result<Box<dyn Workload>, String> {
    Ok(match args.workload.as_str() {
        "paper-grid" => Box::new(paper_grid::PaperGrid::new(args.seed, tr)),
        "zoo-sweep" => Box::new(zoo_sweep::ZooSweep::new(args.seed, work, tr)),
        "sampled-sweep" => Box::new(sampled_sweep::SampledSweep::new(args.seed, work, tr)),
        other => return Err(format!("unknown workload {other:?}")),
    })
}

/// Wall, CPU and events of one step of a pass.
struct StepStat {
    wall: f64,
    cpu: f64,
    events: u64,
}

/// The timed steps of one pass.
type Pass = Vec<StepStat>;

/// The pass a run reports: per step, the median of `f` over `passes`,
/// summed over the steps. A slow spell of the host then costs one step
/// its sample, not a whole pass.
fn median_pass(passes: &[Pass], f: impl Fn(&StepStat) -> f64) -> f64 {
    let steps = passes.first().map_or(0, Vec::len);
    (0..steps).map(|s| median(&passes.iter().map(|p| f(&p[s])).collect::<Vec<_>>())).sum()
}

/// Runs at least `min` passes, and more while another pass of median
/// length still ends within `budget` seconds. The reference is measured
/// before the first step and after every step.
fn passes(
    w: &mut dyn Workload,
    tr: &Tracer,
    reference: &mut Reference,
    budget: f64,
    min: usize,
) -> Vec<Pass> {
    let start = Instant::now();
    let mut out: Vec<Pass> = Vec::new();
    reference.measure();
    while out.len() < min || start.elapsed().as_secs_f64() + median_pass(&out, |s| s.wall) <= budget
    {
        let _g = tr.span("pass");
        let mut pass = Vec::new();
        for step in 0..w.steps() {
            let (t, c) = (Instant::now(), metrics::cpu_seconds());
            let events = w.pass(tr, step);
            pass.push(StepStat {
                wall: t.elapsed().as_secs_f64(),
                cpu: metrics::cpu_seconds() - c,
                events,
            });
            let _g = tr.span("reference");
            reference.measure();
        }
        out.push(pass);
    }
    let walls: Vec<String> =
        out.iter().map(|p| format!("{:.3}", p.iter().map(|s| s.wall).sum::<f64>())).collect();
    eprintln!("pass walls (s): {}", walls.join(" "));
    out
}

/// `--setup-only`: one cold set-up, its wall seconds printed alone.
fn setup_only(args: &Args, work: &Path) -> Result<(), String> {
    let t = Instant::now();
    build(args, work, &Tracer::new())?;
    println!("{}", t.elapsed().as_secs_f64());
    Ok(())
}

/// Wall seconds of one cold set-up in a child process, which this
/// process waits for.
fn child_setup(args: &Args) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let seed = args.seed.to_string();
    let out = std::process::Command::new(exe)
        .args(["--workload", &args.workload, "--seed", &seed, "--setup-only"])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("set-up child: {e}"))?;
    if !out.status.success() {
        return Err(format!("set-up child failed: {}", out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    text.trim().parse().map_err(|_| format!("set-up child printed {text:?}"))
}

/// Library spans aggregated by name: `(count, total µs)`.
fn lib_spans() -> BTreeMap<&'static str, (u64, u64)> {
    ivm_obs::span::aggregate(&ivm_obs::span::snapshot())
        .into_iter()
        .map(|p| (p.name, (p.count, p.total_us)))
        .collect()
}

/// Executor and trace-store statistics so far.
struct Counters {
    /// Executor batch wall time, µs.
    batch_us: u64,
    /// Executor cell wall times, µs.
    cells_us: Vec<u64>,
    jobs: usize,
    /// Trace-store acquisitions served from a cache.
    hits: usize,
    /// Trace-store acquisitions captured fresh.
    captured: usize,
}

fn counters() -> Counters {
    let (batch_us, cells_us, jobs) = ivm_bench::executor_meta()
        .map(|m| (m.wall_us, m.cells.iter().map(|c| c.wall_us).collect(), m.jobs))
        .unwrap_or_default();
    let store = ivm_bench::trace_meta().unwrap_or_default();
    Counters { batch_us, cells_us, jobs, hits: store.cache_hits, captured: store.captured }
}

/// Per-layer metrics every workload shares: the executor, trace-store
/// acquisitions, library translate spans, the unaccounted remainder and
/// tracing overhead.
fn common_layers(
    traced: &Traced,
    (before, after): (&Counters, &Counters),
    walls: (&[Pass], &[Pass]),
    m: &mut Metrics,
) {
    let passes = traced.passes.max(1) as f64;
    let cell_ms: Vec<f64> =
        after.cells_us[before.cells_us.len()..].iter().map(|&us| us as f64 / 1e3).collect();
    m.set("par.cells", cell_ms.len() as f64 / passes);
    m.set("par.cell_ms_p50", median(&cell_ms));
    m.set("par.cell_ms_p90", quantile(&cell_ms, 0.9));
    let busy_ms: f64 = cell_ms.iter().sum();
    let batch_ms = (after.batch_us - before.batch_us) as f64 / 1e3;
    m.set("par.busy_frac", busy_ms / (batch_ms * after.jobs.max(1) as f64));

    let hits = (after.hits - before.hits) as f64;
    let acquires = hits + (after.captured - before.captured) as f64;
    m.set("tracestore.acquires", acquires / passes);
    m.set("tracestore.hit_ratio", hits / acquires);

    let (calls, us) = traced.lib.get("translate").copied().unwrap_or_default();
    m.set("translate.calls", calls as f64 / passes);
    m.set("translate.ms", us as f64 / 1e3 / passes);

    let own = spans::self_times(&traced.spans);
    let unaccounted: Vec<f64> = traced
        .spans
        .iter()
        .zip(&own)
        .filter(|(s, _)| s.name == "pass")
        .map(|(_, &ns)| ns as f64 / 1e6)
        .collect();
    m.set("trace.unaccounted_ms", median(&unaccounted));
    let (untraced, traced_walls) = walls;
    let wall = |p: &[Pass]| median_pass(p, |s| s.wall);
    m.set("trace.overhead_ms", (wall(traced_walls) - wall(untraced)) * 1e3);
}

/// Prints per-layer self time of the benchmark's spans to stderr.
fn print_self_times(spans: &[Span]) {
    eprintln!("{:<40} {:>8} {:>12} {:>12}", "span", "count", "total ms", "self ms");
    for (name, t) in spans::by_name(spans) {
        eprintln!(
            "{name:<40} {:>8} {:>12.3} {:>12.3}",
            t.count,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6
        );
    }
}

fn run(args: &Args) -> Result<(), String> {
    let root = std::env::current_dir().map_err(|e| format!("working directory: {e}"))?;
    let scratch = root.join(".perfbench");
    let work = scratch.join(format!("{}-{}", args.workload, std::process::id()));
    let _ = std::fs::remove_dir_all(&work);
    std::fs::create_dir_all(&work).map_err(|e| format!("creating {}: {e}", work.display()))?;
    let result =
        if args.setup_only { setup_only(args, &work) } else { measure(args, &root, &work) };
    let _ = std::fs::remove_dir_all(&work);
    result
}

fn measure(args: &Args, root: &Path, work: &Path) -> Result<(), String> {
    let tr = Tracer::new();
    let mut reference = Reference::new();
    tr.set_on(args.trace);
    reference.measure();
    let t = Instant::now();
    let mut w = {
        let _g = tr.span("setup");
        build(args, work, &tr)?
    };
    let setup_s = t.elapsed().as_secs_f64();
    reference.measure();
    tr.set_on(false);

    let budget = if args.trace { args.seconds / 2.0 } else { args.seconds };
    let min = if args.trace { 1 } else { MIN_PASSES };
    let untraced = passes(&mut *w, &tr, &mut reference, budget, min);
    let peak_rss_mb = metrics::status_kb("VmHWM") as f64 / 1024.0;

    let mut m;
    if args.trace {
        let (lib0, before) = (lib_spans(), counters());
        tr.set_on(true);
        let traced_passes = passes(&mut *w, &tr, &mut reference, budget, 1);
        tr.set_on(false);
        let (lib1, after) = (lib_spans(), counters());
        let lib = lib1
            .iter()
            .map(|(&name, &(c, us))| {
                let (c0, us0) = lib0.get(name).copied().unwrap_or_default();
                (name, (c - c0, us - us0))
            })
            .collect();
        let traced = Traced { spans: tr.spans(), passes: traced_passes.len(), lib };
        m = Metrics::zeroed(&metrics::per_layer());
        common_layers(&traced, (&before, &after), (&untraced, &traced_passes), &mut m);
        tr.set_on(true);
        w.layers(&tr, &traced, &mut m);
        tr.set_on(false);
        let spans = tr.spans();
        print_self_times(&spans);
        let out =
            root.join(".perfbench").join(format!("spans-{}-{}.json", args.workload, args.seed));
        tr.write(&out).map_err(|e| format!("writing {}: {e}", out.display()))?;
        eprintln!("spans written to {}", out.display());
    } else {
        let e2e: Vec<(String, &str)> =
            metrics::END_TO_END.iter().map(|&(n, u)| (n.to_owned(), u)).collect();
        m = Metrics::zeroed(&e2e);
        let mut setups = vec![setup_s];
        for _ in 0..SETUP_CHILDREN {
            setups.push(child_setup(args)?);
            reference.measure();
        }
        let setups_text: Vec<String> = setups.iter().map(|s| format!("{s:.3}")).collect();
        eprintln!("set-ups (s): {}", setups_text.join(" "));
        let refs = reference.measurements();
        eprintln!(
            "reference (ms): median {:.3}, min {:.3}, max {:.3} of {}",
            median(refs) * 1e3,
            quantile(refs, 0.0) * 1e3,
            quantile(refs, 1.0) * 1e3,
            refs.len()
        );
        let wall_s = reference.scale(median_pass(&untraced, |s| s.wall));
        m.set("wall_s", wall_s);
        m.set("cpu_s", reference.scale(median_pass(&untraced, |s| s.cpu)));
        m.set("sim_events_per_s", median_pass(&untraced, |s| s.events as f64) / wall_s);
        m.set("peak_rss_mb", peak_rss_mb);
        m.set("setup_s", reference.scale(median(&setups)));
    }

    let t = Instant::now();
    let mut tally = Tally::default();
    w.check(root, &mut tally)?;
    eprintln!("set-up {setup_s:.3} s, check {:.3} s", t.elapsed().as_secs_f64());
    if tally.attempted == 0 {
        return Err("the oracle checked no cells".into());
    }
    for f in &tally.failures {
        eprintln!("MISMATCH {f}");
    }
    eprintln!(
        "{} passes, {} cells checked, {} failed",
        untraced.len(),
        tally.attempted,
        tally.failed
    );
    for line in m.lines() {
        println!("{line}");
    }
    let result = Json::obj()
        .with("correct", tally.failed == 0)
        .with("attempted", tally.attempted)
        .with("failed", tally.failed)
        .with("metrics", m.to_json());
    println!("{}", result.to_json());
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // Pin the executor and clear settings that would change the suites,
    // before any thread starts.
    std::env::set_var("IVM_JOBS", JOBS);
    for var in ["IVM_SMOKE", "IVM_SEED", "IVM_SPANS"] {
        std::env::remove_var(var);
    }
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
