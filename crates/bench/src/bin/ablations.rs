//! Ablation studies for the design choices the paper discusses in passing:
//!
//! * §5.1 — round-robin vs random static replica selection (round-robin
//!   should win via spatial locality).
//! * §5.1 — greedy vs optimal superinstruction parsing ("almost no
//!   difference").
//! * §3   — plain BTB vs BTB with 2-bit counters (slightly fewer threaded
//!   mispredictions).
//! * §8   — a two-level predictor makes the software techniques mostly
//!   unnecessary (the Pentium M argument).
//! * §7.4 — BTB size sweep: dynamic replication wants one entry per
//!   instruction instance; small BTBs take conflict misses back.
//!
//! Run with: `cargo run --release -p ivm-bench --bin ablations`

use ivm_bench::{frontend, run_cells, smoke, Cell, Report, Row};
use ivm_bpred::{
    AnyPredictor, Btb, BtbConfig, CascadedPredictor, TwoBitBtb, TwoLevelConfig, TwoLevelPredictor,
};
use ivm_cache::{CpuSpec, Icache, IcacheConfig};
use ivm_core::{CoverAlgorithm, Engine, Profile, ReplicaSelection, Technique};

fn engine_with(pred: AnyPredictor, cpu: &CpuSpec) -> Engine {
    Engine::new(pred, cpu.fetch_cache(), cpu.costs)
}

fn replica_selection(out: &mut Report, training: &Profile) {
    let cpu = CpuSpec::celeron800();
    let forth = frontend("forth");
    // A single stream can get lucky on an individual benchmark, so the
    // random arm is averaged over several seeds.
    const SEEDS: [u64; 5] = [1, 2, 3, 4, 5];
    let cells: Vec<Cell<&'static str>> = forth
        .benches()
        .iter()
        .map(|b| Cell::new(format!("ablate/replica/{}", b.name), b.name))
        .collect();
    let rows = run_cells(cells, |cell, _| {
        let name = cell.input;
        let image = forth.image(name);
        let (rr, _) = ivm_core::measure(
            &*image,
            Technique::StaticRepl { budget: 400, selection: ReplicaSelection::RoundRobin },
            &cpu,
            Some(training),
        )
        .expect("runs");
        let mut rand_mispred = 0.0;
        let mut rand_cycles = 0.0;
        for seed in SEEDS {
            let (rand, _) = ivm_core::measure(
                &*image,
                Technique::StaticRepl { budget: 400, selection: ReplicaSelection::Random { seed } },
                &cpu,
                Some(training),
            )
            .expect("runs");
            rand_mispred += rand.counters.indirect_mispredicted as f64;
            rand_cycles += rand.cycles;
        }
        rand_mispred /= SEEDS.len() as f64;
        rand_cycles /= SEEDS.len() as f64;
        Row {
            label: name.to_owned(),
            values: vec![
                rr.counters.indirect_mispredicted as f64,
                rand_mispred,
                rand_cycles / rr.cycles,
            ],
        }
    });
    out.table(
        "§5.1 replica selection: mispredictions, round-robin vs random \
         (random averaged over 5 seeds; 3rd col: round-robin speed advantage)",
        &["rr-mispred", "rnd-mispred", "rr-adv"],
        &rows,
        2,
    );
}

fn cover_algorithms(out: &mut Report, training: &Profile) {
    let cpu = CpuSpec::celeron800();
    let forth = frontend("forth");
    let cells: Vec<Cell<&'static str>> = forth
        .benches()
        .iter()
        .map(|b| Cell::new(format!("ablate/cover/{}", b.name), b.name))
        .collect();
    let rows = run_cells(cells, |cell, _| {
        let name = cell.input;
        let image = forth.image(name);
        let (g, _) = ivm_core::measure(
            &*image,
            Technique::StaticSuper { budget: 400, algo: CoverAlgorithm::Greedy },
            &cpu,
            Some(training),
        )
        .expect("runs");
        let (o, _) = ivm_core::measure(
            &*image,
            Technique::StaticSuper { budget: 400, algo: CoverAlgorithm::Optimal },
            &cpu,
            Some(training),
        )
        .expect("runs");
        Row {
            label: name.to_owned(),
            values: vec![
                g.counters.dispatches as f64,
                o.counters.dispatches as f64,
                g.cycles / o.cycles,
            ],
        }
    });
    out.table(
        "§5.1 block parsing: dispatches, greedy vs optimal \
         (3rd col: optimal speedup over greedy — paper: ~none)",
        &["greedy", "optimal", "opt-adv"],
        &rows,
        3,
    );
}

fn predictor_family(out: &mut Report, training: &Profile) {
    let cpu = CpuSpec::celeron800();
    let forth = frontend("forth");
    type MakePredictor = fn() -> AnyPredictor;
    let families: [(&str, MakePredictor); 4] = [
        ("btb", || Btb::new(BtbConfig::celeron()).into()),
        ("btb-2bit", || TwoBitBtb::new().into()),
        ("two-level", || TwoLevelPredictor::new(TwoLevelConfig::pentium_m()).into()),
        ("cascaded", || CascadedPredictor::with_defaults().into()),
    ];
    let cells: Vec<Cell<(&'static str, &str, MakePredictor)>> = forth
        .benches()
        .iter()
        .take(3)
        .flat_map(|b| {
            families.iter().map(move |&(pname, make)| {
                Cell::new(format!("ablate/predictors/{}/{pname}", b.name), (b.name, pname, make))
            })
        })
        .collect();
    let rows = run_cells(cells, |cell, _| {
        let (name, pname, make) = cell.input;
        let image = forth.image(name);
        let (plain, _) = ivm_core::measure_with(
            &*image,
            Technique::Threaded,
            engine_with(make(), &cpu),
            Some(training),
        )
        .expect("runs");
        Row {
            label: format!("{name} / {pname}"),
            values: vec![100.0 * plain.counters.misprediction_rate(), plain.cycles],
        }
    });
    out.table(
        "§3/§8 predictor families on plain threaded code \
         (2-bit slightly better than BTB; two-level/cascaded much better)",
        &["mispred%", "cycles"],
        &rows,
        1,
    );
}

fn btb_size_sweep(out: &mut Report, training: &Profile) {
    let cpu = CpuSpec::celeron800();
    let forth = frontend("forth");
    let name = if smoke() { "micro" } else { "bench-gc" };
    let sizes: &[usize] =
        if smoke() { &[64, 512, 8192] } else { &[64, 128, 256, 512, 1024, 2048, 4096, 8192] };
    let techniques = [Technique::Threaded, Technique::DynamicRepl];
    let cells: Vec<Cell<(Technique, usize)>> = techniques
        .iter()
        .flat_map(|&tech| {
            sizes.iter().map(move |&entries| {
                Cell::new(format!("ablate/btb/{tech}/{entries}e"), (tech, entries))
            })
        })
        .collect();
    let mispreds = run_cells(cells, |cell, _| {
        let (tech, entries) = cell.input;
        let image = forth.image(name);
        let pred = Btb::new(BtbConfig::new(entries, 4));
        let engine =
            Engine::new(pred, Box::new(Icache::new(IcacheConfig::celeron_l1i())), cpu.costs);
        let (r, _) = ivm_core::measure_with(&*image, tech, engine, Some(training)).expect("runs");
        r.counters.indirect_mispredicted as f64
    });
    let rows: Vec<Row> = techniques
        .iter()
        .zip(mispreds.chunks(sizes.len()))
        .map(|(tech, values)| Row { label: tech.paper_name().to_owned(), values: values.to_vec() })
        .collect();
    let cols: Vec<String> = sizes.iter().map(|s| format!("{s}e")).collect();
    let col_refs: Vec<&str> = cols.iter().map(String::as_str).collect();
    out.table(
        "§7.4 BTB size sweep (bench-gc mispredictions): dynamic replication \
         needs capacity for one entry per instance",
        &col_refs,
        &rows,
        0,
    );
}

fn tos_caching(out: &mut Report, training: &Profile) {
    // Paper §7.2.2, reason 3: Gforth caches the top of stack in a register;
    // the JVM does not. Translate the same programs against a spec without
    // TOS caching and compare the optimization headroom.
    let cpu = CpuSpec::pentium4_northwood();
    let forth = frontend("forth");
    let no_tos = ivm_forth::spec_without_tos_caching();
    let cells: Vec<Cell<&'static str>> = forth
        .benches()
        .iter()
        .take(4)
        .map(|b| Cell::new(format!("ablate/tos/{}", b.name), b.name))
        .collect();
    let rows = run_cells(cells, |cell, _| {
        let name = cell.input;
        let image = forth.image(name);
        let gain = |spec: &ivm_core::VmSpec| {
            let cycles = |tech| {
                let translation = ivm_core::translate(
                    spec,
                    image.program(),
                    tech,
                    Some(training),
                    image.super_selection(),
                );
                let mut m = ivm_core::Measurement::new(translation, Engine::for_cpu(&cpu));
                image.execute(&mut m, image.default_fuel()).expect("runs");
                m.finish().0.cycles
            };
            cycles(Technique::Threaded) / cycles(Technique::AcrossBb)
        };
        Row { label: name.to_owned(), values: vec![gain(image.spec()), gain(&no_tos)] }
    });
    out.table(
        "§7.2.2 TOS caching: across-bb speedup with and without top-of-stack \
         register caching (less caching = more work per dispatch = smaller gain)",
        &["cached", "uncached"],
        &rows,
        2,
    );
}

fn main() {
    let mut report = Report::new("ablations");
    let training = frontend("forth").training();
    replica_selection(&mut report, &training);
    cover_algorithms(&mut report, &training);
    predictor_family(&mut report, &training);
    btb_size_sweep(&mut report, &training);
    tos_caching(&mut report, &training);
    report.finish();
}
