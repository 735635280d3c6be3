//! Program-size scaling study.
//!
//! EXPERIMENTS.md notes one systematic deviation from the paper: our
//! benchmark analogs are much smaller than the originals, which makes a
//! 400-copy static replication budget nearly as good as dynamic
//! replication. This study makes that effect measurable on synthetic Forth
//! programs of growing size.
//!
//! Three regimes emerge:
//!
//! 1. *Small programs* (≲ the replica budget): static and dynamic
//!    replication are equally near-perfect — exactly why our small
//!    benchmark analogs understate the static/dynamic gap.
//! 2. *Medium programs*: static replication degrades first (copies get
//!    reused in conflicting contexts — Table III at scale) while dynamic
//!    replication stays near-perfect — the paper's regime.
//! 3. *Huge working sets*: past BTB capacity both degrade (§7.4 — dynamic
//!    replication needs one BTB entry per instruction instance), and on a
//!    16 KB-I-cache Celeron the replication code growth itself becomes the
//!    bottleneck while block-sharing `dynamic super` keeps most of its
//!    speedup.
//!
//! Run with: `cargo run --release -p ivm-bench --bin scaling`

use ivm_bench::{run_cells, smoke, Cell, Report, Row};
use ivm_bpred::{Btb, BtbConfig};
use ivm_cache::{CpuSpec, PerfectIcache};
use ivm_core::{Engine, ReplicaSelection, Technique};

/// Deterministic synthetic program: `words` definitions, each a chain of
/// arithmetic with pseudo-random opcode choice, called round-robin from a
/// driving loop. The opcode stream has the paper's "instruction occurs many
/// times in the working set" character at every size.
fn synthesize(words: usize, body_len: usize) -> String {
    let mut src = String::new();
    // One-in one-out fragments only (each word transforms a single value).
    let ops = ["dup +", "1+", "2*", "dup 2/ +", "dup xor 1+", "negate 1-", "dup 1 and +"];
    let mut state = 0x2468u64;
    let mut rnd = || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (state >> 33) as usize
    };
    for w in 0..words {
        src.push_str(&format!(": w{w} "));
        for _ in 0..body_len {
            src.push_str(ops[rnd() % ops.len()]);
            src.push(' ');
        }
        src.push_str("16383 and ;\n");
    }
    src.push_str(": main 1 200 0 do ");
    for w in 0..words {
        src.push_str(&format!("w{w} "));
    }
    src.push_str("loop . ;\n");
    src
}

fn sizes() -> &'static [usize] {
    if smoke() {
        &[4, 16]
    } else {
        &[4, 8, 16, 32, 64, 128]
    }
}

fn static_repl() -> Technique {
    Technique::StaticRepl { budget: 400, selection: ReplicaSelection::RoundRobin }
}

fn prediction_only(out: &mut Report) {
    let cpu = CpuSpec::pentium4_northwood();
    let cells: Vec<Cell<usize>> =
        sizes().iter().map(|&w| Cell::new(format!("scaling/prediction/{w}words"), w)).collect();
    // Each cell synthesizes, compiles and measures one program size — the
    // whole row, since the techniques share the compiled image and profile.
    let rows = run_cells(cells, |cell, _| {
        let words = cell.input;
        let src = synthesize(words, 12);
        let image = ivm_forth::compile(&src).expect("synthetic program compiles");
        let profile = ivm_core::profile(&image).expect("profiles");
        let mut values = vec![image.program.len() as f64];
        for tech in [Technique::Threaded, static_repl(), Technique::DynamicRepl] {
            let engine =
                Engine::new(Btb::new(BtbConfig::pentium4()), Box::new(PerfectIcache), cpu.costs);
            let (r, _) = ivm_core::measure_with(&image, tech, engine, Some(&profile))
                .unwrap_or_else(|e| panic!("{tech}: {e}"));
            values.push(100.0 * r.counters.misprediction_rate());
        }
        Row { label: format!("{words} words"), values }
    });
    out.table(
        "Prediction-only regime: misprediction rate (%) vs program size \
         (4096-entry BTB, perfect I-cache)",
        &["instances", "plain", "srepl-400", "dyn repl"],
        &rows,
        1,
    );
}

fn celeron_regime(out: &mut Report) {
    let cpu = CpuSpec::celeron800();
    let cells: Vec<Cell<usize>> =
        sizes().iter().map(|&w| Cell::new(format!("scaling/celeron/{w}words"), w)).collect();
    let rows = run_cells(cells, |cell, _| {
        let words = cell.input;
        let src = synthesize(words, 12);
        let image = ivm_forth::compile(&src).expect("synthetic program compiles");
        let profile = ivm_core::profile(&image).expect("profiles");
        let (plain, _) =
            ivm_core::measure(&image, Technique::Threaded, &cpu, Some(&profile)).expect("runs");
        let mut values = Vec::new();
        for tech in [static_repl(), Technique::DynamicRepl, Technique::DynamicSuper] {
            let (r, _) = ivm_core::measure(&image, tech, &cpu, Some(&profile)).expect("runs");
            values.push(plain.cycles / r.cycles);
        }
        Row { label: format!("{words} words"), values }
    });
    out.table(
        "Celeron regime: speedup over plain vs program size (16 KB I-cache) — \
         code growth eventually hurts, sharing (dynamic super) survives",
        &["srepl-400", "dyn repl", "dyn super"],
        &rows,
        2,
    );
}

fn main() {
    let mut report = Report::new("scaling");
    prediction_only(&mut report);
    celeron_regime(&mut report);
    report.finish();
}
