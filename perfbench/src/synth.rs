//! Seeded synthetic Forth programs, in the style of the `scaling` study's
//! generator: words of one-in one-out arithmetic, called round-robin from
//! a driving loop.
//!
//! The seed picks every word body. The shapes are fixed, so each seed
//! yields the same amount of work, and their static instance counts fall
//! on both sides of the Celeron's 512-entry and the Pentium 4's
//! 4096-entry BTB.

/// The size of one generated program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shape {
    /// Number of word definitions.
    pub words: usize,
    /// Arithmetic fragments per word body.
    pub body: usize,
    /// Trips of the driving loop.
    pub iterations: usize,
}

impl Shape {
    const fn new(words: usize, iterations: usize) -> Self {
        Self { words, body: 12, iterations }
    }
}

/// Below the Celeron's 512 BTB entries.
pub const SMALL: Shape = Shape::new(12, 300);
/// Above the Celeron's 512 BTB entries.
pub const MEDIUM: Shape = Shape::new(24, 160);
/// Below the Pentium 4's 4096 BTB entries.
pub const LARGE: Shape = Shape::new(110, 40);
/// Above the Pentium 4's 4096 BTB entries.
pub const HUGE: Shape = Shape::new(160, 28);

/// One-in one-out fragments: each transforms the single value on the
/// stack, so any sequence of them is a valid word body.
const FRAGMENTS: [&str; 9] = [
    "dup +",
    "1+",
    "2*",
    "dup 2/ +",
    "dup xor 1+",
    "negate 1-",
    "dup 1 and +",
    "3 + 2/",
    "dup 7 and xor",
];

/// SplitMix64: a tiny, well-mixed generator whose stream is fixed by
/// its seed on every platform.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// The Forth source of program `index` of run `seed` with `shape`.
pub fn source(seed: u64, index: u64, shape: Shape) -> String {
    let mut rng = SplitMix(seed ^ index.wrapping_mul(0xD1B5_4A32_D192_ED03));
    let mut src = String::new();
    for w in 0..shape.words {
        src.push_str(&format!(": w{w} "));
        for _ in 0..shape.body {
            src.push_str(FRAGMENTS[(rng.next() % FRAGMENTS.len() as u64) as usize]);
            src.push(' ');
        }
        src.push_str("16383 and ;\n");
    }
    src.push_str(&format!(": main 1 {} 0 do ", shape.iterations));
    for w in 0..shape.words {
        src.push_str(&format!("w{w} "));
    }
    src.push_str("loop . ;\n");
    src
}

/// A compiled synthetic program.
pub struct Program {
    /// Stable name, `synth-<index>`, used in cell and trace ids.
    pub name: String,
    /// The compiled image.
    pub image: ivm_forth::Image,
}

/// Compiles program `index` of run `seed`.
///
/// # Panics
///
/// Panics if the generated source does not compile, which would be a
/// bug in this generator.
pub fn program(seed: u64, index: u64, shape: Shape) -> Program {
    let image = ivm_forth::compile(&source(seed, index, shape))
        .unwrap_or_else(|e| panic!("synthetic program {index} of seed {seed}: {e}"));
    Program { name: format!("synth-{index}"), image }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ivm_core::GuestVm;

    #[test]
    fn same_seed_same_program_other_seed_other_program() {
        for shape in [SMALL, HUGE] {
            assert_eq!(source(7, 0, shape), source(7, 0, shape));
            assert_ne!(source(7, 0, shape), source(8, 0, shape));
            assert_ne!(source(7, 0, shape), source(7, 1, shape));
        }
    }

    #[test]
    fn seeded_programs_run_identically_twice() {
        let a = program(42, 3, MEDIUM);
        let b = program(42, 3, MEDIUM);
        let ra = a.image.execute(&mut ivm_core::NullEvents, a.image.default_fuel()).unwrap();
        let rb = b.image.execute(&mut ivm_core::NullEvents, b.image.default_fuel()).unwrap();
        assert_eq!(ra.text, rb.text);
        assert_eq!(ra.steps, rb.steps);
    }

    #[test]
    fn instance_counts_straddle_both_btbs_for_every_seed() {
        for seed in 0..12 {
            let len = |shape| program(seed, 0, shape).image.program.len();
            assert!(len(SMALL) < 512, "seed {seed}: small has {} instances", len(SMALL));
            assert!(len(MEDIUM) > 512, "seed {seed}: medium has {} instances", len(MEDIUM));
            assert!(len(LARGE) < 4096, "seed {seed}: large has {} instances", len(LARGE));
            assert!(len(HUGE) > 4096, "seed {seed}: huge has {} instances", len(HUGE));
        }
    }
}
