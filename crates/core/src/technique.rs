//! The dispatch-optimization techniques compared by the paper (§7.1).

use std::fmt;

/// How a static replica is chosen for each occurrence of a VM instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReplicaSelection {
    /// Cycle through the copies in emission order — the paper's default,
    /// which wins because of spatial locality (§5.1).
    RoundRobin,
    /// Choose a replica uniformly at random with the given seed; kept for
    /// the round-robin-vs-random comparison of §5.1.
    Random {
        /// PRNG seed, so runs are reproducible.
        seed: u64,
    },
}

/// Algorithm used to cover a basic block with superinstructions (§5.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CoverAlgorithm {
    /// Maximum munch: repeatedly take the longest superinstruction that
    /// matches at the current position. Fast; the paper found it within
    /// noise of optimal.
    Greedy,
    /// Dynamic programming producing the minimum number of
    /// (super)instructions for the block.
    Optimal,
}

/// An interpreter construction technique (paper §7.1's variant list, plus
/// plain switch dispatch for the §3 comparison).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Technique {
    /// `switch`-based dispatch: one shared indirect branch.
    Switch,
    /// Plain threaded code — the baseline ("plain").
    Threaded,
    /// Static replication with a copy budget ("static repl").
    StaticRepl {
        /// Total extra VM instructions (replica copies) to create.
        budget: usize,
        /// Replica assignment policy.
        selection: ReplicaSelection,
    },
    /// Static superinstructions ("static super").
    StaticSuper {
        /// Number of superinstructions to put in the instruction set.
        budget: usize,
        /// How blocks are parsed into superinstructions.
        algo: CoverAlgorithm,
    },
    /// Combination of replicas and superinstructions ("static both").
    StaticBoth {
        /// Extra copies of (super)instructions.
        replicas: usize,
        /// Unique superinstructions.
        supers: usize,
        /// Replica assignment policy.
        selection: ReplicaSelection,
        /// Block parsing algorithm.
        algo: CoverAlgorithm,
    },
    /// Run-time copy per VM instruction instance ("dynamic repl").
    DynamicRepl,
    /// One run-time superinstruction per *unique* basic block, shared
    /// (Piumarta & Riccardi; "dynamic super").
    DynamicSuper,
    /// One run-time superinstruction per basic block, never shared
    /// ("dynamic both").
    DynamicBoth,
    /// Dynamic superinstructions with replication extended across basic
    /// block boundaries ("across bb") — dispatches remain only for taken VM
    /// branches, calls and returns (§5.2).
    AcrossBb,
    /// Static superinstructions within blocks, then dynamic
    /// superinstructions across blocks with replication ("with static
    /// super").
    WithStaticSuper {
        /// Static superinstruction budget.
        supers: usize,
        /// Block parsing algorithm.
        algo: CoverAlgorithm,
    },
    /// Like [`Technique::WithStaticSuper`] but static superinstructions may
    /// cross basic-block boundaries; side entries fall back to
    /// non-replicated code until the superinstruction ends ("w/static super
    /// across", JVM only; §7.1, Figure 6).
    WithStaticSuperAcross {
        /// Static superinstruction budget.
        supers: usize,
        /// Block parsing algorithm.
        algo: CoverAlgorithm,
    },
    /// Subroutine (context) threading, Berndl et al. (paper §8): a trivial
    /// JIT emits one direct `call` per VM instruction instance, so dispatch
    /// executes no indirect branches at all — the hardware return stack
    /// predicts the `ret`s. Indirect branches remain only for taken VM
    /// control flow. Costs a call/return pair per instruction and per-
    /// instance code like dynamic replication.
    SubroutineThreading,
}

impl Technique {
    /// The paper's name for the variant (as used in Figures 7–13).
    pub fn paper_name(&self) -> &'static str {
        match self {
            Technique::Switch => "switch",
            Technique::Threaded => "plain",
            Technique::StaticRepl { .. } => "static repl",
            Technique::StaticSuper { .. } => "static super",
            Technique::StaticBoth { .. } => "static both",
            Technique::DynamicRepl => "dynamic repl",
            Technique::DynamicSuper => "dynamic super",
            Technique::DynamicBoth => "dynamic both",
            Technique::AcrossBb => "across bb",
            Technique::WithStaticSuper { .. } => "with static super",
            Technique::WithStaticSuperAcross { .. } => "w/static super across",
            Technique::SubroutineThreading => "subroutine threading",
        }
    }

    /// A filesystem-safe identifier that, unlike [`Technique::paper_name`],
    /// encodes every parameter — two techniques with different budgets,
    /// selection policies or cover algorithms get different ids. Used to
    /// key cached dispatch traces, where `"static repl"` at budget 100 and
    /// budget 400 must never collide.
    ///
    /// # Examples
    ///
    /// ```
    /// use ivm_core::{ReplicaSelection, Technique};
    ///
    /// let t = Technique::StaticRepl { budget: 400, selection: ReplicaSelection::RoundRobin };
    /// assert_eq!(t.id(), "static-repl-b400-rr");
    /// assert_eq!(Technique::AcrossBb.id(), "across-bb");
    /// ```
    pub fn id(&self) -> String {
        fn sel(s: &ReplicaSelection) -> String {
            match s {
                ReplicaSelection::RoundRobin => "rr".to_owned(),
                ReplicaSelection::Random { seed } => format!("rand{seed}"),
            }
        }
        fn algo(a: &CoverAlgorithm) -> &'static str {
            match a {
                CoverAlgorithm::Greedy => "greedy",
                CoverAlgorithm::Optimal => "optimal",
            }
        }
        match self {
            Technique::Switch => "switch".to_owned(),
            Technique::Threaded => "threaded".to_owned(),
            Technique::StaticRepl { budget, selection } => {
                format!("static-repl-b{budget}-{}", sel(selection))
            }
            Technique::StaticSuper { budget, algo: a } => {
                format!("static-super-b{budget}-{}", algo(a))
            }
            Technique::StaticBoth { replicas, supers, selection, algo: a } => {
                format!("static-both-r{replicas}-s{supers}-{}-{}", sel(selection), algo(a))
            }
            Technique::DynamicRepl => "dynamic-repl".to_owned(),
            Technique::DynamicSuper => "dynamic-super".to_owned(),
            Technique::DynamicBoth => "dynamic-both".to_owned(),
            Technique::AcrossBb => "across-bb".to_owned(),
            Technique::WithStaticSuper { supers, algo: a } => {
                format!("with-static-super-s{supers}-{}", algo(a))
            }
            Technique::WithStaticSuperAcross { supers, algo: a } => {
                format!("with-static-super-across-s{supers}-{}", algo(a))
            }
            Technique::SubroutineThreading => "subroutine-threading".to_owned(),
        }
    }

    /// Whether this technique needs a training [`crate::Profile`].
    pub fn needs_profile(&self) -> bool {
        matches!(
            self,
            Technique::StaticRepl { .. }
                | Technique::StaticSuper { .. }
                | Technique::StaticBoth { .. }
                | Technique::WithStaticSuper { .. }
                | Technique::WithStaticSuperAcross { .. }
        )
    }

    /// The nine standard variants of the Gforth comparison (§7.1) with the
    /// paper's budgets (400 additional instructions).
    pub fn gforth_suite() -> Vec<Technique> {
        vec![
            Technique::Threaded,
            Technique::StaticRepl { budget: 400, selection: ReplicaSelection::RoundRobin },
            Technique::StaticSuper { budget: 400, algo: CoverAlgorithm::Greedy },
            Technique::StaticBoth {
                replicas: 365,
                supers: 35,
                selection: ReplicaSelection::RoundRobin,
                algo: CoverAlgorithm::Greedy,
            },
            Technique::DynamicRepl,
            Technique::DynamicSuper,
            Technique::DynamicBoth,
            Technique::AcrossBb,
            Technique::WithStaticSuper { supers: 400, algo: CoverAlgorithm::Greedy },
        ]
    }

    /// The nine standard variants of the JVM comparison (§7.1): no "static
    /// both", with "w/static super across" added.
    pub fn jvm_suite() -> Vec<Technique> {
        vec![
            Technique::Threaded,
            Technique::StaticRepl { budget: 400, selection: ReplicaSelection::RoundRobin },
            Technique::StaticSuper { budget: 400, algo: CoverAlgorithm::Greedy },
            Technique::DynamicRepl,
            Technique::DynamicSuper,
            Technique::DynamicBoth,
            Technique::AcrossBb,
            Technique::WithStaticSuper { supers: 400, algo: CoverAlgorithm::Greedy },
            Technique::WithStaticSuperAcross { supers: 400, algo: CoverAlgorithm::Greedy },
        ]
    }
}

impl fmt::Display for Technique {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.paper_name())
    }
}

/// Error returned when parsing an unknown technique name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseTechniqueError {
    /// The unrecognised input.
    pub input: String,
}

impl fmt::Display for ParseTechniqueError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown technique `{}`", self.input)
    }
}

impl std::error::Error for ParseTechniqueError {}

impl std::str::FromStr for Technique {
    type Err = ParseTechniqueError;

    /// Parses the paper's variant names (case-insensitive; `-`/`_` accepted
    /// for spaces), using the paper's standard budgets for the static
    /// techniques (400 additional instructions, greedy parsing,
    /// round-robin replicas; 365+35 for "static both").
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let norm = s.trim().to_lowercase().replace(['-', '_'], " ");
        Ok(match norm.as_str() {
            "switch" => Technique::Switch,
            "plain" | "threaded" => Technique::Threaded,
            "static repl" => {
                Technique::StaticRepl { budget: 400, selection: ReplicaSelection::RoundRobin }
            }
            "static super" => Technique::StaticSuper { budget: 400, algo: CoverAlgorithm::Greedy },
            "static both" => Technique::StaticBoth {
                replicas: 365,
                supers: 35,
                selection: ReplicaSelection::RoundRobin,
                algo: CoverAlgorithm::Greedy,
            },
            "dynamic repl" => Technique::DynamicRepl,
            "dynamic super" => Technique::DynamicSuper,
            "dynamic both" => Technique::DynamicBoth,
            "across bb" => Technique::AcrossBb,
            "with static super" => {
                Technique::WithStaticSuper { supers: 400, algo: CoverAlgorithm::Greedy }
            }
            "w/static super across" | "with static super across" => {
                Technique::WithStaticSuperAcross { supers: 400, algo: CoverAlgorithm::Greedy }
            }
            "subroutine threading" | "subroutine" => Technique::SubroutineThreading,
            _ => return Err(ParseTechniqueError { input: s.to_owned() }),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_match_paper() {
        assert_eq!(Technique::Threaded.paper_name(), "plain");
        assert_eq!(Technique::AcrossBb.to_string(), "across bb");
    }

    #[test]
    fn profile_requirements() {
        assert!(!Technique::Threaded.needs_profile());
        assert!(!Technique::DynamicRepl.needs_profile());
        assert!(Technique::StaticRepl { budget: 1, selection: ReplicaSelection::RoundRobin }
            .needs_profile());
        assert!(
            Technique::WithStaticSuper { supers: 4, algo: CoverAlgorithm::Greedy }.needs_profile()
        );
    }

    #[test]
    fn suites_have_nine_variants() {
        assert_eq!(Technique::gforth_suite().len(), 9);
        assert_eq!(Technique::jvm_suite().len(), 9);
    }

    #[test]
    fn paper_names_round_trip_through_from_str() {
        let mut all = Technique::gforth_suite();
        all.extend(Technique::jvm_suite());
        all.push(Technique::Switch);
        all.push(Technique::SubroutineThreading);
        for t in all {
            let parsed: Technique = t.paper_name().parse().expect("parses");
            assert_eq!(parsed.paper_name(), t.paper_name());
        }
    }

    #[test]
    fn ids_are_unique_and_filesystem_safe() {
        let mut all = Technique::gforth_suite();
        all.extend(Technique::jvm_suite());
        all.push(Technique::Switch);
        all.push(Technique::SubroutineThreading);
        all.push(Technique::StaticRepl { budget: 100, selection: ReplicaSelection::RoundRobin });
        all.push(Technique::StaticRepl {
            budget: 100,
            selection: ReplicaSelection::Random { seed: 7 },
        });
        all.push(Technique::StaticSuper { budget: 400, algo: CoverAlgorithm::Optimal });
        let ids: std::collections::BTreeSet<String> = all.iter().map(Technique::id).collect();
        // paper_name collides across budgets; id must not.
        assert_eq!(ids.len(), all.iter().collect::<std::collections::HashSet<_>>().len());
        for id in &ids {
            assert!(
                id.chars().all(|c| c.is_ascii_alphanumeric() || c == '-'),
                "id `{id}` is not filesystem-safe"
            );
        }
    }

    #[test]
    fn from_str_is_forgiving_about_case_and_separators() {
        assert_eq!("ACROSS-BB".parse::<Technique>(), Ok(Technique::AcrossBb));
        assert_eq!("dynamic_repl".parse::<Technique>(), Ok(Technique::DynamicRepl));
        assert!("turbo mode".parse::<Technique>().is_err());
        let e = "turbo".parse::<Technique>().unwrap_err();
        assert!(e.to_string().contains("turbo"));
    }
}
