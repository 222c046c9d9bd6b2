//! The rule set: determinism, panic-safety and hygiene rules, plus the
//! path scoping that binds each rule to the parts of the workspace where
//! its invariant must hold.

/// A rule's severity grouping; each category owns one process exit bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Category {
    /// Bit-reproducibility hazards: wall-clock time, entropy-seeded
    /// RNGs, iteration-order-sensitive collections.
    Determinism,
    /// Abort hazards in on-orbit runtime paths: `unwrap`, `expect`,
    /// `panic!`, NaN-unsound float comparisons.
    PanicSafety,
    /// Crate hygiene: missing safety/doc attributes, debug printing in
    /// library code.
    Hygiene,
}

impl Category {
    /// The exit-code bit owned by this category (see the CLI docs).
    pub fn exit_bit(self) -> i32 {
        match self {
            Category::Determinism => 1,
            Category::PanicSafety => 2,
            Category::Hygiene => 4,
        }
    }

    /// Stable lower-case name used in text and JSON output.
    pub fn name(self) -> &'static str {
        match self {
            Category::Determinism => "determinism",
            Category::PanicSafety => "panic-safety",
            Category::Hygiene => "hygiene",
        }
    }
}

/// What a rule checks.
#[derive(Debug, Clone, Copy)]
pub enum RuleKind {
    /// Flags every line whose *code mask* contains one of the needles.
    /// Needles that start/end with an identifier character are matched
    /// on word boundaries, so `Instant` does not match `InstantEnum`.
    Pattern {
        /// Substrings to search for in masked code.
        needles: &'static [&'static str],
    },
    /// Requires a crate-root file to contain the given inner attribute
    /// (matched against masked code, whitespace-insensitively).
    RequiredAttr {
        /// The attribute text, e.g. `#![forbid(unsafe_code)]`.
        attr: &'static str,
    },
}

/// One lint rule.
#[derive(Debug, Clone, Copy)]
pub struct Rule {
    /// Stable kebab-case identifier (used by `lint:allow(..)`).
    pub id: &'static str,
    /// The category the rule reports (and exits) under.
    pub category: Category,
    /// One-line human description, shown by `--list-rules` and in
    /// diagnostics.
    pub description: &'static str,
    /// When true, code inside `#[cfg(test)]` blocks is exempt.
    pub exempt_test_code: bool,
    /// What the rule checks.
    pub kind: RuleKind,
}

/// A rule bound to the path prefixes it applies to.
#[derive(Debug, Clone)]
pub struct ScopedRule {
    /// The rule.
    pub rule: Rule,
    /// Workspace-relative path prefixes (forward slashes). A file is in
    /// scope when its relative path starts with any prefix. An empty
    /// list means every scanned file.
    pub include: Vec<String>,
    /// Path prefixes carved *out* of the scope: a file matching any of
    /// these is never in scope, even when it matches `include`. Used for
    /// rules whose invariant has a single sanctioned home (e.g. thread
    /// spawning is confined to `kodan_geodata::par`).
    pub exclude: Vec<String>,
}

impl ScopedRule {
    /// True when `relative_path` is covered by this rule's scope.
    pub fn applies_to(&self, relative_path: &str) -> bool {
        let included = self.include.is_empty()
            || self
                .include
                .iter()
                .any(|prefix| relative_path.starts_with(prefix.as_str()));
        included
            && !self
                .exclude
                .iter()
                .any(|prefix| relative_path.starts_with(prefix.as_str()))
    }
}

/// The eight crates whose artifacts must be bit-reproducible. The
/// telemetry crate is here by construction: its snapshots are asserted
/// byte-identical across runs, so wall-clock reads would break them.
/// The faults crate doubly so: its whole contract is that fault
/// schedules are pure functions of the seed. The wire crate's entire
/// purpose is canonical bytes, so it inherits every determinism rule.
/// The call graph in [`crate::graph`] draws its nodes from the same set.
pub const DETERMINISTIC_CRATES: [&str; 8] = [
    "crates/core/src/",
    "crates/cote/src/",
    "crates/geodata/src/",
    "crates/ml/src/",
    "crates/hw/src/",
    "crates/telemetry/src/",
    "crates/faults/src/",
    "crates/wire/src/",
];

/// The on-orbit runtime path: code that executes per-tile on the
/// satellite (or derives what will). A panic here aborts a mission.
const RUNTIME_PATH_FILES: [&str; 5] = [
    "crates/core/src/runtime.rs",
    "crates/core/src/engine.rs",
    "crates/core/src/queue.rs",
    "crates/core/src/pipeline.rs",
    "crates/core/src/elide.rs",
];

/// Library-crate roots that must carry the hygiene attributes.
const LIBRARY_CRATE_ROOTS: [&str; 11] = [
    "crates/core/src/lib.rs",
    "crates/cote/src/lib.rs",
    "crates/geodata/src/lib.rs",
    "crates/ml/src/lib.rs",
    "crates/hw/src/lib.rs",
    "crates/bench/src/lib.rs",
    "crates/lint/src/lib.rs",
    "crates/telemetry/src/lib.rs",
    "crates/faults/src/lib.rs",
    "crates/wire/src/lib.rs",
    "src/lib.rs",
];

fn paths(list: &[&str]) -> Vec<String> {
    list.iter().map(|s| s.to_string()).collect()
}

/// Builds the default rule set for this repository.
pub fn default_rules() -> Vec<ScopedRule> {
    vec![
        // ---- determinism ------------------------------------------------
        ScopedRule {
            rule: Rule {
                id: "wall-clock",
                category: Category::Determinism,
                description: "wall-clock time (Instant/SystemTime) in deterministic crates; \
                              use kodan_cote::time simulated time",
                exempt_test_code: true,
                kind: RuleKind::Pattern {
                    needles: &["Instant", "SystemTime"],
                },
            },
            include: paths(&DETERMINISTIC_CRATES),
            exclude: Vec::new(),
        },
        ScopedRule {
            rule: Rule {
                id: "entropy",
                category: Category::Determinism,
                description: "entropy-seeded randomness in deterministic crates; \
                              seed a ChaCha RNG from configuration instead",
                exempt_test_code: true,
                kind: RuleKind::Pattern {
                    needles: &["thread_rng", "from_entropy", "OsRng", "getrandom"],
                },
            },
            include: paths(&DETERMINISTIC_CRATES),
            exclude: Vec::new(),
        },
        ScopedRule {
            rule: Rule {
                id: "hash-collections",
                category: Category::Determinism,
                description: "iteration-order-sensitive HashMap/HashSet in deterministic \
                              crates; use BTreeMap/BTreeSet",
                exempt_test_code: true,
                kind: RuleKind::Pattern {
                    needles: &["HashMap", "HashSet"],
                },
            },
            // The bench harness regenerates paper figures, so its
            // aggregation order matters too.
            include: {
                let mut scope = paths(&DETERMINISTIC_CRATES);
                scope.push("crates/bench/".to_string());
                scope
            },
            exclude: Vec::new(),
        },
        ScopedRule {
            rule: Rule {
                id: "thread-discipline",
                category: Category::Determinism,
                description: "thread spawning outside kodan_geodata::par; route parallelism \
                              through par::par_map_indexed/par_map_recorded so outputs \
                              stay interleaving-independent",
                exempt_test_code: true,
                kind: RuleKind::Pattern {
                    needles: &["std::thread", "thread::spawn", "thread::scope", "crossbeam"],
                },
            },
            include: paths(&DETERMINISTIC_CRATES),
            // The deterministic executor is the one sanctioned home for
            // threads; everything else, core's telemetry-aware layer
            // included, must go through it.
            exclude: vec!["crates/geodata/src/par.rs".to_string()],
        },
        ScopedRule {
            rule: Rule {
                id: "io-discipline",
                category: Category::Determinism,
                description: "filesystem access outside the artifact store; route all \
                              persistence through kodan_wire::ArtifactStore so on-disk \
                              bytes stay canonical and checksummed",
                exempt_test_code: true,
                kind: RuleKind::Pattern {
                    needles: &["std::fs", "std::io::Write", "File::create", "File::open"],
                },
            },
            include: paths(&DETERMINISTIC_CRATES),
            // The content-addressed store is the one sanctioned home for
            // file I/O in deterministic crates; the CLI (out of scope
            // here) may also read and write user-named paths.
            exclude: vec!["crates/wire/src/store.rs".to_string()],
        },
        // ---- panic safety ----------------------------------------------
        ScopedRule {
            rule: Rule {
                id: "unwrap",
                category: Category::PanicSafety,
                description: "unwrap() in the on-orbit runtime path; propagate KodanError",
                exempt_test_code: true,
                kind: RuleKind::Pattern {
                    needles: &[".unwrap()"],
                },
            },
            include: paths(&RUNTIME_PATH_FILES),
            exclude: Vec::new(),
        },
        ScopedRule {
            rule: Rule {
                id: "expect",
                category: Category::PanicSafety,
                description: "expect() in the on-orbit runtime path; propagate KodanError",
                exempt_test_code: true,
                kind: RuleKind::Pattern {
                    needles: &[".expect("],
                },
            },
            include: paths(&RUNTIME_PATH_FILES),
            exclude: Vec::new(),
        },
        ScopedRule {
            rule: Rule {
                id: "panic-macro",
                category: Category::PanicSafety,
                description: "panic!/todo!/unimplemented! in the on-orbit runtime path; \
                              return Err(KodanError::..) instead",
                exempt_test_code: true,
                kind: RuleKind::Pattern {
                    needles: &["panic!", "todo!", "unimplemented!"],
                },
            },
            include: paths(&RUNTIME_PATH_FILES),
            exclude: Vec::new(),
        },
        ScopedRule {
            rule: Rule {
                id: "float-cmp",
                category: Category::PanicSafety,
                description: "partial_cmp on floats in the on-orbit runtime path panics or \
                              misorders on NaN; use f64::total_cmp",
                exempt_test_code: true,
                kind: RuleKind::Pattern {
                    needles: &["partial_cmp"],
                },
            },
            include: paths(&RUNTIME_PATH_FILES),
            exclude: Vec::new(),
        },
        // ---- hygiene ----------------------------------------------------
        ScopedRule {
            rule: Rule {
                id: "forbid-unsafe",
                category: Category::Hygiene,
                description: "library crate roots must carry #![forbid(unsafe_code)]",
                exempt_test_code: false,
                kind: RuleKind::RequiredAttr {
                    attr: "#![forbid(unsafe_code)]",
                },
            },
            include: paths(&LIBRARY_CRATE_ROOTS),
            exclude: Vec::new(),
        },
        ScopedRule {
            rule: Rule {
                id: "deny-missing-docs",
                category: Category::Hygiene,
                description: "library crate roots must carry #![deny(missing_docs)]",
                exempt_test_code: false,
                kind: RuleKind::RequiredAttr {
                    attr: "#![deny(missing_docs)]",
                },
            },
            include: paths(&LIBRARY_CRATE_ROOTS),
            exclude: Vec::new(),
        },
        ScopedRule {
            rule: Rule {
                id: "print-macro",
                category: Category::Hygiene,
                description: "debug printing (println!/dbg!/eprintln!) in deterministic \
                              library crates",
                exempt_test_code: true,
                kind: RuleKind::Pattern {
                    needles: &["println!", "print!", "eprintln!", "eprint!", "dbg!"],
                },
            },
            include: paths(&DETERMINISTIC_CRATES),
            exclude: Vec::new(),
        },
    ]
}

/// Every rule id the analyzer understands: the line rules plus the
/// graph-backed passes. The suppression audit treats an allow naming any
/// other id as a finding.
pub fn known_rule_ids() -> Vec<&'static str> {
    default_rules()
        .iter()
        .map(|r| r.rule.id)
        .chain(crate::passes::GRAPH_RULES.iter().map(|g| g.id))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_rule_id_is_unique_and_kebab() {
        let rules = default_rules();
        let mut ids: Vec<&str> = rules.iter().map(|r| r.rule.id).collect();
        ids.sort_unstable();
        let before = ids.len();
        ids.dedup();
        assert_eq!(before, ids.len(), "duplicate rule ids");
        for id in ids {
            assert!(
                id.chars().all(|c| c.is_ascii_lowercase() || c == '-'),
                "rule id {id} is not kebab-case"
            );
        }
    }

    #[test]
    fn scoping_matches_prefixes() {
        let rule = ScopedRule {
            rule: default_rules()[0].rule,
            include: vec!["crates/core/src/".to_string()],
            exclude: Vec::new(),
        };
        assert!(rule.applies_to("crates/core/src/runtime.rs"));
        assert!(!rule.applies_to("crates/cli/src/main.rs"));
    }

    #[test]
    fn empty_scope_matches_everything() {
        let rule = ScopedRule {
            rule: default_rules()[0].rule,
            include: Vec::new(),
            exclude: Vec::new(),
        };
        assert!(rule.applies_to("anything/at/all.rs"));
    }

    #[test]
    fn exclusions_carve_out_of_the_scope() {
        let rule = ScopedRule {
            rule: default_rules()[0].rule,
            include: vec!["crates/core/src/".to_string()],
            exclude: vec!["crates/core/src/par.rs".to_string()],
        };
        assert!(rule.applies_to("crates/core/src/runtime.rs"));
        assert!(!rule.applies_to("crates/core/src/par.rs"));
        // An exclusion also trims an otherwise-universal scope.
        let universal = ScopedRule {
            rule: default_rules()[0].rule,
            include: Vec::new(),
            exclude: vec!["shims/".to_string()],
        };
        assert!(universal.applies_to("crates/ml/src/matrix.rs"));
        assert!(!universal.applies_to("shims/crossbeam/src/lib.rs"));
    }

    #[test]
    fn thread_discipline_scope_excludes_only_par() {
        let rules = default_rules();
        let td = rules
            .iter()
            .find(|r| r.rule.id == "thread-discipline")
            .expect("thread-discipline rule exists");
        assert_eq!(td.rule.category, Category::Determinism);
        assert!(td.applies_to("crates/geodata/src/dataset.rs"));
        assert!(td.applies_to("crates/core/src/runtime.rs"));
        assert!(td.applies_to("crates/core/src/par.rs"));
        assert!(!td.applies_to("crates/geodata/src/par.rs"));
        assert!(!td.applies_to("crates/cli/src/main.rs"));
    }

    #[test]
    fn io_discipline_scope_excludes_only_the_store() {
        let rules = default_rules();
        let io = rules
            .iter()
            .find(|r| r.rule.id == "io-discipline")
            .expect("io-discipline rule exists");
        assert_eq!(io.rule.category, Category::Determinism);
        assert!(io.applies_to("crates/core/src/artifact.rs"));
        assert!(io.applies_to("crates/wire/src/codec.rs"));
        assert!(!io.applies_to("crates/wire/src/store.rs"));
        // The CLI is allowed to touch user-named paths directly.
        assert!(!io.applies_to("crates/cli/src/commands.rs"));
    }

    #[test]
    fn known_ids_cover_line_and_graph_rules() {
        let mut ids = known_rule_ids();
        assert!(ids.contains(&"unwrap"));
        assert!(ids.contains(&"panic-reachable"));
        assert!(ids.contains(&"float-reduction"));
        assert!(ids.contains(&"stale-allow"));
        let before = ids.len();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(before, ids.len(), "line and graph rule ids collide");
    }

    #[test]
    fn category_bits_are_distinct() {
        let bits = [
            Category::Determinism.exit_bit(),
            Category::PanicSafety.exit_bit(),
            Category::Hygiene.exit_bit(),
        ];
        assert_eq!(bits[0] & bits[1], 0);
        assert_eq!(bits[0] & bits[2], 0);
        assert_eq!(bits[1] & bits[2], 0);
    }
}
