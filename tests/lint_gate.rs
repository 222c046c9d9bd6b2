//! The lint gate: tier-1 enforcement of the kodan-lint rule set.
//!
//! This test runs the analyzer over the whole workspace through its
//! library API (no subprocess, so it works offline and under any test
//! runner) and fails the build if any determinism, panic-safety or
//! hygiene rule fires. A seeded-violation fixture double-checks that the
//! gate would actually catch a regression, guarding against the scanner
//! silently going blind (e.g. a bad walker skip list).

use kodan_lint::json::{render_call_graph, render_report};
use kodan_lint::{analyze, analyze_sources, check, default_rules, scan_source};
use std::path::Path;

/// The workspace root: this integration test lives in `<root>/tests/`.
fn workspace_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

#[test]
fn workspace_is_lint_clean() {
    let rules = default_rules();
    let report = check(workspace_root(), &rules).expect("workspace scan succeeds");
    assert!(
        report.files_scanned > 50,
        "scanner saw only {} files — walker is broken",
        report.files_scanned
    );
    let listing: Vec<String> = report
        .diagnostics
        .iter()
        .map(|d| format!("{}:{} [{}] {}", d.path, d.line, d.rule_id, d.snippet))
        .collect();
    assert!(
        report.is_clean(),
        "kodan-lint found {} violation(s):\n{}\n\
         Fix them or add `// lint:allow(<rule>): <reason>`.",
        listing.len(),
        listing.join("\n")
    );
    assert_eq!(report.exit_code(), 0);
}

#[test]
fn every_sanctioned_path_exists() {
    // A carve-out that names a deleted file would silently exempt any
    // file later written at that path, so every path a rule sanctions
    // (the index and reduction carve-outs and each scope exclusion) must
    // exist.
    use kodan_lint::passes::{INDEX_SANCTIONED, REDUCTION_SANCTIONED};
    let exclusions: Vec<String> = default_rules()
        .into_iter()
        .flat_map(|rule| rule.exclude)
        .collect();
    let missing: Vec<&str> = INDEX_SANCTIONED
        .iter()
        .chain(&REDUCTION_SANCTIONED)
        .copied()
        .chain(exclusions.iter().map(String::as_str))
        .filter(|path| !workspace_root().join(path).exists())
        .collect();
    assert!(
        missing.is_empty(),
        "sanctioned paths that do not exist: {missing:?}"
    );
}

#[test]
fn gate_catches_a_seeded_violation() {
    // Write a file with one violation per category into the scratch dir
    // and confirm the same scan pipeline flags all three categories.
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("lint_gate_fixture");
    let src_dir = dir.join("crates/core/src");
    std::fs::create_dir_all(&src_dir).expect("create fixture tree");
    std::fs::write(
        src_dir.join("queue.rs"),
        "use std::collections::HashMap;\n\
         pub fn f(x: Option<u8>) -> u8 { x.unwrap() }\n",
    )
    .expect("write fixture");

    let rules = default_rules();
    let report = check(&dir, &rules).expect("fixture scan succeeds");
    assert_eq!(report.files_scanned, 1);
    // determinism (1) from HashMap + panic-safety (2) from unwrap.
    assert_eq!(report.exit_code(), 1 | 2);

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn gate_covers_the_telemetry_crate() {
    // The telemetry crate promises byte-identical snapshots across runs,
    // so it must sit inside the determinism scope. Seed a wall-clock read
    // into a fake crates/telemetry tree and confirm the gate fires — this
    // is the self-check that keeps "modeled time only" enforced rather
    // than aspirational.
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("lint_gate_telemetry_fixture");
    let src_dir = dir.join("crates/telemetry/src");
    std::fs::create_dir_all(&src_dir).expect("create fixture tree");
    std::fs::write(
        src_dir.join("recorder.rs"),
        "use std::time::Instant;\n\
         pub fn stamp() -> Instant { Instant::now() }\n",
    )
    .expect("write fixture");

    let rules = default_rules();
    let report = check(&dir, &rules).expect("fixture scan succeeds");
    assert_eq!(report.files_scanned, 1);
    assert_eq!(report.exit_code(), 1, "determinism bit must fire");
    assert!(
        report.diagnostics.iter().any(|d| d.rule_id == "wall-clock"),
        "expected a wall-clock diagnostic, got: {:?}",
        report.diagnostics
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn gate_covers_the_faults_crate() {
    // The fault layer's entire contract is that schedules are pure
    // functions of (seed, site identity). An entropy source there would
    // silently break every byte-identical fault-injected mission, so the
    // crate must sit inside the determinism scope. Seed a thread_rng call
    // into a fake crates/faults tree and confirm the gate fires.
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("lint_gate_faults_fixture");
    let src_dir = dir.join("crates/faults/src");
    std::fs::create_dir_all(&src_dir).expect("create fixture tree");
    std::fs::write(
        src_dir.join("lib.rs"),
        "pub fn roll() -> f64 { rand::thread_rng().gen() }\n",
    )
    .expect("write fixture");

    let rules = default_rules();
    let report = check(&dir, &rules).expect("fixture scan succeeds");
    assert_eq!(report.files_scanned, 1);
    assert_ne!(
        report.exit_code() & 1,
        0,
        "determinism bit must fire, got: {:?}",
        report.diagnostics
    );
    assert!(
        report.diagnostics.iter().any(|d| d.rule_id == "entropy"),
        "expected an entropy diagnostic, got: {:?}",
        report.diagnostics
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn gate_enforces_thread_discipline() {
    // All parallelism in the deterministic crates must route through
    // kodan_geodata::par, whose shard-ordered merge keeps outputs
    // independent of thread interleaving. Seed a raw crossbeam scope into
    // a fake runtime file and confirm the gate fires — and that the
    // executor's file, and only it, is carved out of the rule's scope.
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("lint_gate_thread_fixture");
    let src_dir = dir.join("crates/core/src");
    std::fs::create_dir_all(&src_dir).expect("create fixture tree");
    let src = "pub fn f(xs: &[u8]) -> Vec<u8> {\n    \
               crossbeam::scope(|s| { s.spawn(|_| ()); }).ok();\n    \
               xs.to_vec()\n}\n";
    std::fs::write(src_dir.join("engine.rs"), src).expect("write fixture");

    let rules = default_rules();
    let report = check(&dir, &rules).expect("fixture scan succeeds");
    assert_eq!(report.files_scanned, 1);
    assert_eq!(report.exit_code(), 1, "determinism bit must fire");
    assert!(
        report
            .diagnostics
            .iter()
            .any(|d| d.rule_id == "thread-discipline"),
        "expected a thread-discipline diagnostic, got: {:?}",
        report.diagnostics
    );

    // The same source inside geodata's par.rs is the sanctioned
    // implementation site; core's telemetry-aware par.rs is not.
    assert!(
        scan_source("crates/geodata/src/par.rs", src, &rules).is_empty(),
        "geodata's par.rs must be excluded from thread-discipline"
    );
    assert!(
        scan_source("crates/core/src/par.rs", src, &rules)
            .iter()
            .any(|d| d.rule_id == "thread-discipline"),
        "core's par.rs must not spawn threads of its own"
    );
    // And the escape hatch still suppresses the rule line by line.
    let allowed = "pub fn f() {\n    \
                   // lint:allow(thread-discipline): pre-par threading\n    \
                   crossbeam::scope(|s| { let _ = s; }).ok();\n}\n";
    assert!(
        scan_source("crates/core/src/engine.rs", allowed, &rules).is_empty(),
        "lint:allow must suppress thread-discipline"
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn gate_enforces_io_discipline() {
    // Persistence in the deterministic crates must route through the
    // content-addressed artifact store, whose canonical encoding and
    // checksums keep on-disk bytes reproducible. Seed a raw std::fs
    // write into a fake core file and confirm the gate fires — and that
    // the store itself is carved out of the rule's scope.
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("lint_gate_io_fixture");
    let src_dir = dir.join("crates/core/src");
    std::fs::create_dir_all(&src_dir).expect("create fixture tree");
    let src = "pub fn dump(bytes: &[u8]) {\n    \
               std::fs::write(\"model.bin\", bytes).ok();\n}\n";
    std::fs::write(src_dir.join("artifact.rs"), src).expect("write fixture");

    let rules = default_rules();
    let report = check(&dir, &rules).expect("fixture scan succeeds");
    assert_eq!(report.files_scanned, 1);
    assert_eq!(report.exit_code(), 1, "determinism bit must fire");
    assert!(
        report
            .diagnostics
            .iter()
            .any(|d| d.rule_id == "io-discipline"),
        "expected an io-discipline diagnostic, got: {:?}",
        report.diagnostics
    );

    // The same source inside the store is the sanctioned I/O site.
    assert!(
        scan_source("crates/wire/src/store.rs", src, &rules).is_empty(),
        "store.rs must be excluded from io-discipline"
    );
    // The CLI sits outside the deterministic scope entirely.
    assert!(
        scan_source("crates/cli/src/commands.rs", src, &rules).is_empty(),
        "the CLI may write user-named paths directly"
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn gate_covers_the_wire_crate() {
    // The wire crate's contract is canonical bytes: the same artifact
    // must encode identically on every machine, every run. A wall-clock
    // read there (say, a timestamp in a section header) would silently
    // break save/load byte-identity, so the crate must sit inside the
    // determinism scope.
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("lint_gate_wire_fixture");
    let src_dir = dir.join("crates/wire/src");
    std::fs::create_dir_all(&src_dir).expect("create fixture tree");
    std::fs::write(
        src_dir.join("envelope.rs"),
        "use std::time::SystemTime;\n\
         pub fn stamp() -> SystemTime { SystemTime::now() }\n",
    )
    .expect("write fixture");

    let rules = default_rules();
    let report = check(&dir, &rules).expect("fixture scan succeeds");
    assert_eq!(report.files_scanned, 1);
    assert_eq!(report.exit_code(), 1, "determinism bit must fire");
    assert!(
        report.diagnostics.iter().any(|d| d.rule_id == "wall-clock"),
        "expected a wall-clock diagnostic, got: {:?}",
        report.diagnostics
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn gate_covers_the_observability_modules() {
    // The flight recorder / trace exporter live inside the telemetry
    // crate's determinism scope: they promise byte-identical output, so
    // they must not touch the filesystem directly (reports flow out
    // through the CLI or the wire envelope). Seed a raw std::fs write
    // into a fake trace.rs and confirm io-discipline fires.
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("lint_gate_obs_fixture");
    let src_dir = dir.join("crates/telemetry/src");
    std::fs::create_dir_all(&src_dir).expect("create fixture tree");
    std::fs::write(
        src_dir.join("trace.rs"),
        "pub fn export(json: &str) {\n    \
         std::fs::write(\"trace.json\", json).ok();\n}\n",
    )
    .expect("write fixture");

    let rules = default_rules();
    let report = check(&dir, &rules).expect("fixture scan succeeds");
    assert_eq!(report.files_scanned, 1);
    assert_eq!(report.exit_code(), 1, "determinism bit must fire");
    assert!(
        report
            .diagnostics
            .iter()
            .any(|d| d.rule_id == "io-discipline"),
        "expected an io-discipline diagnostic, got: {:?}",
        report.diagnostics
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn snapshot_parser_is_a_protected_entry_point() {
    // `kodan health --snapshot` and `kodan diff` feed arbitrary
    // (possibly corrupted) files into TelemetrySnapshot::from_json, so
    // the whole parser call tree is panic-checked: a seeded indexing
    // expression below the entry must be caught with a witness chain.
    let rules = default_rules();
    let sources = vec![(
        "crates/telemetry/src/parse.rs".to_string(),
        "impl TelemetrySnapshot {\n    \
             pub fn from_json(text: &str) -> u8 { scan(text, 9) }\n\
         }\n\
         fn scan(text: &str, i: usize) -> u8 {\n    \
             text.as_bytes()[i]\n\
         }\n"
            .to_string(),
    )];
    let analysis = analyze_sources(&sources, &rules);
    let d = analysis
        .report
        .diagnostics
        .iter()
        .find(|d| d.rule_id == "panic-reachable")
        .expect("panic-reachable fires below the parser entry");
    assert!(
        d.chain[0].contains("TelemetrySnapshot::from_json"),
        "chain must start at the parser entry: {:?}",
        d.chain
    );
    assert_ne!(
        analysis.report.exit_code() & 2,
        0,
        "panic-safety bit must fire"
    );
}

#[test]
fn fleet_runner_is_a_protected_entry_point() {
    // `kodan fleet` fans a whole constellation through Fleet::run: one
    // panic in its satellite fan-out, queue replay or spill combine
    // takes down the whole fleet day. The interprocedural pass must
    // treat `Fleet::run*` as an entry and chase seeds through helpers.
    let rules = default_rules();
    let sources = vec![(
        "crates/core/src/fleet.rs".to_string(),
        "impl Fleet {\n    \
             pub fn run(&self) -> u8 { combine(3) }\n\
         }\n\
         fn combine(i: usize) -> u8 {\n    \
             let runs = [1u8, 2];\n    \
             runs[i]\n\
         }\n"
            .to_string(),
    )];
    let analysis = analyze_sources(&sources, &rules);
    let d = analysis
        .report
        .diagnostics
        .iter()
        .find(|d| d.rule_id == "panic-reachable")
        .expect("panic-reachable fires below the fleet entry");
    assert!(
        d.chain[0].contains("Fleet::run"),
        "chain must start at the fleet entry: {:?}",
        d.chain
    );
    assert_ne!(
        analysis.report.exit_code() & 2,
        0,
        "panic-safety bit must fire"
    );
}

#[test]
fn execution_planner_is_a_protected_entry_point() {
    // `kodan plan` (and every planned mission or fleet) funnels the
    // whole day's frame estimates through ExecutionPlanner::plan_day on
    // orbit; a panic there grounds the plan before a single frame
    // flies. The interprocedural pass must treat `ExecutionPlanner::plan*`
    // as an entry and chase seeds through its scoring helpers.
    let rules = default_rules();
    let sources = vec![(
        "crates/core/src/plan.rs".to_string(),
        "impl ExecutionPlanner {\n    \
             pub fn plan_day(&self) -> u8 { score(9) }\n\
         }\n\
         fn score(i: usize) -> u8 {\n    \
             let passes = [1u8, 2];\n    \
             passes[i]\n\
         }\n"
            .to_string(),
    )];
    let analysis = analyze_sources(&sources, &rules);
    let d = analysis
        .report
        .diagnostics
        .iter()
        .find(|d| d.rule_id == "panic-reachable")
        .expect("panic-reachable fires below the planner entry");
    assert!(
        d.chain[0].contains("ExecutionPlanner::plan"),
        "chain must start at the planner entry: {:?}",
        d.chain
    );
    assert_ne!(
        analysis.report.exit_code() & 2,
        0,
        "panic-safety bit must fire"
    );
}

#[test]
fn thermal_accumulator_sits_in_the_determinism_scope() {
    // Planned missions are byte-identical at any worker count only
    // because ThermalState advances on pure rational arithmetic in
    // frame order. A wall-clock read in the thermal model (say, a
    // cooling interval measured in real time) would silently break
    // that, so the plan/ submodule tree must sit inside the
    // determinism scope like the rest of core.
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("lint_gate_thermal_fixture");
    let src_dir = dir.join("crates/core/src/plan");
    std::fs::create_dir_all(&src_dir).expect("create fixture tree");
    std::fs::write(
        src_dir.join("thermal.rs"),
        "use std::time::Instant;\n\
         pub fn cooled_since(t: Instant) -> f64 { t.elapsed().as_secs_f64() }\n",
    )
    .expect("write fixture");

    let rules = default_rules();
    let report = check(&dir, &rules).expect("fixture scan succeeds");
    assert_eq!(report.files_scanned, 1);
    assert_eq!(report.exit_code(), 1, "determinism bit must fire");
    assert!(
        report.diagnostics.iter().any(|d| d.rule_id == "wall-clock"),
        "expected a wall-clock diagnostic, got: {:?}",
        report.diagnostics
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn fleet_spill_io_must_route_through_the_store() {
    // The spill combiner persists journal runs; that I/O must flow
    // through the content-addressed artifact store (sealed KWIR
    // envelopes, checksummed, canonical bytes), never raw std::fs from
    // core. Seed a direct write into a fake fleet.rs and confirm
    // io-discipline fires.
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("lint_gate_fleet_io_fixture");
    let src_dir = dir.join("crates/core/src");
    std::fs::create_dir_all(&src_dir).expect("create fixture tree");
    std::fs::write(
        src_dir.join("fleet.rs"),
        "pub fn spill(run: &[u8]) {\n    \
         std::fs::write(\"fleet-run-0000.bin\", run).ok();\n}\n",
    )
    .expect("write fixture");

    let rules = default_rules();
    let report = check(&dir, &rules).expect("fixture scan succeeds");
    assert_eq!(report.files_scanned, 1);
    assert_eq!(report.exit_code(), 1, "determinism bit must fire");
    assert!(
        report
            .diagnostics
            .iter()
            .any(|d| d.rule_id == "io-discipline"),
        "expected an io-discipline diagnostic, got: {:?}",
        report.diagnostics
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn gate_catches_reachable_panics_with_a_witness_chain() {
    // The interprocedural pass must walk from a protected entry point
    // through helpers to the panic seed and report the full path, so a
    // failing gate tells the reader *why* the seed is mission-critical.
    let rules = default_rules();
    let sources = vec![(
        "crates/core/src/runtime.rs".to_string(),
        "impl Runtime {\n    \
             pub fn process_frame(&self) -> u8 { helper(1) }\n\
         }\n\
         fn helper(i: usize) -> u8 { deep(i) }\n\
         fn deep(i: usize) -> u8 {\n    \
             let xs = [1u8, 2];\n    \
             xs[i]\n\
         }\n"
            .to_string(),
    )];
    let analysis = analyze_sources(&sources, &rules);
    let d = analysis
        .report
        .diagnostics
        .iter()
        .find(|d| d.rule_id == "panic-reachable")
        .expect("panic-reachable fires on the seeded fixture");
    assert_eq!(d.line, 7, "seed is the indexing expression: {:?}", d);
    assert_eq!(
        d.chain.len(),
        3,
        "witness chain walks entry -> helper -> deep, got {:?}",
        d.chain
    );
    assert!(d.chain[0].contains("Runtime::process_frame"));
    assert!(d.chain[1].contains("helper"));
    assert!(d.chain[2].contains("deep"));
    assert!(d.message.contains("protected entry point"));
    assert_ne!(
        analysis.report.exit_code() & 2,
        0,
        "panic-safety bit must fire"
    );
}

#[test]
fn gate_catches_reachable_float_reductions() {
    // An order-sensitive f64 reduction below Mission::run is a
    // determinism hazard: a refactor that reorders the iterator (or
    // hands it to a parallel map) changes mission outputs.
    let rules = default_rules();
    let sources = vec![(
        "crates/core/src/mission.rs".to_string(),
        "impl Mission {\n    \
             pub fn run(&self) -> f64 { tally(&[1.0, 2.0]) }\n\
         }\n\
         fn tally(xs: &[f64]) -> f64 {\n    \
             xs.iter().sum::<f64>()\n\
         }\n"
            .to_string(),
    )];
    let analysis = analyze_sources(&sources, &rules);
    let d = analysis
        .report
        .diagnostics
        .iter()
        .find(|d| d.rule_id == "float-reduction")
        .expect("float-reduction fires on the seeded fixture");
    assert_eq!(d.line, 5);
    assert!(d.chain[0].contains("Mission::run"), "chain: {:?}", d.chain);
    assert!(d.chain.last().expect("non-empty chain").contains("tally"));
    assert_ne!(
        analysis.report.exit_code() & 1,
        0,
        "determinism bit must fire"
    );
}

#[test]
fn quantized_kernel_carveout_is_scoped_not_blanket() {
    // DESIGN.md §14 sanctions slice indexing in the fixed-point kernels
    // (crates/ml/src/quant.rs): every index there derives from the
    // dimensions the struct pinned at construction. The carve-out must
    // be exactly that narrow — the same indexing anywhere else still
    // fires, and unwrap seeds inside quant.rs stay fully in scope.
    let rules = default_rules();
    let kernel = "impl Runtime {\n    \
                      pub fn process_frame(&self) -> u8 { kernel(1) }\n\
                  }\n\
                  fn kernel(i: usize) -> u8 {\n    \
                      let xs = [1u8, 2];\n    \
                      xs[i]\n\
                  }\n";
    let sanctioned = analyze_sources(
        &vec![("crates/ml/src/quant.rs".to_string(), kernel.to_string())],
        &rules,
    );
    assert!(
        sanctioned.report.is_clean(),
        "indexing in quant.rs is sanctioned, got: {:?}",
        sanctioned.report.diagnostics
    );
    let elsewhere = analyze_sources(
        &vec![("crates/ml/src/zoo.rs".to_string(), kernel.to_string())],
        &rules,
    );
    assert!(
        elsewhere
            .report
            .diagnostics
            .iter()
            .any(|d| d.rule_id == "panic-reachable"),
        "the same indexing outside the carve-out must fire, got: {:?}",
        elsewhere.report.diagnostics
    );
    // `unwrap` is never sanctioned — the carve-out covers indexing and
    // integer division only, so a reachable unwrap in quant.rs still
    // trips the panic-reachability pass.
    let unwrapped = "impl Runtime {\n    \
                         pub fn process_frame(&self, x: Option<u8>) -> u8 { x.unwrap() }\n\
                     }\n";
    let unwrap_analysis = analyze_sources(
        &vec![("crates/ml/src/quant.rs".to_string(), unwrapped.to_string())],
        &rules,
    );
    assert!(
        unwrap_analysis
            .report
            .diagnostics
            .iter()
            .any(|d| d.rule_id == "panic-reachable"),
        "unwrap inside quant.rs must still fire, got: {:?}",
        unwrap_analysis.report.diagnostics
    );
}

#[test]
fn gate_flags_stale_and_unknown_allows() {
    // A lint:allow that no longer suppresses anything is a dormant hole
    // in the gate; one naming an unknown rule never worked at all.
    let rules = default_rules();
    let sources = vec![(
        "crates/core/src/queue.rs".to_string(),
        "// lint:allow(unwrap): nothing here unwraps\n\
         pub fn calm() {}\n\
         // lint:allow(made-up-rule): never a real rule\n\
         pub fn calm2() {}\n"
            .to_string(),
    )];
    let analysis = analyze_sources(&sources, &rules);
    let stale: Vec<_> = analysis
        .report
        .diagnostics
        .iter()
        .filter(|d| d.rule_id == "stale-allow")
        .collect();
    assert_eq!(stale.len(), 2, "got: {:?}", analysis.report.diagnostics);
    assert!(stale[0].message.contains("suppresses nothing"));
    assert!(stale[1].message.contains("does not know"));
    assert_ne!(analysis.report.exit_code() & 4, 0, "hygiene bit must fire");

    // A *live* allow is not stale: the same directive above a real
    // unwrap suppresses the violation and produces no finding at all.
    let live = vec![(
        "crates/core/src/queue.rs".to_string(),
        "pub fn f(x: Option<u8>) -> u8 {\n    \
             // lint:allow(unwrap): caller guarantees Some\n    \
             x.unwrap()\n\
         }\n"
            .to_string(),
    )];
    let analysis = analyze_sources(&live, &rules);
    assert!(
        analysis.report.is_clean(),
        "live allow misread as stale: {:?}",
        analysis.report.diagnostics
    );
}

#[test]
fn json_report_schema_is_stable() {
    // The gate (and any tooling downstream of `--format json`) parses
    // this document; the exact byte layout is part of the contract.
    let rules = default_rules();
    let sources = vec![(
        "crates/core/src/queue.rs".to_string(),
        "// lint:allow(unwrap): nothing here unwraps\npub fn calm() {}\n".to_string(),
    )];
    let analysis = analyze_sources(&sources, &rules);
    let expected = "{\n  \"files_scanned\": 1,\n  \"exit_code\": 4,\n  \"diagnostics\": [\n    \
        {\"path\": \"crates/core/src/queue.rs\", \"line\": 1, \"rule\": \"stale-allow\", \
        \"category\": \"hygiene\", \
        \"message\": \"lint:allow(unwrap) suppresses nothing here; the rule no longer fires\", \
        \"snippet\": \"// lint:allow(unwrap): nothing here unwraps\", \"chain\": []}\n  ]\n}";
    assert_eq!(render_report(&analysis.report), expected);
}

#[test]
fn workspace_analysis_is_byte_stable() {
    // Two scans of the same tree must render identical bytes, both for
    // the report and for the call-graph dump: the analyzer itself obeys
    // the determinism discipline it enforces.
    let rules = default_rules();
    let first = analyze(workspace_root(), &rules).expect("first scan succeeds");
    let second = analyze(workspace_root(), &rules).expect("second scan succeeds");
    assert_eq!(render_report(&first.report), render_report(&second.report));
    assert_eq!(
        render_call_graph(&first.graph),
        render_call_graph(&second.graph)
    );
    assert!(
        !first.graph.nodes.is_empty(),
        "workspace call graph must not be empty"
    );
    assert!(
        first.graph.nodes.iter().any(|n| n.entry),
        "workspace must expose protected entry points"
    );
}

#[test]
fn day_replay_is_reached_from_mission_and_fleet_entries() {
    // The capture -> queue -> pass-drain day exists once, in
    // `DayReplay::fly_day`. Both the detailed mission and the fleet must
    // reach it from a protected entry, so the panic and float-reduction
    // passes check that one engine on behalf of both.
    let analysis = analyze(workspace_root(), &default_rules()).expect("workspace scan succeeds");
    let graph = &analysis.graph;
    let engine = graph
        .nodes
        .iter()
        .position(|n| n.display == "DayReplay::fly_day")
        .expect("DayReplay::fly_day is in the call graph");
    let reaches_engine = |entry: usize| {
        let mut seen = vec![false; graph.nodes.len()];
        let mut stack = vec![entry];
        while let Some(node) = stack.pop() {
            if node == engine {
                return true;
            }
            if !std::mem::replace(&mut seen[node], true) {
                stack.extend(&graph.edges[node]);
            }
        }
        false
    };
    for prefix in ["Mission::run", "Fleet::run"] {
        assert!(
            graph
                .entries
                .iter()
                .any(|&e| graph.nodes[e].display.starts_with(prefix) && reaches_engine(e)),
            "DayReplay::fly_day is not reachable from any {prefix}* entry"
        );
    }
}

#[test]
fn suppressions_survive_the_real_pipeline() {
    // The escape hatch documented in DESIGN.md must keep working: the
    // gate's usefulness depends on allows being honoured verbatim.
    let rules = default_rules();
    let src = "pub fn f(x: Option<u8>) -> u8 {\n    \
               x.unwrap() // lint:allow(unwrap): caller guarantees Some\n}\n";
    assert!(scan_source("crates/core/src/runtime.rs", src, &rules).is_empty());
}
