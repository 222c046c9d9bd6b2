//! The graph-backed rule passes: panic reachability, float reduction
//! order, and the suppression audit.
//!
//! Unlike the line rules in [`crate::rules`], these passes reason about
//! the whole workspace at once: a seed is only a finding when the call
//! graph shows a path from a protected entry point to the function that
//! contains it, and every diagnostic carries that path as a witness
//! chain so the reviewer can see *why* the line is load-bearing.

use crate::graph::CallGraph;
use crate::parse::SeedKind;
use crate::rules::Category;
use crate::scan::{Diagnostic, FileAnalysis};
use std::collections::BTreeSet;

/// Metadata for a graph-backed rule (the analogue of [`crate::rules::Rule`]
/// for passes that cannot be expressed as line patterns).
#[derive(Debug, Clone, Copy)]
pub struct GraphRule {
    /// Stable kebab-case identifier (usable in `lint:allow(..)`).
    pub id: &'static str,
    /// The category the rule reports (and exits) under.
    pub category: Category,
    /// One-line human description for `--list-rules`.
    pub description: &'static str,
}

/// All graph-backed rules, in reporting order.
pub const GRAPH_RULES: [GraphRule; 3] = [
    GraphRule {
        id: "panic-reachable",
        category: Category::PanicSafety,
        description: "panic source (unwrap/expect/panic!/indexing/int division) reachable \
                      from a protected entry point; make the helper total or propagate \
                      KodanError",
    },
    GraphRule {
        id: "float-reduction",
        category: Category::Determinism,
        description: "order-sensitive f64 reduction (sum/product/fold/max_by without \
                      total_cmp) reachable from deterministic outputs; use a stable \
                      reduction or a sanctioned kernel",
    },
    GraphRule {
        id: "stale-allow",
        category: Category::Hygiene,
        description: "lint:allow directive whose rule no longer fires on that line \
                      (or names an unknown rule); remove or update it",
    },
];

fn graph_rule(id: &str) -> GraphRule {
    *GRAPH_RULES
        .iter()
        .find(|r| r.id == id)
        .expect("graph rule ids are static")
}

/// Files whose slice-indexing and integer division are sanctioned:
/// fixed-shape math and raster kernels where every index derives from a
/// loop bound over a buffer the kernel itself sized. Data-driven indices
/// (decoded policies, context ids, queue positions) never live here and
/// stay fully in scope. `unwrap`/`expect`/`panic!` seeds are *never*
/// sanctioned — those must be fixed wherever they are reachable.
pub const INDEX_SANCTIONED: [&str; 15] = [
    "crates/core/src/context.rs",
    "crates/core/src/tiling.rs",
    "crates/geodata/src/augment.rs",
    "crates/geodata/src/features.rs",
    "crates/geodata/src/frame.rs",
    "crates/geodata/src/pixel.rs",
    "crates/geodata/src/resize.rs",
    "crates/geodata/src/stats.rs",
    "crates/geodata/src/tile.rs",
    "crates/ml/src/kmeans.rs",
    "crates/ml/src/matrix.rs",
    "crates/ml/src/mlp.rs",
    // Fixed-point kernels: every index derives from `rows`/`cols` the
    // struct itself pinned at construction, and the one integer shift
    // exponent is clamped to [2, 16] by quantization invariants
    // (audited in DESIGN.md §14; panics stay fully in scope).
    "crates/ml/src/quant.rs",
    "crates/ml/src/transform.rs",
    "crates/telemetry/src/recorder.rs",
];

/// Files whose float reductions are sanctioned: the ML training and
/// inference kernels, where reduction order is pinned by the kernels'
/// own fixed iteration scheme (asserted byte-stable by the ml tests)
/// rather than by per-call-site discipline.
pub const REDUCTION_SANCTIONED: [&str; 5] = [
    "crates/ml/src/kmeans.rs",
    "crates/ml/src/matrix.rs",
    "crates/ml/src/metrics.rs",
    "crates/ml/src/mlp.rs",
    "crates/ml/src/optimizer.rs",
];

fn sanctioned(path: &str, list: &[&str]) -> bool {
    list.iter().any(|p| path.starts_with(p))
}

/// The panic-reachability pass: every seed in a function reachable from
/// a protected entry point becomes a candidate diagnostic carrying the
/// witness chain entry → … → containing function.
pub fn panic_reachability(
    files: &[FileAnalysis],
    graph: &CallGraph,
    pred: &[Option<usize>],
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let rule = graph_rule("panic-reachable");
    for (id, node) in graph.nodes.iter().enumerate() {
        if pred[id].is_none() {
            continue;
        }
        let file = &files[node.file];
        let item = &file.items[node.item];
        let chain = graph.chain(pred, id);
        let entry = chain.first().cloned().unwrap_or_default();
        for seed in &item.seeds {
            let indexed = matches!(seed.kind, SeedKind::SliceIndex | SeedKind::IntDiv);
            if indexed && sanctioned(&file.path, &INDEX_SANCTIONED) {
                continue;
            }
            let snippet = file
                .lines
                .get(seed.line - 1)
                .map(|l| l.raw.trim().to_string())
                .unwrap_or_default();
            out.push(Diagnostic {
                path: file.path.clone(),
                line: seed.line,
                rule_id: rule.id,
                category: rule.category,
                message: format!(
                    "{} in {} is reachable from protected entry point {}",
                    seed.kind.label(),
                    node.display,
                    entry
                ),
                snippet,
                chain: chain.clone(),
            });
        }
    }
    out
}

/// True when one masked code line contains an order-sensitive float
/// reduction. Lexical by design: a line mentioning `f64`/`f32` alongside
/// `.sum()`/`.product()`, a float-seeded `.fold(`, or a `max_by`/`min_by`
/// comparator that never says `total_cmp`.
pub fn float_reduction_needle(code: &str) -> Option<&'static str> {
    let packed: String = code.chars().filter(|c| !c.is_whitespace()).collect();
    let floaty = packed.contains("f64") || packed.contains("f32");
    if packed.contains(".sum::<f64>()") || packed.contains(".sum::<f32>()") {
        return Some("float sum");
    }
    if floaty && (packed.contains(".sum()") || packed.contains(".product()")) {
        return Some("float sum/product");
    }
    for fold in [".fold(0.", ".fold(1.", ".fold((0.", ".fold(f64", ".fold(f32"] {
        if packed.contains(fold) {
            return Some("float fold");
        }
    }
    if (packed.contains(".max_by(") || packed.contains(".min_by(")) && !packed.contains("total_cmp")
    {
        return Some("max_by/min_by without total_cmp");
    }
    None
}

/// The float-reduction-order pass: flags order-sensitive reductions in
/// functions reachable from the protected entry points, outside the
/// sanctioned ML kernels.
pub fn float_reduction(
    files: &[FileAnalysis],
    graph: &CallGraph,
    pred: &[Option<usize>],
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let rule = graph_rule("float-reduction");
    for (id, node) in graph.nodes.iter().enumerate() {
        if pred[id].is_none() {
            continue;
        }
        let file = &files[node.file];
        if sanctioned(&file.path, &REDUCTION_SANCTIONED) {
            continue;
        }
        let item = &file.items[node.item];
        let chain = graph.chain(pred, id);
        let entry = chain.first().cloned().unwrap_or_default();
        // Scan only this item's span; a nested fn's span is covered by
        // its own (more precise) node, so skip lines owned by siblings
        // that start inside this body.
        let nested: Vec<(usize, usize)> = file
            .items
            .iter()
            .enumerate()
            .filter(|(i, f)| *i != node.item && f.line > item.line && f.end_line <= item.end_line)
            .map(|(_, f)| (f.line, f.end_line))
            .collect();
        for line in &file.lines {
            if line.number < item.line || line.number > item.end_line {
                continue;
            }
            if nested.iter().any(|&(s, e)| line.number >= s && line.number <= e) {
                continue;
            }
            if let Some(what) = float_reduction_needle(&line.code) {
                out.push(Diagnostic {
                    path: file.path.clone(),
                    line: line.number,
                    rule_id: rule.id,
                    category: rule.category,
                    message: format!(
                        "order-sensitive {what} in {} is reachable from {}",
                        node.display, entry
                    ),
                    snippet: line.raw.trim().to_string(),
                    chain: chain.clone(),
                });
            }
        }
    }
    out
}

/// The suppression audit: a `lint:allow` that suppressed nothing in this
/// run — or that names a rule id the analyzer does not know — is itself
/// a hygiene finding. The lint crate's own sources are exempt (its docs
/// and fixtures quote directives illustratively).
///
/// `used` holds every `(file index, line index, rule id)` whose allow
/// actually suppressed a candidate diagnostic during this analysis.
pub fn stale_allow(
    files: &[FileAnalysis],
    used: &BTreeSet<(usize, usize, String)>,
    known_ids: &BTreeSet<&'static str>,
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let rule = graph_rule("stale-allow");
    for (file_idx, file) in files.iter().enumerate() {
        if file.path.starts_with("crates/lint/") {
            continue;
        }
        for (line_idx, ids) in file.allows.iter().enumerate() {
            for id in ids {
                let message = if !known_ids.contains(id.as_str()) {
                    format!("lint:allow({id}) names a rule the analyzer does not know")
                } else if used.contains(&(file_idx, line_idx, id.clone())) {
                    continue;
                } else {
                    format!("lint:allow({id}) suppresses nothing here; the rule no longer fires")
                };
                out.push(Diagnostic {
                    path: file.path.clone(),
                    line: file.lines[line_idx].number,
                    rule_id: rule.id,
                    category: rule.category,
                    message,
                    snippet: file.lines[line_idx].raw.trim().to_string(),
                    chain: Vec::new(),
                });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn graph_rule_ids_are_unique_and_kebab() {
        let mut ids: Vec<&str> = GRAPH_RULES.iter().map(|r| r.id).collect();
        ids.sort_unstable();
        let before = ids.len();
        ids.dedup();
        assert_eq!(before, ids.len());
        for id in ids {
            assert!(id.chars().all(|c| c.is_ascii_lowercase() || c == '-'));
        }
    }

    #[test]
    fn reduction_needles() {
        assert!(float_reduction_needle("let s: f64 = xs.iter().sum();").is_some());
        assert!(float_reduction_needle("let s = xs.iter().sum::<f64>();").is_some());
        assert!(float_reduction_needle("xs.iter().fold(0.0, |a, b| a + b)").is_some());
        assert!(float_reduction_needle("xs.iter().max_by(|a, b| a.partial_cmp(b).unwrap())").is_some());
        assert!(float_reduction_needle("let n: usize = xs.iter().sum();").is_none());
        assert!(float_reduction_needle("xs.iter().max_by(|a, b| a.total_cmp(b))").is_none());
        assert!(float_reduction_needle("let s = count as f64 / total;").is_none());
    }

    #[test]
    fn sanctioned_prefixes_match() {
        assert!(sanctioned("crates/ml/src/matrix.rs", &INDEX_SANCTIONED));
        assert!(sanctioned("crates/ml/src/quant.rs", &INDEX_SANCTIONED));
        assert!(!sanctioned("crates/core/src/runtime.rs", &INDEX_SANCTIONED));
        // The quantized kernels are index-sanctioned only: their float
        // conversions happen at quantization time, not in reductions.
        assert!(!sanctioned("crates/ml/src/quant.rs", &REDUCTION_SANCTIONED));
        assert!(sanctioned("crates/ml/src/mlp.rs", &REDUCTION_SANCTIONED));
        assert!(!sanctioned("crates/cote/src/link.rs", &REDUCTION_SANCTIONED));
    }
}
