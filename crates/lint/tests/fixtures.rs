//! Fixture-tree tests: the linter over miniature workspace roots under
//! `crates/lint/fixtures/`. The `violations/` tree seeds at least one
//! violation per rule (CI also runs the binary over it and requires a
//! nonzero exit); the `clean/` tree holds the sanctioned form of each
//! pattern, including a waiver with a reason, and must produce zero findings.

use std::path::PathBuf;

use sla_lint::{lint_tree, Report, RULES};

fn fixture(name: &str) -> Report {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(name);
    lint_tree(&root).expect("fixture tree readable")
}

#[test]
fn violations_tree_trips_every_rule() {
    let report = fixture("violations");
    assert!(!report.findings.is_empty());
    for rule in RULES {
        assert!(
            report.findings.iter().any(|f| f.rule == rule.id),
            "rule `{}` produced no finding on the violations tree",
            rule.id
        );
    }
    // The malformed waiver must not have suppressed the violation under it.
    assert!(report
        .findings
        .iter()
        .any(|f| f.file.ends_with("waiver_missing_reason.rs") && f.rule == "float-arith"));
    assert!(
        report.waivers.is_empty(),
        "no valid waiver exists in the tree"
    );
}

#[test]
fn violations_tree_expected_sites() {
    let report = fixture("violations");
    let expect: &[(&str, &str)] = &[
        ("crates/core/src/float_arith.rs", "float-arith"),
        ("crates/core/src/default_hasher.rs", "default-hasher"),
        ("crates/sim/src/wall_clock.rs", "wall-clock"),
        ("crates/atpg/src/env_read.rs", "env-read"),
        ("crates/sim/src/thread_spawn.rs", "thread-spawn"),
        ("crates/netlist/src/unsafe_block.rs", "unsafe-safety"),
        ("crates/atpg/src/engine.rs", "unwrap-in-lib"),
        ("crates/core/src/waiver_missing_reason.rs", "waiver-syntax"),
        ("crates/core/src/waiver_unknown_rule.rs", "waiver-syntax"),
        (
            "crates/core/src/fast_map_iteration.rs",
            "fast-map-iteration",
        ),
        ("crates/netlist/src/parser.rs", "panic-index"),
        ("crates/sim/src/lossy_cast.rs", "lossy-cast"),
    ];
    for (file, rule) in expect {
        assert!(
            report
                .findings
                .iter()
                .any(|f| f.file == *file && f.rule == *rule),
            "expected a {rule} finding in {file}; got: {:#?}",
            report.findings
        );
    }
    // Findings come out in file order, lines ascending within a file.
    let keys: Vec<(&str, u32)> = report
        .findings
        .iter()
        .map(|f| (f.file.as_str(), f.line))
        .collect();
    let mut sorted = keys.clone();
    sorted.sort();
    assert_eq!(keys, sorted, "findings must be deterministically ordered");
}

#[test]
fn flow_aware_rules_catch_every_banned_form() {
    let report = fixture("violations");
    let count = |rule: &str| report.findings.iter().filter(|f| f.rule == rule).count();
    // fast_map_iteration.rs: .iter(), `for … in`, .into_iter(), .keys(),
    // .values(), .drain().
    assert_eq!(count("fast-map-iteration"), 6);
    // parser.rs: element index, range slice, tuple-field receiver — the
    // `#[cfg(test)]` indexing must not count.
    assert_eq!(count("panic-index"), 3);
    // lossy_cast.rs: annotated binding, .len(), both sign flips, inferred
    // binding, suffixed literal.
    assert_eq!(count("lossy-cast"), 6);
}

#[test]
fn clean_tree_is_clean_and_counts_its_waiver() {
    let report = fixture("clean");
    assert!(
        report.findings.is_empty(),
        "clean tree produced findings: {:#?}",
        report.findings
    );
    assert_eq!(report.waivers.len(), 1, "exactly the waived float");
    let w = &report.waivers[0];
    assert_eq!(w.rule, "float-arith");
    assert_eq!(w.file, "crates/core/src/waived_float.rs");
    assert!(!w.reason.is_empty());
}
