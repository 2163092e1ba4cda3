//! `sla-lint` — the repo-native determinism-contract linter.
//!
//! The workspace's central promise (ROADMAP "Determinism contract") is that
//! `SLA_THREADS=N` runs are bit-identical to `SLA_THREADS=1` for every
//! pipeline. The property tests and the CI determinism matrix guard that
//! contract at *runtime*; this crate guards it at the *source* level, where
//! the classic leak paths are visible before they ever reach a run:
//! default-hasher map iteration, ad-hoc wall-clock reads, ambient environment
//! configuration, stray threading, and float arithmetic. See
//! [`rules::RULES`] for the registry and [`rules`] for the waiver syntax and
//! the recipe for adding a rule.
//!
//! Three entry points, all deterministic themselves (files are discovered in
//! sorted order, findings are reported in file/line order):
//!
//! * [`lint_tree`] — lint every `.rs` file under a root directory. In
//!   workspace mode the root is the workspace itself; the fixture trees under
//!   `crates/lint/fixtures/` are miniature workspace roots linted the same
//!   way (and skipped when linting the real one).
//! * [`lint_sources`] — the same over in-memory `(path, content)` pairs,
//!   for tests.
//! * the `sla-lint` binary — `--workspace`, `--list-rules`, or explicit
//!   fixture roots; exits nonzero on findings.

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

pub mod lexer;
pub mod parser;
pub mod rules;

pub use rules::{Rule, RULES};

/// One diagnostic, printed as `file:line: rule-id: message`.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Path relative to the linted root, `/`-separated.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Id of the violated rule.
    pub rule: &'static str,
    /// Human-readable explanation with the sanctioned alternative.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: {}: {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// A waiver that suppressed at least one finding, for reporting.
#[derive(Debug, Clone)]
pub struct AppliedWaiver {
    pub file: String,
    pub line: u32,
    pub rule: &'static str,
    pub reason: String,
}

/// Result of one lint run.
#[derive(Debug, Default)]
pub struct Report {
    /// Findings that survived waiver filtering, in file/line order.
    pub findings: Vec<Finding>,
    /// Every syntactically valid waiver encountered, whether or not it
    /// suppressed anything (the zero-waiver checks of `tests/lint.rs` key on
    /// this).
    pub waivers: Vec<AppliedWaiver>,
    /// Number of `.rs` files linted.
    pub files: usize,
}

/// One tokenized source file plus its path-based classification.
pub struct SourceFile {
    /// Path relative to the linted root, `/`-separated.
    pub rel: String,
    /// Token stream (comments included; rules filter as needed).
    pub tokens: Vec<lexer::Token>,
}

impl SourceFile {
    /// Library code: a crate's `src/` tree or the root facade `src/`.
    /// Integration tests (`tests/`), examples and fixtures are not library
    /// code — rules scoped to libraries (the default-hasher rule) skip them.
    pub fn is_lib_code(&self) -> bool {
        if self.rel.starts_with("src/") {
            return true;
        }
        let Some(in_crates) = self.rel.strip_prefix("crates/") else {
            return false;
        };
        in_crates
            .split_once('/')
            .is_some_and(|(_, rest)| rest.starts_with("src/"))
    }

    fn finding(&self, line: u32, rule: &'static str, message: String) -> Finding {
        Finding {
            file: self.rel.clone(),
            line,
            rule,
            message,
        }
    }
}

/// Lints in-memory sources. `sources` are `(relative_path, content)` pairs;
/// they are processed in sorted path order regardless of input order.
pub fn lint_sources(mut sources: Vec<(String, String)>) -> Report {
    sources.sort_by(|a, b| a.0.cmp(&b.0));
    let mut report = Report {
        files: sources.len(),
        ..Report::default()
    };
    for (rel, content) in sources {
        lint_file(rel, &content, &mut report);
    }
    report
}

/// Lints a single file into `report`: tokenize, collect waivers, run every
/// applicable rule, sort, waiver-filter. A waiver only suppresses findings
/// in its own file, so a tree's report is the per-file results in path
/// order.
fn lint_file(rel: String, content: &str, report: &mut Report) {
    let file = SourceFile {
        rel,
        tokens: lexer::tokenize(content),
    };
    let mut raw = Vec::new();
    let waivers = rules::collect_waivers(&file, &mut raw);
    rules::check_file(&file, &mut raw);
    raw.sort_by_key(|f| (f.line, rule_order(f.rule)));
    for finding in raw {
        let waived = waivers.iter().any(|w| {
            w.rule == finding.rule && (finding.line == w.line || finding.line == w.line + 1)
        });
        if !waived {
            report.findings.push(finding);
        }
    }
    // Every syntactically valid waiver is reported exactly once, whether
    // or not it suppressed anything — the zero-waiver acceptance checks
    // of `tests/lint.rs` count these.
    for w in waivers {
        report.waivers.push(AppliedWaiver {
            file: file.rel.clone(),
            line: w.line,
            rule: w.rule,
            reason: w.reason,
        });
    }
}

fn rule_order(id: &str) -> usize {
    RULES.iter().position(|r| r.id == id).unwrap_or(usize::MAX)
}

/// Lints every `.rs` file under `root`, skipping `target/`, `vendor/`,
/// `.git/` and the linter's own fixture trees (`crates/lint/fixtures/` —
/// they contain violations on purpose and are linted separately by pointing
/// `lint_tree` at them).
///
/// # Errors
///
/// Propagates filesystem errors (unreadable directories or files).
pub fn lint_tree(root: &Path) -> io::Result<Report> {
    Ok(lint_sources(collect_sources(root)?))
}

/// Collects `(relative_path, content)` pairs for every `.rs` file under
/// `root`, in sorted path order.
fn collect_sources(root: &Path) -> io::Result<Vec<(String, String)>> {
    let mut files = Vec::new();
    collect_rs_files(root, root, &mut files)?;
    let mut sources = Vec::with_capacity(files.len());
    for path in files {
        let rel = path
            .strip_prefix(root)
            .expect("collected under root")
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        sources.push((rel, fs::read_to_string(&path)?));
    }
    Ok(sources)
}

const SKIP_DIRS: &[&str] = &["target", "vendor", ".git"];
const SKIP_RELS: &[&str] = &["crates/lint/fixtures"];

fn collect_rs_files(root: &Path, dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .map(|e| e.map(|e| e.path()))
        .collect::<io::Result<_>>()?;
    // Deterministic discovery order regardless of filesystem enumeration.
    entries.sort();
    for path in entries {
        let name = path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_str()) {
                continue;
            }
            let rel = path.strip_prefix(root).expect("under root");
            let rel = rel
                .components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/");
            if SKIP_RELS.contains(&rel.as_str()) {
                continue;
            }
            collect_rs_files(root, &path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Walks upward from `start` looking for a `Cargo.toml` declaring
/// `[workspace]` — how the binary resolves `--workspace` from any
/// subdirectory.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint_one(rel: &str, src: &str) -> Report {
        lint_sources(vec![(rel.to_string(), src.to_string())])
    }

    #[test]
    fn default_hasher_flags_lib_code_only() {
        let src = "use std::collections::HashMap;\n";
        let lib = lint_one("crates/core/src/x.rs", src);
        assert_eq!(lib.findings.len(), 1);
        assert_eq!(lib.findings[0].rule, "default-hasher");
        assert_eq!(lib.findings[0].line, 1);
        for exempt in ["tests/x.rs", "examples/x.rs", "crates/core/tests/x.rs"] {
            assert!(lint_one(exempt, src).findings.is_empty(), "{exempt}");
        }
        // The definition site is allow-listed.
        assert!(lint_one("crates/netlist/src/hash.rs", src)
            .findings
            .is_empty());
    }

    #[test]
    fn hashmap_in_strings_and_comments_is_ignored() {
        let src = "// HashMap in a comment\nfn f() -> &'static str { \"HashMap\" }\n";
        assert!(lint_one("crates/core/src/x.rs", src).findings.is_empty());
    }

    #[test]
    fn wall_clock_flags_everything_but_the_helper() {
        let src = "use std::time::Instant;\nfn f() { let _ = Instant::now(); }\n";
        let r = lint_one("crates/bench/src/x.rs", src);
        assert_eq!(
            r.findings.iter().filter(|f| f.rule == "wall-clock").count(),
            2
        );
        assert!(lint_one("crates/netlist/src/wallclock.rs", src)
            .findings
            .is_empty());
        let st = lint_one(
            "tests/x.rs",
            "fn f() { let _ = std::time::SystemTime::now(); }",
        );
        assert_eq!(st.findings[0].rule, "wall-clock");
    }

    #[test]
    fn env_reads_flagged_outside_par_and_bench() {
        let read = "fn f() { let _ = std::env::var(\"X\"); }\n";
        assert_eq!(
            lint_one("crates/core/src/x.rs", read).findings[0].rule,
            "env-read"
        );
        assert_eq!(lint_one("examples/x.rs", read).findings[0].rule, "env-read");
        assert!(lint_one("crates/par/src/lib.rs", read).findings.is_empty());
        assert!(lint_one("crates/bench/src/bin/t.rs", read)
            .findings
            .is_empty());
        // args is explicit CLI input, not an ambient read.
        assert!(lint_one(
            "crates/lint/src/main.rs",
            "fn f() { let _ = std::env::args(); }"
        )
        .findings
        .is_empty());
        // Importing the module wholesale is flagged: it hides later reads.
        assert_eq!(
            lint_one("src/lib.rs", "use std::env;\n").findings[0].rule,
            "env-read"
        );
        let grouped = lint_one("src/lib.rs", "use std::{env::var_os, fmt};\n");
        assert_eq!(grouped.findings.len(), 1);
    }

    #[test]
    fn thread_and_sync_flagged_outside_par() {
        let src = "use std::thread;\nuse std::sync::{Mutex, mpsc::channel};\n";
        let r = lint_one("crates/sim/src/x.rs", src);
        assert_eq!(
            r.findings
                .iter()
                .filter(|f| f.rule == "thread-spawn")
                .count(),
            3
        );
        assert!(lint_one("crates/par/src/pool.rs", src).findings.is_empty());
        let spawn = lint_one("tests/x.rs", "fn f() { std::thread::spawn(|| {}); }");
        assert_eq!(spawn.findings[0].rule, "thread-spawn");
    }

    #[test]
    fn float_rule_scoped_to_pipeline_crates() {
        let src = "fn f(x: f64) -> f64 { x * 1.5 }\n";
        let r = lint_one("crates/atpg/src/x.rs", src);
        assert_eq!(
            r.findings
                .iter()
                .filter(|f| f.rule == "float-arith")
                .count(),
            3
        );
        assert!(lint_one("crates/circuits/src/x.rs", src)
            .findings
            .is_empty());
        assert!(lint_one("crates/bench/src/x.rs", src).findings.is_empty());
        // Exponent literals count; integer-dot forms do not.
        assert_eq!(
            lint_one(
                "crates/par/src/x.rs",
                "const E: i64 = 0; fn g() { let _ = 1e-9; }"
            )
            .findings
            .len(),
            1
        );
        assert!(
            lint_one("crates/par/src/x.rs", "fn g(v: &[u8]) { let _ = v.len(); }")
                .findings
                .is_empty()
        );
    }

    #[test]
    fn unsafe_requires_safety_comment() {
        let bad = "fn f() { unsafe { core::hint::unreachable_unchecked() } }\n";
        assert_eq!(
            lint_one("crates/sim/src/x.rs", bad).findings[0].rule,
            "unsafe-safety"
        );
        let good = "fn f() {\n    // SAFETY: caller guarantees the invariant\n    unsafe { core::hint::unreachable_unchecked() }\n}\n";
        assert!(lint_one("crates/sim/src/x.rs", good).findings.is_empty());
    }

    #[test]
    fn waivers_suppress_with_reason_and_are_reported() {
        let src = "// sla-lint: allow(env-read): display-only stable-output switch\n\
                   fn f() { let _ = std::env::var_os(\"SLA_STABLE_OUTPUT\"); }\n";
        let r = lint_one("examples/util/stable.rs", src);
        assert!(r.findings.is_empty());
        assert_eq!(r.waivers.len(), 1);
        assert_eq!(r.waivers[0].rule, "env-read");
        assert!(r.waivers[0].reason.contains("display-only"));
    }

    #[test]
    fn waiver_without_reason_is_a_finding_and_suppresses_nothing() {
        let src = "// sla-lint: allow(env-read)\n\
                   fn f() { let _ = std::env::var(\"X\"); }\n";
        let r = lint_one("examples/x.rs", src);
        let rules: Vec<_> = r.findings.iter().map(|f| f.rule).collect();
        assert!(rules.contains(&"waiver-syntax"), "{rules:?}");
        assert!(rules.contains(&"env-read"), "{rules:?}");
        assert!(r.waivers.is_empty());
    }

    #[test]
    fn waiver_for_unknown_rule_is_a_finding() {
        let src = "// sla-lint: allow(no-such-rule): reasons\nfn f() {}\n";
        let r = lint_one("examples/x.rs", src);
        assert_eq!(r.findings[0].rule, "waiver-syntax");
        assert!(r.findings[0].message.contains("no-such-rule"));
    }

    #[test]
    fn doc_comments_do_not_waive() {
        let src = "/// `// sla-lint: allow(env-read): quoted syntax in docs`\n\
                   fn f() { let _ = std::env::var(\"X\"); }\n";
        let r = lint_one("examples/x.rs", src);
        assert_eq!(r.findings.len(), 1);
        assert_eq!(r.findings[0].rule, "env-read");
        assert!(r.waivers.is_empty());
    }

    #[test]
    fn trailing_waiver_covers_its_own_line() {
        let src =
            "fn f() { let _ = std::env::var(\"X\"); } // sla-lint: allow(env-read): harness knob\n";
        let r = lint_one("examples/x.rs", src);
        assert!(r.findings.is_empty());
        assert_eq!(r.waivers.len(), 1);
    }

    #[test]
    fn findings_sorted_and_rendered() {
        let r = lint_sources(vec![
            ("b.rs".into(), "use std::time::Instant;\n".into()),
            (
                "a.rs".into(),
                "\nfn f() { let _ = std::env::var(\"X\"); }\n".into(),
            ),
        ]);
        assert_eq!(r.findings.len(), 2);
        assert_eq!(r.findings[0].file, "a.rs");
        let line = r.findings[0].to_string();
        assert!(line.starts_with("a.rs:2: env-read: "), "{line}");
    }

    #[test]
    fn rule_registry_ids_are_unique() {
        for (i, a) in RULES.iter().enumerate() {
            assert!(!a.id.is_empty() && !a.summary.is_empty() && !a.rationale.is_empty());
            for b in &RULES[i + 1..] {
                assert_ne!(a.id, b.id);
            }
        }
    }
}
