//! The `sla-lint` command-line front end.
//!
//! ```text
//! sla-lint --workspace          lint the enclosing workspace's own sources
//! sla-lint --list-rules         print the rule registry
//! sla-lint --list-waivers       also print every counted waiver (sorted)
//! sla-lint --json               machine-readable findings on stdout
//! sla-lint --github             GitHub workflow ::error annotations
//! sla-lint <root-dir>...        lint the tree(s) under explicit roots
//!                               (fixture mode — how the test suite drives it)
//! ```
//!
//! Output modes compose with either target selection. `--json` replaces the
//! human findings listing (one sorted, compact JSON document, identical
//! bytes for identical reports);
//! `--github` adds one `::error` annotation per finding for workflow logs.
//!
//! Exit codes: `0` clean, `1` findings, `2` usage or I/O error.

use std::path::PathBuf;
use std::process::ExitCode;

use sla_lint::{find_workspace_root, lint_tree, Report, RULES};

struct Options {
    roots: Vec<PathBuf>,
    json: bool,
    github: bool,
    list_waivers: bool,
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
        return ExitCode::from(2);
    }

    if args.iter().any(|a| a == "--list-rules") {
        for rule in RULES {
            println!("{:<20} {}", rule.id, rule.summary);
            println!("{:<20}   {}", "", rule.rationale);
        }
        return ExitCode::SUCCESS;
    }

    let mut opts = Options {
        roots: Vec::new(),
        json: false,
        github: false,
        list_waivers: false,
    };
    let mut workspace = false;
    for arg in args {
        match arg.as_str() {
            "--workspace" => workspace = true,
            "--json" => opts.json = true,
            "--github" => opts.github = true,
            "--list-waivers" => opts.list_waivers = true,
            other if other.starts_with("--") => {
                eprintln!("sla-lint: unknown flag `{other}`");
                usage();
                return ExitCode::from(2);
            }
            root => opts.roots.push(PathBuf::from(root)),
        }
    }

    if workspace {
        let cwd = match std::env::current_dir() {
            Ok(d) => d,
            Err(e) => {
                eprintln!("sla-lint: cannot resolve current directory: {e}");
                return ExitCode::from(2);
            }
        };
        match find_workspace_root(&cwd) {
            Some(root) => opts.roots.push(root),
            None => {
                eprintln!(
                    "sla-lint: no workspace root (Cargo.toml with [workspace]) above {}",
                    cwd.display()
                );
                return ExitCode::from(2);
            }
        }
    }
    if opts.roots.is_empty() {
        usage();
        return ExitCode::from(2);
    }

    let mut total = Report::default();
    for root in &opts.roots {
        match lint_tree(root) {
            Ok(report) => {
                total.files += report.files;
                total.findings.extend(report.findings);
                total.waivers.extend(report.waivers);
            }
            Err(e) => {
                eprintln!("sla-lint: {}: {e}", root.display());
                return ExitCode::from(2);
            }
        }
    }

    if opts.json {
        println!("{}", to_json(&total));
    } else {
        for finding in &total.findings {
            println!("{finding}");
        }
    }
    if opts.github {
        for f in &total.findings {
            // One workflow annotation per finding; GitHub renders these
            // inline on the PR diff.
            println!(
                "::error file={},line={},title=sla-lint {}::{}",
                f.file,
                f.line,
                f.rule,
                github_escape(&f.message)
            );
        }
    }
    if opts.list_waivers {
        // Already in sorted (file, line) order: files are processed sorted
        // and waivers collected in line order within each file.
        for w in &total.waivers {
            println!("{}:{}: allow({}): {}", w.file, w.line, w.rule, w.reason);
        }
    }
    eprintln!(
        "sla-lint: {} file(s), {} finding(s), {} waiver(s)",
        total.files,
        total.findings.len(),
        total.waivers.len()
    );
    if total.findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn usage() {
    eprintln!(
        "usage: sla-lint [--json] [--github] [--list-waivers] \
         (--workspace | <root-dir>...)\n       sla-lint --list-rules"
    );
}

/// Renders the report as one compact JSON document. Hand-rolled (the
/// workspace builds without serialization dependencies); findings and
/// waivers are already sorted, so equal reports give equal bytes.
fn to_json(report: &Report) -> String {
    let mut out = String::from("{\"files\":");
    out.push_str(&report.files.to_string());
    out.push_str(",\"findings\":[");
    for (i, f) in report.findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"file\":{},\"line\":{},\"rule\":{},\"message\":{}}}",
            json_string(&f.file),
            f.line,
            json_string(f.rule),
            json_string(&f.message)
        ));
    }
    out.push_str("],\"waivers\":[");
    for (i, w) in report.waivers.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"file\":{},\"line\":{},\"rule\":{},\"reason\":{}}}",
            json_string(&w.file),
            w.line,
            json_string(w.rule),
            json_string(&w.reason)
        ));
    }
    out.push_str("]}");
    out
}

/// JSON string literal with the mandatory escapes.
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Workflow-command data escaping: `%`, `\r`, `\n` are the significant
/// characters in annotation messages.
fn github_escape(s: &str) -> String {
    s.replace('%', "%25")
        .replace('\r', "%0D")
        .replace('\n', "%0A")
}
