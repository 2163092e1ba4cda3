//! The determinism-contract rule registry and per-rule checks.
//!
//! # The registry
//!
//! Every rule is one [`Rule`] entry in [`RULES`]: a stable kebab-case id (the
//! one diagnostics print and waivers name), a one-line summary for
//! `--list-rules`, and the rationale tying it to the workspace's determinism
//! contract (ROADMAP "Determinism contract"). Rules are checked per file over
//! the token stream of [`crate::lexer`]; scopes are path-based (see
//! [`crate::SourceFile`] for the classification) with explicit allow-lists
//! for the sanctioned definition sites.
//!
//! # Adding a rule
//!
//! 1. Add a `Rule` entry to [`RULES`] (id, summary, rationale, and which
//!    paths it applies to / allow-lists).
//! 2. Pick the analysis depth the rule needs, cheapest first:
//!    * **Token-level** (an identifier or `std::…` path is banned
//!      outright): match over the code tokens in [`check_file`] — comments
//!      and string contents are already separated by the lexer — and push
//!      [`Finding`]s with the line of the offending token.
//!    * **Flow-aware** (the rule depends on *what an expression is* — a
//!      receiver's type, an index position, a cast source): consume the
//!      per-file [`crate::parser::Analysis`] that [`check_file`] already
//!      computes. If the events the rule needs aren't collected yet, extend
//!      `parser.rs` (one forward pass; keep new inference *conservative*:
//!      an unprovable type must yield no event, because a false positive in
//!      a zero-waiver crate forces a code change). Add parser unit tests
//!      for every new propagation path, positive and negative.
//! 3. Filter by scope: path lists (`allowed`), library code
//!    (`SourceFile::is_lib_code`), and — for rules that exempt test
//!    modules — lines `>= Analysis::test_start`.
//! 4. Add a positive fixture under `crates/lint/fixtures/violations/` and,
//!    when the rule has a sanctioned form, a negative one under
//!    `crates/lint/fixtures/clean/`; extend `crates/lint/tests/fixtures.rs`
//!    (the `violations_tree_trips_every_rule` test fails until the fixture
//!    tree trips the new rule).
//! 5. Document the rule in ROADMAP.md ("Determinism contract enforcement").
//!
//! # Waivers
//!
//! A finding is suppressed by a *plain* `//` comment (never a doc comment —
//! documentation quoting the syntax must not waive anything) on the same
//! line or the line directly above, naming the rule and a non-empty reason:
//!
//! ```text
//! // sla-lint: allow(env-read): examples read SLA_STABLE_OUTPUT, display only
//! ```
//!
//! A waiver without a reason, or naming an unknown rule, is itself a finding
//! (`waiver-syntax`) and suppresses nothing.

use crate::lexer::{Token, TokenKind};
use crate::parser;
use crate::{Finding, SourceFile};

/// One registered rule.
#[derive(Debug, Clone, Copy)]
pub struct Rule {
    /// Stable kebab-case id used in diagnostics and waivers.
    pub id: &'static str,
    /// One-line summary (what `--list-rules` prints).
    pub summary: &'static str,
    /// Why the determinism contract needs the rule, and what the sanctioned
    /// alternative is.
    pub rationale: &'static str,
}

/// The registry. Order is the order `--list-rules` prints and findings are
/// reported in within one line.
pub const RULES: &[Rule] = &[
    Rule {
        id: "default-hasher",
        summary: "no std::collections::HashMap/HashSet in library code",
        rationale: "the default SipHash hasher is seeded per process, so map iteration order \
                    varies run to run; use sla_netlist::FastHashMap/FastHashSet (deterministic \
                    iteration for a fixed insertion sequence) or BTreeMap/BTreeSet (sorted) \
                    instead. Allow-listed: crates/netlist/src/hash.rs, the definition site.",
    },
    Rule {
        id: "wall-clock",
        summary: "wall-clock reads only via sla_netlist::wallclock",
        rationale: "Instant/SystemTime values must never influence a verdict; the sanctioned \
                    helper hands out an opaque stats-only timestamp that can produce nothing \
                    but an elapsed Duration for reporting. Allow-listed: \
                    crates/netlist/src/wallclock.rs.",
    },
    Rule {
        id: "env-read",
        summary: "std::env reads only in sla-par, sla-bench and the inject hook",
        rationale: "ambient configuration may pick a schedule, never a result; scheduling \
                    knobs go through sla_par::env_threads() and harness knobs live in the \
                    bench crate. Allow-listed: crates/par/src/lib.rs (the documented \
                    accessor), crates/bench/, and crates/snapshot/src/inject.rs (the \
                    SLA_FAULT_INJECT test hook, which only ever breaks a run on purpose). \
                    std::env::args (explicit CLI input) is not an ambient read and stays \
                    allowed.",
    },
    Rule {
        id: "thread-spawn",
        summary: "std::thread/std::sync only in crates/par",
        rationale: "all parallelism flows through the sla-par runtime, whose ordered merges \
                    are what keep SLA_THREADS=N bit-identical to SLA_THREADS=1; ad-hoc \
                    threading or shared-state synchronization elsewhere bypasses that \
                    contract. Allow-listed: crates/par/.",
    },
    Rule {
        id: "float-arith",
        summary: "no f32/f64 in the deterministic pipeline crates",
        rationale: "float arithmetic invites rounding that varies with evaluation order, \
                    which parallel merges must never observe; pipeline results use integer \
                    or fixed-point arithmetic (e.g. basis points, see \
                    AtpgStats::fault_coverage_bp). Applies to crates/{core,sim,atpg,par}.",
    },
    Rule {
        id: "unsafe-safety",
        summary: "every `unsafe` carries a `// SAFETY:` comment",
        rationale: "the workspace is currently unsafe-free; if that changes, each unsafe \
                    block must document its invariant on the line or directly above, so the \
                    audit surface stays enumerable.",
    },
    Rule {
        id: "unwrap-in-lib",
        summary: "no .unwrap()/.expect() in hardened parser/engine library code",
        rationale: "the resilience contract promises that malformed netlists and interrupted \
                    runs surface typed errors, never panics; the hardened files \
                    (crates/netlist/src/parser.rs, crates/atpg/src/engine.rs) must propagate \
                    Results instead of unwrapping. Test modules (`#[cfg(test)]` onward) are \
                    exempt — a failed test may panic.",
    },
    Rule {
        id: "fast-map-iteration",
        summary: "no iteration over FastHashMap/FastHashSet in library code",
        rationale: "FastHashMap/FastHashSet iteration order depends on insertion history and \
                    capacity, so any iterated result leaks that history into outputs; the \
                    types are lookup-only — iterate a BTreeMap/BTreeSet, or collect keys and \
                    sort first. Banned forms: `for … in`, .iter(), .iter_mut(), .keys(), \
                    .values(), .values_mut(), .into_iter(), .into_keys(), .into_values(), \
                    .drain(), .retain(). Test modules are exempt. Allow-listed: \
                    crates/netlist/src/hash.rs, the definition site.",
    },
    Rule {
        id: "panic-index",
        summary: "no unchecked slice/array indexing in hardened no-panic files",
        rationale: "`x[i]` panics on an out-of-range index, which breaks the same resilience \
                    contract `unwrap-in-lib` protects: the hardened files \
                    (crates/netlist/src/parser.rs, crates/atpg/src/engine.rs) must surface \
                    typed errors on malformed input, never panic; use .get()/.get_mut() (or \
                    .get(a..b) for slicing) and propagate. Test modules are exempt.",
    },
    Rule {
        id: "lossy-cast",
        summary: "no narrowing integer `as` casts in the pipeline crates",
        rationale: "a narrowing `as` cast wraps silently even under overflow-checks, so a \
                    result-carrying value that outgrows the target type corrupts output \
                    instead of failing loudly; use try_from/try_into with a typed error (or \
                    .expect() outside the hardened files, where an invariant makes overflow \
                    unreachable). Applies to crates/{core,sim,atpg,par}; flagged only when \
                    the source type is provable (annotation, suffixed literal, .len()); test \
                    modules are exempt. usize/isize are treated as 64-bit — the workspace's \
                    only supported pointer width.",
    },
    Rule {
        id: "waiver-syntax",
        summary: "waivers name a known rule and a non-empty reason",
        rationale: "`// sla-lint: allow(rule-id): reason` is the only suppression mechanism; \
                    a waiver with no reason or an unknown rule id is noise that would rot \
                    silently, so it is a finding itself and suppresses nothing.",
    },
];

/// Looks up a rule by id.
pub fn rule(id: &str) -> Option<&'static Rule> {
    RULES.iter().find(|r| r.id == id)
}

/// A successfully parsed waiver comment.
#[derive(Debug, Clone)]
pub struct Waiver {
    /// Rule id it suppresses.
    pub rule: &'static str,
    /// Line of the waiver comment; it covers this line and the next.
    pub line: u32,
    /// The stated reason (non-empty by construction).
    pub reason: String,
}

/// Parses the waivers of a file from its plain `//` comments. Malformed
/// waivers are reported as `waiver-syntax` findings.
pub fn collect_waivers(file: &SourceFile, findings: &mut Vec<Finding>) -> Vec<Waiver> {
    let mut waivers = Vec::new();
    for tok in &file.tokens {
        if tok.kind != TokenKind::LineComment {
            continue;
        }
        // Only plain `//` comments: doc comments (`///`, `//!`) are
        // documentation and must be able to quote the syntax verbatim.
        if tok.text.starts_with("///") || tok.text.starts_with("//!") {
            continue;
        }
        let Some(pos) = tok.text.find("sla-lint:") else {
            continue;
        };
        let rest = tok.text[pos + "sla-lint:".len()..].trim_start();
        let Some(args) = rest.strip_prefix("allow(") else {
            findings.push(file.finding(
                tok.line,
                "waiver-syntax",
                "malformed waiver: expected `sla-lint: allow(rule-id): reason`".to_string(),
            ));
            continue;
        };
        let Some(close) = args.find(')') else {
            findings.push(file.finding(
                tok.line,
                "waiver-syntax",
                "malformed waiver: unclosed `allow(`".to_string(),
            ));
            continue;
        };
        let id = args[..close].trim();
        let Some(known) = rule(id) else {
            findings.push(file.finding(
                tok.line,
                "waiver-syntax",
                format!("waiver names unknown rule `{id}`"),
            ));
            continue;
        };
        let after = args[close + 1..].trim_start();
        let reason = after.strip_prefix(':').map(str::trim).unwrap_or("");
        if reason.is_empty() {
            findings.push(file.finding(
                tok.line,
                "waiver-syntax",
                format!("waiver for `{id}` is missing a reason: `sla-lint: allow({id}): reason`"),
            ));
            continue;
        }
        waivers.push(Waiver {
            rule: known.id,
            line: tok.line,
            reason: reason.to_string(),
        });
    }
    waivers
}

/// `path` matching for allow-lists: an entry ending in `/` is a directory
/// prefix, anything else must match exactly.
fn allowed(rel: &str, list: &[&str]) -> bool {
    list.iter().any(|entry| {
        entry.strip_suffix('/').map_or(*entry == rel, |dir| {
            rel.strip_prefix(dir).is_some_and(|r| r.starts_with('/'))
        })
    })
}

const DEFAULT_HASHER_ALLOW: &[&str] = &["crates/netlist/src/hash.rs"];
const WALL_CLOCK_ALLOW: &[&str] = &["crates/netlist/src/wallclock.rs"];
const ENV_READ_ALLOW: &[&str] = &[
    "crates/par/src/lib.rs",
    "crates/bench/",
    "crates/snapshot/src/inject.rs",
];
const THREAD_SPAWN_ALLOW: &[&str] = &["crates/par/"];
/// Files under the no-panic contract (`unwrap-in-lib` and `panic-index`).
const UNWRAP_SCOPE: &[&str] = &["crates/netlist/src/parser.rs", "crates/atpg/src/engine.rs"];
/// The deterministic pipeline crates (`float-arith` and `lossy-cast`).
const FLOAT_SCOPE: &[&str] = &["crates/core/", "crates/sim/", "crates/atpg/", "crates/par/"];
/// `fast-map-iteration` exempts the type's own definition site.
const FAST_MAP_ALLOW: &[&str] = &["crates/netlist/src/hash.rs"];

/// Runs every applicable rule over one file, appending findings (not yet
/// waiver-filtered — the engine applies waivers afterwards so it can report
/// which were used).
pub fn check_file(file: &SourceFile, findings: &mut Vec<Finding>) {
    let code: Vec<&Token> = file.tokens.iter().filter(|t| !t.is_comment()).collect();

    if file.is_lib_code() && !allowed(&file.rel, DEFAULT_HASHER_ALLOW) {
        for tok in &code {
            if tok.is_ident("HashMap") || tok.is_ident("HashSet") {
                findings.push(file.finding(
                    tok.line,
                    "default-hasher",
                    format!(
                        "`{}` uses the per-process-seeded default hasher; use \
                         sla_netlist::Fast{} (deterministic) or BTree{} (sorted)",
                        tok.text,
                        tok.text,
                        tok.text.trim_start_matches("Hash")
                    ),
                ));
            }
        }
    }

    if !allowed(&file.rel, WALL_CLOCK_ALLOW) {
        for tok in &code {
            if tok.is_ident("Instant") || tok.is_ident("SystemTime") {
                findings.push(file.finding(
                    tok.line,
                    "wall-clock",
                    format!(
                        "direct `{}` use; stats-only timing goes through \
                         sla_netlist::wallclock::now()",
                        tok.text
                    ),
                ));
            }
        }
    }

    let std_paths = std_paths(&code);

    if !allowed(&file.rel, ENV_READ_ALLOW) {
        for path in &std_paths {
            if path.segs.first().map(String::as_str) != Some("env") {
                continue;
            }
            match path.segs.get(1) {
                // `std::env::var*` / `vars*`: an ambient configuration read.
                Some(seg) if seg.starts_with("var") => findings.push(file.finding(
                    path.line,
                    "env-read",
                    format!(
                        "environment read `std::env::{seg}` outside sla-par/sla-bench; \
                         scheduling knobs go through sla_par::env_threads()"
                    ),
                )),
                // A bare `use std::env;` hides later `env::var` calls from
                // this token-level check, so importing the module is flagged
                // in itself.
                None => findings.push(
                    file.finding(
                        path.line,
                        "env-read",
                        "`use std::env` outside sla-par/sla-bench hides ambient reads; \
                     name the item (std::env::args) or move the read"
                            .to_string(),
                    ),
                ),
                _ => {}
            }
        }
    }

    if !allowed(&file.rel, THREAD_SPAWN_ALLOW) {
        for path in &std_paths {
            let first = path.segs.first().map(String::as_str);
            if first == Some("thread") || first == Some("sync") {
                findings.push(file.finding(
                    path.line,
                    "thread-spawn",
                    format!(
                        "`std::{}` outside crates/par; all threading goes through the \
                         sla-par runtime (run_indexed / with_pool)",
                        path.segs.join("::")
                    ),
                ));
            }
        }
    }

    if FLOAT_SCOPE.iter().any(|dir| file.rel.starts_with(dir)) {
        for tok in &code {
            let hit = match tok.kind {
                TokenKind::Float => Some(format!("float literal `{}`", tok.text)),
                TokenKind::Ident if tok.text == "f32" || tok.text == "f64" => {
                    Some(format!("`{}`", tok.text))
                }
                _ => None,
            };
            if let Some(what) = hit {
                findings.push(file.finding(
                    tok.line,
                    "float-arith",
                    format!(
                        "{what} in a deterministic pipeline crate; use integer/fixed-point \
                         arithmetic (e.g. basis points)"
                    ),
                ));
            }
        }
    }

    if UNWRAP_SCOPE.contains(&file.rel.as_str()) {
        // Library code only: everything before the file's `#[cfg(test)]`
        // module. A failed test asserting panics is fine; the lib path is not.
        let test_line = test_module_line(&code);
        for (i, tok) in code.iter().enumerate() {
            if tok.line >= test_line {
                break;
            }
            if (tok.is_ident("unwrap") || tok.is_ident("expect"))
                && i > 0
                && code[i - 1].is_punct('.')
            {
                findings.push(file.finding(
                    tok.line,
                    "unwrap-in-lib",
                    format!(
                        "`.{}(…)` in hardened library code; propagate a typed error \
                         (NetlistError / SnapshotError) instead of panicking",
                        tok.text
                    ),
                ));
            }
        }
    }

    // The flow-aware rules share one syntactic pass (see crate::parser).
    let analysis = parser::analyze(&file.tokens);

    if file.is_lib_code() && !allowed(&file.rel, FAST_MAP_ALLOW) {
        for it in &analysis.fast_map_iterations {
            if it.line >= analysis.test_start {
                continue;
            }
            findings.push(file.finding(
                it.line,
                "fast-map-iteration",
                format!(
                    "{} iterates a fast map whose order is insertion-dependent; \
                     FastHashMap/FastHashSet are lookup-only — iterate a BTreeMap/BTreeSet \
                     or collect and sort first",
                    it.what
                ),
            ));
        }
    }

    if UNWRAP_SCOPE.contains(&file.rel.as_str()) {
        for ix in &analysis.index_exprs {
            if ix.line >= analysis.test_start {
                continue;
            }
            findings.push(
                file.finding(
                    ix.line,
                    "panic-index",
                    "unchecked index `…[…]` in hardened no-panic code; use .get()/.get_mut() \
                 and propagate a typed error"
                        .to_string(),
                ),
            );
        }
    }

    if FLOAT_SCOPE.iter().any(|dir| file.rel.starts_with(dir)) {
        for cast in &analysis.int_casts {
            if cast.line >= analysis.test_start {
                continue;
            }
            findings.push(file.finding(
                cast.line,
                "lossy-cast",
                format!(
                    "narrowing `as {}` from {} ({}) can wrap silently; use \
                     {}::try_from with a typed error",
                    cast.dst.name, cast.src.name, cast.provenance, cast.dst.name
                ),
            ));
        }
    }

    for tok in &code {
        if tok.is_ident("unsafe") && !has_safety_comment(file, tok.line) {
            findings.push(
                file.finding(
                    tok.line,
                    "unsafe-safety",
                    "`unsafe` without a `// SAFETY:` comment on the line or directly above it"
                        .to_string(),
                ),
            );
        }
    }
}

/// Line of the first `#[cfg(test)]` attribute in `code`, or `u32::MAX` when
/// the file has no test module.
fn test_module_line(code: &[&Token]) -> u32 {
    let mut i = 0;
    while i + 4 < code.len() {
        if code[i].is_punct('#')
            && code[i + 1].is_punct('[')
            && code[i + 2].is_ident("cfg")
            && code[i + 3].is_punct('(')
            && code[i + 4].is_ident("test")
        {
            return code[i].line;
        }
        i += 1;
    }
    u32::MAX
}

/// `true` when a comment containing `SAFETY:` sits on `line` or up to three
/// lines above it (attribute lines may sit between the comment and the
/// keyword).
fn has_safety_comment(file: &SourceFile, line: u32) -> bool {
    file.tokens.iter().any(|t| {
        t.is_comment()
            && t.text.contains("SAFETY:")
            && t.line <= line
            && line.saturating_sub(t.line) <= 3
    })
}

/// A `std::…` path reference found in the code tokens: the segments after
/// `std::`, brace-group-aware one level deep per `use` tree.
struct StdPath {
    segs: Vec<String>,
    line: u32,
}

/// Collects every `std::…` path in `code`, expanding `use std::{a, b::c}`
/// trees into one entry per leaf. `::std::…` is found too (the scan keys on
/// the `std` identifier itself).
fn std_paths(code: &[&Token]) -> Vec<StdPath> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < code.len() {
        if code[i].is_ident("std")
            && code.get(i + 1).is_some_and(|t| t.is_punct(':'))
            && code.get(i + 2).is_some_and(|t| t.is_punct(':'))
        {
            i = collect_path(code, i + 3, &[], &mut out);
        } else {
            i += 1;
        }
    }
    out
}

/// Parses one path tree starting at `i` (just past a `::`), appending every
/// leaf to `out` with `prefix` prepended. Returns the index to resume at.
fn collect_path(code: &[&Token], i: usize, prefix: &[String], out: &mut Vec<StdPath>) -> usize {
    match code.get(i) {
        Some(tok) if tok.kind == TokenKind::Ident => {
            let mut segs = prefix.to_vec();
            segs.push(tok.text.clone());
            let more = code.get(i + 1).is_some_and(|t| t.is_punct(':'))
                && code.get(i + 2).is_some_and(|t| t.is_punct(':'));
            if more {
                collect_path(code, i + 3, &segs, out)
            } else {
                out.push(StdPath {
                    segs,
                    line: tok.line,
                });
                i + 1
            }
        }
        Some(tok) if tok.is_punct('{') => {
            let mut j = i + 1;
            loop {
                match code.get(j) {
                    None => return j,
                    Some(t) if t.is_punct('}') => return j + 1,
                    Some(t) if t.is_punct(',') => j += 1,
                    _ => j = collect_path(code, j, prefix, out),
                }
            }
        }
        Some(tok) if tok.is_punct('*') => {
            let mut segs = prefix.to_vec();
            segs.push("*".to_string());
            out.push(StdPath {
                segs,
                line: tok.line,
            });
            i + 1
        }
        _ => {
            if !prefix.is_empty() {
                out.push(StdPath {
                    segs: prefix.to_vec(),
                    line: code.get(i.saturating_sub(1)).map_or(0, |t| t.line),
                });
            }
            i + 1
        }
    }
}
