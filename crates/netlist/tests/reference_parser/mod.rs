//! The `.bench` parser as it stood before the single-pass byte scanner,
//! kept verbatim as a differential oracle for `tests/parser_fuzz.rs`.
//!
//! It makes four passes over the text (pragmas, line count, comma count,
//! statements), allocates per line, and accepts some malformed lines the
//! library parser now rejects: trailing text after the closing `)`, empty
//! fanin slots and names with whitespace or separators in them. It is test
//! code only; nothing in the library calls it.

use sla_netlist::FastHashMap;
use sla_netlist::{
    ClockEdge, GateType, LineConstraint, Netlist, NetlistBuilder, NetlistError, Result, SeqInfo,
    SeqKind,
};

#[derive(Debug, Default, Clone)]
struct SeqOverride {
    clock: Option<String>,
    edge: Option<ClockEdge>,
    kind: Option<SeqKind>,
    ports: Option<u8>,
    set: Option<LineConstraint>,
    reset: Option<LineConstraint>,
}

/// Builds a [`NetlistError::Parse`] at a 1-based line/column position.
fn parse_err(line: usize, column: usize, message: String) -> NetlistError {
    NetlistError::Parse {
        line,
        column,
        message,
    }
}

/// 1-based column of byte offset `pos` inside the trimmed content of `raw`.
fn content_column(raw: &str, pos: usize) -> usize {
    let indent = raw.len() - raw.trim_start().len();
    indent + pos + 1
}

/// Strips a trailing `# comment` from an already-trimmed statement line.
/// `.bench` names never contain `#`, so the first one starts the comment.
fn strip_trailing_comment(line: &str) -> &str {
    match line.split_once('#') {
        Some((stmt, _comment)) => stmt.trim_end(),
        None => line,
    }
}

fn parse_constraint(word: &str, line_no: usize, column: usize) -> Result<LineConstraint> {
    match word.to_ascii_lowercase().as_str() {
        "unconstrained" => Ok(LineConstraint::Unconstrained),
        "constrained" => Ok(LineConstraint::Constrained),
        "absent" | "none" => Ok(LineConstraint::Absent),
        other => Err(parse_err(
            line_no,
            column,
            format!("unknown set/reset constraint `{other}`"),
        )),
    }
}

fn collect_pragmas(text: &str) -> Result<FastHashMap<String, SeqOverride>> {
    let mut map: FastHashMap<String, SeqOverride> = FastHashMap::default();
    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw.trim();
        let Some(rest) = line.strip_prefix("#pragma") else {
            continue;
        };
        // Errors inside a pragma point at the directive word. A trailing
        // `# comment` after the pragma operands is legal.
        let col = content_column(raw, line.len() - rest.trim_start().len());
        let rest = strip_trailing_comment(rest);
        let words: Vec<&str> = rest.split_whitespace().collect();
        let [directive, target, operands @ ..] = words.as_slice() else {
            return Err(parse_err(
                line_no,
                col,
                "pragma needs a directive and a target".into(),
            ));
        };
        let entry = map.entry(target.to_string()).or_default();
        match directive.to_ascii_lowercase().as_str() {
            "clock" => {
                let Some(clock) = operands.first() else {
                    return Err(parse_err(
                        line_no,
                        col,
                        "pragma clock needs a clock name".into(),
                    ));
                };
                entry.clock = Some(clock.to_string());
                if let Some(edge) = operands.get(1) {
                    entry.edge = Some(match edge.to_ascii_lowercase().as_str() {
                        "rising" | "posedge" | "high" => ClockEdge::Rising,
                        "falling" | "negedge" | "low" => ClockEdge::Falling,
                        other => {
                            return Err(parse_err(
                                line_no,
                                col,
                                format!("unknown clock edge `{other}`"),
                            ))
                        }
                    });
                }
            }
            "latch" => {
                entry.kind = Some(SeqKind::Latch);
                if let Some(p) = operands.first() {
                    let ports: u8 = p
                        .parse()
                        .map_err(|_| parse_err(line_no, col, format!("bad port count `{p}`")))?;
                    entry.ports = Some(ports.max(1));
                }
            }
            "set" => {
                let Some(word) = operands.first() else {
                    return Err(parse_err(
                        line_no,
                        col,
                        "pragma set needs a constraint".into(),
                    ));
                };
                entry.set = Some(parse_constraint(word, line_no, col)?);
            }
            "reset" => {
                let Some(word) = operands.first() else {
                    return Err(parse_err(
                        line_no,
                        col,
                        "pragma reset needs a constraint".into(),
                    ));
                };
                entry.reset = Some(parse_constraint(word, line_no, col)?);
            }
            other => {
                return Err(parse_err(line_no, col, format!("unknown pragma `{other}`")));
            }
        }
    }
    Ok(map)
}

/// Parses `.bench` text into a [`Netlist`].
///
/// # Errors
///
/// Returns [`NetlistError::Parse`] — with a 1-based line and byte column —
/// for malformed lines, and any error from [`NetlistBuilder::build`]
/// (unknown names, bad arity, validation failures). Malformed input never
/// panics: arbitrary bytes produce a typed error at worst.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), sla_netlist::NetlistError> {
/// let src = "\
/// INPUT(a)
/// INPUT(b)
/// OUTPUT(q)
/// g = NAND(a, b)
/// q = DFF(g)
/// ";
/// let n = sla_netlist::parser::parse_bench("tiny", src)?;
/// assert_eq!(n.num_gates(), 1);
/// assert_eq!(n.num_sequential(), 1);
/// # Ok(())
/// # }
/// ```
pub fn parse_bench(name: &str, text: &str) -> Result<Netlist> {
    let pragmas = collect_pragmas(text)?;
    let mut b = NetlistBuilder::new(name);

    // Cheap size pre-scan so the arena never reallocates during the parse:
    // every statement line defines at most one node, every fanin after the
    // first adds one comma. Over-estimates (comments, outputs) only cost
    // slack capacity.
    let lines = text.lines().count();
    let commas = text.bytes().filter(|&c| c == b',').count();
    b.reserve(lines, commas + lines, text.len());

    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let line = strip_trailing_comment(line);
        if line.is_empty() {
            continue;
        }
        let upper = line.to_ascii_uppercase();
        if let Some(arg) = parse_call(line, &upper, "INPUT") {
            b.input(arg.trim());
            continue;
        }
        if let Some(arg) = parse_call(line, &upper, "OUTPUT") {
            b.output(arg.trim())?;
            continue;
        }
        // Assignment: name = FUNC(args)
        let Some((before_eq, after_eq)) = line.split_once('=') else {
            return Err(parse_err(
                line_no,
                content_column(raw, 0),
                format!("expected `=` in `{line}`"),
            ));
        };
        let lhs = before_eq.trim();
        let rhs = after_eq.trim();
        // Offset of the trimmed right-hand side within the trimmed line.
        let rhs_at = before_eq.len() + 1 + (after_eq.len() - after_eq.trim_start().len());
        let Some(open) = rhs.find('(') else {
            return Err(parse_err(
                line_no,
                content_column(raw, rhs_at),
                format!("expected `(` in `{rhs}`"),
            ));
        };
        let Some(close) = rhs.rfind(')') else {
            return Err(parse_err(
                line_no,
                content_column(raw, rhs_at + open),
                format!("expected `)` in `{rhs}`"),
            ));
        };
        if close < open {
            // `g = AND)a,b(` — slicing `open + 1..close` would be a reversed
            // range; reject instead of panicking.
            return Err(parse_err(
                line_no,
                content_column(raw, rhs_at + close),
                format!("mismatched parentheses in `{rhs}`"),
            ));
        }
        // Both ranges are valid by construction (`open < close`, both from
        // `find` on `rhs`); fall through to the mismatch error rather than
        // slicing unchecked.
        let (Some(func_part), Some(args_str)) = (rhs.get(..open), rhs.get(open + 1..close)) else {
            return Err(parse_err(
                line_no,
                content_column(raw, rhs_at + close),
                format!("mismatched parentheses in `{rhs}`"),
            ));
        };
        let func = func_part.trim();
        let args: Vec<&str> = args_str
            .split(',')
            .map(|a| a.trim())
            .filter(|a| !a.is_empty())
            .collect();

        if func.eq_ignore_ascii_case("DFF") || func.eq_ignore_ascii_case("LATCH") {
            let [data] = args.as_slice() else {
                return Err(parse_err(
                    line_no,
                    content_column(raw, rhs_at),
                    format!("sequential element `{lhs}` needs exactly one data input"),
                ));
            };
            let mut info = SeqInfo::simple_ff();
            if func.eq_ignore_ascii_case("LATCH") {
                info.kind = SeqKind::Latch;
            }
            if let Some(over) = pragmas.get(lhs) {
                if let Some(c) = &over.clock {
                    info.clock = b.clock(c);
                }
                if let Some(e) = over.edge {
                    info.edge = e;
                }
                if let Some(k) = over.kind {
                    info.kind = k;
                }
                if let Some(p) = over.ports {
                    info.ports = p;
                }
                if let Some(s) = over.set {
                    info.set = s;
                }
                if let Some(r) = over.reset {
                    info.reset = r;
                }
            }
            b.seq(lhs, data, info)?;
        } else if let Some(gate) = GateType::from_bench_name(func) {
            b.gate(lhs, gate, &args)?;
        } else {
            return Err(parse_err(
                line_no,
                content_column(raw, rhs_at),
                format!("unknown gate function `{func}`"),
            ));
        }
    }

    b.build()
}

/// Returns the argument of `KEYWORD(arg)` — sliced from `line` — if the line
/// is such a call, otherwise `None`. Matching happens on `upper_line` (the
/// uppercased copy, same byte length) so the keyword is case-insensitive
/// while the returned argument keeps its original case.
fn parse_call<'a>(line: &'a str, upper_line: &str, keyword: &str) -> Option<&'a str> {
    let trimmed = upper_line.trim_start();
    let offset = upper_line.len() - trimmed.len();
    let rest = trimmed.strip_prefix(keyword)?;
    let rest_trim = rest.trim_start();
    if !rest_trim.starts_with('(') {
        return None;
    }
    let open = offset + keyword.len() + (rest.len() - rest_trim.len());
    let close = upper_line.rfind(')')?;
    // `close` precedes `open` only on garbage like `INPUT)…(`; treat that as
    // "not a call" and let the assignment path report the error.
    line.get(open + 1..close)
}
