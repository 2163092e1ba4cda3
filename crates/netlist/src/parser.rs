//! ISCAS-89 `.bench` parser with pragma extensions for real-circuit features.
//!
//! The classic `.bench` grammar is supported:
//!
//! ```text
//! # comment
//! INPUT(i1)
//! OUTPUT(o1)
//! g1 = AND(i1, f1)
//! f1 = DFF(g1)
//! ```
//!
//! Real circuits need clock-domain, latch and set/reset information, which the
//! original format lacks. This parser accepts `#pragma` comment directives
//! (ignored by other tools because they are comments):
//!
//! ```text
//! #pragma clock f1 clk_a falling
//! #pragma latch f2 2          # 2-port latch
//! #pragma set f3 unconstrained
//! #pragma reset f3 constrained
//! ```
//!
//! # Grammar
//!
//! One statement per line:
//!
//! ```text
//! statement := INPUT ( name ) | OUTPUT ( name )
//!            | name = function ( [ name { , name } ] )
//! ```
//!
//! A *name* is a run of characters other than whitespace (as `str::trim`
//! sees it, so U+00A0 and U+3000 count), `(`, `)`, `,`, `=` and `#`.
//! Whitespace may surround every token, `#` starts a comment that runs to the
//! end of the line, and keywords and function names are case-insensitive.
//! All the whitespace and comment variants seen in circulated ISCAS-89 files
//! are accepted: blank lines, indentation, tabs, CRLF line endings, full-line
//! `#` comments and trailing `# ...` comments after any statement. `BUFF`,
//! `INV`, `CONST0()` and multi-input `AND/NAND/OR/NOR/XOR/XNOR` parse
//! directly. Anything else on a statement line — text after the closing `)`,
//! an empty fanin slot (`AND(a,,b)`), a name with whitespace in it — is a
//! [`NetlistError::Parse`] with the line and byte column of the offending
//! token.
//!
//! # One pass
//!
//! The text is read once, by a byte-level statement scanner that allocates
//! nothing per line: keywords and function names are matched on bytes, and
//! one fanin buffer is reused for every gate. Before it, a single byte loop
//! counts lines and commas to size the arena, so construction never
//! reallocates. A `#pragma` may come before or after the element it
//! configures, so pragmas go into a small deferred table during the pass and
//! are applied before [`NetlistBuilder::build`], in declaration order of the
//! sequential elements; clock ids are therefore numbered by first use by a
//! flip-flop or latch in file order.
//!
//! Errors come out in file order: the first malformed statement or pragma
//! line is the one reported. Errors that need every name to be known (an
//! undefined fanin or output) come from the build, after the pass.

use crate::hash::FastHashMap;
use crate::{
    ClockEdge, ClockId, GateType, LineConstraint, Netlist, NetlistBuilder, NetlistError, Result,
    SeqInfo, SeqKind,
};

/// What `#pragma` lines set on the sequential element they name. A later
/// pragma overrides an earlier one field by field.
#[derive(Debug, Default, Clone, Copy)]
struct SeqOverride<'a> {
    clock: Option<&'a str>,
    edge: Option<ClockEdge>,
    kind: Option<SeqKind>,
    ports: Option<u8>,
    set: Option<LineConstraint>,
    reset: Option<LineConstraint>,
}

impl SeqOverride<'_> {
    /// Writes the overridden fields into `info`; `clock` is the id of
    /// `self.clock`, already interned.
    fn apply(&self, info: &mut SeqInfo, clock: Option<ClockId>) {
        if let Some(c) = clock {
            info.clock = c;
        }
        if let Some(e) = self.edge {
            info.edge = e;
        }
        if let Some(k) = self.kind {
            info.kind = k;
        }
        if let Some(p) = self.ports {
            info.ports = p;
        }
        if let Some(s) = self.set {
            info.set = s;
        }
        if let Some(r) = self.reset {
            info.reset = r;
        }
    }
}

/// Builds a [`NetlistError::Parse`] at a 1-based line/column position.
fn parse_err(line: usize, column: usize, message: String) -> NetlistError {
    NetlistError::Parse {
        line,
        column,
        message,
    }
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
    let is = |w: &str| word.eq_ignore_ascii_case(w);
    if is("unconstrained") {
        Ok(LineConstraint::Unconstrained)
    } else if is("constrained") {
        Ok(LineConstraint::Constrained)
    } else if is("absent") || is("none") {
        Ok(LineConstraint::Absent)
    } else {
        Err(parse_err(
            line_no,
            column,
            format!(
                "unknown set/reset constraint `{}`",
                word.to_ascii_lowercase()
            ),
        ))
    }
}

/// Records one `#pragma` line in the deferred table. `raw` is the whole
/// line, whose trimmed content starts with `#pragma`.
fn record_pragma<'a>(
    raw: &'a str,
    line_no: usize,
    table: &mut FastHashMap<&'a str, SeqOverride<'a>>,
) -> Result<()> {
    let line = raw.trim();
    let rest = line.strip_prefix("#pragma").unwrap_or_default();
    // Errors inside a pragma point at the directive word. A trailing
    // `# comment` after the pragma operands is legal.
    let col = raw.len() - raw.trim_start().len() + line.len() - rest.trim_start().len() + 1;
    let mut words = strip_trailing_comment(rest).split_whitespace();
    let (Some(directive), Some(target)) = (words.next(), words.next()) else {
        return Err(parse_err(
            line_no,
            col,
            "pragma needs a directive and a target".into(),
        ));
    };
    let (first, second) = (words.next(), words.next());
    let entry = table.entry(target).or_default();
    let is = |w: &str| directive.eq_ignore_ascii_case(w);
    if is("clock") {
        let Some(clock) = first else {
            return Err(parse_err(
                line_no,
                col,
                "pragma clock needs a clock name".into(),
            ));
        };
        entry.clock = Some(clock);
        if let Some(edge) = second {
            let is = |w: &str| edge.eq_ignore_ascii_case(w);
            entry.edge = Some(if is("rising") || is("posedge") || is("high") {
                ClockEdge::Rising
            } else if is("falling") || is("negedge") || is("low") {
                ClockEdge::Falling
            } else {
                return Err(parse_err(
                    line_no,
                    col,
                    format!("unknown clock edge `{}`", edge.to_ascii_lowercase()),
                ));
            });
        }
    } else if is("latch") {
        entry.kind = Some(SeqKind::Latch);
        if let Some(p) = first {
            let ports: u8 = p
                .parse()
                .map_err(|_| parse_err(line_no, col, format!("bad port count `{p}`")))?;
            entry.ports = Some(ports.max(1));
        }
    } else if is("set") || is("reset") {
        let Some(word) = first else {
            return Err(parse_err(
                line_no,
                col,
                format!(
                    "pragma {} needs a constraint",
                    directive.to_ascii_lowercase()
                ),
            ));
        };
        let constraint = parse_constraint(word, line_no, col)?;
        if is("set") {
            entry.set = Some(constraint);
        } else {
            entry.reset = Some(constraint);
        }
    } else {
        return Err(parse_err(
            line_no,
            col,
            format!("unknown pragma `{}`", directive.to_ascii_lowercase()),
        ));
    }
    Ok(())
}

/// One counting loop over the bytes, for the arena pre-size: every statement
/// line defines at most one node, and every fanin after a line's first adds
/// one comma. Over-estimates (comments, outputs) only cost slack capacity.
fn size_hint(bytes: &[u8]) -> (usize, usize) {
    bytes.iter().fold((1, 0), |(lines, commas), &b| {
        (
            lines + usize::from(b == b'\n'),
            commas + usize::from(b == b','),
        )
    })
}

/// What a function name on the right of `=` declares.
enum Function {
    Gate(GateType),
    Seq(SeqKind),
}

impl Function {
    /// Resolves a function name, case-insensitively, without allocating.
    fn from_name(name: &str) -> Option<Function> {
        if name.eq_ignore_ascii_case("DFF") {
            Some(Function::Seq(SeqKind::FlipFlop))
        } else if name.eq_ignore_ascii_case("LATCH") {
            Some(Function::Seq(SeqKind::Latch))
        } else {
            GateType::from_bench_name(name).map(Function::Gate)
        }
    }
}

/// The single pass: a byte cursor over the text plus the arena under
/// construction.
///
/// `pos` always sits on a character boundary: ASCII bytes advance it by one,
/// and a non-ASCII character is decoded and stepped over whole.
struct Parser<'a> {
    text: &'a str,
    /// Byte offset of the cursor.
    pos: usize,
    /// 1-based number of the cursor's line.
    line: usize,
    /// Byte offset where the cursor's line starts (columns count from it).
    line_start: usize,
    b: NetlistBuilder,
    /// Fanin names of the current gate; reused for every gate.
    fanins: Vec<&'a str>,
    /// Sequential elements in declaration order: `(node index, name)`.
    seqs: Vec<(usize, &'a str)>,
    /// Deferred `#pragma` settings by target name.
    pragmas: FastHashMap<&'a str, SeqOverride<'a>>,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    /// The character at the cursor, decoded; the slow path for non-ASCII
    /// bytes.
    fn char_at(&self) -> Option<char> {
        self.text.get(self.pos..)?.chars().next()
    }

    /// Skips whitespace up to, not past, the end of the line.
    fn skip_space(&mut self) {
        while let Some(c) = self.peek() {
            match c {
                b'\t' | 0x0b | 0x0c | b'\r' | b' ' => self.pos += 1,
                0x80.. => match self.char_at() {
                    Some(c) if c.is_whitespace() => self.pos += c.len_utf8(),
                    _ => return,
                },
                _ => return,
            }
        }
    }

    /// Scans a name: the longest run of characters other than whitespace,
    /// `(`, `)`, `,`, `=` and `#`. Empty when the cursor is on none.
    fn name(&mut self) -> &'a str {
        let start = self.pos;
        while let Some(c) = self.peek() {
            match c {
                b'(' | b')' | b',' | b'=' | b'#' | b'\t'..=b'\r' | b' ' => break,
                0..=0x7f => self.pos += 1,
                _ => match self.char_at() {
                    Some(c) if !c.is_whitespace() => self.pos += c.len_utf8(),
                    _ => break,
                },
            }
        }
        self.text.get(start..self.pos).unwrap_or_default()
    }

    /// Byte offset of the end of the cursor's line (its `\n`, or the end of
    /// the text).
    fn line_end(&self) -> usize {
        let rest = self.text.as_bytes().get(self.pos..).unwrap_or_default();
        rest.iter()
            .position(|&c| c == b'\n')
            .map_or(self.text.len(), |i| self.pos + i)
    }

    /// A parse error at byte offset `at` of the cursor's line.
    fn error(&self, at: usize, message: String) -> NetlistError {
        parse_err(self.line, at - self.line_start + 1, message)
    }

    /// A parse error at `at` saying `what` is wrong with the statement text
    /// that starts at `from` (quoted up to its comment).
    fn syntax_error(&self, at: usize, what: &str, from: usize) -> NetlistError {
        let text = self.text.get(from..self.line_end()).unwrap_or_default();
        let stmt = strip_trailing_comment(text.trim());
        self.error(at, format!("{what} in `{stmt}`"))
    }

    /// Steps over the `)` that closes a statement's argument list.
    fn close_paren(&mut self, stmt: usize) -> Result<()> {
        if self.peek() == Some(b')') {
            self.pos += 1;
            return Ok(());
        }
        Err(self.syntax_error(self.pos, "expected `)`", stmt))
    }

    /// Ends a statement: only whitespace and a `# comment` may follow it on
    /// its line. Leaves the cursor on the line's `\n`.
    fn end_statement(&mut self, stmt: usize) -> Result<()> {
        self.skip_space();
        match self.peek() {
            None | Some(b'\n') => Ok(()),
            Some(b'#') => {
                self.pos = self.line_end();
                Ok(())
            }
            Some(_) => Err(self.syntax_error(self.pos, "unexpected text after `)`", stmt)),
        }
    }

    /// Runs the pass over the whole text.
    fn run(&mut self) -> Result<()> {
        loop {
            self.skip_space();
            match self.peek() {
                None => return Ok(()),
                Some(b'\n') => {
                    self.pos += 1;
                    self.line += 1;
                    self.line_start = self.pos;
                }
                Some(b'#') => {
                    let end = self.line_end();
                    let rest = self.text.get(self.pos..).unwrap_or_default();
                    if rest.starts_with("#pragma") {
                        let raw = self.text.get(self.line_start..end).unwrap_or_default();
                        record_pragma(raw, self.line, &mut self.pragmas)?;
                    }
                    self.pos = end;
                }
                Some(_) => self.statement()?,
            }
        }
    }

    /// Parses one statement, starting at its first character.
    fn statement(&mut self) -> Result<()> {
        let stmt = self.pos;
        let first = self.name();
        self.skip_space();
        let input = first.eq_ignore_ascii_case("INPUT");
        match self.peek() {
            Some(b'(') if input || first.eq_ignore_ascii_case("OUTPUT") => {
                self.pos += 1;
                self.skip_space();
                let at = self.pos;
                let arg = self.name();
                if arg.is_empty() {
                    return Err(self.syntax_error(at, "expected a name", stmt));
                }
                self.skip_space();
                self.close_paren(stmt)?;
                self.end_statement(stmt)?;
                if input {
                    self.b.input(arg);
                    Ok(())
                } else {
                    self.b.output(arg)
                }
            }
            Some(b'=') if !first.is_empty() => self.assignment(stmt, first),
            Some(b'=') => Err(self.syntax_error(stmt, "expected a node name before `=`", stmt)),
            _ => Err(self.syntax_error(stmt, "expected `=`", stmt)),
        }
    }

    /// Parses `lhs = FUNC(args)` from the `=` on.
    fn assignment(&mut self, stmt: usize, lhs: &'a str) -> Result<()> {
        self.pos += 1;
        self.skip_space();
        let rhs = self.pos;
        let func = self.name();
        self.skip_space();
        match self.peek() {
            Some(b'(') => self.pos += 1,
            // `g = AND)a,b(` and the like.
            Some(b')') => return Err(self.syntax_error(rhs, "mismatched parentheses", rhs)),
            _ => return Err(self.syntax_error(rhs, "expected `(`", rhs)),
        }
        let Some(function) = Function::from_name(func) else {
            return Err(self.error(rhs, format!("unknown gate function `{func}`")));
        };

        self.fanins.clear();
        self.skip_space();
        if self.peek() != Some(b')') {
            loop {
                let at = self.pos;
                let arg = self.name();
                if arg.is_empty() {
                    return Err(self.syntax_error(at, "expected a fanin name", rhs));
                }
                self.fanins.push(arg);
                self.skip_space();
                if self.peek() != Some(b',') {
                    break;
                }
                self.pos += 1;
                self.skip_space();
            }
        }
        self.close_paren(stmt)?;
        self.end_statement(stmt)?;

        match function {
            Function::Gate(gate) => self.b.gate(lhs, gate, &self.fanins),
            Function::Seq(kind) => {
                let &[data] = self.fanins.as_slice() else {
                    return Err(self.error(
                        rhs,
                        format!("sequential element `{lhs}` needs exactly one data input"),
                    ));
                };
                let node = self.b.len();
                self.b.seq(
                    lhs,
                    data,
                    SeqInfo {
                        kind,
                        ..SeqInfo::simple_ff()
                    },
                )?;
                self.seqs.push((node, lhs));
                Ok(())
            }
        }
    }

    /// Applies the deferred pragmas to the sequential elements in
    /// declaration order, so clock ids are numbered by first use.
    fn apply_pragmas(&mut self) {
        for &(node, name) in &self.seqs {
            let Some(over) = self.pragmas.get(name) else {
                continue;
            };
            let clock = over.clock.map(|c| self.b.clock(c));
            if let Some(info) = self.b.seq_info_mut(node) {
                over.apply(info, clock);
            }
        }
    }
}

/// Parses `.bench` text into a [`Netlist`].
///
/// # Errors
///
/// Returns [`NetlistError::Parse`] — with a 1-based line and byte column —
/// for malformed lines, and any error from [`NetlistBuilder::build`]
/// (unknown names, bad arity, validation failures). Statement and pragma
/// errors come in file order. Malformed input never panics: arbitrary bytes
/// produce a typed error at worst.
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
    let mut b = NetlistBuilder::new(name);
    let (lines, commas) = size_hint(text.as_bytes());
    b.reserve(lines, commas + lines, text.len());
    let mut p = Parser {
        text,
        pos: 0,
        line: 1,
        line_start: 0,
        b,
        fanins: Vec::new(),
        seqs: Vec::new(),
        pragmas: FastHashMap::default(),
    };
    p.run()?;
    p.apply_pragmas();
    p.b.build()
}

/// Reads and parses a `.bench` file from disk. The circuit is named after the
/// file stem (`s38417.bench` → `s38417`).
///
/// # Errors
///
/// Returns [`NetlistError::Io`] when the file cannot be read, otherwise any
/// error [`parse_bench`] produces.
pub fn parse_bench_file(path: impl AsRef<std::path::Path>) -> Result<Netlist> {
    let path = path.as_ref();
    let text = std::fs::read_to_string(path)
        .map_err(|e| NetlistError::Io(format!("{}: {e}", path.display())))?;
    let name = path
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("netlist");
    parse_bench(name, &text)
}

#[cfg(test)]
mod tests {
    use super::*;

    const S27_LIKE: &str = "\
# a tiny sequential circuit
INPUT(G0)
INPUT(G1)
INPUT(G2)
INPUT(G3)
OUTPUT(G17)
G5 = DFF(G10)
G6 = DFF(G11)
G7 = DFF(G13)
G14 = NOT(G0)
G17 = NOT(G11)
G8 = AND(G14, G6)
G15 = OR(G12, G8)
G16 = OR(G3, G8)
G9 = NAND(G16, G15)
G10 = NOR(G14, G11)
G11 = NOR(G5, G9)
G12 = NOR(G1, G7)
G13 = NAND(G2, G12)
";

    #[test]
    fn parses_s27_like_circuit() {
        let n = parse_bench("s27", S27_LIKE).unwrap();
        assert_eq!(n.inputs().len(), 4);
        assert_eq!(n.outputs().len(), 1);
        assert_eq!(n.num_sequential(), 3);
        assert_eq!(n.num_gates(), 10);
        assert!(n.validate().is_ok());
    }

    #[test]
    fn pragma_clock_and_reset_apply() {
        let src = "\
INPUT(a)
OUTPUT(q)
#pragma clock q clk_b falling
#pragma reset q unconstrained
q = DFF(a)
";
        let n = parse_bench("p", src).unwrap();
        let q = n.require("q").unwrap();
        let info = n.seq_info(q).unwrap();
        assert_eq!(n.clock_name(info.clock), "clk_b");
        assert_eq!(info.edge, ClockEdge::Falling);
        assert_eq!(info.reset, LineConstraint::Unconstrained);
        assert_eq!(info.set, LineConstraint::Absent);
    }

    #[test]
    fn pragma_latch_ports() {
        let src = "\
INPUT(a)
OUTPUT(q)
#pragma latch q 2
q = LATCH(a)
";
        let n = parse_bench("p", src).unwrap();
        let info = *n.seq_info(n.require("q").unwrap()).unwrap();
        assert_eq!(info.kind, SeqKind::Latch);
        assert_eq!(info.ports, 2);
    }

    #[test]
    fn malformed_line_reports_line_number() {
        let src = "INPUT(a)\ngarbage line\n";
        let err = parse_bench("bad", src).unwrap_err();
        match err {
            NetlistError::Parse { line, column, .. } => {
                assert_eq!(line, 2);
                assert_eq!(column, 1);
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn parse_errors_carry_columns() {
        // Missing `(`: the column points at the right-hand side.
        let err = parse_bench("bad", "INPUT(a)\n  g = AND a, b\n").unwrap_err();
        match err {
            NetlistError::Parse { line, column, .. } => {
                assert_eq!(line, 2);
                assert_eq!(column, 7); // the `A` of `AND` in `  g = AND a, b`
            }
            other => panic!("unexpected error {other:?}"),
        }
        // Indentation counts: a shifted bad line shifts the column.
        let err = parse_bench("bad", "    garbage\n").unwrap_err();
        match err {
            NetlistError::Parse { line, column, .. } => {
                assert_eq!(line, 1);
                assert_eq!(column, 5);
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn reversed_parentheses_are_an_error_not_a_panic() {
        // `close < open` used to slice a reversed range and panic.
        let src = "INPUT(a)\nINPUT(b)\ng = AND)a,b(\n";
        let err = parse_bench("bad", src).unwrap_err();
        match err {
            NetlistError::Parse { line, message, .. } => {
                assert_eq!(line, 3);
                assert!(message.contains("mismatched parentheses"), "{message}");
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn unknown_gate_rejected() {
        let src = "INPUT(a)\nOUTPUT(g)\ng = FOO(a)\n";
        assert!(matches!(
            parse_bench("bad", src),
            Err(NetlistError::Parse { .. })
        ));
    }

    #[test]
    fn unknown_pragma_rejected() {
        let src = "#pragma frobnicate q\nINPUT(a)\nOUTPUT(a)\n";
        assert!(matches!(
            parse_bench("bad", src),
            Err(NetlistError::Parse { .. })
        ));
    }

    #[test]
    fn dff_with_two_inputs_rejected() {
        let src = "INPUT(a)\nINPUT(b)\nOUTPUT(q)\nq = DFF(a, b)\n";
        assert!(matches!(
            parse_bench("bad", src),
            Err(NetlistError::Parse { .. })
        ));
    }

    #[test]
    fn buff_alias_and_case_insensitivity() {
        let src = "INPUT(a)\nOUTPUT(g)\ng = buff(a)\n";
        let n = parse_bench("ok", src).unwrap();
        assert_eq!(
            n.kind(n.require("g").unwrap()).gate_type(),
            Some(GateType::Buf)
        );
    }

    #[test]
    fn trailing_comments_whitespace_and_crlf_variants() {
        // Tabs, CRLF endings, trailing comments after statements and pragmas,
        // and a comment containing parentheses — all seen in circulated
        // ISCAS-89 files.
        let src = "INPUT(a)   # first input (primary)\r\n\
                   \tINPUT( b )\t# tabbed\r\n\
                   OUTPUT(q) # observed\r\n\
                   #pragma clock q clk_b falling # non-default domain\r\n\
                   g = NAND(a, b) # g(a,b)\r\n\
                   q = DFF(g)\r\n\
                   \r\n";
        let n = parse_bench("messy", src).unwrap();
        assert_eq!(n.inputs().len(), 2);
        assert_eq!(n.num_gates(), 1);
        assert_eq!(n.num_sequential(), 1);
        let info = n.seq_info(n.require("q").unwrap()).unwrap();
        assert_eq!(n.clock_name(info.clock), "clk_b");
        assert_eq!(info.edge, ClockEdge::Falling);
        // A line that is only a comment after stripping is skipped.
        assert!(parse_bench("c", "INPUT(a)\nOUTPUT(a)\n   # note\n").is_ok());
    }

    #[test]
    fn wide_gates_parse() {
        let mut src = String::from("OUTPUT(g)\n");
        let args: Vec<String> = (0..64).map(|i| format!("i{i}")).collect();
        for a in &args {
            src.push_str(&format!("INPUT({a})\n"));
        }
        src.push_str(&format!("g = NOR({})\n", args.join(", ")));
        let n = parse_bench("wide", &src).unwrap();
        let g = n.require("g").unwrap();
        assert_eq!(n.fanins(g).len(), 64);
        assert_eq!(n.kind(g).gate_type(), Some(GateType::Nor));
    }

    #[test]
    fn parse_bench_file_reads_from_disk() {
        let dir = std::env::temp_dir().join("sla_parse_bench_file_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("tiny27.bench");
        std::fs::write(&path, S27_LIKE).unwrap();
        let n = parse_bench_file(&path).unwrap();
        assert_eq!(n.name(), "tiny27");
        assert_eq!(n.num_gates(), 10);
        let missing = dir.join("does_not_exist.bench");
        assert!(matches!(
            parse_bench_file(&missing),
            Err(NetlistError::Io(_))
        ));
    }

    /// The `(line, column)` of the parse error `src` yields.
    fn error_at(src: &str) -> (usize, usize) {
        match parse_bench("bad", src) {
            Err(NetlistError::Parse { line, column, .. }) => (line, column),
            other => panic!("expected a parse error for {src:?}, got {other:?}"),
        }
    }

    #[test]
    fn text_after_the_closing_paren_is_rejected() {
        let head = "INPUT(a)\nINPUT(b)\nOUTPUT(g)\n";
        assert_eq!(error_at(&format!("{head}g = AND(a, b) junk\n")), (4, 15));
        assert_eq!(error_at("INPUT(a) trailing\nOUTPUT(a)\n"), (1, 10));
        // `INPUT(a)(b)` used to define an input named `a)(b`.
        assert_eq!(error_at("INPUT(a)(b)\nOUTPUT(a)\n"), (1, 9));
    }

    #[test]
    fn empty_fanin_slots_are_rejected() {
        let head = "INPUT(a)\nOUTPUT(g)\n";
        assert_eq!(error_at(&format!("{head}g = AND(a,,a)\n")), (3, 11));
        assert_eq!(error_at(&format!("{head}g = AND(, a)\n")), (3, 9));
        assert_eq!(error_at(&format!("{head}g = AND(a, )\n")), (3, 12));
        assert_eq!(error_at(&format!("{head}g = DFF(a,)\n")), (3, 11));
        assert_eq!(error_at("INPUT()\n"), (1, 7));
    }

    #[test]
    fn names_with_whitespace_or_separators_are_rejected() {
        let head = "INPUT(a)\nOUTPUT(a)\n";
        // `g h = NOT(a)` used to define a node named `g h`.
        assert_eq!(error_at(&format!("{head}g h = NOT(a)\n")), (3, 1));
        assert_eq!(error_at(&format!("{head}g\u{a0}h = NOT(a)\n")), (3, 1));
        assert_eq!(error_at(&format!("{head}g = NOT(a b)\n")), (3, 11));
        assert_eq!(error_at(&format!("{head}g = AND(a, b c)\n")), (3, 14));
        assert_eq!(error_at("INPUT(a b)\n"), (1, 9));
        assert_eq!(error_at("INPUT(a,b)\n"), (1, 8));
        assert_eq!(error_at(&format!("{head}= NOT(a)\n")), (3, 1));
    }

    #[test]
    fn legal_variants_stay_legal() {
        // Trailing comments, whitespace (Unicode included) around names,
        // `CONST0()` and case-insensitive keywords.
        let src = "input( a )\t# first\n\
                   Output(g)\n\
                   z = const0( )\n\
                   \u{3000}g\u{a0}=\u{a0}aNd(a ,\u{3000}z) # g(a,z)\r\n\
                   q = dff(g)\n";
        let n = parse_bench("ok", src).unwrap();
        assert_eq!(n.inputs().len(), 1);
        assert_eq!(n.num_gates(), 2);
        assert_eq!(n.num_sequential(), 1);
        let g = n.require("g").unwrap();
        assert_eq!(n.kind(g).gate_type(), Some(GateType::And));
        let fanins: Vec<&str> = n.fanins(g).iter().map(|&f| n.node_name(f)).collect();
        assert_eq!(fanins, ["a", "z"]);
        // A keyword is a keyword only in front of `(`.
        let n = parse_bench("kw", "INPUT(a)\nINPUT = NOT(a)\nOUTPUT(INPUT)\n").unwrap();
        assert_eq!(n.num_gates(), 1);
    }

    #[test]
    fn errors_are_reported_in_file_order() {
        // A bad statement before a bad pragma: the statement is reported,
        // where a separate pragma pass used to report the pragma first.
        let src = "INPUT(a)\ng = NOT(a) junk\n#pragma frobnicate q\n";
        assert_eq!(error_at(src), (2, 12));
        // And the other way round.
        let src = "INPUT(a)\n#pragma frobnicate q\ng = NOT(a) junk\n";
        assert_eq!(error_at(src), (2, 9));
    }

    #[test]
    fn size_hint_counts_lines_and_commas() {
        let text = "a,\n".repeat(700);
        assert_eq!(size_hint(text.as_bytes()), (701, 700));
        assert_eq!(size_hint(b""), (1, 0));
    }

    #[test]
    fn pragmas_may_follow_their_element_and_clocks_number_by_first_use() {
        // `q2` is declared first, so its clock gets id 1 even though the
        // pragma for `q1` comes first in the text; both pragmas follow
        // their elements.
        let src = "\
INPUT(a)
OUTPUT(q1)
OUTPUT(q2)
q2 = DFF(a)
q1 = DFF(a)
#pragma clock q1 clk_x falling
#pragma latch q2 3
#pragma clock q2 clk_y
#pragma set q2 constrained
";
        let n = parse_bench("late", src).unwrap();
        assert_eq!(n.clocks(), ["clk", "clk_y", "clk_x"]);
        let q1 = *n.seq_info(n.require("q1").unwrap()).unwrap();
        assert_eq!((q1.clock.index(), q1.edge), (2, ClockEdge::Falling));
        let q2 = *n.seq_info(n.require("q2").unwrap()).unwrap();
        assert_eq!(
            (q2.clock.index(), q2.kind, q2.ports),
            (1, SeqKind::Latch, 3)
        );
        assert_eq!(q2.set, LineConstraint::Constrained);
        // A pragma naming a gate or an unknown node changes nothing.
        let plain = parse_bench("p", "INPUT(a)\nOUTPUT(g)\ng = NOT(a)\n").unwrap();
        let src = "INPUT(a)\nOUTPUT(g)\ng = NOT(a)\n#pragma clock g c\n#pragma clock x c\n";
        assert_eq!(parse_bench("p", src).unwrap(), plain);
    }
}
