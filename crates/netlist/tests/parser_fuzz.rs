//! Robustness fuzzing of the `.bench` parser.
//!
//! The resilience contract for the parser is: **arbitrary bytes never
//! panic** — malformed input yields a typed [`NetlistError::Parse`] with a
//! line/column position — and **accepted inputs are round-trip stable**:
//! `write_bench(parse(x))` parses back to an equivalent netlist, and a second
//! write is a fixed point.
//!
//! The fuzzer mutates a known-good netlist with seeded byte edits (flips,
//! insertions biased toward syntax bytes, deletions, truncation), so most
//! cases stay near the grammar where the interesting breakage lives.
//!
//! Every case is also run through the parser this one replaced, kept
//! verbatim in `reference_parser/` (see [`agrees_with_reference`]).

mod reference_parser;

use proptest::prelude::*;
use sla_netlist::parser::parse_bench;
use sla_netlist::writer::write_bench;
use sla_netlist::NetlistError;

const BASE: &str = "\
# fuzz base circuit
INPUT(G0)
INPUT(G1)
INPUT(G2)
OUTPUT(G17)
OUTPUT(G22)
#pragma clock G7 clk_b falling
#pragma latch G7 2
#pragma set G7 unconstrained
G5 = DFF(G10)
G7 = LATCH(G13)
G14 = NOT(G0)
G17 = NOT(G11)
G8 = AND(G14, G5)
G16 = OR(G2, G8)
G10 = NOR(G14, G11)
G11 = NOR(G5, G16)
G13 = NAND(G1, G8)
G20 = AND(G0, G1, G2, G8)  # 4-input gate
#pragma clock G21 clk_c
G21 = DFF(G20)
G22 = BUFF(G21)
#pragma clock G5 clk_c rising
";

/// Bytes the mutator inserts/overwrites with, biased toward the grammar's
/// structural characters so mutations hit parser decision points.
const POOL: &[u8] = b"()=,# \nABDFINORTUX019abgq\t\xff";

/// Whitespace outside ASCII, which `str::trim` strips and a byte scanner
/// has to decode: U+00A0 (no-break space) and U+3000 (ideographic space).
const WIDE: &[&str] = &["\u{a0}", "\u{3000}"];

/// One piece for the mutator: a byte of [`POOL`] or a character of [`WIDE`].
fn piece(rng: &mut TestRng) -> &'static [u8] {
    let i = (rng.next_u64() as usize) % (POOL.len() + WIDE.len());
    match POOL.get(i..=i) {
        Some(byte) => byte,
        None => WIDE[i - POOL.len()].as_bytes(),
    }
}

/// Applies `edits` seeded mutations to `bytes`.
fn mutate(bytes: &mut Vec<u8>, rng: &mut TestRng, edits: usize) {
    for _ in 0..edits {
        match rng.next_u64() % 4 {
            0 if !bytes.is_empty() => {
                // Overwrite one byte.
                let idx = (rng.next_u64() as usize) % bytes.len();
                let p = piece(rng);
                bytes.splice(idx..=idx, p.iter().copied());
            }
            1 => {
                // Insert one piece.
                let idx = (rng.next_u64() as usize) % (bytes.len() + 1);
                let p = piece(rng);
                bytes.splice(idx..idx, p.iter().copied());
            }
            2 if !bytes.is_empty() => {
                // Delete one byte.
                let idx = (rng.next_u64() as usize) % bytes.len();
                bytes.remove(idx);
            }
            3 if bytes.len() > 1 => {
                // Truncate (drop a short suffix so the text stays non-trivial).
                let keep = bytes.len() - 1 - (rng.next_u64() as usize) % (bytes.len() / 2 + 1);
                bytes.truncate(keep.max(1));
            }
            _ => {}
        }
    }
}

/// Whether `name` is a name of the grammar: a non-empty run of characters
/// other than whitespace, `(`, `)`, `,`, `=` and `#`.
fn is_name(name: &str) -> bool {
    !name.is_empty()
        && !name
            .chars()
            .any(|c| c.is_whitespace() || "(),=#".contains(c))
}

/// Whether statement line `line` (its comment already stripped) is in the
/// strict grammar: `KEYWORD(name)` or `name = FUNC(name, …)`, with
/// whitespace only around tokens and nothing after the closing `)`.
/// Written with `str` splitting, independently of the parser's scanner.
fn strict(line: &str) -> bool {
    let Some(body) = line.trim().strip_suffix(')') else {
        return false;
    };
    let Some((head, args)) = body.split_once('(') else {
        return false;
    };
    let args: Vec<&str> = args.split(',').map(str::trim).collect();
    match head.split_once('=') {
        Some((lhs, func)) => {
            is_name(lhs.trim())
                && is_name(func.trim())
                && (args.iter().all(|a| is_name(a)) || args == [""])
        }
        None => {
            let keyword = head.trim();
            (keyword.eq_ignore_ascii_case("INPUT") || keyword.eq_ignore_ascii_case("OUTPUT"))
                && matches!(args[..], [arg] if is_name(arg))
        }
    }
}

/// The differential contract against the parser this one replaced:
/// - an input the parser accepts, the reference accepts too, with an equal
///   netlist and an equal structural hash;
/// - an input the reference rejects, the parser rejects;
/// - the parser rejects an input the reference accepts only with a parse
///   error on a statement line outside the strict grammar: text after the
///   closing `)`, an empty fanin slot, or a name with whitespace or a
///   separator in it.
fn agrees_with_reference(text: &str) {
    match (
        parse_bench("diff", text),
        reference_parser::parse_bench("diff", text),
    ) {
        (Ok(new), Ok(old)) => {
            assert_eq!(new, old, "netlists differ on {text:?}");
            assert_eq!(new.structural_hash(), old.structural_hash());
        }
        (Ok(_), Err(e)) => panic!("accepted what the reference rejects ({e}): {text:?}"),
        (Err(_), Err(_)) => {}
        (Err(e), Ok(_)) => {
            let NetlistError::Parse { line, .. } = e else {
                panic!("reference accepts, parser fails with {e}: {text:?}");
            };
            let raw = text.lines().nth(line - 1).unwrap_or_default();
            let stmt = raw.split('#').next().unwrap_or_default();
            assert!(
                !raw.trim().starts_with('#') && !strict(stmt),
                "rejected a well-formed line {line} ({e}): {raw:?} in {text:?}"
            );
        }
    }
}

/// A well-formed sequential circuit: DFFs, multi-input gates (up to 5
/// fanins), `BUFF`/`NOT`, trailing comments, and clock pragmas before or
/// after the flip-flops they configure, over several clocks.
fn generated_source(seed: u64) -> String {
    let mut rng = TestRng::new(seed ^ 0x5eed_cafe);
    let n_inputs = 1 + (rng.next_u64() % 5) as usize;
    let n_ffs = (rng.next_u64() % 4) as usize;
    let n_gates = 1 + (rng.next_u64() % 10) as usize;

    let mut lines = Vec::new();
    let mut pool: Vec<String> = Vec::new();
    for i in 0..n_inputs {
        lines.push(format!("INPUT(i{i})"));
        pool.push(format!("i{i}"));
    }
    // Flip-flop data fanins reference gates declared *later* — forward
    // references are part of the grammar.
    for f in 0..n_ffs {
        let data = rng.next_u64() as usize % n_gates;
        lines.push(format!("q{f} = DFF(g{data})"));
        pool.push(format!("q{f}"));
    }
    const FUNCS: &[&str] = &["AND", "NAND", "OR", "NOR", "XOR", "XNOR", "NOT", "BUFF"];
    for g in 0..n_gates {
        let func = FUNCS[rng.next_u64() as usize % FUNCS.len()];
        let arity = if matches!(func, "NOT" | "BUFF") {
            1
        } else {
            2 + (rng.next_u64() % 4) as usize
        };
        let fanins: Vec<&str> = (0..arity)
            .map(|_| pool[rng.next_u64() as usize % pool.len()].as_str())
            .collect();
        let comment = if rng.next_u64().is_multiple_of(3) {
            "  # gen"
        } else {
            ""
        };
        lines.push(format!("g{g} = {func}({}){comment}", fanins.join(", ")));
        // Only earlier gates feed later ones, so the circuit is acyclic.
        pool.push(format!("g{g}"));
    }
    for _ in 0..1 + rng.next_u64() % 3 {
        let pick = &pool[n_inputs + (rng.next_u64() as usize) % (pool.len() - n_inputs)];
        lines.push(format!("OUTPUT({pick})"));
    }
    for f in 0..n_ffs {
        if rng.next_u64().is_multiple_of(2) {
            let clock = rng.next_u64() % 3;
            let at = (rng.next_u64() as usize) % (lines.len() + 1);
            lines.insert(at, format!("#pragma clock q{f} clk{clock} falling"));
        }
    }
    lines.join("\n") + "\n"
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Mutated `.bench` bytes must parse to `Ok` or a typed error — any
    /// panic fails this test — and every accepted input must survive a
    /// write → parse → write round trip.
    #[test]
    fn mutated_bench_text_never_panics_and_round_trips(
        seed in 0u64..100_000,
        edits in 1usize..24,
    ) {
        let mut rng = TestRng::new(seed);
        let mut bytes = BASE.as_bytes().to_vec();
        mutate(&mut bytes, &mut rng, edits);
        let text = String::from_utf8_lossy(&bytes);
        // The no-panic claim: this call returning (Ok or Err) IS the check.
        if let Ok(parsed) = parse_bench("fuzz", &text) {
            let written = write_bench(&parsed);
            let reparsed = parse_bench("fuzz", &written)
                .expect("writer output of an accepted netlist must parse");
            prop_assert_eq!(parsed.inputs().len(), reparsed.inputs().len());
            prop_assert_eq!(parsed.outputs().len(), reparsed.outputs().len());
            prop_assert_eq!(parsed.num_gates(), reparsed.num_gates());
            prop_assert_eq!(parsed.num_sequential(), reparsed.num_sequential());
            // Fixed point: a second write emits byte-identical text.
            prop_assert_eq!(written, write_bench(&reparsed));
        }
        agrees_with_reference(&text);
    }

    /// Generated well-formed sequential circuits must parse, and
    /// write → parse must reproduce the exact structure name-for-name.
    #[test]
    fn generated_seq_netlists_round_trip(seed in 0u64..50_000) {
        let src = generated_source(seed);
        let n1 = parse_bench("gen", &src).expect("generated text is well-formed");
        agrees_with_reference(&src);
        let written = write_bench(&n1);
        let n2 = parse_bench("gen", &written).expect("writer output must parse");
        prop_assert_eq!(n1.num_nodes(), n2.num_nodes());
        prop_assert_eq!(n1.outputs().len(), n2.outputs().len());
        for id in n1.node_ids() {
            let name = n1.node_name(id);
            let id2 = n2.require(name).expect("same names");
            prop_assert_eq!(n1.kind(id), n2.kind(id2), "kind of {}", name);
            let f1: Vec<&str> = n1.fanins(id).iter().map(|&f| n1.node_name(f)).collect();
            let f2: Vec<&str> = n2.fanins(id2).iter().map(|&f| n2.node_name(f)).collect();
            prop_assert_eq!(f1, f2, "fanins of {}", name);
        }
        prop_assert_eq!(written, write_bench(&n2));
    }

    /// Pure-noise inputs (no valid base) also never panic.
    #[test]
    fn random_byte_soup_never_panics(seed in 0u64..100_000, len in 0usize..160) {
        let mut rng = TestRng::new(seed ^ 0x9e37_79b9_7f4a_7c15);
        let mut bytes = Vec::new();
        for _ in 0..len {
            bytes.extend_from_slice(piece(&mut rng));
        }
        let text = String::from_utf8_lossy(&bytes);
        agrees_with_reference(&text);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// Every single-edit neighbour of the base circuit, and of a generated
    /// one, agrees with the reference parser.
    #[test]
    fn single_edits_agree_with_the_reference(seed in 0u64..1_000_000, base in 0u64..4) {
        let mut rng = TestRng::new(seed);
        let source = if base == 0 { BASE.to_string() } else { generated_source(seed) };
        let mut bytes = source.into_bytes();
        mutate(&mut bytes, &mut rng, 1);
        agrees_with_reference(&String::from_utf8_lossy(&bytes));
    }
}
