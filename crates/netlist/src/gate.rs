use crate::seq::SeqInfo;
use std::fmt;

/// Combinational gate functions supported by the netlist model.
///
/// The set mirrors the ISCAS-89 benchmark vocabulary plus explicit constants,
/// which the learning engine uses to encode tied gates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum GateType {
    /// Logical AND of all fanins (1 or more).
    And,
    /// Logical NAND of all fanins (1 or more).
    Nand,
    /// Logical OR of all fanins (1 or more).
    Or,
    /// Logical NOR of all fanins (1 or more).
    Nor,
    /// Logical XOR of all fanins (1 or more).
    Xor,
    /// Logical XNOR of all fanins (1 or more).
    Xnor,
    /// Inverter (exactly 1 fanin).
    Not,
    /// Buffer (exactly 1 fanin).
    Buf,
    /// Constant logic 0 (no fanins).
    Const0,
    /// Constant logic 1 (no fanins).
    Const1,
}

impl GateType {
    /// Returns `true` if `n` is a legal fanin count for this gate type.
    pub fn arity_ok(self, n: usize) -> bool {
        match self {
            GateType::Not | GateType::Buf => n == 1,
            GateType::Const0 | GateType::Const1 => n == 0,
            _ => n >= 1,
        }
    }

    /// The value which, when present on any input, fully determines the output
    /// (the *controlling* value), if the gate has one.
    pub fn controlling_value(self) -> Option<bool> {
        match self {
            GateType::And | GateType::Nand => Some(false),
            GateType::Or | GateType::Nor => Some(true),
            _ => None,
        }
    }

    /// The output value produced when a controlling value is present on an input.
    pub fn controlled_response(self) -> Option<bool> {
        match self {
            GateType::And => Some(false),
            GateType::Nand => Some(true),
            GateType::Or => Some(true),
            GateType::Nor => Some(false),
            _ => None,
        }
    }

    /// Whether the gate inverts its "natural" (AND/OR/parity) function.
    pub fn inverts(self) -> bool {
        matches!(
            self,
            GateType::Nand | GateType::Nor | GateType::Xnor | GateType::Not
        )
    }

    /// Canonical upper-case name as used in `.bench` files.
    pub fn bench_name(self) -> &'static str {
        match self {
            GateType::And => "AND",
            GateType::Nand => "NAND",
            GateType::Or => "OR",
            GateType::Nor => "NOR",
            GateType::Xor => "XOR",
            GateType::Xnor => "XNOR",
            GateType::Not => "NOT",
            GateType::Buf => "BUF",
            GateType::Const0 => "CONST0",
            GateType::Const1 => "CONST1",
        }
    }

    /// Upper-case name in the ISCAS-89 benchmark dialect, which spells the
    /// buffer `BUFF`. Use this when emitting `.bench` text meant to be read by
    /// other ISCAS tools; [`GateType::bench_name`] stays the canonical
    /// internal spelling (structural hashes are computed over it).
    pub fn iscas_name(self) -> &'static str {
        match self {
            GateType::Buf => "BUFF",
            other => other.bench_name(),
        }
    }

    /// Parses a `.bench` gate keyword (case-insensitive). `BUFF` is accepted as
    /// an alias for `BUF`. Allocates nothing: the keyword is upper-cased into
    /// a stack buffer as long as the longest one.
    pub fn from_bench_name(s: &str) -> Option<GateType> {
        let mut buf = [0u8; 6];
        let up = buf.get_mut(..s.len())?;
        for (u, c) in up.iter_mut().zip(s.bytes()) {
            *u = c.to_ascii_uppercase();
        }
        Some(match &*up {
            b"AND" => GateType::And,
            b"NAND" => GateType::Nand,
            b"OR" => GateType::Or,
            b"NOR" => GateType::Nor,
            b"XOR" => GateType::Xor,
            b"XNOR" => GateType::Xnor,
            b"NOT" | b"INV" => GateType::Not,
            b"BUF" | b"BUFF" => GateType::Buf,
            b"CONST0" | b"TIE0" => GateType::Const0,
            b"CONST1" | b"TIE1" => GateType::Const1,
            _ => return None,
        })
    }

    /// All gate types, useful for exhaustive tests and random generation.
    pub const ALL: [GateType; 10] = [
        GateType::And,
        GateType::Nand,
        GateType::Or,
        GateType::Nor,
        GateType::Xor,
        GateType::Xnor,
        GateType::Not,
        GateType::Buf,
        GateType::Const0,
        GateType::Const1,
    ];
}

impl fmt::Display for GateType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.bench_name())
    }
}

/// The functional kind of a netlist node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeKind {
    /// Primary input.
    Input,
    /// Combinational gate with the given function.
    Gate(GateType),
    /// Sequential element (flip-flop or latch) with its clocking/reset metadata.
    Seq(SeqInfo),
}

impl NodeKind {
    /// Returns `true` for sequential elements (flip-flops and latches).
    pub fn is_sequential(&self) -> bool {
        matches!(self, NodeKind::Seq(_))
    }

    /// Returns `true` for primary inputs.
    pub fn is_input(&self) -> bool {
        matches!(self, NodeKind::Input)
    }

    /// Returns `true` for combinational gates.
    pub fn is_gate(&self) -> bool {
        matches!(self, NodeKind::Gate(_))
    }

    /// Returns the gate type if this node is a combinational gate.
    pub fn gate_type(&self) -> Option<GateType> {
        match self {
            NodeKind::Gate(g) => Some(*g),
            _ => None,
        }
    }

    /// Returns the sequential metadata if this node is a sequential element.
    pub fn seq_info(&self) -> Option<&SeqInfo> {
        match self {
            NodeKind::Seq(s) => Some(s),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arity_rules() {
        assert!(GateType::And.arity_ok(2));
        assert!(GateType::And.arity_ok(5));
        assert!(!GateType::And.arity_ok(0));
        assert!(GateType::Not.arity_ok(1));
        assert!(!GateType::Not.arity_ok(2));
        assert!(GateType::Const0.arity_ok(0));
        assert!(!GateType::Const1.arity_ok(1));
    }

    #[test]
    fn controlling_values() {
        assert_eq!(GateType::And.controlling_value(), Some(false));
        assert_eq!(GateType::Nand.controlling_value(), Some(false));
        assert_eq!(GateType::Or.controlling_value(), Some(true));
        assert_eq!(GateType::Nor.controlling_value(), Some(true));
        assert_eq!(GateType::Xor.controlling_value(), None);
        assert_eq!(GateType::And.controlled_response(), Some(false));
        assert_eq!(GateType::Nand.controlled_response(), Some(true));
    }

    #[test]
    fn bench_name_round_trip() {
        for g in GateType::ALL {
            assert_eq!(GateType::from_bench_name(g.bench_name()), Some(g));
        }
        assert_eq!(GateType::from_bench_name("buff"), Some(GateType::Buf));
        assert_eq!(GateType::from_bench_name("cOnSt1"), Some(GateType::Const1));
        assert_eq!(GateType::from_bench_name("banana"), None);
        assert_eq!(GateType::from_bench_name("CONST01"), None);
        assert_eq!(GateType::from_bench_name(""), None);
    }

    #[test]
    fn iscas_name_round_trip() {
        for g in GateType::ALL {
            assert_eq!(GateType::from_bench_name(g.iscas_name()), Some(g));
        }
        assert_eq!(GateType::Buf.iscas_name(), "BUFF");
        assert_eq!(GateType::And.iscas_name(), "AND");
    }

    #[test]
    fn node_kind_predicates() {
        assert!(NodeKind::Input.is_input());
        assert!(NodeKind::Gate(GateType::And).is_gate());
        assert_eq!(
            NodeKind::Gate(GateType::Nor).gate_type(),
            Some(GateType::Nor)
        );
        assert!(NodeKind::Gate(GateType::And).seq_info().is_none());
    }
}
