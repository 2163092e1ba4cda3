//! Literals, implications and their classification.

use sla_netlist::{Netlist, NodeId};
use std::fmt;

/// A node/value pair: "`node` has logic value `value`".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Literal {
    /// The node the literal talks about.
    pub node: NodeId,
    /// The asserted logic value.
    pub value: bool,
}

impl Literal {
    /// Creates a literal.
    pub fn new(node: NodeId, value: bool) -> Self {
        Literal { node, value }
    }

    /// The literal asserting the opposite value on the same node.
    pub fn negated(self) -> Literal {
        Literal {
            node: self.node,
            value: !self.value,
        }
    }

    /// Renders the literal with the node's name, e.g. `F6=1`.
    pub fn describe(&self, netlist: &Netlist) -> String {
        format!(
            "{}={}",
            netlist.node(self.node).name,
            if self.value { 1 } else { 0 }
        )
    }
}

impl fmt::Display for Literal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}={}", self.node, if self.value { 1 } else { 0 })
    }
}

/// A same-time-frame implication `antecedent → consequent`.
///
/// Same-frame implications between sequential elements are the paper's
/// *invalid-state relations*: `F6=1 → F4=0` encodes that every state with
/// `F6=1 ∧ F4=1` is invalid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Implication {
    /// The hypothesis literal.
    pub antecedent: Literal,
    /// The literal implied in the same time frame.
    pub consequent: Literal,
}

impl Implication {
    /// Creates an implication.
    pub fn new(antecedent: Literal, consequent: Literal) -> Self {
        Implication {
            antecedent,
            consequent,
        }
    }

    /// The contrapositive (`¬consequent → ¬antecedent`), which is logically
    /// equivalent and always stored alongside the original.
    pub fn contrapositive(self) -> Implication {
        Implication {
            antecedent: self.consequent.negated(),
            consequent: self.antecedent.negated(),
        }
    }

    /// Classifies the implication by its endpoints.
    pub fn kind(&self, netlist: &Netlist) -> RelationKind {
        let a = netlist.kind(self.antecedent.node);
        let c = netlist.kind(self.consequent.node);
        let seq_a = a.is_sequential();
        let seq_c = c.is_sequential();
        if seq_a && seq_c {
            RelationKind::FfFf
        } else if (seq_a && c.is_gate()) || (seq_c && a.is_gate()) {
            RelationKind::GateFf
        } else {
            RelationKind::Other
        }
    }

    /// Renders the implication with node names, e.g. `F6=1 -> F4=0`.
    pub fn describe(&self, netlist: &Netlist) -> String {
        format!(
            "{} -> {}",
            self.antecedent.describe(netlist),
            self.consequent.describe(netlist)
        )
    }
}

impl fmt::Display for Implication {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} -> {}", self.antecedent, self.consequent)
    }
}

/// Classification of a same-frame relation by the kinds of its endpoints,
/// matching what Table 3 of the paper reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RelationKind {
    /// Both endpoints are sequential elements (an invalid-state relation).
    FfFf,
    /// One endpoint is a gate, the other a sequential element.
    GateFf,
    /// Anything else (primary inputs, gate-gate); not reported by the paper.
    Other,
}

/// A relation across time frames: `antecedent` at frame `T` implies
/// `consequent` at frame `T + offset`.
///
/// Cross-frame relations are plentiful but only usable by a consumer that
/// works on a window of `offset` frames (paper §3); they are collected behind
/// a configuration flag and reported separately.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CrossImplication {
    /// The hypothesis literal (at the reference frame).
    pub antecedent: Literal,
    /// The implied literal.
    pub consequent: Literal,
    /// Frame distance from antecedent to consequent (may be negative).
    pub offset: i32,
}

impl fmt::Display for CrossImplication {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} -> {} @ {:+}",
            self.antecedent, self.consequent, self.offset
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sla_netlist::{GateType, NetlistBuilder};

    fn sample() -> Netlist {
        let mut b = NetlistBuilder::new("rel");
        b.input("i");
        b.gate("g", GateType::Not, &["i"]).unwrap();
        b.dff("f1", "g").unwrap();
        b.dff("f2", "f1").unwrap();
        b.output("f2").unwrap();
        b.build().unwrap()
    }

    #[test]
    fn negation_and_contrapositive() {
        let n = sample();
        let f1 = n.require("f1").unwrap();
        let f2 = n.require("f2").unwrap();
        let imp = Implication::new(Literal::new(f1, true), Literal::new(f2, false));
        let contra = imp.contrapositive();
        assert_eq!(contra.antecedent, Literal::new(f2, true));
        assert_eq!(contra.consequent, Literal::new(f1, false));
        assert_eq!(contra.contrapositive(), imp);
    }

    #[test]
    fn classification() {
        let n = sample();
        let i = n.require("i").unwrap();
        let g = n.require("g").unwrap();
        let f1 = n.require("f1").unwrap();
        let f2 = n.require("f2").unwrap();
        let imp =
            |a: NodeId, c: NodeId| Implication::new(Literal::new(a, true), Literal::new(c, false));
        assert_eq!(imp(f1, f2).kind(&n), RelationKind::FfFf);
        assert_eq!(imp(g, f1).kind(&n), RelationKind::GateFf);
        assert_eq!(imp(f1, g).kind(&n), RelationKind::GateFf);
        assert_eq!(imp(i, f1).kind(&n), RelationKind::Other);
        assert_eq!(imp(g, g).kind(&n), RelationKind::Other);
    }

    #[test]
    fn describe_uses_names() {
        let n = sample();
        let f1 = n.require("f1").unwrap();
        let f2 = n.require("f2").unwrap();
        let imp = Implication::new(Literal::new(f1, true), Literal::new(f2, false));
        assert_eq!(imp.describe(&n), "f1=1 -> f2=0");
        assert_eq!(Literal::new(f1, false).describe(&n), "f1=0");
    }
}
