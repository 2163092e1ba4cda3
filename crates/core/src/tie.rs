//! Tied-gate representation.
//!
//! A *tie gate* can only ever assume one known value (paper §3.2). A gate tied
//! combinationally holds the value for every input combination; a gate tied
//! sequentially holds it in every reachable steady state — once it is set to a
//! known value under three-valued simulation it stays there, and the faults
//! `stuck-at-v` on it are untestable (it is *c-cycle redundant*).

use sla_netlist::{Netlist, NodeId};
use sla_sim::Fault;
use std::fmt;

/// How a gate was proven tied.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TieKind {
    /// Tied by combinational analysis alone (proved at time frame 0).
    Combinational,
    /// Tied only when the analysis crosses time frames.
    Sequential,
}

/// A gate (or sequential element) proven to be tied to a constant value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TiedGate {
    /// The tied node.
    pub node: NodeId,
    /// The only value the node can assume.
    pub value: bool,
    /// Whether sequential analysis was needed.
    pub kind: TieKind,
}

impl TiedGate {
    /// Creates a tied-gate record.
    pub fn new(node: NodeId, value: bool, kind: TieKind) -> Self {
        TiedGate { node, value, kind }
    }

    /// The untestable stuck-at fault this tie implies: a node tied to `v` makes
    /// the fault `stuck-at-v` undetectable (no test can produce a difference).
    pub fn untestable_fault(&self) -> Fault {
        Fault::output(self.node, self.value)
    }

    /// Renders the tie with the node name, e.g. `G3 tied to 0 (combinational)`.
    pub fn describe(&self, netlist: &Netlist) -> String {
        format!(
            "{} tied to {} ({})",
            netlist.node_name(self.node),
            if self.value { 1 } else { 0 },
            match self.kind {
                TieKind::Combinational => "combinational",
                TieKind::Sequential => "sequential",
            }
        )
    }
}

impl fmt::Display for TiedGate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} tied to {}",
            self.node,
            if self.value { 1 } else { 0 }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sla_netlist::{GateType, NetlistBuilder};

    #[test]
    fn untestable_fault_matches_tied_value() {
        let mut b = NetlistBuilder::new("t");
        b.input("a");
        b.gate("na", GateType::Not, &["a"]).unwrap();
        b.gate("z", GateType::And, &["a", "na"]).unwrap();
        b.output("z").unwrap();
        let n = b.build().unwrap();
        let z = n.require("z").unwrap();
        let tie = TiedGate::new(z, false, TieKind::Combinational);
        assert_eq!(tie.untestable_fault(), Fault::output(z, false));
        assert_eq!(tie.describe(&n), "z tied to 0 (combinational)");
    }

    #[test]
    fn display_is_compact() {
        let tie = TiedGate::new(NodeId(7), true, TieKind::Sequential);
        assert_eq!(tie.to_string(), "n7 tied to 1");
    }
}
