//! Fanout-stem identification.
//!
//! The sequential learning technique of the paper injects both logic values on
//! every *fanout stem* — a node whose signal branches to more than one
//! destination (including a primary-output use). Stems are the only injection
//! points: relations due to fanout-free nodes follow from their unique path.

use crate::{Netlist, NodeId};

/// Returns all fanout stems of the netlist, in arena order.
///
/// A node is a stem when it drives more than one fanin position or drives at
/// least one fanin and is also a primary output.
pub fn fanout_stems(netlist: &Netlist) -> Vec<NodeId> {
    netlist
        .node_ids()
        .filter(|&id| netlist.fanout_count(id) > 1)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GateType, NetlistBuilder};

    #[test]
    fn stems_require_multiple_fanouts() {
        let mut b = NetlistBuilder::new("stems");
        b.input("i1");
        b.input("i2");
        b.gate("g1", GateType::And, &["i1", "i2"]).unwrap();
        b.gate("g2", GateType::Not, &["g1"]).unwrap();
        b.gate("g3", GateType::Or, &["g1", "i2"]).unwrap();
        b.output("g2").unwrap();
        b.output("g3").unwrap();
        let n = b.build().unwrap();
        let stems = fanout_stems(&n);
        let names: Vec<&str> = stems.iter().map(|&s| n.node_name(s)).collect();
        // g1 feeds g2 and g3; i2 feeds g1 and g3; i1 only feeds g1.
        assert!(names.contains(&"g1"));
        assert!(names.contains(&"i2"));
        assert!(!names.contains(&"i1"));
    }

    #[test]
    fn po_use_counts_toward_stem() {
        let mut b = NetlistBuilder::new("po_stem");
        b.input("a");
        b.gate("g", GateType::Buf, &["a"]).unwrap();
        b.gate("h", GateType::Not, &["g"]).unwrap();
        b.output("g").unwrap();
        b.output("h").unwrap();
        let n = b.build().unwrap();
        let stems = fanout_stems(&n);
        assert!(stems.contains(&n.require("g").unwrap()));
    }
}
