//! Single stuck-at fault model and fault-list generation.

use sla_netlist::{Netlist, NodeId};

/// Location of a stuck-at fault: either the output of a node or a specific
/// input pin of a gate (a fanout branch).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum FaultSite {
    /// The output line of a node (gate, primary input or sequential element).
    Output(NodeId),
    /// Input pin `pin` of gate `gate`.
    Input {
        /// Gate whose input pin is faulty.
        gate: NodeId,
        /// Zero-based fanin position.
        pin: usize,
    },
}

impl FaultSite {
    /// The node the fault is attached to (the gate for input faults).
    pub fn node(self) -> NodeId {
        match self {
            FaultSite::Output(n) => n,
            FaultSite::Input { gate, .. } => gate,
        }
    }
}

/// A single stuck-at fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fault {
    /// Where the fault sits.
    pub site: FaultSite,
    /// Stuck-at value (`false` = stuck-at-0, `true` = stuck-at-1).
    pub stuck_at: bool,
}

impl Fault {
    /// Stuck-at fault on the output of `node`.
    pub fn output(node: NodeId, stuck_at: bool) -> Fault {
        Fault {
            site: FaultSite::Output(node),
            stuck_at,
        }
    }

    /// Stuck-at fault on input pin `pin` of `gate`.
    pub fn input(gate: NodeId, pin: usize, stuck_at: bool) -> Fault {
        Fault {
            site: FaultSite::Input { gate, pin },
            stuck_at,
        }
    }

    /// Human-readable name, e.g. `g13/2 s-a-1` or `g7 s-a-0`.
    pub fn describe(&self, netlist: &Netlist) -> String {
        let sa = if self.stuck_at { 1 } else { 0 };
        match self.site {
            FaultSite::Output(n) => format!("{} s-a-{sa}", netlist.node_name(n)),
            FaultSite::Input { gate, pin } => {
                format!("{}/{pin} s-a-{sa}", netlist.node_name(gate))
            }
        }
    }
}

/// The complete single stuck-at fault list: both polarities on every node
/// output and on every gate input pin.
pub fn full_fault_list(netlist: &Netlist) -> Vec<Fault> {
    let mut faults = Vec::new();
    for id in netlist.node_ids() {
        for v in [false, true] {
            faults.push(Fault::output(id, v));
        }
        if netlist.kind(id).is_gate() {
            for pin in 0..netlist.fanins(id).len() {
                for v in [false, true] {
                    faults.push(Fault::input(id, pin, v));
                }
            }
        }
    }
    faults
}

/// Checkpoint-collapsed fault list: both polarities on primary inputs,
/// sequential-element outputs, and fanout branches (gate input pins whose
/// driver feeds more than one destination). By the checkpoint theorem this set
/// dominates the full list in the combinational sense; treating flip-flop
/// outputs as pseudo primary inputs extends it to the sequential circuit.
pub fn collapsed_fault_list(netlist: &Netlist) -> Vec<Fault> {
    let mut faults = Vec::new();
    for id in netlist.node_ids() {
        let kind = netlist.kind(id);
        if kind.is_input() || kind.is_sequential() {
            for v in [false, true] {
                faults.push(Fault::output(id, v));
            }
        }
        if kind.is_gate() {
            for (pin, driver) in netlist.fanins(id).iter().enumerate() {
                if netlist.fanout_count(*driver) > 1 {
                    for v in [false, true] {
                        faults.push(Fault::input(id, pin, v));
                    }
                }
            }
            // Gate outputs that feed a primary output directly are observable
            // checkpoints too; keep them so every output cone has a fault.
            if netlist.outputs().contains(&id) {
                for v in [false, true] {
                    faults.push(Fault::output(id, v));
                }
            }
        }
    }
    faults
}

#[cfg(test)]
mod tests {
    use super::*;
    use sla_netlist::{GateType, NetlistBuilder};

    fn sample() -> Netlist {
        let mut b = NetlistBuilder::new("f");
        b.input("a");
        b.input("b");
        b.gate("g", GateType::And, &["a", "b"]).unwrap();
        b.gate("h", GateType::Not, &["g"]).unwrap();
        b.gate("k", GateType::Or, &["g", "b"]).unwrap();
        b.dff("q", "h").unwrap();
        b.output("k").unwrap();
        b.output("q").unwrap();
        b.build().unwrap()
    }

    #[test]
    fn full_list_counts() {
        let n = sample();
        let faults = full_fault_list(&n);
        // 6 nodes * 2 output faults + gate input pins: g(2) + h(1) + k(2) = 5 pins * 2.
        assert_eq!(faults.len(), 6 * 2 + 5 * 2);
        // No duplicates.
        let mut sorted = faults.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), faults.len());
    }

    #[test]
    fn collapsed_is_smaller_and_contains_checkpoints() {
        let n = sample();
        let full = full_fault_list(&n);
        let collapsed = collapsed_fault_list(&n);
        assert!(collapsed.len() < full.len());
        let a = n.require("a").unwrap();
        assert!(collapsed.contains(&Fault::output(a, false)));
        assert!(collapsed.contains(&Fault::output(a, true)));
        // b and g are fanout stems, so branch faults on their destinations exist.
        let k = n.require("k").unwrap();
        assert!(collapsed.contains(&Fault::input(k, 0, true)));
    }

    #[test]
    fn describe_is_readable() {
        let n = sample();
        let g = n.require("g").unwrap();
        assert_eq!(Fault::output(g, true).describe(&n), "g s-a-1");
        assert_eq!(Fault::input(g, 1, false).describe(&n), "g/1 s-a-0");
    }

    #[test]
    fn fault_site_node_accessor() {
        let n = sample();
        let g = n.require("g").unwrap();
        assert_eq!(FaultSite::Output(g).node(), g);
        assert_eq!(FaultSite::Input { gate: g, pin: 1 }.node(), g);
    }
}
