//! Observability analysis under a set of implied values.
//!
//! A node is observable when a fault effect on it can possibly reach an
//! observation point — a primary output or a flip-flop data input — without
//! passing a gate whose side input is implied to the controlling value.

use sla_netlist::levelize::levelize;
use sla_netlist::{Netlist, NodeId, NodeKind};
use sla_sim::Logic3;

/// Computes per-node observability flags under the given implied values
/// (`implied[i] = X` means the node is unconstrained).
///
/// The result is conservative in the safe direction for FIRE: a node marked
/// unobservable really has every path blocked by an implied controlling side
/// value, while a node marked observable may or may not be sensitisable.
pub fn observable_nodes(netlist: &Netlist, implied: &[Logic3]) -> Vec<bool> {
    let levels = levelize(netlist).expect("netlist used for FIRE is already levelized");
    let n = netlist.num_nodes();
    let mut observable = vec![false; n];

    for &po in netlist.outputs() {
        observable[po.index()] = true;
    }
    for s in netlist.sequential_elements() {
        observable[netlist.fanins(s)[0].index()] = true;
    }

    // Reverse topological order: a gate's observability is final before its
    // fanins are examined.
    for &id in levels.order().iter().rev() {
        if !observable[id.index()] {
            continue;
        }
        let NodeKind::Gate(_) = netlist.kind(id) else {
            continue;
        };
        for (pin, &fanin) in netlist.fanins(id).iter().enumerate() {
            if branch_open(netlist, implied, id, pin) {
                observable[fanin.index()] = true;
            }
        }
    }
    observable
}

/// Returns `true` when the path from input pin `pin` of `gate` through the
/// gate is not blocked by an implied controlling value on a side input.
fn branch_open(netlist: &Netlist, implied: &[Logic3], gate: NodeId, pin: usize) -> bool {
    let NodeKind::Gate(gtype) = netlist.kind(gate) else {
        return false;
    };
    let Some(controlling) = gtype.controlling_value() else {
        return true; // XOR/XNOR/NOT/BUF never block
    };
    netlist
        .fanins(gate)
        .iter()
        .enumerate()
        .all(|(j, &side)| j == pin || implied[side.index()] != Logic3::from_bool(controlling))
}

/// Observability of a specific fanout branch: the branch into pin `pin` of
/// `gate` is observable when the gate's output is observable and the branch is
/// not blocked inside the gate.
pub fn branch_observable(
    netlist: &Netlist,
    implied: &[Logic3],
    observable: &[bool],
    gate: NodeId,
    pin: usize,
) -> bool {
    observable[gate.index()] && branch_open(netlist, implied, gate, pin)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sla_netlist::{GateType, NetlistBuilder};

    fn circuit() -> Netlist {
        let mut b = NetlistBuilder::new("obs");
        b.input("a");
        b.input("b");
        b.input("c");
        b.gate("g", GateType::And, &["a", "b"]).unwrap();
        b.gate("h", GateType::Or, &["g", "c"]).unwrap();
        b.dff("q", "h").unwrap();
        b.output("q").unwrap();
        b.build().unwrap()
    }

    #[test]
    fn everything_observable_without_implications() {
        let n = circuit();
        let implied = vec![Logic3::X; n.num_nodes()];
        let obs = observable_nodes(&n, &implied);
        for name in ["a", "b", "c", "g", "h"] {
            assert!(obs[n.require(name).unwrap().index()], "{name}");
        }
    }

    #[test]
    fn controlling_side_value_blocks_a_path() {
        let n = circuit();
        let mut implied = vec![Logic3::X; n.num_nodes()];
        // c=1 is the controlling value of the OR: g (and hence a, b) becomes
        // unobservable.
        implied[n.require("c").unwrap().index()] = Logic3::One;
        let obs = observable_nodes(&n, &implied);
        assert!(!obs[n.require("g").unwrap().index()]);
        assert!(!obs[n.require("a").unwrap().index()]);
        assert!(
            obs[n.require("h").unwrap().index()],
            "h feeds the flip-flop"
        );
    }

    #[test]
    fn branch_observability_is_per_pin() {
        let n = circuit();
        let mut implied = vec![Logic3::X; n.num_nodes()];
        implied[n.require("b").unwrap().index()] = Logic3::Zero; // blocks a through g
        let obs = observable_nodes(&n, &implied);
        let g = n.require("g").unwrap();
        let h = n.require("h").unwrap();
        assert!(
            !branch_observable(&n, &implied, &obs, g, 0),
            "a into g is blocked"
        );
        assert!(
            branch_observable(&n, &implied, &obs, h, 1),
            "c into h is open"
        );
    }
}
