//! Static logic implication: the set of values forced by a seed assignment in
//! one combinational frame, propagated forward and backward to a fixed point.

use sla_netlist::levelize::{levelize, Levelization};
use sla_netlist::{GateType, Netlist, NodeId, NodeKind};
use sla_sim::{eval_gate3, Logic3};

/// Computes the values implied by the seed assignments.
///
/// Flip-flop outputs and primary inputs are free variables (set only if seeded
/// or implied backward). Returns `None` when the seed is self-contradictory
/// (forward and backward implications disagree on some node).
///
/// # Errors
///
/// Returns an error when the combinational logic cannot be levelized.
pub fn static_implications(
    netlist: &Netlist,
    seeds: &[(NodeId, bool)],
) -> sla_netlist::Result<Option<Vec<Logic3>>> {
    let levels = levelize(netlist)?;
    let n = netlist.num_nodes();
    let mut values = vec![Logic3::X; n];
    for &(node, v) in seeds {
        values[node.index()] = Logic3::from_bool(v);
    }

    // Alternate forward and backward passes until nothing changes. Both passes
    // only refine X to a binary value, so the iteration terminates.
    for _ in 0..n.max(4) {
        let mut changed = false;
        if !forward_pass(netlist, levels, &mut values, &mut changed) {
            return Ok(None);
        }
        if !backward_pass(netlist, levels, &mut values, &mut changed) {
            return Ok(None);
        }
        if !changed {
            break;
        }
    }
    Ok(Some(values))
}

/// Forward evaluation pass; returns `false` on contradiction.
fn forward_pass(
    netlist: &Netlist,
    levels: Levelization<'_>,
    values: &mut [Logic3],
    changed: &mut bool,
) -> bool {
    for &id in levels.order() {
        let NodeKind::Gate(gate) = netlist.kind(id) else {
            continue;
        };
        let computed = eval_gate3(gate, netlist.fanins(id).iter().map(|f| values[f.index()]));
        if computed.is_binary() {
            match values[id.index()] {
                Logic3::X => {
                    values[id.index()] = computed;
                    *changed = true;
                }
                existing if existing != computed => return false,
                _ => {}
            }
        }
    }
    true
}

/// Backward (justification) pass: when a gate output value can only be
/// produced one way, force the fanin values. Returns `false` on contradiction.
fn backward_pass(
    netlist: &Netlist,
    levels: Levelization<'_>,
    values: &mut [Logic3],
    changed: &mut bool,
) -> bool {
    for &id in levels.order().iter().rev() {
        let NodeKind::Gate(gate) = netlist.kind(id) else {
            continue;
        };
        let Some(out) = values[id.index()].to_bool() else {
            continue;
        };
        let fanins = netlist.fanins(id);
        let force = |node: NodeId, v: bool, values: &mut [Logic3], changed: &mut bool| -> bool {
            match values[node.index()] {
                Logic3::X => {
                    values[node.index()] = Logic3::from_bool(v);
                    *changed = true;
                    true
                }
                existing => existing == Logic3::from_bool(v),
            }
        };
        let ok = match gate {
            GateType::Buf => force(fanins[0], out, values, changed),
            GateType::Not => force(fanins[0], !out, values, changed),
            GateType::And | GateType::Nand | GateType::Or | GateType::Nor => {
                let controlling = gate.controlling_value().expect("and/or family");
                let controlled = gate.controlled_response().expect("and/or family");
                if out != controlled {
                    // The non-controlled output: every input must be at the
                    // non-controlling value.
                    fanins
                        .iter()
                        .all(|&f| force(f, !controlling, values, changed))
                } else {
                    // The controlled output: at least one input is at the
                    // controlling value; force it only if exactly one candidate
                    // remains.
                    let candidates: Vec<NodeId> = fanins
                        .iter()
                        .copied()
                        .filter(|f| values[f.index()] != Logic3::from_bool(!controlling))
                        .collect();
                    if candidates.is_empty() {
                        false
                    } else if candidates.len() == 1 && values[candidates[0].index()] == Logic3::X {
                        force(candidates[0], controlling, values, changed)
                    } else {
                        true
                    }
                }
            }
            GateType::Xor | GateType::Xnor => {
                // If all but one input is known, the last one is determined.
                let mut parity = gate.inverts();
                let mut unknown = Vec::new();
                for &f in fanins {
                    match values[f.index()].to_bool() {
                        Some(b) => parity ^= b,
                        None => unknown.push(f),
                    }
                }
                match unknown.len() {
                    0 => parity == out,
                    1 => force(unknown[0], out ^ parity, values, changed),
                    _ => true,
                }
            }
            GateType::Const0 => !out,
            GateType::Const1 => out,
        };
        if !ok {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use sla_netlist::NetlistBuilder;

    fn circuit() -> Netlist {
        let mut b = NetlistBuilder::new("imp");
        b.input("a");
        b.input("b");
        b.input("c");
        b.gate("g", GateType::And, &["a", "b"]).unwrap();
        b.gate("h", GateType::Or, &["g", "c"]).unwrap();
        b.gate("k", GateType::Not, &["h"]).unwrap();
        b.output("k").unwrap();
        b.build().unwrap()
    }

    #[test]
    fn forward_implications() {
        let n = circuit();
        let v = static_implications(&n, &[(n.require("a").unwrap(), false)])
            .unwrap()
            .unwrap();
        assert_eq!(v[n.require("g").unwrap().index()], Logic3::Zero);
        assert_eq!(v[n.require("h").unwrap().index()], Logic3::X);
    }

    #[test]
    fn backward_implications_through_and_or() {
        let n = circuit();
        // g=1 forces a=1 and b=1 (AND); k=1 forces h=0, which forces g=0 and c=0.
        let v = static_implications(&n, &[(n.require("g").unwrap(), true)])
            .unwrap()
            .unwrap();
        assert_eq!(v[n.require("a").unwrap().index()], Logic3::One);
        assert_eq!(v[n.require("b").unwrap().index()], Logic3::One);
        let v = static_implications(&n, &[(n.require("k").unwrap(), true)])
            .unwrap()
            .unwrap();
        assert_eq!(v[n.require("g").unwrap().index()], Logic3::Zero);
        assert_eq!(v[n.require("c").unwrap().index()], Logic3::Zero);
    }

    #[test]
    fn contradictory_seed_is_reported() {
        let n = circuit();
        let out = static_implications(
            &n,
            &[
                (n.require("a").unwrap(), false),
                (n.require("g").unwrap(), true),
            ],
        )
        .unwrap();
        assert!(out.is_none());
    }

    #[test]
    fn last_unknown_input_of_controlled_gate_is_forced() {
        let n = circuit();
        // h=1 with c=0 forces g=1, which forces a=b=1.
        let v = static_implications(
            &n,
            &[
                (n.require("h").unwrap(), true),
                (n.require("c").unwrap(), false),
            ],
        )
        .unwrap()
        .unwrap();
        assert_eq!(v[n.require("a").unwrap().index()], Logic3::One);
        assert_eq!(v[n.require("b").unwrap().index()], Logic3::One);
    }
}
