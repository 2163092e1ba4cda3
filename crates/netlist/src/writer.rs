//! Serializes a [`Netlist`] back to `.bench` text (including the pragma
//! extensions used by [`crate::parser`]), so circuits survive a round trip.

use crate::{ClockEdge, GateType, LineConstraint, Netlist, NodeKind, SeqKind};
use std::fmt::Write as _;

/// Renders the netlist in `.bench` syntax.
///
/// The output can be fed back to [`crate::parser::parse_bench`]; the round trip
/// preserves structure, clock domains, set/reset constraints and latch ports
/// (node order may differ from the original source).
pub fn write_bench(netlist: &Netlist) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# {}", netlist.name());
    let _ = writeln!(
        out,
        "# {} inputs, {} outputs, {} gates, {} sequential elements",
        netlist.inputs().len(),
        netlist.outputs().len(),
        netlist.num_gates(),
        netlist.num_sequential()
    );

    for &i in netlist.inputs() {
        let _ = writeln!(out, "INPUT({})", netlist.node_name(i));
    }
    for &o in netlist.outputs() {
        let _ = writeln!(out, "OUTPUT({})", netlist.node_name(o));
    }

    // Pragmas first so a re-parse sees them regardless of position.
    for id in netlist.sequential_elements() {
        let name = netlist.node_name(id);
        let info = netlist.seq_info(id).expect("sequential element");
        let default_clock = info.clock.index() == 0 && info.edge == ClockEdge::Rising;
        if !default_clock {
            let edge = match info.edge {
                ClockEdge::Rising => "rising",
                ClockEdge::Falling => "falling",
            };
            let _ = writeln!(
                out,
                "#pragma clock {} {} {}",
                name,
                netlist.clock_name(info.clock),
                edge
            );
        }
        if info.kind == SeqKind::Latch && info.ports > 1 {
            let _ = writeln!(out, "#pragma latch {} {}", name, info.ports);
        }
        if info.set != LineConstraint::Absent {
            let _ = writeln!(out, "#pragma set {} {}", name, constraint_word(info.set));
        }
        if info.reset != LineConstraint::Absent {
            let _ = writeln!(
                out,
                "#pragma reset {} {}",
                name,
                constraint_word(info.reset)
            );
        }
    }

    for id in netlist.node_ids() {
        let name = netlist.node_name(id);
        let fanins = netlist.fanins(id);
        match netlist.kind(id) {
            NodeKind::Input => {}
            NodeKind::Gate(g) => {
                let args: Vec<&str> = fanins.iter().map(|&f| netlist.node_name(f)).collect();
                match g {
                    GateType::Const0 | GateType::Const1 => {
                        let _ = writeln!(out, "{} = {}()", name, g.iscas_name());
                    }
                    _ => {
                        // `iscas_name` spells the buffer `BUFF`, matching the
                        // ISCAS-89 dialect other tools emit and expect.
                        let _ = writeln!(out, "{} = {}({})", name, g.iscas_name(), args.join(", "));
                    }
                }
            }
            NodeKind::Seq(info) => {
                let data = netlist.node_name(fanins[0]);
                let kw = match info.kind {
                    SeqKind::FlipFlop => "DFF",
                    SeqKind::Latch => "LATCH",
                };
                let _ = writeln!(out, "{} = {}({})", name, kw, data);
            }
        }
    }
    out
}

fn constraint_word(c: LineConstraint) -> &'static str {
    match c {
        LineConstraint::Absent => "absent",
        LineConstraint::Constrained => "constrained",
        LineConstraint::Unconstrained => "unconstrained",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_bench;
    use crate::{NetlistBuilder, SeqInfo};

    #[test]
    fn round_trip_preserves_structure() {
        let src = "\
INPUT(a)
INPUT(b)
OUTPUT(q)
OUTPUT(g2)
#pragma clock q clk_x falling
#pragma set q unconstrained
g1 = NAND(a, b)
g2 = XOR(g1, q)
q = DFF(g2)
";
        let n1 = parse_bench("rt", src).unwrap();
        let text = write_bench(&n1);
        let n2 = parse_bench("rt", &text).unwrap();
        assert_eq!(n1.num_nodes(), n2.num_nodes());
        assert_eq!(n1.inputs().len(), n2.inputs().len());
        assert_eq!(n1.outputs().len(), n2.outputs().len());
        let q1 = n1.seq_info(n1.require("q").unwrap()).unwrap();
        let q2 = n2.seq_info(n2.require("q").unwrap()).unwrap();
        assert_eq!(q1.edge, q2.edge);
        assert_eq!(q1.set, q2.set);
        assert_eq!(n1.clock_name(q1.clock), n2.clock_name(q2.clock));
    }

    #[test]
    fn constants_render_without_args() {
        let mut b = NetlistBuilder::new("consts");
        b.gate("zero", crate::GateType::Const0, &[]).unwrap();
        b.gate("one", crate::GateType::Const1, &[]).unwrap();
        b.gate("g", crate::GateType::Or, &["zero", "one"]).unwrap();
        b.output("g").unwrap();
        let n = b.build().unwrap();
        let text = write_bench(&n);
        assert!(text.contains("zero = CONST0()"));
        let reparsed = parse_bench("consts", &text).unwrap();
        assert_eq!(reparsed.num_gates(), 3);
    }

    #[test]
    fn latch_ports_survive_round_trip() {
        let mut b = NetlistBuilder::new("latchy");
        b.input("d");
        b.seq(
            "l",
            "d",
            SeqInfo {
                kind: SeqKind::Latch,
                ports: 2,
                ..SeqInfo::default()
            },
        )
        .unwrap();
        b.output("l").unwrap();
        let n = b.build().unwrap();
        let text = write_bench(&n);
        let n2 = parse_bench("latchy", &text).unwrap();
        let info = n2.seq_info(n2.require("l").unwrap()).unwrap();
        assert_eq!(info.kind, SeqKind::Latch);
        assert_eq!(info.ports, 2);
    }
}
