//! Reconstructions of the running examples of the paper (Figures 1 and 2).
//!
//! The figures are only partially specified in the paper text, so these
//! circuits are *reconstructions that exhibit the same phenomena* rather than
//! gate-for-gate copies (see the [crate docs](crate) on substitutes):
//!
//! * a combinational tie learned from a single stem (`G3` in the paper),
//! * invalid-state relations between flip-flops learned by single-node
//!   learning (`F6=1 → F4=0`-style),
//! * a pair of combinationally equivalent gates (`G2`/`G4`) that lets values
//!   propagate further,
//! * relations only reachable by multiple-node learning (`G9=0 → F2=0` of
//!   Figure 2),
//! * a gate that is sequentially tied and is only proven so by the conflict
//!   criterion during multiple-node learning (`G15`).

use sla_netlist::{GateType, Netlist, NetlistBuilder};

/// A Figure-1-style circuit: five primary inputs, six flip-flops, a tied gate,
/// an equivalent-gate pair and several invalid-state relations.
///
/// Node names follow the paper's conventions (`I*` inputs, `F*` flip-flops,
/// `G*` gates) to keep the Table 1 / Table 2 harness output readable.
pub fn paper_style_figure1() -> Netlist {
    let mut b = NetlistBuilder::new("figure1");
    for i in 1..=5 {
        b.input(&format!("I{i}"));
    }
    // G3 = AND(I1, NOT I1): combinationally tied to 0 (the paper's G3).
    b.gate("G1", GateType::Not, &["I1"]).unwrap();
    b.gate("G3", GateType::And, &["I1", "G1"]).unwrap();

    // F1/F2: a mutually exclusive pair controlled by I2 (invalid state F1=F2=1).
    b.gate("G2", GateType::Not, &["F2"]).unwrap();
    b.gate("G4", GateType::Not, &["F2"]).unwrap(); // equivalent to G2
    b.gate("G5", GateType::Not, &["F1"]).unwrap();
    b.gate("G6", GateType::And, &["I2", "G4"]).unwrap();
    b.gate("G7", GateType::And, &["G14", "G5"]).unwrap();
    b.gate("G14", GateType::Not, &["I2"]).unwrap();
    b.dff("F1", "G6").unwrap();
    b.dff("F2", "G7").unwrap();

    // F3/F4: F3 follows I2 through a buffer chain, F4 is the complement of F3's
    // data, so F3=1 and F4=1 is invalid.
    b.gate("G8", GateType::Buf, &["I2"]).unwrap();
    b.gate("G9", GateType::Nor, &["I2", "G3"]).unwrap();
    b.dff("F3", "G8").unwrap();
    b.dff("F4", "G9").unwrap();

    // F5/F6: driven by gates over F1..F4, creating further invalid states that
    // need the earlier relations (and the G2/G4 equivalence) to be learned.
    b.gate("G10", GateType::And, &["F1", "F3"]).unwrap();
    b.gate("G11", GateType::And, &["F2", "F4"]).unwrap();
    b.dff("F5", "G10").unwrap();
    b.dff("F6", "G11").unwrap();

    // G15 = AND(F5, F6): F5=1 needs F1=1 (hence I2=1 earlier) while F6=1 needs
    // F2=1 (hence I2=0 earlier at the same frame) - sequentially tied to 0.
    b.gate("G15", GateType::And, &["F5", "F6"]).unwrap();
    b.gate("G12", GateType::Or, &["G15", "F5"]).unwrap();
    b.gate("G13", GateType::Or, &["G12", "F6"]).unwrap();

    for po in ["G13", "F3", "F4", "G3"] {
        b.output(po).unwrap();
    }
    b.build().expect("figure 1 circuit is structurally valid")
}

/// A Figure-2-style circuit: the relation `G9=0 → F2=0` exists but cannot be
/// learned by injecting values on `G9` and propagating backward/forward; only
/// multiple-node learning (combining the `I2` and `I3` stems) finds it.
pub fn paper_style_figure2() -> Netlist {
    let mut b = NetlistBuilder::new("figure2");
    for i in 1..=6 {
        b.input(&format!("I{i}"));
    }
    // F3 and F4 capture the complements of I2 and I3.
    b.gate("G1", GateType::Not, &["I2"]).unwrap();
    b.gate("G2", GateType::Not, &["I3"]).unwrap();
    b.dff("F3", "G1").unwrap();
    b.dff("F4", "G2").unwrap();
    // G9 = OR(F3, F4): each of I2=0, I3=0 alone forces G9=1 one frame later.
    b.gate("G9", GateType::Or, &["F3", "F4"]).unwrap();
    // F2 captures NAND(I2, I3): G9=0 implies I2=1 and I3=1 a frame earlier,
    // hence F2=0 in the same frame as G9.
    b.gate("G3", GateType::Nand, &["I2", "I3"]).unwrap();
    b.dff("F2", "G3").unwrap();
    // Justification structure from the paper's §4 walk-through: G6 and G7 are
    // the decision nodes whose solutions overlap on F2.
    b.gate("G6", GateType::And, &["F1", "F2"]).unwrap();
    b.gate("G7", GateType::And, &["F2", "F5"]).unwrap();
    b.gate("G8", GateType::Or, &["G6", "G7"]).unwrap();
    b.dff("F1", "I1").unwrap();
    b.dff("F5", "I4").unwrap();
    // Extra fanout so I2/I3 are stems, plus observation logic.
    b.gate("G4", GateType::Xor, &["I5", "G9"]).unwrap();
    b.gate("G5", GateType::Xor, &["I6", "G8"]).unwrap();
    b.output("G4").unwrap();
    b.output("G5").unwrap();
    b.output("F2").unwrap();
    b.build().expect("figure 2 circuit is structurally valid")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure1_has_the_documented_shape() {
        let n = paper_style_figure1();
        assert_eq!(n.inputs().len(), 5);
        assert_eq!(n.num_sequential(), 6);
        assert!(n.num_gates() >= 14);
        assert!(n.validate().is_ok());
        assert!(sla_netlist::stems::fanout_stems(&n).len() >= 4);
    }

    #[test]
    fn figure2_has_the_documented_shape() {
        let n = paper_style_figure2();
        assert_eq!(n.inputs().len(), 6);
        assert_eq!(n.num_sequential(), 5);
        assert!(n.validate().is_ok());
        // I2 and I3 must be stems for the multiple-node example to exist.
        let stems = sla_netlist::stems::fanout_stems(&n);
        assert!(stems.contains(&n.require("I2").unwrap()));
        assert!(stems.contains(&n.require("I3").unwrap()));
    }

    #[test]
    fn figure1_g3_is_structurally_constant() {
        // Sanity: AND(I1, NOT I1) is 0 for both values of I1.
        let n = paper_style_figure1();
        let oracle = sla_sim::StateOracle::build(&n, 24).unwrap();
        assert!(oracle.tie_holds(n.require("G3").unwrap(), false));
        assert!(oracle.tie_holds(n.require("G15").unwrap(), false));
    }

    #[test]
    fn figure1_invalid_states_exist() {
        let n = paper_style_figure1();
        let oracle = sla_sim::StateOracle::build(&n, 24).unwrap();
        assert!(oracle.density_of_encoding_bp() < 10_000);
        let f1 = n.require("F1").unwrap();
        let f2 = n.require("F2").unwrap();
        assert!(oracle.implication_holds(f1, true, f2, false));
    }
}
