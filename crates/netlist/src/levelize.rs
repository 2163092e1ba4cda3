//! Topological levelization of the combinational portion of a netlist.
//!
//! The learning and simulation engines evaluate the combinational logic of one
//! time frame in a single pass over a precomputed topological order. Primary
//! inputs and sequential-element *outputs* are frame inputs; sequential-element
//! *data fanins* are frame outputs (the next-state function).
//!
//! The levelization is computed once inside [`crate::NetlistBuilder::build`]
//! and stored in the arena. [`levelize`] is a checked accessor: it returns a
//! [`Levelization`] that borrows the stored order, levels and evaluation
//! positions, or reports the combinational cycle. The handle is `Copy` and
//! allocates nothing, so an engine keeps one next to its `&Netlist` instead
//! of a copy of the arrays.
//!
//! [`Levelization`] is the only reader of order-derived data. Holding one
//! proves the logic acyclic, so no level or position is read from a cyclic
//! netlist, whose stored levels are all zero.

use crate::{Netlist, NetlistError, NodeId, Result};

/// A topological ordering of the combinational gates of a netlist, together
/// with per-node logic levels and evaluation positions, borrowed from the
/// netlist arena.
///
/// Holding one proves the combinational logic is acyclic: outside this crate,
/// [`levelize`] is the only way to get one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Levelization<'a> {
    pub(crate) order: &'a [NodeId],
    pub(crate) level: &'a [u32],
    pub(crate) eval_pos: &'a [u32],
    pub(crate) max_level: u32,
}

impl<'a> Levelization<'a> {
    /// Combinational gates in topological (fanin-before-fanout) order.
    /// Primary inputs and sequential elements are not included: they carry
    /// frame-input values and need no evaluation.
    pub fn order(&self) -> &'a [NodeId] {
        self.order
    }

    /// Logic level of a node: inputs and sequential elements are level 0,
    /// a gate is 1 + max level of its fanins.
    #[inline]
    pub fn level(&self, id: NodeId) -> u32 {
        self.level[id.index()]
    }

    /// Position of a node in [`Levelization::order`], or `u32::MAX` for
    /// primary inputs and sequential elements, so a subset of gates sorts
    /// into evaluation order without a pass over the whole order.
    #[inline]
    pub fn eval_pos(&self, id: NodeId) -> u32 {
        self.eval_pos[id.index()]
    }

    /// Largest logic level in the circuit (sequential depth of one frame).
    pub fn max_level(&self) -> u32 {
        self.max_level
    }
}

/// Returns the [`Levelization`] of the combinational logic, a view of the
/// order and levels the arena stored at build time.
///
/// # Errors
///
/// Returns [`NetlistError::CombinationalCycle`] if the combinational gates form
/// a cycle that is not broken by a sequential element.
pub fn levelize(netlist: &Netlist) -> Result<Levelization<'_>> {
    netlist
        .levelization()
        .ok_or_else(|| NetlistError::CombinationalCycle(netlist.first_cycle_gate_name()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GateType, NetlistBuilder};

    #[test]
    fn simple_chain_levels() {
        let mut b = NetlistBuilder::new("chain");
        b.input("a");
        b.gate("g1", GateType::Not, &["a"]).unwrap();
        b.gate("g2", GateType::Not, &["g1"]).unwrap();
        b.gate("g3", GateType::Not, &["g2"]).unwrap();
        b.output("g3").unwrap();
        let n = b.build().unwrap();
        let lv = levelize(&n).unwrap();
        assert_eq!(lv.order().len(), 3);
        assert_eq!(lv.level(n.require("g1").unwrap()), 1);
        assert_eq!(lv.level(n.require("g3").unwrap()), 3);
        assert_eq!(lv.max_level(), 3);
    }

    #[test]
    fn sequential_feedback_is_not_a_cycle() {
        let mut b = NetlistBuilder::new("loop");
        b.input("a");
        b.gate("g", GateType::And, &["a", "q"]).unwrap();
        b.dff("q", "g").unwrap();
        b.output("q").unwrap();
        let n = b.build().unwrap();
        let lv = levelize(&n).unwrap();
        assert_eq!(lv.order().len(), 1);
    }

    #[test]
    fn combinational_cycle_detected() {
        let mut b = NetlistBuilder::new("cyc");
        b.input("a");
        b.gate("g1", GateType::And, &["a", "g2"]).unwrap();
        b.gate("g2", GateType::Not, &["g1"]).unwrap();
        b.output("g2").unwrap();
        let n = b.build().unwrap();
        assert!(matches!(
            levelize(&n),
            Err(NetlistError::CombinationalCycle(_))
        ));
    }

    #[test]
    fn order_respects_fanin_before_fanout() {
        let mut b = NetlistBuilder::new("dag");
        b.input("a");
        b.input("b");
        b.gate("x", GateType::And, &["a", "b"]).unwrap();
        b.gate("y", GateType::Or, &["x", "a"]).unwrap();
        b.gate("z", GateType::Xor, &["y", "x"]).unwrap();
        b.output("z").unwrap();
        let n = b.build().unwrap();
        let lv = levelize(&n).unwrap();
        let pos = |name: &str| {
            lv.order()
                .iter()
                .position(|&id| id == n.require(name).unwrap())
                .unwrap()
        };
        assert!(pos("x") < pos("y"));
        assert!(pos("y") < pos("z"));
    }
}
