//! ECO (engineering change order) edits on a built [`Netlist`].
//!
//! The arena is immutable for normal consumers; this module is the one
//! sanctioned mutation vocabulary — [`Netlist::replace_gate`],
//! [`Netlist::rewire_pin`] and [`Netlist::add_gate`] — intended for
//! incremental-relearning flows that need to know exactly which nodes an
//! edit invalidated. Every edit returns a [`DirtyCone`]: the set of node ids
//! whose function may have changed (the edited node plus its transitive
//! fanout, crossing sequential elements). A trivial edit — replacing a gate
//! with its own type, rewiring a pin to its current driver — returns an
//! empty cone and leaves the structural hash untouched; any non-trivial edit
//! changes [`Netlist::structural_hash`].
//!
//! Edits keep the arena invariants intact: the fanout CSR and levelization
//! are rebuilt in place, arities are re-checked up front, and an edit that
//! would introduce a combinational cycle is rolled back and reported as an
//! error instead of leaving the netlist broken.

use crate::error::NetlistError;
use crate::gate::{GateType, NodeKind};
use crate::netlist::{
    constant_gates, eval_positions, fanout_csr, levelize_arena, Netlist, NodeId, NONE,
};
use crate::Result;

/// Node ids whose function may have changed after an ECO edit: the edited
/// node plus its transitive fanout (crossing sequential elements). Sorted
/// ascending and deduplicated; an empty cone means the edit was trivial
/// (a no-op that left the circuit structurally identical).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DirtyCone {
    nodes: Vec<NodeId>,
}

impl DirtyCone {
    /// The affected node ids, sorted ascending.
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// Number of affected nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` when the edit was trivial and nothing changed.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Whether `id` is inside the cone.
    pub fn contains(&self, id: NodeId) -> bool {
        self.nodes.binary_search(&id).is_ok()
    }
}

impl Netlist {
    /// Replaces the gate type of `id`, keeping its fanins.
    ///
    /// Replacing a gate with its own type is a no-op and returns an empty
    /// [`DirtyCone`]. Levels and adjacency are unchanged by a type swap, so
    /// this edit never re-levelizes.
    ///
    /// # Errors
    ///
    /// [`NetlistError::Invalid`] when `id` is out of range or not a
    /// combinational gate, [`NetlistError::BadArity`] when the current fanin
    /// count is illegal for `gate`.
    pub fn replace_gate(&mut self, id: NodeId, gate: GateType) -> Result<DirtyCone> {
        let i = self.check_node(id)?;
        let old = match self.kinds[i] {
            NodeKind::Gate(g) => g,
            _ => {
                return Err(NetlistError::Invalid(format!(
                    "eco replace target `{}` is not a gate",
                    self.node(id).name
                )))
            }
        };
        let arity = (self.fanin_off[i + 1] - self.fanin_off[i]) as usize;
        if !gate.arity_ok(arity) {
            return Err(NetlistError::BadArity {
                name: self.node(id).name.to_string(),
                gate: gate.to_string(),
                got: arity,
            });
        }
        if old == gate {
            return Ok(DirtyCone::default());
        }
        self.kinds[i] = NodeKind::Gate(gate);
        Ok(self.fanout_cone(id))
    }

    /// Rewires fanin pin `pin` of `gate` to `new_driver`.
    ///
    /// Rewiring a pin to its current driver is a no-op and returns an empty
    /// [`DirtyCone`]. A rewire that would create a combinational cycle is
    /// rolled back and rejected.
    ///
    /// # Errors
    ///
    /// [`NetlistError::Invalid`] when either id is out of range, `gate` has
    /// no fanin pins (a primary input), `pin` is out of range, or the edit
    /// introduces a combinational cycle.
    pub fn rewire_pin(
        &mut self,
        gate: NodeId,
        pin: usize,
        new_driver: NodeId,
    ) -> Result<DirtyCone> {
        let i = self.check_node(gate)?;
        self.check_node(new_driver)?;
        let arity = (self.fanin_off[i + 1] - self.fanin_off[i]) as usize;
        if pin >= arity {
            return Err(NetlistError::Invalid(format!(
                "eco rewire pin {pin} out of range for `{}` ({arity} fanins)",
                self.node(gate).name
            )));
        }
        let edge = self.fanin_off[i] as usize + pin;
        let old_driver = self.fanin_edges[edge];
        if old_driver == new_driver {
            return Ok(DirtyCone::default());
        }
        let was_acyclic = self.acyclic;
        self.fanin_edges[edge] = new_driver;
        self.refresh();
        if was_acyclic && !self.acyclic {
            self.fanin_edges[edge] = old_driver;
            self.refresh();
            return Err(NetlistError::Invalid(format!(
                "eco rewire of `{}` pin {pin} creates a combinational cycle",
                self.node(gate).name
            )));
        }
        Ok(self.fanout_cone(gate))
    }

    /// Appends a new gate called `name` with the given fanins. The gate
    /// drives nothing yet (wire it in with [`Netlist::rewire_pin`]); its
    /// [`DirtyCone`] is just itself.
    ///
    /// # Errors
    ///
    /// [`NetlistError::DuplicateNode`] when the name exists,
    /// [`NetlistError::BadArity`] when the fanin count is illegal,
    /// [`NetlistError::Invalid`] when a fanin id is out of range.
    pub fn add_gate(
        &mut self,
        name: &str,
        gate: GateType,
        fanins: &[NodeId],
    ) -> Result<(NodeId, DirtyCone)> {
        if !gate.arity_ok(fanins.len()) {
            return Err(NetlistError::BadArity {
                name: name.to_string(),
                gate: gate.to_string(),
                got: fanins.len(),
            });
        }
        for &f in fanins {
            self.check_node(f)?;
        }
        let sym = self.names.intern(name);
        if sym as usize == self.def.len() {
            self.def.push(NONE);
        }
        if self.def[sym as usize] != NONE {
            return Err(NetlistError::DuplicateNode(name.to_string()));
        }
        let id = NodeId(self.kinds.len() as u32);
        self.def[sym as usize] = id.0;
        self.kinds.push(NodeKind::Gate(gate));
        self.node_sym.push(sym);
        self.fanin_edges.extend_from_slice(fanins);
        self.fanin_off.push(self.fanin_edges.len() as u32);
        self.po_count.push(0);
        self.num_gates += 1;
        // A fresh gate has no fanouts, so it cannot close a cycle.
        self.refresh();
        Ok((id, DirtyCone { nodes: vec![id] }))
    }

    fn check_node(&self, id: NodeId) -> Result<usize> {
        if id.index() >= self.kinds.len() {
            return Err(NetlistError::Invalid(format!(
                "eco edit references out-of-range node {id}"
            )));
        }
        Ok(id.index())
    }

    /// Rebuilds the fanout CSR and levelization after a structural edit.
    fn refresh(&mut self) {
        let (fanout_off, fanout_edges) = fanout_csr(&self.fanin_off, &self.fanin_edges);
        self.fanout_off = fanout_off;
        self.fanout_edges = fanout_edges;
        let (level, eval_order, max_level, acyclic) = levelize_arena(
            &self.kinds,
            &self.fanin_off,
            &self.fanin_edges,
            &self.fanout_off,
            &self.fanout_edges,
            self.num_gates,
        );
        self.eval_pos = eval_positions(self.kinds.len(), &eval_order);
        self.constants = constant_gates(&self.kinds);
        self.level = level;
        self.eval_order = eval_order;
        self.max_level = max_level;
        self.acyclic = acyclic;
    }

    /// Inclusive transitive fanout of `seed` (crossing sequential elements),
    /// sorted ascending.
    fn fanout_cone(&self, seed: NodeId) -> DirtyCone {
        let mut seen = vec![false; self.kinds.len()];
        let mut stack = vec![seed];
        seen[seed.index()] = true;
        let mut nodes = Vec::new();
        while let Some(id) = stack.pop() {
            nodes.push(id);
            for &fo in self.fanouts(id) {
                if !seen[fo.index()] {
                    seen[fo.index()] = true;
                    stack.push(fo);
                }
            }
        }
        nodes.sort_unstable();
        DirtyCone { nodes }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::NetlistBuilder;

    fn sample() -> Netlist {
        let mut b = NetlistBuilder::new("eco");
        b.input("a");
        b.input("b");
        b.gate("g", GateType::And, &["a", "b"]).unwrap();
        b.gate("h", GateType::Not, &["g"]).unwrap();
        b.dff("q", "h").unwrap();
        b.gate("o", GateType::Xor, &["q", "b"]).unwrap();
        b.output("o").unwrap();
        b.build().unwrap()
    }

    #[test]
    fn replace_same_type_is_trivial() {
        let mut n = sample();
        let before = n.structural_hash();
        let g = n.require("g").unwrap();
        let cone = n.replace_gate(g, GateType::And).unwrap();
        assert!(cone.is_empty());
        assert_eq!(n.structural_hash(), before);
        n.validate().unwrap();
    }

    #[test]
    fn replace_gate_dirties_the_fanout_cone() {
        let mut n = sample();
        let before = n.structural_hash();
        let g = n.require("g").unwrap();
        let cone = n.replace_gate(g, GateType::Nand).unwrap();
        assert_ne!(n.structural_hash(), before);
        for name in ["g", "h", "q", "o"] {
            assert!(cone.contains(n.require(name).unwrap()), "{name} not dirty");
        }
        assert!(!cone.contains(n.require("a").unwrap()));
        n.validate().unwrap();
    }

    #[test]
    fn replace_rejects_non_gates_and_bad_arity() {
        let mut n = sample();
        let a = n.require("a").unwrap();
        assert!(n.replace_gate(a, GateType::Not).is_err());
        let g = n.require("g").unwrap();
        assert!(matches!(
            n.replace_gate(g, GateType::Not),
            Err(NetlistError::BadArity { .. })
        ));
    }

    #[test]
    fn rewire_same_driver_is_trivial() {
        let mut n = sample();
        let before = n.structural_hash();
        let h = n.require("h").unwrap();
        let g = n.require("g").unwrap();
        let cone = n.rewire_pin(h, 0, g).unwrap();
        assert!(cone.is_empty());
        assert_eq!(n.structural_hash(), before);
    }

    #[test]
    fn rewire_changes_hash_and_adjacency() {
        let mut n = sample();
        let before = n.structural_hash();
        let h = n.require("h").unwrap();
        let a = n.require("a").unwrap();
        let cone = n.rewire_pin(h, 0, a).unwrap();
        assert!(!cone.is_empty());
        assert_ne!(n.structural_hash(), before);
        assert_eq!(n.fanins(h), &[a]);
        assert!(n.fanouts(a).contains(&h));
        let g = n.require("g").unwrap();
        assert!(!n.fanouts(g).contains(&h));
        n.validate().unwrap();
        // Levels were rebuilt: h no longer sits above g.
        let (_, level, _) = n.level_data().expect("still acyclic");
        assert_eq!(level[h.index()], 1);
    }

    #[test]
    fn rewire_into_a_cycle_is_rolled_back() {
        let mut n = sample();
        let before = n.structural_hash();
        let g = n.require("g").unwrap();
        let h = n.require("h").unwrap();
        let err = n.rewire_pin(g, 0, h).unwrap_err();
        assert!(matches!(err, NetlistError::Invalid(_)));
        assert_eq!(n.structural_hash(), before, "edit must be rolled back");
        n.validate().unwrap();
        assert!(n.level_data().is_some());
    }

    #[test]
    fn add_gate_refreshes_constants_and_eval_positions() {
        let mut n = sample();
        assert!(n.constants().is_empty());
        let (tie, _) = n.add_gate("tie", GateType::Const1, &[]).unwrap();
        assert_eq!(n.constants(), &[tie]);
        let csr = n.csr();
        let levels = crate::levelize::levelize(&n).unwrap();
        assert!(levels.order().contains(&tie));
        for (pos, &id) in levels.order().iter().enumerate() {
            assert_eq!(csr.eval_pos(id) as usize, pos);
        }
    }

    #[test]
    fn add_gate_appends_and_dirties_itself() {
        let mut n = sample();
        let before = n.structural_hash();
        let a = n.require("a").unwrap();
        let q = n.require("q").unwrap();
        let (id, cone) = n.add_gate("spare", GateType::Or, &[a, q]).unwrap();
        assert_ne!(n.structural_hash(), before);
        assert_eq!(cone.nodes(), &[id]);
        assert_eq!(n.node_id("spare"), Some(id));
        assert_eq!(n.fanins(id), &[a, q]);
        assert!(n.fanouts(a).contains(&id));
        assert_eq!(n.num_gates(), 4);
        n.validate().unwrap();
    }

    #[test]
    fn add_gate_rejects_duplicates_and_bad_fanins() {
        let mut n = sample();
        let a = n.require("a").unwrap();
        assert!(matches!(
            n.add_gate("g", GateType::Buf, &[a]),
            Err(NetlistError::DuplicateNode(_))
        ));
        assert!(n.add_gate("x", GateType::Buf, &[NodeId(999)]).is_err());
        assert!(matches!(
            n.add_gate("y", GateType::Not, &[a, a]),
            Err(NetlistError::BadArity { .. })
        ));
    }
}
