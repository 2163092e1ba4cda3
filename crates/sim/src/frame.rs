//! Single-frame evaluation of the combinational logic.

use crate::equiv::EquivClasses;
use crate::eval::eval_gate3_at;
use crate::value::Logic3;
use crate::Result;
use sla_netlist::levelize::{levelize, Levelization};
use sla_netlist::{Netlist, NodeId, NodeKind};

/// Evaluates the combinational gates of one time frame in levelized order.
///
/// Values live in a caller-owned `Vec<Logic3>` indexed by [`NodeId`]; primary
/// inputs and sequential-element outputs are frame inputs and are read, never
/// written. Nodes marked *forced* (injected stems, learned tied gates) keep
/// their value; if evaluation computes a contradictory binary value for a
/// forced gate, the contradiction is reported to the caller.
#[derive(Debug, Clone)]
pub struct CombEvaluator<'a> {
    netlist: &'a Netlist,
    levels: Levelization<'a>,
}

impl<'a> CombEvaluator<'a> {
    /// Builds an evaluator over the netlist's stored levelization.
    ///
    /// # Errors
    ///
    /// Returns a levelization error if the combinational logic is cyclic.
    pub fn new(netlist: &'a Netlist) -> Result<Self> {
        Ok(CombEvaluator {
            netlist,
            levels: levelize(netlist)?,
        })
    }

    /// The underlying netlist.
    pub fn netlist(&self) -> &'a Netlist {
        self.netlist
    }

    /// The levelization of the netlist.
    pub fn levels(&self) -> Levelization<'a> {
        self.levels
    }

    /// Evaluates all combinational gates.
    ///
    /// * `values` — per-node values; length must be `netlist.num_nodes()`.
    /// * `forced` — per-node flags; forced nodes keep their current value.
    /// * `equiv` — optional combinational equivalence classes; when a class
    ///   member obtains a binary value, the other members are set accordingly
    ///   and evaluation is iterated to a fixed point.
    ///
    /// Returns the first node at which a contradiction was observed (a forced
    /// node whose computed or equivalence-propagated value is the opposite
    /// binary value), or `None` if evaluation completed without conflict.
    pub fn eval(
        &self,
        values: &mut [Logic3],
        forced: &[bool],
        equiv: Option<&EquivClasses>,
    ) -> Option<NodeId> {
        debug_assert_eq!(values.len(), self.netlist.num_nodes());
        debug_assert_eq!(forced.len(), self.netlist.num_nodes());
        let mut conflict = None;
        // A single topological pass suffices unless equivalence forwarding
        // pushed a value backwards in the order; iterate to fixpoint only in
        // that (rare) case.
        let max_passes = if equiv.is_some() {
            self.levels.order().len().max(1)
        } else {
            1
        };
        for _ in 0..max_passes {
            let needs_repass = self.eval_pass(values, forced, equiv, &mut conflict);
            if !needs_repass {
                break;
            }
        }
        conflict
    }

    fn eval_pass(
        &self,
        values: &mut [Logic3],
        forced: &[bool],
        equiv: Option<&EquivClasses>,
        conflict: &mut Option<NodeId>,
    ) -> bool {
        let mut needs_repass = false;
        for &id in self.levels.order() {
            let NodeKind::Gate(gate) = self.netlist.kind(id) else {
                continue;
            };
            let computed = eval_gate3_at(gate, self.netlist.fanins(id), values);
            let idx = id.index();
            if forced[idx] {
                if computed.is_binary()
                    && values[idx].is_binary()
                    && computed != values[idx]
                    && conflict.is_none()
                {
                    *conflict = Some(id);
                }
            } else if computed.is_binary() {
                // Evaluation is monotone: it only ever adds information
                // (X -> binary). A binary value that disagrees with one that was
                // propagated earlier (e.g. through an equivalence class) is a
                // genuine contradiction.
                if values[idx] == Logic3::X {
                    values[idx] = computed;
                } else if values[idx] != computed && conflict.is_none() {
                    *conflict = Some(id);
                }
            }
            // Equivalence forwarding: propagate a binary value to all members
            // of the node's combinational equivalence class. Only a write to a
            // node *behind* the cursor forces another pass; writes ahead are
            // consumed by this pass.
            if let Some(eq) = equiv {
                if let Some(v) = values[idx].to_bool() {
                    if let Some((class, inv)) = eq.class_of(id) {
                        let rep_value = v ^ inv;
                        for &(member, m_inv) in eq.members(class) {
                            let m_idx = member.index();
                            if m_idx == idx {
                                continue;
                            }
                            let m_val = Logic3::from_bool(rep_value ^ m_inv);
                            if values[m_idx] == Logic3::X && !forced[m_idx] {
                                values[m_idx] = m_val;
                                if is_behind(self.levels, member, id) {
                                    needs_repass = true;
                                }
                            } else if values[m_idx].is_binary()
                                && values[m_idx] != m_val
                                && conflict.is_none()
                            {
                                *conflict = Some(member);
                            }
                        }
                    }
                }
            }
        }
        needs_repass
    }
}

/// Whether equivalence forwarding from the gate `id` wrote `member` behind
/// the evaluation cursor, so the pass must run again. Frame inputs (primary
/// inputs and sequential elements, outside the evaluation order) count as
/// position 0.
#[inline]
pub(crate) fn is_behind(levels: Levelization<'_>, member: NodeId, id: NodeId) -> bool {
    let m_pos = match levels.eval_pos(member) {
        u32::MAX => 0,
        p => p,
    };
    m_pos < levels.eval_pos(id)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sla_netlist::{GateType, NetlistBuilder};

    fn values(n: &Netlist) -> Vec<Logic3> {
        vec![Logic3::X; n.num_nodes()]
    }

    #[test]
    fn evaluates_simple_logic() {
        let mut b = NetlistBuilder::new("t");
        b.input("a");
        b.input("b");
        b.gate("g", GateType::And, &["a", "b"]).unwrap();
        b.gate("h", GateType::Nor, &["g", "a"]).unwrap();
        b.output("h").unwrap();
        let n = b.build().unwrap();
        let ev = CombEvaluator::new(&n).unwrap();
        let mut v = values(&n);
        let forced = vec![false; n.num_nodes()];
        v[n.require("a").unwrap().index()] = Logic3::One;
        v[n.require("b").unwrap().index()] = Logic3::One;
        assert!(ev.eval(&mut v, &forced, None).is_none());
        assert_eq!(v[n.require("g").unwrap().index()], Logic3::One);
        assert_eq!(v[n.require("h").unwrap().index()], Logic3::Zero);
    }

    #[test]
    fn x_inputs_stay_unknown_where_appropriate() {
        let mut b = NetlistBuilder::new("t");
        b.input("a");
        b.input("b");
        b.gate("g", GateType::And, &["a", "b"]).unwrap();
        b.output("g").unwrap();
        let n = b.build().unwrap();
        let ev = CombEvaluator::new(&n).unwrap();
        let mut v = values(&n);
        let forced = vec![false; n.num_nodes()];
        v[n.require("a").unwrap().index()] = Logic3::One;
        ev.eval(&mut v, &forced, None);
        assert_eq!(v[n.require("g").unwrap().index()], Logic3::X);
        // Controlling value decides regardless of the X.
        v[n.require("a").unwrap().index()] = Logic3::Zero;
        ev.eval(&mut v, &forced, None);
        assert_eq!(v[n.require("g").unwrap().index()], Logic3::Zero);
    }

    #[test]
    fn forced_gate_conflict_is_reported() {
        let mut b = NetlistBuilder::new("t");
        b.input("a");
        b.gate("g", GateType::Buf, &["a"]).unwrap();
        b.output("g").unwrap();
        let n = b.build().unwrap();
        let ev = CombEvaluator::new(&n).unwrap();
        let mut v = values(&n);
        let mut forced = vec![false; n.num_nodes()];
        let g = n.require("g").unwrap();
        let a = n.require("a").unwrap();
        v[a.index()] = Logic3::One;
        v[g.index()] = Logic3::Zero; // force g = 0 while its fanin says 1
        forced[g.index()] = true;
        assert_eq!(ev.eval(&mut v, &forced, None), Some(g));
        // The forced value is preserved.
        assert_eq!(v[g.index()], Logic3::Zero);
    }

    #[test]
    fn forced_gate_without_contradiction_is_fine() {
        let mut b = NetlistBuilder::new("t");
        b.input("a");
        b.gate("g", GateType::Buf, &["a"]).unwrap();
        b.gate("h", GateType::Not, &["g"]).unwrap();
        b.output("h").unwrap();
        let n = b.build().unwrap();
        let ev = CombEvaluator::new(&n).unwrap();
        let mut v = values(&n);
        let mut forced = vec![false; n.num_nodes()];
        let g = n.require("g").unwrap();
        v[g.index()] = Logic3::One; // a is X, so no contradiction
        forced[g.index()] = true;
        assert!(ev.eval(&mut v, &forced, None).is_none());
        assert_eq!(v[n.require("h").unwrap().index()], Logic3::Zero);
    }
}
