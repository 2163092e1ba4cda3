//! Combinational gate-equivalence detection by parallel-pattern simulation.
//!
//! The paper (§3.1) uses combinationally equivalent gates to let values
//! propagate further during three-valued learning simulation: when one member
//! of an equivalence class obtains a binary value, the others are set too.
//! Equivalences (including complemented equivalences) are identified by
//! simulating many random patterns 64 at a time and grouping gates with equal
//! or complementary signatures; for circuits with few frame inputs the
//! signatures are exhaustive and the classes are exact.

use crate::eval::eval_gate64;
use crate::Result;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sla_netlist::levelize::levelize;
use sla_netlist::{Netlist, NodeId, NodeKind};
use std::collections::BTreeMap;

/// Configuration of the equivalence-detection pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EquivConfig {
    /// Number of 64-bit pattern words simulated when sampling randomly.
    pub random_words: usize,
    /// Seed of the deterministic random pattern generator.
    pub seed: u64,
    /// If the number of frame inputs (primary inputs + sequential outputs) is
    /// at most this, signatures are computed exhaustively and classes are exact.
    pub exhaustive_input_limit: usize,
}

impl Default for EquivConfig {
    fn default() -> Self {
        EquivConfig {
            random_words: 8,
            seed: 0x5ea1_ea44,
            exhaustive_input_limit: 14,
        }
    }
}

/// A partition of combinational gates into equivalence classes with polarity.
///
/// Each member is stored with a flag telling whether it equals the class
/// representative (`false`) or its complement (`true`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EquivClasses {
    membership: Vec<Option<(u32, bool)>>,
    classes: Vec<Vec<(NodeId, bool)>>,
}

impl EquivClasses {
    /// An empty partition (no equivalences known) over `num_nodes` nodes.
    pub fn empty(num_nodes: usize) -> Self {
        EquivClasses {
            membership: vec![None; num_nodes],
            classes: Vec::new(),
        }
    }

    /// Builds a partition from explicit classes. Each class must have at least
    /// two members; polarity is relative to the first member.
    pub fn from_classes(num_nodes: usize, classes: Vec<Vec<(NodeId, bool)>>) -> Self {
        let mut membership = vec![None; num_nodes];
        let classes: Vec<Vec<(NodeId, bool)>> =
            classes.into_iter().filter(|c| c.len() >= 2).collect();
        for (ci, class) in classes.iter().enumerate() {
            for &(node, inv) in class {
                membership[node.index()] = Some((ci as u32, inv));
            }
        }
        EquivClasses {
            membership,
            classes,
        }
    }

    /// Class index and polarity of a node, if it belongs to a class.
    pub fn class_of(&self, node: NodeId) -> Option<(usize, bool)> {
        self.membership
            .get(node.index())
            .copied()
            .flatten()
            .map(|(c, inv)| (c as usize, inv))
    }

    /// Members of a class (node, polarity relative to the representative).
    pub fn members(&self, class: usize) -> &[(NodeId, bool)] {
        &self.classes[class]
    }

    /// Number of classes with at least two members.
    pub fn num_classes(&self) -> usize {
        self.classes.len()
    }

    /// Returns `true` when no equivalences are recorded.
    pub fn is_empty(&self) -> bool {
        self.classes.is_empty()
    }
}

/// Finds candidate combinational equivalence classes among the gates of the
/// netlist (exact classes when the circuit has few frame inputs, signature
/// based otherwise).
///
/// # Errors
///
/// Returns an error if the combinational logic cannot be levelized.
pub fn find_equivalences(netlist: &Netlist, config: &EquivConfig) -> Result<EquivClasses> {
    let levels = levelize(netlist)?;
    let frame_inputs: Vec<NodeId> = netlist
        .node_ids()
        .filter(|&id| {
            let kind = netlist.kind(id);
            kind.is_input() || kind.is_sequential()
        })
        .collect();

    let exhaustive = frame_inputs.len() <= config.exhaustive_input_limit;
    let words = if exhaustive {
        (1usize << frame_inputs.len()).div_ceil(64)
    } else {
        config.random_words.max(1)
    };

    let n = netlist.num_nodes();
    let mut signatures: Vec<Vec<u64>> = vec![Vec::with_capacity(words); n];
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut word_values = vec![0u64; n];

    for w in 0..words {
        // Assign frame-input patterns for this word.
        for (ord, &id) in frame_inputs.iter().enumerate() {
            let pattern = if exhaustive {
                exhaustive_word(ord, w)
            } else {
                rng.gen::<u64>()
            };
            word_values[id.index()] = pattern;
        }
        for &id in levels.order() {
            let NodeKind::Gate(gate) = netlist.kind(id) else {
                continue;
            };
            word_values[id.index()] = eval_gate64(
                gate,
                netlist.fanins(id).iter().map(|f| word_values[f.index()]),
            );
        }
        for (signature, &word) in signatures.iter_mut().zip(&word_values) {
            signature.push(word);
        }
    }

    // Mask off unused pattern bits of the last word in exhaustive mode so that
    // complements compare correctly.
    if exhaustive {
        let total_patterns = 1usize << frame_inputs.len();
        let used_in_last = total_patterns - (words - 1) * 64;
        if used_in_last < 64 {
            let mask = (1u64 << used_in_last) - 1;
            for sig in &mut signatures {
                if let Some(last) = sig.last_mut() {
                    *last &= mask;
                }
            }
        }
    }

    // Group gates by canonical signature (min of signature and complement).
    let mask_last = if exhaustive {
        let total_patterns = 1usize << frame_inputs.len();
        let used_in_last = total_patterns - (words - 1) * 64;
        if used_in_last < 64 {
            (1u64 << used_in_last) - 1
        } else {
            u64::MAX
        }
    } else {
        u64::MAX
    };

    let canonical = |sig: &[u64]| -> (Vec<u64>, bool) {
        let mut comp: Vec<u64> = sig.iter().map(|w| !w).collect();
        if let Some(last) = comp.last_mut() {
            *last &= mask_last;
        }
        if comp < sig.to_vec() {
            (comp, true)
        } else {
            (sig.to_vec(), false)
        }
    };

    // A BTreeMap so `into_values` below walks signatures in sorted order —
    // the class list is re-sorted by leader afterwards, but the iteration
    // itself must not depend on hash-insertion history (fast-map-iteration).
    let mut groups: BTreeMap<Vec<u64>, Vec<(NodeId, bool)>> = BTreeMap::new();
    for id in netlist.gates() {
        let (canon, inverted) = canonical(&signatures[id.index()]);
        groups.entry(canon).or_default().push((id, inverted));
    }

    let mut classes: Vec<Vec<(NodeId, bool)>> = groups
        .into_values()
        .filter(|members| members.len() >= 2)
        .map(|mut members| {
            members.sort_by_key(|(id, _)| *id);
            // Normalize polarity relative to the first member.
            let base = members[0].1;
            members
                .into_iter()
                .map(|(id, inv)| (id, inv ^ base))
                .collect()
        })
        .collect();
    classes.sort_by_key(|c| c[0].0);

    Ok(EquivClasses::from_classes(n, classes))
}

/// Bit pattern of exhaustive enumeration: pattern index `p = w*64 + bit`
/// enumerates all input combinations; input `ord` takes bit `ord` of `p`.
fn exhaustive_word(ord: usize, word: usize) -> u64 {
    let mut out = 0u64;
    for bit in 0..64 {
        let pattern = word * 64 + bit;
        if (pattern >> ord) & 1 == 1 {
            out |= 1 << bit;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sla_netlist::{GateType, NetlistBuilder};

    #[test]
    fn detects_identical_and_complemented_gates() {
        let mut b = NetlistBuilder::new("eq");
        b.input("a");
        b.input("b");
        b.gate("g1", GateType::And, &["a", "b"]).unwrap();
        b.gate("g2", GateType::And, &["b", "a"]).unwrap();
        b.gate("g3", GateType::Nand, &["a", "b"]).unwrap();
        b.gate("g4", GateType::Or, &["a", "b"]).unwrap();
        b.output("g3").unwrap();
        b.output("g4").unwrap();
        b.output("g1").unwrap();
        b.output("g2").unwrap();
        let n = b.build().unwrap();
        let eq = find_equivalences(&n, &EquivConfig::default()).unwrap();
        let g1 = n.require("g1").unwrap();
        let g2 = n.require("g2").unwrap();
        let g3 = n.require("g3").unwrap();
        let g4 = n.require("g4").unwrap();
        let (c1, p1) = eq.class_of(g1).unwrap();
        let (c2, p2) = eq.class_of(g2).unwrap();
        let (c3, p3) = eq.class_of(g3).unwrap();
        assert_eq!(c1, c2);
        assert_eq!(c1, c3);
        assert_eq!(p1, p2);
        assert_ne!(p1, p3, "NAND is the complement of AND");
        assert!(
            eq.class_of(g4).is_none(),
            "OR is not equivalent to AND of 2 inputs"
        );
    }

    #[test]
    fn exhaustive_mode_is_exact_for_small_circuits() {
        // g5 = a AND (b OR b) == a AND b; random signatures might alias, but
        // exhaustive mode must find exactly this equivalence.
        let mut b = NetlistBuilder::new("exact");
        b.input("a");
        b.input("b");
        b.gate("t", GateType::Or, &["b", "b"]).unwrap();
        b.gate("g5", GateType::And, &["a", "t"]).unwrap();
        b.gate("g6", GateType::And, &["a", "b"]).unwrap();
        b.gate("g7", GateType::Xor, &["a", "b"]).unwrap();
        b.output("g5").unwrap();
        b.output("g6").unwrap();
        b.output("g7").unwrap();
        let n = b.build().unwrap();
        let eq = find_equivalences(&n, &EquivConfig::default()).unwrap();
        let g5 = n.require("g5").unwrap();
        let g6 = n.require("g6").unwrap();
        let g7 = n.require("g7").unwrap();
        assert_eq!(eq.class_of(g5).unwrap().0, eq.class_of(g6).unwrap().0);
        assert!(
            eq.class_of(g7).is_none() || eq.class_of(g7).unwrap().0 != eq.class_of(g5).unwrap().0
        );
        // t (buffer of b) is equivalent to... nothing else among gates except itself.
    }

    #[test]
    fn empty_partition_reports_nothing() {
        let eq = EquivClasses::empty(10);
        assert!(eq.is_empty());
        assert_eq!(eq.num_classes(), 0);
        assert!(eq.class_of(NodeId(3)).is_none());
    }

    #[test]
    fn sequential_outputs_are_free_variables() {
        // Gates fed by FF outputs are compared over all FF values, so a gate on
        // a FF is not spuriously equivalent to a gate on an input.
        let mut b = NetlistBuilder::new("seq");
        b.input("a");
        b.dff("q", "a").unwrap();
        b.gate("g1", GateType::Not, &["a"]).unwrap();
        b.gate("g2", GateType::Not, &["q"]).unwrap();
        b.output("g1").unwrap();
        b.output("g2").unwrap();
        let n = b.build().unwrap();
        let eq = find_equivalences(&n, &EquivConfig::default()).unwrap();
        let g1 = n.require("g1").unwrap();
        let g2 = n.require("g2").unwrap();
        // Not being in any class at all is also correct.
        if let (Some((c1, _)), Some((c2, _))) = (eq.class_of(g1), eq.class_of(g2)) {
            assert_ne!(c1, c2);
        }
    }
}
