//! The implication database: learned same-frame relations with contrapositive
//! closure, deduplication and per-kind counting.

use crate::relation::{Implication, Literal, RelationKind};
use sla_netlist::{FastHashMap, Netlist, NodeId};
use std::collections::hash_map::Entry;

/// Stores learned same-frame implications.
///
/// Every inserted relation is stored together with its contrapositive (the two
/// are one logical fact); duplicates are ignored. Each canonical relation also
/// remembers whether every derivation of it crossed a time frame — relations
/// derivable at frame 0 are *combinational* and are excluded from the
/// "sequential" counts the paper reports in Table 3.
#[derive(Debug, Clone, Default)]
pub struct ImplicationDb {
    /// Canonical relation list in insertion order, with the sequential flag.
    canonical: Vec<(Implication, bool)>,
    /// Position of each relation in `canonical`, keyed by the orientation-
    /// independent form (the smaller of relation and contrapositive), so
    /// lookups, duplicate insertions and flag downgrades are O(1) instead of
    /// a scan.
    index: FastHashMap<Implication, usize>,
}

/// Orientation-independent key of a relation: a relation and its
/// contrapositive are one logical fact.
fn canonical_key(imp: &Implication) -> Implication {
    imp.contrapositive().min(*imp)
}

impl ImplicationDb {
    /// Creates an empty database.
    pub fn new() -> Self {
        ImplicationDb::default()
    }

    /// Inserts a relation (and its contrapositive).
    ///
    /// `sequential` records whether this derivation needed to cross a time
    /// frame. When the same relation is derived both sequentially and
    /// combinationally it is counted as combinational, because combinational
    /// learning would have found it anyway.
    ///
    /// Returns `true` when the relation was new. Self-implications
    /// (`a=v → a=v`) are ignored; contradictory self-implications
    /// (`a=v → a=¬v`) are rejected here — the tie-learning pass handles them.
    pub fn add(&mut self, imp: Implication, sequential: bool) -> bool {
        if imp.antecedent.node == imp.consequent.node {
            return false;
        }
        match self.index.entry(canonical_key(&imp)) {
            Entry::Occupied(at) => {
                if !sequential {
                    // Downgrade an existing sequential derivation to
                    // combinational.
                    self.canonical[*at.get()].1 = false;
                }
                false
            }
            Entry::Vacant(slot) => {
                slot.insert(self.canonical.len());
                self.canonical.push((imp, sequential));
                true
            }
        }
    }

    /// Returns `true` if the relation (or its contrapositive) is stored.
    pub fn contains(&self, imp: &Implication) -> bool {
        self.index.contains_key(&canonical_key(imp))
    }

    /// Returns `true` when `a = va` is known to imply `b = vb` directly.
    pub fn implies(&self, a: NodeId, va: bool, b: NodeId, vb: bool) -> bool {
        self.contains(&Implication::new(Literal::new(a, va), Literal::new(b, vb)))
    }

    /// Number of stored canonical relations (a relation and its contrapositive
    /// count once).
    pub fn len(&self) -> usize {
        self.canonical.len()
    }

    /// Returns `true` when no relation is stored.
    pub fn is_empty(&self) -> bool {
        self.canonical.is_empty()
    }

    /// Iterates over canonical relations together with the flag telling
    /// whether the relation required sequential (multi-frame) analysis.
    pub fn iter(&self) -> impl Iterator<Item = (Implication, bool)> + '_ {
        self.canonical.iter().copied()
    }

    /// Iterates over canonical relations only.
    pub fn relations(&self) -> impl Iterator<Item = Implication> + '_ {
        self.canonical.iter().map(|(i, _)| *i)
    }

    /// Merges another database into this one.
    pub fn merge(&mut self, other: &ImplicationDb) {
        for (imp, seq) in other.iter() {
            self.add(imp, seq);
        }
    }

    /// Counts canonical relations by kind; when `sequential_only` is set, only
    /// relations that required crossing a time frame are counted (this is what
    /// Table 3 of the paper reports).
    pub fn count_by_kind(&self, netlist: &Netlist, sequential_only: bool) -> RelationCounts {
        let mut counts = RelationCounts::default();
        for (imp, seq) in self.iter() {
            if sequential_only && !seq {
                continue;
            }
            match imp.kind(netlist) {
                RelationKind::FfFf => counts.ff_ff += 1,
                RelationKind::GateFf => counts.gate_ff += 1,
                RelationKind::Other => counts.other += 1,
            }
        }
        counts
    }
}

/// Relation counts by endpoint kind (the columns of Table 3).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RelationCounts {
    /// Relations between two sequential elements (invalid-state relations).
    pub ff_ff: usize,
    /// Relations between a gate and a sequential element.
    pub gate_ff: usize,
    /// Relations with other endpoint combinations (not reported by the paper).
    pub other: usize,
}

impl RelationCounts {
    /// Total number of counted relations.
    pub fn total(&self) -> usize {
        self.ff_ff + self.gate_ff + self.other
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sla_netlist::{GateType, NetlistBuilder};

    fn sample() -> Netlist {
        let mut b = NetlistBuilder::new("db");
        b.input("i");
        b.gate("g", GateType::Not, &["i"]).unwrap();
        b.dff("f1", "g").unwrap();
        b.dff("f2", "f1").unwrap();
        b.dff("f3", "f2").unwrap();
        b.output("f3").unwrap();
        b.build().unwrap()
    }

    fn lit(n: &Netlist, name: &str, v: bool) -> Literal {
        Literal::new(n.require(name).unwrap(), v)
    }

    #[test]
    fn add_stores_contrapositive_and_dedupes() {
        let n = sample();
        let mut db = ImplicationDb::new();
        let imp = Implication::new(lit(&n, "f1", true), lit(&n, "f2", false));
        assert!(db.add(imp, true));
        assert_eq!(db.len(), 1);
        // Contrapositive is contained but does not add a second canonical entry.
        assert!(db.contains(&imp.contrapositive()));
        assert!(!db.add(imp.contrapositive(), true));
        assert!(!db.add(imp, true));
        assert_eq!(db.len(), 1);
        assert!(db.implies(
            n.require("f2").unwrap(),
            true,
            n.require("f1").unwrap(),
            false
        ));
    }

    #[test]
    fn self_implications_ignored() {
        let n = sample();
        let mut db = ImplicationDb::new();
        let f1 = n.require("f1").unwrap();
        assert!(!db.add(
            Implication::new(Literal::new(f1, true), Literal::new(f1, true)),
            false
        ));
        assert!(db.is_empty());
    }

    #[test]
    fn counts_by_kind_and_sequential_flag() {
        let n = sample();
        let mut db = ImplicationDb::new();
        db.add(
            Implication::new(lit(&n, "f1", true), lit(&n, "f2", false)),
            true,
        );
        db.add(
            Implication::new(lit(&n, "g", false), lit(&n, "f3", false)),
            true,
        );
        db.add(
            Implication::new(lit(&n, "f2", true), lit(&n, "f3", true)),
            false, // combinational derivation
        );
        let all = db.count_by_kind(&n, false);
        assert_eq!(all.ff_ff, 2);
        assert_eq!(all.gate_ff, 1);
        assert_eq!(all.total(), 3);
        let seq = db.count_by_kind(&n, true);
        assert_eq!(seq.ff_ff, 1);
        assert_eq!(seq.gate_ff, 1);
    }

    #[test]
    fn combinational_derivation_downgrades_sequential() {
        let n = sample();
        let mut db = ImplicationDb::new();
        let imp = Implication::new(lit(&n, "f1", true), lit(&n, "f2", false));
        db.add(imp, true);
        assert_eq!(db.count_by_kind(&n, true).ff_ff, 1);
        db.add(imp, false);
        assert_eq!(db.count_by_kind(&n, true).ff_ff, 0);
        assert_eq!(db.count_by_kind(&n, false).ff_ff, 1);
    }

    #[test]
    fn merge_combines_databases() {
        let n = sample();
        let mut a = ImplicationDb::new();
        let mut b = ImplicationDb::new();
        a.add(
            Implication::new(lit(&n, "f1", true), lit(&n, "f2", false)),
            true,
        );
        b.add(
            Implication::new(lit(&n, "f2", true), lit(&n, "f3", false)),
            true,
        );
        b.add(
            Implication::new(lit(&n, "f1", true), lit(&n, "f2", false)),
            true,
        );
        a.merge(&b);
        assert_eq!(a.len(), 2);
    }
}
