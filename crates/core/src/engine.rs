//! The sequential learning engine: orchestrates single-node learning, tie
//! extraction, multiple-node learning, gate-equivalence assistance and the
//! per-clock-class real-circuit handling.

use crate::classes::{clock_classes, ClockClass};
use crate::config::LearnOptions;
use crate::db::{ImplicationDb, RelationCounts};
use crate::relation::{CrossImplication, Implication};
use crate::tie::{TieKind, TiedGate};
use crate::{multi_node, single_node, Result};
use sla_netlist::stems::fanout_stems;
use sla_netlist::{Netlist, NodeId};
use sla_sim::{find_equivalences, EquivClasses, Fault, InjectionSim, SimOptions};
use std::collections::BTreeMap;
use std::time::Duration;

/// Summary statistics of one learning run (the quantities reported by Table 3
/// of the paper, plus engine-internal counters).
#[derive(Debug, Clone, Default)]
pub struct LearnStats {
    /// Number of fanout stems injected.
    pub stems: usize,
    /// Number of clock classes processed.
    pub classes: usize,
    /// Number of multiple-node learning targets simulated.
    pub multi_node_targets: usize,
    /// All learned same-frame relations by kind.
    pub total: RelationCounts,
    /// Relations that required sequential (multi-frame) analysis — what the
    /// paper reports, isolating the contribution of sequential learning.
    pub sequential: RelationCounts,
    /// Tied gates proved combinationally.
    pub tied_combinational: usize,
    /// Tied gates that required sequential analysis.
    pub tied_sequential: usize,
    /// Cross-frame relations collected (when enabled).
    pub cross_frame: usize,
    /// Work units actually spent (stem injections + multiple-node targets).
    /// A pure function of the netlist and configuration, identical for every
    /// thread count.
    pub budget_spent: u64,
    /// `true` when a finite [`crate::WorkBudget`] cut the run short: stems or
    /// multiple-node targets were skipped. Always `false` under the default
    /// unlimited budget.
    pub budget_exhausted: bool,
    /// Wall-clock learning time.
    pub cpu: Duration,
}

/// The complete outcome of a learning run.
#[derive(Debug, Clone, Default)]
pub struct LearnResult {
    /// Learned same-frame implications (with contrapositive closure).
    pub implications: ImplicationDb,
    /// Cross-frame relations (empty unless requested in the configuration).
    pub cross_frame: Vec<CrossImplication>,
    /// Tied gates, deduplicated.
    pub tied: Vec<TiedGate>,
    /// Run statistics.
    pub stats: LearnStats,
}

impl LearnResult {
    /// The invalid-state relations: learned same-frame relations whose two
    /// endpoints are both sequential elements.
    pub fn invalid_state_relations(&self, netlist: &Netlist) -> Vec<Implication> {
        self.implications
            .relations()
            .filter(|imp| {
                netlist.is_sequential(imp.antecedent.node)
                    && netlist.is_sequential(imp.consequent.node)
            })
            .collect()
    }

    /// The cross-frame relations in canonical export order: sorted and
    /// deduplicated. The raw [`LearnResult::cross_frame`] list repeats a
    /// relation once per deriving stem/frame pair; consumers that compile the
    /// relations into an index (the ATPG implication adjacency) want each
    /// logical fact once, in a deterministic order.
    pub fn cross_frame_deduped(&self) -> Vec<CrossImplication> {
        let mut out = self.cross_frame.clone();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Untestable stuck-at faults implied by the tied gates: a node tied to `v`
    /// makes its `stuck-at-v` fault undetectable.
    pub fn untestable_faults(&self) -> Vec<Fault> {
        self.tied.iter().map(|t| t.untestable_fault()).collect()
    }

    /// The tied gates as `(node, value)` constants, the form consumed by
    /// simulators and the ATPG engine.
    pub fn tied_constants(&self) -> Vec<(NodeId, bool)> {
        self.tied.iter().map(|t| (t.node, t.value)).collect()
    }
}

/// The sequential learning engine (paper §3).
///
/// See the crate-level documentation for an end-to-end example.
#[derive(Debug, Clone)]
pub struct SequentialLearner<'a> {
    netlist: &'a Netlist,
    config: LearnOptions,
}

impl<'a> SequentialLearner<'a> {
    /// Creates a learner for `netlist` with the given configuration.
    pub fn new(netlist: &'a Netlist, config: LearnOptions) -> Self {
        SequentialLearner { netlist, config }
    }

    /// The netlist being learned.
    pub fn netlist(&self) -> &'a Netlist {
        self.netlist
    }

    /// The active configuration.
    pub fn config(&self) -> &LearnOptions {
        &self.config
    }

    /// Runs the complete learning flow and returns every learned artifact.
    ///
    /// Learning runs on the calling thread, whatever `SLA_THREADS` says.
    /// Single-node learning packs 32 stems into each forward pass
    /// ([`single_node::run_batched`]); multiple-node learning packs up to 64
    /// targets into each pass ([`multi_node::run_batched`]). Its targets are
    /// coupled through the ties they prove.
    ///
    /// # Errors
    ///
    /// Returns an error when the combinational logic cannot be levelized (the
    /// netlist contains a combinational cycle).
    pub fn learn(&self) -> Result<LearnResult> {
        let start = sla_netlist::wallclock::now();
        let netlist = self.netlist;
        let stems = fanout_stems(netlist);

        let equivalences: Option<EquivClasses> = if self.config.gate_equivalence {
            let classes = find_equivalences(netlist, &self.config.equiv_config)?;
            if classes.is_empty() {
                None
            } else {
                Some(classes)
            }
        } else {
            None
        };

        // Learning runs per clock class (paper §3.3.2). A single class (or
        // none) needs no mask: everything is active.
        let cc = clock_classes(netlist);
        let classes: Vec<Option<ClockClass>> = if cc.len() <= 1 {
            vec![None]
        } else {
            cc.into_iter().map(Some).collect()
        };

        // The set/reset and multiple-port-latch propagation rules
        // (paper §3.3.1 / §3.3.3) always apply inside `InjectionSim`:
        // learning without them is unsound on real circuits.
        let options = SimOptions {
            max_frames: self.config.max_frames,
            stop_on_repeat: true,
        };

        let mut db = ImplicationDb::new();
        let mut cross_frame = Vec::new();
        let mut tied: BTreeMap<NodeId, TiedGate> = BTreeMap::new();
        let mut multi_targets = 0usize;
        // Budget accounting: one unit per stem injection, one per
        // multiple-node target. Truncation happens before the passes run, so
        // the work list — and therefore the learned database — is a
        // pure function of the configuration, never of the schedule.
        let budget = self.config.budget;
        let mut budget_spent = 0u64;
        let mut budget_exhausted = false;

        for class in &classes {
            let mask: Option<Vec<bool>> = class.as_ref().map(|c| c.activation_mask(netlist));

            let mut sim = InjectionSim::new(netlist)?;
            if let Some(eq) = &equivalences {
                sim.set_equivalences(eq.clone());
            }
            sim.set_active_sequential(mask.clone());
            sim.set_tied(tied.values().map(|t| (t.node, t.value)).collect());

            // Restrict stem injections on sequential elements to the active
            // class: asserting a foreign-domain flip-flop as a stem would tie
            // its value to this class's time base.
            let mut class_stems: Vec<NodeId> = stems
                .iter()
                .copied()
                .filter(|&s| {
                    !netlist.is_sequential(s) || mask.as_ref().is_none_or(|m| m[s.index()])
                })
                .collect();
            let stem_cap = budget.remaining(budget_spent).min(usize::MAX as u64) as usize;
            if class_stems.len() > stem_cap {
                class_stems.truncate(stem_cap);
                budget_exhausted = true;
            }
            budget_spent += class_stems.len() as u64;

            // Phase 1: single-node learning, 32 stems (64 lanes) per packed
            // forward pass.
            let single = single_node::run_batched(
                &sim,
                &class_stems,
                &options,
                mask.as_deref(),
                self.config.learn_cross_frame,
            );
            for (imp, seq) in single.implications {
                db.add(imp, seq);
            }
            cross_frame.extend(single.cross_frame);
            for tie in single.ties {
                record_tie(&mut tied, tie);
            }

            // Phase 2: tied gates feed the multiple-node phase.
            sim.set_tied(tied.values().map(|t| (t.node, t.value)).collect());

            if self.config.multiple_node {
                // The multiple-node pass accepts a target cap (0 = unbounded);
                // a finite budget tightens it to the remaining units. A zero
                // remainder means the phase is skipped entirely — passing 0
                // would mean "unbounded" to the pass.
                let remaining = budget.remaining(budget_spent);
                if remaining == 0 {
                    budget_exhausted = true;
                    continue;
                }
                let target_cap = if budget.is_unlimited() {
                    self.config.max_multi_node_targets
                } else {
                    let r = remaining.min(usize::MAX as u64) as usize;
                    if self.config.max_multi_node_targets == 0 {
                        r
                    } else {
                        self.config.max_multi_node_targets.min(r)
                    }
                };
                let multi = multi_node::run_batched(
                    &mut sim,
                    &single.support,
                    mask.as_deref(),
                    target_cap,
                    self.config.learn_cross_frame,
                );
                multi_targets += multi.targets_processed;
                budget_spent += multi.targets_processed as u64;
                for (imp, seq) in multi.implications {
                    db.add(imp, seq);
                }
                cross_frame.extend(multi.cross_frame);
                for tie in multi.ties {
                    record_tie(&mut tied, tie);
                }
            }
        }

        let mut tied: Vec<TiedGate> = tied.into_values().collect();
        tied.sort_by_key(|t| t.node);

        let stats = LearnStats {
            stems: stems.len(),
            classes: classes.len(),
            multi_node_targets: multi_targets,
            total: db.count_by_kind(netlist, false),
            sequential: db.count_by_kind(netlist, true),
            tied_combinational: tied
                .iter()
                .filter(|t| t.kind == TieKind::Combinational)
                .count(),
            tied_sequential: tied
                .iter()
                .filter(|t| t.kind == TieKind::Sequential)
                .count(),
            cross_frame: cross_frame.len(),
            budget_spent,
            budget_exhausted,
            cpu: start.elapsed(),
        };

        Ok(LearnResult {
            implications: db,
            cross_frame,
            tied,
            stats,
        })
    }

    /// [`SequentialLearner::learn`], ignoring `_threads`: learning runs on
    /// the calling thread, so the outcome and the schedule are the same at
    /// every count. It stays only while the benchmark client's replay calls
    /// it; every library caller calls [`SequentialLearner::learn`].
    ///
    /// # Errors
    ///
    /// As [`SequentialLearner::learn`].
    pub fn learn_with_threads(&self, _threads: usize) -> Result<LearnResult> {
        self.learn()
    }
}

/// Deduplicates ties, preferring the combinational proof when a node is found
/// tied by both criteria.
fn record_tie(tied: &mut BTreeMap<NodeId, TiedGate>, tie: TiedGate) {
    match tied.get_mut(&tie.node) {
        Some(existing) => {
            if existing.value == tie.value && tie.kind == TieKind::Combinational {
                existing.kind = TieKind::Combinational;
            }
            // A node apparently tied to both values would mean an unsatisfiable
            // circuit; keep the first proof and ignore the contradiction.
        }
        None => {
            tied.insert(tie.node, tie);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sla_netlist::{GateType, NetlistBuilder, SeqInfo};
    use sla_sim::StateOracle;

    /// The mutually-exclusive flip-flop pair used across the test-suite.
    fn exclusive_pair() -> Netlist {
        let mut b = NetlistBuilder::new("pair");
        b.input("a");
        b.gate("na", GateType::Not, &["a"]).unwrap();
        b.gate("nf1", GateType::Not, &["f1"]).unwrap();
        b.gate("nf2", GateType::Not, &["f2"]).unwrap();
        b.gate("d1", GateType::And, &["a", "nf2"]).unwrap();
        b.gate("d2", GateType::And, &["na", "nf1"]).unwrap();
        b.dff("f1", "d1").unwrap();
        b.dff("f2", "d2").unwrap();
        b.output("f1").unwrap();
        b.output("f2").unwrap();
        b.build().unwrap()
    }

    #[test]
    fn learns_the_invalid_state_relation() {
        let n = exclusive_pair();
        let result = SequentialLearner::new(&n, LearnOptions::default())
            .learn()
            .unwrap();
        let f1 = n.require("f1").unwrap();
        let f2 = n.require("f2").unwrap();
        assert!(result.implications.implies(f1, true, f2, false));
        assert!(result.implications.implies(f2, true, f1, false));
        assert!(result.stats.total.ff_ff >= 1);
        assert!(result.stats.sequential.ff_ff >= 1);
        let inv = result.invalid_state_relations(&n);
        assert!(!inv.is_empty());
    }

    #[test]
    fn every_learned_relation_is_sound_against_the_oracle() {
        let n = exclusive_pair();
        let result = SequentialLearner::new(&n, LearnOptions::default())
            .learn()
            .unwrap();
        let oracle = StateOracle::build(&n, StateOracle::DEFAULT_BIT_LIMIT).unwrap();
        for imp in result.implications.relations() {
            assert!(
                oracle.implication_holds(
                    imp.antecedent.node,
                    imp.antecedent.value,
                    imp.consequent.node,
                    imp.consequent.value
                ),
                "unsound relation {}",
                imp.describe(&n)
            );
        }
        for tie in &result.tied {
            assert!(
                oracle.tie_holds(tie.node, tie.value),
                "unsound tie {}",
                tie.describe(&n)
            );
        }
    }

    #[test]
    fn combinational_tie_is_found_and_counted() {
        let mut b = NetlistBuilder::new("tie");
        b.input("a");
        b.gate("na", GateType::Not, &["a"]).unwrap();
        b.gate("z", GateType::And, &["a", "na"]).unwrap();
        b.gate("d", GateType::Or, &["z", "q"]).unwrap();
        b.dff("q", "d").unwrap();
        b.output("q").unwrap();
        let n = b.build().unwrap();
        let result = SequentialLearner::new(&n, LearnOptions::default())
            .learn()
            .unwrap();
        let z = n.require("z").unwrap();
        assert!(result
            .tied
            .iter()
            .any(|t| t.node == z && !t.value && t.kind == TieKind::Combinational));
        assert!(result.stats.tied_combinational >= 1);
        assert_eq!(
            result.untestable_faults().len(),
            result.tied.len(),
            "one untestable fault per tied gate"
        );
    }

    #[test]
    fn single_node_only_learns_a_subset() {
        let n = exclusive_pair();
        let full = SequentialLearner::new(&n, LearnOptions::default())
            .learn()
            .unwrap();
        let single = SequentialLearner::new(&n, LearnOptions::single_node_only())
            .learn()
            .unwrap();
        assert!(single.implications.len() <= full.implications.len());
    }

    #[test]
    fn combinational_only_config_reports_no_sequential_relations() {
        let n = exclusive_pair();
        let result = SequentialLearner::new(&n, LearnOptions::builder().max_frames(1).build())
            .learn()
            .unwrap();
        assert_eq!(result.stats.sequential.ff_ff, 0);
        assert_eq!(result.stats.sequential.gate_ff, 0);
    }

    #[test]
    fn clock_classes_keep_cross_domain_relations_out() {
        // Two independent copies of the exclusive pair, driven by two clocks;
        // relations must only connect flip-flops of the same clock.
        let mut b = NetlistBuilder::new("twoclk");
        b.input("a");
        b.input("b");
        let clk_b = b.clock("clk_b");
        b.gate("na", GateType::Not, &["a"]).unwrap();
        b.gate("nb", GateType::Not, &["b"]).unwrap();
        b.gate("nf1", GateType::Not, &["f1"]).unwrap();
        b.gate("nf2", GateType::Not, &["f2"]).unwrap();
        b.gate("ng1", GateType::Not, &["g1"]).unwrap();
        b.gate("ng2", GateType::Not, &["g2"]).unwrap();
        b.gate("d1", GateType::And, &["a", "nf2"]).unwrap();
        b.gate("d2", GateType::And, &["na", "nf1"]).unwrap();
        b.gate("e1", GateType::And, &["b", "ng2"]).unwrap();
        b.gate("e2", GateType::And, &["nb", "ng1"]).unwrap();
        b.dff("f1", "d1").unwrap();
        b.dff("f2", "d2").unwrap();
        b.seq(
            "g1",
            "e1",
            SeqInfo {
                clock: clk_b,
                ..SeqInfo::default()
            },
        )
        .unwrap();
        b.seq(
            "g2",
            "e2",
            SeqInfo {
                clock: clk_b,
                ..SeqInfo::default()
            },
        )
        .unwrap();
        b.output("f1").unwrap();
        b.output("f2").unwrap();
        b.output("g1").unwrap();
        b.output("g2").unwrap();
        let n = b.build().unwrap();
        let result = SequentialLearner::new(&n, LearnOptions::default())
            .learn()
            .unwrap();
        assert_eq!(result.stats.classes, 2);
        let clock_of = |id: NodeId| n.seq_info(id).map(|i| i.clock);
        for imp in result.implications.relations() {
            let a = imp.antecedent.node;
            let c = imp.consequent.node;
            if n.is_sequential(a) && n.is_sequential(c) {
                assert_eq!(
                    clock_of(a),
                    clock_of(c),
                    "cross-domain relation {} must not be learned",
                    imp.describe(&n)
                );
            }
        }
        // Relations inside each domain are still found.
        let f1 = n.require("f1").unwrap();
        let f2 = n.require("f2").unwrap();
        let g1 = n.require("g1").unwrap();
        let g2 = n.require("g2").unwrap();
        assert!(result.implications.implies(f1, true, f2, false));
        assert!(result.implications.implies(g1, true, g2, false));
    }

    #[test]
    fn stats_record_stems_and_cpu_time() {
        let n = exclusive_pair();
        let result = SequentialLearner::new(&n, LearnOptions::default())
            .learn()
            .unwrap();
        assert_eq!(
            result.stats.stems,
            sla_netlist::stems::fanout_stems(&n).len()
        );
        assert!(result.stats.cpu.as_nanos() > 0);
        assert_eq!(result.stats.classes, 1);
    }

    #[test]
    fn budget_truncates_learning_deterministically() {
        use crate::budget::WorkBudget;
        let n = exclusive_pair();
        let full = SequentialLearner::new(&n, LearnOptions::default())
            .learn()
            .unwrap();
        assert!(!full.stats.budget_exhausted);
        assert_eq!(
            full.stats.budget_spent,
            full.stats.stems as u64 + full.stats.multi_node_targets as u64
        );

        // A budget of two units processes exactly two stems and nothing else.
        let tight = LearnOptions::builder().budget(WorkBudget::units(2)).build();
        let learner = SequentialLearner::new(&n, tight);
        let limited = learner.learn().unwrap();
        assert!(limited.stats.budget_exhausted);
        assert_eq!(limited.stats.budget_spent, 2);
        assert_eq!(limited.stats.multi_node_targets, 0);
        assert!(limited.implications.len() <= full.implications.len());

        // Bit-identical across thread counts: the truncation is computed
        // before the passes run.
        for threads in [2, 4] {
            let sharded = learner.learn_with_threads(threads).unwrap();
            assert_eq!(
                limited.implications.iter().collect::<Vec<_>>(),
                sharded.implications.iter().collect::<Vec<_>>()
            );
            assert_eq!(limited.stats.budget_spent, sharded.stats.budget_spent);
            assert_eq!(
                limited.stats.budget_exhausted,
                sharded.stats.budget_exhausted
            );
        }

        // A budget covering all the work changes nothing and reports no
        // exhaustion.
        let roomy = LearnOptions::builder()
            .budget(WorkBudget::units(1_000_000))
            .build();
        let ample = SequentialLearner::new(&n, roomy).learn().unwrap();
        assert!(!ample.stats.budget_exhausted);
        assert_eq!(
            ample.implications.iter().collect::<Vec<_>>(),
            full.implications.iter().collect::<Vec<_>>()
        );
    }

    #[test]
    fn cross_frame_relations_only_when_requested() {
        let n = exclusive_pair();
        let without = SequentialLearner::new(&n, LearnOptions::default())
            .learn()
            .unwrap();
        assert!(without.cross_frame.is_empty());
        let with = SequentialLearner::new(&n, LearnOptions::builder().cross_frame(true).build())
            .learn()
            .unwrap();
        assert!(!with.cross_frame.is_empty());
        assert_eq!(with.stats.cross_frame, with.cross_frame.len());
    }
}
