//! The per-fault sequential test generator: PODEM-style branch-and-bound over
//! primary-input assignments of an iterative logic array with unknown initial
//! state.
//!
//! The generator keeps two three-valued machines per search point — the good
//! machine and the faulty machine — instead of an explicit five-valued
//! algebra; a fault effect (`D`/`D̄`) is simply a node where both machines hold
//! opposite binary values. Decisions are primary-input assignments in specific
//! frames; objectives are found by fault excitation / D-frontier analysis and
//! mapped to decisions by backtracing through gates and backwards through
//! flip-flops into earlier frames. Learned implications participate through
//! the incrementally maintained [`IncrementalLayer`]: conflicts trigger
//! immediate backtracks and hints bias the backtrace (paper §4).

use crate::config::{AtpgOptions, LearningMode};
use crate::learned::{IncrementalLayer, LearnedData, LiteralAdjacency};
use crate::machines::{MachineMark, SearchMachines};
use crate::Result;
use sla_netlist::levelize::{levelize, Levelization};
use sla_netlist::{FastHashMap, GateType, Netlist, NodeId, NodeKind};
use sla_sim::{eval_gate3, EventSim, Fault, FaultSite, Logic3, TestSequence};
use std::borrow::Cow;

/// Hard bound on the decisions of one window search, a safety net against
/// degenerate search trees on large circuits.
const MAX_DECISIONS: usize = 20_000;

/// Outcome of test generation for one fault.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GenOutcome {
    /// A test sequence was found (already in primary-input order).
    Detected(TestSequence),
    /// The search tree was exhausted at the maximum window without reaching
    /// the backtrack limit, and the fault is reported untestable.
    ///
    /// An exhausted search at `max_window` is not a proof. A fault whose
    /// shortest test needs more than `max_window` frames is exhausted too,
    /// and so is one whose only tests need an objective or backtrace path
    /// the heuristics never offer (each dead end counts as a conflict).
    /// ROADMAP.md item 1 records measured false verdicts of both kinds.
    /// Under a learning mode the exhausted space also excludes branches
    /// pruned by learned implications, which assumes the circuit operates
    /// from a state consistent with its learned invariants (the paper's §4
    /// semantics: a test relying on a power-up state the invariants exclude
    /// is not searched for).
    Untestable,
    /// The backtrack or decision limit was reached.
    Aborted,
}

/// Result of one [`TestGenerator::generate`] call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GenResult {
    /// What happened.
    pub outcome: GenOutcome,
    /// Backtracks consumed.
    pub backtracks: usize,
    /// Decisions made.
    pub decisions: usize,
}

#[derive(Debug, Clone, Copy)]
struct Decision {
    frame: usize,
    pi: NodeId,
    value: bool,
    flipped: bool,
    /// Machine trail marks taken just before this decision was applied, so a
    /// backtrack restores the exact prior values.
    mark: MachineMark,
}

/// Sequential PODEM test generator.
///
/// The levelization and the compiled implication adjacency are read-only
/// during a search. A standalone generator ([`TestGenerator::new`]) owns
/// them. The ATPG engine levelizes once and compiles the adjacency once per
/// `advance` call, and every worker's generator borrows both
/// ([`TestGenerator::with_shared`]).
#[derive(Debug)]
pub struct TestGenerator<'a> {
    netlist: &'a Netlist,
    levels: Cow<'a, Levelization>,
    config: AtpgOptions,
    /// CSR adjacency over the learned implications.
    adjacency: Cow<'a, LiteralAdjacency>,
}

impl<'a> TestGenerator<'a> {
    /// Builds a standalone generator. The learned data is consulted only at
    /// construction time (it is compiled into the indexed implication
    /// adjacency).
    ///
    /// # Errors
    ///
    /// Returns an error when the combinational logic cannot be levelized.
    pub fn new(netlist: &'a Netlist, config: AtpgOptions, learned: &LearnedData) -> Result<Self> {
        Ok(TestGenerator {
            netlist,
            levels: Cow::Owned(levelize(netlist)?),
            config,
            adjacency: Cow::Owned(LiteralAdjacency::for_mode(
                learned,
                config.learning,
                netlist.num_nodes(),
            )),
        })
    }

    /// Builds a generator on state shared with other generators, infallibly
    /// and without copying: `levels` must be the netlist's levelization and
    /// `adjacency` the learned data compiled for `config.learning`
    /// ([`LiteralAdjacency::for_mode`]).
    pub fn with_shared(
        netlist: &'a Netlist,
        levels: &'a Levelization,
        adjacency: &'a LiteralAdjacency,
        config: AtpgOptions,
    ) -> Self {
        TestGenerator {
            netlist,
            levels: Cow::Borrowed(levels),
            config,
            adjacency: Cow::Borrowed(adjacency),
        }
    }

    /// Attempts to generate a test for `fault`.
    pub fn generate(&self, fault: &Fault) -> GenResult {
        let mut backtracks_left = self.config.backtrack_limit;
        let mut total_backtracks = 0usize;
        let mut total_decisions = 0usize;

        // The window grows geometrically (1, 2, 4, …, `max_window`): small
        // windows are cheap and detect most faults.
        let mut window = 1;
        // The pair of three-valued machines, maintained event-driven (see
        // `search_window`), lives across window growth: when a window is
        // exhausted, the machines are rewound to their base state and widened
        // in place — the base values of the already-filled prefix frames are
        // unchanged by widening, so only the appended frames are evaluated.
        let mut machines = SearchMachines::new(self.netlist, &self.levels, window, *fault);
        loop {
            let (outcome, used_bt, used_dec) =
                self.search_window(&mut machines, fault, backtracks_left);
            total_backtracks += used_bt;
            total_decisions += used_dec;
            backtracks_left = backtracks_left.saturating_sub(used_bt);
            match outcome {
                WindowOutcome::Detected(seq) => {
                    return GenResult {
                        outcome: GenOutcome::Detected(seq),
                        backtracks: total_backtracks,
                        decisions: total_decisions,
                    }
                }
                WindowOutcome::Aborted => {
                    return GenResult {
                        outcome: GenOutcome::Aborted,
                        backtracks: total_backtracks,
                        decisions: total_decisions,
                    }
                }
                WindowOutcome::Exhausted => {
                    if window >= self.config.max_window {
                        return GenResult {
                            outcome: GenOutcome::Untestable,
                            backtracks: total_backtracks,
                            decisions: total_decisions,
                        };
                    }
                    window = (window * 2).min(self.config.max_window);
                    machines.rewind_to_base();
                    machines.grow(window);
                }
            }
        }
    }

    fn search_window(
        &self,
        machines: &mut SearchMachines<'_>,
        fault: &Fault,
        backtrack_budget: usize,
    ) -> (WindowOutcome, usize, usize) {
        let window = machines.window();
        let mut decisions: Vec<Decision> = Vec::new();
        let mut backtracks = 0usize;
        let mut decision_count = 0usize;

        // Learned-implication layer, fed from the same change events: level 0
        // is the undecided search point, every decision opens one level, and
        // backtracking unwinds to the unchanged prefix before the flipped
        // decision re-opens its level. Values only *become* binary along a
        // decision path (three-valued simulation is monotone), so each update
        // processes exactly the newly binary values of the good machine.
        let mut layer = IncrementalLayer::new(
            &self.adjacency,
            self.config.learning,
            window,
            self.netlist.num_nodes(),
        );
        let mut conflict =
            layer.update_events(0, machines.good().values(), machines.good().changed());

        loop {
            if !conflict && machines.detected() {
                let seq = self.to_sequence(machines.good());
                return (WindowOutcome::Detected(seq), backtracks, decision_count);
            }

            let next = if conflict {
                None
            } else {
                self.objective(fault, machines)
                    .and_then(|(frame, node, value)| {
                        self.backtrace(frame, node, value, machines.good(), &layer)
                    })
            };

            match next {
                Some((frame, pi, value)) => {
                    decision_count += 1;
                    if decision_count > MAX_DECISIONS {
                        return (WindowOutcome::Aborted, backtracks, decision_count);
                    }
                    let mark = machines.mark();
                    machines.assign(frame, pi, value);
                    decisions.push(Decision {
                        frame,
                        pi,
                        value,
                        flipped: false,
                        mark,
                    });
                    conflict = layer.update_events(
                        decisions.len(),
                        machines.good().values(),
                        machines.good().changed(),
                    );
                }
                None => {
                    // Conflict or no objective/backtrace possible: backtrack.
                    loop {
                        match decisions.pop() {
                            Some(mut d) if !d.flipped => {
                                backtracks += 1;
                                if backtracks > backtrack_budget {
                                    return (WindowOutcome::Aborted, backtracks, decision_count);
                                }
                                // Restore the machines to just before this
                                // decision; flipped decisions popped above it
                                // sit later on the same trails and unwind too.
                                machines.undo_to(d.mark);
                                d.value = !d.value;
                                d.flipped = true;
                                machines.assign(d.frame, d.pi, d.value);
                                decisions.push(d);
                                // Keep the base level plus the unchanged
                                // decisions before the flipped one; the flip
                                // re-opens its level.
                                layer.pop_to(decisions.len());
                                conflict = layer.update_events(
                                    decisions.len(),
                                    machines.good().values(),
                                    machines.good().changed(),
                                );
                                break;
                            }
                            Some(_) => continue,
                            None => {
                                return (WindowOutcome::Exhausted, backtracks, decision_count);
                            }
                        }
                    }
                }
            }
        }
    }

    /// Simulates good and faulty machines over `window` frames under the
    /// given primary-input assignments (everything else `X`, initial state
    /// `X`), from scratch.
    ///
    /// This is the retained reference implementation of the event-driven
    /// [`SearchMachines`] state the search loop actually maintains; the
    /// property test `tests/incremental_sim_prop.rs` asserts the two are
    /// bit-exact under arbitrary decide/flip/backtrack scripts.
    pub fn simulate_reference(
        &self,
        fault: &Fault,
        window: usize,
        assigned: &FastHashMap<(usize, u32), bool>,
    ) -> (Vec<Vec<Logic3>>, Vec<Vec<Logic3>>) {
        let n = self.netlist.num_nodes();
        let mut good = Vec::with_capacity(window);
        let mut faulty = Vec::with_capacity(window);
        let mut state_g = vec![Logic3::X; n];
        let mut state_f = vec![Logic3::X; n];

        for frame in 0..window {
            let mut vg = vec![Logic3::X; n];
            let mut vf = vec![Logic3::X; n];
            for &pi in self.netlist.inputs() {
                if let Some(&b) = assigned.get(&(frame, pi.0)) {
                    vg[pi.index()] = Logic3::from_bool(b);
                    vf[pi.index()] = Logic3::from_bool(b);
                }
            }
            for s in self.netlist.sequential_elements() {
                vg[s.index()] = state_g[s.index()];
                vf[s.index()] = state_f[s.index()];
            }
            // Output faults on frame inputs.
            if let FaultSite::Output(node) = fault.site {
                let node_ref = self.netlist.node(node);
                if node_ref.is_input() || node_ref.is_sequential() {
                    vf[node.index()] = Logic3::from_bool(fault.stuck_at);
                }
            }
            // Combinational evaluation.
            for &id in self.levels.order() {
                let node = self.netlist.node(id);
                let NodeKind::Gate(gate) = node.kind else {
                    continue;
                };
                vg[id.index()] = eval_gate3(gate, node.fanins.iter().map(|f| vg[f.index()]));
                let faulty_value = eval_gate3(
                    gate,
                    node.fanins.iter().enumerate().map(|(pin, &d)| {
                        if fault.site == (FaultSite::Input { gate: id, pin }) {
                            Logic3::from_bool(fault.stuck_at)
                        } else {
                            vf[d.index()]
                        }
                    }),
                );
                vf[id.index()] = if fault.site == FaultSite::Output(id) {
                    Logic3::from_bool(fault.stuck_at)
                } else {
                    faulty_value
                };
            }
            // Next state.
            for s in self.netlist.sequential_elements() {
                let data = self.netlist.fanins(s)[0];
                state_g[s.index()] = vg[data.index()];
                state_f[s.index()] = if fault.site == FaultSite::Output(s) {
                    Logic3::from_bool(fault.stuck_at)
                } else {
                    vf[data.index()]
                };
            }
            good.push(vg);
            faulty.push(vf);
        }
        (good, faulty)
    }

    /// Picks the next objective: excite the fault if it is not excited yet,
    /// otherwise advance a D-frontier gate. The D-frontier comes from the
    /// incrementally maintained machines and is restricted to the fault cone.
    fn objective(
        &self,
        fault: &Fault,
        machines: &SearchMachines<'_>,
    ) -> Option<(usize, NodeId, bool)> {
        let window = machines.window();
        let good = machines.good();
        let excitation_node = match fault.site {
            FaultSite::Output(n) => n,
            FaultSite::Input { gate, pin } => self.netlist.fanins(gate)[pin],
        };
        let want = !fault.stuck_at;
        let excited =
            (0..window).any(|t| good.value(t, excitation_node) == Logic3::from_bool(want));
        if !excited {
            // Prefer the latest frame with an unknown value on the site: later
            // frames leave room to set up the required state in earlier frames.
            for t in (0..window).rev() {
                if good.value(t, excitation_node) == Logic3::X {
                    return Some((t, excitation_node, want));
                }
            }
            return None; // cannot excite under the current assignments
        }

        // D-frontier: a gate with a fault effect on an input whose output does
        // not yet show the effect; set one unknown input to the non-controlling
        // value to push the effect through.
        for (t, id) in machines.d_frontier_iter() {
            let NodeKind::Gate(gate) = self.netlist.kind(id) else {
                continue;
            };
            let noncontrolling = gate.controlling_value().map(|c| !c).unwrap_or(false);
            for &f in self.netlist.fanins(id) {
                if good.value(t, f) == Logic3::X {
                    return Some((t, f, noncontrolling));
                }
            }
        }
        None
    }

    /// Maps an objective to a primary-input decision by walking backwards
    /// through unassigned gates and, across flip-flops, into earlier frames.
    /// The walk is a bounded depth-first search: when one unknown fanin leads
    /// to a dead end (for example the uncontrollable frame-0 state), the other
    /// candidates are tried before giving up.
    fn backtrace(
        &self,
        frame: usize,
        node: NodeId,
        value: bool,
        good: &EventSim<'_>,
        layer: &IncrementalLayer<'_>,
    ) -> Option<(usize, NodeId, bool)> {
        let mut budget = 4 * self.netlist.num_nodes() * (frame + 2);
        self.backtrace_dfs(frame, node, value, good, layer, &mut budget)
    }

    fn backtrace_dfs(
        &self,
        frame: usize,
        node: NodeId,
        value: bool,
        good: &EventSim<'_>,
        layer: &IncrementalLayer<'_>,
        budget: &mut usize,
    ) -> Option<(usize, NodeId, bool)> {
        if *budget == 0 {
            return None;
        }
        *budget -= 1;
        // A learned hint contradicting the needed value makes this branch
        // futile: the implication says no machine state consistent with the
        // current assignments lets `node` take `value`, so justifying it can
        // only end in a conflict (or dead Xs) — prune the subtree before
        // spending decisions on it. This is the paper's §4 forbidden-value
        // pruning; without it, circuit-enforced invariants never contradict
        // the simulation and learning cannot cut a single branch.
        if layer.hint(frame, node).is_some_and(|h| h != value) {
            return None;
        }
        match self.netlist.kind(node) {
            NodeKind::Input => {
                if good.value(frame, node) == Logic3::X {
                    Some((frame, node, value))
                } else {
                    None
                }
            }
            NodeKind::Seq(_) => {
                if frame == 0 {
                    None // the power-up state is not controllable
                } else {
                    self.backtrace_dfs(
                        frame - 1,
                        self.netlist.fanins(node)[0],
                        value,
                        good,
                        layer,
                        budget,
                    )
                }
            }
            NodeKind::Gate(gate) => {
                let fanins = self.netlist.fanins(node);
                if fanins.is_empty() {
                    return None; // constants cannot be justified
                }
                match gate {
                    GateType::Buf => {
                        self.backtrace_dfs(frame, fanins[0], value, good, layer, budget)
                    }
                    GateType::Not => {
                        self.backtrace_dfs(frame, fanins[0], !value, good, layer, budget)
                    }
                    GateType::And | GateType::Nand | GateType::Or | GateType::Nor => {
                        let under = value ^ gate.inverts();
                        let controlling = gate
                            .controlling_value()
                            .expect("and/or family has a controlling value");
                        let need_single =
                            under == gate.controlled_response().unwrap() ^ gate.inverts();
                        let target = if need_single {
                            controlling
                        } else {
                            !controlling
                        };
                        for pick in self.ranked_inputs(fanins, frame, target, good, layer) {
                            if let Some(found) =
                                self.backtrace_dfs(frame, pick, target, good, layer, budget)
                            {
                                return Some(found);
                            }
                        }
                        None
                    }
                    GateType::Xor | GateType::Xnor => {
                        let mut parity = gate.inverts();
                        let mut unknown = Vec::new();
                        for &f in fanins {
                            match good.value(frame, f).to_bool() {
                                Some(b) => parity ^= b,
                                None => unknown.push(f),
                            }
                        }
                        for pick in unknown {
                            if let Some(found) =
                                self.backtrace_dfs(frame, pick, value ^ parity, good, layer, budget)
                            {
                                return Some(found);
                            }
                        }
                        None
                    }
                    GateType::Const0 | GateType::Const1 => None,
                }
            }
        }
    }

    /// Ranks the unknown fanins of a gate for backtracing: learned hints that
    /// already agree with the needed value first, then primary inputs and
    /// gates, then sequential elements (which need earlier frames to control).
    fn ranked_inputs(
        &self,
        fanins: &[NodeId],
        frame: usize,
        target: bool,
        good: &EventSim<'_>,
        layer: &IncrementalLayer<'_>,
    ) -> Vec<NodeId> {
        let mut unknown: Vec<NodeId> = fanins
            .iter()
            .copied()
            .filter(|&f| good.value(frame, f) == Logic3::X)
            .collect();
        let score = |f: &NodeId| -> i32 {
            let mut s = 0;
            if self.config.learning != LearningMode::None && layer.hint(frame, *f) == Some(target) {
                s -= 4;
            }
            if self.netlist.is_sequential(*f) {
                s += 2;
            }
            s
        };
        unknown.sort_by_key(score);
        unknown
    }

    fn to_sequence(&self, good: &EventSim<'_>) -> TestSequence {
        let vectors = (0..good.window())
            .map(|frame| {
                self.netlist
                    .inputs()
                    .iter()
                    .map(|&pi| match good.value(frame, pi) {
                        // Unassigned inputs are filled with 0: a three-valued
                        // detection is preserved by any refinement of the Xs,
                        // and fully specified vectors drop more faults.
                        Logic3::X => Logic3::Zero,
                        v => v,
                    })
                    .collect()
            })
            .collect();
        TestSequence::new(vectors)
    }
}

#[derive(Debug)]
enum WindowOutcome {
    Detected(TestSequence),
    Exhausted,
    Aborted,
}

#[cfg(test)]
mod tests {
    use super::*;
    use sla_netlist::NetlistBuilder;
    use sla_sim::FaultSimulator;

    fn generator(n: &Netlist, config: AtpgOptions) -> TestGenerator<'_> {
        TestGenerator::new(n, config, &LearnedData::new()).unwrap()
    }

    /// Combinational circuit: z = AND(a, b).
    fn and_circuit() -> Netlist {
        let mut b = NetlistBuilder::new("and");
        b.input("a");
        b.input("b");
        b.gate("z", GateType::And, &["a", "b"]).unwrap();
        b.output("z").unwrap();
        b.build().unwrap()
    }

    /// Sequential circuit: the fault effect must travel through a flip-flop.
    fn pipelined() -> Netlist {
        let mut b = NetlistBuilder::new("pipe");
        b.input("a");
        b.input("b");
        b.gate("g", GateType::Nand, &["a", "b"]).unwrap();
        b.dff("q", "g").unwrap();
        b.gate("o", GateType::Not, &["q"]).unwrap();
        b.output("o").unwrap();
        b.build().unwrap()
    }

    #[test]
    fn detects_simple_combinational_fault() {
        let n = and_circuit();
        let gen = generator(&n, AtpgOptions::default());
        let z = n.require("z").unwrap();
        let result = gen.generate(&Fault::output(z, false));
        let GenOutcome::Detected(seq) = result.outcome else {
            panic!("expected a test, got {:?}", result.outcome);
        };
        // Validate with the reference fault simulator.
        let sim = FaultSimulator::new(&n).unwrap();
        assert!(sim.detects(&Fault::output(z, false), &seq));
    }

    #[test]
    fn propagates_through_flip_flops_by_growing_the_window() {
        let n = pipelined();
        let gen = generator(&n, AtpgOptions::default());
        let g = n.require("g").unwrap();
        let fault = Fault::output(g, true);
        let result = gen.generate(&fault);
        let GenOutcome::Detected(seq) = result.outcome else {
            panic!("expected a test, got {:?}", result.outcome);
        };
        assert!(seq.len() >= 2, "needs at least two frames");
        let sim = FaultSimulator::new(&n).unwrap();
        assert!(sim.detects(&fault, &seq));
    }

    #[test]
    fn redundant_fault_is_reported_untestable() {
        // z = OR(a, NOT a) is constant 1: z stuck-at-1 is undetectable.
        let mut b = NetlistBuilder::new("red");
        b.input("a");
        b.gate("na", GateType::Not, &["a"]).unwrap();
        b.gate("z", GateType::Or, &["a", "na"]).unwrap();
        b.output("z").unwrap();
        let n = b.build().unwrap();
        // Proving redundancy requires exhausting the search space, which needs
        // the larger backtrack budget (the paper's second experiment stage).
        let gen = generator(&n, AtpgOptions::builder().backtrack_limit(1000).build());
        let z = n.require("z").unwrap();
        let result = gen.generate(&Fault::output(z, true));
        assert_eq!(result.outcome, GenOutcome::Untestable);
    }

    #[test]
    fn zero_backtrack_budget_aborts_hard_faults() {
        let n = pipelined();
        let config = AtpgOptions::builder().backtrack_limit(0).build();
        let gen = generator(&n, config);
        let g = n.require("g").unwrap();
        // With essentially no budget the generator must not claim untestable
        // for a testable fault; it either finds the test or aborts.
        let result = gen.generate(&Fault::output(g, true));
        assert_ne!(result.outcome, GenOutcome::Untestable);
    }

    #[test]
    fn input_pin_faults_are_handled() {
        let n = and_circuit();
        let gen = generator(&n, AtpgOptions::default());
        let z = n.require("z").unwrap();
        let fault = Fault::input(z, 0, true);
        let result = gen.generate(&fault);
        let GenOutcome::Detected(seq) = result.outcome else {
            panic!("expected a test, got {:?}", result.outcome);
        };
        let sim = FaultSimulator::new(&n).unwrap();
        assert!(sim.detects(&fault, &seq));
    }
}
