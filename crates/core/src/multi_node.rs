//! Multiple-node learning (paper §3.1, second half) and conflict-based tie
//! learning (paper §3.2, second criterion).
//!
//! For every `(node, value)` produced by two or more stem assignments, the
//! contrapositive value on the node implies the contrapositive of *all* those
//! stem assignments simultaneously. Injecting them together — each at its own
//! frame offset — and simulating forward finds relations that no single-stem
//! (or backward/forward) analysis can reach, such as the `G9=0 → F2=0` example
//! of Figure 2 of the paper. A contradiction during this simulation means the
//! learning target itself cannot take the assumed value, i.e. it is tied.
//!
//! Targets are coupled: a tie proven at one target is forced as a constant
//! for every later one. The learning engine runs [`run_batched`], which packs
//! up to 64 targets per forward pass and restarts a batch after the lane that
//! proves a tie, so its outcome is the serial one. It runs on the caller's
//! thread at every thread count. [`run`] is the scalar reference, one forward
//! simulation per target.

use crate::relation::{CrossImplication, Implication, Literal};
use crate::single_node::{keep_relation, SupportEntries, SupportEntry, SupportKey, SupportMap};
use crate::tie::{TieKind, TiedGate};
use sla_netlist::{Netlist, NodeId};
use sla_sim::{Injection, InjectionSim, SimOptions, TraceRead};

/// Everything learned by a multiple-node pass.
#[derive(Debug, Default)]
pub struct MultiNodeOutcome {
    /// Same-frame relations with the "required sequential analysis" flag.
    pub implications: Vec<(Implication, bool)>,
    /// Optional cross-frame relations.
    pub cross_frame: Vec<CrossImplication>,
    /// Targets proven tied by conflicts.
    pub ties: Vec<TiedGate>,
    /// Number of learning targets processed.
    pub targets_processed: usize,
    /// Batched path only: number of packed batches cut short because a lane
    /// proved a tie (the suffix after that lane is re-simulated under the
    /// updated tied state).
    pub batch_restarts: usize,
    /// Batched path only: lanes simulated but discarded by those restarts.
    pub wasted_lanes: usize,
}

/// One prepared learning target.
#[derive(Debug, Clone)]
struct Target {
    injections: Vec<Injection>,
    /// Latest supporting frame, i.e. the frame of the hypothesis.
    horizon: usize,
    /// `true` when the support is contradictory and the target is tied outright.
    contradictory: bool,
}

/// Builds the injection set of a learning target from its support entries.
///
/// Support entry `(stem, w, t)` means `stem=w @ 0` produces `node=produced`
/// at frame `t`; the hypothesis `node = !produced @ horizon` therefore forces
/// `stem = !w @ horizon - t`.
fn prepare_target<I>(node: NodeId, produced: bool, entries: I) -> Target
where
    I: IntoIterator<Item = SupportEntry>,
    I::IntoIter: Clone,
{
    let entries = entries.into_iter();
    let horizon = entries.clone().map(|(_, _, t)| t).max().unwrap_or(0);
    let mut injections: Vec<Injection> = entries
        .map(|(stem, w, t)| Injection::new(stem, !w, horizon - t))
        .collect();
    injections.sort_unstable_by_key(|i| (i.frame, i.node, i.value));
    injections.dedup();
    // Two entries asking one stem-and-frame slot for different values leave
    // both values in the sorted list, side by side.
    let contradictory = injections
        .windows(2)
        .any(|w| (w[0].frame, w[0].node) == (w[1].frame, w[1].node));
    // The hypothesis itself is injected too: it can enable further propagation
    // and a contradiction on it is exactly the tie-learning conflict.
    injections.push(Injection::new(node, !produced, horizon));
    Target {
        injections,
        horizon,
        contradictory,
    }
}

/// One entry of the sorted target list: the `(node, value)` key and its
/// support entries.
type TargetEntry<'a> = (SupportKey, SupportEntries<'a>);

/// Sorted, truncated learning-target order: most-supported first (they yield
/// the most relations), ties broken by node id and value.
fn sorted_targets(support: &SupportMap, max_targets: usize) -> Vec<TargetEntry<'_>> {
    let mut targets: Vec<_> = support
        .iter()
        .filter(|(_, entries)| entries.len() >= 2)
        .collect();
    targets.sort_by(|a, b| b.1.len().cmp(&a.1.len()).then(a.0.cmp(&b.0)));
    if max_targets > 0 {
        targets.truncate(max_targets);
    }
    targets
}

/// Harvests the relations of one conflict-free target trace into `outcome`.
#[allow(clippy::too_many_arguments)]
fn harvest_target<T: TraceRead>(
    netlist: &Netlist,
    node: NodeId,
    produced: bool,
    target: &Target,
    trace: &T,
    class_mask: Option<&[bool]>,
    learn_cross_frame: bool,
    outcome: &mut MultiNodeOutcome,
) {
    let hypothesis = Literal::new(node, !produced);
    let sequential = target.horizon > 0;
    if trace.num_frames() > target.horizon {
        for (other, value) in trace.binary_assignments(target.horizon) {
            if other == node {
                continue;
            }
            if !keep_relation(netlist, class_mask, node, other) {
                continue;
            }
            outcome.implications.push((
                Implication::new(hypothesis, Literal::new(other, value)),
                sequential,
            ));
        }
        if learn_cross_frame {
            for t in 0..target.horizon {
                for (other, value) in trace.binary_assignments(t) {
                    if other == node || netlist.kind(other).is_input() {
                        continue;
                    }
                    outcome.cross_frame.push(CrossImplication {
                        antecedent: hypothesis,
                        consequent: Literal::new(other, value),
                        offset: t as i32 - target.horizon as i32,
                    });
                }
            }
        }
    }
}

/// Registers a proven tie with the outcome and the simulator so later targets
/// benefit.
fn record_tie(
    sim: &mut InjectionSim<'_>,
    outcome: &mut MultiNodeOutcome,
    node: NodeId,
    produced: bool,
    horizon: usize,
) {
    let tie = TiedGate::new(node, produced, tie_kind(horizon));
    sim.add_tied(node, produced);
    outcome.ties.push(tie);
}

/// Runs multiple-node learning over the support map.
///
/// The simulator must already carry the equivalences, tied constants and
/// active-class mask of the enclosing learning pass; ties discovered here are
/// added to it on the fly so later targets benefit (this is what lets the
/// `G15` example of the paper be proven tied).
///
/// This is the scalar reference path — one forward simulation per target. The
/// learning engine uses [`run_batched`], which produces the same outcome from
/// packed 64-lane passes; property tests assert the equality.
#[allow(clippy::too_many_arguments)]
pub fn run(
    sim: &mut InjectionSim<'_>,
    support: &SupportMap,
    options: &SimOptions,
    class_mask: Option<&[bool]>,
    max_targets: usize,
    learn_cross_frame: bool,
) -> MultiNodeOutcome {
    let netlist = sim.netlist();
    let mut outcome = MultiNodeOutcome::default();

    for ((node, produced), entries) in sorted_targets(support, max_targets) {
        if netlist.kind(node).is_input() || sim.is_tied(node) {
            continue;
        }
        let target = prepare_target(node, produced, entries);
        outcome.targets_processed += 1;

        if target.contradictory {
            record_tie(sim, &mut outcome, node, produced, target.horizon);
            continue;
        }

        let run_options = SimOptions {
            max_frames: target.horizon + 1,
            stop_on_repeat: false,
            respect_seq_rules: options.respect_seq_rules,
        };
        let trace = sim.run(&target.injections, &run_options);

        if trace.conflict.is_some() {
            // The hypothesis `node = !produced` is impossible: tied to `produced`.
            record_tie(sim, &mut outcome, node, produced, target.horizon);
            continue;
        }

        harvest_target(
            netlist,
            node,
            produced,
            &target,
            &trace,
            class_mask,
            learn_cross_frame,
            &mut outcome,
        );
    }
    outcome
}

/// Runs multiple-node learning over the support map with up to 64 targets per
/// packed forward pass. Produces exactly the same outcome as [`run`].
///
/// Targets are batched under the tied-constant state current at batch start.
/// Serial semantics require a tie discovered at target *k* to influence every
/// target after *k*, so when a batch lane conflicts (a new tie), the lanes up
/// to and including the first conflict are harvested — they only depended on
/// the unchanged prefix state — the tie is registered, and batching restarts
/// at the next target under the updated state.
///
/// The batch width adapts to the tie density: every restart halves the next
/// batch (down to `MIN_BATCH`) because on tie-dense target lists a wide
/// batch mostly simulates lanes that are thrown away, and every conflict-free
/// batch doubles it again (up to 64). The restart and wasted-lane counts are
/// reported in the outcome.
#[allow(clippy::too_many_arguments)]
pub fn run_batched(
    sim: &mut InjectionSim<'_>,
    support: &SupportMap,
    options: &SimOptions,
    class_mask: Option<&[bool]>,
    max_targets: usize,
    learn_cross_frame: bool,
) -> MultiNodeOutcome {
    let mut outcome = MultiNodeOutcome::default();
    let targets = sorted_targets(support, max_targets);
    // Targets are prepared on first need and memoized — preparation only
    // depends on the support entries, not on the evolving tied state, so
    // batch restarts never redo the work, and targets skipped as already
    // tied are never prepared at all.
    let mut prepared: Vec<Option<Target>> = (0..targets.len()).map(|_| None).collect();

    let mut cap = MAX_BATCH;
    let mut i = 0;
    loop {
        match plan_step(sim, &targets, &mut prepared, i, cap) {
            None => break,
            Some(PlannedStep::Tie {
                idx,
                node,
                produced,
            }) => {
                outcome.targets_processed += 1;
                let horizon = prepared[idx]
                    .as_ref()
                    .expect("planned tie is prepared")
                    .horizon;
                record_tie(sim, &mut outcome, node, produced, horizon);
                i = idx + 1;
            }
            Some(PlannedStep::Batch(plan)) => {
                let traces = simulate_plan(sim, &prepared, &plan, options);
                match process_batch(
                    sim,
                    &prepared,
                    &plan.batch,
                    &traces,
                    class_mask,
                    learn_cross_frame,
                    &mut outcome,
                ) {
                    Some(conflict_at) => {
                        // New tie: later lanes would have seen it in the
                        // serial order — re-run them under the updated state,
                        // and shrink the next batch so a tie-dense stretch
                        // wastes fewer lanes per restart.
                        cap = (cap / 2).max(MIN_BATCH);
                        i = conflict_at + 1;
                    }
                    None => {
                        // A conflict-free batch: the tie-dense stretch (if
                        // any) is over, widen again.
                        cap = (cap * 2).min(MAX_BATCH);
                        i = plan.next_i;
                    }
                }
            }
        }
    }
    outcome
}

/// One planned packed batch.
#[derive(Debug)]
struct BatchPlan {
    /// Lanes: `(target index, node, produced)`.
    batch: Vec<(usize, NodeId, bool)>,
    /// Scan position the serial order continues from when the batch turns out
    /// conflict-free.
    next_i: usize,
}

/// One step of the serial learning schedule, as produced by [`plan_step`].
#[derive(Debug)]
enum PlannedStep {
    /// The scan head is a contradictory target: a certain tie, no simulation.
    Tie {
        idx: usize,
        node: NodeId,
        produced: bool,
    },
    /// A gathered batch of simulatable targets.
    Batch(BatchPlan),
}

/// Plans the next step of the serial schedule from scan position `i` under
/// the simulator's tied state: skips input/already-tied targets, then either
/// reports the contradictory head as a certain tie or gathers a batch of up to
/// `cap` simulatable targets (a contradictory target is a batch boundary: its
/// tie mutates the state every later target sees). Returns `None` when the
/// target list is exhausted.
fn plan_step(
    sim: &InjectionSim<'_>,
    targets: &[TargetEntry<'_>],
    prepared: &mut [Option<Target>],
    mut i: usize,
    cap: usize,
) -> Option<PlannedStep> {
    let netlist = sim.netlist();
    let skip = |node: NodeId| netlist.kind(node).is_input() || sim.is_tied(node);
    let prepare = |prepared: &mut [Option<Target>], at: usize| {
        if prepared[at].is_none() {
            let ((node, produced), entries) = targets[at].clone();
            prepared[at] = Some(prepare_target(node, produced, entries));
        }
    };
    loop {
        if i >= targets.len() {
            return None;
        }
        let (node, produced) = targets[i].0;
        if skip(node) {
            i += 1;
            continue;
        }
        prepare(prepared, i);
        if prepared[i].as_ref().expect("just prepared").contradictory {
            return Some(PlannedStep::Tie {
                idx: i,
                node,
                produced,
            });
        }
        let mut batch: Vec<(usize, NodeId, bool)> = vec![(i, node, produced)];
        let mut j = i + 1;
        while j < targets.len() && batch.len() < cap {
            let (n2, p2) = targets[j].0;
            if skip(n2) {
                j += 1;
                continue;
            }
            prepare(prepared, j);
            if prepared[j].as_ref().expect("just prepared").contradictory {
                break;
            }
            batch.push((j, n2, p2));
            j += 1;
        }
        return Some(PlannedStep::Batch(BatchPlan { batch, next_i: j }));
    }
}

/// Runs the packed forward pass of one planned batch.
fn simulate_plan(
    sim: &InjectionSim<'_>,
    prepared: &[Option<Target>],
    plan: &BatchPlan,
    options: &SimOptions,
) -> sla_sim::PackedTraces {
    let lanes: Vec<&Target> = plan
        .batch
        .iter()
        .map(|&(at, _, _)| prepared[at].as_ref().expect("batch lanes are prepared"))
        .collect();
    let run_options = SimOptions {
        max_frames: lanes
            .iter()
            .map(|t| t.horizon + 1)
            .max()
            .expect("non-empty batch"),
        stop_on_repeat: false,
        respect_seq_rules: options.respect_seq_rules,
    };
    let jobs: Vec<&[Injection]> = lanes.iter().map(|t| t.injections.as_slice()).collect();
    let limits: Vec<usize> = lanes.iter().map(|t| t.horizon + 1).collect();
    sim.run_batch_with_limits_packed(&jobs, &run_options, &limits)
}

/// Processes the lanes of one simulated batch in serial order: harvests
/// conflict-free lanes, and on the first conflicting lane records the tie,
/// the restart and the wasted suffix, returning the conflicting target index
/// (the serial scan resumes right after it). `None` means conflict-free.
///
/// Each lane is read at its own horizon frame. Unlike a single-node chunk,
/// whose lanes all cover the same frames, a batch's horizons are scattered,
/// so a node-major read of each needed frame would serve few lanes per pass
/// (measured slower on the `learn_cold` designs).
#[allow(clippy::too_many_arguments)]
fn process_batch(
    sim: &mut InjectionSim<'_>,
    prepared: &[Option<Target>],
    batch: &[(usize, NodeId, bool)],
    traces: &sla_sim::PackedTraces,
    class_mask: Option<&[bool]>,
    learn_cross_frame: bool,
    outcome: &mut MultiNodeOutcome,
) -> Option<usize> {
    let netlist = sim.netlist();
    for (k, &(ti, n2, p2)) in batch.iter().enumerate() {
        let trace = traces.lane(k);
        let target = prepared[ti].as_ref().expect("batch lanes are prepared");
        outcome.targets_processed += 1;
        if trace.conflict().is_some() {
            record_tie(sim, outcome, n2, p2, target.horizon);
            outcome.batch_restarts += 1;
            outcome.wasted_lanes += batch.len() - k - 1;
            return Some(ti);
        }
        harvest_target(
            netlist,
            n2,
            p2,
            target,
            &trace,
            class_mask,
            learn_cross_frame,
            outcome,
        );
    }
    None
}

/// Widest packed batch (one lane per bit of the simulation words).
const MAX_BATCH: usize = 64;

/// Narrowest adaptive batch: keeps some word-parallelism even in a stretch
/// where every second target proves a tie.
const MIN_BATCH: usize = 4;

fn tie_kind(horizon: usize) -> TieKind {
    if horizon == 0 {
        TieKind::Combinational
    } else {
        TieKind::Sequential
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::single_node;
    use sla_netlist::{GateType, Netlist, NetlistBuilder};
    use sla_sim::Logic3;

    /// The Figure-2 phenomenon, reduced to its core: each of `i2=0` and `i3=0`
    /// alone forces `g9=1` one frame later, so `g9=0` implies both were 1,
    /// which forces `f2=0` in the same frame as `g9`. No single-stem analysis
    /// can find `g9=0 -> f2=0`.
    fn figure2_core() -> Netlist {
        let mut b = NetlistBuilder::new("fig2core");
        b.input("i2");
        b.input("i3");
        // Branch the inputs so they are fanout stems.
        b.gate("ni2", GateType::Not, &["i2"]).unwrap();
        b.gate("ni3", GateType::Not, &["i3"]).unwrap();
        b.dff("fa", "ni2").unwrap();
        b.dff("fb", "ni3").unwrap();
        b.gate("g9", GateType::Or, &["fa", "fb"]).unwrap();
        // f2 captures i2 AND i3 one frame earlier than g9 is observed... the
        // same frame as g9: f2 <- AND(i2, i3) so f2 and g9 are aligned.
        b.gate("d2", GateType::Nand, &["i2", "i3"]).unwrap();
        b.dff("f2", "d2").unwrap();
        // Extra fanout so i2/i3 really are stems.
        b.gate("u1", GateType::Buf, &["i2"]).unwrap();
        b.gate("u2", GateType::Buf, &["i3"]).unwrap();
        b.output("g9").unwrap();
        b.output("f2").unwrap();
        b.output("u1").unwrap();
        b.output("u2").unwrap();
        b.build().unwrap()
    }

    #[test]
    fn prepare_target_aligns_frames_and_detects_contradictions() {
        let n = figure2_core();
        let i2 = n.require("i2").unwrap();
        let i3 = n.require("i3").unwrap();
        let g9 = n.require("g9").unwrap();
        let t = prepare_target(g9, true, [(i2, false, 1), (i3, false, 1)]);
        assert_eq!(t.horizon, 1);
        assert!(!t.contradictory);
        assert!(t.injections.contains(&Injection::new(i2, true, 0)));
        assert!(t.injections.contains(&Injection::new(i3, true, 0)));
        assert!(t.injections.contains(&Injection::new(g9, false, 1)));
        // Contradictory support: the same stem must be both 0 and 1 at frame 0.
        let t2 = prepare_target(g9, true, [(i2, false, 1), (i2, true, 1)]);
        assert!(t2.contradictory);
    }

    #[test]
    fn finds_relation_unreachable_by_single_node_learning() {
        let n = figure2_core();
        let g9 = n.require("g9").unwrap();
        let f2 = n.require("f2").unwrap();
        let stems = sla_netlist::stems::fanout_stems(&n);
        let sim = InjectionSim::new(&n).unwrap();
        let options = SimOptions::default();
        let single = single_node::run(&sim, &stems, &options, None, false);
        // Multiple-node learning target: g9=0 forces i2=1 and i3=1 one frame
        // earlier, which forces d2=NAND(1,1)=0, captured by f2 -> g9=0 -> f2=0.
        let wanted = Implication::new(Literal::new(g9, false), Literal::new(f2, false));
        // Single-node learning cannot see it (g9 and f2 are set by the same
        // stem polarity, never by opposite ones).
        assert!(
            !single
                .implications
                .iter()
                .any(|(imp, _)| *imp == wanted || *imp == wanted.contrapositive()),
            "single-node learning should not find g9=0 -> f2=0"
        );
        let mut sim = InjectionSim::new(&n).unwrap();
        let multi = run(&mut sim, &single.support, &options, None, 0, false);
        assert!(
            multi.implications.iter().any(|(imp, _)| *imp == wanted),
            "multiple-node learning must find g9=0 -> f2=0; got {:?}",
            multi
                .implications
                .iter()
                .map(|(i, _)| i.describe(&n))
                .collect::<Vec<_>>()
        );
    }

    /// A target whose hypothesis is self-contradictory: g = OR(f1, f2) where
    /// both flip-flops are forced to 1 whenever g was 0 one frame earlier is
    /// awkward to build minimally, so instead use the direct conflict: the
    /// hypothesis value is recomputed as its complement inside the same frame.
    #[test]
    fn conflict_during_injection_learns_a_tie() {
        let mut b = NetlistBuilder::new("tieconflict");
        b.input("a");
        b.input("b");
        // g = OR(x, y): x and y both go to 1 whenever a=0 or b=0 at the same
        // frame; g can only be 0 if x=y=0 which forces a=1 and b=1, but then
        // z = AND(a,b) = 1 feeds the OR as well, a contradiction -> g tied to 1.
        b.gate("x", GateType::Not, &["a"]).unwrap();
        b.gate("y", GateType::Not, &["b"]).unwrap();
        b.gate("z", GateType::And, &["a", "b"]).unwrap();
        b.gate("g", GateType::Or, &["x", "y", "z"]).unwrap();
        b.dff("f", "g").unwrap();
        b.output("f").unwrap();
        let n = b.build().unwrap();
        let g = n.require("g").unwrap();
        let stems = sla_netlist::stems::fanout_stems(&n);
        let sim = InjectionSim::new(&n).unwrap();
        let options = SimOptions::default();
        let single = single_node::run(&sim, &stems, &options, None, false);
        assert!(
            single.support.get(&(g, true)).map(|e| e.len()).unwrap_or(0) >= 2,
            "g=1 must be supported by both input stems"
        );
        let mut sim = InjectionSim::new(&n).unwrap();
        let multi = run(&mut sim, &single.support, &options, None, 0, false);
        assert!(
            multi.ties.iter().any(|t| t.node == g && t.value),
            "g must be learned tied to 1, got {:?}",
            multi.ties
        );
        // The tie is also registered with the simulator for later targets.
        assert!(sim.tied().iter().any(|&(node, v)| node == g && v));
    }

    #[test]
    fn already_tied_targets_are_skipped() {
        let n = figure2_core();
        let g9 = n.require("g9").unwrap();
        let stems = sla_netlist::stems::fanout_stems(&n);
        let base = InjectionSim::new(&n).unwrap();
        let single = single_node::run(&base, &stems, &SimOptions::default(), None, false);
        let mut sim = InjectionSim::new(&n).unwrap();
        sim.add_tied(g9, true);
        let multi = run(
            &mut sim,
            &single.support,
            &SimOptions::default(),
            None,
            0,
            false,
        );
        assert!(multi
            .implications
            .iter()
            .all(|(imp, _)| imp.antecedent.node != g9));
    }

    #[test]
    fn batched_run_matches_scalar_run() {
        for netlist in [figure2_core(), {
            // The tie-conflict circuit exercises the batch-restart path.
            let mut b = NetlistBuilder::new("tieconflict");
            b.input("a");
            b.input("b");
            b.gate("x", GateType::Not, &["a"]).unwrap();
            b.gate("y", GateType::Not, &["b"]).unwrap();
            b.gate("z", GateType::And, &["a", "b"]).unwrap();
            b.gate("g", GateType::Or, &["x", "y", "z"]).unwrap();
            b.dff("f", "g").unwrap();
            b.output("f").unwrap();
            b.build().unwrap()
        }] {
            let stems = sla_netlist::stems::fanout_stems(&netlist);
            let options = SimOptions::default();
            let base = InjectionSim::new(&netlist).unwrap();
            let single = single_node::run(&base, &stems, &options, None, false);
            let mut scalar_sim = InjectionSim::new(&netlist).unwrap();
            let scalar = run(&mut scalar_sim, &single.support, &options, None, 0, true);
            let mut batched_sim = InjectionSim::new(&netlist).unwrap();
            let batched = run_batched(&mut batched_sim, &single.support, &options, None, 0, true);
            assert_eq!(scalar.implications, batched.implications);
            assert_eq!(scalar.ties, batched.ties);
            assert_eq!(scalar.cross_frame, batched.cross_frame);
            assert_eq!(scalar.targets_processed, batched.targets_processed);
            assert_eq!(scalar_sim.tied(), batched_sim.tied());
        }
    }

    /// `copies` independent instances of the tie-conflict motif: every
    /// `g{i}` is provably tied to 1 through a simulation conflict, so the
    /// target list is dense in ties and every tie restarts the batch.
    fn tie_dense(copies: usize) -> Netlist {
        let mut b = NetlistBuilder::new("tiedense");
        for i in 0..copies {
            let a = format!("a{i}");
            let bb = format!("b{i}");
            b.input(&a);
            b.input(&bb);
            b.gate(&format!("x{i}"), GateType::Not, &[&a]).unwrap();
            b.gate(&format!("y{i}"), GateType::Not, &[&bb]).unwrap();
            b.gate(&format!("z{i}"), GateType::And, &[&a, &bb]).unwrap();
            b.gate(
                &format!("g{i}"),
                GateType::Or,
                &[
                    format!("x{i}").as_str(),
                    format!("y{i}").as_str(),
                    format!("z{i}").as_str(),
                ],
            )
            .unwrap();
            b.dff(&format!("f{i}"), &format!("g{i}")).unwrap();
            b.output(&format!("f{i}")).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn adaptive_batching_matches_scalar_and_bounds_restart_waste() {
        let netlist = tie_dense(12);
        let stems = sla_netlist::stems::fanout_stems(&netlist);
        let options = SimOptions::default();
        let base = InjectionSim::new(&netlist).unwrap();
        let single = single_node::run(&base, &stems, &options, None, false);

        let mut scalar_sim = InjectionSim::new(&netlist).unwrap();
        let scalar = run(&mut scalar_sim, &single.support, &options, None, 0, false);
        let mut batched_sim = InjectionSim::new(&netlist).unwrap();
        let batched = run_batched(&mut batched_sim, &single.support, &options, None, 0, false);

        assert_eq!(scalar.implications, batched.implications);
        assert_eq!(scalar.ties, batched.ties);
        assert_eq!(scalar.targets_processed, batched.targets_processed);
        assert_eq!(scalar_sim.tied(), batched_sim.tied());
        assert_eq!(scalar.batch_restarts, 0, "scalar path never restarts");

        // Every motif copy proves two ties via simulation conflicts (the OR
        // gate and the flip-flop capturing it); each is one batch restart.
        // Pinned: a change to the restart protocol (or to the target
        // ordering) must be deliberate.
        assert_eq!(batched.ties.len(), 24);
        assert_eq!(batched.batch_restarts, 24);
        // Adaptive shrinking caps the re-simulated suffix: a fixed 64-wide
        // batch discards the whole remaining suffix on every restart (408
        // lanes on this target list); shrinking to MIN_BATCH after the first
        // few ties cuts that to 132.
        assert_eq!(
            batched.wasted_lanes, 132,
            "{} lanes wasted over {} restarts",
            batched.wasted_lanes, batched.batch_restarts
        );
    }

    #[test]
    fn max_targets_bounds_the_work() {
        let n = figure2_core();
        let stems = sla_netlist::stems::fanout_stems(&n);
        let base = InjectionSim::new(&n).unwrap();
        let single = single_node::run(&base, &stems, &SimOptions::default(), None, false);
        let mut sim = InjectionSim::new(&n).unwrap();
        let limited = run(
            &mut sim,
            &single.support,
            &SimOptions::default(),
            None,
            1,
            false,
        );
        assert!(limited.targets_processed <= 1);
    }

    #[test]
    fn figure2_core_sanity_simulation() {
        // Cross-check the hand analysis of the helper circuit.
        let n = figure2_core();
        let sim = InjectionSim::new(&n).unwrap();
        let i2 = n.require("i2").unwrap();
        let g9 = n.require("g9").unwrap();
        let trace = sim.run(&[Injection::new(i2, false, 0)], &SimOptions::default());
        assert_eq!(trace.value(1, g9), Logic3::One);
    }
}
