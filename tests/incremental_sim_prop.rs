//! Property tests for the event-driven incremental good/faulty machines: after
//! arbitrary decide / flip / backtrack scripts, the incrementally maintained
//! [`SearchMachines`] state must be bit-exact against the retained from-scratch
//! reference (`TestGenerator::simulate_reference`) — values of both machines,
//! the D-frontier, and the detected flag — and the event-fed incremental
//! implication layer must equal a from-scratch rebuild over the same values.

mod common;

use proptest::prelude::*;
use seqlearn::atpg::{
    AtpgOptions, ImplicationLayer, IncrementalLayer, LearnedData, LearningMode, LiteralAdjacency,
    MachineMark, SearchMachines, TestGenerator,
};
use seqlearn::circuits::{scale_circuit, synthesize, ScaleConfig, SynthConfig};
use seqlearn::learn::{CrossImplication, Implication, ImplicationDb, Literal};
use seqlearn::netlist::levelize::levelize;
use seqlearn::netlist::{FastHashMap, Netlist, NodeId, NodeKind};
use seqlearn::sim::{full_fault_list, Fault, FaultSite, Logic3};

fn small_synth(seed: u64, flip_flops: usize, gates: usize) -> Netlist {
    synthesize(&SynthConfig {
        name: format!("esim{seed}"),
        inputs: 4,
        outputs: 3,
        flip_flops,
        gates,
        max_fanin: 3,
        seed,
    })
}

struct Bits(u64);

impl Bits {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 11
    }
}

fn random_db(netlist: &Netlist, bits: &mut Bits, relations: usize) -> ImplicationDb {
    let n = netlist.num_nodes() as u64;
    let mut db = ImplicationDb::new();
    for _ in 0..relations {
        let a = NodeId((bits.next() % n) as u32);
        let b = NodeId((bits.next() % n) as u32);
        if a == b {
            continue;
        }
        db.add(
            Implication::new(
                Literal::new(a, bits.next().is_multiple_of(2)),
                Literal::new(b, bits.next().is_multiple_of(2)),
            ),
            bits.next().is_multiple_of(2),
        );
    }
    db
}

/// Random cross-frame relations (soundness is irrelevant here — the layer
/// machinery must track any database, and unsound relations conflict often,
/// which is what the equivalence property wants to exercise). Offsets cover
/// negative, in-window and out-of-window distances.
fn random_cross(netlist: &Netlist, bits: &mut Bits, relations: usize) -> Vec<CrossImplication> {
    let n = netlist.num_nodes() as u64;
    let mut out = Vec::new();
    for _ in 0..relations {
        let a = NodeId((bits.next() % n) as u32);
        let b = NodeId((bits.next() % n) as u32);
        if a == b {
            continue;
        }
        out.push(CrossImplication {
            antecedent: Literal::new(a, bits.next().is_multiple_of(2)),
            consequent: Literal::new(b, bits.next().is_multiple_of(2)),
            offset: (bits.next() % 13) as i32 - 6,
        });
    }
    out
}

/// `true` when the two values carry a fault effect (binary and opposite).
fn is_d(good: Logic3, faulty: Logic3) -> bool {
    matches!((good.to_bool(), faulty.to_bool()), (Some(a), Some(b)) if a != b)
}

/// Reference detected flag: some PO in some frame shows the effect.
fn reference_detected(netlist: &Netlist, good: &[Vec<Logic3>], faulty: &[Vec<Logic3>]) -> bool {
    good.iter().zip(faulty).any(|(g, f)| {
        netlist
            .outputs()
            .iter()
            .any(|po| is_d(g[po.index()], f[po.index()]))
    })
}

/// Reference D-frontier over from-scratch values: every `(frame, gate)` whose
/// output shows no effect while some input carries one (the faulted pin rule
/// included), sorted for set comparison.
fn reference_frontier(
    netlist: &Netlist,
    fault: &Fault,
    good: &[Vec<Logic3>],
    faulty: &[Vec<Logic3>],
) -> Vec<(usize, NodeId)> {
    let mut frontier = Vec::new();
    for (t, (g, f)) in good.iter().zip(faulty).enumerate() {
        for (id, node) in netlist.iter() {
            let NodeKind::Gate(_) = node.kind else {
                continue;
            };
            if is_d(g[id.index()], f[id.index()]) {
                continue;
            }
            let has_d_input = node.fanins.iter().enumerate().any(|(pin, &fi)| {
                if fault.site == (FaultSite::Input { gate: id, pin }) {
                    matches!(g[fi.index()].to_bool(), Some(b) if b != fault.stuck_at)
                } else {
                    is_d(g[fi.index()], f[fi.index()])
                }
            });
            if has_d_input {
                frontier.push((t, id));
            }
        }
    }
    frontier.sort_unstable();
    frontier
}

/// The ascending list of binary slots of a flat `(frame × node)` window.
fn binary_slots(values: &[Logic3]) -> Vec<u32> {
    (0..values.len())
        .filter(|&slot| values[slot].is_binary())
        .map(|slot| slot as u32)
        .collect()
}

/// Fault classes of the base-state property: constant outputs, primary
/// inputs, flip-flops and gate input pins.
fn fault_class(netlist: &Netlist, fault: &Fault, class: usize) -> bool {
    match fault.site {
        FaultSite::Input { .. } => class == 3,
        FaultSite::Output(node) => match netlist.node(node).kind {
            NodeKind::Gate(_) => class == 0 && netlist.fanins(node).is_empty(),
            NodeKind::Input => class == 1,
            NodeKind::Seq(_) => class == 2,
        },
    }
}

/// Set-up of one fault's machines follows the fault's cone: on a 64k-gate
/// design, building both machines at window 8 for a fault on a
/// primary-output driver recomputes fewer slots than one frame has nodes.
/// A whole-netlist evaluation of both machines recomputes
/// `2 × 8 × num_nodes`.
#[test]
fn machine_set_up_recomputes_only_the_fault_cone() {
    let netlist = scale_circuit(&ScaleConfig {
        flip_flops: 8,
        ..ScaleConfig::sized("setup64k", 64 << 10, 4, 5)
    });
    let levels = levelize(&netlist).unwrap();
    let num_nodes = netlist.num_nodes() as u64;
    let driver = netlist.outputs()[0];
    for stuck_at in [false, true] {
        let machines = SearchMachines::new(&netlist, &levels, 8, Fault::output(driver, stuck_at));
        let recomputed = machines.good().recomputed() + machines.faulty().recomputed();
        assert!(
            recomputed < num_nodes,
            "stuck-at-{}: {recomputed} slots recomputed for {num_nodes} nodes",
            u8::from(stuck_at)
        );
    }
}

#[derive(Debug, Clone, Copy)]
struct Decision {
    frame: usize,
    pi: NodeId,
    value: bool,
    flipped: bool,
    mark: MachineMark,
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Drive the exact decide / flip / backtrack protocol of the test
    /// generator with random choices and a random fault; at every search
    /// point the event-driven machines must agree with the from-scratch
    /// reference on every value of both machines, on the D-frontier and on
    /// the detected flag — and the event-fed implication layer must equal a
    /// from-scratch rebuild.
    #[test]
    fn event_driven_machines_equal_from_scratch_reference(
        seed in 0u64..500,
        flip_flops in 1usize..6,
        gates in 6usize..30,
        relations in 0usize..30,
        window in 1usize..5,
        steps in 4usize..40,
    ) {
        let netlist = small_synth(seed, flip_flops, gates);
        let levels = levelize(&netlist).unwrap();
        let mut bits = Bits(seed.wrapping_mul(0x9e3779b97f4a7c15) + 1);
        let faults = full_fault_list(&netlist);
        let fault = faults[(bits.next() % faults.len() as u64) as usize];

        // The generator only provides the retained reference path here.
        let reference_gen =
            TestGenerator::new(&netlist, AtpgOptions::default(), &LearnedData::new()).unwrap();

        let db = random_db(&netlist, &mut bits, relations);
        // Two thirds of the cases also carry random cross-frame relations,
        // so the event-fed layer is exercised with hints and conflicts
        // landing in frames other than the event's own.
        let cross = if seed % 3 == 0 {
            Vec::new()
        } else {
            random_cross(&netlist, &mut bits, relations)
        };
        let adj = LiteralAdjacency::build_with_cross(&db, &cross, netlist.num_nodes());
        let mode = if seed % 2 == 0 {
            LearningMode::KnownValue
        } else {
            LearningMode::ForbiddenValue
        };

        let n = netlist.num_nodes();
        let pis = netlist.inputs().to_vec();
        let mut machines = SearchMachines::new(&netlist, &levels, window, fault);
        let mut layer = IncrementalLayer::new(&adj, mode, window, n);
        let mut conflict =
            layer.update_events(0, machines.good().values(), machines.good().changed());
        let mut decisions: Vec<Decision> = Vec::new();

        for _ in 0..steps {
            // From-scratch reference over the current assignments.
            let assigned: FastHashMap<(usize, u32), bool> = decisions
                .iter()
                .map(|d| ((d.frame, d.pi.0), d.value))
                .collect();
            let (good, faulty) = reference_gen.simulate_reference(&fault, window, &assigned);

            // Values of both machines, every frame, every node.
            for t in 0..window {
                prop_assert_eq!(
                    machines.good().frame(t),
                    good[t].as_slice(),
                    "good machine diverged in frame {} (seed {}, {} decisions)",
                    t, seed, decisions.len()
                );
                prop_assert_eq!(
                    machines.faulty().frame(t),
                    faulty[t].as_slice(),
                    "faulty machine diverged in frame {} (seed {}, {} decisions)",
                    t, seed, decisions.len()
                );
            }

            // Detected flag and D-frontier.
            prop_assert_eq!(
                machines.detected(),
                reference_detected(&netlist, &good, &faulty),
                "detected flag diverged (seed {})", seed
            );
            // The persistent frontier set must equal the retained cone scan
            // *including iteration order* (frames ascending, levelized order
            // within a frame — what the objective loop depends on) …
            prop_assert_eq!(
                machines.d_frontier(),
                machines.d_frontier_scan(),
                "frontier set diverged from the reference scan (seed {})", seed
            );
            // … and both must match the from-scratch whole-netlist reference.
            let mut incremental_frontier = machines.d_frontier();
            incremental_frontier.sort_unstable();
            prop_assert_eq!(
                incremental_frontier,
                reference_frontier(&netlist, &fault, &good, &faulty),
                "D-frontier diverged (seed {})", seed
            );

            // Event-fed layer vs from-scratch rebuild over the same values.
            let rebuilt = ImplicationLayer::build(&adj, mode, &good);
            prop_assert_eq!(conflict, rebuilt.conflict, "conflict flag diverged (seed {})", seed);
            if !conflict {
                for (frame, values) in good.iter().enumerate() {
                    for (idx, v) in values.iter().enumerate() {
                        if *v == Logic3::X {
                            let node = NodeId(idx as u32);
                            prop_assert_eq!(
                                layer.hint(frame, node),
                                rebuilt.hint(frame, node),
                                "hint diverged at frame {} node {} (seed {})",
                                frame, node, seed
                            );
                        }
                    }
                }
            }

            // Random next step, mirroring the search loop: a conflict forces
            // a backtrack; otherwise decide or backtrack at random.
            let backtrack = conflict || (bits.next().is_multiple_of(3) && !decisions.is_empty());
            if backtrack {
                let mut flipped_some = false;
                while let Some(mut d) = decisions.pop() {
                    if !d.flipped {
                        machines.undo_to(d.mark);
                        d.value = !d.value;
                        d.flipped = true;
                        machines.assign(d.frame, d.pi, d.value);
                        decisions.push(d);
                        layer.pop_to(decisions.len());
                        conflict = layer.update_events(
                            decisions.len(),
                            machines.good().values(),
                            machines.good().changed(),
                        );
                        flipped_some = true;
                        break;
                    }
                }
                if !flipped_some {
                    break; // exhausted
                }
            } else {
                // Pick an unassigned (frame, pi) slot whose good value is
                // still X (the only slots the search ever decides on).
                let mut slot = None;
                for _ in 0..8 {
                    let frame = (bits.next() % window as u64) as usize;
                    let pi = pis[(bits.next() % pis.len() as u64) as usize];
                    if machines.good().value(frame, pi) == Logic3::X {
                        slot = Some((frame, pi));
                        break;
                    }
                }
                let Some((frame, pi)) = slot else { break };
                let mark = machines.mark();
                let value = bits.next().is_multiple_of(2);
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
        }
    }

    /// Window growth (the generator's 1 → 2 → 4 → 8 widening) reuses the
    /// filled prefix frames instead of rebuilding the machines per window
    /// size; a grown machine must be bit-identical to a freshly constructed
    /// one — base values of both machines, changed-slot lists, D-frontier and
    /// detection — and must keep agreeing with the from-scratch reference
    /// under decisions made after the growth.
    #[test]
    fn grown_machines_equal_freshly_built_machines(
        seed in 0u64..300,
        flip_flops in 1usize..6,
        gates in 6usize..30,
        decide in 0usize..6,
    ) {
        let netlist = small_synth(seed, flip_flops, gates);
        let levels = levelize(&netlist).unwrap();
        let mut bits = Bits(seed.wrapping_mul(0x2545f4914f6cdd1d) + 11);
        let faults = full_fault_list(&netlist);
        let fault = faults[(bits.next() % faults.len() as u64) as usize];
        let pis = netlist.inputs().to_vec();
        let reference_gen =
            TestGenerator::new(&netlist, AtpgOptions::default(), &LearnedData::new()).unwrap();

        let mut machines = SearchMachines::new(&netlist, &levels, 1, fault);
        // Dirty the trails as an exhausted search would, then rewind + grow.
        for _ in 0..decide {
            let pi = pis[(bits.next() % pis.len() as u64) as usize];
            if machines.good().value(0, pi) == Logic3::X {
                machines.assign(0, pi, bits.next().is_multiple_of(2));
            }
        }
        for window in [2usize, 4, 8] {
            machines.rewind_to_base();
            machines.grow(window);
            let fresh = SearchMachines::new(&netlist, &levels, window, fault);
            prop_assert_eq!(machines.good().values(), fresh.good().values());
            prop_assert_eq!(machines.faulty().values(), fresh.faulty().values());
            prop_assert_eq!(machines.good().changed(), fresh.good().changed());
            prop_assert_eq!(machines.faulty().changed(), fresh.faulty().changed());
            prop_assert_eq!(machines.d_frontier(), fresh.d_frontier());
            prop_assert_eq!(machines.detected(), fresh.detected());
            // The rebuilt-after-grow frontier set equals the reference scan.
            prop_assert_eq!(machines.d_frontier(), machines.d_frontier_scan());

            // Decisions after the growth still track the from-scratch
            // reference in every frame, old and appended alike.
            let mut assigned: FastHashMap<(usize, u32), bool> = FastHashMap::default();
            for _ in 0..3 {
                let frame = (bits.next() % window as u64) as usize;
                let pi = pis[(bits.next() % pis.len() as u64) as usize];
                if machines.good().value(frame, pi) == Logic3::X {
                    let value = bits.next().is_multiple_of(2);
                    machines.assign(frame, pi, value);
                    assigned.insert((frame, pi.0), value);
                }
            }
            let (good, faulty) = reference_gen.simulate_reference(&fault, window, &assigned);
            for t in 0..window {
                prop_assert_eq!(machines.good().frame(t), good[t].as_slice(), "frame {}", t);
                prop_assert_eq!(machines.faulty().frame(t), faulty[t].as_slice(), "frame {}", t);
            }
            // Decisions made after the growth keep the persistent set in
            // lock-step with the reference scan.
            prop_assert_eq!(machines.d_frontier(), machines.d_frontier_scan());
        }
    }
    /// The base state — every machine value before any decision — on
    /// circuits whose constants feed gates and flip-flops, for a fault on a
    /// constant, a primary input, a flip-flop and an input pin: machines
    /// built at windows 1, 2, 4 and 8, and machines grown 1 → 2 → 4 → 8,
    /// equal the from-scratch reference with no assignments, and `changed()`
    /// is the ascending list of the binary slots.
    #[test]
    fn base_state_with_constants_equals_reference(
        seed in 0u64..400,
        gates in 4usize..24,
        flip_flops in 1usize..5,
    ) {
        let netlist = common::constant_circuit(seed, gates, flip_flops);
        let levels = levelize(&netlist).unwrap();
        let reference_gen =
            TestGenerator::new(&netlist, AtpgOptions::default(), &LearnedData::new()).unwrap();
        let undecided = FastHashMap::default();
        let faults = full_fault_list(&netlist);
        let mut bits = Bits(seed.wrapping_mul(0x51_7cc1_b727_220a) + 7);
        for class in 0..4 {
            let candidates: Vec<Fault> = faults
                .iter()
                .copied()
                .filter(|f| fault_class(&netlist, f, class))
                .collect();
            prop_assert!(!candidates.is_empty(), "class {} has no fault", class);
            let fault = candidates[(bits.next() % candidates.len() as u64) as usize];
            let mut grown = SearchMachines::new(&netlist, &levels, 1, fault);
            for window in [1usize, 2, 4, 8] {
                if window > 1 {
                    grown.rewind_to_base();
                    grown.grow(window);
                }
                let fresh = SearchMachines::new(&netlist, &levels, window, fault);
                let (good, faulty) = reference_gen.simulate_reference(&fault, window, &undecided);
                for (how, machines) in [("fresh", &fresh), ("grown", &grown)] {
                    for t in 0..window {
                        prop_assert_eq!(
                            machines.good().frame(t),
                            good[t].as_slice(),
                            "{} good machine, window {}, frame {}, fault {}",
                            how, window, t, fault.describe(&netlist)
                        );
                        prop_assert_eq!(
                            machines.faulty().frame(t),
                            faulty[t].as_slice(),
                            "{} faulty machine, window {}, frame {}, fault {}",
                            how, window, t, fault.describe(&netlist)
                        );
                    }
                    prop_assert_eq!(
                        machines.good().changed(),
                        binary_slots(machines.good().values()).as_slice()
                    );
                    prop_assert_eq!(
                        machines.faulty().changed(),
                        binary_slots(machines.faulty().values()).as_slice()
                    );
                    prop_assert_eq!(machines.d_frontier(), machines.d_frontier_scan());
                }
            }
        }
    }
}
