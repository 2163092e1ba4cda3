//! Property tests for the packed 64-wide simulation backbone: on random
//! netlists and random injection batches, the packed kernel must agree exactly
//! with the scalar three-valued reference paths.

mod common;

use proptest::prelude::*;
use seqlearn::circuits::{synthesize, SynthConfig};
use seqlearn::learn::{multi_node, single_node};
use seqlearn::netlist::stems::fanout_stems;
use seqlearn::netlist::{GateType, Netlist, NetlistBuilder, NodeId};
use seqlearn::sim::{
    collapsed_fault_list, eval_gate3, eval_gate3x64, find_equivalences, full_fault_list,
    EquivConfig, Fault, FaultSimulator, FaultSite, Injection, InjectionSim, Logic3, PackedWord,
    SimOptions, TestSequence,
};
use std::collections::BTreeMap;

fn small_synth(seed: u64, flip_flops: usize, gates: usize) -> Netlist {
    synthesize(&SynthConfig {
        name: format!("packed{seed}"),
        inputs: 4,
        outputs: 3,
        flip_flops,
        gates,
        max_fanin: 3,
        seed,
    })
}

/// Deterministic value stream for building random injection jobs.
struct Bits(u64);

impl Bits {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 11
    }

    fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[(self.next() % items.len() as u64) as usize]
    }
}

/// A small sequential circuit with one large exact equivalence class. The
/// class head `c0` is a two-input gate over two frame inputs, and each of
/// the `members - 1` further members `c1, c2, …` is a buffer or inverter of
/// an earlier member, or an AND/OR/NAND/NOR of two earlier members of one
/// polarity, so the class spans many levels. Flip-flops capture class
/// members and side gates that mix the class with frame inputs, so class
/// values cross frames. Four inputs and four flip-flops keep
/// `find_equivalences` exhaustive, so the class is exact.
fn class_circuit(seed: u64, members: usize) -> Netlist {
    const TWO_INPUT: [GateType; 6] = [
        GateType::And,
        GateType::Nand,
        GateType::Or,
        GateType::Nor,
        GateType::Xor,
        GateType::Xnor,
    ];
    let mut bits = Bits(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) + 3);
    let mut b = NetlistBuilder::new(format!("class{seed}"));
    let frame_inputs: Vec<String> = (0..4)
        .map(|i| format!("i{i}"))
        .chain((0..4).map(|f| format!("q{f}")))
        .collect();
    for input in &frame_inputs[..4] {
        b.input(input);
    }
    let x = (bits.next() % 8) as usize;
    let y = (x + 1 + (bits.next() % 7) as usize) % 8;
    let head = *bits.pick(&TWO_INPUT);
    b.gate("c0", head, &[&frame_inputs[x], &frame_inputs[y]])
        .unwrap();
    // Each member with its polarity relative to `c0`.
    let mut class: Vec<(String, bool)> = vec![("c0".to_string(), false)];
    for m in 1..members {
        let (p, p_inv) = bits.pick(&class).clone();
        let (q, q_inv) = bits.pick(&class).clone();
        let (gate, fanins, inv) = match bits.next() % 4 {
            0 => (GateType::Buf, vec![p], p_inv),
            2 | 3 if p != q && p_inv == q_inv => {
                let gate = *bits.pick(&TWO_INPUT[..4]);
                let inverting = matches!(gate, GateType::Nand | GateType::Nor);
                (gate, vec![p, q], p_inv ^ inverting)
            }
            _ => (GateType::Not, vec![p], !p_inv),
        };
        let name = format!("c{m}");
        let refs: Vec<&str> = fanins.iter().map(String::as_str).collect();
        b.gate(&name, gate, &refs).unwrap();
        class.push((name, inv));
    }
    let side: Vec<String> = (0..4).map(|s| format!("s{s}")).collect();
    for name in &side {
        let member = &bits.pick(&class).0;
        let input = bits.pick(&frame_inputs);
        b.gate(name, *bits.pick(&TWO_INPUT), &[member, input])
            .unwrap();
    }
    for f in 0..4 {
        let data = if f % 2 == 0 {
            &bits.pick(&class).0
        } else {
            bits.pick(&side)
        };
        b.dff(&frame_inputs[4 + f], data).unwrap();
    }
    b.output(&side[0]).unwrap();
    b.output(&class[members - 1].0).unwrap();
    b.build().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Lane-wise packed gate evaluation equals the scalar three-valued
    /// evaluation for every gate type over random packed operands.
    #[test]
    fn packed_gate_eval_matches_scalar(seed in 0u64..1000, arity in 1usize..4) {
        let mut bits = Bits(seed.wrapping_mul(0x9e3779b97f4a7c15) + 1);
        let fanins: Vec<PackedWord> = (0..arity)
            .map(|_| {
                let a = bits.next();
                let b = bits.next();
                // Disjoint planes: `one` wins where both bits are set.
                PackedWord { one: a, zero: b & !a }
            })
            .collect();
        for gate in seqlearn::netlist::GateType::ALL {
            let packed = eval_gate3x64(gate, &fanins);
            prop_assert_eq!(packed.zero & packed.one, 0, "planes must stay disjoint");
            for lane in [0usize, 1, 17, 40, 63] {
                let scalar = eval_gate3(gate, fanins.iter().map(|w| w.get(lane)));
                prop_assert_eq!(packed.get(lane), scalar, "{} lane {}", gate, lane);
            }
        }
    }

    /// `run_batch_packed` produces, lane for lane, exactly the trace the
    /// scalar `run` produces for the same injection job — frames, values,
    /// conflicts and state-repeat flags — on random netlists and random
    /// multi-frame injection batches, with and without equivalence classes,
    /// and with up to three tied nodes forced in every frame.
    #[test]
    fn run_batch_matches_scalar_runs(
        seed in 0u64..400,
        flip_flops in 1usize..6,
        gates in 6usize..30,
        jobs in 1usize..20,
        with_equiv in 0u8..2,
        ties in 0usize..4,
    ) {
        let netlist = small_synth(seed, flip_flops, gates);
        let mut sim = InjectionSim::new(&netlist).unwrap();
        if with_equiv == 1 {
            let classes = find_equivalences(&netlist, &EquivConfig::default()).unwrap();
            sim.set_equivalences(classes);
        }
        let mut bits = Bits(seed + 7);
        let n = netlist.num_nodes() as u64;
        let tied: Vec<(NodeId, bool)> = (0..ties)
            .map(|_| (NodeId((bits.next() % n) as u32), bits.next().is_multiple_of(2)))
            .collect();
        sim.set_tied(tied);
        let injections: Vec<Vec<Injection>> = (0..jobs)
            .map(|_| {
                (0..1 + bits.next() % 3)
                    .map(|_| {
                        Injection::new(
                            NodeId((bits.next() % n) as u32),
                            bits.next().is_multiple_of(2),
                            (bits.next() % 6) as usize,
                        )
                    })
                    .collect()
            })
            .collect();
        let job_slices: Vec<&[Injection]> = injections.iter().map(|j| j.as_slice()).collect();
        let options = SimOptions {
            max_frames: 8,
            stop_on_repeat: true,
        };
        let batch = sim.run_batch_packed(&job_slices, &options);
        prop_assert_eq!(batch.lanes(), jobs);
        for (lane, job) in job_slices.iter().enumerate() {
            let scalar = sim.run(job, &options);
            prop_assert_eq!(batch.to_trace(lane), scalar, "lane trace differs for {:?}", job);
        }
    }

    /// Per-lane frame limits behave exactly like per-job `max_frames`.
    #[test]
    fn run_batch_limits_match_per_job_max_frames(
        seed in 0u64..200,
        flip_flops in 1usize..5,
        gates in 6usize..24,
    ) {
        let netlist = small_synth(seed, flip_flops, gates);
        let sim = InjectionSim::new(&netlist).unwrap();
        let mut bits = Bits(seed + 13);
        let n = netlist.num_nodes() as u64;
        let injections: Vec<Vec<Injection>> = (0..8)
            .map(|_| {
                vec![Injection::new(
                    NodeId((bits.next() % n) as u32),
                    bits.next().is_multiple_of(2),
                    (bits.next() % 3) as usize,
                )]
            })
            .collect();
        let job_slices: Vec<&[Injection]> = injections.iter().map(|j| j.as_slice()).collect();
        let limits: Vec<usize> = (0..8).map(|_| (bits.next() % 7) as usize).collect();
        let options = SimOptions {
            max_frames: 6,
            stop_on_repeat: false,
        };
        let batch = sim.run_batch_with_limits_packed(&job_slices, &options, &limits);
        prop_assert_eq!(batch.lanes(), job_slices.len());
        for (lane, (job, &limit)) in job_slices.iter().zip(&limits).enumerate() {
            let scalar = sim.run(
                job,
                &SimOptions {
                    max_frames: limit.min(options.max_frames),
                    ..options
                },
            );
            prop_assert_eq!(batch.to_trace(lane), scalar);
        }
    }

    /// One exact class of at least 16 members, injections on its members at
    /// several frames, and per-lane frame limits: whichever member first
    /// forwards a lane decides where that lane's conflict is recorded, and
    /// a member forced in a lane forwards into members behind it, so the
    /// frame takes re-passes. Lane for lane, the packed run must equal the
    /// scalar run of the same job with the lane's limit as `max_frames`.
    #[test]
    fn large_class_forwarding_matches_scalar_runs(
        seed in 0u64..400,
        members in 16usize..40,
        jobs in 1usize..65,
    ) {
        let netlist = class_circuit(seed, members);
        let classes = find_equivalences(&netlist, &EquivConfig::default()).unwrap();
        let c0 = netlist.require("c0").unwrap();
        let (class, _) = classes.class_of(c0).expect("c0 heads a class");
        let class_nodes: Vec<NodeId> =
            classes.members(class).iter().map(|&(node, _)| node).collect();
        prop_assert!(class_nodes.len() >= members, "class of {}", class_nodes.len());
        let mut sim = InjectionSim::new(&netlist).unwrap();
        sim.set_equivalences(classes);
        let mut bits = Bits(seed + 29);
        let n = netlist.num_nodes() as u64;
        let injections: Vec<Vec<Injection>> = (0..jobs)
            .map(|_| {
                (0..1 + bits.next() % 4)
                    .map(|_| {
                        let node = if bits.next().is_multiple_of(4) {
                            NodeId((bits.next() % n) as u32)
                        } else {
                            *bits.pick(&class_nodes)
                        };
                        Injection::new(node, bits.next().is_multiple_of(2), (bits.next() % 4) as usize)
                    })
                    .collect()
            })
            .collect();
        let job_slices: Vec<&[Injection]> = injections.iter().map(|j| j.as_slice()).collect();
        let limits: Vec<usize> = (0..jobs).map(|_| (bits.next() % 9) as usize).collect();
        let options = SimOptions {
            max_frames: 8,
            stop_on_repeat: true,
        };
        let batch = sim.run_batch_with_limits_packed(&job_slices, &options, &limits);
        prop_assert_eq!(batch.lanes(), jobs);
        for (lane, (job, &limit)) in job_slices.iter().zip(&limits).enumerate() {
            let scalar = sim.run(
                job,
                &SimOptions {
                    max_frames: limit.min(options.max_frames),
                    ..options
                },
            );
            prop_assert_eq!(batch.to_trace(lane), scalar, "lane trace differs for {:?}", job);
        }
    }

    /// Batched single-node learning produces exactly the scalar outcome —
    /// relations (with flags and order), ties, cross-frame relations, the
    /// support map — on random netlists, with and without a class mask.
    #[test]
    fn batched_single_node_learning_matches_scalar(
        seed in 0u64..300,
        flip_flops in 2usize..7,
        gates in 8usize..40,
        mask_out in 0usize..4,
    ) {
        let netlist = small_synth(seed, flip_flops, gates);
        let mut sim = InjectionSim::new(&netlist).unwrap();
        let classes = find_equivalences(&netlist, &EquivConfig::default()).unwrap();
        sim.set_equivalences(classes);
        let stems = fanout_stems(&netlist);
        let options = SimOptions::default();
        // Optionally mask out one sequential element to exercise class masks.
        let mask: Option<Vec<bool>> = if mask_out > 0 {
            let mut m = vec![true; netlist.num_nodes()];
            if let Some(s) = netlist.sequential_elements().nth(mask_out - 1) {
                m[s.index()] = false;
            }
            Some(m)
        } else {
            None
        };
        let scalar = single_node::run(&sim, &stems, &options, mask.as_deref(), true);
        let batched = single_node::run_batched(&sim, &stems, &options, mask.as_deref(), true);
        prop_assert_eq!(scalar.implications, batched.implications);
        prop_assert_eq!(scalar.ties, batched.ties);
        prop_assert_eq!(scalar.cross_frame, batched.cross_frame);
        prop_assert_eq!(scalar.support, batched.support);
        prop_assert_eq!(scalar.stems_processed, batched.stems_processed);
    }

    /// Batched multiple-node learning — including its tie-restart protocol —
    /// produces exactly the scalar outcome and leaves the simulator with the
    /// same tied set. Both simulators start as the engine's multiple-node
    /// phase does: with the equivalence classes and the single-node ties.
    #[test]
    fn batched_multi_node_learning_matches_scalar(
        seed in 0u64..300,
        flip_flops in 2usize..7,
        gates in 8usize..40,
    ) {
        let netlist = small_synth(seed, flip_flops, gates);
        let classes = find_equivalences(&netlist, &EquivConfig::default()).unwrap();
        let mut base = InjectionSim::new(&netlist).unwrap();
        base.set_equivalences(classes.clone());
        let stems = fanout_stems(&netlist);
        let options = SimOptions::default();
        let single = single_node::run(&base, &stems, &options, None, false);
        // The first tie of a node wins, as in the engine.
        let mut tied: BTreeMap<NodeId, bool> = BTreeMap::new();
        for tie in &single.ties {
            tied.entry(tie.node).or_insert(tie.value);
        }
        let phase_sim = || {
            let mut sim = InjectionSim::new(&netlist).unwrap();
            sim.set_equivalences(classes.clone());
            sim.set_tied(tied.iter().map(|(&node, &value)| (node, value)).collect());
            sim
        };
        let mut scalar_sim = phase_sim();
        let scalar = multi_node::run(&mut scalar_sim, &single.support, None, 0, true);
        let mut batched_sim = phase_sim();
        let batched =
            multi_node::run_batched(&mut batched_sim, &single.support, None, 0, true);
        prop_assert_eq!(scalar.implications, batched.implications);
        prop_assert_eq!(scalar.ties, batched.ties);
        prop_assert_eq!(scalar.cross_frame, batched.cross_frame);
        prop_assert_eq!(scalar.targets_processed, batched.targets_processed);
        prop_assert_eq!(scalar_sim.tied(), batched_sim.tied());
    }

    /// Word-parallel fault dropping classifies every fault exactly like the
    /// serial single-fault simulation.
    #[test]
    fn packed_fault_dropping_matches_serial_detection(
        seed in 0u64..300,
        flip_flops in 1usize..6,
        gates in 8usize..40,
        frames in 1usize..5,
    ) {
        let netlist = small_synth(seed, flip_flops, gates);
        let sim = FaultSimulator::new(&netlist).unwrap();
        let faults = collapsed_fault_list(&netlist);
        let mut bits = Bits(seed + 41);
        let vectors: Vec<Vec<Logic3>> = (0..frames)
            .map(|_| {
                (0..netlist.inputs().len())
                    .map(|_| match bits.next() % 3 {
                        0 => Logic3::Zero,
                        1 => Logic3::One,
                        _ => Logic3::X,
                    })
                    .collect()
            })
            .collect();
        let sequence = TestSequence::new(vectors);
        let bulk = sim.detected_faults(&faults, &sequence);
        for (fault, &detected) in faults.iter().zip(&bulk) {
            prop_assert_eq!(
                sim.detects(fault, &sequence),
                detected,
                "{} mismatches",
                fault.describe(&netlist)
            );
        }
    }
    /// Dropping restricted to the targets' support: 1–3 target faults drawn
    /// in turn from input pins, primary inputs, flip-flops and the whole
    /// list, on circuits whose constants feed gates and flip-flops, under
    /// random 0/1/X vectors — each classified exactly like the single-fault
    /// simulation over the whole netlist.
    #[test]
    fn fault_dropping_on_subsets_matches_serial_detection(
        seed in 0u64..400,
        gates in 4usize..30,
        flip_flops in 1usize..5,
        frames in 1usize..6,
        targets in 1usize..4,
    ) {
        let netlist = common::constant_circuit(seed, gates, flip_flops);
        let sim = FaultSimulator::new(&netlist).unwrap();
        let faults = full_fault_list(&netlist);
        let on = |pred: &dyn Fn(&Fault) -> bool| -> Vec<Fault> {
            faults.iter().copied().filter(|f| pred(f)).collect()
        };
        let pins = on(&|f| matches!(f.site, FaultSite::Input { .. }));
        let inputs = on(&|f| matches!(f.site, FaultSite::Output(n) if netlist.kind(n).is_input()));
        let flip_flops = on(&|f| matches!(f.site, FaultSite::Output(n) if netlist.is_sequential(n)));
        let pools = [&pins, &inputs, &flip_flops, &faults];
        let mut bits = Bits(seed.wrapping_mul(0x2545_f491_4f6c_dd1d) + 17);
        let first_pool = (bits.next() % 4) as usize;
        let chosen: Vec<Fault> = (0..targets)
            .map(|k| {
                let pool = pools[(first_pool + k) % pools.len()];
                pool[(bits.next() % pool.len() as u64) as usize]
            })
            .collect();
        let vectors: Vec<Vec<Logic3>> = (0..frames)
            .map(|_| {
                (0..netlist.inputs().len())
                    .map(|_| match bits.next() % 5 {
                        0 | 1 => Logic3::Zero,
                        2 | 3 => Logic3::One,
                        _ => Logic3::X,
                    })
                    .collect()
            })
            .collect();
        let sequence = TestSequence::new(vectors);
        let bulk = sim.detected_faults(&chosen, &sequence);
        prop_assert_eq!(bulk.len(), chosen.len());
        for (fault, &detected) in chosen.iter().zip(&bulk) {
            prop_assert_eq!(
                sim.detects(fault, &sequence),
                detected,
                "{} mismatches",
                fault.describe(&netlist)
            );
        }
    }
}
