//! Property-based tests: on randomly generated circuits, everything the
//! learning engine claims must be provable against the exhaustive steady-state
//! oracle, and the structural substrates must uphold their invariants.

use proptest::prelude::*;
use seqlearn::circuits::{retimed_circuit, synthesize, RetimedConfig, SynthConfig};
use seqlearn::learn::{LearnOptions, SequentialLearner};
use seqlearn::netlist::levelize::levelize;
use seqlearn::netlist::parser::parse_bench;
use seqlearn::netlist::writer::write_bench;
use seqlearn::netlist::NodeKind;
use seqlearn::sim::collapsed_fault_list;
use seqlearn::sim::{eval_gate3, FaultSimulator, Logic3, StateOracle, TestSequence};

/// Small synthetic circuits the oracle can enumerate exhaustively.
fn small_synth(seed: u64, flip_flops: usize, gates: usize) -> seqlearn::netlist::Netlist {
    synthesize(&SynthConfig {
        name: format!("prop{seed}"),
        inputs: 4,
        outputs: 3,
        flip_flops,
        gates,
        max_fanin: 3,
        seed,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Every learned relation and tie on a random circuit holds in every
    /// reachable steady state under every input — the core soundness claim of
    /// the learning technique.
    #[test]
    fn learned_relations_are_sound_on_random_circuits(
        seed in 0u64..200,
        flip_flops in 2usize..7,
        gates in 10usize..40,
    ) {
        let netlist = small_synth(seed, flip_flops, gates);
        let result = SequentialLearner::new(&netlist, LearnOptions::default())
            .learn()
            .unwrap();
        let oracle = StateOracle::build(&netlist, StateOracle::DEFAULT_BIT_LIMIT).unwrap();
        for imp in result.implications.relations() {
            prop_assert!(
                oracle.implication_holds(
                    imp.antecedent.node,
                    imp.antecedent.value,
                    imp.consequent.node,
                    imp.consequent.value
                ),
                "unsound relation {} on seed {}",
                imp.describe(&netlist),
                seed
            );
        }
        for tie in &result.tied {
            prop_assert!(
                oracle.tie_holds(tie.node, tie.value),
                "unsound tie {} on seed {}",
                tie.describe(&netlist),
                seed
            );
        }
    }

    /// Learned relations on retimed-style circuits (the low density-of-encoding
    /// regime) are sound as well.
    #[test]
    fn learned_relations_are_sound_on_retimed_circuits(
        seed in 0u64..100,
        derived in 4usize..9,
    ) {
        let netlist = retimed_circuit(&RetimedConfig {
            name: format!("rt{seed}"),
            master_bits: 3,
            derived_bits: derived,
            extra_gates: 16,
            inputs: 3,
            seed,
        });
        let result = SequentialLearner::new(&netlist, LearnOptions::default())
            .learn()
            .unwrap();
        let oracle = StateOracle::build(&netlist, StateOracle::DEFAULT_BIT_LIMIT).unwrap();
        for imp in result.implications.relations() {
            prop_assert!(oracle.implication_holds(
                imp.antecedent.node,
                imp.antecedent.value,
                imp.consequent.node,
                imp.consequent.value
            ), "unsound {} (seed {seed})", imp.describe(&netlist));
        }
    }

    /// Learned cross-frame relations hold on binary runs of the circuit *in
    /// operation*: a relation `a=va @ T → b=vb @ T+offset` is claimed for
    /// the states the machine can actually be in once its transients have
    /// settled — the same §4 semantics the same-frame invariants (and the
    /// steady-state oracle that validates them) already use. The reference
    /// here is an independent binary evaluator: a random power-up state and
    /// random inputs per frame, with a warm-up prefix long enough for every
    /// learnable invariant to manifest (learning derives facts by forward
    /// propagation, so an invariant proven at trace frame `t` is established
    /// within `t` steps of any history); frame pairs inside the warm-up are
    /// exactly the power-up transients the claims exclude.
    #[test]
    fn learned_cross_frame_relations_hold_on_settled_binary_runs(
        seed in 0u64..150,
        flip_flops in 2usize..7,
        gates in 10usize..40,
    ) {
        let netlist = small_synth(seed, flip_flops, gates);
        let result = SequentialLearner::new(
            &netlist,
            LearnOptions::builder().cross_frame(true).build(),
        )
        .learn()
        .unwrap();
        // An empty harvest is a vacuous (but possible) sample.
        let cross = result.cross_frame_deduped();
        let levels = levelize(&netlist).unwrap();
        let n = netlist.num_nodes();
        let warm = 10usize;
        let frames = warm + 8;
        let mut rng_bit = seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(7);
        let mut next_bit = || {
            rng_bit = rng_bit.wrapping_mul(6364136223846793005).wrapping_add(1);
            rng_bit >> 33 & 1 == 1
        };
        for _run in 0..12 {
            // One fully binary run of the iterative array.
            let mut values: Vec<Vec<Logic3>> = Vec::with_capacity(frames);
            for t in 0..frames {
                let mut v = vec![Logic3::X; n];
                for &pi in netlist.inputs() {
                    v[pi.index()] = Logic3::from_bool(next_bit());
                }
                for s in netlist.sequential_elements() {
                    v[s.index()] = if t == 0 {
                        Logic3::from_bool(next_bit()) // arbitrary power-up
                    } else {
                        values[t - 1][netlist.fanins(s)[0].index()]
                    };
                }
                for &id in levels.order() {
                    let node = netlist.node(id);
                    let NodeKind::Gate(gate) = node.kind else { continue };
                    v[id.index()] =
                        eval_gate3(gate, node.fanins.iter().map(|f| v[f.index()]));
                }
                values.push(v);
            }
            for c in &cross {
                for t in warm..frames {
                    let tf = t as i64 + i64::from(c.offset);
                    if !(warm as i64..frames as i64).contains(&tf) {
                        continue;
                    }
                    if values[t][c.antecedent.node.index()]
                        == Logic3::from_bool(c.antecedent.value)
                    {
                        prop_assert_eq!(
                            values[tf as usize][c.consequent.node.index()],
                            Logic3::from_bool(c.consequent.value),
                            "unsound cross relation {} (seed {})",
                            c,
                            seed
                        );
                    }
                }
            }
        }
    }

    /// The `.bench` writer and parser round-trip every generated circuit.
    #[test]
    fn bench_format_round_trips(seed in 0u64..500, flip_flops in 1usize..20, gates in 4usize..80) {
        let netlist = small_synth(seed, flip_flops, gates);
        let text = write_bench(&netlist);
        let reparsed = parse_bench("rt", &text).unwrap();
        prop_assert_eq!(netlist.num_nodes(), reparsed.num_nodes());
        prop_assert_eq!(netlist.num_gates(), reparsed.num_gates());
        prop_assert_eq!(netlist.num_sequential(), reparsed.num_sequential());
        prop_assert_eq!(netlist.inputs().len(), reparsed.inputs().len());
        prop_assert_eq!(netlist.outputs().len(), reparsed.outputs().len());
    }

    /// Fault simulation is monotone in the test sequence: appending frames can
    /// only grow the set of detected faults (three-valued detection is never
    /// retracted).
    #[test]
    fn fault_detection_is_monotone_in_sequence_length(
        seed in 0u64..100,
        flip_flops in 1usize..6,
        gates in 8usize..30,
        frames in 2usize..5,
    ) {
        let netlist = small_synth(seed, flip_flops, gates);
        let sim = FaultSimulator::new(&netlist).unwrap();
        let faults = collapsed_fault_list(&netlist);
        let mut rng_bit = seed;
        let mut vectors = Vec::new();
        for _ in 0..frames {
            let mut v = Vec::new();
            for _ in 0..netlist.inputs().len() {
                rng_bit = rng_bit.wrapping_mul(6364136223846793005).wrapping_add(1);
                v.push(Logic3::from_bool(rng_bit >> 33 & 1 == 1));
            }
            vectors.push(v);
        }
        let short = TestSequence::new(vectors[..frames - 1].to_vec());
        let long = TestSequence::new(vectors);
        let detected_short = sim.detected_faults(&faults, &short);
        let detected_long = sim.detected_faults(&faults, &long);
        for (s, l) in detected_short.iter().zip(&detected_long) {
            prop_assert!(!s || *l, "a detected fault became undetected with more frames");
        }
    }
}
