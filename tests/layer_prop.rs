//! Property tests for the incremental implication layer: after arbitrary
//! decide / backtrack sequences, the incrementally maintained layer state must
//! equal a from-scratch rebuild over the same good-machine values.

use proptest::prelude::*;
use seqlearn::atpg::{ImplicationLayer, IncrementalLayer, LearningMode, LiteralAdjacency};
use seqlearn::circuits::{synthesize, SynthConfig};
use seqlearn::learn::{Implication, ImplicationDb, Literal};
use seqlearn::netlist::{Netlist, NodeId};
use seqlearn::sim::{FaultSimulator, Logic3, TestSequence};

fn small_synth(seed: u64, flip_flops: usize, gates: usize) -> Netlist {
    synthesize(&SynthConfig {
        name: format!("layer{seed}"),
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

/// Random implication database over the netlist nodes. Soundness is
/// irrelevant here — the layer machinery must track *any* database — and
/// unsound relations conflict often, which is exactly what the test wants to
/// exercise.
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

/// The good machine under the given primary-input assignments, every other
/// input `X`: the test generator's iterative-array model, as simulated by
/// [`FaultSimulator::trace`] (unknown initial state, no sequential rules).
fn simulate(
    sim: &FaultSimulator<'_>,
    netlist: &Netlist,
    window: usize,
    assigned: &[(usize, NodeId, bool)],
) -> Vec<Vec<Logic3>> {
    let mut vectors = vec![vec![Logic3::X; netlist.inputs().len()]; window];
    for &(frame, pi, value) in assigned {
        let pos = netlist.inputs().iter().position(|&p| p == pi).unwrap();
        vectors[frame][pos] = Logic3::from_bool(value);
    }
    sim.trace(&TestSequence::new(vectors), None)
}

#[derive(Debug, Clone, Copy)]
struct Decision {
    frame: usize,
    pi: NodeId,
    value: bool,
    flipped: bool,
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Drive the exact decide / flip / backtrack protocol of the test
    /// generator with random choices; at every search point the incremental
    /// layer must agree with `ImplicationLayer::build` on the conflict flag
    /// and, when conflict-free, on every hint over the unassigned (`X`)
    /// nodes.
    #[test]
    fn incremental_layer_equals_rebuild_under_random_search(
        seed in 0u64..500,
        flip_flops in 1usize..6,
        gates in 6usize..30,
        relations in 4usize..40,
        window in 1usize..5,
        steps in 4usize..40,
        known_mode in proptest::strategy::Just(true),
    ) {
        let netlist = small_synth(seed, flip_flops, gates);
        let sim = FaultSimulator::new(&netlist).unwrap();
        let mut bits = Bits(seed.wrapping_mul(0x2545f4914f6cdd1d) + 3);
        let db = random_db(&netlist, &mut bits, relations);
        let adj = LiteralAdjacency::build(&db, netlist.num_nodes());
        let mode = if known_mode && seed % 2 == 0 {
            LearningMode::KnownValue
        } else {
            LearningMode::ForbiddenValue
        };
        let n = netlist.num_nodes();
        let pis = netlist.inputs().to_vec();

        let mut decisions: Vec<Decision> = Vec::new();
        let mut layer = IncrementalLayer::new(&adj, mode, window, n);
        let mut pending_level = 0usize;

        for _ in 0..steps {
            let assigned: Vec<(usize, NodeId, bool)> = decisions
                .iter()
                .map(|d| (d.frame, d.pi, d.value))
                .collect();
            let good = simulate(&sim, &netlist, window, &assigned);

            // Every binary slot of the flat window: the layer's seen flags
            // skip the ones a live level already processed, so this is the
            // change stream of the step.
            let flat = good.concat();
            let binary: Vec<u32> = (0..flat.len() as u32)
                .filter(|&slot| flat[slot as usize].is_binary())
                .collect();
            let conflict = layer.update_events(pending_level, &flat, &binary);

            // Reference: full rebuild from the same good machine.
            let reference = ImplicationLayer::build(&adj, mode, &good);
            prop_assert_eq!(
                conflict,
                reference.conflict,
                "conflict flag diverged (seed {}, {} decisions)",
                seed,
                decisions.len()
            );
            if !conflict {
                for (frame, values) in good.iter().enumerate() {
                    for (idx, v) in values.iter().enumerate() {
                        let node = NodeId(idx as u32);
                        if *v == Logic3::X {
                            prop_assert_eq!(
                                layer.hint(frame, node),
                                reference.hint(frame, node),
                                "hint diverged at frame {} node {} (seed {})",
                                frame,
                                node,
                                seed
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
                        d.value = !d.value;
                        d.flipped = true;
                        decisions.push(d);
                        layer.pop_to(decisions.len());
                        pending_level = decisions.len();
                        flipped_some = true;
                        break;
                    }
                }
                if !flipped_some {
                    break; // exhausted
                }
            } else {
                // Pick an unassigned (frame, pi) slot, if any remain.
                let mut slot = None;
                for _ in 0..8 {
                    let frame = (bits.next() % window as u64) as usize;
                    let pi = pis[(bits.next() % pis.len() as u64) as usize];
                    if !decisions.iter().any(|d| d.frame == frame && d.pi == pi) {
                        slot = Some((frame, pi));
                        break;
                    }
                }
                let Some((frame, pi)) = slot else { break };
                decisions.push(Decision {
                    frame,
                    pi,
                    value: bits.next().is_multiple_of(2),
                    flipped: false,
                });
                pending_level = decisions.len();
            }
        }
    }
}
