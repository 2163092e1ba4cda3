//! Property tests for the arena-CSR netlist core and its two readers: the
//! fanout table read through [`Netlist`] and the levels and evaluation
//! positions read through [`Levelization`] must agree with naive references
//! computed from the node kinds and fanins alone on random netlists, names
//! must resolve both ways, and the structural hashes of the committed
//! workloads must not move — node ids are declaration order by contract, so
//! the arena refactor is invisible to snapshots taken before it.
//!
//! [`Levelization`]: seqlearn::netlist::levelize::Levelization

use proptest::prelude::*;
use seqlearn::circuits::{scale_circuit, synthesize, ScaleConfig, SynthConfig};
use seqlearn::netlist::levelize::levelize;
use seqlearn::netlist::{Netlist, NodeId};

fn random_netlist(seed: u64) -> Netlist {
    synthesize(&SynthConfig {
        name: format!("arena{seed}"),
        inputs: 3 + (seed % 5) as usize,
        outputs: 2 + (seed % 3) as usize,
        flip_flops: (seed % 7) as usize,
        gates: 10 + (seed % 60) as usize,
        max_fanin: 2 + (seed % 4) as usize,
        seed,
    })
}

/// Naive per-node fanout lists rebuilt from the fanin accessors alone, in
/// the contractual (driver, pin) order: iterate consumers in id order and
/// append each consumer once per fanin pin it reads from the driver.
fn reference_fanouts(n: &Netlist) -> Vec<Vec<NodeId>> {
    let mut fanouts = vec![Vec::new(); n.num_nodes()];
    for id in n.node_ids() {
        for &f in n.fanins(id) {
            fanouts[f.index()].push(id);
        }
    }
    fanouts
}

/// Naive Kahn levelization over the accessor API: combinational indegrees,
/// id-ordered seed queue, FIFO, `level = 1 + max(fanin levels)`.
fn reference_levels(n: &Netlist) -> Vec<u32> {
    let mut indeg = vec![0usize; n.num_nodes()];
    for id in n.node_ids() {
        if n.kind(id).is_sequential() {
            continue;
        }
        indeg[id.index()] = n
            .fanins(id)
            .iter()
            .filter(|&&f| !n.kind(f).is_sequential())
            .count();
    }
    let mut level = vec![0u32; n.num_nodes()];
    let mut queue: Vec<NodeId> = n
        .node_ids()
        .filter(|&id| !n.kind(id).is_sequential() && indeg[id.index()] == 0)
        .collect();
    let mut head = 0;
    while head < queue.len() {
        let id = queue[head];
        head += 1;
        if n.kind(id).is_gate() {
            level[id.index()] = 1 + n
                .fanins(id)
                .iter()
                .map(|&f| level[f.index()])
                .max()
                .unwrap_or(0);
        }
        for &fo in n.fanouts(id) {
            if n.kind(fo).is_sequential() {
                continue;
            }
            indeg[fo.index()] -= 1;
            if indeg[fo.index()] == 0 {
                queue.push(fo);
            }
        }
    }
    level
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The fanout table read through [`Netlist::fanouts`] is identical to
    /// the naive rebuild from the fanins, order included, for every node.
    #[test]
    fn csr_matches_accessor_reference(seed in 0u64..10_000) {
        let n = random_netlist(seed);
        let fanouts = reference_fanouts(&n);
        for id in n.node_ids() {
            prop_assert_eq!(n.fanouts(id), &fanouts[id.index()][..]);
        }
    }

    /// The levelization stored in the arena at build time equals a naive
    /// Kahn reference recomputed through the accessor API, the eval order
    /// is a valid topological order of the combinational logic, and each
    /// evaluation position is the gate's index in that order.
    #[test]
    fn arena_levelization_matches_naive_kahn(seed in 0u64..10_000) {
        let n = random_netlist(seed);
        let lv = levelize(&n).expect("synthesized netlists are acyclic");
        let reference = reference_levels(&n);
        for id in n.node_ids() {
            prop_assert_eq!(lv.level(id), reference[id.index()]);
        }
        // Every gate appears in the order, after all its combinational
        // fanins.
        let mut pos = vec![u32::MAX; n.num_nodes()];
        for (i, &id) in lv.order().iter().enumerate() {
            pos[id.index()] = i as u32;
        }
        for id in n.node_ids() {
            prop_assert_eq!(lv.eval_pos(id), pos[id.index()]);
            if !n.kind(id).is_gate() {
                continue;
            }
            prop_assert!(pos[id.index()] != u32::MAX, "gate missing from order");
            for &f in n.fanins(id) {
                if n.kind(f).is_gate() {
                    prop_assert!(pos[f.index()] < pos[id.index()]);
                }
            }
        }
    }

    /// Names resolve both ways: `node_id` inverts `node_name` on every node,
    /// and every node has its own name.
    #[test]
    fn node_name_and_node_id_are_inverse(seed in 0u64..10_000) {
        let n = random_netlist(seed);
        for id in n.node_ids() {
            prop_assert_eq!(n.node_id(n.node_name(id)), Some(id));
        }
    }

    /// Round-tripping a random netlist through the `.bench` text keeps the
    /// structural hash — parser, writer and builder agree on identity.
    #[test]
    fn bench_round_trip_preserves_structural_hash(seed in 0u64..10_000) {
        let n = random_netlist(seed);
        let text = seqlearn::netlist::writer::write_bench(&n);
        let back = seqlearn::netlist::parser::parse_bench(n.name(), &text)
            .expect("writer output parses");
        prop_assert_eq!(n.structural_hash(), back.structural_hash());
    }
}

/// The fanout and level references hold on the layered scale generator too
/// (multi-input gates, flip-flop feedback, forward references).
#[test]
fn csr_matches_reference_on_scale_circuit() {
    let n = scale_circuit(&ScaleConfig {
        layers: 4,
        layer_width: 64,
        inputs: 12,
        flip_flops: 16,
        outputs: 8,
        ..ScaleConfig::default()
    });
    let lv = levelize(&n).expect("scale circuits are acyclic");
    let fanouts = reference_fanouts(&n);
    let reference = reference_levels(&n);
    for id in n.node_ids() {
        assert_eq!(n.fanouts(id), &fanouts[id.index()][..]);
        assert_eq!(lv.level(id), reference[id.index()]);
    }
}

/// The structural hashes of the five committed workloads, pinned to their
/// pre-refactor values: node ids are declaration order, so moving to the
/// arena must not disturb any snapshot or checkpoint taken before it.
#[test]
fn committed_workload_hashes_are_stable() {
    use seqlearn::circuits as c;
    let expected: [(&str, u64); 5] = [
        ("figure1", 7915309555979576805),
        ("s27", 9620679120185235317),
        ("industrial", 13025877481270551139),
        ("retimed", 14471254326006956454),
        ("table5", 11976809643570696759),
    ];
    let nets = [
        c::paper_style_figure1(),
        c::s27(),
        c::industrial_circuit(&Default::default()),
        c::retimed_circuit(&Default::default()),
        c::table5_circuit(&Default::default()),
    ];
    for ((label, hash), n) in expected.iter().zip(nets.iter()) {
        assert_eq!(
            n.structural_hash(),
            *hash,
            "structural hash of the {label} workload moved"
        );
    }
}
