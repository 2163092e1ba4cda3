//! Equivalence guards for the packed/incremental rewrite on the named paper
//! circuits: the batched learning phases must produce exactly the scalar
//! reference outcome (implication set, ties, support), and the ATPG engine
//! must classify every fault identically across the learning modes that were
//! verified to agree before the rewrite.

use seqlearn::atpg::{AtpgEngine, AtpgOptions, LearnedData, LearningMode};
use seqlearn::circuits::{
    industrial_circuit, paper_style_figure1, paper_style_figure2, retimed_circuit,
    IndustrialConfig, RetimedConfig,
};
use seqlearn::learn::classes::clock_classes;
use seqlearn::learn::{multi_node, single_node, LearnOptions, SequentialLearner};
use seqlearn::netlist::stems::fanout_stems;
use seqlearn::netlist::{Netlist, NodeId};
use seqlearn::sim::{collapsed_fault_list, find_equivalences, InjectionSim, SimOptions};

fn named_circuits() -> Vec<Netlist> {
    vec![
        paper_style_figure1(),
        paper_style_figure2(),
        industrial_circuit(&IndustrialConfig {
            flip_flops_per_domain: 6,
            gates_per_domain: 40,
            ..IndustrialConfig::default()
        }),
        retimed_circuit(&RetimedConfig {
            master_bits: 3,
            derived_bits: 8,
            extra_gates: 24,
            inputs: 4,
            ..RetimedConfig::default()
        }),
    ]
}

/// Mirrors the per-class phase structure of `SequentialLearner::learn` and
/// asserts, class by class, that the batched phases equal the scalar
/// reference phases — including the tied-state chaining between them.
#[test]
fn batched_learning_phases_equal_scalar_reference_on_named_circuits() {
    for netlist in named_circuits() {
        let config = LearnOptions::default();
        let stems = fanout_stems(&netlist);
        let equivalences = find_equivalences(&netlist, &config.equiv_config).unwrap();
        let classes = clock_classes(&netlist);
        let masks: Vec<Option<Vec<bool>>> = if classes.len() <= 1 {
            vec![None]
        } else {
            classes
                .iter()
                .map(|c| Some(c.activation_mask(&netlist)))
                .collect()
        };
        let options = SimOptions {
            max_frames: config.max_frames,
            stop_on_repeat: true,
        };
        let mut tied: Vec<(NodeId, bool)> = Vec::new();
        for mask in &masks {
            let make_sim = |tied: &[(NodeId, bool)]| {
                let mut sim = InjectionSim::new(&netlist).unwrap();
                sim.set_equivalences(equivalences.clone());
                sim.set_active_sequential(mask.clone());
                sim.set_tied(tied.to_vec());
                sim
            };
            let class_stems: Vec<NodeId> = stems
                .iter()
                .copied()
                .filter(|&s| {
                    !netlist.is_sequential(s) || mask.as_ref().is_none_or(|m| m[s.index()])
                })
                .collect();

            let sim = make_sim(&tied);
            let scalar = single_node::run(&sim, &class_stems, &options, mask.as_deref(), true);
            let batched =
                single_node::run_batched(&sim, &class_stems, &options, mask.as_deref(), true);
            assert_eq!(
                scalar.implications,
                batched.implications,
                "{}",
                netlist.name()
            );
            assert_eq!(scalar.ties, batched.ties, "{}", netlist.name());
            assert_eq!(
                scalar.cross_frame,
                batched.cross_frame,
                "{}",
                netlist.name()
            );
            assert_eq!(scalar.support, batched.support, "{}", netlist.name());

            for tie in &scalar.ties {
                if !tied.iter().any(|&(n, _)| n == tie.node) {
                    tied.push((tie.node, tie.value));
                }
            }
            let mut scalar_sim = make_sim(&tied);
            let multi_scalar = multi_node::run(
                &mut scalar_sim,
                &scalar.support,
                mask.as_deref(),
                config.max_multi_node_targets,
                true,
            );
            let mut batched_sim = make_sim(&tied);
            let multi_batched = multi_node::run_batched(
                &mut batched_sim,
                &scalar.support,
                mask.as_deref(),
                config.max_multi_node_targets,
                true,
            );
            assert_eq!(
                multi_scalar.implications,
                multi_batched.implications,
                "{}",
                netlist.name()
            );
            assert_eq!(multi_scalar.ties, multi_batched.ties, "{}", netlist.name());
            assert_eq!(
                multi_scalar.cross_frame,
                multi_batched.cross_frame,
                "{}",
                netlist.name()
            );
            assert_eq!(scalar_sim.tied(), batched_sim.tied(), "{}", netlist.name());
            for tie in &multi_scalar.ties {
                if !tied.iter().any(|&(n, _)| n == tie.node) {
                    tied.push((tie.node, tie.value));
                }
            }
        }
    }
}

/// On the retimed circuit the three learning modes classify every fault
/// identically and spend identical backtracks — every invariant the
/// generator creates is re-derivable by plain three-valued window simulation
/// the moment its supporting values are assigned, so learned hints always
/// land on already-binary (agreeing) nodes and can neither conflict nor cut
/// a backtrace. This pins that structural property (the contrast case to
/// `tests/table5_workload.rs`, whose circuit is built so simulation *loses*
/// the invariants and learning strictly prunes).
#[test]
fn learning_modes_classify_retimed_faults_identically() {
    let netlist = retimed_circuit(&RetimedConfig {
        master_bits: 3,
        derived_bits: 8,
        extra_gates: 24,
        inputs: 4,
        ..RetimedConfig::default()
    });
    let learned = LearnedData::from(
        &SequentialLearner::new(&netlist, LearnOptions::default())
            .learn()
            .unwrap(),
    );
    let mut faults = collapsed_fault_list(&netlist);
    faults.truncate(60);

    let baseline = AtpgEngine::new(&netlist, AtpgOptions::builder().backtrack_limit(30).build())
        .unwrap()
        .run_with_threads(&faults, seqlearn::par::thread_count());
    for mode in [LearningMode::ForbiddenValue, LearningMode::KnownValue] {
        let run = AtpgEngine::new(
            &netlist,
            AtpgOptions::builder()
                .backtrack_limit(30)
                .learning(mode)
                .build(),
        )
        .unwrap()
        .with_learned(learned.clone())
        .run_with_threads(&faults, seqlearn::par::thread_count());
        assert_eq!(run.status, baseline.status, "{mode:?} changed a verdict");
        assert_eq!(
            run.stats.backtracks, baseline.stats.backtracks,
            "{mode:?} changed the backtrack count"
        );
    }
}
