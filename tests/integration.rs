//! Cross-crate integration tests: the full preprocessing-to-ATPG flow on the
//! paper-style circuits and the benchmark generators.

use seqlearn::atpg::{AtpgEngine, AtpgOptions, FaultStatus, LearnedData, LearningMode};
use seqlearn::circuits::{
    build_profile, paper_style_figure1, paper_style_figure2, profile_by_name, retimed_circuit, s27,
    RetimedConfig,
};
use seqlearn::learn::{LearnOptions, SequentialLearner, TieKind};
use seqlearn::netlist::parser::parse_bench;
use seqlearn::netlist::writer::write_bench;
use seqlearn::redundancy::identify_untestable;
use seqlearn::sim::{collapsed_fault_list, FaultSimulator, StateOracle};

#[test]
fn figure1_learning_finds_ties_equivalence_relations_and_invalid_states() {
    let netlist = paper_style_figure1();
    let result = SequentialLearner::new(&netlist, LearnOptions::default())
        .learn()
        .unwrap();

    // The combinational tie (the paper's G3) and the sequential tie (G15).
    let g3 = netlist.require("G3").unwrap();
    let g15 = netlist.require("G15").unwrap();
    assert!(result
        .tied
        .iter()
        .any(|t| t.node == g3 && !t.value && t.kind == TieKind::Combinational));
    assert!(result.tied.iter().any(|t| t.node == g15 && !t.value));

    // Invalid-state relations exist and every one of them is sound.
    let oracle = StateOracle::build(&netlist, StateOracle::DEFAULT_BIT_LIMIT).unwrap();
    let invalid = result.invalid_state_relations(&netlist);
    assert!(!invalid.is_empty());
    for imp in result.implications.relations() {
        assert!(
            oracle.implication_holds(
                imp.antecedent.node,
                imp.antecedent.value,
                imp.consequent.node,
                imp.consequent.value
            ),
            "unsound: {}",
            imp.describe(&netlist)
        );
    }
    for tie in &result.tied {
        assert!(
            oracle.tie_holds(tie.node, tie.value),
            "unsound tie {}",
            tie.describe(&netlist)
        );
    }
}

#[test]
fn figure2_relation_needs_multiple_node_learning() {
    let netlist = paper_style_figure2();
    let g9 = netlist.require("G9").unwrap();
    let f2 = netlist.require("F2").unwrap();

    let single = SequentialLearner::new(&netlist, LearnOptions::single_node_only())
        .learn()
        .unwrap();
    assert!(
        !single.implications.implies(g9, false, f2, false),
        "single-node learning must not find G9=0 -> F2=0"
    );

    let full = SequentialLearner::new(&netlist, LearnOptions::default())
        .learn()
        .unwrap();
    assert!(
        full.implications.implies(g9, false, f2, false),
        "multiple-node learning must find G9=0 -> F2=0"
    );
}

#[test]
fn s27_end_to_end_learn_and_atpg() {
    let netlist = s27();
    let learned = LearnedData::from(
        &SequentialLearner::new(&netlist, LearnOptions::default())
            .learn()
            .unwrap(),
    );
    let faults = collapsed_fault_list(&netlist);
    let run = AtpgEngine::new(
        &netlist,
        AtpgOptions::builder()
            .backtrack_limit(100)
            .learning(LearningMode::ForbiddenValue)
            .build(),
    )
    .unwrap()
    .with_learned(learned)
    .run(&faults);

    // s27's cross-coupled NOR state loops are hard to initialise under the
    // conservative three-valued, unknown-initial-state model, so full coverage
    // is not expected; a healthy fraction of faults must still be detected and
    // every fault must receive a classification.
    assert!(
        run.stats.detected * 6 >= faults.len(),
        "expected a healthy fraction of s27's faults detected, got {}/{}",
        run.stats.detected,
        faults.len()
    );
    assert_eq!(
        run.stats.detected + run.stats.untestable + run.stats.aborted,
        faults.len()
    );
    // Every generated sequence is validated against the reference simulator.
    let sim = FaultSimulator::new(&netlist).unwrap();
    for seq in &run.sequences {
        assert!(faults.iter().any(|f| sim.detects(f, seq)));
    }
}

#[test]
fn retimed_circuit_learning_helps_atpg() {
    let netlist = retimed_circuit(&RetimedConfig {
        master_bits: 3,
        derived_bits: 8,
        extra_gates: 24,
        inputs: 3,
        seed: 5,
        ..RetimedConfig::default()
    });
    let learn = SequentialLearner::new(&netlist, LearnOptions::default())
        .learn()
        .unwrap();
    assert!(
        learn.stats.total.ff_ff > 0,
        "a low-density circuit must yield invalid-state relations"
    );
    let learned = LearnedData::from(&learn);
    let mut faults = collapsed_fault_list(&netlist);
    faults.truncate(80);

    let baseline = AtpgEngine::new(&netlist, AtpgOptions::builder().backtrack_limit(30).build())
        .unwrap()
        .run(&faults);
    let with_learning = AtpgEngine::new(
        &netlist,
        AtpgOptions::builder()
            .backtrack_limit(30)
            .learning(LearningMode::ForbiddenValue)
            .build(),
    )
    .unwrap()
    .with_learned(learned)
    .run(&faults);

    // The paper's claim, in shape: with learning the ATPG classifies at least
    // as many faults (detected + untestable) as without.
    assert!(
        with_learning.stats.detected + with_learning.stats.untestable
            >= baseline.stats.detected + baseline.stats.untestable
    );
}

#[test]
fn fire_baseline_and_tie_learning_agree_on_obvious_redundancy() {
    let netlist = paper_style_figure1();
    let learn = SequentialLearner::new(&netlist, LearnOptions::default())
        .learn()
        .unwrap();
    let fire = identify_untestable(&netlist).unwrap();
    let g3 = netlist.require("G3").unwrap();
    // Both methods agree that the constant gate's stuck-at-0 is untestable.
    assert!(learn.tied.iter().any(|t| t.node == g3 && !t.value));
    assert!(fire
        .untestable
        .iter()
        .any(|f| f.site == seqlearn::sim::FaultSite::Output(g3) && !f.stuck_at));
}

#[test]
fn profiles_round_trip_through_bench_format() {
    let profile = profile_by_name("s444").unwrap();
    let netlist = build_profile(profile, 0.3);
    let text = write_bench(&netlist);
    let reparsed = parse_bench(profile.name, &text).unwrap();
    assert_eq!(netlist.num_nodes(), reparsed.num_nodes());
    assert_eq!(netlist.num_sequential(), reparsed.num_sequential());
    // Learning on the reparsed circuit gives the same counts.
    let a = SequentialLearner::new(&netlist, LearnOptions::default())
        .learn()
        .unwrap();
    let b = SequentialLearner::new(&reparsed, LearnOptions::default())
        .learn()
        .unwrap();
    assert_eq!(a.stats.total.total(), b.stats.total.total());
    assert_eq!(a.tied.len(), b.tied.len());
}

#[test]
fn atpg_statuses_are_consistent_with_fault_simulation() {
    let netlist = s27();
    let faults = collapsed_fault_list(&netlist);
    let run = AtpgEngine::new(&netlist, AtpgOptions::builder().backtrack_limit(50).build())
        .unwrap()
        .run(&faults);
    let sim = FaultSimulator::new(&netlist).unwrap();
    for (fault, status) in faults.iter().zip(&run.status) {
        if *status == FaultStatus::Detected {
            assert!(
                run.sequences.iter().any(|seq| sim.detects(fault, seq)),
                "{} marked detected but no sequence detects it",
                fault.describe(&netlist)
            );
        }
    }
}
