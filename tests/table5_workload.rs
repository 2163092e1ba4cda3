//! The Table-5 phenomenon, pinned as a test: on the [`table5_circuit`]
//! workload (retimed-redundant recomputation whose invariants three-valued
//! window simulation loses), learned implications must *strictly* prune the
//! ATPG search — fewer backtracks — while never losing a detection, and must
//! convert some aborted faults into proven-untestable ones.
//!
//! This guards the two pieces that make the phenomenon work:
//!
//! * the learning side: gate-equivalence value forwarding proving the
//!   `fb=1 → fg=1` / `fb=0 → fg=0` same-frame relations across the redundant
//!   mux stacks (no other analysis in the code base can see them),
//! * the search side: the backtrace refusing to justify a value against a
//!   learned hint (without that guard these hints sit on `X` nodes that the
//!   simulation never contradicts, and learning prunes nothing — the
//!   original "zero backtrack reduction" bug).

use seqlearn::atpg::{AtpgEngine, AtpgOptions, AtpgRun, LearnedData, LearningMode};
use seqlearn::circuits::{table5_circuit, Table5Config};
use seqlearn::learn::{LearnOptions, SequentialLearner};
use seqlearn::sim::collapsed_fault_list;

fn run_mode(
    netlist: &seqlearn::netlist::Netlist,
    learned: &LearnedData,
    mode: LearningMode,
) -> AtpgRun {
    AtpgEngine::new(
        netlist,
        AtpgOptions::builder()
            .backtrack_limit(100)
            .learning(mode)
            .build(),
    )
    .unwrap()
    .with_learned(learned.clone())
    .run(&collapsed_fault_list(netlist))
}

#[test]
fn learning_strictly_reduces_backtracks_on_the_table5_workload() {
    let netlist = table5_circuit(&Table5Config::default());
    let learn = SequentialLearner::new(&netlist, LearnOptions::default())
        .learn()
        .unwrap();
    let learned = LearnedData::from(&learn);
    assert!(
        !learned.implications().is_empty(),
        "the workload must produce learnable relations"
    );

    let baseline = run_mode(&netlist, &learned, LearningMode::None);
    for mode in [LearningMode::ForbiddenValue, LearningMode::KnownValue] {
        let run = run_mode(&netlist, &learned, mode);
        assert!(
            run.stats.backtracks < baseline.stats.backtracks,
            "{mode:?} must strictly reduce backtracks: {} vs {} without learning",
            run.stats.backtracks,
            baseline.stats.backtracks
        );
        assert!(
            run.stats.detected >= baseline.stats.detected,
            "{mode:?} must not lose detections ({} vs {})",
            run.stats.detected,
            baseline.stats.detected
        );
        assert!(
            run.stats.untestable > baseline.stats.untestable,
            "{mode:?} must prove extra aborted faults untestable ({} vs {})",
            run.stats.untestable,
            baseline.stats.untestable
        );
        assert!(
            run.stats.aborted < baseline.stats.aborted,
            "{mode:?} must abort on fewer faults ({} vs {})",
            run.stats.aborted,
            baseline.stats.aborted
        );
    }
}

/// Cross-frame forbidden-value pruning on the cross-cell flavour of the
/// workload: attaching the learner's cross-frame relations must *strictly*
/// reduce backtracks below what the same-frame database alone achieves (the
/// full capability of PR 4, which compiled no cross-frame relations), must
/// convert additional aborted faults into proven-untestable ones, and must
/// never lose a detection. The cross cells are built so that the doomed
/// select-tree walk has no same-frame anchor at any depth (see
/// `table5_circuit`): if this assertion holds, the cross-frame hints are
/// demonstrably firing in the backtrace, not just compiling into the
/// adjacency.
#[test]
fn cross_frame_relations_strictly_reduce_backtracks() {
    let netlist = table5_circuit(&Table5Config::with_cross_cells(4));
    let learn = SequentialLearner::new(&netlist, LearnOptions::builder().cross_frame(true).build())
        .learn()
        .unwrap();
    assert!(
        !learn.cross_frame.is_empty(),
        "the workload must produce cross-frame relations"
    );
    // Same-frame-only learned data is exactly what PR 4 handed the engine.
    let same_frame_only =
        LearnedData::from_parts(learn.implications.clone(), learn.tied_constants());
    let with_cross = LearnedData::from(&learn);
    assert!(
        !with_cross.cross_frame().is_empty(),
        "from_learn_result must carry the cross-frame relations"
    );

    for mode in [LearningMode::ForbiddenValue, LearningMode::KnownValue] {
        let before = run_mode(&netlist, &same_frame_only, mode);
        let after = run_mode(&netlist, &with_cross, mode);
        assert!(
            after.stats.backtracks < before.stats.backtracks,
            "{mode:?}: cross-frame pruning must strictly reduce backtracks \
             ({} with vs {} without)",
            after.stats.backtracks,
            before.stats.backtracks
        );
        assert!(
            after.stats.detected >= before.stats.detected,
            "{mode:?} must not lose detections ({} vs {})",
            after.stats.detected,
            before.stats.detected
        );
        assert!(
            after.stats.untestable > before.stats.untestable,
            "{mode:?} must prove extra aborted faults untestable ({} vs {})",
            after.stats.untestable,
            before.stats.untestable
        );
        assert!(
            after.stats.aborted < before.stats.aborted,
            "{mode:?} must abort on fewer faults ({} vs {})",
            after.stats.aborted,
            before.stats.aborted
        );
    }
}

/// The relations that drive the pruning really are the equivalence-derived
/// chain-end pairs: both polarities of the `fb → fg` link must be in the
/// database (their contrapositives power the forbidden-value hints).
#[test]
fn workload_relations_link_the_redundant_chain_ends() {
    let netlist = table5_circuit(&Table5Config::default());
    let learn = SequentialLearner::new(&netlist, LearnOptions::default())
        .learn()
        .unwrap();
    let fb = netlist.require("fb0_0").unwrap();
    let fg = netlist.require("fg0_0").unwrap();
    // Collect the directed fb → fg links, expanding each stored implication
    // with its contrapositive (the adjacency the search uses does the same).
    let links: Vec<(bool, bool)> = learn
        .implications
        .iter()
        .flat_map(|(imp, _)| [imp, imp.contrapositive()])
        .filter(|imp| imp.antecedent.node == fb && imp.consequent.node == fg)
        .map(|imp| (imp.antecedent.value, imp.consequent.value))
        .collect();
    assert!(
        links.contains(&(true, true)),
        "fb=1 -> fg=1 must be learned, got {links:?}"
    );
    assert!(
        links.contains(&(false, false)),
        "fb=0 -> fg=0 must be learned, got {links:?}"
    );
}
