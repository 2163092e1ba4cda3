//! Workspace smoke test: the facade re-exports in `src/lib.rs` expose a
//! working netlist → sim → learn pipeline end-to-end. Kept deliberately small
//! so a bring-up regression in any single crate fails fast here before the
//! heavier integration and property suites run.

use seqlearn::circuits::paper_style_figure1;
use seqlearn::learn::{LearnOptions, SequentialLearner};
use seqlearn::sim::{InjectionSim, StateOracle};

/// `paper_style_figure1()` must learn at least one invalid-state relation and
/// at least one implication through the public facade, and both must be sound
/// against the exhaustive state oracle.
#[test]
fn facade_learns_figure1_end_to_end() {
    let netlist = paper_style_figure1();
    assert!(netlist.num_gates() > 0, "figure 1 has logic gates");
    assert!(
        netlist.sequential_elements().count() > 0,
        "figure 1 is sequential"
    );

    // The sim layer is reachable through the facade and accepts the netlist.
    InjectionSim::new(&netlist).expect("figure 1 levelizes");

    let result = SequentialLearner::new(&netlist, LearnOptions::default())
        .learn()
        .expect("learning succeeds on the paper's running example");

    let implications: Vec<_> = result.implications.relations().collect();
    assert!(
        !implications.is_empty(),
        "figure 1 must yield at least one learned implication"
    );
    let invalid = result.invalid_state_relations(&netlist);
    assert!(
        !invalid.is_empty(),
        "figure 1 must yield at least one invalid-state relation"
    );

    let oracle = StateOracle::build(&netlist, StateOracle::DEFAULT_BIT_LIMIT)
        .expect("figure 1 is small enough for the exhaustive oracle");
    for imp in &implications {
        assert!(
            oracle.implication_holds(
                imp.antecedent.node,
                imp.antecedent.value,
                imp.consequent.node,
                imp.consequent.value
            ),
            "unsound facade-learned implication: {}",
            imp.describe(&netlist)
        );
    }
}

/// Every facade module is present and wired to the right crate: one cheap
/// symbol per re-export, so a broken `pub use` in `src/lib.rs` cannot slip by.
#[test]
fn facade_reexports_resolve() {
    let netlist = seqlearn::circuits::s27();
    let _ = seqlearn::netlist::GateType::And;
    let faults = seqlearn::sim::collapsed_fault_list(&netlist);
    assert!(!faults.is_empty());
    let _ = seqlearn::learn::LearnOptions::default();
    let _ = seqlearn::atpg::AtpgOptions::builder()
        .backtrack_limit(1)
        .build();
    let fire = seqlearn::redundancy::identify_untestable(&netlist).expect("FIRE runs on s27");
    assert!(fire.untestable.len() <= faults.len());
}
