//! Cross-frame learned pruning end to end: the cross-cell flavour of the
//! Table-5 workload, where the invariant that kills the doomed select-tree
//! walks relates two *different* time frames — same-frame learning compiles
//! but cannot prune (no anchor is ever binary when the walk starts), while
//! cross-frame forbidden-value pruning refuses the walk at the backtrace.
//!
//! Three configurations are compared on the same fault list: no learning,
//! the same-frame database alone (the PR-4 capability), and the same
//! database plus the compiled cross-frame relations.
//!
//! This summary is byte-diffed across `SLA_THREADS` values by the CI
//! determinism matrix (`SLA_STABLE_OUTPUT=1` suppresses the wall-clock
//! fields): backtracks, verdicts and relation counts must not depend on the
//! thread count.
//!
//! Run with `cargo run --release --example table5_atpg`.

use seqlearn::atpg::{AtpgEngine, AtpgOptions, LearnedData, LearningMode};
use seqlearn::circuits::{table5_circuit, Table5Config};
use seqlearn::learn::{LearnOptions, SequentialLearner};
use seqlearn::sim::collapsed_fault_list;

#[path = "util/stable.rs"]
mod stable;
use stable::cpu;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let netlist = table5_circuit(&Table5Config::with_cross_cells(4));
    println!(
        "{}: {} gates, {} flip-flops",
        netlist.name(),
        netlist.num_gates(),
        netlist.num_sequential()
    );

    let learn = SequentialLearner::new(&netlist, LearnOptions::builder().cross_frame(true).build())
        .learn()?;
    let with_cross = LearnedData::from(&learn);
    let same_frame_only =
        LearnedData::from_parts(learn.implications.clone(), learn.tied_constants());
    println!(
        "Learning: {} same-frame relations, {} cross-frame relations ({} raw), {} tied gates in {}",
        learn.implications.len(),
        with_cross.cross_frame().len(),
        learn.stats.cross_frame,
        learn.tied.len(),
        cpu(learn.stats.cpu)
    );

    let faults = collapsed_fault_list(&netlist);
    println!(
        "Targeting {} collapsed faults, backtrack limit 100\n",
        faults.len()
    );

    for (label, learned, mode) in [
        ("no learning", &same_frame_only, LearningMode::None),
        (
            "same-frame forbidden values",
            &same_frame_only,
            LearningMode::ForbiddenValue,
        ),
        (
            "+ cross-frame forbidden values",
            &with_cross,
            LearningMode::ForbiddenValue,
        ),
    ] {
        let engine = AtpgEngine::new(
            &netlist,
            AtpgOptions::builder()
                .backtrack_limit(100)
                .learning(mode)
                .build(),
        )?
        .with_learned(learned.clone());
        let run = engine.run(&faults);
        println!(
            "{label:<32} detected {:>3}  untestable {:>3}  aborted {:>3}  backtracks {:>6}  cpu {}",
            run.stats.detected,
            run.stats.untestable,
            run.stats.aborted,
            run.stats.backtracks,
            cpu(run.stats.cpu)
        );
    }
    Ok(())
}
