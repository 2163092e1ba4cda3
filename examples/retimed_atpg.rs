//! The paper's headline application: sequential ATPG on retimed-style
//! circuits (low density of encoding) with and without sequential learning.
//!
//! Two workloads are run:
//!
//! * the [`retimed_circuit`] generator — low density of encoding, but every
//!   invariant is re-derivable by window simulation, so learning changes
//!   little (kept as the contrast case),
//! * the [`table5_circuit`] generator — retimed-redundant recomputation whose
//!   invariants three-valued simulation loses; here learned implications
//!   prune the search (fewer backtracks, aborted faults proven untestable),
//!   the Table 5 phenomenon.
//!
//! Run with `cargo run --release --example retimed_atpg`.

use seqlearn::atpg::{AtpgEngine, AtpgOptions, LearnedData, LearningMode};
use seqlearn::circuits::{retimed_circuit, table5_circuit, RetimedConfig, Table5Config};
use seqlearn::learn::{LearnOptions, SequentialLearner};
use seqlearn::netlist::Netlist;
use seqlearn::sim::collapsed_fault_list;

#[path = "util/stable.rs"]
mod stable;
use stable::cpu;

fn run_workload(
    netlist: &Netlist,
    max_faults: usize,
    backtrack_limit: usize,
) -> Result<(), Box<dyn std::error::Error>> {
    println!(
        "{}: {} gates, {} flip-flops",
        netlist.name(),
        netlist.num_gates(),
        netlist.num_sequential()
    );

    // Preprocessing: sequential learning.
    let learn = SequentialLearner::new(netlist, LearnOptions::default()).learn()?;
    println!(
        "Learning: {} FF-FF relations, {} gate-FF relations, {} tied gates in {}",
        learn.stats.total.ff_ff,
        learn.stats.total.gate_ff,
        learn.tied.len(),
        cpu(learn.stats.cpu)
    );
    let learned = LearnedData::from(&learn);

    let mut faults = collapsed_fault_list(netlist);
    faults.truncate(max_faults);
    println!(
        "Targeting {} collapsed faults, backtrack limit {backtrack_limit}\n",
        faults.len()
    );

    for (label, mode) in [
        ("no learning", LearningMode::None),
        ("forbidden-value implications", LearningMode::ForbiddenValue),
        ("known-value implications", LearningMode::KnownValue),
    ] {
        let engine = AtpgEngine::new(
            netlist,
            AtpgOptions::builder()
                .backtrack_limit(backtrack_limit)
                .learning(mode)
                .build(),
        )?
        .with_learned(learned.clone());
        let run = engine.run_with_threads(&faults, seqlearn::par::thread_count());
        println!(
            "{label:<30} detected {:>3}  untestable {:>3}  aborted {:>3}  backtracks {:>6}  cpu {}",
            run.stats.detected,
            run.stats.untestable,
            run.stats.aborted,
            run.stats.backtracks,
            cpu(run.stats.cpu)
        );
    }
    println!();
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    run_workload(
        &retimed_circuit(&RetimedConfig {
            master_bits: 4,
            derived_bits: 10,
            extra_gates: 40,
            inputs: 4,
            ..RetimedConfig::default()
        }),
        120,
        30,
    )?;
    run_workload(&table5_circuit(&Table5Config::default()), usize::MAX, 100)
}
