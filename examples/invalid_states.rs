//! Invalid states and the density of encoding: compare what sequential
//! learning extracts against the exhaustive steady-state oracle on a small
//! retimed-style circuit.
//!
//! Run with `cargo run --release --example invalid_states`.

#[path = "util/stable.rs"]
mod stable;

use seqlearn::circuits::{retimed_circuit, RetimedConfig};
use seqlearn::learn::{LearnOptions, SequentialLearner};
use seqlearn::sim::StateOracle;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let netlist = retimed_circuit(&RetimedConfig {
        master_bits: 3,
        derived_bits: 9,
        extra_gates: 20,
        inputs: 3,
        ..RetimedConfig::default()
    });
    println!(
        "Circuit: {} gates, {} flip-flops",
        netlist.num_gates(),
        netlist.num_sequential()
    );

    let oracle = StateOracle::build(&netlist, StateOracle::DEFAULT_BIT_LIMIT)?;
    let density_bp = oracle.density_of_encoding_bp();
    println!(
        "Exhaustive oracle: {} of {} states are reachable in steady state (density of encoding {}.{:02}%)",
        oracle.num_steady(),
        1u64 << netlist.num_sequential(),
        density_bp / 100,
        density_bp % 100
    );

    let result = SequentialLearner::new(&netlist, LearnOptions::default()).learn()?;
    let relations = result.invalid_state_relations(&netlist);
    println!(
        "Sequential learning found {} invalid-state relations in {}",
        relations.len(),
        stable::cpu(result.stats.cpu)
    );

    let mut sound = 0usize;
    for imp in &relations {
        if oracle.implication_holds(
            imp.antecedent.node,
            imp.antecedent.value,
            imp.consequent.node,
            imp.consequent.value,
        ) {
            sound += 1;
        } else {
            println!("  UNSOUND: {}", imp.describe(&netlist));
        }
    }
    println!(
        "{sound}/{} relations verified sound against the oracle",
        relations.len()
    );

    // Each relation F_a=va -> F_b=vb rules out a quarter of the state space
    // (all states with F_a=va and F_b=!vb); show the first few.
    println!("\nSample relations (each encodes a compact set of invalid states):");
    for imp in relations.iter().take(10) {
        println!("  {}", imp.describe(&netlist));
    }
    Ok(())
}
