//! Quickstart: learn implications, invalid states and tied gates on the
//! paper's Figure-1-style running example and print everything found.
//!
//! Run with `cargo run --example quickstart`.

#[path = "util/stable.rs"]
mod stable;

use seqlearn::circuits::paper_style_figure1;
use seqlearn::learn::{LearnOptions, SequentialLearner};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let netlist = paper_style_figure1();
    println!(
        "Circuit `{}`: {} inputs, {} gates, {} flip-flops",
        netlist.name(),
        netlist.inputs().len(),
        netlist.num_gates(),
        netlist.num_sequential()
    );

    let result = SequentialLearner::new(&netlist, LearnOptions::default()).learn()?;

    println!("\nLearned in {}:", stable::cpu(result.stats.cpu));
    println!(
        "  {} relations total ({} FF-FF, {} gate-FF), {} needed sequential analysis",
        result.stats.total.total(),
        result.stats.total.ff_ff,
        result.stats.total.gate_ff,
        result.stats.sequential.total()
    );

    println!("\nInvalid-state relations (same-frame FF-FF implications):");
    for imp in result.invalid_state_relations(&netlist) {
        println!("  {}", imp.describe(&netlist));
    }

    println!("\nTied gates:");
    for tie in &result.tied {
        println!("  {}", tie.describe(&netlist));
    }

    println!("\nUntestable stuck-at faults implied by the ties:");
    for fault in result.untestable_faults() {
        println!("  {}", fault.describe(&netlist));
    }
    Ok(())
}
