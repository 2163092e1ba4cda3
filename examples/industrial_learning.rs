//! Learning on an "industrial-style" circuit: multiple clock domains, partial
//! set/reset and a multi-port latch — the real-circuit features of §3.3 of the
//! paper.
//!
//! Run with `cargo run --release --example industrial_learning`.

use seqlearn::circuits::{industrial_circuit, IndustrialConfig};
use seqlearn::learn::classes::clock_classes;
use seqlearn::learn::{LearnOptions, SequentialLearner};

#[path = "util/stable.rs"]
mod stable;
use stable::cpu;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let netlist = industrial_circuit(&IndustrialConfig::default());
    let stats = netlist.stats();
    println!(
        "Industrial-style circuit `{}`: {} gates, {} flip-flops, {} latches, {} clocks",
        netlist.name(),
        stats.gates,
        stats.flip_flops,
        stats.latches,
        netlist.clocks().len()
    );

    println!("\nClock classes (learning is performed per class):");
    for class in clock_classes(&netlist) {
        println!("  {}", class.describe(&netlist));
    }

    let result = SequentialLearner::new(&netlist, LearnOptions::default()).learn()?;
    println!(
        "\nLearned {} relations ({} FF-FF, {} gate-FF) and {} tied gates across {} classes in {}",
        result.stats.total.total(),
        result.stats.total.ff_ff,
        result.stats.total.gate_ff,
        result.tied.len(),
        result.stats.classes,
        cpu(result.stats.cpu)
    );

    // Every learned FF-FF relation stays within one clock domain.
    let cross_domain = result
        .invalid_state_relations(&netlist)
        .iter()
        .filter(|imp| {
            let a = netlist.seq_info(imp.antecedent.node).map(|i| i.clock);
            let c = netlist.seq_info(imp.consequent.node).map(|i| i.clock);
            a != c
        })
        .count();
    println!("Cross-clock-domain relations (must be 0): {cross_domain}");
    Ok(())
}
