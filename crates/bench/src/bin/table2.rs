//! Table 2 — learned invalid-state relations of the Figure-1-style circuit,
//! split by learning mode: single-node only, plus multiple-node learning, plus
//! gate-equivalence assistance. Pass `--figure2` to run the Figure-2-style
//! circuit instead (the multiple-node-only relation).

use sla_circuits::{paper_style_figure1, paper_style_figure2};
use sla_core::{Implication, LearnOptions, SequentialLearner};
use sla_netlist::Netlist;
use std::collections::BTreeSet;

fn relations(netlist: &Netlist, config: LearnOptions) -> BTreeSet<String> {
    let result = SequentialLearner::new(netlist, config)
        .learn()
        .expect("learning succeeds on the figure circuits");
    result
        .invalid_state_relations(netlist)
        .iter()
        .map(|imp: &Implication| imp.describe(netlist))
        .collect()
}

fn main() {
    let use_figure2 = std::env::args().any(|a| a == "--figure2");
    let netlist = if use_figure2 {
        paper_style_figure2()
    } else {
        paper_style_figure1()
    };
    println!(
        "Table 2: learned invalid-state relations for the {} circuit\n",
        netlist.name()
    );

    let single = relations(&netlist, LearnOptions::single_node_only());
    let multi = relations(&netlist, LearnOptions::without_equivalence());
    let full = relations(&netlist, LearnOptions::default());

    println!("Single-node relations ({}):", single.len());
    for r in &single {
        println!("  {r}");
    }
    println!(
        "\nAdditional multiple-node relations ({}):",
        multi.difference(&single).count()
    );
    for r in multi.difference(&single) {
        println!("  {r}");
    }
    println!(
        "\nAdditional gate-equivalence relations ({}):",
        full.difference(&multi).count()
    );
    for r in full.difference(&multi) {
        println!("  {r}");
    }

    // Tied gates learned along the way (the paper's G3 / G15 walk-through).
    let result = SequentialLearner::new(&netlist, LearnOptions::default())
        .learn()
        .expect("learning succeeds");
    println!("\nTied gates ({}):", result.tied.len());
    for tie in &result.tied {
        println!("  {}", tie.describe(&netlist));
    }
}
