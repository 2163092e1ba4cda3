//! Table 1 — per-stem forward simulation results of the Figure-1-style
//! circuit: for every fanout stem and both injected values, the nodes implied
//! in each time frame.

use sla_circuits::paper_style_figure1;
use sla_netlist::stems::fanout_stems;
use sla_sim::{Injection, InjectionSim, SimOptions};

fn main() {
    let netlist = paper_style_figure1();
    let sim = InjectionSim::new(&netlist).expect("figure 1 levelizes");
    let options = SimOptions::default();
    let stems = fanout_stems(&netlist);

    println!("Table 1: simulation results for stems of the Figure-1-style circuit");
    println!("(implied assignments per time frame; X entries omitted)\n");

    for &stem in &stems {
        for value in [false, true] {
            let trace = sim.run(&[Injection::new(stem, value, 0)], &options);
            let label = format!("{}={}", netlist.node_name(stem), if value { 1 } else { 0 });
            let mut cells = Vec::new();
            for frame in 0..trace.num_frames() {
                let mut assigns: Vec<String> = trace
                    .assignments(frame)
                    .filter(|(node, _)| *node != stem || frame > 0)
                    .map(|(node, v)| {
                        format!("{}={}", netlist.node_name(node), if v { 1 } else { 0 })
                    })
                    .collect();
                assigns.sort();
                cells.push(if assigns.is_empty() {
                    "{}".to_string()
                } else {
                    assigns.join(", ")
                });
            }
            println!("{label:>8}  | {}", cells.join("  |  "));
        }
    }
    println!("\n(simulation stops at 50 frames or when the state repeats, as in the paper)");
}
