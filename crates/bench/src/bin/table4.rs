//! Table 4 — untestable faults identified from tie gates (a by-product of
//! sequential learning) compared against the FIRE stem-conflict baseline.
//!
//! Flags: `--scale <f>` (default 0.04), `--max-gates <n>`, `--full`.

use sla_bench::{print_header, print_row, seconds, HarnessOptions};
use sla_circuits::{build_profile, profile_by_name, TABLE4_PROFILES};
use sla_core::{LearnOptions, SequentialLearner};
use sla_netlist::Netlist;
use sla_sim::{full_fault_list, FaultSite};

/// Untestable faults implied by the learned tied gates, counted over the full
/// fault list (a line tied to `v` makes every `stuck-at-v` fault on it and on
/// its branches undetectable).
fn tie_untestable_count(netlist: &Netlist, tied: &[(sla_netlist::NodeId, bool)]) -> usize {
    full_fault_list(netlist)
        .iter()
        .filter(|fault| {
            let line = match fault.site {
                FaultSite::Output(node) => node,
                FaultSite::Input { gate, pin } => netlist.fanins(gate)[pin],
            };
            tied.iter()
                .any(|&(node, value)| node == line && value == fault.stuck_at)
        })
        .count()
}

fn main() {
    let opts = HarnessOptions::from_args(std::env::args().skip(1));
    println!(
        "Table 4: untestable faults from tie gates vs. the FIRE baseline (scale {})\n",
        opts.scale
    );
    let widths = [12, 7, 8, 11, 11, 9, 9];
    print_header(
        &widths,
        &[
            "Circuit", "FFs", "Gates", "TieGates", "FIRE", "Learn(s)", "FIRE(s)",
        ],
    );

    for name in TABLE4_PROFILES {
        let profile = profile_by_name(name).expect("profile exists");
        let netlist = build_profile(profile, opts.scale);
        if netlist.num_gates() > opts.max_gates && !opts.full {
            print_row(
                &widths,
                &[
                    name.to_string(),
                    netlist.num_sequential().to_string(),
                    netlist.num_gates().to_string(),
                    "skipped".into(),
                    "skipped".into(),
                    "-".into(),
                    "-".into(),
                ],
            );
            continue;
        }
        let learn = SequentialLearner::new(&netlist, LearnOptions::default())
            .learn()
            .expect("learning succeeds");
        let tie_count = tie_untestable_count(&netlist, &learn.tied_constants());
        let fire = sla_redundancy::identify_untestable(&netlist).expect("FIRE succeeds");
        print_row(
            &widths,
            &[
                name.to_string(),
                netlist.num_sequential().to_string(),
                netlist.num_gates().to_string(),
                tie_count.to_string(),
                fire.count().to_string(),
                seconds(learn.stats.cpu),
                seconds(fire.cpu),
            ],
        );
    }
    println!(
        "\nAs in the paper, neither method dominates: tie gates are a free by-product of learning,"
    );
    println!("while FIRE targets the broader class of stem-conflict untestable faults.");
}
