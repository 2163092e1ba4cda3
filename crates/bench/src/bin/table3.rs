//! Table 3 — sequential learning experiments: for every circuit of the suite,
//! the number of FF-FF and gate-FF relations learned by sequential analysis
//! and the learning CPU time.
//!
//! Flags: `--scale <f>` (default 0.04), `--max-gates <n>`, `--full`.

use sla_bench::{print_header, print_row, seconds, HarnessOptions};
use sla_circuits::{build_profile, TABLE3_PROFILES};
use sla_core::{LearnOptions, SequentialLearner};

fn main() {
    let opts = HarnessOptions::from_args(std::env::args().skip(1));
    println!(
        "Table 3: sequential learning experiments (scale {}, generated substitutes)\n",
        opts.scale
    );
    let widths = [12, 7, 8, 8, 9, 9, 8];
    print_header(
        &widths,
        &[
            "Circuit", "FFs", "Gates", "Stems", "FF-FF", "Gate-FF", "CPU(s)",
        ],
    );

    for profile in TABLE3_PROFILES {
        let netlist = build_profile(profile, opts.scale);
        if netlist.num_gates() > opts.max_gates && !opts.full {
            print_row(
                &widths,
                &[
                    profile.name.to_string(),
                    netlist.num_sequential().to_string(),
                    netlist.num_gates().to_string(),
                    "-".into(),
                    "skipped".into(),
                    "skipped".into(),
                    "-".into(),
                ],
            );
            continue;
        }
        let config = LearnOptions::builder()
            .max_multi_node_targets(if opts.full { 0 } else { 400 })
            .build();
        let result = SequentialLearner::new(&netlist, config)
            .learn()
            .expect("learning succeeds on generated circuits");
        print_row(
            &widths,
            &[
                profile.name.to_string(),
                netlist.num_sequential().to_string(),
                netlist.num_gates().to_string(),
                result.stats.stems.to_string(),
                result.stats.sequential.ff_ff.to_string(),
                result.stats.sequential.gate_ff.to_string(),
                seconds(result.stats.cpu),
            ],
        );
    }
    println!(
        "\nFF-FF / Gate-FF count only relations requiring sequential analysis, as in the paper."
    );
}
