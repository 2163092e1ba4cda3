//! Table 5 — sequential ATPG with and without sequential learning, with
//! learned relations used either as forbidden-value or known-value
//! implications, at one or more backtrack limits.
//!
//! Flags: `--scale <f>` (default 0.04), `--limits 30,1000`, `--max-faults <n>`,
//! `--max-gates <n>`, `--full`.

use sla_atpg::{AtpgEngine, AtpgOptions, LearnedData, LearningMode};
use sla_bench::{print_header, print_row, seconds, HarnessOptions};
use sla_circuits::{build_profile, profile_by_name, TABLE5_PROFILES};
use sla_core::{LearnOptions, SequentialLearner};
use sla_netlist::Netlist;
use sla_sim::{collapsed_fault_list, Fault};

struct ModeResult {
    detected: usize,
    untestable: usize,
    cpu: String,
}

fn run_mode(
    netlist: &Netlist,
    faults: &[Fault],
    limit: usize,
    mode: LearningMode,
    learned: &LearnedData,
) -> ModeResult {
    let config = AtpgOptions::builder()
        .backtrack_limit(limit)
        .learning(mode)
        .build();
    let engine = AtpgEngine::new(netlist, config).expect("netlist levelizes");
    let engine = if mode.uses_learning() {
        engine.with_learned(learned.clone())
    } else {
        engine
    };
    let run = engine.run_with_threads(faults, sla_par::thread_count());
    ModeResult {
        detected: run.stats.detected,
        untestable: run.stats.untestable,
        cpu: seconds(run.stats.cpu),
    }
}

fn main() {
    let opts = HarnessOptions::from_args(std::env::args().skip(1));
    println!(
        "Table 5: ATPG with and without sequential learning (scale {}, max {} faults/circuit)\n",
        opts.scale, opts.max_faults
    );
    let widths = [12, 6, 7, 6, 7, 7, 8, 7, 7, 8, 7, 7, 8];
    print_header(
        &widths,
        &[
            "Circuit", "Flts", "Limit", "Det", "Untst", "CPU", "|", "Det", "Untst", "CPU", "Det",
            "Untst", "CPU",
        ],
    );
    println!(
        "{:>12}  {:>6}  {:>7}  {:^22}  {:^24}  {:>24}",
        "", "", "", "(no learning)", "(forbidden values)", "(known values)"
    );

    for name in TABLE5_PROFILES {
        let profile = profile_by_name(name).expect("profile exists");
        let netlist = build_profile(profile, opts.scale);
        if netlist.num_gates() > opts.max_gates && !opts.full {
            println!("{name:>12}  skipped ({} gates)", netlist.num_gates());
            continue;
        }
        let mut faults = collapsed_fault_list(&netlist);
        faults.truncate(opts.max_faults);

        let learned = LearnedData::from(
            &SequentialLearner::new(&netlist, LearnOptions::default())
                .learn()
                .expect("learning succeeds"),
        );

        for &limit in &opts.backtrack_limits {
            let none = run_mode(&netlist, &faults, limit, LearningMode::None, &learned);
            let forbidden = run_mode(
                &netlist,
                &faults,
                limit,
                LearningMode::ForbiddenValue,
                &learned,
            );
            let known = run_mode(&netlist, &faults, limit, LearningMode::KnownValue, &learned);
            print_row(
                &widths,
                &[
                    name.to_string(),
                    faults.len().to_string(),
                    limit.to_string(),
                    none.detected.to_string(),
                    none.untestable.to_string(),
                    none.cpu,
                    "|".to_string(),
                    forbidden.detected.to_string(),
                    forbidden.untestable.to_string(),
                    forbidden.cpu,
                    known.detected.to_string(),
                    known.untestable.to_string(),
                    known.cpu,
                ],
            );
        }
    }
    println!("\nAll three columns share the same fault list and fault-simulation-based dropping;");
    println!("the difference between them is only the use of sequentially learned relations.");
}
