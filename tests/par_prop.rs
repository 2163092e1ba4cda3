//! Property tests for the deterministic thread-sharding contract: on random
//! netlists and random thread counts, an `N`-thread run must be bit-identical
//! to the single-thread reference — the merged implication database (same
//! canonical relations in the same insertion order), the tie list, cross-frame
//! relations, learning statistics, and per-fault ATPG verdicts, backtrack /
//! decision counts and generated sequences.
//!
//! Thread counts are passed explicitly (`learn_with_threads` /
//! `run_with_threads`) rather than through `SLA_THREADS`: the environment is
//! process-global and cannot be varied per proptest case. The CI determinism
//! matrix covers the environment-variable path end to end.

use proptest::prelude::*;
use seqlearn::atpg::{
    AbortReason, AtpgEngine, AtpgOptions, FaultStatus, LearnedData, LearningMode, WorkBudget,
};
use seqlearn::circuits::{synthesize, SynthConfig};
use seqlearn::learn::{LearnOptions, SequentialLearner};
use seqlearn::netlist::Netlist;
use seqlearn::sim::collapsed_fault_list;

fn small_synth(seed: u64, flip_flops: usize, gates: usize) -> Netlist {
    synthesize(&SynthConfig {
        name: format!("par{seed}"),
        inputs: 4,
        outputs: 3,
        flip_flops,
        gates,
        max_fanin: 3,
        seed,
    })
}

/// The thread counts the property runs: the serial reference, small counts
/// (odd on purpose — uneven shards) and an oversubscribed one.
const THREAD_COUNTS: [usize; 4] = [1, 2, 3, 8];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// `SequentialLearner::learn_with_threads(N)` ≡ single-thread learning:
    /// database, ties, cross-frame relations and every reported statistic.
    #[test]
    fn sharded_learning_is_bit_identical_to_single_thread(
        seed in 0u64..300,
        flip_flops in 2usize..8,
        gates in 10usize..60,
        cross_pick in 0usize..2,
    ) {
        let netlist = small_synth(seed, flip_flops, gates);
        let config = LearnOptions::builder().cross_frame(cross_pick == 1).build();
        let learner = SequentialLearner::new(&netlist, config);
        let reference = learner.learn_with_threads(1).unwrap();
        for threads in THREAD_COUNTS {
            let run = learner.learn_with_threads(threads).unwrap();
            // The database's canonical list is insertion-ordered: equality
            // here is the bit-identical-merge claim, not just set equality.
            prop_assert_eq!(
                reference.implications.iter().collect::<Vec<_>>(),
                run.implications.iter().collect::<Vec<_>>(),
                "implication database diverged at {} threads (seed {})", threads, seed
            );
            prop_assert_eq!(&reference.tied, &run.tied,
                "tie list diverged at {} threads (seed {})", threads, seed);
            prop_assert_eq!(&reference.cross_frame, &run.cross_frame,
                "cross-frame relations diverged at {} threads (seed {})", threads, seed);
            prop_assert_eq!(reference.stats.total, run.stats.total);
            prop_assert_eq!(reference.stats.sequential, run.stats.sequential);
            prop_assert_eq!(reference.stats.stems, run.stats.stems);
            prop_assert_eq!(reference.stats.classes, run.stats.classes);
            prop_assert_eq!(reference.stats.multi_node_targets, run.stats.multi_node_targets,
                "multi-node target count diverged at {} threads (seed {})", threads, seed);
            prop_assert_eq!(reference.stats.tied_combinational, run.stats.tied_combinational);
            prop_assert_eq!(reference.stats.tied_sequential, run.stats.tied_sequential);
        }
    }

    /// `AtpgEngine::run_with_threads(N)` ≡ the serial run: per-fault statuses,
    /// backtrack and decision totals, and the generated sequences — with the
    /// learned data attached and fault dropping active (the coupling the
    /// in-order merge must replay exactly).
    #[test]
    fn sharded_atpg_is_bit_identical_to_single_thread(
        seed in 0u64..200,
        flip_flops in 2usize..7,
        gates in 10usize..40,
        mode_pick in 0usize..3,
        drop_pick in 0usize..2,
    ) {
        let netlist = small_synth(seed, flip_flops, gates);
        // Cross-frame learning on: the sharded searches must stay
        // bit-identical with cross-frame forbidden-value pruning active in
        // every worker (the hints depend only on the learned data and the
        // per-fault search state, never on the speculation schedule).
        let learned = LearnedData::from(
            &SequentialLearner::new(
                &netlist,
                LearnOptions::builder().cross_frame(true).build(),
            )
            .learn_with_threads(1)
            .unwrap(),
        );
        let mode = [LearningMode::None, LearningMode::ForbiddenValue, LearningMode::KnownValue]
            [mode_pick];
        let config = AtpgOptions::builder()
            .backtrack_limit(20)
            .learning(mode)
            .fault_dropping(drop_pick == 1)
            .build();
        let engine = AtpgEngine::new(&netlist, config)
            .unwrap()
            .with_learned(learned);
        let mut faults = collapsed_fault_list(&netlist);
        faults.truncate(40);
        let reference = engine.run_with_threads(&faults, 1);
        for threads in THREAD_COUNTS {
            let run = engine.run_with_threads(&faults, threads);
            prop_assert_eq!(&reference.status, &run.status,
                "per-fault statuses diverged at {} threads (seed {})", threads, seed);
            prop_assert_eq!(&reference.sequences, &run.sequences,
                "sequences diverged at {} threads (seed {})", threads, seed);
            prop_assert_eq!(reference.stats.backtracks, run.stats.backtracks,
                "backtracks diverged at {} threads (seed {})", threads, seed);
            prop_assert_eq!(reference.stats.decisions, run.stats.decisions,
                "decisions diverged at {} threads (seed {})", threads, seed);
            prop_assert_eq!(reference.stats.detected, run.stats.detected);
            prop_assert_eq!(reference.stats.untestable, run.stats.untestable);
            prop_assert_eq!(reference.stats.aborted, run.stats.aborted);
            prop_assert_eq!(reference.stats.untestable_from_ties, run.stats.untestable_from_ties);
            prop_assert_eq!(reference.stats.test_vectors, run.stats.test_vectors);
        }
    }

    /// Deterministic work budgets: a budget-limited run stops at the same
    /// point — same classified prefix, same `Aborted(Budget)` tail, same
    /// spent units — for every thread count, and every verdict it does hand
    /// out agrees with the unlimited run.
    #[test]
    fn budget_limited_runs_are_bit_identical_across_threads(
        seed in 0u64..200,
        flip_flops in 2usize..7,
        gates in 10usize..40,
        budget_eighths in 1u64..8,
    ) {
        let netlist = small_synth(seed, flip_flops, gates);
        let base = AtpgOptions::builder().backtrack_limit(20).build();
        let mut faults = collapsed_fault_list(&netlist);
        faults.truncate(40);
        let unlimited = AtpgEngine::new(&netlist, base).unwrap().run_with_threads(&faults, 1);
        // Scale the budget to the workload so the cut lands mid-run instead
        // of degenerating to "everything" or "nothing".
        let units = (unlimited.stats.budget_spent * budget_eighths / 8).max(1);
        let engine = AtpgEngine::new(
            &netlist,
            base.to_builder().budget(WorkBudget::units(units)).build(),
        )
        .unwrap();
        let reference = engine.run_with_threads(&faults, 1);
        // The budget is a stopping criterion checked before each fault, so
        // the last searched fault may overshoot the limit — but an aborted
        // tail must mean the limit was actually reached.
        let exhausted = reference
            .status
            .contains(&FaultStatus::Aborted(AbortReason::Budget));
        if exhausted {
            prop_assert!(reference.stats.budget_spent >= units,
                "aborted tail with only {} of {} units spent (seed {})",
                reference.stats.budget_spent, units, seed);
        }
        for (i, s) in reference.status.iter().enumerate() {
            if *s != FaultStatus::Aborted(AbortReason::Budget) {
                prop_assert_eq!(*s, unlimited.status[i],
                    "classified verdict {} diverged from the unlimited run (seed {})", i, seed);
            }
        }
        for threads in THREAD_COUNTS {
            let run = engine.run_with_threads(&faults, threads);
            prop_assert_eq!(&reference.status, &run.status,
                "budget-limited statuses diverged at {} threads (seed {})", threads, seed);
            prop_assert_eq!(&reference.sequences, &run.sequences,
                "budget-limited sequences diverged at {} threads (seed {})", threads, seed);
            prop_assert_eq!(reference.stats.budget_spent, run.stats.budget_spent,
                "spent budget diverged at {} threads (seed {})", threads, seed);
            prop_assert_eq!(reference.stats.backtracks, run.stats.backtracks);
            prop_assert_eq!(reference.stats.decisions, run.stats.decisions);
        }
    }
}

/// The full-pipeline smoke: learning feeds ATPG, both sharded, against both
/// serial — on the structured generators the benchmarks use (not just the
/// random synthesizer). The third workload is the cross-frame flavour of the
/// Table-5 circuit with cross-frame learning enabled, so the pipeline is
/// checked end to end exactly where cross-frame pruning fires. The fourth is
/// the shape of the end-to-end benchmark's ATPG requests: a whole collapsed
/// fault list at backtrack limit 100, where fault cones overlap and fault
/// dropping discards some speculative searches. ATPG runs at 2 threads (the
/// benchmark's count) and 4.
#[test]
fn sharded_pipeline_matches_serial_on_structured_workloads() {
    use seqlearn::circuits::{retimed_circuit, table5_circuit, RetimedConfig, Table5Config};
    let retimed = retimed_circuit(&RetimedConfig {
        master_bits: 3,
        derived_bits: 6,
        extra_gates: 16,
        inputs: 4,
        ..RetimedConfig::default()
    });
    let table5 = table5_circuit(&Table5Config::default());
    let table5x = table5_circuit(&Table5Config::with_cross_cells(2));
    let table5x3 = table5_circuit(&Table5Config::with_cross_cells(3));
    // (netlist, cross-frame learning, backtrack limit, faults searched)
    for (netlist, cross, limit, max_faults) in [
        (&retimed, false, 30, 80),
        (&table5, false, 30, 80),
        (&table5x, true, 30, 80),
        (&table5x3, true, 100, usize::MAX),
    ] {
        let learner =
            SequentialLearner::new(netlist, LearnOptions::builder().cross_frame(cross).build());
        let learn_ref = learner.learn_with_threads(1).unwrap();
        let learn_par = learner.learn_with_threads(4).unwrap();
        assert_eq!(
            learn_ref.implications.iter().collect::<Vec<_>>(),
            learn_par.implications.iter().collect::<Vec<_>>()
        );
        assert_eq!(learn_ref.tied, learn_par.tied);
        assert_eq!(learn_ref.cross_frame, learn_par.cross_frame);

        let engine = AtpgEngine::new(
            netlist,
            AtpgOptions::builder()
                .backtrack_limit(limit)
                .learning(LearningMode::ForbiddenValue)
                .build(),
        )
        .unwrap()
        .with_learned(LearnedData::from(&learn_ref));
        let mut faults = collapsed_fault_list(netlist);
        faults.truncate(max_faults);
        let run_ref = engine.run_with_threads(&faults, 1);
        assert_eq!(run_ref.stats.wasted_speculations, 0);
        let name = netlist.name();
        for threads in [2, 4] {
            let run_par = engine.run_with_threads(&faults, threads);
            assert_eq!(run_ref.status, run_par.status, "{name} t={threads}");
            assert_eq!(run_ref.sequences, run_par.sequences, "{name} t={threads}");
            assert_eq!(
                run_ref.stats.backtracks, run_par.stats.backtracks,
                "{name} t={threads}"
            );
            assert_eq!(
                run_ref.stats.decisions, run_par.stats.decisions,
                "{name} t={threads}"
            );
            assert_eq!(
                run_ref.stats.test_vectors, run_par.stats.test_vectors,
                "{name} t={threads}"
            );
            assert!(
                run_par.stats.wasted_speculations
                    <= run_ref.stats.detected - run_ref.stats.sequences,
                "{name} t={threads}: only dropped faults can be wasted"
            );
        }
    }
}

/// Learning on designs the size of the end-to-end benchmark's `learn_cold`
/// requests, one per generator class, is bit-identical at 1, 2 and 4 threads:
/// the implication database in insertion order, the ties, the cross-frame
/// relations and every count of `LearnStats`. Each design fills more than
/// four 32-stem chunks, where the random designs above fill at most two.
#[test]
fn learning_is_bit_identical_across_threads_on_benchmark_sized_designs() {
    use seqlearn::circuits::{
        industrial_circuit, retimed_circuit, IndustrialConfig, RetimedConfig,
    };
    use seqlearn::learn::single_node::STEMS_PER_BATCH;
    let designs = [
        synthesize(&SynthConfig::sized("lc-synth", 36, 360, 11)),
        retimed_circuit(&RetimedConfig::sized("lc-retimed", 50, 500, 12)),
        industrial_circuit(&IndustrialConfig::sized("lc-industrial", 27, 270, 13)),
    ];
    for netlist in &designs {
        let name = netlist.name();
        let stems = seqlearn::netlist::stems::fanout_stems(netlist).len();
        assert!(stems > 4 * STEMS_PER_BATCH, "{name}: only {stems} stems");
        let config = LearnOptions::builder().cross_frame(true).build();
        let learner = SequentialLearner::new(netlist, config);
        let reference = learner.learn_with_threads(1).unwrap();
        assert!(reference.stats.multi_node_targets > 0, "{name}");
        for threads in [2, 4] {
            let run = learner.learn_with_threads(threads).unwrap();
            assert_eq!(
                reference.implications.iter().collect::<Vec<_>>(),
                run.implications.iter().collect::<Vec<_>>(),
                "{name}: database diverged at {threads} threads"
            );
            assert_eq!(reference.tied, run.tied, "{name} t={threads}");
            assert_eq!(reference.cross_frame, run.cross_frame, "{name} t={threads}");
            let (a, b) = (&reference.stats, &run.stats);
            assert_eq!(
                (
                    a.stems,
                    a.classes,
                    a.multi_node_targets,
                    a.total,
                    a.sequential
                ),
                (
                    b.stems,
                    b.classes,
                    b.multi_node_targets,
                    b.total,
                    b.sequential
                ),
                "{name} t={threads}"
            );
            assert_eq!(
                (a.tied_combinational, a.tied_sequential, a.cross_frame),
                (b.tied_combinational, b.tied_sequential, b.cross_frame),
                "{name} t={threads}"
            );
            assert_eq!(
                (a.budget_spent, a.budget_exhausted),
                (b.budget_spent, b.budget_exhausted),
                "{name} t={threads}"
            );
        }
    }
}
