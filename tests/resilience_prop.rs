//! Resilient-run-layer properties: checkpoint/resume bit-identity at every
//! snapshot boundary, graceful degradation on corrupted snapshots, and panic
//! quarantine — on the structured workloads of the paper reproduction
//! (Table-5 circuit, plain and cross-frame flavours) under serial and
//! sharded execution.

use seqlearn::atpg::{
    AbortReason, AtpgEngine, AtpgOptions, AtpgRun, FaultStatus, LearnedData, LearningMode,
};
use seqlearn::circuits::{table5_circuit, Table5Config};
use seqlearn::learn::{LearnOptions, SequentialLearner};
use seqlearn::netlist::Netlist;
use seqlearn::sim::collapsed_fault_list;
use sla_snapshot::{inject, resume_or_fresh, AtpgSnapshot, SnapshotError};
use std::time::Duration;

/// Thread counts the resume contract must hold across.
const THREADS: [usize; 2] = [1, 4];

/// Zeroes the two documented thread-variant stats (`cpu`,
/// `wasted_speculations`) so runs can be compared bit-for-bit.
fn canonical(mut run: AtpgRun) -> AtpgRun {
    run.stats.cpu = Duration::ZERO;
    run.stats.wasted_speculations = 0;
    run
}

fn learned_for(netlist: &Netlist, cross: bool) -> LearnedData {
    LearnedData::from(
        &SequentialLearner::new(netlist, LearnOptions::builder().cross_frame(cross).build())
            .learn_with_threads(1)
            .expect("learning the workload"),
    )
}

fn workloads() -> Vec<(Netlist, bool)> {
    vec![
        (table5_circuit(&Table5Config::default()), false),
        (table5_circuit(&Table5Config::with_cross_cells(2)), true),
    ]
}

fn config() -> AtpgOptions {
    AtpgOptions::builder()
        .backtrack_limit(30)
        .learning(LearningMode::ForbiddenValue)
        .build()
}

/// The tentpole claim: interrupting at **every** snapshot boundary — advance
/// one boundary, serialize, decode, rebuild the engine and progress from the
/// decoded bytes, continue — produces a final run byte-identical to the
/// uninterrupted one, for both workloads and both thread counts. Chaining
/// the round trips means a single corrupted field at any boundary would
/// propagate to the final comparison.
#[test]
fn resume_at_every_boundary_is_bit_identical() {
    for (netlist, cross) in workloads() {
        let learned = learned_for(&netlist, cross);
        let mut faults = collapsed_fault_list(&netlist);
        faults.truncate(80);
        for threads in THREADS {
            let reference = canonical(
                AtpgEngine::new(&netlist, config())
                    .expect("engine")
                    .with_learned(learned.clone())
                    .run_with_threads(&faults, threads),
            );

            let mut engine = AtpgEngine::new(&netlist, config())
                .expect("engine")
                .with_learned(learned.clone());
            let mut progress = engine.start(&faults);
            let mut boundaries = 0usize;
            while !progress.is_complete() {
                let stop = progress.next_fault() + 1;
                engine.advance(&faults, threads, &mut progress, Some(stop));
                let bytes = AtpgSnapshot::capture(&netlist, &engine, &faults, &progress).encode();
                let decoded = AtpgSnapshot::decode(&bytes)
                    .unwrap_or_else(|e| panic!("decode at boundary {stop} failed: {e}"));
                let (rebuilt_engine, rebuilt_progress) = decoded
                    .resume(&netlist, &faults)
                    .unwrap_or_else(|e| panic!("resume at boundary {stop} failed: {e}"));
                engine = rebuilt_engine;
                progress = rebuilt_progress;
                boundaries += 1;
            }
            let resumed = canonical(engine.finish(progress));
            assert!(boundaries > 1, "the chain must cross interior boundaries");
            assert_eq!(
                reference, resumed,
                "chained resume diverged (cross={cross}, threads={threads})"
            );
        }
    }
}

/// Corrupted snapshots degrade, never crash: a seeded bit flip anywhere in
/// the encoding must be rejected by `decode` with a typed error, and
/// `resume_or_fresh` must fall back to a run identical to a fresh one while
/// reporting that error.
#[test]
fn corrupted_snapshots_fall_back_to_a_fresh_run() {
    let netlist = table5_circuit(&Table5Config::default());
    let faults = collapsed_fault_list(&netlist);
    let engine = AtpgEngine::new(&netlist, config()).expect("engine");
    let mut progress = engine.start(&faults);
    engine.advance(&faults, 1, &mut progress, Some(faults.len() / 2));
    let clean = AtpgSnapshot::capture(&netlist, &engine, &faults, &progress).encode();
    let fresh = canonical(
        AtpgEngine::new(&netlist, config())
            .expect("engine")
            .with_learned(LearnedData::new())
            .run_with_threads(&faults, 1),
    );
    for seed in 0..6 {
        let mut bytes = clean.clone();
        inject::corrupt(&mut bytes, seed);
        assert!(
            AtpgSnapshot::decode(&bytes).is_err(),
            "seeded flip {seed} went undetected"
        );
        let (run, err) =
            resume_or_fresh(&bytes, &netlist, config(), &LearnedData::new(), &faults, 1);
        assert!(err.is_some(), "fallback must report the snapshot error");
        assert_eq!(
            canonical(run),
            fresh,
            "fallback run diverged from a fresh run (seed {seed})"
        );
    }
}

/// Truncated and version-mismatched snapshots are typed errors too — and a
/// healthy snapshot still decodes after all that hostility.
#[test]
fn truncation_and_version_mismatch_are_typed_errors() {
    let netlist = table5_circuit(&Table5Config::default());
    let faults = collapsed_fault_list(&netlist);
    let engine = AtpgEngine::new(&netlist, config()).expect("engine");
    let mut progress = engine.start(&faults);
    engine.advance(&faults, 1, &mut progress, Some(3));
    let bytes = AtpgSnapshot::capture(&netlist, &engine, &faults, &progress).encode();
    for len in [0, 3, 4, 9, bytes.len() / 2, bytes.len() - 1] {
        assert!(
            AtpgSnapshot::decode(&bytes[..len]).is_err(),
            "prefix of {len} bytes decoded"
        );
    }
    let mut future = bytes.clone();
    future[4] = 0xFE; // first version byte, directly after the 4-byte magic
    assert!(matches!(
        AtpgSnapshot::decode(&future),
        Err(SnapshotError::UnsupportedVersion { .. })
    ));
    assert!(AtpgSnapshot::decode(&bytes).is_ok());
}

/// Panic quarantine end to end: an injected worker panic poisons exactly the
/// targeted fault (strict fault order, message preserved) and the run stays
/// bit-identical across thread counts.
#[test]
fn injected_panic_poisons_only_its_fault() {
    let netlist = table5_circuit(&Table5Config::default());
    let faults = collapsed_fault_list(&netlist);
    let target = inject::InjectPlan::parse("panic:42")
        .expect("plan")
        .pick(faults.len());
    // Fault dropping could classify the target before its own search runs;
    // disable it so the injection always fires.
    let cfg = config().to_builder().fault_dropping(false).build();
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let runs: Vec<AtpgRun> = THREADS
        .iter()
        .map(|&threads| {
            canonical(
                AtpgEngine::new(&netlist, cfg)
                    .expect("engine")
                    .with_panic_at(target)
                    .run_with_threads(&faults, threads),
            )
        })
        .collect();
    std::panic::set_hook(hook);
    assert_eq!(runs[0], runs[1], "panicked runs diverged across threads");
    let run = &runs[0];
    assert_eq!(run.status[target], FaultStatus::Aborted(AbortReason::Panic));
    assert_eq!(run.panics.len(), 1);
    assert_eq!(run.panics[0].0, target);
    assert!(run.panics[0].1.contains("injected panic"));
    for (i, s) in run.status.iter().enumerate() {
        if i != target {
            assert_ne!(
                *s,
                FaultStatus::Aborted(AbortReason::Panic),
                "fault {i} was poisoned by fault {target}'s panic"
            );
        }
    }
}
