//! Criterion bench: ATPG time with and without sequential learning on a
//! retimed-style (low density of encoding) circuit — the Table 5 comparison.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use sla_atpg::{AtpgEngine, AtpgOptions, LearnedData, LearningMode, SearchMachines};
use sla_circuits::{
    retimed_circuit, scale_circuit, table5_circuit, RetimedConfig, ScaleConfig, Table5Config,
};
use sla_core::{LearnOptions, SequentialLearner};
use sla_netlist::levelize::levelize;
use sla_sim::{collapsed_fault_list, Fault, FaultSimulator, FaultSite, Logic3, TestSequence};

fn atpg_with_and_without_learning(c: &mut Criterion) {
    let netlist = retimed_circuit(&RetimedConfig {
        master_bits: 3,
        derived_bits: 8,
        extra_gates: 24,
        inputs: 4,
        ..RetimedConfig::default()
    });
    let mut faults = collapsed_fault_list(&netlist);
    faults.truncate(60);
    let learned = LearnedData::from(
        &SequentialLearner::new(&netlist, LearnOptions::default())
            .learn()
            .expect("learning succeeds"),
    );

    let mut group = c.benchmark_group("atpg_retimed");
    group.sample_size(10);
    group.bench_function("no_learning", |b| {
        b.iter(|| {
            AtpgEngine::new(&netlist, AtpgOptions::builder().backtrack_limit(30).build())
                .expect("levelizes")
                .run(&faults)
        })
    });
    group.bench_function("forbidden_values", |b| {
        b.iter(|| {
            AtpgEngine::new(
                &netlist,
                AtpgOptions::builder()
                    .backtrack_limit(30)
                    .learning(LearningMode::ForbiddenValue)
                    .build(),
            )
            .expect("levelizes")
            .with_learned(learned.clone())
            .run(&faults)
        })
    });
    group.bench_function("known_values", |b| {
        b.iter(|| {
            AtpgEngine::new(
                &netlist,
                AtpgOptions::builder()
                    .backtrack_limit(30)
                    .learning(LearningMode::KnownValue)
                    .build(),
            )
            .expect("levelizes")
            .with_learned(learned.clone())
            .run(&faults)
        })
    });
    group.finish();
}

/// The event-driven incremental search loop on the Table-5 workload: deep
/// redundant select stacks mean long decide/backtrack sequences per fault,
/// which is exactly the path the incrementally maintained good/faulty
/// machines (and the event-fed implication layer) accelerate.
fn atpg_search_incremental(c: &mut Criterion) {
    let netlist = table5_circuit(&Table5Config::default());
    let faults = collapsed_fault_list(&netlist);
    let learned = LearnedData::from(
        &SequentialLearner::new(&netlist, LearnOptions::default())
            .learn()
            .expect("learning succeeds"),
    );

    let mut group = c.benchmark_group("atpg_search");
    group.sample_size(10);
    group.bench_function("incremental", |b| {
        b.iter(|| {
            AtpgEngine::new(
                &netlist,
                AtpgOptions::builder()
                    .backtrack_limit(100)
                    .learning(LearningMode::ForbiddenValue)
                    .build(),
            )
            .expect("levelizes")
            .with_learned(learned.clone())
            .run(&faults)
        })
    });
    group.finish();
}

/// Thread scaling of the ATPG speculation window on the Table-5 workload
/// (learning mode, fault dropping on — the worst case for speculation). The
/// `threads/1` lane is the exact serial path; the others produce
/// bit-identical verdicts, backtracks and sequences (property-tested in
/// `tests/par_prop.rs`). Explicit counts are passed through
/// `run_with_threads`, independent of the `SLA_THREADS` environment the JSON
/// metadata records.
fn atpg_thread_scaling(c: &mut Criterion) {
    let netlist = table5_circuit(&Table5Config::default());
    let faults = collapsed_fault_list(&netlist);
    let learned = LearnedData::from(
        &SequentialLearner::new(&netlist, LearnOptions::default())
            .learn()
            .expect("learning succeeds"),
    );
    let engine = AtpgEngine::new(
        &netlist,
        AtpgOptions::builder()
            .backtrack_limit(100)
            .learning(LearningMode::ForbiddenValue)
            .build(),
    )
    .expect("levelizes")
    .with_learned(learned);

    let mut group = c.benchmark_group("atpg_search");
    group.sample_size(10);
    for threads in [1usize, 2, 4] {
        group.bench_with_input(
            criterion::BenchmarkId::new("incremental/threads", threads),
            &threads,
            |b, &threads| b.iter(|| engine.run_with_threads(&faults, threads)),
        );
    }
    group.finish();
}

/// Word-parallel fault dropping: one test sequence fault-simulated against
/// the whole collapsed fault list (the per-test inner loop of
/// `AtpgEngine::run`).
///
/// This is a ~30 µs microbench whose median historically moved ±30% with the
/// code layout of the bench binary (ROADMAP "fault_dropping layout
/// instability"). Two mitigations: the hot inputs pass through `black_box`
/// so the optimizer cannot specialize the call site against the concrete
/// statics, and the sample count is 60 (not 10) so the median sits on a
/// dense part of the distribution instead of a handful of samples straddling
/// a layout-sensitive cliff. Measured after the fix: repeated runs of one
/// build agree to ≤±1% (was ±30%); across builds, layout can still step the
/// median by ~25% with no algorithmic change — see the benchdiff-gate note
/// in CI for the refresh-the-baseline rule.
fn fault_dropping(c: &mut Criterion) {
    let netlist = retimed_circuit(&RetimedConfig {
        master_bits: 4,
        derived_bits: 10,
        extra_gates: 40,
        inputs: 4,
        ..RetimedConfig::default()
    });
    let faults = collapsed_fault_list(&netlist);
    // A deterministic pseudo-random 8-frame sequence.
    let mut state = 0x5eed_u64;
    let vectors: Vec<Vec<Logic3>> = (0..8)
        .map(|_| {
            (0..netlist.inputs().len())
                .map(|_| {
                    state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                    Logic3::from_bool(state >> 33 & 1 == 1)
                })
                .collect()
        })
        .collect();
    let sequence = TestSequence::new(vectors);
    let sim = FaultSimulator::new(&netlist).expect("levelizes");

    let mut group = c.benchmark_group("fault_dropping");
    group.sample_size(60);
    group.bench_function("detected_faults/retimed", |b| {
        b.iter(|| black_box(&sim).detected_faults(black_box(&faults), black_box(&sequence)))
    });
    group.finish();
}

/// The persistent D-frontier in isolation: one `SearchMachines` pair driven
/// through a deterministic decide / frontier-read / undo script over the
/// Table-5 workload (wide cones, deep windows). This is the bookkeeping the
/// per-objective cone scan used to redo from scratch; the lane pins its cost
/// separately from the full search loop so frontier regressions are not
/// masked by search-order changes.
fn atpg_frontier(c: &mut Criterion) {
    let netlist = table5_circuit(&Table5Config::default());
    let levels = levelize(&netlist).expect("levelizes");
    let faults = collapsed_fault_list(&netlist);
    // The fault with the widest cone: every gate its effects can reach is
    // frontier-relevant, making this the heaviest maintenance case.
    let fault = *faults
        .iter()
        .max_by_key(|f| {
            SearchMachines::new(&netlist, &levels, 1, **f)
                .cone_gates()
                .len()
        })
        .expect("non-empty fault list");
    let pis = netlist.inputs().to_vec();

    let mut group = c.benchmark_group("atpg_search");
    group.sample_size(20);
    group.bench_function("frontier", |b| {
        b.iter(|| {
            let mut machines = SearchMachines::new(&netlist, &levels, 8, fault);
            let mut acc = 0usize;
            for frame in 0..machines.window() {
                for (k, &pi) in pis.iter().enumerate() {
                    if machines.good().value(frame, pi) != Logic3::X {
                        continue;
                    }
                    let mark = machines.mark();
                    machines.assign(frame, pi, (frame + k) % 2 == 0);
                    acc += machines.d_frontier_iter().count();
                    acc += usize::from(machines.detected());
                    if (frame + k) % 3 == 0 {
                        machines.undo_to(mark);
                    }
                }
            }
            black_box(acc)
        })
    });
    group.finish();
}

/// Per-fault cost on a large, shallow design: a 64k-gate, 4-layer scale
/// circuit with 8 flip-flops and 4 faults on primary-output drivers at
/// backtrack limit 8, serially (the shape of a `perfbench` `ingest_large`
/// request, at a quarter of its size). Each fault needs little search, so
/// the lane is dominated by what the generator and fault dropping pay per
/// fault, which follows the fault's cone and the targets' support rather
/// than the netlist.
fn atpg_search_scale_po_faults(c: &mut Criterion) {
    let netlist = scale_circuit(&ScaleConfig {
        flip_flops: 8,
        ..ScaleConfig::sized("scale64k", 64 << 10, 4, 3)
    });
    let outputs = netlist.outputs();
    let faults: Vec<Fault> = collapsed_fault_list(&netlist)
        .into_iter()
        .filter(|f| matches!(f.site, FaultSite::Output(node) if outputs.contains(&node)))
        .take(4)
        .collect();
    let engine = AtpgEngine::new(&netlist, AtpgOptions::builder().backtrack_limit(8).build())
        .expect("levelizes");

    let mut group = c.benchmark_group("atpg_search");
    group.sample_size(10);
    group.bench_function("scale_po_faults", |b| {
        b.iter(|| engine.run_with_threads(black_box(&faults), 1))
    });
    group.finish();
}

criterion_group!(
    benches,
    atpg_with_and_without_learning,
    fault_dropping,
    atpg_search_incremental,
    atpg_thread_scaling,
    atpg_frontier,
    atpg_search_scale_po_faults
);
criterion_main!(benches);
