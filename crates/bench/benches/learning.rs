//! Criterion bench: sequential learning cost vs. circuit size (the scaling
//! claim behind Table 3 — learning time grows roughly linearly with gates and
//! stays far below ATPG time).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sla_circuits::{build_profile, industrial_circuit, profile_by_name, IndustrialConfig};
use sla_core::{LearnOptions, SequentialLearner};

fn learning_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("sequential_learning");
    group.sample_size(10);
    for name in ["s400", "s953", "s1423"] {
        let profile = profile_by_name(name).expect("profile exists");
        let netlist = build_profile(profile, 0.25);
        group.bench_with_input(
            BenchmarkId::new("learn", format!("{name}-{}g", netlist.num_gates())),
            &netlist,
            |b, netlist| {
                b.iter(|| {
                    SequentialLearner::new(netlist, LearnOptions::default())
                        .learn()
                        .expect("learning succeeds")
                })
            },
        );
    }
    group.finish();
}

/// The industrial-style generator: multiple clock domains, latches and
/// set/reset lines — the workload of the batched-learning acceptance target.
fn learning_industrial(c: &mut Criterion) {
    let netlist = industrial_circuit(&IndustrialConfig::default());
    let mut group = c.benchmark_group("sequential_learning");
    group.sample_size(10);
    group.bench_function("industrial", |b| {
        b.iter(|| {
            SequentialLearner::new(&netlist, LearnOptions::default())
                .learn()
                .expect("learning succeeds")
        })
    });
    group.finish();
}

/// Learning on the industrial workload at explicit thread counts, passed
/// through `learn_with_threads`, independent of the `SLA_THREADS`
/// environment the JSON metadata records. Learning runs on the calling
/// thread at every count, so the lanes measure one serial pass and any
/// delta between them is noise.
fn learning_thread_scaling(c: &mut Criterion) {
    let netlist = industrial_circuit(&IndustrialConfig::default());
    let mut group = c.benchmark_group("sequential_learning");
    group.sample_size(10);
    for threads in [1usize, 2, 4] {
        group.bench_with_input(
            BenchmarkId::new("industrial/threads", threads),
            &threads,
            |b, &threads| {
                b.iter(|| {
                    SequentialLearner::new(&netlist, LearnOptions::default())
                        .learn_with_threads(threads)
                        .expect("learning succeeds")
                })
            },
        );
    }
    group.finish();
}

fn learning_single_vs_multi(c: &mut Criterion) {
    let mut group = c.benchmark_group("learning_phases");
    group.sample_size(10);
    let profile = profile_by_name("s953").expect("profile exists");
    let netlist = build_profile(profile, 0.25);
    group.bench_function("single_node_only", |b| {
        b.iter(|| {
            SequentialLearner::new(&netlist, LearnOptions::single_node_only())
                .learn()
                .expect("learning succeeds")
        })
    });
    group.bench_function("with_multiple_node", |b| {
        b.iter(|| {
            SequentialLearner::new(&netlist, LearnOptions::default())
                .learn()
                .expect("learning succeeds")
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    learning_scaling,
    learning_industrial,
    learning_thread_scaling,
    learning_single_vs_multi
);
criterion_main!(benches);
