//! Criterion ablation benches for three learner design choices: the frame
//! limit of the forward simulation, the multiple-node phase and the
//! gate-equivalence assistance. They run on substitute circuits of the
//! paper's profiles (see the `sla_circuits` crate docs).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sla_circuits::{build_profile, profile_by_name};
use sla_core::{LearnOptions, SequentialLearner};

fn frame_limit_sweep(c: &mut Criterion) {
    let netlist = build_profile(profile_by_name("s953").expect("profile"), 0.25);
    let mut group = c.benchmark_group("frame_limit");
    group.sample_size(10);
    for frames in [1usize, 5, 20, 50] {
        group.bench_with_input(
            BenchmarkId::from_parameter(frames),
            &frames,
            |b, &frames| {
                b.iter(|| {
                    SequentialLearner::new(
                        &netlist,
                        LearnOptions::builder().max_frames(frames).build(),
                    )
                    .learn()
                    .expect("learning succeeds")
                })
            },
        );
    }
    group.finish();
}

fn equivalence_ablation(c: &mut Criterion) {
    let netlist = build_profile(profile_by_name("s1269").expect("profile"), 0.25);
    let mut group = c.benchmark_group("gate_equivalence");
    group.sample_size(10);
    group.bench_function("with_equivalence", |b| {
        b.iter(|| {
            SequentialLearner::new(&netlist, LearnOptions::default())
                .learn()
                .expect("learning succeeds")
        })
    });
    group.bench_function("without_equivalence", |b| {
        b.iter(|| {
            SequentialLearner::new(&netlist, LearnOptions::without_equivalence())
                .learn()
                .expect("learning succeeds")
        })
    });
    group.finish();
}

criterion_group!(benches, frame_limit_sweep, equivalence_ablation);
criterion_main!(benches);
