//! Criterion bench: real-netlist ingestion — `.bench` text to a levelized
//! arena. The three sizes double each time, so linear-time ingest shows up
//! as medians that double too; superlinear drift (reallocation storms,
//! quadratic name lookups) bends the curve and trips the benchdiff gate.
//! The full ≥1M-gate linearity assertion lives in the `bigsmoke` binary.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sla_circuits::{scale_circuit, ScaleConfig};
use sla_netlist::levelize::levelize;
use sla_netlist::parser::parse_bench;
use sla_netlist::writer::write_bench;

/// Bench text for a layered circuit with `gates` gates at fixed depth 8.
fn bench_text(gates: usize) -> String {
    let cfg = ScaleConfig::sized(&format!("ingest{gates}"), gates, 8, 11);
    write_bench(&scale_circuit(&cfg))
}

fn ingest_parse_levelize(c: &mut Criterion) {
    let mut group = c.benchmark_group("ingest");
    group.sample_size(10);
    for gates in [16_384usize, 32_768, 65_536] {
        let text = bench_text(gates);
        group.bench_with_input(
            BenchmarkId::new("parse_levelize", format!("{}k", gates / 1024)),
            &text,
            |b, text| {
                b.iter(|| {
                    let n = parse_bench("ingest", text).expect("generated text parses");
                    levelize(&n)
                        .expect("layered circuit is acyclic")
                        .max_level()
                })
            },
        );
    }
    group.finish();
}

/// The generator itself (arena construction without the text front-end), so
/// parser cost and builder cost stay separable in the records.
fn ingest_generate(c: &mut Criterion) {
    let mut group = c.benchmark_group("ingest");
    group.sample_size(10);
    let cfg = ScaleConfig::sized("gen64k", 65_536, 8, 11);
    group.bench_function("generate/64k", |b| b.iter(|| scale_circuit(&cfg)));
    group.finish();
}

criterion_group!(benches, ingest_parse_levelize, ingest_generate);
criterion_main!(benches);
