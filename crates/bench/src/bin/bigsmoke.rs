//! Large-circuit smoke check for CI: the arena-CSR pipeline at ≥1M gates.
//!
//! Generates the layered [`ScaleConfig`] workload at three doubling sizes,
//! ingests each through the full text front-end (`write_bench` → `parse_bench`
//! → `levelize`) and checks that per-gate ingest time stays flat (linear-time
//! ingest — a reallocation storm or quadratic name lookup shows up as the
//! largest size paying a multiple per gate). After each timed ingest it
//! checks that the parsed netlist equals the generated one, structural hash
//! included, which pins the parser's output up to 1M gates. On the ≥1M-gate
//! circuit it then runs budget-limited sequential learning and
//! budget-limited ATPG end to end, and finally asserts a peak-RSS sanity
//! bound read from `/proc/self/status` (`VmHWM`). Any violation exits
//! non-zero.
//!
//! Wall-clock is read only through `sla_netlist::wallclock` (stats-only by
//! construction); the linearity check compares elapsed times of this one
//! process against each other, never against an absolute threshold, so slow
//! CI hardware cannot fail it.

use sla_atpg::{AtpgEngine, AtpgOptions, WorkBudget};
use sla_circuits::{scale_circuit, ScaleConfig};
use sla_core::{LearnOptions, SequentialLearner};
use sla_netlist::levelize::levelize;
use sla_netlist::parser::parse_bench;
use sla_netlist::wallclock;
use sla_netlist::writer::write_bench;
use sla_sim::collapsed_fault_list;
use std::process::ExitCode;

/// Peak-RSS sanity bound for the whole smoke run. The 1M-gate pipeline
/// measures ~340 MiB peak (arena + bench text + learning scratch + ATPG
/// machines); 2 GiB leaves ample headroom for allocator and toolchain
/// variance while still catching a per-node-allocation regression — a
/// boxed-Vec-per-node representation pays several hundred extra bytes per
/// node at this scale.
const MAX_RSS_KIB: u64 = 2 * 1024 * 1024;

/// Largest size must not pay more than this multiple of the smallest size's
/// per-gate ingest cost. Linear ingest gives a ratio near 1.0; the bound is
/// generous because CI boxes throttle, but a quadratic term at 4× size would
/// overshoot it immediately.
const MAX_PER_GATE_RATIO: f64 = 3.0;

fn vm_hwm_kib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

fn main() -> ExitCode {
    let sizes = [1usize << 18, 1 << 19, 1 << 20];
    let mut per_gate_ns: Vec<f64> = Vec::new();
    let mut largest = None;

    for &gates in &sizes {
        let cfg = ScaleConfig::sized(&format!("smoke{gates}"), gates, 16, 8);
        let t_gen = wallclock::now();
        let generated = scale_circuit(&cfg);
        let text = write_bench(&generated);
        let gen_ms = t_gen.elapsed().as_millis();

        let t_ingest = wallclock::now();
        let parsed = match parse_bench(cfg.name.as_str(), &text) {
            Ok(n) => n,
            Err(e) => {
                eprintln!("bigsmoke: parse failed at {gates} gates: {e}");
                return ExitCode::FAILURE;
            }
        };
        let levels = match levelize(&parsed) {
            Ok(l) => l,
            Err(e) => {
                eprintln!("bigsmoke: levelize failed at {gates} gates: {e}");
                return ExitCode::FAILURE;
            }
        };
        let ingest = t_ingest.elapsed();

        // Outside the timed region: the parser must rebuild exactly the
        // generated netlist — same arena, names and clocks, same hash.
        if parsed != generated || parsed.structural_hash() != generated.structural_hash() {
            eprintln!(
                "bigsmoke: the parsed netlist differs from the generated one at {gates} gates"
            );
            return ExitCode::FAILURE;
        }

        let ns = ingest.as_nanos() as f64 / parsed.num_gates() as f64;
        per_gate_ns.push(ns);
        println!(
            "ingest {:>9} gates  depth {:>2}  gen+write {:>6} ms  parse+levelize {:>6} ms  {:>6.1} ns/gate",
            parsed.num_gates(),
            levels.max_level(),
            gen_ms,
            ingest.as_millis(),
            ns
        );
        if gates == *sizes.last().expect("sizes is non-empty") {
            largest = Some(parsed);
        }
    }

    let ratio = per_gate_ns[per_gate_ns.len() - 1] / per_gate_ns[0];
    println!("per-gate ingest ratio (largest/smallest): {ratio:.2}");
    if ratio > MAX_PER_GATE_RATIO {
        eprintln!(
            "bigsmoke: ingest is superlinear — per-gate cost grew {ratio:.2}x \
             across a {}x size range (bound {MAX_PER_GATE_RATIO})",
            sizes[sizes.len() - 1] / sizes[0]
        );
        return ExitCode::FAILURE;
    }

    let netlist = largest.expect("largest size was ingested");

    // Budget-limited learning: one unit per stem injection / multi-node
    // target keeps the pass deterministic and minutes-free at this scale.
    // Gate-equivalence extraction is off because it sweeps every gate before
    // the budget applies, and the frame window is shortened — the smoke
    // exercises the injection machinery on the arena, not learning quality.
    let t_learn = wallclock::now();
    let learn_cfg = LearnOptions::builder()
        .budget(WorkBudget::units(256))
        .gate_equivalence(false)
        .max_frames(8)
        .build();
    let learned = match SequentialLearner::new(&netlist, learn_cfg).learn() {
        Ok(r) => r,
        Err(e) => {
            eprintln!("bigsmoke: learning failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "learning: {} relations in {} ms (budgeted)",
        learned.stats.total.total(),
        t_learn.elapsed().as_millis()
    );

    // Budget-limited ATPG over a fault sample: exercises the search machine
    // construction and event loops on the arena without chasing coverage.
    let t_atpg = wallclock::now();
    let mut faults = collapsed_fault_list(&netlist);
    faults.truncate(24);
    let config = AtpgOptions::builder()
        .backtrack_limit(8)
        .budget(WorkBudget::units(50_000))
        .build();
    let engine = match AtpgEngine::new(&netlist, config) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("bigsmoke: engine construction failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let run = engine.run_with_threads(&faults, sla_par::thread_count());
    println!(
        "atpg: {} faults -> {} detected, {} untestable, {} aborted in {} ms (budgeted)",
        faults.len(),
        run.stats.detected,
        run.stats.untestable,
        run.stats.aborted,
        t_atpg.elapsed().as_millis()
    );

    match vm_hwm_kib() {
        Some(kib) => {
            println!(
                "peak RSS: {} MiB (bound {} MiB)",
                kib / 1024,
                MAX_RSS_KIB / 1024
            );
            if kib > MAX_RSS_KIB {
                eprintln!("bigsmoke: peak RSS {kib} KiB exceeds the {MAX_RSS_KIB} KiB bound");
                return ExitCode::FAILURE;
            }
        }
        None => println!("peak RSS: unavailable (not linux?) — bound skipped"),
    }

    println!("bigsmoke: OK");
    ExitCode::SUCCESS
}
