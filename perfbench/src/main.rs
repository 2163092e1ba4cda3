//! `perfbench`: the end-to-end benchmark of `sla-serve`.
//!
//! ```text
//! perfbench --server PATH --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! Generates the named workload from the seed, starts `sla-serve` on
//! loopback and sends the workload over one connection, closed loop. With
//! `--trace 0` the last stdout line carries the end-to-end metrics; with
//! `--trace 1` the same requests are then replayed in-process with a span
//! around every layer call, and the last line carries the per-layer metrics.
//! Every answer is checked; any failed check makes the exit code nonzero.
//! `perfbench/run.sh` builds both programs and passes `--server`.

mod client;
mod replay;
mod workload;

use client::{Outcome, THREADS};
use sla_netlist::wallclock;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;
use workload::{warmup_design, Plan, Workload};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Samples that must lie beyond a reported tail percentile.
const TAIL_BEYOND: usize = 10;

struct Args {
    server: PathBuf,
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut server = None;
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--server" => server = Some(PathBuf::from(&value)),
            "--workload" => {
                workload = Some(
                    Workload::from_name(&value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => trace = Some(number()? != 0),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        server: server.ok_or("--server is required")?,
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --server PATH --workload learn_cold|atpg_warm|ingest_large \
                 --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    let out_dir = PathBuf::from(".perfbench");
    let work = out_dir.join(format!("work-{}", std::process::id()));
    let result = std::fs::create_dir_all(&work)
        .map_err(|e| format!("creating {}: {e}", work.display()))
        .and_then(|()| run(&args, &out_dir, &work));
    let _ = std::fs::remove_dir_all(&work);
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Runs the benchmark and prints its report. `Ok(false)` means the report
/// was printed but some request failed a check.
fn run(args: &Args, out_dir: &Path, work: &Path) -> Result<bool, String> {
    let mut setup_times = Vec::with_capacity(SETUPS);
    let mut prepared = None;
    for _ in 0..SETUPS {
        if let Some((_, _, ready)) = prepared.take() {
            let client::Ready { server, conn, .. } = ready;
            server.shutdown(conn)?;
        }
        let start = wallclock::now();
        let plan = Plan::generate(args.workload, args.seed, args.seconds);
        let warmup = warmup_design();
        let ready = client::start(&args.server, work, &plan, &warmup)?;
        setup_times.push(start.elapsed());
        prepared = Some((plan, warmup, ready));
    }
    let (plan, warmup, mut ready) = prepared.expect("at least one set-up ran");

    let client::Measured {
        outcomes,
        run_time,
        peak_rss_mib,
    } = client::measure(&mut ready, &plan)?;
    let final_rss = ready.server.memory_mib("VmRSS")?;
    let client::Ready { server, conn, .. } = ready;
    server.shutdown(conn)?;

    // Per measured request: why it failed, if it did.
    let mut failures: Vec<Option<String>> =
        outcomes.iter().map(|o| o.as_ref().err().cloned()).collect();

    let mut info = vec![
        ("workload", json_str(args.workload.name())),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("threads", THREADS.to_string()),
        ("nproc", sla_par::default_parallelism().to_string()),
        ("cpu", json_str(&cpu_model())),
        ("commit", json_str(&commit())),
        ("designs", plan.designs.len().to_string()),
        ("requests", plan.requests.len().to_string()),
        ("classes", json_str(&class_mix(&plan))),
        ("final_rss_mib", format!("{final_rss:.2}")),
    ];
    let metrics = if args.trace {
        let trace = replay::replay(&plan, &warmup, work)?;
        let spans = out_dir.join(format!(
            "spans-{}-{}.jsonl",
            args.workload.name(),
            args.seed
        ));
        trace
            .tracer
            .write(&spans)
            .map_err(|e| format!("writing {}: {e}", spans.display()))?;
        info.push(("spans", json_str(&spans.display().to_string())));
        for ((failure, outcome), replayed) in failures.iter_mut().zip(&outcomes).zip(&trace.digests)
        {
            let mismatch = match (outcome, replayed) {
                (_, Err(e)) => Some(format!("replay: {e}")),
                (Ok((_, answer)), Ok(d)) if answer.digest != *d => {
                    Some("served answer differs from the in-process replay".to_string())
                }
                _ => None,
            };
            if failure.is_none() {
                *failure = mismatch;
            }
        }
        let shares = layer_shares(&trace);
        info.push(("layer_shares", shares));
        per_layer(&outcomes, &trace)
    } else {
        info.push(("class_p50_ms", class_latency(&plan, &outcomes)));
        end_to_end(&setup_times, &outcomes, run_time, &peak_rss_mib, &mut info)
    };

    let attempted = outcomes.len();
    let mut failed = 0;
    for (i, why) in failures.iter().enumerate() {
        if let Some(why) = why {
            eprintln!("perfbench: request {i} FAILED: {why}");
            failed += 1;
        }
    }
    let info: Vec<String> = info
        .into_iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    println!("{{\"info\": {{{}}}}}", info.join(", "));
    let metrics: Vec<String> = metrics
        .into_iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_num(value)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        metrics.join(", ")
    );
    Ok(failed == 0)
}

type Metric = (&'static str, f64, &'static str);

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Nearest-rank percentile `q` (0..=100) of ascending `sorted`.
fn percentile(sorted: &[f64], q: f64) -> f64 {
    let rank = ((q / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// The highest integer percentile with at least [`TAIL_BEYOND`] samples
/// above it, and its value. With too few samples for any such percentile the
/// maximum is reported as percentile 100.
fn tail(sorted: &[f64]) -> (u32, f64) {
    let n = sorted.len();
    if n <= 2 * TAIL_BEYOND {
        return (100, sorted[n - 1]);
    }
    let q = (100 * (n - TAIL_BEYOND) / n) as u32;
    (q, percentile(sorted, f64::from(q)))
}

fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Median of ascending `sorted`; NaN (printed as `null`) when empty.
fn median(sorted: &[f64]) -> f64 {
    if sorted.is_empty() {
        f64::NAN
    } else {
        percentile(sorted, 50.0)
    }
}

fn end_to_end(
    setup_times: &[Duration],
    outcomes: &[Outcome],
    run_time: Duration,
    peak_rss_mib: &[f64],
    info: &mut Vec<(&'static str, String)>,
) -> Vec<Metric> {
    let ok: Vec<_> = outcomes.iter().filter_map(|o| o.as_ref().ok()).collect();
    let done = sorted(ok.iter().map(|(t, _)| ms(t.done)).collect());
    let first = sorted(ok.iter().map(|(t, _)| ms(t.first_verdict)).collect());
    let setup = sorted(setup_times.iter().map(Duration::as_secs_f64).collect());
    let (faults, detected) = ok.iter().fold((0u64, 0u64), |(f, d), (_, a)| {
        (
            f + u64::from(a.summary.total_faults),
            d + u64::from(a.summary.detected),
        )
    });
    let (tail_q, tail_ms) = if done.is_empty() {
        (0, f64::NAN)
    } else {
        tail(&done)
    };
    info.push(("request_ms_tail_percentile", tail_q.to_string()));
    info.push(("request_samples", done.len().to_string()));
    info.push((
        "setup_s_samples",
        format!(
            "[{}]",
            setup
                .iter()
                .map(|s| format!("{s:.4}"))
                .collect::<Vec<_>>()
                .join(", ")
        ),
    ));
    vec![
        ("setup_s", median(&setup), "s"),
        ("run_s", run_time.as_secs_f64(), "s"),
        ("request_ms_p50", median(&done), "ms"),
        ("request_ms_tail", tail_ms, "ms"),
        ("first_verdict_ms_p50", median(&first), "ms"),
        (
            "peak_rss_mib_p50",
            median(&sorted(peak_rss_mib.to_vec())),
            "MiB",
        ),
        (
            "coverage_bp",
            detected as f64 * 10_000.0 / faults.max(1) as f64,
            "bp",
        ),
        (
            "ok_share",
            ok.len() as f64 / outcomes.len().max(1) as f64,
            "ratio",
        ),
    ]
}

/// Per-layer metric names, keyed by span name, for the timed layers.
const LAYER_SPANS: [(&str, &str); 11] = [
    ("proto.decode", "proto.decode_ms"),
    ("netlist.parse", "netlist.parse_ms"),
    ("proto.resolve", "proto.resolve_ms"),
    ("store.key", "store.key_ms"),
    ("store.lookup", "store.lookup_ms"),
    ("core.learn", "core.learn_ms"),
    ("store.insert", "store.insert_ms"),
    ("atpg.compile", "atpg.compile_ms"),
    ("atpg.search", "atpg.search_ms"),
    ("proto.encode", "proto.encode_ms"),
    ("request", "request.self_ms"),
];

fn per_layer(outcomes: &[Outcome], trace: &replay::Trace) -> Vec<Metric> {
    let c = &trace.counters;
    let layer = |span: &str| ms(trace.self_time.get(span).copied().unwrap_or_default());
    let mut metrics: Vec<Metric> = LAYER_SPANS
        .iter()
        .map(|&(span, name)| (name, layer(span), "ms"))
        .collect();
    let served: Vec<_> = outcomes.iter().filter_map(|o| o.as_ref().ok()).collect();
    let served_done = sorted(served.iter().map(|(t, _)| ms(t.done)).collect());
    let served_first = sorted(served.iter().map(|(t, _)| ms(t.first_verdict)).collect());
    let traced = sorted(trace.request_times.iter().copied().map(ms).collect());
    let traced_first = sorted(trace.first_verdicts.iter().copied().map(ms).collect());
    let searched = c.sequences + c.untestable - c.untestable_from_ties + c.aborted;
    let count = |v: u64| v as f64;
    metrics.extend([
        ("trace.request_ms_p50", median(&traced), "ms"),
        (
            "serve.overhead_ms",
            median(&served_done) - median(&traced),
            "ms",
        ),
        ("trace.first_verdict_ms_p50", median(&traced_first), "ms"),
        (
            "serve.first_verdict_overhead_ms",
            median(&served_first) - median(&traced_first),
            "ms",
        ),
        (
            "netlist.parse_ns_per_gate",
            layer("netlist.parse") * 1e6 / c.gates.max(1) as f64,
            "ns/gate",
        ),
        ("netlist.gates", count(c.gates), "count"),
        ("proto.bytes_in", count(c.bytes_in), "bytes"),
        ("proto.frames_out", count(c.frames_out), "count"),
        ("core.work_units", count(c.learn_work_units), "count"),
        ("core.stems", count(c.stems), "count"),
        (
            "core.multi_node_targets",
            count(c.multi_node_targets),
            "count",
        ),
        ("core.relations", count(c.relations), "count"),
        ("core.cross_frame", count(c.cross_frame), "count"),
        ("core.tied", count(c.tied), "count"),
        ("store.hits", count(c.store_hits), "count"),
        ("store.misses", count(c.store_misses), "count"),
        ("store.entry_bytes", count(c.entry_bytes), "bytes"),
        ("atpg.decisions", count(c.decisions), "count"),
        ("atpg.backtracks", count(c.backtracks), "count"),
        ("atpg.sequences", count(c.sequences), "count"),
        ("atpg.test_vectors", count(c.test_vectors), "count"),
        ("atpg.work_units", count(c.atpg_work_units), "count"),
        ("atpg.detected", count(c.detected), "count"),
        ("atpg.untestable", count(c.untestable), "count"),
        ("atpg.aborted", count(c.aborted), "count"),
        (
            "par.wasted_speculations",
            count(c.wasted_speculations),
            "count",
        ),
        (
            "par.useful_share",
            searched as f64 / (searched + c.wasted_speculations).max(1) as f64,
            "ratio",
        ),
        ("sim.check_ms", ms(trace.check_time), "ms"),
        ("sim.confirmed", count(c.confirmed), "count"),
    ]);
    metrics
}

/// Each layer's share of traced request time, as a JSON object.
fn layer_shares(trace: &replay::Trace) -> String {
    let total: Duration = trace.request_times.iter().sum();
    let parts: Vec<String> = LAYER_SPANS
        .iter()
        .map(|&(span, _)| {
            let t = trace.self_time.get(span).copied().unwrap_or_default();
            format!(
                "\"{span}\": {:.4}",
                t.as_secs_f64() / total.as_secs_f64().max(1e-9)
            )
        })
        .collect();
    format!("{{{}}}", parts.join(", "))
}

/// Count of designs per generator, e.g. `synth:67 retimed:67`.
fn class_mix(plan: &Plan) -> String {
    let mut mix: std::collections::BTreeMap<&str, (usize, usize, usize)> = Default::default();
    for d in &plan.designs {
        let e = mix.entry(d.class).or_insert((0, usize::MAX, 0));
        e.0 += 1;
        e.1 = e.1.min(d.gates);
        e.2 = e.2.max(d.gates);
    }
    mix.iter()
        .map(|(class, (n, lo, hi))| format!("{class}:{n} ({lo}-{hi} gates)"))
        .collect::<Vec<_>>()
        .join(" ")
}

/// Median request latency per generator, as a JSON object: shows whether
/// generator classes form separate latency clusters.
fn class_latency(plan: &Plan, outcomes: &[Outcome]) -> String {
    let mut by_class: std::collections::BTreeMap<&str, Vec<f64>> = Default::default();
    for (&d, outcome) in plan.requests.iter().zip(outcomes) {
        if let Ok((timing, _)) = outcome {
            by_class
                .entry(plan.designs[d].class)
                .or_default()
                .push(ms(timing.done));
        }
    }
    let parts: Vec<String> = by_class
        .into_iter()
        .map(|(class, v)| format!("\"{class}\": {:.1}", median(&sorted(v))))
        .collect();
    format!("{{{}}}", parts.join(", "))
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The checkout's commit, read from its own `.git` only.
fn commit() -> String {
    std::process::Command::new("git")
        .args(["--git-dir=.git", "rev-parse", "--short", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}
