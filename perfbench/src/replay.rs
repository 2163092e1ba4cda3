//! The traced half of the benchmark: the same requests replayed in-process
//! through the public layer functions `sla-serve`'s `handle_request` calls,
//! in the same order, with a span around each call.
//!
//! Spans live in memory and are written once, at the end. A layer's figure
//! is its self time: the span's duration minus the part its children cover.

use crate::client::{digest, THREADS};
use crate::workload::{Design, Plan};
use sla_atpg::{AtpgEngine, FaultStatus, LearnedData};
use sla_core::SequentialLearner;
use sla_netlist::parser::parse_bench;
use sla_netlist::wallclock::{self, StatsInstant};
use sla_sim::FaultSimulator;
use sla_store::proto::{self, FaultSpec, Message, Summary};
use sla_store::{CacheOutcome, LearnedStore, StoreKey};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Duration;

/// Faults merged per streaming stride, as `Session::atpg_streaming` does.
const STREAM_STRIDE: usize = 32;

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer boundary, e.g. `core.learn`.
    pub name: &'static str,
    /// Index of the measured request the span belongs to.
    pub request: usize,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Offsets from the tracer's origin.
    pub start: Duration,
    /// End offset; equal to `start` while the span is open.
    pub end: Duration,
}

/// An in-memory span recorder.
pub struct Tracer {
    origin: StatsInstant,
    spans: Vec<Span>,
}

impl Tracer {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            origin: wallclock::now(),
            spans: Vec::new(),
        }
    }

    fn open(&mut self, name: &'static str, request: usize, parent: Option<usize>) -> usize {
        let now = self.origin.elapsed();
        self.spans.push(Span {
            name,
            request,
            parent,
            start: now,
            end: now,
        });
        self.spans.len() - 1
    }

    fn close(&mut self, span: usize) {
        self.spans[span].end = self.origin.elapsed();
    }

    /// Runs `f` inside a child span of `parent`.
    fn child<T>(&mut self, parent: usize, name: &'static str, f: impl FnOnce() -> T) -> T {
        let request = self.spans[parent].request;
        let span = self.open(name, request, Some(parent));
        let out = f();
        self.close(span);
        out
    }

    /// Self time per span, in recording order.
    fn self_times(&self) -> Vec<Duration> {
        let mut times: Vec<Duration> = self.spans.iter().map(|s| s.end - s.start).collect();
        for span in &self.spans {
            if let Some(p) = span.parent {
                times[p] = times[p].saturating_sub(span.end - span.start);
            }
        }
        times
    }

    /// Writes every span as one JSON line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"request\": {}, \"parent\": {parent}, \
                 \"start_ns\": {}, \"end_ns\": {}}}",
                s.name,
                s.request,
                s.start.as_nanos(),
                s.end.as_nanos()
            )?;
        }
        out.flush()
    }
}

/// Deterministic work counted at the layer boundaries, summed over the
/// measured requests.
#[derive(Debug, Default, Clone)]
pub struct Counters {
    pub learn_work_units: u64,
    pub stems: u64,
    pub multi_node_targets: u64,
    pub relations: u64,
    pub cross_frame: u64,
    pub tied: u64,
    pub store_hits: u64,
    pub store_misses: u64,
    pub entry_bytes: u64,
    pub decisions: u64,
    pub backtracks: u64,
    pub sequences: u64,
    pub test_vectors: u64,
    pub atpg_work_units: u64,
    pub detected: u64,
    pub untestable: u64,
    pub aborted: u64,
    pub untestable_from_ties: u64,
    pub wasted_speculations: u64,
    pub gates: u64,
    pub bytes_in: u64,
    pub frames_out: u64,
    pub confirmed: u64,
}

/// What a replayed request produced.
struct Replayed {
    digest: u64,
    netlist: sla_netlist::Netlist,
    faults: Vec<sla_sim::Fault>,
    run: sla_atpg::AtpgRun,
    /// From the request span's start to the end of the first stride, when
    /// the server would write its first verdict.
    first_verdict: Duration,
}

/// Replays one request frame as `handle_request` serves it, recording a
/// span per layer call under a `request` span.
fn replay_one(
    tracer: &mut Tracer,
    request: usize,
    frame: &[u8],
    store: &mut LearnedStore,
    counters: &mut Counters,
) -> Result<Replayed, String> {
    let root = tracer.open("request", request, None);
    let msg = tracer
        .child(root, "proto.decode", || proto::decode_message(frame))
        .map_err(|e| format!("decode: {e}"))?;
    let Message::Request(req) = msg else {
        return Err("frame is not a request".to_string());
    };
    counters.bytes_in += frame.len() as u64 + 4;
    let netlist = tracer
        .child(root, "netlist.parse", || parse_bench(&req.name, &req.bench))
        .map_err(|e| format!("parse: {e}"))?;
    counters.gates += netlist.num_gates() as u64;
    let faults = tracer
        .child(root, "proto.resolve", || {
            proto::resolve_faults(&netlist, &req.faults)
        })
        .map_err(|e| format!("resolve: {e}"))?;
    let (learned, cache, learn_work_units) = match &req.learn {
        None => (LearnedData::new(), CacheOutcome::Uncached, 0),
        Some(options) => {
            let key = tracer.child(root, "store.key", || StoreKey::new(&netlist, options));
            let found = tracer.child(root, "store.lookup", || store.lookup(&key));
            match found {
                Ok(Some(learned)) => {
                    counters.store_hits += 1;
                    (learned, CacheOutcome::Hit, 0)
                }
                _ => {
                    let (stats, learned) = tracer
                        .child(root, "core.learn", || {
                            SequentialLearner::new(&netlist, options.clone())
                                .learn_with_threads(THREADS)
                                .map(|r| (r.stats.clone(), LearnedData::from_learn_result(&r)))
                        })
                        .map_err(|e| format!("learn: {e}"))?;
                    tracer
                        .child(root, "store.insert", || store.insert(key, &learned))
                        .map_err(|e| format!("store insert: {e}"))?;
                    counters.store_misses += 1;
                    counters.entry_bytes +=
                        std::fs::metadata(store.dir().join(format!("{key}.slal")))
                            .map_err(|e| format!("store entry: {e}"))?
                            .len();
                    counters.learn_work_units += stats.budget_spent;
                    counters.stems += stats.stems as u64;
                    counters.multi_node_targets += stats.multi_node_targets as u64;
                    counters.relations += stats.total.total() as u64;
                    counters.cross_frame += stats.cross_frame as u64;
                    counters.tied += (stats.tied_combinational + stats.tied_sequential) as u64;
                    (learned, CacheOutcome::Miss, stats.budget_spent)
                }
            }
        }
    };
    let engine = tracer
        .child(root, "atpg.compile", || {
            AtpgEngine::new(&netlist, req.atpg).map(|e| e.with_learned(learned.clone()))
        })
        .map_err(|e| format!("atpg engine: {e}"))?;
    let request_start = tracer.spans[root].start;
    let mut first_verdict = None;
    let origin = tracer.origin;
    let run = tracer.child(root, "atpg.search", || {
        let mut progress = engine.start(&faults);
        while progress.next_fault() < faults.len() {
            let before = progress.next_fault();
            engine.advance(
                &faults,
                THREADS,
                &mut progress,
                Some(before + STREAM_STRIDE),
            );
            first_verdict.get_or_insert_with(|| origin.elapsed());
            if progress.next_fault() == before {
                break;
            }
        }
        engine.finish(progress)
    });
    let s = &run.stats;
    let summary = Summary {
        total_faults: s.total_faults as u32,
        detected: s.detected as u32,
        untestable: s.untestable as u32,
        aborted: s.aborted as u32,
        backtracks: s.backtracks as u64,
        decisions: s.decisions as u64,
        sequences: s.sequences as u32,
        test_vectors: s.test_vectors as u64,
        budget_spent: s.budget_spent,
        cache,
        learn_work_units,
    };
    let frames_out = tracer.child(root, "proto.encode", || {
        let mut bytes = 0usize;
        for (index, status) in run.status.iter().enumerate() {
            bytes += proto::encode_message(&Message::Verdict {
                index: index as u32,
                status: *status,
            })
            .len();
        }
        bytes += proto::encode_message(&Message::Done(summary)).len();
        std::hint::black_box(bytes);
        run.status.len() as u64 + 1
    });
    tracer.close(root);
    let first_verdict = first_verdict.unwrap_or(tracer.spans[root].end) - request_start;

    counters.frames_out += frames_out;
    counters.decisions += summary.decisions;
    counters.backtracks += summary.backtracks;
    counters.sequences += u64::from(summary.sequences);
    counters.test_vectors += summary.test_vectors;
    counters.atpg_work_units += summary.budget_spent;
    counters.detected += u64::from(summary.detected);
    counters.untestable += u64::from(summary.untestable);
    counters.aborted += u64::from(summary.aborted);
    counters.untestable_from_ties += s.untestable_from_ties as u64;
    counters.wasted_speculations += s.wasted_speculations as u64;
    Ok(Replayed {
        digest: digest(&run.status, &summary),
        netlist,
        faults,
        run,
        first_verdict,
    })
}

/// Checks the verdicts of `replayed` with the scalar fault simulator: every
/// `Detected` fault is caught by at least one returned sequence, and no
/// `Untestable` fault is. Returns the number of verdicts confirmed.
fn confirm(replayed: &Replayed) -> Result<u64, String> {
    let sim = FaultSimulator::new(&replayed.netlist).map_err(|e| format!("fault sim: {e}"))?;
    let sequences = &replayed.run.sequences;
    let mut confirmed = 0;
    for (i, (fault, status)) in replayed.faults.iter().zip(&replayed.run.status).enumerate() {
        let caught = || sequences.iter().any(|seq| sim.detects(fault, seq));
        match status {
            FaultStatus::Detected if !caught() => {
                return Err(format!(
                    "fault {i} {:?} is Detected but no returned sequence detects it",
                    FaultSpec::from_fault(&replayed.netlist, fault)
                ))
            }
            FaultStatus::Untestable if caught() => {
                return Err(format!(
                    "fault {i} {:?} is Untestable but a returned sequence detects it",
                    FaultSpec::from_fault(&replayed.netlist, fault)
                ))
            }
            FaultStatus::Detected | FaultStatus::Untestable => confirmed += 1,
            FaultStatus::Aborted(_) => {}
        }
    }
    Ok(confirmed)
}

/// The traced run's results.
pub struct Trace {
    /// Per measured request: the replay digest, or why the replay failed.
    pub digests: Vec<Result<u64, String>>,
    /// Summed self time per span name.
    pub self_time: BTreeMap<&'static str, Duration>,
    /// Duration of each measured request's `request` span.
    pub request_times: Vec<Duration>,
    /// Per measured request: offset of its first verdict.
    pub first_verdicts: Vec<Duration>,
    /// Total time of the output check.
    pub check_time: Duration,
    /// Deterministic counters.
    pub counters: Counters,
    /// All recorded spans.
    pub tracer: Tracer,
}

/// Replays the plan in-process on a fresh store in `dir`: the warm-up and,
/// for primed plans, one cold pass over the designs first (untraced), then
/// every measured request traced. Each distinct design's answer is checked
/// once with the fault simulator.
pub fn replay(plan: &Plan, warmup: &Design, dir: &Path) -> Result<Trace, String> {
    let store_dir = dir.join("replay-store");
    let _ = std::fs::remove_dir_all(&store_dir);
    let mut store = LearnedStore::open(&store_dir, plan.capacity)
        .map_err(|e| format!("opening the replay store: {e}"))?;
    let frame = |design: &Design| proto::encode_message(&design.message());

    let mut scratch = Tracer::new();
    let mut ignored = Counters::default();
    replay_one(&mut scratch, 0, &frame(warmup), &mut store, &mut ignored)?;
    if plan.primed {
        for design in &plan.designs {
            replay_one(&mut scratch, 0, &frame(design), &mut store, &mut ignored)?;
        }
    }

    let mut tracer = Tracer::new();
    let mut counters = Counters::default();
    let mut digests = Vec::with_capacity(plan.requests.len());
    let mut checked = vec![false; plan.designs.len()];
    let mut check_time = Duration::ZERO;
    let mut first_verdicts = Vec::new();
    for (request, &d) in plan.requests.iter().enumerate() {
        let design = &plan.designs[d];
        let bytes = frame(design);
        let result =
            replay_one(&mut tracer, request, &bytes, &mut store, &mut counters).and_then(|r| {
                first_verdicts.push(r.first_verdict);
                if !checked[d] {
                    checked[d] = true;
                    let start = wallclock::now();
                    let confirmed = confirm(&r);
                    check_time += start.elapsed();
                    counters.confirmed += confirmed?;
                }
                Ok(r.digest)
            });
        digests.push(result.map_err(|e| format!("'{}': {e}", design.name())));
    }

    let self_times = tracer.self_times();
    let mut self_time: BTreeMap<&'static str, Duration> = BTreeMap::new();
    let mut request_times = Vec::new();
    for (span, t) in tracer.spans.iter().zip(self_times) {
        *self_time.entry(span.name).or_default() += t;
        if span.parent.is_none() {
            request_times.push(span.end - span.start);
        }
    }
    Ok(Trace {
        digests,
        self_time,
        request_times,
        first_verdicts,
        check_time,
        counters,
        tracer,
    })
}
