//! Seeded workload plans: which designs exist, which requests are measured,
//! and what the server must answer for each of them.
//!
//! A plan is a pure function of (workload, seed, seconds). Sizes are drawn
//! stratified — each request gets its own slice of the size range, jittered
//! by the seed — so every seed yields the same cost distribution and the
//! reported percentiles compare across seeds.

use sla_atpg::{AtpgOptions, LearningMode, WorkBudget};
use sla_circuits::{
    industrial_circuit, retimed_circuit, scale_circuit, synthesize, table5_circuit,
    IndustrialConfig, RetimedConfig, ScaleConfig, SynthConfig, Table5Config,
};
use sla_core::LearnOptions;
use sla_netlist::writer::write_bench;
use sla_netlist::Netlist;
use sla_sim::{collapsed_fault_list, Fault, FaultSite};
use sla_store::proto::{self, FaultSpec, Message, Request};
use sla_store::CacheOutcome;
use std::rc::Rc;

/// Every measured request frame is at least this long. `proto::write_message`
/// sends the length prefix as a segment of its own once the frame fills the
/// client's 8 KiB `BufWriter`; keeping all frames above that size makes the
/// resulting Nagle/delayed-ACK stall hit every request alike instead of
/// splitting latencies into two clusters.
pub const MIN_FRAME_BYTES: usize = 8 * 1024;

/// The named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Distinct designs the server has never seen: every request is a store
    /// miss plus a write, and learning dominates.
    LearnCold,
    /// A fixed design set primed in set-up: every measured request is a store
    /// hit, and search dominates.
    AtpgWarm,
    /// A few ~256k-gate designs: parse, frame decode and per-request arena
    /// costs are a material share.
    IngestLarge,
}

impl Workload {
    /// Parses a workload name.
    pub fn from_name(name: &str) -> Option<Workload> {
        match name {
            "learn_cold" => Some(Workload::LearnCold),
            "atpg_warm" => Some(Workload::AtpgWarm),
            "ingest_large" => Some(Workload::IngestLarge),
            _ => None,
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::LearnCold => "learn_cold",
            Workload::AtpgWarm => "atpg_warm",
            Workload::IngestLarge => "ingest_large",
        }
    }
}

/// SplitMix64: a small deterministic generator for plan decisions.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xa076_1d64_78bd_642f))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// A uniformly random permutation of `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut p: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            p.swap(i, self.below(i + 1));
        }
        p
    }
}

/// `n` stratified draws in `[0, 1)`: draw `i` lies in its own slice
/// `[k/n, (k+1)/n)` of a shuffled slice order, jittered inside the slice.
fn stratified(rng: &mut Rng, n: usize) -> Vec<f64> {
    let order = rng.permutation(n);
    order
        .into_iter()
        .map(|k| (k as f64 + rng.unit()) / n as f64)
        .collect()
}

/// Log-uniform interpolation between `lo` and `hi` at quantile `u`.
fn log_lerp(lo: usize, hi: usize, u: f64) -> usize {
    let (lo, hi) = (lo as f64, hi as f64);
    (lo * (hi / lo).powf(u)).round() as usize
}

/// A netlist in wire form: its name and `.bench` text, shared by every
/// request payload built on it.
#[derive(Debug)]
struct Source {
    name: String,
    bench: Rc<String>,
    gates: usize,
}

impl Source {
    fn new(netlist: &Netlist) -> Source {
        Source {
            name: netlist.name().to_string(),
            bench: Rc::new(write_bench(netlist)),
            gates: netlist.num_gates(),
        }
    }
}

/// One request payload: a netlist in `.bench` form, its fault sample and
/// the session configuration.
#[derive(Debug)]
pub struct Design {
    /// Generator that built the netlist (`synth`, `retimed`, `industrial`,
    /// `table5`, `table5x`, `scale`).
    pub class: &'static str,
    /// Gate count of the netlist.
    pub gates: usize,
    name: String,
    bench: Rc<String>,
    faults: Vec<FaultSpec>,
    learn: Option<LearnOptions>,
    atpg: AtpgOptions,
}

impl Design {
    fn new(
        class: &'static str,
        source: &Source,
        faults: Vec<FaultSpec>,
        config: &Config,
    ) -> Design {
        Design {
            class,
            gates: source.gates,
            name: source.name.clone(),
            bench: Rc::clone(&source.bench),
            faults,
            learn: Some(config.learn.clone()),
            atpg: config.atpg,
        }
    }

    /// The design's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of target faults.
    pub fn faults(&self) -> usize {
        self.faults.len()
    }

    /// The request message, built afresh (it owns a copy of the `.bench`
    /// text, so only the payload being sent holds one).
    pub fn message(&self) -> Message {
        Message::Request(Request {
            name: self.name.clone(),
            bench: self.bench.as_ref().clone(),
            faults: self.faults.clone(),
            learn: self.learn.clone(),
            atpg: self.atpg,
        })
    }
}

/// Session configuration shared by a workload's requests.
#[derive(Debug, Clone)]
struct Config {
    learn: LearnOptions,
    atpg: AtpgOptions,
}

/// A workload instance: designs, measured request order and expectations.
#[derive(Debug)]
pub struct Plan {
    /// Distinct request payloads; requests refer to them by index.
    pub designs: Vec<Design>,
    /// Measured requests, in send order, as design indices.
    pub requests: Vec<usize>,
    /// The server's `--capacity`.
    pub capacity: usize,
    /// Whether set-up sends one cold request per design before timing.
    pub primed: bool,
    /// The cache outcome every measured request must report.
    pub expect: CacheOutcome,
}

impl Plan {
    /// Builds the plan of `workload` for `seed`, sized so that the measured
    /// requests take about `seconds` on a 2-vCPU Xeon VM at 2 threads.
    pub fn generate(workload: Workload, seed: u64, seconds: u64) -> Plan {
        let plan = match workload {
            Workload::LearnCold => learn_cold(seed, seconds),
            Workload::AtpgWarm => atpg_warm(seed, seconds),
            Workload::IngestLarge => ingest_large(seed, seconds),
        };
        for design in &plan.designs {
            // A frame is longer than its `.bench` text; encode only when the
            // text alone does not settle the question.
            if design.bench.len() < MIN_FRAME_BYTES {
                let frame = proto::encode_message(&design.message()).len();
                assert!(
                    frame >= MIN_FRAME_BYTES,
                    "{} frame of '{}' is {frame} bytes, below {MIN_FRAME_BYTES}",
                    workload.name(),
                    design.name
                );
            }
        }
        plan
    }
}

/// The collapsed faults on the output lines of primary-output drivers, in
/// wire form. Such a fault needs only justification, no propagation, so a
/// small sample at a low backtrack limit still yields detections; on these
/// generated circuits nearly every other fault aborts at such limits, which
/// would leave `coverage_bp` at zero.
fn observable_faults(netlist: &Netlist) -> Vec<FaultSpec> {
    let outputs = netlist.outputs();
    let faults: Vec<Fault> = collapsed_fault_list(netlist)
        .into_iter()
        .filter(|f| matches!(f.site, FaultSite::Output(node) if outputs.contains(&node)))
        .collect();
    proto::fault_specs(netlist, &faults)
}

/// Seeded distinct picks of up to `k` of `faults`, in list order.
fn pick_faults(rng: &mut Rng, faults: &[FaultSpec], k: usize) -> Vec<FaultSpec> {
    let mut picks: Vec<usize> = rng.permutation(faults.len()).into_iter().take(k).collect();
    picks.sort_unstable();
    picks.into_iter().map(|i| faults[i].clone()).collect()
}

/// Nominal cost of one `learn_cold` request, used to size the request list.
const LEARN_COLD_MS: u64 = 100;
/// Faults per `learn_cold` request.
const LEARN_COLD_FAULTS: usize = 12;

fn learn_cold(seed: u64, seconds: u64) -> Plan {
    let count = (seconds * 1000 / LEARN_COLD_MS).max(30) as usize;
    let config = Config {
        learn: LearnOptions::default(),
        atpg: AtpgOptions::builder()
            .backtrack_limit(8)
            .learning(LearningMode::ForbiddenValue)
            .build(),
    };
    // Gate ranges per generator, chosen so that the three classes overlap in
    // learning cost (at equal size `industrial` learns several times slower
    // than `synth`) and stay small: learning memory grows with the relation
    // count, and larger designs make the server's peak RSS hinge on the one
    // heaviest design of a seed. The lower ends keep frames above
    // MIN_FRAME_BYTES.
    let classes: [(&str, usize, usize); 3] = [
        ("synth", 350, 390),
        ("retimed", 480, 540),
        ("industrial", 260, 290),
    ];
    let mut rng = Rng::new(seed, 1);
    let per_class = count.div_ceil(classes.len());
    let quantiles: Vec<Vec<f64>> = classes
        .iter()
        .map(|_| stratified(&mut rng, per_class))
        .collect();
    let mut designs = Vec::with_capacity(count);
    let mut used = [0usize; 3];
    while designs.len() < count {
        for c in rng.permutation(classes.len()) {
            if designs.len() == count {
                break;
            }
            let (class, lo, hi) = classes[c];
            let gates = log_lerp(lo, hi, quantiles[c][used[c]]);
            used[c] += 1;
            let name = format!("lc{:04}-{class}", designs.len());
            let flip_flops = gates / 10;
            let design_seed = rng.next_u64();
            let netlist = match class {
                "synth" => synthesize(&SynthConfig::sized(&name, flip_flops, gates, design_seed)),
                "retimed" => {
                    retimed_circuit(&RetimedConfig::sized(&name, flip_flops, gates, design_seed))
                }
                _ => industrial_circuit(&IndustrialConfig::sized(
                    &name,
                    flip_flops,
                    gates,
                    design_seed,
                )),
            };
            let faults = pick_faults(&mut rng, &observable_faults(&netlist), LEARN_COLD_FAULTS);
            designs.push(Design::new(class, &Source::new(&netlist), faults, &config));
        }
    }
    Plan {
        requests: (0..count).collect(),
        designs,
        capacity: 16,
        primed: false,
        expect: CacheOutcome::Miss,
    }
}

/// Nominal cost of one `atpg_warm` request, used to size the request list.
const ATPG_WARM_MS: u64 = 150;

fn atpg_warm(seed: u64, seconds: u64) -> Plan {
    let config = Config {
        learn: LearnOptions::builder().cross_frame(true).build(),
        atpg: AtpgOptions::builder()
            .backtrack_limit(100)
            .learning(LearningMode::ForbiddenValue)
            .build(),
    };
    let mut rng = Rng::new(seed, 2);
    let mut designs = Vec::new();
    // Cross-cell designs: 4-6 plain cells plus 3-6 cross cells, the cross
    // count stratified so every seed covers the same cost range.
    for (i, u) in stratified(&mut rng, 6).into_iter().enumerate() {
        let config_t5x = Table5Config {
            name: format!("aw-t5x-{i}"),
            cells: 4 + i / 2,
            ..Table5Config::with_cross_cells(3 + (u * 4.0) as usize)
        };
        designs.push(("table5x", table5_circuit(&config_t5x)));
    }
    // Plain designs: eight cells is the smallest plain size whose frame
    // reaches MIN_FRAME_BYTES. They are the costliest requests, so they set
    // the tail; a fixed pair of chain depths keeps the tail comparable
    // across seeds.
    for (i, deepest) in [2, 3].into_iter().enumerate() {
        let config_t5 = Table5Config {
            name: format!("aw-t5-{i}"),
            cells: 8,
            depths: vec![1, deepest],
            ..Table5Config::default()
        };
        designs.push(("table5", table5_circuit(&config_t5)));
    }
    let designs: Vec<Design> = designs
        .into_iter()
        .map(|(class, netlist)| {
            let faults = proto::fault_specs(&netlist, &collapsed_fault_list(&netlist));
            Design::new(class, &Source::new(&netlist), faults, &config)
        })
        .collect();
    let rounds = (seconds * 1000)
        .div_ceil(ATPG_WARM_MS * designs.len() as u64)
        .max(3);
    let mut requests = Vec::new();
    for _ in 0..rounds {
        requests.extend(rng.permutation(designs.len()));
    }
    Plan {
        capacity: designs.len(),
        designs,
        requests,
        primed: true,
        expect: CacheOutcome::Hit,
    }
}

/// Nominal cost of one `ingest_large` request, used to size the request list.
const INGEST_LARGE_MS: u64 = 550;
/// Distinct large netlists, sent round robin.
const INGEST_NETLISTS: usize = 3;
/// Faults per `ingest_large` request.
const INGEST_FAULTS: usize = 4;

fn ingest_large(seed: u64, seconds: u64) -> Plan {
    let config = Config {
        learn: LearnOptions::builder()
            .gate_equivalence(false)
            .max_frames(8)
            .budget(WorkBudget::units(4))
            .build(),
        atpg: AtpgOptions::builder().backtrack_limit(8).build(),
    };
    let count = (seconds * 1000 / INGEST_LARGE_MS).max(INGEST_NETLISTS as u64) as usize;
    let mut rng = Rng::new(seed, 3);
    let q = stratified(&mut rng, INGEST_NETLISTS);
    // Four layers and eight flip-flops keep the output cones shallow enough
    // that nearly every sampled fault is detected at the low backtrack limit.
    let sources: Vec<(Source, Vec<FaultSpec>)> = q
        .into_iter()
        .enumerate()
        .map(|(i, u)| {
            let gates = log_lerp(250 << 10, 262 << 10, u);
            let name = format!("il-scale-{i}");
            let netlist = scale_circuit(&ScaleConfig {
                flip_flops: 8,
                ..ScaleConfig::sized(&name, gates, 4, rng.next_u64())
            });
            (Source::new(&netlist), observable_faults(&netlist))
        })
        .collect();
    // Every request carries its own fault sample, so a run's coverage rests
    // on `count` samples rather than on three.
    let designs = (0..count)
        .map(|i| {
            let (source, observable) = &sources[i % INGEST_NETLISTS];
            let faults = pick_faults(&mut rng, observable, INGEST_FAULTS);
            Design::new("scale", source, faults, &config)
        })
        .collect();
    Plan {
        designs,
        requests: (0..count).collect(),
        // Round robin over more netlists than the store holds: FIFO eviction
        // makes every request a miss that parses and learns.
        capacity: INGEST_NETLISTS - 1,
        primed: false,
        expect: CacheOutcome::Miss,
    }
}

/// The throwaway design of the connection warm-up request: unrelated to
/// every workload, large enough to take the same wire path, and sent
/// without learning so it leaves the store empty.
pub fn warmup_design() -> Design {
    let netlist = synthesize(&SynthConfig::sized("warmup", 40, 400, 0x5eed));
    let config = Config {
        learn: LearnOptions::default(),
        atpg: AtpgOptions::builder().backtrack_limit(4).build(),
    };
    let faults: Vec<Fault> = collapsed_fault_list(&netlist).into_iter().take(4).collect();
    let mut design = Design::new(
        "synth",
        &Source::new(&netlist),
        proto::fault_specs(&netlist, &faults),
        &config,
    );
    design.learn = None;
    design
}
