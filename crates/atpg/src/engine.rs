//! The fault-list-level ATPG flow: tied-gate screening, per-fault test
//! generation, sequence validation and fault dropping by fault simulation.
//!
//! # Resilient execution
//!
//! The run is structured as [`AtpgEngine::start`] → [`AtpgEngine::advance`] →
//! [`AtpgEngine::finish`], with [`AtpgEngine::run`] as the one-shot wrapper.
//! The explicit [`RunProgress`] state between the steps is what the
//! resilience layer builds on:
//!
//! * **Deterministic budgets** — [`AtpgOptions::budget`] bounds the run in
//!   work units (one per decision, one per backtrack), charged at the serial
//!   merge boundary. The stopping point is a pure function of the merged
//!   fault prefix, so a budget-limited run reports the *same* classified
//!   prefix for every `SLA_THREADS`; the unprocessed tail is classified
//!   [`AbortReason::Budget`].
//! * **Checkpoint/resume** — `advance` accepts a `stop_before` fault index;
//!   the suspended [`RunProgress`] can be snapshotted (see `sla-snapshot`)
//!   and later rebuilt with [`RunProgress::from_parts`], and the resumed run
//!   is bit-identical to an uninterrupted one.
//! * **Panic quarantine** — each per-fault search runs inside
//!   [`sla_par::quarantine`]; a panicking search poisons only that fault
//!   (classified [`AbortReason::Panic`], message recorded in
//!   [`AtpgRun::panics`] in strict fault order) and the run carries on.

use crate::config::AtpgOptions;
use crate::learned::LearnedData;
use crate::tgen::{GenOutcome, GenResult, TestGenerator};
use crate::Result;
use sla_netlist::levelize::{levelize, Levelization};
use sla_netlist::{FastHashMap, Netlist};
use sla_par::JobOutcome;
use sla_sim::{Fault, FaultSimulator, FaultSite, TestSequence};
use std::time::Duration;

/// Why a fault ended the run unclassified.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AbortReason {
    /// The per-fault backtrack/decision limit was exhausted without a verdict.
    Limit,
    /// The run-level work budget ran out before this fault was searched.
    Budget,
    /// The search for this fault panicked and was quarantined.
    Panic,
}

/// Final classification of a fault after the ATPG run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultStatus {
    /// A validated test sequence detects the fault (directly or by fault
    /// simulation of a sequence generated for another fault).
    Detected,
    /// The fault was proven untestable (tied-gate argument or exhausted search
    /// at the maximum window).
    Untestable,
    /// No verdict, for the recorded reason.
    Aborted(AbortReason),
}

/// Aggregate statistics of one ATPG run (the columns of Table 5).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AtpgStats {
    /// Number of target faults.
    pub total_faults: usize,
    /// Faults detected (including by fault simulation of other tests).
    pub detected: usize,
    /// Faults classified untestable.
    pub untestable: usize,
    /// Faults aborted (any [`AbortReason`]).
    pub aborted: usize,
    /// Faults classified untestable directly from tied gates, without search.
    pub untestable_from_ties: usize,
    /// Total backtracks spent.
    pub backtracks: usize,
    /// Total decisions made.
    pub decisions: usize,
    /// Number of generated test sequences.
    pub sequences: usize,
    /// Total number of test vectors (frames) across all sequences.
    pub test_vectors: usize,
    /// Speculative generations discarded because an earlier-merged sequence
    /// dropped the fault before its merge turn (always 0 on the serial
    /// path). A perf diagnostic: it varies with the thread count and wave
    /// partition, never with the verdicts.
    pub wasted_speculations: usize,
    /// Work units charged against [`AtpgOptions::budget`] (decisions +
    /// backtracks of merged searches). Deterministic across thread counts.
    pub budget_spent: u64,
    /// Wall-clock time of the run.
    pub cpu: Duration,
}

impl AtpgStats {
    /// Fault coverage in basis points (1/100 of a percent): detected / total.
    ///
    /// Integer on purpose: coverage is pipeline output, and the determinism
    /// contract keeps float arithmetic out of the pipeline crates entirely
    /// (`sla-lint` rule `float-arith`). 10000 = 100% coverage.
    pub fn fault_coverage_bp(&self) -> u32 {
        if self.total_faults == 0 {
            return 0;
        }
        (self.detected as u64 * 10_000 / self.total_faults as u64) as u32
    }

    /// Test coverage in basis points: detected / (total - untestable), the
    /// paper's "fault coverage excluding untestable faults". 10000 = 100%.
    pub fn test_coverage_bp(&self) -> u32 {
        let testable = self.total_faults.saturating_sub(self.untestable);
        if testable == 0 {
            return 10_000;
        }
        (self.detected as u64 * 10_000 / testable as u64) as u32
    }
}

/// The result of running ATPG over a fault list.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AtpgRun {
    /// Per-fault classification, parallel to the input fault list.
    pub status: Vec<FaultStatus>,
    /// All generated (and validated) test sequences.
    pub sequences: Vec<TestSequence>,
    /// Quarantined per-fault panics as `(fault index, message)`, in strict
    /// fault order. Empty on a healthy run.
    pub panics: Vec<(usize, String)>,
    /// Aggregate statistics.
    pub stats: AtpgStats,
}

/// Resumable state of a partially executed ATPG run.
///
/// Produced by [`AtpgEngine::start`], mutated by [`AtpgEngine::advance`],
/// consumed by [`AtpgEngine::finish`]. All fields are a pure function of the
/// merged fault prefix — except `wasted_speculations`, which is a
/// thread-count-dependent perf diagnostic and is deliberately excluded from
/// [`RunProgress::from_parts`] (snapshots reset it to zero).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunProgress {
    /// First fault index not yet merged (everything below is classified or
    /// was skipped as already classified).
    next_fault: usize,
    /// Per-fault verdicts; `None` = not yet classified.
    status: Vec<Option<FaultStatus>>,
    /// Validated test sequences generated so far, in merge order.
    sequences: Vec<TestSequence>,
    backtracks: usize,
    decisions: usize,
    test_vectors: usize,
    untestable_from_ties: usize,
    wasted_speculations: usize,
    budget_spent: u64,
    panics: Vec<(usize, String)>,
}

impl RunProgress {
    /// Rebuilds progress from snapshotted parts (the inverse of the
    /// accessors). `wasted_speculations` is intentionally not a parameter:
    /// it is thread-count-dependent and resumed runs restart it at zero.
    #[allow(clippy::too_many_arguments)]
    pub fn from_parts(
        next_fault: usize,
        status: Vec<Option<FaultStatus>>,
        sequences: Vec<TestSequence>,
        backtracks: usize,
        decisions: usize,
        test_vectors: usize,
        untestable_from_ties: usize,
        budget_spent: u64,
        panics: Vec<(usize, String)>,
    ) -> Self {
        RunProgress {
            next_fault,
            status,
            sequences,
            backtracks,
            decisions,
            test_vectors,
            untestable_from_ties,
            wasted_speculations: 0,
            budget_spent,
            panics,
        }
    }

    /// First fault index not yet merged.
    pub fn next_fault(&self) -> usize {
        self.next_fault
    }

    /// Per-fault verdicts so far (`None` = unclassified).
    pub fn status(&self) -> &[Option<FaultStatus>] {
        &self.status
    }

    /// Validated sequences generated so far.
    pub fn sequences(&self) -> &[TestSequence] {
        &self.sequences
    }

    /// Total backtracks merged so far.
    pub fn backtracks(&self) -> usize {
        self.backtracks
    }

    /// Total decisions merged so far.
    pub fn decisions(&self) -> usize {
        self.decisions
    }

    /// Total test vectors across the sequences so far.
    pub fn test_vectors(&self) -> usize {
        self.test_vectors
    }

    /// Faults classified untestable by tied-gate screening.
    pub fn untestable_from_ties(&self) -> usize {
        self.untestable_from_ties
    }

    /// Work units charged so far.
    pub fn budget_spent(&self) -> u64 {
        self.budget_spent
    }

    /// Quarantined panics so far, in merge order.
    pub fn panics(&self) -> &[(usize, String)] {
        &self.panics
    }

    /// Returns `true` once every fault is classified or skipped.
    pub fn is_complete(&self) -> bool {
        self.next_fault >= self.status.len()
    }

    /// Verdict of fault `i` so far (`None`: unclassified or out of range).
    fn verdict(&self, i: usize) -> Option<FaultStatus> {
        self.status.get(i).copied().flatten()
    }

    /// Records a verdict for fault `i`; out-of-range indices are ignored
    /// (total by construction — `status` is parallel to the fault list).
    fn classify(&mut self, i: usize, verdict: FaultStatus) {
        if let Some(slot) = self.status.get_mut(i) {
            *slot = Some(verdict);
        }
    }
}

/// Sequential ATPG engine.
///
/// Construct with [`AtpgEngine::new`], optionally attach learned data with
/// [`AtpgEngine::with_learned`], then call [`AtpgEngine::run`] on a fault list.
#[derive(Debug)]
pub struct AtpgEngine<'a> {
    netlist: &'a Netlist,
    config: AtpgOptions,
    learned: LearnedData,
    levels: Levelization,
    /// Fault-injection hook: the search for this fault index panics instead
    /// of running, exercising the quarantine path deterministically.
    panic_at: Option<usize>,
}

impl<'a> AtpgEngine<'a> {
    /// Creates an engine without learned data.
    ///
    /// # Errors
    ///
    /// Returns an error when the netlist cannot be levelized.
    pub fn new(netlist: &'a Netlist, config: AtpgOptions) -> Result<Self> {
        Ok(AtpgEngine {
            netlist,
            config,
            learned: LearnedData::new(),
            levels: levelize(netlist)?,
            panic_at: None,
        })
    }

    /// Attaches learned data (implications and tied gates). The learning mode
    /// in the configuration decides how the implications are used.
    pub fn with_learned(mut self, learned: LearnedData) -> Self {
        self.learned = learned;
        self
    }

    /// Fault-injection hook: the search for fault index `idx` panics instead
    /// of running. The panic is quarantined like any real one — the fault is
    /// classified [`AbortReason::Panic`] and everything else proceeds — so
    /// the harness in `sla-snapshot` can assert the degradation contract at
    /// a seed-chosen point. Deterministic across thread counts (a
    /// speculative panic for a fault that an earlier sequence drops is
    /// discarded exactly like any other speculative result).
    pub fn with_panic_at(mut self, idx: usize) -> Self {
        self.panic_at = Some(idx);
        self
    }

    /// The active configuration.
    pub fn config(&self) -> &AtpgOptions {
        &self.config
    }

    /// The attached learned data.
    pub fn learned(&self) -> &LearnedData {
        &self.learned
    }

    /// Runs test generation over `faults` and returns per-fault statuses,
    /// the generated sequences and aggregate statistics.
    ///
    /// The per-fault searches are sharded across worker threads; the count
    /// comes from the `SLA_THREADS` environment variable (default: the
    /// machine's available parallelism). Per-fault verdicts, backtrack and
    /// decision counts, dropped-fault sets and generated sequences are
    /// **bit-identical** for every thread count — `SLA_THREADS=1` is the
    /// exact legacy serial path, and [`AtpgEngine::run_with_threads`] pins
    /// the count explicitly.
    pub fn run(&self, faults: &[Fault]) -> AtpgRun {
        self.run_with_threads(faults, sla_par::thread_count())
    }

    /// [`AtpgEngine::run`] with an explicit worker-thread count.
    pub fn run_with_threads(&self, faults: &[Fault], threads: usize) -> AtpgRun {
        let start = sla_netlist::wallclock::now();
        let mut progress = self.start(faults);
        self.advance(faults, threads, &mut progress, None);
        let mut run = self.finish(progress);
        run.stats.cpu = start.elapsed();
        run
    }

    /// Begins a run: allocates progress and performs tied-gate screening
    /// (a fault stuck at the tied value of its line can never produce a
    /// difference; classified untestable with zero search).
    pub fn start(&self, faults: &[Fault]) -> RunProgress {
        let mut progress = RunProgress {
            next_fault: 0,
            status: vec![None; faults.len()],
            sequences: Vec::new(),
            backtracks: 0,
            decisions: 0,
            test_vectors: 0,
            untestable_from_ties: 0,
            wasted_speculations: 0,
            budget_spent: 0,
            panics: Vec::new(),
        };
        if !self.learned.tied().is_empty() {
            for (i, fault) in faults.iter().enumerate() {
                let line_value = match fault.site {
                    FaultSite::Output(node) => self.learned.tied_value(node),
                    FaultSite::Input { gate, pin } => self
                        .netlist
                        .fanins(gate)
                        .get(pin)
                        .and_then(|&line| self.learned.tied_value(line)),
                };
                if line_value == Some(fault.stuck_at) {
                    progress.classify(i, FaultStatus::Untestable);
                    progress.untestable_from_ties += 1;
                }
            }
        }
        progress
    }

    /// Advances a run up to (not including) fault index `stop_before`
    /// (`None` = to the end of the list), merging verdicts into `progress`
    /// in strict fault order. Stops early — at a deterministic,
    /// thread-count-independent point — when the work budget is exhausted.
    ///
    /// Faults are coupled only through fault dropping: the sequence generated
    /// for fault *i* may classify later faults without search, and whether
    /// fault *j* is searched at all depends on every earlier verdict. The
    /// sharded path therefore generates **speculatively in waves**: the next
    /// few unclassified faults are searched in parallel (test generation is a
    /// pure function of one fault), and the results are merged strictly in
    /// fault order, replaying the serial drop protocol — a speculative result
    /// for a fault that an earlier-merged sequence drops is discarded, and
    /// its backtracks are not counted, exactly as if it had never been
    /// searched. The wave depth adapts to the observed drop density so
    /// drop-heavy fault lists do not drown in wasted speculation.
    pub fn advance(
        &self,
        faults: &[Fault],
        threads: usize,
        progress: &mut RunProgress,
        stop_before: Option<usize>,
    ) {
        let stop = stop_before.unwrap_or(faults.len()).min(faults.len());
        let budget = self.config.budget;
        let fault_sim = FaultSimulator::with_levels(self.netlist, self.levels.clone());

        if threads <= 1 {
            let generator = TestGenerator::with_levels(
                self.netlist,
                self.levels.clone(),
                self.config,
                &self.learned,
            );
            while progress.next_fault < stop {
                let i = progress.next_fault;
                if progress.verdict(i).is_some() {
                    progress.next_fault += 1;
                    continue;
                }
                if budget.exhausted(progress.budget_spent) {
                    return;
                }
                let outcome = self.generate_quarantined(&generator, faults, i);
                self.absorb(i, outcome, faults, &fault_sim, progress);
                progress.next_fault += 1;
            }
            return;
        }

        // Fanout-cone masks of the fault sites, used to partition the
        // speculative waves: a test generated for fault *i* mostly
        // exercises *i*'s cone, so faults whose cones are disjoint are
        // rarely dropped by each other's sequences — speculating them
        // together wastes almost nothing. This is a heuristic, not a
        // soundness argument: the strict fault-order merge below replays
        // the drop protocol regardless of how the waves were cut, so
        // only the wasted-speculation count depends on it. Waves only read
        // faults in `next_fault..stop`, so only those get a mask.
        let cones = FaultCones::build(self.netlist, faults, progress.next_fault..stop);
        let mut wasted = 0usize;
        sla_par::with_pool(
            threads,
            |_worker| {
                TestGenerator::with_levels(
                    self.netlist,
                    self.levels.clone(),
                    self.config,
                    &self.learned,
                )
            },
            |generator, idx: usize| (idx, self.generate_quarantined(generator, faults, idx)),
            |pool| {
                // Speculation depth: at least one fault per worker; grows
                // on waste-free merges, shrinks when a quarter of the
                // merged results had been dropped by earlier sequences.
                // All of this is a pure function of merged state, so wave
                // boundaries — which affect only performance — are
                // deterministic too.
                let mut wave_cap = threads;
                let mut results: FastHashMap<usize, JobOutcome<GenResult>> = FastHashMap::default();
                let mut union = cones.empty_mask();
                let mut last_wave = 0usize;
                let mut wasted_before = 0usize;
                loop {
                    // Ordered merge: strictly ascending fault index,
                    // replaying the serial loop (including dropping and the
                    // budget stop). A speculative result may wait here across
                    // waves until every earlier fault is classified —
                    // generation is a pure function of the fault, so a held
                    // result stays valid as long as its fault is
                    // unclassified.
                    let mut exhausted = false;
                    while progress.next_fault < stop {
                        let next = progress.next_fault;
                        if progress.verdict(next).is_some() {
                            // Classified without a search (tied screening
                            // or dropped): the serial run never searched
                            // it — a speculative result is wasted work.
                            if results.remove(&next).is_some() {
                                wasted += 1;
                            }
                            progress.next_fault += 1;
                        } else if budget.exhausted(progress.budget_spent) {
                            // Same check position as the serial loop: a
                            // pure function of the merged prefix, so every
                            // thread count stops at this exact fault.
                            exhausted = true;
                            break;
                        } else if let Some(outcome) = results.remove(&next) {
                            self.absorb(next, outcome, faults, &fault_sim, progress);
                            progress.next_fault += 1;
                        } else {
                            break;
                        }
                    }
                    if last_wave > 0 {
                        let wave_waste = wasted - wasted_before;
                        if wave_waste * 4 >= last_wave {
                            wave_cap = (wave_cap / 2).max(threads);
                        } else if wave_waste == 0 {
                            wave_cap = (wave_cap * 2).min(8 * threads);
                        }
                    }
                    if exhausted || progress.next_fault >= stop {
                        break;
                    }
                    // Build the next wave: the merge blocker itself (so
                    // every wave guarantees progress), then upcoming
                    // unclassified faults whose cones are disjoint from
                    // everything already in the wave.
                    let blocker = progress.next_fault;
                    let mut wave = vec![blocker];
                    union.copy_from(cones.mask(blocker));
                    let scan_limit = 8 * wave_cap;
                    let mut idx = blocker + 1;
                    let mut scanned = 0usize;
                    while wave.len() < wave_cap && idx < stop && scanned < scan_limit {
                        if progress.verdict(idx).is_none()
                            && !results.contains_key(&idx)
                            && union.disjoint(cones.mask(idx))
                        {
                            union.union_with(cones.mask(idx));
                            wave.push(idx);
                        }
                        scanned += 1;
                        idx += 1;
                    }
                    for &i in &wave {
                        pool.submit(i);
                    }
                    for _ in 0..wave.len() {
                        let (i, result) = pool.recv();
                        results.insert(i, result);
                    }
                    last_wave = wave.len();
                    wasted_before = wasted;
                }
            },
        );
        progress.wasted_speculations += wasted;
    }

    /// Completes a run: remaining unclassified faults are charged to the
    /// exhausted budget and the aggregate statistics are computed. `cpu` is
    /// left at zero — only the one-shot wrappers measure wall clock.
    pub fn finish(&self, progress: RunProgress) -> AtpgRun {
        let RunProgress {
            status,
            sequences,
            backtracks,
            decisions,
            test_vectors,
            untestable_from_ties,
            wasted_speculations,
            budget_spent,
            panics,
            ..
        } = progress;
        let status: Vec<FaultStatus> = status
            .into_iter()
            .map(|s| s.unwrap_or(FaultStatus::Aborted(AbortReason::Budget)))
            .collect();
        let stats = AtpgStats {
            total_faults: status.len(),
            detected: status
                .iter()
                .filter(|s| **s == FaultStatus::Detected)
                .count(),
            untestable: status
                .iter()
                .filter(|s| **s == FaultStatus::Untestable)
                .count(),
            aborted: status
                .iter()
                .filter(|s| matches!(s, FaultStatus::Aborted(_)))
                .count(),
            untestable_from_ties,
            backtracks,
            decisions,
            sequences: sequences.len(),
            test_vectors,
            wasted_speculations,
            budget_spent,
            cpu: Duration::ZERO,
        };
        AtpgRun {
            status,
            sequences,
            panics,
            stats,
        }
    }

    /// Runs one per-fault search inside the panic quarantine (honoring the
    /// injection hook), so a panicking search becomes a mergeable outcome
    /// instead of killing a worker.
    fn generate_quarantined(
        &self,
        generator: &TestGenerator<'_>,
        faults: &[Fault],
        idx: usize,
    ) -> JobOutcome<GenResult> {
        let panic_at = self.panic_at;
        // Resolve the fault before entering the quarantine: an out-of-range
        // index (impossible by construction — waves only submit indices
        // below `stop`) becomes a quarantined outcome, not a panic.
        let Some(&fault) = faults.get(idx) else {
            return JobOutcome::Panicked(format!("fault index {idx} out of range"));
        };
        sla_par::quarantine(move || {
            if panic_at == Some(idx) {
                panic!("injected panic at fault {idx}");
            }
            generator.generate(&fault)
        })
    }

    /// Merges the generation outcome of fault `i` into the run state — the
    /// loop body shared verbatim by the serial path and the in-order merge of
    /// the sharded path (which is what keeps the two bit-identical).
    fn absorb(
        &self,
        i: usize,
        outcome: JobOutcome<GenResult>,
        faults: &[Fault],
        fault_sim: &FaultSimulator<'_>,
        progress: &mut RunProgress,
    ) {
        let result = match outcome {
            JobOutcome::Done(result) => result,
            JobOutcome::Panicked(message) => {
                // Quarantine: only this fault is poisoned; no work units are
                // charged (the search produced none that were merged).
                progress.classify(i, FaultStatus::Aborted(AbortReason::Panic));
                progress.panics.push((i, message));
                return;
            }
        };
        progress.backtracks += result.backtracks;
        progress.decisions += result.decisions;
        progress.budget_spent += (result.backtracks + result.decisions) as u64;
        match result.outcome {
            GenOutcome::Detected(sequence) => {
                progress.classify(i, FaultStatus::Detected);
                if self.config.fault_dropping {
                    // Drop every remaining fault the new sequence detects.
                    let remaining: Vec<(usize, Fault)> = faults
                        .iter()
                        .enumerate()
                        .skip(i + 1)
                        .filter(|(j, _)| progress.verdict(*j).is_none())
                        .map(|(j, &f)| (j, f))
                        .collect();
                    let targets: Vec<Fault> = remaining.iter().map(|&(_, f)| f).collect();
                    let hit = fault_sim.detected_faults(&targets, &sequence);
                    for (&(j, _), &detected) in remaining.iter().zip(&hit) {
                        if detected {
                            progress.classify(j, FaultStatus::Detected);
                        }
                    }
                }
                progress.test_vectors += sequence.len();
                progress.sequences.push(sequence);
            }
            GenOutcome::Untestable => progress.classify(i, FaultStatus::Untestable),
            GenOutcome::Aborted => progress.classify(i, FaultStatus::Aborted(AbortReason::Limit)),
        }
    }
}

/// A word-packed node set (one bit per netlist node).
#[derive(Clone)]
struct ConeMask(Vec<u64>);

impl ConeMask {
    fn empty(words: usize) -> ConeMask {
        ConeMask(vec![0; words])
    }

    #[inline]
    fn get(&self, idx: usize) -> bool {
        self.0
            .get(idx / 64)
            .is_some_and(|word| word & (1 << (idx % 64)) != 0)
    }

    #[inline]
    fn set(&mut self, idx: usize) {
        if let Some(word) = self.0.get_mut(idx / 64) {
            *word |= 1 << (idx % 64);
        }
    }

    fn disjoint(&self, other: &ConeMask) -> bool {
        self.0.iter().zip(&other.0).all(|(a, b)| a & b == 0)
    }

    fn union_with(&mut self, other: &ConeMask) {
        for (a, b) in self.0.iter_mut().zip(&other.0) {
            *a |= b;
        }
    }

    fn copy_from(&mut self, other: &ConeMask) {
        self.0.copy_from_slice(&other.0);
    }
}

/// Fanout-cone masks of the fault sites in one index range of the fault
/// list, deduplicated by site node (every fault on one gate — both
/// polarities, every pin — shares the gate's cone).
struct FaultCones {
    masks: Vec<ConeMask>,
    /// Mask of fault `offset + k` is `masks[index[k]]`.
    index: Vec<usize>,
    offset: usize,
    /// All-zero mask of the right width: the total-lookup fallback of
    /// [`FaultCones::mask`] and the seed of [`FaultCones::empty_mask`].
    empty: ConeMask,
}

impl FaultCones {
    /// Masks for the faults with indices in `range` (an empty set when the
    /// range does not lie inside the list).
    fn build(netlist: &Netlist, faults: &[Fault], range: std::ops::Range<usize>) -> FaultCones {
        let words = netlist.num_nodes().div_ceil(64);
        let offset = range.start;
        let mut by_node: FastHashMap<u32, usize> = FastHashMap::default();
        let mut masks: Vec<ConeMask> = Vec::new();
        let index = faults
            .get(range)
            .unwrap_or_default()
            .iter()
            .map(|f| {
                let start = f.site.node();
                *by_node.entry(start.0).or_insert_with(|| {
                    let mut mask = ConeMask::empty(words);
                    mask.set(start.index());
                    let mut stack = vec![start];
                    while let Some(x) = stack.pop() {
                        for &fo in netlist.fanouts(x) {
                            if !mask.get(fo.index()) {
                                mask.set(fo.index());
                                stack.push(fo);
                            }
                        }
                    }
                    masks.push(mask);
                    masks.len() - 1
                })
            })
            .collect();
        FaultCones {
            masks,
            index,
            offset,
            empty: ConeMask::empty(words),
        }
    }

    /// Cone mask of fault `fault`. Total: an index outside the built range
    /// (impossible for wave-submitted indices) yields the empty mask, which
    /// is disjoint from everything — the merge replays the drop protocol
    /// regardless.
    fn mask(&self, fault: usize) -> &ConeMask {
        fault
            .checked_sub(self.offset)
            .and_then(|k| self.index.get(k))
            .and_then(|&m| self.masks.get(m))
            .unwrap_or(&self.empty)
    }

    fn empty_mask(&self) -> ConeMask {
        self.empty.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LearningMode;
    use sla_core::{LearnOptions, SequentialLearner, WorkBudget};
    use sla_netlist::{GateType, NetlistBuilder};
    use sla_sim::{collapsed_fault_list, full_fault_list};

    /// Small sequential circuit with a combinationally redundant gate.
    fn sample() -> Netlist {
        let mut b = NetlistBuilder::new("sample");
        b.input("a");
        b.input("b");
        b.gate("na", GateType::Not, &["a"]).unwrap();
        b.gate("tie0", GateType::And, &["a", "na"]).unwrap();
        b.gate("g", GateType::Nand, &["a", "b"]).unwrap();
        b.gate("h", GateType::Or, &["g", "tie0"]).unwrap();
        b.dff("q", "h").unwrap();
        b.gate("o", GateType::Xor, &["q", "b"]).unwrap();
        b.output("o").unwrap();
        b.build().unwrap()
    }

    #[test]
    fn run_classifies_every_fault_and_validates_tests() {
        let n = sample();
        let engine = AtpgEngine::new(&n, AtpgOptions::default()).unwrap();
        let faults = collapsed_fault_list(&n);
        let run = engine.run(&faults);
        assert_eq!(run.status.len(), faults.len());
        assert!(run.stats.detected > 0);
        assert_eq!(
            run.stats.detected + run.stats.untestable + run.stats.aborted,
            run.stats.total_faults
        );
        assert!(run.panics.is_empty());
        // Every sequence actually detects at least one listed fault.
        let sim = FaultSimulator::new(&n).unwrap();
        for seq in &run.sequences {
            assert!(faults.iter().any(|f| sim.detects(f, seq)));
        }
        assert!(run.stats.fault_coverage_bp() > 0);
        assert!(run.stats.test_coverage_bp() >= run.stats.fault_coverage_bp());
    }

    #[test]
    fn learned_ties_classify_untestable_faults_without_search() {
        let n = sample();
        let learned = LearnedData::from(
            &SequentialLearner::new(&n, LearnOptions::default())
                .learn()
                .unwrap(),
        );
        assert!(
            learned.tied_value(n.require("tie0").unwrap()) == Some(false),
            "learning must find the tied gate"
        );
        let faults = full_fault_list(&n);
        let engine = AtpgEngine::new(&n, AtpgOptions::default())
            .unwrap()
            .with_learned(learned);
        let run = engine.run(&faults);
        assert!(run.stats.untestable_from_ties >= 1);
        // The tie0 stuck-at-0 fault is among the untestable ones.
        let tie0 = n.require("tie0").unwrap();
        let idx = faults
            .iter()
            .position(|f| *f == Fault::output(tie0, false))
            .unwrap();
        assert_eq!(run.status[idx], FaultStatus::Untestable);
    }

    #[test]
    fn learning_modes_do_not_lose_detections() {
        let n = sample();
        let learned = LearnedData::from(
            &SequentialLearner::new(&n, LearnOptions::default())
                .learn()
                .unwrap(),
        );
        let faults = collapsed_fault_list(&n);
        let baseline = AtpgEngine::new(&n, AtpgOptions::default())
            .unwrap()
            .run(&faults);
        for mode in [LearningMode::ForbiddenValue, LearningMode::KnownValue] {
            let run = AtpgEngine::new(&n, AtpgOptions::builder().learning(mode).build())
                .unwrap()
                .with_learned(learned.clone())
                .run(&faults);
            assert!(
                run.stats.detected + run.stats.untestable >= baseline.stats.detected,
                "mode {mode:?} classified fewer faults than the baseline"
            );
            // Detected tests are always validated by the fault simulator.
            let sim = FaultSimulator::new(&n).unwrap();
            for seq in &run.sequences {
                assert!(faults.iter().any(|f| sim.detects(f, seq)));
            }
        }
    }

    #[test]
    fn fault_dropping_reduces_generated_sequences() {
        let n = sample();
        let faults = collapsed_fault_list(&n);
        let with_drop = AtpgEngine::new(&n, AtpgOptions::default())
            .unwrap()
            .run(&faults);
        let cfg = AtpgOptions::builder().fault_dropping(false).build();
        let without_drop = AtpgEngine::new(&n, cfg).unwrap().run(&faults);
        assert!(with_drop.stats.sequences <= without_drop.stats.sequences);
        // Fault simulation of generated sequences can detect faults the
        // generator itself aborted on (the paper relies on this effect), so
        // dropping never lowers coverage.
        assert!(with_drop.stats.detected >= without_drop.stats.detected);
    }

    /// Sharded runs must replay the serial drop protocol bit for bit: same
    /// verdicts, same backtrack/decision totals, same sequences — with fault
    /// dropping both on (speculation discards) and off (fully independent).
    #[test]
    fn sharded_run_matches_serial_run() {
        let n = sample();
        let learned = LearnedData::from(
            &SequentialLearner::new(&n, LearnOptions::default())
                .learn()
                .unwrap(),
        );
        let faults = full_fault_list(&n);
        for dropping in [true, false] {
            let config = AtpgOptions::builder()
                .fault_dropping(dropping)
                .learning(LearningMode::ForbiddenValue)
                .build();
            let engine = AtpgEngine::new(&n, config)
                .unwrap()
                .with_learned(learned.clone());
            let reference = engine.run_with_threads(&faults, 1);
            for threads in [2, 3, 8] {
                let sharded = engine.run_with_threads(&faults, threads);
                assert_eq!(reference.status, sharded.status, "t={threads}");
                assert_eq!(reference.sequences, sharded.sequences, "t={threads}");
                assert_eq!(
                    reference.stats.backtracks, sharded.stats.backtracks,
                    "t={threads}"
                );
                assert_eq!(
                    reference.stats.decisions, sharded.stats.decisions,
                    "t={threads}"
                );
                assert_eq!(
                    reference.stats.untestable_from_ties, sharded.stats.untestable_from_ties,
                    "t={threads}"
                );
                assert_eq!(
                    reference.stats.test_vectors, sharded.stats.test_vectors,
                    "t={threads}"
                );
                assert_eq!(
                    reference.stats.budget_spent, sharded.stats.budget_spent,
                    "t={threads}"
                );
            }
        }
    }

    /// Cone-disjoint wave partitioning bounds speculation waste: faults with
    /// non-overlapping fault cones are rarely dropped by each other's
    /// sequences, so speculating them together wastes almost nothing. The
    /// counts are pinned — a deterministic function of the workload and
    /// thread count — so a regression in the partition (or a return to
    /// blind contiguous waves, which measurably wasted speculations on this
    /// workload during development) shows up here.
    #[test]
    fn cone_disjoint_waves_bound_speculation_waste() {
        let n = sample();
        let faults = full_fault_list(&n);
        let engine = AtpgEngine::new(&n, AtpgOptions::default()).unwrap();
        let serial = engine.run_with_threads(&faults, 1);
        assert_eq!(serial.stats.wasted_speculations, 0, "serial never wastes");
        for threads in [2, 4] {
            let sharded = engine.run_with_threads(&faults, threads);
            assert_eq!(serial.status, sharded.status, "t={threads}");
            assert_eq!(
                sharded.stats.wasted_speculations, 0,
                "cone-disjoint waves must not waste a single speculation on \
                 this workload (t={threads})"
            );
        }
    }

    #[test]
    fn stats_cover_the_whole_fault_list() {
        let n = sample();
        let faults = full_fault_list(&n);
        let run = AtpgEngine::new(&n, AtpgOptions::builder().backtrack_limit(100).build())
            .unwrap()
            .run(&faults);
        assert_eq!(run.stats.total_faults, faults.len());
        assert!(run.stats.cpu.as_nanos() > 0);
        assert_eq!(run.stats.sequences, run.sequences.len());
    }

    /// A finite budget stops the run at the same classified prefix for every
    /// thread count; the unprocessed tail is `Aborted(Budget)` and every
    /// fault classified under the budget agrees with the unlimited run.
    #[test]
    fn budget_limits_the_run_deterministically() {
        let n = sample();
        let faults = full_fault_list(&n);
        let unlimited = AtpgEngine::new(&n, AtpgOptions::default())
            .unwrap()
            .run_with_threads(&faults, 1);
        assert!(unlimited.stats.budget_spent > 0);
        assert!(!unlimited
            .status
            .contains(&FaultStatus::Aborted(AbortReason::Budget)));

        let config = AtpgOptions::builder()
            .budget(WorkBudget::units(unlimited.stats.budget_spent / 2))
            .build();
        let engine = AtpgEngine::new(&n, config).unwrap();
        let reference = engine.run_with_threads(&faults, 1);
        assert!(
            reference
                .status
                .contains(&FaultStatus::Aborted(AbortReason::Budget)),
            "half the budget must leave a tail unprocessed"
        );
        assert!(reference.stats.budget_spent <= unlimited.stats.budget_spent);
        for (i, s) in reference.status.iter().enumerate() {
            if *s != FaultStatus::Aborted(AbortReason::Budget) {
                assert_eq!(
                    *s, unlimited.status[i],
                    "classified-prefix verdicts must match the unlimited run"
                );
            }
        }
        for threads in [2, 4] {
            let sharded = engine.run_with_threads(&faults, threads);
            assert_eq!(reference.status, sharded.status, "t={threads}");
            assert_eq!(reference.sequences, sharded.sequences, "t={threads}");
            assert_eq!(
                reference.stats.budget_spent, sharded.stats.budget_spent,
                "t={threads}"
            );
        }

        // A zero budget searches nothing: every non-tied fault is Budget.
        let zero = AtpgEngine::new(
            &n,
            AtpgOptions::builder().budget(WorkBudget::units(0)).build(),
        )
        .unwrap()
        .run_with_threads(&faults, 1);
        assert_eq!(zero.stats.budget_spent, 0);
        assert!(zero
            .status
            .iter()
            .all(|s| *s == FaultStatus::Aborted(AbortReason::Budget)));
    }

    /// An injected panic is quarantined: only the target fault is poisoned,
    /// the message lands in `panics`, and every thread count agrees.
    #[test]
    fn injected_panic_quarantines_only_that_fault() {
        let n = sample();
        let faults = full_fault_list(&n);
        // Fault 0 is always searched (no ties, nothing earlier to drop it).
        let engine = AtpgEngine::new(&n, AtpgOptions::default())
            .unwrap()
            .with_panic_at(0);
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let reference = engine.run_with_threads(&faults, 1);
        let sharded: Vec<AtpgRun> = [2, 4]
            .iter()
            .map(|&t| engine.run_with_threads(&faults, t))
            .collect();
        std::panic::set_hook(hook);

        assert_eq!(
            reference.status[0],
            FaultStatus::Aborted(AbortReason::Panic)
        );
        assert_eq!(reference.panics.len(), 1);
        assert_eq!(reference.panics[0].0, 0);
        assert!(reference.panics[0].1.contains("injected panic at fault 0"));
        // Every other fault still gets a verdict; the run completes.
        assert!(reference.status[1..]
            .iter()
            .all(|s| *s != FaultStatus::Aborted(AbortReason::Panic)));
        for (t, run) in [2usize, 4].iter().zip(&sharded) {
            assert_eq!(reference.status, run.status, "t={t}");
            assert_eq!(reference.sequences, run.sequences, "t={t}");
            assert_eq!(reference.panics, run.panics, "t={t}");
        }
    }

    /// Advancing in slices (the checkpoint boundaries of the snapshot layer)
    /// and finishing must be bit-identical to the one-shot run.
    #[test]
    fn sliced_advance_matches_one_shot_run() {
        let n = sample();
        let faults = full_fault_list(&n);
        let engine = AtpgEngine::new(&n, AtpgOptions::default()).unwrap();
        let one_shot = {
            let mut run = engine.run_with_threads(&faults, 1);
            run.stats.cpu = Duration::ZERO;
            run
        };
        for threads in [1, 4] {
            for boundary in [1, faults.len() / 2, faults.len().saturating_sub(1)] {
                let mut progress = engine.start(&faults);
                engine.advance(&faults, threads, &mut progress, Some(boundary));
                assert!(progress.next_fault() >= boundary.min(faults.len()));
                engine.advance(&faults, threads, &mut progress, None);
                assert!(progress.is_complete());
                let mut run = engine.finish(progress);
                // Wave partitioning changes with the slicing, so the one
                // documented thread-variant diagnostic is excluded.
                run.stats.wasted_speculations = one_shot.stats.wasted_speculations;
                assert_eq!(run, one_shot, "t={threads} boundary={boundary}");
            }
        }
    }
}
