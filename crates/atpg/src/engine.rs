//! The fault-list-level ATPG flow: tied-gate screening, per-fault test
//! generation, sequence validation and fault dropping by fault simulation.
//!
//! # Resilient execution
//!
//! The run is structured as [`AtpgEngine::start`] → [`AtpgEngine::advance`] →
//! [`AtpgEngine::finish`], with [`AtpgEngine::run_with_threads`] as the
//! one-shot wrapper. The explicit [`RunProgress`] state between the steps is
//! what the resilience layer builds on:
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
//!
//! # Speculation window
//!
//! Each `advance` call runs its searches on one [`sla_par::with_pool`] whose
//! workers live for the whole call. The workers' generators borrow state
//! built once per call (the compiled learned adjacency) or once per engine
//! (the levelization). Exactly `threads` searches are in flight, always on
//! the lowest unclassified faults not yet submitted, and results merge
//! strictly in fault order. A fault the serial run searches was dropped by
//! no earlier test, so speculating on it is never wasted; waste can only
//! hit faults that an earlier-merged sequence drops.

use crate::config::AtpgOptions;
use crate::learned::{LearnedData, LiteralAdjacency};
use crate::tgen::{GenOutcome, GenResult, TestGenerator};
use crate::Result;
use sla_netlist::levelize::{levelize, Levelization};
use sla_netlist::{FastHashMap, Netlist};
use sla_par::JobOutcome;
use sla_sim::{Fault, FaultSite, TestSequence};
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
    /// The fault was classified untestable: by the tied-gate argument (a
    /// proof, paper §4), or because its search was exhausted at the maximum
    /// window ([`GenOutcome::Untestable`]), which is not a proof — see
    /// ROADMAP.md item 1.
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
    /// Speculative searches whose results were discarded: the fault was
    /// classified (dropped by an earlier-merged sequence) before its merge
    /// turn, or the search was still in flight when the run stopped and was
    /// drained. Results already received for faults that a budget stop
    /// leaves unclassified are not counted. Always 0 on the serial path,
    /// and 0 without fault dropping on a run the budget does not stop. A
    /// perf diagnostic: it varies with the thread count and the search
    /// timing, never with the verdicts.
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
/// [`AtpgEngine::with_learned`], then call [`AtpgEngine::run_with_threads`]
/// on a fault list.
#[derive(Debug)]
pub struct AtpgEngine<'a> {
    netlist: &'a Netlist,
    config: AtpgOptions,
    learned: LearnedData,
    levels: Levelization<'a>,
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
    /// The per-fault searches are sharded across `threads` worker threads,
    /// which the caller chooses (binaries read `sla_par::thread_count()` at
    /// their edge). Per-fault verdicts, backtrack and decision counts,
    /// dropped-fault sets and generated sequences are **bit-identical** for
    /// every thread count; `threads = 1` runs the searches inline in exact
    /// serial order.
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
    /// [`AtpgEngine::advance_observed`] without an observer; it documents
    /// how the searches are scheduled.
    pub fn advance(
        &self,
        faults: &[Fault],
        threads: usize,
        progress: &mut RunProgress,
        stop_before: Option<usize>,
    ) {
        self.advance_observed(faults, threads, progress, stop_before, |_| {});
    }

    /// [`AtpgEngine::advance`] with an observer: `observe(progress)` runs
    /// after every merge step, each time the merged prefix
    /// ([`RunProgress::next_fault`]) has grown by one fault, while the
    /// workers keep searching. A streaming caller emits verdicts from it.
    ///
    /// Faults are coupled only through fault dropping: the sequence generated
    /// for fault *i* may classify later faults without search, and whether
    /// fault *j* is searched at all depends on every earlier verdict. The
    /// searches therefore run **speculatively in an in-order window**.
    /// Exactly `threads` searches are in flight, each on the lowest-indexed
    /// fault below the stop that is neither classified nor already
    /// submitted (test generation is a pure function of one fault). Results
    /// are received one at a time and merged strictly in fault order,
    /// replaying the serial drop protocol: a result for a fault that an
    /// earlier-merged sequence dropped is discarded, and its backtracks are
    /// not counted, exactly as if it had never been searched. Nothing is
    /// submitted once the budget is exhausted, and searches still in flight
    /// when the run stops are drained; both kinds of discarded search count
    /// in [`AtpgStats::wasted_speculations`].
    ///
    /// The learned adjacency is compiled once per call and every worker's
    /// generator borrows it, together with the engine's levelization. With
    /// `threads <= 1` each job runs inline at submission, so the same loop
    /// is the exact serial order: check the budget, search, merge.
    pub fn advance_observed(
        &self,
        faults: &[Fault],
        threads: usize,
        progress: &mut RunProgress,
        stop_before: Option<usize>,
        mut observe: impl FnMut(&RunProgress),
    ) {
        let stop = stop_before.unwrap_or(faults.len()).min(faults.len());
        if progress.next_fault >= stop {
            return;
        }
        let threads = threads.max(1);
        let budget = self.config.budget;
        let adjacency = LiteralAdjacency::for_mode(
            &self.learned,
            self.config.learning,
            self.netlist.num_nodes(),
        );
        let mut wasted = 0usize;
        sla_par::with_pool(
            threads,
            |_worker| TestGenerator::new(self.netlist, self.levels, &adjacency, self.config),
            |generator, idx: usize| (idx, self.generate_quarantined(generator, faults, idx)),
            |pool| {
                // Results received ahead of their merge turn. Generation is
                // a pure function of the fault, so a held result stays valid
                // as long as its fault is unclassified.
                let mut held: FastHashMap<usize, JobOutcome<GenResult>> = FastHashMap::default();
                // Every fault in `next_fault..cursor` is classified or has
                // been submitted.
                let mut cursor = progress.next_fault;
                let mut in_flight = 0usize;
                loop {
                    // Ordered merge: strictly ascending fault index,
                    // replaying the serial loop (including dropping and the
                    // budget stop).
                    let mut exhausted = false;
                    while progress.next_fault < stop {
                        let next = progress.next_fault;
                        if progress.verdict(next).is_some() {
                            // Classified without a search (tied screening
                            // or dropped): the serial run never searched
                            // it, so a held result is wasted work.
                            if held.remove(&next).is_some() {
                                wasted += 1;
                            }
                        } else if budget.exhausted(progress.budget_spent) {
                            // Same check position as a serial loop: a pure
                            // function of the merged prefix, so every thread
                            // count stops at this exact fault.
                            exhausted = true;
                            break;
                        } else if let Some(outcome) = held.remove(&next) {
                            self.absorb(next, outcome, faults, progress);
                        } else {
                            break;
                        }
                        progress.next_fault += 1;
                        observe(progress);
                    }
                    if exhausted || progress.next_fault >= stop {
                        break;
                    }
                    // Refill the window from the lowest faults that are
                    // neither classified nor submitted. The merge blocker is
                    // always among them or already in flight.
                    cursor = cursor.max(progress.next_fault);
                    while in_flight < threads && cursor < stop {
                        if progress.verdict(cursor).is_none() {
                            pool.submit(cursor);
                            in_flight += 1;
                        }
                        cursor += 1;
                    }
                    if in_flight == 0 {
                        // Unreachable: the merge blocker is unclassified,
                        // unheld and below `stop`, so it is in flight now.
                        break;
                    }
                    let (i, outcome) = pool.recv();
                    in_flight -= 1;
                    if progress.verdict(i).is_some() {
                        wasted += 1;
                    } else {
                        held.insert(i, outcome);
                    }
                }
                for _ in 0..in_flight {
                    pool.recv();
                }
                wasted += in_flight;
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
        // index (impossible by construction — the window only submits
        // indices below `stop`) becomes a quarantined outcome, not a panic.
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

    /// Merges the generation outcome of fault `i` into the run state, at
    /// fault `i`'s turn in the in-order merge.
    fn absorb(
        &self,
        i: usize,
        outcome: JobOutcome<GenResult>,
        faults: &[Fault],
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
                    let hit =
                        sla_sim::detected_faults(self.netlist, self.levels, &targets, &sequence);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LearningMode;
    use sla_core::{LearnOptions, SequentialLearner, WorkBudget};
    use sla_netlist::{GateType, NetlistBuilder};
    use sla_sim::{collapsed_fault_list, full_fault_list, FaultSimulator};

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
        let run = engine.run_with_threads(&faults, sla_par::thread_count());
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
        let run = engine.run_with_threads(&faults, sla_par::thread_count());
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
            .run_with_threads(&faults, sla_par::thread_count());
        for mode in [LearningMode::ForbiddenValue, LearningMode::KnownValue] {
            let run = AtpgEngine::new(&n, AtpgOptions::builder().learning(mode).build())
                .unwrap()
                .with_learned(learned.clone())
                .run_with_threads(&faults, sla_par::thread_count());
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
            .run_with_threads(&faults, sla_par::thread_count());
        let cfg = AtpgOptions::builder().fault_dropping(false).build();
        let without_drop = AtpgEngine::new(&n, cfg)
            .unwrap()
            .run_with_threads(&faults, sla_par::thread_count());
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

    /// What the in-order window guarantees about wasted speculation,
    /// whatever the timing: the serial run wastes nothing, and neither does
    /// a run without fault dropping. A fault the serial run searches was
    /// dropped by no earlier test, so only dropped faults (detected by
    /// another fault's sequence: `detected - sequences` of them) can be
    /// wasted, and a budget stop drains at most one search per worker on
    /// top.
    #[test]
    fn speculation_waste_is_bounded_by_dropped_faults() {
        let n = sample();
        let faults = full_fault_list(&n);
        let engine = AtpgEngine::new(&n, AtpgOptions::default()).unwrap();
        let serial = engine.run_with_threads(&faults, 1);
        assert_eq!(serial.stats.wasted_speculations, 0, "serial never wastes");
        let dropped = serial.stats.detected - serial.stats.sequences;
        for threads in [2, 4] {
            let sharded = engine.run_with_threads(&faults, threads);
            assert_eq!(serial.status, sharded.status, "t={threads}");
            assert!(
                sharded.stats.wasted_speculations <= dropped,
                "only dropped faults can be wasted (t={threads}): {} > {dropped}",
                sharded.stats.wasted_speculations
            );
        }

        let independent =
            AtpgEngine::new(&n, AtpgOptions::builder().fault_dropping(false).build()).unwrap();
        for threads in [1, 2, 4] {
            let run = independent.run_with_threads(&faults, threads);
            assert_eq!(
                run.stats.wasted_speculations, 0,
                "nothing is dropped, so nothing is wasted (t={threads})"
            );
        }

        let limited = AtpgEngine::new(
            &n,
            AtpgOptions::builder()
                .budget(WorkBudget::units(serial.stats.budget_spent / 2))
                .build(),
        )
        .unwrap();
        let limited_serial = limited.run_with_threads(&faults, 1);
        assert!(limited_serial
            .status
            .contains(&FaultStatus::Aborted(AbortReason::Budget)));
        assert_eq!(limited_serial.stats.wasted_speculations, 0);
        for threads in [2, 4] {
            let run = limited.run_with_threads(&faults, threads);
            assert_eq!(limited_serial.status, run.status, "t={threads}");
            let bound = run.stats.detected - run.stats.sequences + threads;
            assert!(
                run.stats.wasted_speculations <= bound,
                "a budget stop drains at most one search per worker (t={threads}): {} > {bound}",
                run.stats.wasted_speculations
            );
        }
    }

    #[test]
    fn stats_cover_the_whole_fault_list() {
        let n = sample();
        let faults = full_fault_list(&n);
        let run = AtpgEngine::new(&n, AtpgOptions::builder().backtrack_limit(100).build())
            .unwrap()
            .run_with_threads(&faults, sla_par::thread_count());
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
                // Speculation varies with the slicing and the timing, so
                // the one documented thread-variant diagnostic is excluded.
                run.stats.wasted_speculations = one_shot.stats.wasted_speculations;
                assert_eq!(run, one_shot, "t={threads} boundary={boundary}");
            }
        }
    }
}
