//! The unified session API: open a netlist, learn (with or without the
//! persistent cache), generate tests, stream verdicts.
//!
//! Every front end — the example binaries, the tests and the `sla-serve`
//! service — speaks this one surface, so a request over the wire and a
//! direct library call run exactly the same code path and produce
//! bit-identical results.

use crate::{LearnedStore, StoreError, StoreKey};
use sla_atpg::{AtpgEngine, AtpgOptions, AtpgRun, FaultStatus, LearnedData, RunProgress};
use sla_core::{LearnOptions, SequentialLearner};
use sla_netlist::{Netlist, NetlistError};
use sla_sim::Fault;

/// How many faults each streaming stride merges before its verdicts are
/// emitted, and so the most verdicts one sink call carries. Strides only
/// batch the emission; they cannot change the verdicts, which are a pure
/// function of the merged fault prefix.
const STREAM_STRIDE: usize = 32;

/// Where a [`Session::learn_cached`] result came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// The learned database was read from the store; no learning ran.
    Hit,
    /// The database was learned fresh (and written back to the store).
    Miss,
    /// Learning ran without a store ([`Session::learn`]).
    Uncached,
}

/// Outcome of a learning step, whatever its source.
#[derive(Debug)]
pub struct LearnReport {
    /// Cache hit, miss, or uncached run.
    pub outcome: CacheOutcome,
    /// Learning work units actually spent (stem injections plus
    /// multiple-node targets). Zero on a cache hit — the acceptance metric
    /// for the warm path.
    pub work_units: u64,
    /// Same-frame implications in the learned database.
    pub implications: usize,
    /// Cross-frame relations (deduplicated).
    pub cross_frame: usize,
    /// Gates tied to constants.
    pub tied: usize,
    /// Why the store could not serve this key, when lookup failed on a
    /// present-but-bad entry. The session treats that as a miss and
    /// repopulates; the error is kept so servers can log the cause chain.
    pub store_error: Option<StoreError>,
}

/// A unit of ATPG work on one netlist: learn once, run ATPG any number of
/// times, all under one thread setting.
#[derive(Debug)]
pub struct Session<'a> {
    netlist: &'a Netlist,
    threads: usize,
    learned: LearnedData,
}

impl<'a> Session<'a> {
    /// Opens a session on `netlist` with the environment's thread count
    /// (`SLA_THREADS`; when it is unset, the machine's available
    /// parallelism).
    pub fn open(netlist: &'a Netlist) -> Session<'a> {
        Session {
            netlist,
            threads: sla_par::thread_count(),
            learned: LearnedData::new(),
        }
    }

    /// Overrides the worker thread count. Results are bit-identical for
    /// every value; this only changes wall-clock time.
    pub fn with_threads(mut self, threads: usize) -> Session<'a> {
        self.threads = threads.max(1);
        self
    }

    /// The netlist this session operates on.
    pub fn netlist(&self) -> &'a Netlist {
        self.netlist
    }

    /// The session's worker thread count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The learned database the next [`Session::atpg`] call will use.
    /// Empty until a `learn` step runs.
    pub fn learned(&self) -> &LearnedData {
        &self.learned
    }

    /// Runs sequential learning on the session netlist and keeps the result
    /// for subsequent ATPG calls.
    pub fn learn(&mut self, options: &LearnOptions) -> Result<LearnReport, NetlistError> {
        let result = SequentialLearner::new(self.netlist, options.clone()).learn()?;
        self.learned = LearnedData::from_learn_result(&result);
        Ok(self.report(CacheOutcome::Uncached, result.stats.budget_spent, None))
    }

    /// Lookup-before-learn: serves the learned database from `store` when a
    /// valid entry exists for (netlist, options), otherwise learns fresh and
    /// writes the result back. A present-but-corrupt entry, or one naming a
    /// node the netlist does not have, is treated as a miss and
    /// repopulated; the typed error lands in [`LearnReport::store_error`].
    pub fn learn_cached(
        &mut self,
        options: &LearnOptions,
        store: &mut LearnedStore,
    ) -> Result<LearnReport, NetlistError> {
        let key = StoreKey::new(self.netlist, options);
        let num_nodes = self.netlist.num_nodes();
        let lookup_err = match store.lookup(&key) {
            Ok(Some(learned)) => match learned.check_nodes(num_nodes) {
                Ok(()) => {
                    self.learned = learned;
                    return Ok(self.report(CacheOutcome::Hit, 0, None));
                }
                Err(node) => Some(StoreError::NodeOutOfRange {
                    path: store.entry_path(&key),
                    node,
                    num_nodes,
                }),
            },
            Ok(None) => None,
            Err(e) => Some(e),
        };
        let result = SequentialLearner::new(self.netlist, options.clone()).learn()?;
        self.learned = LearnedData::from_learn_result(&result);
        // A failed write-back degrades future requests to cold runs but must
        // not fail this one; surface it through the report instead.
        let store_error = match store.insert(key, &self.learned) {
            Ok(()) => lookup_err,
            Err(e) => Some(e),
        };
        Ok(self.report(CacheOutcome::Miss, result.stats.budget_spent, store_error))
    }

    /// The report of a learning step that installed the current database.
    fn report(
        &self,
        outcome: CacheOutcome,
        work_units: u64,
        store_error: Option<StoreError>,
    ) -> LearnReport {
        LearnReport {
            outcome,
            work_units,
            implications: self.learned.implications().len(),
            cross_frame: self.learned.cross_frame().len(),
            tied: self.learned.tied().len(),
            store_error,
        }
    }

    /// Runs ATPG over `faults` with the session's learned database:
    /// [`Session::atpg_streaming`] with a sink that discards the strides.
    pub fn atpg(&self, options: &AtpgOptions, faults: &[Fault]) -> Result<AtpgRun, NetlistError> {
        self.atpg_streaming(options, faults, |_, _| {})
    }

    /// Runs ATPG over `faults` and emits verdicts in strict fault order as
    /// prefixes of the run are merged, before the final [`AtpgRun`] is
    /// returned.
    ///
    /// The whole request is one [`AtpgEngine::advance_observed`] pass: one
    /// worker pool, one compiled learned adjacency, and a speculation window
    /// that runs across stride boundaries. `sink(first, verdicts)` receives
    /// one merged stride per call: the verdicts of faults `first..first +
    /// verdicts.len()`, at most `STREAM_STRIDE` (32) of them, emitted as
    /// soon as the merged prefix covers the stride. The calls are
    /// contiguous and cover every fault exactly once, so a caller can send a
    /// stride as one batch. When the work budget runs out, the merged part
    /// of the current stride comes first, then the tail that
    /// [`AtpgEngine::finish`] classifies, cut into strides the same way.
    /// Verdicts and stride boundaries are identical at every thread count.
    pub fn atpg_streaming(
        &self,
        options: &AtpgOptions,
        faults: &[Fault],
        mut sink: impl FnMut(usize, &[FaultStatus]),
    ) -> Result<AtpgRun, NetlistError> {
        let start = sla_netlist::wallclock::now();
        let engine = AtpgEngine::new(self.netlist, *options)?.with_learned(self.learned.clone());
        let mut progress = engine.start(faults);
        let mut stride = Vec::with_capacity(STREAM_STRIDE);
        let mut emit = |progress: &RunProgress, first: usize, end: usize| {
            stride.clear();
            stride.extend(
                progress.status()[first..end]
                    .iter()
                    .map(|s| s.expect("merged prefix is classified")),
            );
            sink(first, &stride);
        };
        let mut emitted = 0;
        engine.advance_observed(faults, self.threads, &mut progress, None, |progress| {
            if progress.next_fault() >= emitted + STREAM_STRIDE {
                emit(progress, emitted, emitted + STREAM_STRIDE);
                emitted += STREAM_STRIDE;
            }
        });
        // The last merged stride: partial at the end of the list, or where
        // the work budget ran out.
        let merged = progress.next_fault();
        if merged > emitted {
            emit(&progress, emitted, merged);
            emitted = merged;
        }
        let mut run = engine.finish(progress);
        run.stats.cpu = start.elapsed();
        for (k, tail) in run.status[emitted..].chunks(STREAM_STRIDE).enumerate() {
            sink(emitted + k * STREAM_STRIDE, tail);
        }
        Ok(run)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sla_atpg::{AbortReason, LearningMode};
    use sla_circuits::{table5_circuit, Table5Config};
    use sla_core::WorkBudget;
    use sla_sim::collapsed_fault_list;

    /// The sink calls of one streaming run, as `(first, verdicts)`.
    type Calls = Vec<(usize, Vec<FaultStatus>)>;

    /// Streams a run and checks the sink contract against a serial batch
    /// run of the engine: calls are contiguous and in order, each holds one
    /// to `STREAM_STRIDE` verdicts, together they cover every fault exactly
    /// once, and their verdicts are the serial run's.
    fn stream_checked(session: &Session<'_>, options: &AtpgOptions, faults: &[Fault]) -> Calls {
        let mut calls = Calls::new();
        let streamed = session
            .atpg_streaming(options, faults, |first, verdicts| {
                calls.push((first, verdicts.to_vec()))
            })
            .expect("streaming ATPG");
        let batch = AtpgEngine::new(session.netlist(), *options)
            .expect("engine")
            .with_learned(session.learned().clone())
            .run_with_threads(faults, 1);
        let mut next = 0;
        for (first, verdicts) in &calls {
            assert_eq!(*first, next, "calls are contiguous and in fault order");
            assert!(
                (1..=STREAM_STRIDE).contains(&verdicts.len()),
                "a call holds 1..={STREAM_STRIDE} verdicts, got {}",
                verdicts.len()
            );
            next += verdicts.len();
        }
        assert_eq!(next, faults.len(), "calls cover every fault exactly once");
        let verdicts: Vec<FaultStatus> = calls.iter().flat_map(|(_, v)| v.clone()).collect();
        assert_eq!(
            verdicts, batch.status,
            "streamed verdicts are the batch run's"
        );
        assert_eq!(streamed.status, batch.status);
        assert_eq!(streamed.sequences, batch.sequences);
        assert_eq!(streamed.stats.backtracks, batch.stats.backtracks);
        assert_eq!(streamed.stats.decisions, batch.stats.decisions);
        assert_eq!(streamed.stats.budget_spent, batch.stats.budget_spent);
        calls
    }

    #[test]
    fn sink_receives_contiguous_strides_with_batch_verdicts() {
        let netlist = table5_circuit(&Table5Config::default());
        let faults = collapsed_fault_list(&netlist);
        assert!(
            faults.len() > 2 * STREAM_STRIDE,
            "the run spans several strides"
        );
        let full = AtpgOptions::builder()
            .backtrack_limit(100)
            .learning(LearningMode::ForbiddenValue)
            .build();
        for threads in [1, 2, 4] {
            let mut session = Session::open(&netlist).with_threads(threads);
            session
                .learn(&LearnOptions::builder().cross_frame(true).build())
                .expect("learning");
            stream_checked(&session, &full, &faults);

            // A quarter of the full run's work: the run stops early, and
            // the tail that `finish` charges to the budget arrives last.
            let spent = session
                .atpg(&full, &faults)
                .expect("ATPG")
                .stats
                .budget_spent;
            let limited = full
                .to_builder()
                .budget(WorkBudget::units(spent / 4))
                .build();
            let calls = stream_checked(&session, &limited, &faults);
            let (_, last) = calls.last().expect("at least one call");
            assert!(
                last.contains(&FaultStatus::Aborted(AbortReason::Budget)),
                "the budget-exhausted tail comes in the last call (threads {threads})"
            );
        }
    }
}
