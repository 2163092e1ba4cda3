//! The unified session API: open a netlist, learn (with or without the
//! persistent cache), generate tests, stream verdicts.
//!
//! Every front end — the example binaries, the tests and the `sla-serve`
//! service — speaks this one surface, so a request over the wire and a
//! direct library call run exactly the same code path and produce
//! bit-identical results.

use crate::{LearnedStore, StoreError, StoreKey};
use sla_atpg::{AtpgEngine, AtpgOptions, AtpgRun, FaultStatus, LearnedData};
use sla_core::{LearnOptions, SequentialLearner};
use sla_netlist::{Netlist, NetlistError};
use sla_sim::Fault;

/// How many faults each streaming stride merges before verdicts are
/// emitted. Strides only batch the emission; they cannot change the
/// verdicts, which are a pure function of the merged fault prefix.
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
    report: Option<LearnReport>,
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
            report: None,
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

    /// The report of the last learning step, if one ran.
    pub fn learn_report(&self) -> Option<&LearnReport> {
        self.report.as_ref()
    }

    /// Runs sequential learning on the session netlist and keeps the result
    /// for subsequent ATPG calls.
    pub fn learn(&mut self, options: &LearnOptions) -> Result<&LearnReport, NetlistError> {
        let result = SequentialLearner::new(self.netlist, options.clone())
            .learn_with_threads(self.threads)?;
        self.learned = LearnedData::from_learn_result(&result);
        Ok(self.install_report(CacheOutcome::Uncached, result.stats.budget_spent, None))
    }

    /// Lookup-before-learn: serves the learned database from `store` when a
    /// valid entry exists for (netlist, options), otherwise learns fresh and
    /// writes the result back. A present-but-corrupt entry is treated as a
    /// miss and repopulated; the typed error lands in
    /// [`LearnReport::store_error`].
    pub fn learn_cached(
        &mut self,
        options: &LearnOptions,
        store: &mut LearnedStore,
    ) -> Result<&LearnReport, NetlistError> {
        let key = StoreKey::new(self.netlist, options);
        let lookup_err = match store.lookup(&key) {
            Ok(Some(learned)) => {
                self.learned = learned;
                return Ok(self.install_report(CacheOutcome::Hit, 0, None));
            }
            Ok(None) => None,
            Err(e) => Some(e),
        };
        let result = SequentialLearner::new(self.netlist, options.clone())
            .learn_with_threads(self.threads)?;
        self.learned = LearnedData::from_learn_result(&result);
        // A failed write-back degrades future requests to cold runs but must
        // not fail this one; surface it through the report instead.
        let store_error = match store.insert(key, &self.learned) {
            Ok(()) => lookup_err,
            Err(e) => Some(e),
        };
        Ok(self.install_report(CacheOutcome::Miss, result.stats.budget_spent, store_error))
    }

    fn install_report(
        &mut self,
        outcome: CacheOutcome,
        work_units: u64,
        store_error: Option<StoreError>,
    ) -> &LearnReport {
        self.report = Some(LearnReport {
            outcome,
            work_units,
            implications: self.learned.implications().len(),
            cross_frame: self.learned.cross_frame().len(),
            tied: self.learned.tied().len(),
            store_error,
        });
        self.report.as_ref().expect("just installed")
    }

    /// Runs ATPG over `faults` with the session's learned database.
    pub fn atpg(&self, options: &AtpgOptions, faults: &[Fault]) -> Result<AtpgRun, NetlistError> {
        let engine = AtpgEngine::new(self.netlist, *options)?.with_learned(self.learned.clone());
        Ok(engine.run_with_threads(faults, self.threads))
    }

    /// Like [`Session::atpg`], but emits `(fault index, verdict)` pairs in
    /// strict fault order as prefixes of the run are merged, before the
    /// final [`AtpgRun`] is returned. Verdicts are identical to the batch
    /// run at every thread count; only the emission is incremental.
    pub fn atpg_streaming(
        &self,
        options: &AtpgOptions,
        faults: &[Fault],
        mut sink: impl FnMut(usize, FaultStatus),
    ) -> Result<AtpgRun, NetlistError> {
        let start = sla_netlist::wallclock::now();
        let engine = AtpgEngine::new(self.netlist, *options)?.with_learned(self.learned.clone());
        let mut progress = engine.start(faults);
        let mut emitted = 0;
        while progress.next_fault() < faults.len() {
            let before = progress.next_fault();
            engine.advance(
                faults,
                self.threads,
                &mut progress,
                Some(before + STREAM_STRIDE),
            );
            let after = progress.next_fault();
            for i in emitted..after {
                sink(
                    i,
                    progress.status()[i].expect("merged prefix is classified"),
                );
            }
            emitted = after;
            if after == before {
                // The work budget ran out; `finish` classifies the tail.
                break;
            }
        }
        let mut run = engine.finish(progress);
        run.stats.cpu = start.elapsed();
        for (i, status) in run.status.iter().enumerate().skip(emitted) {
            sink(i, *status);
        }
        Ok(run)
    }
}
