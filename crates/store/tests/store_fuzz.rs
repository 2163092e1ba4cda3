//! Robustness fuzzing of the store and snapshot decoders, and of the code
//! that uses what they decode.
//!
//! The contract is the codec's: **arbitrary bytes never panic**. A store
//! index, a store entry or a snapshot that fails to decode is a typed
//! [`StoreError`] or [`sla_snapshot::SnapshotError`], and what does decode is safe to
//! use: [`Session::learn_cached`] followed by [`Session::atpg`], and
//! [`resume_or_fresh`], finish without a panic. A hit or a resumed run is
//! only reported for data that fits the netlist.
//!
//! As in `proto_fuzz.rs`, the fuzzer starts from valid frames, applies
//! seeded byte flips, overwrites, inserts, deletes and truncations, and
//! reseals the result with a fresh checksum so the mutations reach the body
//! decoders. The private store decoders are reached through files, with
//! [`LearnedStore::open`] and [`LearnedStore::lookup`].

use proptest::prelude::TestRng;
use sla_atpg::{AtpgEngine, AtpgOptions, FaultStatus, LearnedData, LearningMode};
use sla_circuits::s27;
use sla_core::LearnOptions;
use sla_netlist::Netlist;
use sla_sim::{collapsed_fault_list, Fault};
use sla_snapshot::codec::Writer;
use sla_snapshot::{resume_or_fresh, AtpgSnapshot};
use sla_store::{CacheOutcome, LearnedStore, Session, StoreError, StoreKey};
use std::path::{Path, PathBuf};

/// Magic and version bytes at the front of every frame.
const HEADER: usize = 8;
/// Trailing checksum bytes of every frame.
const CHECKSUM: usize = 8;
/// Capacity of the fuzzed stores.
const CAPACITY: usize = 4;
/// Cases per test.
const CASES: usize = 256;

/// A scratch directory, removed on drop even when the case fails.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str, seed: u64) -> Scratch {
        let dir = std::env::temp_dir().join(format!(
            "sla-store-fuzz-{tag}-{}-{seed}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        Scratch(dir)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn learn_options() -> LearnOptions {
    LearnOptions::builder().cross_frame(true).build()
}

fn atpg_options() -> AtpgOptions {
    AtpgOptions::builder()
        .backtrack_limit(16)
        .learning(LearningMode::ForbiddenValue)
        .build()
}

/// The valid frames every case starts from: s27 with its fault list and
/// learned data, a store index and entry for it, and a snapshot taken
/// halfway through an ATPG run that uses the learned data.
struct Corpus {
    netlist: Netlist,
    faults: Vec<Fault>,
    learned: LearnedData,
    /// The verdicts of an uninterrupted run with `learned`.
    fresh: Vec<FaultStatus>,
    key: StoreKey,
    index: Vec<u8>,
    entry: Vec<u8>,
    snapshot: Vec<u8>,
}

impl Corpus {
    /// Builds the corpus in a scratch directory of its own, so tests
    /// running in parallel do not share files.
    fn new(test: &str) -> Corpus {
        let netlist = s27();
        let faults = collapsed_fault_list(&netlist);
        let scratch = Scratch::new(&format!("corpus-{test}"), 0);
        let mut store = LearnedStore::open(scratch.path(), CAPACITY).expect("open store");
        let mut session = Session::open(&netlist).with_threads(1);
        session
            .learn_cached(&learn_options(), &mut store)
            .expect("populate the store");
        let learned = session.learned().clone();
        assert!(
            !learned.implications().is_empty() && !learned.cross_frame().is_empty(),
            "the entry carries relations for the mutations to hit"
        );
        let key = StoreKey::new(&netlist, &learn_options());
        let read = |name: String| std::fs::read(scratch.path().join(name)).expect("read frame");
        let index = read("index".to_string());
        let entry = read(format!("{key}.slal"));

        let engine = AtpgEngine::new(&netlist, atpg_options())
            .expect("engine")
            .with_learned(learned.clone());
        let fresh = engine.run_with_threads(&faults, 1).status;
        let mut progress = engine.start(&faults);
        engine.advance(&faults, 1, &mut progress, Some(faults.len() / 2));
        let snapshot = AtpgSnapshot::capture(&netlist, &engine, &faults, &progress).encode();
        Corpus {
            netlist,
            faults,
            learned,
            fresh,
            key,
            index,
            entry,
            snapshot,
        }
    }

    /// Writes the index and entry files of a store in `dir`.
    fn write_store(&self, dir: &Path, index: &[u8], entry: &[u8]) {
        std::fs::write(dir.join("index"), index).expect("write index");
        std::fs::write(dir.join(format!("{}.slal", self.key)), entry).expect("write entry");
    }

    /// Opens a store over `dir` and runs the session on it: the lookup, the
    /// fallback learning and write-back, then ATPG with whatever was
    /// served. Returning at all is the no-panic check.
    fn use_store(&self, dir: &Path) {
        let mut store = match LearnedStore::open(dir, CAPACITY) {
            Ok(store) => store,
            Err(e) => {
                assert!(matches!(e, StoreError::Codec { .. }), "{e}");
                LearnedStore::open_or_reset(dir, CAPACITY).0
            }
        };
        let mut session = Session::open(&self.netlist).with_threads(1);
        let report = session
            .learn_cached(&learn_options(), &mut store)
            .expect("s27 learns");
        match report.outcome {
            CacheOutcome::Hit => {
                assert!(report.store_error.is_none());
                assert_eq!(
                    session.learned().check_nodes(self.netlist.num_nodes()),
                    Ok(())
                );
            }
            CacheOutcome::Miss => {}
            CacheOutcome::Uncached => panic!("learn_cached never reports Uncached"),
        }
        let run = session.atpg(&atpg_options(), &self.faults).expect("ATPG");
        assert_eq!(run.status.len(), self.faults.len());
    }

    /// Decodes `bytes` as a snapshot, resumes it if it decodes, and
    /// finishes it with `resume_or_fresh`. On any snapshot error the run
    /// must be the fresh run.
    fn use_snapshot(&self, bytes: &[u8]) {
        let resumed = AtpgSnapshot::decode(bytes)
            .and_then(|s| s.resume(&self.netlist, &self.faults).map(|_| ()));
        let (run, err) = resume_or_fresh(
            bytes,
            &self.netlist,
            atpg_options(),
            &self.learned,
            &self.faults,
            1,
        );
        assert_eq!(run.status.len(), self.faults.len());
        assert_eq!(resumed.err(), err);
        if err.is_some() {
            assert_eq!(run.status, self.fresh);
        }
    }
}

/// A byte the mutator writes: mostly small values, which keep booleans,
/// tags and counts plausible, sometimes any byte.
fn pick(rng: &mut TestRng) -> u8 {
    match rng.next_u64() % 4 {
        0 => 0xff,
        1 => (rng.next_u64() & 0xff) as u8,
        _ => (rng.next_u64() % 6) as u8,
    }
}

/// Applies `edits` seeded mutations to the checksum-free content of a
/// frame. Edits avoid the magic and version unless `header` is set.
fn mutate(content: &mut Vec<u8>, rng: &mut TestRng, edits: usize, header: bool) {
    let from = if header { 0 } else { HEADER };
    for _ in 0..edits {
        let span = content.len().saturating_sub(from);
        let at =
            |rng: &mut TestRng, extra: usize| from + (rng.next_u64() as usize) % (span + extra);
        match rng.next_u64() % 8 {
            0..=2 if span > 0 => {
                let i = at(rng, 0);
                content[i] ^= 1 << (rng.next_u64() % 8);
            }
            3 | 4 if span > 0 => {
                let i = at(rng, 0);
                content[i] = pick(rng);
            }
            5 => {
                let i = at(rng, 1);
                let b = pick(rng);
                content.insert(i, b);
            }
            6 if span > 0 => {
                let i = at(rng, 0);
                content.remove(i);
            }
            7 if span > 0 => {
                let keep = at(rng, 0);
                content.truncate(keep);
            }
            _ => {}
        }
    }
}

/// Seals `content` as a frame with a fresh checksum.
fn reseal(content: &[u8]) -> Vec<u8> {
    let mut w = Writer::new();
    w.bytes_raw(content);
    w.seal()
}

/// `frame` mutated and resealed, or, for `edits == 0`, `len` bytes of
/// garbage behind the frame's magic and version.
fn mutated(frame: &[u8], rng: &mut TestRng, edits: usize, header: bool, len: usize) -> Vec<u8> {
    let mut content = frame[..frame.len() - CHECKSUM].to_vec();
    if edits == 0 {
        content.truncate(HEADER);
        content.extend((0..len).map(|_| pick(rng)));
    } else {
        mutate(&mut content, rng, edits, header);
    }
    reseal(&content)
}

/// One case's draw: a seed for the mutations, the number of edits (0 means
/// garbage behind a valid header), whether the header is fair game, and a
/// garbage length.
fn cases(test: u64) -> impl Iterator<Item = (TestRng, usize, bool, usize)> {
    let mut rng = TestRng::new(test);
    (0..CASES).map(move |_| {
        let case = TestRng::new(rng.next_u64());
        let edits = (rng.next_u64() % 6) as usize;
        // One case in sixteen also mutates the magic and version.
        let header = rng.next_u64().is_multiple_of(16);
        let len = (rng.next_u64() % 96) as usize;
        (case, edits, header, len)
    })
}

#[test]
fn corpus_frames_are_valid() {
    let c = Corpus::new("valid");
    let scratch = Scratch::new("valid", 0);
    c.write_store(scratch.path(), &c.index, &c.entry);
    let store = LearnedStore::open(scratch.path(), CAPACITY).expect("valid index");
    assert_eq!(store.keys(), [c.key]);
    assert!(store.lookup(&c.key).expect("valid entry").is_some());
    let (run, err) = resume_or_fresh(
        &c.snapshot,
        &c.netlist,
        atpg_options(),
        &c.learned,
        &c.faults,
        1,
    );
    assert_eq!(err, None, "the unmutated snapshot resumes");
    assert_eq!(run.status, c.fresh);
}

/// Mutated index files open to a store or fail typed, and a session on the
/// result runs.
#[test]
fn mutated_indexes_open_or_fail_typed() {
    let c = Corpus::new("index");
    for (k, (mut rng, edits, header, len)) in cases(1).enumerate() {
        let scratch = Scratch::new("index", k as u64);
        let index = mutated(&c.index, &mut rng, edits, header, len);
        c.write_store(scratch.path(), &index, &c.entry);
        c.use_store(scratch.path());
    }
}

/// Mutated entry files are a hit only when they decode to data that fits
/// the netlist; anything else is a typed miss that relearns. ATPG runs on
/// whatever the session ends up with.
#[test]
fn mutated_entries_hit_or_miss_typed() {
    let c = Corpus::new("entry");
    for (k, (mut rng, edits, header, len)) in cases(2).enumerate() {
        let scratch = Scratch::new("entry", k as u64);
        let entry = mutated(&c.entry, &mut rng, edits, header, len);
        c.write_store(scratch.path(), &c.index, &entry);
        c.use_store(scratch.path());
    }
}

/// Mutated snapshots decode, resume and finish, or fall back to the fresh
/// run with a typed error.
#[test]
fn mutated_snapshots_resume_or_fall_back() {
    let c = Corpus::new("snapshot");
    for (mut rng, edits, header, len) in cases(3) {
        c.use_snapshot(&mutated(&c.snapshot, &mut rng, edits, header, len));
    }
}

/// Raw garbage in every file, and as a snapshot, with no valid frame around
/// it.
#[test]
fn garbage_never_panics() {
    let c = Corpus::new("garbage");
    for (k, (mut rng, _, _, len)) in cases(4).enumerate() {
        let garbage: Vec<u8> = (0..len).map(|_| pick(&mut rng)).collect();
        c.use_snapshot(&garbage);
        let scratch = Scratch::new("garbage", k as u64);
        c.write_store(scratch.path(), &garbage, &c.entry);
        c.use_store(scratch.path());
        c.write_store(scratch.path(), &c.index, &garbage);
        c.use_store(scratch.path());
    }
}
