//! Persistent-store integration tests: round trips, corruption fallback and
//! the acceptance pin — a warm-store run is bit-identical to a cold run at
//! `SLA_THREADS ∈ {1, 4}` with zero learning work units on the warm path.

use sla_atpg::{AtpgOptions, AtpgRun, LearningMode};
use sla_circuits::s27::S27_BENCH;
use sla_circuits::{s27, table5_circuit, Table5Config};
use sla_core::LearnOptions;
use sla_netlist::parser::parse_bench;
use sla_netlist::Netlist;
use sla_sim::collapsed_fault_list;
use sla_snapshot::SnapshotError;
use sla_store::{CacheOutcome, LearnedStore, Session, StoreError, StoreKey};
use std::path::PathBuf;

/// A fresh scratch directory, removed on drop even when the test fails.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!("sla-store-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        Scratch(dir)
    }

    fn path(&self) -> &std::path::Path {
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
        .backtrack_limit(100)
        .learning(LearningMode::ForbiddenValue)
        .build()
}

/// Zeroes the documented thread/run-variant diagnostics so runs can be
/// compared bit-for-bit.
fn canonical(mut run: AtpgRun) -> AtpgRun {
    run.stats.cpu = std::time::Duration::ZERO;
    run.stats.wasted_speculations = 0;
    run
}

/// Flattened view of a learned database for equality assertions.
type LearnedParts = (
    Vec<(sla_core::Implication, bool)>,
    Vec<sla_core::CrossImplication>,
    Vec<(sla_netlist::NodeId, bool)>,
);

fn learned_parts(learned: &sla_atpg::LearnedData) -> LearnedParts {
    (
        learned.implications().iter().collect(),
        learned.cross_frame().to_vec(),
        learned.tied().to_vec(),
    )
}

/// The entry file the store keeps for (netlist, options).
fn entry_file(store: &LearnedStore, netlist: &Netlist, options: &LearnOptions) -> PathBuf {
    store
        .dir()
        .join(format!("{}.slal", StoreKey::new(netlist, options)))
}

/// Acceptance pin: cold learn populates the store; a second session hits it,
/// spends zero learning work units and produces a bit-identical ATPG run —
/// at one and four worker threads.
#[test]
fn warm_store_run_is_bit_identical_to_cold() {
    let netlist = table5_circuit(&Table5Config::default());
    let faults = collapsed_fault_list(&netlist);
    for threads in [1usize, 4] {
        let scratch = Scratch::new(&format!("warm-{threads}"));
        let mut store = LearnedStore::open(scratch.path(), 8).expect("open store");

        let mut cold = Session::open(&netlist).with_threads(threads);
        let report = cold
            .learn_cached(&learn_options(), &mut store)
            .expect("cold learning");
        assert_eq!(report.outcome, CacheOutcome::Miss, "first run must miss");
        assert!(report.work_units > 0, "cold run must spend learning work");
        assert!(report.store_error.is_none(), "clean store, no error");
        let cold_parts = learned_parts(cold.learned());
        let cold_run = canonical(cold.atpg(&atpg_options(), &faults).expect("cold ATPG"));

        let mut warm = Session::open(&netlist).with_threads(threads);
        let report = warm
            .learn_cached(&learn_options(), &mut store)
            .expect("warm lookup");
        assert_eq!(report.outcome, CacheOutcome::Hit, "second run must hit");
        assert_eq!(
            report.work_units, 0,
            "a cache hit must spend zero learning work units"
        );
        assert_eq!(
            learned_parts(warm.learned()),
            cold_parts,
            "cached database must round-trip exactly (threads {threads})"
        );
        let warm_run = canonical(warm.atpg(&atpg_options(), &faults).expect("warm ATPG"));
        assert_eq!(
            warm_run, cold_run,
            "warm run must be bit-identical to cold (threads {threads})"
        );
    }
}

/// The key follows the circuit, not the text: an edit of the `.bench` source
/// that changes one gate type, rewires one fanin or adds one gate changes the
/// `StoreKey`, so the request misses and relearns; an edit of whitespace and
/// comments only keeps the key, so the request hits with no learning work.
#[test]
fn bench_text_edits_change_the_key_iff_the_circuit_changes() {
    let scratch = Scratch::new("edits");
    let mut store = LearnedStore::open(scratch.path(), 8).expect("open store");
    let options = learn_options();
    let parse = |text: &str| parse_bench("s27", text).expect("edited text parses");
    let base = parse(S27_BENCH);
    let base_key = StoreKey::new(&base, &options);
    Session::open(&base)
        .with_threads(1)
        .learn_cached(&options, &mut store)
        .expect("populate");

    let edits = [
        ("gate type", "G8 = AND(G14, G6)", "G8 = OR(G14, G6)"),
        ("fanin", "G16 = OR(G3, G8)", "G16 = OR(G2, G8)"),
        (
            "added gate",
            "G13 = NAND(G2, G12)\n",
            "G13 = NAND(G2, G12)\nG18 = NOT(G13)\n",
        ),
    ];
    for (what, from, to) in edits {
        assert!(S27_BENCH.contains(from), "{what}: `{from}` is in s27");
        let edited = parse(&S27_BENCH.replacen(from, to, 1));
        assert_ne!(
            StoreKey::new(&edited, &options),
            base_key,
            "{what} edit must change the key"
        );
        let mut session = Session::open(&edited).with_threads(1);
        let report = session.learn_cached(&options, &mut store).expect("relearn");
        assert_eq!(report.outcome, CacheOutcome::Miss, "{what} edit must miss");
        assert!(report.work_units > 0, "{what} edit must relearn");
    }

    let cosmetic = S27_BENCH
        .replace("# s27 - ISCAS-89 sequential benchmark", "\n# reformatted\n")
        .replace(" = ", "\t=  ")
        .replace(", ", " ,\t")
        .replace("OUTPUT(G17)", "OUTPUT( G17 )  # the only output");
    assert_ne!(cosmetic, S27_BENCH);
    let same = parse(&cosmetic);
    assert_eq!(
        StoreKey::new(&same, &options),
        base_key,
        "whitespace and comments must keep the key"
    );
    let mut session = Session::open(&same).with_threads(1);
    let report = session.learn_cached(&options, &mut store).expect("lookup");
    assert_eq!(report.outcome, CacheOutcome::Hit, "cosmetic edit must hit");
    assert_eq!(report.work_units, 0, "a hit spends no learning work");
}

/// A corrupted entry is a typed miss: the session falls back to fresh
/// learning, reports the decode error, repopulates the entry, and the next
/// lookup hits again.
#[test]
fn corrupt_entry_falls_back_and_repopulates() {
    let netlist = s27();
    let scratch = Scratch::new("corrupt");
    let mut store = LearnedStore::open(scratch.path(), 8).expect("open store");

    let mut session = Session::open(&netlist).with_threads(1);
    session
        .learn_cached(&learn_options(), &mut store)
        .expect("populate");
    let baseline = learned_parts(session.learned());

    // Flip a payload byte; the checksum must catch it.
    let path = entry_file(&store, &netlist, &learn_options());
    let mut bytes = std::fs::read(&path).expect("read entry");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&path, &bytes).expect("write corrupted entry");

    let mut session = Session::open(&netlist).with_threads(1);
    let report = session
        .learn_cached(&learn_options(), &mut store)
        .expect("fallback learning");
    assert_eq!(
        report.outcome,
        CacheOutcome::Miss,
        "corrupt entry is a miss"
    );
    assert!(report.work_units > 0, "fallback must learn fresh");
    match &report.store_error {
        Some(StoreError::Codec { .. }) => {}
        other => panic!("expected a typed codec error, got {other:?}"),
    }
    assert_eq!(
        learned_parts(session.learned()),
        baseline,
        "fallback must learn the same database"
    );

    let mut session = Session::open(&netlist).with_threads(1);
    let report = session
        .learn_cached(&learn_options(), &mut store)
        .expect("repopulated lookup");
    assert_eq!(
        report.outcome,
        CacheOutcome::Hit,
        "the fallback must have repopulated the entry"
    );
    assert_eq!(learned_parts(session.learned()), baseline);
}

/// An entry written by a future format version is rejected with the typed
/// version error and likewise repopulated.
#[test]
fn version_mismatch_is_typed_and_repopulated() {
    let netlist = s27();
    let scratch = Scratch::new("version");
    let mut store = LearnedStore::open(scratch.path(), 8).expect("open store");

    let mut session = Session::open(&netlist).with_threads(1);
    session
        .learn_cached(&learn_options(), &mut store)
        .expect("populate");

    // Overwrite the entry with a validly-framed file of a future version.
    let mut w = sla_snapshot::codec::Writer::new();
    w.bytes_raw(b"SLAL");
    w.u32(99);
    let path = entry_file(&store, &netlist, &learn_options());
    std::fs::write(&path, w.seal()).expect("write future-version entry");

    let mut session = Session::open(&netlist).with_threads(1);
    let report = session
        .learn_cached(&learn_options(), &mut store)
        .expect("fallback learning");
    assert_eq!(report.outcome, CacheOutcome::Miss);
    match &report.store_error {
        Some(StoreError::Codec {
            source: SnapshotError::UnsupportedVersion { found: 99, .. },
            ..
        }) => {}
        other => panic!("expected UnsupportedVersion, got {other:?}"),
    }

    let mut session = Session::open(&netlist).with_threads(1);
    let report = session
        .learn_cached(&learn_options(), &mut store)
        .expect("repopulated lookup");
    assert_eq!(report.outcome, CacheOutcome::Hit);
}

/// Insertion order is the eviction order, entries beyond capacity evict the
/// oldest first, and the order survives a close/reopen cycle.
#[test]
fn fifo_eviction_and_reopen_are_deterministic() {
    let netlist = s27();
    let scratch = Scratch::new("fifo");
    let options: Vec<LearnOptions> = [10usize, 20, 30]
        .iter()
        .map(|&frames| LearnOptions::builder().max_frames(frames).build())
        .collect();
    let keys: Vec<StoreKey> = options.iter().map(|o| StoreKey::new(&netlist, o)).collect();

    let mut store = LearnedStore::open(scratch.path(), 2).expect("open store");
    for opts in &options {
        let mut session = Session::open(&netlist).with_threads(1);
        session.learn_cached(opts, &mut store).expect("populate");
    }
    assert_eq!(
        store.keys(),
        &keys[1..],
        "inserting a third entry at capacity 2 must evict the oldest"
    );
    assert!(
        !entry_file(&store, &netlist, &options[0]).exists(),
        "the evicted entry file must be gone"
    );

    let reopened = LearnedStore::open(scratch.path(), 2).expect("reopen store");
    assert_eq!(
        reopened.keys(),
        store.keys(),
        "insertion order must survive reopen"
    );
    assert!(reopened
        .lookup(&keys[2])
        .expect("surviving entry readable")
        .is_some());
    assert!(reopened
        .lookup(&keys[0])
        .expect("evicted key is a clean miss")
        .is_none());
}

/// A corrupt index fails `open` with a typed error and `open_or_reset`
/// recovers to an empty store, reporting why.
#[test]
fn corrupt_index_is_typed_and_resettable() {
    let netlist = s27();
    let scratch = Scratch::new("index");
    let mut store = LearnedStore::open(scratch.path(), 8).expect("open store");
    let mut session = Session::open(&netlist).with_threads(1);
    session
        .learn_cached(&learn_options(), &mut store)
        .expect("populate");

    let index = scratch.path().join("index");
    std::fs::write(&index, b"not an index at all").expect("clobber index");

    match LearnedStore::open(scratch.path(), 8) {
        Err(StoreError::Codec { .. }) => {}
        other => panic!("expected a typed codec error, got {other:?}"),
    }

    let (reset, err) = LearnedStore::open_or_reset(scratch.path(), 8);
    assert!(reset.is_empty(), "reset store starts empty");
    assert!(
        matches!(err, Some(StoreError::Codec { .. })),
        "the reset must report why: {err:?}"
    );
}

/// The 5-node netlist of the out-of-range reproductions.
fn five_nodes() -> Netlist {
    let mut b = sla_netlist::NetlistBuilder::new("five");
    b.input("a");
    b.input("b");
    b.gate("g", sla_netlist::GateType::Nand, &["a", "b"])
        .expect("gate");
    b.dff("q", "g").expect("dff");
    b.gate("o", sla_netlist::GateType::Xor, &["q", "b"])
        .expect("gate");
    b.output("o").expect("output");
    b.build().expect("build")
}

/// Learned data whose one implication names node 1 000 000.
fn out_of_range_learned(netlist: &Netlist) -> sla_atpg::LearnedData {
    use sla_core::{Implication, ImplicationDb, Literal};
    let a = netlist.require("a").expect("a");
    let mut db = ImplicationDb::new();
    db.add(
        Implication::new(
            Literal::new(a, true),
            Literal::new(sla_netlist::NodeId(1_000_000), false),
        ),
        false,
    );
    sla_atpg::LearnedData::from_parts(db, Vec::new())
}

/// A checksum-valid entry under the right key that names a node the
/// netlist does not have is a typed miss: the session relearns, reports
/// `NodeOutOfRange`, overwrites the entry, and ATPG runs as on a cold
/// store — at one and four worker threads.
#[test]
fn out_of_range_entry_is_a_typed_miss_and_relearned() {
    let netlist = five_nodes();
    let faults = collapsed_fault_list(&netlist);
    for threads in [1, 4] {
        let scratch = Scratch::new(&format!("range-{threads}"));
        let mut store = LearnedStore::open(scratch.path(), 8).expect("open store");
        let key = StoreKey::new(&netlist, &learn_options());
        store
            .insert(key, &out_of_range_learned(&netlist))
            .expect("plant entry");

        let mut session = Session::open(&netlist).with_threads(threads);
        let report = session
            .learn_cached(&learn_options(), &mut store)
            .expect("fallback learning");
        assert_eq!(report.outcome, CacheOutcome::Miss);
        match &report.store_error {
            Some(StoreError::NodeOutOfRange {
                node, num_nodes, ..
            }) => {
                assert_eq!(*node, sla_netlist::NodeId(1_000_000));
                assert_eq!(*num_nodes, netlist.num_nodes());
            }
            other => panic!("expected NodeOutOfRange, got {other:?}"),
        }
        let run = canonical(session.atpg(&atpg_options(), &faults).expect("ATPG"));

        let mut cold = Session::open(&netlist).with_threads(threads);
        cold.learn(&learn_options()).expect("cold learning");
        let cold_run = canonical(cold.atpg(&atpg_options(), &faults).expect("ATPG"));
        assert_eq!(run.status, cold_run.status);
        assert_eq!(run.sequences, cold_run.sequences);

        let mut warm = Session::open(&netlist).with_threads(threads);
        let report = warm
            .learn_cached(&learn_options(), &mut store)
            .expect("repopulated lookup");
        assert_eq!(
            report.outcome,
            CacheOutcome::Hit,
            "the entry was overwritten"
        );
        assert!(report.store_error.is_none());
    }
}

/// A snapshot captured with an out-of-range relation is refused at resume
/// with a typed error, and `resume_or_fresh` finishes a fresh run instead
/// — at one and four worker threads.
#[test]
fn out_of_range_snapshot_falls_back_to_a_fresh_run() {
    let netlist = five_nodes();
    let faults = collapsed_fault_list(&netlist);
    let engine = sla_atpg::AtpgEngine::new(&netlist, atpg_options())
        .expect("engine")
        .with_learned(out_of_range_learned(&netlist));
    let progress = engine.start(&faults);
    let bytes = sla_snapshot::AtpgSnapshot::capture(&netlist, &engine, &faults, &progress).encode();
    let snapshot = sla_snapshot::AtpgSnapshot::decode(&bytes).expect("checksum-valid snapshot");
    assert_eq!(
        snapshot.resume(&netlist, &faults).err(),
        Some(SnapshotError::Corrupt("learned node id out of range"))
    );
    for threads in [1, 4] {
        let learned = sla_atpg::LearnedData::new();
        let (run, err) = sla_snapshot::resume_or_fresh(
            &bytes,
            &netlist,
            atpg_options(),
            &learned,
            &faults,
            threads,
        );
        assert!(matches!(err, Some(SnapshotError::Corrupt(_))), "{err:?}");
        let fresh = sla_atpg::AtpgEngine::new(&netlist, atpg_options())
            .expect("engine")
            .run_with_threads(&faults, threads);
        assert_eq!(canonical(run).status, canonical(fresh).status);
    }
}
