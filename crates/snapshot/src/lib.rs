//! Checkpoint/resume snapshots for the ATPG pipeline, plus the seeded
//! fault-injection harness ([`inject`]).
//!
//! A snapshot captures the resumable state of a partially executed ATPG run
//! ([`sla_atpg::RunProgress`]) together with everything needed to validate
//! that a resume is sound: a structural hash of the netlist, a hash of the
//! fault list, the full configuration (budget included) and the learned
//! database in insertion order. Snapshots are taken at **deterministic
//! fault-index boundaries** (the `stop_before` argument of
//! [`sla_atpg::AtpgEngine::advance`]), so a run interrupted at any boundary
//! and resumed is bit-identical to an uninterrupted one — the resume
//! property tests in the workspace root assert exactly that.
//!
//! # Format
//!
//! The codec is a hand-rolled binary format — no serde, the workspace vendors
//! no such dependency — designed for integrity checking, not compactness:
//!
//! ```text
//! magic   b"SLAS"                      4 bytes
//! version u32 little-endian            currently 1
//! payload netlist hash, fault-list hash, config, learned data, progress
//! check   u64 little-endian            FastHasher over all preceding bytes
//! ```
//!
//! Every multi-byte integer is little-endian; variable-length lists carry a
//! `u32` count. Decoding is total: corrupted, truncated or version-mismatched
//! bytes produce a typed [`SnapshotError`], never a panic, and
//! [`resume_or_fresh`] degrades to a fresh run while reporting the error.
//!
//! The version policy is deliberately simple: the version is bumped on any
//! layout change and old versions are **not** migrated — a snapshot is a
//! resumable cache, not an archival format; a stale one costs a recompute.

pub mod codec;
pub mod inject;

use codec::Writer;
use sla_atpg::{
    AbortReason, AtpgEngine, AtpgOptions, AtpgRun, FaultStatus, LearnedData, RunProgress,
};
use sla_core::{CrossImplication, ImplicationDb};
use sla_netlist::{FastHasher, Netlist, NetlistError, NodeId};
use sla_sim::{Fault, FaultSite, Logic3, TestSequence};
use std::fmt;
use std::hash::Hasher;

const MAGIC: &[u8; 4] = b"SLAS";
/// Current snapshot format version. Bumped on any layout change.
pub const FORMAT_VERSION: u32 = 2;

/// Why a snapshot could not be decoded or resumed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The bytes do not start with the snapshot magic.
    BadMagic,
    /// The snapshot was written by an unsupported format version.
    UnsupportedVersion {
        /// Version found in the snapshot.
        found: u32,
        /// Version this build reads.
        supported: u32,
    },
    /// The byte stream ended before the payload was complete.
    Truncated,
    /// Decoding finished with unconsumed payload bytes.
    TrailingBytes,
    /// The trailing checksum does not match the content.
    ChecksumMismatch,
    /// The snapshot was taken on a structurally different netlist.
    NetlistMismatch,
    /// The snapshot was taken on a different fault list.
    FaultListMismatch,
    /// A field holds a value outside its encoding (a targeted corruption
    /// that happens to keep the checksum valid cannot reach this in
    /// practice, but the decoder is total anyway).
    Corrupt(&'static str),
    /// Rebuilding the engine from the snapshot failed structurally.
    Netlist(NetlistError),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::BadMagic => write!(f, "not a snapshot: bad magic"),
            SnapshotError::UnsupportedVersion { found, supported } => write!(
                f,
                "unsupported snapshot version {found} (this build reads {supported})"
            ),
            SnapshotError::Truncated => write!(f, "snapshot is truncated"),
            SnapshotError::TrailingBytes => write!(f, "snapshot has trailing bytes"),
            SnapshotError::ChecksumMismatch => write!(f, "snapshot checksum mismatch"),
            SnapshotError::NetlistMismatch => {
                write!(f, "snapshot was taken on a different netlist")
            }
            SnapshotError::FaultListMismatch => {
                write!(f, "snapshot was taken on a different fault list")
            }
            SnapshotError::Corrupt(what) => write!(f, "snapshot field corrupt: {what}"),
            SnapshotError::Netlist(e) => write!(f, "snapshot resume failed: {e}"),
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotError::Netlist(e) => Some(e),
            _ => None,
        }
    }
}

/// Structural hash of a netlist: name, node arena (kind, fanins, names),
/// input/output lists and clock table. Two netlists with the same hash are
/// the same circuit for resume purposes.
///
/// Thin delegate of [`Netlist::structural_hash`], kept so snapshot callers
/// need not know the hash moved into the netlist crate.
pub fn structural_hash(netlist: &Netlist) -> u64 {
    netlist.structural_hash()
}

/// Hash of a fault list (site, pin and polarity of every fault, in order).
pub fn faults_hash(faults: &[Fault]) -> u64 {
    let mut h = FastHasher::default();
    h.write_usize(faults.len());
    for f in faults {
        match f.site {
            FaultSite::Output(n) => {
                h.write_u8(0);
                h.write_u32(n.0);
            }
            FaultSite::Input { gate, pin } => {
                h.write_u8(1);
                h.write_u32(gate.0);
                h.write_usize(pin);
            }
        }
        h.write_u8(f.stuck_at as u8);
    }
    h.finish()
}

/// A versioned, checksummed snapshot of a partially executed ATPG run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AtpgSnapshot {
    netlist_hash: u64,
    faults_hash: u64,
    config: AtpgOptions,
    implications: Vec<(sla_core::Implication, bool)>,
    cross_frame: Vec<CrossImplication>,
    tied: Vec<(NodeId, bool)>,
    next_fault: usize,
    status: Vec<Option<FaultStatus>>,
    sequences: Vec<TestSequence>,
    backtracks: usize,
    decisions: usize,
    test_vectors: usize,
    untestable_from_ties: usize,
    budget_spent: u64,
    panics: Vec<(usize, String)>,
}

impl AtpgSnapshot {
    /// Captures the resumable state of `progress` for `engine` on
    /// `netlist`/`faults`. The learned database is recorded in insertion
    /// order so the rebuilt engine searches identically.
    pub fn capture(
        netlist: &Netlist,
        engine: &AtpgEngine<'_>,
        faults: &[Fault],
        progress: &RunProgress,
    ) -> AtpgSnapshot {
        let learned = engine.learned();
        AtpgSnapshot {
            netlist_hash: structural_hash(netlist),
            faults_hash: faults_hash(faults),
            config: *engine.config(),
            implications: learned.implications().iter().collect(),
            cross_frame: learned.cross_frame().to_vec(),
            tied: learned.tied().to_vec(),
            next_fault: progress.next_fault(),
            status: progress.status().to_vec(),
            sequences: progress.sequences().to_vec(),
            backtracks: progress.backtracks(),
            decisions: progress.decisions(),
            test_vectors: progress.test_vectors(),
            untestable_from_ties: progress.untestable_from_ties(),
            budget_spent: progress.budget_spent(),
            panics: progress.panics().to_vec(),
        }
    }

    /// Serializes the snapshot (magic + version + payload + checksum).
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.bytes_raw(MAGIC);
        w.u32(FORMAT_VERSION);
        w.u64(self.netlist_hash);
        w.u64(self.faults_hash);
        // Configuration (budget included: a resumed run keeps its limits).
        codec::write_atpg_options(&mut w, &self.config);
        // Learned data, in insertion order.
        codec::write_relations(&mut w, &self.implications, &self.cross_frame, &self.tied);
        // Progress.
        w.u64(self.next_fault as u64);
        w.u32(self.status.len() as u32);
        for s in &self.status {
            w.u8(match s {
                None => 0,
                Some(FaultStatus::Detected) => 1,
                Some(FaultStatus::Untestable) => 2,
                Some(FaultStatus::Aborted(AbortReason::Limit)) => 3,
                Some(FaultStatus::Aborted(AbortReason::Budget)) => 4,
                Some(FaultStatus::Aborted(AbortReason::Panic)) => 5,
            });
        }
        w.u32(self.sequences.len() as u32);
        for seq in &self.sequences {
            w.u32(seq.vectors.len() as u32);
            for frame in &seq.vectors {
                w.u32(frame.len() as u32);
                for v in frame {
                    w.u8(match v {
                        Logic3::Zero => 0,
                        Logic3::One => 1,
                        Logic3::X => 2,
                    });
                }
            }
        }
        w.u64(self.backtracks as u64);
        w.u64(self.decisions as u64);
        w.u64(self.test_vectors as u64);
        w.u64(self.untestable_from_ties as u64);
        w.u64(self.budget_spent);
        w.u32(self.panics.len() as u32);
        for (idx, msg) in &self.panics {
            w.u64(*idx as u64);
            w.str(msg);
        }
        w.seal()
    }

    /// Decodes and integrity-checks a snapshot.
    ///
    /// # Errors
    ///
    /// Typed [`SnapshotError`] for bad magic, unsupported version,
    /// truncation, checksum mismatch, out-of-range fields or trailing bytes.
    /// Never panics on arbitrary input.
    pub fn decode(bytes: &[u8]) -> Result<AtpgSnapshot, SnapshotError> {
        let mut r = codec::check_frame(bytes, MAGIC, FORMAT_VERSION)?;

        let netlist_hash = r.u64()?;
        let faults_hash = r.u64()?;
        let config = codec::read_atpg_options(&mut r)?;
        let (implications, cross_frame, tied) = codec::read_relations(&mut r)?;

        let next_fault = r.u64()? as usize;
        let n = r.count()?;
        let mut status = Vec::with_capacity(n);
        for _ in 0..n {
            status.push(match r.u8()? {
                0 => None,
                1 => Some(FaultStatus::Detected),
                2 => Some(FaultStatus::Untestable),
                3 => Some(FaultStatus::Aborted(AbortReason::Limit)),
                4 => Some(FaultStatus::Aborted(AbortReason::Budget)),
                5 => Some(FaultStatus::Aborted(AbortReason::Panic)),
                _ => return Err(SnapshotError::Corrupt("fault status")),
            });
        }
        let n = r.count()?;
        let mut sequences = Vec::with_capacity(n);
        for _ in 0..n {
            let frames = r.count()?;
            let mut vectors = Vec::with_capacity(frames);
            for _ in 0..frames {
                let width = r.count()?;
                let mut frame = Vec::with_capacity(width);
                for _ in 0..width {
                    frame.push(match r.u8()? {
                        0 => Logic3::Zero,
                        1 => Logic3::One,
                        2 => Logic3::X,
                        _ => return Err(SnapshotError::Corrupt("logic value")),
                    });
                }
                vectors.push(frame);
            }
            sequences.push(TestSequence::new(vectors));
        }
        let backtracks = r.u64()? as usize;
        let decisions = r.u64()? as usize;
        let test_vectors = r.u64()? as usize;
        let untestable_from_ties = r.u64()? as usize;
        let budget_spent = r.u64()?;
        let n = r.count()?;
        let mut panics = Vec::with_capacity(n);
        for _ in 0..n {
            let idx = r.u64()? as usize;
            panics.push((idx, r.str()?));
        }
        if !r.at_end() {
            return Err(SnapshotError::TrailingBytes);
        }

        Ok(AtpgSnapshot {
            netlist_hash,
            faults_hash,
            config,
            implications,
            cross_frame,
            tied,
            next_fault,
            status,
            sequences,
            backtracks,
            decisions,
            test_vectors,
            untestable_from_ties,
            budget_spent,
            panics,
        })
    }

    /// The configuration the snapshotted run was using.
    pub fn config(&self) -> &AtpgOptions {
        &self.config
    }

    /// First fault index the resumed run will process.
    pub fn next_fault(&self) -> usize {
        self.next_fault
    }

    /// Rebuilds an engine and progress so the run can continue with
    /// [`AtpgEngine::advance`]. Validates that `netlist` and `faults` are
    /// the ones the snapshot was taken on.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::NetlistMismatch`] / [`SnapshotError::FaultListMismatch`]
    /// when the workload differs, and any structural error from rebuilding
    /// the engine.
    pub fn resume<'a>(
        &self,
        netlist: &'a Netlist,
        faults: &[Fault],
    ) -> Result<(AtpgEngine<'a>, RunProgress), SnapshotError> {
        if structural_hash(netlist) != self.netlist_hash {
            return Err(SnapshotError::NetlistMismatch);
        }
        if faults_hash(faults) != self.faults_hash {
            return Err(SnapshotError::FaultListMismatch);
        }
        if self.status.len() != faults.len() || self.next_fault > faults.len() {
            return Err(SnapshotError::Corrupt("progress shape"));
        }
        let mut db = ImplicationDb::new();
        for (imp, seq) in &self.implications {
            // `add` canonicalizes; the stored form is already canonical, so
            // re-adding reproduces the exact insertion order.
            db.add(*imp, *seq);
        }
        let learned = LearnedData::from_parts(db, self.tied.clone())
            .with_cross_frame(self.cross_frame.clone());
        let engine = AtpgEngine::new(netlist, self.config)
            .map_err(SnapshotError::Netlist)?
            .with_learned(learned);
        let progress = RunProgress::from_parts(
            self.next_fault,
            self.status.clone(),
            self.sequences.clone(),
            self.backtracks,
            self.decisions,
            self.test_vectors,
            self.untestable_from_ties,
            self.budget_spent,
            self.panics.clone(),
        );
        Ok((engine, progress))
    }
}

/// Decodes `bytes` and finishes the snapshotted run; on **any** snapshot
/// error falls back to a fresh full run with `config`/`learned`. Returns the
/// run and the snapshot error (if one occurred) — the caller decides whether
/// a degraded resume is worth reporting. Never panics on corrupt snapshots.
pub fn resume_or_fresh(
    bytes: &[u8],
    netlist: &Netlist,
    config: AtpgOptions,
    learned: &LearnedData,
    faults: &[Fault],
    threads: usize,
) -> (AtpgRun, Option<SnapshotError>) {
    match AtpgSnapshot::decode(bytes).and_then(|s| s.resume(netlist, faults)) {
        Ok((engine, mut progress)) => {
            engine.advance(faults, threads, &mut progress, None);
            (engine.finish(progress), None)
        }
        Err(e) => match AtpgEngine::new(netlist, config) {
            Ok(engine) => (
                engine
                    .with_learned(learned.clone())
                    .run_with_threads(faults, threads),
                Some(e),
            ),
            Err(structural) => (AtpgRun::default(), Some(SnapshotError::Netlist(structural))),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sla_netlist::{GateType, NetlistBuilder};
    use sla_sim::collapsed_fault_list;

    fn sample() -> Netlist {
        let mut b = NetlistBuilder::new("snap");
        b.input("a");
        b.input("b");
        b.gate("g", GateType::Nand, &["a", "b"]).unwrap();
        b.dff("q", "g").unwrap();
        b.gate("o", GateType::Xor, &["q", "b"]).unwrap();
        b.output("o").unwrap();
        b.build().unwrap()
    }

    fn snapshot_mid_run(netlist: &Netlist) -> (AtpgSnapshot, Vec<Fault>) {
        let faults = collapsed_fault_list(netlist);
        let engine = AtpgEngine::new(netlist, AtpgOptions::default()).unwrap();
        let mut progress = engine.start(&faults);
        engine.advance(&faults, 1, &mut progress, Some(faults.len() / 2));
        (
            AtpgSnapshot::capture(netlist, &engine, &faults, &progress),
            faults,
        )
    }

    #[test]
    fn encode_decode_round_trips() {
        let n = sample();
        let (snapshot, _) = snapshot_mid_run(&n);
        let bytes = snapshot.encode();
        let decoded = AtpgSnapshot::decode(&bytes).unwrap();
        assert_eq!(snapshot, decoded);
    }

    #[test]
    fn resume_continues_to_the_identical_result() {
        let n = sample();
        let (snapshot, faults) = snapshot_mid_run(&n);
        let engine = AtpgEngine::new(&n, AtpgOptions::default()).unwrap();
        let mut reference = engine.run_with_threads(&faults, 1);
        reference.stats.cpu = std::time::Duration::ZERO;

        let bytes = snapshot.encode();
        let decoded = AtpgSnapshot::decode(&bytes).unwrap();
        let (resumed_engine, mut progress) = decoded.resume(&n, &faults).unwrap();
        resumed_engine.advance(&faults, 1, &mut progress, None);
        let resumed = resumed_engine.finish(progress);
        assert_eq!(reference, resumed);
    }

    #[test]
    fn every_single_byte_corruption_is_detected_or_equal() {
        let n = sample();
        let (snapshot, _) = snapshot_mid_run(&n);
        let bytes = snapshot.encode();
        // Flipping any single bit must either fail decoding with a typed
        // error (the checksum makes this overwhelmingly likely) — it must
        // never panic. Exhaustive over every byte, one bit each.
        for i in 0..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[i] ^= 1 << (i % 8);
            assert!(
                AtpgSnapshot::decode(&corrupt).is_err(),
                "flip at byte {i} went undetected"
            );
        }
    }

    #[test]
    fn truncation_and_framing_errors_are_typed() {
        let n = sample();
        let (snapshot, _) = snapshot_mid_run(&n);
        let bytes = snapshot.encode();
        for len in 0..bytes.len() {
            let err = AtpgSnapshot::decode(&bytes[..len]).unwrap_err();
            assert!(
                matches!(
                    err,
                    SnapshotError::Truncated | SnapshotError::ChecksumMismatch
                ),
                "prefix of {len} bytes gave {err:?}"
            );
        }
        assert_eq!(
            AtpgSnapshot::decode(b"nope").unwrap_err(),
            SnapshotError::BadMagic
        );
        let mut future = bytes.clone();
        future[4] = 0xEE; // version bytes sit right after the magic
        future[5] = 0xFF;
        assert!(matches!(
            AtpgSnapshot::decode(&future).unwrap_err(),
            SnapshotError::UnsupportedVersion { .. }
        ));
    }

    #[test]
    fn mismatched_workload_is_rejected_on_resume() {
        let n = sample();
        let (snapshot, faults) = snapshot_mid_run(&n);
        let mut other = NetlistBuilder::new("other");
        other.input("a");
        other.gate("o", GateType::Not, &["a"]).unwrap();
        other.output("o").unwrap();
        let other = other.build().unwrap();
        let other_faults = collapsed_fault_list(&other);
        assert_eq!(
            snapshot.resume(&other, &other_faults).unwrap_err(),
            SnapshotError::NetlistMismatch
        );
        let mut short = faults.clone();
        short.pop();
        assert_eq!(
            snapshot.resume(&n, &short).unwrap_err(),
            SnapshotError::FaultListMismatch
        );
    }

    #[test]
    fn resume_or_fresh_degrades_to_a_fresh_run() {
        let n = sample();
        let (snapshot, faults) = snapshot_mid_run(&n);
        let mut bytes = snapshot.encode();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        let baseline = AtpgEngine::new(&n, AtpgOptions::default())
            .unwrap()
            .run_with_threads(&faults, 1);
        let (run, err) = resume_or_fresh(
            &bytes,
            &n,
            AtpgOptions::default(),
            &LearnedData::new(),
            &faults,
            1,
        );
        assert!(err.is_some(), "corruption must be reported");
        assert_eq!(run.status, baseline.status);
        assert_eq!(run.sequences, baseline.sequences);

        // A healthy snapshot resumes without an error.
        let (run, err) = resume_or_fresh(
            &snapshot.encode(),
            &n,
            AtpgOptions::default(),
            &LearnedData::new(),
            &faults,
            1,
        );
        assert!(err.is_none());
        assert_eq!(run.status, baseline.status);
    }

    #[test]
    fn structural_hash_tracks_structure() {
        let a = sample();
        let b = sample();
        assert_eq!(structural_hash(&a), structural_hash(&b));
        let mut c = NetlistBuilder::new("snap");
        c.input("a");
        c.input("b");
        c.gate("g", GateType::And, &["a", "b"]).unwrap(); // Nand -> And
        c.dff("q", "g").unwrap();
        c.gate("o", GateType::Xor, &["q", "b"]).unwrap();
        c.output("o").unwrap();
        let c = c.build().unwrap();
        assert_ne!(structural_hash(&a), structural_hash(&c));
        let fa = collapsed_fault_list(&a);
        assert_eq!(faults_hash(&fa), faults_hash(&collapsed_fault_list(&b)));
        assert_ne!(faults_hash(&fa), faults_hash(&fa[1..]));
    }
}
