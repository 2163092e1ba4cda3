//! Persistent learned-knowledge store and the unified ATPG session API.
//!
//! The paper's learning pass is a preprocessing step: its output (the
//! implication database, tied gates and cross-frame relations) is a pure
//! function of the netlist structure and the learning configuration. This
//! crate caches that output on disk so repeated runs on the same circuit —
//! regression loops, the `sla-serve` service answering many requests for one
//! design — skip learning entirely and still produce bit-identical ATPG
//! results.
//!
//! Three layers:
//!
//! - [`LearnedStore`]: the on-disk cache. Entries are keyed by
//!   [`StoreKey`] (structural netlist hash + learning-config hash), framed
//!   with the `sla-snapshot` codec (magic, version, checksum; typed decode
//!   errors, never a panic on corrupt bytes), and kept in insertion order
//!   with FIFO eviction at capacity.
//! - [`Session`]: the unified front door —
//!   `Session::open(&netlist).learn(..)` then `.atpg(..)`, with
//!   [`Session::learn_cached`] doing lookup-before-learn against a store.
//! - [`proto`]/[`server`]: a framed request/response protocol over TCP and
//!   the single-threaded `sla-serve` accept loop that shares one store
//!   across requests. The wire protocol serializes the same public types the
//!   in-process API speaks.
//!
//! Determinism contract: a warm-cache run is bit-identical to a cold run at
//! every `SLA_THREADS` (the cached database round-trips in canonical
//! insertion order, and the ATPG engine is deterministic given the same
//! learned data). The only run-to-run variant fields — wall-clock times and
//! `wasted_speculations` — are excluded from the wire protocol.

mod session;
mod store;

pub mod proto;
pub mod server;

pub use session::{CacheOutcome, LearnReport, Session};
pub use store::LearnedStore;

use sla_core::LearnOptions;
use sla_netlist::{Netlist, NodeId};
use sla_snapshot::SnapshotError;
use std::fmt;
use std::hash::Hasher;
use std::path::PathBuf;

/// Cache key of a learned database: the structural netlist hash plus a hash
/// of every learning knob that influences the learned output.
///
/// Two netlists with the same structure and the same learning configuration
/// produce the same learned database (learning is deterministic), so a key
/// match makes the cached entry a sound substitute for a fresh run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StoreKey {
    /// [`Netlist::structural_hash`] of the design.
    pub netlist_hash: u64,
    /// Hash over all [`LearnOptions`] fields (including the equivalence
    /// detection configuration and the budget limit).
    pub config_hash: u64,
}

impl StoreKey {
    /// The key for learning `netlist` under `options`.
    pub fn new(netlist: &Netlist, options: &LearnOptions) -> StoreKey {
        StoreKey {
            netlist_hash: netlist.structural_hash(),
            config_hash: Self::config_hash(options),
        }
    }

    /// Hashes every learning knob. Any field that can change the learned
    /// output must be included, otherwise a stale entry could be returned
    /// for a different configuration.
    pub fn config_hash(options: &LearnOptions) -> u64 {
        let mut h = sla_netlist::FastHasher::default();
        h.write_u64(options.max_frames as u64);
        h.write_u8(options.multiple_node as u8);
        h.write_u8(options.gate_equivalence as u8);
        h.write_u8(options.learn_cross_frame as u8);
        h.write_u64(options.equiv_config.random_words as u64);
        h.write_u64(options.equiv_config.seed);
        h.write_u64(options.equiv_config.exhaustive_input_limit as u64);
        h.write_u64(options.max_multi_node_targets as u64);
        h.write_u64(options.budget.limit());
        h.finish()
    }
}

impl fmt::Display for StoreKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}-{:016x}", self.netlist_hash, self.config_hash)
    }
}

/// Why a store operation failed. Every variant keeps its cause so callers
/// (the server in particular) can log the full chain via
/// [`std::error::Error::source`] — see [`error_chain`].
#[derive(Debug)]
pub enum StoreError {
    /// A filesystem operation failed.
    Io {
        /// What the store was doing (`"create"`, `"read"`, `"write"`, ...).
        op: &'static str,
        /// File or directory the operation targeted.
        path: PathBuf,
        /// The underlying I/O error.
        source: std::io::Error,
    },
    /// A stored frame failed to decode (bad magic, version mismatch,
    /// checksum mismatch, truncation, out-of-range field).
    Codec {
        /// File whose bytes were rejected.
        path: PathBuf,
        /// The typed decode error from the snapshot codec.
        source: SnapshotError,
    },
    /// An entry file decoded cleanly but echoes a different key than its
    /// index slot claims — the index and the entry disagree.
    KeyMismatch {
        /// File whose key echo was wrong.
        path: PathBuf,
        /// Key the index expected.
        expected: StoreKey,
        /// Key the entry file carries.
        found: StoreKey,
    },
    /// An entry decoded cleanly under the right key but names a node the
    /// netlist does not have: the file was tampered with, or two netlists
    /// share a structural hash.
    NodeOutOfRange {
        /// File whose learned data was rejected.
        path: PathBuf,
        /// The first node id out of range.
        node: NodeId,
        /// Number of nodes of the netlist the entry was looked up for.
        num_nodes: usize,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io { op, path, .. } => {
                write!(f, "store {op} failed for {}", path.display())
            }
            StoreError::Codec { path, .. } => {
                write!(f, "store entry {} failed to decode", path.display())
            }
            StoreError::KeyMismatch {
                path,
                expected,
                found,
            } => write!(
                f,
                "store entry {} echoes key {found}, index expected {expected}",
                path.display()
            ),
            StoreError::NodeOutOfRange {
                path,
                node,
                num_nodes,
            } => write!(
                f,
                "store entry {} names node {node}, but the netlist has {num_nodes} nodes",
                path.display()
            ),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io { source, .. } => Some(source),
            StoreError::Codec { source, .. } => Some(source),
            StoreError::KeyMismatch { .. } | StoreError::NodeOutOfRange { .. } => None,
        }
    }
}

/// Renders an error and its full `source` chain as a single line
/// (`error: cause: root cause`), the form the server logs.
pub fn error_chain(err: &dyn std::error::Error) -> String {
    let mut out = err.to_string();
    let mut cur = err.source();
    while let Some(e) = cur {
        out.push_str(": ");
        out.push_str(&e.to_string());
        cur = e.source();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_hash_covers_every_knob() {
        use sla_core::WorkBudget;
        let base = LearnOptions::default();
        let variants = [
            LearnOptions::builder().max_frames(7).build(),
            LearnOptions::builder().multiple_node(false).build(),
            LearnOptions::builder().gate_equivalence(false).build(),
            LearnOptions::builder().cross_frame(true).build(),
            LearnOptions::builder()
                .equiv_config(sla_sim::EquivConfig {
                    random_words: 3,
                    ..Default::default()
                })
                .build(),
            LearnOptions::builder().max_multi_node_targets(5).build(),
            LearnOptions::builder()
                .budget(WorkBudget::units(100))
                .build(),
        ];
        let base_hash = StoreKey::config_hash(&base);
        for (i, v) in variants.iter().enumerate() {
            assert_ne!(
                StoreKey::config_hash(v),
                base_hash,
                "variant {i} must change the config hash"
            );
        }
        assert_eq!(
            StoreKey::config_hash(&base),
            StoreKey::config_hash(&LearnOptions::default()),
            "hash is deterministic"
        );
    }

    #[test]
    fn error_chain_reports_sources() {
        let err = StoreError::Codec {
            path: PathBuf::from("/tmp/x"),
            source: SnapshotError::ChecksumMismatch,
        };
        let chain = error_chain(&err);
        assert!(chain.contains("failed to decode"), "{chain}");
        assert!(chain.contains("checksum"), "{chain}");
    }
}
