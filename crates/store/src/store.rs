//! The on-disk learned-knowledge cache.
//!
//! Layout: a directory holding one `index` file plus one `<key>.slal` file
//! per entry. Both are framed with the snapshot codec — 4-byte magic, `u32`
//! version, payload, trailing checksum — so corrupt or foreign bytes decode
//! to a typed [`StoreError`] instead of panicking.
//!
//! The index records keys in insertion order; that order is the eviction
//! order (FIFO at capacity) and the iteration order, so every replica of a
//! store that saw the same inserts holds the same entries. Writes go through
//! a temporary file plus rename, so a crash mid-write leaves the previous
//! index/entry intact rather than a torn file.

use crate::{StoreError, StoreKey};
use sla_atpg::LearnedData;
use sla_core::ImplicationDb;
use sla_snapshot::codec::{self, Reader, Writer};
use sla_snapshot::SnapshotError;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// Magic of the index file.
const INDEX_MAGIC: &[u8; 4] = b"SLAI";
/// Magic of an entry file.
const ENTRY_MAGIC: &[u8; 4] = b"SLAL";
/// On-disk format version of both files.
const STORE_FORMAT_VERSION: u32 = 1;

/// A persistent cache of learned databases keyed by [`StoreKey`].
///
/// The in-memory state is just the key list (insertion order); entry
/// payloads stay on disk until [`LearnedStore::lookup`] reads them.
#[derive(Debug)]
pub struct LearnedStore {
    dir: PathBuf,
    capacity: usize,
    keys: Vec<StoreKey>,
}

impl LearnedStore {
    /// Opens (or creates) the store at `dir`, holding at most `capacity`
    /// entries. A missing directory or index means an empty store; a
    /// present-but-corrupt index is a typed error (use
    /// [`LearnedStore::open_or_reset`] to fall back to empty instead).
    pub fn open(dir: impl Into<PathBuf>, capacity: usize) -> Result<LearnedStore, StoreError> {
        let dir = dir.into();
        fs::create_dir_all(&dir).map_err(|source| StoreError::Io {
            op: "create",
            path: dir.clone(),
            source,
        })?;
        let index = dir.join("index");
        let keys = match fs::read(&index) {
            Ok(bytes) => decode_index(&bytes).map_err(|source| StoreError::Codec {
                path: index.clone(),
                source,
            })?,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(source) => {
                return Err(StoreError::Io {
                    op: "read",
                    path: index,
                    source,
                })
            }
        };
        Ok(LearnedStore {
            dir,
            capacity: capacity.max(1),
            keys,
        })
    }

    /// Like [`LearnedStore::open`], but a corrupt index resets the store to
    /// empty instead of failing. Returns the error that forced the reset so
    /// the caller can log why the cache came up cold.
    pub fn open_or_reset(
        dir: impl Into<PathBuf>,
        capacity: usize,
    ) -> (LearnedStore, Option<StoreError>) {
        let dir = dir.into();
        match LearnedStore::open(dir.clone(), capacity) {
            Ok(store) => (store, None),
            Err(err) => {
                // Best-effort removal of the bad index; a fresh store starts
                // from scratch either way.
                let _ = fs::remove_file(dir.join("index"));
                let store = LearnedStore {
                    dir,
                    capacity: capacity.max(1),
                    keys: Vec::new(),
                };
                (store, Some(err))
            }
        }
    }

    /// Directory holding the index and entry files.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Maximum number of entries before FIFO eviction.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Returns `true` when no entries are cached.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Returns `true` when `key` has an index slot.
    pub fn contains(&self, key: &StoreKey) -> bool {
        self.keys.contains(key)
    }

    /// The cached keys in insertion order (= eviction order).
    pub fn keys(&self) -> &[StoreKey] {
        &self.keys
    }

    /// Path of the entry file for `key`.
    pub(crate) fn entry_path(&self, key: &StoreKey) -> PathBuf {
        self.dir.join(format!("{key}.slal"))
    }

    /// Reads the learned database cached under `key`. `Ok(None)` means the
    /// key is not in the index; an `Err` means the index claims the entry
    /// but its bytes are missing, corrupt or mismatched — callers should
    /// treat that as a miss and may repopulate via [`LearnedStore::insert`].
    pub fn lookup(&self, key: &StoreKey) -> Result<Option<LearnedData>, StoreError> {
        if !self.contains(key) {
            return Ok(None);
        }
        let path = self.entry_path(key);
        let bytes = fs::read(&path).map_err(|source| StoreError::Io {
            op: "read",
            path: path.clone(),
            source,
        })?;
        let (found, learned) = decode_entry(&bytes).map_err(|source| StoreError::Codec {
            path: path.clone(),
            source,
        })?;
        if found != *key {
            return Err(StoreError::KeyMismatch {
                path,
                expected: *key,
                found,
            });
        }
        Ok(Some(learned))
    }

    /// Caches `learned` under `key`. Re-inserting an existing key overwrites
    /// its entry file without changing its index position; a new key appends
    /// and, at capacity, evicts the oldest entries first.
    pub fn insert(&mut self, key: StoreKey, learned: &LearnedData) -> Result<(), StoreError> {
        let path = self.entry_path(&key);
        self.write_atomic(&path, &encode_entry(&key, learned))?;
        if !self.contains(&key) {
            self.keys.push(key);
            while self.keys.len() > self.capacity {
                let victim = self.keys.remove(0);
                let victim_path = self.entry_path(&victim);
                match fs::remove_file(&victim_path) {
                    Ok(()) => {}
                    Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                    Err(source) => {
                        return Err(StoreError::Io {
                            op: "evict",
                            path: victim_path,
                            source,
                        })
                    }
                }
            }
        }
        let index = self.dir.join("index");
        self.write_atomic(&index, &encode_index(&self.keys))
    }

    /// Writes `bytes` to `path` via a temporary sibling plus rename, so the
    /// previous contents survive a crash mid-write.
    fn write_atomic(&self, path: &Path, bytes: &[u8]) -> Result<(), StoreError> {
        let tmp = self.dir.join(".tmp");
        let io = |op: &'static str, path: &Path| {
            let path = path.to_path_buf();
            move |source| StoreError::Io { op, path, source }
        };
        let mut f = fs::File::create(&tmp).map_err(io("write", &tmp))?;
        f.write_all(bytes).map_err(io("write", &tmp))?;
        f.sync_all().map_err(io("write", &tmp))?;
        drop(f);
        fs::rename(&tmp, path).map_err(io("rename", path))
    }
}

fn encode_index(keys: &[StoreKey]) -> Vec<u8> {
    let mut w = Writer::new();
    w.bytes_raw(INDEX_MAGIC);
    w.u32(STORE_FORMAT_VERSION);
    w.u32(keys.len() as u32);
    for key in keys {
        w.u64(key.netlist_hash);
        w.u64(key.config_hash);
    }
    w.seal()
}

fn decode_index(bytes: &[u8]) -> Result<Vec<StoreKey>, SnapshotError> {
    let mut r = codec::check_frame(bytes, INDEX_MAGIC, STORE_FORMAT_VERSION)?;
    let count = r.count()?;
    let mut keys = Vec::with_capacity(count);
    for _ in 0..count {
        keys.push(StoreKey {
            netlist_hash: r.u64()?,
            config_hash: r.u64()?,
        });
    }
    finish(r)?;
    Ok(keys)
}

fn encode_entry(key: &StoreKey, learned: &LearnedData) -> Vec<u8> {
    let mut w = Writer::new();
    w.bytes_raw(ENTRY_MAGIC);
    w.u32(STORE_FORMAT_VERSION);
    w.u64(key.netlist_hash);
    w.u64(key.config_hash);
    let implications: Vec<_> = learned.implications().iter().collect();
    codec::write_relations(&mut w, &implications, learned.cross_frame(), learned.tied());
    w.seal()
}

fn decode_entry(bytes: &[u8]) -> Result<(StoreKey, LearnedData), SnapshotError> {
    let mut r = codec::check_frame(bytes, ENTRY_MAGIC, STORE_FORMAT_VERSION)?;
    let key = StoreKey {
        netlist_hash: r.u64()?,
        config_hash: r.u64()?,
    };
    let (implications, cross, tied) = codec::read_relations(&mut r)?;
    finish(r)?;
    // `add` canonicalizes; the stored form is already canonical, so re-adding
    // reproduces the exact insertion order the learner produced.
    let mut db = ImplicationDb::new();
    for (imp, seq) in &implications {
        db.add(*imp, *seq);
    }
    let learned = LearnedData::from_parts(db, tied).with_cross_frame(cross);
    Ok((key, learned))
}

fn finish(r: Reader<'_>) -> Result<(), SnapshotError> {
    if r.at_end() {
        Ok(())
    } else {
        Err(SnapshotError::TrailingBytes)
    }
}
