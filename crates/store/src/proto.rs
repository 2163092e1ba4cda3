//! The framed wire protocol `sla-serve` speaks.
//!
//! Every message is a `u32` little-endian length prefix followed by a sealed
//! codec frame: 4-byte magic `SLAF`, `u32` version, a one-byte message tag,
//! the body and the trailing checksum. The body serializes the same public
//! types the in-process API uses — [`LearnOptions`], [`AtpgOptions`],
//! [`FaultStatus`] — so the wire protocol is exactly the session API with
//! bytes instead of references. The one translation: faults travel as
//! [`FaultSpec`]s, which name their site by *node name* rather than node
//! id. Node ids are arena indices and are not stable across a
//! `.bench` round trip (the writer groups declarations by kind); names
//! are the identity the bench format itself uses, so the server resolves
//! them against its parsed netlist and a bad name is a typed error frame,
//! never a panic. Thread-variant diagnostics
//! (wall-clock times, wasted speculations) are deliberately absent: two
//! servers answering the same request send identical bytes.
//!
//! A conversation: the client sends [`Message::Request`]; the server streams
//! one [`Message::Verdict`] per fault in strict fault order, then one
//! [`Message::Done`] summary. Malformed requests get [`Message::Error`].
//! [`Message::Shutdown`] asks the server process to exit cleanly.
//!
//! Transport: [`write_message`] hands each message to the writer as a
//! single `write_all` of prefix and frame, built in one buffer, and then
//! flushes. A length prefix written on its own would leave as a TCP segment
//! of its own, and Nagle's algorithm plus the peer's delayed ACK would then
//! hold the frame behind it for tens of milliseconds. The server batches
//! each merged stride of verdicts into one flush with the same framing.

use sla_atpg::{AbortReason, AtpgOptions, FaultStatus};
use sla_core::{LearnOptions, WorkBudget};
use sla_netlist::{Netlist, NetlistError};
use sla_sim::{Fault, FaultSite};
use sla_snapshot::codec::{self, Reader, Writer};
use sla_snapshot::SnapshotError;
use std::fmt;
use std::io::{Read, Write};

use crate::CacheOutcome;

/// Magic of every wire frame.
const MAGIC: &[u8; 4] = b"SLAF";
/// Wire protocol version.
const PROTO_VERSION: u32 = 2;
/// Upper bound on a single frame, defending the length prefix against
/// garbage: a million-gate bench text stays well under this.
pub const MAX_FRAME: u32 = 256 * 1024 * 1024;
/// Bytes of the little-endian `u32` length prefix in front of every frame.
const PREFIX_LEN: usize = 4;

const TAG_REQUEST: u8 = 1;
const TAG_VERDICT: u8 = 2;
const TAG_DONE: u8 = 3;
const TAG_ERROR: u8 = 4;
const TAG_SHUTDOWN: u8 = 5;

/// A stuck-at fault named by its site, the wire form of [`Fault`].
///
/// Node ids are positions in the sender's arena and mean nothing to a
/// receiver that re-parsed the netlist from text; node *names* are the
/// stable identity. [`FaultSpec::from_fault`] translates outgoing faults,
/// [`FaultSpec::resolve`] translates incoming ones (with bounds checks, so
/// a hostile spec is an error, not a panic).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultSpec {
    /// Stuck-at on the output line of the named node.
    Output {
        /// Node name.
        node: String,
        /// Stuck-at value.
        stuck_at: bool,
    },
    /// Stuck-at on input pin `pin` of the named gate.
    Input {
        /// Gate name.
        gate: String,
        /// Zero-based fanin position.
        pin: u32,
        /// Stuck-at value.
        stuck_at: bool,
    },
}

impl FaultSpec {
    /// The wire form of `fault`, naming its site via `netlist`.
    pub fn from_fault(netlist: &Netlist, fault: &Fault) -> FaultSpec {
        match fault.site {
            FaultSite::Output(node) => FaultSpec::Output {
                node: netlist.node(node).name.to_string(),
                stuck_at: fault.stuck_at,
            },
            FaultSite::Input { gate, pin } => FaultSpec::Input {
                gate: netlist.node(gate).name.to_string(),
                pin: pin as u32,
                stuck_at: fault.stuck_at,
            },
        }
    }

    /// Resolves the named site against `netlist`. Unknown names and
    /// out-of-range pins are errors.
    pub fn resolve(&self, netlist: &Netlist) -> Result<Fault, NetlistError> {
        match self {
            FaultSpec::Output { node, stuck_at } => {
                Ok(Fault::output(netlist.require(node)?, *stuck_at))
            }
            FaultSpec::Input {
                gate,
                pin,
                stuck_at,
            } => {
                let id = netlist.require(gate)?;
                let arity = netlist.fanins(id).len();
                if *pin as usize >= arity {
                    return Err(NetlistError::Invalid(format!(
                        "fault pin {pin} out of range for '{gate}' (arity {arity})"
                    )));
                }
                Ok(Fault::input(id, *pin as usize, *stuck_at))
            }
        }
    }
}

/// Translates a whole fault list into wire form, preserving order.
pub fn fault_specs(netlist: &Netlist, faults: &[Fault]) -> Vec<FaultSpec> {
    faults
        .iter()
        .map(|f| FaultSpec::from_fault(netlist, f))
        .collect()
}

/// Resolves a whole wire fault list, preserving order.
pub fn resolve_faults(netlist: &Netlist, specs: &[FaultSpec]) -> Result<Vec<Fault>, NetlistError> {
    specs.iter().map(|s| s.resolve(netlist)).collect()
}

/// One unit of work for the server: a netlist (as `.bench` text), the
/// faults to target and the session configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Design name (used for the parsed netlist and in server logs).
    pub name: String,
    /// The netlist in ISCAS-89 `.bench` syntax
    /// ([`sla_netlist::writer::write_bench`] emits it, the server parses
    /// it back).
    pub bench: String,
    /// Target faults by site name, in the order verdicts will be streamed.
    pub faults: Vec<FaultSpec>,
    /// Learning configuration; `None` runs ATPG without learning.
    pub learn: Option<LearnOptions>,
    /// Test generation configuration.
    pub atpg: AtpgOptions,
}

/// End-of-request summary: the deterministic slice of
/// [`sla_atpg::AtpgStats`] plus what the knowledge cache did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Summary {
    /// Number of target faults.
    pub total_faults: u32,
    /// Faults detected.
    pub detected: u32,
    /// Faults proven untestable.
    pub untestable: u32,
    /// Faults aborted.
    pub aborted: u32,
    /// Total backtracks of merged searches.
    pub backtracks: u64,
    /// Total decisions of merged searches.
    pub decisions: u64,
    /// Validated test sequences generated.
    pub sequences: u32,
    /// Total test vectors across all sequences.
    pub test_vectors: u64,
    /// ATPG work units charged against the budget.
    pub budget_spent: u64,
    /// Whether learning hit the persistent cache.
    pub cache: CacheOutcome,
    /// Learning work units spent (zero on a cache hit).
    pub learn_work_units: u64,
}

/// A protocol message, either direction.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// Client → server: run this workload.
    Request(Request),
    /// Server → client: the verdict for one fault, in strict fault order.
    Verdict {
        /// Index into the request's fault list.
        index: u32,
        /// Final classification.
        status: FaultStatus,
    },
    /// Server → client: the request completed; summary statistics.
    Done(Summary),
    /// Server → client: the request could not be served.
    Error(String),
    /// Client → server: finish up and exit.
    Shutdown,
}

/// Why a message could not be read.
#[derive(Debug)]
pub enum ProtoError {
    /// The underlying stream failed (including unexpected EOF mid-frame).
    Io(std::io::Error),
    /// The frame length prefix exceeds [`MAX_FRAME`].
    Oversize(u32),
    /// The frame bytes failed to decode.
    Frame(SnapshotError),
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtoError::Io(_) => write!(f, "wire read failed"),
            ProtoError::Oversize(n) => write!(f, "frame length {n} exceeds limit {MAX_FRAME}"),
            ProtoError::Frame(_) => write!(f, "wire frame failed to decode"),
        }
    }
}

impl std::error::Error for ProtoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ProtoError::Io(e) => Some(e),
            ProtoError::Oversize(_) => None,
            ProtoError::Frame(e) => Some(e),
        }
    }
}

impl From<SnapshotError> for ProtoError {
    fn from(e: SnapshotError) -> ProtoError {
        ProtoError::Frame(e)
    }
}

/// Serializes `msg` as a sealed frame (without the length prefix).
pub fn encode_message(msg: &Message) -> Vec<u8> {
    seal_message(Writer::new(), msg)
}

/// Writes the frame of `msg` into `w` and seals it.
fn seal_message(mut w: Writer, msg: &Message) -> Vec<u8> {
    w.bytes_raw(MAGIC);
    w.u32(PROTO_VERSION);
    match msg {
        Message::Request(req) => {
            w.u8(TAG_REQUEST);
            w.str(&req.name);
            w.str(&req.bench);
            w.u32(req.faults.len() as u32);
            for spec in &req.faults {
                match spec {
                    FaultSpec::Output { node, stuck_at } => {
                        w.u8(0);
                        w.str(node);
                        w.u8(*stuck_at as u8);
                    }
                    FaultSpec::Input {
                        gate,
                        pin,
                        stuck_at,
                    } => {
                        w.u8(1);
                        w.str(gate);
                        w.u32(*pin);
                        w.u8(*stuck_at as u8);
                    }
                }
            }
            match &req.learn {
                None => w.u8(0),
                Some(opts) => {
                    w.u8(1);
                    write_learn_options(&mut w, opts);
                }
            }
            codec::write_atpg_options(&mut w, &req.atpg);
        }
        Message::Verdict { index, status } => {
            w.u8(TAG_VERDICT);
            w.u32(*index);
            w.u8(encode_status(*status));
        }
        Message::Done(s) => {
            w.u8(TAG_DONE);
            w.u32(s.total_faults);
            w.u32(s.detected);
            w.u32(s.untestable);
            w.u32(s.aborted);
            w.u64(s.backtracks);
            w.u64(s.decisions);
            w.u32(s.sequences);
            w.u64(s.test_vectors);
            w.u64(s.budget_spent);
            w.u8(match s.cache {
                CacheOutcome::Uncached => 0,
                CacheOutcome::Hit => 1,
                CacheOutcome::Miss => 2,
            });
            w.u64(s.learn_work_units);
        }
        Message::Error(text) => {
            w.u8(TAG_ERROR);
            w.str(text);
        }
        Message::Shutdown => {
            w.u8(TAG_SHUTDOWN);
        }
    }
    w.seal()
}

/// Decodes one sealed frame.
pub fn decode_message(bytes: &[u8]) -> Result<Message, SnapshotError> {
    let mut r = codec::check_frame(bytes, MAGIC, PROTO_VERSION)?;
    let msg = match r.u8()? {
        TAG_REQUEST => {
            let name = r.str()?;
            let bench = r.str()?;
            let count = r.count()?;
            let mut faults = Vec::with_capacity(count);
            for _ in 0..count {
                faults.push(match r.u8()? {
                    0 => FaultSpec::Output {
                        node: r.str()?,
                        stuck_at: r.bool()?,
                    },
                    1 => FaultSpec::Input {
                        gate: r.str()?,
                        pin: r.u32()?,
                        stuck_at: r.bool()?,
                    },
                    _ => return Err(SnapshotError::Corrupt("fault site")),
                });
            }
            let learn = match r.u8()? {
                0 => None,
                1 => Some(read_learn_options(&mut r)?),
                _ => return Err(SnapshotError::Corrupt("learn flag")),
            };
            let atpg = codec::read_atpg_options(&mut r)?;
            Message::Request(Request {
                name,
                bench,
                faults,
                learn,
                atpg,
            })
        }
        TAG_VERDICT => Message::Verdict {
            index: r.u32()?,
            status: decode_status(r.u8()?)?,
        },
        TAG_DONE => Message::Done(Summary {
            total_faults: r.u32()?,
            detected: r.u32()?,
            untestable: r.u32()?,
            aborted: r.u32()?,
            backtracks: r.u64()?,
            decisions: r.u64()?,
            sequences: r.u32()?,
            test_vectors: r.u64()?,
            budget_spent: r.u64()?,
            cache: match r.u8()? {
                0 => CacheOutcome::Uncached,
                1 => CacheOutcome::Hit,
                2 => CacheOutcome::Miss,
                _ => return Err(SnapshotError::Corrupt("cache outcome")),
            },
            learn_work_units: r.u64()?,
        }),
        TAG_ERROR => Message::Error(r.str()?),
        TAG_SHUTDOWN => Message::Shutdown,
        _ => return Err(SnapshotError::Corrupt("message tag")),
    };
    if !r.at_end() {
        return Err(SnapshotError::TrailingBytes);
    }
    Ok(msg)
}

/// Writes `msg` to `out` with its length prefix, in one `write_all`, and
/// flushes.
///
/// The flush makes every message leave on its own, which is what a client
/// waiting for the answer to its request needs.
///
/// # Errors
///
/// A frame longer than [`MAX_FRAME`] is an [`std::io::ErrorKind::InvalidInput`]
/// error and nothing is written; otherwise any error of `out`.
pub fn write_message(out: &mut impl Write, msg: &Message) -> std::io::Result<()> {
    write_message_unflushed(out, msg)?;
    out.flush()
}

/// [`write_message`] without the flush: hands the length prefix and the
/// frame to `out` in one `write_all` and leaves flushing to the caller, so
/// a buffered writer can batch several small messages into one send.
///
/// # Errors
///
/// As [`write_message`].
pub(crate) fn write_message_unflushed(out: &mut impl Write, msg: &Message) -> std::io::Result<()> {
    // The frame is sealed behind room for the prefix, so an 8 MB request
    // is not copied a second time to put four bytes in front of it.
    let mut bytes = seal_message(Writer::with_reserved(PREFIX_LEN), msg);
    let len = bytes.len() - PREFIX_LEN;
    let prefix = u32::try_from(len)
        .ok()
        .filter(|&n| n <= MAX_FRAME)
        .ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!("frame length {len} exceeds limit {MAX_FRAME}"),
            )
        })?;
    bytes[..PREFIX_LEN].copy_from_slice(&prefix.to_le_bytes());
    out.write_all(&bytes)
}

/// Reads one message, blocking. EOF before a length prefix is a clean end
/// of conversation (`Ok(None)`); EOF mid-frame is an error.
pub fn read_message(input: &mut impl Read) -> Result<Option<Message>, ProtoError> {
    let mut prefix = [0u8; PREFIX_LEN];
    match input.read_exact(&mut prefix) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(ProtoError::Io(e)),
    }
    let len = u32::from_le_bytes(prefix);
    if len > MAX_FRAME {
        return Err(ProtoError::Oversize(len));
    }
    let mut frame = vec![0u8; len as usize];
    input.read_exact(&mut frame).map_err(ProtoError::Io)?;
    Ok(Some(decode_message(&frame)?))
}

fn encode_status(status: FaultStatus) -> u8 {
    match status {
        FaultStatus::Detected => 0,
        FaultStatus::Untestable => 1,
        FaultStatus::Aborted(AbortReason::Limit) => 2,
        FaultStatus::Aborted(AbortReason::Budget) => 3,
        FaultStatus::Aborted(AbortReason::Panic) => 4,
    }
}

fn decode_status(tag: u8) -> Result<FaultStatus, SnapshotError> {
    Ok(match tag {
        0 => FaultStatus::Detected,
        1 => FaultStatus::Untestable,
        2 => FaultStatus::Aborted(AbortReason::Limit),
        3 => FaultStatus::Aborted(AbortReason::Budget),
        4 => FaultStatus::Aborted(AbortReason::Panic),
        _ => return Err(SnapshotError::Corrupt("fault status")),
    })
}

fn write_learn_options(w: &mut Writer, opts: &LearnOptions) {
    w.u64(opts.max_frames as u64);
    w.u8(opts.multiple_node as u8);
    w.u8(opts.gate_equivalence as u8);
    w.u8(opts.learn_cross_frame as u8);
    w.u64(opts.equiv_config.random_words as u64);
    w.u64(opts.equiv_config.seed);
    w.u64(opts.equiv_config.exhaustive_input_limit as u64);
    w.u64(opts.max_multi_node_targets as u64);
    w.u64(opts.budget.limit());
}

fn read_learn_options(r: &mut Reader<'_>) -> Result<LearnOptions, SnapshotError> {
    let max_frames = r.u64()? as usize;
    let multiple_node = r.bool()?;
    let gate_equivalence = r.bool()?;
    let learn_cross_frame = r.bool()?;
    let equiv_config = sla_sim::EquivConfig {
        random_words: r.u64()? as usize,
        seed: r.u64()?,
        exhaustive_input_limit: r.u64()? as usize,
    };
    let max_multi_node_targets = r.u64()? as usize;
    let limit = r.u64()?;
    let budget = if limit == u64::MAX {
        WorkBudget::unlimited()
    } else {
        WorkBudget::units(limit)
    };
    Ok(LearnOptions::builder()
        .max_frames(max_frames)
        .multiple_node(multiple_node)
        .gate_equivalence(gate_equivalence)
        .cross_frame(learn_cross_frame)
        .equiv_config(equiv_config)
        .max_multi_node_targets(max_multi_node_targets)
        .budget(budget)
        .build())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(msg: &Message) -> Message {
        let mut buf = Vec::new();
        write_message(&mut buf, msg).expect("write to vec");
        let mut cursor = buf.as_slice();
        let back = read_message(&mut cursor)
            .expect("decode")
            .expect("one message");
        assert!(cursor.is_empty(), "no trailing bytes after one message");
        back
    }

    /// One message of every kind: a full and an empty request, a verdict
    /// per status, a summary, an error and a shutdown.
    fn every_kind() -> Vec<Message> {
        let mut msgs = vec![
            Message::Request(Request {
                name: "s27".to_string(),
                bench: "INPUT(a)\nOUTPUT(b)\nb = NOT(a)\n".to_string(),
                faults: vec![
                    FaultSpec::Output {
                        node: "a".to_string(),
                        stuck_at: true,
                    },
                    FaultSpec::Input {
                        gate: "b".to_string(),
                        pin: 0,
                        stuck_at: false,
                    },
                ],
                learn: Some(LearnOptions::builder().cross_frame(true).build()),
                atpg: AtpgOptions::builder().backtrack_limit(7).build(),
            }),
            Message::Request(Request {
                name: String::new(),
                bench: String::new(),
                faults: Vec::new(),
                learn: None,
                atpg: AtpgOptions::default(),
            }),
        ];
        msgs.extend(
            [
                FaultStatus::Detected,
                FaultStatus::Untestable,
                FaultStatus::Aborted(AbortReason::Limit),
                FaultStatus::Aborted(AbortReason::Budget),
                FaultStatus::Aborted(AbortReason::Panic),
            ]
            .map(|status| Message::Verdict { index: 42, status }),
        );
        msgs.extend([
            Message::Done(Summary {
                total_faults: 10,
                detected: 7,
                untestable: 2,
                aborted: 1,
                backtracks: 100,
                decisions: 2000,
                sequences: 7,
                test_vectors: 31,
                budget_spent: 2100,
                cache: CacheOutcome::Hit,
                learn_work_units: 0,
            }),
            Message::Error("bad".to_string()),
            Message::Shutdown,
        ]);
        msgs
    }

    /// Records the bytes of every `write` call and counts flushes.
    #[derive(Default)]
    struct Recorder {
        writes: Vec<Vec<u8>>,
        flushes: usize,
    }

    impl Write for Recorder {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes.push(buf.to_vec());
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            self.flushes += 1;
            Ok(())
        }
    }

    #[test]
    fn each_message_is_one_write_of_prefix_and_frame() {
        for msg in every_kind() {
            let frame = encode_message(&msg);
            let mut want = (frame.len() as u32).to_le_bytes().to_vec();
            want.extend_from_slice(&frame);

            let mut out = Recorder::default();
            write_message(&mut out, &msg).expect("write");
            assert_eq!(out.writes, [want.clone()], "{msg:?}");
            assert_eq!(out.flushes, 1, "write_message flushes once");

            let mut out = Recorder::default();
            write_message_unflushed(&mut out, &msg).expect("write");
            assert_eq!(out.writes, [want], "{msg:?}");
            assert_eq!(
                out.flushes, 0,
                "the unflushed variant leaves flushing to the caller"
            );
        }
    }

    #[test]
    fn request_round_trips() {
        for msg in every_kind() {
            if matches!(msg, Message::Request(_)) {
                assert_eq!(round_trip(&msg), msg);
            }
        }
    }

    #[test]
    fn verdict_done_error_round_trip() {
        for msg in every_kind() {
            if !matches!(msg, Message::Request(_)) {
                assert_eq!(round_trip(&msg), msg);
            }
        }
    }

    #[test]
    fn version_1_requests_are_rejected() {
        // A version-1 request carried five learn/ATPG knobs version 2
        // dropped; reseal a current request under the old version number.
        let req = Message::Request(Request {
            name: "old".to_string(),
            bench: String::new(),
            faults: Vec::new(),
            learn: Some(LearnOptions::default()),
            atpg: AtpgOptions::default(),
        });
        let frame = encode_message(&req);
        let mut w = Writer::new();
        w.bytes_raw(MAGIC);
        w.u32(1);
        w.bytes_raw(&frame[MAGIC.len() + 4..frame.len() - 8]);
        assert_eq!(
            decode_message(&w.seal()),
            Err(SnapshotError::UnsupportedVersion {
                found: 1,
                supported: PROTO_VERSION
            })
        );
    }

    #[test]
    fn corrupt_frames_are_typed_errors() {
        let mut frame = encode_message(&Message::Shutdown);
        let last = frame.len() - 1;
        frame[last] ^= 1;
        assert!(matches!(
            decode_message(&frame),
            Err(SnapshotError::ChecksumMismatch)
        ));

        let mut buf = Vec::new();
        write_message(&mut buf, &Message::Shutdown).expect("write");
        buf.truncate(6);
        let mut cursor = buf.as_slice();
        assert!(matches!(
            read_message(&mut cursor),
            Err(ProtoError::Io(_)) // EOF mid-frame
        ));

        let mut empty: &[u8] = &[];
        assert!(matches!(read_message(&mut empty), Ok(None)));

        let oversize = (MAX_FRAME + 1).to_le_bytes();
        let mut cursor: &[u8] = &oversize;
        assert!(matches!(
            read_message(&mut cursor),
            Err(ProtoError::Oversize(_))
        ));
    }
}
