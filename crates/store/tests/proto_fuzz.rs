//! Robustness fuzzing of the `sla-serve` wire decoder.
//!
//! The contract for [`proto::decode_message`] is the codec's: **arbitrary
//! bytes never panic**, since a malformed frame is a typed
//! [`SnapshotError`], and **every accepted frame re-encodes to an equal
//! message**. The bytes need not match, because the option builders clamp
//! `max_frames` and `max_window` from 0 to 1.
//!
//! The fuzzer starts from valid frames of every message kind and applies
//! seeded byte flips, overwrites, inserts, deletes and truncations. It then
//! reseals the result with a fresh checksum, so the mutations reach the body
//! decoder instead of stopping at `ChecksumMismatch`. [`proto::read_message`]
//! runs over the same frames behind their length prefix.

use proptest::prelude::*;
use sla_atpg::{AbortReason, AtpgOptions, FaultStatus, LearningMode};
use sla_core::{LearnOptions, WorkBudget};
use sla_snapshot::codec::Writer;
use sla_snapshot::SnapshotError;
use sla_store::proto::{self, FaultSpec, Message, ProtoError, Request, Summary, MAX_FRAME};
use sla_store::CacheOutcome;

/// Magic and version bytes at the front of every frame.
const HEADER: usize = 8;
/// Trailing checksum bytes of every frame.
const CHECKSUM: usize = 8;

/// One message of every kind, with both shapes of a request.
fn every_kind() -> Vec<Message> {
    let request = |learn: Option<LearnOptions>| {
        Message::Request(Request {
            name: "fuzz".to_string(),
            bench: "INPUT(a)\nOUTPUT(c)\nb = DFF(c)\nc = NAND(a, b)\n".to_string(),
            faults: vec![
                FaultSpec::Output {
                    node: "c".to_string(),
                    stuck_at: true,
                },
                FaultSpec::Input {
                    gate: "c".to_string(),
                    pin: 1,
                    stuck_at: false,
                },
            ],
            learn,
            atpg: AtpgOptions::builder()
                .backtrack_limit(8)
                .learning(LearningMode::ForbiddenValue)
                .budget(WorkBudget::units(500))
                .build(),
        })
    };
    vec![
        request(Some(
            LearnOptions::builder()
                .cross_frame(true)
                .max_frames(3)
                .budget(WorkBudget::units(64))
                .build(),
        )),
        request(None),
        Message::Verdict {
            index: 7,
            status: FaultStatus::Aborted(AbortReason::Limit),
        },
        Message::Done(Summary {
            total_faults: 2,
            detected: 1,
            untestable: 0,
            aborted: 1,
            backtracks: 9,
            decisions: 40,
            sequences: 1,
            test_vectors: 3,
            budget_spent: 52,
            cache: CacheOutcome::Hit,
            learn_work_units: 0,
        }),
        Message::Error("bad netlist".to_string()),
        Message::Shutdown,
    ]
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
/// frame. Edits avoid the magic and version unless `header` is set, so
/// most of them reach the tag and body decoders.
fn mutate(content: &mut Vec<u8>, rng: &mut TestRng, edits: usize, header: bool) {
    let from = if header { 0 } else { HEADER };
    for _ in 0..edits {
        let span = content.len().saturating_sub(from);
        let at =
            |rng: &mut TestRng, extra: usize| from + (rng.next_u64() as usize) % (span + extra);
        // In-place edits, which keep every later field where it was, are
        // the most frequent; a shift or a cut usually ends in `Truncated`.
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

/// `frame` behind its length prefix, as `write_message` sends it.
fn prefixed(frame: &[u8]) -> Vec<u8> {
    let mut stream = u32::try_from(frame.len())
        .expect("test frames are small")
        .to_le_bytes()
        .to_vec();
    stream.extend_from_slice(frame);
    stream
}

/// The decoder contract: `Ok` or a typed error (returning at all is the
/// no-panic check), and an accepted message survives a re-encode.
fn check_decode(frame: &[u8]) -> Result<Message, SnapshotError> {
    let decoded = proto::decode_message(frame);
    if let Ok(msg) = &decoded {
        let again = proto::decode_message(&proto::encode_message(msg));
        assert_eq!(again.as_ref(), Ok(msg), "re-encode of an accepted frame");
    }
    decoded
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// Mutated and resealed frames of every kind decode to `Ok` or a typed
    /// error, and `read_message` over the prefixed frame agrees.
    #[test]
    fn resealed_mutations_decode_or_fail_typed(
        seed in 0u64..1_000_000,
        edits in 1usize..6,
        header in 0u8..16,
    ) {
        let mut rng = TestRng::new(seed);
        let kinds = every_kind();
        let msg = &kinds[(rng.next_u64() as usize) % kinds.len()];
        let frame = proto::encode_message(msg);
        let mut content = frame[..frame.len() - CHECKSUM].to_vec();
        // One case in sixteen also mutates the magic and version.
        mutate(&mut content, &mut rng, edits, header == 0);
        let mutated = reseal(&content);
        let decoded = check_decode(&mutated);

        let stream = prefixed(&mutated);
        match (proto::read_message(&mut stream.as_slice()), decoded) {
            (Ok(Some(read)), Ok(want)) => prop_assert_eq!(read, want),
            (Err(ProtoError::Frame(read)), Err(want)) => prop_assert_eq!(read, want),
            (read, want) => panic!("read_message gave {read:?}, decode_message {want:?}"),
        }
    }

    /// Mutations without a reseal never panic; the checksum rejects almost
    /// all of them.
    #[test]
    fn unsealed_mutations_never_panic(seed in 0u64..1_000_000, edits in 1usize..6) {
        let mut rng = TestRng::new(seed ^ 0x5eed_f00d);
        let kinds = every_kind();
        let mut frame = proto::encode_message(&kinds[(rng.next_u64() as usize) % kinds.len()]);
        mutate(&mut frame, &mut rng, edits, true);
        let _ = check_decode(&frame);
    }

    /// Raw garbage, bare and behind a valid header with a fresh checksum.
    #[test]
    fn garbage_never_panics(seed in 0u64..1_000_000, len in 0usize..96) {
        let mut rng = TestRng::new(seed ^ 0x9e37_79b9_7f4a_7c15);
        let garbage: Vec<u8> = (0..len).map(|_| pick(&mut rng)).collect();
        let _ = check_decode(&garbage);

        let shutdown = proto::encode_message(&Message::Shutdown);
        let mut content = shutdown[..HEADER].to_vec();
        content.extend_from_slice(&garbage);
        let _ = check_decode(&reseal(&content));
    }

    /// A stream cut anywhere inside the frame is an I/O error (EOF
    /// mid-frame); the whole stream reads back the message and nothing more.
    #[test]
    fn truncated_bodies_are_io_errors(kind in 0usize..1_000, cut in 0usize..1_000_000) {
        let kinds = every_kind();
        let msg = &kinds[kind % kinds.len()];
        let stream = prefixed(&proto::encode_message(msg));
        let mut whole = stream.as_slice();
        let read = proto::read_message(&mut whole).expect("whole stream reads");
        prop_assert_eq!(read.as_ref(), Some(msg));
        prop_assert!(whole.is_empty());

        let cut = 4 + cut % (stream.len() - 4);
        let result = proto::read_message(&mut &stream[..cut]);
        prop_assert!(
            matches!(&result, Err(ProtoError::Io(e)) if e.kind() == std::io::ErrorKind::UnexpectedEof),
            "cut at {cut} of {}: {result:?}",
            stream.len()
        );
    }

    /// A length prefix above `MAX_FRAME` is refused before any allocation,
    /// whatever follows it.
    #[test]
    fn oversize_prefixes_are_refused(excess in 1u32..=(u32::MAX - MAX_FRAME), tail in 0usize..64) {
        let len = MAX_FRAME + excess;
        let mut stream = len.to_le_bytes().to_vec();
        stream.resize(4 + tail, 0xab);
        let result = proto::read_message(&mut stream.as_slice());
        prop_assert!(
            matches!(result, Err(ProtoError::Oversize(n)) if n == len),
            "prefix {len}: {result:?}"
        );
    }
}
