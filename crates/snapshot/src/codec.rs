//! The shared binary codec: an append-only [`Writer`], a bounds-checked
//! [`Reader`], checksum framing ([`check_frame`]) and the encoders for the
//! payload shapes that appear in more than one artifact (ATPG options,
//! learned relations, fault lists).
//!
//! Snapshots, the persistent learned-knowledge store and the `sla-serve`
//! wire protocol all speak this codec, so they share one integrity
//! discipline: a 4-byte magic, a little-endian `u32` version, the payload,
//! and a trailing [`FastHasher`] checksum over everything before it. Every
//! decoder is total — corrupt bytes produce a typed [`SnapshotError`], never
//! a panic — and every list count is bounded by the bytes remaining so a
//! corrupt count cannot trigger a huge allocation.

use crate::SnapshotError;
use sla_atpg::{AtpgOptions, LearningMode};
use sla_core::{CrossImplication, Implication, Literal, WorkBudget};
use sla_netlist::{FastHasher, NodeId};
use sla_sim::{Fault, FaultSite};
use std::hash::Hasher;

/// Append-only byte sink of the codec.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
    /// Leading bytes that belong to the caller, not to the frame: the
    /// checksum skips them.
    reserved: usize,
}

impl Writer {
    /// An empty writer.
    pub fn new() -> Writer {
        Writer::with_reserved(0)
    }

    /// A writer whose first `n` bytes are zeros reserved for a header the
    /// caller fills in after [`Writer::seal`], such as a transport length
    /// prefix. The frame and its checksum start after them, so the sealed
    /// frame is the same as a [`Writer::new`] one, and no second copy is
    /// needed to put the header in front of it.
    pub fn with_reserved(n: usize) -> Writer {
        Writer {
            buf: vec![0; n],
            reserved: n,
        }
    }

    /// Appends raw bytes with no length prefix (magic values).
    pub fn bytes_raw(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u32` length prefix followed by the string bytes.
    pub fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.bytes_raw(s.as_bytes());
    }

    /// Appends the checksum of the frame and returns the finished bytes,
    /// reserved header included.
    pub fn seal(mut self) -> Vec<u8> {
        let mut h = FastHasher::default();
        h.write(&self.buf[self.reserved..]);
        let sum = h.finish();
        self.buf.extend_from_slice(&sum.to_le_bytes());
        self.buf
    }
}

/// Bounds-checked byte source of the codec.
#[derive(Debug)]
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
    end: usize,
}

impl<'a> Reader<'a> {
    /// A reader over all of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Reader<'a> {
        Reader {
            bytes,
            pos: 0,
            end: bytes.len(),
        }
    }

    /// A reader over `bytes[pos..end]` (checksum-excluded payload).
    pub fn with_limit(bytes: &'a [u8], pos: usize, end: usize) -> Reader<'a> {
        Reader { bytes, pos, end }
    }

    /// Takes the next `n` bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        if self.end - self.pos < n {
            return Err(SnapshotError::Truncated);
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Skips `n` bytes.
    pub fn skip(&mut self, n: usize) -> Result<(), SnapshotError> {
        self.take(n).map(|_| ())
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    /// Reads one byte as a strict boolean (0 or 1).
    pub fn bool(&mut self) -> Result<bool, SnapshotError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(SnapshotError::Corrupt("boolean")),
        }
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, SnapshotError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, SnapshotError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// A `u32` list count, sanity-bounded by the bytes remaining so a
    /// corrupt count cannot trigger a huge allocation.
    pub fn count(&mut self) -> Result<usize, SnapshotError> {
        let n = self.u32()? as usize;
        if n > self.end - self.pos {
            return Err(SnapshotError::Truncated);
        }
        Ok(n)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, SnapshotError> {
        let n = self.count()?;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| SnapshotError::Corrupt("string"))
    }

    /// `true` once every payload byte has been consumed.
    pub fn at_end(&self) -> bool {
        self.pos == self.end
    }
}

/// Validates the framing of a sealed frame — magic, version, trailing
/// checksum — and returns a [`Reader`] limited to the payload between the
/// header and the checksum.
///
/// # Errors
///
/// [`SnapshotError::Truncated`] when the bytes are too short for the frame
/// skeleton, [`SnapshotError::BadMagic`] / [`SnapshotError::UnsupportedVersion`]
/// on header mismatches, [`SnapshotError::ChecksumMismatch`] when the
/// trailing checksum disagrees with the content.
pub fn check_frame<'a>(
    bytes: &'a [u8],
    magic: &[u8; 4],
    version: u32,
) -> Result<Reader<'a>, SnapshotError> {
    if bytes.len() < magic.len() {
        return Err(SnapshotError::Truncated);
    }
    if &bytes[..magic.len()] != magic {
        return Err(SnapshotError::BadMagic);
    }
    let mut r = Reader::new(bytes);
    r.skip(magic.len())?;
    let found = r.u32()?;
    if found != version {
        return Err(SnapshotError::UnsupportedVersion {
            found,
            supported: version,
        });
    }
    if bytes.len() < magic.len() + 4 + 8 {
        return Err(SnapshotError::Truncated);
    }
    let body_len = bytes.len() - 8;
    let mut h = FastHasher::default();
    h.write(&bytes[..body_len]);
    let want = u64::from_le_bytes(
        bytes[body_len..]
            .try_into()
            .map_err(|_| SnapshotError::Truncated)?,
    );
    if h.finish() != want {
        return Err(SnapshotError::ChecksumMismatch);
    }
    Ok(Reader::with_limit(bytes, magic.len() + 4, body_len))
}

/// Encodes an [`AtpgOptions`] (budget included: a resumed or replayed run
/// keeps its limits).
pub fn write_atpg_options(w: &mut Writer, opts: &AtpgOptions) {
    w.u64(opts.backtrack_limit as u64);
    w.u64(opts.max_window as u64);
    w.u8(match opts.learning {
        LearningMode::None => 0,
        LearningMode::ForbiddenValue => 1,
        LearningMode::KnownValue => 2,
    });
    w.u8(opts.fault_dropping as u8);
    w.u64(opts.budget.limit());
}

/// Decodes an [`AtpgOptions`] written by [`write_atpg_options`].
pub fn read_atpg_options(r: &mut Reader<'_>) -> Result<AtpgOptions, SnapshotError> {
    let backtrack_limit = r.u64()? as usize;
    let max_window = r.u64()? as usize;
    let learning = match r.u8()? {
        0 => LearningMode::None,
        1 => LearningMode::ForbiddenValue,
        2 => LearningMode::KnownValue,
        _ => return Err(SnapshotError::Corrupt("learning mode")),
    };
    let fault_dropping = r.bool()?;
    let budget = WorkBudget::units(r.u64()?);
    Ok(AtpgOptions::builder()
        .backtrack_limit(backtrack_limit)
        .window(max_window)
        .learning(learning)
        .fault_dropping(fault_dropping)
        .budget(budget)
        .build())
}

/// Encodes a learned-relation triple — implications in insertion order,
/// cross-frame relations, tied gates — the payload shared by snapshots and
/// store entries.
pub fn write_relations(
    w: &mut Writer,
    implications: &[(Implication, bool)],
    cross_frame: &[CrossImplication],
    tied: &[(NodeId, bool)],
) {
    w.u32(implications.len() as u32);
    for (imp, seq) in implications {
        w.u32(imp.antecedent.node.0);
        w.u8(imp.antecedent.value as u8);
        w.u32(imp.consequent.node.0);
        w.u8(imp.consequent.value as u8);
        w.u8(*seq as u8);
    }
    w.u32(cross_frame.len() as u32);
    for c in cross_frame {
        w.u32(c.antecedent.node.0);
        w.u8(c.antecedent.value as u8);
        w.u32(c.consequent.node.0);
        w.u8(c.consequent.value as u8);
        w.u32(c.offset as u32);
    }
    w.u32(tied.len() as u32);
    for (node, value) in tied {
        w.u32(node.0);
        w.u8(*value as u8);
    }
}

/// Learned relations decoded by [`read_relations`].
pub type Relations = (
    Vec<(Implication, bool)>,
    Vec<CrossImplication>,
    Vec<(NodeId, bool)>,
);

/// Decodes the triple written by [`write_relations`].
pub fn read_relations(r: &mut Reader<'_>) -> Result<Relations, SnapshotError> {
    let n = r.count()?;
    let mut implications = Vec::with_capacity(n);
    for _ in 0..n {
        let ant = Literal::new(NodeId(r.u32()?), r.bool()?);
        let con = Literal::new(NodeId(r.u32()?), r.bool()?);
        implications.push((Implication::new(ant, con), r.bool()?));
    }
    let n = r.count()?;
    let mut cross_frame = Vec::with_capacity(n);
    for _ in 0..n {
        let antecedent = Literal::new(NodeId(r.u32()?), r.bool()?);
        let consequent = Literal::new(NodeId(r.u32()?), r.bool()?);
        let offset = r.u32()? as i32;
        cross_frame.push(CrossImplication {
            antecedent,
            consequent,
            offset,
        });
    }
    let n = r.count()?;
    let mut tied = Vec::with_capacity(n);
    for _ in 0..n {
        tied.push((NodeId(r.u32()?), r.bool()?));
    }
    Ok((implications, cross_frame, tied))
}

/// Encodes a fault list (site, pin and polarity of every fault, in order).
pub fn write_faults(w: &mut Writer, faults: &[Fault]) {
    w.u32(faults.len() as u32);
    for f in faults {
        match f.site {
            FaultSite::Output(n) => {
                w.u8(0);
                w.u32(n.0);
            }
            FaultSite::Input { gate, pin } => {
                w.u8(1);
                w.u32(gate.0);
                w.u32(pin as u32);
            }
        }
        w.u8(f.stuck_at as u8);
    }
}

/// Decodes a fault list written by [`write_faults`].
pub fn read_faults(r: &mut Reader<'_>) -> Result<Vec<Fault>, SnapshotError> {
    let n = r.count()?;
    let mut faults = Vec::with_capacity(n);
    for _ in 0..n {
        let fault = match r.u8()? {
            0 => {
                let node = NodeId(r.u32()?);
                Fault::output(node, r.bool()?)
            }
            1 => {
                let gate = NodeId(r.u32()?);
                let pin = r.u32()? as usize;
                Fault::input(gate, pin, r.bool()?)
            }
            _ => return Err(SnapshotError::Corrupt("fault site")),
        };
        faults.push(fault);
    }
    Ok(faults)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_round_trip_and_framing_errors() {
        const MAGIC: &[u8; 4] = b"TSTF";
        let mut w = Writer::new();
        w.bytes_raw(MAGIC);
        w.u32(7);
        w.str("payload");
        let bytes = w.seal();

        let mut r = check_frame(&bytes, MAGIC, 7).unwrap();
        assert_eq!(r.str().unwrap(), "payload");
        assert!(r.at_end());

        assert_eq!(
            check_frame(&bytes, b"XXXX", 7).unwrap_err(),
            SnapshotError::BadMagic
        );
        assert!(matches!(
            check_frame(&bytes, MAGIC, 8).unwrap_err(),
            SnapshotError::UnsupportedVersion { found: 7, .. }
        ));
        let mut corrupt = bytes.clone();
        *corrupt.last_mut().unwrap() ^= 1;
        assert_eq!(
            check_frame(&corrupt, MAGIC, 7).unwrap_err(),
            SnapshotError::ChecksumMismatch
        );
        for len in 0..bytes.len() {
            assert!(check_frame(&bytes[..len], MAGIC, 7).is_err());
        }
    }

    #[test]
    fn reserved_header_is_outside_the_frame() {
        let fill = |mut w: Writer| {
            w.bytes_raw(b"TSTF");
            w.u32(7);
            w.str("payload");
            w.seal()
        };
        let plain = fill(Writer::new());
        let reserved = fill(Writer::with_reserved(4));
        assert_eq!(reserved[..4], [0; 4]);
        assert_eq!(reserved[4..], plain[..]);
    }

    #[test]
    fn atpg_options_round_trip() {
        let opts = AtpgOptions::builder()
            .backtrack_limit(1000)
            .learning(LearningMode::KnownValue)
            .window(3)
            .fault_dropping(false)
            .budget(WorkBudget::units(42))
            .build();
        let mut w = Writer::new();
        write_atpg_options(&mut w, &opts);
        let bytes = w.seal();
        let mut r = Reader::with_limit(&bytes, 0, bytes.len() - 8);
        assert_eq!(read_atpg_options(&mut r).unwrap(), opts);
        assert!(r.at_end());
    }

    #[test]
    fn fault_list_round_trip() {
        let faults = vec![
            Fault::output(NodeId(3), true),
            Fault::input(NodeId(7), 1, false),
        ];
        let mut w = Writer::new();
        write_faults(&mut w, &faults);
        let bytes = w.seal();
        let mut r = Reader::with_limit(&bytes, 0, bytes.len() - 8);
        assert_eq!(read_faults(&mut r).unwrap(), faults);
        assert!(r.at_end());
    }
}
