//! Versioned snapshot codec for analysis-pass state.
//!
//! Analysis passes checkpoint their accumulator state through this codec
//! so an ingest service can persist a baseline, restore it after a crash,
//! and keep folding per-day deltas into it (see `telco-serve`). The
//! encoding is deliberately boring: little-endian fixed-width integers,
//! LEB128 varints for counters and lengths, IEEE-754 bit patterns for
//! floats — and **deterministic**: encoders must never iterate a
//! hash-ordered collection directly (sort first), so the same logical
//! state always produces the same bytes and snapshot equality is byte
//! equality.
//!
//! A complete snapshot is a *frame*:
//!
//! ```text
//! magic "TLSN" | version u16 LE | payload len u32 LE | payload | crc32 LE
//! ```
//!
//! The CRC covers the version and the payload, so a torn or bit-flipped
//! snapshot (or one written by a different pass version) is rejected at
//! decode time instead of silently restoring garbage. Version bumps are
//! per pass: a pass that changes its encoding bumps its
//! `SNAPSHOT_VERSION` and old snapshots fail loudly with
//! [`SnapError::BadVersion`].

use crate::crc32::Crc32;

/// Magic prefix of a snapshot frame.
pub const SNAP_MAGIC: [u8; 4] = *b"TLSN";

/// Errors decoding a snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapError {
    /// The buffer ended before the decoder was done.
    Truncated,
    /// The frame does not start with [`SNAP_MAGIC`].
    BadMagic,
    /// The frame was written by a different snapshot version.
    BadVersion {
        /// The version the decoder understands.
        expected: u16,
        /// The version found in the frame.
        found: u16,
    },
    /// The frame's CRC-32 does not match its contents.
    BadCrc,
    /// The payload decoded cleanly but left unconsumed bytes.
    TrailingBytes(usize),
    /// A field held a value the decoder cannot represent.
    Malformed(&'static str),
}

impl std::fmt::Display for SnapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapError::Truncated => write!(f, "snapshot truncated"),
            SnapError::BadMagic => write!(f, "not a snapshot frame (bad magic)"),
            SnapError::BadVersion { expected, found } => {
                write!(f, "snapshot version {found} (expected {expected})")
            }
            SnapError::BadCrc => write!(f, "snapshot CRC mismatch"),
            SnapError::TrailingBytes(n) => write!(f, "{n} unconsumed snapshot bytes"),
            SnapError::Malformed(what) => write!(f, "malformed snapshot field: {what}"),
        }
    }
}

impl std::error::Error for SnapError {}

/// Append-only encoder for snapshot payloads.
#[derive(Debug, Default)]
pub struct SnapWriter {
    buf: Vec<u8>,
}

impl SnapWriter {
    /// An empty writer.
    pub fn new() -> Self {
        SnapWriter::default()
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consume the writer, yielding the raw payload bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Append one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a bool as one byte (0 or 1).
    pub fn put_bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    /// Append a fixed-width little-endian `u16`.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a fixed-width little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a fixed-width little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append an LEB128 varint (7 bits per byte, low first).
    pub fn put_varint(&mut self, mut v: u64) {
        while v >= 0x80 {
            self.buf.push((v as u8 & 0x7f) | 0x80);
            v >>= 7;
        }
        self.buf.push(v as u8);
    }

    /// Append an `f64` as its IEEE-754 bit pattern (exact round-trip).
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Append a length-prefixed byte string.
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.put_varint(bytes.len() as u64);
        self.buf.extend_from_slice(bytes);
    }

    /// Append a length-prefixed vector of varint counters.
    pub fn put_u64s(&mut self, vs: &[u64]) {
        self.put_varint(vs.len() as u64);
        for &v in vs {
            self.put_varint(v);
        }
    }

    /// Append a length-prefixed vector of `f64` bit patterns.
    pub fn put_f64s(&mut self, vs: &[f64]) {
        self.put_varint(vs.len() as u64);
        for &v in vs {
            self.put_f64(v);
        }
    }
}

/// Cursor-style decoder over a snapshot payload.
#[derive(Debug)]
pub struct SnapReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> SnapReader<'a> {
    /// A reader over `payload`.
    pub fn new(payload: &'a [u8]) -> Self {
        SnapReader { buf: payload, pos: 0 }
    }

    /// Bytes left to decode.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Assert the payload was fully consumed.
    ///
    /// # Errors
    ///
    /// [`SnapError::TrailingBytes`] when bytes remain.
    pub fn finish(&self) -> Result<(), SnapError> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(SnapError::TrailingBytes(n)),
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapError> {
        let end = self.pos.checked_add(n).ok_or(SnapError::Truncated)?;
        let slice = self.buf.get(self.pos..end).ok_or(SnapError::Truncated)?;
        self.pos = end;
        Ok(slice)
    }

    /// Read one byte.
    ///
    /// # Errors
    ///
    /// [`SnapError::Truncated`] at end of payload.
    pub fn get_u8(&mut self) -> Result<u8, SnapError> {
        Ok(self.take(1)?[0])
    }

    /// Read a bool byte (anything nonzero is `true` is rejected: only 0/1).
    ///
    /// # Errors
    ///
    /// [`SnapError::Truncated`] at end of payload, or
    /// [`SnapError::Malformed`] for a byte other than 0/1.
    pub fn get_bool(&mut self) -> Result<bool, SnapError> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(SnapError::Malformed("bool byte")),
        }
    }

    /// Read a fixed-width little-endian `u16`.
    ///
    /// # Errors
    ///
    /// [`SnapError::Truncated`] at end of payload.
    pub fn get_u16(&mut self) -> Result<u16, SnapError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    /// Read a fixed-width little-endian `u32`.
    ///
    /// # Errors
    ///
    /// [`SnapError::Truncated`] at end of payload.
    pub fn get_u32(&mut self) -> Result<u32, SnapError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Read a fixed-width little-endian `u64`.
    ///
    /// # Errors
    ///
    /// [`SnapError::Truncated`] at end of payload.
    pub fn get_u64(&mut self) -> Result<u64, SnapError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
    }

    /// Read an LEB128 varint.
    ///
    /// # Errors
    ///
    /// [`SnapError::Truncated`] at end of payload, or
    /// [`SnapError::Malformed`] for a varint longer than a `u64`.
    pub fn get_varint(&mut self) -> Result<u64, SnapError> {
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let byte = self.get_u8()?;
            if shift >= 64 || (shift == 63 && byte > 1) {
                return Err(SnapError::Malformed("varint overflow"));
            }
            v |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
        }
    }

    /// Read a varint and narrow it to a `usize` length.
    ///
    /// # Errors
    ///
    /// As [`SnapReader::get_varint`], plus [`SnapError::Malformed`] when
    /// the value does not fit a `usize`.
    pub fn get_len(&mut self) -> Result<usize, SnapError> {
        usize::try_from(self.get_varint()?).map_err(|_| SnapError::Malformed("length overflow"))
    }

    /// Read the length prefix of `n` items that encode in at least
    /// `min_bytes` each, refusing as [`SnapError::Truncated`] a length the
    /// rest of the payload cannot hold. A restore that allocates for `n`
    /// items reads `n` here, so a hostile length is refused before
    /// anything is allocated for it.
    ///
    /// # Errors
    ///
    /// As [`SnapReader::get_len`], plus [`SnapError::Truncated`] when
    /// `n × min_bytes` passes [`SnapReader::remaining`].
    pub fn get_count(&mut self, min_bytes: usize) -> Result<usize, SnapError> {
        let n = self.get_len()?;
        match n.checked_mul(min_bytes.max(1)) {
            Some(bytes) if bytes <= self.remaining() => Ok(n),
            _ => Err(SnapError::Truncated),
        }
    }

    /// Read an `f64` from its bit pattern.
    ///
    /// # Errors
    ///
    /// [`SnapError::Truncated`] at end of payload.
    pub fn get_f64(&mut self) -> Result<f64, SnapError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Read a length-prefixed byte string.
    ///
    /// # Errors
    ///
    /// [`SnapError::Truncated`] when the prefix outruns the payload.
    pub fn get_bytes(&mut self) -> Result<&'a [u8], SnapError> {
        let n = self.get_len()?;
        self.take(n)
    }

    /// Read a length-prefixed vector of varint counters.
    ///
    /// # Errors
    ///
    /// As [`SnapReader::get_varint`].
    pub fn get_u64s(&mut self) -> Result<Vec<u64>, SnapError> {
        let n = self.get_len()?;
        let mut out = Vec::with_capacity(n.min(self.remaining()));
        for _ in 0..n {
            out.push(self.get_varint()?);
        }
        Ok(out)
    }

    /// Read a length-prefixed vector of `f64` bit patterns.
    ///
    /// # Errors
    ///
    /// [`SnapError::Truncated`] when the prefix outruns the payload.
    pub fn get_f64s(&mut self) -> Result<Vec<f64>, SnapError> {
        let n = self.get_len()?;
        let mut out = Vec::with_capacity(n.min(self.remaining() / 8 + 1));
        for _ in 0..n {
            out.push(self.get_f64()?);
        }
        Ok(out)
    }
}

/// Wrap a raw payload in a versioned, CRC-protected snapshot frame.
pub fn encode_frame(version: u16, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + 14);
    out.extend_from_slice(&SNAP_MAGIC);
    out.extend_from_slice(&version.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(&frame_crc(&version.to_le_bytes(), payload).to_le_bytes());
    out
}

/// The CRC-32 of a frame's version bytes followed by its payload, fed to
/// the streaming hasher so neither is copied.
fn frame_crc(version: &[u8], payload: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.update(version);
    crc.update(payload);
    crc.finish()
}

/// Validate a snapshot frame and return its payload.
///
/// # Errors
///
/// [`SnapError::BadMagic`]/[`SnapError::Truncated`] for frames that are
/// not snapshots, [`SnapError::BadVersion`] for a version other than
/// `expected_version`, [`SnapError::BadCrc`] for corrupted contents, and
/// [`SnapError::TrailingBytes`] when bytes follow the frame.
pub fn decode_frame(expected_version: u16, bytes: &[u8]) -> Result<&[u8], SnapError> {
    if bytes.len() < 14 {
        return Err(if bytes.starts_with(&SNAP_MAGIC) || bytes.len() < 4 {
            SnapError::Truncated
        } else {
            SnapError::BadMagic
        });
    }
    if bytes[..4] != SNAP_MAGIC {
        return Err(SnapError::BadMagic);
    }
    let found = u16::from_le_bytes([bytes[4], bytes[5]]);
    let len = u32::from_le_bytes([bytes[6], bytes[7], bytes[8], bytes[9]]) as usize;
    let end = 10usize.checked_add(len).ok_or(SnapError::Truncated)?;
    let payload = bytes.get(10..end).ok_or(SnapError::Truncated)?;
    let crc_bytes = bytes.get(end..end + 4).ok_or(SnapError::Truncated)?;
    let stored = u32::from_le_bytes([crc_bytes[0], crc_bytes[1], crc_bytes[2], crc_bytes[3]]);
    if frame_crc(&bytes[4..6], payload) != stored {
        return Err(SnapError::BadCrc);
    }
    // Version is checked after the CRC so corruption of the version
    // field reads as corruption, not as a clean version mismatch.
    if found != expected_version {
        return Err(SnapError::BadVersion { expected: expected_version, found });
    }
    if bytes.len() > end + 4 {
        return Err(SnapError::TrailingBytes(bytes.len() - end - 4));
    }
    Ok(payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        let mut w = SnapWriter::new();
        w.put_u8(7);
        w.put_bool(true);
        w.put_u16(65_535);
        w.put_u32(123_456_789);
        w.put_u64(u64::MAX);
        w.put_varint(0);
        w.put_varint(127);
        w.put_varint(128);
        w.put_varint(u64::MAX);
        w.put_f64(f64::MIN_POSITIVE);
        w.put_bytes(b"abc");
        w.put_u64s(&[1, 2, 300]);
        w.put_f64s(&[1.5, -2.25]);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert_eq!(r.get_u8().unwrap(), 7);
        assert!(r.get_bool().unwrap());
        assert_eq!(r.get_u16().unwrap(), 65_535);
        assert_eq!(r.get_u32().unwrap(), 123_456_789);
        assert_eq!(r.get_u64().unwrap(), u64::MAX);
        assert_eq!(r.get_varint().unwrap(), 0);
        assert_eq!(r.get_varint().unwrap(), 127);
        assert_eq!(r.get_varint().unwrap(), 128);
        assert_eq!(r.get_varint().unwrap(), u64::MAX);
        assert_eq!(r.get_f64().unwrap(), f64::MIN_POSITIVE);
        assert_eq!(r.get_bytes().unwrap(), b"abc");
        assert_eq!(r.get_u64s().unwrap(), vec![1, 2, 300]);
        assert_eq!(r.get_f64s().unwrap(), vec![1.5, -2.25]);
        r.finish().unwrap();
    }

    #[test]
    fn truncation_is_detected() {
        let mut w = SnapWriter::new();
        w.put_u64(42);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes[..5]);
        assert_eq!(r.get_u64(), Err(SnapError::Truncated));
    }

    #[test]
    fn counts_past_the_payload_are_refused() {
        let mut w = SnapWriter::new();
        w.put_varint(3);
        w.put_u16(1);
        w.put_u16(2);
        w.put_u16(3);
        w.put_varint(1 << 40);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert_eq!(r.get_count(2).unwrap(), 3);
        let mut r = SnapReader::new(&bytes);
        assert_eq!(r.get_count(5), Err(SnapError::Truncated));
        let mut r = SnapReader::new(&bytes[7..]);
        assert_eq!(r.get_count(1), Err(SnapError::Truncated));
        let mut r = SnapReader::new(&bytes[7..]);
        assert_eq!(r.get_count(0), Err(SnapError::Truncated));
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut w = SnapWriter::new();
        w.put_u8(1);
        w.put_u8(2);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        r.get_u8().unwrap();
        assert_eq!(r.finish(), Err(SnapError::TrailingBytes(1)));
    }

    #[test]
    fn frame_round_trips() {
        let framed = encode_frame(3, b"payload");
        assert_eq!(decode_frame(3, &framed).unwrap(), b"payload");
    }

    #[test]
    fn frame_rejects_wrong_version() {
        let framed = encode_frame(3, b"payload");
        assert_eq!(decode_frame(4, &framed), Err(SnapError::BadVersion { expected: 4, found: 3 }));
    }

    #[test]
    fn frame_rejects_corruption() {
        let mut framed = encode_frame(1, b"some payload bytes");
        framed[12] ^= 0x01;
        assert_eq!(decode_frame(1, &framed), Err(SnapError::BadCrc));
        let framed = encode_frame(1, b"x");
        assert_eq!(decode_frame(1, &framed[..framed.len() - 1]), Err(SnapError::Truncated));
        assert_eq!(decode_frame(1, b"NOPE000000000000"), Err(SnapError::BadMagic));
    }

    #[test]
    fn version_corruption_reads_as_crc_failure() {
        let mut framed = encode_frame(1, b"payload");
        framed[4] ^= 0xff; // flip the version field
        assert_eq!(decode_frame(1, &framed), Err(SnapError::BadCrc));
    }

    #[test]
    fn empty_payload_frames() {
        let framed = encode_frame(9, b"");
        assert_eq!(decode_frame(9, &framed).unwrap(), b"");
    }
}
