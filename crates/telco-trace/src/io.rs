//! Trace serialization shared by the binary store and JSON export.
//!
//! The binary format is the chunked columnar store of [`crate::store`];
//! this module holds what the whole crate shares about it (the stream
//! magic and the typed [`CodecError`]) plus JSON export for human
//! inspection and downstream tooling.

// telco-lint: deny-swallowed-errors

use crate::dataset::SignalingDataset;

/// Magic bytes opening a binary trace.
pub const MAGIC: [u8; 4] = *b"TLHO";
/// Bytes per record of a fixed-width row: 8 timestamp, three 4-byte ids,
/// two RAT bytes, a flags byte, 2 cause, 2 messages, 4 duration and 5
/// reserved. Table 1 sizes the operator's daily trace at this width.
pub const RECORD_BYTES: usize = 36;

/// Errors from decoding a binary trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Input shorter than its header or declared payload.
    Truncated,
    /// Wrong magic bytes.
    BadMagic,
    /// Unsupported format version.
    BadVersion(u16),
    /// A field held an invalid enumeration value.
    BadField(&'static str),
    /// A chunk frame opened with neither the chunk nor the trailer magic —
    /// the stream lost framing (the reader resyncs by scanning).
    BadChunkMagic,
    /// A chunk payload failed its CRC32 check.
    ChecksumMismatch {
        /// Checksum stored in the chunk header.
        stored: u32,
        /// Checksum computed over the payload as read.
        computed: u32,
    },
    /// A stream ended without its trailer frame (e.g. a writer crashed
    /// before [`crate::store::TraceWriter::finish`]).
    MissingTrailer,
    /// The trailer disagrees with the stream: its own CRC failed, or
    /// its totals do not match the chunks actually read.
    TrailerMismatch,
    /// The underlying reader failed.
    Io(std::io::ErrorKind),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "trace truncated"),
            CodecError::BadMagic => write!(f, "bad magic bytes"),
            CodecError::BadVersion(v) => write!(f, "unsupported trace version {v}"),
            CodecError::BadField(name) => write!(f, "invalid field value: {name}"),
            CodecError::BadChunkMagic => write!(f, "bad chunk magic (framing lost)"),
            CodecError::ChecksumMismatch { stored, computed } => {
                write!(
                    f,
                    "chunk checksum mismatch: stored {stored:#010x}, computed {computed:#010x}"
                )
            }
            CodecError::MissingTrailer => write!(f, "stream ended without a trailer frame"),
            CodecError::TrailerMismatch => write!(f, "trailer does not match the stream"),
            CodecError::Io(kind) => write!(f, "read failed: {kind:?}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Export a dataset to pretty JSON (human inspection / small slices only).
pub fn to_json(dataset: &SignalingDataset) -> serde_json::Result<String> {
    serde_json::to_string_pretty(dataset)
}

/// Import a dataset from JSON.
pub fn from_json(json: &str) -> serde_json::Result<SignalingDataset> {
    serde_json::from_str(json)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{HoOutcome, HoRecord};
    use crate::store::{TraceReader, TraceWriter};
    use telco_devices::population::UeId;
    use telco_signaling::causes::{CauseCode, PrincipalCause};
    use telco_topology::elements::SectorId;
    use telco_topology::rat::Rat;

    fn sample_dataset() -> SignalingDataset {
        let mut records = Vec::new();
        for i in 0..100u64 {
            let fail = i % 7 == 0;
            records.push(HoRecord {
                timestamp_ms: i * 1000,
                ue: UeId(i as u32 % 10),
                source_sector: SectorId(i as u32),
                target_sector: SectorId(i as u32 + 1),
                source_rat: Rat::G4,
                target_rat: if i % 11 == 0 { Rat::G3 } else { Rat::G4 },
                outcome: if fail { HoOutcome::Failure } else { HoOutcome::Success },
                cause: fail.then(|| CauseCode::principal(PrincipalCause::SourceCanceled)),
                duration_ms: 43 + i as u32,
                srvcc: i % 13 == 0,
                messages: 12,
            });
        }
        SignalingDataset::from_records(1, records)
    }

    fn encode(d: &SignalingDataset) -> Vec<u8> {
        let mut w = TraceWriter::new(Vec::new(), d.days).unwrap();
        w.write_dataset(d).unwrap();
        w.finish().unwrap()
    }

    #[test]
    fn json_roundtrip_is_lossless() {
        let d = sample_dataset();
        let json = to_json(&d).unwrap();
        let decoded = from_json(&json).unwrap();
        assert_eq!(d, decoded);
    }

    #[test]
    fn bad_magic_rejected() {
        let mut raw = encode(&sample_dataset());
        raw[0] = b'X';
        assert_eq!(TraceReader::new(&raw[..]).unwrap_err(), CodecError::BadMagic);
    }

    #[test]
    fn short_header_rejected() {
        let raw = encode(&sample_dataset());
        for cut in [0, 2, 4, 9] {
            assert_eq!(TraceReader::new(&raw[..cut]).unwrap_err(), CodecError::Truncated);
        }
    }
}
