//! Stream-validity probes for sealed chunked traces.
//!
//! The sharded orchestrator treats a spilled shard as complete only if
//! its stream proves itself twice over: a cheap trailer probe (is the
//! stream *sealed*?) and a full strict scan (is every byte *intact*?).
//! The probe reads exactly 30 bytes — header plus trailer — so scanning
//! a directory of thousand-shard manifests stays O(shards), not
//! O(bytes); the strict scan re-verifies every chunk CRC and decodes
//! every payload, which is what catches a flipped byte *inside* a chunk
//! of an otherwise perfectly sealed file.
//!
//! Both probes refuse, rather than repair: any deviation comes back as
//! an error and the caller re-dispatches the shard. Contrast with
//! [`crate::store::TraceReader`]'s skip-and-report recovery, which is
//! the right behaviour for *analysis* over best-effort data but exactly
//! wrong for a completion check.

// telco-lint: deny-panic
// Probes ingest external bytes (possibly truncated or corrupted shard
// files); every malformed input must come back as an error.

use std::io::{Read, Seek, SeekFrom};
use std::path::Path;

use crate::io::{CodecError, MAGIC};
use crate::record::HoRecord;
use crate::store::{trailer_crc, ChunkIssue, TraceReader, HEADER_BYTES, TRAILER_MAGIC, VERSION};

/// Bytes of the trailer frame: magic + u64 records + u32 chunks + u32
/// crc.
pub const TRAILER_BYTES: usize = 20;

/// What a [`probe_trailer`] found: the study-day span the header declares
/// plus the totals the trailer seals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrailerProbe {
    /// Study-day span from the header.
    pub days: u32,
    /// Total records the trailer declares.
    pub records: u64,
    /// Total chunk frames the trailer declares.
    pub chunks: u32,
}

/// Cheap seal check: read the 10-byte header and the final 20 bytes,
/// verify the trailer magic and its CRC (which covers the header bytes
/// plus the totals). Detects a missing, truncated, or partially written
/// trailer — the signature a crashed or killed writer leaves behind —
/// without reading the stream body. A probe success does *not* vouch for
/// the chunk payloads; pair it with [`validate_file`] when the answer
/// must be authoritative. A header of any version but [`VERSION`] is
/// refused with [`CodecError::BadVersion`].
pub fn probe_trailer(path: &Path) -> Result<TrailerProbe, CodecError> {
    let mut file = std::fs::File::open(path).map_err(|e| CodecError::Io(e.kind()))?;
    probe_trailer_seekable(&mut file)
}

/// [`probe_trailer`] over any seekable byte stream.
pub fn probe_trailer_seekable<S: Read + Seek>(src: &mut S) -> Result<TrailerProbe, CodecError> {
    let io_err = |e: std::io::Error| CodecError::Io(e.kind());
    let total = src.seek(SeekFrom::End(0)).map_err(io_err)?;
    if total < (HEADER_BYTES + TRAILER_BYTES) as u64 {
        return Err(CodecError::Truncated);
    }
    src.seek(SeekFrom::Start(0)).map_err(io_err)?;
    let mut header = [0u8; HEADER_BYTES];
    src.read_exact(&mut header).map_err(io_err)?;
    if header[..4] != MAGIC {
        return Err(CodecError::BadMagic);
    }
    let version = u16::from_be_bytes([header[4], header[5]]);
    if version != VERSION {
        // Report the version rather than a misleading trailer error.
        return Err(CodecError::BadVersion(version));
    }
    let days = u32::from_be_bytes([header[6], header[7], header[8], header[9]]);
    src.seek(SeekFrom::End(-(TRAILER_BYTES as i64))).map_err(io_err)?;
    let mut trailer = [0u8; TRAILER_BYTES];
    src.read_exact(&mut trailer).map_err(io_err)?;
    if trailer[..4] != TRAILER_MAGIC {
        // A writer that died mid-trailer (or mid-chunk) leaves the file's
        // final 20 bytes misaligned with the trailer frame.
        return Err(CodecError::MissingTrailer);
    }
    let Some(crc_bytes) = trailer.get(16..TRAILER_BYTES) else {
        return Err(CodecError::Truncated);
    };
    let Ok(crc_arr) = <[u8; 4]>::try_from(crc_bytes) else {
        return Err(CodecError::Truncated);
    };
    let stored_crc = u32::from_be_bytes(crc_arr);
    let Some(totals) = trailer.get(4..16) else {
        return Err(CodecError::Truncated);
    };
    if trailer_crc(days, totals) != stored_crc {
        return Err(CodecError::TrailerMismatch);
    }
    let Some(records_bytes) = totals.get(..8).and_then(|b| <[u8; 8]>::try_from(b).ok()) else {
        return Err(CodecError::Truncated);
    };
    let Some(chunks_bytes) = totals.get(8..12).and_then(|b| <[u8; 4]>::try_from(b).ok()) else {
        return Err(CodecError::Truncated);
    };
    Ok(TrailerProbe {
        days,
        records: u64::from_be_bytes(records_bytes),
        chunks: u32::from_be_bytes(chunks_bytes),
    })
}

/// What a strict validation scan established about an intact stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamSummary {
    /// Study-day span from the header.
    pub days: u32,
    /// Records decoded.
    pub records: u64,
    /// Chunk frames read cleanly.
    pub chunks: u64,
}

/// Full strict validation: stream every chunk, re-check every CRC,
/// decode every payload, and require a clean trailer whose totals match
/// what was actually read. The first deviation aborts the scan with its
/// [`ChunkIssue`] — no skip-and-report. This is the authoritative
/// completion check: it catches what [`probe_trailer`] cannot, namely
/// corruption *between* the header and a perfectly valid trailer.
pub fn validate_file(path: &Path) -> Result<StreamSummary, ChunkIssue> {
    let open = |e: CodecError| ChunkIssue { chunk: 0, offset: 0, error: e };
    let file = std::fs::File::open(path).map_err(|e| open(CodecError::Io(e.kind())))?;
    validate_stream(std::io::BufReader::new(file))
}

/// [`validate_file`] over any byte stream.
pub fn validate_stream<R: Read>(src: R) -> Result<StreamSummary, ChunkIssue> {
    let open = |e: CodecError| ChunkIssue { chunk: 0, offset: 0, error: e };
    let mut reader = TraceReader::new(src).map_err(open)?;
    let mut chunk: Vec<HoRecord> = Vec::new();
    while let Some(result) = reader.next_chunk_into(&mut chunk) {
        result?;
    }
    if !reader.trailer_seen() {
        // Unreachable in practice (the reader reports MissingTrailer as
        // an issue), kept as defence in depth for the completion check.
        return Err(open(CodecError::MissingTrailer));
    }
    Ok(StreamSummary {
        days: reader.days(),
        records: reader.records_read(),
        chunks: reader.chunks_read(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::SignalingDataset;
    use crate::record::HoOutcome;
    use crate::store::TraceWriter;
    use std::io::Cursor;
    use telco_devices::population::UeId;
    use telco_topology::elements::SectorId;
    use telco_topology::rat::Rat;

    fn rec(ts: u64, ue: u32) -> HoRecord {
        HoRecord {
            timestamp_ms: ts,
            ue: UeId(ue),
            source_sector: SectorId(1),
            target_sector: SectorId(2),
            source_rat: Rat::G4,
            target_rat: Rat::G4,
            outcome: HoOutcome::Success,
            cause: None,
            duration_ms: 50,
            srvcc: false,
            messages: 12,
        }
    }

    fn sealed(n: u64) -> Vec<u8> {
        let records = (0..n).map(|i| rec(i * 1000, i as u32)).collect();
        let dataset = SignalingDataset::from_records(2, records);
        let mut w = TraceWriter::new(Vec::new(), 2).unwrap();
        w.write_dataset(&dataset).unwrap();
        w.finish().unwrap()
    }

    #[test]
    fn probe_accepts_sealed_streams() {
        let bytes = sealed(500);
        let probe = probe_trailer_seekable(&mut Cursor::new(&bytes)).unwrap();
        assert_eq!(probe.days, 2);
        assert_eq!(probe.records, 500);
        assert!(probe.chunks >= 1);
        let summary = validate_stream(Cursor::new(&bytes)).unwrap();
        assert_eq!(summary.records, 500);
        assert_eq!(summary.chunks, u64::from(probe.chunks));
    }

    #[test]
    fn probe_accepts_empty_sealed_stream() {
        let bytes = TraceWriter::new(Vec::new(), 1).unwrap().finish().unwrap();
        let probe = probe_trailer_seekable(&mut Cursor::new(&bytes)).unwrap();
        assert_eq!(probe.records, 0);
        assert_eq!(probe.chunks, 0);
        assert_eq!(validate_stream(Cursor::new(&bytes)).unwrap().records, 0);
    }

    #[test]
    fn probe_rejects_every_truncation_point() {
        // Chop the stream at every byte boundary: no prefix of a sealed
        // stream may probe as sealed (the final 20 bytes stop being a
        // valid trailer the moment anything is missing).
        let bytes = sealed(200);
        for cut in 0..bytes.len() - 1 {
            let probe = probe_trailer_seekable(&mut Cursor::new(&bytes[..cut]));
            assert!(probe.is_err(), "truncation at {cut}/{} probed as sealed", bytes.len());
        }
    }

    #[test]
    fn probe_detects_partial_trailer() {
        // The resume edge case: a writer killed mid-trailer leaves some
        // but not all trailer bytes. Every partial length must fail.
        let bytes = sealed(100);
        for missing in 1..=TRAILER_BYTES {
            let cut = &bytes[..bytes.len() - missing];
            match probe_trailer_seekable(&mut Cursor::new(cut)) {
                Err(CodecError::MissingTrailer | CodecError::TrailerMismatch) => {}
                other => panic!("partial trailer (missing {missing}) gave {other:?}"),
            }
        }
    }

    #[test]
    fn probe_detects_flipped_trailer_and_header() {
        let bytes = sealed(100);
        // Flip one bit in the days field: the trailer CRC seals the
        // header, so the probe must notice.
        let mut bad_header = bytes.clone();
        bad_header[7] ^= 0x01;
        assert_eq!(
            probe_trailer_seekable(&mut Cursor::new(&bad_header)),
            Err(CodecError::TrailerMismatch)
        );
        // Flip one bit in the trailer totals.
        let mut bad_totals = bytes.clone();
        let n = bad_totals.len();
        bad_totals[n - 10] ^= 0x80;
        assert_eq!(
            probe_trailer_seekable(&mut Cursor::new(&bad_totals)),
            Err(CodecError::TrailerMismatch)
        );
    }

    #[test]
    fn probe_passes_midstream_corruption_but_validation_catches_it() {
        // The division of labour the orchestrator relies on: a byte
        // flipped inside a chunk payload leaves header and trailer
        // intact (probe passes) but must fail the strict scan.
        let bytes = sealed(400);
        let mut corrupt = bytes.clone();
        let mid = corrupt.len() / 2;
        corrupt[mid] ^= 0xFF;
        assert!(probe_trailer_seekable(&mut Cursor::new(&corrupt)).is_ok());
        let err = validate_stream(Cursor::new(&corrupt)).unwrap_err();
        assert!(
            matches!(
                err.error,
                CodecError::ChecksumMismatch { .. }
                    | CodecError::BadChunkMagic
                    | CodecError::BadField(_)
            ),
            "unexpected issue: {err:?}"
        );
    }

    #[test]
    fn validation_rejects_missing_trailer() {
        let bytes = sealed(50);
        let cut = &bytes[..bytes.len() - TRAILER_BYTES];
        let err = validate_stream(Cursor::new(cut)).unwrap_err();
        assert_eq!(err.error, CodecError::MissingTrailer);
    }

    #[test]
    fn probe_rejects_retired_versions_and_garbage() {
        let mut v1 = Vec::new();
        v1.extend_from_slice(&MAGIC);
        v1.extend_from_slice(&1u16.to_be_bytes());
        v1.extend_from_slice(&2u32.to_be_bytes());
        v1.extend_from_slice(&[0u8; 64]);
        assert_eq!(probe_trailer_seekable(&mut Cursor::new(&v1)), Err(CodecError::BadVersion(1)));
        // A sealed stream whose header says v2: the probe refuses it by
        // version before the trailer seal is checked.
        let mut v2 = sealed(100);
        v2[4..6].copy_from_slice(&2u16.to_be_bytes());
        assert_eq!(probe_trailer_seekable(&mut Cursor::new(&v2)), Err(CodecError::BadVersion(2)));
        assert_eq!(probe_trailer_seekable(&mut Cursor::new(&[0u8; 64])), Err(CodecError::BadMagic));
        assert_eq!(probe_trailer_seekable(&mut Cursor::new(&[0u8; 4])), Err(CodecError::Truncated));
    }

    #[test]
    fn validation_reports_retired_versions() {
        let dir = std::env::temp_dir().join("telco_probe_retired_versions");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.tlho");
        for version in [1u16, 2] {
            let mut bytes = sealed(100);
            bytes[4..6].copy_from_slice(&version.to_be_bytes());
            std::fs::write(&path, &bytes).unwrap();
            assert_eq!(probe_trailer(&path), Err(CodecError::BadVersion(version)));
            let issue = validate_file(&path).unwrap_err();
            assert_eq!(issue.error, CodecError::BadVersion(version));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
