//! The chunked streaming trace store: format v4, the only binary trace
//! format.
//!
//! The paper's operator collects ≈8 TB of signaling per day (§3.1); no
//! single-buffer codec survives that scale. The store frames the trace as
//! a sequence of independently verifiable chunks so writers can append
//! incrementally and readers can stream with bounded memory:
//!
//! ```text
//! header   "TLHO" | u16 version = 4 | u32 days                  (10 bytes)
//! chunk    "CHNK" | u32 seq | u32 count | u32 payload_len | u32 crc32 | payload
//! ...
//! trailer  "TEND" | u64 records | u32 chunks | u32 crc32        (20 bytes)
//! ```
//!
//! All integers are big-endian. A chunk payload is the columnar encoding
//! of [`crate::columnar`] (per-column delta, dictionary, and bit-pack
//! compression), whose size is not derivable from `count` — hence the
//! explicit `payload_len` field. Readers refuse any other version by
//! number ([`CodecError::BadVersion`]): versions 1 and 2, the retired
//! row-oriented formats, and version 3, whose duration column held raw
//! `f32`s where version 4 holds whole-millisecond varints, included.
//!
//! Every byte of the stream is covered by a check: each chunk's CRC32
//! covers its payload, chunk sequence numbers must run contiguously, and
//! the trailer CRC32 seals the 10 header bytes plus the totals — so a
//! flip in the `days` field or a silently dropped tail is caught even
//! though the header carries no checksum field of its own. A corrupted
//! chunk is detected, skipped, and reported without aborting the read
//! ([`TraceReader`]); a decode failure names the offending column in
//! its [`CodecError::BadField`] (the recovery unit is still the chunk —
//! a record needs all its columns); a corrupted frame *header* loses
//! framing, and the reader resynchronizes by scanning for the next chunk
//! or trailer magic.

// telco-lint: deny-swallowed-errors

use std::collections::VecDeque;
use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::Path;

use bytes::BufMut;

use crate::columnar::{decode_columns, ColumnBatch, ColumnEncoder};
use crate::crc32::crc32;
use crate::dataset::SignalingDataset;
use crate::io::{CodecError, MAGIC};
use crate::record::HoRecord;

/// The format version every stream carries: the columnar chunked store
/// ([`crate::columnar`]) with whole-millisecond durations.
pub const VERSION: u16 = 4;
/// Bytes of the stream header (magic + version + days).
pub const HEADER_BYTES: usize = 10;
/// Magic opening every chunk frame.
pub const CHUNK_MAGIC: [u8; 4] = *b"CHNK";
/// Magic opening the trailer frame.
pub const TRAILER_MAGIC: [u8; 4] = *b"TEND";
/// Bytes of a chunk frame header (magic + seq + count + payload_len +
/// crc).
pub const FRAME_HEADER_BYTES: usize = 20;
/// Upper bound on records per chunk (≈150 MB of payload). The writer
/// splits larger chunks; the reader treats a larger declared count as
/// corruption, which keeps a flipped count field from driving a giant
/// allocation.
pub const MAX_CHUNK_RECORDS: u32 = 1 << 22;

/// Records per chunk used by bulk helpers when splitting oversized chunks
/// and by the streaming merges when writing their output. The spilled
/// runner's sealed trace is its records in chunks of exactly this many
/// (the last one shorter), whatever the thread count.
pub const DEFAULT_CHUNK_RECORDS: usize = 1 << 16;

/// Upper bound on a chunk's declared `payload_len`, per record plus
/// fixed slack. The worst legitimate case (adversarially unsorted
/// timestamps, all-distinct sectors, maximal varints) stays under ~50
/// bytes/record; a declared length beyond this bound is treated as
/// corruption, which keeps a flipped length field from driving a giant
/// allocation.
const MAX_V3_PAYLOAD_PER_RECORD: usize = 64;
/// Fixed slack for the payload bound: column-group framing plus the
/// dictionary headers of an empty or tiny chunk.
const V3_PAYLOAD_SLACK: usize = 256;

/// One problem found while reading a stream: which frame, where, and
/// what was wrong. Readers *report* issues and keep going (skipping the
/// damaged chunk) rather than aborting the whole read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkIssue {
    /// Zero-based index of the frame (in stream order) being read when the
    /// issue was detected.
    pub chunk: u64,
    /// Byte offset into the stream where the issue was detected.
    pub offset: u64,
    /// What was wrong.
    pub error: CodecError,
}

impl std::fmt::Display for ChunkIssue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "chunk {} at byte {}: {}", self.chunk, self.offset, self.error)
    }
}

impl std::error::Error for ChunkIssue {}

/// Metadata of a chunk frame served raw (undecoded) by
/// [`TraceReader::next_chunk_raw`]: enough to re-frame the payload with
/// [`TraceWriter::write_raw_chunk`] without recomputing anything.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RawChunk {
    /// Records the frame header declared (CRC-backed for the payload,
    /// so trusted after a clean read).
    pub count: u32,
    /// CRC32 of the payload, as stored and verified.
    pub crc: u32,
}

/// The trailer checksum: CRC32 over the canonical 10-byte header followed
/// by the 12 trailer-total bytes. Sealing the header here is what makes a
/// bit flip in the unchecksummed `days` field detectable.
pub(crate) fn trailer_crc(days: u32, totals: &[u8]) -> u32 {
    let mut sealed = Vec::with_capacity(HEADER_BYTES + 12);
    sealed.put_slice(&MAGIC);
    sealed.put_u16(VERSION);
    sealed.put_u32(days);
    sealed.put_slice(totals);
    crc32(&sealed)
}

// ---- writer ----------------------------------------------------------------

/// Incremental chunked writer: appends columnar chunk frames to any
/// [`Write`] sink and seals the stream with a trailer on
/// [`TraceWriter::finish`]. Dropping a writer without finishing leaves a
/// trailer-less stream, which readers flag as
/// [`CodecError::MissingTrailer`] — the crash-detection property the
/// trailer exists for.
#[derive(Debug)]
pub struct TraceWriter<W: Write> {
    sink: W,
    days: u32,
    chunks: u32,
    records: u64,
    /// Payload scratch reused across chunks.
    payload: Vec<u8>,
    /// Columnar encoder scratch.
    encoder: ColumnEncoder,
}

impl TraceWriter<BufWriter<File>> {
    /// Create (truncate) `path` and write the stream header.
    pub fn create(path: &Path, days: u32) -> std::io::Result<Self> {
        Self::new(BufWriter::new(File::create(path)?), days)
    }
}

impl<W: Write> TraceWriter<W> {
    /// Wrap `sink`, writing the stream header immediately.
    pub fn new(mut sink: W, days: u32) -> std::io::Result<Self> {
        let mut header = Vec::with_capacity(HEADER_BYTES);
        header.put_slice(&MAGIC);
        header.put_u16(VERSION);
        header.put_u32(days);
        sink.write_all(&header)?;
        Ok(TraceWriter {
            sink,
            days,
            chunks: 0,
            records: 0,
            payload: Vec::new(),
            encoder: ColumnEncoder::new(),
        })
    }

    /// Append one chunk of records (split transparently if longer than
    /// [`MAX_CHUNK_RECORDS`]). An empty slice writes an empty chunk — a
    /// valid frame that keeps sequence numbers aligned with the caller's
    /// chunk structure.
    pub fn write_chunk(&mut self, records: &[HoRecord]) -> std::io::Result<()> {
        if records.is_empty() {
            return self.write_frame(records);
        }
        for part in records.chunks(MAX_CHUNK_RECORDS as usize) {
            self.write_frame(part)?;
        }
        Ok(())
    }

    fn write_frame(&mut self, records: &[HoRecord]) -> std::io::Result<()> {
        let mut payload = std::mem::take(&mut self.payload);
        payload.clear();
        self.encoder.encode(records, &mut payload);
        let result = self.put_frame(records.len() as u32, &payload, crc32(&payload));
        self.payload = payload;
        result
    }

    /// Append one pre-encoded chunk frame: `payload` must be a valid
    /// columnar payload holding exactly `count` records, and `crc` its
    /// CRC32. This is the merge's raw passthrough — chunks read from an
    /// input stream (already CRC-verified by the reader) are re-framed
    /// with a fresh sequence number and copied through without a
    /// decode/re-encode round trip.
    pub fn write_raw_chunk(&mut self, count: u32, payload: &[u8], crc: u32) -> std::io::Result<()> {
        self.put_frame(count, payload, crc)
    }

    fn put_frame(&mut self, count: u32, payload: &[u8], crc: u32) -> std::io::Result<()> {
        let mut frame = Vec::with_capacity(FRAME_HEADER_BYTES);
        frame.put_slice(&CHUNK_MAGIC);
        frame.put_u32(self.chunks);
        frame.put_u32(count);
        frame.put_u32(payload.len() as u32);
        frame.put_u32(crc);
        self.sink.write_all(&frame)?;
        self.sink.write_all(payload)?;
        self.chunks += 1;
        self.records += u64::from(count);
        Ok(())
    }

    /// Write a whole dataset as one chunk per study day (records must be
    /// timestamp-sorted, as [`SignalingDataset::from_records`] guarantees;
    /// consecutive same-day runs become one chunk each).
    pub fn write_dataset(&mut self, dataset: &SignalingDataset) -> std::io::Result<()> {
        let recs = dataset.records();
        let mut start = 0;
        while start < recs.len() {
            let day = recs[start].day();
            let mut end = start + 1;
            while end < recs.len() && recs[end].day() == day {
                end += 1;
            }
            self.write_chunk(&recs[start..end])?;
            start = end;
        }
        Ok(())
    }

    /// Seal the stream: write the trailer, flush, and hand the sink back.
    /// The trailer CRC covers the header bytes plus the totals, so a
    /// flipped header field (e.g. `days`) is caught at end of stream even
    /// though the header itself carries no checksum.
    pub fn finish(mut self) -> std::io::Result<W> {
        let mut trailer = Vec::with_capacity(20);
        trailer.put_slice(&TRAILER_MAGIC);
        trailer.put_u64(self.records);
        trailer.put_u32(self.chunks);
        let crc = trailer_crc(self.days, &trailer[4..16]);
        trailer.put_u32(crc);
        self.sink.write_all(&trailer)?;
        self.sink.flush()?;
        Ok(self.sink)
    }

    /// Records written so far.
    pub fn records_written(&self) -> u64 {
        self.records
    }

    /// Chunk frames written so far.
    pub fn chunks_written(&self) -> u32 {
        self.chunks
    }
}

/// Write a dataset to a trace file (one chunk per day) in the current
/// format, [`VERSION`]. The name predates v4 and stays because the
/// repository benchmark (`perfbench/`) calls it.
pub fn write_file_v3(dataset: &SignalingDataset, path: &Path) -> std::io::Result<()> {
    let mut w = TraceWriter::create(path, dataset.days)?;
    w.write_dataset(dataset)?;
    w.finish()?;
    Ok(())
}

// ---- reader ----------------------------------------------------------------
// telco-lint: deny-panic(begin)
// The read path ingests external bytes: every malformed input must come
// back as a CodecError/ChunkIssue, never abort the process.

/// Streaming chunked-trace reader with per-chunk corruption detection
/// and skip-and-report recovery.
///
/// Damaged chunks never abort the read: a CRC mismatch skips exactly that
/// chunk, a corrupted frame header triggers a resync scan for the next
/// magic, and every problem is recorded in [`TraceReader::issues`] (and
/// returned inline by [`TraceReader::next_chunk`]). Underlying I/O errors
/// and truncation end the stream but are reported the same way.
#[derive(Debug)]
pub struct TraceReader<R: Read> {
    src: R,
    /// Bytes pushed back by the resync scanner, consumed before `src`.
    pending: VecDeque<u8>,
    offset: u64,
    days: u32,
    /// Frames attempted so far (the index used in issue reports).
    frames_seen: u64,
    chunks_ok: u64,
    records_read: u64,
    issues: Vec<ChunkIssue>,
    trailer_seen: bool,
    done: bool,
    /// Payload scratch reused across chunks, so a steady-state streaming
    /// read performs no per-chunk byte allocations.
    scratch: Vec<u8>,
    /// Column scratch reused across chunks by the row decode path
    /// (payloads decode into columns first; rows are a transpose view).
    cols: ColumnBatch,
}

impl TraceReader<BufReader<File>> {
    /// Open a trace file for streaming.
    pub fn open(path: &Path) -> Result<Self, CodecError> {
        let file = File::open(path).map_err(|e| CodecError::Io(e.kind()))?;
        Self::new(BufReader::new(file))
    }
}

impl<R: Read> TraceReader<R> {
    /// Wrap a reader, consuming and validating the stream header. A
    /// header of any version but [`VERSION`] is refused with
    /// [`CodecError::BadVersion`].
    pub fn new(src: R) -> Result<Self, CodecError> {
        let mut reader = TraceReader {
            src,
            pending: VecDeque::new(),
            offset: 0,
            days: 0,
            frames_seen: 0,
            chunks_ok: 0,
            records_read: 0,
            issues: Vec::new(),
            trailer_seen: false,
            done: false,
            scratch: Vec::new(),
            cols: ColumnBatch::new(),
        };
        let mut header = [0u8; HEADER_BYTES];
        if reader.read_bytes(&mut header)? < HEADER_BYTES {
            return Err(CodecError::Truncated);
        }
        if header[..4] != MAGIC {
            return Err(CodecError::BadMagic);
        }
        let version = u16::from_be_bytes([header[4], header[5]]);
        if version != VERSION {
            return Err(CodecError::BadVersion(version));
        }
        reader.days = u32::from_be_bytes([header[6], header[7], header[8], header[9]]);
        Ok(reader)
    }

    /// Study-day span declared by the header.
    pub fn days(&self) -> u32 {
        self.days
    }

    /// Every problem encountered so far, in stream order.
    pub fn issues(&self) -> &[ChunkIssue] {
        &self.issues
    }

    /// Records successfully delivered so far.
    pub fn records_read(&self) -> u64 {
        self.records_read
    }

    /// Chunk frames read cleanly so far.
    pub fn chunks_read(&self) -> u64 {
        self.chunks_ok
    }

    /// Whether the stream ended with a valid trailer (meaningful after the
    /// stream is exhausted).
    pub fn trailer_seen(&self) -> bool {
        self.trailer_seen
    }

    fn read_bytes(&mut self, out: &mut [u8]) -> Result<usize, CodecError> {
        let mut n = 0;
        while let Some(slot) = out.get_mut(n) {
            match self.pending.pop_front() {
                Some(b) => {
                    *slot = b;
                    n += 1;
                }
                None => break,
            }
        }
        while n < out.len() {
            let Some(rest) = out.get_mut(n..) else { break };
            match self.src.read(rest) {
                Ok(0) => break,
                Ok(k) => n += k,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => {
                    self.offset += n as u64;
                    return Err(CodecError::Io(e.kind()));
                }
            }
        }
        self.offset += n as u64;
        Ok(n)
    }

    fn push_back(&mut self, bytes: &[u8]) {
        for &b in bytes.iter().rev() {
            self.pending.push_front(b);
        }
        self.offset -= bytes.len() as u64;
    }

    fn issue(&mut self, error: CodecError) -> ChunkIssue {
        let issue = ChunkIssue { chunk: self.frames_seen, offset: self.offset, error };
        self.issues.push(issue.clone());
        issue
    }

    fn fail<T>(&mut self, error: CodecError) -> Option<Result<T, ChunkIssue>> {
        self.done = true;
        Some(Err(self.issue(error)))
    }

    /// Scan forward for the next chunk or trailer magic, pushing the match
    /// back so the next frame read starts on it. Returns `false` at EOF.
    fn resync(&mut self, window: [u8; 4]) -> Result<bool, CodecError> {
        let mut window = window;
        loop {
            let mut next = [0u8; 1];
            if self.read_bytes(&mut next)? == 0 {
                return Ok(false);
            }
            window = [window[1], window[2], window[3], next[0]];
            if window == CHUNK_MAGIC || window == TRAILER_MAGIC {
                self.push_back(&window);
                return Ok(true);
            }
        }
    }

    /// The next chunk of records, or the issue that damaged it (also
    /// recorded in [`TraceReader::issues`]). `None` at end of stream.
    /// After a reported issue the reader has already skipped or resynced —
    /// keep calling to stream the remaining healthy chunks.
    pub fn next_chunk(&mut self) -> Option<Result<Vec<HoRecord>, ChunkIssue>> {
        let mut out = Vec::new();
        match self.next_chunk_into(&mut out)? {
            Ok(()) => Some(Ok(out)),
            Err(issue) => Some(Err(issue)),
        }
    }

    /// Decode the next chunk into a caller-supplied buffer (cleared
    /// first), reusing both the caller's record buffer and an internal
    /// payload scratch — the shared-chunk API the analysis sweep borrows
    /// decoded chunks through, with zero steady-state allocation.
    /// Semantics are otherwise identical to [`TraceReader::next_chunk`]:
    /// `None` at end of stream, `Some(Err(..))` for a skipped chunk.
    pub fn next_chunk_into(&mut self, out: &mut Vec<HoRecord>) -> Option<Result<(), ChunkIssue>> {
        out.clear();
        // The column scratch leaves `self` for the call, which borrows
        // the whole reader.
        let mut cols = std::mem::take(&mut self.cols);
        let result = self.next_chunk_columns(&mut cols);
        if let Some(Ok(())) = result {
            cols.fill_rows(out);
        }
        self.cols = cols;
        result
    }

    /// Decode the next chunk straight into reusable struct-of-arrays
    /// column buffers (cleared first), skipping per-record [`HoRecord`]
    /// construction entirely — the native input of the columnar analysis
    /// sweep. Semantics otherwise match [`TraceReader::next_chunk_into`]:
    /// `None` at end of stream, `Some(Err(..))` for a skipped chunk.
    pub fn next_chunk_columns(&mut self, out: &mut ColumnBatch) -> Option<Result<(), ChunkIssue>> {
        out.clear();
        if self.done {
            return None;
        }
        let raw = match self.next_frame_payload()? {
            Ok(raw) => raw,
            Err(issue) => return Some(Err(issue)),
        };
        let count = raw.count;
        if let Err(e) = decode_columns(&self.scratch, count as usize, out) {
            // CRC passed but the payload doesn't decode: writer-side bug
            // or checksum collision. Skip the chunk; the error names the
            // offending column.
            out.clear();
            let issue = self.issue(e);
            self.frames_seen += 1;
            return Some(Err(issue));
        }
        self.frames_seen += 1;
        self.chunks_ok += 1;
        self.records_read += u64::from(count);
        Some(Ok(()))
    }

    /// The next chunk frame as its raw encoded payload, skipping record
    /// decode entirely: the frame header is validated and the payload
    /// CRC checked, but no column is touched. This is what lets the
    /// external merge copy the tail of a sole remaining input through
    /// without a decompress/recompress round trip, and the span sweep
    /// skip the chunks before its span. The payload is swapped into
    /// `payload`; semantics otherwise match
    /// [`TraceReader::next_chunk_into`].
    pub fn next_chunk_raw(
        &mut self,
        payload: &mut Vec<u8>,
    ) -> Option<Result<RawChunk, ChunkIssue>> {
        payload.clear();
        if self.done {
            return None;
        }
        let raw = match self.next_frame_payload()? {
            Ok(raw) => raw,
            Err(issue) => return Some(Err(issue)),
        };
        std::mem::swap(payload, &mut self.scratch);
        self.frames_seen += 1;
        self.chunks_ok += 1;
        self.records_read += u64::from(raw.count);
        Some(Ok(raw))
    }

    /// Advance to the next chunk frame: consume the magic (dispatching
    /// the trailer and resync paths), validate the header fields, fill
    /// the payload scratch, and check CRC and sequence number. On
    /// `Some(Ok(..))` the scratch holds the verified payload; all
    /// bookkeeping except the success counters has been done.
    fn next_frame_payload(&mut self) -> Option<Result<RawChunk, ChunkIssue>> {
        let mut magic = [0u8; 4];
        let got = match self.read_bytes(&mut magic) {
            Ok(n) => n,
            Err(e) => return self.fail(e),
        };
        if got == 0 {
            self.done = true;
            if !self.trailer_seen {
                return Some(Err(self.issue(CodecError::MissingTrailer)));
            }
            return None;
        }
        if got < 4 {
            return self.fail(CodecError::Truncated);
        }
        if magic == TRAILER_MAGIC {
            return self.read_trailer();
        }
        if magic != CHUNK_MAGIC {
            // Framing lost: report once, then scan for the next magic.
            let issue = self.issue(CodecError::BadChunkMagic);
            self.frames_seen += 1;
            match self.resync(magic) {
                Ok(true) => {}
                Ok(false) => self.done = true,
                Err(e) => return self.fail(e),
            }
            return Some(Err(issue));
        }
        // The head after the magic: seq | count | payload_len | crc.
        let mut head = [0u8; 16];
        match self.read_bytes(&mut head) {
            Ok(16) => {}
            Ok(_) => return self.fail(CodecError::Truncated),
            Err(e) => return self.fail(e),
        }
        let seq = u32::from_be_bytes([head[0], head[1], head[2], head[3]]);
        let count = u32::from_be_bytes([head[4], head[5], head[6], head[7]]);
        let payload_len = u32::from_be_bytes([head[8], head[9], head[10], head[11]]) as usize;
        let stored_crc = u32::from_be_bytes([head[12], head[13], head[14], head[15]]);
        if count > MAX_CHUNK_RECORDS {
            // The length field itself is untrustworthy — resync rather
            // than skip a bogus distance.
            let issue = self.issue(CodecError::BadField("record_count"));
            self.frames_seen += 1;
            match self.resync([0; 4]) {
                Ok(true) => {}
                Ok(false) => self.done = true,
                Err(e) => return self.fail(e),
            }
            return Some(Err(issue));
        }
        if payload_len > count as usize * MAX_V3_PAYLOAD_PER_RECORD + V3_PAYLOAD_SLACK {
            // A payload length wildly out of proportion to its record
            // count is corruption; treat like a bad count and resync so
            // a flipped length can't drive a giant allocation or a bogus
            // skip distance.
            let issue = self.issue(CodecError::BadField("payload_len"));
            self.frames_seen += 1;
            match self.resync([0; 4]) {
                Ok(true) => {}
                Ok(false) => self.done = true,
                Err(e) => return self.fail(e),
            }
            return Some(Err(issue));
        }
        let mut payload = std::mem::take(&mut self.scratch);
        payload.clear();
        payload.resize(payload_len, 0);
        let got = self.read_bytes(&mut payload);
        self.scratch = payload;
        match got {
            Ok(n) if n == self.scratch.len() => {}
            Ok(_) => return self.fail(CodecError::Truncated),
            Err(e) => return self.fail(e),
        }
        let computed = crc32(&self.scratch);
        if computed != stored_crc {
            let issue = self.issue(CodecError::ChecksumMismatch { stored: stored_crc, computed });
            self.frames_seen += 1;
            return Some(Err(issue));
        }
        // On an otherwise-clean stream, sequence numbers must run
        // contiguously — the seq field is outside the payload CRC, so a
        // flip there (or a spliced chunk) shows up only here. After a
        // reported issue gaps are expected: frames were lost or skipped.
        if self.issues.is_empty() && u64::from(seq) != self.frames_seen {
            let issue = self.issue(CodecError::BadField("chunk_seq"));
            self.frames_seen += 1;
            return Some(Err(issue));
        }
        Some(Ok(RawChunk { count, crc: stored_crc }))
    }

    /// Consume and validate the trailer. Never yields a value — either
    /// the stream ends cleanly (`None`) or an issue is reported.
    fn read_trailer<T>(&mut self) -> Option<Result<T, ChunkIssue>> {
        let mut body = [0u8; 16];
        match self.read_bytes(&mut body) {
            Ok(16) => {}
            Ok(_) => return self.fail(CodecError::Truncated),
            Err(e) => return self.fail(e),
        }
        // Field layout: records u64 | chunks u32 | crc u32. The chunk
        // splits are total on the 16-byte body; the `else` arms are
        // unreachable but keep the read path panic-free by construction.
        let Some((records_bytes, rest)) = body.split_first_chunk::<8>() else {
            return self.fail(CodecError::Truncated);
        };
        let Some((chunks_bytes, crc_rest)) = rest.split_first_chunk::<4>() else {
            return self.fail(CodecError::Truncated);
        };
        let Some((crc_bytes, _)) = crc_rest.split_first_chunk::<4>() else {
            return self.fail(CodecError::Truncated);
        };
        let stored_crc = u32::from_be_bytes(*crc_bytes);
        if trailer_crc(self.days, &body[..12]) != stored_crc {
            return self.fail(CodecError::TrailerMismatch);
        }
        let total_records = u64::from_be_bytes(*records_bytes);
        let total_chunks = u32::from_be_bytes(*chunks_bytes);
        self.trailer_seen = true;
        // With a damaged stream the totals legitimately disagree (chunks
        // were skipped); only an otherwise-clean read treats a total
        // mismatch as corruption (silent chunk loss).
        if self.issues.is_empty()
            && (total_records != self.records_read || u64::from(total_chunks) != self.chunks_ok)
        {
            return self.fail(CodecError::TrailerMismatch);
        }
        // Anything after the trailer is corruption too.
        let mut probe = [0u8; 1];
        match self.read_bytes(&mut probe) {
            Ok(0) => {
                self.done = true;
                None
            }
            Ok(_) => self.fail(CodecError::BadChunkMagic),
            Err(e) => self.fail(e),
        }
    }

    /// Stream the whole trace into a dataset, skipping damaged chunks.
    /// Inspect [`TraceReader::issues`] afterwards to learn what (if
    /// anything) was lost.
    pub fn read_to_dataset(&mut self) -> SignalingDataset {
        let mut records = Vec::new();
        let mut chunk = Vec::new();
        while let Some(result) = self.next_chunk_into(&mut chunk) {
            if result.is_ok() {
                records.extend_from_slice(&chunk);
            }
        }
        SignalingDataset::from_records(self.days, records)
    }

    /// Stream the whole trace, failing on the first issue. The strict
    /// flavor for callers whose input must be pristine (e.g. the spill
    /// merge reading files it just wrote).
    pub fn read_to_dataset_strict(&mut self) -> Result<SignalingDataset, ChunkIssue> {
        let mut records = Vec::new();
        let mut chunk = Vec::new();
        while let Some(result) = self.next_chunk_into(&mut chunk) {
            result?;
            records.extend_from_slice(&chunk);
        }
        Ok(SignalingDataset::from_records(self.days, records))
    }
}

// ---- k-way streaming merge -------------------------------------------------

/// Streaming k-way merge over timestamp-sorted trace readers. Ties break
/// on reader index, so the output is the stable timestamp sort of the
/// inputs' concatenation — the same contract as
/// [`SignalingDataset::merge_sorted_runs`], with memory bounded by one
/// chunk per input instead of the whole trace.
pub struct SortedMerge<R: Read> {
    streams: Vec<MergeStream<R>>,
    heap: std::collections::BinaryHeap<std::cmp::Reverse<(u64, usize)>>,
}

struct MergeStream<R: Read> {
    reader: TraceReader<R>,
    buf: Vec<HoRecord>,
    pos: usize,
}

impl<R: Read> MergeStream<R> {
    /// Ensure a current record is buffered; `Ok(false)` at end of stream.
    fn refill(&mut self) -> Result<bool, ChunkIssue> {
        while self.pos >= self.buf.len() {
            match self.reader.next_chunk_into(&mut self.buf) {
                None => return Ok(false),
                Some(Err(issue)) => return Err(issue),
                Some(Ok(())) => self.pos = 0,
            }
        }
        Ok(true)
    }
}

impl<R: Read> SortedMerge<R> {
    /// Start merging `readers` (each must be timestamp-sorted; the merge
    /// is strict — any chunk issue in any input aborts).
    pub fn new(readers: Vec<TraceReader<R>>) -> Result<Self, ChunkIssue> {
        let mut streams: Vec<MergeStream<R>> = readers
            .into_iter()
            .map(|reader| MergeStream { reader, buf: Vec::new(), pos: 0 })
            .collect();
        let mut heap = std::collections::BinaryHeap::with_capacity(streams.len());
        for (i, s) in streams.iter_mut().enumerate() {
            if s.refill()? {
                if let Some(r) = s.buf.get(s.pos) {
                    heap.push(std::cmp::Reverse((r.timestamp_ms, i)));
                }
            }
        }
        Ok(SortedMerge { streams, heap })
    }

    /// The next record in merged order.
    #[allow(clippy::should_implement_trait)] // fallible: not Iterator::next
    pub fn next(&mut self) -> Result<Option<HoRecord>, ChunkIssue> {
        let std::cmp::Reverse((_, i)) = match self.heap.pop() {
            Some(top) => top,
            None => return Ok(None),
        };
        // Heap entries are only pushed for streams with a buffered
        // record, so both lookups always hit; a miss would mean a heap
        // desync, which degrades to end-of-merge instead of a panic.
        let Some(s) = self.streams.get_mut(i) else { return Ok(None) };
        let Some(&record) = s.buf.get(s.pos) else { return Ok(None) };
        s.pos += 1;
        if s.refill()? {
            if let Some(r) = s.buf.get(s.pos) {
                self.heap.push(std::cmp::Reverse((r.timestamp_ms, i)));
            }
        }
        Ok(Some(record))
    }
}

/// Merge sorted trace readers directly into a [`TraceWriter`], never
/// materializing the merged trace in memory. Returns the record count.
///
/// Once the merge drains to a single remaining input, the rest of that
/// stream needs no comparisons — its chunks are copied through *raw*
/// (header re-sequenced, payload byte-for-byte, CRC carried over), so
/// the tail is merged without decompressing any column. The record
/// stream is identical either way, so the stable-merge contract is
/// unaffected.
pub fn merge_sorted_readers_to_writer<R: Read, W: Write>(
    readers: Vec<TraceReader<R>>,
    writer: &mut TraceWriter<W>,
) -> std::io::Result<u64> {
    let invalid = |issue: ChunkIssue| std::io::Error::new(std::io::ErrorKind::InvalidData, issue);
    let mut merge = SortedMerge::new(readers).map_err(invalid)?;
    let mut buf: Vec<HoRecord> = Vec::with_capacity(DEFAULT_CHUNK_RECORDS);
    let mut total = 0u64;
    loop {
        // Heap entries exist only for streams with a buffered record, so
        // one entry means one live input: switch to the raw tail copy.
        if merge.heap.len() == 1 {
            let Some(&std::cmp::Reverse((_, i))) = merge.heap.peek() else { break };
            let Some(s) = merge.streams.get_mut(i) else { break };
            if !buf.is_empty() {
                writer.write_chunk(&buf)?;
                buf.clear();
            }
            // Flush the already-decoded remainder of the current chunk,
            // then stream the rest of the file raw.
            let tail = s.buf.get(s.pos..).unwrap_or(&[]);
            if !tail.is_empty() {
                total += tail.len() as u64;
                writer.write_chunk(tail)?;
            }
            s.pos = s.buf.len();
            let mut raw = Vec::new();
            while let Some(chunk) = s.reader.next_chunk_raw(&mut raw) {
                let rc = chunk.map_err(invalid)?;
                if rc.count > 0 {
                    writer.write_raw_chunk(rc.count, &raw, rc.crc)?;
                    total += u64::from(rc.count);
                }
            }
            merge.heap.clear();
            break;
        }
        match merge.next().map_err(invalid)? {
            Some(r) => {
                buf.push(r);
                total += 1;
                if buf.len() == DEFAULT_CHUNK_RECORDS {
                    writer.write_chunk(&buf)?;
                    buf.clear();
                }
            }
            None => break,
        }
    }
    if !buf.is_empty() {
        writer.write_chunk(&buf)?;
    }
    Ok(total)
}

/// Reduce sorted run files to at most `fan_in`, bounding the open files
/// of the merge that follows: while more than `fan_in` remain, merge
/// consecutive groups into intermediate files under `tmp_dir`
/// (`merge-<level>-<group>.tmp-trace`, a classic external merge sort),
/// deleting the inputs as they are consumed. When one merge of the first
/// runs can leave exactly `fan_in` files, only that excess is merged
/// (medium's 250 runs a day: the first 123 into one file, which then
/// merges with the other 127), so about half the records are merged once
/// instead of twice; a level that cannot reach `fan_in` merges all its
/// files in groups of `fan_in`. Grouping keeps
/// the run order and the merge is stable, so a stable merge of the
/// returned files equals a flat stable merge of `runs`. With `fan_in`
/// runs or fewer, `runs` comes back unchanged.
pub fn reduce_runs(
    days: u32,
    runs: Vec<std::path::PathBuf>,
    tmp_dir: &Path,
    fan_in: usize,
) -> std::io::Result<Vec<std::path::PathBuf>> {
    // telco-lint: allow(panic): API-misuse guard; every call site passes the MERGE_FAN_IN constant
    assert!(fan_in >= 2, "fan-in must be at least 2");
    let invalid = |e: CodecError| std::io::Error::new(std::io::ErrorKind::InvalidData, e);
    let mut level = 0usize;
    let mut files = runs;
    while files.len() > fan_in {
        // Merging the first `excess` files into one leaves exactly
        // `fan_in`; past one group's worth, this level merges every file
        // in groups of `fan_in`.
        let excess = files.len() - fan_in + 1;
        let (merged, group_len) =
            if excess <= fan_in { (excess, excess) } else { (files.len(), fan_in) };
        let (grouped, kept) = files.split_at(merged);
        let mut next = Vec::with_capacity(merged.div_ceil(group_len) + kept.len());
        for (group_idx, group) in grouped.chunks(group_len).enumerate() {
            let out = tmp_dir.join(format!("merge-{level:02}-{group_idx:06}.tmp-trace"));
            let mut readers = Vec::with_capacity(group.len());
            for path in group {
                readers.push(TraceReader::open(path).map_err(invalid)?);
            }
            let mut writer = TraceWriter::create(&out, days)?;
            merge_sorted_readers_to_writer(readers, &mut writer)?;
            writer.finish()?;
            for path in group {
                std::fs::remove_file(path)?;
            }
            next.push(out);
        }
        next.extend_from_slice(kept);
        files = next;
        level += 1;
    }
    Ok(files)
}

// telco-lint: deny-panic(end)

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::RECORD_BYTES;
    use crate::record::HoOutcome;
    use telco_devices::population::UeId;
    use telco_signaling::causes::{CauseCode, PrincipalCause};
    use telco_topology::elements::SectorId;
    use telco_topology::rat::Rat;

    fn rec(ts: u64, ue: u32, fail: bool) -> HoRecord {
        HoRecord {
            timestamp_ms: ts,
            ue: UeId(ue),
            source_sector: SectorId(ue),
            target_sector: SectorId(ue + 1),
            source_rat: Rat::G4,
            target_rat: if fail { Rat::G3 } else { Rat::G4 },
            outcome: if fail { HoOutcome::Failure } else { HoOutcome::Success },
            cause: fail.then(|| CauseCode::principal(PrincipalCause::TargetLoadTooHigh)),
            duration_ms: 50,
            srvcc: false,
            messages: 12,
        }
    }

    fn sample_dataset(days: u32, n: u64) -> SignalingDataset {
        let records = (0..n)
            .map(|i| rec(i * 7_000_000 % (days as u64 * 86_400_000), i as u32, i % 5 == 0))
            .collect();
        SignalingDataset::from_records(days, records)
    }

    fn encode(dataset: &SignalingDataset) -> Vec<u8> {
        let mut w = TraceWriter::new(Vec::new(), dataset.days).unwrap();
        w.write_dataset(dataset).unwrap();
        w.finish().unwrap()
    }

    /// Byte offset of every chunk frame of a sealed stream, walked by each
    /// frame's `payload_len`; the trailer follows the last one.
    fn frame_offsets(bytes: &[u8]) -> Vec<usize> {
        let mut at = HEADER_BYTES;
        let mut frames = Vec::new();
        while bytes[at..at + 4] == CHUNK_MAGIC {
            frames.push(at);
            let len = u32::from_be_bytes(bytes[at + 12..at + 16].try_into().unwrap());
            at += FRAME_HEADER_BYTES + len as usize;
        }
        frames
    }

    #[test]
    fn retired_versions_refused_by_number() {
        let mut bytes = encode(&sample_dataset(2, 50));
        for version in [1u16, 2, 3, 5, u16::MAX] {
            bytes[4..6].copy_from_slice(&version.to_be_bytes());
            assert_eq!(TraceReader::new(&bytes[..]).unwrap_err(), CodecError::BadVersion(version));
        }
        // A v1 header carries a record count after the days field; the
        // refusal happens on the version alone.
        let mut v1 = MAGIC.to_vec();
        v1.extend_from_slice(&1u16.to_be_bytes());
        v1.extend_from_slice(&2u32.to_be_bytes());
        v1.extend_from_slice(&0u64.to_be_bytes());
        assert_eq!(TraceReader::new(&v1[..]).unwrap_err(), CodecError::BadVersion(1));
    }

    #[test]
    fn corrupted_chunk_is_skipped_and_reported() {
        let d = sample_dataset(3, 600);
        let mut bytes = encode(&d);
        // Flip a bit inside the second chunk's payload.
        let second = frame_offsets(&bytes)[1];
        bytes[second + FRAME_HEADER_BYTES + 7] ^= 0x10;
        let mut reader = TraceReader::new(&bytes[..]).unwrap();
        let back = reader.read_to_dataset();
        // Exactly day 1 went missing; days 0 and 2 survived.
        assert_eq!(back.len(), d.len() - d.day(1).count());
        assert_eq!(reader.issues().len(), 1);
        assert!(matches!(reader.issues()[0].error, CodecError::ChecksumMismatch { .. }));
        assert_eq!(reader.issues()[0].chunk, 1);
        // The strict path refuses the same stream.
        let mut strict = TraceReader::new(&bytes[..]).unwrap();
        assert!(strict.read_to_dataset_strict().is_err());
    }

    #[test]
    fn corrupted_frame_header_resyncs() {
        let d = sample_dataset(2, 400);
        let mut bytes = encode(&d);
        // Smash the second chunk's magic: the reader must resync onto the
        // trailer (losing the chunk) without panicking or aborting.
        let second = frame_offsets(&bytes)[1];
        bytes[second] = b'X';
        let mut reader = TraceReader::new(&bytes[..]).unwrap();
        let back = reader.read_to_dataset();
        assert_eq!(back.len(), d.day(0).count());
        assert!(reader.issues().iter().any(|i| i.error == CodecError::BadChunkMagic));
        assert!(reader.trailer_seen());
    }

    #[test]
    fn missing_trailer_reported() {
        let d = sample_dataset(1, 100);
        let mut bytes = encode(&d);
        bytes.truncate(bytes.len() - 20); // drop the trailer exactly
        let mut reader = TraceReader::new(&bytes[..]).unwrap();
        let back = reader.read_to_dataset();
        assert_eq!(back.len(), 100); // data intact, seal missing
        assert_eq!(reader.issues().len(), 1);
        assert_eq!(reader.issues()[0].error, CodecError::MissingTrailer);
        assert!(!reader.trailer_seen());
    }

    #[test]
    fn truncated_payload_reported() {
        let d = sample_dataset(1, 100);
        let mut bytes = encode(&d);
        bytes.truncate(bytes.len() - 20 - 7); // trailer + the payload's tail
        let mut reader = TraceReader::new(&bytes[..]).unwrap();
        let back = reader.read_to_dataset();
        assert!(back.is_empty());
        assert!(reader.issues().iter().any(|i| i.error == CodecError::Truncated));
    }

    #[test]
    fn absurd_chunk_count_resyncs() {
        let d = sample_dataset(1, 10);
        let mut bytes = encode(&d);
        // Overwrite the chunk's count field with u32::MAX.
        for b in &mut bytes[HEADER_BYTES + 8..HEADER_BYTES + 12] {
            *b = 0xFF;
        }
        let mut reader = TraceReader::new(&bytes[..]).unwrap();
        let back = reader.read_to_dataset();
        assert!(back.is_empty());
        assert!(reader.issues().iter().any(|i| i.error == CodecError::BadField("record_count")));
    }

    #[test]
    fn flipped_days_field_detected_by_trailer_seal() {
        let d = sample_dataset(2, 50);
        let mut bytes = encode(&d);
        bytes[9] ^= 0x04; // days is bytes 6..10 of the header
        let mut reader = TraceReader::new(&bytes[..]).unwrap();
        let _ = reader.read_to_dataset();
        assert!(
            reader.issues().iter().any(|i| i.error == CodecError::TrailerMismatch),
            "days flip must fail the trailer seal"
        );
    }

    #[test]
    fn flipped_seq_field_detected() {
        let d = sample_dataset(3, 600);
        let mut bytes = encode(&d);
        // The second chunk's seq field sits right after its magic.
        let seq = frame_offsets(&bytes)[1] + 4;
        bytes[seq + 3] ^= 0x02; // seq 1 -> 3
        let mut reader = TraceReader::new(&bytes[..]).unwrap();
        let back = reader.read_to_dataset();
        assert_eq!(back.len(), d.len() - d.day(1).count());
        assert!(reader.issues().iter().any(|i| i.error == CodecError::BadField("chunk_seq")));
    }

    #[test]
    fn data_after_trailer_reported() {
        let d = sample_dataset(1, 10);
        let mut bytes = encode(&d);
        bytes.extend_from_slice(b"junk");
        let mut reader = TraceReader::new(&bytes[..]).unwrap();
        let back = reader.read_to_dataset();
        assert_eq!(back.len(), 10);
        assert!(!reader.issues().is_empty());
    }

    #[test]
    fn merge_matches_in_memory_merge() {
        // Three sorted runs with cross-run timestamp ties.
        let runs = vec![
            SignalingDataset::from_records(2, vec![rec(100, 1, false), rec(300, 2, true)]),
            SignalingDataset::new(2),
            SignalingDataset::from_records(2, vec![rec(50, 3, false), rec(100, 4, false)]),
            SignalingDataset::from_records(2, vec![rec(100, 5, false)]),
        ];
        let encoded: Vec<Vec<u8>> = runs
            .iter()
            .map(|run| {
                let mut w = TraceWriter::new(Vec::new(), 2).unwrap();
                w.write_chunk(run.records()).unwrap();
                w.finish().unwrap()
            })
            .collect();
        let readers: Vec<TraceReader<&[u8]>> =
            encoded.iter().map(|bytes| TraceReader::new(&bytes[..]).unwrap()).collect();
        let merged = merge_to_dataset(2, readers);
        let reference = SignalingDataset::merge_sorted_runs(2, runs);
        assert_eq!(merged, reference);
    }

    /// Merge `readers` through [`merge_sorted_readers_to_writer`] into an
    /// in-memory stream and read it back.
    fn merge_to_dataset<R: Read>(days: u32, readers: Vec<TraceReader<R>>) -> SignalingDataset {
        let mut writer = TraceWriter::new(Vec::new(), days).unwrap();
        let n = merge_sorted_readers_to_writer(readers, &mut writer).unwrap();
        let bytes = writer.finish().unwrap();
        let merged = TraceReader::new(&bytes[..]).unwrap().read_to_dataset_strict().unwrap();
        assert_eq!(n, merged.len() as u64);
        merged
    }

    #[test]
    fn external_merge_multi_pass() {
        let dir = std::env::temp_dir().join("telco_store_merge_test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        // 9 runs merged with fan-in 3 forces two passes.
        let mut paths = Vec::new();
        let mut all: Vec<HoRecord> = Vec::new();
        for i in 0..9u64 {
            let records: Vec<HoRecord> =
                (0..50).map(|j| rec(j * 97 + i, (i * 100 + j) as u32, false)).collect();
            let run = SignalingDataset::from_records(1, records);
            all.extend_from_slice(run.records());
            let path = dir.join(format!("run-{i:06}.tmp-trace"));
            write_file_v3(&run, &path).unwrap();
            paths.push(path);
        }
        let files = reduce_runs(1, paths.clone(), &dir, 3).unwrap();
        // One pass leaves three intermediates, and the runs are consumed.
        assert_eq!(files.len(), 3);
        assert!(files.iter().all(|file| !paths.contains(file)), "{files:?}");
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 3);
        let readers = files.iter().map(|path| TraceReader::open(path).unwrap()).collect();
        let merged = merge_to_dataset(1, readers);
        all.sort_by_key(|r| r.timestamp_ms);
        assert_eq!(merged.records(), &all[..]);
        // At the fan-in, the runs come back untouched.
        assert_eq!(reduce_runs(1, files.clone(), &dir, 3).unwrap(), files);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn reduce_runs_merges_only_the_excess() {
        let dir = std::env::temp_dir().join("telco_store_excess_test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        // Four runs at fan-in 3, every timestamp shared by all four, so
        // the merged order rests on the run order alone.
        let mut paths = Vec::new();
        let mut all: Vec<HoRecord> = Vec::new();
        for i in 0..4u64 {
            let records: Vec<HoRecord> =
                (0..50).map(|j| rec(j * 10, (i * 100 + j) as u32, j % 7 == 0)).collect();
            let run = SignalingDataset::from_records(1, records);
            all.extend_from_slice(run.records());
            let path = dir.join(format!("run-{i:06}.tmp-trace"));
            write_file_v3(&run, &path).unwrap();
            paths.push(path);
        }
        let untouched: Vec<Vec<u8>> =
            paths[2..].iter().map(|path| std::fs::read(path).unwrap()).collect();
        let files = reduce_runs(1, paths.clone(), &dir, 3).unwrap();
        // The first two runs merge into one file; the last two are the
        // original run files, byte for byte.
        assert_eq!(files.len(), 3);
        assert_eq!(files[1..], paths[2..]);
        for (path, bytes) in files[1..].iter().zip(&untouched) {
            assert_eq!(&std::fs::read(path).unwrap(), bytes);
        }
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 3);
        let readers = files.iter().map(|path| TraceReader::open(path).unwrap()).collect();
        all.sort_by_key(|r| r.timestamp_ms);
        assert_eq!(merge_to_dataset(1, readers).records(), &all[..]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn v3_roundtrip_and_compression() {
        let d = sample_dataset(3, 500);
        let bytes = encode(&d);
        let mut reader = TraceReader::new(&bytes[..]).unwrap();
        assert_eq!(reader.days(), 3);
        let back = reader.read_to_dataset_strict().unwrap();
        assert_eq!(back, d);
        assert_eq!(reader.chunks_read(), 3, "one chunk per day");
        assert!(reader.trailer_seen());
        assert!(reader.issues().is_empty());
        // The columnar payload must actually compress this workload.
        let rows = d.len() * RECORD_BYTES;
        assert!(bytes.len() < rows, "v3 {} not smaller than {rows} row bytes", bytes.len());
    }

    #[test]
    fn writer_header_is_version_4() {
        let bytes = encode(&SignalingDataset::new(1));
        assert_eq!(bytes[..4], MAGIC);
        assert_eq!(u16::from_be_bytes([bytes[4], bytes[5]]), 4);
        assert_eq!(VERSION, 4);
    }

    #[test]
    fn a_version_3_trace_is_refused_by_name() {
        // Version 3 stored durations as raw f32 bits, which a version 4
        // reader would take for varints: refuse the header instead of
        // decoding wrong durations.
        let mut bytes = encode(&sample_dataset(2, 50));
        bytes[4..6].copy_from_slice(&3u16.to_be_bytes());
        let err = TraceReader::new(&bytes[..]).unwrap_err();
        assert_eq!(err, CodecError::BadVersion(3));
        assert_eq!(err.to_string(), "unsupported trace version 3");
    }

    #[test]
    fn v3_empty_dataset() {
        let bytes = encode(&SignalingDataset::new(28));
        let mut reader = TraceReader::new(&bytes[..]).unwrap();
        let back = reader.read_to_dataset_strict().unwrap();
        assert_eq!(back.days, 28);
        assert!(back.is_empty());
        assert!(reader.trailer_seen());
    }

    #[test]
    fn v3_absurd_payload_len_resyncs() {
        let d = sample_dataset(1, 10);
        let mut bytes = encode(&d);
        // Overwrite the first chunk's payload_len with u32::MAX while
        // leaving count plausible: the reader must refuse the
        // allocation and resync.
        for b in &mut bytes[HEADER_BYTES + 12..HEADER_BYTES + 16] {
            *b = 0xFF;
        }
        let mut reader = TraceReader::new(&bytes[..]).unwrap();
        let back = reader.read_to_dataset();
        assert!(back.is_empty());
        assert!(reader.issues().iter().any(|i| i.error == CodecError::BadField("payload_len")));
    }

    #[test]
    fn v3_decode_failure_names_the_column() {
        // Craft a frame whose payload passes CRC but does not decode: the
        // issue must carry the column name.
        let d = sample_dataset(1, 5);
        let mut bytes = encode(&d);
        let payload_len = u32::from_be_bytes([
            bytes[HEADER_BYTES + 12],
            bytes[HEADER_BYTES + 13],
            bytes[HEADER_BYTES + 14],
            bytes[HEADER_BYTES + 15],
        ]) as usize;
        let payload_start = HEADER_BYTES + FRAME_HEADER_BYTES;
        // Walk the column-group frames to the flags column (id 6) and
        // make record 0 a failure without a cause — an invalid record —
        // then fix the stored CRC.
        let mut q = payload_start;
        while bytes[q] != 6 {
            let len = u32::from_be_bytes([bytes[q + 1], bytes[q + 2], bytes[q + 3], bytes[q + 4]])
                as usize;
            q += 5 + len;
        }
        bytes[q + 5] = 0x01;
        let crc = crc32(&bytes[payload_start..payload_start + payload_len]);
        bytes[HEADER_BYTES + 16..HEADER_BYTES + 20].copy_from_slice(&crc.to_be_bytes());
        let mut reader = TraceReader::new(&bytes[..]).unwrap();
        let back = reader.read_to_dataset();
        assert!(back.is_empty());
        assert_eq!(reader.issues()[0].error, CodecError::BadField("cause"));
    }

    #[test]
    fn raw_chunk_passthrough_matches_decode() {
        // Reading a stream raw and re-framing through write_raw_chunk
        // must reproduce a byte-identical record stream.
        let d = sample_dataset(2, 300);
        let bytes = encode(&d);
        let mut reader = TraceReader::new(&bytes[..]).unwrap();
        let mut writer = TraceWriter::new(Vec::new(), 2).unwrap();
        let mut raw = Vec::new();
        while let Some(chunk) = reader.next_chunk_raw(&mut raw) {
            let rc = chunk.unwrap();
            writer.write_raw_chunk(rc.count, &raw, rc.crc).unwrap();
        }
        assert!(reader.trailer_seen());
        let copied = writer.finish().unwrap();
        let mut reread = TraceReader::new(&copied[..]).unwrap();
        assert_eq!(reread.read_to_dataset_strict().unwrap(), d);
        // Same chunk structure and payloads → identical bytes.
        assert_eq!(copied, bytes);
    }

    #[test]
    fn merge_passthrough_tail() {
        let dir = std::env::temp_dir().join("telco_store_merge_v3_test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        // Two runs: a short one and a long tail — the merge exhausts the
        // short one early, then raw-copies the long one's remainder.
        let short: Vec<HoRecord> = (0..20u64).map(|i| rec(i * 10, i as u32, false)).collect();
        let long: Vec<HoRecord> =
            (0..4000u64).map(|i| rec(i * 50, (i + 100) as u32, i % 7 == 0)).collect();
        let mut all: Vec<HoRecord> = short.iter().chain(long.iter()).copied().collect();
        all.sort_by_key(|r| r.timestamp_ms);
        let mut paths = Vec::new();
        for (i, run) in [&short, &long].iter().enumerate() {
            let path = dir.join(format!("run-{i:06}.tmp-trace"));
            let mut w = TraceWriter::create(&path, 3).unwrap();
            for day_chunk in run.chunks(512) {
                w.write_chunk(day_chunk).unwrap();
            }
            w.finish().unwrap();
            paths.push(path);
        }
        let readers = paths.iter().map(|path| TraceReader::open(path).unwrap()).collect();
        let merged = merge_to_dataset(3, readers);
        assert_eq!(merged.records(), &all[..]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn file_roundtrip_v3() {
        let dir = std::env::temp_dir().join("telco_store_file_v3_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.tlho");
        let d = sample_dataset(2, 250);
        write_file_v3(&d, &path).unwrap();
        let mut reader = TraceReader::open(&path).unwrap();
        assert_eq!(reader.read_to_dataset_strict().unwrap(), d);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
