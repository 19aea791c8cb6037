//! Format v4 chunk payloads: struct-of-arrays column encoding.
//!
//! The aggregate-heavy access patterns of the analyses (per-sector,
//! per-day, per-type counting — §4–§6 of the paper) touch two or three
//! fields of every record; the row-oriented 36-byte frames of v1/v2 make
//! every scan drag the full record through the cache anyway. A chunk
//! payload instead stores one column per [`HoRecord`] field, each with a
//! lightweight compression chosen for that field's distribution:
//!
//! | id | column          | encoding                                      |
//! |----|-----------------|-----------------------------------------------|
//! | 0  | `timestamp_ms`  | first value varint, then zigzag varint deltas |
//! | 1  | `ue`            | varint                                        |
//! | 2  | `source_sector` | chunk-local dictionary + bit-packed indexes   |
//! | 3  | `target_sector` | chunk-local dictionary + bit-packed indexes   |
//! | 4  | `source_rat`    | bit-packed, 2 bits/record                     |
//! | 5  | `target_rat`    | bit-packed, 2 bits/record                     |
//! | 6  | flags           | bit-packed, 3 bits/record (fail·srvcc·cause)  |
//! | 7  | `cause`         | varint, one per record with the cause flag    |
//! | 8  | `duration_ms`   | varint (whole milliseconds)                   |
//! | 9  | `messages`      | varint                                        |
//!
//! Each column is framed as `u8 id | u32 len (BE) | body`, in ascending
//! id order, so a decode failure names the exact column
//! ([`CodecError::BadField`]) even though the recovery unit stays one
//! chunk (a record needs all its columns). Timestamps are near-sorted
//! with small inter-record gaps, so deltas shrink them from 8 bytes to
//! 1–3; deltas are *zigzag-encoded wrapping* differences, so a
//! timestamp regression inside a chunk (unsorted input) still
//! round-trips losslessly. Sector columns dictionary-code because a
//! chunk (one study day of one worker's records) touches few distinct
//! sectors; dictionary entries are emitted in first-appearance order —
//! a deterministic function of the input, per the crate's
//! deny-nondeterminism invariant (the lookup map is never iterated).
//!
//! Decoding targets a [`ColumnBatch`] — reusable struct-of-arrays
//! buffers, one `Vec` per column — so the analysis sweep can scan
//! columns directly without materializing per-record [`HoRecord`] rows;
//! [`ColumnBatch::rows`] rebuilds rows on demand for row-oriented
//! consumers. The container framing around these payloads (chunk
//! headers, CRC, trailer) lives in [`crate::store`]; this module is pure
//! bytes-to-columns.

use telco_devices::population::UeId;
use telco_signaling::causes::CauseCode;
use telco_topology::elements::SectorId;
use telco_topology::rat::Rat;

use crate::hash::FxHashMap;
use crate::io::CodecError;
use crate::record::{HoOutcome, HoRecord};

/// Column-group ids, in payload order.
const COL_TIMESTAMP: u8 = 0;
const COL_UE: u8 = 1;
const COL_SRC_SECTOR: u8 = 2;
const COL_TGT_SECTOR: u8 = 3;
const COL_SRC_RAT: u8 = 4;
const COL_TGT_RAT: u8 = 5;
const COL_FLAGS: u8 = 6;
const COL_CAUSE: u8 = 7;
const COL_DURATION: u8 = 8;
const COL_MESSAGES: u8 = 9;

/// Number of column groups in a payload.
const COLUMNS: usize = 10;

/// Record flag bit (column 6): the handover failed.
pub const FLAG_FAILURE: u8 = 1;
/// Record flag bit (column 6): the handover was an SRVCC fallback.
pub const FLAG_SRVCC: u8 = 2;
/// Record flag bit (column 6): the record carries a cause code.
pub const FLAG_CAUSE: u8 = 4;

/// The column-6 flag byte of a row (shared by the encoder and the
/// row→column transpose so both agree bit-for-bit).
#[inline]
fn row_flags(r: &HoRecord) -> u8 {
    (u8::from(r.outcome == HoOutcome::Failure) * FLAG_FAILURE)
        | (u8::from(r.srvcc) * FLAG_SRVCC)
        | (u8::from(r.cause.is_some()) * FLAG_CAUSE)
}

// ---- primitive encoders ----------------------------------------------------

/// Append an LEB128 varint (7 bits per byte, continuation in the MSB).
#[inline]
fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push((v as u8) | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Zigzag-fold a signed delta so small magnitudes of either sign varint
/// into few bytes.
#[inline]
fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

#[inline]
fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// LSB-first bit packer for the fixed-width columns (dictionary indexes,
/// RATs, flags).
struct BitWriter<'a> {
    out: &'a mut Vec<u8>,
    acc: u64,
    filled: u32,
}

impl<'a> BitWriter<'a> {
    fn new(out: &'a mut Vec<u8>) -> Self {
        BitWriter { out, acc: 0, filled: 0 }
    }

    /// Push the low `width` bits of `v` (width in 1..=32; zero-width
    /// columns skip the bit stream entirely).
    #[inline]
    fn push(&mut self, v: u64, width: u32) {
        self.acc |= (v & ((1u64 << width) - 1)) << self.filled;
        self.filled += width;
        while self.filled >= 8 {
            self.out.push(self.acc as u8);
            self.acc >>= 8;
            self.filled -= 8;
        }
    }

    fn finish(self) {
        if self.filled > 0 {
            self.out.push(self.acc as u8);
        }
    }
}

/// LSB-first bit unpacker mirroring [`BitWriter`].
struct BitReader<'a> {
    buf: &'a [u8],
    pos: usize,
    acc: u64,
    avail: u32,
}

impl<'a> BitReader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        BitReader { buf, pos: 0, acc: 0, avail: 0 }
    }

    /// The next `width` bits (width in 1..=32), or `None` past the end.
    #[inline]
    fn pull(&mut self, width: u32) -> Option<u64> {
        while self.avail < width {
            let &byte = self.buf.get(self.pos)?;
            self.acc |= (byte as u64) << self.avail;
            self.avail += 8;
            self.pos += 1;
        }
        let v = self.acc & ((1u64 << width) - 1);
        self.acc >>= width;
        self.avail -= width;
        Some(v)
    }

    /// Whether any set bit remains unconsumed (padding bits must be 0).
    fn leftover_is_clean(&self) -> bool {
        self.acc == 0 && self.buf[self.pos.min(self.buf.len())..].iter().all(|&b| b == 0)
    }
}

/// Bits needed to index a dictionary of `len` entries (0 for ≤1 entry).
#[inline]
fn index_width(len: usize) -> u32 {
    if len <= 1 {
        0
    } else {
        u64::BITS - (len as u64 - 1).leading_zeros()
    }
}

// ---- encoder ---------------------------------------------------------------

/// Chunk-local dictionary builder: first-appearance order, FxHash
/// lookup. A chunk is one worker's slice of one study day, so the
/// distinct-value set stays small and the map cache-resident — a
/// direct-mapped id table was measured *slower* here (it scatters
/// probes across an `n_sectors`-sized array instead of a few hot
/// buckets).
#[derive(Debug, Default)]
struct DictBuilder {
    lookup: FxHashMap<u32, u32>,
    order: Vec<u32>,
    indexes: Vec<u32>,
}

impl DictBuilder {
    fn clear(&mut self) {
        self.lookup.clear();
        self.order.clear();
        self.indexes.clear();
    }

    #[inline]
    fn push(&mut self, value: u32) {
        let next = self.order.len() as u32;
        let idx = *self.lookup.entry(value).or_insert_with(|| {
            self.order.push(value);
            next
        });
        self.indexes.push(idx);
    }

    /// Emit `varint len | entries (varint, appearance order) | packed
    /// indexes` into `out`.
    fn emit(&self, out: &mut Vec<u8>) {
        put_varint(out, self.order.len() as u64);
        for &v in &self.order {
            put_varint(out, v as u64);
        }
        let width = index_width(self.order.len());
        if width > 0 {
            let mut bits = BitWriter::new(out);
            for &idx in &self.indexes {
                bits.push(idx as u64, width);
            }
            bits.finish();
        }
    }
}

/// Reusable v3 column encoder. Holds the dictionary scratch so a writer
/// encoding many chunks performs no steady-state map allocations.
#[derive(Debug, Default)]
pub struct ColumnEncoder {
    src_dict: DictBuilder,
    tgt_dict: DictBuilder,
}

/// Open a column group frame: write `id` and reserve the `u32 len`
/// header, returning the body-start offset for [`end_group`]. Column
/// bodies are encoded *in place* in `out` — backpatching the length
/// afterwards avoids a scratch-buffer copy per column (the copy is what
/// held `v3_write` to ~60% of the v2 write rate).
#[inline]
fn begin_group(out: &mut Vec<u8>, id: u8) -> usize {
    out.push(id);
    out.extend_from_slice(&[0u8; 4]);
    out.len()
}

/// Backpatch the group length once the body has been written in place.
#[inline]
fn end_group(out: &mut [u8], body_start: usize) {
    let len = (out.len() - body_start) as u32;
    if let Some(header) = out.get_mut(body_start.wrapping_sub(4)..body_start) {
        header.copy_from_slice(&len.to_be_bytes());
    }
}

impl ColumnEncoder {
    /// A fresh encoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Encode `records` as a columnar payload, appended to `out`.
    pub fn encode(&mut self, records: &[HoRecord], out: &mut Vec<u8>) {
        // Column 0: timestamps — absolute first value, wrapping zigzag
        // deltas after (lossless even when a chunk is unsorted).
        let at = begin_group(out, COL_TIMESTAMP);
        let mut prev = 0u64;
        for (i, r) in records.iter().enumerate() {
            if i == 0 {
                put_varint(out, r.timestamp_ms);
            } else {
                put_varint(out, zigzag(r.timestamp_ms.wrapping_sub(prev) as i64));
            }
            prev = r.timestamp_ms;
        }
        end_group(out, at);

        // Column 1: UE ids, plain varint.
        let at = begin_group(out, COL_UE);
        for r in records {
            put_varint(out, r.ue.0 as u64);
        }
        end_group(out, at);

        // Columns 2–3: sector dictionaries.
        self.src_dict.clear();
        self.tgt_dict.clear();
        for r in records {
            self.src_dict.push(r.source_sector.0);
            self.tgt_dict.push(r.target_sector.0);
        }
        let at = begin_group(out, COL_SRC_SECTOR);
        self.src_dict.emit(out);
        end_group(out, at);
        let at = begin_group(out, COL_TGT_SECTOR);
        self.tgt_dict.emit(out);
        end_group(out, at);

        // Columns 4–5: RATs, 2 bits each.
        let at = begin_group(out, COL_SRC_RAT);
        {
            let mut bits = BitWriter::new(out);
            for r in records {
                bits.push(r.source_rat.index() as u64, 2);
            }
            bits.finish();
        }
        end_group(out, at);
        let at = begin_group(out, COL_TGT_RAT);
        {
            let mut bits = BitWriter::new(out);
            for r in records {
                bits.push(r.target_rat.index() as u64, 2);
            }
            bits.finish();
        }
        end_group(out, at);

        // Column 6: flags, 3 bits (failure | srvcc | cause-present).
        let at = begin_group(out, COL_FLAGS);
        {
            let mut bits = BitWriter::new(out);
            for r in records {
                bits.push(u64::from(row_flags(r)), 3);
            }
            bits.finish();
        }
        end_group(out, at);

        // Column 7: causes — sparse, one varint per flagged record.
        let at = begin_group(out, COL_CAUSE);
        for r in records {
            if let Some(c) = r.cause {
                put_varint(out, c.0 as u64);
            }
        }
        end_group(out, at);

        // Column 8: durations in whole ms, plain varint (one byte below
        // 128 ms, two below 16.4 s).
        let at = begin_group(out, COL_DURATION);
        for r in records {
            put_varint(out, u64::from(r.duration_ms));
        }
        end_group(out, at);

        // Column 9: message counts, plain varint.
        let at = begin_group(out, COL_MESSAGES);
        for r in records {
            put_varint(out, r.messages as u64);
        }
        end_group(out, at);
    }
}

// ---- column batch ----------------------------------------------------------
// telco-lint: deny-panic(begin)
// The batch accessors and the decode path below ingest external bytes
// (CRC-checked, but a checksum collision or writer bug must still
// surface as a typed CodecError, never a panic or an unbounded
// allocation), and the batch scan helpers sit on the sweep hot path.

/// Struct-of-arrays decode target: one reusable `Vec` per [`HoRecord`]
/// column. [`decode_columns`] fills a batch in place (arena reuse across
/// chunks — steady-state decode performs no allocation once the buffers
/// have grown to chunk size), and analysis passes scan the column slices
/// directly instead of materializing rows.
///
/// All columns always hold exactly [`ColumnBatch::len`] values. The
/// `flags` column packs the three record booleans per [`FLAG_FAILURE`] /
/// [`FLAG_SRVCC`] / [`FLAG_CAUSE`]; `causes` is record-aligned with `0`
/// in rows whose cause flag is clear (so scans can index it without an
/// `Option` dance — the flag bit is the presence test).
#[derive(Debug, Default, Clone)]
pub struct ColumnBatch {
    timestamps: Vec<u64>,
    ues: Vec<u32>,
    source_sectors: Vec<u32>,
    target_sectors: Vec<u32>,
    source_rats: Vec<Rat>,
    target_rats: Vec<Rat>,
    flags: Vec<u8>,
    causes: Vec<u16>,
    durations: Vec<u32>,
    messages: Vec<u16>,
}

impl ColumnBatch {
    /// An empty batch (buffers grow on first decode and are reused).
    pub fn new() -> Self {
        Self::default()
    }

    /// Records in the batch.
    #[inline]
    pub fn len(&self) -> usize {
        self.timestamps.len()
    }

    /// Whether the batch holds no records.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.timestamps.is_empty()
    }

    /// Drop all records, keeping the column buffers allocated.
    pub fn clear(&mut self) {
        self.timestamps.clear();
        self.ues.clear();
        self.source_sectors.clear();
        self.target_sectors.clear();
        self.source_rats.clear();
        self.target_rats.clear();
        self.flags.clear();
        self.causes.clear();
        self.durations.clear();
        self.messages.clear();
    }

    /// Resize every column to `count` default values (decode overwrites
    /// each column in its own pass).
    fn reset(&mut self, count: usize) {
        self.clear();
        self.timestamps.resize(count, 0);
        self.ues.resize(count, 0);
        self.source_sectors.resize(count, 0);
        self.target_sectors.resize(count, 0);
        self.source_rats.resize(count, Rat::G4);
        self.target_rats.resize(count, Rat::G4);
        self.flags.resize(count, 0);
        self.causes.resize(count, 0);
        self.durations.resize(count, 0);
        self.messages.resize(count, 0);
    }

    /// `timestamp_ms` column.
    #[inline]
    pub fn timestamps(&self) -> &[u64] {
        &self.timestamps
    }

    /// `ue` column (raw ids).
    #[inline]
    pub fn ues(&self) -> &[u32] {
        &self.ues
    }

    /// `source_sector` column (raw ids).
    #[inline]
    pub fn source_sectors(&self) -> &[u32] {
        &self.source_sectors
    }

    /// `target_sector` column (raw ids).
    #[inline]
    pub fn target_sectors(&self) -> &[u32] {
        &self.target_sectors
    }

    /// `source_rat` column.
    #[inline]
    pub fn source_rats(&self) -> &[Rat] {
        &self.source_rats
    }

    /// `target_rat` column.
    #[inline]
    pub fn target_rats(&self) -> &[Rat] {
        &self.target_rats
    }

    /// Flag column: [`FLAG_FAILURE`] | [`FLAG_SRVCC`] | [`FLAG_CAUSE`]
    /// per record.
    #[inline]
    pub fn flags(&self) -> &[u8] {
        &self.flags
    }

    /// Cause-code column, record-aligned (`0` where the cause flag is
    /// clear).
    #[inline]
    pub fn causes(&self) -> &[u16] {
        &self.causes
    }

    /// `duration_ms` column (whole milliseconds).
    #[inline]
    pub fn durations(&self) -> &[u32] {
        &self.durations
    }

    /// `messages` column.
    #[inline]
    pub fn messages(&self) -> &[u16] {
        &self.messages
    }

    /// Append one row, transposed into the columns.
    pub fn push_row(&mut self, r: &HoRecord) {
        self.timestamps.push(r.timestamp_ms);
        self.ues.push(r.ue.0);
        self.source_sectors.push(r.source_sector.0);
        self.target_sectors.push(r.target_sector.0);
        self.source_rats.push(r.source_rat);
        self.target_rats.push(r.target_rat);
        self.flags.push(row_flags(r));
        self.causes.push(r.cause.map_or(0, |c| c.0));
        self.durations.push(r.duration_ms);
        self.messages.push(r.messages);
    }

    /// Append a row slice, transposed column by column (one tight loop
    /// per column, so the transpose vectorizes).
    pub fn extend_from_rows(&mut self, rows: &[HoRecord]) {
        self.timestamps.extend(rows.iter().map(|r| r.timestamp_ms));
        self.ues.extend(rows.iter().map(|r| r.ue.0));
        self.source_sectors.extend(rows.iter().map(|r| r.source_sector.0));
        self.target_sectors.extend(rows.iter().map(|r| r.target_sector.0));
        self.source_rats.extend(rows.iter().map(|r| r.source_rat));
        self.target_rats.extend(rows.iter().map(|r| r.target_rat));
        self.flags.extend(rows.iter().map(row_flags));
        self.causes.extend(rows.iter().map(|r| r.cause.map_or(0, |c| c.0)));
        self.durations.extend(rows.iter().map(|r| r.duration_ms));
        self.messages.extend(rows.iter().map(|r| r.messages));
    }

    /// Rebuild row `i`, or `None` past the end.
    pub fn row(&self, i: usize) -> Option<HoRecord> {
        let &flags = self.flags.get(i)?;
        Some(HoRecord {
            timestamp_ms: *self.timestamps.get(i)?,
            ue: UeId(*self.ues.get(i)?),
            source_sector: SectorId(*self.source_sectors.get(i)?),
            target_sector: SectorId(*self.target_sectors.get(i)?),
            source_rat: *self.source_rats.get(i)?,
            target_rat: *self.target_rats.get(i)?,
            outcome: if flags & FLAG_FAILURE != 0 {
                HoOutcome::Failure
            } else {
                HoOutcome::Success
            },
            cause: (flags & FLAG_CAUSE != 0)
                .then(|| CauseCode(self.causes.get(i).copied().unwrap_or(0))),
            duration_ms: *self.durations.get(i)?,
            srvcc: flags & FLAG_SRVCC != 0,
            messages: *self.messages.get(i)?,
        })
    }

    /// Iterate the batch as materialized rows (the fallback path for
    /// passes without a column-scan implementation).
    pub fn rows(&self) -> impl Iterator<Item = HoRecord> + '_ {
        self.timestamps
            .iter()
            .zip(&self.ues)
            .zip(&self.source_sectors)
            .zip(&self.target_sectors)
            .zip(&self.source_rats)
            .zip(&self.target_rats)
            .zip(&self.flags)
            .zip(&self.causes)
            .zip(&self.durations)
            .zip(&self.messages)
            .map(|(((((((((&ts, &ue), &src), &tgt), &sr), &tr), &flags), &cause), &dur), &msgs)| {
                HoRecord {
                    timestamp_ms: ts,
                    ue: UeId(ue),
                    source_sector: SectorId(src),
                    target_sector: SectorId(tgt),
                    source_rat: sr,
                    target_rat: tr,
                    outcome: if flags & FLAG_FAILURE != 0 {
                        HoOutcome::Failure
                    } else {
                        HoOutcome::Success
                    },
                    cause: (flags & FLAG_CAUSE != 0).then_some(CauseCode(cause)),
                    duration_ms: dur,
                    srvcc: flags & FLAG_SRVCC != 0,
                    messages: msgs,
                }
            })
    }

    /// Materialize all rows into `out` (cleared first).
    pub fn fill_rows(&self, out: &mut Vec<HoRecord>) {
        out.clear();
        out.reserve(self.len());
        out.extend(self.rows());
    }
}

// ---- decoder ---------------------------------------------------------------

/// Byte cursor over one column body.
struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, pos: 0 }
    }

    #[inline]
    fn varint(&mut self) -> Option<u64> {
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let &byte = self.buf.get(self.pos)?;
            self.pos += 1;
            if shift == 63 && byte > 1 {
                return None; // overflows u64
            }
            v |= ((byte & 0x7F) as u64) << shift;
            if byte & 0x80 == 0 {
                return Some(v);
            }
            shift += 7;
            if shift > 63 {
                return None;
            }
        }
    }

    fn exhausted(&self) -> bool {
        self.pos >= self.buf.len()
    }
}

/// Split the next `id | u32 len | body` group off `payload`, verifying
/// the id. Returns the body and the remaining payload.
fn next_group<'a>(
    payload: &'a [u8],
    expect_id: u8,
    name: &'static str,
) -> Result<(&'a [u8], &'a [u8]), CodecError> {
    let (&id, rest) = payload.split_first().ok_or(CodecError::BadField("column_id"))?;
    if id != expect_id {
        return Err(CodecError::BadField("column_id"));
    }
    let (len_bytes, rest) = rest.split_first_chunk::<4>().ok_or(CodecError::BadField(name))?;
    let len = u32::from_be_bytes(*len_bytes) as usize;
    if len > rest.len() {
        return Err(CodecError::BadField(name));
    }
    let (body, remaining) = rest.split_at(len);
    Ok((body, remaining))
}

fn rat_from(code: u64) -> Result<Rat, CodecError> {
    Rat::ALL.get(code as usize).copied().ok_or(CodecError::BadField("rat"))
}

// telco-lint: deny-alloc(begin)
/// Decode a chunk-local dictionary column into per-record values, one
/// `set` call per record (in record order).
fn decode_dict(
    body: &[u8],
    count: usize,
    name: &'static str,
    mut set: impl FnMut(usize, u32),
) -> Result<(), CodecError> {
    let mut bytes = ByteReader::new(body);
    let dict_len = bytes.varint().ok_or(CodecError::BadField(name))? as usize;
    if dict_len > count || (dict_len == 0) != (count == 0) {
        // More entries than records means the dictionary itself is
        // corrupt — and bounding it here keeps a flipped length from
        // driving a giant allocation.
        return Err(CodecError::BadField(name));
    }
    let mut dict = Vec::with_capacity(dict_len);
    for _ in 0..dict_len {
        let v = bytes.varint().ok_or(CodecError::BadField(name))?;
        // telco-lint: allow(alloc): one bounded dictionary per chunk (≤ count entries), not per record
        dict.push(u32::try_from(v).map_err(|_| CodecError::BadField(name))?);
    }
    let width = index_width(dict_len);
    if width == 0 {
        if !bytes.exhausted() {
            return Err(CodecError::BadField(name));
        }
        let value = dict.first().copied().unwrap_or(0);
        for i in 0..count {
            set(i, value);
        }
        return Ok(());
    }
    let packed = bytes.buf.get(bytes.pos..).unwrap_or(&[]);
    let mut bits = BitReader::new(packed);
    for i in 0..count {
        let idx = bits.pull(width).ok_or(CodecError::BadField(name))? as usize;
        let value = *dict.get(idx).ok_or(CodecError::BadField(name))?;
        set(i, value);
    }
    if !bits.leftover_is_clean() {
        return Err(CodecError::BadField(name));
    }
    Ok(())
}

/// Decode a columnar payload of `count` records into the reusable
/// struct-of-arrays buffers of `out` (cleared first; contents are
/// unspecified after an error). Strict: every column must hold exactly
/// `count` values with no trailing garbage, every dictionary index must
/// be in range, every enum code valid — anything else is a typed
/// [`CodecError::BadField`] naming the offending column.
pub fn decode_columns(
    payload: &[u8],
    count: usize,
    out: &mut ColumnBatch,
) -> Result<(), CodecError> {
    out.reset(count);

    // Column 0: timestamps.
    let (body, payload) = next_group(payload, COL_TIMESTAMP, "timestamp")?;
    let mut bytes = ByteReader::new(body);
    let mut prev = 0u64;
    for (i, ts) in out.timestamps.iter_mut().enumerate() {
        let raw = bytes.varint().ok_or(CodecError::BadField("timestamp"))?;
        let v = if i == 0 { raw } else { prev.wrapping_add(unzigzag(raw) as u64) };
        *ts = v;
        prev = v;
    }
    if !bytes.exhausted() {
        return Err(CodecError::BadField("timestamp"));
    }

    // Column 1: UE ids.
    let (body, payload) = next_group(payload, COL_UE, "ue")?;
    let mut bytes = ByteReader::new(body);
    for ue in out.ues.iter_mut() {
        let v = bytes.varint().ok_or(CodecError::BadField("ue"))?;
        *ue = u32::try_from(v).map_err(|_| CodecError::BadField("ue"))?;
    }
    if !bytes.exhausted() {
        return Err(CodecError::BadField("ue"));
    }

    // Columns 2–3: sector dictionaries.
    let (body, payload) = next_group(payload, COL_SRC_SECTOR, "source_sector")?;
    {
        let col = &mut out.source_sectors;
        decode_dict(body, count, "source_sector", |i, v| {
            if let Some(s) = col.get_mut(i) {
                *s = v;
            }
        })?;
    }
    let (body, payload) = next_group(payload, COL_TGT_SECTOR, "target_sector")?;
    {
        let col = &mut out.target_sectors;
        decode_dict(body, count, "target_sector", |i, v| {
            if let Some(s) = col.get_mut(i) {
                *s = v;
            }
        })?;
    }

    // Columns 4–5: RATs.
    let (body, payload) = next_group(payload, COL_SRC_RAT, "source_rat")?;
    let mut bits = BitReader::new(body);
    for rat in out.source_rats.iter_mut() {
        *rat = rat_from(bits.pull(2).ok_or(CodecError::BadField("source_rat"))?)?;
    }
    if !bits.leftover_is_clean() {
        return Err(CodecError::BadField("source_rat"));
    }
    let (body, payload) = next_group(payload, COL_TGT_RAT, "target_rat")?;
    let mut bits = BitReader::new(body);
    for rat in out.target_rats.iter_mut() {
        *rat = rat_from(bits.pull(2).ok_or(CodecError::BadField("target_rat"))?)?;
    }
    if !bits.leftover_is_clean() {
        return Err(CodecError::BadField("target_rat"));
    }

    // Column 6: flags. Cause presence is noted per record so column 7
    // knows how many entries to expect.
    let (body, payload) = next_group(payload, COL_FLAGS, "flags")?;
    let mut bits = BitReader::new(body);
    let mut causes_expected = 0usize;
    for flags in out.flags.iter_mut() {
        let f = bits.pull(3).ok_or(CodecError::BadField("flags"))? as u8;
        if f & FLAG_CAUSE != 0 {
            causes_expected += 1;
        } else if f & FLAG_FAILURE != 0 {
            // Same invariant the row codec enforces: a failure without
            // a cause code is not a valid record.
            return Err(CodecError::BadField("cause"));
        }
        *flags = f;
    }
    if !bits.leftover_is_clean() {
        return Err(CodecError::BadField("flags"));
    }

    // Column 7: causes — sparse in the payload, record-aligned in the
    // batch (0 where the flag is clear).
    let (body, payload) = next_group(payload, COL_CAUSE, "cause")?;
    let mut bytes = ByteReader::new(body);
    let mut causes_seen = 0usize;
    for (flags, cause) in out.flags.iter().zip(out.causes.iter_mut()) {
        if flags & FLAG_CAUSE != 0 {
            let v = bytes.varint().ok_or(CodecError::BadField("cause"))?;
            *cause = u16::try_from(v).map_err(|_| CodecError::BadField("cause"))?;
            causes_seen += 1;
        }
    }
    if causes_seen != causes_expected || !bytes.exhausted() {
        return Err(CodecError::BadField("cause"));
    }

    // Column 8: durations.
    let (body, payload) = next_group(payload, COL_DURATION, "duration")?;
    let mut bytes = ByteReader::new(body);
    for dur in out.durations.iter_mut() {
        let v = bytes.varint().ok_or(CodecError::BadField("duration"))?;
        *dur = u32::try_from(v).map_err(|_| CodecError::BadField("duration"))?;
    }
    if !bytes.exhausted() {
        return Err(CodecError::BadField("duration"));
    }

    // Column 9: message counts.
    let (body, payload) = next_group(payload, COL_MESSAGES, "messages")?;
    let mut bytes = ByteReader::new(body);
    for msgs in out.messages.iter_mut() {
        let v = bytes.varint().ok_or(CodecError::BadField("messages"))?;
        *msgs = u16::try_from(v).map_err(|_| CodecError::BadField("messages"))?;
    }
    if !bytes.exhausted() {
        return Err(CodecError::BadField("messages"));
    }

    // Trailing bytes after the last column mean the payload length lies.
    if !payload.is_empty() {
        return Err(CodecError::BadField("column_id"));
    }
    Ok(())
}
// telco-lint: deny-alloc(end)

/// Decode a payload into materialized rows: [`decode_columns`] plus a
/// transpose. Kept for row-oriented consumers and tests; the sweep scans
/// the [`ColumnBatch`] directly.
pub fn decode_rows(
    payload: &[u8],
    count: usize,
    out: &mut Vec<HoRecord>,
) -> Result<(), CodecError> {
    let mut batch = ColumnBatch::new();
    decode_columns(payload, count, &mut batch)?;
    batch.fill_rows(out);
    Ok(())
}

// telco-lint: deny-panic(end)

/// Number of column groups a valid payload carries (exported for tests
/// and diagnostics).
pub const COLUMN_COUNT: usize = COLUMNS;

#[cfg(test)]
mod tests {
    use super::*;
    use telco_signaling::causes::{CauseCode, PrincipalCause};

    fn rec(ts: u64, ue: u32, sector: u32, fail: bool) -> HoRecord {
        HoRecord {
            timestamp_ms: ts,
            ue: UeId(ue),
            source_sector: SectorId(sector),
            target_sector: SectorId(sector + 1),
            source_rat: Rat::G4,
            target_rat: if fail { Rat::G3 } else { Rat::G4 },
            outcome: if fail { HoOutcome::Failure } else { HoOutcome::Success },
            cause: fail.then(|| CauseCode::principal(PrincipalCause::TargetLoadTooHigh)),
            duration_ms: 42,
            srvcc: fail,
            messages: 12,
        }
    }

    fn roundtrip(records: &[HoRecord]) -> Vec<HoRecord> {
        let mut payload = Vec::new();
        ColumnEncoder::new().encode(records, &mut payload);
        let mut out = Vec::new();
        decode_rows(&payload, records.len(), &mut out).expect("clean payload decodes");
        out
    }

    #[test]
    fn empty_chunk_roundtrips() {
        assert!(roundtrip(&[]).is_empty());
    }

    #[test]
    fn typical_chunk_roundtrips_and_compresses() {
        let records: Vec<HoRecord> = (0..1000)
            .map(|i| rec(1_000_000 + i * 350, i as u32 % 40, i as u32 % 7, i % 9 == 0))
            .collect();
        assert_eq!(roundtrip(&records), records);
        let mut payload = Vec::new();
        ColumnEncoder::new().encode(&records, &mut payload);
        let row_bytes = records.len() * crate::io::RECORD_BYTES;
        assert!(
            payload.len() * 2 < row_bytes,
            "columnar payload {} not < half of row payload {row_bytes}",
            payload.len()
        );
    }

    #[test]
    fn encoder_reuse_is_byte_identical_to_fresh() {
        // The reusable encoder (dictionary arenas, in-place group
        // bodies) must emit the same bytes on every chunk, including
        // after its scratch has been warmed by unrelated chunks.
        let a: Vec<HoRecord> =
            (0..500).map(|i| rec(i * 13, i as u32 % 9, i as u32 % 30, i % 7 == 0)).collect();
        let b: Vec<HoRecord> =
            (0..321).map(|i| rec(i * 29, i as u32 % 4, i as u32 % 3, i % 5 == 0)).collect();
        let mut reused = ColumnEncoder::new();
        let mut first = Vec::new();
        reused.encode(&a, &mut first);
        let mut warmed = Vec::new();
        reused.encode(&b, &mut warmed);
        reused.encode(&a, &mut warmed);
        let mut fresh_b = Vec::new();
        ColumnEncoder::new().encode(&b, &mut fresh_b);
        fresh_b.extend_from_slice(&first);
        assert_eq!(warmed, fresh_b, "warm encoder drifted from a fresh one");
    }

    #[test]
    fn batch_rows_match_source_rows() {
        // Transpose in (extend_from_rows) and out (rows / row / fill_rows)
        // must be lossless in both directions.
        let records: Vec<HoRecord> =
            (0..777).map(|i| rec(i * 31, i as u32 % 13, i as u32 % 11, i % 6 == 0)).collect();
        let mut batch = ColumnBatch::new();
        batch.extend_from_rows(&records);
        assert_eq!(batch.len(), records.len());
        let back: Vec<HoRecord> = batch.rows().collect();
        assert_eq!(back, records);
        for (i, r) in records.iter().enumerate() {
            assert_eq!(batch.row(i).as_ref(), Some(r));
        }
        assert_eq!(batch.row(records.len()), None);
        let mut filled = Vec::new();
        batch.fill_rows(&mut filled);
        assert_eq!(filled, records);
    }

    #[test]
    fn batch_reuse_across_chunks() {
        // A batch decoded into repeatedly must hold exactly the latest
        // chunk, with no leakage from a previous (larger) one.
        let big: Vec<HoRecord> =
            (0..300).map(|i| rec(i * 7, i as u32, i as u32 % 8, i % 3 == 0)).collect();
        let small: Vec<HoRecord> = (0..5).map(|i| rec(i, i as u32, 2, false)).collect();
        let mut enc = ColumnEncoder::new();
        let mut batch = ColumnBatch::new();
        for chunk in [&big[..], &small[..], &big[..]] {
            let mut payload = Vec::new();
            enc.encode(chunk, &mut payload);
            decode_columns(&payload, chunk.len(), &mut batch).expect("clean payload decodes");
            assert_eq!(batch.rows().collect::<Vec<_>>(), chunk);
        }
    }

    #[test]
    fn durations_roundtrip_across_varint_widths() {
        // 127 and 128 straddle the first varint byte; u32::MAX takes five.
        let durations = [0u32, 127, 128, u32::MAX];
        let records: Vec<HoRecord> = durations
            .iter()
            .enumerate()
            .map(|(i, &d)| HoRecord { duration_ms: d, ..rec(i as u64, i as u32, 1, false) })
            .collect();
        assert_eq!(roundtrip(&records), records);
        let mut payload = Vec::new();
        ColumnEncoder::new().encode(&records, &mut payload);
        let mut batch = ColumnBatch::new();
        decode_columns(&payload, records.len(), &mut batch).expect("clean payload decodes");
        assert_eq!(batch.durations(), &durations);
    }

    #[test]
    fn a_duration_past_u32_is_refused() {
        let records = vec![rec(1, 1, 1, false)];
        let mut payload = Vec::new();
        ColumnEncoder::new().encode(&records, &mut payload);
        // Columns 8 and 9 close the payload: rebuild column 8 with a
        // varint of 2^32 (five bytes) in place of the one-byte 42.
        let at = payload.len() - (5 + 1) - (5 + 1);
        assert_eq!(payload[at], COL_DURATION);
        let mut forged = payload[..at].to_vec();
        forged.push(COL_DURATION);
        forged.extend_from_slice(&5u32.to_be_bytes());
        forged.extend_from_slice(&[0x80, 0x80, 0x80, 0x80, 0x10]);
        forged.extend_from_slice(&payload[at + 6..]);
        let mut out = ColumnBatch::new();
        assert_eq!(
            decode_columns(&forged, 1, &mut out).unwrap_err(),
            CodecError::BadField("duration")
        );
    }

    #[test]
    fn timestamp_regressions_roundtrip() {
        // Unsorted timestamps, including u64 extremes: the wrapping
        // zigzag deltas must be lossless.
        let ts = [5u64, 3, 10, u64::MAX, 0, u64::MAX / 2, 7];
        let records: Vec<HoRecord> =
            ts.iter().enumerate().map(|(i, &t)| rec(t, i as u32, 1, false)).collect();
        assert_eq!(roundtrip(&records), records);
    }

    #[test]
    fn single_sector_chunk_uses_zero_width_indexes() {
        // All records share one sector pair → dictionary of 1, no index
        // bits at all.
        let records: Vec<HoRecord> = (0..64).map(|i| rec(i * 10, i as u32, 9, false)).collect();
        let mut payload = Vec::new();
        ColumnEncoder::new().encode(&records, &mut payload);
        assert_eq!(roundtrip(&records), records);
        // Row encoding of the two sector columns alone: 8 bytes/record.
        assert!(payload.len() < records.len() * 20);
    }

    #[test]
    fn truncated_column_reports_its_name() {
        let records: Vec<HoRecord> = (0..10).map(|i| rec(i, i as u32, i as u32, false)).collect();
        let mut payload = Vec::new();
        ColumnEncoder::new().encode(&records, &mut payload);
        let mut out = ColumnBatch::new();
        // Cutting anywhere must produce a typed error, never a panic.
        for cut in 0..payload.len() {
            let err = decode_columns(&payload[..cut], records.len(), &mut out)
                .expect_err("truncated payload must not decode");
            assert!(matches!(err, CodecError::BadField(_)), "cut {cut}: {err:?}");
        }
    }

    #[test]
    fn bit_flips_never_panic() {
        let records: Vec<HoRecord> =
            (0..50).map(|i| rec(i * 97, i as u32, i as u32 % 5, i % 4 == 0)).collect();
        let mut payload = Vec::new();
        ColumnEncoder::new().encode(&records, &mut payload);
        let mut out = ColumnBatch::new();
        for pos in 0..payload.len() {
            for bit in 0..8 {
                let mut bad = payload.clone();
                bad[pos] ^= 1 << bit;
                // May decode to different records (CRC catches this a
                // layer up) or error — the property is no panic and no
                // giant allocation.
                let _ = decode_columns(&bad, records.len(), &mut out);
            }
        }
    }

    #[test]
    fn dictionary_overflow_rejected() {
        // A dictionary claiming more entries than the chunk has records
        // is corrupt by construction and must not allocate.
        let records = vec![rec(1, 1, 1, false)];
        let mut payload = Vec::new();
        ColumnEncoder::new().encode(&records, &mut payload);
        // Column 2 starts after columns 0 and 1; find it by scanning
        // group frames.
        let mut pos = 0usize;
        for _ in 0..2 {
            let len = u32::from_be_bytes([
                payload[pos + 1],
                payload[pos + 2],
                payload[pos + 3],
                payload[pos + 4],
            ]);
            pos += 5 + len as usize;
        }
        assert_eq!(payload[pos], COL_SRC_SECTOR);
        // First body byte is the dict_len varint (1) — forge a huge one.
        payload[pos + 5] = 0xFF;
        payload.insert(pos + 6, 0xFF);
        payload.insert(pos + 7, 0x7F);
        let mut out = ColumnBatch::new();
        let err = decode_columns(&payload, 1, &mut out).unwrap_err();
        assert_eq!(err, CodecError::BadField("source_sector"));
    }

    #[test]
    fn varint_overflow_rejected() {
        let mut bytes = ByteReader::new(&[0xFF; 11]);
        assert_eq!(bytes.varint(), None);
        // Exactly 10 bytes with a high final byte overflows u64 too.
        let mut bytes =
            ByteReader::new(&[0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F]);
        assert_eq!(bytes.varint(), None);
    }

    #[test]
    fn zigzag_is_a_bijection_on_extremes() {
        for v in [0i64, 1, -1, i64::MAX, i64::MIN, 12345, -98765] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }
}
