//! Property-based tests of the trace codec: arbitrary record vectors
//! round-trip losslessly through the chunked columnar store at any
//! chunking, and arbitrary corruption — truncation anywhere, bit-flips
//! anywhere — yields typed `CodecError`s or skip-and-report recovery,
//! never a panic.
//!
//! Regressions found by earlier fuzzing are pinned as plain `#[test]`s at
//! the bottom: the vendored proptest stand-in derives its cases
//! deterministically per seed, so committed regressions live in code, not
//! seed files.

use proptest::prelude::*;

use telco_devices::population::UeId;
use telco_signaling::causes::CauseCode;
use telco_topology::elements::SectorId;
use telco_topology::rat::Rat;
use telco_trace::dataset::SignalingDataset;
use telco_trace::io::CodecError;
use telco_trace::record::{HoOutcome, HoRecord};
use telco_trace::store::{TraceReader, TraceWriter};

fn arb_rat() -> impl Strategy<Value = Rat> {
    prop_oneof![Just(Rat::G2), Just(Rat::G3), Just(Rat::G4), Just(Rat::G5Nr)]
}

fn arb_record() -> impl Strategy<Value = HoRecord> {
    (
        0u64..(28 * 86_400_000),
        0u32..1_000_000,
        0u32..500_000,
        0u32..500_000,
        arb_rat(),
        arb_rat(),
        proptest::bool::ANY,
        1u16..1050,
        prop_oneof![0u32..20_000, 0u32..=u32::MAX],
        proptest::bool::ANY,
        0u16..40,
    )
        .prop_map(
            |(ts, ue, src, tgt, source_rat, target_rat, failed, cause, dur, srvcc, msgs)| {
                HoRecord {
                    timestamp_ms: ts,
                    ue: UeId(ue),
                    source_sector: SectorId(src),
                    target_sector: SectorId(tgt),
                    source_rat,
                    target_rat,
                    outcome: if failed { HoOutcome::Failure } else { HoOutcome::Success },
                    cause: failed.then_some(CauseCode(cause)),
                    duration_ms: dur,
                    srvcc,
                    messages: msgs,
                }
            },
        )
}

/// Encode into the chunked store, splitting the records over chunks of
/// `chunk_len` so frame boundaries land in arbitrary places.
fn encode_stream(dataset: &SignalingDataset, chunk_len: usize) -> Vec<u8> {
    let mut w = TraceWriter::new(Vec::new(), dataset.days).unwrap();
    for chunk in dataset.records().chunks(chunk_len.max(1)) {
        w.write_chunk(chunk).unwrap();
    }
    w.finish().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::default())]

    #[test]
    fn codec_roundtrips_any_chunking(
        records in proptest::collection::vec(arb_record(), 0..200),
        chunk_len in 1usize..64,
    ) {
        let dataset = SignalingDataset::from_records(28, records);
        let bytes = encode_stream(&dataset, chunk_len);
        let mut reader = TraceReader::new(&bytes[..]).expect("valid header");
        let decoded = reader.read_to_dataset_strict().expect("valid frames decode");
        prop_assert_eq!(&dataset, &decoded);
        prop_assert!(reader.trailer_seen());
        prop_assert!(reader.issues().is_empty());
    }

    #[test]
    fn codec_bit_flips_never_panic_and_are_detected(
        records in proptest::collection::vec(arb_record(), 1..80),
        chunk_len in 1usize..32,
        byte_frac in 0.0f64..1.0,
        bit in 0u8..8,
    ) {
        let dataset = SignalingDataset::from_records(28, records);
        let clean = encode_stream(&dataset, chunk_len);
        let mut raw = clean.clone();
        let pos = ((byte_frac * raw.len() as f64) as usize).min(raw.len() - 1);
        raw[pos] ^= 1 << bit;
        match TraceReader::new(&raw[..]) {
            Err(_) => {} // header flip: typed error at open
            Ok(mut reader) => {
                let recovered = reader.read_to_dataset();
                // Every byte is covered by a payload CRC, the
                // length-checked frame header, or the sealed trailer —
                // a flip anywhere must be *detected*.
                prop_assert!(
                    !reader.issues().is_empty(),
                    "flip at byte {pos} bit {bit} went undetected"
                );
                // Recovery only ever loses whole chunks.
                prop_assert!(recovered.len() <= dataset.len());
            }
        }
    }

    #[test]
    fn codec_truncation_never_panics(
        records in proptest::collection::vec(arb_record(), 0..80),
        chunk_len in 1usize..32,
        cut_frac in 0.0f64..1.0,
    ) {
        let dataset = SignalingDataset::from_records(28, records);
        let clean = encode_stream(&dataset, chunk_len);
        let cut = (cut_frac * clean.len() as f64) as usize;
        if cut >= clean.len() {
            return Ok(());
        }
        match TraceReader::new(&clean[..cut]) {
            Err(e) => prop_assert!(matches!(e, CodecError::Truncated | CodecError::BadMagic)),
            Ok(mut reader) => {
                let recovered = reader.read_to_dataset();
                prop_assert!(!reader.issues().is_empty(), "silent truncation at {cut}");
                prop_assert!(recovered.len() <= dataset.len());
                prop_assert!(!reader.trailer_seen());
            }
        }
    }
}

// ---- committed regressions -------------------------------------------------
// Each was a real failure mode found while fuzzing the codecs; kept as
// plain tests so they run on every seed.

/// A chunk whose count field is flipped to an absurd value must be
/// treated as corruption and resynced past, not allocated.
#[test]
fn regression_count_flip_resyncs() {
    let dataset = SignalingDataset::from_records(
        1,
        vec![HoRecord {
            timestamp_ms: 1,
            ue: UeId(1),
            source_sector: SectorId(1),
            target_sector: SectorId(2),
            source_rat: Rat::G4,
            target_rat: Rat::G4,
            outcome: HoOutcome::Success,
            cause: None,
            duration_ms: 10,
            srvcc: false,
            messages: 8,
        }],
    );
    let mut raw = encode_stream(&dataset, 1);
    // Chunk count field sits after the 10-byte header + 4 magic + 4 seq.
    for b in &mut raw[18..22] {
        *b = 0xFF;
    }
    let mut reader = TraceReader::new(&raw[..]).unwrap();
    let recovered = reader.read_to_dataset();
    assert!(recovered.is_empty());
    assert!(reader.issues().iter().any(|i| i.error == CodecError::BadField("record_count")));
}

/// Truncating exactly at a frame boundary (trailer dropped, all chunks
/// intact) must still be reported: the trailer is the tamper seal.
#[test]
fn regression_boundary_truncation_detected() {
    let records: Vec<HoRecord> = (0..10)
        .map(|i| HoRecord {
            timestamp_ms: i,
            ue: UeId(i as u32),
            source_sector: SectorId(1),
            target_sector: SectorId(2),
            source_rat: Rat::G4,
            target_rat: Rat::G4,
            outcome: HoOutcome::Success,
            cause: None,
            duration_ms: 5,
            srvcc: false,
            messages: 4,
        })
        .collect();
    let dataset = SignalingDataset::from_records(1, records);
    let raw = encode_stream(&dataset, 10);
    let cut = &raw[..raw.len() - 20]; // drop exactly the trailer
    let mut reader = TraceReader::new(cut).unwrap();
    let recovered = reader.read_to_dataset();
    assert_eq!(recovered.len(), 10, "intact chunks still decode");
    assert_eq!(reader.issues().len(), 1);
    assert_eq!(reader.issues()[0].error, CodecError::MissingTrailer);
}

fn plain_record(ts: u64) -> HoRecord {
    HoRecord {
        timestamp_ms: ts,
        ue: UeId(7),
        source_sector: SectorId(40),
        target_sector: SectorId(41),
        source_rat: Rat::G4,
        target_rat: Rat::G4,
        outcome: HoOutcome::Success,
        cause: None,
        duration_ms: 12,
        srvcc: false,
        messages: 6,
    }
}

/// Timestamps may regress *within* a chunk (merge tails, clock skew): the
/// delta column uses wrapping signed deltas, so non-monotone and
/// u64-extreme values must survive bit-exactly. An early draft used
/// saturating deltas and silently flattened regressions.
#[test]
fn regression_timestamp_regression_within_chunk_roundtrips() {
    let ts = [5u64, 3, 10, u64::MAX, 0, u64::MAX / 2, 7];
    let records: Vec<HoRecord> = ts.iter().map(|&t| plain_record(t)).collect();
    let mut w = TraceWriter::new(Vec::new(), 1).unwrap();
    w.write_chunk(&records).unwrap();
    let bytes = w.finish().unwrap();
    let mut reader = TraceReader::new(&bytes[..]).unwrap();
    let mut out = Vec::new();
    assert!(reader.next_chunk_into(&mut out).expect("one chunk").is_ok());
    assert_eq!(out, records, "timestamp order or extremes drifted");
    assert!(reader.next_chunk_into(&mut out).is_none());
    assert!(reader.trailer_seen());
}

/// A corrupted dictionary length claiming more entries than the chunk has
/// records must be rejected as a typed decode error (and the chunk
/// skipped), never trusted as an allocation size. The payload CRC is
/// recomputed so the corruption reaches the column decoder itself.
#[test]
fn regression_dictionary_overflow_rejected() {
    let mut raw = {
        let mut w = TraceWriter::new(Vec::new(), 1).unwrap();
        w.write_chunk(&[plain_record(1)]).unwrap();
        w.finish().unwrap()
    };
    // Layout: 10-byte stream header, then the chunk frame:
    // magic 10..14 | seq 14..18 | count 18..22 | payload_len 22..26 |
    // crc 26..30 | payload.
    let payload_len = u32::from_be_bytes(raw[22..26].try_into().unwrap()) as usize;
    let (payload_start, payload_end) = (30, 30 + payload_len);
    // Walk the column groups (u8 id | u32 len BE | body) to the source
    // sector dictionary (column id 2).
    let mut p = payload_start;
    while raw[p] != 2 {
        let len = u32::from_be_bytes(raw[p + 1..p + 5].try_into().unwrap()) as usize;
        p += 5 + len;
    }
    // Body starts with the dict-length varint; one record → one byte.
    assert_eq!(raw[p + 5], 1, "expected a single-entry dictionary");
    raw[p + 5] = 0x7F; // dict_len = 127 > record count of 1
    let crc = telco_trace::crc32::crc32(&raw[payload_start..payload_end]);
    raw[26..30].copy_from_slice(&crc.to_be_bytes());

    let mut reader = TraceReader::new(&raw[..]).unwrap();
    let recovered = reader.read_to_dataset();
    assert!(recovered.is_empty(), "overflowing dictionary chunk must be skipped");
    assert!(
        reader.issues().iter().any(|i| matches!(i.error, CodecError::BadField(_))),
        "dictionary overflow not reported as a typed field error: {:?}",
        reader.issues()
    );
}

/// Empty chunks produce empty columns everywhere (zero-length deltas,
/// zero-entry dictionaries, zero-width bit-packs); they must frame and
/// decode cleanly when interleaved with data chunks.
#[test]
fn regression_empty_chunks_roundtrip() {
    let mut w = TraceWriter::new(Vec::new(), 1).unwrap();
    w.write_chunk(&[]).unwrap();
    w.write_chunk(&[plain_record(10), plain_record(20)]).unwrap();
    w.write_chunk(&[]).unwrap();
    let bytes = w.finish().unwrap();
    let mut reader = TraceReader::new(&bytes[..]).unwrap();
    let decoded = reader.read_to_dataset_strict().expect("empty columns decode");
    assert_eq!(decoded.len(), 2);
    assert!(reader.trailer_seen());
    assert!(reader.issues().is_empty());
}
