//! Property-based tests over the library's core invariants: the trace
//! codec, identity check digits, the statistics kernels, and the handover
//! state machine.

use proptest::prelude::*;

use telco_lens::devices::ids::{luhn_is_valid, Imei, Tac};
use telco_lens::devices::population::UeId;
use telco_lens::signaling::causes::{CauseCode, PrincipalCause};
use telco_lens::signaling::messages::HoType;
use telco_lens::signaling::state_machine::execute;
use telco_lens::stats::corr::pearson;
use telco_lens::stats::desc::{percentile, Summary};
use telco_lens::stats::ecdf::Ecdf;
use telco_lens::topology::elements::SectorId;
use telco_lens::topology::rat::Rat;
use telco_lens::trace::dataset::SignalingDataset;
use telco_lens::trace::record::{HoOutcome, HoRecord};
use telco_lens::trace::store::{TraceReader, TraceWriter};

/// The dataset as a sealed trace stream.
fn encode(dataset: &SignalingDataset) -> Vec<u8> {
    let mut writer = TraceWriter::new(Vec::new(), dataset.days).expect("trace header");
    writer.write_dataset(dataset).expect("trace encode");
    writer.finish().expect("trace trailer")
}

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn trace_codec_roundtrips(records in proptest::collection::vec(arb_record(), 0..200)) {
        let dataset = SignalingDataset::from_records(28, records);
        let bytes = encode(&dataset);
        let mut reader = TraceReader::new(&bytes[..]).expect("valid header");
        let decoded = reader.read_to_dataset_strict().expect("valid frames decode");
        prop_assert_eq!(encode(&decoded), bytes);
        prop_assert_eq!(dataset, decoded);
    }

    #[test]
    fn imei_check_digits_always_validate(tac in 0u32..=99_999_999, serial in 0u32..=999_999) {
        let imei = Imei::new(Tac::new(tac), serial);
        let digits: Vec<u8> = imei.to_string().bytes().map(|b| b - b'0').collect();
        prop_assert_eq!(digits.len(), 15);
        prop_assert!(luhn_is_valid(&digits));
    }

    #[test]
    fn percentiles_are_bounded_and_monotone(
        mut xs in proptest::collection::vec(-1e6f64..1e6, 1..200),
        p1 in 0.0f64..100.0,
        p2 in 0.0f64..100.0,
    ) {
        let (lo, hi) = (p1.min(p2), p1.max(p2));
        let v_lo = percentile(&xs, lo).unwrap();
        let v_hi = percentile(&xs, hi).unwrap();
        prop_assert!(v_lo <= v_hi, "percentiles must be monotone");
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        prop_assert!(v_lo >= xs[0] && v_hi <= *xs.last().unwrap());
    }

    #[test]
    fn summary_invariants(xs in proptest::collection::vec(-1e9f64..1e9, 1..300)) {
        let s = Summary::of(&xs).unwrap();
        prop_assert!(s.min <= s.q1 && s.q1 <= s.median);
        prop_assert!(s.median <= s.q3 && s.q3 <= s.max);
        prop_assert!(s.mean >= s.min && s.mean <= s.max);
        prop_assert_eq!(s.n, xs.len());
    }

    #[test]
    fn ecdf_is_a_cdf(xs in proptest::collection::vec(-1e6f64..1e6, 1..200), q in -1e6f64..1e6) {
        let e = Ecdf::new(&xs);
        let v = e.eval(q);
        prop_assert!((0.0..=1.0).contains(&v));
        prop_assert_eq!(e.eval(e.max()), 1.0);
        prop_assert!(e.eval(e.min() - 1.0) == 0.0);
        // Monotonicity around q.
        prop_assert!(e.eval(q - 1.0) <= v && v <= e.eval(q + 1.0));
    }

    #[test]
    fn pearson_is_symmetric_and_bounded(
        pairs in proptest::collection::vec((-1e3f64..1e3, -1e3f64..1e3), 3..100)
    ) {
        let x: Vec<f64> = pairs.iter().map(|p| p.0).collect();
        let y: Vec<f64> = pairs.iter().map(|p| p.1).collect();
        if let Some(r) = pearson(&x, &y) {
            prop_assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&r));
            prop_assert!((r - pearson(&y, &x).unwrap()).abs() < 1e-12);
        }
    }

    #[test]
    fn state_machine_always_terminates_cleanly(
        ho_type_idx in 0usize..3,
        srvcc in proptest::bool::ANY,
        fail_cause in proptest::option::of(1u16..1000),
        duration in 0.0f64..20_000.0,
    ) {
        let ho_type = HoType::ALL[ho_type_idx];
        let srvcc = srvcc && ho_type.is_vertical();
        let cause = fail_cause.map(CauseCode);
        let run = execute(ho_type, srvcc, cause, duration);
        prop_assert_eq!(run.success, cause.is_none());
        prop_assert!(!run.log.is_empty());
        // Timestamps within [0, duration], nondecreasing.
        prop_assert!(run.log.windows(2).all(|w| w[0].at_ms <= w[1].at_ms));
        prop_assert!(run.log.last().unwrap().at_ms <= duration + 1e-6);
        // Failures always release the UE context.
        if cause.is_some() {
            prop_assert_eq!(
                run.log.last().unwrap().message,
                telco_lens::signaling::messages::Message::UeContextRelease
            );
        }
    }

    #[test]
    fn principal_cause_roundtrip(n in 1u8..=8) {
        let cause = PrincipalCause::ALL[(n - 1) as usize];
        prop_assert_eq!(cause.number(), n);
        prop_assert_eq!(CauseCode::principal(cause).as_principal(), Some(cause));
    }
}
