//! `CountEcdf` against `Ecdf` over the expanded sample: `len`, `quantile`,
//! `median` and `eval` must agree bit for bit, for samples of one value or
//! many, narrow or spanning the whole `u32` range, at p = 0, p = 1 and
//! anywhere between.

use proptest::prelude::*;

use telco_stats::ecdf::{CountEcdf, Ecdf};

/// Ascending `(value, count)` pairs: values from a narrow range (close
/// neighbours) or the full `u32` range, counts from one to a few dozen.
fn arb_pairs() -> impl Strategy<Value = Vec<(u32, u64)>> {
    (proptest::collection::vec((0u32..=u32::MAX, 0u32..300, 1u64..40), 1..60), proptest::bool::ANY)
        .prop_map(|(raw, narrow)| {
            let mut pairs: Vec<(u32, u64)> = raw
                .into_iter()
                .map(|(wide, close, count)| (if narrow { close } else { wide }, count))
                .collect();
            pairs.sort_by_key(|&(v, _)| v);
            pairs.dedup_by_key(|&mut (v, _)| v);
            pairs
        })
}

fn expand(pairs: &[(u32, u64)]) -> Vec<f64> {
    pairs.iter().flat_map(|&(v, c)| vec![f64::from(v); c as usize]).collect()
}

proptest! {
    #[test]
    fn count_ecdf_equals_the_expanded_ecdf(
        pairs in arb_pairs(),
        ps in proptest::collection::vec(0.0f64..=1.0, 0..8),
        xs in proptest::collection::vec(-1.0f64..5.0e9, 0..8),
    ) {
        let counted = CountEcdf::from_counts(pairs.iter().copied());
        let expanded = Ecdf::new(&expand(&pairs));
        prop_assert_eq!(counted.len(), expanded.len());
        prop_assert_eq!(counted.median().to_bits(), expanded.median().to_bits());
        for p in [0.0, 1.0, 0.5, 0.95].into_iter().chain(ps) {
            prop_assert_eq!(counted.quantile(p).to_bits(), expanded.quantile(p).to_bits());
        }
        let near_values = pairs.iter().flat_map(|&(v, _)| {
            let v = f64::from(v);
            [v, v - 0.5, v + 0.5]
        });
        for x in near_values.chain(xs).chain([f64::NAN, f64::INFINITY, f64::NEG_INFINITY]) {
            prop_assert_eq!(counted.eval(x).to_bits(), expanded.eval(x).to_bits());
        }
        prop_assert_eq!(counted.min().to_bits(), expanded.min().to_bits());
        prop_assert_eq!(counted.max().to_bits(), expanded.max().to_bits());
    }

    #[test]
    fn one_value_samples_agree(value in 0u32..=u32::MAX, count in 1u64..500, p in 0.0f64..=1.0) {
        let counted = CountEcdf::from_counts([(value, count)]);
        let expanded = Ecdf::new(&expand(&[(value, count)]));
        prop_assert_eq!(counted.len(), expanded.len());
        for q in [0.0, p, 0.5, 1.0] {
            prop_assert_eq!(counted.quantile(q).to_bits(), expanded.quantile(q).to_bits());
        }
        let v = f64::from(value);
        for x in [v - 1.0, v, v + 1.0] {
            prop_assert_eq!(counted.eval(x).to_bits(), expanded.eval(x).to_bits());
        }
    }
}
