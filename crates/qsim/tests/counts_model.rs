//! `Counts` against a `BTreeMap` model.
//!
//! Every constructor and operation of the histogram is replayed on an
//! ordered map with the zero counts dropped, and the two must agree on
//! every observable: lookups, totals, ascending iteration with no zero
//! counts, rendering, the dense vector and both distances. Inputs repeat
//! keys and carry zero counts, at widths 0–16 and at 63–64, where the
//! key mask is all or nearly all of a `u64`.

use proptest::prelude::*;
use qsim::{bitstring, Counts};
use std::collections::BTreeMap;

type Model = BTreeMap<u64, u64>;

/// A width and `(key, count)` pairs that fit it. Half the keys come from
/// a pool of eight, so most lists repeat keys; counts include zero.
fn arb_hist() -> impl Strategy<Value = (usize, Vec<(u64, u64)>)> {
    (
        prop_oneof![0usize..17, 63usize..65],
        proptest::collection::vec((any::<u64>(), 0u64..5), 0..48),
    )
        .prop_map(|(width, raw)| {
            let pairs = raw
                .into_iter()
                .map(|(r, n)| {
                    let key = if r % 2 == 0 { (r >> 1) % 8 } else { r >> 1 };
                    (key & mask(width), n)
                })
                .collect();
            (width, pairs)
        })
}

fn mask(width: usize) -> u64 {
    if width == 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    }
}

fn model_of(pairs: &[(u64, u64)]) -> Model {
    let mut m = Model::new();
    for &(k, n) in pairs {
        if n > 0 {
            *m.entry(k).or_insert(0) += n;
        }
    }
    m
}

fn model_sum(a: &Model, b: &Model) -> Model {
    let mut m = a.clone();
    for (&k, &n) in b {
        *m.entry(k).or_insert(0) += n;
    }
    m
}

/// `½ Σ |p − q|` and `√(1 − Σ √(p·q))` over the union of both supports.
fn model_distances(a: &Model, b: &Model) -> (f64, f64) {
    let (ta, tb) = (a.values().sum::<u64>(), b.values().sum::<u64>());
    let p = |m: &Model, t: u64, k: u64| {
        if t == 0 {
            0.0
        } else {
            m.get(&k).copied().unwrap_or(0) as f64 / t as f64
        }
    };
    let keys: std::collections::BTreeSet<u64> = a.keys().chain(b.keys()).copied().collect();
    let mut tvd = 0.0;
    let mut bc = 0.0;
    for k in keys {
        tvd += (p(a, ta, k) - p(b, tb, k)).abs();
        bc += (p(a, ta, k) * p(b, tb, k)).sqrt();
    }
    (0.5 * tvd, (1.0 - f64::min(bc, 1.0)).sqrt())
}

/// Checks every observable of `c` against `model`.
fn check(c: &Counts, model: &Model, width: usize) {
    assert_eq!(c.num_bits(), width);
    let total: u64 = model.values().sum();
    assert_eq!(c.total(), total);
    assert_eq!(c.distinct(), model.len());
    assert_eq!(c.is_empty(), model.is_empty());
    for (&k, &n) in model {
        assert_eq!(c.get(k), n, "key {k:#x}");
        for probe in [
            k.wrapping_add(1) & mask(width),
            k.wrapping_sub(1) & mask(width),
        ] {
            assert_eq!(c.get(probe), model.get(&probe).copied().unwrap_or(0));
        }
    }
    let listed: Vec<(u64, u64)> = c.iter().collect();
    let expected: Vec<(u64, u64)> = model.iter().map(|(&k, &n)| (k, n)).collect();
    assert_eq!(
        listed, expected,
        "iter() must be the model's ascending order"
    );
    assert!(listed.iter().all(|&(_, n)| n > 0), "zero count in iter()");
    let rendered: Vec<(String, u64)> = model
        .iter()
        .map(|(&k, &n)| (bitstring(k, width), n))
        .collect();
    assert_eq!(c.to_sorted_vec(), rendered);
    let best = model
        .iter()
        .max_by(|(ka, na), (kb, nb)| na.cmp(nb).then(kb.cmp(ka)))
        .map(|(&k, _)| k);
    assert_eq!(c.most_frequent(), best);
    if width <= 12 {
        let mut dense = vec![0.0; 1 << width];
        for (&k, &n) in model {
            dense[k as usize] = n as f64 / total as f64;
        }
        assert_eq!(c.probabilities_vec(), dense);
    }
}

fn check_distances(a: &Counts, b: &Counts, ma: &Model, mb: &Model) {
    let (tvd, hellinger) = model_distances(ma, mb);
    assert!((a.tvd(b) - tvd).abs() < 1e-12, "tvd {} vs {tvd}", a.tvd(b));
    assert!(
        (a.hellinger(b) - hellinger).abs() < 1e-12,
        "hellinger {} vs {hellinger}",
        a.hellinger(b)
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn from_pairs_and_record_match_the_model((width, pairs) in arb_hist()) {
        let model = model_of(&pairs);
        check(&Counts::from_pairs(width, pairs.iter().copied()), &model, width);
        let mut recorded = Counts::new(width);
        for &(k, n) in &pairs {
            recorded.record(k, n);
        }
        check(&recorded, &model, width);
        let mut ascending = pairs.clone();
        ascending.sort_unstable();
        let mut in_order = Counts::new(width);
        for (k, n) in ascending {
            in_order.record(k, n);
        }
        check(&in_order, &model, width);
    }

    #[test]
    fn merge_and_absorb_match_the_model(
        (width, pairs) in arb_hist(),
        split in 0usize..48,
    ) {
        let (left, right) = pairs.split_at(split.min(pairs.len()));
        let (ma, mb) = (model_of(left), model_of(right));
        let sum = model_sum(&ma, &mb);
        let a = Counts::from_pairs(width, left.iter().copied());
        let b = Counts::from_pairs(width, right.iter().copied());

        let mut merged = a.clone();
        merged.merge(&b);
        check(&merged, &sum, width);
        let mut a_into_b = b.clone();
        a_into_b.absorb(a.clone());
        check(&a_into_b, &sum, width);
        let mut b_into_a = a.clone();
        b_into_a.absorb(b.clone());
        check(&b_into_a, &sum, width);
        prop_assert_eq!(&a_into_b, &b_into_a);

        let mut into_empty = Counts::new(width);
        into_empty.absorb(a.clone());
        check(&into_empty, &ma, width);
        let mut empty_into = a.clone();
        empty_into.absorb(Counts::new(width));
        empty_into.merge(&Counts::new(width));
        check(&empty_into, &ma, width);

        check_distances(&a, &b, &ma, &mb);
        check_distances(&b, &a, &mb, &ma);
        check_distances(&a, &merged, &ma, &sum);
        check_distances(&a, &Counts::new(width), &ma, &Model::new());
    }

    #[test]
    fn filters_and_marginals_match_the_model(
        (width, pairs) in arb_hist(),
        picks in proptest::collection::vec(any::<u64>(), 0..9),
        bit in any::<u64>(),
        value in any::<bool>(),
    ) {
        let model = model_of(&pairs);
        let c = Counts::from_pairs(width, pairs.iter().copied());

        let keep = |k: u64| k % 3 != 1;
        let kept: Model = model.iter().filter(|(&k, _)| keep(k)).map(|(&k, &n)| (k, n)).collect();
        check(&c.filter(keep), &kept, width);

        if width > 0 {
            let bit = (bit % width as u64) as usize;
            let selected: Model = model
                .iter()
                .filter(|(&k, _)| ((k >> bit) & 1 == 1) == value)
                .map(|(&k, &n)| (k, n))
                .collect();
            check(&c.filter_bit(bit, value), &selected, width);

            // Bits drawn with repeats and in any order.
            let bits: Vec<usize> = picks.iter().map(|p| (p % width as u64) as usize).collect();
            let mut projected = Model::new();
            for (&k, &n) in &model {
                let key = bits
                    .iter()
                    .enumerate()
                    .fold(0u64, |acc, (j, &b)| acc | (((k >> b) & 1) << j));
                *projected.entry(key).or_insert(0) += n;
            }
            check(&c.marginal(&bits), &projected, bits.len());
        }
        check(&c.marginal(&[]), &model_of(&[(0, model.values().sum())]), 0);
    }
}
