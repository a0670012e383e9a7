//! Measurement outcome histograms.
//!
//! [`Counts`] maps classical-register values to shot counts. Bit `i` of a
//! key is classical bit `i` (LSB convention); string rendering is
//! MSB-first (`c_{n-1}…c_0`), matching qiskit. The paper's tables print
//! custom bit orders (`q1q2`, `q0q1q2`), which the experiment harness
//! produces via [`Counts::bitstring_custom`].
//!
//! A histogram is one `(key, count)` list in strictly ascending key order
//! with no zero counts. Every constructor and operation keeps that
//! invariant, so equal histograms are equal field by field, iterate in
//! the same order and give bit-identical float reductions. Lookups are
//! binary searches; merges, distances and filters are linear scans.
//! Shot loops tally through a crate-private buffer folded in by sort and
//! merge, and bulk input goes through [`Counts::from_pairs`], which sorts
//! once; [`Counts::record`] is O(1) only in ascending key order.
//!
//! The post-selection filter at the heart of the paper's NISQ use case is
//! [`Counts::filter_bit`]: drop every shot whose assertion ancilla
//! flagged an error.

use std::cmp::Ordering;
use std::fmt;

/// Histogram of classical outcomes over a fixed number of bits.
///
/// # Example
///
/// ```
/// use qsim::Counts;
/// let mut counts = Counts::new(2);
/// counts.record(0b01, 3);
/// counts.record(0b10, 1);
/// assert_eq!(counts.total(), 4);
/// assert_eq!(counts.get_str("01").unwrap(), 3);
/// assert!((counts.probability(0b01) - 0.75).abs() < 1e-12);
/// ```
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Counts {
    num_bits: usize,
    /// Strictly ascending keys, no zero counts.
    entries: Vec<(u64, u64)>,
}

impl Counts {
    /// Creates an empty histogram over `num_bits` classical bits.
    ///
    /// # Panics
    ///
    /// Panics if `num_bits > 64` (keys are packed into `u64`).
    pub fn new(num_bits: usize) -> Self {
        assert!(num_bits <= 64, "counts keys are limited to 64 bits");
        Counts {
            num_bits,
            entries: Vec::new(),
        }
    }

    /// Creates a histogram from `(key, count)` pairs in any order,
    /// summing repeated keys: one sort, O(n log n) in the pairs.
    ///
    /// # Panics
    ///
    /// Panics if `num_bits > 64` or any key uses bits above `num_bits`.
    pub fn from_pairs(num_bits: usize, pairs: impl IntoIterator<Item = (u64, u64)>) -> Self {
        let mut c = Counts::new(num_bits);
        let mut entries: Vec<(u64, u64)> = pairs
            .into_iter()
            .inspect(|&(k, _)| c.check_key(k))
            .filter(|&(_, n)| n > 0)
            .collect();
        entries.sort_unstable_by_key(|&(k, _)| k);
        entries.dedup_by(|next, kept| {
            let same = next.0 == kept.0;
            if same {
                kept.1 += next.1;
            }
            same
        });
        c.entries = entries;
        c
    }

    /// Number of classical bits per outcome.
    pub fn num_bits(&self) -> usize {
        self.num_bits
    }

    /// Asserts that `key` fits in `num_bits` bits.
    fn check_key(&self, key: u64) {
        assert!(
            self.num_bits == 64 || key < (1u64 << self.num_bits),
            "key {key:#b} exceeds {} bits",
            self.num_bits
        );
    }

    /// Adds `n` observations of `key`.
    ///
    /// O(1) for a key at or above the largest one recorded so far.
    /// Otherwise it is a binary search and an insert, O(distinct): build
    /// a histogram from unordered keys with [`Counts::from_pairs`].
    ///
    /// # Panics
    ///
    /// Panics if `key` uses bits above `num_bits`.
    pub fn record(&mut self, key: u64, n: u64) {
        self.check_key(key);
        if n == 0 {
            return;
        }
        match self.entries.last_mut() {
            Some((last, _)) if *last < key => self.entries.push((key, n)),
            Some((last, total)) if *last == key => *total += n,
            None => self.entries.push((key, n)),
            Some(_) => match self.entries.binary_search_by_key(&key, |&(k, _)| k) {
                Ok(i) => self.entries[i].1 += n,
                Err(i) => self.entries.insert(i, (key, n)),
            },
        }
    }

    /// The count for `key` (0 when never observed).
    pub fn get(&self, key: u64) -> u64 {
        self.entries
            .binary_search_by_key(&key, |&(k, _)| k)
            .map_or(0, |i| self.entries[i].1)
    }

    /// The count for an MSB-first bitstring such as `"010"`.
    ///
    /// Returns `None` when the string's length does not match or it
    /// contains non-binary characters.
    pub fn get_str(&self, bits: &str) -> Option<u64> {
        Some(self.get(key_from_str(bits, self.num_bits)?))
    }

    /// Total number of recorded shots.
    pub fn total(&self) -> u64 {
        self.entries.iter().map(|&(_, n)| n).sum()
    }

    /// Number of distinct outcomes observed.
    pub fn distinct(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Empirical probability of `key`.
    ///
    /// Returns 0 when no shots are recorded.
    pub fn probability(&self, key: u64) -> f64 {
        share(self.get(key), self.total())
    }

    /// Iterates over `(key, count)` pairs in ascending key order; every
    /// count is positive.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.entries.iter().copied()
    }

    /// The outcomes sorted by key, as `(bitstring, count)` pairs.
    pub fn to_sorted_vec(&self) -> Vec<(String, u64)> {
        self.iter()
            .map(|(k, n)| (bitstring(k, self.num_bits), n))
            .collect()
    }

    /// The most frequent outcome, or `None` when empty. Ties break toward
    /// the smaller key so the result is deterministic.
    pub fn most_frequent(&self) -> Option<u64> {
        self.iter()
            .max_by(|(ka, na), (kb, nb)| na.cmp(nb).then(kb.cmp(ka)))
            .map(|(k, _)| k)
    }

    /// Merges another histogram into this one, in one linear walk over
    /// both.
    ///
    /// # Panics
    ///
    /// Panics when the bit widths differ.
    pub fn merge(&mut self, other: &Counts) {
        assert_eq!(
            self.num_bits, other.num_bits,
            "cannot merge different widths"
        );
        self.merge_entries(&other.entries);
    }

    /// Merges another histogram into this one by consuming it: the
    /// shard and tranche merge. Linear in both sides, and when this one
    /// is empty it takes `other`'s entries without a copy.
    ///
    /// # Panics
    ///
    /// Panics when the bit widths differ.
    pub fn absorb(&mut self, other: Counts) {
        assert_eq!(
            self.num_bits, other.num_bits,
            "cannot merge different widths"
        );
        if self.entries.is_empty() {
            self.entries = other.entries;
        } else {
            self.merge_entries(&other.entries);
        }
    }

    /// Adds a strictly ascending, zero-free entry list into this one.
    fn merge_entries(&mut self, other: &[(u64, u64)]) {
        if other.is_empty() {
            return;
        }
        let mut merged = Vec::with_capacity(self.entries.len() + other.len());
        merge_walk(&self.entries, other, |k, a, b| merged.push((k, a + b)));
        self.entries = merged;
    }

    /// Keeps only the outcomes for which `predicate` returns `true`.
    pub fn filter(&self, predicate: impl Fn(u64) -> bool) -> Counts {
        Counts {
            num_bits: self.num_bits,
            entries: self.iter().filter(|&(k, _)| predicate(k)).collect(),
        }
    }

    /// Post-selects on classical bit `bit` holding `value` — the paper's
    /// assertion-based filtering: keep only shots whose assertion ancilla
    /// measured to the expected value.
    pub fn filter_bit(&self, bit: usize, value: bool) -> Counts {
        self.filter(|k| ((k >> bit) & 1 == 1) == value)
    }

    /// Projects the histogram onto a subset of bits. `bits[j]` becomes
    /// bit `j` of the new keys.
    pub fn marginal(&self, bits: &[usize]) -> Counts {
        let project = |k: u64| {
            bits.iter()
                .enumerate()
                .fold(0u64, |key, (j, b)| key | (((k >> b) & 1) << j))
        };
        Counts::from_pairs(bits.len(), self.iter().map(|(k, n)| (project(k), n)))
    }

    /// Dense probability vector of length `2^num_bits`.
    ///
    /// # Panics
    ///
    /// Panics when `num_bits > 24` (the dense vector would be too large).
    pub fn probabilities_vec(&self) -> Vec<f64> {
        assert!(self.num_bits <= 24, "dense probability vector too large");
        let mut v = vec![0.0; 1 << self.num_bits];
        let total = self.total();
        for (k, n) in self.iter() {
            v[k as usize] = share(n, total);
        }
        v
    }

    /// Total variation distance to another histogram over the same bits:
    /// `½ Σ |p(k) − q(k)|`, summed in ascending key order.
    ///
    /// # Panics
    ///
    /// Panics when the bit widths differ.
    pub fn tvd(&self, other: &Counts) -> f64 {
        assert_eq!(self.num_bits, other.num_bits, "tvd requires equal widths");
        let (ta, tb) = (self.total(), other.total());
        let mut sum = 0.0;
        merge_walk(&self.entries, &other.entries, |_, a, b| {
            sum += (share(a, ta) - share(b, tb)).abs();
        });
        0.5 * sum
    }

    /// Hellinger distance to another histogram:
    /// `√(1 − Σ √(p(k)·q(k)))`, summed in ascending key order.
    ///
    /// # Panics
    ///
    /// Panics when the bit widths differ.
    pub fn hellinger(&self, other: &Counts) -> f64 {
        assert_eq!(
            self.num_bits, other.num_bits,
            "hellinger requires equal widths"
        );
        let (ta, tb) = (self.total(), other.total());
        let mut bc = 0.0;
        merge_walk(&self.entries, &other.entries, |_, a, b| {
            bc += (share(a, ta) * share(b, tb)).sqrt();
        });
        (1.0 - bc.min(1.0)).sqrt()
    }

    /// Renders `key` with a caller-chosen bit order: `order[0]` is printed
    /// first (leftmost). The paper's Table 2 prints `q0q1q2`, i.e.
    /// `order = [0, 1, 2]`.
    pub fn bitstring_custom(&self, key: u64, order: &[usize]) -> String {
        order
            .iter()
            .map(|b| if (key >> b) & 1 == 1 { '1' } else { '0' })
            .collect()
    }
}

/// `n / total`, or 0 when `total` is 0.
fn share(n: u64, total: u64) -> f64 {
    if total == 0 {
        0.0
    } else {
        n as f64 / total as f64
    }
}

/// The one merge walk: visits every key of two strictly ascending entry
/// lists in ascending order, with its count on each side (0 where
/// absent). Merges, the tally's fold and both distances run on it.
fn merge_walk(mut a: &[(u64, u64)], mut b: &[(u64, u64)], mut visit: impl FnMut(u64, u64, u64)) {
    loop {
        let order = match (a.first(), b.first()) {
            (Some(x), Some(y)) => x.0.cmp(&y.0),
            (Some(_), None) => Ordering::Less,
            (None, Some(_)) => Ordering::Greater,
            (None, None) => return,
        };
        let (mut key, mut na, mut nb) = (0, 0, 0);
        if order.is_le() {
            (key, na) = a[0];
            a = &a[1..];
        }
        if order.is_ge() {
            (key, nb) = b[0];
            b = &b[1..];
        }
        visit(key, na, nb);
    }
}

/// A shot loop's histogram under construction. Each shot's key goes
/// into a pending buffer, with no per-shot lookup; once the buffer
/// holds `max(1,024, distinct)` keys it is sorted, run-length coded and
/// merged into the histogram. So a tally holds O(distinct) memory, as
/// the histogram itself does, and costs O(log) amortized per shot.
pub(crate) struct Tally {
    counts: Counts,
    pending: Vec<u64>,
}

impl Tally {
    /// The smallest buffer a tally folds at.
    const MIN_FOLD: usize = 1024;

    /// An empty tally over `num_bits` bits, expecting about `shots` keys.
    pub(crate) fn new(num_bits: usize, shots: u64) -> Self {
        Tally {
            counts: Counts::new(num_bits),
            pending: Vec::with_capacity(shots.min(Self::MIN_FOLD as u64) as usize),
        }
    }

    /// Adds one observation of `key`.
    ///
    /// # Panics
    ///
    /// Panics if `key` uses bits above the tally's width.
    pub(crate) fn push(&mut self, key: u64) {
        self.counts.check_key(key);
        self.pending.push(key);
        if self.pending.len() >= Self::MIN_FOLD.max(self.counts.distinct()) {
            self.fold();
        }
    }

    /// Sorts the pending keys and merges their runs into the histogram.
    fn fold(&mut self) {
        self.pending.sort_unstable();
        let runs = self
            .pending
            .chunk_by(|a, b| a == b)
            .map(|run| (run[0], run.len() as u64))
            .collect();
        self.pending.clear();
        self.counts.absorb(Counts {
            num_bits: self.counts.num_bits,
            entries: runs,
        });
    }

    /// The finished histogram.
    pub(crate) fn finish(mut self) -> Counts {
        self.fold();
        self.counts
    }
}

/// Renders a key MSB-first over `num_bits` bits.
pub fn bitstring(key: u64, num_bits: usize) -> String {
    (0..num_bits)
        .rev()
        .map(|b| if (key >> b) & 1 == 1 { '1' } else { '0' })
        .collect()
}

/// Parses an MSB-first bitstring into a key; `None` on length or
/// character mismatch.
pub fn key_from_str(bits: &str, num_bits: usize) -> Option<u64> {
    if bits.len() != num_bits {
        return None;
    }
    let mut key = 0u64;
    for (i, ch) in bits.chars().enumerate() {
        match ch {
            '0' => {}
            '1' => key |= 1 << (num_bits - 1 - i),
            _ => return None,
        }
    }
    Some(key)
}

impl fmt::Display for Counts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let total = self.total();
        writeln!(f, "counts ({} bits, {} shots):", self.num_bits, total)?;
        for (bits, n) in self.to_sorted_vec() {
            let pct = if total > 0 {
                100.0 * n as f64 / total as f64
            } else {
                0.0
            };
            writeln!(f, "  {bits}: {n} ({pct:.2}%)")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Counts {
        Counts::from_pairs(3, [(0b000, 50), (0b011, 30), (0b100, 15), (0b111, 5)])
    }

    #[test]
    fn record_and_get() {
        let c = sample();
        assert_eq!(c.get(0b000), 50);
        assert_eq!(c.get(0b011), 30);
        assert_eq!(c.get(0b001), 0);
        assert_eq!(c.total(), 100);
        assert_eq!(c.distinct(), 4);
    }

    #[test]
    fn zero_count_records_are_ignored() {
        let mut c = Counts::new(1);
        c.record(0, 0);
        assert!(c.is_empty());
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn oversized_key_panics() {
        let mut c = Counts::new(2);
        c.record(0b100, 1);
    }

    #[test]
    fn string_round_trip_is_msb_first() {
        let c = sample();
        // 0b011 renders as "011": c2=0, c1=1, c0=1.
        assert_eq!(bitstring(0b011, 3), "011");
        assert_eq!(c.get_str("011").unwrap(), 30);
        assert_eq!(key_from_str("100", 3), Some(0b100));
        assert_eq!(key_from_str("10", 3), None);
        assert_eq!(key_from_str("10x", 3), None);
    }

    #[test]
    fn probability_normalizes() {
        let c = sample();
        assert!((c.probability(0b000) - 0.5).abs() < 1e-12);
        let empty = Counts::new(2);
        assert_eq!(empty.probability(0), 0.0);
    }

    #[test]
    fn most_frequent_breaks_ties_deterministically() {
        let c = Counts::from_pairs(2, [(0b01, 10), (0b10, 10), (0b11, 3)]);
        assert_eq!(c.most_frequent(), Some(0b01));
        assert_eq!(Counts::new(1).most_frequent(), None);
    }

    #[test]
    fn filter_bit_post_selects() {
        let c = sample();
        // Keep shots with bit 2 (the "ancilla") = 0.
        let kept = c.filter_bit(2, false);
        assert_eq!(kept.total(), 80);
        assert_eq!(kept.get(0b000), 50);
        assert_eq!(kept.get(0b011), 30);
        assert_eq!(kept.get(0b100), 0);
    }

    #[test]
    fn marginal_projects_and_reindexes() {
        let c = sample();
        // Keep bits [0, 1] (drop the ancilla bit 2).
        let m = c.marginal(&[0, 1]);
        assert_eq!(m.num_bits(), 2);
        assert_eq!(m.get(0b00), 65); // 000 and 100 collapse
        assert_eq!(m.get(0b11), 35); // 011 and 111 collapse
    }

    #[test]
    fn marginal_can_reorder_bits() {
        let c = Counts::from_pairs(2, [(0b01, 7)]);
        let swapped = c.marginal(&[1, 0]);
        assert_eq!(swapped.get(0b10), 7);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = Counts::from_pairs(2, [(0b00, 5)]);
        let b = Counts::from_pairs(2, [(0b00, 3), (0b01, 2)]);
        a.merge(&b);
        assert_eq!(a.get(0b00), 8);
        assert_eq!(a.get(0b01), 2);
    }

    #[test]
    #[should_panic(expected = "widths")]
    fn merge_rejects_width_mismatch() {
        let mut a = Counts::new(2);
        a.merge(&Counts::new(3));
    }

    #[test]
    fn absorb_matches_merge_in_both_directions() {
        let small = Counts::from_pairs(2, [(0b00, 5)]);
        let big = Counts::from_pairs(2, [(0b00, 3), (0b01, 2), (0b10, 7)]);

        let mut reference = small.clone();
        reference.merge(&big);

        let mut small_into_big = small.clone();
        small_into_big.absorb(big.clone());
        assert_eq!(small_into_big, reference);

        let mut big_into_small = big;
        big_into_small.absorb(small);
        assert_eq!(big_into_small, reference);

        let mut from_empty = Counts::new(2);
        from_empty.absorb(reference.clone());
        assert_eq!(from_empty, reference);
    }

    #[test]
    #[should_panic(expected = "widths")]
    fn absorb_rejects_width_mismatch() {
        let mut a = Counts::new(2);
        a.absorb(Counts::new(3));
    }

    #[test]
    fn tvd_properties() {
        let a = Counts::from_pairs(1, [(0, 50), (1, 50)]);
        let b = Counts::from_pairs(1, [(0, 100)]);
        assert!((a.tvd(&a)).abs() < 1e-12);
        assert!((a.tvd(&b) - 0.5).abs() < 1e-12);
        assert!((a.tvd(&b) - b.tvd(&a)).abs() < 1e-12);
    }

    #[test]
    fn hellinger_bounds() {
        let a = Counts::from_pairs(1, [(0, 100)]);
        let b = Counts::from_pairs(1, [(1, 100)]);
        assert!((a.hellinger(&b) - 1.0).abs() < 1e-12); // disjoint supports
        assert!(a.hellinger(&a).abs() < 1e-12);
    }

    #[test]
    fn probabilities_vec_is_dense() {
        let c = sample();
        let v = c.probabilities_vec();
        assert_eq!(v.len(), 8);
        assert!((v[0] - 0.5).abs() < 1e-12);
        assert!((v.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn custom_bit_order_matches_paper_tables() {
        let c = sample();
        // Table-2 style q0q1q2 ordering of key 0b011 (c0=1, c1=1, c2=0):
        // printed order [0, 1, 2] → "110".
        assert_eq!(c.bitstring_custom(0b011, &[0, 1, 2]), "110");
        // qiskit-style MSB-first is the reverse.
        assert_eq!(bitstring(0b011, 3), "011");
    }

    #[test]
    fn sorted_vec_is_key_ordered() {
        let c = sample();
        let v = c.to_sorted_vec();
        assert_eq!(v[0].0, "000");
        assert_eq!(v[3].0, "111");
    }

    /// A SplitMix64 key stream: `len` keys over `values` distinct values.
    fn key_stream(len: usize, values: u64, seed: u64) -> Vec<u64> {
        let mut state = seed;
        (0..len)
            .map(|_| {
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                (z ^ (z >> 31)) % values
            })
            .collect()
    }

    #[test]
    fn tally_matches_one_record_per_key() {
        for len in [0, 1, 1023, 1024, 1025, 5000] {
            for values in [1, 16, 3000] {
                let keys = key_stream(len, values, len as u64 ^ values);
                let mut expected = Counts::new(12);
                let mut tally = Tally::new(12, len as u64);
                for &k in &keys {
                    expected.record(k, 1);
                    tally.push(k);
                    assert!(
                        tally.pending.len() <= Tally::MIN_FOLD.max(tally.counts.distinct()),
                        "{} keys pending over {} folded",
                        tally.pending.len(),
                        tally.counts.distinct()
                    );
                }
                assert_eq!(tally.finish(), expected, "{len} keys over {values} values");
            }
        }
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn tally_rejects_oversized_key() {
        Tally::new(2, 1).push(0b100);
    }

    /// Equal histograms iterate, render and reduce identically, however
    /// they were built.
    #[test]
    fn equal_histograms_give_identical_bits() {
        let keys = key_stream(200, 1 << 14, 7);
        let pairs: Vec<(u64, u64)> = keys.iter().map(|&k| (k, 1 + k % 97)).collect();
        let forward = Counts::from_pairs(14, pairs.iter().copied());
        let backward = Counts::from_pairs(14, pairs.iter().rev().copied());
        let mut recorded = Counts::new(14);
        for &(k, n) in pairs.iter().rev() {
            recorded.record(k, n);
        }
        let third = Counts::from_pairs(14, pairs.iter().step_by(3).map(|&(k, n)| (k ^ 1, n)));
        let listed: Vec<(u64, u64)> = forward.iter().collect();
        assert!(listed.windows(2).all(|w| w[0].0 < w[1].0), "not ascending");
        for other in [&backward, &recorded] {
            assert_eq!(other, &forward);
            assert_eq!(other.iter().collect::<Vec<_>>(), listed);
            assert_eq!(other.tvd(&third).to_bits(), forward.tvd(&third).to_bits());
            assert_eq!(
                other.hellinger(&third).to_bits(),
                forward.hellinger(&third).to_bits()
            );
            assert_eq!(format!("{other:?}"), format!("{forward:?}"));
        }
    }

    #[test]
    fn display_includes_percentages() {
        let c = Counts::from_pairs(1, [(0, 3), (1, 1)]);
        let s = c.to_string();
        assert!(s.contains("75.00%"));
        assert!(s.contains("25.00%"));
    }
}
