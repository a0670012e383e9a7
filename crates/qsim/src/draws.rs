//! The per-shot draw contract.
//!
//! Every random decision a per-shot executor makes goes through
//! [`Draws`], so the mapping from raw generator output to shot outcomes
//! has one home. The mapping is frozen: golden vectors in
//! `tests/seed_streams.rs` pin whole-run streams, and this module's
//! tests pin what each operation consumes.

use rand::{Rng, RngCore};

/// The random decisions of a shot, one method per kind of draw.
///
/// Each method consumes exactly one raw `u64` from the generator. Which
/// method an executor calls, and when, is the contract below; every
/// seeded count, golden vector and benchmark digest depends on it.
///
/// | operation | draw |
/// |---|---|
/// | amplitude measurement, reset, post-selection | [`threshold`](Draws::threshold) on `P(1)` |
/// | readout error on a measured bit | [`threshold`](Draws::threshold) on the flip probability |
/// | Kraus channel with more than one operator | [`pick`](Draws::pick) over the Born weights |
/// | Pauli channel with more than one table entry | [`pick`](Draws::pick) over the table's probabilities |
/// | sample-once statevector shot | [`search`](Draws::search) over the basis-state probabilities' running sums |
/// | tableau measurement with a random outcome | [`coin`](Draws::coin) |
/// | hybrid handoff from tableau to amplitudes | [`marker`](Draws::marker) |
///
/// Nothing else draws:
///
/// - gates, single-operator Kraus channels and one-entry Pauli tables;
/// - tableau measurements whose outcome is deterministic;
/// - a measurement's readout when no noise model was bound at compile
///   time;
/// - extraction of the handoff state;
/// - any op whose classical condition is unsatisfied.
///
/// A tableau reset or post-selection draws exactly like the measurement
/// it contains. The tableau and amplitude executors consume the stream
/// differently by design, so they agree with each other in distribution,
/// not bit for bit. The hybrid handoff draws its marker whether or not
/// the suffix draws at all, so ops added on either side of the cut never
/// realign the two streams.
///
/// Every [`RngCore`] implements this trait. The outcome trees of
/// [`crate::tree`] record and replay exactly this contract.
pub trait Draws {
    /// Draws one `f64` `u` uniform in `[0, 1)` and returns `u < p`.
    fn threshold(&mut self, p: f64) -> bool;

    /// Draws one `f64` `u` and returns the first index whose running sum
    /// of `weights` exceeds `u`, or the last index when rounding leaves
    /// the total short of `u` (0 for no weights).
    ///
    /// Reads `weights` lazily, up to the index it returns, so a caller
    /// may compute each weight on demand. The draw is taken even for a
    /// single weight: callers that skip it for one-entry tables do so
    /// themselves.
    fn pick<I: IntoIterator<Item = f64>>(&mut self, weights: I) -> usize;

    /// Draws one `f64` `u` and returns the index [`pick`](Draws::pick)
    /// would return for weights whose running sums are `cumulative`
    /// (each element's sum read through `sum`): the first index whose
    /// running sum exceeds `u`, or the last index when none does (0 for
    /// none).
    ///
    /// A binary search, so the sums must be non-decreasing, as running
    /// sums of non-negative weights are.
    fn search<T>(&mut self, cumulative: &[T], sum: impl Fn(&T) -> f64) -> usize;

    /// Draws one `bool`.
    fn coin(&mut self) -> bool;

    /// Draws one `f64` and drops it.
    fn marker(&mut self);
}

impl<R: RngCore + ?Sized> Draws for R {
    fn threshold(&mut self, p: f64) -> bool {
        self.gen::<f64>() < p
    }

    fn pick<I: IntoIterator<Item = f64>>(&mut self, weights: I) -> usize {
        let u = self.gen::<f64>();
        let mut sum = 0.0;
        let mut last = 0;
        for (i, w) in weights.into_iter().enumerate() {
            sum += w;
            if u < sum {
                return i;
            }
            last = i;
        }
        last
    }

    fn search<T>(&mut self, cumulative: &[T], sum: impl Fn(&T) -> f64) -> usize {
        let u = self.gen::<f64>();
        let first_above = cumulative.partition_point(|t| sum(t) <= u);
        first_above.min(cumulative.len().saturating_sub(1))
    }

    fn coin(&mut self) -> bool {
        self.gen::<bool>()
    }

    fn marker(&mut self) {
        let _: f64 = self.gen();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Hands out scripted raw `u64`s and counts how many were taken.
    struct Script {
        raw: Vec<u64>,
        taken: usize,
    }

    impl Script {
        fn new(raw: &[u64]) -> Self {
            Script {
                raw: raw.to_vec(),
                taken: 0,
            }
        }
    }

    impl RngCore for Script {
        fn next_u64(&mut self) -> u64 {
            self.taken += 1;
            self.raw[self.taken - 1]
        }
    }

    /// The raw `u64` that draws as the `f64` `u` (a multiple of 2⁻⁵³).
    fn raw(u: f64) -> u64 {
        ((u * (1u64 << 53) as f64) as u64) << 11
    }

    #[test]
    fn each_operation_takes_one_raw_draw_and_maps_it_as_specified() {
        let mut s = Script::new(&[raw(0.25), raw(0.25)]);
        assert!(!s.threshold(0.25), "u < p is strict");
        assert_eq!(s.taken, 1);
        assert!(s.threshold(0.5));
        assert_eq!(s.taken, 2);

        let mut s = Script::new(&[1, 2]);
        assert!(s.coin(), "a coin is the low bit");
        assert!(!s.coin());
        assert_eq!(s.taken, 2);

        let mut s = Script::new(&[raw(0.5)]);
        s.marker();
        assert_eq!(s.taken, 1);
    }

    #[test]
    fn pick_returns_the_first_running_sum_above_the_draw_and_reads_no_further() {
        let weights = [0.25, 0.25, 0.5, 0.5];
        for (u, expected, reads) in [
            (0.0, 0, 1),
            (0.375, 1, 2),
            // A running sum equal to the draw does not exceed it.
            (0.5, 2, 3),
            (0.75, 2, 3),
        ] {
            let mut s = Script::new(&[raw(u)]);
            let mut read = 0;
            let index = s.pick(weights.iter().map(|w| {
                read += 1;
                *w
            }));
            assert_eq!(index, expected, "u = {u}");
            assert_eq!(read, reads, "weights read at u = {u}");
            assert_eq!(s.taken, 1, "raw draws at u = {u}");
        }

        // Rounding left the total short of the draw: the last index.
        let mut s = Script::new(&[raw(0.875)]);
        assert_eq!(s.pick([0.25, 0.25, 0.25]), 2);
        assert_eq!(s.taken, 1);

        // A single weight still takes its draw.
        let mut s = Script::new(&[raw(0.5)]);
        assert_eq!(s.pick([1.0]), 0);
        assert_eq!(s.taken, 1);
    }

    #[test]
    fn search_takes_one_raw_draw_and_returns_picks_index() {
        let weights = [0.25, 0.0, 0.25, 0.5];
        let sums = [0.25, 0.25, 0.5, 1.0];
        for u in [0.0, 0.125, 0.25, 0.375, 0.5, 0.75, 0.999] {
            let mut picked = Script::new(&[raw(u)]);
            let mut searched = Script::new(&[raw(u)]);
            assert_eq!(
                searched.search(&sums, |s| *s),
                picked.pick(weights),
                "u = {u}"
            );
            assert_eq!(searched.taken, 1, "raw draws at u = {u}");
        }

        // Rounding left the total short of the draw: the last index.
        let mut s = Script::new(&[raw(0.875)]);
        assert_eq!(s.search(&[0.25, 0.5, 0.75], |s| *s), 2);
        assert_eq!(s.taken, 1);

        // No sums still takes the draw and answers 0, like `pick`.
        let mut s = Script::new(&[raw(0.5)]);
        assert_eq!(s.search(&[] as &[f64], |s| *s), 0);
        assert_eq!(s.taken, 1);
    }
}
