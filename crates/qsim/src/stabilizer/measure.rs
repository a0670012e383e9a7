//! Z-basis measurement, reset and post-selection on the tableau.
//!
//! Measuring qubit `a` splits on whether any stabilizer row
//! anticommutes with `Z_a` (has its X bit set at `a`):
//!
//! * **random** — the outcome is a fair coin; the anticommuting pivot
//!   row is multiplied into every other anticommuting row, demoted to
//!   a destabilizer, and replaced by `±Z_a` with the drawn sign,
//! * **deterministic** — the outcome is forced; it is recovered by
//!   accumulating into the scratch row the stabilizers flagged by the
//!   destabilizer X bits at `a`.
//!
//! What each case draws is part of the contract of [`Draws`].

use super::tableau::Tableau;
use crate::draws::Draws;

impl Tableau {
    /// Measures qubit `a` in the Z basis, collapsing the state: a random
    /// outcome is one [`Draws::coin`], a deterministic one draws nothing.
    pub fn measure<D: Draws + ?Sized>(&mut self, a: usize, draws: &mut D) -> bool {
        match self.anticommuting_pivot(a) {
            Some(p) => {
                let outcome = draws.coin();
                self.collapse(a, p, outcome);
                outcome
            }
            None => self.deterministic_outcome(a),
        }
    }

    /// Resets qubit `a` to `|0⟩`: measure, then flip if the outcome
    /// was 1. Draws exactly as [`Tableau::measure`] does.
    pub fn reset_qubit<D: Draws + ?Sized>(&mut self, a: usize, draws: &mut D) {
        if self.measure(a, draws) {
            self.x(a);
        }
    }

    /// Post-selects qubit `a` on `outcome`: measures (drawing exactly
    /// as [`Tableau::measure`] does) and reports whether the shot
    /// survives.
    pub fn postselect<D: Draws + ?Sized>(
        &mut self,
        a: usize,
        outcome: bool,
        draws: &mut D,
    ) -> bool {
        self.measure(a, draws) == outcome
    }

    /// The smallest stabilizer row whose X bit at `a` is set, if any.
    fn anticommuting_pivot(&self, a: usize) -> Option<usize> {
        let n = self.num_qubits();
        (n..2 * n).find(|&p| self.x_bit(p, a))
    }

    /// Random-outcome collapse with pivot row `p`.
    fn collapse(&mut self, a: usize, p: usize, outcome: bool) {
        let n = self.num_qubits();
        // Demote the pivot into its destabilizer slot first, replacing
        // the old destabilizer (which may anticommute with the pivot —
        // multiplying into it would leave an imaginary phase), then
        // install ±Z_a as the new stabilizer.
        let d = p - n;
        self.copy_row(d, p);
        self.clear_row(p);
        self.set_z_bit(p, a);
        self.set_r_bit(p, outcome);
        // Multiply the old pivot (now at `d`) into every remaining row
        // that anticommutes with Z_a; each such row commutes with the
        // pivot, so every product phase is real.
        for i in 0..2 * n {
            if i != d && i != p && self.x_bit(i, a) {
                self.rowsum(i, d);
            }
        }
    }

    /// Deterministic outcome: accumulate into the scratch row (index
    /// `2n`) each stabilizer whose matching destabilizer has its X bit
    /// set at `a`; the scratch sign is the outcome.
    fn deterministic_outcome(&mut self, a: usize) -> bool {
        let n = self.num_qubits();
        let scratch = 2 * n;
        self.clear_row(scratch);
        for i in 0..n {
            if self.x_bit(i, a) {
                self.rowsum(scratch, i + n);
            }
        }
        self.r_bit(scratch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, RngCore, SeedableRng};

    #[test]
    fn deterministic_outcomes_consume_no_randomness() {
        let mut t = Tableau::new(2);
        t.x(0);
        let mut rng = StdRng::seed_from_u64(7);
        assert!(t.measure(0, &mut rng), "|1⟩ measures 1");
        assert!(!t.measure(1, &mut rng), "|0⟩ measures 0");
        let mut fresh = StdRng::seed_from_u64(7);
        assert_eq!(rng.next_u64(), fresh.next_u64(), "no draws consumed");
    }

    #[test]
    fn bell_pair_outcomes_are_perfectly_correlated() {
        for seed in 0..32 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut t = Tableau::new(2);
            t.h(0);
            t.cx(0, 1);
            let a = t.measure(0, &mut rng); // random: one bool draw
            let b = t.measure(1, &mut rng); // now deterministic
            assert_eq!(a, b, "seed {seed}");
            // Remeasuring is stable.
            assert_eq!(t.measure(0, &mut rng), a);
        }
    }

    #[test]
    fn plus_state_outcomes_follow_the_coin() {
        for seed in 0..16 {
            let mut rng = StdRng::seed_from_u64(seed);
            let coin = rng.gen::<bool>();
            let mut rng = StdRng::seed_from_u64(seed);
            let mut t = Tableau::new(1);
            t.h(0);
            assert_eq!(t.measure(0, &mut rng), coin, "seed {seed}");
        }
    }

    #[test]
    fn reset_returns_to_zero_regardless_of_state() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut t = Tableau::new(2);
        t.x(0);
        t.h(1);
        t.reset_qubit(0, &mut rng);
        t.reset_qubit(1, &mut rng);
        assert!(!t.measure(0, &mut rng));
        assert!(!t.measure(1, &mut rng));
    }

    #[test]
    fn postselect_reports_survival() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut t = Tableau::new(1);
        t.x(0);
        assert!(t.postselect(0, true, &mut rng));
        assert!(!t.postselect(0, false, &mut rng));
    }

    #[test]
    fn ghz_collapse_is_global_at_scale() {
        let n = 1024;
        let mut rng = StdRng::seed_from_u64(99);
        let mut t = Tableau::new(n);
        t.h(0);
        for i in 0..n - 1 {
            t.cx(i, i + 1);
        }
        let first = t.measure(0, &mut rng);
        for q in [1, 63, 64, 511, n - 1] {
            assert_eq!(t.measure(q, &mut rng), first, "qubit {q}");
        }
    }
}
