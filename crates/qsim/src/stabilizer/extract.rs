//! Tableau → statevector extraction: the hybrid-routing handoff.
//!
//! A stabilizer state on `n` qubits with X-rank `r` (the rank of the
//! stabilizer generators' X block) is an equal-magnitude superposition
//! of exactly `2^r` basis states, each with amplitude `2^{-r/2} · i^e`
//! for some `e ∈ {0,1,2,3}`. This module materializes those amplitudes
//! from a live [`Tableau`] so the hybrid backend can hand a
//! Clifford-evolved state to the amplitude executor mid-shot:
//!
//! 1. copy the `n` stabilizer rows into local Pauli rows written in
//!    normal form `i^p · X^x Z^z` (the tableau's letter form `Y = iXZ`
//!    folds into `p`, so products track the full fourth-root phase the
//!    tableau itself never needs),
//! 2. Gaussian-eliminate to a canonical generating set: `r` rows with
//!    distinct X-pivot columns, the remaining `n − r` rows Z-only,
//! 3. seed a basis state satisfying every Z-only generator (reduced
//!    row echelon over GF(2); free columns default to 0),
//! 4. enumerate the `2^r` X-pivot subsets in Gray-code order, each
//!    step one row multiplication, writing `seed ⊕ x` amplitudes.
//!
//! The walk is a **pure function of the tableau** — it draws no
//! randomness, so the hybrid draw-order contract stays exactly
//! "prefix tableau draws, one handoff marker, suffix amplitude draws".
//! Cost is `O(n³)` bit-ops for the elimination plus one write per
//! materialized amplitude.

use super::tableau::Tableau;
use crate::statevector::StateVector;
use qmath::Complex;

/// Extraction refuses states wider than the amplitude representation
/// (matches [`StateVector::zero_state`]'s capacity).
const MAX_EXTRACT_QUBITS: usize = 30;

/// A stabilizer generator in normal form `i^p · X^x Z^z` (bit `q` of
/// `x`/`z` is qubit `q`; extraction widths fit one word).
#[derive(Clone, Copy)]
struct PauliRow {
    x: u64,
    z: u64,
    /// Phase exponent `p` of `i^p`, mod 4.
    phase: u8,
}

impl PauliRow {
    /// Left-multiplies `other` into `self`:
    /// `(i^p1 X^x1 Z^z1)(i^p2 X^x2 Z^z2)
    ///  = i^{p1+p2+2·|z1∧x2|} X^{x1⊕x2} Z^{z1⊕z2}`
    /// (commuting `Z^z1` past `X^x2` costs `(−1)^{z1·x2}`).
    fn mul_assign(&mut self, other: &PauliRow) {
        let swaps = (self.z & other.x).count_ones() as u8;
        self.phase = (self.phase + other.phase + 2 * swaps) % 4;
        self.x ^= other.x;
        self.z ^= other.z;
    }
}

impl Tableau {
    /// Materializes the tableau's state as amplitudes.
    ///
    /// Deterministic (no RNG) and independent of which generating set
    /// the tableau currently holds — equivalent tableaux extract the
    /// same state up to the canonical global phase fixed by the
    /// elimination.
    ///
    /// # Panics
    ///
    /// Panics when the tableau is wider than the amplitude
    /// representation supports (`n ≥ 30`); hybrid routing never hands
    /// such a state off.
    pub fn to_statevector(&self) -> StateVector {
        let n = self.num_qubits();
        assert!(
            n < MAX_EXTRACT_QUBITS,
            "cannot materialize 2^{n} amplitudes from a {n}-qubit tableau"
        );

        // 1. Stabilizer rows (tableau rows n..2n) in normal form:
        //    letter form is (−1)^r Π_q P_q with Y = iXZ, so
        //    p = 2r + |x∧z| mod 4.
        let mut rows: Vec<PauliRow> = (n..2 * n)
            .map(|row| {
                let mut x = 0u64;
                let mut z = 0u64;
                for q in 0..n {
                    x |= u64::from(self.x_bit(row, q)) << q;
                    z |= u64::from(self.z_bit(row, q)) << q;
                }
                let y_count = (x & z).count_ones() as u8;
                PauliRow {
                    x,
                    z,
                    phase: (2 * u8::from(self.r_bit(row)) + y_count) % 4,
                }
            })
            .collect();

        // 2. X-block elimination: one pivot row per X column, every
        //    other row cleared at that column.
        let mut pivots: Vec<usize> = Vec::new(); // row index per X pivot
        let mut head = 0usize; // rows[..head] are the X-pivot rows
        for q in 0..n {
            let mask = 1u64 << q;
            let Some(p) = (head..n).find(|&i| rows[i].x & mask != 0) else {
                continue;
            };
            rows.swap(head, p);
            let pivot = rows[head];
            for (i, row) in rows.iter_mut().enumerate() {
                if i != head && row.x & mask != 0 {
                    row.mul_assign(&pivot);
                }
            }
            pivots.push(head);
            head += 1;
        }
        let r = head;

        // 3. Z-only rows → reduced row echelon → seed basis state.
        //    Each surviving row constrains (−1)^{p/2} (−1)^{z·s} = +1;
        //    after elimination a row's pivot column is set in that row
        //    alone, so with every free column at 0 the constraint reads
        //    `s_pivot = p/2`. (A later row's elimination can XOR free
        //    columns below an earlier pivot into its row, so the pivot
        //    is recorded at selection time, not re-derived at the end.)
        let mut z_pivots: Vec<(usize, u32)> = Vec::with_capacity(n - r);
        for i in r..n {
            debug_assert_eq!(rows[i].x, 0, "X elimination left an X component");
            let low = rows[i].z.trailing_zeros();
            debug_assert!(low < 64, "dependent stabilizer generator");
            let mask = 1u64 << low;
            let pivot = rows[i];
            for (j, row) in rows.iter_mut().enumerate().take(n).skip(r) {
                if j != i && row.z & mask != 0 {
                    row.mul_assign(&pivot);
                }
            }
            z_pivots.push((i, low));
        }
        let mut seed = 0u64;
        for &(i, col) in &z_pivots {
            debug_assert_eq!(rows[i].phase % 2, 0, "Z-only stabilizer must be ±1");
            if rows[i].phase == 2 {
                seed |= 1u64 << col;
            }
        }

        // 4. Gray-code walk over the 2^r X-pivot subsets. The subset's
        //    accumulated Pauli `i^p X^x Z^z` sends |seed⟩ to
        //    i^{p + 2·|z∧seed|} |seed ⊕ x⟩.
        let mut amps = vec![Complex::ZERO; 1usize << n];
        let magnitude = 0.5f64.powi(r as i32 / 2) * if r % 2 == 1 { 0.5f64.sqrt() } else { 1.0 };
        let phases = [
            Complex::new(magnitude, 0.0),
            Complex::new(0.0, magnitude),
            Complex::new(-magnitude, 0.0),
            Complex::new(0.0, -magnitude),
        ];
        let mut acc = PauliRow {
            x: 0,
            z: 0,
            phase: 0,
        };
        amps[seed as usize] = phases[0];
        for k in 1u64..(1u64 << r) {
            acc.mul_assign(&rows[pivots[k.trailing_zeros() as usize]]);
            let e = (acc.phase + 2 * ((acc.z & seed).count_ones() as u8 % 2)) % 4;
            amps[(seed ^ acc.x) as usize] = phases[e as usize];
        }
        StateVector::from_amplitudes(amps).expect("stabilizer extraction is normalized")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_state_close(sv: &StateVector, expected: &[(usize, Complex)]) {
        let mut want = vec![Complex::ZERO; sv.amplitudes().len()];
        for &(i, a) in expected {
            want[i] = a;
        }
        // Extraction fixes a canonical global phase; these references
        // are written in that convention (seed amplitude positive-real).
        for (i, (&got, &exp)) in sv.amplitudes().iter().zip(want.iter()).enumerate() {
            assert!(
                (got - exp).norm_sqr() < 1e-18,
                "amplitude {i}: got {got:?}, expected {exp:?}"
            );
        }
    }

    #[test]
    fn zero_state_extracts_exactly() {
        let t = Tableau::new(3);
        assert_state_close(&t.to_statevector(), &[(0, Complex::ONE)]);
    }

    #[test]
    fn basis_state_after_x() {
        let mut t = Tableau::new(2);
        t.x(1);
        assert_state_close(&t.to_statevector(), &[(0b10, Complex::ONE)]);
    }

    #[test]
    fn plus_state_has_uniform_amplitudes() {
        let mut t = Tableau::new(1);
        t.h(0);
        let inv_sqrt2 = Complex::new(0.5f64.sqrt(), 0.0);
        assert_state_close(&t.to_statevector(), &[(0, inv_sqrt2), (1, inv_sqrt2)]);
    }

    #[test]
    fn minus_state_signs() {
        let mut t = Tableau::new(1);
        t.x(0);
        t.h(0);
        let inv_sqrt2 = Complex::new(0.5f64.sqrt(), 0.0);
        assert_state_close(&t.to_statevector(), &[(0, inv_sqrt2), (1, -inv_sqrt2)]);
    }

    #[test]
    fn y_eigenstate_has_imaginary_component() {
        // S|+⟩ = (|0⟩ + i|1⟩)/√2.
        let mut t = Tableau::new(1);
        t.h(0);
        t.s(0);
        let inv_sqrt2 = 0.5f64.sqrt();
        assert_state_close(
            &t.to_statevector(),
            &[
                (0, Complex::new(inv_sqrt2, 0.0)),
                (1, Complex::new(0.0, inv_sqrt2)),
            ],
        );
    }

    #[test]
    fn bell_state_extracts() {
        let mut t = Tableau::new(2);
        t.h(0);
        t.cx(0, 1);
        let inv_sqrt2 = Complex::new(0.5f64.sqrt(), 0.0);
        assert_state_close(&t.to_statevector(), &[(0, inv_sqrt2), (0b11, inv_sqrt2)]);
    }

    #[test]
    fn extraction_matches_gate_replay_on_random_clifford_words() {
        use qcircuit::CliffordKind;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        let n = 4;
        let one_q = [
            CliffordKind::H,
            CliffordKind::S,
            CliffordKind::Sdg,
            CliffordKind::Sx,
            CliffordKind::Sxdg,
            CliffordKind::X,
            CliffordKind::Y,
            CliffordKind::Z,
        ];
        let two_q = [CliffordKind::Cx, CliffordKind::Cy, CliffordKind::Cz];
        let pick = |rng: &mut StdRng, m: usize| (rng.gen::<u64>() % m as u64) as usize;
        for trial in 0..50u64 {
            let mut rng = StdRng::seed_from_u64(0xE0_0000 + trial);
            let mut t = Tableau::new(n);
            let mut sv = StateVector::zero_state(n);
            for _ in 0..24 {
                if rng.gen::<f64>() < 0.6 {
                    let k = one_q[pick(&mut rng, one_q.len())];
                    let q = pick(&mut rng, n);
                    t.apply_clifford(k, &[q]);
                    sv.apply_gate(&clifford_gate(k), &[q.into()]).unwrap();
                } else {
                    let k = two_q[pick(&mut rng, two_q.len())];
                    let a = pick(&mut rng, n);
                    let b = (a + 1 + pick(&mut rng, n - 1)) % n;
                    t.apply_clifford(k, &[a, b]);
                    sv.apply_gate(&clifford_gate(k), &[a.into(), b.into()])
                        .unwrap();
                }
            }
            let extracted = t.to_statevector();
            // Compare up to global phase via |⟨ψ|φ⟩| = 1.
            let overlap: Complex = extracted
                .amplitudes()
                .iter()
                .zip(sv.amplitudes())
                .map(|(a, b)| Complex::new(a.re, -a.im) * *b)
                .fold(Complex::ZERO, |acc, c| acc + c);
            assert!(
                (overlap.norm_sqr() - 1.0).abs() < 1e-9,
                "trial {trial}: |overlap|² = {}",
                overlap.norm_sqr()
            );
        }
    }

    fn clifford_gate(k: qcircuit::CliffordKind) -> qcircuit::Gate {
        use qcircuit::{CliffordKind, Gate};
        match k {
            CliffordKind::I => Gate::I,
            CliffordKind::X => Gate::X,
            CliffordKind::Y => Gate::Y,
            CliffordKind::Z => Gate::Z,
            CliffordKind::H => Gate::H,
            CliffordKind::S => Gate::S,
            CliffordKind::Sdg => Gate::Sdg,
            CliffordKind::Sx => Gate::Sx,
            CliffordKind::Sxdg => Gate::Sxdg,
            CliffordKind::Cx => Gate::Cx,
            CliffordKind::Cy => Gate::Cy,
            CliffordKind::Cz => Gate::Cz,
            CliffordKind::Swap => Gate::Swap,
        }
    }
}
