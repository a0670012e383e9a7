//! Mixed-state (density-matrix) simulation.
//!
//! [`DensityMatrix`] represents `ρ` as a vectorized buffer of `4^n`
//! complex entries: entry `(row, col)` lives at index `row + (col << n)`.
//! This makes gate and Kraus application reuse the state-vector kernels —
//! applying `U` to qubit `q` of `ρ` means applying `U` at bit `q` (the
//! row side) and `U*` at bit `q + n` (the column side); a controlled
//! gate's control moves to bit `c + n` with it. Gates lower through the
//! same [`crate::compile`](mod@crate::compile) step as on the
//! state-vector path, so the row and column sweeps of single-qubit and
//! controlled gates ride on the same SIMD-dispatched `apply` kernels (see [`crate::simd`]), with the identical bit-exactness
//! contract; wider gates use the dense kernel.
//!
//! The exact noisy executor in [`crate::executor`] uses this type to
//! reproduce the paper's Tables 1–2 without sampling noise.

use crate::apply::{apply_controlled_mat2_at, apply_mat2_at, apply_matrix_at};
use crate::compile::{check_distinct, lower_gate};
use crate::error::SimError;
use crate::program::CompiledKind;
use crate::statevector::StateVector;
use qcircuit::{Gate, QubitId};
use qmath::{CMatrix, Complex};
use qnoise::Kraus;

/// A mixed `n`-qubit quantum state.
///
/// # Example
///
/// ```
/// use qsim::DensityMatrix;
/// use qcircuit::Gate;
/// use qnoise::Kraus;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut rho = DensityMatrix::zero_state(1);
/// rho.apply_gate(&Gate::H, &[0.into()])?;
/// rho.apply_kraus(&Kraus::phase_damping(1.0)?, &[0.into()])?;
/// // Full dephasing leaves the maximally mixed state: purity 1/2.
/// assert!((rho.purity() - 0.5).abs() < 1e-10);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct DensityMatrix {
    num_qubits: usize,
    /// Vectorized ρ: entry (row, col) at `row + (col << num_qubits)`.
    data: Vec<Complex>,
}

impl DensityMatrix {
    /// Creates `|0…0⟩⟨0…0|`.
    ///
    /// # Panics
    ///
    /// Panics when `num_qubits >= 15` (the buffer holds `4^n` entries).
    pub fn zero_state(num_qubits: usize) -> Self {
        assert!(
            num_qubits < 15,
            "density matrix of 4^{num_qubits} entries is too large"
        );
        let dim = 1usize << num_qubits;
        let mut data = vec![Complex::ZERO; dim * dim];
        data[0] = Complex::ONE;
        DensityMatrix { num_qubits, data }
    }

    /// Builds `|ψ⟩⟨ψ|` from a pure state.
    pub fn from_statevector(psi: &StateVector) -> Self {
        let n = psi.num_qubits();
        let dim = 1usize << n;
        let amps = psi.amplitudes();
        let mut data = vec![Complex::ZERO; dim * dim];
        for col in 0..dim {
            let c = amps[col].conj();
            if c == Complex::ZERO {
                continue;
            }
            for row in 0..dim {
                data[row + (col << n)] = amps[row] * c;
            }
        }
        DensityMatrix {
            num_qubits: n,
            data,
        }
    }

    /// Number of qubits.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// The matrix entry `ρ(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range indices.
    pub fn get(&self, row: usize, col: usize) -> Complex {
        self.data[row + (col << self.num_qubits)]
    }

    fn check_qubit(&self, q: QubitId) -> Result<usize, SimError> {
        if q.index() >= self.num_qubits {
            Err(SimError::QubitOutOfRange {
                qubit: q.index(),
                num_qubits: self.num_qubits,
            })
        } else {
            Ok(q.index())
        }
    }

    /// Applies a unitary gate: `ρ → U ρ U†`, lowered by
    /// [`crate::compile`](mod@crate::compile) exactly as a compiled
    /// program lowers it.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::QubitOutOfRange`] or
    /// [`SimError::MatrixDimensionMismatch`] on bad operands, or
    /// [`SimError::Circuit`] with [`qcircuit::CircuitError::DuplicateQubit`]
    /// when an operand repeats.
    pub fn apply_gate(&mut self, gate: &Gate, qubits: &[QubitId]) -> Result<(), SimError> {
        self.apply_unitary(&lower_gate(gate, qubits)?)
    }

    /// Applies one compiled unitary op as `ρ → U ρ U†`: the op's kernel
    /// with `U` on the row bits, then with `U*` on the column bits.
    /// [`DensityMatrix::apply_gate`] and the exact executor apply
    /// unitaries through here.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::QubitOutOfRange`] for a bad operand.
    ///
    /// # Panics
    ///
    /// Panics on a non-unitary op.
    pub(crate) fn apply_unitary(&mut self, kind: &CompiledKind) -> Result<(), SimError> {
        let n = self.num_qubits;
        match kind {
            CompiledKind::Unitary1q { qubit, matrix, .. } => {
                let bit = self.check_qubit(*qubit)?;
                apply_mat2_at(&mut self.data, bit, matrix);
                apply_mat2_at(&mut self.data, bit + n, &matrix.conj());
            }
            CompiledKind::Controlled1q {
                control,
                target,
                matrix,
            } => {
                let (c, t) = (self.check_qubit(*control)?, self.check_qubit(*target)?);
                apply_controlled_mat2_at(&mut self.data, c, t, matrix);
                apply_controlled_mat2_at(&mut self.data, c + n, t + n, &matrix.conj());
            }
            CompiledKind::UnitaryK { qubits, matrix } => self.apply_matrix(matrix, qubits)?,
            other => unreachable!("non-unitary op {other:?} reached the unitary path"),
        }
        Ok(())
    }

    /// Applies an arbitrary matrix `M` as `ρ → M ρ M†` (not necessarily
    /// unitary; used for Kraus operators — the caller is responsible for
    /// normalization semantics).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::MatrixDimensionMismatch`] or
    /// [`SimError::QubitOutOfRange`] on bad input, or [`SimError::Circuit`]
    /// with [`qcircuit::CircuitError::DuplicateQubit`] when an operand
    /// repeats.
    pub fn apply_matrix(&mut self, m: &CMatrix, qubits: &[QubitId]) -> Result<(), SimError> {
        if m.dim() != 1 << qubits.len() {
            return Err(SimError::MatrixDimensionMismatch {
                dim: m.dim(),
                qubits: qubits.len(),
            });
        }
        for q in qubits {
            self.check_qubit(*q)?;
        }
        check_distinct(qubits)?;
        self.apply_matrix_unchecked(m, qubits);
        Ok(())
    }

    fn apply_matrix_unchecked(&mut self, m: &CMatrix, qubits: &[QubitId]) {
        let row_bits: Vec<usize> = qubits.iter().map(|q| q.index()).collect();
        let col_bits: Vec<usize> = qubits.iter().map(|q| q.index() + self.num_qubits).collect();
        apply_matrix_at(&mut self.data, &row_bits, m);
        apply_matrix_at(&mut self.data, &col_bits, &m.conj());
    }

    /// Applies a Kraus channel: `ρ → Σᵢ Kᵢ ρ Kᵢ†`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::MatrixDimensionMismatch`] when the channel
    /// arity does not match `qubits.len()`, [`SimError::QubitOutOfRange`],
    /// or [`SimError::Circuit`] with
    /// [`qcircuit::CircuitError::DuplicateQubit`] when an operand repeats.
    pub fn apply_kraus(&mut self, channel: &Kraus, qubits: &[QubitId]) -> Result<(), SimError> {
        if channel.num_qubits() != qubits.len() {
            return Err(SimError::MatrixDimensionMismatch {
                dim: 1 << channel.num_qubits(),
                qubits: qubits.len(),
            });
        }
        for q in qubits {
            self.check_qubit(*q)?;
        }
        check_distinct(qubits)?;
        let mut acc = vec![Complex::ZERO; self.data.len()];
        for k in channel.ops() {
            let mut branch = self.clone();
            branch.apply_matrix_unchecked(k, qubits);
            for (a, b) in acc.iter_mut().zip(&branch.data) {
                *a += *b;
            }
        }
        self.data = acc;
        Ok(())
    }

    /// The trace `tr(ρ)` (1 for a normalized state).
    pub fn trace(&self) -> Complex {
        let dim = 1usize << self.num_qubits;
        (0..dim).map(|i| self.get(i, i)).sum()
    }

    /// The purity `tr(ρ²) = Σ |ρᵢⱼ|²` (valid because ρ is Hermitian);
    /// 1 for pure states, `1/2^n` for the maximally mixed state.
    pub fn purity(&self) -> f64 {
        self.data.iter().map(|z| z.norm_sqr()).sum()
    }

    /// Born probabilities of all `2^n` basis states (the real diagonal).
    pub fn measurement_probabilities(&self) -> Vec<f64> {
        let dim = 1usize << self.num_qubits;
        (0..dim).map(|i| self.get(i, i).re.max(0.0)).collect()
    }

    /// The probability that measuring `qubit` yields 1.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::QubitOutOfRange`] for a bad operand.
    pub fn probability_of_one(&self, qubit: QubitId) -> Result<f64, SimError> {
        let bit = self.check_qubit(qubit)?;
        let dim = 1usize << self.num_qubits;
        let mask = 1usize << bit;
        Ok((0..dim)
            .filter(|i| i & mask != 0)
            .map(|i| self.get(i, i).re)
            .sum())
    }

    /// Projects onto `qubit = outcome` and renormalizes, returning the
    /// prior probability of that outcome.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::ImpossiblePostSelection`] when the outcome
    /// probability is (near-)zero, or [`SimError::QubitOutOfRange`].
    pub fn project(&mut self, qubit: QubitId, outcome: bool) -> Result<f64, SimError> {
        let p1 = self.probability_of_one(qubit)?;
        let p = if outcome { p1 } else { 1.0 - p1 };
        if p < 1e-12 {
            return Err(SimError::ImpossiblePostSelection {
                qubit: qubit.index(),
                outcome,
            });
        }
        let bit = qubit.index();
        let n = self.num_qubits;
        let dim = 1usize << n;
        let scale = 1.0 / p;
        for row in 0..dim {
            let row_match = ((row >> bit) & 1 == 1) == outcome;
            for col in 0..dim {
                let col_match = ((col >> bit) & 1 == 1) == outcome;
                let idx = row + (col << n);
                if row_match && col_match {
                    self.data[idx] = self.data[idx].scale(scale);
                } else {
                    self.data[idx] = Complex::ZERO;
                }
            }
        }
        Ok(p)
    }

    /// Traces out the listed qubits, returning the reduced state of the
    /// remaining ones (kept qubits are re-indexed in ascending order).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::QubitOutOfRange`] for bad operands.
    pub fn trace_out(&self, qubits: &[QubitId]) -> Result<DensityMatrix, SimError> {
        for q in qubits {
            self.check_qubit(*q)?;
        }
        let discard: Vec<usize> = qubits.iter().map(|q| q.index()).collect();
        let keep: Vec<usize> = (0..self.num_qubits)
            .filter(|b| !discard.contains(b))
            .collect();
        let kn = keep.len();
        let kdim = 1usize << kn;
        let ddim = 1usize << discard.len();
        let mut out = DensityMatrix {
            num_qubits: kn,
            data: vec![Complex::ZERO; kdim * kdim],
        };
        let expand = |kept_idx: usize, disc_idx: usize| -> usize {
            let mut full = 0usize;
            for (j, b) in keep.iter().enumerate() {
                if (kept_idx >> j) & 1 == 1 {
                    full |= 1 << b;
                }
            }
            for (j, b) in discard.iter().enumerate() {
                if (disc_idx >> j) & 1 == 1 {
                    full |= 1 << b;
                }
            }
            full
        };
        for row in 0..kdim {
            for col in 0..kdim {
                let mut acc = Complex::ZERO;
                for d in 0..ddim {
                    acc += self.get(expand(row, d), expand(col, d));
                }
                out.data[row + (col << kn)] = acc;
            }
        }
        Ok(out)
    }

    /// Fidelity with a pure state: `⟨ψ|ρ|ψ⟩`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidAmplitudeCount`] when the sizes differ.
    pub fn fidelity_pure(&self, psi: &StateVector) -> Result<f64, SimError> {
        if psi.num_qubits() != self.num_qubits {
            return Err(SimError::InvalidAmplitudeCount {
                len: psi.amplitudes().len(),
            });
        }
        let dim = 1usize << self.num_qubits;
        let amps = psi.amplitudes();
        let mut acc = Complex::ZERO;
        for row in 0..dim {
            for col in 0..dim {
                acc += amps[row].conj() * self.get(row, col) * amps[col];
            }
        }
        Ok(acc.re)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qmath::FRAC_1_SQRT_2;

    fn q(i: u32) -> QubitId {
        QubitId::new(i)
    }

    fn bell_rho() -> DensityMatrix {
        let mut rho = DensityMatrix::zero_state(2);
        rho.apply_gate(&Gate::H, &[q(0)]).unwrap();
        rho.apply_gate(&Gate::Cx, &[q(0), q(1)]).unwrap();
        rho
    }

    #[test]
    fn zero_state_is_pure_projector() {
        let rho = DensityMatrix::zero_state(2);
        assert!((rho.trace().re - 1.0).abs() < 1e-15);
        assert!((rho.purity() - 1.0).abs() < 1e-15);
        assert_eq!(rho.get(0, 0), Complex::ONE);
    }

    #[test]
    fn pure_state_round_trip_matches_statevector() {
        let mut psi = StateVector::zero_state(2);
        psi.apply_gate(&Gate::H, &[q(0)]).unwrap();
        psi.apply_gate(&Gate::Cx, &[q(0), q(1)]).unwrap();
        let rho = DensityMatrix::from_statevector(&psi);
        let p_rho = rho.measurement_probabilities();
        let p_psi = psi.probabilities();
        for (a, b) in p_rho.iter().zip(&p_psi) {
            assert!((a - b).abs() < 1e-12);
        }
        assert!((rho.purity() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn gate_evolution_matches_statevector_simulation() {
        let gates: Vec<(Gate, Vec<QubitId>)> = vec![
            (Gate::H, vec![q(0)]),
            (Gate::T, vec![q(0)]),
            (Gate::Cx, vec![q(0), q(2)]),
            (Gate::Ry(0.9), vec![q(1)]),
            (Gate::Ccx, vec![q(0), q(1), q(2)]),
            (Gate::Swap, vec![q(1), q(2)]),
        ];
        let mut psi = StateVector::zero_state(3);
        let mut rho = DensityMatrix::zero_state(3);
        for (g, qs) in &gates {
            psi.apply_gate(g, qs).unwrap();
            rho.apply_gate(g, qs).unwrap();
        }
        let expected = DensityMatrix::from_statevector(&psi);
        let dim = 8;
        for r in 0..dim {
            for c in 0..dim {
                assert!(
                    rho.get(r, c).approx_eq(expected.get(r, c), 1e-10),
                    "mismatch at ({r},{c})"
                );
            }
        }
    }

    #[test]
    fn bell_state_probabilities_and_purity() {
        let rho = bell_rho();
        let p = rho.measurement_probabilities();
        assert!((p[0] - 0.5).abs() < 1e-12);
        assert!((p[3] - 0.5).abs() < 1e-12);
        assert!((rho.purity() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn depolarizing_reduces_purity() {
        let mut rho = DensityMatrix::zero_state(1);
        rho.apply_kraus(&Kraus::depolarizing(1.0).unwrap(), &[q(0)])
            .unwrap();
        // Fully depolarized: maximally mixed, purity 1/2.
        assert!((rho.purity() - 0.5).abs() < 1e-10);
        assert!((rho.trace().re - 1.0).abs() < 1e-10);
    }

    #[test]
    fn kraus_preserves_trace() {
        let mut rho = bell_rho();
        rho.apply_kraus(&Kraus::amplitude_damping(0.3).unwrap(), &[q(1)])
            .unwrap();
        assert!((rho.trace().re - 1.0).abs() < 1e-10);
        rho.apply_kraus(&Kraus::depolarizing2(0.2).unwrap(), &[q(0), q(1)])
            .unwrap();
        assert!((rho.trace().re - 1.0).abs() < 1e-10);
    }

    #[test]
    fn amplitude_damping_decays_excited_state() {
        let mut rho = DensityMatrix::zero_state(1);
        rho.apply_gate(&Gate::X, &[q(0)]).unwrap();
        rho.apply_kraus(&Kraus::amplitude_damping(0.4).unwrap(), &[q(0)])
            .unwrap();
        assert!((rho.probability_of_one(q(0)).unwrap() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn projection_renormalizes() {
        let mut rho = bell_rho();
        let p = rho.project(q(0), true).unwrap();
        assert!((p - 0.5).abs() < 1e-12);
        assert!((rho.trace().re - 1.0).abs() < 1e-12);
        // Partner qubit collapsed with it.
        assert!((rho.probability_of_one(q(1)).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn impossible_projection_errors() {
        let mut rho = DensityMatrix::zero_state(1);
        assert!(matches!(
            rho.project(q(0), true),
            Err(SimError::ImpossiblePostSelection { .. })
        ));
    }

    /// The error a repeated operand gets: the circuit builder's own.
    fn duplicate(qubit: usize) -> SimError {
        SimError::Circuit(qcircuit::CircuitError::DuplicateQubit { qubit })
    }

    #[test]
    fn apply_gate_rejects_a_repeated_operand() {
        let mut rho = bell_rho();
        let before = rho.clone();
        assert_eq!(rho.apply_gate(&Gate::Cx, &[q(1), q(1)]), Err(duplicate(1)));
        assert_eq!(
            rho.apply_gate(&Gate::Swap, &[q(0), q(0)]),
            Err(duplicate(0))
        );
        assert_eq!(rho, before);
    }

    #[test]
    fn apply_matrix_rejects_a_repeated_operand() {
        let mut rho = bell_rho();
        let before = rho.clone();
        assert_eq!(
            rho.apply_matrix(&Gate::Cz.matrix(), &[q(1), q(1)]),
            Err(duplicate(1))
        );
        assert_eq!(rho, before);
    }

    #[test]
    fn apply_kraus_rejects_a_repeated_operand() {
        let mut rho = bell_rho();
        let before = rho.clone();
        assert_eq!(
            rho.apply_kraus(&Kraus::depolarizing2(0.1).unwrap(), &[q(1), q(1)]),
            Err(duplicate(1))
        );
        assert_eq!(rho, before);
    }

    #[test]
    fn trace_out_bell_half_is_maximally_mixed() {
        let rho = bell_rho();
        let reduced = rho.trace_out(&[q(1)]).unwrap();
        assert_eq!(reduced.num_qubits(), 1);
        assert!((reduced.get(0, 0).re - 0.5).abs() < 1e-12);
        assert!((reduced.get(1, 1).re - 0.5).abs() < 1e-12);
        assert!(reduced.get(0, 1).norm() < 1e-12);
        assert!((reduced.purity() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn trace_out_product_state_is_pure() {
        // |+⟩ ⊗ |0⟩: tracing out either qubit leaves a pure state.
        let mut rho = DensityMatrix::zero_state(2);
        rho.apply_gate(&Gate::H, &[q(0)]).unwrap();
        let r0 = rho.trace_out(&[q(1)]).unwrap();
        assert!((r0.purity() - 1.0).abs() < 1e-12);
        let r1 = rho.trace_out(&[q(0)]).unwrap();
        assert!((r1.purity() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fidelity_pure_against_itself() {
        let mut psi = StateVector::zero_state(2);
        psi.apply_gate(&Gate::H, &[q(0)]).unwrap();
        psi.apply_gate(&Gate::Cx, &[q(0), q(1)]).unwrap();
        let rho = DensityMatrix::from_statevector(&psi);
        assert!((rho.fidelity_pure(&psi).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fidelity_degrades_under_noise() {
        let mut psi = StateVector::zero_state(1);
        psi.apply_gate(&Gate::H, &[q(0)]).unwrap();
        let mut rho = DensityMatrix::from_statevector(&psi);
        rho.apply_kraus(&Kraus::phase_damping(0.5).unwrap(), &[q(0)])
            .unwrap();
        let f = rho.fidelity_pure(&psi).unwrap();
        assert!(f < 1.0 && f > 0.5, "fidelity {f}");
    }

    #[test]
    fn plus_state_offdiagonals() {
        let mut rho = DensityMatrix::zero_state(1);
        rho.apply_gate(&Gate::H, &[q(0)]).unwrap();
        assert!(rho.get(0, 1).approx_eq(Complex::real(0.5), 1e-12));
        let s = FRAC_1_SQRT_2;
        assert!((rho.get(0, 0).re - s * s).abs() < 1e-12);
    }

    #[test]
    fn operand_validation() {
        let mut rho = DensityMatrix::zero_state(1);
        assert!(rho.apply_gate(&Gate::H, &[q(4)]).is_err());
        assert!(rho
            .apply_kraus(&Kraus::depolarizing2(0.1).unwrap(), &[q(0)])
            .is_err());
        assert!(rho.trace_out(&[q(3)]).is_err());
    }
}
