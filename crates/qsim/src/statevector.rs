//! Pure-state simulation.
//!
//! [`StateVector`] holds `2^n` complex amplitudes with **qubit `i` at bit
//! `i`** of the basis index (LSB convention, documented in the workspace
//! `DESIGN.md`). It supports gate application (with fast paths for
//! single-qubit and controlled gates), projective measurement with
//! collapse, QUIRK-style post-selection, sampling, and the state
//! inspection helpers the paper-proof tests rely on (probabilities,
//! fidelity, Z expectations).

use crate::apply::{apply_controlled_mat2_at, apply_mat2_at, apply_matrix_at};
use crate::draws::Draws;
use crate::error::SimError;
use qcircuit::{Gate, QubitId};
use qmath::{CMatrix, Complex, Mat2};

/// Tolerance below which a post-selection probability is treated as
/// impossible.
const POST_SELECT_EPS: f64 = 1e-12;

/// A pure `n`-qubit quantum state.
///
/// # Example
///
/// ```
/// use qsim::StateVector;
/// use qcircuit::Gate;
///
/// # fn main() -> Result<(), qsim::SimError> {
/// let mut psi = StateVector::zero_state(2);
/// psi.apply_gate(&Gate::H, &[0.into()])?;
/// psi.apply_gate(&Gate::Cx, &[0.into(), 1.into()])?;
/// // Bell state: P(q0 = 1) = 1/2
/// assert!((psi.probability_of_one(0.into())? - 0.5).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct StateVector {
    num_qubits: usize,
    amps: Vec<Complex>,
}

impl StateVector {
    /// Creates the all-zeros state `|0…0⟩`.
    ///
    /// # Panics
    ///
    /// Panics when `num_qubits >= 30` (the amplitude buffer would exceed
    /// practical memory for this suite's use cases).
    pub fn zero_state(num_qubits: usize) -> Self {
        assert!(
            num_qubits < 30,
            "state of 2^{num_qubits} amplitudes is too large"
        );
        let mut amps = vec![Complex::ZERO; 1 << num_qubits];
        amps[0] = Complex::ONE;
        StateVector { num_qubits, amps }
    }

    /// Creates a state from raw amplitudes.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidAmplitudeCount`] when the length is not
    /// a power of two, or [`SimError::NotNormalized`] when the norm
    /// deviates from 1 by more than `1e-8`.
    pub fn from_amplitudes(amps: Vec<Complex>) -> Result<Self, SimError> {
        if amps.is_empty() || !amps.len().is_power_of_two() {
            return Err(SimError::InvalidAmplitudeCount { len: amps.len() });
        }
        let norm_sqr: f64 = amps.iter().map(|a| a.norm_sqr()).sum();
        if (norm_sqr - 1.0).abs() > 1e-8 {
            return Err(SimError::NotNormalized { norm_sqr });
        }
        Ok(StateVector {
            num_qubits: amps.len().trailing_zeros() as usize,
            amps,
        })
    }

    /// Number of qubits.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// The amplitude of basis state `index`.
    ///
    /// # Panics
    ///
    /// Panics when `index >= 2^n`.
    pub fn amplitude(&self, index: usize) -> Complex {
        self.amps[index]
    }

    /// All `2^n` amplitudes, basis-ordered.
    pub fn amplitudes(&self) -> &[Complex] {
        &self.amps
    }

    /// Mutable amplitude access for the in-crate batch kernels
    /// ([`crate::kernel`]); callers must preserve normalization.
    pub(crate) fn amps_mut(&mut self) -> &mut [Complex] {
        &mut self.amps
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

    /// Applies a gate to the listed qubits (gate-local qubit `j` is
    /// `qubits[j]`).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::QubitOutOfRange`] for bad operands or
    /// [`SimError::MatrixDimensionMismatch`] when the operand count does
    /// not match the gate's arity.
    pub fn apply_gate(&mut self, gate: &Gate, qubits: &[QubitId]) -> Result<(), SimError> {
        if gate.num_qubits() != qubits.len() {
            return Err(SimError::MatrixDimensionMismatch {
                dim: 1 << gate.num_qubits(),
                qubits: qubits.len(),
            });
        }
        for q in qubits {
            self.check_qubit(*q)?;
        }
        // Fast paths.
        if let Some(m) = gate.mat2() {
            apply_mat2_at(&mut self.amps, qubits[0].index(), &m);
            return Ok(());
        }
        match gate {
            Gate::Cx | Gate::Cy | Gate::Cz | Gate::Ch | Gate::Cp(_) => {
                let target_gate = match gate {
                    Gate::Cx => Gate::X,
                    Gate::Cy => Gate::Y,
                    Gate::Cz => Gate::Z,
                    Gate::Ch => Gate::H,
                    Gate::Cp(l) => Gate::P(*l),
                    _ => unreachable!(),
                };
                let m = target_gate.mat2().expect("controlled target is 1q");
                apply_controlled_mat2_at(&mut self.amps, qubits[0].index(), qubits[1].index(), &m);
                Ok(())
            }
            _ => {
                let bits: Vec<usize> = qubits.iter().map(|q| q.index()).collect();
                apply_matrix_at(&mut self.amps, &bits, &gate.matrix());
                Ok(())
            }
        }
    }

    /// Applies a bare 2×2 unitary to one qubit (used by tests and the
    /// transpiler verifier).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::QubitOutOfRange`] for a bad operand.
    pub fn apply_mat2(&mut self, m: &Mat2, qubit: QubitId) -> Result<(), SimError> {
        let bit = self.check_qubit(qubit)?;
        apply_mat2_at(&mut self.amps, bit, m);
        Ok(())
    }

    /// Applies a controlled 2×2 unitary: `m` acts on `target` when
    /// `control` is set. This is the compiled-program entry point for
    /// every controlled gate (CX, CZ, CY, CH, CP) — identical arithmetic
    /// to the [`StateVector::apply_gate`] fast path.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::QubitOutOfRange`] for a bad operand.
    pub fn apply_controlled_mat2(
        &mut self,
        m: &Mat2,
        control: QubitId,
        target: QubitId,
    ) -> Result<(), SimError> {
        let c = self.check_qubit(control)?;
        let t = self.check_qubit(target)?;
        apply_controlled_mat2_at(&mut self.amps, c, t, m);
        Ok(())
    }

    /// Applies an arbitrary `2^k`-dimensional matrix to `qubits`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::MatrixDimensionMismatch`] or
    /// [`SimError::QubitOutOfRange`] on bad input.
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
        let bits: Vec<usize> = qubits.iter().map(|q| q.index()).collect();
        apply_matrix_at(&mut self.amps, &bits, m);
        Ok(())
    }

    /// The probability that measuring `qubit` yields 1.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::QubitOutOfRange`] for a bad operand.
    pub fn probability_of_one(&self, qubit: QubitId) -> Result<f64, SimError> {
        let bit = self.check_qubit(qubit)?;
        let mask = 1usize << bit;
        // Strided walk over the set-bit halves of each 2·mask group:
        // visits exactly the indices `i & mask != 0` in ascending order,
        // so the running sum associates identically to the naive
        // filtered loop — bit-identical, but branch-free.
        let mut p1 = 0.0;
        let mut lo = 0usize;
        while lo < self.amps.len() {
            for a in &self.amps[lo + mask..lo + 2 * mask] {
                p1 += a.norm_sqr();
            }
            lo += 2 * mask;
        }
        Ok(p1)
    }

    /// Measures `qubit` in the computational basis, collapsing the state,
    /// and returns the outcome: one [`Draws::threshold`] on `P(1)`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::QubitOutOfRange`] for a bad operand.
    pub fn measure<D: Draws + ?Sized>(
        &mut self,
        qubit: QubitId,
        draws: &mut D,
    ) -> Result<bool, SimError> {
        let p1 = self.probability_of_one(qubit)?;
        let outcome = draws.threshold(p1);
        self.project(qubit, outcome, if outcome { p1 } else { 1.0 - p1 });
        Ok(outcome)
    }

    /// Post-selects `qubit` on `outcome` (QUIRK's post-select operator):
    /// projects and renormalizes, returning the prior probability of the
    /// outcome.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::ImpossiblePostSelection`] when the outcome has
    /// (near-)zero probability, or [`SimError::QubitOutOfRange`].
    pub fn post_select(&mut self, qubit: QubitId, outcome: bool) -> Result<f64, SimError> {
        let p1 = self.probability_of_one(qubit)?;
        let p = if outcome { p1 } else { 1.0 - p1 };
        if p < POST_SELECT_EPS {
            return Err(SimError::ImpossiblePostSelection {
                qubit: qubit.index(),
                outcome,
            });
        }
        self.project(qubit, outcome, p);
        Ok(p)
    }

    /// Projects onto `qubit = outcome` and renormalizes by `√p`.
    fn project(&mut self, qubit: QubitId, outcome: bool, p: f64) {
        let mask = 1usize << qubit.index();
        let scale = 1.0 / p.sqrt().max(f64::MIN_POSITIVE);
        // Strided halves instead of a per-index mask test: each 2·mask
        // group splits into a cleared half and a rescaled half. The
        // update is elementwise (`a·scale` or `0`), so the reordering
        // into two half-loops is bit-identical and both loops
        // auto-vectorize.
        let mut lo = 0usize;
        while lo < self.amps.len() {
            let (zeroed, kept) = if outcome {
                (lo, lo + mask)
            } else {
                (lo + mask, lo)
            };
            self.amps[zeroed..zeroed + mask].fill(Complex::ZERO);
            for a in &mut self.amps[kept..kept + mask] {
                *a *= scale;
            }
            lo += 2 * mask;
        }
    }

    /// Resets `qubit` to `|0⟩` (measure, then flip on 1).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::QubitOutOfRange`] for a bad operand.
    pub fn reset<D: Draws + ?Sized>(
        &mut self,
        qubit: QubitId,
        draws: &mut D,
    ) -> Result<(), SimError> {
        if self.measure(qubit, draws)? {
            self.apply_gate(&Gate::X, &[qubit])?;
        }
        Ok(())
    }

    /// Samples a basis-state index from the Born distribution without
    /// collapsing the state: one [`Draws::pick`] over the probabilities.
    pub fn sample_index<D: Draws + ?Sized>(&self, draws: &mut D) -> usize {
        draws.pick(self.amps.iter().map(|a| a.norm_sqr()))
    }

    /// The running sums of the Born probabilities in basis order, each
    /// in the real part of its amplitude's slot: the state's own buffer,
    /// overwritten. [`Draws::search`] over them with `|a| a.re` returns
    /// [`StateVector::sample_index`]'s index for the same draw, since the
    /// sums add the same terms in the same order.
    pub(crate) fn into_running_sums(mut self) -> Vec<Complex> {
        let mut sum = 0.0;
        for a in &mut self.amps {
            sum += a.norm_sqr();
            *a = Complex::real(sum);
        }
        self.amps
    }

    /// The Born-rule probability of each basis state.
    pub fn probabilities(&self) -> Vec<f64> {
        self.amps.iter().map(|a| a.norm_sqr()).collect()
    }

    /// The squared norm (should be 1 up to float error).
    pub fn norm_sqr(&self) -> f64 {
        self.amps.iter().map(|a| a.norm_sqr()).sum()
    }

    /// Renormalizes in place (guards against drift in long circuits).
    pub fn normalize(&mut self) {
        let n = self.norm_sqr().sqrt();
        if n > 0.0 {
            for a in &mut self.amps {
                *a /= n;
            }
        }
    }

    /// Inner product `⟨self|other⟩`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidAmplitudeCount`] when the sizes differ.
    pub fn inner_product(&self, other: &StateVector) -> Result<Complex, SimError> {
        if self.amps.len() != other.amps.len() {
            return Err(SimError::InvalidAmplitudeCount {
                len: other.amps.len(),
            });
        }
        Ok(self
            .amps
            .iter()
            .zip(&other.amps)
            .map(|(a, b)| a.conj() * *b)
            .sum())
    }

    /// Fidelity `|⟨self|other⟩|²`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidAmplitudeCount`] when the sizes differ.
    pub fn fidelity(&self, other: &StateVector) -> Result<f64, SimError> {
        Ok(self.inner_product(other)?.norm_sqr())
    }

    /// Expectation value of Pauli-Z on `qubit`:
    /// `P(0) − P(1)`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::QubitOutOfRange`] for a bad operand.
    pub fn expectation_z(&self, qubit: QubitId) -> Result<f64, SimError> {
        Ok(1.0 - 2.0 * self.probability_of_one(qubit)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qmath::FRAC_1_SQRT_2;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn q(i: u32) -> QubitId {
        QubitId::new(i)
    }

    #[test]
    fn zero_state_is_basis_zero() {
        let psi = StateVector::zero_state(3);
        assert_eq!(psi.num_qubits(), 3);
        assert_eq!(psi.amplitude(0), Complex::ONE);
        assert!((psi.norm_sqr() - 1.0).abs() < 1e-15);
    }

    #[test]
    fn from_amplitudes_validates() {
        assert!(StateVector::from_amplitudes(vec![Complex::ONE; 3]).is_err());
        assert!(StateVector::from_amplitudes(vec![Complex::ONE; 2]).is_err()); // norm 2
        let s = FRAC_1_SQRT_2;
        let ok = StateVector::from_amplitudes(vec![Complex::real(s), Complex::real(s)]);
        assert!(ok.is_ok());
    }

    #[test]
    fn hadamard_creates_plus_state() {
        let mut psi = StateVector::zero_state(1);
        psi.apply_gate(&Gate::H, &[q(0)]).unwrap();
        assert!(psi
            .amplitude(0)
            .approx_eq(Complex::real(FRAC_1_SQRT_2), 1e-12));
        assert!(psi
            .amplitude(1)
            .approx_eq(Complex::real(FRAC_1_SQRT_2), 1e-12));
    }

    #[test]
    fn x_flips_the_right_qubit() {
        let mut psi = StateVector::zero_state(3);
        psi.apply_gate(&Gate::X, &[q(1)]).unwrap();
        assert_eq!(psi.amplitude(0b010), Complex::ONE);
    }

    #[test]
    fn bell_state_probabilities() {
        let mut psi = StateVector::zero_state(2);
        psi.apply_gate(&Gate::H, &[q(0)]).unwrap();
        psi.apply_gate(&Gate::Cx, &[q(0), q(1)]).unwrap();
        let p = psi.probabilities();
        assert!((p[0b00] - 0.5).abs() < 1e-12);
        assert!((p[0b11] - 0.5).abs() < 1e-12);
        assert!(p[0b01] < 1e-12 && p[0b10] < 1e-12);
    }

    #[test]
    fn cx_control_and_target_order() {
        // CX with control q1, target q0 on |q1=1, q0=0⟩ = index 0b10.
        let mut psi = StateVector::zero_state(2);
        psi.apply_gate(&Gate::X, &[q(1)]).unwrap();
        psi.apply_gate(&Gate::Cx, &[q(1), q(0)]).unwrap();
        assert_eq!(psi.amplitude(0b11), Complex::ONE);
    }

    #[test]
    fn ghz_state_on_three_qubits() {
        let mut psi = StateVector::zero_state(3);
        psi.apply_gate(&Gate::H, &[q(0)]).unwrap();
        psi.apply_gate(&Gate::Cx, &[q(0), q(1)]).unwrap();
        psi.apply_gate(&Gate::Cx, &[q(0), q(2)]).unwrap();
        let p = psi.probabilities();
        assert!((p[0b000] - 0.5).abs() < 1e-12);
        assert!((p[0b111] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn measurement_collapses_consistently() {
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..20 {
            let mut psi = StateVector::zero_state(2);
            psi.apply_gate(&Gate::H, &[q(0)]).unwrap();
            psi.apply_gate(&Gate::Cx, &[q(0), q(1)]).unwrap();
            let m0 = psi.measure(q(0), &mut rng).unwrap();
            // Entangled partner must agree with certainty.
            let p1 = psi.probability_of_one(q(1)).unwrap();
            assert!((p1 - if m0 { 1.0 } else { 0.0 }).abs() < 1e-12);
            assert!((psi.norm_sqr() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn measurement_statistics_match_born_rule() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut ones = 0u32;
        let trials = 4000;
        for _ in 0..trials {
            let mut psi = StateVector::zero_state(1);
            psi.apply_gate(&Gate::Ry(1.0), &[q(0)]).unwrap();
            if psi.measure(q(0), &mut rng).unwrap() {
                ones += 1;
            }
        }
        let expected = (0.5f64).sin().powi(2); // sin²(θ/2) with θ = 1
        let observed = f64::from(ones) / f64::from(trials);
        assert!(
            (observed - expected).abs() < 0.03,
            "{observed} vs {expected}"
        );
    }

    #[test]
    fn post_select_projects_and_returns_probability() {
        let mut psi = StateVector::zero_state(1);
        psi.apply_gate(&Gate::Ry(1.2), &[q(0)]).unwrap();
        let p1 = psi.probability_of_one(q(0)).unwrap();
        let p = psi.post_select(q(0), true).unwrap();
        assert!((p - p1).abs() < 1e-12);
        assert!((psi.probability_of_one(q(0)).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn impossible_post_selection_errors() {
        let mut psi = StateVector::zero_state(1);
        let err = psi.post_select(q(0), true).unwrap_err();
        assert_eq!(
            err,
            SimError::ImpossiblePostSelection {
                qubit: 0,
                outcome: true
            }
        );
    }

    #[test]
    fn reset_always_leaves_zero() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..10 {
            let mut psi = StateVector::zero_state(1);
            psi.apply_gate(&Gate::H, &[q(0)]).unwrap();
            psi.reset(q(0), &mut rng).unwrap();
            assert!((psi.probability_of_one(q(0)).unwrap()).abs() < 1e-12);
        }
    }

    #[test]
    fn sampling_without_collapse_preserves_state() {
        let mut rng = StdRng::seed_from_u64(17);
        let mut psi = StateVector::zero_state(2);
        psi.apply_gate(&Gate::H, &[q(0)]).unwrap();
        let before = psi.amplitudes().to_vec();
        let mut seen = [false; 4];
        for _ in 0..50 {
            seen[psi.sample_index(&mut rng)] = true;
        }
        assert_eq!(psi.amplitudes(), &before[..]);
        assert!(seen[0] && seen[1]);
        assert!(!seen[2] && !seen[3]);
    }

    #[test]
    fn running_sums_search_matches_the_linear_pick() {
        use rand::{Rng, RngCore};
        let mut rng = StdRng::seed_from_u64(23);
        for n in 1..=6 {
            let raw: Vec<Complex> = (0..1 << n)
                .map(|_| Complex::new(rng.gen::<f64>() - 0.5, rng.gen::<f64>() - 0.5))
                .collect();
            let norm = raw.iter().map(|a| a.norm_sqr()).sum::<f64>().sqrt();
            let psi = StateVector::from_amplitudes(
                raw.iter()
                    .map(|a| Complex::new(a.re / norm, a.im / norm))
                    .collect(),
            )
            .unwrap();
            let sums = psi.clone().into_running_sums();
            for seed in 0..64 {
                let mut linear = StdRng::seed_from_u64(seed);
                let mut binary = StdRng::seed_from_u64(seed);
                assert_eq!(
                    binary.search(&sums, |a| a.re),
                    psi.sample_index(&mut linear),
                    "n = {n}, seed = {seed}"
                );
            }
        }

        // Probabilities that sum short of the largest draw: both fall
        // back to the last index, past the zero-probability tail.
        struct Largest;
        impl RngCore for Largest {
            fn next_u64(&mut self) -> u64 {
                u64::MAX
            }
        }
        let s = (0.5f64 * (1.0 - 1e-9)).sqrt();
        let short = StateVector::from_amplitudes(vec![
            Complex::real(s),
            Complex::real(s),
            Complex::ZERO,
            Complex::ZERO,
        ])
        .unwrap();
        assert_eq!(short.sample_index(&mut Largest), 3);
        assert_eq!(Largest.search(&short.into_running_sums(), |a| a.re), 3);
    }

    #[test]
    fn fidelity_of_orthogonal_states_is_zero() {
        let zero = StateVector::zero_state(1);
        let mut one = StateVector::zero_state(1);
        one.apply_gate(&Gate::X, &[q(0)]).unwrap();
        assert!(zero.fidelity(&one).unwrap() < 1e-15);
        assert!((zero.fidelity(&zero).unwrap() - 1.0).abs() < 1e-15);
    }

    #[test]
    fn expectation_z_signs() {
        let zero = StateVector::zero_state(1);
        assert!((zero.expectation_z(q(0)).unwrap() - 1.0).abs() < 1e-15);
        let mut one = StateVector::zero_state(1);
        one.apply_gate(&Gate::X, &[q(0)]).unwrap();
        assert!((one.expectation_z(q(0)).unwrap() + 1.0).abs() < 1e-15);
        let mut plus = StateVector::zero_state(1);
        plus.apply_gate(&Gate::H, &[q(0)]).unwrap();
        assert!(plus.expectation_z(q(0)).unwrap().abs() < 1e-12);
    }

    #[test]
    fn out_of_range_qubits_are_rejected() {
        let mut psi = StateVector::zero_state(1);
        assert!(matches!(
            psi.apply_gate(&Gate::H, &[q(3)]),
            Err(SimError::QubitOutOfRange {
                qubit: 3,
                num_qubits: 1
            })
        ));
        assert!(psi.probability_of_one(q(9)).is_err());
    }

    #[test]
    fn arity_mismatch_is_rejected() {
        let mut psi = StateVector::zero_state(2);
        assert!(matches!(
            psi.apply_gate(&Gate::Cx, &[q(0)]),
            Err(SimError::MatrixDimensionMismatch { .. })
        ));
    }

    #[test]
    fn toffoli_via_general_path() {
        let mut psi = StateVector::zero_state(3);
        psi.apply_gate(&Gate::X, &[q(0)]).unwrap();
        psi.apply_gate(&Gate::X, &[q(1)]).unwrap();
        psi.apply_gate(&Gate::Ccx, &[q(0), q(1), q(2)]).unwrap();
        assert_eq!(psi.amplitude(0b111), Complex::ONE);
    }

    #[test]
    fn swap_exchanges_qubits() {
        let mut psi = StateVector::zero_state(2);
        psi.apply_gate(&Gate::X, &[q(0)]).unwrap();
        psi.apply_gate(&Gate::Swap, &[q(0), q(1)]).unwrap();
        assert_eq!(psi.amplitude(0b10), Complex::ONE);
    }

    #[test]
    fn unitarity_preserves_norm_across_many_gates() {
        let mut psi = StateVector::zero_state(4);
        let gates: Vec<(Gate, Vec<QubitId>)> = vec![
            (Gate::H, vec![q(0)]),
            (Gate::Cx, vec![q(0), q(1)]),
            (Gate::T, vec![q(1)]),
            (Gate::Rz(0.7), vec![q(2)]),
            (Gate::Ccx, vec![q(0), q(1), q(3)]),
            (Gate::Swap, vec![q(2), q(3)]),
            (Gate::U3(0.3, 1.0, -0.4), vec![q(2)]),
        ];
        for (g, qs) in &gates {
            psi.apply_gate(g, qs).unwrap();
        }
        assert!((psi.norm_sqr() - 1.0).abs() < 1e-12);
    }
}
