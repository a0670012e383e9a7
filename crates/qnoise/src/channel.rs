//! Quantum noise channels in Kraus form.
//!
//! A channel `E(ρ) = Σᵢ Kᵢ ρ Kᵢ†` is represented by its Kraus operators
//! [`Kraus`]. The constructors cover the standard NISQ error processes:
//! depolarizing (1- and 2-qubit), bit/phase flips, amplitude and phase
//! damping, and thermal relaxation parameterized by `T1`/`T2` and a gate
//! duration — the ingredients of the `ibmqx4`-like device model used to
//! reproduce the paper's Tables 1–2.

use qmath::{is_cptp, CMatrix, Complex};
use std::fmt;
use std::sync::Arc;

/// Error produced when constructing an invalid channel.
#[derive(Clone, Debug, PartialEq)]
pub enum ChannelError {
    /// A probability parameter is outside `[0, 1]`.
    InvalidProbability {
        /// Name of the parameter.
        param: &'static str,
        /// The offending value.
        value: f64,
    },
    /// Probabilities sum to more than 1.
    ProbabilitySumExceedsOne {
        /// The offending sum.
        sum: f64,
    },
    /// Relaxation times are unphysical (T1 ≤ 0, T2 ≤ 0, or T2 > 2·T1).
    InvalidRelaxation {
        /// Longitudinal relaxation time.
        t1: f64,
        /// Transverse relaxation time.
        t2: f64,
    },
    /// Gate duration must be non-negative.
    InvalidDuration {
        /// The offending duration.
        duration: f64,
    },
}

impl fmt::Display for ChannelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChannelError::InvalidProbability { param, value } => {
                write!(f, "probability '{param}' must lie in [0, 1], got {value}")
            }
            ChannelError::ProbabilitySumExceedsOne { sum } => {
                write!(f, "pauli error probabilities sum to {sum} > 1")
            }
            ChannelError::InvalidRelaxation { t1, t2 } => {
                write!(
                    f,
                    "relaxation times are unphysical: t1={t1}, t2={t2} (need 0 < t2 <= 2*t1)"
                )
            }
            ChannelError::InvalidDuration { duration } => {
                write!(f, "gate duration must be non-negative, got {duration}")
            }
        }
    }
}

impl std::error::Error for ChannelError {}

/// A single-qubit factor of a Pauli string: [`PauliOp::term`] reads one
/// from a channel's [Pauli form](Kraus::pauli_form).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PauliTerm {
    /// Identity factor.
    I,
    /// Pauli-X factor.
    X,
    /// Pauli-Y factor.
    Y,
    /// Pauli-Z factor.
    Z,
}

impl PauliTerm {
    /// The term's single-qubit matrix.
    pub fn matrix(self) -> CMatrix {
        pauli(self as usize)
    }
}

/// One operator of a channel's Pauli form ([`Kraus::pauli_form`]): the
/// operator equals `c·P` entry for entry, where `P` is the Pauli string
/// with X part `x` and Z part `z` and `weight` is `|c|²`.
///
/// Bit `j` of each mask belongs to local qubit `j`, the channel's
/// low-order qubit first, as in the gate local-basis convention: X part
/// only is X, Z part only is Z, both is Y. A zero operator has weight 0
/// and the identity string. The executors that sample the form read
/// its factors through [`PauliOp::term`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PauliOp {
    /// `|c|²`: the operator's Born weight on every normalized state.
    pub weight: f64,
    /// X part: bit `j` set when the factor on local qubit `j` is X or Y.
    pub x: u32,
    /// Z part: bit `j` set when the factor on local qubit `j` is Z or Y.
    pub z: u32,
}

impl PauliOp {
    /// The string's factor on local qubit `j`.
    pub fn term(&self, j: usize) -> PauliTerm {
        match ((self.x >> j) & 1, (self.z >> j) & 1) {
            (0, 0) => PauliTerm::I,
            (1, 0) => PauliTerm::X,
            (1, _) => PauliTerm::Y,
            _ => PauliTerm::Z,
        }
    }
}

/// The string `P` and weight `|c|²` with `k = c·P` entry for entry (up
/// to the sign of zero); the zero operator is `0·I`.
///
/// A Pauli string has one nonzero entry per row, `P[r][r ^ x]`, equal to
/// `P[0][x] = (−i)^|x ∧ z|` times `(−1)^|r ∧ z|`. So row 0's largest entry
/// names the X part and the sign of row `2ʲ`'s entry against it the Z
/// bit of qubit `j`; then every entry is checked: `O(d²)` for a `d × d`
/// operator. A nonzero `k = c·P` has exactly one such string, the one a
/// search over all `4ⁿ` strings finds.
fn pauli_multiple(k: &CMatrix) -> Option<PauliOp> {
    let d = k.dim();
    let x = (1..d).fold(0, |best, col| {
        if k.get(0, col).norm_sqr() > k.get(0, best).norm_sqr() {
            col
        } else {
            best
        }
    });
    let k0 = k.get(0, x);
    let z = (0..d.trailing_zeros())
        .filter(|j| {
            let r = 1usize << j;
            (k.get(r, r ^ x) * k0.conj()).re < 0.0
        })
        .fold(0usize, |z, j| z | 1 << j);
    // c = k0 / P[0][x] = k0 · i^|x ∧ z|: a quarter turn per Y factor,
    // exact in floating point.
    let c = (0..(x & z).count_ones()).fold(k0, |c, _| Complex::new(-c.im, c.re));
    for r in 0..d {
        // c·P[r][r ^ x] = ±k0 exactly: P's entries are units, so the
        // product only moves and negates c's components.
        let on = if (r & z).count_ones() % 2 == 1 {
            -k0
        } else {
            k0
        };
        for col in 0..d {
            let expected = if col == r ^ x { on } else { Complex::ZERO };
            if !k.get(r, col).approx_eq(expected, 0.0) {
                return None;
            }
        }
    }
    Some(PauliOp {
        weight: c.norm_sqr(),
        x: x as u32,
        z: z as u32,
    })
}

/// Rotation axis for [`Kraus::coherent_overrotation`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum RotationAxis {
    /// Rotation about X.
    X,
    /// Rotation about Y.
    Y,
    /// Rotation about Z.
    Z,
}

/// A completely positive trace-preserving map in Kraus form.
///
/// The operators and the [Pauli form](Kraus::pauli_form) are shared
/// between clones, so a clone only bumps a reference count: binding a
/// model's channels to every instruction of a circuit copies no matrix.
///
/// # Example
///
/// ```
/// use qnoise::Kraus;
/// let flip = Kraus::bit_flip(0.1)?;
/// assert_eq!(flip.num_qubits(), 1);
/// assert_eq!(flip.ops().len(), 2);
/// # Ok::<(), qnoise::ChannelError>(())
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct Kraus {
    /// The operators, shared between clones.
    ops: Arc<[CMatrix]>,
    num_qubits: usize,
    /// The Pauli form, computed once and shared between clones.
    pauli: Option<Arc<[PauliOp]>>,
}

/// The four single-qubit Pauli matrices in index order I, X, Y, Z.
fn pauli(i: usize) -> CMatrix {
    let mut m = CMatrix::zeros(2);
    match i {
        0 => {
            m.set(0, 0, Complex::ONE);
            m.set(1, 1, Complex::ONE);
        }
        1 => {
            m.set(0, 1, Complex::ONE);
            m.set(1, 0, Complex::ONE);
        }
        2 => {
            m.set(0, 1, -Complex::I);
            m.set(1, 0, Complex::I);
        }
        3 => {
            m.set(0, 0, Complex::ONE);
            m.set(1, 1, -Complex::ONE);
        }
        _ => unreachable!("pauli index must be 0..4"),
    }
    m
}

fn check_prob(param: &'static str, value: f64) -> Result<(), ChannelError> {
    if !(0.0..=1.0).contains(&value) || !value.is_finite() {
        return Err(ChannelError::InvalidProbability { param, value });
    }
    Ok(())
}

impl Kraus {
    /// Builds a channel from raw Kraus operators. Every constructor goes
    /// through here.
    ///
    /// The operators are trusted to satisfy CPTP; use [`Kraus::is_cptp`]
    /// to verify when they come from an untrusted source.
    ///
    /// Also computes the channel's [Pauli form](Kraus::pauli_form), in
    /// `O(d²)` per `d × d` operator.
    ///
    /// # Panics
    ///
    /// Panics when `ops` is empty or the operators' dimensions differ or
    /// are not a power of two.
    pub fn from_ops(ops: Vec<CMatrix>) -> Self {
        let dim = ops.first().expect("kraus set must be non-empty").dim();
        assert!(
            dim.is_power_of_two(),
            "kraus dimension must be a power of two"
        );
        assert!(
            ops.iter().all(|k| k.dim() == dim),
            "kraus operators must share one dimension"
        );
        let pauli = ops.iter().map(pauli_multiple).collect();
        Kraus {
            ops: ops.into(),
            num_qubits: dim.trailing_zeros() as usize,
            pauli,
        }
    }

    /// The identity (no-noise) channel on one qubit.
    pub fn identity() -> Self {
        Kraus::from_ops(vec![CMatrix::identity(2)])
    }

    /// Single-qubit depolarizing channel:
    /// `ρ → (1−p)·ρ + p·I/2`.
    ///
    /// # Errors
    ///
    /// Returns [`ChannelError::InvalidProbability`] when `p ∉ [0, 1]`.
    pub fn depolarizing(p: f64) -> Result<Self, ChannelError> {
        check_prob("p", p)?;
        let mut ops = vec![pauli(0).scale((1.0 - 0.75 * p).sqrt())];
        for i in 1..4 {
            ops.push(pauli(i).scale((p / 4.0).sqrt()));
        }
        Ok(Kraus::from_ops(ops))
    }

    /// Two-qubit depolarizing channel:
    /// `ρ → (1−p)·ρ + p·I/4`.
    ///
    /// # Errors
    ///
    /// Returns [`ChannelError::InvalidProbability`] when `p ∉ [0, 1]`.
    pub fn depolarizing2(p: f64) -> Result<Self, ChannelError> {
        check_prob("p", p)?;
        let mut ops = Vec::with_capacity(16);
        for i in 0..4 {
            for j in 0..4 {
                let coeff = if i == 0 && j == 0 {
                    (1.0 - 15.0 * p / 16.0).sqrt()
                } else {
                    (p / 16.0).sqrt()
                };
                if coeff > 0.0 {
                    ops.push(pauli(i).kron(&pauli(j)).scale(coeff));
                }
            }
        }
        Ok(Kraus::from_ops(ops))
    }

    /// Bit-flip channel: applies X with probability `p`.
    ///
    /// # Errors
    ///
    /// Returns [`ChannelError::InvalidProbability`] when `p ∉ [0, 1]`.
    pub fn bit_flip(p: f64) -> Result<Self, ChannelError> {
        check_prob("p", p)?;
        Ok(Kraus::from_ops(vec![
            pauli(0).scale((1.0 - p).sqrt()),
            pauli(1).scale(p.sqrt()),
        ]))
    }

    /// Phase-flip channel: applies Z with probability `p`.
    ///
    /// # Errors
    ///
    /// Returns [`ChannelError::InvalidProbability`] when `p ∉ [0, 1]`.
    pub fn phase_flip(p: f64) -> Result<Self, ChannelError> {
        check_prob("p", p)?;
        Ok(Kraus::from_ops(vec![
            pauli(0).scale((1.0 - p).sqrt()),
            pauli(3).scale(p.sqrt()),
        ]))
    }

    /// General Pauli channel: applies X, Y, Z with probabilities `px`,
    /// `py`, `pz` (identity otherwise).
    ///
    /// # Errors
    ///
    /// Returns a [`ChannelError`] when any probability is invalid or they
    /// sum past 1.
    pub fn pauli_channel(px: f64, py: f64, pz: f64) -> Result<Self, ChannelError> {
        check_prob("px", px)?;
        check_prob("py", py)?;
        check_prob("pz", pz)?;
        let sum = px + py + pz;
        if sum > 1.0 + 1e-12 {
            return Err(ChannelError::ProbabilitySumExceedsOne { sum });
        }
        Ok(Kraus::from_ops(vec![
            pauli(0).scale((1.0 - sum).max(0.0).sqrt()),
            pauli(1).scale(px.sqrt()),
            pauli(2).scale(py.sqrt()),
            pauli(3).scale(pz.sqrt()),
        ]))
    }

    /// Amplitude-damping channel with decay probability `gamma`
    /// (models T1 energy relaxation toward `|0⟩`).
    ///
    /// # Errors
    ///
    /// Returns [`ChannelError::InvalidProbability`] when `gamma ∉ [0, 1]`.
    pub fn amplitude_damping(gamma: f64) -> Result<Self, ChannelError> {
        check_prob("gamma", gamma)?;
        let mut k0 = CMatrix::zeros(2);
        k0.set(0, 0, Complex::ONE);
        k0.set(1, 1, Complex::real((1.0 - gamma).sqrt()));
        let mut k1 = CMatrix::zeros(2);
        k1.set(0, 1, Complex::real(gamma.sqrt()));
        Ok(Kraus::from_ops(vec![k0, k1]))
    }

    /// Phase-damping channel with dephasing probability `lambda`
    /// (models pure T2 dephasing).
    ///
    /// # Errors
    ///
    /// Returns [`ChannelError::InvalidProbability`] when `lambda ∉ [0, 1]`.
    pub fn phase_damping(lambda: f64) -> Result<Self, ChannelError> {
        check_prob("lambda", lambda)?;
        let mut k0 = CMatrix::zeros(2);
        k0.set(0, 0, Complex::ONE);
        k0.set(1, 1, Complex::real((1.0 - lambda).sqrt()));
        let mut k1 = CMatrix::zeros(2);
        k1.set(1, 1, Complex::real(lambda.sqrt()));
        Ok(Kraus::from_ops(vec![k0, k1]))
    }

    /// Coherent over-rotation error: a *unitary* error channel applying
    /// `Rx(ε)`-style rotation after every gate (one Kraus operator).
    ///
    /// Coherent errors accumulate quadratically with depth rather than
    /// linearly — a different error signature than the stochastic
    /// channels, and one the assertion circuits still catch (the
    /// ancilla measures population leakage regardless of its origin).
    ///
    /// # Errors
    ///
    /// Returns [`ChannelError::InvalidProbability`] when `epsilon` is
    /// not finite.
    pub fn coherent_overrotation(axis: RotationAxis, epsilon: f64) -> Result<Self, ChannelError> {
        if !epsilon.is_finite() {
            return Err(ChannelError::InvalidProbability {
                param: "epsilon",
                value: epsilon,
            });
        }
        let (c, s) = ((epsilon / 2.0).cos(), (epsilon / 2.0).sin());
        let mut m = CMatrix::zeros(2);
        match axis {
            RotationAxis::X => {
                m.set(0, 0, Complex::real(c));
                m.set(0, 1, Complex::new(0.0, -s));
                m.set(1, 0, Complex::new(0.0, -s));
                m.set(1, 1, Complex::real(c));
            }
            RotationAxis::Y => {
                m.set(0, 0, Complex::real(c));
                m.set(0, 1, Complex::real(-s));
                m.set(1, 0, Complex::real(s));
                m.set(1, 1, Complex::real(c));
            }
            RotationAxis::Z => {
                m.set(0, 0, Complex::cis(-epsilon / 2.0));
                m.set(1, 1, Complex::cis(epsilon / 2.0));
            }
        }
        Ok(Kraus::from_ops(vec![m]))
    }

    /// Thermal-relaxation channel for a gate of `duration` on a qubit with
    /// relaxation times `t1` and `t2` (all in consistent units, e.g.
    /// nanoseconds).
    ///
    /// Modeled as amplitude damping with `γ = 1 − e^{−t/T1}` composed with
    /// pure dephasing `λ = 1 − e^{−t/Tφ}` where `1/Tφ = 1/T2 − 1/(2·T1)`.
    ///
    /// # Errors
    ///
    /// Returns [`ChannelError::InvalidRelaxation`] for unphysical times
    /// (requires `0 < T2 ≤ 2·T1`) or [`ChannelError::InvalidDuration`]
    /// for negative durations.
    pub fn thermal_relaxation(t1: f64, t2: f64, duration: f64) -> Result<Self, ChannelError> {
        if t1 <= 0.0 || t2 <= 0.0 || t2 > 2.0 * t1 {
            return Err(ChannelError::InvalidRelaxation { t1, t2 });
        }
        if duration < 0.0 || !duration.is_finite() {
            return Err(ChannelError::InvalidDuration { duration });
        }
        let gamma = 1.0 - (-duration / t1).exp();
        // 1/Tφ = 1/T2 − 1/(2 T1); when T2 = 2·T1 there is no pure
        // dephasing beyond amplitude damping.
        let inv_tphi = 1.0 / t2 - 1.0 / (2.0 * t1);
        let lambda = if inv_tphi <= 0.0 {
            0.0
        } else {
            1.0 - (-duration * inv_tphi).exp()
        };
        let ad = Kraus::amplitude_damping(gamma)?;
        let pd = Kraus::phase_damping(lambda)?;
        Ok(ad.then(&pd))
    }

    /// Sequential composition: the channel applying `self` first, then
    /// `other` (Kraus set `{Lⱼ·Kᵢ}` with near-zero products pruned).
    ///
    /// # Panics
    ///
    /// Panics when the channels act on different qubit counts.
    pub fn then(&self, other: &Kraus) -> Kraus {
        assert_eq!(
            self.num_qubits, other.num_qubits,
            "composed channels must act on the same qubits"
        );
        let mut ops = Vec::with_capacity(self.ops.len() * other.ops.len());
        for l in other.ops.iter() {
            for k in self.ops.iter() {
                let prod = l.mul(k).expect("dimensions match");
                if !prod.is_zero(1e-15) {
                    ops.push(prod);
                }
            }
        }
        Kraus::from_ops(ops)
    }

    /// Tensor product of two channels acting on disjoint qubits:
    /// `self` on the low-order local qubit(s), `other` on the high-order
    /// ones. Kraus set `{Lⱼ ⊗ Kᵢ}`.
    pub fn kron(&self, other: &Kraus) -> Kraus {
        let mut ops = Vec::with_capacity(self.ops.len() * other.ops.len());
        for l in other.ops.iter() {
            for k in self.ops.iter() {
                // CMatrix::kron puts the left operand on the most
                // significant digits, so `other` (high qubits) goes left.
                let prod = l.kron(k);
                if !prod.is_zero(1e-15) {
                    ops.push(prod);
                }
            }
        }
        Kraus::from_ops(ops)
    }

    /// The Kraus operators.
    pub fn ops(&self) -> &[CMatrix] {
        &self.ops
    }

    /// Number of qubits the channel acts on.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// The channel's **Pauli form**: for each operator, in operator
    /// order, its weight `|c|²` and the Pauli string `P` when the
    /// operator equals `c·P` entry for entry, or weight 0 and the
    /// identity when it is zero. `None` when some operator is neither.
    ///
    /// The Pauli presets ([`Kraus::depolarizing`],
    /// [`Kraus::depolarizing2`], [`Kraus::bit_flip`],
    /// [`Kraus::phase_flip`], [`Kraus::pauli_channel`]) and their
    /// [`then`](Kraus::then)/[`kron`](Kraus::kron) compositions have
    /// one; damping, thermal relaxation and coherent rotations do not.
    /// On a normalized state `ψ`, `‖Kᵢψ‖² = |cᵢ|²`, so the weights are
    /// the Born weights of every state, and a trajectory shot samples
    /// the channel from them without touching the state for the weights.
    /// The match is exact: a channel a few ulps off a Pauli channel, such
    /// as `coherent_overrotation(X, π)` with its `6e-17` diagonal, has no
    /// form.
    ///
    /// This is the one definition of a Pauli channel. The stabilizer
    /// tableau injects exactly the channels whose form's weights sum to
    /// 1, and the per-shot amplitude executors sample the form whenever
    /// there is one.
    pub fn pauli_form(&self) -> Option<&[PauliOp]> {
        self.pauli.as_deref()
    }

    /// Verifies the trace-preservation condition `Σ Kᵢ†Kᵢ = I`.
    pub fn is_cptp(&self, tol: f64) -> bool {
        is_cptp(&self.ops, tol).unwrap_or(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_standard_channels_are_cptp() {
        let channels = [
            Kraus::identity(),
            Kraus::depolarizing(0.1).unwrap(),
            Kraus::depolarizing2(0.05).unwrap(),
            Kraus::bit_flip(0.2).unwrap(),
            Kraus::phase_flip(0.3).unwrap(),
            Kraus::pauli_channel(0.1, 0.05, 0.2).unwrap(),
            Kraus::amplitude_damping(0.25).unwrap(),
            Kraus::phase_damping(0.15).unwrap(),
            Kraus::thermal_relaxation(50_000.0, 30_000.0, 100.0).unwrap(),
        ];
        for ch in &channels {
            assert!(ch.is_cptp(1e-10), "{ch:?} violates CPTP");
        }
    }

    #[test]
    fn probability_bounds_are_enforced() {
        assert!(Kraus::depolarizing(-0.1).is_err());
        assert!(Kraus::depolarizing(1.1).is_err());
        assert!(Kraus::bit_flip(f64::NAN).is_err());
        assert!(Kraus::pauli_channel(0.5, 0.4, 0.3).is_err());
    }

    #[test]
    fn relaxation_parameter_validation() {
        assert!(Kraus::thermal_relaxation(-1.0, 1.0, 1.0).is_err());
        assert!(Kraus::thermal_relaxation(10.0, 25.0, 1.0).is_err()); // T2 > 2 T1
        assert!(Kraus::thermal_relaxation(10.0, 5.0, -1.0).is_err());
        assert!(Kraus::thermal_relaxation(10.0, 20.0, 0.0).is_ok()); // T2 = 2 T1 allowed
    }

    #[test]
    fn zero_probability_channels_are_identity_like() {
        for ch in [
            Kraus::depolarizing(0.0).unwrap(),
            Kraus::bit_flip(0.0).unwrap(),
            Kraus::amplitude_damping(0.0).unwrap(),
        ] {
            // One Kraus operator carries all the weight and equals I.
            let dominant = ch
                .ops()
                .iter()
                .find(|k| (k.get(0, 0).norm() - 1.0).abs() < 1e-12)
                .expect("identity-weight operator");
            assert!(dominant.approx_eq(&CMatrix::identity(2), 1e-12));
        }
    }

    #[test]
    fn full_depolarizing_has_uniform_paulis() {
        let ch = Kraus::depolarizing(1.0).unwrap();
        // At p=1, all four Paulis carry weight 1/4 each.
        for k in ch.ops() {
            let weight = k.adjoint().mul(k).unwrap().trace().re / 2.0;
            assert!((weight - 0.25).abs() < 1e-12);
        }
    }

    #[test]
    fn amplitude_damping_kills_excited_population() {
        // K0|1⟩ shrinks by √(1−γ); K1|1⟩ → √γ|0⟩.
        let ch = Kraus::amplitude_damping(0.36).unwrap();
        let k0 = &ch.ops()[0];
        let k1 = &ch.ops()[1];
        assert!((k0.get(1, 1).re - 0.8).abs() < 1e-12);
        assert!((k1.get(0, 1).re - 0.6).abs() < 1e-12);
    }

    #[test]
    fn thermal_relaxation_limits() {
        // Very long T1/T2 relative to the duration ≈ identity channel.
        let ch = Kraus::thermal_relaxation(1e12, 1e12, 1.0).unwrap();
        assert!(ch.is_cptp(1e-10));
        let sum_weight: f64 = ch.ops()[0].get(0, 0).norm_sqr();
        assert!((sum_weight - 1.0).abs() < 1e-9);
    }

    #[test]
    fn composition_is_cptp_and_prunes_zeros() {
        let a = Kraus::bit_flip(0.5).unwrap();
        let b = Kraus::phase_flip(0.5).unwrap();
        let ab = a.then(&b);
        assert!(ab.is_cptp(1e-10));
        assert_eq!(ab.ops().len(), 4);
    }

    #[test]
    fn two_qubit_depolarizing_has_sixteen_ops() {
        let ch = Kraus::depolarizing2(0.2).unwrap();
        assert_eq!(ch.ops().len(), 16);
        assert_eq!(ch.num_qubits(), 2);
    }

    #[test]
    fn coherent_overrotation_is_unitary_and_cptp() {
        for axis in [RotationAxis::X, RotationAxis::Y, RotationAxis::Z] {
            let ch = Kraus::coherent_overrotation(axis, 0.05).unwrap();
            assert_eq!(ch.ops().len(), 1);
            assert!(ch.ops()[0].is_unitary(1e-12), "{axis:?}");
            assert!(ch.is_cptp(1e-12));
        }
        assert!(Kraus::coherent_overrotation(RotationAxis::X, f64::NAN).is_err());
    }

    #[test]
    fn coherent_x_overrotation_matches_rx() {
        // ε-rotation about X must equal the Rx(ε) gate matrix.
        let ch = Kraus::coherent_overrotation(RotationAxis::X, 0.3).unwrap();
        let rx = qcircuit::Gate::Rx(0.3).matrix();
        assert!(ch.ops()[0].approx_eq(&rx, 1e-12));
    }

    #[test]
    fn coherent_errors_compose_coherently() {
        // Two ε rotations = one 2ε rotation (phase-coherent growth).
        let one = Kraus::coherent_overrotation(RotationAxis::Y, 0.1).unwrap();
        let two = one.then(&one);
        let expected = Kraus::coherent_overrotation(RotationAxis::Y, 0.2).unwrap();
        assert!(two.ops()[0].approx_eq(&expected.ops()[0], 1e-12));
    }

    #[test]
    fn kron_of_channels_is_cptp_with_product_arity() {
        let a = Kraus::amplitude_damping(0.1).unwrap();
        let b = Kraus::depolarizing(0.2).unwrap();
        let ab = a.kron(&b);
        assert_eq!(ab.num_qubits(), 2);
        assert!(ab.is_cptp(1e-10));
    }

    /// An independent Pauli detector: all `4ⁿ` candidate strings built
    /// as matrices, first match wins, zero operators skipped, and the
    /// weights required to sum to 1 within `1e-9`.
    fn oracle(ch: &Kraus, tol: f64) -> Option<Vec<(f64, Vec<PauliTerm>)>> {
        const TERMS: [PauliTerm; 4] = [PauliTerm::I, PauliTerm::X, PauliTerm::Y, PauliTerm::Z];
        let n = ch.num_qubits();
        let codes = 4usize.pow(n as u32);
        let mut table = Vec::new();
        let mut total = 0.0;
        'ops: for k in ch.ops() {
            if k.is_zero(tol) {
                continue;
            }
            for code in 0..codes {
                // Qubit n−1 is the leftmost Kronecker factor.
                let mut p = pauli((code >> (2 * (n - 1))) & 3);
                for j in (0..n - 1).rev() {
                    p = p.kron(&pauli((code >> (2 * j)) & 3));
                }
                let col = (0..p.dim())
                    .find(|&j| p.get(0, j) != Complex::ZERO)
                    .unwrap();
                let c = k.get(0, col) / p.get(0, col);
                if c.norm_sqr() > tol * tol && k.approx_eq(&p.scale_c(c), tol) {
                    let string = (0..n).map(|j| TERMS[(code >> (2 * j)) & 3]).collect();
                    total += c.norm_sqr();
                    table.push((c.norm_sqr(), string));
                    continue 'ops;
                }
            }
            return None;
        }
        if (total - 1.0).abs() > 1e-9 || table.is_empty() {
            return None;
        }
        Some(table)
    }

    /// The form's operators of nonzero weight equal the exact oracle's
    /// table bit for bit, and a channel without a form has no table.
    fn assert_form_matches_oracle(ch: &Kraus) {
        let form = ch.pauli_form().map(|form| {
            form.iter()
                .filter(|op| op.weight > 0.0)
                .map(|op| {
                    let string = (0..ch.num_qubits()).map(|j| op.term(j)).collect();
                    (op.weight.to_bits(), string)
                })
                .collect::<Vec<_>>()
        });
        let table = oracle(ch, 0.0).map(|t| {
            t.into_iter()
                .map(|(p, s)| (p.to_bits(), s))
                .collect::<Vec<_>>()
        });
        assert_eq!(form, table, "{ch:?}");
    }

    /// A string written local qubit 0 first: `"XZ"` is X on qubit 0 and
    /// Z on qubit 1.
    fn string(s: &str) -> Vec<PauliTerm> {
        s.chars()
            .map(|c| match c {
                'I' => PauliTerm::I,
                'X' => PauliTerm::X,
                'Y' => PauliTerm::Y,
                'Z' => PauliTerm::Z,
                other => panic!("not a Pauli factor: {other}"),
            })
            .collect()
    }

    /// Pins every operator's form, in operator order: its string, and
    /// its weight within 1e-15 (exactly, for a zero operator).
    fn assert_form(ch: &Kraus, expected: &[(f64, &str)]) {
        let form = ch.pauli_form().unwrap_or_else(|| panic!("no form: {ch:?}"));
        assert_eq!(form.len(), ch.ops().len(), "one entry per operator");
        assert_eq!(form.len(), expected.len(), "{ch:?}");
        for (i, (op, (weight, s))) in form.iter().zip(expected).enumerate() {
            let terms: Vec<PauliTerm> = (0..ch.num_qubits()).map(|j| op.term(j)).collect();
            assert_eq!(terms, string(s), "operator {i} of {ch:?}");
            if *weight == 0.0 {
                assert_eq!(op.weight, 0.0, "operator {i} of {ch:?}");
                assert!(ch.ops()[i].is_zero(0.0), "operator {i} of {ch:?}");
            } else {
                assert!(
                    (op.weight - weight).abs() < 1e-15,
                    "operator {i} of {ch:?}: weight {} against {weight}",
                    op.weight
                );
            }
        }
        assert_form_matches_oracle(ch);
    }

    #[test]
    fn pauli_presets_have_a_form_pinned_per_operator() {
        assert_form(
            &Kraus::depolarizing(0.0).unwrap(),
            &[(1.0, "I"), (0.0, "I"), (0.0, "I"), (0.0, "I")],
        );
        assert_form(
            &Kraus::depolarizing(0.2).unwrap(),
            &[(0.85, "I"), (0.05, "X"), (0.05, "Y"), (0.05, "Z")],
        );
        assert_form(&Kraus::bit_flip(0.0).unwrap(), &[(1.0, "I"), (0.0, "I")]);
        assert_form(&Kraus::bit_flip(0.3).unwrap(), &[(0.7, "I"), (0.3, "X")]);
        assert_form(&Kraus::phase_flip(0.0).unwrap(), &[(1.0, "I"), (0.0, "I")]);
        assert_form(&Kraus::phase_flip(0.3).unwrap(), &[(0.7, "I"), (0.3, "Z")]);
        assert_form(
            &Kraus::pauli_channel(0.0, 0.0, 0.0).unwrap(),
            &[(1.0, "I"), (0.0, "I"), (0.0, "I"), (0.0, "I")],
        );
        assert_form(
            &Kraus::pauli_channel(0.1, 0.05, 0.2).unwrap(),
            &[(0.65, "I"), (0.1, "X"), (0.05, "Y"), (0.2, "Z")],
        );
        // depolarizing2 prunes its zero-weight strings at p = 0.
        assert_form(&Kraus::depolarizing2(0.0).unwrap(), &[(1.0, "II")]);
        // Operators in order: qubit 1's factor outer, qubit 0's inner.
        let mut expected = Vec::new();
        for hi in ["I", "X", "Y", "Z"] {
            for lo in ["I", "X", "Y", "Z"] {
                let weight = if hi == "I" && lo == "I" { 0.85 } else { 0.01 };
                expected.push((weight, format!("{lo}{hi}")));
            }
        }
        let expected: Vec<(f64, &str)> = expected.iter().map(|(w, s)| (*w, s.as_str())).collect();
        assert_form(&Kraus::depolarizing2(0.16).unwrap(), &expected);
    }

    #[test]
    fn compositions_of_pauli_channels_have_a_form() {
        // then: Lⱼ·Kᵢ, self's operators inner; Z·X = iY.
        let flip_then_phase = Kraus::bit_flip(0.3)
            .unwrap()
            .then(&Kraus::phase_flip(0.2).unwrap());
        assert_form(
            &flip_then_phase,
            &[(0.56, "I"), (0.24, "X"), (0.14, "Z"), (0.06, "Y")],
        );
        // kron: self on local qubit 0, other on local qubit 1.
        let pair = Kraus::bit_flip(0.3)
            .unwrap()
            .kron(&Kraus::pauli_channel(0.1, 0.05, 0.2).unwrap());
        assert_form(
            &pair,
            &[
                (0.65 * 0.7, "II"),
                (0.65 * 0.3, "XI"),
                (0.1 * 0.7, "IX"),
                (0.1 * 0.3, "XX"),
                (0.05 * 0.7, "IY"),
                (0.05 * 0.3, "XY"),
                (0.2 * 0.7, "IZ"),
                (0.2 * 0.3, "XZ"),
            ],
        );
        // At p = 0 the compositions prune the zero products.
        let zero = Kraus::bit_flip(0.0)
            .unwrap()
            .then(&Kraus::depolarizing(0.0).unwrap());
        assert_form(&zero, &[(1.0, "I")]);
        let zero = Kraus::phase_flip(0.0)
            .unwrap()
            .kron(&Kraus::depolarizing(0.0).unwrap());
        assert_form(&zero, &[(1.0, "II")]);
        // Every product string of a larger composition, against the
        // factors' forms.
        let a = Kraus::depolarizing(0.1).unwrap();
        let b = Kraus::pauli_channel(0.02, 0.03, 0.07).unwrap();
        for (composed, then) in [(a.then(&b), true), (a.kron(&b), false)] {
            let form = composed.pauli_form().expect("composition has a form");
            let (fa, fb) = (a.pauli_form().unwrap(), b.pauli_form().unwrap());
            let mut i = 0;
            for l in fb {
                for k in fa {
                    let (x, z) = if then {
                        (l.x ^ k.x, l.z ^ k.z)
                    } else {
                        (k.x | l.x << 1, k.z | l.z << 1)
                    };
                    assert_eq!((form[i].x, form[i].z), (x, z), "operator {i}");
                    assert!((form[i].weight - l.weight * k.weight).abs() < 1e-15);
                    i += 1;
                }
            }
            assert_eq!(i, form.len());
            assert_form_matches_oracle(&composed);
        }
    }

    #[test]
    fn non_pauli_channels_have_no_form() {
        let device = crate::presets::ibmqx4();
        let h = qcircuit::Instruction::gate(qcircuit::Gate::H, [0]);
        let cx = qcircuit::Instruction::gate(qcircuit::Gate::Cx, [1, 0]);
        let mut channels = vec![
            Kraus::amplitude_damping(0.25).unwrap(),
            Kraus::phase_damping(0.15).unwrap(),
            Kraus::thermal_relaxation(50_000.0, 30_000.0, 100.0).unwrap(),
            Kraus::coherent_overrotation(RotationAxis::X, 0.3).unwrap(),
            Kraus::coherent_overrotation(RotationAxis::Z, 0.3).unwrap(),
            Kraus::amplitude_damping(0.1)
                .unwrap()
                .kron(&Kraus::depolarizing(0.2).unwrap()),
            Kraus::depolarizing(0.1)
                .unwrap()
                .then(&Kraus::phase_damping(0.2).unwrap()),
        ];
        for instr in [&h, &cx] {
            channels.extend(device.channels_for(instr).into_iter().map(|a| a.kraus));
        }
        // Rx(π) is −iX only up to cos(π/2) ≈ 6e-17 on its diagonal.
        channels.push(Kraus::coherent_overrotation(RotationAxis::X, std::f64::consts::PI).unwrap());
        for ch in &channels {
            assert_eq!(ch.pauli_form(), None, "{ch:?}");
            assert_form_matches_oracle(ch);
        }
    }

    #[test]
    fn a_pauli_channel_perturbed_by_1e_12_has_no_form() {
        let perturb = |ch: Kraus| {
            Kraus::from_ops(
                ch.ops()
                    .iter()
                    .map(|k| {
                        let nudge = CMatrix::from_vec(
                            k.dim(),
                            vec![Complex::new(1e-12, -1e-12); k.dim() * k.dim()],
                        )
                        .unwrap();
                        k.add(&nudge).unwrap()
                    })
                    .collect(),
            )
        };
        for ch in [
            Kraus::pauli_channel(0.1, 0.05, 0.2).unwrap(),
            Kraus::depolarizing2(0.16).unwrap(),
            Kraus::bit_flip(0.3)
                .unwrap()
                .kron(&Kraus::pauli_channel(0.1, 0.05, 0.2).unwrap()),
        ] {
            assert!(ch.pauli_form().is_some(), "{ch:?}");
            let nudged = perturb(ch);
            assert_eq!(nudged.pauli_form(), None, "{nudged:?}");
            assert_form_matches_oracle(&nudged);
        }
    }

    #[test]
    fn a_clone_shares_the_operators_and_the_pauli_form() {
        for ch in [
            Kraus::depolarizing2(0.05).unwrap(),
            Kraus::amplitude_damping(0.25).unwrap(),
        ] {
            let copy = ch.clone();
            assert_eq!(copy, ch);
            assert_eq!(copy.ops().as_ptr(), ch.ops().as_ptr());
            assert_eq!(
                copy.pauli_form().map(<[PauliOp]>::as_ptr),
                ch.pauli_form().map(<[PauliOp]>::as_ptr)
            );
            assert_eq!(format!("{copy:?}"), format!("{ch:?}"));
        }
        // Equal content in separate storage still compares equal.
        let fresh = Kraus::depolarizing2(0.05).unwrap();
        let again = Kraus::depolarizing2(0.05).unwrap();
        assert_ne!(fresh.ops().as_ptr(), again.ops().as_ptr());
        assert_eq!(fresh, again);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_kraus_set_is_rejected() {
        let _ = Kraus::from_ops(Vec::new());
    }

    #[test]
    #[should_panic(expected = "same qubits")]
    fn composing_mismatched_arities_panics() {
        let a = Kraus::depolarizing(0.1).unwrap();
        let b = Kraus::depolarizing2(0.1).unwrap();
        let _ = a.then(&b);
    }
}
