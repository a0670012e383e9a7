//! Measurement (readout) assignment errors.
//!
//! NISQ devices misreport measurement outcomes with qubit-dependent
//! probabilities — on the `ibmqx4` generation this was the *largest* error
//! source (3–5% per qubit), and it is what the paper's assertion-based
//! filtering partially removes. [`ReadoutError`] models the 2×2 stochastic
//! assignment matrix of one qubit.

use std::fmt;

/// Per-qubit readout assignment error.
///
/// `p_meas1_given0` is the probability of recording 1 when the true state
/// was `|0⟩`; `p_meas0_given1` the reverse. The assignment matrix
/// `[[1−ε₀, ε₁], [ε₀, 1−ε₁]]` is column-stochastic.
///
/// # Example
///
/// ```
/// use qnoise::ReadoutError;
/// let ro = ReadoutError::new(0.03, 0.05)?;
/// assert!((ro.p_recorded_one(0.0) - 0.03).abs() < 1e-12);
/// assert!((ro.p_recorded_one(1.0) - 0.95).abs() < 1e-12);
/// # Ok::<(), qnoise::ChannelError>(())
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ReadoutError {
    p_meas1_given0: f64,
    p_meas0_given1: f64,
}

impl ReadoutError {
    /// Creates a readout error from its two flip probabilities.
    ///
    /// # Errors
    ///
    /// Returns [`crate::ChannelError::InvalidProbability`] when either
    /// probability lies outside `[0, 1]`.
    pub fn new(p_meas1_given0: f64, p_meas0_given1: f64) -> Result<Self, crate::ChannelError> {
        for (name, v) in [
            ("p_meas1_given0", p_meas1_given0),
            ("p_meas0_given1", p_meas0_given1),
        ] {
            if !(0.0..=1.0).contains(&v) || !v.is_finite() {
                return Err(crate::ChannelError::InvalidProbability {
                    param: name,
                    value: v,
                });
            }
        }
        Ok(ReadoutError {
            p_meas1_given0,
            p_meas0_given1,
        })
    }

    /// A perfect readout (no assignment error).
    pub fn ideal() -> Self {
        ReadoutError {
            p_meas1_given0: 0.0,
            p_meas0_given1: 0.0,
        }
    }

    /// Symmetric readout error flipping either outcome with probability
    /// `p`.
    ///
    /// # Errors
    ///
    /// Returns [`crate::ChannelError::InvalidProbability`] when
    /// `p ∉ [0, 1]`.
    pub fn symmetric(p: f64) -> Result<Self, crate::ChannelError> {
        ReadoutError::new(p, p)
    }

    /// Probability of recording 1 when the true state is `|0⟩`.
    pub fn p_meas1_given0(&self) -> f64 {
        self.p_meas1_given0
    }

    /// Probability of recording 0 when the true state is `|1⟩`.
    pub fn p_meas0_given1(&self) -> f64 {
        self.p_meas0_given1
    }

    /// Probability that the *recorded* bit is 1 given the true
    /// probability `p_true_one` of the qubit being `|1⟩`.
    pub fn p_recorded_one(&self, p_true_one: f64) -> f64 {
        (1.0 - p_true_one) * self.p_meas1_given0 + p_true_one * (1.0 - self.p_meas0_given1)
    }

    /// Probability that the recorded bit equals `recorded` given the true
    /// outcome `actual`.
    pub fn p_record(&self, actual: bool, recorded: bool) -> f64 {
        match (actual, recorded) {
            (false, false) => 1.0 - self.p_meas1_given0,
            (false, true) => self.p_meas1_given0,
            (true, false) => self.p_meas0_given1,
            (true, true) => 1.0 - self.p_meas0_given1,
        }
    }

    /// Returns `true` when both flip probabilities are zero.
    pub fn is_ideal(&self) -> bool {
        self.p_meas1_given0 == 0.0 && self.p_meas0_given1 == 0.0
    }
}

impl Default for ReadoutError {
    fn default() -> Self {
        ReadoutError::ideal()
    }
}

impl fmt::Display for ReadoutError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "readout(P(1|0)={:.4}, P(0|1)={:.4})",
            self.p_meas1_given0, self.p_meas0_given1
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation_rejects_bad_probabilities() {
        assert!(ReadoutError::new(-0.1, 0.0).is_err());
        assert!(ReadoutError::new(0.0, 1.5).is_err());
        assert!(ReadoutError::new(f64::INFINITY, 0.0).is_err());
    }

    #[test]
    fn ideal_readout_never_flips() {
        let ro = ReadoutError::ideal();
        assert!(ro.is_ideal());
        assert_eq!(ro.p_record(false, true), 0.0);
        assert_eq!(ro.p_record(true, true), 1.0);
    }

    #[test]
    fn record_probabilities_sum_to_one() {
        let ro = ReadoutError::new(0.03, 0.07).unwrap();
        for actual in [false, true] {
            let sum = ro.p_record(actual, false) + ro.p_record(actual, true);
            assert!((sum - 1.0).abs() < 1e-15);
        }
    }

    #[test]
    fn recorded_one_interpolates() {
        let ro = ReadoutError::new(0.1, 0.2).unwrap();
        assert!((ro.p_recorded_one(0.0) - 0.1).abs() < 1e-15);
        assert!((ro.p_recorded_one(1.0) - 0.8).abs() < 1e-15);
        assert!((ro.p_recorded_one(0.5) - 0.45).abs() < 1e-15);
    }

    #[test]
    fn symmetric_constructor() {
        let ro = ReadoutError::symmetric(0.05).unwrap();
        assert_eq!(ro.p_meas1_given0(), 0.05);
        assert_eq!(ro.p_meas0_given1(), 0.05);
    }

    #[test]
    fn display_shows_both_probabilities() {
        let ro = ReadoutError::new(0.03, 0.05).unwrap();
        let s = ro.to_string();
        assert!(s.contains("0.0300"));
        assert!(s.contains("0.0500"));
    }
}
