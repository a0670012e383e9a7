//! Simulator error types.

use qcircuit::CircuitError;
use std::fmt;

/// Error produced by the simulators in this crate.
#[derive(Clone, Debug, PartialEq)]
pub enum SimError {
    /// An operand addresses a qubit the state does not have.
    QubitOutOfRange {
        /// The offending qubit index.
        qubit: usize,
        /// The state's qubit count.
        num_qubits: usize,
    },
    /// An amplitude buffer's length is not a power of two.
    InvalidAmplitudeCount {
        /// The offending length.
        len: usize,
    },
    /// A state vector's norm differs from 1 beyond tolerance.
    NotNormalized {
        /// The offending squared norm.
        norm_sqr: f64,
    },
    /// A post-selection condition has (near-)zero probability, so the
    /// conditioned state does not exist.
    ImpossiblePostSelection {
        /// The qubit being post-selected.
        qubit: usize,
        /// The required outcome.
        outcome: bool,
    },
    /// A matrix dimension does not match the number of target qubits.
    MatrixDimensionMismatch {
        /// The matrix dimension provided.
        dim: usize,
        /// The number of target qubits.
        qubits: usize,
    },
    /// The circuit references more qubits/clbits than the executor was
    /// configured with, or is otherwise malformed.
    Circuit(CircuitError),
    /// Classical register too wide for the 64-bit outcome keys used by
    /// [`crate::Counts`].
    TooManyClbits {
        /// The circuit's classical width.
        num_clbits: usize,
    },
    /// The executor ran out of shots: every shot was discarded by
    /// post-selection.
    AllShotsDiscarded,
    /// The program is not Clifford-eligible, so the stabilizer tableau
    /// backend cannot run it. Decided once at compile time (like the
    /// statevector fast path) and carried on the compiled program; the
    /// payload names the first offending instruction.
    NotClifford(CliffordBlock),
}

/// Why a compiled program is ineligible for the stabilizer backend.
///
/// Produced by the Clifford-eligibility pass in
/// [`crate::compile`](mod@crate::compile), which classifies every
/// **source** instruction (pre-fusion, via
/// [`qcircuit::Gate::clifford_kind`]) and every bound noise channel
/// (via [`qnoise::Kraus::as_pauli_channel`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CliffordBlock {
    /// A gate outside the Clifford group — including every parametrized
    /// gate, whose float parameters the exact classifier refuses to
    /// inspect.
    NonCliffordGate {
        /// The gate's OpenQASM-style name.
        gate: String,
        /// Index of the offending source instruction.
        instruction: usize,
    },
    /// A bound noise channel that is not a Pauli channel (amplitude or
    /// phase damping, thermal relaxation, generic coherent errors), so
    /// it cannot be lowered to stochastic Pauli injections.
    NonPauliChannel {
        /// Name of the source op the channel is bound to.
        op: String,
        /// Index of the offending source instruction.
        instruction: usize,
    },
}

impl CliffordBlock {
    /// Source-circuit index of the blocking instruction — an **absolute**
    /// index into the full circuit's instruction list, also when the
    /// verdict was composed through `compile_extension`.
    pub fn instruction(&self) -> usize {
        match self {
            CliffordBlock::NonCliffordGate { instruction, .. }
            | CliffordBlock::NonPauliChannel { instruction, .. } => *instruction,
        }
    }
}

impl fmt::Display for CliffordBlock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliffordBlock::NonCliffordGate { gate, instruction } => {
                write!(
                    f,
                    "instruction {instruction} ({gate}) is not an exact Clifford gate"
                )
            }
            CliffordBlock::NonPauliChannel { op, instruction } => {
                write!(
                    f,
                    "instruction {instruction} ({op}) carries a non-Pauli noise channel"
                )
            }
        }
    }
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::QubitOutOfRange { qubit, num_qubits } => {
                write!(
                    f,
                    "qubit q{qubit} out of range for a {num_qubits}-qubit state"
                )
            }
            SimError::InvalidAmplitudeCount { len } => {
                write!(f, "amplitude buffer length {len} is not a power of two")
            }
            SimError::NotNormalized { norm_sqr } => {
                write!(f, "state is not normalized (|ψ|² = {norm_sqr})")
            }
            SimError::ImpossiblePostSelection { qubit, outcome } => {
                write!(
                    f,
                    "post-selection of q{qubit} on {} has zero probability",
                    u8::from(*outcome)
                )
            }
            SimError::MatrixDimensionMismatch { dim, qubits } => {
                write!(
                    f,
                    "matrix dimension {dim} does not match 2^{qubits} target qubits"
                )
            }
            SimError::Circuit(e) => write!(f, "invalid circuit: {e}"),
            SimError::TooManyClbits { num_clbits } => {
                write!(
                    f,
                    "circuits with {num_clbits} clbits exceed the 64-bit outcome keys"
                )
            }
            SimError::AllShotsDiscarded => {
                write!(f, "post-selection discarded every shot")
            }
            SimError::NotClifford(block) => {
                write!(f, "program is not Clifford-eligible: {block}")
            }
        }
    }
}

impl std::error::Error for SimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SimError::Circuit(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CircuitError> for SimError {
    fn from(e: CircuitError) -> Self {
        SimError::Circuit(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_specific() {
        let e = SimError::QubitOutOfRange {
            qubit: 4,
            num_qubits: 2,
        };
        assert!(e.to_string().contains("q4"));
        let e = SimError::ImpossiblePostSelection {
            qubit: 1,
            outcome: true,
        };
        assert!(e.to_string().contains("zero probability"));
    }

    #[test]
    fn circuit_errors_convert() {
        let ce = CircuitError::DuplicateQubit { qubit: 3 };
        let se: SimError = ce.clone().into();
        assert_eq!(se, SimError::Circuit(ce));
    }
}
