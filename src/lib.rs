//! Facade for the dynamic quantum runtime assertion suite — a full
//! reproduction of Zhou & Byrd, *Quantum Circuits for Dynamic Runtime
//! Assertions in Quantum Computation* (ASPLOS 2020).
//!
//! Re-exports every workspace crate under one roof for the examples and
//! integration tests:
//!
//! * [`qassert`] — the paper's contribution: assertion circuits,
//!   instrumentation runtime, filtering, the statistical baseline,
//! * [`qcircuit`] — circuit IR, standard library, QASM, rendering,
//! * [`qsim`] — ideal, trajectory, exact-density, and stabilizer
//!   tableau backends,
//! * [`qnoise`] — channels and the `ibmqx4` calibration,
//! * [`qdevice`] — topologies and the transpiler,
//! * [`qmath`] — complex/matrix/statistics substrate.
//!
//! # Example
//!
//! ```
//! use qassert_suite::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut program = AssertingCircuit::new(qcircuit::library::ghz(3));
//! program.assert_entangled([0, 1, 2], Parity::Even)?;
//! program.measure_data();
//! let session = AssertionSession::new(StatevectorBackend::new()).shot_plan(ShotPlan::Fixed(256));
//! let outcome = session.run(&program)?;
//! assert_eq!(outcome.assertion_error_rate, 0.0);
//! # Ok(())
//! # }
//! ```

pub use qassert;
pub use qcircuit;
pub use qdevice;
pub use qmath;
pub use qnoise;
pub use qsim;

/// The names most programs need, in one import.
pub mod prelude {
    pub use qassert::{
        AssertError, AssertingCircuit, Assertion, AssertionOutcome, AssertionSession,
        AssertionVerdict, EntanglementMode, ErrorReduction, FilterPolicy, Parity, SequentialTest,
        SequentialVerdict, SessionTelemetry, ShotPlan, StatisticalAssertion, StatisticalKind,
        StopReason, SuperpositionBasis, SweepOutcome, SweepPoint,
    };
    pub use qcircuit::{Gate, QuantumCircuit, QubitId};
    pub use qnoise::{Kraus, NoiseModel, ReadoutError};
    pub use qsim::{
        Backend, BackendKind, Counts, DensityMatrixBackend, StabilizerBackend, StateVector,
        StatevectorBackend, TrajectoryBackend,
    };
}
