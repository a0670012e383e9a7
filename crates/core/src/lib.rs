//! Dynamic runtime assertions for quantum programs.
//!
//! This crate implements the primary contribution of Zhou & Byrd,
//! *Quantum Circuits for Dynamic Runtime Assertions in Quantum
//! Computation* (ASPLOS 2020): runtime assertions that check quantum
//! program state **without stopping execution**, by entangling an ancilla
//! qubit with the qubits under test and measuring only the ancilla.
//!
//! Three assertion families (paper Section 3):
//!
//! * [`Assertion::Classical`] — `(ψ == |0⟩)` / `(ψ == |1⟩)` per qubit
//!   (Fig. 2): one CNOT into a per-qubit ancilla,
//! * [`Assertion::Entanglement`] — GHZ-type parity (Figs. 3–4): CNOTs
//!   from each qubit into one ancilla, with the even-count rule so the
//!   ancilla disentangles,
//! * [`Assertion::Superposition`] — `(ψ == |+⟩/|−⟩)` (Fig. 5):
//!   `CX; H⊗H; CX`.
//!
//! An ancilla measuring **1 signals an assertion error**. Beyond
//! debugging, the measurements filter erroneous NISQ shots
//! ([`filter::ErrorReduction`], paper Section 4 / Tables 1–2), and the
//! ancilla measurement can *project* the tested qubits into the asserted
//! subspace ([`theory`], verified against the Section 3 proofs).
//!
//! The stop-and-measure [`statistical`] baseline (Huang & Martonosi,
//! ISCA'19) is included for comparison; its verdicts report
//! `program_continues = false`, the limitation dynamic assertions
//! remove.
//!
//! # Quickstart
//!
//! Execution goes through an [`AssertionSession`]: it owns the backend,
//! program cache, shard policy, shot plan, and filter settings, so sweep
//! loops configure everything once and every run is compile-free after
//! the first.
//!
//! ```
//! use qassert::{AssertionSession, AssertingCircuit, Parity};
//! use qcircuit::library;
//! use qsim::StatevectorBackend;
//!
//! # fn main() -> Result<(), qassert::AssertError> {
//! // Build a Bell pair, assert its entanglement mid-circuit, keep going.
//! let mut program = AssertingCircuit::new(library::bell());
//! program.assert_entangled([0, 1], Parity::Even)?;
//! program.measure_data();
//!
//! let session = AssertionSession::new(StatevectorBackend::new())
//!     .shot_plan(qassert::ShotPlan::Fixed(1024));
//! let outcome = session.run(&program)?;
//! assert_eq!(outcome.assertion_error_rate, 0.0); // correct program
//! # Ok(())
//! # }
//! ```
//!
//! The shot budget is a [`ShotPlan`]: `Fixed(n)` (the default) runs the
//! whole budget in one backend call;
//! [`ShotPlan::Sequential`] runs tranches and stops each run as soon as
//! every assertion's anytime-valid verdict
//! ([`statistical::SequentialTest`]) is decided — see
//! [`session`]'s module docs.
//!
//! The pre-session free functions are gone; a session covers each of
//! them.

pub mod assertion;
pub mod error;
pub mod estimate;
pub mod filter;
pub mod instrument;
pub mod mitigation;
pub mod plan;
pub mod report;
pub mod runtime;
pub mod session;
pub mod statistical;
pub mod theory;

pub use assertion::{Assertion, EntanglementMode, Parity, SuperpositionBasis};
pub use error::AssertError;
pub use estimate::Estimate;
pub use filter::{
    assertion_error_rate, assertion_fired_shots, error_rate, filter_assertion_bits, ErrorReduction,
};
pub use instrument::{AssertingCircuit, AssertionId, AssertionRecord};
pub use mitigation::ReadoutMitigator;
pub use plan::{
    PlanTrace, ShotPlan, StopReason, DEFAULT_SEQUENTIAL_MAX_SHOTS, DEFAULT_SEQUENTIAL_MIN_SHOTS,
    DEFAULT_SEQUENTIAL_TRANCHE,
};
pub use report::{Comparison, ExperimentReport, Metric, OutcomeRow, OutcomeTable, SessionRecord};
pub use runtime::{AssertionOutcome, AssertionStats, FilterPolicy, MitigatedOutcome};
pub use session::{
    AssertionSession, SessionTelemetry, SweepOutcome, SweepPoint, SweepPolicy, DEFAULT_SHOTS,
};
pub use statistical::{
    AssertionVerdict, SequentialTest, SequentialVerdict, StatisticalAssertion, StatisticalKind,
    StatisticalVerdict, DEFAULT_VERDICT_ALPHA, DEFAULT_VERDICT_THRESHOLD,
};
