//! Quantum circuit intermediate representation.
//!
//! This crate is substrate S2 of the dynamic-assertion reproduction (see
//! the workspace `DESIGN.md`): the circuit language that the simulators
//! execute, the transpiler rewrites, and the assertion instrumenter
//! splices into.
//!
//! * [`Gate`] — the gate set with exact unitaries ([`Gate::matrix`]),
//! * [`Instruction`] / [`OpKind`] — gates plus measure, reset, barrier,
//!   classically-conditioned gates, and QUIRK-style post-selection,
//! * [`QuantumCircuit`] — the validated, fluent circuit builder,
//! * [`qasm`] — OpenQASM 2.0 export/import,
//! * [`display`] — ASCII circuit rendering,
//! * [`library`] — standard workloads (Bell, GHZ, QFT, teleportation,
//!   Grover, …) used throughout the experiments.
//!
//! # Example
//!
//! ```
//! use qcircuit::{library, display};
//!
//! let bell = library::bell();
//! assert_eq!(bell.depth(), 2);
//! println!("{}", display::render(&bell));
//! ```

pub mod circuit;
pub mod display;
pub mod error;
pub mod gate;
pub mod instruction;
pub mod library;
pub mod qasm;
pub mod register;

pub use circuit::QuantumCircuit;
pub use error::CircuitError;
pub use gate::{CliffordKind, Gate};
pub use instruction::{Condition, Instruction, OpKind};
pub use register::{ClbitId, QubitId};
