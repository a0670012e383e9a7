//! Noise models for NISQ-device simulation.
//!
//! This crate is substrate S5 of the dynamic-assertion reproduction (see
//! the workspace `DESIGN.md`): it stands in for the IBM Q `ibmqx4`
//! hardware the paper evaluated on.
//!
//! * [`Kraus`] — channels in Kraus form: depolarizing, bit/phase flip,
//!   amplitude/phase damping, thermal relaxation, with sequential
//!   ([`Kraus::then`]) and tensor ([`Kraus::kron`]) composition,
//! * [`ReadoutError`] — per-qubit measurement assignment errors,
//! * [`NoiseModel`] — binds channels to gates (per-edge, per-gate, or by
//!   arity) and readout errors to qubits,
//! * [`presets`] — the calibrated `ibmqx4`-like model plus ideal/uniform
//!   models and a scaled variant for noise sweeps.
//!
//! The noisy executors in `qsim` consume these models; this crate holds
//! only data and math, no simulation.
//!
//! # Example
//!
//! ```
//! use qnoise::presets;
//! use qcircuit::{Gate, Instruction};
//!
//! let device = presets::ibmqx4();
//! let cx = Instruction::gate(Gate::Cx, [1, 0]);
//! let channels = device.channels_for(&cx);
//! assert!(!channels.is_empty());
//! assert!(channels.iter().all(|c| c.kraus.is_cptp(1e-9)));
//! ```

pub mod channel;
pub mod model;
pub mod presets;
pub mod readout;

pub use channel::{ChannelError, Kraus, PauliOp, PauliTerm, RotationAxis};
pub use model::{AppliedChannel, NoiseModel};
pub use readout::ReadoutError;
