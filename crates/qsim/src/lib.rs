//! Quantum circuit simulators.
//!
//! Substrates S3 and S4 of the dynamic-assertion reproduction (see the
//! workspace `DESIGN.md`): the QUIRK-equivalent ideal simulator the paper
//! uses for Figures 6–7, and the `ibmqx4`-equivalent noisy execution used
//! for Tables 1–2.
//!
//! * [`StateVector`] — pure states with gate application, measurement
//!   collapse, and QUIRK-style post-selection,
//! * [`DensityMatrix`] — mixed states with Kraus channels, projection,
//!   partial trace,
//! * [`Counts`] — outcome histograms with the post-selection filtering
//!   ([`Counts::filter_bit`]) at the heart of the paper's NISQ use case,
//! * [`compile`](mod@compile) / [`program`] — the compile-once
//!   execution layer: circuits lower to a [`CompiledProgram`]
//!   (matrices pre-materialized, adjacent single-qubit gates fused,
//!   noise channels pre-bound, the statevector fast path decided up
//!   front) that the per-shot hot loops execute one op at a time,
//! * `apply` (crate-private) — the amplitude kernels every executor
//!   applies a unitary through: the 2×2 sweep, the controlled 2×2 sweep
//!   and the dense `2^k × 2^k` loop. They panic on operands the public
//!   entry points reject as typed errors first,
//! * [`cache`] — the keyed [`ProgramCache`] (circuit structural hash ×
//!   noise-model fingerprint × compile options) that makes repeated
//!   sweep analyses compile-free, with hit/miss/eviction counters,
//! * [`pool`] — the persistent [`ShardPool`] (one task queue; a waiting
//!   thread runs only its own batch's tasks) that executes shot shards;
//!   thousands of small `run_compiled` calls amortize thread-spawn cost
//!   to ~zero,
//! * [`simd`] — explicit-width vector implementations of the 2×2 sweep's
//!   run primitives with runtime CPU-feature dispatch (AVX2 / NEON /
//!   scalar, `QSIM_SIMD` override), bit-identical across backends by a
//!   strict no-FMA, same-association contract,
//! * [`stabilizer`] — the bit-packed Aaronson–Gottesman tableau
//!   executor: Clifford-only programs (eligibility decided on first
//!   read, kept on the [`CompiledProgram`]) run in `O(n²)` memory,
//!   reaching thousands of qubits where amplitude backends stop near 30,
//! * [`hybrid`] — Clifford routing: the maximal Clifford prefix
//!   (recorded on first read) runs per shot on the tableau, the live
//!   state is materialized as amplitudes at the first non-Clifford
//!   island, and the separately compiled suffix finishes the shot on
//!   the amplitude executor,
//! * [`Draws`] — the per-shot draw contract: every random decision of
//!   every per-shot executor, and the raw draws it consumes,
//! * [`tree`] — outcome trees: each compiled program records the draw
//!   paths its shots took, and later shots on a recorded path replay
//!   its outcome instead of re-simulating, bit for bit,
//! * [`Backend`] implementations: [`StatevectorBackend`] (ideal),
//!   [`TrajectoryBackend`] (Monte-Carlo noisy, multi-threaded),
//!   [`DensityMatrixBackend`] (exact noisy with measurement branching),
//!   [`StabilizerBackend`] (Clifford tableau), and [`HybridBackend`]
//!   (tableau prefix + amplitude suffix) — all consuming
//!   [`CompiledProgram`] through a shared deterministic shot-sharding
//!   harness ([`run_compiled_sharded`]).
//!
//! # Bit conventions
//!
//! Qubit `i` is bit `i` (LSB) of a basis-state index; classical bit `i`
//! is bit `i` of a [`Counts`] key. Strings render MSB-first.
//!
//! # Example
//!
//! ```
//! use qsim::{Backend, DensityMatrixBackend};
//! use qcircuit::library;
//! use qnoise::presets;
//!
//! # fn main() -> Result<(), qsim::SimError> {
//! let mut bell = library::bell();
//! bell.measure_all();
//! let backend = DensityMatrixBackend::new(presets::ibmqx4());
//! let dist = backend.exact_distribution(&bell)?;
//! // Noise leaks probability into the odd-parity outcomes.
//! assert!(dist.probability(0b01) > 0.0);
//! # Ok(())
//! # }
//! ```

mod apply;
pub mod cache;
pub mod compile;
pub mod counts;
pub mod density;
pub mod draws;
pub mod error;
pub mod executor;
pub mod hybrid;
pub mod pool;
pub mod prefix;
pub mod program;
pub mod simd;
pub mod stabilizer;
pub mod statevector;
pub mod tree;

pub use cache::{CacheStats, ProgramCache, ProgramKey};
pub use compile::{
    compile, compile_extension, compile_with, extension_fusion_safe, CompileOptions,
};
pub use counts::{bitstring, key_from_str, Counts};
pub use density::DensityMatrix;
pub use draws::Draws;
pub use error::{CliffordBlock, SimError};
pub use executor::{
    run_compiled_sharded, run_compiled_sharded_on, run_compiled_sharded_scoped, run_compiled_shot,
    run_shot, shard_seed, sweep_point_seed, tranche_seed, Backend, BackendKind,
    DensityMatrixBackend, ExactDistribution, RunResult, ShotRecord, StatevectorBackend,
    TrajectoryBackend,
};
pub use hybrid::{run_hybrid_sharded, HybridBackend, MAX_HANDOFF_QUBITS};
pub use pool::{PoolGauges, PoolScope, PoolStats, ShardPool};
pub use prefix::PrefixRegistry;
pub use program::{CompiledKind, CompiledOp, CompiledProgram, FastPath, HybridPlan};
pub use simd::SimdBackend;
pub use stabilizer::{
    run_clifford_sharded, run_clifford_sharded_on, CliffordOp, CliffordOpKind, CliffordProgram,
    StabilizerBackend, Tableau,
};
pub use statevector::StateVector;
pub use tree::TreeStats;
