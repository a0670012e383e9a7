//! Circuit execution backends over the compiled execution layer.
//!
//! Five backends implement the common [`Backend`] trait through one
//! execution method, [`Backend::run_compiled_seeded`];
//! [`Backend::run_compiled`] and [`Backend::run`] are provided on top of
//! it. They mirror the paper's methodology (simulator verification, then
//! noisy hardware):
//!
//! * [`StatevectorBackend`] — ideal execution. Circuits whose only
//!   non-unitary operations are trailing measurements are evolved once and
//!   sampled; anything with mid-circuit measurement, reset, conditions, or
//!   post-selection falls back to per-shot execution.
//! * [`TrajectoryBackend`] — Monte-Carlo noisy execution: after each gate
//!   the pre-bound Kraus channels are sampled per shot; measurement
//!   outcomes pass through the pre-bound per-qubit readout error.
//! * [`DensityMatrixBackend`] — exact noisy execution: evolves a density
//!   matrix, branching on measurements (true outcome × recorded outcome)
//!   and pruning negligible branches. Produces the *exact* outcome
//!   distribution — this is what regenerates the paper's Tables 1–2
//!   without sampling noise — and deterministic largest-remainder counts.
//! * [`crate::StabilizerBackend`] — the bit-packed tableau for Clifford
//!   programs (see [`crate::stabilizer`]).
//! * [`crate::HybridBackend`] — the tableau for the Clifford prefix, then
//!   amplitudes from the first non-Clifford island on (see
//!   [`crate::hybrid`]).
//!
//! # Compile once, execute many
//!
//! Every backend lowers its circuit to a [`CompiledProgram`] exactly once
//! per [`Backend::run`] (or once per *analysis* when the caller compiles
//! explicitly via [`Backend::compile`] and reuses the program across
//! [`Backend::run_compiled`] calls). The per-shot hot loop walks the flat
//! compiled op stream — matrices pre-materialized, adjacent single-qubit
//! gates fused, noise channels pre-bound — and never touches
//! `QuantumCircuit` instructions or the `NoiseModel` again.
//!
//! Per-shot backends share one deterministic shot-sharding harness
//! ([`run_compiled_sharded`]): shards split `shots` evenly, each shard's
//! RNG stream is derived from the backend seed by [`shard_seed`], and
//! results are order-independently merged, so counts are identical for a
//! given `(seed, threads)` regardless of scheduling. Shards execute on
//! the persistent one-queue [`ShardPool`] — a
//! sweep issuing thousands of small [`Backend::run_compiled`] calls pays
//! thread spawn cost zero times, not once per call. The previous
//! scoped-thread strategy survives as [`run_compiled_sharded_scoped`],
//! the reference the equivalence suite pins pooled execution against.
//!
//! The backends run each shot through the program's outcome tree (see
//! [`crate::tree`]): a shot on a path an earlier shot recorded replays
//! that path's outcome, bit for bit, instead of re-simulating. The plain
//! entry points ([`run_compiled_sharded`] and its tableau and hybrid
//! counterparts) run every shot in full.
//!
//! The original instruction interpreter survives as [`run_shot`]: it is
//! the *reference semantics* the cross-backend equivalence suite compares
//! compiled execution against, and remains useful for one-off shots where
//! compilation would not amortize.

use crate::compile::{compile_with, CompileOptions};
use crate::counts::{Counts, Tally};
use crate::density::DensityMatrix;
use crate::draws::Draws;
use crate::error::SimError;
use crate::pool::ShardPool;
use crate::program::{CompiledKind, CompiledProgram};
use crate::statevector::StateVector;
use crate::tree::{OutcomeTree, Recorder};
use qcircuit::{Condition, Gate, OpKind, QuantumCircuit, QubitId};
use qnoise::{Kraus, NoiseModel, PauliTerm, ReadoutError};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Mutex;

/// Branches whose probability weight falls below this are pruned by the
/// exact executor.
const PRUNE_EPS: f64 = 1e-14;

/// The outcome of running a circuit on a backend.
#[derive(Clone, Debug, PartialEq)]
pub struct RunResult {
    /// Histogram over the circuit's classical bits.
    pub counts: Counts,
    /// Shots requested by the caller.
    pub shots_requested: u64,
    /// Shots discarded by post-selection instructions.
    pub shots_discarded: u64,
}

impl RunResult {
    /// Shots that produced a recorded outcome.
    pub fn shots_kept(&self) -> u64 {
        self.shots_requested - self.shots_discarded
    }

    /// The result of a per-shot run of `shots` shots that kept `counts`
    /// and discarded `discarded`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::AllShotsDiscarded`] when post-selection
    /// discarded every one of a non-zero number of shots.
    pub(crate) fn from_shots(
        shots: u64,
        (counts, discarded): (Counts, u64),
    ) -> Result<Self, SimError> {
        if shots > 0 && discarded == shots {
            return Err(SimError::AllShotsDiscarded);
        }
        Ok(RunResult {
            counts,
            shots_requested: shots,
            shots_discarded: discarded,
        })
    }
}

/// The simulation strategy a [`Backend`] implements, for telemetry and
/// session reports. Unlike [`Backend::name`] (free-form, configuration
/// dependent) this is a closed classification: report consumers match
/// on it to describe scaling (amplitudes vs density matrices vs
/// tableaus) without parsing names.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BackendKind {
    /// Per-shot state-vector amplitudes (`O(2^n)` memory).
    Statevector,
    /// Per-shot noisy state-vector trajectories (`O(2^n)` memory).
    Trajectory,
    /// Exact density-matrix evolution via branch enumeration.
    DensityMatrix,
    /// Bit-packed stabilizer tableau (`O(n²)` memory, Clifford-only).
    Stabilizer,
    /// Tableau for the maximal Clifford prefix, amplitude handoff at
    /// the first non-Clifford island, statevector for the suffix.
    Hybrid,
}

impl BackendKind {
    /// Stable lowercase identifier used in report JSON.
    pub fn as_str(self) -> &'static str {
        match self {
            BackendKind::Statevector => "statevector",
            BackendKind::Trajectory => "trajectory",
            BackendKind::DensityMatrix => "density-matrix",
            BackendKind::Stabilizer => "stabilizer",
            BackendKind::Hybrid => "hybrid",
        }
    }
}

impl std::fmt::Display for BackendKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A circuit execution engine.
///
/// Backends separate **lowering** ([`Backend::compile`], which binds the
/// backend's noise model and fuses gates) from **execution**
/// ([`Backend::run_compiled_seeded`], the one execution method every
/// backend implements). [`Backend::run`] is the compile-and-go
/// convenience; callers running one instrumented circuit many times
/// (e.g. the assertion runtime) compile once and reuse the program.
pub trait Backend {
    /// Human-readable backend name for reports.
    fn name(&self) -> &str;

    /// The backend's simulation strategy (see [`BackendKind`]).
    fn kind(&self) -> BackendKind;

    /// The noise model this backend binds at compile time (`None` for
    /// ideal lowering).
    fn noise_model(&self) -> Option<&NoiseModel> {
        None
    }

    /// The options this backend lowers with.
    fn compile_options(&self) -> CompileOptions {
        CompileOptions::default()
    }

    /// Lowers `circuit` for this backend: noise from
    /// [`Backend::noise_model`] pre-bound, gates fused according to
    /// [`Backend::compile_options`]. A [`crate::ProgramCache`] memoizes
    /// this exact call with `get_or_compile(circuit, noise_model(),
    /// compile_options())`.
    ///
    /// # Errors
    ///
    /// Returns a [`SimError`] when the circuit cannot be lowered (e.g.
    /// more than 64 classical bits).
    fn compile(&self, circuit: &QuantumCircuit) -> Result<CompiledProgram, SimError> {
        compile_with(circuit, self.noise_model(), self.compile_options())
    }

    /// Executes an already-compiled program for `shots` repetitions,
    /// overriding the backend's configured RNG seed and/or shard count
    /// for this run when given.
    ///
    /// This is the one execution method every backend implements.
    /// Session-style callers (`qassert::AssertionSession`) own the seed
    /// and thread policy and pass them here, so one session over one
    /// borrowed backend can issue each call under a different seed
    /// without rebuilding the backend. Sampling backends honor both
    /// overrides; the exact density-matrix executor draws no randomness
    /// and has no shards, so it ignores both.
    ///
    /// # Errors
    ///
    /// Returns a [`SimError`] when execution fails or every shot was
    /// discarded by post-selection.
    fn run_compiled_seeded(
        &self,
        program: &CompiledProgram,
        shots: u64,
        seed: Option<u64>,
        threads: Option<usize>,
    ) -> Result<RunResult, SimError>;

    /// Executes an already-compiled program for `shots` repetitions
    /// under the backend's configured seed and shard count.
    ///
    /// # Errors
    ///
    /// Returns a [`SimError`] when execution fails or every shot was
    /// discarded by post-selection.
    fn run_compiled(&self, program: &CompiledProgram, shots: u64) -> Result<RunResult, SimError> {
        self.run_compiled_seeded(program, shots, None, None)
    }

    /// Executes `circuit` for `shots` repetitions (compile + run).
    ///
    /// # Errors
    ///
    /// Returns a [`SimError`] when the circuit is malformed for this
    /// backend or every shot was discarded by post-selection.
    fn run(&self, circuit: &QuantumCircuit, shots: u64) -> Result<RunResult, SimError> {
        let program = self.compile(circuit)?;
        self.run_compiled(&program, shots)
    }

    /// The shard count this backend would actually run under a
    /// `threads` override — what session records report as the
    /// *effective* thread policy, as opposed to the requested one.
    ///
    /// The default echoes the request (per-shot backends honor
    /// overrides); backends with no shard concept override this to
    /// return `None` so reports stop claiming an override took effect
    /// when it was ignored.
    fn effective_threads(&self, requested: Option<usize>) -> Option<usize> {
        requested
    }
}

/// References to backends are backends. The methods a backend may
/// implement forward; the provided ones ([`Backend::compile`],
/// [`Backend::run_compiled`], [`Backend::run`]) are built on them. This
/// lets owning APIs like `qassert::AssertionSession` accept either a
/// moved backend or a borrow of one, `&dyn Backend` included.
impl<B: Backend + ?Sized> Backend for &B {
    fn name(&self) -> &str {
        (**self).name()
    }

    fn kind(&self) -> BackendKind {
        (**self).kind()
    }

    fn noise_model(&self) -> Option<&NoiseModel> {
        (**self).noise_model()
    }

    fn compile_options(&self) -> CompileOptions {
        (**self).compile_options()
    }

    fn run_compiled_seeded(
        &self,
        program: &CompiledProgram,
        shots: u64,
        seed: Option<u64>,
        threads: Option<usize>,
    ) -> Result<RunResult, SimError> {
        (**self).run_compiled_seeded(program, shots, seed, threads)
    }

    fn effective_threads(&self, requested: Option<usize>) -> Option<usize> {
        (**self).effective_threads(requested)
    }
}

/// One executed shot: the final pure state and the classical record.
#[derive(Clone, Debug)]
pub struct ShotRecord {
    /// The post-execution state vector.
    pub state: StateVector,
    /// The classical register (bit `i` = clbit `i`).
    pub clbits: u64,
}

/// Samples a Kraus operator of `channel` (Born-weighted) and applies it:
/// one [`Draws::pick`] when the channel has more than one operator, no
/// draw otherwise.
///
/// A channel with a [Pauli form](Kraus::pauli_form) picks over the
/// form's weights `|cᵢ|²`, its Born weights on every state, and applies
/// only the picked string's X, Y and Z factors, each as a gate through
/// the 2×2 sweep (exact up to the sign of zero): `cᵢ`'s global phase is
/// dropped and the identity string touches nothing. Any other channel
/// picks over `‖Kᵢψ‖²`, each computed on demand from a copy of the state,
/// and renormalizes the operator it applies.
fn sample_kraus<D: Draws + ?Sized>(
    state: &mut StateVector,
    channel: &Kraus,
    qubits: &[QubitId],
    draws: &mut D,
) -> Result<(), SimError> {
    let ops = channel.ops();
    if let Some(form) = channel.pauli_form() {
        if channel.num_qubits() != qubits.len() {
            return Err(SimError::MatrixDimensionMismatch {
                dim: ops[0].dim(),
                qubits: qubits.len(),
            });
        }
        let picked = if form.len() == 1 {
            0
        } else {
            draws.pick(form.iter().map(|op| op.weight))
        };
        for (j, qubit) in qubits.iter().enumerate() {
            let factor = match form[picked].term(j) {
                PauliTerm::I => continue,
                PauliTerm::X => Gate::X,
                PauliTerm::Y => Gate::Y,
                PauliTerm::Z => Gate::Z,
            };
            state.apply_gate(&factor, &[*qubit])?;
        }
        return Ok(());
    }
    if ops.len() == 1 {
        state.apply_matrix(&ops[0], qubits)?;
        state.normalize();
        return Ok(());
    }
    // Each weight costs a state clone, so the pick computes them on
    // demand and the last candidate computed is the one it chose. An
    // operator that does not fit the state ends the pick with its error.
    let mut chosen = None;
    draws.pick(ops.iter().map(|k| {
        let mut candidate = state.clone();
        let applied = candidate.apply_matrix(k, qubits);
        let weight = if applied.is_ok() {
            candidate.norm_sqr()
        } else {
            f64::INFINITY
        };
        chosen = Some(applied.map(|()| candidate));
        weight
    }));
    let mut candidate = chosen.expect("a Kraus channel has an operator")?;
    candidate.normalize();
    *state = candidate;
    Ok(())
}

/// Whether an op gated by `condition` runs under the classical record
/// `clbits`; an unconditioned op always runs.
pub(crate) fn condition_holds(condition: Option<Condition>, clbits: u64) -> bool {
    condition.is_none_or(|c| ((clbits >> c.clbit.index()) & 1 == 1) == c.value)
}

/// `clbits` with classical bit `clbit` set to `value`.
pub(crate) fn with_clbit(clbits: u64, clbit: usize, value: bool) -> u64 {
    (clbits & !(1 << clbit)) | (u64::from(value) << clbit)
}

/// The recorded bit of a measurement whose true outcome is `actual`:
/// one [`Draws::threshold`] on the flip probability when a readout
/// error is bound, no draw otherwise.
pub(crate) fn read_out<D: Draws + ?Sized>(
    actual: bool,
    readout: Option<ReadoutError>,
    draws: &mut D,
) -> bool {
    match readout {
        Some(r) => actual != draws.threshold(r.p_record(actual, !actual)),
        None => actual,
    }
}

/// Executes one shot of `circuit` by direct instruction interpretation;
/// returns `None` when a post-selection discarded the shot.
///
/// This is the **reference interpreter**: backends execute through
/// [`CompiledProgram`]s instead, and the equivalence suite checks that
/// compiled execution reproduces this function's outcomes bit-for-bit
/// under a shared RNG stream.
///
/// # Errors
///
/// Returns a [`SimError`] on malformed circuits.
pub fn run_shot<D: Draws + ?Sized>(
    circuit: &QuantumCircuit,
    noise: Option<&NoiseModel>,
    draws: &mut D,
) -> Result<Option<ShotRecord>, SimError> {
    if circuit.num_clbits() > 64 {
        return Err(SimError::TooManyClbits {
            num_clbits: circuit.num_clbits(),
        });
    }
    let mut state = StateVector::zero_state(circuit.num_qubits());
    let mut clbits = 0u64;
    for instr in circuit.instructions() {
        if !condition_holds(instr.condition(), clbits) {
            continue;
        }
        match instr.kind() {
            OpKind::Gate(g) => {
                state.apply_gate(g, instr.qubits())?;
                if let Some(model) = noise {
                    for applied in model.channels_for(instr) {
                        sample_kraus(&mut state, &applied.kraus, &applied.qubits, draws)?;
                    }
                }
            }
            OpKind::Measure => {
                let qubit = instr.qubits()[0];
                let actual = state.measure(qubit, draws)?;
                let readout = noise.map(|model| model.readout_error(qubit));
                let recorded = read_out(actual, readout, draws);
                clbits = with_clbit(clbits, instr.clbits()[0].index(), recorded);
            }
            OpKind::Reset => {
                state.reset(instr.qubits()[0], draws)?;
            }
            OpKind::Barrier => {}
            OpKind::PostSelect { outcome } => {
                let actual = state.measure(instr.qubits()[0], draws)?;
                if actual != *outcome {
                    return Ok(None);
                }
            }
        }
    }
    Ok(Some(ShotRecord { state, clbits }))
}

/// Executes a compiled program's whole op stream, one op at a time, on
/// an existing `(state, clbits)` pair; returns `Ok(false)` when a
/// post-selection discarded the shot. [`run_compiled_shot`] starts it
/// from `|0…0⟩`; the hybrid handoff starts its suffix program from the
/// tableau-extracted state and the prefix's classical record.
pub(crate) fn run_compiled_from<D: Draws + ?Sized>(
    program: &CompiledProgram,
    state: &mut StateVector,
    clbits: &mut u64,
    draws: &mut D,
) -> Result<bool, SimError> {
    for op in program.ops() {
        if !condition_holds(op.condition, *clbits) {
            continue;
        }
        match &op.kind {
            CompiledKind::Measure {
                qubit,
                clbit,
                readout,
            } => {
                let actual = state.measure(*qubit, draws)?;
                let recorded = read_out(actual, *readout, draws);
                *clbits = with_clbit(*clbits, *clbit, recorded);
            }
            CompiledKind::Reset { qubit } => state.reset(*qubit, draws)?,
            CompiledKind::PostSelect { qubit, outcome } => {
                let actual = state.measure(*qubit, draws)?;
                if actual != *outcome {
                    return Ok(false);
                }
            }
            unitary => {
                state.apply_unitary(unitary)?;
                for applied in &op.noise {
                    sample_kraus(state, &applied.kraus, &applied.qubits, draws)?;
                }
            }
        }
    }
    Ok(true)
}

/// Executes one shot of a compiled program; returns `None` when a
/// post-selection discarded the shot.
///
/// Consumes RNG draws in exactly the same order as [`run_shot`] does for
/// the source circuit, so seeded compiled and interpreted runs agree
/// shot-for-shot.
///
/// # Errors
///
/// Returns a [`SimError`] when a noise channel is malformed for the
/// program's width.
pub fn run_compiled_shot<D: Draws + ?Sized>(
    program: &CompiledProgram,
    draws: &mut D,
) -> Result<Option<ShotRecord>, SimError> {
    let mut state = StateVector::zero_state(program.num_qubits());
    let mut clbits = 0u64;
    if !run_compiled_from(program, &mut state, &mut clbits, draws)? {
        return Ok(None);
    }
    Ok(Some(ShotRecord { state, clbits }))
}

/// Evolves `state` through the unitary ops `[0, upto)` of `program`, one
/// op at a time. Used by the statevector sample-once fast path and
/// compiled statevector evolution.
fn evolve_unitary_prefix(
    program: &CompiledProgram,
    upto: usize,
    state: &mut StateVector,
) -> Result<(), SimError> {
    for op in &program.ops()[..upto] {
        state.apply_unitary(&op.kind)?;
    }
    Ok(())
}

/// The RNG seed of shard `t` under backend seed `seed`, identical across
/// all per-shot backends.
///
/// The golden-ratio offset is finalized with a SplitMix64-style mix:
/// without it, adjacent shard seeds would differ by exactly the gamma
/// `StdRng::seed_from_u64` uses for state expansion, leaving neighboring
/// shards' generator states 75% overlapped.
pub fn shard_seed(seed: u64, shard: usize) -> u64 {
    mix_stream(seed, 0x9E37_79B9_7F4A_7C15, shard)
}

/// The base seed of sweep point `point` under sweep seed `seed` — the
/// second dimension of the 2-D `(points × shots)` seed plan: a sweep
/// derives each point's backend seed here, and each point's shards then
/// derive their RNG streams from it via [`shard_seed`]. Points get
/// statistically independent streams while staying a pure function of
/// `(seed, point)`, so serial and parallel sweep execution are
/// bit-identical by construction.
///
/// Uses the same SplitMix64-style finalizer as [`shard_seed`] with a
/// distinct stream offset (Steele et al.'s alternate golden gamma), so
/// point-seed and shard-seed streams never collapse onto each other:
/// `shard_seed(sweep_point_seed(s, p), t)` mixes two decorrelated
/// offsets before the per-stream expansion.
pub fn sweep_point_seed(seed: u64, point: usize) -> u64 {
    mix_stream(seed, 0xD1B5_4A32_D192_ED03, point)
}

/// The base seed of shot tranche `tranche` under base seed `seed` — the
/// third dimension of the seed plan, used by sequential shot plans that
/// execute a point's budget in early-terminating tranches. Tranche `k`
/// of a run runs under `tranche_seed(base, k)`, and its shot shards then
/// derive their RNG streams from that via [`shard_seed`] exactly like a
/// fixed-budget run — so a sequential run's counts are a pure function
/// of `(base seed, tranche index, tranche size, threads)`, never of
/// timing or worker count.
///
/// Same SplitMix64-style finalizer as [`shard_seed`] and
/// [`sweep_point_seed`] with a third distinct stream offset, so
/// tranche-seed streams never collapse onto point- or shard-seed
/// streams: `shard_seed(tranche_seed(sweep_point_seed(s, p), k), t)`
/// mixes three decorrelated offsets before per-stream expansion.
pub fn tranche_seed(seed: u64, tranche: usize) -> u64 {
    mix_stream(seed, 0xA076_1D64_78BD_642F, tranche)
}

/// Stream `index` of `seed` under the stream offset `gamma`: the seed
/// XORed with `gamma · (index + 1)`, then the SplitMix64 finalizer.
fn mix_stream(seed: u64, gamma: u64, index: usize) -> u64 {
    let mut z = seed ^ gamma.wrapping_mul(index as u64 + 1);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The one shot loop, for every per-shot backend and the statevector
/// sample-once path: seeds the shard's stream and runs `shot` `shots`
/// times on the shard's `scratch` state. `shot` returns the shot's
/// clbits, or `None` when the shot is discarded.
///
/// With a `tree`, each shot first walks its recorded paths and runs
/// `shot` only at a branch nobody has recorded, recording the path into
/// a shard-local delta that is published when the shard ends (see
/// [`crate::tree`]). Walked or run, a shot takes the same draws.
fn run_shard<S>(
    num_clbits: usize,
    shots: u64,
    rng_seed: u64,
    tree: Option<&OutcomeTree>,
    mut scratch: S,
    shot: impl Fn(&mut S, &mut Recorder<'_>) -> Result<Option<u64>, SimError>,
) -> Result<(Counts, u64), SimError> {
    let mut rng = StdRng::seed_from_u64(rng_seed);
    let mut tally = Tally::new(num_clbits, shots);
    let mut discarded = 0u64;
    let mut delta = tree.map(OutcomeTree::delta);
    for _ in 0..shots {
        let outcome = match delta.as_mut() {
            Some(delta) => delta.shot(&mut rng, |draws| shot(&mut scratch, draws))?,
            None => shot(&mut scratch, &mut Recorder::plain(&mut rng))?,
        };
        match outcome {
            Some(clbits) => tally.push(clbits),
            None => discarded += 1,
        }
    }
    if let Some(delta) = delta {
        delta.publish();
    }
    Ok((tally.finish(), discarded))
}

/// The amplitude per-shot function. Each shot starts from a fresh
/// `|0…0⟩`, so the amplitude paths keep no scratch state.
fn compiled_clbits<D: Draws + ?Sized>(
    program: &CompiledProgram,
    draws: &mut D,
) -> Result<Option<u64>, SimError> {
    Ok(run_compiled_shot(program, draws)?.map(|record| record.clbits))
}

/// The number of shots in shard `t` of `threads` (even split, earlier
/// shards take the remainder).
fn shard_shots(shots: u64, threads: usize, t: usize) -> u64 {
    shots / threads as u64 + u64::from((t as u64) < shots % threads as u64)
}

/// One shard's result slot, written by a pool task and drained by the
/// submitting thread after the batch completes.
type ShardSlot = Mutex<Option<Result<(Counts, u64), SimError>>>;

/// Merges per-shard results in shard order, propagating the first error.
fn merge_shards(
    num_clbits: usize,
    results: impl IntoIterator<Item = Result<(Counts, u64), SimError>>,
) -> Result<(Counts, u64), SimError> {
    let mut counts = Counts::new(num_clbits);
    let mut discarded = 0u64;
    for r in results {
        let (c, d) = r?;
        counts.absorb(c);
        discarded += d;
    }
    Ok((counts, discarded))
}

/// The shared shot-sharding harness for per-shot backends.
///
/// Splits `shots` into `threads` shards (largest first), seeds shard `t`
/// with [`shard_seed`]`(seed, t)`, executes the shards on the
/// process-wide [`ShardPool`], and merges the per-shard
/// histograms in shard order. With `threads == 1` the backend seed
/// drives a single stream directly, preserving the single-threaded
/// behavior of earlier revisions.
///
/// `threads` is the **shard count**, not a worker count: it fixes the
/// seed derivation and shot split, so counts are bit-identical for a
/// given `(seed, threads)` regardless of how many pool workers execute
/// the shards — and bit-identical to the scoped-thread strategy this
/// replaced ([`run_compiled_sharded_scoped`]).
///
/// # Errors
///
/// Propagates the first shard's [`SimError`], if any.
pub fn run_compiled_sharded(
    program: &CompiledProgram,
    shots: u64,
    seed: u64,
    threads: usize,
) -> Result<(Counts, u64), SimError> {
    run_compiled_sharded_on(ShardPool::global(), program, shots, seed, threads)
}

/// [`run_compiled_sharded`] on an explicit pool (tests and benchmarks
/// pin determinism across pool sizes with this).
///
/// # Errors
///
/// Propagates the first shard's [`SimError`], if any.
pub fn run_compiled_sharded_on(
    pool: &ShardPool,
    program: &CompiledProgram,
    shots: u64,
    seed: u64,
    threads: usize,
) -> Result<(Counts, u64), SimError> {
    run_amplitudes(pool, program, None, shots, seed, threads)
}

/// The amplitude per-shot path on `pool`, walking `tree` when given:
/// the statevector and trajectory backends pass the program's amplitude
/// tree, [`run_compiled_sharded_on`] passes none.
fn run_amplitudes(
    pool: &ShardPool,
    program: &CompiledProgram,
    tree: Option<&OutcomeTree>,
    shots: u64,
    seed: u64,
    threads: usize,
) -> Result<(Counts, u64), SimError> {
    run_sharded_generic_on(
        pool,
        program.num_clbits(),
        shots,
        seed,
        threads,
        tree,
        || (),
        |_, draws| compiled_clbits(program, draws),
    )
}

/// The state-representation-agnostic core of the sharding harness:
/// splits `shots` into `threads` shards (largest first), runs each on
/// `pool` through the one shot loop, and merges the histograms in shard
/// order. Each shard gets its own stream from [`shard_seed`] and its own
/// `scratch()` state, which `shot` reuses across the shard's shots:
/// `()` for amplitudes, a [`crate::Tableau`] for the tableau and hybrid
/// paths. Every per-shot backend inherits the identical shot split and
/// seed derivation, so its counts are a pure function of
/// `(seed, threads)` under any pool size, with or without a `tree`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_sharded_generic_on<S>(
    pool: &ShardPool,
    num_clbits: usize,
    shots: u64,
    seed: u64,
    threads: usize,
    tree: Option<&OutcomeTree>,
    scratch: impl Fn() -> S + Sync,
    shot: impl Fn(&mut S, &mut Recorder<'_>) -> Result<Option<u64>, SimError> + Sync,
) -> Result<(Counts, u64), SimError> {
    let run = |n, rng_seed| run_shard(num_clbits, n, rng_seed, tree, scratch(), &shot);
    let threads = threads.min(shots.max(1) as usize).max(1);
    if threads == 1 {
        return run(shots, seed);
    }
    let slots: Vec<ShardSlot> = (0..threads).map(|_| Mutex::new(None)).collect();
    pool.run_batch(threads, |t| {
        let result = run(shard_shots(shots, threads, t), shard_seed(seed, t));
        *slots[t].lock().expect("shard slot") = Some(result);
    });
    merge_shards(
        num_clbits,
        slots.into_iter().map(|slot| {
            slot.into_inner()
                .expect("shard slot")
                .expect("batch ran every shard")
        }),
    )
}

/// The pre-pool sharding strategy: scoped worker threads spawned per
/// call. Retained as the **reference implementation** the equivalence
/// suite and the `perf` bench's `sweep` row compare the pooled
/// harness against — for any `(seed, threads)` both produce identical
/// counts; the pool only removes the per-call spawn cost.
///
/// # Errors
///
/// Propagates the first shard's [`SimError`], if any.
pub fn run_compiled_sharded_scoped(
    program: &CompiledProgram,
    shots: u64,
    seed: u64,
    threads: usize,
) -> Result<(Counts, u64), SimError> {
    let run = |n, rng_seed| {
        run_shard(program.num_clbits(), n, rng_seed, None, (), |_, draws| {
            compiled_clbits(program, draws)
        })
    };
    let threads = threads.min(shots.max(1) as usize).max(1);
    if threads == 1 {
        return run(shots, seed);
    }
    let results: Vec<Result<(Counts, u64), SimError>> = std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(threads);
        for t in 0..threads {
            let n = shard_shots(shots, threads, t);
            let rng_seed = shard_seed(seed, t);
            handles.push(scope.spawn(move || run(n, rng_seed)));
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("shard thread panicked"))
            .collect()
    });
    merge_shards(program.num_clbits(), results)
}

/// Ideal (noise-free) execution backend.
///
/// # Example
///
/// ```
/// use qsim::{Backend, StatevectorBackend};
/// use qcircuit::library;
///
/// # fn main() -> Result<(), qsim::SimError> {
/// let mut bell = library::bell();
/// bell.measure_all();
/// let result = StatevectorBackend::new().with_seed(7).run(&bell, 1000)?;
/// // Only 00 and 11 appear on an ideal machine.
/// assert_eq!(result.counts.get(0b01) + result.counts.get(0b10), 0);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct StatevectorBackend {
    seed: u64,
    threads: usize,
    fuse_1q: bool,
}

impl StatevectorBackend {
    /// Creates the backend with the default seed 0.
    pub fn new() -> Self {
        StatevectorBackend {
            seed: 0,
            threads: 1,
            fuse_1q: true,
        }
    }

    /// Sets the RNG seed (sampling is deterministic per seed).
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Shards per-shot execution across `threads` worker threads (only
    /// relevant for circuits that defeat the sample-once fast path).
    ///
    /// # Panics
    ///
    /// Panics when `threads == 0`.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        assert!(threads >= 1, "at least one thread required");
        self.threads = threads;
        self
    }

    /// Enables or disables single-qubit gate fusion (on by default; the
    /// off position exists for the equivalence suite and benchmarks).
    #[must_use]
    pub fn with_fusion(mut self, fuse: bool) -> Self {
        self.fuse_1q = fuse;
        self
    }

    /// Evolves the circuit's unitary prefix and returns the
    /// pre-measurement state. Errors if the circuit contains *any*
    /// non-unitary operation other than barriers (use
    /// [`QuantumCircuit::without_final_measurements`] first for sampled
    /// circuits).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Circuit`] when a measurement, reset,
    /// post-selection, or conditioned gate is present.
    pub fn statevector(&self, circuit: &QuantumCircuit) -> Result<StateVector, SimError> {
        // Classical wires are irrelevant to pure unitary evolution, so
        // lower a gate-only shadow circuit. This keeps analysis circuits
        // with more than 64 clbits valid — the 64-bit shot-record limit
        // only constrains the run paths.
        let mut shadow = QuantumCircuit::new(circuit.num_qubits(), 0);
        for instr in circuit.instructions() {
            if instr.condition().is_some() {
                return Err(SimError::Circuit(qcircuit::CircuitError::NotInvertible {
                    op: "conditioned gate",
                }));
            }
            match instr.kind() {
                OpKind::Gate(g) => {
                    shadow.gate(*g, instr.qubits().iter().copied())?;
                }
                OpKind::Barrier => {}
                other => {
                    return Err(SimError::Circuit(qcircuit::CircuitError::NotInvertible {
                        op: other.name(),
                    }));
                }
            }
        }
        let program = compile_with(&shadow, None, self.compile_options())?;
        self.statevector_compiled(&program)
    }

    /// Evolves an already-compiled unitary program from `|0…0⟩` (the
    /// compiled-program counterpart of [`StatevectorBackend::statevector`],
    /// used by sweep harnesses that compile through a
    /// [`ProgramCache`](crate::ProgramCache)).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Circuit`] when the program contains a
    /// non-unitary or conditioned op, or was compiled against a noise
    /// model — pure-state evolution cannot honor pre-bound channels,
    /// and silently dropping them would misrepresent a noisy program.
    pub fn statevector_compiled(&self, program: &CompiledProgram) -> Result<StateVector, SimError> {
        if program.is_noisy() {
            return Err(SimError::Circuit(qcircuit::CircuitError::NotInvertible {
                op: "noise-bound program",
            }));
        }
        for op in program.ops() {
            if !op.kind.is_unitary() || op.condition.is_some() {
                return Err(SimError::Circuit(qcircuit::CircuitError::NotInvertible {
                    op: op.kind.name(),
                }));
            }
        }
        let mut state = StateVector::zero_state(program.num_qubits());
        evolve_unitary_prefix(program, program.ops().len(), &mut state)?;
        Ok(state)
    }
}

impl Default for StatevectorBackend {
    fn default() -> Self {
        StatevectorBackend::new()
    }
}

impl Backend for StatevectorBackend {
    fn name(&self) -> &str {
        "statevector (ideal)"
    }

    fn kind(&self) -> BackendKind {
        BackendKind::Statevector
    }

    fn compile_options(&self) -> CompileOptions {
        CompileOptions {
            fuse_1q: self.fuse_1q,
        }
    }

    fn run_compiled_seeded(
        &self,
        program: &CompiledProgram,
        shots: u64,
        seed: Option<u64>,
        threads: Option<usize>,
    ) -> Result<RunResult, SimError> {
        let seed = seed.unwrap_or(self.seed);
        // The sample-once path is only sound for noise-free programs: a
        // caller may hand this ideal backend a program compiled against a
        // noise model, and those pre-bound channels only execute on the
        // per-shot path.
        if let (Some(fp), false) = (program.fast_path(), program.is_noisy()) {
            // Evolve the unitary prefix once, turn it into running sums
            // in place, then sample it once per shot, by binary search,
            // from one unsharded stream.
            let mut state = StateVector::zero_state(program.num_qubits());
            evolve_unitary_prefix(program, fp.unitary_prefix, &mut state)?;
            let sums = state.into_running_sums();
            let sampled = run_shard(
                program.num_clbits(),
                shots,
                seed,
                None,
                sums,
                |sums, draws| {
                    let idx = draws.search(&sums[..], |a| a.re);
                    let mut key = 0u64;
                    // Mask-then-set in measurement order so duplicate clbits
                    // are last-write-wins, matching per-shot execution.
                    for (q, c) in &fp.mapping {
                        key = with_clbit(key, *c, (idx >> q) & 1 == 1);
                    }
                    Ok(Some(key))
                },
            )?;
            return RunResult::from_shots(shots, sampled);
        }

        RunResult::from_shots(
            shots,
            run_amplitudes(
                ShardPool::global(),
                program,
                Some(&program.trees().amplitude),
                shots,
                seed,
                threads.unwrap_or(self.threads),
            )?,
        )
    }
}

/// Monte-Carlo noisy execution backend.
#[derive(Clone, Debug)]
pub struct TrajectoryBackend {
    noise: NoiseModel,
    seed: u64,
    threads: usize,
    fuse_1q: bool,
}

impl TrajectoryBackend {
    /// Creates the backend over a noise model.
    pub fn new(noise: NoiseModel) -> Self {
        TrajectoryBackend {
            noise,
            seed: 0,
            threads: 1,
            fuse_1q: true,
        }
    }

    /// Sets the RNG seed (results are deterministic per seed and thread
    /// count).
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Shards shots across `threads` worker threads.
    ///
    /// # Panics
    ///
    /// Panics when `threads == 0`.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        assert!(threads >= 1, "at least one thread required");
        self.threads = threads;
        self
    }

    /// Enables or disables single-qubit gate fusion (on by default;
    /// gates carrying noise channels never fuse past their channel).
    #[must_use]
    pub fn with_fusion(mut self, fuse: bool) -> Self {
        self.fuse_1q = fuse;
        self
    }

    /// The underlying noise model.
    pub fn noise(&self) -> &NoiseModel {
        &self.noise
    }
}

impl Backend for TrajectoryBackend {
    fn name(&self) -> &str {
        "trajectory (noisy)"
    }

    fn kind(&self) -> BackendKind {
        BackendKind::Trajectory
    }

    fn noise_model(&self) -> Option<&NoiseModel> {
        Some(&self.noise)
    }

    fn compile_options(&self) -> CompileOptions {
        CompileOptions {
            fuse_1q: self.fuse_1q,
        }
    }

    fn run_compiled_seeded(
        &self,
        program: &CompiledProgram,
        shots: u64,
        seed: Option<u64>,
        threads: Option<usize>,
    ) -> Result<RunResult, SimError> {
        RunResult::from_shots(
            shots,
            run_amplitudes(
                ShardPool::global(),
                program,
                Some(&program.trees().amplitude),
                shots,
                seed.unwrap_or(self.seed),
                threads.unwrap_or(self.threads),
            )?,
        )
    }
}

/// The exact outcome distribution of a circuit under a noise model.
#[derive(Clone, Debug)]
pub struct ExactDistribution {
    /// Classical width of the outcomes.
    pub num_clbits: usize,
    /// `(classical record, probability)` pairs sorted by record,
    /// normalized over *kept* (non-post-selected-away) weight.
    pub outcomes: Vec<(u64, f64)>,
    /// Total probability weight removed by post-selection.
    pub discarded_weight: f64,
}

impl ExactDistribution {
    /// The probability of one classical record.
    pub fn probability(&self, key: u64) -> f64 {
        self.outcomes
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, p)| *p)
            .unwrap_or(0.0)
    }
}

/// Exact noisy execution backend (density matrix with measurement
/// branching).
#[derive(Clone, Debug)]
pub struct DensityMatrixBackend {
    noise: Option<NoiseModel>,
    fuse_1q: bool,
}

/// One branch of the exact executor: a conditional mixed state with the
/// classical record that led to it.
#[derive(Clone, Debug)]
struct Branch {
    weight: f64,
    rho: DensityMatrix,
    clbits: u64,
}

impl DensityMatrixBackend {
    /// Creates an exact noisy backend.
    pub fn new(noise: NoiseModel) -> Self {
        DensityMatrixBackend {
            noise: Some(noise),
            fuse_1q: true,
        }
    }

    /// Creates an exact ideal backend.
    pub fn ideal() -> Self {
        DensityMatrixBackend {
            noise: None,
            fuse_1q: true,
        }
    }

    /// Enables or disables single-qubit gate fusion (on by default).
    #[must_use]
    pub fn with_fusion(mut self, fuse: bool) -> Self {
        self.fuse_1q = fuse;
        self
    }

    /// Computes the exact classical-outcome distribution of `circuit`
    /// (compiles, then evaluates).
    ///
    /// # Errors
    ///
    /// Returns a [`SimError`] for malformed circuits or when
    /// post-selection removes all probability weight.
    pub fn exact_distribution(
        &self,
        circuit: &QuantumCircuit,
    ) -> Result<ExactDistribution, SimError> {
        let program = Backend::compile(self, circuit)?;
        self.exact_distribution_compiled(&program)
    }

    /// Computes the exact classical-outcome distribution of an
    /// already-compiled program.
    ///
    /// # Errors
    ///
    /// Returns a [`SimError`] when post-selection removes all probability
    /// weight.
    pub fn exact_distribution_compiled(
        &self,
        program: &CompiledProgram,
    ) -> Result<ExactDistribution, SimError> {
        let reset_channel = Kraus::from_ops(vec![
            {
                // |0⟩⟨0|
                let mut m = qmath::CMatrix::zeros(2);
                m.set(0, 0, qmath::Complex::ONE);
                m
            },
            {
                // |0⟩⟨1|
                let mut m = qmath::CMatrix::zeros(2);
                m.set(0, 1, qmath::Complex::ONE);
                m
            },
        ]);

        let mut branches = vec![Branch {
            weight: 1.0,
            rho: DensityMatrix::zero_state(program.num_qubits()),
            clbits: 0,
        }];
        let mut discarded_weight = 0.0;

        for op in program.ops() {
            let mut next: Vec<Branch> = Vec::with_capacity(branches.len());
            for mut branch in branches {
                if !condition_holds(op.condition, branch.clbits) {
                    next.push(branch);
                    continue;
                }
                match &op.kind {
                    CompiledKind::Measure {
                        qubit,
                        clbit,
                        readout,
                    } => {
                        let p1 = branch.rho.probability_of_one(*qubit)?;
                        let readout = readout.unwrap_or_default();
                        for actual in [false, true] {
                            let p_actual = if actual { p1 } else { 1.0 - p1 };
                            if branch.weight * p_actual < PRUNE_EPS {
                                continue;
                            }
                            let mut projected = branch.rho.clone();
                            projected.project(*qubit, actual)?;
                            for recorded in [false, true] {
                                let p_rec = readout.p_record(actual, recorded);
                                let w = branch.weight * p_actual * p_rec;
                                if w < PRUNE_EPS {
                                    continue;
                                }
                                next.push(Branch {
                                    weight: w,
                                    rho: projected.clone(),
                                    clbits: with_clbit(branch.clbits, *clbit, recorded),
                                });
                            }
                        }
                    }
                    CompiledKind::Reset { qubit } => {
                        branch.rho.apply_kraus(&reset_channel, &[*qubit])?;
                        next.push(branch);
                    }
                    CompiledKind::PostSelect { qubit, outcome } => {
                        let p1 = branch.rho.probability_of_one(*qubit)?;
                        let p_keep = if *outcome { p1 } else { 1.0 - p1 };
                        discarded_weight += branch.weight * (1.0 - p_keep);
                        if branch.weight * p_keep < PRUNE_EPS {
                            continue;
                        }
                        branch.rho.project(*qubit, *outcome)?;
                        branch.weight *= p_keep;
                        next.push(branch);
                    }
                    unitary => {
                        branch.rho.apply_unitary(unitary)?;
                        for applied in &op.noise {
                            branch.rho.apply_kraus(&applied.kraus, &applied.qubits)?;
                        }
                        next.push(branch);
                    }
                }
            }
            branches = next;
        }

        let kept: f64 = branches.iter().map(|b| b.weight).sum();
        if kept < PRUNE_EPS {
            return Err(SimError::AllShotsDiscarded);
        }
        let mut grouped: std::collections::HashMap<u64, f64> = std::collections::HashMap::new();
        for b in &branches {
            *grouped.entry(b.clbits).or_insert(0.0) += b.weight / kept;
        }
        let mut outcomes: Vec<(u64, f64)> = grouped.into_iter().collect();
        outcomes.sort_unstable_by_key(|(k, _)| *k);
        Ok(ExactDistribution {
            num_clbits: program.num_clbits(),
            outcomes,
            discarded_weight,
        })
    }
}

impl Backend for DensityMatrixBackend {
    fn name(&self) -> &str {
        match &self.noise {
            Some(_) => "density matrix (exact noisy)",
            None => "density matrix (exact ideal)",
        }
    }

    fn kind(&self) -> BackendKind {
        BackendKind::DensityMatrix
    }

    fn noise_model(&self) -> Option<&NoiseModel> {
        self.noise.as_ref()
    }

    fn compile_options(&self) -> CompileOptions {
        CompileOptions {
            fuse_1q: self.fuse_1q,
        }
    }

    /// Exact evolution is single-pass and deterministic: a requested
    /// thread count is ignored, so the effective value is `None`
    /// whatever the session asked for.
    fn effective_threads(&self, _requested: Option<usize>) -> Option<usize> {
        None
    }

    /// Deterministic counts: expected shot counts from the exact
    /// distribution via largest-remainder rounding (no sampling noise).
    /// Nothing is sampled and nothing is sharded, so both overrides are
    /// ignored.
    fn run_compiled_seeded(
        &self,
        program: &CompiledProgram,
        shots: u64,
        _seed: Option<u64>,
        _threads: Option<usize>,
    ) -> Result<RunResult, SimError> {
        let dist = self.exact_distribution_compiled(program)?;
        let discarded = ((dist.discarded_weight * shots as f64).round() as u64).min(shots);
        let kept_shots = shots - discarded;

        // Largest-remainder apportionment of kept shots.
        let mut floored: Vec<(u64, u64, f64)> = dist
            .outcomes
            .iter()
            .map(|(k, p)| {
                let exact = p * kept_shots as f64;
                (*k, exact.floor() as u64, exact - exact.floor())
            })
            .collect();
        let assigned: u64 = floored.iter().map(|(_, f, _)| f).sum();
        let mut remainder = kept_shots.saturating_sub(assigned);
        floored.sort_by(|a, b| b.2.partial_cmp(&a.2).unwrap_or(std::cmp::Ordering::Equal));
        for entry in &mut floored {
            if remainder == 0 {
                break;
            }
            entry.1 += 1;
            remainder -= 1;
        }
        let counts =
            Counts::from_pairs(dist.num_clbits, floored.into_iter().map(|(k, n, _)| (k, n)));
        RunResult::from_shots(shots, (counts, discarded))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcircuit::library;
    use qnoise::{presets, ReadoutError};

    #[test]
    fn ideal_bell_sampling_only_hits_00_and_11() {
        let mut bell = library::bell();
        bell.measure_all();
        let result = StatevectorBackend::new()
            .with_seed(1)
            .run(&bell, 2000)
            .unwrap();
        assert_eq!(result.counts.total(), 2000);
        assert_eq!(result.counts.get(0b01), 0);
        assert_eq!(result.counts.get(0b10), 0);
        let p00 = result.counts.probability(0b00);
        assert!((p00 - 0.5).abs() < 0.05, "p00 = {p00}");
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let mut bell = library::bell();
        bell.measure_all();
        let a = StatevectorBackend::new()
            .with_seed(9)
            .run(&bell, 500)
            .unwrap();
        let b = StatevectorBackend::new()
            .with_seed(9)
            .run(&bell, 500)
            .unwrap();
        assert_eq!(a.counts, b.counts);
    }

    #[test]
    fn fast_path_and_slow_path_agree_statistically() {
        // Same circuit, one variant with a conditioned identity appended
        // to defeat the compile-time fast-path analysis.
        let mut fast = library::bell();
        fast.measure_all();
        let mut slow = library::bell();
        slow.measure_all();
        slow.gate_if(qcircuit::Gate::I, [0usize], 0, true).unwrap();
        let backend = StatevectorBackend::new();
        assert!(backend.compile(&fast).unwrap().fast_path().is_some());
        assert!(backend.compile(&slow).unwrap().fast_path().is_none());
        let fa = StatevectorBackend::new()
            .with_seed(2)
            .run(&fast, 4000)
            .unwrap();
        let sl = StatevectorBackend::new()
            .with_seed(3)
            .run(&slow, 4000)
            .unwrap();
        assert!(fa.counts.tvd(&sl.counts) < 0.05);
    }

    #[test]
    fn compile_once_run_many_reuses_the_program() {
        let mut bell = library::bell();
        bell.measure_all();
        let backend = StatevectorBackend::new().with_seed(4);
        let program = backend.compile(&bell).unwrap();
        let via_program = backend.run_compiled(&program, 600).unwrap();
        let via_circuit = backend.run(&bell, 600).unwrap();
        assert_eq!(via_program.counts, via_circuit.counts);
    }

    #[test]
    fn teleportation_transfers_state_ideal() {
        // Prepare q0 = |1⟩, teleport onto q2, measure q2.
        let mut c = qcircuit::QuantumCircuit::new(3, 3);
        c.x(0).unwrap();
        let teleport = library::teleportation();
        c.compose(
            &teleport,
            &[0.into(), 1.into(), 2.into()],
            &[0.into(), 1.into()],
        )
        .unwrap();
        c.measure(2, 2).unwrap();
        let result = StatevectorBackend::new().with_seed(4).run(&c, 300).unwrap();
        // Bit 2 of every outcome must be 1.
        for (key, n) in result.counts.iter() {
            assert!(
                n == 0 || (key >> 2) & 1 == 1,
                "teleported bit wrong in {key:03b}"
            );
        }
    }

    #[test]
    fn post_selection_discards_and_errors_when_impossible() {
        let mut c = qcircuit::QuantumCircuit::new(1, 1);
        c.h(0)
            .unwrap()
            .post_select(0, true)
            .unwrap()
            .measure(0, 0)
            .unwrap();
        let result = StatevectorBackend::new()
            .with_seed(5)
            .run(&c, 1000)
            .unwrap();
        assert!(result.shots_discarded > 300 && result.shots_discarded < 700);
        assert_eq!(result.counts.get(0), 0);
        assert_eq!(result.counts.get(1), result.shots_kept());

        let mut imp = qcircuit::QuantumCircuit::new(1, 0);
        imp.post_select(0, true).unwrap();
        assert_eq!(
            StatevectorBackend::new().run(&imp, 100).unwrap_err(),
            SimError::AllShotsDiscarded
        );
    }

    #[test]
    fn statevector_slow_path_shards_deterministically() {
        let mut c = qcircuit::QuantumCircuit::new(2, 2);
        c.h(0).unwrap();
        c.measure(0, 0).unwrap();
        c.cx(0, 1).unwrap(); // mid-circuit measurement: per-shot path
        c.measure(1, 1).unwrap();
        let a = StatevectorBackend::new()
            .with_seed(3)
            .with_threads(4)
            .run(&c, 999)
            .unwrap();
        let b = StatevectorBackend::new()
            .with_seed(3)
            .with_threads(4)
            .run(&c, 999)
            .unwrap();
        assert_eq!(a.counts, b.counts);
        assert_eq!(a.counts.total(), 999);
        // Outcomes stay correlated through the sharded path.
        assert_eq!(a.counts.get(0b01) + a.counts.get(0b10), 0);
    }

    #[test]
    fn trajectory_ideal_noise_matches_statevector() {
        let mut bell = library::bell();
        bell.measure_all();
        let traj = TrajectoryBackend::new(presets::ideal())
            .with_seed(6)
            .run(&bell, 3000)
            .unwrap();
        assert_eq!(traj.counts.get(0b01) + traj.counts.get(0b10), 0);
        assert!((traj.counts.probability(0b00) - 0.5).abs() < 0.05);
    }

    #[test]
    fn trajectory_depolarizing_pollutes_bell() {
        let mut bell = library::bell();
        bell.measure_all();
        let noise = presets::uniform(2, 0.0, 0.3, 0.0).unwrap();
        let result = TrajectoryBackend::new(noise)
            .with_seed(7)
            .run(&bell, 4000)
            .unwrap();
        let bad = result.counts.get(0b01) + result.counts.get(0b10);
        assert!(bad > 100, "expected depolarizing leakage, got {bad}");
    }

    #[test]
    fn trajectory_readout_error_flips_outcomes() {
        let mut c = qcircuit::QuantumCircuit::new(1, 1);
        c.measure(0, 0).unwrap();
        let mut noise = qnoise::NoiseModel::new();
        noise.with_readout_error(0, ReadoutError::new(0.25, 0.0).unwrap());
        let result = TrajectoryBackend::new(noise)
            .with_seed(8)
            .run(&c, 8000)
            .unwrap();
        let p1 = result.counts.probability(1);
        assert!((p1 - 0.25).abs() < 0.02, "p1 = {p1}");
    }

    #[test]
    fn trajectory_threading_is_deterministic_and_complete() {
        let mut ghz = library::ghz(3);
        ghz.measure_all();
        let noise = presets::uniform(3, 0.01, 0.05, 0.02).unwrap();
        let a = TrajectoryBackend::new(noise.clone())
            .with_seed(11)
            .with_threads(4)
            .run(&ghz, 1001)
            .unwrap();
        let b = TrajectoryBackend::new(noise)
            .with_seed(11)
            .with_threads(4)
            .run(&ghz, 1001)
            .unwrap();
        assert_eq!(a.counts, b.counts);
        assert_eq!(a.counts.total(), 1001);
    }

    #[test]
    fn density_ideal_bell_distribution_is_exact() {
        let mut bell = library::bell();
        bell.measure_all();
        let dist = DensityMatrixBackend::ideal()
            .exact_distribution(&bell)
            .unwrap();
        assert_eq!(dist.outcomes.len(), 2);
        assert!((dist.probability(0b00) - 0.5).abs() < 1e-12);
        assert!((dist.probability(0b11) - 0.5).abs() < 1e-12);
        assert_eq!(dist.discarded_weight, 0.0);
    }

    #[test]
    fn density_counts_are_deterministic_largest_remainder() {
        let mut bell = library::bell();
        bell.measure_all();
        let result = DensityMatrixBackend::ideal().run(&bell, 1001).unwrap();
        assert_eq!(result.counts.total(), 1001);
        let diff = result.counts.get(0b00).abs_diff(result.counts.get(0b11));
        assert!(diff <= 1);
    }

    #[test]
    fn density_readout_error_shifts_distribution_exactly() {
        let mut c = qcircuit::QuantumCircuit::new(1, 1);
        c.measure(0, 0).unwrap();
        let mut noise = qnoise::NoiseModel::new();
        noise.with_readout_error(0, ReadoutError::new(0.1, 0.0).unwrap());
        let dist = DensityMatrixBackend::new(noise)
            .exact_distribution(&c)
            .unwrap();
        assert!((dist.probability(1) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn density_matches_trajectory_on_noisy_bell() {
        let mut bell = library::bell();
        bell.measure_all();
        let noise = presets::uniform(2, 0.01, 0.08, 0.03).unwrap();
        let exact = DensityMatrixBackend::new(noise.clone())
            .run(&bell, 1 << 16)
            .unwrap();
        let sampled = TrajectoryBackend::new(noise)
            .with_seed(13)
            .with_threads(2)
            .run(&bell, 1 << 16)
            .unwrap();
        let tvd = exact.counts.tvd(&sampled.counts);
        assert!(tvd < 0.01, "trajectory diverges from exact: tvd = {tvd}");
    }

    #[test]
    fn density_post_selection_tracks_discarded_weight() {
        let mut c = qcircuit::QuantumCircuit::new(1, 1);
        c.h(0)
            .unwrap()
            .post_select(0, false)
            .unwrap()
            .measure(0, 0)
            .unwrap();
        let dist = DensityMatrixBackend::ideal()
            .exact_distribution(&c)
            .unwrap();
        assert!((dist.discarded_weight - 0.5).abs() < 1e-12);
        assert!((dist.probability(0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn density_conditioned_gates_follow_classical_record() {
        // Teleport |1⟩: conditioned corrections must fire.
        let mut c = qcircuit::QuantumCircuit::new(3, 3);
        c.x(0).unwrap();
        let teleport = library::teleportation();
        c.compose(
            &teleport,
            &[0.into(), 1.into(), 2.into()],
            &[0.into(), 1.into()],
        )
        .unwrap();
        c.measure(2, 2).unwrap();
        let dist = DensityMatrixBackend::ideal()
            .exact_distribution(&c)
            .unwrap();
        // Marginal of bit 2 must be deterministic 1.
        let p_bit2: f64 = dist
            .outcomes
            .iter()
            .filter(|(k, _)| (k >> 2) & 1 == 1)
            .map(|(_, p)| p)
            .sum();
        assert!((p_bit2 - 1.0).abs() < 1e-10);
    }

    #[test]
    fn density_reset_returns_qubit_to_zero() {
        let mut c = qcircuit::QuantumCircuit::new(1, 1);
        c.h(0).unwrap();
        c.reset(0).unwrap();
        c.measure(0, 0).unwrap();
        let dist = DensityMatrixBackend::ideal()
            .exact_distribution(&c)
            .unwrap();
        assert!((dist.probability(0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn mid_circuit_measurement_correlates_with_later_gates() {
        // Measure q0 in superposition, then CX from q0: outcome bits of
        // q0 and q1 must agree.
        let mut c = qcircuit::QuantumCircuit::new(2, 2);
        c.h(0).unwrap();
        c.measure(0, 0).unwrap();
        c.cx(0, 1).unwrap();
        c.measure(1, 1).unwrap();
        let dist = DensityMatrixBackend::ideal()
            .exact_distribution(&c)
            .unwrap();
        assert!((dist.probability(0b00) - 0.5).abs() < 1e-12);
        assert!((dist.probability(0b11) - 0.5).abs() < 1e-12);
        assert_eq!(dist.probability(0b01), 0.0);
    }

    #[test]
    fn backend_names_are_distinct() {
        assert_ne!(
            StatevectorBackend::new().name(),
            DensityMatrixBackend::ideal().name()
        );
        assert_ne!(
            TrajectoryBackend::new(presets::ideal()).name(),
            DensityMatrixBackend::new(presets::ideal()).name()
        );
    }

    #[test]
    fn fast_path_duplicate_clbits_are_last_write_wins() {
        // Two trailing measurements into the same clbit: per-shot
        // semantics keep the later one (qubit 0 = |0⟩), and the
        // sample-once fast path must agree.
        let mut c = qcircuit::QuantumCircuit::new(2, 1);
        c.x(1).unwrap();
        c.measure(1, 0).unwrap();
        c.measure(0, 0).unwrap();
        let backend = StatevectorBackend::new().with_seed(3);
        assert!(backend.compile(&c).unwrap().fast_path().is_some());
        let fast = backend.run(&c, 100).unwrap();
        assert_eq!(fast.counts.get(0), 100, "later measurement must win");

        // Same circuit with the fast path defeated agrees.
        let mut slow = c.clone();
        slow.gate_if(qcircuit::Gate::I, [0usize], 0, true).unwrap();
        let slow_result = backend.run(&slow, 100).unwrap();
        assert_eq!(fast.counts, slow_result.counts);
    }

    #[test]
    fn noisy_programs_skip_the_ideal_fast_path() {
        // A program compiled against a noise model carries pre-bound
        // readout errors; the ideal backend must not take the
        // sample-once path (which would silently drop them).
        let mut c = qcircuit::QuantumCircuit::new(1, 1);
        c.measure(0, 0).unwrap();
        let mut noise = qnoise::NoiseModel::new();
        noise.with_readout_error(0, ReadoutError::new(0.25, 0.0).unwrap());
        let program = crate::compile::compile(&c, Some(&noise)).unwrap();
        assert!(program.fast_path().is_some() && program.is_noisy());
        let result = StatevectorBackend::new()
            .with_seed(2)
            .run_compiled(&program, 8000)
            .unwrap();
        let p1 = result.counts.probability(1);
        assert!((p1 - 0.25).abs() < 0.02, "readout noise dropped: p1 = {p1}");
    }

    #[test]
    fn statevector_compiled_rejects_noisy_programs() {
        // Pure-state evolution cannot apply pre-bound channels; handing
        // a noisy-compiled program over must error, not silently return
        // the ideal state.
        let mut c = qcircuit::QuantumCircuit::new(1, 0);
        c.h(0).unwrap();
        let mut noise = qnoise::NoiseModel::new();
        noise.with_default_1q(qnoise::Kraus::depolarizing(0.1).unwrap());
        let program = crate::compile::compile(&c, Some(&noise)).unwrap();
        assert!(program.is_noisy());
        assert!(StatevectorBackend::new()
            .statevector_compiled(&program)
            .is_err());
        // The same circuit compiled ideally evolves fine.
        let ideal = crate::compile::compile(&c, None).unwrap();
        assert!(StatevectorBackend::new()
            .statevector_compiled(&ideal)
            .is_ok());
    }

    #[test]
    fn shard_seeds_are_distinct_and_stable() {
        let s: Vec<u64> = (0..8).map(|t| shard_seed(42, t)).collect();
        let mut dedup = s.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), 8);
        // threads == 1 uses the backend seed directly, not shard 0.
        assert_ne!(shard_seed(42, 0), 42);
    }

    #[test]
    fn conditions_match_a_hand_written_table() {
        let on = |clbit: u32, value| {
            Some(Condition {
                clbit: qcircuit::ClbitId::new(clbit),
                value,
            })
        };
        let conditions = [
            None,
            on(0, true),
            on(0, false),
            on(1, true),
            on(1, false),
            on(63, true),
            on(63, false),
        ];
        // One row per record, one column per condition above.
        let table: [(u64, [bool; 7]); 3] = [
            (0, [true, false, true, false, true, false, true]),
            (u64::MAX, [true, true, false, true, false, true, false]),
            (
                0xAAAA_AAAA_AAAA_AAAA,
                [true, false, true, true, false, true, false],
            ),
        ];
        for (clbits, expected) in table {
            for (condition, want) in conditions.iter().zip(expected) {
                assert_eq!(
                    condition_holds(*condition, clbits),
                    want,
                    "{condition:?} on {clbits:#x}"
                );
            }
        }
    }

    #[test]
    fn read_out_matches_a_hand_written_table() {
        use crate::draws::tests::{raw, Script};
        // A true 0 reads as 1 at rate 0.125, a true 1 as 0 at 0.375: a
        // flip exactly when the draw is below the true outcome's rate.
        let readout = ReadoutError::new(0.125, 0.375).unwrap();
        let draws = [0.0625, 0.125, 0.25, 0.375, 0.5];
        let table = [
            (false, [true, false, false, false, false]),
            (true, [false, false, false, true, true]),
        ];
        for (actual, recorded) in table {
            for (u, want) in draws.into_iter().zip(recorded) {
                let mut script = Script::new(&[raw(u)]);
                let got = read_out(actual, Some(readout), &mut script);
                assert_eq!(got, want, "{actual} at u = {u}");
                assert_eq!(script.taken, 1, "a bound readout draws once");
            }
            let mut script = Script::new(&[]);
            assert_eq!(read_out(actual, None, &mut script), actual);
            assert_eq!(script.taken, 0, "no readout draws nothing");
        }
    }
}
