//! Stabilizer tableau backend: Clifford circuits at thousands of qubits.
//!
//! This module is the fourth [`Backend`]: instead of `2^n` amplitudes it
//! tracks the `O(n²)`-bit Aaronson–Gottesman tableau of
//! [`tableau::Tableau`], so assertion-instrumented circuits built
//! entirely from Clifford gates (H/S/S†/√X/√X†/Paulis/CX/CY/CZ/SWAP),
//! measurements, resets and post-selections run at qubit counts the
//! amplitude backends cannot represent — 1,024-qubit GHZ parity checks
//! included.
//!
//! # Eligibility is decided once per compiled program
//!
//! The first read of [`CompiledProgram::clifford`] classifies every
//! **source** instruction with [`qcircuit::Gate::clifford_kind`] and
//! lowers every channel the program's noise model binds to a gate
//! through [`qnoise::Kraus::as_pauli_channel`]; the verdict — a
//! [`CliffordProgram`] or the first [`CliffordBlock`] — is then kept on
//! the [`CompiledProgram`], so a program the amplitude backends run
//! never pays for it. [`StabilizerBackend`] surfaces an ineligible
//! program as [`SimError::NotClifford`] without running a single shot,
//! so `ProgramCache`, `ShardPool`, sweeps and sessions compose
//! unchanged: one cached compilation serves all backends.
//!
//! Pauli noise channels become **stochastic Pauli injections**: a
//! channel whose Kraus operators are scaled Pauli strings is sampled
//! per shot and applied as tableau X/Y/Z conjugations. Readout errors
//! are bound by the scan and sampled per measurement, as on the
//! amplitude backends.
//!
//! # Bit-exactness contract
//!
//! A seeded stabilizer run's counts are a pure function of
//! `(program, seed, threads)` — never of pool workers, sweep policy or
//! timing. The shot split and per-shard RNG streams come from the same
//! [`crate::shard_seed`] harness every per-shot backend uses, and each
//! shot draws per the frozen contract of [`Draws`], pinned by golden
//! seed-stream vectors. Cross-backend agreement with the amplitude
//! executors is distributional, pinned by the equivalence suite.

mod extract;
mod gates;
mod measure;
pub mod tableau;

pub use tableau::Tableau;

use crate::compile::CompileOptions;
use crate::counts::Counts;
use crate::draws::Draws;
use crate::error::{CliffordBlock, SimError};
use crate::executor::{
    condition_holds, read_out, run_sharded_generic_on, with_clbit, Backend, BackendKind, RunResult,
};
use crate::pool::ShardPool;
use crate::program::CompiledProgram;
use crate::tree::OutcomeTree;
use qcircuit::{CliffordKind, Condition, OpKind, QuantumCircuit};
use qnoise::{NoiseModel, PauliTerm, ReadoutError};
use std::sync::Arc;

/// Tolerance for recognizing a Kraus operator as a scaled Pauli string.
const PAULI_TOL: f64 = 1e-9;

/// A noise channel lowered to stochastic Pauli injections.
#[derive(Clone, Debug, PartialEq)]
pub struct PauliNoise {
    /// The circuit qubits the channel acts on, channel-local order.
    pub qubits: Vec<usize>,
    /// `(probability, Pauli string)` table; entry `j` of a string acts
    /// on `qubits[j]`. Probabilities sum to 1.
    pub table: Vec<(f64, Vec<PauliTerm>)>,
}

impl PauliNoise {
    /// Samples one Pauli string and conjugates it into the tableau.
    /// A one-entry table draws nothing, like a single-operator Kraus
    /// channel.
    fn inject<D: Draws + ?Sized>(&self, t: &mut Tableau, draws: &mut D) {
        let chosen = if self.table.len() == 1 {
            0
        } else {
            draws.pick(self.table.iter().map(|(p, _)| *p))
        };
        for (j, term) in self.table[chosen].1.iter().enumerate() {
            match term {
                PauliTerm::I => {}
                PauliTerm::X => t.x(self.qubits[j]),
                PauliTerm::Y => t.y(self.qubits[j]),
                PauliTerm::Z => t.z(self.qubits[j]),
            }
        }
    }
}

/// One lowered Clifford-eligible operation.
#[derive(Clone, Debug, PartialEq)]
pub enum CliffordOpKind {
    /// A classified Clifford gate on its operand qubits.
    Gate {
        /// The gate's exact classification.
        kind: CliffordKind,
        /// Operand qubits (1 or 2 entries).
        qubits: Vec<usize>,
    },
    /// Projective Z measurement into a classical bit.
    Measure {
        /// The measured qubit.
        qubit: usize,
        /// The classical bit receiving the (possibly noisy) outcome.
        clbit: usize,
        /// Readout error bound by the scan (`None` under ideal
        /// lowering — no readout randomness is drawn at all).
        readout: Option<ReadoutError>,
    },
    /// Reset a qubit to `|0⟩`.
    Reset {
        /// The reset qubit.
        qubit: usize,
    },
    /// Post-selection: measure and discard the shot on mismatch.
    PostSelect {
        /// The post-selected qubit.
        qubit: usize,
        /// The required outcome.
        outcome: bool,
    },
}

/// A [`CliffordOpKind`] with its classical condition and lowered noise.
#[derive(Clone, Debug, PartialEq)]
pub struct CliffordOp {
    /// The operation.
    pub kind: CliffordOpKind,
    /// Classical condition gating the op (condition unsatisfied ⇒ the
    /// op **and its noise** are skipped, like the amplitude backends).
    pub condition: Option<Condition>,
    /// Pauli channels fired after the op (gates only).
    pub noise: Vec<PauliNoise>,
}

/// The Clifford lowering of a compiled program: the tableau-executable
/// op stream the stabilizer backend runs.
#[derive(Clone, Debug, PartialEq)]
pub struct CliffordProgram {
    num_qubits: usize,
    num_clbits: usize,
    ops: Vec<CliffordOp>,
}

impl CliffordProgram {
    /// Qubit count.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// Classical register width.
    pub fn num_clbits(&self) -> usize {
        self.num_clbits
    }

    /// The lowered op stream.
    pub fn ops(&self) -> &[CliffordOp] {
        &self.ops
    }
}

/// Lowers one source instruction, or names it as the blocker.
/// `Ok(None)` is a barrier (compiles away). A gate's channels are bound
/// here, after its classification, so a scan binds nothing past its
/// blocker.
fn lower_clifford_instr(
    i: usize,
    instr: &qcircuit::Instruction,
    noise: Option<&NoiseModel>,
) -> Result<Option<CliffordOp>, CliffordBlock> {
    let condition = instr.condition();
    let (kind, noise_ops) = match instr.kind() {
        OpKind::Barrier => return Ok(None),
        OpKind::Gate(g) => {
            let kind = g.clifford_kind().ok_or(CliffordBlock::NonCliffordGate {
                gate: g.name().to_string(),
                instruction: i,
            })?;
            let bound = noise.map_or_else(Vec::new, |m| m.channels_for(instr));
            let mut lowered = Vec::with_capacity(bound.len());
            for applied in &bound {
                let table = applied.kraus.as_pauli_channel(PAULI_TOL).ok_or(
                    CliffordBlock::NonPauliChannel {
                        op: g.name().to_string(),
                        instruction: i,
                    },
                )?;
                lowered.push(PauliNoise {
                    qubits: applied.qubits.iter().map(|q| q.index()).collect(),
                    table,
                });
            }
            (
                CliffordOpKind::Gate {
                    kind,
                    qubits: instr.qubits().iter().map(|q| q.index()).collect(),
                },
                lowered,
            )
        }
        OpKind::Measure => (
            CliffordOpKind::Measure {
                qubit: instr.qubits()[0].index(),
                clbit: instr.clbits()[0].index(),
                readout: noise.map(|m| m.readout_error(instr.qubits()[0])),
            },
            Vec::new(),
        ),
        OpKind::Reset => (
            CliffordOpKind::Reset {
                qubit: instr.qubits()[0].index(),
            },
            Vec::new(),
        ),
        OpKind::PostSelect { outcome } => (
            CliffordOpKind::PostSelect {
                qubit: instr.qubits()[0].index(),
                outcome: *outcome,
            },
            Vec::new(),
        ),
    };
    Ok(Some(CliffordOp {
        kind,
        condition,
        noise: noise_ops,
    }))
}

/// The Clifford-eligibility scan's verdict: the whole circuit's
/// lowering, or the first blocking instruction together with the
/// maximal Clifford prefix, the lowered ops of every instruction before
/// it at the full circuit's register widths, which a hybrid plan shares.
pub(crate) type CliffordScan = Result<CliffordProgram, (CliffordBlock, Arc<CliffordProgram>)>;

/// The Clifford-eligibility pass: classifies every source instruction
/// (exact per gate; fusion would erase it) and lowers every channel
/// `noise` binds to a gate, stopping at the first blocker.
pub(crate) fn lower_clifford_scan(
    circuit: &QuantumCircuit,
    noise: Option<&NoiseModel>,
) -> CliffordScan {
    let instrs = circuit.instructions();
    let mut ops = Vec::with_capacity(instrs.len());
    let mut verdict = Ok(());
    for (i, instr) in instrs.iter().enumerate() {
        match lower_clifford_instr(i, instr, noise) {
            Ok(Some(op)) => ops.push(op),
            Ok(None) => {}
            Err(block) => {
                verdict = Err(block);
                break;
            }
        }
    }
    let program = CliffordProgram {
        num_qubits: circuit.num_qubits(),
        num_clbits: circuit.num_clbits(),
        ops,
    };
    match verdict {
        Ok(()) => Ok(program),
        Err(block) => Err((block, Arc::new(program))),
    }
}

/// Executes one shot on `tableau`, which it first resets to `|0…0⟩`;
/// returns `None` when a post-selection discarded the shot. Draws per
/// the contract of [`Draws`].
///
/// `pub(crate)` so the hybrid backend can drive the same loop for the
/// Clifford prefix of a routed program (carrying the clbits across the
/// handoff).
pub(crate) fn run_clifford_shot<D: Draws + ?Sized>(
    program: &CliffordProgram,
    tableau: &mut Tableau,
    draws: &mut D,
) -> Option<u64> {
    tableau.reset_state();
    let mut clbits = 0u64;
    for op in program.ops() {
        if !condition_holds(op.condition, clbits) {
            continue;
        }
        match &op.kind {
            CliffordOpKind::Gate { kind, qubits } => {
                tableau.apply_clifford(*kind, qubits);
                for channel in &op.noise {
                    channel.inject(tableau, draws);
                }
            }
            CliffordOpKind::Measure {
                qubit,
                clbit,
                readout,
            } => {
                let actual = tableau.measure(*qubit, draws);
                clbits = with_clbit(clbits, *clbit, read_out(actual, *readout, draws));
            }
            CliffordOpKind::Reset { qubit } => tableau.reset_qubit(*qubit, draws),
            CliffordOpKind::PostSelect { qubit, outcome } => {
                if !tableau.postselect(*qubit, *outcome, draws) {
                    return None;
                }
            }
        }
    }
    Some(clbits)
}

/// Shot-sharded Clifford execution on the process-wide [`ShardPool`]:
/// the same shot loop, shot split and [`crate::shard_seed`] derivation
/// as [`crate::run_compiled_sharded`], with one tableau per shard.
///
/// # Errors
///
/// Infallible at runtime today (eligibility was decided before the
/// call); the `Result` mirrors the amplitude harness for forward
/// compatibility.
pub fn run_clifford_sharded(
    program: &CliffordProgram,
    shots: u64,
    seed: u64,
    threads: usize,
) -> Result<(Counts, u64), SimError> {
    run_clifford_sharded_on(ShardPool::global(), program, shots, seed, threads)
}

/// [`run_clifford_sharded`] on an explicit pool (tests pin determinism
/// across pool sizes with this).
///
/// # Errors
///
/// Infallible at runtime today; see [`run_clifford_sharded`].
pub fn run_clifford_sharded_on(
    pool: &ShardPool,
    program: &CliffordProgram,
    shots: u64,
    seed: u64,
    threads: usize,
) -> Result<(Counts, u64), SimError> {
    run_clifford(pool, program, None, shots, seed, threads)
}

/// The tableau path on `pool`, walking `tree` when given: the
/// stabilizer and hybrid backends pass the compiled program's tableau
/// tree, [`run_clifford_sharded_on`] passes none.
pub(crate) fn run_clifford(
    pool: &ShardPool,
    program: &CliffordProgram,
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
        || Tableau::new(program.num_qubits()),
        |tableau, draws| Ok(run_clifford_shot(program, tableau, draws)),
    )
}

/// Stabilizer tableau execution backend (Clifford circuits only).
///
/// Compiles through the shared pipeline — so cached programs are shared
/// with every other backend — and executes the program's
/// [`CliffordProgram`] lowering. Programs without one fail with
/// [`SimError::NotClifford`] before any shot runs.
///
/// # Example
///
/// ```
/// use qsim::{Backend, StabilizerBackend};
/// use qcircuit::library;
///
/// # fn main() -> Result<(), qsim::SimError> {
/// let mut bell = library::bell();
/// bell.measure_all();
/// let result = StabilizerBackend::ideal().with_seed(7).run(&bell, 1000)?;
/// assert_eq!(result.counts.get(0b01) + result.counts.get(0b10), 0);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct StabilizerBackend {
    noise: Option<NoiseModel>,
    seed: u64,
    threads: usize,
}

impl StabilizerBackend {
    /// An ideal (noise-free) stabilizer backend.
    pub fn ideal() -> Self {
        StabilizerBackend {
            noise: None,
            seed: 0,
            threads: 1,
        }
    }

    /// A noisy stabilizer backend: `noise` is bound at compile time;
    /// its Pauli channels become stochastic Pauli injections and its
    /// readout errors are sampled per measurement. Channels that are
    /// not Pauli channels make every program ineligible.
    pub fn new(noise: NoiseModel) -> Self {
        StabilizerBackend {
            noise: Some(noise),
            seed: 0,
            threads: 1,
        }
    }

    /// Sets the RNG seed (default 0). Runs with equal
    /// `(program, seed, threads)` produce bit-identical counts.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the shard count (default 1). Like the other per-shot
    /// backends this fixes the seed derivation, not the worker count.
    ///
    /// # Panics
    ///
    /// Panics when `threads` is 0.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        assert!(threads > 0, "thread count must be at least 1");
        self.threads = threads;
        self
    }
}

impl Default for StabilizerBackend {
    fn default() -> Self {
        StabilizerBackend::ideal()
    }
}

impl Backend for StabilizerBackend {
    fn name(&self) -> &str {
        match &self.noise {
            Some(_) => "stabilizer (noisy tableau)",
            None => "stabilizer (ideal tableau)",
        }
    }

    fn kind(&self) -> BackendKind {
        BackendKind::Stabilizer
    }

    fn noise_model(&self) -> Option<&NoiseModel> {
        self.noise.as_ref()
    }

    fn compile_options(&self) -> CompileOptions {
        CompileOptions::default()
    }

    fn run_compiled_seeded(
        &self,
        program: &CompiledProgram,
        shots: u64,
        seed: Option<u64>,
        threads: Option<usize>,
    ) -> Result<RunResult, SimError> {
        let clifford = program
            .clifford()
            .map_err(|block| SimError::NotClifford(block.clone()))?;
        RunResult::from_shots(
            shots,
            run_clifford(
                ShardPool::global(),
                clifford,
                Some(&program.trees().tableau),
                shots,
                seed.unwrap_or(self.seed),
                threads.unwrap_or(self.threads),
            )?,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_the_ideal_backend() {
        assert_eq!(
            format!("{:?}", StabilizerBackend::default()),
            format!("{:?}", StabilizerBackend::ideal())
        );
    }
}
