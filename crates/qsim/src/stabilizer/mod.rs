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
//! keeps every channel the program's noise model binds to a gate when
//! it has a [Pauli form](qnoise::Kraus::pauli_form) whose weights sum
//! to 1 within `1e-9`. The verdict — a [`CliffordProgram`] or the first
//! [`CliffordBlock`] — is then kept on the [`CompiledProgram`], so a
//! program the amplitude backends run never pays for it. [`StabilizerBackend`] surfaces an ineligible
//! program as [`SimError::NotClifford`] without running a single shot,
//! so `ProgramCache`, `ShardPool`, sweeps and sessions compose
//! unchanged: one cached compilation serves all backends.
//!
//! Pauli noise channels become **stochastic Pauli injections**: each
//! shot samples one string of the channel's Pauli form, the same form a
//! trajectory shot samples, and applies it as tableau X/Y/Z
//! conjugations. Readout errors are bound by the scan and sampled per
//! measurement, as on the amplitude backends.
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
use qnoise::{AppliedChannel, Kraus, NoiseModel, PauliTerm, ReadoutError};
use std::sync::Arc;

/// Samples one string of `channel`'s Pauli form and conjugates it into
/// the tableau. Operators of weight 0 never fire: when one operator is
/// left it applies without a draw, otherwise one [`Draws::pick`] runs
/// over the remaining weights in operator order.
fn inject<D: Draws + ?Sized>(t: &mut Tableau, channel: &AppliedChannel, draws: &mut D) {
    let form = channel
        .kraus
        .pauli_form()
        .expect("the Clifford scan keeps only channels with a Pauli form");
    let live = || form.iter().filter(|op| op.weight > 0.0);
    let picked = if live().count() == 1 {
        0
    } else {
        draws.pick(live().map(|op| op.weight))
    };
    let op = live().nth(picked).expect("a pick lands on a live operator");
    for (j, qubit) in channel.qubits.iter().enumerate() {
        match op.term(j) {
            PauliTerm::I => {}
            PauliTerm::X => t.x(qubit.index()),
            PauliTerm::Y => t.y(qubit.index()),
            PauliTerm::Z => t.z(qubit.index()),
        }
    }
}

/// Whether the tableau can inject `channel`: it has a Pauli form whose
/// weights sum to 1 within `1e-9`.
fn injectable(channel: &Kraus) -> bool {
    channel
        .pauli_form()
        .is_some_and(|form| (form.iter().map(|op| op.weight).sum::<f64>() - 1.0).abs() <= 1e-9)
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
    /// Channels fired after the op (gates only), each bound as on the
    /// amplitude ops and each with a Pauli form.
    pub noise: Vec<AppliedChannel>,
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
            if !bound.iter().all(|applied| injectable(&applied.kraus)) {
                return Err(CliffordBlock::NonPauliChannel {
                    op: g.name().to_string(),
                    instruction: i,
                });
            }
            (
                CliffordOpKind::Gate {
                    kind,
                    qubits: instr.qubits().iter().map(|q| q.index()).collect(),
                },
                bound,
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
/// (exact per gate; fusion would erase it) and checks every channel
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
                    inject(tableau, channel, draws);
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
    /// its channels with an exact Pauli form become stochastic Pauli
    /// injections and its readout errors are sampled per measurement.
    /// Any other channel makes every program that binds it ineligible.
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
    use crate::draws::tests::{raw, Script};
    use qcircuit::Gate;

    /// One shot of a Bell pair whose qubit 0 passes an `id` gate bound
    /// to `channel`, decoded superdense: the record holds the injected
    /// string's Z part in bit 0 and its X part in bit 1. `pick` scripts
    /// the injection's draw, if it takes one; the two readouts (ideal,
    /// but bound with the model) take one draw each after it. Returns
    /// the record and the draws the injection took.
    fn decoded(channel: Kraus, pick: Option<f64>) -> (u64, usize) {
        let mut noise = NoiseModel::new();
        noise.with_gate_error("id", channel);
        let mut c = QuantumCircuit::new(2, 2);
        c.h(0)
            .unwrap()
            .cx(0, 1)
            .unwrap()
            .gate(Gate::I, [0])
            .unwrap();
        c.cx(0, 1).unwrap().h(0).unwrap();
        c.measure(0, 0).unwrap().measure(1, 1).unwrap();
        let program = lower_clifford_scan(&c, Some(&noise)).unwrap();
        let scripted: Vec<u64> = pick.into_iter().chain([0.5, 0.5]).map(raw).collect();
        let mut script = Script::new(&scripted);
        let record = run_clifford_shot(&program, &mut Tableau::new(2), &mut script).unwrap();
        assert_eq!(script.taken, scripted.len(), "every scripted draw taken");
        (record, script.taken - 2)
    }

    #[test]
    fn injection_picks_over_the_nonzero_operators_only() {
        let (i, x, y, z) = (0b00, 0b10, 0b11, 0b01);
        // One nonzero operator applies without a draw, wherever it sits.
        assert_eq!(decoded(Kraus::bit_flip(0.0).unwrap(), None), (i, 0));
        let only_y = Kraus::pauli_channel(0.0, 1.0, 0.0).unwrap();
        assert_eq!(decoded(only_y, None), (y, 0));
        // Several take one draw over their weights in operator order:
        // I 0.25, X 0.25, Y 0, Z 0.5.
        let channel = Kraus::pauli_channel(0.25, 0.0, 0.5).unwrap();
        for (u, string) in [(0.0, i), (0.25, x), (0.5, z), (0.75, z)] {
            assert_eq!(decoded(channel.clone(), Some(u)), (string, 1), "u = {u}");
        }
        // I 0.95, X 0.01 and Y 0.04 sum one ulp short of 1, so the
        // largest draw passes their running total: it lands on Y, the
        // last nonzero operator, not on Z of weight 0 after it.
        let channel = Kraus::pauli_channel(0.01, 0.04, 0.0).unwrap();
        let total: f64 = channel
            .pauli_form()
            .unwrap()
            .iter()
            .map(|op| op.weight)
            .sum();
        let largest = 1.0 - f64::EPSILON / 2.0;
        assert!(total <= largest, "total {total}");
        assert_eq!(decoded(channel, Some(largest)), (y, 1));
    }

    #[test]
    fn default_is_the_ideal_backend() {
        assert_eq!(
            format!("{:?}", StabilizerBackend::default()),
            format!("{:?}", StabilizerBackend::ideal())
        );
    }
}
