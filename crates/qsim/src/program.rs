//! The compiled program representation.
//!
//! A [`CompiledProgram`] is the executable form of a
//! [`qcircuit::QuantumCircuit`]: a flat stream of [`CompiledOp`]s with
//! every per-shot lookup already resolved —
//!
//! * gate matrices are **pre-materialized** ([`Mat2`] for single-qubit
//!   and controlled gates, [`CMatrix`] for wider unitaries), so the hot
//!   loop never dispatches on [`qcircuit::Gate`] variants or rebuilds a
//!   matrix,
//! * runs of adjacent single-qubit gates on one wire are **fused** into a
//!   single 2×2 matrix by [`crate::compile`](mod@crate::compile),
//! * noise channels from a [`qnoise::NoiseModel`] are **pre-bound** to
//!   the op they follow ([`CompiledOp::noise`]), replacing the per-gate
//!   per-shot `channels_for` lookup,
//! * each measurement carries its **pre-bound readout error**,
//! * statevector **fast-path eligibility** (only trailing measurements,
//!   nothing conditioned, no reset/post-selection) is decided once at
//!   compile time ([`CompiledProgram::fast_path`]).
//!
//! Backends execute this structure through the shared sharding harness in
//! [`crate::executor`]; none of them walk raw circuit instructions per
//! shot anymore.

use crate::batch::BatchPlan;
use crate::error::CliffordBlock;
use crate::stabilizer::CliffordProgram;
use crate::tree::{TreeStats, Trees};
use qcircuit::{Condition, QubitId};
use qmath::{CMatrix, Complex, Mat2};
use qnoise::{AppliedChannel, ReadoutError};

/// What one compiled op does (matrices pre-materialized).
#[derive(Clone, Debug)]
pub enum CompiledKind {
    /// A single-qubit unitary — possibly the fusion of several source
    /// gates.
    Unitary1q {
        /// The target qubit.
        qubit: QubitId,
        /// The (possibly fused) 2×2 unitary.
        matrix: Mat2,
        /// How many source gates this op absorbs (1 = unfused).
        fused: usize,
    },
    /// A controlled single-qubit unitary (CX, CZ, CY, CH, CP lower to
    /// this form).
    Controlled1q {
        /// The control qubit.
        control: QubitId,
        /// The target qubit.
        target: QubitId,
        /// The 2×2 unitary applied to the target when the control is set.
        matrix: Mat2,
    },
    /// A general `k`-qubit unitary (SWAP, CCX, CSWAP).
    UnitaryK {
        /// The qubits, gate-local order (qubit `j` is local bit `j`).
        qubits: Vec<QubitId>,
        /// The `2^k × 2^k` unitary.
        matrix: CMatrix,
    },
    /// Projective measurement into a classical bit.
    Measure {
        /// The measured qubit.
        qubit: QubitId,
        /// The classical bit receiving the (possibly noisy) outcome.
        clbit: usize,
        /// The readout error pre-bound at compile time (`None` when
        /// compiled without a noise model — the ideal executors draw no
        /// readout randomness at all).
        readout: Option<ReadoutError>,
    },
    /// Reset a qubit to `|0⟩`.
    Reset {
        /// The reset qubit.
        qubit: QubitId,
    },
    /// Simulator-only post-selection.
    PostSelect {
        /// The post-selected qubit.
        qubit: QubitId,
        /// The required outcome.
        outcome: bool,
    },
}

impl CompiledKind {
    /// Returns `true` for unitary ops.
    pub fn is_unitary(&self) -> bool {
        matches!(
            self,
            CompiledKind::Unitary1q { .. }
                | CompiledKind::Controlled1q { .. }
                | CompiledKind::UnitaryK { .. }
        )
    }

    /// The op's mnemonic (mirrors [`qcircuit::OpKind::name`]).
    pub fn name(&self) -> &'static str {
        match self {
            CompiledKind::Unitary1q { .. } => "unitary1q",
            CompiledKind::Controlled1q { .. } => "controlled1q",
            CompiledKind::UnitaryK { .. } => "unitaryk",
            CompiledKind::Measure { .. } => "measure",
            CompiledKind::Reset { .. } => "reset",
            CompiledKind::PostSelect { .. } => "post_select",
        }
    }

    /// The full unitary matrix of a unitary op in its local qubit order
    /// (used by the density-matrix executor), or `None` for non-unitary
    /// ops.
    ///
    /// For [`CompiledKind::Controlled1q`] the embedding matches
    /// `qcircuit::Gate::matrix` exactly (control = local bit 0, target =
    /// local bit 1), so compiled execution reproduces interpreted
    /// execution bit-for-bit.
    pub fn unitary_matrix(&self) -> Option<(Vec<QubitId>, CMatrix)> {
        match self {
            CompiledKind::Unitary1q { qubit, matrix, .. } => {
                Some((vec![*qubit], matrix.to_cmatrix()))
            }
            CompiledKind::Controlled1q {
                control,
                target,
                matrix,
            } => {
                let mut m = CMatrix::zeros(4);
                m.set(0, 0, Complex::ONE);
                m.set(2, 2, Complex::ONE);
                m.set(1, 1, matrix.a);
                m.set(1, 3, matrix.b);
                m.set(3, 1, matrix.c);
                m.set(3, 3, matrix.d);
                Some((vec![*control, *target], m))
            }
            CompiledKind::UnitaryK { qubits, matrix } => Some((qubits.clone(), matrix.clone())),
            _ => None,
        }
    }
}

/// One executable op: the operation, an optional classical condition, and
/// the noise channels to apply after it.
#[derive(Clone, Debug)]
pub struct CompiledOp {
    /// The operation.
    pub kind: CompiledKind,
    /// Classical condition gating execution (evaluated per shot/branch).
    pub condition: Option<Condition>,
    /// Noise channels pre-bound to this op, in application order.
    pub noise: Vec<AppliedChannel>,
}

/// The statevector sample-once fast path, decided at compile time.
#[derive(Clone, Debug)]
pub struct FastPath {
    /// Ops `[0, unitary_prefix)` are unconditioned unitaries; everything
    /// after is a trailing measurement.
    pub unitary_prefix: usize,
    /// `(qubit bit, clbit bit)` of each trailing measurement.
    pub mapping: Vec<(usize, usize)>,
}

/// The hybrid Clifford routing decided at compile time: how a program
/// that is *not* Clifford-eligible splits at its first non-Clifford
/// island.
///
/// The maximal Clifford prefix (everything before the blocking
/// instruction) runs per shot on the stabilizer tableau; at the
/// boundary the live state is materialized as amplitudes
/// ([`crate::Tableau::to_statevector`]) and the separately compiled
/// suffix finishes the shot on the amplitude executor — batched/SIMD
/// kernels included. [`Self::profitable`] carries the compile-time cost
/// verdict; the hybrid backend falls back to the pure statevector path
/// when it is `false`.
#[derive(Clone, Debug)]
pub struct HybridPlan {
    prefix: CliffordProgram,
    block: CliffordBlock,
    suffix: Box<CompiledProgram>,
    profitable: bool,
}

impl HybridPlan {
    /// Assembles a plan (called by the compiler's hybrid analysis).
    pub(crate) fn new(
        prefix: CliffordProgram,
        block: CliffordBlock,
        suffix: Box<CompiledProgram>,
        profitable: bool,
    ) -> Self {
        HybridPlan {
            prefix,
            block,
            suffix,
            profitable,
        }
    }

    /// The maximal Clifford prefix, lowered for the tableau (full
    /// register widths — clbits written here are carried across the
    /// handoff).
    pub fn prefix(&self) -> &CliffordProgram {
        &self.prefix
    }

    /// Source-circuit index of the first non-Clifford instruction (the
    /// cut point; instructions `[0, boundary)` are the prefix).
    pub fn boundary(&self) -> usize {
        self.block.instruction()
    }

    /// The first non-Clifford instruction, where the prefix ends.
    pub(crate) fn block(&self) -> &CliffordBlock {
        &self.block
    }

    /// The suffix `[boundary..]`, compiled standalone at full register
    /// widths (its own fusion runs and batch plan, starting from the
    /// handed-off state rather than `|0…0⟩`).
    pub fn suffix(&self) -> &CompiledProgram {
        &self.suffix
    }

    /// Whether the compile-time cost model expects the tableau prefix +
    /// extraction to beat replaying the prefix on amplitudes.
    pub fn profitable(&self) -> bool {
        self.profitable
    }
}

/// A circuit lowered once for execute-many workloads.
///
/// Build one with [`crate::compile::compile`] (or through
/// [`crate::Backend::compile`], which binds the backend's noise model).
#[derive(Clone, Debug)]
pub struct CompiledProgram {
    num_qubits: usize,
    num_clbits: usize,
    ops: Vec<CompiledOp>,
    fast_path: Option<FastPath>,
    batch_plan: Option<BatchPlan>,
    source_instructions: usize,
    fused_gates: usize,
    clifford: Result<CliffordProgram, CliffordBlock>,
    hybrid: Option<HybridPlan>,
    trees: Trees,
}

impl CompiledProgram {
    /// Assembles a program (called by the compiler).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        num_qubits: usize,
        num_clbits: usize,
        ops: Vec<CompiledOp>,
        fast_path: Option<FastPath>,
        batch_plan: Option<BatchPlan>,
        source_instructions: usize,
        fused_gates: usize,
        clifford: Result<CliffordProgram, CliffordBlock>,
        hybrid: Option<HybridPlan>,
    ) -> Self {
        CompiledProgram {
            num_qubits,
            num_clbits,
            ops,
            fast_path,
            batch_plan,
            source_instructions,
            fused_gates,
            clifford,
            hybrid,
            trees: Trees::default(),
        }
    }

    /// Number of qubits.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// Number of classical bits.
    pub fn num_clbits(&self) -> usize {
        self.num_clbits
    }

    /// The executable op stream.
    pub fn ops(&self) -> &[CompiledOp] {
        &self.ops
    }

    /// The sample-once fast path, when the source circuit's only
    /// non-unitary operations are trailing measurements.
    pub fn fast_path(&self) -> Option<&FastPath> {
        self.fast_path.as_ref()
    }

    /// The batched execution schedule planned at compile time (`None`
    /// when compiled with batching off, or when nothing in the stream
    /// batches — executors then walk the flat op stream as before).
    pub fn batch_plan(&self) -> Option<&BatchPlan> {
        self.batch_plan.as_ref()
    }

    /// Ops covered by batched plan nodes (0 without a plan).
    pub fn batched_ops(&self) -> usize {
        self.batch_plan.as_ref().map_or(0, BatchPlan::batched_ops)
    }

    /// Blocked apply passes per shot — the number of batched plan nodes
    /// (0 without a plan).
    pub fn batch_passes(&self) -> usize {
        self.batch_plan.as_ref().map_or(0, BatchPlan::passes)
    }

    /// Instructions in the source circuit (including barriers, which
    /// compile away).
    pub fn source_instructions(&self) -> usize {
        self.source_instructions
    }

    /// Source gates eliminated by single-qubit fusion.
    pub fn fused_gates(&self) -> usize {
        self.fused_gates
    }

    /// The program's Clifford lowering — the tableau op stream the
    /// stabilizer backend executes — or the first blocking instruction
    /// when the program is ineligible. Decided once at compile time,
    /// like the statevector fast path.
    pub fn clifford(&self) -> Result<&CliffordProgram, &CliffordBlock> {
        self.clifford.as_ref()
    }

    /// Returns `true` when the stabilizer backend can run this program.
    pub fn is_clifford(&self) -> bool {
        self.clifford.is_ok()
    }

    /// The hybrid Clifford routing plan, present exactly when the
    /// program is *not* Clifford-eligible but has a non-empty maximal
    /// Clifford prefix before its first non-Clifford island. Decided at
    /// compile time like the other analyses; the hybrid backend
    /// consults [`HybridPlan::profitable`] before using it.
    pub fn hybrid(&self) -> Option<&HybridPlan> {
        self.hybrid.as_ref()
    }

    /// The program's outcome trees, one per draw contract (see
    /// [`crate::tree`]).
    pub(crate) fn trees(&self) -> &Trees {
        &self.trees
    }

    /// What the program's outcome trees have done so far, summed over
    /// its draw contracts. The counts depend on history (earlier calls,
    /// and other threads sharing the program), never on a result.
    pub fn tree_stats(&self) -> TreeStats {
        self.trees.stats()
    }

    /// Returns `true` when any op carries pre-bound noise or readout
    /// error.
    pub fn is_noisy(&self) -> bool {
        self.ops.iter().any(|op| {
            !op.noise.is_empty()
                || matches!(
                    op.kind,
                    CompiledKind::Measure {
                        readout: Some(_),
                        ..
                    }
                )
        })
    }
}

impl std::fmt::Display for CompiledProgram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "compiled program ({} qubits, {} clbits): {} ops from {} instructions, {} gates fused{}{}{}",
            self.num_qubits,
            self.num_clbits,
            self.ops.len(),
            self.source_instructions,
            self.fused_gates,
            match &self.batch_plan {
                Some(plan) => format!(
                    ", {} ops batched into {} passes",
                    plan.batched_ops(),
                    plan.passes()
                ),
                None => String::new(),
            },
            match (&self.fast_path, &self.clifford) {
                (Some(_), Ok(_)) => ", sample-once fast path, clifford-eligible",
                (Some(_), Err(_)) => ", sample-once fast path",
                (None, Ok(_)) => ", clifford-eligible",
                (None, Err(_)) => "",
            },
            match &self.hybrid {
                Some(plan) if plan.profitable() => format!(
                    ", hybrid clifford prefix of {} instructions",
                    plan.boundary()
                ),
                _ => String::new(),
            }
        )
    }
}
