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
//! The tableau-side analyses, the Clifford lowering
//! ([`CompiledProgram::clifford`]) and the hybrid routing plan
//! ([`CompiledProgram::hybrid`]), are built from the program's source
//! circuit and noise model the first time a caller reads them, then
//! kept on the program: only the stabilizer and hybrid backends read
//! them, so a program the amplitude backends run never builds them.
//!
//! Backends execute this structure through the shared sharding harness in
//! [`crate::executor`], one op at a time; none of them walk raw circuit
//! instructions per shot anymore.

use crate::compile::CompileOptions;
use crate::error::CliffordBlock;
use crate::stabilizer::{CliffordProgram, CliffordScan};
use crate::tree::{TreeStats, Trees};
use qcircuit::{Condition, QuantumCircuit, QubitId};
use qmath::{CMatrix, Mat2};
use qnoise::{AppliedChannel, NoiseModel, ReadoutError};
use std::sync::{Arc, OnceLock};

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

/// The hybrid Clifford routing of a compiled program: how a program
/// that is *not* Clifford-eligible splits at its first non-Clifford
/// island. [`CompiledProgram::hybrid`] builds it on first read and keeps
/// it on the program.
///
/// The maximal Clifford prefix (everything before the blocking
/// instruction) runs per shot on the stabilizer tableau; at the
/// boundary the live state is materialized as amplitudes
/// ([`crate::Tableau::to_statevector`]) and the separately compiled
/// suffix finishes the shot on the amplitude executor.
/// [`Self::profitable`] carries the cost model's verdict; the hybrid
/// backend falls back to the pure statevector path when it is `false`.
#[derive(Clone, Debug)]
pub struct HybridPlan {
    prefix: Arc<CliffordProgram>,
    block: CliffordBlock,
    suffix: Box<CompiledProgram>,
    profitable: bool,
}

impl HybridPlan {
    /// Assembles a plan (called by the hybrid analysis).
    pub(crate) fn new(
        prefix: Arc<CliffordProgram>,
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
    /// widths (its own fusion runs, starting from the handed-off state
    /// rather than `|0…0⟩`).
    pub fn suffix(&self) -> &CompiledProgram {
        &self.suffix
    }

    /// Whether the routing cost model expects the tableau prefix +
    /// extraction to beat replaying the prefix on amplitudes.
    pub fn profitable(&self) -> bool {
        self.profitable
    }
}

/// A circuit lowered once for execute-many workloads.
///
/// Build one with [`crate::compile::compile`] (or through
/// [`crate::Backend::compile`], which binds the backend's noise model).
/// One program serves every backend: the amplitude lowering is built at
/// compile time, the tableau-side analyses on first read.
#[derive(Clone, Debug)]
pub struct CompiledProgram {
    ops: Vec<CompiledOp>,
    fast_path: Option<FastPath>,
    fused_gates: usize,
    /// What the tableau-side analyses read: the source circuit and the
    /// noise model and options it was lowered under. A cloned model
    /// shares its channels' operators, so keeping it copies no matrix.
    source: QuantumCircuit,
    noise: Option<NoiseModel>,
    options: CompileOptions,
    /// The Clifford-eligibility scan, built by the first
    /// [`Self::clifford`] or [`Self::hybrid`] read.
    clifford: OnceLock<CliffordScan>,
    /// The hybrid routing analysis, built by the first [`Self::hybrid`]
    /// read.
    hybrid: OnceLock<Option<HybridPlan>>,
    trees: Trees,
}

impl CompiledProgram {
    /// Assembles a program (called by the compiler) from the amplitude
    /// lowering of `source` under `noise` and `options`.
    pub(crate) fn new(
        source: QuantumCircuit,
        noise: Option<NoiseModel>,
        options: CompileOptions,
        ops: Vec<CompiledOp>,
        fast_path: Option<FastPath>,
        fused_gates: usize,
    ) -> Self {
        CompiledProgram {
            ops,
            fast_path,
            fused_gates,
            source,
            noise,
            options,
            clifford: OnceLock::new(),
            hybrid: OnceLock::new(),
            trees: Trees::default(),
        }
    }

    /// Number of qubits.
    pub fn num_qubits(&self) -> usize {
        self.source.num_qubits()
    }

    /// Number of classical bits.
    pub fn num_clbits(&self) -> usize {
        self.source.num_clbits()
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

    /// Instructions in the source circuit (including barriers, which
    /// compile away).
    pub fn source_instructions(&self) -> usize {
        self.source.len()
    }

    /// Source gates eliminated by single-qubit fusion.
    pub fn fused_gates(&self) -> usize {
        self.fused_gates
    }

    /// The program's Clifford lowering — the tableau op stream the
    /// stabilizer backend executes — or the first blocking instruction
    /// when the program is ineligible. Built from the source circuit on
    /// the first read of this or [`Self::hybrid`], then kept on the
    /// program; every read returns the same verdict.
    pub fn clifford(&self) -> Result<&CliffordProgram, &CliffordBlock> {
        self.clifford_scan().as_ref().map_err(|(block, _)| block)
    }

    /// Returns `true` when the stabilizer backend can run this program
    /// (reads [`Self::clifford`]).
    pub fn is_clifford(&self) -> bool {
        self.clifford().is_ok()
    }

    /// The hybrid Clifford routing plan, present exactly when the
    /// program is *not* Clifford-eligible but has a non-empty maximal
    /// Clifford prefix before its first non-Clifford island. Built on
    /// the first read, which also runs the Clifford scan if
    /// [`Self::clifford`] has not, then kept on the program; the hybrid
    /// backend consults [`HybridPlan::profitable`] before using it.
    pub fn hybrid(&self) -> Option<&HybridPlan> {
        self.hybrid
            .get_or_init(|| match self.clifford_scan() {
                Ok(_) => None,
                Err((block, prefix)) => crate::compile::analyze_hybrid(
                    &self.source,
                    self.noise.as_ref(),
                    self.options,
                    block,
                    prefix,
                ),
            })
            .as_ref()
    }

    /// The Clifford-eligibility scan, run on first use.
    fn clifford_scan(&self) -> &CliffordScan {
        self.clifford.get_or_init(|| {
            crate::stabilizer::lower_clifford_scan(&self.source, self.noise.as_ref())
        })
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
    // Reads `clifford()` and `hybrid()`, so it builds them if no caller
    // has yet.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "compiled program ({} qubits, {} clbits): {} ops from {} instructions, {} gates fused{}{}",
            self.num_qubits(),
            self.num_clbits(),
            self.ops.len(),
            self.source_instructions(),
            self.fused_gates,
            match (&self.fast_path, self.is_clifford()) {
                (Some(_), true) => ", sample-once fast path, clifford-eligible",
                (Some(_), false) => ", sample-once fast path",
                (None, true) => ", clifford-eligible",
                (None, false) => "",
            },
            match self.hybrid() {
                Some(plan) if plan.profitable() => format!(
                    ", hybrid clifford prefix of {} instructions",
                    plan.boundary()
                ),
                _ => String::new(),
            }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        Backend, DensityMatrixBackend, HybridBackend, SimError, StabilizerBackend,
        StatevectorBackend, TrajectoryBackend,
    };
    use qnoise::presets;

    /// Which tableau-side analyses `program` holds: (Clifford scan,
    /// hybrid plan).
    fn built(program: &CompiledProgram) -> (bool, bool) {
        (
            program.clifford.get().is_some(),
            program.hybrid.get().is_some(),
        )
    }

    #[test]
    fn only_the_tableau_backends_build_the_tableau_analyses() {
        let model = presets::uniform(3, 0.01, 0.03, 0.02).unwrap();
        let mut c = QuantumCircuit::new(3, 3);
        c.h(0).unwrap().cx(0, 1).unwrap().cx(1, 2).unwrap();
        c.s(2).unwrap().h(1).unwrap();
        c.t(0).unwrap(); // instruction 5: the island
        c.h(0).unwrap();
        c.measure_all();
        let program = crate::compile::compile(&c, Some(&model)).unwrap();
        assert_eq!(built(&program), (false, false));

        let amplitude: [&dyn Backend; 3] = [
            &TrajectoryBackend::new(model.clone()),
            &StatevectorBackend::new(),
            &DensityMatrixBackend::new(model.clone()),
        ];
        for backend in amplitude {
            backend
                .run_compiled_seeded(&program, 64, Some(5), None)
                .unwrap();
            assert_eq!(built(&program), (false, false), "{}", backend.name());
        }

        let err = StabilizerBackend::new(model.clone())
            .run_compiled_seeded(&program, 64, Some(5), None)
            .unwrap_err();
        assert_eq!(
            err,
            SimError::NotClifford(CliffordBlock::NonCliffordGate {
                gate: "t".to_string(),
                instruction: 5,
            })
        );
        assert_eq!(built(&program), (true, false));

        HybridBackend::new(model)
            .run_compiled_seeded(&program, 64, Some(5), None)
            .unwrap();
        assert_eq!(built(&program), (true, true));
        assert_eq!(program.hybrid().map(HybridPlan::boundary), Some(5));
    }
}
