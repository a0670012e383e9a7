//! Layer-planned batching of the compiled op stream.
//!
//! The paper's assertion circuits are **wide and shallow**: one DAG
//! layer holds many disjoint single-qubit and controlled ops (H
//! sandwiches, CX fans into ancillas), and every one of them used to
//! cost a full sweep over the amplitude array per shot. The planner in
//! this module walks the compiled op stream once at compile time and
//! groups runs of [`CompiledKind::Unitary1q`] /
//! [`CompiledKind::Controlled1q`] ops on pairwise-disjoint qubits into
//! [`PlanNode::BatchedApply`] nodes; the per-shot executors hand each
//! node to a [`BatchKernel`] that applies the whole group in **one
//! blocked pass** over the state.
//!
//! # Layers, contiguity, and bit-identity
//!
//! A wide circuit layer lowers to a contiguous run of disjoint ops in
//! program order, so walking the op stream greedily recovers exactly
//! the [`qcircuit::CircuitDag`] layer structure the instrumentation
//! produces. The planner deliberately batches only **contiguous** runs:
//! hoisting an op past a disjoint neighbor is algebraically sound but
//! re-associates floating-point products, and the whole execution stack
//! guarantees batched counts *bit-identical* to sequential compiled
//! execution for any `(seed, threads)`. Within a batch the kernel
//! applies ops in op-stream order per block, which is float-exact (see
//! [`crate::kernel`]).
//!
//! # Barriers
//!
//! A batch is flushed by anything whose execution order against its
//! members is observable:
//!
//! * **noise channels** — a [`CompiledOp`] carrying pre-bound channels
//!   samples RNG draws whose position in the shot's draw sequence is
//!   fixed,
//! * **measurements / reset / post-selection** — RNG draws and state
//!   collapse,
//! * **classical conditions** — evaluated against the evolving record,
//! * **wide unitaries** ([`CompiledKind::UnitaryK`]) — the dense kernel
//!   path,
//! * **qubit overlap** — an op touching a qubit already used by the
//!   pending batch starts the next "layer".
//!
//! Batches shorter than [`MIN_BATCH`] fold back into the surrounding
//! sequential node: a lone op gains nothing from the batch dispatch.

use crate::kernel::{BatchKernel, KernelOp};
use crate::program::{CompiledKind, CompiledOp};

/// Minimum ops per batch; shorter groups stay on the sequential path.
pub const MIN_BATCH: usize = 2;

/// One node of a [`BatchPlan`]: a contiguous range of the op stream and
/// how to execute it.
#[derive(Clone, Debug)]
pub enum PlanNode {
    /// Ops `[start, end)` execute one at a time through the per-op
    /// interpreter (measurements, noise, conditions, wide unitaries,
    /// and unitary runs too short or overlapping to batch).
    Sequential {
        /// First op of the range.
        start: usize,
        /// One past the last op.
        end: usize,
    },
    /// Ops `[start, end)` are disjoint 1q/controlled-1q unitaries
    /// executed as one blocked pass.
    BatchedApply {
        /// First op of the range.
        start: usize,
        /// One past the last op.
        end: usize,
        /// The compiled SoA kernel for the whole group.
        kernel: BatchKernel,
    },
}

impl PlanNode {
    /// The `[start, end)` op range this node covers.
    pub fn range(&self) -> (usize, usize) {
        match self {
            PlanNode::Sequential { start, end } | PlanNode::BatchedApply { start, end, .. } => {
                (*start, *end)
            }
        }
    }
}

/// The batched execution schedule of one [`crate::CompiledProgram`]:
/// plan nodes partitioning the op stream, in order.
#[derive(Clone, Debug)]
pub struct BatchPlan {
    nodes: Vec<PlanNode>,
    batched_ops: usize,
    passes: usize,
}

impl BatchPlan {
    /// The nodes, covering the op stream exactly once in order.
    pub fn nodes(&self) -> &[PlanNode] {
        &self.nodes
    }

    /// Ops covered by [`PlanNode::BatchedApply`] nodes.
    pub fn batched_ops(&self) -> usize {
        self.batched_ops
    }

    /// Number of [`PlanNode::BatchedApply`] nodes — blocked passes per
    /// shot.
    pub fn passes(&self) -> usize {
        self.passes
    }
}

/// Qubit indices at or above this stay on the sequential path: the
/// kernel builds `usize` strides and masks (`1 << bit`), so the bound
/// must sit well under the pointer width — and any *executable* state
/// is far smaller anyway (the statevector caps at 30 qubits). Wider
/// analysis circuits still compile; their high-qubit ops just don't
/// batch.
const MAX_BATCH_QUBIT: usize = 32;

/// Extracts the kernel form of a batchable op, or `None` when the op
/// must stay on the sequential path.
fn batchable(op: &CompiledOp) -> Option<KernelOp> {
    if op.condition.is_some() || !op.noise.is_empty() {
        return None;
    }
    match &op.kind {
        CompiledKind::Unitary1q { qubit, matrix, .. } if qubit.index() < MAX_BATCH_QUBIT => {
            Some(KernelOp {
                target: qubit.index(),
                control: None,
                matrix: *matrix,
            })
        }
        CompiledKind::Controlled1q {
            control,
            target,
            matrix,
        } if control.index() < MAX_BATCH_QUBIT && target.index() < MAX_BATCH_QUBIT => {
            Some(KernelOp {
                target: target.index(),
                control: Some(control.index()),
                matrix: *matrix,
            })
        }
        _ => None,
    }
}

/// The qubit mask of one kernel op (target plus control).
fn op_mask(op: &KernelOp) -> u128 {
    let mut m = 1u128 << op.target;
    if let Some(c) = op.control {
        m |= 1u128 << c;
    }
    m
}

/// Plans batched execution over a compiled op stream. Returns `None`
/// when nothing batches (the executors then skip plan dispatch
/// entirely, keeping unbatchable programs at their previous cost).
pub fn plan(ops: &[CompiledOp]) -> Option<BatchPlan> {
    let mut nodes: Vec<PlanNode> = Vec::new();
    let mut batched_ops = 0usize;
    let mut passes = 0usize;
    // Start of the sequential run that absorbs everything not batched.
    let mut seq_start = 0usize;
    // The pending batch: ops `[pend_start, pend_start + pending.len())`.
    let mut pending: Vec<KernelOp> = Vec::new();
    let mut pend_start = 0usize;
    let mut used: u128 = 0;

    let flush = |pending: &mut Vec<KernelOp>,
                 used: &mut u128,
                 pend_start: usize,
                 seq_start: &mut usize,
                 nodes: &mut Vec<PlanNode>,
                 batched_ops: &mut usize,
                 passes: &mut usize| {
        if pending.len() >= MIN_BATCH {
            if *seq_start < pend_start {
                nodes.push(PlanNode::Sequential {
                    start: *seq_start,
                    end: pend_start,
                });
            }
            let end = pend_start + pending.len();
            nodes.push(PlanNode::BatchedApply {
                start: pend_start,
                end,
                kernel: BatchKernel::new(pending),
            });
            *batched_ops += pending.len();
            *passes += 1;
            *seq_start = end;
        }
        // Shorter groups simply stay inside the sequential run.
        pending.clear();
        *used = 0;
    };

    for (i, op) in ops.iter().enumerate() {
        match batchable(op) {
            Some(k) => {
                let mask = op_mask(&k);
                if pending.is_empty() {
                    pend_start = i;
                } else if used & mask != 0 {
                    // Qubit overlap: this op opens the next layer.
                    flush(
                        &mut pending,
                        &mut used,
                        pend_start,
                        &mut seq_start,
                        &mut nodes,
                        &mut batched_ops,
                        &mut passes,
                    );
                    pend_start = i;
                }
                used |= mask;
                pending.push(k);
            }
            None => {
                flush(
                    &mut pending,
                    &mut used,
                    pend_start,
                    &mut seq_start,
                    &mut nodes,
                    &mut batched_ops,
                    &mut passes,
                );
            }
        }
    }
    flush(
        &mut pending,
        &mut used,
        pend_start,
        &mut seq_start,
        &mut nodes,
        &mut batched_ops,
        &mut passes,
    );
    if seq_start < ops.len() {
        nodes.push(PlanNode::Sequential {
            start: seq_start,
            end: ops.len(),
        });
    }

    if batched_ops == 0 {
        return None;
    }
    debug_assert_eq!(
        nodes.iter().map(|n| n.range()).fold(0, |at, (s, e)| {
            assert_eq!(s, at, "plan nodes must partition the op stream");
            e
        }),
        ops.len()
    );
    Some(BatchPlan {
        nodes,
        batched_ops,
        passes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::{compile, compile_with, CompileOptions};
    use qcircuit::QuantumCircuit;

    fn plan_of(c: &QuantumCircuit) -> Option<BatchPlan> {
        let program = compile(c, None).unwrap();
        plan(program.ops())
    }

    #[test]
    fn wide_disjoint_layer_becomes_one_batch() {
        let mut c = QuantumCircuit::new(6, 0);
        for q in 0..6 {
            c.h(q).unwrap();
        }
        let p = plan_of(&c).expect("a wide layer batches");
        assert_eq!(p.batched_ops(), 6);
        assert_eq!(p.passes(), 1);
        assert_eq!(p.nodes().len(), 1);
        assert!(matches!(
            p.nodes()[0],
            PlanNode::BatchedApply {
                start: 0,
                end: 6,
                ..
            }
        ));
    }

    #[test]
    fn qubit_overlap_opens_the_next_layer() {
        // h0 h1 | h0 h1 — two layers of two.
        let mut c = QuantumCircuit::new(2, 0);
        // Break 1q fusion with CZs so the layers survive lowering, and
        // check that controlled ops join batches.
        c.h(0).unwrap().h(1).unwrap();
        c.cz(0, 1).unwrap();
        c.h(0).unwrap().h(1).unwrap();
        let p = plan_of(&c).expect("layers batch");
        // cz overlaps the {h0,h1} batch -> flush; cz then h0 overlap ->
        // flush {cz} (too short, folds into sequential)... cz is
        // batchable and disjointness is against pending only: pending
        // after first flush = {cz}, h0 overlaps it -> flush {cz} (short,
        // sequential), pending = {h0, h1}.
        assert_eq!(p.batched_ops(), 4);
        assert_eq!(p.passes(), 2);
        let kinds: Vec<(usize, usize, bool)> = p
            .nodes()
            .iter()
            .map(|n| {
                let (s, e) = n.range();
                (s, e, matches!(n, PlanNode::BatchedApply { .. }))
            })
            .collect();
        assert_eq!(kinds, vec![(0, 2, true), (2, 3, false), (3, 5, true)]);
    }

    #[test]
    fn noise_channels_bar_batching() {
        let mut model = qnoise::NoiseModel::new();
        model.with_gate_error("h", qnoise::Kraus::depolarizing(0.01).unwrap());
        let mut c = QuantumCircuit::new(3, 0);
        c.h(0).unwrap().h(1).unwrap().h(2).unwrap();
        let program = compile(&c, Some(&model)).unwrap();
        assert!(plan(program.ops()).is_none(), "noisy ops must not batch");
        // The same stream compiled ideally batches.
        assert!(plan_of(&c).is_some());
    }

    #[test]
    fn measurements_conditions_and_wide_ops_are_barriers() {
        let mut c = QuantumCircuit::new(4, 2);
        c.h(0).unwrap().h(1).unwrap();
        c.measure(0, 0).unwrap();
        c.h(2).unwrap().h(3).unwrap();
        c.gate_if(qcircuit::Gate::X, [2usize], 0, true).unwrap();
        c.swap(0, 1).unwrap();
        c.h(0).unwrap().h(1).unwrap();
        let p = plan_of(&c).expect("ideal layers batch");
        // Three batches of two, split by the measure, the conditioned
        // gate, and the swap.
        assert_eq!(p.batched_ops(), 6);
        assert_eq!(p.passes(), 3);
        let sequential_ops: usize = p
            .nodes()
            .iter()
            .filter(|n| matches!(n, PlanNode::Sequential { .. }))
            .map(|n| {
                let (s, e) = n.range();
                e - s
            })
            .sum();
        assert_eq!(sequential_ops, 3);
    }

    #[test]
    fn lone_ops_stay_sequential() {
        let mut c = QuantumCircuit::new(2, 0);
        c.h(0).unwrap();
        c.cx(0, 1).unwrap(); // overlaps h(0): both flushed short
        assert!(plan_of(&c).is_none());
    }

    #[test]
    fn fused_runs_join_batches() {
        // Fusion first collapses each wire's run to one op; the two
        // fused ops then form a batch.
        let mut c = QuantumCircuit::new(2, 0);
        c.h(0).unwrap().t(0).unwrap();
        c.h(1).unwrap().s(1).unwrap();
        let program = compile_with(&c, None, CompileOptions::default()).unwrap();
        assert_eq!(program.ops().len(), 2);
        let p = plan(program.ops()).expect("fused layer batches");
        assert_eq!(p.batched_ops(), 2);
    }

    #[test]
    fn empty_stream_has_no_plan() {
        assert!(plan(&[]).is_none());
    }

    #[test]
    fn high_qubit_ops_stay_sequential() {
        // Analysis circuits can be wider than anything executable; the
        // kernel's usize strides cap batching at MAX_BATCH_QUBIT, and
        // compilation of wider circuits must not panic.
        let mut c = QuantumCircuit::new(70, 0);
        c.h(64).unwrap();
        c.h(65).unwrap();
        assert!(plan_of(&c).is_none());
        // Mixed: low-qubit ops still batch, high ones stay sequential.
        let mut mixed = QuantumCircuit::new(70, 0);
        mixed.h(0).unwrap();
        mixed.h(1).unwrap();
        mixed.cx(64, 65).unwrap();
        let p = plan_of(&mixed).expect("low layer batches");
        assert_eq!(p.batched_ops(), 2);
    }
}
