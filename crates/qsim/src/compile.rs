//! Circuit lowering: `QuantumCircuit` → [`CompiledProgram`].
//!
//! # The lowering pipeline
//!
//! 1. **Noise binding** — when compiling for a noisy backend, the
//!    [`NoiseModel`]'s rule lookup runs once per instruction
//!    ([`NoiseModel::bind_circuit`]) and the resulting
//!    [`qnoise::AppliedChannel`]s ride on the compiled op. The per-shot
//!    hot loop never consults the model again. Each bound channel shares
//!    its Kraus operators and Pauli form with the channel registered in
//!    the model, so binding, op emission, prefix extension, the hybrid
//!    suffix, a program clone and the model clone a program keeps copy
//!    no matrix: a channel clone only bumps reference counts.
//! 2. **Gate fusion** — maximal runs of adjacent unconditioned
//!    single-qubit gates on one wire (adjacent in wire order: other
//!    wires' instructions may interleave) collapse into one 2×2 matrix
//!    product. A gate that carries noise channels terminates its run: the
//!    channel must act between that gate and its successor, so fusing
//!    across it would change semantics. With fusion on (the default) an
//!    ideal `H·T·S` run costs one matrix application per shot instead of
//!    three.
//! 3. **Matrix materialization** — every surviving gate becomes a
//!    [`CompiledKind`] with its matrix precomputed: `Unitary1q` (2×2),
//!    `Controlled1q` (control + 2×2 on the target, covering CX/CZ/CY/
//!    CH/CP), or `UnitaryK` (dense, for SWAP/CCX/CSWAP). Barriers compile
//!    away.
//! 4. **Fast-path analysis** — circuits whose non-unitary suffix is only
//!    trailing measurements get a [`FastPath`] record, letting the
//!    statevector backend evolve once and sample `shots` times.
//!
//! That is all a compile does: every amplitude executor walks the op
//! stream one op at a time. The program keeps its source circuit,
//! noise model and options, and builds the two analyses only the
//! tableau backends read the first time a caller reads them: the
//! Clifford lowering ([`CompiledProgram::clifford`], an exact per-gate
//! classification of the *source* instructions, which fusion would
//! erase) and, for a program that leaves the Clifford set after a
//! non-empty Clifford prefix, the hybrid routing plan
//! ([`CompiledProgram::hybrid`], which lowers the suffix past the first
//! non-Clifford island on its own). Both are pure functions of
//! `(circuit, noise, options)`, so one compilation still serves every
//! backend, and a program built by [`compile_extension`] reads the
//! same analyses as a fresh compile.
//!
//! # Fusion and numerical identity
//!
//! Fusing `U₂·U₁` and applying the product is algebraically identical to
//! applying `U₁` then `U₂` but associates floating-point operations
//! differently, so amplitudes can differ in the last ulp. The
//! cross-backend equivalence suite pins behavior: for seeded runs the
//! sampled counts are bit-identical to unfused interpretation.

use crate::error::{CliffordBlock, SimError};
use crate::program::{CompiledKind, CompiledOp, CompiledProgram, FastPath, HybridPlan};
use crate::stabilizer::CliffordProgram;
use qcircuit::{CircuitError, Gate, OpKind, QuantumCircuit, QubitId};
use qmath::Mat2;
use qnoise::NoiseModel;
use std::sync::Arc;

/// Compilation knobs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct CompileOptions {
    /// Fuse runs of adjacent single-qubit gates into one matrix
    /// (default: on). Turning this off yields straight interpretation of
    /// the instruction stream — the reference the equivalence suite
    /// compares against.
    pub fuse_1q: bool,
}

impl Default for CompileOptions {
    fn default() -> Self {
        CompileOptions { fuse_1q: true }
    }
}

/// Lowers `circuit` with default options (fusion on).
///
/// # Errors
///
/// Returns [`SimError::TooManyClbits`] when the classical register
/// exceeds the 64-bit shot record.
pub fn compile(
    circuit: &QuantumCircuit,
    noise: Option<&NoiseModel>,
) -> Result<CompiledProgram, SimError> {
    compile_with(circuit, noise, CompileOptions::default())
}

/// Lowers `circuit` with explicit options.
///
/// # Errors
///
/// Returns [`SimError::TooManyClbits`] when the classical register
/// exceeds the 64-bit shot record.
pub fn compile_with(
    circuit: &QuantumCircuit,
    noise: Option<&NoiseModel>,
    options: CompileOptions,
) -> Result<CompiledProgram, SimError> {
    if circuit.num_clbits() > 64 {
        return Err(SimError::TooManyClbits {
            num_clbits: circuit.num_clbits(),
        });
    }
    let (ops, fused_gates) = lower_ops(circuit, noise, options)?;
    Ok(assemble(circuit.clone(), noise, options, ops, fused_gates))
}

/// Steps 1–3 of the pipeline: the op stream of `circuit` and the number
/// of source gates fusion absorbed.
fn lower_ops(
    circuit: &QuantumCircuit,
    noise: Option<&NoiseModel>,
    options: CompileOptions,
) -> Result<(Vec<CompiledOp>, usize), SimError> {
    let instrs = circuit.instructions();
    let n = instrs.len();

    // 1. Bind noise channels per instruction, once.
    let mut bound: Vec<Vec<qnoise::AppliedChannel>> = match noise {
        Some(model) => model.bind_circuit(circuit),
        None => vec![Vec::new(); n],
    };

    // 2. Plan fusion: `run_at[i]` lists the members of the run *ending*
    //    at instruction i; `absorbed[i]` marks the other members. The
    //    fused op is emitted at the last member's program position so
    //    its (sole) noise channel fires at exactly the same point in the
    //    global RNG draw sequence as unfused execution — earlier members
    //    commute forward past interleaved other-wire ops (disjoint
    //    qubits), and a channel's Kraus sampling probabilities depend
    //    only on its own qubits' reduced state, which unitaries on other
    //    wires leave untouched.
    let mut run_at: Vec<Option<Vec<usize>>> = vec![None; n];
    let mut absorbed = vec![false; n];
    let mut fused_gates = 0usize;
    if options.fuse_1q {
        let mut flush = |segment: &mut Vec<usize>| {
            if segment.len() >= 2 {
                fused_gates += segment.len() - 1;
                let last = *segment.last().expect("segment non-empty");
                for &m in &segment[..segment.len() - 1] {
                    absorbed[m] = true;
                }
                run_at[last] = Some(std::mem::take(segment));
            } else {
                segment.clear();
            }
        };
        // The open run on each wire: the unconditioned single-qubit gates
        // since the last other instruction touching it. A member with
        // attached noise ends its run *inclusively*: the channel acts
        // after that gate, so the gate may absorb its predecessors but
        // nothing may fuse past it.
        let mut open: Vec<Vec<usize>> = vec![Vec::new(); circuit.num_qubits()];
        for (i, instr) in instrs.iter().enumerate() {
            for q in instr.qubits() {
                let segment = &mut open[q.index()];
                if fusable(instr) {
                    segment.push(i);
                    if !bound[i].is_empty() {
                        flush(segment);
                    }
                } else {
                    flush(segment);
                }
            }
        }
        open.iter_mut().for_each(&mut flush);
    }

    // 3. Emit the op stream in program order.
    let mut ops: Vec<CompiledOp> = Vec::with_capacity(n);
    for (i, instr) in instrs.iter().enumerate() {
        if absorbed[i] {
            continue;
        }
        let condition = instr.condition();
        let kind = match instr.kind() {
            OpKind::Barrier => continue,
            OpKind::Gate(g) => {
                if let Some(members) = &run_at[i] {
                    // Fused run: product in application order. The run's
                    // noise is the last member's binding (earlier members
                    // are channel-free by construction) — and `i` *is*
                    // the last member, so it rides on `bound[i]` below.
                    let mut acc = gate_mat2(instrs[members[0]].as_gate().expect("run member"));
                    for &m in &members[1..] {
                        let next = gate_mat2(instrs[m].as_gate().expect("run member"));
                        acc = next.mul(&acc);
                    }
                    CompiledKind::Unitary1q {
                        qubit: instr.qubits()[0],
                        matrix: acc,
                        fused: members.len(),
                    }
                } else {
                    lower_gate(g, instr.qubits())?
                }
            }
            OpKind::Measure => CompiledKind::Measure {
                qubit: instr.qubits()[0],
                clbit: instr.clbits()[0].index(),
                readout: noise.map(|m| m.readout_error(instr.qubits()[0])),
            },
            OpKind::Reset => CompiledKind::Reset {
                qubit: instr.qubits()[0],
            },
            OpKind::PostSelect { outcome } => CompiledKind::PostSelect {
                qubit: instr.qubits()[0],
                outcome: *outcome,
            },
        };
        ops.push(CompiledOp {
            kind,
            condition,
            noise: std::mem::take(&mut bound[i]),
        });
    }
    Ok((ops, fused_gates))
}

/// Step 4, a pure function of the op stream, and the program that keeps
/// `source`, `noise` and `options` for the tableau-side analyses.
fn assemble(
    source: QuantumCircuit,
    noise: Option<&NoiseModel>,
    options: CompileOptions,
    ops: Vec<CompiledOp>,
    fused_gates: usize,
) -> CompiledProgram {
    let fast_path = analyze_fast_path(&ops);
    CompiledProgram::new(source, noise.cloned(), options, ops, fast_path, fused_gates)
}

/// The instructions of `circuit` from `start` on, as a circuit of the
/// same register widths. Compiled ops carry absolute indices and noise
/// binds per instruction, so its op stream is the full circuit's from
/// that point.
fn tail_circuit(circuit: &QuantumCircuit, start: usize) -> Result<QuantumCircuit, CircuitError> {
    let mut tail = QuantumCircuit::new(circuit.num_qubits(), circuit.num_clbits());
    for instr in &circuit.instructions()[start..] {
        tail.append(instr.clone())?;
    }
    Ok(tail)
}

/// Amplitude-array passes one tableau→statevector handoff costs: the
/// canonicalization is `O(n³)` bit-operations and the materialization
/// writes every nonzero amplitude once, together worth a few full
/// passes over the `2^n` array.
const HANDOFF_EXTRACTION_PASSES: f64 = 3.0;

/// Discount on the prefix op count when estimating the amplitude passes
/// the tableau saves: single-qubit fusion would have collapsed part of
/// the prefix on the statevector path anyway, so only a fraction of the
/// lowered Clifford ops count as saved passes. Conservative (biases
/// toward the fallback near the break-even point).
const PREFIX_FUSION_DISCOUNT: f64 = 0.5;

/// The hybrid routing analysis for a program blocked at `block` after
/// the maximal Clifford prefix `prefix`: compiles the suffix
/// `[boundary..]` standalone at full register widths (the
/// [`compile_extension`] technique) and runs the cost model deciding
/// whether the tableau prefix + extraction beats replaying the prefix on
/// amplitudes. [`CompiledProgram::hybrid`] runs it on first read.
pub(crate) fn analyze_hybrid(
    circuit: &QuantumCircuit,
    noise: Option<&NoiseModel>,
    options: CompileOptions,
    block: &CliffordBlock,
    prefix: &Arc<CliffordProgram>,
) -> Option<HybridPlan> {
    if prefix.ops().is_empty() {
        return None;
    }
    let suffix = tail_circuit(circuit, block.instruction()).ok()?;
    let (ops, fused_gates) = lower_ops(&suffix, noise, options).ok()?;
    let suffix = assemble(suffix, noise, options, ops, fused_gates);

    // Cost model, in units of full passes over the 2^n amplitude
    // array. Saved: the prefix ops the statevector path no longer
    // executes (discounted for fusion). Paid: the extraction plus the
    // tableau's own prefix cost — `O(n²)` bits per op against `2^n`
    // amplitudes per pass, negligible at every width the handoff
    // supports but modeled so narrow states don't misroute.
    let n = circuit.num_qubits();
    let prefix_ops = prefix.ops().len() as f64;
    let tableau_pass_fraction = if n >= 24 {
        0.0
    } else {
        (2 * n * n) as f64 / (1u64 << n) as f64
    };
    let profitable = prefix_ops * PREFIX_FUSION_DISCOUNT
        > HANDOFF_EXTRACTION_PASSES + prefix_ops * tableau_pass_fraction;
    Some(HybridPlan::new(
        Arc::clone(prefix),
        block.clone(),
        Box::new(suffix),
        profitable,
    ))
}

/// Extends an already-compiled prefix: lowers only
/// `circuit.instructions()[prefix_len..]` and concatenates the op
/// streams, recomputing the fast-path analysis over the whole program.
///
/// `prefix` must be the compilation of the first `prefix_len`
/// instructions of `circuit` under the *same noise model and options* —
/// sweep harnesses obtain it from an earlier point of the same sweep.
/// Its register widths may be narrower than `circuit`'s (instrumented
/// families grow ancilla wires as assertions append): compiled ops carry
/// absolute qubit/clbit indices and noise binds per instruction, so the
/// op stream of a prefix does not depend on the declared widths. The
/// result is **identical** to a fresh [`compile_with`] of the full
/// circuit provided no single-qubit fusion run crosses the prefix
/// boundary; callers check that with [`extension_fusion_safe`] first.
/// Like a fresh compile, it keeps `circuit` and builds its Clifford
/// lowering and hybrid plan from it on first read, so those never
/// depend on the prefix.
///
/// # Errors
///
/// Returns a [`SimError`] when the suffix cannot be lowered.
pub fn compile_extension(
    prefix: &CompiledProgram,
    circuit: &QuantumCircuit,
    prefix_len: usize,
    noise: Option<&NoiseModel>,
    options: CompileOptions,
) -> Result<CompiledProgram, SimError> {
    debug_assert_eq!(prefix.source_instructions(), prefix_len);
    if circuit.num_clbits() > 64 {
        return Err(SimError::TooManyClbits {
            num_clbits: circuit.num_clbits(),
        });
    }
    let tail = tail_circuit(circuit, prefix_len).map_err(SimError::Circuit)?;
    let (tail_ops, tail_fused) = lower_ops(&tail, noise, options)?;
    let mut ops = Vec::with_capacity(prefix.ops().len() + tail_ops.len());
    ops.extend_from_slice(prefix.ops());
    ops.extend(tail_ops);
    Ok(assemble(
        circuit.clone(),
        noise,
        options,
        ops,
        prefix.fused_gates() + tail_fused,
    ))
}

/// Whether splitting `circuit` at `prefix_len` cannot change the fused
/// op stream: no single-qubit fusion run crosses the boundary.
///
/// A run crosses the boundary on wire `w` exactly when the last
/// instruction before the cut touching `w` and the first instruction
/// after the cut touching `w` are both run-fusable (unconditioned
/// single-qubit gates — the fusion runs of [`compile_with`]); they are
/// adjacent in wire order by construction. With fusion disabled every
/// split is safe. The check is conservative about noise: a channel on
/// the boundary gate would flush the run anyway, but declaring such
/// splits unsafe only costs a prefix reuse, never correctness.
pub fn extension_fusion_safe(
    circuit: &QuantumCircuit,
    prefix_len: usize,
    options: CompileOptions,
) -> bool {
    if !options.fuse_1q {
        return true;
    }
    let instrs = circuit.instructions();
    let mut last_before: Vec<Option<usize>> = vec![None; circuit.num_qubits()];
    for (i, instr) in instrs[..prefix_len].iter().enumerate() {
        for q in instr.qubits() {
            last_before[q.index()] = Some(i);
        }
    }
    let mut first_after: Vec<Option<usize>> = vec![None; circuit.num_qubits()];
    for (i, instr) in instrs[prefix_len..].iter().enumerate() {
        for q in instr.qubits() {
            let slot = &mut first_after[q.index()];
            if slot.is_none() {
                *slot = Some(prefix_len + i);
            }
        }
    }
    (0..circuit.num_qubits()).all(|w| match (last_before[w], first_after[w]) {
        (Some(p), Some(s)) => !(fusable(&instrs[p]) && fusable(&instrs[s])),
        _ => true,
    })
}

/// Whether `instr` may join a single-qubit fusion run: an unconditioned
/// single-qubit gate.
fn fusable(instr: &qcircuit::Instruction) -> bool {
    instr.condition().is_none() && matches!(instr.kind(), OpKind::Gate(g) if g.num_qubits() == 1)
}

/// The 2×2 matrix of a single-qubit gate (fusion-path helper).
fn gate_mat2(g: &Gate) -> Mat2 {
    g.mat2().expect("single-qubit gate has a 2x2 matrix")
}

/// Materializes one gate application: the one place a [`Gate`] becomes
/// a kernel. The compiler, [`crate::StateVector::apply_gate`] and
/// [`crate::DensityMatrix::apply_gate`] all lower through here.
///
/// # Errors
///
/// Returns [`SimError::MatrixDimensionMismatch`] when the operand count
/// does not match the gate's arity, or [`SimError::Circuit`] with
/// [`CircuitError::DuplicateQubit`] when an operand repeats.
pub(crate) fn lower_gate(g: &Gate, qubits: &[QubitId]) -> Result<CompiledKind, SimError> {
    if g.num_qubits() != qubits.len() {
        return Err(SimError::MatrixDimensionMismatch {
            dim: 1 << g.num_qubits(),
            qubits: qubits.len(),
        });
    }
    check_distinct(qubits)?;
    if let Some(m) = g.mat2() {
        return Ok(CompiledKind::Unitary1q {
            qubit: qubits[0],
            matrix: m,
            fused: 1,
        });
    }
    let target_gate = match g {
        Gate::Cx => Gate::X,
        Gate::Cy => Gate::Y,
        Gate::Cz => Gate::Z,
        Gate::Ch => Gate::H,
        Gate::Cp(l) => Gate::P(*l),
        _ => {
            return Ok(CompiledKind::UnitaryK {
                qubits: qubits.to_vec(),
                matrix: g.matrix(),
            })
        }
    };
    Ok(CompiledKind::Controlled1q {
        control: qubits[0],
        target: qubits[1],
        matrix: gate_mat2(&target_gate),
    })
}

/// Rejects a repeated operand the way the circuit builder does: the
/// kernels address each operand as its own bit, so a repeat has no
/// meaning there.
///
/// # Errors
///
/// Returns [`SimError::Circuit`] with [`CircuitError::DuplicateQubit`]
/// naming the first operand that appears again later.
pub(crate) fn check_distinct(qubits: &[QubitId]) -> Result<(), SimError> {
    for (i, q) in qubits.iter().enumerate() {
        if qubits[i + 1..].contains(q) {
            return Err(SimError::Circuit(CircuitError::DuplicateQubit {
                qubit: q.index(),
            }));
        }
    }
    Ok(())
}

/// Detects the sample-once shape: no conditions, no reset/post-select,
/// and every measurement trailing every unitary.
fn analyze_fast_path(ops: &[CompiledOp]) -> Option<FastPath> {
    let mut prefix = 0usize;
    let mut mapping = Vec::new();
    let mut in_suffix = false;
    for op in ops {
        if op.condition.is_some() {
            return None;
        }
        match &op.kind {
            CompiledKind::Reset { .. } | CompiledKind::PostSelect { .. } => return None,
            CompiledKind::Measure { qubit, clbit, .. } => {
                in_suffix = true;
                mapping.push((qubit.index(), *clbit));
            }
            _ => {
                if in_suffix {
                    return None;
                }
                prefix += 1;
            }
        }
    }
    Some(FastPath {
        unitary_prefix: prefix,
        mapping,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcircuit::library;
    use qnoise::presets;

    #[test]
    fn ideal_runs_fuse_into_single_ops() {
        let mut c = QuantumCircuit::new(1, 0);
        c.h(0).unwrap().t(0).unwrap().s(0).unwrap();
        let program = compile(&c, None).unwrap();
        assert_eq!(program.ops().len(), 1);
        assert_eq!(program.fused_gates(), 2);
        let CompiledKind::Unitary1q { matrix, fused, .. } = &program.ops()[0].kind else {
            panic!("expected fused 1q op");
        };
        assert_eq!(*fused, 3);
        // S·T·H, in application order.
        let expected = Gate::S
            .mat2()
            .unwrap()
            .mul(&Gate::T.mat2().unwrap())
            .mul(&Gate::H.mat2().unwrap());
        assert!(matrix.approx_eq(&expected, 1e-15));
    }

    /// Each op's fused-run length: `Some(n)` for a single-qubit op that
    /// stands for `n` source gates, `None` for any other op.
    fn fused_runs(c: &QuantumCircuit) -> Vec<Option<usize>> {
        compile(c, None)
            .unwrap()
            .ops()
            .iter()
            .map(|op| match op.kind {
                CompiledKind::Unitary1q { fused, .. } => Some(fused),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn fusion_runs_are_found_per_wire() {
        let mut c = QuantumCircuit::new(2, 1);
        c.h(0).unwrap().t(0).unwrap(); // a run on q0
        c.cx(0, 1).unwrap(); // breaks both wires
        c.s(0).unwrap(); // alone on q0: not a run
        c.x(1).unwrap().z(1).unwrap().h(1).unwrap(); // a run on q1
                                                     // Each fused op sits at its run's last member.
        assert_eq!(fused_runs(&c), [Some(2), None, Some(1), Some(3)]);
    }

    #[test]
    fn conditions_measures_and_barriers_break_fusion_runs() {
        let mut c = QuantumCircuit::new(1, 1);
        c.h(0).unwrap().barrier([0usize]).unwrap().t(0).unwrap();
        c.gate_if(Gate::X, [0usize], 0, true).unwrap();
        c.s(0).unwrap().measure(0, 0).unwrap().z(0).unwrap();
        let ops = [Some(1), Some(1), Some(1), Some(1), None, Some(1)];
        assert_eq!(fused_runs(&c), ops);

        let mut c = QuantumCircuit::new(1, 0);
        c.h(0).unwrap().t(0).unwrap().s(0).unwrap();
        assert_eq!(fused_runs(&c), [Some(3)]);
    }

    #[test]
    fn interleaved_other_wire_instructions_do_not_break_fusion_runs() {
        let mut c = QuantumCircuit::new(2, 0);
        c.h(0).unwrap().x(1).unwrap().t(0).unwrap();
        // H and T fuse past the X on q1, at T's position.
        assert_eq!(fused_runs(&c), [Some(1), Some(2)]);
    }

    #[test]
    fn fusion_off_is_straight_interpretation() {
        let mut c = QuantumCircuit::new(1, 0);
        c.h(0).unwrap().t(0).unwrap().s(0).unwrap();
        let program = compile_with(&c, None, CompileOptions { fuse_1q: false }).unwrap();
        assert_eq!(program.ops().len(), 3);
        assert_eq!(program.fused_gates(), 0);
    }

    #[test]
    fn noise_channels_split_fusion_runs() {
        // Per-gate noise on H: the H may close a run but T·S must not
        // fuse across the channel.
        let mut model = qnoise::NoiseModel::new();
        model.with_gate_error("h", qnoise::Kraus::depolarizing(0.01).unwrap());
        let mut c = QuantumCircuit::new(1, 0);
        c.t(0).unwrap().h(0).unwrap().s(0).unwrap().z(0).unwrap();
        let program = compile(&c, Some(&model)).unwrap();
        // Expected: [T·H fused? — no: T then H, H carries noise, so the
        // run T,H fuses into one op carrying H's channel] then [S,Z fused].
        assert_eq!(program.ops().len(), 2);
        let CompiledKind::Unitary1q { fused: f0, .. } = &program.ops()[0].kind else {
            panic!()
        };
        let CompiledKind::Unitary1q { fused: f1, .. } = &program.ops()[1].kind else {
            panic!()
        };
        assert_eq!((*f0, *f1), (2, 2));
        assert_eq!(program.ops()[0].noise.len(), 1);
        assert!(program.ops()[1].noise.is_empty());
    }

    #[test]
    fn default_noise_on_every_gate_disables_fusion() {
        let model = presets::uniform(2, 0.01, 0.05, 0.0).unwrap();
        let mut bell = library::bell();
        bell.h(0).unwrap(); // adjacent to the first h on qubit 0
        let program = compile(&bell, Some(&model)).unwrap();
        // Every gate carries a channel, so nothing absorbs a successor.
        assert_eq!(program.fused_gates(), 0);
        assert!(program.is_noisy());
    }

    /// Asserts that every channel bound in `program` shares its operator
    /// storage with the channel `model.channels_for` binds for the same
    /// source instruction. Every gate of `instrs` carries noise and none
    /// is a barrier, so nothing fuses and the ops follow the instructions
    /// one for one.
    fn assert_channels_shared(
        program: &CompiledProgram,
        instrs: &[qcircuit::Instruction],
        model: &NoiseModel,
    ) {
        assert_eq!(program.ops().len(), instrs.len());
        let mut shared = 0;
        for (op, instr) in program.ops().iter().zip(instrs) {
            let expected = model.channels_for(instr);
            assert_eq!(op.noise.len(), expected.len(), "{instr:?}");
            for (applied, want) in op.noise.iter().zip(&expected) {
                assert_eq!(applied.qubits, want.qubits);
                assert_eq!(
                    applied.kraus.ops().as_ptr(),
                    want.kraus.ops().as_ptr(),
                    "{instr:?}: a private copy of the model's operators"
                );
                shared += 1;
            }
        }
        assert!(shared > 0, "the program binds no channel");
    }

    #[test]
    fn noisy_programs_share_the_models_channel_storage() {
        let model = presets::uniform(3, 0.01, 0.05, 0.02).unwrap();
        let mut c = QuantumCircuit::new(3, 2);
        c.h(0).unwrap().cx(0, 1).unwrap().cx(1, 2).unwrap();
        c.t(0).unwrap().h(2).unwrap().cx(2, 0).unwrap();
        c.measure(0, 0).unwrap().measure(2, 1).unwrap();
        let instrs = c.instructions();

        let fresh = compile(&c, Some(&model)).unwrap();
        assert_channels_shared(&fresh, instrs, &model);
        assert_channels_shared(&fresh.clone(), instrs, &model);
        let plan = fresh.hybrid().expect("a Clifford prefix before the T");
        assert_channels_shared(plan.suffix(), &instrs[plan.boundary()..], &model);

        let mut head = QuantumCircuit::new(3, 0);
        for instr in &instrs[..3] {
            head.append(instr.clone()).unwrap();
        }
        let head = compile(&head, Some(&model)).unwrap();
        assert!(extension_fusion_safe(&c, 3, CompileOptions::default()));
        let extended =
            compile_extension(&head, &c, 3, Some(&model), CompileOptions::default()).unwrap();
        assert_channels_shared(&extended, instrs, &model);
        let plan = extended.hybrid().expect("a Clifford prefix before the T");
        assert_channels_shared(plan.suffix(), &instrs[plan.boundary()..], &model);
    }

    #[test]
    fn controlled_gates_lower_to_controlled1q() {
        let mut c = QuantumCircuit::new(2, 0);
        c.cx(0, 1).unwrap().cz(1, 0).unwrap().cp(0.4, 0, 1).unwrap();
        let program = compile(&c, None).unwrap();
        for op in program.ops() {
            assert!(matches!(op.kind, CompiledKind::Controlled1q { .. }));
        }
    }

    #[test]
    fn wide_gates_lower_to_dense_matrices() {
        let mut c = QuantumCircuit::new(3, 0);
        c.ccx(0, 1, 2).unwrap().swap(0, 2).unwrap();
        let program = compile(&c, None).unwrap();
        let dims: Vec<usize> = program
            .ops()
            .iter()
            .map(|op| match &op.kind {
                CompiledKind::UnitaryK { matrix, .. } => matrix.dim(),
                other => panic!("expected dense op, got {other:?}"),
            })
            .collect();
        assert_eq!(dims, vec![8, 4]);
    }

    #[test]
    fn barriers_compile_away_and_break_fusion() {
        let mut c = QuantumCircuit::new(1, 0);
        c.h(0).unwrap();
        c.barrier([0usize]).unwrap();
        c.h(0).unwrap();
        let program = compile(&c, None).unwrap();
        assert_eq!(program.ops().len(), 2);
        assert_eq!(program.fused_gates(), 0);
    }

    #[test]
    fn fast_path_detected_for_trailing_measurements_only() {
        let mut bell = library::bell();
        bell.measure_all();
        let program = compile(&bell, None).unwrap();
        let fp = program.fast_path().expect("bell+measure is sample-once");
        assert_eq!(fp.unitary_prefix, 2);
        assert_eq!(fp.mapping, vec![(0, 0), (1, 1)]);

        // Mid-circuit measurement defeats it.
        let mut mid = QuantumCircuit::new(2, 2);
        mid.h(0).unwrap();
        mid.measure(0, 0).unwrap();
        mid.cx(0, 1).unwrap();
        mid.measure(1, 1).unwrap();
        assert!(compile(&mid, None).unwrap().fast_path().is_none());

        // Conditions defeat it.
        let mut cond = library::bell();
        cond.measure_all();
        cond.gate_if(Gate::I, [0usize], 0, true).unwrap();
        assert!(compile(&cond, None).unwrap().fast_path().is_none());

        // Reset defeats it.
        let mut rst = QuantumCircuit::new(1, 1);
        rst.reset(0).unwrap();
        rst.measure(0, 0).unwrap();
        assert!(compile(&rst, None).unwrap().fast_path().is_none());
    }

    #[test]
    fn readout_errors_bind_only_under_noise() {
        let mut c = QuantumCircuit::new(1, 1);
        c.measure(0, 0).unwrap();
        let ideal = compile(&c, None).unwrap();
        assert!(matches!(
            ideal.ops()[0].kind,
            CompiledKind::Measure { readout: None, .. }
        ));
        let noisy = compile(&c, Some(&presets::ideal())).unwrap();
        assert!(matches!(
            noisy.ops()[0].kind,
            CompiledKind::Measure {
                readout: Some(_),
                ..
            }
        ));
    }

    #[test]
    fn too_many_clbits_rejected_at_compile_time() {
        let c = QuantumCircuit::new(1, 65);
        assert_eq!(
            compile(&c, None).unwrap_err(),
            SimError::TooManyClbits { num_clbits: 65 }
        );
    }

    #[test]
    fn display_reports_compile_stats() {
        let mut c = QuantumCircuit::new(1, 1);
        c.h(0).unwrap().t(0).unwrap();
        c.measure(0, 0).unwrap();
        let program = compile(&c, None).unwrap();
        let s = program.to_string();
        assert!(s.contains("1 gates fused"), "{s}");
        assert!(s.contains("fast path"), "{s}");
    }
}
