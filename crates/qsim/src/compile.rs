//! Circuit lowering: `QuantumCircuit` → [`CompiledProgram`].
//!
//! # The lowering pipeline
//!
//! 1. **Noise binding** — when compiling for a noisy backend, the
//!    [`NoiseModel`]'s rule lookup runs once per instruction
//!    ([`NoiseModel::bind_circuit`]) and the resulting
//!    [`qnoise::AppliedChannel`]s ride on the compiled op. The per-shot
//!    hot loop never consults the model again.
//! 2. **Gate fusion** — maximal runs of adjacent unconditioned
//!    single-qubit gates on one wire (found via
//!    [`CircuitDag::single_qubit_runs`]) collapse into one 2×2 matrix
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
use qcircuit::{CircuitDag, Gate, OpKind, QuantumCircuit};
use qmath::Mat2;
use qnoise::NoiseModel;

/// Compilation knobs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct CompileOptions {
    /// Fuse runs of adjacent single-qubit gates into one matrix
    /// (default: on). Turning this off yields straight interpretation of
    /// the instruction stream — the reference the equivalence suite
    /// compares against.
    pub fuse_1q: bool,
    /// Plan batched execution: contiguous runs of disjoint 1q and
    /// controlled-1q ops become [`crate::batch::PlanNode::BatchedApply`]
    /// nodes executed as one blocked pass per shot (default: on).
    /// Batched execution is bit-identical to sequential execution of the
    /// same op stream — the off position exists for the equivalence
    /// suite and the unbatched leg of the `perf` bench's `batch` row.
    pub batching: bool,
}

impl Default for CompileOptions {
    fn default() -> Self {
        CompileOptions {
            fuse_1q: true,
            batching: true,
        }
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
    let instrs = circuit.instructions();
    let n = instrs.len();

    // 1. Bind noise channels per instruction, once.
    let bound: Vec<Vec<qnoise::AppliedChannel>> = match noise {
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
        let dag = CircuitDag::build(circuit);
        for run in dag.single_qubit_runs(circuit) {
            // A member with attached noise ends its segment *inclusively*:
            // the channel acts after that gate, so the gate may absorb its
            // predecessors but nothing may fuse past it.
            let mut segment: Vec<usize> = Vec::new();
            let flush = |segment: &mut Vec<usize>,
                         run_at: &mut Vec<Option<Vec<usize>>>,
                         absorbed: &mut Vec<bool>,
                         fused_gates: &mut usize| {
                if segment.len() >= 2 {
                    *fused_gates += segment.len() - 1;
                    let last = *segment.last().expect("segment non-empty");
                    for &m in &segment[..segment.len() - 1] {
                        absorbed[m] = true;
                    }
                    run_at[last] = Some(std::mem::take(segment));
                } else {
                    segment.clear();
                }
            };
            for &i in &run {
                segment.push(i);
                if !bound[i].is_empty() {
                    flush(&mut segment, &mut run_at, &mut absorbed, &mut fused_gates);
                }
            }
            flush(&mut segment, &mut run_at, &mut absorbed, &mut fused_gates);
        }
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
                    lower_gate(g, instr.qubits())
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
            noise: bound[i].clone(),
        });
    }

    // 4. Fast-path, batch and Clifford-eligibility analyses. The
    //    Clifford pass reads the *source* instructions (classification
    //    is exact per gate; fusion would erase it) plus the same bound
    //    channels, so one compilation serves amplitude and tableau
    //    backends alike. Ineligible programs additionally get the
    //    hybrid routing analysis: the maximal Clifford prefix plus a
    //    standalone compilation of the suffix past the first
    //    non-Clifford island.
    let fast_path = analyze_fast_path(&ops);
    let batch_plan = if options.batching {
        crate::batch::plan(&ops)
    } else {
        None
    };
    let (clifford, clifford_prefix) =
        crate::stabilizer::lower_clifford_scan(circuit, &bound, noise);
    let hybrid = match (&clifford, clifford_prefix) {
        (Err(block), Some(prefix)) => analyze_hybrid(circuit, noise, options, block, prefix),
        _ => None,
    };

    Ok(CompiledProgram::new(
        circuit.num_qubits(),
        circuit.num_clbits(),
        ops,
        fast_path,
        batch_plan,
        n,
        fused_gates,
        clifford,
        hybrid,
    ))
}

/// Amplitude-array passes one tableau→statevector handoff costs: the
/// canonicalization is `O(n³)` bit-operations and the materialization
/// writes every nonzero amplitude once, together worth a few full
/// passes over the `2^n` array.
const HANDOFF_EXTRACTION_PASSES: f64 = 3.0;

/// Discount on the prefix op count when estimating the amplitude passes
/// the tableau saves: single-qubit fusion and batching would have
/// collapsed part of the prefix on the statevector path anyway, so only
/// a fraction of the lowered Clifford ops count as saved passes.
/// Conservative (biases toward the fallback near the break-even point).
const PREFIX_FUSION_DISCOUNT: f64 = 0.5;

/// The hybrid routing analysis for a program blocked at `block`:
/// compiles the suffix `[boundary..]` standalone at full register
/// widths (compiled ops carry absolute indices and noise binds per
/// instruction, so the op stream is position-independent — the
/// [`compile_extension`] technique) and runs the compile-time cost
/// model deciding whether the tableau prefix + extraction beats
/// replaying the prefix on amplitudes.
fn analyze_hybrid(
    circuit: &QuantumCircuit,
    noise: Option<&NoiseModel>,
    options: CompileOptions,
    block: &CliffordBlock,
    prefix: CliffordProgram,
) -> Option<HybridPlan> {
    let boundary = block.instruction();
    if prefix.ops().is_empty() {
        return None;
    }
    let mut suffix = QuantumCircuit::new(circuit.num_qubits(), circuit.num_clbits());
    for instr in &circuit.instructions()[boundary..] {
        suffix.append(instr.clone()).ok()?;
    }
    // The suffix starts with the non-Clifford blocker, so this
    // recursion bottoms out immediately (the inner program's own
    // hybrid analysis sees an empty prefix).
    let suffix = compile_with(&suffix, noise, options).ok()?;

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
        prefix,
        boundary,
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
    let mut suffix = QuantumCircuit::new(circuit.num_qubits(), circuit.num_clbits());
    for instr in &circuit.instructions()[prefix_len..] {
        suffix.append(instr.clone()).map_err(SimError::Circuit)?;
    }
    let tail = compile_with(&suffix, noise, options)?;
    let mut ops: Vec<CompiledOp> = prefix.ops().to_vec();
    ops.extend(tail.ops().iter().cloned());
    // Both analyses are pure functions of the concatenated op stream, so
    // recomputing them here yields exactly what a fresh full compile
    // would (the prefix's own plan is not reusable: a batch may span the
    // concatenation seam).
    let fast_path = analyze_fast_path(&ops);
    let batch_plan = if options.batching {
        crate::batch::plan(&ops)
    } else {
        None
    };
    // The Clifford stream composes by concatenation (it is lowered from
    // source instructions, which never fuse across the seam); a suffix
    // verdict re-anchors its instruction index after the prefix.
    let clifford = match (prefix.clifford(), tail.clifford()) {
        (Ok(p), Ok(t)) => Ok(p.concat(t, circuit.num_qubits(), circuit.num_clbits())),
        (Err(block), _) => Err(block.clone()),
        (Ok(_), Err(block)) => Err(block.offset(prefix_len)),
    };
    // The hybrid analysis does not compose across the seam (the maximal
    // Clifford prefix may end inside either half): recompute it from
    // the full circuit. Scan + analysis are pure functions of
    // `(circuit, noise, options)`, so the result is identical to a
    // fresh compile's.
    let hybrid = match &clifford {
        Ok(_) => None,
        Err(block) => {
            let bound_full: Vec<Vec<qnoise::AppliedChannel>> = match noise {
                Some(model) => model.bind_circuit(circuit),
                None => vec![Vec::new(); circuit.instructions().len()],
            };
            match crate::stabilizer::lower_clifford_scan(circuit, &bound_full, noise) {
                (Err(fresh), Some(clifford_prefix)) => {
                    debug_assert_eq!(
                        &fresh, block,
                        "composed Clifford verdict must match a fresh scan of the full circuit"
                    );
                    analyze_hybrid(circuit, noise, options, &fresh, clifford_prefix)
                }
                _ => None,
            }
        }
    };
    Ok(CompiledProgram::new(
        circuit.num_qubits(),
        circuit.num_clbits(),
        ops,
        fast_path,
        batch_plan,
        prefix.source_instructions() + tail.source_instructions(),
        prefix.fused_gates() + tail.fused_gates(),
        clifford,
        hybrid,
    ))
}

/// Whether splitting `circuit` at `prefix_len` cannot change the fused
/// op stream: no single-qubit fusion run crosses the boundary.
///
/// A run crosses the boundary on wire `w` exactly when the last
/// instruction before the cut touching `w` and the first instruction
/// after the cut touching `w` are both run-fusable (unconditioned
/// single-qubit gates — mirroring
/// [`qcircuit::CircuitDag::single_qubit_runs`] membership); they are
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
    let fusable = |i: usize| {
        instrs[i].condition().is_none()
            && matches!(instrs[i].kind(), OpKind::Gate(g) if g.num_qubits() == 1)
    };
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
        (Some(p), Some(s)) => !(fusable(p) && fusable(s)),
        _ => true,
    })
}

/// The 2×2 matrix of a single-qubit gate (fusion-path helper).
fn gate_mat2(g: &Gate) -> Mat2 {
    g.mat2().expect("single-qubit gate has a 2x2 matrix")
}

/// Materializes one gate application.
fn lower_gate(g: &Gate, qubits: &[qcircuit::QubitId]) -> CompiledKind {
    if let Some(m) = g.mat2() {
        return CompiledKind::Unitary1q {
            qubit: qubits[0],
            matrix: m,
            fused: 1,
        };
    }
    match g {
        Gate::Cx | Gate::Cy | Gate::Cz | Gate::Ch | Gate::Cp(_) => {
            let target_gate = match g {
                Gate::Cx => Gate::X,
                Gate::Cy => Gate::Y,
                Gate::Cz => Gate::Z,
                Gate::Ch => Gate::H,
                Gate::Cp(l) => Gate::P(*l),
                _ => unreachable!(),
            };
            CompiledKind::Controlled1q {
                control: qubits[0],
                target: qubits[1],
                matrix: gate_mat2(&target_gate),
            }
        }
        _ => CompiledKind::UnitaryK {
            qubits: qubits.to_vec(),
            matrix: g.matrix(),
        },
    }
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

    #[test]
    fn fusion_off_is_straight_interpretation() {
        let mut c = QuantumCircuit::new(1, 0);
        c.h(0).unwrap().t(0).unwrap().s(0).unwrap();
        let program = compile_with(
            &c,
            None,
            CompileOptions {
                fuse_1q: false,
                ..CompileOptions::default()
            },
        )
        .unwrap();
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
