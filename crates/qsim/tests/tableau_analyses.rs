//! The tableau-side analyses a compiled program carries, its Clifford
//! lowering and its hybrid routing plan, are pure functions of
//! `(circuit, noise, options)`: a program extended from a compiled
//! prefix reads the same ones as a fresh compile of the full circuit,
//! and so does a clone of either, whichever of them builds its analyses
//! first.

use proptest::prelude::*;
use qcircuit::{Gate, QuantumCircuit};
use qnoise::{presets, Kraus, NoiseModel};
use qsim::{
    compile_extension, compile_with, extension_fusion_safe, CliffordBlock, CliffordProgram,
    CompileOptions, CompiledProgram,
};

mod support;
use support::digest;

/// What a program's hybrid plan decides: boundary, cost verdict, the
/// tableau prefix and the suffix program's digest.
type PlanSummary<'a> = (usize, bool, &'a CliffordProgram, u64);

fn plan_summary(program: &CompiledProgram) -> Option<PlanSummary<'_>> {
    program.hybrid().map(|plan| {
        (
            plan.boundary(),
            plan.profitable(),
            plan.prefix(),
            digest(plan.suffix()),
        )
    })
}

/// `presets::uniform` plus one amplitude-damping channel on every `s`,
/// so a scan can stop at a `NonPauliChannel` block.
fn non_pauli_model(num_qubits: usize) -> NoiseModel {
    let mut model = presets::uniform(num_qubits, 0.01, 0.03, 0.02).unwrap();
    model.with_gate_error("s", Kraus::amplitude_damping(0.05).unwrap());
    model
}

/// Checks every fusion-safe split of `circuit`: the extended program,
/// the fresh compile and a clone of each, taken both before and after
/// their first read, agree on both analyses.
fn assert_analyses_agree(circuit: &QuantumCircuit, noise: Option<&NoiseModel>, fuse_1q: bool) {
    let options = CompileOptions { fuse_1q };
    let fresh = compile_with(circuit, noise, options).unwrap();
    let fresh_cold = fresh.clone();
    let expected_clifford = fresh.clifford();
    let expected_plan = plan_summary(&fresh);
    let fresh_warm = fresh.clone();
    for (name, program) in [("fresh clone", &fresh_cold), ("warm clone", &fresh_warm)] {
        assert_eq!(program.clifford(), expected_clifford, "{name}");
        assert_eq!(plan_summary(program), expected_plan, "{name}");
    }
    for k in 1..circuit.len() {
        if !extension_fusion_safe(circuit, k, options) {
            continue;
        }
        let mut head = QuantumCircuit::new(circuit.num_qubits(), circuit.num_clbits());
        for instr in &circuit.instructions()[..k] {
            head.append(instr.clone()).unwrap();
        }
        let head = compile_with(&head, noise, options).unwrap();
        let extended = compile_extension(&head, circuit, k, noise, options).unwrap();
        let extended_cold = extended.clone();
        // The hybrid plan first here, so it runs the Clifford scan.
        let plan = plan_summary(&extended);
        assert_eq!(plan, expected_plan, "split {k}");
        assert_eq!(extended.clifford(), expected_clifford, "split {k}");
        let extended_warm = extended.clone();
        for program in [&extended_cold, &extended_warm] {
            assert_eq!(program.clifford(), expected_clifford, "split {k}, clone");
            assert_eq!(plan_summary(program), expected_plan, "split {k}, clone");
        }
    }
}

/// One random instruction: `(kind, qubit, other qubit, angle)`.
fn arb_op() -> impl Strategy<Value = (u32, usize, usize, f64)> {
    (0u32..12, 0usize..5, 0usize..4, -3.2f64..3.2)
}

/// A `num_qubits`-wide circuit of `ops`, with a mid-circuit measure, a
/// reset and a conditioned X spliced in at fixed thirds, then every
/// qubit measured.
fn build(num_qubits: usize, ops: &[(u32, usize, usize, f64)]) -> QuantumCircuit {
    let n = num_qubits;
    let mut c = QuantumCircuit::new(n, n);
    for (i, &(kind, a, b, angle)) in ops.iter().enumerate() {
        let q = a % n;
        let other = (q + 1 + b % (n - 1)) % n;
        match kind {
            0 => c.h(q),
            1 => c.s(q),
            2 => c.x(q),
            3 => c.gate(Gate::Sdg, [q]),
            4 => c.gate(Gate::Sx, [q]),
            5 => c.t(q),
            6 => c.rz(angle, q),
            7 => c.ry(angle, q),
            8 | 9 => c.cx(q, other),
            10 => c.gate(Gate::Cz, [q, other]),
            _ => c.gate(Gate::Swap, [q, other]),
        }
        .unwrap();
        if i == ops.len() / 3 {
            c.measure(q, q).unwrap();
        }
        if i == ops.len() / 2 {
            c.reset(other).unwrap();
        }
        if i == 2 * ops.len() / 3 {
            c.gate_if(Gate::X, [other], q, true).unwrap();
        }
    }
    c.measure_all();
    c
}

#[test]
fn a_non_pauli_channel_blocks_the_scan_on_every_path() {
    let mut c = QuantumCircuit::new(3, 3);
    c.h(0).unwrap().cx(0, 1).unwrap().measure(1, 1).unwrap();
    c.reset(1).unwrap().gate_if(Gate::X, [2], 1, true).unwrap();
    c.s(2).unwrap(); // instruction 5: carries the damping channel
    c.t(0).unwrap().h(2).unwrap();
    c.measure_all();
    let model = non_pauli_model(3);
    let fresh = compile_with(&c, Some(&model), CompileOptions::default()).unwrap();
    assert_eq!(
        fresh.clifford().unwrap_err(),
        &CliffordBlock::NonPauliChannel {
            op: "s".to_string(),
            instruction: 5,
        }
    );
    assert_eq!(fresh.hybrid().map(|plan| plan.boundary()), Some(5));
    for fuse_1q in [true, false] {
        assert_analyses_agree(&c, Some(&model), fuse_1q);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn extended_fresh_and_cloned_programs_read_the_same_analyses(
        num_qubits in 3usize..6,
        ops in proptest::collection::vec(arb_op(), 6..16),
        setting in 0u32..3,
        fuse_1q in any::<bool>(),
    ) {
        let circuit = build(num_qubits, &ops);
        let model = match setting {
            0 => None,
            1 => Some(presets::uniform(num_qubits, 0.01, 0.03, 0.02).unwrap()),
            _ => Some(non_pauli_model(num_qubits)),
        };
        assert_analyses_agree(&circuit, model.as_ref(), fuse_1q);
    }
}
