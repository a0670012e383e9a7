//! Property-based tests for the circuit IR.

use proptest::prelude::*;
use qcircuit::{qasm, Gate, QuantumCircuit};
use qmath::CMatrix;

/// Strategy over arbitrary gates with arbitrary (bounded) parameters.
fn arb_gate() -> impl Strategy<Value = Gate> {
    let angle = -6.3f64..6.3f64;
    prop_oneof![
        Just(Gate::I),
        Just(Gate::X),
        Just(Gate::Y),
        Just(Gate::Z),
        Just(Gate::H),
        Just(Gate::S),
        Just(Gate::Sdg),
        Just(Gate::T),
        Just(Gate::Tdg),
        Just(Gate::Sx),
        Just(Gate::Sxdg),
        angle.clone().prop_map(Gate::Rx),
        angle.clone().prop_map(Gate::Ry),
        angle.clone().prop_map(Gate::Rz),
        angle.clone().prop_map(Gate::P),
        (angle.clone(), angle.clone(), angle.clone()).prop_map(|(t, p, l)| Gate::U3(t, p, l)),
        Just(Gate::Cx),
        Just(Gate::Cy),
        Just(Gate::Cz),
        Just(Gate::Ch),
        angle.prop_map(Gate::Cp),
        Just(Gate::Swap),
        Just(Gate::Ccx),
        Just(Gate::Cswap),
    ]
}

/// Builds a random valid circuit over `n` qubits from a gate list,
/// assigning operands deterministically from a seed stream.
fn arb_circuit(max_gates: usize) -> impl Strategy<Value = QuantumCircuit> {
    (
        3usize..6,
        proptest::collection::vec((arb_gate(), any::<u64>()), 1..max_gates),
    )
        .prop_map(|(n, gates)| {
            let mut c = QuantumCircuit::new(n, n);
            for (g, seed) in gates {
                let arity = g.num_qubits();
                // Derive distinct qubit operands from the seed.
                let mut qs: Vec<usize> = Vec::with_capacity(arity);
                let mut s = seed;
                while qs.len() < arity {
                    let q = (s % n as u64) as usize;
                    s = s
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    if !qs.contains(&q) {
                        qs.push(q);
                    }
                }
                c.gate(g, qs).expect("operands are valid by construction");
            }
            c
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn gate_matrices_are_unitary(g in arb_gate()) {
        prop_assert!(g.matrix().is_unitary(1e-9));
    }

    #[test]
    fn gate_inverse_matrix_is_adjoint(g in arb_gate()) {
        let m = g.matrix();
        let minv = g.inverse().matrix();
        prop_assert!(minv.approx_eq(&m.adjoint(), 1e-9));
    }

    #[test]
    fn gate_times_inverse_is_identity(g in arb_gate()) {
        let prod = g.matrix().mul(&g.inverse().matrix()).unwrap();
        prop_assert!(prod.approx_eq(&CMatrix::identity(prod.dim()), 1e-9));
    }

    #[test]
    fn circuit_inverse_round_trips(c in arb_circuit(12)) {
        let inv = c.inverse().unwrap();
        let back = inv.inverse().unwrap();
        prop_assert_eq!(back.len(), c.len());
        for (a, b) in c.instructions().iter().zip(back.instructions()) {
            prop_assert_eq!(a.qubits(), b.qubits());
            let (ga, gb) = (a.as_gate().unwrap(), b.as_gate().unwrap());
            prop_assert_eq!(ga.name(), gb.name());
            for (pa, pb) in ga.params().iter().zip(gb.params()) {
                prop_assert!((pa - pb).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn qasm_round_trip_preserves_structure(c in arb_circuit(16)) {
        let src = qasm::to_qasm(&c);
        let parsed = qasm::from_qasm(&src).unwrap();
        prop_assert_eq!(parsed.num_qubits(), c.num_qubits());
        prop_assert_eq!(parsed.len(), c.len());
        for (a, b) in c.instructions().iter().zip(parsed.instructions()) {
            prop_assert_eq!(a.qubits(), b.qubits());
            let (ga, gb) = (a.as_gate().unwrap(), b.as_gate().unwrap());
            prop_assert_eq!(ga.name(), gb.name());
            for (pa, pb) in ga.params().iter().zip(gb.params()) {
                prop_assert!((pa - pb).abs() < 1e-9, "param drift: {} vs {}", pa, pb);
            }
        }
    }

    #[test]
    fn depth_never_exceeds_length(c in arb_circuit(20)) {
        prop_assert!(c.depth() <= c.len());
    }

    #[test]
    fn count_ops_sums_to_length(c in arb_circuit(20)) {
        let total: usize = c.count_ops().values().sum();
        prop_assert_eq!(total, c.len());
    }

    #[test]
    fn render_mentions_every_qubit(c in arb_circuit(10)) {
        let art = qcircuit::display::render(&c);
        for q in 0..c.num_qubits() {
            let label = format!("q{q}:");
            prop_assert!(art.contains(&label));
        }
    }
}
