//! Standard workloads behave correctly on the simulators, bare and
//! instrumented.

use qassert_suite::prelude::*;
use qcircuit::library::{self, DjOracle};

fn ideal() -> StatevectorBackend {
    StatevectorBackend::new().with_seed(2024)
}

#[test]
fn bernstein_vazirani_recovers_secret_in_one_query() {
    let secret = [true, false, true, true, false];
    let circuit = library::bernstein_vazirani(&secret);
    let result = ideal().run(&circuit, 256).unwrap();
    let mut expected = 0u64;
    for (i, b) in secret.iter().enumerate() {
        if *b {
            expected |= 1 << i;
        }
    }
    assert_eq!(result.counts.get(expected), 256);
}

#[test]
fn deutsch_jozsa_separates_constant_from_balanced() {
    for (oracle, constant) in [
        (DjOracle::ConstantZero, true),
        (DjOracle::ConstantOne, true),
        (DjOracle::BalancedOnFirstBit, false),
        (DjOracle::BalancedParity, false),
    ] {
        let circuit = library::deutsch_jozsa(3, oracle);
        let result = ideal().run(&circuit, 128).unwrap();
        let all_zero = result.counts.get(0);
        if constant {
            assert_eq!(all_zero, 128, "{oracle:?} must measure all zeros");
        } else {
            assert_eq!(all_zero, 0, "{oracle:?} must never measure all zeros");
        }
    }
}

#[test]
fn grover_amplifies_every_marked_state() {
    for marked in 0..4usize {
        let circuit = library::grover(2, marked, 1);
        let result = ideal().run(&circuit, 256).unwrap();
        // One iteration is exact for n = 2.
        assert_eq!(
            result.counts.get(marked as u64),
            256,
            "marked {marked} not amplified"
        );
    }
}

#[test]
fn grover3_beats_uniform_guessing() {
    let circuit = library::grover(3, 0b110, 2);
    let result = ideal().run(&circuit, 2048).unwrap();
    let p = result.counts.probability(0b110);
    assert!(p > 0.85, "grover3 success {p}");
}

#[test]
fn superdense_coding_transmits_both_bits() {
    for (b1, b0) in [(false, false), (false, true), (true, false), (true, true)] {
        let circuit = library::superdense_coding(b1, b0);
        let result = ideal().run(&circuit, 64).unwrap();
        let expected = (u64::from(b1) << 1) | u64::from(b0);
        assert_eq!(
            result.counts.get(expected),
            64,
            "({b1}, {b0}) decoded wrong"
        );
    }
}

#[test]
fn qft_of_basis_state_gives_uniform_magnitudes() {
    let mut circuit = QuantumCircuit::new(3, 0);
    circuit.x(0).unwrap();
    let qft = library::qft(3);
    circuit
        .compose(&qft, &[0.into(), 1.into(), 2.into()], &[])
        .unwrap();
    let state = StatevectorBackend::new().statevector(&circuit).unwrap();
    for p in state.probabilities() {
        assert!((p - 0.125).abs() < 1e-10, "QFT magnitude {p}");
    }
}

#[test]
fn qft_iqft_is_identity() {
    let mut circuit = library::qft(3);
    let inverse = library::iqft(3);
    circuit
        .compose(&inverse, &[0.into(), 1.into(), 2.into()], &[])
        .unwrap();
    let u = qdevice::verify::circuit_unitary(&circuit).unwrap();
    assert!(u.approx_eq(&qmath::CMatrix::identity(8), 1e-9));
}

#[test]
fn w_state_amplitudes_are_uniform_single_excitations() {
    for n in 1..=5usize {
        let circuit = library::w_state(n);
        let state = StatevectorBackend::new().statevector(&circuit).unwrap();
        let expected = (1.0 / n as f64).sqrt();
        for (idx, amp) in state.amplitudes().iter().enumerate() {
            if idx.count_ones() == 1 {
                assert!(
                    (amp.norm() - expected).abs() < 1e-10,
                    "W({n}) index {idx}: |amp| = {}",
                    amp.norm()
                );
            } else {
                assert!(amp.norm() < 1e-10, "W({n}) index {idx} should be empty");
            }
        }
    }
}

#[test]
fn w2_passes_the_odd_parity_entanglement_assertion() {
    // W(2) = (|01⟩ + |10⟩)/√2 is exactly the paper's a|01⟩+b|10⟩ class.
    let mut program = AssertingCircuit::new(library::w_state(2));
    program.assert_entangled([0, 1], Parity::Odd).unwrap();
    let dist = DensityMatrixBackend::ideal()
        .exact_distribution(program.circuit())
        .unwrap();
    assert!((dist.probability(0) - 1.0).abs() < 1e-10);
}

#[test]
fn phase_estimation_exact_binary_fractions() {
    // φ = k/8 with 3 counting qubits resolves deterministically to k.
    for k in [1u64, 3, 5, 7] {
        let phi = k as f64 / 8.0;
        let circuit = library::phase_estimation(phi, 3);
        let result = ideal().run(&circuit, 128).unwrap();
        assert_eq!(
            result.counts.get(k),
            128,
            "phi = {phi} gave {:?}",
            result.counts
        );
    }
}

#[test]
fn phase_estimation_rounds_inexact_phases() {
    // φ = 0.3 with 4 counting qubits: the mode is round(0.3·16) = 5.
    let circuit = library::phase_estimation(0.3, 4);
    let result = ideal().run(&circuit, 4096).unwrap();
    assert_eq!(result.counts.most_frequent(), Some(5));
    // Probability concentrated near the best estimate.
    assert!(result.counts.probability(5) > 0.4);
}

#[test]
fn instrumented_bv_assertion_is_silent_and_answer_unchanged() {
    // Assert the BV ancilla (|−⟩ after preparation) mid-circuit.
    let secret = [true, true, false];
    let mut base = QuantumCircuit::new(4, 3);
    base.x(3).unwrap().h(3).unwrap();
    for q in 0..3 {
        base.h(q).unwrap();
    }
    let mut program = AssertingCircuit::new(base);
    program
        .assert_superposition(3, SuperpositionBasis::Minus)
        .unwrap();
    let c = program.circuit_mut();
    for (q, &bit) in secret.iter().enumerate() {
        if bit {
            c.cx(q, 3).unwrap();
        }
    }
    for q in 0..3 {
        c.h(q).unwrap();
    }
    for q in 0..3 {
        c.measure(q, q).unwrap();
    }
    let outcome = AssertionSession::new(ideal())
        .shot_plan(ShotPlan::Fixed(512))
        .run(&program)
        .unwrap();
    assert_eq!(outcome.assertion_error_rate, 0.0);
    // Secret 011 (LSB first: q0=1, q1=1, q2=0) = key 0b011.
    assert_eq!(outcome.raw.counts.marginal(&[0, 1, 2]).get(0b011), 512);
}

#[test]
fn teleportation_of_random_states_has_unit_fidelity() {
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    for _ in 0..10 {
        let u = qmath::random::haar_unitary2(&mut rng);
        let circuit = library::teleportation();
        // Run shot-by-shot (random prep applied directly to the state)
        // and compare the final q2 state to u|0⟩.
        let mut reference = StateVector::zero_state(1);
        reference.apply_mat2(&u, 0.into()).unwrap();
        for shot in 0..8u64 {
            let mut shot_rng = rand::rngs::StdRng::seed_from_u64(shot);
            let mut state = StateVector::zero_state(3);
            state.apply_mat2(&u, 0.into()).unwrap();
            let mut clbits = 0u64;
            for instr in circuit.instructions().iter() {
                match instr.kind() {
                    qcircuit::OpKind::Gate(g) => {
                        let fire = instr
                            .condition()
                            .map(|c| ((clbits >> c.clbit.index()) & 1 == 1) == c.value)
                            .unwrap_or(true);
                        if fire {
                            state.apply_gate(g, instr.qubits()).unwrap();
                        }
                    }
                    qcircuit::OpKind::Measure => {
                        let outcome = state.measure(instr.qubits()[0], &mut shot_rng).unwrap();
                        let c = instr.clbits()[0].index();
                        clbits |= u64::from(outcome) << c;
                    }
                    _ => {}
                }
            }
            // Compare the marginal state of q2 with the reference.
            let rho = qsim::DensityMatrix::from_statevector(&state);
            let reduced = rho.trace_out(&[0.into(), 1.into()]).unwrap();
            let f = reduced.fidelity_pure(&reference).unwrap();
            assert!((f - 1.0).abs() < 1e-9, "teleport fidelity {f}");
        }
    }
}
