//! Single-qubit and controlled gates on state vectors.
//! `StateVector::apply_gate` runs every single-qubit gate on the 2×2
//! sweep (on qubit 0, the interleaved-pair primitive `general_pairs`)
//! and CX, CY, CZ, CH and CP on the controlled 2×2 sweep. Every
//! amplitude executor applies these ops through the same sweeps, so this
//! suite checks them against an oracle that shares none of their code: a
//! dense 2⁴×2⁴ operator built here from `gate.matrix()` by index
//! arithmetic and applied row by row in ascending column order.
//!
//! The comparison is exact, amplitude for amplitude under `==`. Row `r`
//! of the operator has at most two nonzero entries, at the pair members
//! `r & !t` and `r | t` of the target bit `t`, in that ascending order,
//! so its sum forms the same two products as `Mat2::apply` and adds them
//! in the same order; every other term is a product with an exact zero.
//! The two can differ at most in the sign of a zero (`-0.0 == 0.0`), the
//! argument `density_kernels.rs` makes for density matrices.
//!
//! CI also runs this suite under `QSIM_SIMD=scalar`, so the sweeps hold
//! on the scalar dispatch path as well as the detected one.

use qcircuit::{Gate, QubitId};
use qmath::random::random_statevector;
use qmath::Complex;
use qsim::StateVector;
use rand::rngs::StdRng;
use rand::SeedableRng;

const N: usize = 4;

/// A random normalised `N`-qubit state.
fn random_state(seed: u64) -> StateVector {
    StateVector::from_amplitudes(random_statevector(N, &mut StdRng::seed_from_u64(seed))).unwrap()
}

/// `gate` on `qubits` (gate-local bit `j` is `qubits[j]`), applied to
/// `psi` as a dense `2^N × 2^N` operator: entry `(r, c)` is the gate's
/// entry at the local indices of `r` and `c` when the two agree on
/// every bit outside `qubits`, and zero otherwise.
fn dense_apply(gate: &Gate, qubits: &[usize], psi: &StateVector) -> Vec<Complex> {
    let g = gate.matrix();
    let mask: usize = qubits.iter().map(|&q| 1 << q).sum();
    let local = |i: usize| -> usize {
        qubits
            .iter()
            .enumerate()
            .map(|(j, &q)| ((i >> q) & 1) << j)
            .sum()
    };
    (0..1usize << N)
        .map(|r| {
            let mut acc = Complex::ZERO;
            for c in 0..1usize << N {
                let entry = if r & !mask == c & !mask {
                    g.get(local(r), local(c))
                } else {
                    Complex::ZERO
                };
                acc += entry * psi.amplitude(c);
            }
            acc
        })
        .collect()
}

/// Applies `gate` both ways to a fresh random state and compares.
fn check(gate: &Gate, qubits: &[usize], seed: u64) {
    let mut swept = random_state(seed);
    let expected = dense_apply(gate, qubits, &swept);
    let operands: Vec<QubitId> = qubits.iter().map(|&q| QubitId::from(q)).collect();
    swept.apply_gate(gate, &operands).unwrap();
    for (i, (got, want)) in swept.amplitudes().iter().zip(&expected).enumerate() {
        assert_eq!(got, want, "{gate:?} on {qubits:?} at amplitude {i}");
    }
}

/// Every single-qubit gate, one parameter set per parameterised variant.
/// The match has no wildcard arm, so a new variant does not compile
/// here until it is sorted into one of its arms.
fn single_qubit_gates() -> Vec<Gate> {
    let gates = vec![
        Gate::I,
        Gate::X,
        Gate::Y,
        Gate::Z,
        Gate::H,
        Gate::S,
        Gate::Sdg,
        Gate::T,
        Gate::Tdg,
        Gate::Sx,
        Gate::Sxdg,
        Gate::Rx(0.71),
        Gate::Ry(-1.3),
        Gate::Rz(2.2),
        Gate::P(-0.45),
        Gate::U3(0.9, -0.6, 1.7),
    ];
    for gate in &gates {
        match gate {
            Gate::I
            | Gate::X
            | Gate::Y
            | Gate::Z
            | Gate::H
            | Gate::S
            | Gate::Sdg
            | Gate::T
            | Gate::Tdg
            | Gate::Sx
            | Gate::Sxdg
            | Gate::Rx(_)
            | Gate::Ry(_)
            | Gate::Rz(_)
            | Gate::P(_)
            | Gate::U3(..) => {}
            Gate::Cx | Gate::Cy | Gate::Cz | Gate::Ch | Gate::Cp(_) => {
                unreachable!("controlled gates are checked on their own")
            }
            Gate::Swap | Gate::Ccx | Gate::Cswap => {
                unreachable!("wide gates run on the dense kernel")
            }
        }
    }
    gates
}

#[test]
fn single_qubit_gates_match_the_dense_operator_on_every_qubit() {
    for (g, gate) in single_qubit_gates().iter().enumerate() {
        assert_eq!(gate.num_qubits(), 1, "{gate:?}");
        for target in 0..N {
            check(gate, &[target], (g * N + target) as u64);
        }
    }
}

#[test]
fn controlled_gates_match_the_dense_operator() {
    let gates = [
        Gate::Cx,
        Gate::Cy,
        Gate::Cz,
        Gate::Ch,
        Gate::Cp(0.37),
        Gate::Cp(-2.1),
    ];
    // Control below and above the target, adjacent and far apart.
    let pairs = [(0usize, 1usize), (1, 0), (0, 3), (3, 0), (2, 1), (1, 3)];
    for (g, gate) in gates.iter().enumerate() {
        for (p, &(control, target)) in pairs.iter().enumerate() {
            check(
                gate,
                &[control, target],
                1_000 + (g * pairs.len() + p) as u64,
            );
        }
    }
}
