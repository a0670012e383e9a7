//! Controlled gates on density matrices. `DensityMatrix::apply_gate`
//! runs CX, CY, CZ, CH and CP on the controlled 2×2 sweep: `m` on the
//! row bits, then `m*` on the column bits, with the control moving along.
//! It must equal the dense kernel, `apply_matrix(&gate.matrix(), …)`,
//! entry for entry. Both paths form the same products and add them in
//! the same order, and the dense kernel only skips exact zeros, so the
//! two can differ at most in the sign of a zero (`-0.0 == 0.0`).
//!
//! CI also runs this suite under `QSIM_SIMD=scalar`, so the controlled
//! sweep holds on the scalar dispatch path as well as the detected one.

use qcircuit::{Gate, QubitId};
use qmath::random::random_statevector;
use qnoise::Kraus;
use qsim::{DensityMatrix, StateVector};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A random mixed state on `n` qubits: a random pure state, then
/// amplitude damping of a different strength on each qubit.
fn random_rho(n: usize, seed: u64) -> DensityMatrix {
    let amps = random_statevector(n, &mut StdRng::seed_from_u64(seed));
    let mut rho = DensityMatrix::from_statevector(&StateVector::from_amplitudes(amps).unwrap());
    for q in 0..n {
        let damping = Kraus::amplitude_damping(0.05 + 0.1 * q as f64).unwrap();
        rho.apply_kraus(&damping, &[QubitId::from(q)]).unwrap();
    }
    rho
}

#[test]
fn controlled_gates_match_the_dense_kernel_entry_for_entry() {
    let n = 4;
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
            let qubits = [QubitId::from(control), QubitId::from(target)];
            let mut kernel = random_rho(n, (g * pairs.len() + p) as u64);
            let mut dense = kernel.clone();
            kernel.apply_gate(gate, &qubits).unwrap();
            dense.apply_matrix(&gate.matrix(), &qubits).unwrap();
            for row in 0..1 << n {
                for col in 0..1 << n {
                    assert_eq!(
                        kernel.get(row, col),
                        dense.get(row, col),
                        "{gate:?} on (control {control}, target {target}) at ({row}, {col})"
                    );
                }
            }
        }
    }
}
