//! Hybrid Clifford-routing equivalence suite.
//!
//! Four layers of evidence pin [`HybridBackend`] to the backends it
//! routes between:
//!
//! 1. *Distribution identity on routed circuits* — random
//!    Clifford-prefix × non-Clifford-suffix circuits (10–12 qubits, so
//!    the cost model genuinely routes them) produce counts within
//!    sampling tolerance of the exact marginals computed from the full
//!    statevector, and of the exact density-matrix backend.
//! 2. *Bit-exact determinism* — hybrid counts are a pure function of
//!    `(program, seed, threads)` across repeated runs and across the
//!    seeded/threaded override surfaces (the shard split itself rides
//!    on the same generic harness the other per-shot backends pin
//!    against pool-worker counts).
//! 3. *Pure-Clifford delegation* — a Clifford-only circuit runs
//!    bit-identically to [`StabilizerBackend`] with zero handoff, at
//!    register widths no amplitude substrate could even allocate.
//! 4. *State carried across the cut* — classical bits written by prefix
//!    measurements steer conditioned non-Clifford suffix ops, proving
//!    the handoff transports both the quantum state and the clbits.

use proptest::prelude::*;
use qcircuit::{library, Gate, QuantumCircuit};
use qsim::{
    Backend, BackendKind, Counts, DensityMatrixBackend, HybridBackend, StabilizerBackend,
    StatevectorBackend,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Random Clifford prefix (unitary-only) over `n` qubits followed by a
/// small non-Clifford island, measuring qubits 0..3 into clbits 0..3.
/// Keeping the measured register narrow keeps the outcome space small
/// enough for TVD estimates at a few hundred shots.
fn routed_circuit(n: usize, prefix_ops: usize, seed: u64) -> QuantumCircuit {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut c = QuantumCircuit::new(n, 3);
    let mut pick = |m: usize| (rng.gen::<u64>() % m as u64) as usize;
    for _ in 0..prefix_ops {
        let a = pick(n);
        let b = (a + 1 + pick(n - 1)) % n;
        match pick(8) {
            0 => c.h(a).unwrap(),
            1 => c.s(a).unwrap(),
            2 => c.sdg(a).unwrap(),
            3 => c.x(a).unwrap(),
            4 => c.z(a).unwrap(),
            5 => c.cx(a, b).unwrap(),
            6 => c.cz(a, b).unwrap(),
            _ => c.swap(a, b).unwrap(),
        };
    }
    // The island: one to three non-Clifford ops.
    for _ in 0..=pick(3) {
        let a = pick(3);
        match pick(3) {
            0 => c.t(a).unwrap(),
            1 => c.tdg(a).unwrap(),
            _ => c.rz(0.3 + a as f64, a).unwrap(),
        };
    }
    c.h(0).unwrap();
    for q in 0..3 {
        c.measure(q, q).unwrap();
    }
    c
}

/// Exact 3-bit marginals of `circuit` (measurements stripped), from the
/// full statevector: P(k) = Σ_{idx ≡ k (mod 8)} |amp(idx)|².
fn exact_marginals(circuit: &QuantumCircuit) -> Vec<f64> {
    let mut unmeasured = QuantumCircuit::new(circuit.num_qubits(), 0);
    for instr in circuit.instructions() {
        if let qcircuit::OpKind::Gate(g) = instr.kind() {
            unmeasured.gate(*g, instr.qubits().iter().copied()).unwrap();
        }
    }
    let psi = StatevectorBackend::new().statevector(&unmeasured).unwrap();
    let mut probs = vec![0.0f64; 8];
    for idx in 0..(1usize << circuit.num_qubits()) {
        probs[idx & 0b111] += psi.amplitude(idx).norm_sqr();
    }
    probs
}

fn tvd_to_probs(counts: &Counts, probs: &[f64]) -> f64 {
    let total = counts.total() as f64;
    probs
        .iter()
        .enumerate()
        .map(|(k, p)| (counts.get(k as u64) as f64 / total - p).abs())
        .sum::<f64>()
        / 2.0
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn routed_circuits_match_exact_marginals(
        n in 10usize..13,
        prefix_ops in 16usize..28,
        seed in 0u64..1000,
    ) {
        let circuit = routed_circuit(n, prefix_ops, seed);
        let backend = HybridBackend::ideal();
        let program = backend.compile(&circuit).unwrap();
        let plan = program.hybrid().expect("clifford prefix recorded");
        prop_assert!(plan.profitable(), "n={n} ops={prefix_ops}: cost model must route");
        let counts = backend
            .run_compiled_seeded(&program, 1024, Some(seed ^ 0x5EED), Some(2))
            .unwrap()
            .counts;
        let tvd = tvd_to_probs(&counts, &exact_marginals(&circuit));
        prop_assert!(tvd < 0.08, "n={n} ops={prefix_ops} seed={seed}: TVD {tvd}");
    }

    #[test]
    fn hybrid_counts_are_a_pure_function_of_seed_and_threads(
        seed in 0u64..10_000,
        threads in 1usize..5,
    ) {
        let circuit = routed_circuit(10, 20, seed);
        let backend = HybridBackend::ideal();
        let program = backend.compile(&circuit).unwrap();
        let reference = backend
            .run_compiled_seeded(&program, 321, Some(seed), Some(threads))
            .unwrap();
        // Repeat runs and the builder surface must both land on the
        // identical histogram.
        let repeat = backend
            .run_compiled_seeded(&program, 321, Some(seed), Some(threads))
            .unwrap();
        prop_assert_eq!(&repeat.counts, &reference.counts);
        let built = HybridBackend::ideal()
            .with_seed(seed)
            .with_threads(threads)
            .run_compiled(&program, 321)
            .unwrap();
        prop_assert_eq!(&built.counts, &reference.counts);
    }
}

#[test]
fn routed_counts_match_the_exact_backend() {
    // Cross-check against the exact density-matrix distribution at a
    // width where it is still computable (2^10 × 2^10 entries).
    let circuit = routed_circuit(10, 20, 99);
    let exact = DensityMatrixBackend::ideal()
        .exact_distribution(&circuit)
        .unwrap();
    let backend = HybridBackend::ideal();
    let program = backend.compile(&circuit).unwrap();
    assert!(program.hybrid().unwrap().profitable());
    let counts = backend
        .run_compiled_seeded(&program, 4096, Some(7), Some(2))
        .unwrap()
        .counts;
    let total = counts.total() as f64;
    let tvd: f64 = (0..8u64)
        .map(|k| (counts.get(k) as f64 / total - exact.probability(k)).abs())
        .sum::<f64>()
        / 2.0;
    assert!(tvd < 0.05, "TVD vs exact backend: {tvd}");
}

#[test]
fn pure_clifford_delegates_to_the_tableau_with_zero_handoff() {
    // 40 qubits: no amplitude substrate could allocate 2^40 amplitudes,
    // so finishing at all proves the hybrid backend never materializes
    // the state for Clifford-only programs.
    let n = 40;
    let mut c = library::ghz(n);
    c.add_clbit();
    c.add_clbit();
    c.measure(0, 0).unwrap();
    c.measure(n - 1, 1).unwrap();
    let hybrid = HybridBackend::ideal().with_seed(17).with_threads(2);
    let stab = StabilizerBackend::ideal().with_seed(17).with_threads(2);
    let h = hybrid.run(&c, 256).unwrap();
    let s = stab.run(&c, 256).unwrap();
    assert_eq!(h.counts, s.counts, "delegation must be bit-identical");
    assert_eq!(h.counts.get(0b01) + h.counts.get(0b10), 0);
    assert_eq!(hybrid.kind(), BackendKind::Hybrid);
}

#[test]
fn clbits_written_by_the_prefix_steer_the_suffix() {
    // GHZ over 10 qubits (plus an S-layer so the cost model routes),
    // measure q0 in the prefix, then a *conditioned non-Clifford* Rx(π)
    // in the suffix undoes q1 exactly when the prefix measured 1. c1 is
    // always 0 — but only if the handoff carried both the collapsed
    // state and the classical bit across the cut.
    let n = 10;
    let mut c = QuantumCircuit::new(n, 2);
    c.h(0).unwrap();
    for q in 0..n - 1 {
        c.cx(q, q + 1).unwrap();
    }
    for q in 0..n {
        c.s(q).unwrap();
        c.sdg(q).unwrap();
    }
    c.measure(0, 0).unwrap();
    c.gate_if::<usize, _>(Gate::Rx(std::f64::consts::PI), [1], 0, true)
        .unwrap();
    c.measure(1, 1).unwrap();
    let backend = HybridBackend::ideal().with_seed(3);
    let program = backend.compile(&c).unwrap();
    let plan = program.hybrid().expect("prefix recorded");
    assert!(plan.profitable(), "29-op prefix at n=10 must route");
    let result = backend.run_compiled(&program, 512).unwrap();
    assert_eq!(
        result.counts.get(0b00) + result.counts.get(0b01),
        512,
        "c1 must always be 0: {:?}",
        (0..4u64).map(|k| result.counts.get(k)).collect::<Vec<_>>()
    );
    // Both prefix outcomes actually occur.
    assert!(result.counts.get(0b00) > 100 && result.counts.get(0b01) > 100);
}
