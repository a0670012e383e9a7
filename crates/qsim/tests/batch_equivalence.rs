//! Batched-vs-sequential equivalence: the property suite proving that
//! batch-planned execution (`CompileOptions::batching`) produces counts
//! **bit-identical** to per-op sequential execution of the same compiled
//! stream — across random disjoint-layer circuits, all three backends,
//! any `(seed, threads)`, and with and without noise barriers.
//!
//! The two compilations differ only in the attached plan: the op streams
//! are asserted identical first, so any divergence is attributable to
//! the blocked kernels.

use proptest::prelude::*;
use qcircuit::QuantumCircuit;
use qsim::{
    compile_with, Backend, CompileOptions, DensityMatrixBackend, SimdBackend, StatevectorBackend,
    TrajectoryBackend,
};

mod support;
use support::with_forced_simd;

const BATCHED: CompileOptions = CompileOptions {
    fuse_1q: true,
    batching: true,
};
const SEQUENTIAL: CompileOptions = CompileOptions {
    fuse_1q: true,
    batching: false,
};

/// Builds a random layered circuit from drawn layer codes: wide 1q
/// layers, disjoint CX/CZ layers, and mid-circuit measurement barriers,
/// finished with a full measurement — the shape assertion
/// instrumentation produces.
fn layered_circuit(num_qubits: usize, layer_codes: &[u64]) -> QuantumCircuit {
    let mut c = QuantumCircuit::new(num_qubits, num_qubits);
    for &code in layer_codes {
        match code % 4 {
            // Wide 1q layer: one gate per qubit, gate drawn per wire.
            0 | 1 => {
                for q in 0..num_qubits {
                    let pick = (code >> (q % 16)) % 6;
                    match pick {
                        0 => c.h(q).unwrap(),
                        1 => c.t(q).unwrap(),
                        2 => c.s(q).unwrap(),
                        3 => c.x(q).unwrap(),
                        4 => c.z(q).unwrap(),
                        _ => c.ry(0.1 + (code % 7) as f64 * 0.3, q).unwrap(),
                    };
                }
            }
            // Disjoint two-qubit layer (controlled ops batch too).
            2 => {
                for pair in 0..num_qubits / 2 {
                    let (a, b) = (2 * pair, 2 * pair + 1);
                    if (code >> pair) & 1 == 0 {
                        c.cx(a, b).unwrap();
                    } else {
                        c.cz(a, b).unwrap();
                    }
                }
            }
            // Mid-circuit measurement: a batch barrier and, for the
            // statevector backend, a fast-path defeat.
            _ => {
                let q = (code as usize / 4) % num_qubits;
                c.measure(q, q).unwrap();
            }
        }
    }
    c.measure_all();
    c
}

/// A noise model that leaves 1q layers ideal (so they still batch) but
/// attaches channels to CX gates and readout errors — noise barriers in
/// the middle of otherwise batchable streams.
fn cx_noise() -> qnoise::NoiseModel {
    let mut model = qnoise::NoiseModel::new();
    model.with_gate_error("cx", qnoise::Kraus::depolarizing(0.02).unwrap());
    for q in 0..16 {
        model.with_readout_error(q, qnoise::ReadoutError::new(0.02, 0.01).unwrap());
    }
    model
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn statevector_counts_bit_identical_for_any_seed_and_threads(
        num_qubits in 4usize..9,
        layer_codes in collection::vec(any::<u64>(), 2..8),
        seed in any::<u64>(),
        threads in 1usize..5,
    ) {
        let c = layered_circuit(num_qubits, &layer_codes);
        let batched = compile_with(&c, None, BATCHED).unwrap();
        let sequential = compile_with(&c, None, SEQUENTIAL).unwrap();
        prop_assert_eq!(batched.ops().len(), sequential.ops().len());
        prop_assert!(sequential.batch_plan().is_none());

        let backend = StatevectorBackend::new().with_seed(seed).with_threads(threads);
        let a = backend.run_compiled(&batched, 257).unwrap();
        let b = backend.run_compiled(&sequential, 257).unwrap();
        prop_assert_eq!(a.counts, b.counts);
        prop_assert_eq!(a.shots_discarded, b.shots_discarded);
    }

    #[test]
    fn trajectory_counts_bit_identical_under_noise_barriers(
        num_qubits in 4usize..8,
        layer_codes in collection::vec(any::<u64>(), 2..7),
        seed in any::<u64>(),
        threads in 1usize..4,
    ) {
        let c = layered_circuit(num_qubits, &layer_codes);
        let noise = cx_noise();
        let batched = compile_with(&c, Some(&noise), BATCHED).unwrap();
        let sequential = compile_with(&c, Some(&noise), SEQUENTIAL).unwrap();
        prop_assert_eq!(batched.ops().len(), sequential.ops().len());

        let backend = TrajectoryBackend::new(noise).with_seed(seed).with_threads(threads);
        let a = backend.run_compiled(&batched, 193).unwrap();
        let b = backend.run_compiled(&sequential, 193).unwrap();
        prop_assert_eq!(a.counts, b.counts);
    }

    #[test]
    fn exact_distributions_agree_with_and_without_a_plan(
        num_qubits in 3usize..5,
        layer_codes in collection::vec(any::<u64>(), 2..5),
    ) {
        // The exact executor ignores the plan (per-branch dense path);
        // this pins the fallback: a planned program must evaluate
        // exactly like its plan-free twin.
        let c = layered_circuit(num_qubits, &layer_codes);
        let noise = cx_noise();
        let batched = compile_with(&c, Some(&noise), BATCHED).unwrap();
        let sequential = compile_with(&c, Some(&noise), SEQUENTIAL).unwrap();
        let backend = DensityMatrixBackend::new(cx_noise());
        let a = backend.exact_distribution_compiled(&batched).unwrap();
        let b = backend.exact_distribution_compiled(&sequential).unwrap();
        prop_assert_eq!(a.outcomes, b.outcomes);
    }

    #[test]
    fn batched_amplitudes_are_bit_identical_on_unitary_circuits(
        num_qubits in 4usize..9,
        layer_codes in collection::vec(any::<u64>().prop_filter("unitary layers", |c| c % 4 != 3), 2..8),
        // Wide-layer circuits always batch something; pin it.
    ) {
        let mut c = QuantumCircuit::new(num_qubits, 0);
        for instr in layered_circuit(num_qubits, &layer_codes)
            .instructions()
            .iter()
            .filter(|i| !matches!(i.kind(), qcircuit::OpKind::Measure))
        {
            c.append(instr.clone()).unwrap();
        }
        let batched = compile_with(&c, None, BATCHED).unwrap();
        let sequential = compile_with(&c, None, SEQUENTIAL).unwrap();
        prop_assert!(batched.batched_ops() > 0, "wide unitary layers must batch");

        let backend = StatevectorBackend::new();
        let a = backend.statevector_compiled(&batched).unwrap();
        let b = backend.statevector_compiled(&sequential).unwrap();
        for i in 0..a.amplitudes().len() {
            // f64 `==`: exact, modulo the (invisible) sign of zero.
            prop_assert_eq!(a.amplitude(i), b.amplitude(i));
        }
    }

    #[test]
    fn batched_counts_bit_identical_forced_scalar_vs_forced_vector(
        num_qubits in 4usize..9,
        layer_codes in collection::vec(any::<u64>(), 2..8),
        seed in any::<u64>(),
    ) {
        // The SIMD axis of the same property: a *batched* program (the
        // blocked kernels are the vectorized hot path) must produce
        // bit-identical counts whether every kernel runs the scalar
        // reference loops or the detected vector ISA.
        let c = layered_circuit(num_qubits, &layer_codes);
        let backend = StatevectorBackend::new().with_seed(seed);
        // Each leg compiles its own program: a per-shot run on a shared
        // one would walk the outcome tree the first leg recorded.
        let run_cold = || {
            let batched = compile_with(&c, None, BATCHED).unwrap();
            backend.run_compiled(&batched, 257).unwrap()
        };
        let scalar = with_forced_simd(SimdBackend::Scalar, run_cold);
        let vectored = with_forced_simd(qsim::simd::detected_backend(), run_cold);
        prop_assert_eq!(scalar.counts, vectored.counts);
        prop_assert_eq!(scalar.shots_discarded, vectored.shots_discarded);
    }
}

#[test]
fn wide_instrumented_layer_batches_and_matches_on_every_backend() {
    // Deterministic companion: a 10-qubit wide shallow circuit with a
    // mid-circuit ancilla measurement (the paper's instrumented shape),
    // checked across the full backend matrix.
    let mut c = QuantumCircuit::new(10, 10);
    for round in 0..3 {
        for q in 0..10 {
            match (q + round) % 3 {
                0 => c.h(q).unwrap(),
                1 => c.t(q).unwrap(),
                _ => c.x(q).unwrap(),
            };
        }
        for pair in 0..5 {
            c.cx(2 * pair, 2 * pair + 1).unwrap();
        }
    }
    c.measure(9, 9).unwrap(); // mid-circuit barrier
    for q in 0..9 {
        c.h(q).unwrap();
    }
    c.measure_all();

    let batched = compile_with(&c, None, BATCHED).unwrap();
    let sequential = compile_with(&c, None, SEQUENTIAL).unwrap();
    assert!(batched.batched_ops() >= 40, "got {}", batched.batched_ops());
    assert!(batched.batch_passes() >= 6);
    assert_eq!(sequential.batched_ops(), 0);

    for threads in [1usize, 3] {
        for seed in [0u64, 99] {
            let backend = StatevectorBackend::new()
                .with_seed(seed)
                .with_threads(threads);
            let a = backend.run_compiled(&batched, 501).unwrap();
            let b = backend.run_compiled(&sequential, 501).unwrap();
            assert_eq!(
                a.counts, b.counts,
                "statevector seed {seed} threads {threads}"
            );
        }
    }
    let noise = cx_noise();
    let noisy_batched = compile_with(&c, Some(&noise), BATCHED).unwrap();
    let noisy_sequential = compile_with(&c, Some(&noise), SEQUENTIAL).unwrap();
    let traj = TrajectoryBackend::new(noise).with_seed(5).with_threads(2);
    assert_eq!(
        traj.run_compiled(&noisy_batched, 301).unwrap().counts,
        traj.run_compiled(&noisy_sequential, 301).unwrap().counts,
    );
}
