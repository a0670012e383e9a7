//! Cross-backend equivalence: compiled (and fused) execution must
//! reproduce straight interpretation **bit-for-bit** on seeded runs.
//!
//! Three layers of evidence:
//!
//! 1. *Compiled vs interpreted, shared RNG stream* — `run_compiled_shot`
//!    with fusion off consumes randomness in the same order as the
//!    reference interpreter `run_shot` and performs identical arithmetic,
//!    so per-shot records match exactly.
//! 2. *Fused vs unfused, whole backends* — every backend run with fusion
//!    on yields counts identical to fusion off for the same seed (fusion
//!    reassociates floating point, but never enough to flip a seeded
//!    sample on these workloads — this suite pins that).
//! 3. *A fusion algebra property test* — fused 2×2 products equal
//!    sequential gate application within 1e-12 on random gate runs and
//!    random states.

use proptest::prelude::*;
use qcircuit::{library, Gate, QuantumCircuit, QubitId};
use qnoise::{presets, NoiseModel};
use qsim::{
    compile_with, run_compiled_sharded, run_compiled_sharded_on, run_compiled_sharded_scoped,
    run_compiled_shot, run_shot, shard_seed, Backend, CompileOptions, Counts, DensityMatrixBackend,
    ShardPool, StateVector, StatevectorBackend, TrajectoryBackend,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

mod support;
use support::with_forced_simd;

/// The workloads the acceptance criteria name: GHZ, teleportation, and
/// Grover, each with a classical record.
fn workloads() -> Vec<(&'static str, QuantumCircuit)> {
    let mut ghz = library::ghz(4);
    ghz.measure_all();

    // Teleport |1⟩ and read every wire: mid-circuit measurements plus
    // classically-conditioned corrections.
    let mut teleport = QuantumCircuit::new(3, 3);
    teleport.x(0).unwrap();
    teleport
        .compose(
            &library::teleportation(),
            &[0.into(), 1.into(), 2.into()],
            &[0.into(), 1.into()],
        )
        .unwrap();
    teleport.measure(2, 2).unwrap();

    let mut grover = library::grover(3, 0b101, 2);
    grover.measure_all();

    vec![
        ("ghz", ghz),
        ("teleportation", teleport),
        ("grover", grover),
    ]
}

/// Straight interpretation of `shots` shots, replicating the backend
/// sharding layout so seeded streams line up shard-for-shard.
fn interpret_counts(
    circuit: &QuantumCircuit,
    noise: Option<&NoiseModel>,
    shots: u64,
    seed: u64,
    threads: usize,
) -> (Counts, u64) {
    let threads = threads.min(shots.max(1) as usize).max(1);
    let mut counts = Counts::new(circuit.num_clbits());
    let mut discarded = 0u64;
    let per = shots / threads as u64;
    let extra = shots % threads as u64;
    for t in 0..threads {
        let shard_shots = per + u64::from((t as u64) < extra);
        let rng_seed = if threads == 1 {
            seed
        } else {
            shard_seed(seed, t)
        };
        let mut rng = StdRng::seed_from_u64(rng_seed);
        for _ in 0..shard_shots {
            match run_shot(circuit, noise, &mut rng).unwrap() {
                Some(record) => counts.record(record.clbits, 1),
                None => discarded += 1,
            }
        }
    }
    (counts, discarded)
}

#[test]
fn compiled_shot_matches_interpreter_on_shared_stream() {
    // Layer 1: identical RNG stream, identical records — per shot, for
    // every workload, ideal and noisy.
    let noisy_model = presets::uniform(4, 0.01, 0.06, 0.02).unwrap();
    for (name, circuit) in workloads() {
        for noise in [None, Some(&noisy_model)] {
            let program = compile_with(&circuit, noise, CompileOptions { fuse_1q: false }).unwrap();
            let mut rng_a = StdRng::seed_from_u64(17);
            let mut rng_b = StdRng::seed_from_u64(17);
            for shot in 0..200 {
                let interpreted = run_shot(&circuit, noise, &mut rng_a).unwrap();
                let compiled = run_compiled_shot(&program, &mut rng_b).unwrap();
                match (interpreted, compiled) {
                    (Some(i), Some(c)) => {
                        assert_eq!(
                            i.clbits,
                            c.clbits,
                            "{name} shot {shot}: clbits diverge (noise: {})",
                            noise.is_some()
                        );
                        assert_eq!(
                            i.state.amplitudes(),
                            c.state.amplitudes(),
                            "{name} shot {shot}: amplitudes diverge"
                        );
                    }
                    (None, None) => {}
                    other => panic!("{name} shot {shot}: discard status diverges: {other:?}"),
                }
            }
        }
    }
}

#[test]
fn statevector_fused_counts_equal_unfused() {
    for (name, circuit) in workloads() {
        for threads in [1usize, 3] {
            let fused = StatevectorBackend::new()
                .with_seed(23)
                .with_threads(threads)
                .run(&circuit, 4096)
                .unwrap();
            let unfused = StatevectorBackend::new()
                .with_seed(23)
                .with_threads(threads)
                .with_fusion(false)
                .run(&circuit, 4096)
                .unwrap();
            assert_eq!(
                fused.counts, unfused.counts,
                "{name} (threads={threads}): fusion changed statevector counts"
            );
            assert_eq!(fused.shots_discarded, unfused.shots_discarded);
        }
    }
}

#[test]
fn trajectory_fused_counts_equal_unfused() {
    let noise = presets::uniform(4, 0.008, 0.05, 0.015).unwrap();
    for (name, circuit) in workloads() {
        for threads in [1usize, 4] {
            let fused = TrajectoryBackend::new(noise.clone())
                .with_seed(31)
                .with_threads(threads)
                .run(&circuit, 2048)
                .unwrap();
            let unfused = TrajectoryBackend::new(noise.clone())
                .with_seed(31)
                .with_threads(threads)
                .with_fusion(false)
                .run(&circuit, 2048)
                .unwrap();
            assert_eq!(
                fused.counts, unfused.counts,
                "{name} (threads={threads}): fusion changed trajectory counts"
            );
        }
    }
}

#[test]
fn density_fused_counts_equal_unfused() {
    let noise = presets::ibmqx4();
    for (name, circuit) in workloads() {
        if circuit.num_qubits() > 5 {
            continue; // ibmqx4 model is 5 qubits
        }
        let fused = DensityMatrixBackend::new(noise.clone())
            .run(&circuit, 8192)
            .unwrap();
        let unfused = DensityMatrixBackend::new(noise.clone())
            .with_fusion(false)
            .run(&circuit, 8192)
            .unwrap();
        assert_eq!(
            fused.counts, unfused.counts,
            "{name}: fusion changed exact density counts"
        );

        let ideal_fused = DensityMatrixBackend::ideal().run(&circuit, 8192).unwrap();
        let ideal_unfused = DensityMatrixBackend::ideal()
            .with_fusion(false)
            .run(&circuit, 8192)
            .unwrap();
        assert_eq!(ideal_fused.counts, ideal_unfused.counts, "{name} (ideal)");
    }
}

#[test]
fn trajectory_per_shot_path_is_bit_identical_to_interpretation() {
    // Layer 2 strengthened: whole-backend counts (sharded) vs a manual
    // interpretation loop replicating the shard seeding — exact equality.
    let noise = presets::uniform(4, 0.01, 0.05, 0.02).unwrap();
    for (name, circuit) in workloads() {
        for threads in [1usize, 4] {
            let backend_counts = TrajectoryBackend::new(noise.clone())
                .with_seed(7)
                .with_threads(threads)
                .with_fusion(false)
                .run(&circuit, 1000)
                .unwrap();
            let (reference, discarded) = interpret_counts(&circuit, Some(&noise), 1000, 7, threads);
            assert_eq!(
                backend_counts.counts, reference,
                "{name} (threads={threads}): compiled sharded execution diverges from interpretation"
            );
            assert_eq!(backend_counts.shots_discarded, discarded);
        }
    }
}

#[test]
fn pooled_sharding_is_bit_identical_to_scoped_sharding() {
    // The tentpole invariant: replacing per-call scoped threads with the
    // persistent work-stealing pool must not move a single count. Same
    // shard seeds, same shard sizes, same merge — for every workload,
    // ideal and noisy, across shard counts (including shard counts that
    // exceed the pool's worker count).
    let noise = presets::uniform(4, 0.01, 0.05, 0.02).unwrap();
    for (name, circuit) in workloads() {
        for noise in [None, Some(&noise)] {
            let program = compile_with(&circuit, noise, CompileOptions::default()).unwrap();
            for threads in [2usize, 4, 7] {
                let (scoped, scoped_disc) =
                    run_compiled_sharded_scoped(&program, 999, 42, threads).unwrap();
                let (pooled, pooled_disc) =
                    run_compiled_sharded(&program, 999, 42, threads).unwrap();
                assert_eq!(
                    scoped,
                    pooled,
                    "{name} (threads={threads}, noisy={}): pooled counts diverge from scoped",
                    noise.is_some()
                );
                assert_eq!(scoped_disc, pooled_disc, "{name}: discards diverge");
            }
        }
    }
}

#[test]
fn pooled_counts_are_independent_of_worker_count() {
    // `threads` is the shard count, not a worker count: the same shard
    // layout executed on pools of different sizes (0 workers = inline on
    // the submitter, up to more workers than shards) must agree exactly.
    let noise = presets::uniform(4, 0.01, 0.06, 0.02).unwrap();
    let (_, circuit) = workloads().remove(0);
    let program = compile_with(&circuit, Some(&noise), CompileOptions::default()).unwrap();
    let reference = run_compiled_sharded_scoped(&program, 1001, 9, 4).unwrap();
    for workers in [0usize, 1, 2, 6] {
        let pool = ShardPool::new(workers);
        let pooled = run_compiled_sharded_on(&pool, &program, 1001, 9, 4).unwrap();
        assert_eq!(
            pooled, reference,
            "worker count {workers} changed sharded counts"
        );
    }
}

#[test]
fn pooled_sweep_of_many_small_calls_matches_scoped_call_for_call() {
    // The assertion-sweep shape: many short seeded calls on one program.
    let noise = presets::uniform(4, 0.008, 0.04, 0.015).unwrap();
    let (_, circuit) = workloads().remove(0);
    let program = compile_with(&circuit, Some(&noise), CompileOptions::default()).unwrap();
    for call in 0..50u64 {
        let scoped = run_compiled_sharded_scoped(&program, 64, call, 3).unwrap();
        let pooled = run_compiled_sharded(&program, 64, call, 3).unwrap();
        assert_eq!(scoped, pooled, "call {call} diverged");
    }
}

#[test]
fn statevector_slow_path_is_bit_identical_to_interpretation() {
    // Teleportation defeats the fast path, so the statevector backend
    // uses per-shot compiled execution — which must equal interpretation.
    let (_, teleport) = workloads().remove(1);
    let backend = StatevectorBackend::new().with_seed(5).with_fusion(false);
    assert!(backend.compile(&teleport).unwrap().fast_path().is_none());
    let result = backend.run(&teleport, 1500).unwrap();
    let (reference, _) = interpret_counts(&teleport, None, 1500, 5, 1);
    assert_eq!(result.counts, reference);
}

#[test]
fn density_exact_distributions_match_within_float_tolerance() {
    // Fused vs unfused exact distributions agree to well below the
    // largest-remainder resolution (fusion only reassociates floats).
    for (name, circuit) in workloads() {
        let fused = DensityMatrixBackend::ideal()
            .exact_distribution(&circuit)
            .unwrap();
        let unfused = DensityMatrixBackend::ideal()
            .with_fusion(false)
            .exact_distribution(&circuit)
            .unwrap();
        assert_eq!(fused.outcomes.len(), unfused.outcomes.len(), "{name}");
        for ((ka, pa), (kb, pb)) in fused.outcomes.iter().zip(&unfused.outcomes) {
            assert_eq!(ka, kb, "{name}: outcome keys diverge");
            assert!(
                (pa - pb).abs() < 1e-12,
                "{name}: probability drifted by {}",
                (pa - pb).abs()
            );
        }
    }
}

fn arb_1q_gate() -> impl Strategy<Value = Gate> {
    let angle = -6.3f64..6.3f64;
    prop_oneof![
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
        (angle.clone(), angle.clone(), angle).prop_map(|(t, p, l)| Gate::U3(t, p, l)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Fusion algebra: the product matrix of a random single-qubit gate
    /// run equals sequential application within 1e-12, on a random state.
    #[test]
    fn fused_products_match_sequential_application(
        gates in proptest::collection::vec(arb_1q_gate(), 2..10),
        seed in 0u64..5_000,
    ) {
        // Sequential application.
        let amps = qmath::random::random_statevector(1, &mut StdRng::seed_from_u64(seed));
        let mut sequential = StateVector::from_amplitudes(amps.clone()).unwrap();
        for g in &gates {
            sequential.apply_gate(g, &[QubitId::new(0)]).unwrap();
        }
        // Fused product via the compiler.
        let mut circuit = QuantumCircuit::new(1, 0);
        for g in &gates {
            circuit.gate(*g, [0usize]).unwrap();
        }
        let program = compile_with(&circuit, None, CompileOptions { fuse_1q: true }).unwrap();
        prop_assert_eq!(program.ops().len(), 1);
        let mut fused = StateVector::from_amplitudes(amps).unwrap();
        match &program.ops()[0].kind {
            qsim::CompiledKind::Unitary1q { matrix, fused: n, .. } => {
                prop_assert_eq!(*n, gates.len());
                fused.apply_mat2(matrix, QubitId::new(0)).unwrap();
            }
            other => panic!("expected fused 1q op, got {other:?}"),
        }
        for (a, b) in sequential.amplitudes().iter().zip(fused.amplitudes()) {
            prop_assert!(
                (*a - *b).norm() < 1e-12,
                "fusion drifted: {:?} vs {:?}", a, b
            );
        }
    }

    /// Fused fast-path sampling equals unfused fast-path sampling for
    /// random single-qubit-heavy circuits.
    #[test]
    fn random_1q_heavy_circuits_sample_identically(
        gates in proptest::collection::vec((arb_1q_gate(), 0u64..3), 4..20),
        seed in 0u64..1_000,
    ) {
        let mut c = QuantumCircuit::new(3, 3);
        for (i, (g, q)) in gates.iter().enumerate() {
            c.gate(*g, [(*q % 3) as usize]).unwrap();
            if i % 5 == 4 {
                c.cx((*q % 3) as usize, ((*q + 1) % 3) as usize).unwrap();
            }
        }
        c.measure_all();
        let fused = StatevectorBackend::new().with_seed(seed).run(&c, 512).unwrap();
        let unfused = StatevectorBackend::new()
            .with_seed(seed)
            .with_fusion(false)
            .run(&c, 512)
            .unwrap();
        prop_assert_eq!(fused.counts, unfused.counts);
    }

    /// The SIMD axis: random 1q-heavy compiled circuits sample
    /// bit-identically with every kernel forced onto the scalar
    /// reference loops vs the detected vector ISA — fusion on, so the
    /// fused General-class matrices go through the vector path too.
    #[test]
    fn random_circuits_sample_identically_forced_scalar_vs_forced_vector(
        gates in proptest::collection::vec((arb_1q_gate(), 0u64..5), 4..20),
        seed in 0u64..1_000,
    ) {
        let mut c = QuantumCircuit::new(5, 5);
        for (i, (g, q)) in gates.iter().enumerate() {
            c.gate(*g, [(*q % 5) as usize]).unwrap();
            if i % 4 == 3 {
                c.cx((*q % 5) as usize, ((*q + 1) % 5) as usize).unwrap();
            }
        }
        c.measure_all();
        let backend = StatevectorBackend::new().with_seed(seed);
        let scalar =
            with_forced_simd(qsim::SimdBackend::Scalar, || backend.run(&c, 512).unwrap());
        let vectored =
            with_forced_simd(qsim::simd::detected_backend(), || backend.run(&c, 512).unwrap());
        prop_assert_eq!(scalar.counts, vectored.counts);
    }
}

#[test]
fn fusion_preserves_rng_order_with_interleaved_noisy_wires() {
    // Per-gate noise on `ry` only: the q0 run [t, ry] fuses (t is
    // channel-free, ry ends the segment), while a noisy ry on q1 sits
    // between them in program order. The fused op must execute at the
    // *last* member's position so the q1 channel still draws first —
    // otherwise fused and unfused seeded counts diverge.
    let mut noise = NoiseModel::new();
    noise.with_gate_error("ry", qnoise::Kraus::depolarizing(0.3).unwrap());
    let mut c = QuantumCircuit::new(2, 2);
    c.t(0).unwrap();
    c.ry(1.0, 1).unwrap();
    c.ry(0.4, 0).unwrap();
    c.measure_all();

    let fused_program = TrajectoryBackend::new(noise.clone()).compile(&c).unwrap();
    assert_eq!(fused_program.fused_gates(), 1, "q0 run should fuse");

    for threads in [1usize, 2] {
        let fused = TrajectoryBackend::new(noise.clone())
            .with_seed(7)
            .with_threads(threads)
            .run(&c, 2000)
            .unwrap();
        let unfused = TrajectoryBackend::new(noise.clone())
            .with_seed(7)
            .with_threads(threads)
            .with_fusion(false)
            .run(&c, 2000)
            .unwrap();
        assert_eq!(
            fused.counts, unfused.counts,
            "fusion reordered RNG draws (threads={threads})"
        );
    }

    // And per shot against the reference interpreter on a shared stream.
    let mut rng_a = StdRng::seed_from_u64(11);
    let mut rng_b = StdRng::seed_from_u64(11);
    for shot in 0..300 {
        let interpreted = run_shot(&c, Some(&noise), &mut rng_a).unwrap().unwrap();
        let compiled = run_compiled_shot(&fused_program, &mut rng_b)
            .unwrap()
            .unwrap();
        assert_eq!(
            interpreted.clbits, compiled.clbits,
            "shot {shot}: fused execution diverged from interpretation"
        );
    }
}

#[test]
fn statevector_accepts_wide_classical_registers() {
    // Pure unitary evolution ignores clbits entirely; a 65-clbit
    // analysis circuit must still evolve (the 64-bit shot-record limit
    // applies only to run paths).
    let mut c = QuantumCircuit::new(2, 65);
    c.h(0).unwrap().cx(0, 1).unwrap();
    let state = StatevectorBackend::new().statevector(&c).unwrap();
    assert!((state.probability_of_one(QubitId::new(1)).unwrap() - 0.5).abs() < 1e-12);
    // Running it is still rejected.
    let mut measured = c.clone();
    measured.measure(0, 0).unwrap();
    assert!(StatevectorBackend::new().run(&measured, 10).is_err());
}

#[test]
fn fused_amplitudes_stay_normalized_on_deep_runs() {
    // 60-gate single-qubit run fused into one matrix: the product must
    // still be unitary to high precision.
    let mut c = QuantumCircuit::new(1, 0);
    for i in 0..60 {
        c.rz(0.1 * i as f64, 0).unwrap();
        c.ry(0.07 * i as f64, 0).unwrap();
    }
    let program = compile_with(&c, None, CompileOptions::default()).unwrap();
    assert_eq!(program.ops().len(), 1);
    let mut state = StateVector::zero_state(1);
    match &program.ops()[0].kind {
        qsim::CompiledKind::Unitary1q { matrix, .. } => {
            state.apply_mat2(matrix, QubitId::new(0)).unwrap();
        }
        other => panic!("expected fused op, got {other:?}"),
    }
    assert!((state.norm_sqr() - 1.0).abs() < 1e-12);
    assert!((state.amplitudes().iter().map(|a| a.norm_sqr()).sum::<f64>() - 1.0).abs() < 1e-12);
}
