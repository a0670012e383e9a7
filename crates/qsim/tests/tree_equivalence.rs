//! Outcome-tree equivalence suite.
//!
//! Backends walk each compiled program's outcome trees; the plain entry
//! points (`run_compiled_sharded`, `run_clifford_sharded`,
//! `run_hybrid_sharded`) run every shot in full. For one program the two
//! must agree bit for bit, whatever the tree already holds:
//!
//! 1. *Random circuits on every per-shot path* — mid-circuit measure,
//!    reset, post-select, classical conditions, multi-operator Kraus
//!    channels, Pauli tables and readout errors, on the statevector
//!    per-shot path, trajectories, the tableau, and the hybrid backend's
//!    routed, pure-Clifford and fallback paths. Each program runs cold,
//!    warm, under other seeds and shard counts 1–4, and from 4 OS
//!    threads at once on one `Arc<CompiledProgram>`.
//! 2. *The tree engages and stops* — a warm call walks; a capped or
//!    saturated tree stops recording and still matches; a cloned
//!    program starts cold; a shot that fails mid-recording publishes
//!    nothing.
//!
//! Tree counts depend on history, so the bit-identity checks never read
//! them; only the companions of layer 2 do.

use proptest::prelude::*;
use qcircuit::{Gate, QuantumCircuit};
use qnoise::{Kraus, NoiseModel, ReadoutError};
use qsim::tree::{SATURATION_SHOTS, TREE_MAX_BYTES};
use qsim::{
    compile, compile_extension, run_clifford_sharded, run_compiled_sharded, run_hybrid_sharded,
    Backend, CompileOptions, CompiledProgram, Counts, HybridBackend, SimError, StabilizerBackend,
    StatevectorBackend, TrajectoryBackend, TreeStats,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Shots per call: enough to revisit paths within a call.
const SHOTS: u64 = 48;

/// A run's counts and discards, or its error.
type Outcome = Result<(Counts, u64), SimError>;

/// A backend run, in the plain entry points' terms.
fn via_backend(
    backend: &dyn Backend,
    program: &CompiledProgram,
    shots: u64,
    seed: u64,
    threads: usize,
) -> Outcome {
    backend
        .run_compiled_seeded(program, shots, Some(seed), Some(threads))
        .map(|run| (run.counts, run.shots_discarded))
}

/// A plain run, with the backends' verdict on a run that kept nothing.
fn plain(run: Outcome, shots: u64) -> Outcome {
    match run {
        Ok((_, discarded)) if shots > 0 && discarded == shots => Err(SimError::AllShotsDiscarded),
        other => other,
    }
}

/// Asserts that `backend` on `program` equals `reference(seed, threads)`
/// cold, warm, under other seeds and shard counts, and from four OS
/// threads at once.
fn assert_tree_matches_plain(
    what: &str,
    backend: &(dyn Backend + Sync),
    program: &Arc<CompiledProgram>,
    reference: &(dyn Fn(u64, usize) -> Outcome + Sync),
    seed: u64,
) {
    let check = |seed: u64, threads: usize, when: &str| {
        assert_eq!(
            via_backend(backend, program, SHOTS, seed, threads),
            plain(reference(seed, threads), SHOTS),
            "{what}: {when} call, seed {seed}, {threads} shards"
        );
    };
    check(seed, 1, "cold");
    check(seed, 1, "warm");
    for threads in 1..=4 {
        check(seed.wrapping_add(threads as u64), threads, "reseeded");
    }
    std::thread::scope(|scope| {
        for t in 0..4usize {
            let check = &check;
            scope.spawn(move || check(seed ^ (0x51 + t as u64), 1 + t % 3, "concurrent"));
        }
    });
}

/// Which per-shot path a random circuit is built for.
#[derive(Clone, Copy, Debug)]
enum Flavor {
    /// Any gates; amplitudes only.
    Amplitude,
    /// Clifford gates only; tableau-eligible.
    Clifford,
    /// A long Clifford prefix, a non-Clifford island, an amplitude
    /// suffix: the hybrid cost model routes it.
    Routed,
    /// A non-Clifford gate right away: the hybrid backend falls back to
    /// amplitudes.
    Fallback,
}

/// A random circuit for `flavor`: an opening mid-circuit measurement
/// (so the statevector never samples once), then a seeded mix of gates,
/// measurements, resets, post-selections and classically conditioned
/// gates, then every qubit measured.
fn random_circuit(flavor: Flavor, seed: u64) -> QuantumCircuit {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = match flavor {
        Flavor::Amplitude | Flavor::Fallback => 3 + below(&mut rng, 3),
        Flavor::Clifford => 3 + below(&mut rng, 4),
        Flavor::Routed => 10,
    };
    let mut c = QuantumCircuit::new(n, n);
    c.h(0).unwrap();
    c.measure(0, 0).unwrap();
    if let Flavor::Fallback = flavor {
        c.t(1).unwrap();
    }
    let (clifford_ops, tail_ops) = match flavor {
        Flavor::Amplitude | Flavor::Fallback => (0, 14 + below(&mut rng, 8)),
        Flavor::Clifford => (14 + below(&mut rng, 8), 0),
        Flavor::Routed => (24 + below(&mut rng, 6), 6 + below(&mut rng, 4)),
    };
    for _ in 0..clifford_ops {
        random_op(&mut c, &mut rng, false);
    }
    if let Flavor::Routed = flavor {
        c.t(below(&mut rng, n)).unwrap();
    }
    for _ in 0..tail_ops {
        random_op(&mut c, &mut rng, true);
    }
    for q in 0..n {
        c.measure(q, q).unwrap();
    }
    c
}

/// A uniform draw from `0..m`.
fn below(rng: &mut StdRng, m: usize) -> usize {
    (rng.gen::<u64>() % m as u64) as usize
}

/// Appends one random op; `rotations` admits non-Clifford gates.
fn random_op(c: &mut QuantumCircuit, rng: &mut StdRng, rotations: bool) {
    let n = c.num_qubits();
    let a = below(rng, n);
    let b = (a + 1 + below(rng, n - 1)) % n;
    match below(rng, if rotations { 14 } else { 12 }) {
        0 | 1 => c.h(a).unwrap(),
        2 => c.s(a).unwrap(),
        3 => c.x(a).unwrap(),
        4 | 5 => c.cx(a, b).unwrap(),
        6 => c.cz(a, b).unwrap(),
        7 => c.measure(a, below(rng, n)).unwrap(),
        8 => c.reset(a).unwrap(),
        9 => {
            // Post-select a qubit put into superposition first, so most
            // shots survive.
            c.h(a).unwrap();
            c.post_select(a, rng.gen()).unwrap()
        }
        10 | 11 => {
            let gate = if rng.gen() { Gate::X } else { Gate::H };
            c.gate_if(gate, [a], below(rng, n), rng.gen()).unwrap()
        }
        12 => c.t(a).unwrap(),
        _ => c.ry(0.3 + a as f64, a).unwrap(),
    };
}

/// Readout errors on every qubit, with `one` and `two` as the default
/// 1- and 2-qubit channels.
fn noise(n: usize, one: Kraus, two: Kraus) -> NoiseModel {
    let mut model = NoiseModel::new();
    model.with_default_1q(one).with_default_2q(two);
    for q in 0..n {
        model.with_readout_error(q, ReadoutError::new(0.04, 0.07).unwrap());
    }
    model
}

/// Multi-operator Kraus channels, which the trajectory path samples.
fn kraus_noise(n: usize) -> NoiseModel {
    noise(
        n,
        Kraus::amplitude_damping(0.06).unwrap(),
        Kraus::depolarizing2(0.08).unwrap(),
    )
}

/// Pauli channels, which the tableau samples from their tables.
fn pauli_noise(n: usize) -> NoiseModel {
    noise(
        n,
        Kraus::depolarizing(0.06).unwrap(),
        Kraus::depolarizing2(0.08).unwrap(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn statevector_per_shot_path_matches_plain(seed in 0u64..100_000) {
        let backend = StatevectorBackend::new();
        let program = Arc::new(backend.compile(&random_circuit(Flavor::Amplitude, seed)).unwrap());
        prop_assert!(program.fast_path().is_none());
        let reference = |s, t| run_compiled_sharded(&program, SHOTS, s, t);
        assert_tree_matches_plain("statevector", &backend, &program, &reference, seed);
    }

    #[test]
    fn trajectories_match_plain(seed in 0u64..100_000) {
        let circuit = random_circuit(Flavor::Amplitude, seed);
        let backend = TrajectoryBackend::new(kraus_noise(circuit.num_qubits()));
        let program = Arc::new(backend.compile(&circuit).unwrap());
        let reference = |s, t| run_compiled_sharded(&program, SHOTS, s, t);
        assert_tree_matches_plain("trajectory", &backend, &program, &reference, seed);
    }

    #[test]
    fn the_tableau_matches_plain(seed in 0u64..100_000) {
        let circuit = random_circuit(Flavor::Clifford, seed);
        let backend = StabilizerBackend::new(pauli_noise(circuit.num_qubits()));
        let program = Arc::new(backend.compile(&circuit).unwrap());
        let clifford = program.clifford().expect("clifford-eligible");
        let reference = |s, t| run_clifford_sharded(clifford, SHOTS, s, t);
        assert_tree_matches_plain("stabilizer", &backend, &program, &reference, seed);
    }

    #[test]
    fn hybrid_routes_match_plain(seed in 0u64..100_000) {
        let circuit = random_circuit(Flavor::Routed, seed);
        for backend in [HybridBackend::ideal(), HybridBackend::new(pauli_noise(10))] {
            let program = Arc::new(backend.compile(&circuit).unwrap());
            let plan = program.hybrid().expect("clifford prefix recorded");
            prop_assert!(plan.profitable(), "seed {seed}: the cost model must route");
            let reference = |s, t| run_hybrid_sharded(plan, SHOTS, s, t);
            assert_tree_matches_plain("hybrid route", &backend, &program, &reference, seed);
        }
    }

    #[test]
    fn hybrid_pure_clifford_and_fallback_paths_match_plain(seed in 0u64..100_000) {
        let backend = HybridBackend::ideal();
        let program = Arc::new(backend.compile(&random_circuit(Flavor::Clifford, seed)).unwrap());
        let clifford = program.clifford().expect("clifford-eligible");
        let reference = |s, t| run_clifford_sharded(clifford, SHOTS, s, t);
        assert_tree_matches_plain("hybrid pure clifford", &backend, &program, &reference, seed);

        let program = Arc::new(backend.compile(&random_circuit(Flavor::Fallback, seed)).unwrap());
        prop_assert!(program.clifford().is_err());
        prop_assert!(program.hybrid().is_none_or(|plan| !plan.profitable()));
        let reference = |s, t| run_compiled_sharded(&program, SHOTS, s, t);
        assert_tree_matches_plain("hybrid fallback", &backend, &program, &reference, seed);
    }
}

/// `rounds` coin flips on one qubit, each measured into clbit 0: every
/// shot takes one of `2^rounds` paths.
fn coin_flips(rounds: usize) -> QuantumCircuit {
    let mut c = QuantumCircuit::new(1, 1);
    for _ in 0..rounds {
        c.h(0).unwrap();
        c.measure(0, 0).unwrap();
    }
    c
}

#[test]
fn a_warm_call_walks_its_recorded_paths() {
    let backend = StatevectorBackend::new();
    let program = backend
        .compile(&random_circuit(Flavor::Amplitude, 5))
        .unwrap();
    assert_eq!(program.tree_stats(), TreeStats::default());
    let cold = via_backend(&backend, &program, 256, 3, 2);
    let after_cold = program.tree_stats();
    assert!(after_cold.recorded > 0 && after_cold.bytes > 0);
    let warm = via_backend(&backend, &program, 256, 3, 2);
    let after_warm = program.tree_stats();
    assert_eq!(warm, cold);
    assert_eq!(after_warm.shots(), 512);
    assert!(
        after_warm.walked >= after_cold.walked + 256,
        "a repeated call retraces only recorded paths: {after_warm:?}"
    );
    assert_eq!(after_warm.recorded, after_cold.recorded);
}

#[test]
fn a_capped_tree_stops_recording_and_still_matches() {
    // 400 coin flips a shot: each new path adds thousands of bytes, so
    // the tree reaches its cap long before the saturation rule applies.
    let backend = StatevectorBackend::new();
    let program = backend.compile(&coin_flips(400)).unwrap();
    for seed in 0..8 {
        assert_eq!(
            via_backend(&backend, &program, 64, seed, 2),
            plain(run_compiled_sharded(&program, 64, seed, 2), 64),
            "seed {seed}"
        );
    }
    let stats = program.tree_stats();
    assert!(stats.full && !stats.saturated, "{stats:?}");
    assert!(stats.bytes <= TREE_MAX_BYTES, "{stats:?}");
    assert!(stats.unrecorded > 0, "{stats:?}");
}

#[test]
fn a_saturated_tree_stops_recording_and_still_matches() {
    // 20 coin flips a shot: nearly every shot takes a new path, at a
    // few hundred bytes each, so saturation comes before the cap.
    let backend = StatevectorBackend::new();
    let program = backend.compile(&coin_flips(20)).unwrap();
    let shots = SATURATION_SHOTS / 2 + 1;
    for seed in 0..3 {
        assert_eq!(
            via_backend(&backend, &program, shots, seed, 3),
            plain(run_compiled_sharded(&program, shots, seed, 3), shots),
            "seed {seed}"
        );
    }
    let stats = program.tree_stats();
    assert!(stats.saturated && !stats.full, "{stats:?}");
    assert!(stats.unrecorded > 0, "{stats:?}");
    let bytes = stats.bytes;
    via_backend(&backend, &program, 64, 9, 1).unwrap();
    assert_eq!(
        program.tree_stats().bytes,
        bytes,
        "a saturated tree grows no more"
    );
}

#[test]
fn a_cloned_program_starts_cold() {
    let backend = TrajectoryBackend::new(kraus_noise(4));
    let circuit = random_circuit(Flavor::Amplitude, 11);
    let program = backend.compile(&circuit).unwrap();
    let warm = via_backend(&backend, &program, 128, 4, 1);
    assert!(program.tree_stats().bytes > 0);
    let clone = program.clone();
    assert_eq!(clone.tree_stats(), TreeStats::default());
    assert_eq!(via_backend(&backend, &clone, 128, 4, 1), warm);
    assert_eq!(clone.tree_stats().recorded, program.tree_stats().recorded);
}

#[test]
fn a_shot_failing_mid_recording_publishes_nothing() {
    // A prefix compiled from a wider circuit, extended by a narrower
    // one: the conditioned X lands on qubit 5 of a 3-qubit state, so
    // every shot that measures 1 fails after its first draw.
    let mut wide = QuantumCircuit::new(6, 1);
    wide.h(0).unwrap();
    wide.measure(0, 0).unwrap();
    wide.gate_if(Gate::X, [5usize], 0, true).unwrap();
    let mut narrow = QuantumCircuit::new(3, 1);
    narrow.h(0).unwrap();
    narrow.measure(0, 0).unwrap();
    narrow.x(1).unwrap();
    narrow.h(2).unwrap();
    narrow.measure(2, 0).unwrap();
    let prefix = compile(&wide, None).unwrap();
    let program = compile_extension(&prefix, &narrow, 3, None, CompileOptions::default()).unwrap();
    let backend = StatevectorBackend::new();

    // One successful shot records a path.
    let seed = (0..64)
        .find(|&s| run_compiled_sharded(&program, 1, s, 1).is_ok())
        .expect("some shot measures 0");
    let first = via_backend(&backend, &program, 1, seed, 1);
    assert!(first.is_ok());
    let recorded = program.tree_stats();
    assert_eq!(recorded.recorded, 1);

    // A call whose shot reaches the failing branch fails like the plain
    // path and leaves the published tree as it was.
    let failed = via_backend(&backend, &program, 64, 7, 1);
    assert!(
        matches!(failed, Err(SimError::QubitOutOfRange { .. })),
        "{failed:?}"
    );
    assert_eq!(failed, run_compiled_sharded(&program, 64, 7, 1));
    assert_eq!(program.tree_stats(), recorded);
    assert_eq!(via_backend(&backend, &program, 1, seed, 1), first);
    assert_eq!(program.tree_stats().walked, 1);

    // Sharded calls fail like the plain path too.
    for threads in 2..=4 {
        assert_eq!(
            via_backend(&backend, &program, 64, 7, threads),
            run_compiled_sharded(&program, 64, 7, threads)
        );
    }
}
