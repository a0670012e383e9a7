//! Stabilizer backend equivalence suite.
//!
//! Four layers of evidence pin the tableau executor to the amplitude
//! backends:
//!
//! 1. *Golden tableau vectors* — hand-derived stabilizer/destabilizer
//!    strings for fixed Clifford sequences, rendered through the
//!    public `Tableau` API.
//! 2. *Distribution identity at small n* — seeded stabilizer counts sit
//!    within sampling tolerance of the exact density-matrix
//!    distribution on Clifford workloads (GHZ, teleportation with its
//!    classically-conditioned corrections, an S/√X/CZ/SWAP-rich
//!    circuit), and under Pauli + readout noise they match the
//!    trajectory backend's empirical distribution.
//! 3. *Bit-exact determinism* — counts are a pure function of
//!    `(program, seed, threads)`: identical across pool worker counts
//!    (0–3), across the global pool, and across repeated runs.
//! 4. *Typed ineligibility* — non-Clifford gates and non-Pauli channels
//!    surface as `SimError::NotClifford` naming the first offending
//!    source instruction, and compile-extension composition produces
//!    the same Clifford stream as a fresh compile.

use proptest::prelude::*;
use qcircuit::{library, QuantumCircuit};
use qnoise::{Kraus, NoiseModel, ReadoutError};
use qsim::{
    compile, compile_extension, compile_with, run_clifford_sharded_on, Backend, BackendKind,
    CliffordBlock, CompileOptions, Counts, DensityMatrixBackend, ShardPool, SimError,
    StabilizerBackend, StatevectorBackend, Tableau, TrajectoryBackend,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Total variation distance between empirical counts and an exact
/// distribution over `num_clbits` bits.
fn tvd_to_exact(counts: &Counts, exact: &qsim::ExactDistribution, num_clbits: usize) -> f64 {
    let total = counts.total() as f64;
    (0..1u64 << num_clbits)
        .map(|key| (counts.get(key) as f64 / total - exact.probability(key)).abs())
        .sum::<f64>()
        / 2.0
}

/// A circuit exercising every supported Clifford gate family.
fn clifford_zoo() -> QuantumCircuit {
    let mut c = QuantumCircuit::new(4, 4);
    c.h(0).unwrap();
    c.s(0).unwrap();
    c.cx(0, 1).unwrap();
    c.sdg(1).unwrap();
    c.cz(1, 2).unwrap();
    c.sx(2).unwrap();
    c.sxdg(3).unwrap();
    c.cy(2, 3).unwrap();
    c.swap(0, 3).unwrap();
    c.y(1).unwrap();
    c.z(2).unwrap();
    c.x(3).unwrap();
    c.measure_all();
    c
}

/// Teleport |1⟩: Clifford gates plus mid-circuit measurement and
/// classically-conditioned corrections.
fn teleport() -> QuantumCircuit {
    let mut c = QuantumCircuit::new(3, 3);
    c.x(0).unwrap();
    c.compose(
        &library::teleportation(),
        &[0.into(), 1.into(), 2.into()],
        &[0.into(), 1.into()],
    )
    .unwrap();
    c.measure(2, 2).unwrap();
    c
}

#[test]
fn golden_tableau_vectors() {
    // H(0); CX(0,1); S(1); CZ(1,2) — derived by hand.
    let mut t = Tableau::new(3);
    t.h(0);
    t.cx(0, 1);
    t.s(1);
    t.cz(1, 2);
    assert_eq!(t.stabilizer_string(0), "+XYZ");
    assert_eq!(t.stabilizer_string(1), "+ZZI");
    assert_eq!(t.stabilizer_string(2), "+IIZ");
    assert_eq!(t.destabilizer_string(0), "+ZII");

    // Bell pair.
    let mut b = Tableau::new(2);
    b.h(0);
    b.cx(0, 1);
    let mut stabs = [b.stabilizer_string(0), b.stabilizer_string(1)];
    stabs.sort();
    assert_eq!(stabs, ["+XX".to_string(), "+ZZ".to_string()]);
}

#[test]
fn clifford_counts_match_exact_distribution() {
    let mut ghz = library::ghz(5);
    ghz.measure_all();
    let workloads = [
        ("ghz", ghz),
        ("teleport", teleport()),
        ("zoo", clifford_zoo()),
    ];
    let exact_backend = DensityMatrixBackend::ideal();
    let stab = StabilizerBackend::ideal();
    let sv = StatevectorBackend::new();
    for (name, circuit) in &workloads {
        let exact = exact_backend.exact_distribution(circuit).unwrap();
        let program = compile(circuit, None).unwrap();
        let shots = 16_384;
        let stab_run = stab
            .run_compiled_seeded(&program, shots, Some(11), Some(2))
            .unwrap();
        let sv_run = sv
            .run_compiled_seeded(&program, shots, Some(11), Some(2))
            .unwrap();
        let stab_tvd = tvd_to_exact(&stab_run.counts, &exact, circuit.num_clbits());
        let sv_tvd = tvd_to_exact(&sv_run.counts, &exact, circuit.num_clbits());
        assert!(stab_tvd < 0.03, "{name}: stabilizer TVD {stab_tvd}");
        assert!(sv_tvd < 0.03, "{name}: statevector TVD {sv_tvd}");
    }
}

#[test]
fn pauli_noise_matches_trajectory_distribution() {
    let mut model = NoiseModel::new();
    model
        .with_default_1q(Kraus::pauli_channel(0.02, 0.01, 0.03).unwrap())
        .with_default_2q(Kraus::depolarizing2(0.04).unwrap())
        .with_readout_error(0, ReadoutError::new(0.02, 0.05).unwrap())
        .with_readout_error(1, ReadoutError::symmetric(0.03).unwrap());
    let mut bell = library::bell();
    bell.measure_all();

    let shots = 40_000;
    let stab = StabilizerBackend::new(model.clone());
    let stab_program = stab.compile(&bell).unwrap();
    let stab_counts = stab
        .run_compiled_seeded(&stab_program, shots, Some(5), Some(2))
        .unwrap()
        .counts;

    let traj = TrajectoryBackend::new(model.clone());
    let traj_program = traj.compile(&bell).unwrap();
    let traj_counts = traj
        .run_compiled_seeded(&traj_program, shots, Some(6), Some(2))
        .unwrap()
        .counts;

    let tvd = stab_counts.tvd(&traj_counts);
    assert!(tvd < 0.02, "stabilizer vs trajectory TVD {tvd}");
    // Noise visibly leaks into odd-parity outcomes on both.
    assert!(stab_counts.get(0b01) + stab_counts.get(0b10) > 0);
}

#[test]
fn seeded_counts_are_bit_identical_across_pools_and_runs() {
    let circuit = clifford_zoo();
    let program = compile(&circuit, None).unwrap();
    let clifford = program.clifford().unwrap();
    let backend = StabilizerBackend::ideal();
    for seed in [0u64, 1, 42] {
        for threads in 1..=4usize {
            let reference = backend
                .run_compiled_seeded(&program, 999, Some(seed), Some(threads))
                .unwrap();
            // A fresh program, so the repeat does not walk the outcome
            // tree `reference` recorded.
            let again = backend
                .run_compiled_seeded(
                    &compile(&circuit, None).unwrap(),
                    999,
                    Some(seed),
                    Some(threads),
                )
                .unwrap();
            assert_eq!(
                reference, again,
                "repeat run, seed {seed} threads {threads}"
            );
            for workers in 0..=3usize {
                let pool = ShardPool::new(workers);
                let (counts, discarded) =
                    run_clifford_sharded_on(&pool, clifford, 999, seed, threads).unwrap();
                assert_eq!(
                    counts, reference.counts,
                    "workers {workers}, seed {seed}, threads {threads}"
                );
                assert_eq!(discarded, reference.shots_discarded);
            }
        }
    }
}

#[test]
fn non_clifford_gate_is_a_typed_compile_time_verdict() {
    let mut c = QuantumCircuit::new(2, 2);
    c.h(0).unwrap();
    c.t(1).unwrap(); // instruction 1
    c.cx(0, 1).unwrap();
    c.measure_all();
    let program = compile(&c, None).unwrap();
    assert!(!program.is_clifford());
    let backend = StabilizerBackend::ideal();
    let err = backend.run_compiled(&program, 10).unwrap_err();
    match err {
        SimError::NotClifford(CliffordBlock::NonCliffordGate { gate, instruction }) => {
            assert_eq!(gate, "t");
            assert_eq!(instruction, 1);
        }
        other => panic!("unexpected error {other:?}"),
    }
    // The same compiled program still runs on the statevector backend.
    StatevectorBackend::new()
        .run_compiled(&program, 10)
        .unwrap();
}

#[test]
fn non_pauli_channel_is_a_typed_compile_time_verdict() {
    let mut model = NoiseModel::new();
    model.with_default_1q(Kraus::amplitude_damping(0.1).unwrap());
    let mut c = library::bell();
    c.measure_all();
    let backend = StabilizerBackend::new(model);
    let program = backend.compile(&c).unwrap();
    let err = backend.run_compiled(&program, 10).unwrap_err();
    match err {
        SimError::NotClifford(CliffordBlock::NonPauliChannel { op, instruction }) => {
            assert_eq!(op, "h");
            assert_eq!(instruction, 0);
        }
        other => panic!("unexpected error {other:?}"),
    }
}

#[test]
fn extension_composition_matches_fresh_compile() {
    let circuit = clifford_zoo();
    let options = CompileOptions::default();
    // Split after the first 6 instructions (safe: instruction 5/6 are
    // two-qubit ops, so no fusion run crosses the seam).
    let prefix_len = 6;
    let mut prefix_circuit = QuantumCircuit::new(4, 4);
    for instr in &circuit.instructions()[..prefix_len] {
        prefix_circuit.append(instr.clone()).unwrap();
    }
    let prefix = compile_with(&prefix_circuit, None, options).unwrap();
    let extended = compile_extension(&prefix, &circuit, prefix_len, None, options).unwrap();
    let fresh = compile_with(&circuit, None, options).unwrap();
    assert_eq!(
        extended.clifford().unwrap(),
        fresh.clifford().unwrap(),
        "clifford stream composes across the extension seam"
    );
}

#[test]
fn extension_offsets_the_blocking_instruction() {
    let mut circuit = QuantumCircuit::new(2, 2);
    circuit.h(0).unwrap();
    circuit.cx(0, 1).unwrap();
    circuit.t(1).unwrap(); // instruction 2, in the suffix
    circuit.measure_all();
    let options = CompileOptions::default();
    let mut prefix_circuit = QuantumCircuit::new(2, 2);
    for instr in &circuit.instructions()[..2] {
        prefix_circuit.append(instr.clone()).unwrap();
    }
    let prefix = compile_with(&prefix_circuit, None, options).unwrap();
    assert!(prefix.is_clifford());
    let extended = compile_extension(&prefix, &circuit, 2, None, options).unwrap();
    match extended.clifford() {
        Err(CliffordBlock::NonCliffordGate { gate, instruction }) => {
            assert_eq!(gate, "t");
            assert_eq!(*instruction, 2, "suffix index re-anchored after prefix");
        }
        other => panic!("unexpected verdict {other:?}"),
    }
}

#[test]
fn postselection_discards_and_exhaustion_errors() {
    // |1⟩ post-selected on 0: every shot discarded.
    let mut c = QuantumCircuit::new(1, 1);
    c.x(0).unwrap();
    c.post_select(0, false).unwrap();
    c.measure(0, 0).unwrap();
    let backend = StabilizerBackend::ideal();
    assert_eq!(
        backend.run(&c, 50).unwrap_err(),
        SimError::AllShotsDiscarded
    );

    // |+⟩ post-selected on 0: about half survive, all recording 0.
    let mut c = QuantumCircuit::new(1, 1);
    c.h(0).unwrap();
    c.post_select(0, false).unwrap();
    c.measure(0, 0).unwrap();
    let result = StabilizerBackend::ideal()
        .with_seed(3)
        .run(&c, 4000)
        .unwrap();
    assert!(result.shots_discarded > 1500 && result.shots_discarded < 2500);
    assert_eq!(result.counts.get(1), 0);
}

#[test]
fn ghz_parity_at_1024_qubits() {
    // The scale the amplitude backends cannot represent: a 1,024-qubit
    // GHZ chain, reading the two end qubits. Outcomes are perfectly
    // correlated: only 00 and 11 appear.
    let n = 1024;
    let mut c = library::ghz(n);
    c.add_clbit();
    c.add_clbit();
    c.measure(0, 0).unwrap();
    c.measure(n - 1, 1).unwrap();
    let backend = StabilizerBackend::ideal().with_seed(17).with_threads(2);
    let result = backend.run(&c, 256).unwrap();
    assert_eq!(result.counts.get(0b01) + result.counts.get(0b10), 0);
    assert_eq!(result.counts.get(0b00) + result.counts.get(0b11), 256);
    assert!(result.counts.get(0b00) > 0 && result.counts.get(0b11) > 0);
    assert_eq!(backend.kind(), BackendKind::Stabilizer);
}

/// Random Clifford circuit over `n` qubits from a seeded op stream,
/// with up to two mid-circuit measurements and a trailing measure-all.
fn random_clifford(n: usize, ops: usize, seed: u64) -> QuantumCircuit {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut c = QuantumCircuit::new(n, n);
    let mut mid_measures = 0;
    for _ in 0..ops {
        let a = (rng.gen::<u64>() % n as u64) as usize;
        let b = (a + 1 + (rng.gen::<u64>() % (n as u64 - 1)) as usize) % n;
        match rng.gen::<u64>() % 12 {
            0 => c.h(a).unwrap(),
            1 => c.s(a).unwrap(),
            2 => c.sdg(a).unwrap(),
            3 => c.sx(a).unwrap(),
            4 => c.sxdg(a).unwrap(),
            5 => c.x(a).unwrap(),
            6 => c.y(a).unwrap(),
            7 => c.z(a).unwrap(),
            8 => c.cx(a, b).unwrap(),
            9 => c.cz(a, b).unwrap(),
            10 => c.swap(a, b).unwrap(),
            _ => {
                if mid_measures < 2 {
                    mid_measures += 1;
                    c.measure(a, a).unwrap()
                } else {
                    c.h(a).unwrap()
                }
            }
        };
    }
    c.measure_all();
    c
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn random_clifford_circuits_match_exact_distribution(
        n in 2usize..6,
        ops in 6usize..15,
        seed in 0u64..1000,
    ) {
        let circuit = random_clifford(n, ops, seed);
        let exact = DensityMatrixBackend::ideal().exact_distribution(&circuit).unwrap();
        let program = compile(&circuit, None).unwrap();
        let counts = StabilizerBackend::ideal()
            .run_compiled_seeded(&program, 8192, Some(seed ^ 0xABCD), Some(2))
            .unwrap()
            .counts;
        let tvd = tvd_to_exact(&counts, &exact, circuit.num_clbits());
        prop_assert!(tvd < 0.06, "n={n} ops={ops} seed={seed}: TVD {tvd}");
    }

    #[test]
    fn random_seeds_stay_deterministic_across_workers(
        seed in 0u64..10_000,
        threads in 1usize..5,
    ) {
        let circuit = random_clifford(4, 10, seed);
        let program = compile(&circuit, None).unwrap();
        let clifford = program.clifford().unwrap();
        let reference = StabilizerBackend::ideal()
            .run_compiled_seeded(&program, 321, Some(seed), Some(threads))
            .unwrap();
        for workers in [0usize, 3] {
            let pool = ShardPool::new(workers);
            let (counts, _) =
                run_clifford_sharded_on(&pool, clifford, 321, seed, threads).unwrap();
            prop_assert_eq!(&counts, &reference.counts);
        }
    }
}
