//! Pauli-channel sampling on every executor.
//!
//! A channel with a Pauli form (`qnoise::Kraus::pauli_form`) is sampled
//! from the form's weights and applied as the picked string's X, Y and Z
//! factors; on the amplitude executors every other channel takes the
//! Born-weight path, and the tableau refuses it. This suite pins:
//!
//! 1. *Each branch matches the dense path* — forcing the pick to operator
//!    `i` leaves the state `Kᵢψ/‖Kᵢψ‖`, up to `cᵢ`'s global phase.
//! 2. *Draw count* — a channel with more than one operator takes exactly
//!    one raw draw, a single-operator channel none.
//! 3. *Against the density executor* — an asymmetric Pauli channel,
//!    measured in bases that tell X, Y and Z errors apart, samples the
//!    exact distribution.
//! 4. *Tableau and hybrid draws* — seeded counts of the stabilizer and
//!    hybrid backends under Pauli models with operators of weight 0.
//! 5. *One definition* — a channel without an exact form blocks the
//!    tableau, and trajectories sample it by its operator.

use qcircuit::{Gate, QuantumCircuit, QubitId};
use qmath::Complex;
use qnoise::{Kraus, NoiseModel};
use qsim::{
    compile, run_compiled_shot, Backend, CliffordBlock, CompiledProgram, DensityMatrixBackend,
    Draws, HybridBackend, SimError, StabilizerBackend, StateVector, StatevectorBackend,
    TrajectoryBackend,
};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// Draws that send every pick to operator `index`, reading the weights
/// up to it as the real pick does. Nothing else may draw.
struct Forced {
    index: usize,
}

impl Draws for Forced {
    fn threshold(&mut self, _p: f64) -> bool {
        unreachable!("the programs here measure nothing")
    }

    fn pick<I: IntoIterator<Item = f64>>(&mut self, weights: I) -> usize {
        let read = weights.into_iter().take(self.index + 1).count();
        assert_eq!(read, self.index + 1, "no operator {}", self.index);
        self.index
    }

    fn search<T>(&mut self, _cumulative: &[T], _sum: impl Fn(&T) -> f64) -> usize {
        unreachable!("no sample-once shot here")
    }

    fn coin(&mut self) -> bool {
        unreachable!("no tableau here")
    }

    fn marker(&mut self) {
        unreachable!("no handoff here")
    }
}

/// A generator that counts the raw `u64`s taken from it.
struct Counting {
    rng: StdRng,
    taken: usize,
}

impl RngCore for Counting {
    fn next_u64(&mut self) -> u64 {
        self.taken += 1;
        self.rng.next_u64()
    }
}

/// The Pauli channels under test, with one non-Pauli channel for the
/// Born-weight path. 1-qubit channels first.
fn channels() -> Vec<Kraus> {
    vec![
        Kraus::depolarizing(0.2).unwrap(),
        Kraus::bit_flip(0.3).unwrap(),
        Kraus::phase_flip(0.3).unwrap(),
        Kraus::pauli_channel(0.1, 0.05, 0.2).unwrap(),
        Kraus::bit_flip(0.3)
            .unwrap()
            .then(&Kraus::pauli_channel(0.1, 0.05, 0.2).unwrap()),
        Kraus::amplitude_damping(0.25).unwrap(),
        Kraus::depolarizing2(0.16).unwrap(),
        // Qubit 0 of the channel flips, qubit 1 takes the asymmetric
        // channel: a swapped qubit order shows here.
        Kraus::bit_flip(0.3)
            .unwrap()
            .kron(&Kraus::pauli_channel(0.1, 0.05, 0.2).unwrap()),
    ]
}

/// A program whose only channel follows its last gate, with that gate's
/// operands: a `u3` from `|0⟩` for a 1-qubit channel; two `u3`s and a CX
/// on `pair` for a 2-qubit one. The states are generic, so every Pauli
/// string moves them.
fn noisy_program(channel: &Kraus, pair: [u32; 2]) -> (QuantumCircuit, Vec<QubitId>, NoiseModel) {
    let mut noise = NoiseModel::new();
    let mut circuit;
    let qubits;
    if channel.num_qubits() == 1 {
        circuit = QuantumCircuit::new(1, 0);
        circuit.u3(0.7, 0.3, -1.1, 0).unwrap();
        noise.with_default_1q(channel.clone());
        qubits = vec![QubitId::new(0)];
    } else {
        circuit = QuantumCircuit::new(2, 0);
        circuit.u3(0.7, 0.3, -1.1, 0).unwrap();
        circuit.u3(1.9, -0.4, 0.6, 1).unwrap();
        circuit.gate(Gate::Cx, pair).unwrap();
        noise.with_gate_error("cx", channel.clone());
        qubits = pair.iter().map(|&q| QubitId::new(q)).collect();
    }
    (circuit, qubits, noise)
}

/// The largest entry-wise distance between `got` and `want` after
/// aligning `want`'s global phase to `got`'s.
fn distance_up_to_phase(got: &StateVector, want: &StateVector) -> f64 {
    let overlap = want.inner_product(got).unwrap();
    let phase = overlap.scale(1.0 / overlap.norm());
    got.amplitudes()
        .iter()
        .zip(want.amplitudes())
        .map(|(g, w)| (*g - phase * *w).norm())
        .fold(0.0, f64::max)
}

#[test]
fn each_branch_matches_the_dense_operator() {
    for channel in channels() {
        let pairs: &[[u32; 2]] = if channel.num_qubits() == 1 {
            &[[0, 0]]
        } else {
            &[[0, 1], [1, 0]]
        };
        for &pair in pairs {
            let (circuit, qubits, noise) = noisy_program(&channel, pair);
            let program = compile(&circuit, Some(&noise)).unwrap();
            let before = StatevectorBackend::new().statevector(&circuit).unwrap();
            for (i, k) in channel.ops().iter().enumerate() {
                let mut want = before.clone();
                want.apply_matrix(k, &qubits).unwrap();
                want.normalize();
                let got = run_compiled_shot(&program, &mut Forced { index: i })
                    .unwrap()
                    .expect("nothing discards")
                    .state;
                let d = distance_up_to_phase(&got, &want);
                assert!(
                    d < 1e-12,
                    "operator {i} of {channel:?} on {pair:?}: off by {d:e}"
                );
            }
        }
    }
}

#[test]
fn the_identity_branch_leaves_the_state_untouched() {
    // No rescale and no renormalization: the amplitudes are bit for bit
    // the noiseless ones.
    let channel = Kraus::depolarizing(0.2).unwrap();
    let (circuit, _, noise) = noisy_program(&channel, [0, 0]);
    let program = compile(&circuit, Some(&noise)).unwrap();
    let ideal = compile(&circuit, None).unwrap();
    let got = run_compiled_shot(&program, &mut Forced { index: 0 })
        .unwrap()
        .unwrap()
        .state;
    let want = run_compiled_shot(&ideal, &mut Forced { index: 0 })
        .unwrap()
        .unwrap()
        .state;
    let bits = |s: &StateVector| {
        s.amplitudes()
            .iter()
            .map(|a: &Complex| (a.re.to_bits(), a.im.to_bits()))
            .collect::<Vec<_>>()
    };
    assert_eq!(bits(&got), bits(&want));
}

/// Raw draws one shot of `program` takes.
fn raw_draws(program: &CompiledProgram) -> usize {
    let mut rng = Counting {
        rng: StdRng::seed_from_u64(7),
        taken: 0,
    };
    run_compiled_shot(program, &mut rng).unwrap().unwrap();
    rng.taken
}

#[test]
fn a_channel_draws_once_when_it_has_more_than_one_operator() {
    let many = [
        Kraus::depolarizing(0.0).unwrap(),
        Kraus::bit_flip(0.0).unwrap(),
        Kraus::pauli_channel(0.0, 0.0, 0.0).unwrap(),
        Kraus::amplitude_damping(0.0).unwrap(),
    ];
    let one = [
        Kraus::identity(),
        Kraus::depolarizing2(0.0).unwrap(),
        Kraus::bit_flip(0.0)
            .unwrap()
            .then(&Kraus::phase_flip(0.0).unwrap()),
        Kraus::coherent_overrotation(qnoise::RotationAxis::X, 0.3).unwrap(),
    ];
    // Every channel of `channels()` has more than one operator.
    for (channel, expected) in channels()
        .into_iter()
        .chain(many)
        .map(|k| (k, 1))
        .chain(one.into_iter().map(|k| (k, 0)))
    {
        let (circuit, _, noise) = noisy_program(&channel, [0, 1]);
        let program = compile(&circuit, Some(&noise)).unwrap();
        assert_eq!(raw_draws(&program), expected, "{channel:?}");
    }
}

#[test]
fn trajectories_sample_the_exact_distribution_of_an_asymmetric_pauli_channel() {
    const SHOTS: u64 = 1 << 16;
    // X, Y and Z errors at different rates on every 1-qubit gate, and a
    // product of a bit flip and another asymmetric channel on the CX.
    let mut noise = NoiseModel::new();
    noise
        .with_default_1q(Kraus::pauli_channel(0.02, 0.05, 0.11).unwrap())
        .with_default_2q(
            Kraus::bit_flip(0.04)
                .unwrap()
                .kron(&Kraus::pauli_channel(0.03, 0.01, 0.07).unwrap()),
        );
    // q0 ends in the Z basis (X and Y flip it), q1 in the X basis (Z and
    // Y flip it), q2 in the Y basis (X and Z flip it); q3 and q4 undo a
    // Bell pair, so the CX channel's strings land on distinct outcomes.
    let mut circuit = QuantumCircuit::new(5, 5);
    circuit.gate(Gate::I, [0]).unwrap();
    circuit.h(1).unwrap().h(1).unwrap();
    circuit.h(2).unwrap().s(2).unwrap();
    circuit.sdg(2).unwrap().h(2).unwrap();
    circuit.h(3).unwrap().cx(3, 4).unwrap();
    circuit.cx(3, 4).unwrap().h(3).unwrap();
    for q in 0..5 {
        circuit.measure(q, q).unwrap();
    }
    let sampled = TrajectoryBackend::new(noise.clone())
        .with_seed(11)
        .run(&circuit, SHOTS)
        .unwrap()
        .counts;
    let exact = DensityMatrixBackend::new(noise)
        .run(&circuit, SHOTS)
        .unwrap()
        .counts;
    let tvd = sampled.tvd(&exact);
    assert!(tvd < 0.01, "TVD {tvd}");
}

/// The three Pauli models of the tableau goldens. Each holds an operator
/// of weight exactly 0: model 0's Y rate, model 1's 1-qubit channel and
/// the Z-free factor of its 2-qubit product, and model 2's `s` channel.
fn tableau_models() -> Vec<NoiseModel> {
    let mut first = NoiseModel::new();
    first
        .with_default_1q(Kraus::pauli_channel(0.1, 0.0, 0.2).unwrap())
        .with_default_2q(Kraus::depolarizing2(0.05).unwrap());
    for q in 0..10 {
        let (p01, p10) = [(0.03, 0.08), (0.06, 0.01)][q % 2];
        first.with_readout_error(q, qnoise::ReadoutError::new(p01, p10).unwrap());
    }
    let mut second = NoiseModel::new();
    second
        .with_default_1q(Kraus::depolarizing(0.0).unwrap())
        .with_default_2q(
            Kraus::bit_flip(0.1)
                .unwrap()
                .kron(&Kraus::pauli_channel(0.0, 0.05, 0.0).unwrap()),
        );
    let mut third = qnoise::presets::uniform(10, 0.01, 0.04, 0.02).unwrap();
    third.with_gate_error("s", Kraus::bit_flip(0.0).unwrap());
    vec![first, second, third]
}

/// A 5-qubit Clifford circuit with a mid-circuit measure and a reset.
fn clifford_circuit() -> QuantumCircuit {
    let mut c = QuantumCircuit::new(5, 3);
    c.h(0).unwrap().cx(0, 1).unwrap().s(1).unwrap();
    c.cx(1, 2).unwrap().h(3).unwrap().cz(3, 4).unwrap();
    c.measure(2, 0).unwrap().reset(2).unwrap();
    c.h(2).unwrap().cx(2, 4).unwrap().sdg(4).unwrap();
    c.h(4).unwrap().cx(0, 3).unwrap().y(0).unwrap();
    c.measure(1, 1).unwrap().measure(4, 2).unwrap();
    c
}

/// A 10-qubit GHZ chain and S layer, then a T island at instruction 20.
fn island_circuit() -> QuantumCircuit {
    let mut c = QuantumCircuit::new(10, 3);
    c.h(0).unwrap();
    for q in 0..9 {
        c.cx(q, q + 1).unwrap();
    }
    for q in 0..10 {
        c.s(q).unwrap();
    }
    c.t(1).unwrap().h(1).unwrap().cx(1, 2).unwrap();
    c.measure(0, 0).unwrap().measure(1, 1).unwrap();
    c.measure(9, 2).unwrap();
    c
}

/// Seeded counts of 400 shots under each of [`tableau_models`]: row
/// `4·m + r` holds model `m`'s run `r` (seed 1 with 1 and 3 shards, then
/// seed 7 with 1 and 3), outcome `k`'s count at index `k`.
const CLIFFORD_GOLDENS: [[u64; 8]; 12] = [
    [94, 6, 11, 89, 89, 11, 14, 86],
    [79, 4, 13, 105, 84, 7, 18, 90],
    [94, 6, 20, 87, 92, 4, 16, 81],
    [101, 5, 10, 98, 86, 7, 14, 79],
    [98, 16, 15, 87, 88, 10, 12, 74],
    [65, 17, 9, 97, 95, 16, 14, 87],
    [94, 17, 11, 77, 88, 11, 11, 91],
    [100, 18, 21, 86, 71, 13, 8, 83],
    [100, 4, 6, 87, 85, 13, 7, 98],
    [96, 2, 8, 103, 97, 12, 8, 74],
    [102, 4, 8, 79, 101, 5, 8, 93],
    [97, 4, 5, 91, 105, 7, 7, 84],
];

/// [`CLIFFORD_GOLDENS`]' layout, for [`island_circuit`] on the hybrid
/// backend.
const ISLAND_GOLDENS: [[u64; 8]; 12] = [
    [58, 26, 63, 34, 40, 59, 40, 80],
    [56, 22, 71, 34, 42, 63, 39, 73],
    [67, 23, 73, 23, 33, 66, 37, 78],
    [52, 36, 53, 18, 34, 77, 43, 87],
    [71, 29, 65, 32, 37, 76, 36, 54],
    [75, 36, 59, 36, 31, 58, 28, 77],
    [63, 37, 70, 41, 34, 56, 33, 66],
    [68, 31, 79, 37, 29, 61, 38, 57],
    [80, 15, 83, 20, 16, 90, 23, 73],
    [80, 29, 75, 22, 24, 71, 20, 79],
    [79, 21, 85, 19, 19, 74, 14, 89],
    [68, 21, 77, 19, 20, 95, 18, 82],
];

#[test]
fn noisy_tableau_and_hybrid_draws_are_pinned() {
    // The tableau's draw rule over the Pauli form, frozen: operators of
    // weight 0 never fire and never take a draw. If this fails, restore
    // the draw rule; do not regenerate the vectors.
    let runs = [(1u64, 1usize), (1, 3), (7, 1), (7, 3)];
    for (m, model) in tableau_models().into_iter().enumerate() {
        let island = HybridBackend::new(model.clone()).compile(&island_circuit());
        let plan = island.as_ref().unwrap().hybrid().expect("a prefix");
        assert_eq!(plan.boundary(), 20, "model {m}");
        assert!(plan.profitable(), "model {m}: the prefix must route");
        for (r, &(seed, threads)) in runs.iter().enumerate() {
            let stabilizer = StabilizerBackend::new(model.clone()).with_seed(seed);
            let hybrid = HybridBackend::new(model.clone()).with_seed(seed);
            let runs = [
                stabilizer
                    .with_threads(threads)
                    .run(&clifford_circuit(), 400),
                hybrid
                    .clone()
                    .with_threads(threads)
                    .run(&clifford_circuit(), 400),
                hybrid.with_threads(threads).run(&island_circuit(), 400),
            ];
            let got = runs.map(|run| {
                let counts = run.unwrap().counts;
                (0..8).map(|k| counts.get(k)).collect::<Vec<_>>()
            });
            let (clifford, island) = (CLIFFORD_GOLDENS[4 * m + r], ISLAND_GOLDENS[4 * m + r]);
            assert_eq!(got, [clifford, clifford, island], "model {m}, run {r}");
        }
    }
}

#[test]
fn a_channel_without_an_exact_form_blocks_the_tableau() {
    // Rx(π) is −iX only up to cos(π/2) ≈ 6e-17 on its diagonal, so it
    // has no Pauli form: the tableau refuses it at the first gate it
    // follows, and trajectories apply its one operator as a matrix.
    let mut noise = NoiseModel::new();
    noise.with_default_1q(
        Kraus::coherent_overrotation(qnoise::RotationAxis::X, std::f64::consts::PI).unwrap(),
    );
    let mut bell = QuantumCircuit::new(2, 2);
    bell.h(0).unwrap().cx(0, 1).unwrap();
    bell.measure(0, 0).unwrap().measure(1, 1).unwrap();
    let refused = StabilizerBackend::new(noise.clone())
        .with_seed(5)
        .run(&bell, 400)
        .unwrap_err();
    assert_eq!(
        refused,
        SimError::NotClifford(CliffordBlock::NonPauliChannel {
            op: "h".to_string(),
            instruction: 0,
        })
    );
    let sampled = TrajectoryBackend::new(noise)
        .with_seed(5)
        .run(&bell, 400)
        .unwrap()
        .counts;
    assert_eq!(
        (0..4).map(|k| sampled.get(k)).collect::<Vec<_>>(),
        [201, 0, 0, 199]
    );
}
