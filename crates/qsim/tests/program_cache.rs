//! Program-cache correctness: a cached compilation must be
//! **byte-identical** to a fresh one.
//!
//! The cache key is `(circuit structural hash, noise fingerprint,
//! compile options)`; these tests pin that the key is neither too
//! coarse (distinct compilations never share an entry) nor the cached
//! value stale (op streams compare equal down to every matrix bit and
//! pre-bound channel), and that execution through a cached program is
//! indistinguishable from execution through a fresh one.

use proptest::prelude::*;
use qcircuit::{library, Gate, QuantumCircuit};
use qnoise::{presets, NoiseModel};
use qsim::{
    compile_with, Backend, CompileOptions, CompiledProgram, ProgramCache, StatevectorBackend,
    TrajectoryBackend,
};
use std::sync::Arc;

mod support;
use support::digest;

fn workloads() -> Vec<QuantumCircuit> {
    let mut ghz = library::ghz(4);
    ghz.measure_all();
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
    vec![ghz, teleport, grover]
}

#[test]
fn cached_programs_are_byte_identical_to_fresh_compiles() {
    let noise = presets::uniform(4, 0.01, 0.05, 0.02).unwrap();
    let cache = ProgramCache::new(32);
    for circuit in workloads() {
        for noise in [None, Some(&noise)] {
            for options in [
                CompileOptions { fuse_1q: true },
                CompileOptions { fuse_1q: false },
            ] {
                let fresh = compile_with(&circuit, noise, options).unwrap();
                let cached = cache.get_or_compile(&circuit, noise, options).unwrap();
                assert_eq!(digest(&fresh), digest(&cached), "cached compile diverges");
                // And the entry is shared on a repeat lookup.
                let again = cache.get_or_compile(&circuit, noise, options).unwrap();
                assert!(Arc::ptr_eq(&cached, &again));
            }
        }
    }
}

#[test]
fn distinct_compilations_never_share_an_entry() {
    let cache = ProgramCache::new(64);
    let circuits = workloads();
    let weak = presets::uniform(4, 0.01, 0.05, 0.02).unwrap();
    let strong = presets::uniform(4, 0.02, 0.05, 0.02).unwrap();
    let mut programs: Vec<Arc<CompiledProgram>> = Vec::new();
    for circuit in &circuits {
        for noise in [None, Some(&weak), Some(&strong)] {
            for fuse_1q in [true, false] {
                programs.push(
                    cache
                        .get_or_compile(circuit, noise, CompileOptions { fuse_1q })
                        .unwrap(),
                );
            }
        }
    }
    for (i, a) in programs.iter().enumerate() {
        for b in &programs[i + 1..] {
            assert!(!Arc::ptr_eq(a, b), "distinct compilations shared an entry");
        }
    }
    assert_eq!(cache.stats().misses, programs.len() as u64);
}

#[test]
fn execution_through_cached_programs_matches_fresh_seeded_runs() {
    let noise = presets::uniform(4, 0.01, 0.04, 0.02).unwrap();
    let cache = ProgramCache::new(16);
    for circuit in workloads() {
        let backend = TrajectoryBackend::new(noise.clone())
            .with_seed(17)
            .with_threads(3);
        let fresh = backend.compile(&circuit).unwrap();
        let cached = cache
            .get_or_compile(&circuit, backend.noise_model(), backend.compile_options())
            .unwrap();
        let a = backend.run_compiled(&fresh, 700).unwrap();
        let b = backend.run_compiled(&cached, 700).unwrap();
        assert_eq!(a.counts, b.counts);
        assert_eq!(a.shots_discarded, b.shots_discarded);

        let ideal = StatevectorBackend::new().with_seed(5);
        let fresh = ideal.compile(&circuit).unwrap();
        let cached = cache
            .get_or_compile(&circuit, ideal.noise_model(), ideal.compile_options())
            .unwrap();
        let a = ideal.run_compiled(&fresh, 700).unwrap();
        let b = ideal.run_compiled(&cached, 700).unwrap();
        assert_eq!(a.counts, b.counts);
    }
}

fn arb_1q_gate() -> impl Strategy<Value = Gate> {
    let angle = -6.3f64..6.3f64;
    prop_oneof![
        Just(Gate::X),
        Just(Gate::H),
        Just(Gate::S),
        Just(Gate::T),
        angle.clone().prop_map(Gate::Rx),
        angle.clone().prop_map(Gate::Ry),
        angle.prop_map(Gate::Rz),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// For random circuits (1q runs, entangling gates, measurements)
    /// with and without noise: the cached program's op stream is
    /// byte-identical to a fresh compile's, and a re-lookup hits.
    #[test]
    fn random_circuits_round_trip_through_the_cache(
        gates in proptest::collection::vec((arb_1q_gate(), 0u64..3), 3..16),
        noisy in any::<bool>(),
    ) {
        let mut circuit = QuantumCircuit::new(3, 3);
        for (i, (g, q)) in gates.iter().enumerate() {
            circuit.gate(*g, [(*q % 3) as usize]).unwrap();
            if i % 4 == 3 {
                circuit.cx((*q % 3) as usize, ((*q + 1) % 3) as usize).unwrap();
            }
        }
        circuit.measure_all();
        let model = presets::uniform(3, 0.01, 0.03, 0.01).unwrap();
        let noise: Option<&NoiseModel> = if noisy { Some(&model) } else { None };
        let cache = ProgramCache::new(8);
        let fresh = compile_with(&circuit, noise, CompileOptions::default()).unwrap();
        let cached = cache.get_or_compile(&circuit, noise, CompileOptions::default()).unwrap();
        prop_assert_eq!(digest(&fresh), digest(&cached));
        let again = cache.get_or_compile(&circuit, noise, CompileOptions::default()).unwrap();
        prop_assert!(Arc::ptr_eq(&cached, &again));
        prop_assert_eq!(cache.stats().hits, 1);
    }
}
