//! Scalar-vs-vector bit-identity: every SIMD backend must reproduce the
//! scalar reference loops **bit for bit** (`f64::to_bits` equality, so
//! even the sign of zero must agree — the backends run the *same*
//! operation sequence, not merely an equivalent one).
//!
//! Three layers of evidence:
//!
//! 1. *Run primitive* — the `qsim::simd` `general` primitive on random,
//!    odd-length, unaligned-tail amplitude spans and random complex
//!    matrices, plus a directed sign-of-zero and subnormal sweep.
//! 2. *Apply sweeps* — `apply_mat2_at_on` / `apply_controlled_mat2_at_on`
//!    forced scalar vs forced vector on random matrices, bits, and
//!    state sizes (the run-decomposition layer on top of the
//!    primitives).
//! 3. *End to end* — a compiled wide instrumented circuit executed
//!    forced-scalar vs forced-vector through the real backends: counts
//!    and amplitudes identical.
//!
//! On hosts whose detected backend *is* scalar the comparisons collapse
//! to scalar-vs-scalar and pass trivially — CI with AVX2/NEON runners
//! is where the vector lanes are actually pinned.

use proptest::prelude::*;
use qmath::{Complex, Mat2};
use qsim::simd::{self, test_support};
use qsim::{Backend, SimdBackend, StatevectorBackend, TrajectoryBackend};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

mod support;
use support::with_forced_simd;

/// The vector backend under test: whatever this CPU detects.
fn vector_backend() -> SimdBackend {
    simd::detected_backend()
}

fn assert_bits_equal(scalar: &[Complex], vector: &[Complex], what: &str) {
    for (i, (a, b)) in scalar.iter().zip(vector).enumerate() {
        assert_eq!(
            (a.re.to_bits(), a.im.to_bits()),
            (b.re.to_bits(), b.im.to_bits()),
            "{what}: amplitude {i} diverged between scalar and {}: {a:?} vs {b:?}",
            vector_backend().name()
        );
    }
}

/// A reproducible span mixing magnitudes (including exact and signed
/// zeros and subnormals) so products and sums exercise rounding, not
/// just happy-path arithmetic.
fn random_span(len: usize, seed: u64) -> Vec<Complex> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..len)
        .map(|_| {
            let part = |rng: &mut StdRng| -> f64 {
                match rng.gen::<u64>() % 8 {
                    0 => 0.0,
                    1 => -0.0,
                    2 => f64::MIN_POSITIVE / 2.0,  // subnormal
                    3 => -f64::MIN_POSITIVE / 4.0, // subnormal
                    4 => f64::from_bits(rng.gen::<u64>() % 0x10), // tiny subnormals
                    _ => rng.gen::<f64>() * 2.0 - 1.0,
                }
            };
            Complex::new(part(&mut rng), part(&mut rng))
        })
        .collect()
}

fn random_complex(rng: &mut StdRng) -> Complex {
    Complex::new(rng.gen::<f64>() * 2.0 - 1.0, rng.gen::<f64>() * 2.0 - 1.0)
}

/// Runs the `general` primitive scalar-vs-vector on cloned spans and
/// asserts bitwise agreement.
fn check_general(len: usize, seed: u64) {
    let vector = vector_backend();
    let mut rng = StdRng::seed_from_u64(seed ^ 0xD1F7);
    let x0 = random_span(len, seed);
    let y0 = random_span(len, seed.wrapping_add(1));
    let m = Mat2::new(
        random_complex(&mut rng),
        random_complex(&mut rng),
        random_complex(&mut rng),
        random_complex(&mut rng),
    );
    let (mut sx, mut sy) = (x0.clone(), y0.clone());
    let (mut vx, mut vy) = (x0, y0);
    test_support::general(SimdBackend::Scalar, &mut sx, &mut sy, &m);
    test_support::general(vector, &mut vx, &mut vy, &m);
    assert_bits_equal(&sx, &vx, "general/x");
    assert_bits_equal(&sy, &vy, "general/y");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// Layer 1: the primitive on random spans — short odd lengths
    /// hammer the sub-vector tails, longer ones the packed loops.
    #[test]
    fn primitives_are_bit_identical_on_random_spans(
        len in 1usize..300,
        seed in any::<u64>(),
    ) {
        check_general(len, seed);
    }

    /// Layer 2: the 2×2 sweeps (run decomposition + dispatch) on random
    /// matrices, state sizes 2..2^14, and every (control, target) shape.
    #[test]
    fn mat2_sweeps_are_bit_identical(
        num_qubits in 1usize..14,
        seed in any::<u64>(),
        bit_pick in any::<u64>(),
        controlled in any::<bool>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let m = Mat2::new(
            random_complex(&mut rng),
            random_complex(&mut rng),
            random_complex(&mut rng),
            random_complex(&mut rng),
        );
        let amps0 = random_span(1usize << num_qubits, seed ^ 0xABCD);
        let target = (bit_pick as usize) % num_qubits;
        let control = ((bit_pick >> 32) as usize) % num_qubits;
        let mut scalar_out = amps0.clone();
        let mut vector_out = amps0;
        if controlled && control != target {
            test_support::controlled_mat2_sweep(SimdBackend::Scalar, &mut scalar_out, control, target, &m);
            test_support::controlled_mat2_sweep(vector_backend(), &mut vector_out, control, target, &m);
        } else {
            test_support::mat2_sweep(SimdBackend::Scalar, &mut scalar_out, target, &m);
            test_support::mat2_sweep(vector_backend(), &mut vector_out, target, &m);
        }
        assert_bits_equal(&scalar_out, &vector_out, "mat2 sweep");
    }
}

#[test]
fn primitives_are_bit_identical_on_wide_spans() {
    // 2^14 amplitudes, plus deliberately misaligned (odd-offset)
    // sub-spans.
    check_general(1 << 14, 81);
    check_general((1 << 14) - 1, 181);
    check_general((1 << 14) + 1, 281);
}

#[test]
fn primitives_preserve_zero_signs_and_subnormals() {
    // Directed edge sweep: spans of only signed zeros and subnormals,
    // coefficients drawn from the same set —
    // the values where FMA contraction or reassociation would first
    // show up (double rounding at the subnormal boundary) and where
    // sign handling is visible (±0 sums).
    let edge = [
        0.0,
        -0.0,
        f64::MIN_POSITIVE / 2.0,
        -f64::MIN_POSITIVE / 2.0,
        f64::from_bits(1),
        -f64::from_bits(1),
        1.0,
        -1.0,
    ];
    let mut span = Vec::new();
    for &re in &edge {
        for &im in &edge {
            span.push(Complex::new(re, im));
        }
    }
    let vector = vector_backend();
    for &cr in &edge {
        for &ci in &edge {
            let z = Complex::new(cr, ci);
            let c = Complex::new(ci, cr);
            let g = Mat2::new(z, c, Complex::new(-cr, ci), Complex::new(ci, -cr));
            let (mut sx, mut sy) = (span.clone(), span.clone());
            let (mut vx, mut vy) = (span.clone(), span.clone());
            test_support::general(SimdBackend::Scalar, &mut sx, &mut sy, &g);
            test_support::general(vector, &mut vx, &mut vy, &g);
            assert_bits_equal(&sx, &vx, "edge general/x");
            assert_bits_equal(&sy, &vy, "edge general/y");
        }
    }
}

/// The paper's instrumented shape: wide 1q layers (real, diagonal,
/// anti-diagonal and general matrices), disjoint controlled layers, a mid-circuit ancilla
/// measurement, full readout.
fn wide_instrumented() -> qcircuit::QuantumCircuit {
    let mut c = qcircuit::QuantumCircuit::new(10, 10);
    for round in 0..4 {
        for q in 0..10 {
            match (q + round) % 5 {
                0 => c.h(q).unwrap(),
                1 => c.t(q).unwrap(),
                2 => c.x(q).unwrap(),
                3 => c.y(q).unwrap(),
                _ => c.rz(0.3 + round as f64 * 0.2, q).unwrap(),
            };
        }
        for pair in 0..5 {
            if (round + pair) % 2 == 0 {
                c.cx(2 * pair, 2 * pair + 1).unwrap();
            } else {
                c.cz(2 * pair, 2 * pair + 1).unwrap();
            }
        }
    }
    c.measure(9, 9).unwrap();
    for q in 0..9 {
        c.h(q).unwrap();
    }
    c.measure_all();
    c
}

#[test]
fn end_to_end_counts_are_identical_forced_scalar_vs_forced_vector() {
    // Layer 3: the real execution stack (compile → per-op sweeps →
    // sampling) under the process-global override, both backends.
    let c = wide_instrumented();
    let vector = vector_backend();
    for threads in [1usize, 3] {
        let backend = StatevectorBackend::new()
            .with_seed(11)
            .with_threads(threads);
        let scalar = with_forced_simd(SimdBackend::Scalar, || backend.run(&c, 400).unwrap());
        let vectored = with_forced_simd(vector, || backend.run(&c, 400).unwrap());
        assert_eq!(
            scalar.counts, vectored.counts,
            "statevector counts diverged (threads {threads})"
        );
        assert_eq!(scalar.shots_discarded, vectored.shots_discarded);
    }

    let noise = qnoise::presets::uniform(10, 0.01, 0.04, 0.02).unwrap();
    let traj = TrajectoryBackend::new(noise).with_seed(23).with_threads(2);
    let scalar = with_forced_simd(SimdBackend::Scalar, || traj.run(&c, 300).unwrap());
    let vectored = with_forced_simd(vector, || traj.run(&c, 300).unwrap());
    assert_eq!(scalar.counts, vectored.counts, "trajectory counts diverged");
}

#[test]
fn end_to_end_amplitudes_are_bit_identical_forced_scalar_vs_forced_vector() {
    let mut c = wide_instrumented();
    // Unitary prefix only: strip measurements so the full statevector
    // is comparable.
    let mut unitary = qcircuit::QuantumCircuit::new(10, 0);
    for instr in c
        .instructions()
        .iter()
        .filter(|i| !matches!(i.kind(), qcircuit::OpKind::Measure))
    {
        unitary.append(instr.clone()).unwrap();
    }
    c = unitary;
    let backend = StatevectorBackend::new();
    let scalar = with_forced_simd(SimdBackend::Scalar, || backend.statevector(&c).unwrap());
    let vectored = with_forced_simd(vector_backend(), || backend.statevector(&c).unwrap());
    assert_bits_equal(
        scalar.amplitudes(),
        vectored.amplitudes(),
        "end-to-end statevector",
    );
}

#[test]
fn qsim_simd_env_contract_is_documented_by_parse() {
    // The env override goes through SimdBackend::parse; pin the
    // accepted vocabulary here so CI's QSIM_SIMD=scalar keeps meaning
    // what the workflow thinks it means.
    assert_eq!(SimdBackend::parse("scalar"), Ok(Some(SimdBackend::Scalar)));
    assert_eq!(SimdBackend::parse("avx2"), Ok(Some(SimdBackend::Avx2)));
    assert_eq!(SimdBackend::parse("neon"), Ok(Some(SimdBackend::Neon)));
    assert_eq!(SimdBackend::parse("auto"), Ok(None));
    assert!(SimdBackend::parse("fma").is_err());
}
