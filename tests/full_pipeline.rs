//! End-to-end integration: instrument → transpile → noisy execution →
//! assertion filtering, across all three backends.

use qassert_suite::prelude::*;

/// The Table-2 pipeline on the trajectory backend (the experiments use
/// the exact backend; this checks the sampled path agrees).
#[test]
fn bell_assertion_pipeline_trajectory_vs_exact() {
    let mut program = AssertingCircuit::new(qcircuit::library::bell());
    program.assert_entangled([0, 1], Parity::Even).unwrap();
    program.measure_data();

    let topo = qdevice::presets::ibmqx4();
    let lowered = qdevice::transpile::transpile(program.circuit(), &topo).unwrap();
    qdevice::verify::check_native(&lowered.circuit, &topo).unwrap();

    let noise = qnoise::presets::ibmqx4();
    let exact_session = AssertionSession::new(DensityMatrixBackend::new(noise.clone()))
        .shot_plan(ShotPlan::Fixed(1 << 15));
    let sampled_session = AssertionSession::new(TrajectoryBackend::new(noise).with_seed(42))
        .threads(4)
        .shot_plan(ShotPlan::Fixed(1 << 15));
    let exact = exact_session.run_circuit(&lowered.circuit).unwrap();
    let sampled = sampled_session.run_circuit(&lowered.circuit).unwrap();
    let tvd = exact.counts.tvd(&sampled.counts);
    assert!(tvd < 0.015, "trajectory vs exact tvd = {tvd}");

    // Filtering helps on both (analysis is backend-independent, so one
    // session's policy serves both results).
    for raw in [exact, sampled] {
        let outcome = exact_session.analyze(raw, &program).unwrap();
        let correct = |k: u64| ((k >> 1) & 1) == ((k >> 2) & 1);
        let red =
            ErrorReduction::compute(&outcome.raw.counts, &program.assertion_clbits(), correct);
        assert!(
            red.filtered < red.raw,
            "filtering failed: {} -> {}",
            red.raw,
            red.filtered
        );
        assert!(red.relative_reduction() > 0.1);
    }
}

/// Assertions survive transpilation: the rewritten circuit fires the
/// assertion exactly like the abstract one on an ideal backend.
#[test]
fn transpilation_preserves_assertion_semantics() {
    // Buggy program: |+⟩⊗|0⟩ asserted as entangled (fires 50%).
    let mut base = QuantumCircuit::new(2, 0);
    base.h(0).unwrap();
    let mut program = AssertingCircuit::new(base);
    program.assert_entangled([0, 1], Parity::Even).unwrap();
    program.measure_data();

    let abstract_dist = DensityMatrixBackend::ideal()
        .exact_distribution(program.circuit())
        .unwrap();

    let topo = qdevice::presets::ibmqx4();
    let lowered = qdevice::transpile::transpile(program.circuit(), &topo).unwrap();
    let lowered_dist = DensityMatrixBackend::ideal()
        .exact_distribution(&lowered.circuit)
        .unwrap();

    // Classical records are untouched by transpilation: distributions
    // must agree exactly.
    for (key, p) in &abstract_dist.outcomes {
        assert!(
            (lowered_dist.probability(*key) - p).abs() < 1e-9,
            "key {key:03b}: {p} vs {}",
            lowered_dist.probability(*key)
        );
    }
}

/// GHZ(3) with the full stack: route (ancilla needs connectivity),
/// assert, run noisy, filter.
#[test]
fn ghz3_assertion_on_device_reduces_error() {
    let mut program = AssertingCircuit::new(qcircuit::library::ghz(3));
    program.assert_entangled([0, 1, 2], Parity::Even).unwrap();
    program.measure_data();
    // 3 data + 1 ancilla = 4 qubits on the 5-qubit device; routing will
    // need SWAPs for the parity CNOTs.
    let topo = qdevice::presets::ibmqx4();
    let lowered = qdevice::transpile::transpile(program.circuit(), &topo).unwrap();
    qdevice::verify::check_native(&lowered.circuit, &topo).unwrap();

    let session = AssertionSession::new(DensityMatrixBackend::new(qnoise::presets::ibmqx4()))
        .shot_plan(ShotPlan::Fixed(1 << 14));
    let raw = session.run_circuit(&lowered.circuit).unwrap();
    let outcome = session.analyze(raw, &program).unwrap();
    assert!(outcome.assertion_error_rate > 0.0);

    // Correct GHZ outcomes: all three data bits agree (clbits 1..4).
    let correct = |k: u64| {
        let bits = [(k >> 1) & 1, (k >> 2) & 1, (k >> 3) & 1];
        bits.iter().all(|b| *b == bits[0])
    };
    let red = ErrorReduction::compute(&outcome.raw.counts, &program.assertion_clbits(), correct);
    assert!(
        red.filtered < red.raw,
        "filtering failed on GHZ3: {} -> {}",
        red.raw,
        red.filtered
    );
}

/// The ideal statevector backend and the exact ideal density backend
/// agree on an instrumented program's distribution.
#[test]
fn ideal_backends_agree_on_asserted_program() {
    let mut program = AssertingCircuit::new(qcircuit::library::bell());
    program.assert_entangled([0, 1], Parity::Even).unwrap();
    program.measure_data();

    let sv = AssertionSession::new(StatevectorBackend::new().with_seed(1))
        .shot_plan(ShotPlan::Fixed(1 << 15))
        .run(&program)
        .unwrap();
    let dm = AssertionSession::new(DensityMatrixBackend::ideal())
        .shot_plan(ShotPlan::Fixed(1 << 15))
        .run(&program)
        .unwrap();
    assert!(sv.raw.counts.tvd(&dm.raw.counts) < 0.02);
}

/// Assertions catch *coherent* errors too: a systematic over-rotation
/// after every gate leaks population the classical assertion sees.
#[test]
fn assertions_detect_coherent_overrotation() {
    let mut program = AssertingCircuit::new(QuantumCircuit::new(1, 0));
    // The program intends the qubit to stay |0⟩ through a few idles.
    for _ in 0..8 {
        program.circuit_mut().id(0).unwrap();
    }
    program.assert_classical([0], [false]).unwrap();

    let mut noise = NoiseModel::with_name("coherent");
    noise.with_default_1q(Kraus::coherent_overrotation(qnoise::RotationAxis::X, 0.15).unwrap());
    let dist = DensityMatrixBackend::new(noise)
        .exact_distribution(program.circuit())
        .unwrap();
    // 8 coherent ε-rotations compose to 8ε = 1.2 rad; the ancilla fires
    // with probability sin²(0.6) ≈ 0.319 — quadratic (coherent) growth,
    // far above the ~8·sin²(ε/2) ≈ 0.045 an incoherent model would give.
    let fired = dist.probability(1);
    let coherent_prediction = (8.0 * 0.15f64 / 2.0).sin().powi(2);
    assert!(
        (fired - coherent_prediction).abs() < 1e-9,
        "fired {fired}, predicted {coherent_prediction}"
    );
    assert!(fired > 0.25);
}

/// A staged-assertion sweep through the session API: each point extends
/// the previous program by one stage plus a fresh assertion, so the
/// sweep compiles incrementally (prefix reuse) while every outcome stays
/// identical to isolated runs.
#[test]
fn staged_assertion_sweep_reuses_prefixes_without_changing_outcomes() {
    // Each stage entangles, asserts, and disentangles, ending on a CX so
    // the stage boundary is never inside a single-qubit fusion run.
    let staged = |stages: usize| {
        let mut program = AssertingCircuit::new(QuantumCircuit::new(2, 0));
        for _ in 0..stages {
            program.circuit_mut().h(0).unwrap();
            program.circuit_mut().cx(0, 1).unwrap();
            program.assert_entangled([0, 1], Parity::Even).unwrap();
            program.circuit_mut().cx(0, 1).unwrap();
        }
        program
    };
    let family: Vec<AssertingCircuit> = (1..=4).map(staged).collect();

    let session = AssertionSession::new(StatevectorBackend::new().with_seed(9))
        .shot_plan(ShotPlan::Fixed(256));
    let sweep = session.run_sweep(family.clone()).unwrap();
    assert_eq!(sweep.len(), 4);
    assert_eq!(
        sweep.telemetry.prefix_hits, 3,
        "each point after the first should extend its predecessor"
    );
    // Correct program: no assertion ever fires, at any depth.
    for point in sweep.outcomes() {
        assert_eq!(point.assertion_error_rate, 0.0);
    }
    // Bit-identical to isolated, prefix-free sessions.
    for (i, program) in family.iter().enumerate() {
        let isolated = AssertionSession::new(StatevectorBackend::new().with_seed(9))
            .shot_plan(ShotPlan::Fixed(256))
            .prefix_reuse(false)
            .run(program)
            .unwrap();
        assert_eq!(isolated.raw.counts, sweep.outcomes()[i].raw.counts);
    }
}

/// Ancilla reuse halves the qubit cost of sequential assertions without
/// changing outcomes.
#[test]
fn ancilla_reuse_preserves_semantics() {
    let build = |reuse: bool| {
        let mut base = QuantumCircuit::new(2, 0);
        base.x(0).unwrap();
        let mut program = AssertingCircuit::new(base).with_ancilla_reuse(reuse);
        program.assert_classical([0], [true]).unwrap();
        program.assert_classical([1], [false]).unwrap();
        program.measure_data();
        program
    };
    let fresh = build(false);
    let reused = build(true);
    assert_eq!(fresh.circuit().num_qubits(), 4);
    assert_eq!(reused.circuit().num_qubits(), 3);

    let d1 = DensityMatrixBackend::ideal()
        .exact_distribution(fresh.circuit())
        .unwrap();
    let d2 = DensityMatrixBackend::ideal()
        .exact_distribution(reused.circuit())
        .unwrap();
    for (key, p) in &d1.outcomes {
        assert!((d2.probability(*key) - p).abs() < 1e-9);
    }
}
