//! Workspace-level comparison of the two assertion paradigms on shared
//! workloads — the motivating contrast of the paper's introduction.

use qassert_suite::prelude::*;

fn ideal() -> StatevectorBackend {
    StatevectorBackend::new().with_seed(31)
}

/// Both paradigms accept a correct uniform-superposition preparation.
#[test]
fn both_accept_correct_superposition() {
    let prefix = qcircuit::library::uniform_superposition(2);

    // Statistical: batch χ² test on the truncated program.
    let stat =
        StatisticalAssertion::new([0, 1], StatisticalKind::UniformSuperposition, 0.01).unwrap();
    let verdict = stat.check(&ideal(), &prefix, 4000).unwrap();
    assert!(verdict.passed);

    // Dynamic: per-qubit superposition assertions, never firing.
    let mut program = AssertingCircuit::new(prefix);
    program
        .assert_superposition(0, SuperpositionBasis::Plus)
        .unwrap();
    program
        .assert_superposition(1, SuperpositionBasis::Plus)
        .unwrap();
    program.measure_data();
    let outcome = AssertionSession::new(ideal())
        .shot_plan(ShotPlan::Fixed(2000))
        .run(&program)
        .unwrap();
    assert_eq!(outcome.assertion_error_rate, 0.0);
}

/// Both paradigms reject a bugged preparation (T instead of H — a
/// plausible typo leaving the qubit near |0⟩).
#[test]
fn both_reject_bugged_superposition() {
    let mut prefix = QuantumCircuit::new(1, 0);
    prefix.t(0).unwrap(); // bug: should have been h(0)

    let stat = StatisticalAssertion::new([0], StatisticalKind::UniformSuperposition, 0.05).unwrap();
    let verdict = stat.check(&ideal(), &prefix, 4000).unwrap();
    assert!(!verdict.passed, "statistical missed the bug");

    let mut program = AssertingCircuit::new(prefix);
    program
        .assert_superposition(0, SuperpositionBasis::Plus)
        .unwrap();
    program.measure_data();
    let outcome = AssertionSession::new(ideal())
        .shot_plan(ShotPlan::Fixed(4000))
        .run(&program)
        .unwrap();
    let rate = outcome.assertion_error_rate;
    // Theory: a = 1, b = 0 after T on |0⟩ → fires 50% of the time.
    assert!((rate - 0.5).abs() < 0.05, "dynamic rate {rate}");
}

/// The structural difference: dynamic assertions keep the program
/// running and its data usable; statistical assertions consume it.
#[test]
fn only_dynamic_assertions_preserve_downstream_computation() {
    // Program: prepare Bell pair, assert, then CONTINUE computing
    // (apply X to both, swapping 00 and 11 outcomes).
    let mut program = AssertingCircuit::new(qcircuit::library::bell());
    program.assert_entangled([0, 1], Parity::Even).unwrap();
    program.circuit_mut().x(0).unwrap();
    program.circuit_mut().x(1).unwrap();
    program.measure_data();
    let outcome = AssertionSession::new(ideal())
        .shot_plan(ShotPlan::Fixed(1000))
        .run(&program)
        .unwrap();
    // Downstream X's executed on the *still-entangled* state.
    assert_eq!(outcome.assertion_error_rate, 0.0);
    assert_eq!(
        outcome.data_kept.get(0b00) + outcome.data_kept.get(0b11),
        1000
    );

    // The statistical check reports that execution cannot continue.
    let stat = StatisticalAssertion::new([0, 1], StatisticalKind::EntangledGhz, 0.05).unwrap();
    let verdict = stat
        .check(&ideal(), &qcircuit::library::bell(), 500)
        .unwrap();
    assert!(!verdict.program_continues);
}

/// Shots-to-detect: the dynamic assertion detects a deterministic
/// classical bug with a single shot; the statistical test needs a batch.
#[test]
fn dynamic_detects_deterministic_bug_in_one_shot() {
    let mut prefix = QuantumCircuit::new(1, 0);
    prefix.x(0).unwrap(); // bug: qubit should be |0⟩

    let mut program = AssertingCircuit::new(prefix.clone());
    program.assert_classical([0], [false]).unwrap();
    let outcome = AssertionSession::new(ideal())
        .shot_plan(ShotPlan::Fixed(1))
        .filter_policy(FilterPolicy::AllowEmpty)
        .run(&program)
        .unwrap();
    assert_eq!(outcome.assertion_error_rate, 1.0, "one shot suffices");
    assert_eq!(outcome.per_assertion[0].fired, 1);

    let stat = StatisticalAssertion::new(
        [0],
        StatisticalKind::Classical {
            expected: vec![false],
        },
        0.05,
    )
    .unwrap();
    let verdict = stat.check(&ideal(), &prefix, 100).unwrap();
    assert!(!verdict.passed);
    assert_eq!(verdict.shots_used, 100);
}
