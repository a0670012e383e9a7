//! Stabilizer-backend session integration: [`AssertionSession`] over
//! [`qsim::StabilizerBackend`] composes with every execution feature
//! the amplitude backends already pinned — fixed and sequential shot
//! plans, serial and parallel sweeps on explicit pools of 0–3 workers,
//! prefix-extension chains, and Pauli noise — with the same
//! bit-identity contract (scheduling decides *where* a point runs,
//! never *what* it computes).
//!
//! The suite also pins the failure mode unique to this backend: a
//! compile-eligible but Clifford-*ineligible* program surfaces
//! [`qsim::SimError::NotClifford`] through [`AssertionSession::run`]
//! before any shot executes, leaving no partial run/shot telemetry.

use proptest::prelude::*;
use qassert::{
    AssertError, AssertingCircuit, AssertionSession, AssertionVerdict, FilterPolicy, Parity,
    SessionTelemetry, ShotPlan, StopReason, SweepOutcome, SweepPolicy,
};
use qcircuit::{library, QuantumCircuit};
use qsim::{Backend, BackendKind, ShardPool, SimError, StabilizerBackend, StatevectorBackend};

/// Clifford circuit families for generated sweeps (the instrumentation
/// itself adds only CX/H, so an all-Clifford base stays eligible).
#[derive(Clone, Copy, Debug)]
enum Family {
    /// One Bell assertion repeated at every point (cache-hit heavy).
    Repeated,
    /// Point k carries k+1 Bell stages; each point extends its
    /// predecessor exactly (prefix-extension chains through the
    /// Clifford-composition path of `compile_extension`).
    Staged,
    /// Distinct per-point circuits with a mid-circuit measurement.
    MidMeasure,
}

const FAMILIES: [Family; 3] = [Family::Repeated, Family::Staged, Family::MidMeasure];

fn bell_assertion() -> AssertingCircuit {
    let mut ac = AssertingCircuit::new(library::bell());
    ac.assert_entangled([0, 1], Parity::Even).unwrap();
    ac.measure_data();
    ac
}

fn family_circuits(family: Family, points: usize) -> Vec<AssertingCircuit> {
    match family {
        Family::Repeated => (0..points).map(|_| bell_assertion()).collect(),
        Family::Staged => {
            let staged = |stages: usize| {
                let mut ac = AssertingCircuit::new(QuantumCircuit::new(2, 0));
                for _ in 0..stages {
                    ac.circuit_mut().h(0).unwrap();
                    ac.circuit_mut().cx(0, 1).unwrap();
                    ac.assert_entangled([0, 1], Parity::Even).unwrap();
                    ac.circuit_mut().cx(0, 1).unwrap();
                }
                ac
            };
            (1..=points).map(staged).collect()
        }
        Family::MidMeasure => (0..points)
            .map(|i| {
                // Vary the preparation per point with Clifford gates
                // only; the mid-circuit measurement keeps the random
                // collapse path and per-shot RNG draws in play.
                let mut prep = QuantumCircuit::new(2, 1);
                prep.h(0).unwrap();
                if i % 2 == 1 {
                    prep.s(0).unwrap();
                    prep.h(0).unwrap();
                }
                prep.measure(0, 0).unwrap();
                prep.cx(0, 1).unwrap();
                let mut ac = AssertingCircuit::new(prep);
                ac.assert_classical([1], [i % 3 == 2]).unwrap();
                ac.measure_data();
                ac
            })
            .collect(),
    }
}

/// Deterministic telemetry fields only — pool task/steal splits are
/// scheduler-dependent (see `sweep_equivalence.rs`).
fn assert_telemetry_eq(parallel: &SessionTelemetry, serial: &SessionTelemetry, context: &str) {
    assert_eq!(parallel.runs, serial.runs, "{context}: runs");
    assert_eq!(parallel.shots, serial.shots, "{context}: shots");
    assert_eq!(parallel.tranches, serial.tranches, "{context}: tranches");
    assert_eq!(
        parallel.early_stops, serial.early_stops,
        "{context}: early_stops"
    );
    assert_eq!(
        parallel.cache_hits, serial.cache_hits,
        "{context}: cache_hits"
    );
    assert_eq!(
        parallel.cache_misses, serial.cache_misses,
        "{context}: cache_misses"
    );
    assert_eq!(
        parallel.prefix_hits, serial.prefix_hits,
        "{context}: prefix_hits"
    );
}

fn assert_outcomes_eq(parallel: &SweepOutcome, serial: &SweepOutcome, context: &str) {
    assert_eq!(parallel.len(), serial.len(), "{context}: point count");
    for (p, (a, b)) in parallel
        .outcomes()
        .iter()
        .zip(serial.outcomes())
        .enumerate()
    {
        assert_eq!(a.raw.counts, b.raw.counts, "{context}: point {p} raw");
        assert_eq!(
            a.raw.shots_discarded, b.raw.shots_discarded,
            "{context}: point {p} discarded"
        );
        assert_eq!(a.kept, b.kept, "{context}: point {p} kept");
        assert_eq!(a.data_kept, b.data_kept, "{context}: point {p} data_kept");
        assert_eq!(
            a.assertion_error_rate.to_bits(),
            b.assertion_error_rate.to_bits(),
            "{context}: point {p} error rate"
        );
        assert_eq!(a.plan, b.plan, "{context}: point {p} plan trace");
        assert_eq!(
            a.verdicts.len(),
            b.verdicts.len(),
            "{context}: point {p} verdict count"
        );
        for (x, y) in a.verdicts.iter().zip(&b.verdicts) {
            assert_eq!(x.verdict, y.verdict, "{context}: point {p} verdict");
            assert_eq!(x.shots, y.shots, "{context}: point {p} verdict shots");
            assert_eq!(x.fired, y.fired, "{context}: point {p} verdict fired");
        }
    }
    assert_telemetry_eq(&parallel.telemetry, &serial.telemetry, context);
}

/// One generated configuration, serial reference vs parallel on an
/// explicit pool of `workers`, fresh private caches, bit-identity.
fn check_stabilizer(
    backend: &StabilizerBackend,
    family: Family,
    points: usize,
    plan: ShotPlan,
    threads: usize,
    seed: Option<u64>,
    workers: usize,
) {
    fn configure<'c, 'b>(
        session: AssertionSession<'c, &'b StabilizerBackend>,
        plan: ShotPlan,
        threads: usize,
        seed: Option<u64>,
    ) -> AssertionSession<'c, &'b StabilizerBackend> {
        let session = session.private_cache(32).shot_plan(plan).threads(threads);
        match seed {
            Some(s) => session.seed(s),
            None => session,
        }
    }
    let serial = configure(AssertionSession::new(backend), plan, threads, seed)
        .sweep_policy(SweepPolicy::Serial)
        .run_sweep(family_circuits(family, points))
        .unwrap();
    let pool = ShardPool::new(workers);
    let parallel = configure(AssertionSession::new(backend), plan, threads, seed)
        .sweep_policy(SweepPolicy::Parallel)
        .pool(&pool)
        .run_sweep(family_circuits(family, points))
        .unwrap();
    let context = format!(
        "{family:?} x{points}, plan {plan}, {threads} threads, seed {seed:?}, {workers} workers"
    );
    assert_outcomes_eq(&parallel, &serial, &context);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn stabilizer_sweeps_are_policy_independent(
        family in 0usize..3,
        points in 1usize..6,
        shots in 1u64..160,
        threads in 1usize..4,
        raw_seed in any::<u64>(),
        with_seed in any::<bool>(),
        noisy in any::<bool>(),
        workers in 0usize..4,
    ) {
        let backend = if noisy {
            // Depolarizing + readout: lowers to stochastic Pauli
            // injections, so the program stays Clifford-eligible.
            let noise = qnoise::presets::uniform(3, 0.008, 0.03, 0.015).unwrap();
            StabilizerBackend::new(noise)
        } else {
            StabilizerBackend::ideal()
        }
        .with_seed(raw_seed ^ 0x51ab);
        check_stabilizer(
            &backend,
            FAMILIES[family],
            points,
            ShotPlan::Fixed(shots),
            threads,
            with_seed.then_some(raw_seed),
            workers,
        );
    }

    #[test]
    fn sequential_stabilizer_sweeps_are_policy_independent(
        family in 0usize..3,
        points in 1usize..5,
        min_shots in 1u64..64,
        extra_budget in 0u64..256,
        tranche in 1u64..48,
        threads in 1usize..4,
        raw_seed in any::<u64>(),
        workers in 0usize..4,
    ) {
        // Sequential stop points, plan traces, verdicts, and counts are
        // pure functions of (seed, plan, threads) on the tableau path
        // too — bit-identical under every policy and worker count.
        let plan = ShotPlan::Sequential {
            alpha: 0.05,
            min_shots,
            max_shots: min_shots + extra_budget,
            tranche,
        };
        let noise = qnoise::presets::uniform(3, 0.01, 0.04, 0.02).unwrap();
        let backend = StabilizerBackend::new(noise).with_seed(raw_seed ^ 0xb5);
        check_stabilizer(
            &backend,
            FAMILIES[family],
            points,
            plan,
            threads,
            Some(raw_seed),
            workers,
        );
    }
}

#[test]
fn verdicts_match_statevector_on_clear_cut_assertions() {
    // Clear-cut assertion outcomes are backend-independent even though
    // the RNG streams intentionally differ: a holding assertion never
    // fires and a violated one always fires, so firing counts, error
    // rates, and sequential verdicts agree exactly.
    let violated = || {
        let mut ac = AssertingCircuit::new(library::bell());
        ac.assert_entangled([0, 1], Parity::Odd).unwrap();
        ac.measure_data();
        ac
    };
    let stabilizer = StabilizerBackend::ideal().with_seed(11);
    let statevector = StatevectorBackend::new().with_seed(11);
    for (ac, expect, rate) in [
        (bell_assertion(), AssertionVerdict::Holds, 0.0),
        (violated(), AssertionVerdict::Violated, 1.0),
    ] {
        let run = |backend: &dyn Backend| {
            AssertionSession::new(backend)
                .private_cache(8)
                .shot_plan(ShotPlan::Fixed(512))
                .filter_policy(FilterPolicy::AllowEmpty)
                .seed(3)
                .run(&ac)
                .unwrap()
        };
        let a = run(&stabilizer);
        let b = run(&statevector);
        for outcome in [&a, &b] {
            assert_eq!(outcome.assertion_error_rate, rate);
            assert_eq!(outcome.verdicts[0].verdict, expect);
        }
        assert_eq!(a.per_assertion[0].fired, b.per_assertion[0].fired);
        assert_eq!(a.verdicts[0].shots, b.verdicts[0].shots);
    }
}

#[test]
fn ineligible_program_errors_without_partial_telemetry() {
    // A T gate compiles fine (eligibility is carried as data on the
    // program), but executing it on the tableau backend must surface
    // the typed error through the session before any shot runs.
    let mut base = library::bell();
    base.t(0).unwrap();
    let mut ac = AssertingCircuit::new(base);
    ac.assert_entangled([0, 1], Parity::Even).unwrap();
    ac.measure_data();

    let session = AssertionSession::new(StabilizerBackend::ideal())
        .private_cache(8)
        .shot_plan(ShotPlan::Fixed(64));
    let before = session.telemetry();
    let err = session.run(&ac).unwrap_err();
    match err {
        AssertError::Sim(SimError::NotClifford(block)) => {
            let rendered = block.to_string();
            assert!(rendered.contains('t'), "block names the gate: {rendered}");
        }
        other => panic!("expected NotClifford, got {other:?}"),
    }
    // Lowering happened (one cache miss) but nothing executed: no runs,
    // shots, or tranches were recorded.
    let delta = session.telemetry().since(&before);
    assert_eq!(delta.runs, 0, "no partial runs");
    assert_eq!(delta.shots, 0, "no partial shots");
    assert_eq!(delta.tranches, 0, "no partial tranches");
    assert_eq!(delta.cache_misses, 1);

    // The session stays fully usable for eligible programs.
    let outcome = session.run(&bell_assertion()).unwrap();
    assert_eq!(outcome.raw.counts.total(), 64);
}

#[test]
fn mid_sweep_ineligibility_propagates_under_both_policies() {
    let ineligible = || {
        let mut base = library::bell();
        base.t(1).unwrap();
        let mut ac = AssertingCircuit::new(base);
        ac.assert_entangled([0, 1], Parity::Even).unwrap();
        ac.measure_data();
        ac
    };
    for policy in [SweepPolicy::Serial, SweepPolicy::Parallel] {
        let session = AssertionSession::new(StabilizerBackend::ideal())
            .private_cache(8)
            .shot_plan(ShotPlan::Fixed(64))
            .sweep_policy(policy);
        let before = session.telemetry();
        let result = session.run_sweep(vec![bell_assertion(), ineligible(), bell_assertion()]);
        assert!(
            matches!(result, Err(AssertError::Sim(SimError::NotClifford(_)))),
            "{policy:?}: ineligibility must surface as the typed error"
        );
        // Serial streams points in order: exactly the one point before
        // the failure ran. Parallel scheduling decides which of the two
        // eligible points completed first, but the failing point itself
        // never contributes runs or shots.
        let delta = session.telemetry().since(&before);
        assert!(delta.runs <= 2, "{policy:?}: runs {}", delta.runs);
        assert_eq!(delta.shots, delta.runs * 64, "{policy:?}");
        if policy == SweepPolicy::Serial {
            assert_eq!(delta.runs, 1, "serial streams in input order");
        }
        // The session recovers.
        let sweep = session
            .run_sweep(vec![bell_assertion(), bell_assertion()])
            .unwrap();
        assert_eq!(sweep.len(), 2);
    }
}

#[test]
fn ghz_parity_session_runs_at_1024_qubits() {
    // The scale the tentpole exists for: a 1,024-qubit GHZ state with
    // an even-parity assertion between the end qubits (1,025 qubits
    // once the ancilla is spliced in) runs through the full session
    // machinery — sequential plan, early stop, verdict — in tableau
    // memory an amplitude backend could never allocate.
    let mut ac = AssertingCircuit::new(library::ghz(1024));
    ac.assert_entangled([0, 1023], Parity::Even).unwrap();

    let session = AssertionSession::new(StabilizerBackend::ideal())
        .private_cache(4)
        .shot_plan(ShotPlan::Sequential {
            alpha: 0.05,
            min_shots: 64,
            max_shots: 4096,
            tranche: 64,
        })
        .seed(7)
        .threads(2);
    let outcome = session.run(&ac).unwrap();
    assert_eq!(outcome.plan.stop, StopReason::Decided);
    assert!(
        outcome.plan.shots_used < 4096,
        "a clean run stops early, used {}",
        outcome.plan.shots_used
    );
    assert_eq!(outcome.per_assertion[0].fired, 0);
    assert_eq!(outcome.verdicts[0].verdict, AssertionVerdict::Holds);
    assert_eq!(outcome.assertion_error_rate, 0.0);

    let t = session.telemetry();
    assert_eq!(t.runs, 1);
    assert_eq!(t.early_stops, 1);

    // The record identifies what produced these numbers: the stabilizer
    // backend, at the instrumented width.
    let record = session.record();
    assert_eq!(record.backend_kind, BackendKind::Stabilizer.as_str());
    assert_eq!(record.max_qubits, 1025);
    let json = format!(
        "{{\"backend_kind\":\"{}\",\"max_qubits\":{}}}",
        record.backend_kind, record.max_qubits
    );
    assert_eq!(
        json,
        "{\"backend_kind\":\"stabilizer\",\"max_qubits\":1025}"
    );
}
