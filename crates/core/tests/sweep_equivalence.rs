//! Parallel-vs-serial sweep equivalence: the property suite proving
//! that [`AssertionSession::run_sweep`] under [`SweepPolicy::Parallel`]
//! produces per-point counts and telemetry **bit-identical** to
//! [`SweepPolicy::Serial`] — across all three backends, randomized
//! point counts, shot plans, thread counts, seeds, cache and
//! prefix-reuse configurations, and explicit pools of 0/1/N workers.
//!
//! This is the contract that makes the 2-D `points × shots` plan safe
//! to enable by default: scheduling decides only *where* a point runs,
//! never *what* it computes. Per-point seeds are pure functions of
//! `(session seed, point index)` (`qsim::sweep_point_seed`), shard
//! streams are pure functions of the point seed and shard index, and
//! lowering happens serially in input order under every policy — so
//! the only nondeterministic telemetry is the scheduling-dependent
//! pool-steal split, which the comparisons below exclude.
//!
//! The suite also covers the sweep edge cases: empty sweeps, single
//! points, a point whose circuit fails to lower mid-sweep, an
//! all-filtered point under both filter policies, and two sweeps
//! running concurrently on one shared session (the concurrent
//! `ProgramCache`/`PrefixRegistry` path).

use proptest::prelude::*;
use qassert::{
    AssertError, AssertingCircuit, AssertionSession, FilterPolicy, Parity, SessionTelemetry,
    ShotPlan, SweepOutcome, SweepPolicy,
};
use qcircuit::QuantumCircuit;
use qsim::{
    Backend, DensityMatrixBackend, ProgramCache, ShardPool, StatevectorBackend, TrajectoryBackend,
};

/// A family of instrumented circuits for one generated sweep.
#[derive(Clone, Copy, Debug)]
enum Family {
    /// One circuit repeated at every point (cache-hit heavy; identical
    /// circuits must still draw independent per-point streams under a
    /// session seed).
    Repeated,
    /// Distinct per-θ circuits (cache-miss heavy).
    Thetas,
    /// Each point extends the previous one by a stage + assertion
    /// (prefix-extension chains must survive any scheduling).
    Staged,
    /// Mid-circuit measurement defeats the statevector fast path, so
    /// points exercise the sharded per-shot path and nested pool tasks.
    MidMeasure,
}

const FAMILIES: [Family; 4] = [
    Family::Repeated,
    Family::Thetas,
    Family::Staged,
    Family::MidMeasure,
];

fn bell_assertion() -> AssertingCircuit {
    let mut ac = AssertingCircuit::new(qcircuit::library::bell());
    ac.assert_entangled([0, 1], Parity::Even).unwrap();
    ac.measure_data();
    ac
}

fn family_circuits(family: Family, points: usize) -> Vec<AssertingCircuit> {
    match family {
        Family::Repeated => (0..points).map(|_| bell_assertion()).collect(),
        Family::Thetas => (0..points)
            .map(|i| {
                let mut prep = QuantumCircuit::new(2, 0);
                prep.ry(0.2 + i as f64 * 0.41, 0).unwrap();
                prep.cx(0, 1).unwrap();
                let mut ac = AssertingCircuit::new(prep);
                ac.assert_entangled([0, 1], Parity::Even).unwrap();
                ac.measure_data();
                ac
            })
            .collect(),
        Family::Staged => {
            // Point k carries k+1 stages; every point past the first
            // extends its predecessor's instruction stream exactly, so
            // serial lowering records points-1 prefix reuses.
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
                let mut prep = QuantumCircuit::new(2, 1);
                prep.ry(0.3 + i as f64 * 0.29, 0).unwrap();
                prep.measure(0, 0).unwrap(); // defeats the fast path
                prep.cx(0, 1).unwrap();
                let mut ac = AssertingCircuit::new(prep);
                ac.assert_classical([1], [false]).unwrap();
                ac.measure_data();
                ac
            })
            .collect(),
    }
}

/// Asserts the deterministic telemetry fields equal; pool fields are
/// excluded (`pool_tasks` legitimately includes the whole-point tasks
/// only under `Parallel`, and the steal split is scheduler-dependent).
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
        assert_eq!(a.data_raw, b.data_raw, "{context}: point {p} data_raw");
        assert_eq!(a.data_kept, b.data_kept, "{context}: point {p} data_kept");
        assert_eq!(
            a.assertion_error_rate.to_bits(),
            b.assertion_error_rate.to_bits(),
            "{context}: point {p} error rate"
        );
        assert_eq!(
            a.per_assertion.len(),
            b.per_assertion.len(),
            "{context}: point {p} per-assertion"
        );
        for (x, y) in a.per_assertion.iter().zip(&b.per_assertion) {
            assert_eq!(x.fired, y.fired, "{context}: point {p} fired");
        }
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
            assert_eq!(
                x.log_e_violated.to_bits(),
                y.log_e_violated.to_bits(),
                "{context}: point {p} e-value (violated)"
            );
            assert_eq!(
                x.log_e_holds.to_bits(),
                y.log_e_holds.to_bits(),
                "{context}: point {p} e-value (holds)"
            );
        }
    }
    assert_telemetry_eq(&parallel.telemetry, &serial.telemetry, context);
}

/// Runs one generated configuration on `backend` twice — serial
/// reference vs parallel on an explicit pool of `workers` — with fresh
/// private caches, and asserts bit-identity.
#[allow(clippy::too_many_arguments)]
fn check_backend<B: Backend + Sync>(
    backend: &B,
    family: Family,
    points: usize,
    plan: ShotPlan,
    threads: usize,
    seed: Option<u64>,
    prefix_reuse: bool,
    workers: usize,
) {
    fn configure<'c, B: Backend>(
        session: AssertionSession<'c, B>,
        plan: ShotPlan,
        threads: usize,
        prefix_reuse: bool,
        seed: Option<u64>,
    ) -> AssertionSession<'c, B> {
        let session = session
            .private_cache(32)
            .shot_plan(plan)
            .threads(threads)
            .prefix_reuse(prefix_reuse);
        match seed {
            Some(s) => session.seed(s),
            None => session,
        }
    }
    let serial = configure(
        AssertionSession::new(backend),
        plan,
        threads,
        prefix_reuse,
        seed,
    )
    .sweep_policy(SweepPolicy::Serial)
    .run_sweep(family_circuits(family, points))
    .unwrap();
    let pool = ShardPool::new(workers);
    let parallel = configure(
        AssertionSession::new(backend),
        plan,
        threads,
        prefix_reuse,
        seed,
    )
    .sweep_policy(SweepPolicy::Parallel)
    .pool(&pool)
    .run_sweep(family_circuits(family, points))
    .unwrap();
    let context = format!(
        "{family:?} x{points}, plan {plan}, {threads} threads, seed {seed:?}, \
         prefix {prefix_reuse}, {workers} workers"
    );
    assert_outcomes_eq(&parallel, &serial, &context);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn statevector_sweeps_are_policy_independent(
        family in 0usize..4,
        points in 1usize..7,
        shots in 1u64..160,
        threads in 1usize..4,
        raw_seed in any::<u64>(),
        with_seed in any::<bool>(),
        prefix_reuse in any::<bool>(),
        workers in 0usize..4,
    ) {
        let backend = StatevectorBackend::new().with_seed(raw_seed ^ 0x5a);
        check_backend(
            &backend,
            FAMILIES[family],
            points,
            ShotPlan::Fixed(shots),
            threads,
            with_seed.then_some(raw_seed),
            prefix_reuse,
            workers,
        );
    }

    #[test]
    fn trajectory_sweeps_are_policy_independent(
        family in 0usize..4,
        points in 1usize..6,
        shots in 1u64..120,
        threads in 1usize..4,
        raw_seed in any::<u64>(),
        with_seed in any::<bool>(),
        prefix_reuse in any::<bool>(),
        workers in 0usize..4,
    ) {
        let noise = qnoise::presets::uniform(4, 0.008, 0.03, 0.015).unwrap();
        let backend = TrajectoryBackend::new(noise).with_seed(raw_seed ^ 0xa5);
        check_backend(
            &backend,
            FAMILIES[family],
            points,
            ShotPlan::Fixed(shots),
            threads,
            with_seed.then_some(raw_seed),
            prefix_reuse,
            workers,
        );
    }

    #[test]
    fn density_matrix_sweeps_are_policy_independent(
        family in 0usize..4,
        points in 1usize..5,
        shots in 1u64..120,
        prefix_reuse in any::<bool>(),
        workers in 0usize..4,
    ) {
        // The exact executor ignores seeds and threads (deterministic
        // largest-remainder counts), so the policy comparison isolates
        // pure scheduling effects.
        let noise = qnoise::presets::uniform(4, 0.004, 0.02, 0.01).unwrap();
        let backend = DensityMatrixBackend::new(noise);
        check_backend(
            &backend,
            FAMILIES[family],
            points,
            ShotPlan::Fixed(shots),
            1,
            None,
            prefix_reuse,
            workers,
        );
    }

    #[test]
    fn sequential_sweeps_are_policy_independent(
        family in 0usize..4,
        points in 1usize..5,
        min_shots in 1u64..64,
        extra_budget in 0u64..256,
        tranche in 1u64..48,
        threads in 1usize..4,
        raw_seed in any::<u64>(),
        with_seed in any::<bool>(),
        prefix_reuse in any::<bool>(),
        workers in 0usize..4,
    ) {
        // The tentpole contract: sequential stop points, plan traces,
        // verdicts, and counts are pure functions of (seed, plan,
        // threads) — bit-identical under every policy and worker count.
        let plan = ShotPlan::Sequential {
            alpha: 0.05,
            min_shots,
            max_shots: min_shots + extra_budget,
            tranche,
        };
        let noise = qnoise::presets::uniform(4, 0.008, 0.03, 0.015).unwrap();
        let backend = TrajectoryBackend::new(noise).with_seed(raw_seed ^ 0x3c);
        check_backend(
            &backend,
            FAMILIES[family],
            points,
            plan,
            threads,
            with_seed.then_some(raw_seed),
            prefix_reuse,
            workers,
        );
    }

    #[test]
    fn sequential_statevector_sweeps_are_policy_independent(
        family in 0usize..4,
        points in 1usize..5,
        tranche in 1u64..48,
        threads in 1usize..4,
        raw_seed in any::<u64>(),
        workers in 0usize..4,
    ) {
        let plan = ShotPlan::Sequential {
            alpha: 0.05,
            min_shots: 32,
            max_shots: 192,
            tranche,
        };
        let backend = StatevectorBackend::new().with_seed(raw_seed ^ 0xc3);
        check_backend(
            &backend,
            FAMILIES[family],
            points,
            plan,
            threads,
            Some(raw_seed),
            true,
            workers,
        );
    }
}

#[test]
fn empty_sweep_returns_no_points_and_zero_telemetry() {
    for policy in [SweepPolicy::Serial, SweepPolicy::Parallel] {
        let sweep = AssertionSession::new(StatevectorBackend::new())
            .private_cache(4)
            .sweep_policy(policy)
            .run_sweep(Vec::<AssertingCircuit>::new())
            .unwrap();
        assert!(sweep.is_empty(), "{policy:?}");
        assert_eq!(sweep.telemetry, SessionTelemetry::default(), "{policy:?}");
    }
}

#[test]
fn single_point_sweep_matches_a_plain_run_with_the_derived_seed() {
    let noise = qnoise::presets::uniform(3, 0.01, 0.04, 0.02).unwrap();
    let backend = TrajectoryBackend::new(noise);
    let ac = bell_assertion();
    for policy in [SweepPolicy::Serial, SweepPolicy::Parallel] {
        let sweep = AssertionSession::new(&backend)
            .private_cache(4)
            .shot_plan(ShotPlan::Fixed(200))
            .seed(31)
            .sweep_policy(policy)
            .run_sweep(vec![ac.clone()])
            .unwrap();
        assert_eq!(sweep.len(), 1);
        let isolated = AssertionSession::new(&backend)
            .private_cache(4)
            .shot_plan(ShotPlan::Fixed(200))
            .seed(qsim::sweep_point_seed(31, 0))
            .run(&ac)
            .unwrap();
        assert_eq!(
            sweep.point(0).outcome().raw.counts,
            isolated.raw.counts,
            "{policy:?}"
        );
    }
    // Without a session seed there is nothing to derive from: the
    // single point runs under the backend's own seed, like run().
    for policy in [SweepPolicy::Serial, SweepPolicy::Parallel] {
        let sweep = AssertionSession::new(&backend)
            .private_cache(4)
            .shot_plan(ShotPlan::Fixed(200))
            .sweep_policy(policy)
            .run_sweep(vec![ac.clone()])
            .unwrap();
        let isolated = AssertionSession::new(&backend)
            .private_cache(4)
            .shot_plan(ShotPlan::Fixed(200))
            .run(&ac)
            .unwrap();
        assert_eq!(
            sweep.outcomes()[0].raw.counts,
            isolated.raw.counts,
            "{policy:?} unseeded"
        );
    }
}

/// A circuit the compiler rejects (more than 64 classical bits exceeds
/// the shot-record width).
fn unlowerable() -> AssertingCircuit {
    let mut wide = QuantumCircuit::new(1, 80);
    wide.h(0).unwrap();
    wide.measure(0, 0).unwrap();
    AssertingCircuit::new(wide)
}

#[test]
fn mid_sweep_lowering_failure_propagates_without_partial_results() {
    for policy in [SweepPolicy::Serial, SweepPolicy::Parallel] {
        let cache = ProgramCache::new(8);
        let session = AssertionSession::new(StatevectorBackend::new())
            .cache(&cache)
            .shot_plan(ShotPlan::Fixed(64))
            .sweep_policy(policy);
        let before = session.telemetry();
        let result = session.run_sweep(vec![bell_assertion(), unlowerable(), bell_assertion()]);
        assert!(
            matches!(result, Err(AssertError::Sim(_))),
            "{policy:?}: lowering failure must surface as Sim error"
        );
        // The Err carries no partial outcomes or telemetry. Session
        // lifetime counters reflect each policy's documented execution
        // semantics: Parallel lowers everything before running anything
        // (no runs at all), Serial streams and has executed exactly the
        // points before the failure.
        let delta = session.telemetry().since(&before);
        let expected_runs = match policy {
            SweepPolicy::Parallel => 0,
            SweepPolicy::Serial => 1,
        };
        assert_eq!(delta.runs, expected_runs, "{policy:?}");
        assert_eq!(delta.shots, expected_runs * 64, "{policy:?}");
        // The session stays fully usable afterwards.
        let sweep = session
            .run_sweep(vec![bell_assertion(), bell_assertion()])
            .unwrap();
        assert_eq!(sweep.len(), 2);
        assert_eq!(sweep.telemetry.runs, 2);
    }
}

#[test]
fn all_filtered_point_honors_the_filter_policy_mid_sweep() {
    // The middle point always fires its assertion: RequireKept must
    // fail the sweep with NoShotsKept under either policy, AllowEmpty
    // must keep all three points with an empty kept histogram.
    let always_fires = || {
        let mut base = QuantumCircuit::new(1, 0);
        base.x(0).unwrap();
        let mut ac = AssertingCircuit::new(base);
        ac.assert_classical([0], [false]).unwrap();
        ac.measure_data();
        ac
    };
    for policy in [SweepPolicy::Serial, SweepPolicy::Parallel] {
        let strict = AssertionSession::new(StatevectorBackend::new().with_seed(5))
            .private_cache(8)
            .shot_plan(ShotPlan::Fixed(64))
            .sweep_policy(policy);
        let result = strict.run_sweep(vec![bell_assertion(), always_fires(), bell_assertion()]);
        assert!(
            matches!(result, Err(AssertError::NoShotsKept)),
            "{policy:?}: RequireKept must reject the all-filtered point"
        );

        let lenient = AssertionSession::new(StatevectorBackend::new().with_seed(5))
            .private_cache(8)
            .shot_plan(ShotPlan::Fixed(64))
            .filter_policy(FilterPolicy::AllowEmpty)
            .sweep_policy(policy);
        let sweep = lenient
            .run_sweep(vec![bell_assertion(), always_fires(), bell_assertion()])
            .unwrap();
        assert_eq!(sweep.len(), 3, "{policy:?}");
        assert_eq!(sweep.outcomes()[1].shots_kept(), 0, "{policy:?}");
        assert_eq!(sweep.outcomes()[1].assertion_error_rate, 1.0, "{policy:?}");
        assert_eq!(sweep.outcomes()[0].shots_kept(), 64, "{policy:?}");
    }
}

#[test]
fn concurrent_sweeps_on_one_session_stay_bit_identical() {
    // Two sweeps running simultaneously on one shared session exercise
    // the concurrent ProgramCache + PrefixRegistry path; each must
    // reproduce its isolated serial reference exactly.
    let noise = qnoise::presets::uniform(4, 0.01, 0.04, 0.02).unwrap();
    let backend = TrajectoryBackend::new(noise);
    let shared = AssertionSession::new(&backend)
        .private_cache(64)
        .shot_plan(ShotPlan::Fixed(100))
        .seed(77)
        .threads(2);
    let families = [Family::Staged, Family::Thetas];
    let references: Vec<SweepOutcome> = families
        .iter()
        .map(|&family| {
            AssertionSession::new(&backend)
                .private_cache(64)
                .shot_plan(ShotPlan::Fixed(100))
                .seed(77)
                .threads(2)
                .sweep_policy(SweepPolicy::Serial)
                .run_sweep(family_circuits(family, 4))
                .unwrap()
        })
        .collect();
    std::thread::scope(|threads| {
        let mut handles = Vec::new();
        for &family in &families {
            let shared = &shared;
            handles.push(threads.spawn(move || shared.run_sweep(family_circuits(family, 4))));
        }
        for (handle, reference) in handles.into_iter().zip(&references) {
            let sweep = handle.join().expect("sweep thread").unwrap();
            for (p, (a, b)) in sweep
                .outcomes()
                .iter()
                .zip(reference.outcomes())
                .enumerate()
            {
                assert_eq!(a.raw.counts, b.raw.counts, "concurrent point {p}");
                assert_eq!(a.kept, b.kept, "concurrent point {p}");
            }
            // Cache/prefix telemetry may differ (the sweeps share one
            // cache, so who misses first is timing-dependent), but the
            // deterministic execution fields must hold.
            assert_eq!(sweep.telemetry.runs, reference.telemetry.runs);
            assert_eq!(sweep.telemetry.shots, reference.telemetry.shots);
        }
    });
}

#[test]
fn fixed_plan_counts_are_pinned_to_the_pre_plan_stream() {
    // ShotPlan::Fixed must stay byte-identical to the pre-plan `.shots`
    // behavior: exactly one seeded backend call per point, same RNG
    // streams. These golden histograms were recorded when the plan API
    // was introduced; if this fails, the fixed path stopped being a
    // passthrough — fix the path, don't regenerate the goldens.
    fn histogram<B: Backend + Sync>(backend: &B) -> Vec<Vec<(u64, u64)>> {
        let sweep = AssertionSession::new(backend)
            .private_cache(16)
            .shot_plan(ShotPlan::Fixed(160))
            .seed(42)
            .threads(2)
            .run_sweep(family_circuits(Family::Thetas, 3))
            .unwrap();
        sweep
            .outcomes()
            .iter()
            .map(|o| {
                let mut pairs: Vec<(u64, u64)> = o.raw.counts.iter().collect();
                pairs.sort_unstable();
                pairs
            })
            .collect()
    }
    assert_eq!(
        histogram(&StatevectorBackend::new().with_seed(9)),
        vec![
            vec![(0, 160)],
            vec![(0, 143), (6, 17)],
            vec![(0, 123), (6, 37)],
        ],
        "statevector fixed-plan stream moved"
    );
    let noise = qnoise::presets::uniform(4, 0.008, 0.03, 0.015).unwrap();
    assert_eq!(
        histogram(&TrajectoryBackend::new(noise.clone()).with_seed(9)),
        vec![
            vec![(0, 139), (1, 5), (2, 2), (3, 2), (4, 5), (5, 1), (6, 6)],
            vec![(0, 127), (1, 5), (2, 3), (3, 3), (4, 5), (5, 6), (6, 11)],
            vec![(0, 120), (1, 4), (2, 2), (3, 5), (4, 3), (5, 1), (6, 25)],
        ],
        "trajectory fixed-plan stream moved"
    );
    assert_eq!(
        histogram(&DensityMatrixBackend::new(noise)),
        vec![
            vec![(0, 141), (1, 5), (2, 4), (3, 2), (4, 3), (5, 2), (6, 3)],
            vec![
                (0, 130),
                (1, 4),
                (2, 3),
                (3, 2),
                (4, 3),
                (5, 2),
                (6, 15),
                (7, 1)
            ],
            vec![
                (0, 109),
                (1, 4),
                (2, 4),
                (3, 2),
                (4, 3),
                (5, 2),
                (6, 35),
                (7, 1)
            ],
        ],
        "density-matrix fixed-plan stream moved"
    );
}

#[test]
fn staged_family_prefix_hits_are_policy_and_worker_independent() {
    // Serial lowering is shared by both policies, so the prefix-hit
    // count is exact (points - 1 for the staged family) regardless of
    // scheduling.
    for policy in [SweepPolicy::Serial, SweepPolicy::Parallel] {
        for workers in [0, 2] {
            let pool = ShardPool::new(workers);
            let sweep = AssertionSession::new(StatevectorBackend::new().with_seed(2))
                .private_cache(32)
                .shot_plan(ShotPlan::Fixed(64))
                .sweep_policy(policy)
                .pool(&pool)
                .run_sweep(family_circuits(Family::Staged, 5))
                .unwrap();
            assert_eq!(
                sweep.telemetry.prefix_hits, 4,
                "{policy:?}, {workers} workers"
            );
            assert_eq!(sweep.telemetry.cache_misses, 5);
        }
    }
}
