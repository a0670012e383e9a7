//! `nisq_sweep`: direct session sweeps under noise — the paper's NISQ
//! filtering loop.
//!
//! One caller runs `AssertionSession::run_sweep` in a closed loop with
//! the default `Parallel` policy on the global pool, on a
//! `TrajectoryBackend` under uniform depolarizing and readout noise, with
//! a sequential shot plan. Each job instruments a fresh family of four
//! points, each adding one assertion to the previous point's circuit, and
//! sweeps it. Rotation angles are drawn per job, so every circuit is new
//! to the 256-entry global `ProgramCache`: lowering is all misses plus
//! prefix extension, execution is noisy per-shot trajectories, the
//! sequential test decides the shot count, and points run in parallel.
//!
//! Check: every point's verdicts must match the designed ones (the
//! families are calibrated so that both holds and violated occur).

use crate::trace::Tracer;
use crate::{
    closed_loop, hash_of, per_layer, stats, trace_overhead, untraced_phase, JobOutcome, RunConfig,
    RunReport,
};
use qassert::{
    AssertingCircuit, AssertionSession, AssertionVerdict, Parity, ShotPlan, SuperpositionBasis,
    SweepOutcome, SweepPolicy,
};
use qcircuit::QuantumCircuit;
use qnoise::presets;
use qsim::{sweep_point_seed, tranche_seed, Backend, ProgramCache, TrajectoryBackend};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::f64::consts::FRAC_PI_2;
use std::time::Instant;

/// Jobs per second this workload sustains on a 2-vCPU host.
const NOMINAL_JOBS_PER_S: f64 = 21.0;
/// Data qubits: a GHZ-4 block, a near-`|+⟩` qubit and a near-balanced
/// qubit. Each point adds one ancilla.
const DATA: usize = 6;
/// Points per family.
const POINTS: usize = 4;
/// Shots per tranche of the sequential plan.
const TRANCHE: u64 = 32;
/// The sequential plan every point runs under.
const PLAN: ShotPlan = ShotPlan::Sequential {
    alpha: 0.05,
    min_shots: 64,
    max_shots: 4096,
    tranche: TRANCHE,
};
/// Uniform noise: 1q depolarizing, 2q depolarizing, symmetric readout.
const NOISE: (f64, f64, f64) = (0.0005, 0.003, 0.005);
/// Every traced job whose index is a multiple of this also runs a
/// `Serial` sweep of its family, for the pool speed-up.
const SERIAL_EVERY: usize = 4;

/// The angles that make one job's family distinct.
#[derive(Clone, Copy, Debug)]
struct Job {
    /// Phase on the GHZ block (parity-preserving).
    ghz_phase: f64,
    /// Phase on the `|+⟩` qubit, small enough that its superposition
    /// assertion holds.
    plus_phase: f64,
    /// Y rotation near π/2 on the balanced qubit, so a classical
    /// assertion on it fires on about half the shots.
    tilt: f64,
    /// Session seed.
    seed: u64,
}

impl Job {
    fn draw(rng: &mut StdRng) -> Job {
        Job {
            ghz_phase: 0.1 + 2.0 * rng.gen::<f64>(),
            plus_phase: 0.05 + 0.2 * rng.gen::<f64>(),
            tilt: FRAC_PI_2 - 0.2 + 0.4 * rng.gen::<f64>(),
            seed: rng.gen::<u64>() >> 16,
        }
    }
}

/// Designed verdicts of point `p`: the GHZ entanglement and `|+⟩`
/// superposition assertions hold; the classical assertion on the
/// balanced qubit and the superposition assertion on a GHZ qubit are
/// violated.
fn designed(point: usize) -> &'static [AssertionVerdict] {
    use AssertionVerdict::{Holds, Violated};
    const ALL: [AssertionVerdict; POINTS] = [Holds, Holds, Violated, Violated];
    &ALL[..=point]
}

/// The job's family: point `p` is point `p − 1` plus one assertion.
fn family(job: &Job) -> Vec<AssertingCircuit> {
    let mut base = QuantumCircuit::new(DATA, 0);
    base.h(0).expect("in range");
    for q in 0..3 {
        base.cx(q, q + 1).expect("in range");
    }
    base.rz(job.ghz_phase, 0).expect("in range");
    base.h(4).expect("in range");
    base.rz(job.plus_phase, 4).expect("in range");
    base.ry(job.tilt, 5).expect("in range");
    let mut point = AssertingCircuit::new(base);
    let mut points = Vec::with_capacity(POINTS);
    for p in 0..POINTS {
        match p {
            0 => point.assert_entangled(0..4, Parity::Even),
            1 => point.assert_superposition(4, SuperpositionBasis::Plus),
            2 => point.assert_classical([5], [false]),
            _ => point.assert_superposition(0, SuperpositionBasis::Plus),
        }
        .expect("valid targets");
        points.push(point.clone());
    }
    points
}

struct State {
    backend: TrajectoryBackend,
    jobs: Vec<Job>,
    problems: Vec<String>,
}

fn setup(seed: u64, jobs: usize) -> State {
    // Cold lowering for every set-up: the warm-up family must not be
    // served from an earlier set-up's cache entries.
    ProgramCache::global().clear();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x715c_0003);
    let (p1, p2, readout) = NOISE;
    let noise = presets::uniform(DATA + POINTS, p1, p2, readout).expect("valid noise rates");
    // The warm-up family does not depend on the seed: its sequential
    // shot count would otherwise make set-up time vary with the seed.
    let warm_up = Job::draw(&mut StdRng::seed_from_u64(0));
    let mut state = State {
        backend: TrajectoryBackend::new(noise),
        jobs: (0..jobs).map(|_| Job::draw(&mut rng)).collect(),
        problems: Vec::new(),
    };
    let (check, _, _) = state.sweep(&warm_up, &family(&warm_up));
    if let Err(why) = check.check {
        state.problems.push(format!("warm-up job: {why}"));
    }
    state
}

impl State {
    fn session(&self, job: &Job) -> AssertionSession<'_, &TrajectoryBackend> {
        AssertionSession::new(&self.backend)
            .shot_plan(PLAN)
            .seed(job.seed)
    }

    /// Sweeps one family and checks every point's verdicts.
    fn sweep(
        &self,
        job: &Job,
        points: &[AssertingCircuit],
    ) -> (JobOutcome, Option<SweepOutcome>, f64) {
        let session = self.session(job);
        let t0 = Instant::now();
        let sweep = session.run_sweep(points.iter().cloned());
        let sweep_ms = t0.elapsed().as_secs_f64() * 1e3;
        let sweep = match sweep {
            Ok(sweep) => sweep,
            Err(e) => {
                let failed = JobOutcome {
                    shots: 0,
                    check: Err(e.to_string()),
                    digest: 0,
                };
                return (failed, None, sweep_ms);
            }
        };
        let mut check = Ok(());
        let mut digest_input = Vec::with_capacity(POINTS);
        for point in sweep.iter() {
            let verdicts: Vec<AssertionVerdict> =
                point.verdicts().iter().map(|v| v.verdict).collect();
            if check.is_ok() && verdicts != designed(point.index()) {
                check = Err(format!(
                    "point {} verdicts {verdicts:?}, designed {:?}",
                    point.index(),
                    designed(point.index())
                ));
            }
            digest_input.push((
                point.shots_used(),
                point.outcome().raw.counts.to_sorted_vec(),
            ));
        }
        let outcome = JobOutcome {
            shots: sweep.shots_used(),
            check,
            digest: hash_of(&digest_input),
        };
        (outcome, Some(sweep), sweep_ms)
    }
}

/// Runs the workload: end-to-end metrics, or per-layer metrics when
/// `cfg.trace` is set.
pub fn run(cfg: &RunConfig) -> RunReport {
    let jobs = cfg.job_count(NOMINAL_JOBS_PER_S);
    let (mut report, untraced, state) = untraced_phase(
        cfg,
        || setup(cfg.seed, jobs),
        |state| {
            closed_loop(state.jobs.len(), 1, |_, i| {
                let job = &state.jobs[i];
                state.sweep(job, &family(job)).0
            })
        },
        |state, report| report.fail_setup(&state.problems),
    );
    let Some(state) = state else {
        let points = (untraced.outcomes.len() * POINTS) as f64;
        let shots: u64 = untraced.outcomes.iter().map(|o| o.shots).sum();
        report.notes.push(format!(
            "{:.1} shots per point over {points} points",
            shots as f64 / points
        ));
        return report;
    };

    // The traced pass replays the untraced pass's jobs; their circuits
    // must be new to the cache again.
    ProgramCache::global().clear();
    let mut tracer = Tracer::new(Instant::now());
    let mut traced_ms = Vec::with_capacity(state.jobs.len());
    let mut exec_us = Vec::with_capacity(state.jobs.len());
    let (mut serial_ms, mut parallel_ms) = (0.0f64, 0.0f64);
    for (i, job) in state.jobs.iter().enumerate() {
        let id = i as u64;
        // The job itself, exactly as untraced, with instrumentation timed.
        let t0 = Instant::now();
        let points = tracer.time("qassert.instrument", id, || family(job));
        let (outcome, sweep, sweep_ms) = state.sweep(job, &points);
        traced_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        if let Err(why) = outcome.check {
            report.fail(format!("traced job {i}: {why}"));
        }
        let Some(sweep) = sweep else { continue };
        let t = &sweep.telemetry;
        tracer.count("qsim.cache.hits", t.cache_hits);
        tracer.count("qsim.cache.misses", t.cache_misses);
        tracer.count("qsim.prefix.hits", t.prefix_hits);
        tracer.count("qsim.pool.steals", t.pool_steals);
        tracer.count("qassert.plan.points", t.runs);
        tracer.count("qassert.plan.tranches", t.tranches);
        tracer.count("qassert.plan.early_stops", t.early_stops);

        // Layer replays, outside the job: a fresh session with its own
        // cache and prefix registry lowers the family again (misses and
        // prefix extension, as in the sweep), replays every tranche the
        // sweep ran with the same derived seeds, and re-analyzes every
        // point's raw result.
        let replay = AssertionSession::new(&state.backend)
            .shot_plan(PLAN)
            .seed(job.seed)
            .private_cache(2 * POINTS);
        let (mut lower_us, mut analyze_us) = (0.0, 0.0);
        for (p, (circuit, point)) in points.iter().zip(sweep.iter()).enumerate() {
            let (program, us) =
                tracer.time_us("qsim.lower", id, || replay.lower(circuit.circuit()));
            lower_us += us;
            let Ok(program) = program else {
                report.fail(format!("traced job {i}: replay lowering failed"));
                continue;
            };
            let base = sweep_point_seed(job.seed, p);
            let (mut requested, budget) = (0u64, PLAN.budget());
            for k in 0..point.tranches() {
                let shots = TRANCHE.min(budget - requested);
                requested += shots;
                let seed = Some(tranche_seed(base, k as usize));
                let run = tracer.time("qsim.exec.tranche", id, || {
                    state
                        .backend
                        .run_compiled_seeded(&program, shots, seed, None)
                });
                if run.is_err() {
                    report.fail(format!("traced job {i}: tranche replay failed"));
                }
            }
            tracer.count("qsim.exec.shots", requested);
            let raw = point.outcome().raw.clone();
            let (analyzed, us) =
                tracer.time_us("qassert.analyze", id, || replay.analyze(raw, circuit));
            analyze_us += us;
            if analyzed.is_err() {
                report.fail(format!("traced job {i}: replay analysis failed"));
            }
        }
        exec_us.push(sweep_ms * 1e3 - lower_us - analyze_us);

        if i % SERIAL_EVERY == 0 {
            let serial = AssertionSession::new(&state.backend)
                .shot_plan(PLAN)
                .seed(job.seed)
                .private_cache(2 * POINTS)
                .sweep_policy(SweepPolicy::Serial);
            let t0 = Instant::now();
            let serial_sweep = serial.run_sweep(points.iter().cloned());
            serial_ms += t0.elapsed().as_secs_f64() * 1e3;
            parallel_ms += sweep_ms;
            let same = serial_sweep.is_ok_and(|s| {
                s.iter()
                    .zip(sweep.iter())
                    .all(|(a, b)| a.outcome().raw.counts == b.outcome().raw.counts)
            });
            if !same {
                report.fail(format!(
                    "traced job {i}: serial sweep differs from parallel"
                ));
            }
        }
    }
    report.attempted += state.jobs.len() as u64;

    let n = state.jobs.len();
    let lowerings = tracer.counter("qsim.cache.hits") + tracer.counter("qsim.cache.misses");
    let points = tracer.counter("qassert.plan.points");
    let shots = tracer.counter("qsim.exec.shots");
    let mut values: BTreeMap<&'static str, (f64, usize)> = BTreeMap::new();
    values.insert(
        "qassert.instrument_us",
        (tracer.mean_us("qassert.instrument"), n),
    );
    values.insert("qsim.exec_us.trajectory", (stats::mean(&exec_us), n));
    values.insert("qsim.lower_us", (tracer.mean_us("qsim.lower"), n * POINTS));
    values.insert(
        "qsim.cache.hit_share",
        (tracer.share("qsim.cache.hits", lowerings), n * POINTS),
    );
    values.insert(
        "qsim.prefix.hit_share",
        (tracer.share("qsim.prefix.hits", lowerings), n * POINTS),
    );
    values.insert(
        "qsim.exec.shot_us",
        (
            tracer.total_us("qsim.exec.tranche") / shots.max(1) as f64,
            shots as usize,
        ),
    );
    values.insert(
        "qassert.plan.tranches_per_point",
        (
            tracer.share("qassert.plan.tranches", points),
            points as usize,
        ),
    );
    values.insert(
        "qassert.plan.early_stop_share",
        (
            tracer.share("qassert.plan.early_stops", points),
            points as usize,
        ),
    );
    values.insert(
        "qsim.pool.speedup",
        (
            serial_ms / parallel_ms.max(f64::MIN_POSITIVE),
            n.div_ceil(SERIAL_EVERY),
        ),
    );
    values.insert(
        "qsim.pool.steals",
        (tracer.share("qsim.pool.steals", n as u64), n),
    );
    values.insert(
        "qassert.analyze_us",
        (tracer.mean_us("qassert.analyze"), n * POINTS),
    );
    let replayed_us = tracer.total_us("qassert.instrument")
        + tracer.total_us("qsim.lower")
        + tracer.total_us("qsim.exec.tranche")
        + tracer.total_us("qassert.analyze");
    values.insert(
        "trace.coverage",
        (replayed_us / (traced_ms.iter().sum::<f64>() * 1e3), n),
    );
    values.insert(
        "trace.overhead",
        (trace_overhead(&untraced.job_ms, &traced_ms), n),
    );
    report.metrics = per_layer(&values);
    report.notes.push(format!(
        "{:.1} shots per point",
        shots as f64 / points.max(1) as f64
    ));
    report
}
