//! `hybrid_island`: direct session runs on the hybrid backend.
//!
//! One caller runs `AssertionSession::run` in a closed loop on
//! `HybridBackend::ideal()` with `.threads(1)` and a fixed 256-shot plan,
//! over a family of Clifford-dominated assertion-instrumented circuits of
//! 11 qubits: a GHZ block checked by an entanglement assertion
//! with ancilla reuse, H/CX/S dressing with one mid-circuit measurement,
//! and a T island near the end. Execution is almost the whole job — the
//! tableau prefix, the `Tableau::to_statevector` handoff and the
//! amplitude suffix — and the family has few distinct states at the cut,
//! so a handoff memo would show here. Serve, cold lowering and the pool
//! are absent: every circuit is lowered during set-up.
//!
//! Checks: every job's verdicts must match the designed ones, and at the
//! end of the run each circuit's pooled counts must lie within a TVD
//! tolerance of a `StatevectorBackend` reference sample.

use crate::trace::Tracer;
use crate::{
    closed_loop, hash_of, per_layer, trace_overhead, untraced_phase, JobOutcome, RunConfig,
    RunReport,
};
use qassert::{
    AssertingCircuit, AssertionSession, AssertionVerdict, Parity, ShotPlan, SuperpositionBasis,
};
use qcircuit::QuantumCircuit;
use qsim::{
    Backend, CliffordOpKind, CompiledProgram, Counts, HybridBackend, HybridPlan, PrefixRegistry,
    ProgramCache, StatevectorBackend, Tableau,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, HashSet};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Jobs per second this workload sustains on a 2-vCPU host.
const NOMINAL_JOBS_PER_S: f64 = 70.0;
/// Fixed shots per job.
const SHOTS: u64 = 256;
/// H/CX/S dressing rounds.
const ROUNDS: usize = 3;
/// Shots of the statevector reference sample per circuit.
const REFERENCE_SHOTS: u64 = 1024;

/// Data qubits of every family member (one reused ancilla comes on top).
/// Every member has the same width, so job cost does not depend on which
/// member a job draws and the latency distribution stays unimodal.
const DATA: usize = 10;

/// One member of the circuit family.
#[derive(Clone, Copy, Debug)]
struct Design {
    /// GHZ block size, checked by the entanglement assertion.
    ghz: usize,
    /// Adds a classical assertion on a `|+⟩` qubit, which fires on half
    /// the shots.
    violated: bool,
}

const FAMILY: [Design; 4] = [
    Design {
        ghz: 4,
        violated: false,
    },
    Design {
        ghz: 4,
        violated: true,
    },
    Design {
        ghz: 5,
        violated: false,
    },
    Design {
        ghz: 5,
        violated: true,
    },
];

/// An instrumented family member plus what the checks need to know
/// about it.
struct Member {
    circuit: AssertingCircuit,
    designed: Vec<AssertionVerdict>,
    /// Clbits the TVD check compares: every assertion bit, the
    /// mid-circuit measurement, and the T-island qubit's data bit.
    probe_bits: Vec<usize>,
}

fn build(design: Design) -> Member {
    let island = DATA - 1;
    let mut base = QuantumCircuit::new(DATA, 0);
    base.h(0).expect("in range");
    for q in 0..design.ghz - 1 {
        base.cx(q, q + 1).expect("in range");
    }
    let mut ac = AssertingCircuit::new(base).with_ancilla_reuse(true);
    ac.assert_entangled(0..design.ghz, Parity::Even)
        .expect("valid targets");
    let dressed: Vec<usize> = (design.ghz..island).collect();
    let c = ac.circuit_mut();
    let mut mid = 0;
    for round in 0..ROUNDS {
        for &q in &dressed {
            c.h(q).expect("in range");
        }
        for pair in dressed.windows(2) {
            c.cx(pair[0], pair[1]).expect("in range");
        }
        for &q in &dressed {
            c.s(q).expect("in range");
        }
        if round == 0 {
            let clbit = c.add_clbit();
            mid = clbit.index();
            c.measure(dressed[0], clbit).expect("in range");
        }
    }
    c.h(island).expect("in range");
    ac.assert_superposition(island, SuperpositionBasis::Plus)
        .expect("valid target");
    let mut designed = vec![AssertionVerdict::Holds, AssertionVerdict::Holds];
    if design.violated {
        ac.assert_classical([island], [false])
            .expect("valid target");
        designed.push(AssertionVerdict::Violated);
    }
    // The non-Clifford island, then data readout.
    let c = ac.circuit_mut();
    c.t(island).expect("in range");
    c.h(island).expect("in range");
    ac.measure_data();
    let mut probe_bits: Vec<usize> = ac
        .records()
        .iter()
        .flat_map(|r| r.clbits.iter().map(|b| b.index()))
        .collect();
    probe_bits.push(mid);
    probe_bits.push(ac.circuit().num_clbits() - 1);
    Member {
        circuit: ac,
        designed,
        probe_bits,
    }
}

/// One job: which family member, under which seed.
#[derive(Clone, Copy, Debug)]
struct Job {
    member: usize,
    seed: u64,
}

struct State {
    members: Vec<Member>,
    programs: Vec<Arc<CompiledProgram>>,
    cache: ProgramCache,
    prefixes: Arc<PrefixRegistry>,
    jobs: Vec<Job>,
    /// Each member's untraced counts on its probe bits, pooled over jobs.
    pooled: Mutex<Vec<Counts>>,
    /// Set-up checks that failed (reported as failures of the run).
    problems: Vec<String>,
}

fn setup(seed: u64, jobs: usize) -> State {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x4b1d_0002);
    let members: Vec<Member> = FAMILY.into_iter().map(build).collect();
    let jobs = (0..jobs)
        .map(|_| Job {
            member: (rng.gen::<u64>() % members.len() as u64) as usize,
            seed: rng.gen::<u64>() >> 16,
        })
        .collect();
    let pooled = members
        .iter()
        .map(|m| Counts::new(m.probe_bits.len()))
        .collect();
    let mut state = State {
        members,
        programs: Vec::new(),
        cache: ProgramCache::new(64),
        prefixes: Arc::new(PrefixRegistry::new()),
        jobs,
        pooled: Mutex::new(pooled),
        problems: Vec::new(),
    };
    let programs: Vec<Arc<CompiledProgram>> = {
        let session = state.session(0);
        state
            .members
            .iter()
            .map(|m| session.lower(m.circuit.circuit()).expect("family lowers"))
            .collect()
    };
    for (i, program) in programs.iter().enumerate() {
        if !program.hybrid().is_some_and(|plan| plan.profitable()) {
            state.problems.push(format!(
                "member {i}: no profitable hybrid plan at {} qubits",
                program.num_qubits()
            ));
        }
    }
    state.programs = programs;
    if let Err(why) = state.run_job(&Job { member: 0, seed }, false).check {
        state.problems.push(format!("warm-up job: {why}"));
    }
    state
}

impl State {
    fn session(&self, seed: u64) -> AssertionSession<'_, HybridBackend> {
        AssertionSession::new(HybridBackend::ideal())
            .cache(&self.cache)
            .prefix_registry(Arc::clone(&self.prefixes))
            .threads(1)
            .shot_plan(ShotPlan::Fixed(SHOTS))
            .seed(seed)
    }

    /// Runs one job and checks its verdicts; with `pool`, adds its probe
    /// marginal to the member's pooled counts.
    fn run_job(&self, job: &Job, pool: bool) -> JobOutcome {
        let member = &self.members[job.member];
        let session = self.session(job.seed);
        let outcome = match session.run(&member.circuit) {
            Ok(outcome) => outcome,
            Err(e) => {
                return JobOutcome {
                    shots: SHOTS,
                    check: Err(e.to_string()),
                    digest: 0,
                }
            }
        };
        let verdicts: Vec<AssertionVerdict> = outcome.verdicts.iter().map(|v| v.verdict).collect();
        let digest = hash_of(&(job.member, outcome.raw.counts.to_sorted_vec()));
        if pool {
            let marginal = outcome.raw.counts.marginal(&member.probe_bits);
            self.pooled.lock().expect("pool lock")[job.member].merge(&marginal);
        }
        let check = if verdicts == member.designed {
            Ok(())
        } else {
            Err(format!(
                "member {} verdicts {verdicts:?}, designed {:?}",
                job.member, member.designed
            ))
        };
        JobOutcome {
            shots: outcome.plan.shots_used,
            check,
            digest,
        }
    }
}

/// Compares each member's pooled probe counts with a statevector
/// reference sample of the same compiled program.
fn tvd_check(state: &State, seed: u64, report: &mut RunReport) {
    let pooled = state.pooled.lock().expect("pool lock");
    for (i, (member, counts)) in state.members.iter().zip(pooled.iter()).enumerate() {
        if counts.total() == 0 {
            continue;
        }
        let reference = StatevectorBackend::new()
            .with_seed(seed)
            .with_threads(2)
            .run_compiled(&state.programs[i], REFERENCE_SHOTS)
            .map(|r| r.counts.marginal(&member.probe_bits));
        let reference = match reference {
            Ok(reference) => reference,
            Err(e) => {
                report.fail(format!("member {i} reference run failed: {e}"));
                continue;
            }
        };
        let support: HashSet<u64> = counts
            .iter()
            .chain(reference.iter())
            .map(|(k, _)| k)
            .collect();
        let k = support.len() as f64;
        let tolerance =
            0.02 + (k / counts.total() as f64).sqrt() + (k / reference.total() as f64).sqrt();
        let tvd = counts.tvd(&reference);
        report.notes.push(format!(
            "member {i}: pooled {} shots, tvd {tvd:.4} vs statevector (tolerance {tolerance:.4})",
            counts.total()
        ));
        if tvd > tolerance {
            report.fail(format!(
                "member {i}: tvd {tvd:.4} exceeds tolerance {tolerance:.4}"
            ));
        }
    }
}

/// Replays the member's Clifford prefix for `shots` shots on a tableau
/// through its public gate and measure methods, extracting the state at
/// the cut after each; returns (prefix ns, extraction ns, distinct cut
/// states).
fn replay_prefix(
    program: &CompiledProgram,
    plan: &HybridPlan,
    shots: u64,
    seed: u64,
) -> (u64, u64, usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut tableau = Tableau::new(program.num_qubits());
    let mut distinct = HashSet::new();
    let (mut prefix_ns, mut extract_ns) = (0u64, 0u64);
    for _ in 0..shots {
        tableau.reset_state();
        let t0 = Instant::now();
        let mut clbits = 0u64;
        for op in plan.prefix().ops() {
            if let Some(cond) = op.condition {
                if ((clbits >> cond.clbit.index()) & 1 == 1) != cond.value {
                    continue;
                }
            }
            match &op.kind {
                CliffordOpKind::Gate { kind, qubits } => tableau.apply_clifford(*kind, qubits),
                CliffordOpKind::Measure { qubit, clbit, .. } => {
                    let bit = tableau.measure(*qubit, &mut rng);
                    clbits = (clbits & !(1 << clbit)) | (u64::from(bit) << clbit);
                }
                CliffordOpKind::Reset { qubit } => tableau.reset_qubit(*qubit, &mut rng),
                CliffordOpKind::PostSelect { qubit, outcome } => {
                    tableau.postselect(*qubit, *outcome, &mut rng);
                }
            }
        }
        let t1 = Instant::now();
        let state = tableau.to_statevector();
        let t2 = Instant::now();
        prefix_ns += (t1 - t0).as_nanos() as u64;
        extract_ns += (t2 - t1).as_nanos() as u64;
        let bits: Vec<(u64, u64)> = state
            .amplitudes()
            .iter()
            .map(|a| (a.re.to_bits(), a.im.to_bits()))
            .collect();
        distinct.insert(hash_of(&bits));
    }
    (prefix_ns, extract_ns, distinct.len())
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
                state.run_job(&state.jobs[i], true)
            })
        },
        |state, report| {
            report.fail_setup(&state.problems);
            tvd_check(state, cfg.seed, report);
        },
    );
    let Some(state) = state else {
        return report;
    };

    let mut tracer = Tracer::new(Instant::now());
    let mut traced_ms = Vec::with_capacity(state.jobs.len());
    let mut exec_us = Vec::with_capacity(state.jobs.len());
    for (i, job) in state.jobs.iter().enumerate() {
        let id = i as u64;
        let member = &state.members[job.member];
        let program = &state.programs[job.member];
        tracer.time("qassert.instrument", id, || build(FAMILY[job.member]));

        // The job itself, exactly as untraced.
        let session = state.session(job.seed);
        let (outcome, run_us) = tracer.time_us("qassert.run", id, || session.run(&member.circuit));
        traced_ms.push(run_us / 1e3);
        let outcome = match outcome {
            Ok(outcome) => outcome,
            Err(e) => {
                report.fail(format!("traced job {i}: {e}"));
                continue;
            }
        };
        if !outcome
            .verdicts
            .iter()
            .map(|v| v.verdict)
            .eq(member.designed.iter().copied())
        {
            report.fail(format!(
                "traced job {i}: verdicts differ from the designed ones"
            ));
        }
        let telemetry = session.telemetry();
        tracer.count("qsim.cache.hits", telemetry.cache_hits);
        tracer.count("qsim.cache.misses", telemetry.cache_misses);
        tracer.count("qsim.prefix.hits", telemetry.prefix_hits);

        // Layer replays, outside the job.
        let (lowered, lower_us) =
            tracer.time_us("qsim.lower", id, || session.lower(member.circuit.circuit()));
        if lowered.is_err() {
            report.fail(format!("traced job {i}: lowering failed"));
        }
        let raw = outcome.raw.clone();
        let (analyzed, analyze_us) = tracer.time_us("qassert.analyze", id, || {
            session.analyze(raw, &member.circuit)
        });
        if analyzed.is_err() {
            report.fail(format!("traced job {i}: analysis failed"));
        }
        exec_us.push(run_us - lower_us - analyze_us);

        let Some(plan) = program.hybrid() else {
            continue; // already reported as a set-up failure
        };
        let (prefix_ns, extract_ns, distinct) = replay_prefix(program, plan, SHOTS, job.seed);
        tracer.record("qsim.stabilizer.prefix", id, prefix_ns);
        tracer.record("qsim.hybrid.extract", id, extract_ns);
        tracer.count("qsim.hybrid.extractions", SHOTS);
        tracer.count("qsim.hybrid.distinct_cuts", distinct as u64);
        // The suffix from the zero state, one compiled shot at a time: an
        // approximation of the handed-off suffix (whose start state only
        // the backend can inject), run per shot because a whole-run call
        // would take the sample-once fast path the routed shots never do.
        let mut rng = StdRng::seed_from_u64(job.seed);
        let suffix_span = tracer.begin("qsim.exec.suffix", id);
        let suffix_run: Result<Vec<_>, _> = (0..SHOTS)
            .map(|_| qsim::run_compiled_shot(plan.suffix(), &mut rng))
            .collect();
        tracer.end(suffix_span);
        if let Err(e) = suffix_run {
            report.fail(format!("traced job {i}: suffix replay failed: {e}"));
        }
    }
    report.attempted += state.jobs.len() as u64;

    let n = state.jobs.len();
    let extractions = tracer.counter("qsim.hybrid.extractions");
    let lowerings = tracer.counter("qsim.cache.hits") + tracer.counter("qsim.cache.misses");
    let per_shot = |name: &str| tracer.total_us(name) / extractions.max(1) as f64;
    let replayed_us = tracer.total_us("qsim.lower")
        + tracer.total_us("qassert.analyze")
        + tracer.total_us("qsim.stabilizer.prefix")
        + tracer.total_us("qsim.hybrid.extract")
        + tracer.total_us("qsim.exec.suffix");
    let mut values: BTreeMap<&'static str, (f64, usize)> = BTreeMap::new();
    values.insert(
        "qassert.instrument_us",
        (tracer.mean_us("qassert.instrument"), n),
    );
    values.insert("qsim.exec_us.hybrid", (crate::stats::mean(&exec_us), n));
    values.insert("qsim.lower_us", (tracer.mean_us("qsim.lower"), n));
    values.insert(
        "qsim.cache.hit_share",
        (tracer.share("qsim.cache.hits", lowerings), n),
    );
    values.insert(
        "qsim.prefix.hit_share",
        (tracer.share("qsim.prefix.hits", lowerings), n),
    );
    values.insert(
        "qsim.stabilizer.prefix_us",
        (per_shot("qsim.stabilizer.prefix"), extractions as usize),
    );
    values.insert(
        "qsim.hybrid.extract_us",
        (per_shot("qsim.hybrid.extract"), extractions as usize),
    );
    values.insert(
        "qsim.hybrid.distinct_cut_share",
        (
            tracer.share("qsim.hybrid.distinct_cuts", extractions),
            extractions as usize,
        ),
    );
    values.insert(
        "qsim.exec.suffix_us",
        (per_shot("qsim.exec.suffix"), extractions as usize),
    );
    values.insert("qassert.analyze_us", (tracer.mean_us("qassert.analyze"), n));
    values.insert(
        "trace.coverage",
        (replayed_us / tracer.total_us("qassert.run"), n),
    );
    values.insert(
        "trace.overhead",
        (trace_overhead(&untraced.job_ms, &traced_ms), n),
    );
    report.metrics = per_layer(&values);
    report
}
