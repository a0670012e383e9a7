//! `serve_mix`: HTTP load on `qassert-serve`.
//!
//! The server runs in-process (`Server::start`, loopback, default
//! `ServerConfig` sizing). Two client threads drive it in a closed loop,
//! one connection per request, through `client::post_job` — the way a
//! real caller blocks on its reply. The jobs are small seeded jobs of six
//! kinds, one per backend path the server has: the in-process work per
//! job is a fraction of a millisecond, so accept, HTTP, JSON and
//! rendering make up most of a job, and the working set is small enough
//! that every lowering in the timed phase is a cache read. This is the
//! only workload that goes through `serve`.
//!
//! Every response's verdict, counts and plan records must match, byte
//! for byte, a direct `AssertionSession` run of the same spec computed
//! during set-up (the telemetry trailer carries live gauges and is only
//! parsed for the cache counters).

use crate::trace::Tracer;
use crate::{
    closed_loop, hash_of, per_layer, stats, tally, trace_overhead, untraced_phase, JobOutcome,
    RunConfig, RunReport, Timed,
};
use qassert::{AssertError, AssertingCircuit, AssertionOutcome, AssertionSession};
use qassert_serve::json::{self, Value};
use qassert_serve::protocol::{outcome_records, AssertionSpec};
use qassert_serve::{client, JobSpec, Server, ServerConfig};
use qcircuit::{qasm, QuantumCircuit};
use qnoise::presets;
use qsim::{
    Backend, BackendKind, DensityMatrixBackend, HybridBackend, PrefixRegistry, ProgramCache,
    StabilizerBackend, StatevectorBackend, TrajectoryBackend,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Jobs per second this workload sustains on a 2-vCPU host; sets the job
/// count for a given `--seconds`.
const NOMINAL_JOBS_PER_S: f64 = 375.0;
/// Closed-loop client threads.
const CLIENTS: usize = 2;
/// Distinct seeded bodies per job kind.
const SEEDS_PER_KIND: usize = 4;

const GHZ3_PLUS: &str =
    "OPENQASM 2.0;\\nqreg q[4];\\nh q[0];\\ncx q[0],q[1];\\ncx q[1],q[2];\\nh q[3];\\n";
const GHZ3: &str = "OPENQASM 2.0;\\nqreg q[3];\\nh q[0];\\ncx q[0],q[1];\\ncx q[1],q[2];\\n";
const BELL: &str = "OPENQASM 2.0;\\nqreg q[2];\\nh q[0];\\ncx q[0],q[1];\\n";
const PLUS: &str = "OPENQASM 2.0;\\nqreg q[1];\\nh q[0];\\n";
const T_ISLAND: &str = "OPENQASM 2.0;\\nqreg q[6];\\nh q[0];\\ncx q[0],q[1];\\ncx q[1],q[2];\\n\
                        h q[3];\\ns q[3];\\nh q[4];\\ncx q[4],q[5];\\nt q[3];\\nh q[3];\\n";
const NOISE: &str = "\"noise\": {\"p1\": 0.001, \"p2\": 0.01, \"readout\": 0.02}";

/// The six job kinds: statevector GHZ-3 with entanglement and
/// superposition assertions, stabilizer Bell, a sequential-plan
/// superposition job, density-matrix Bell under uniform noise (the
/// Table-2 shape), a small hybrid T-island job, and a noisy trajectory
/// GHZ job.
fn job_body(kind: usize, seed: u64) -> String {
    match kind {
        0 => format!(
            "{{\"qasm\": \"{GHZ3_PLUS}\", \"seed\": {seed}, \"plan\": {{\"fixed\": 128}}, \
             \"assertions\": [{{\"kind\": \"entangled\", \"qubits\": [0, 1, 2], \"parity\": \"even\"}}, \
             {{\"kind\": \"superposition\", \"qubit\": 3, \"basis\": \"plus\"}}]}}"
        ),
        1 => format!(
            "{{\"qasm\": \"{BELL}\", \"backend\": \"stabilizer\", \"seed\": {seed}, \
             \"plan\": {{\"fixed\": 256}}, \
             \"assertions\": [{{\"kind\": \"entangled\", \"qubits\": [0, 1], \"parity\": \"even\"}}]}}"
        ),
        2 => format!(
            "{{\"qasm\": \"{PLUS}\", \"seed\": {seed}, \
             \"plan\": {{\"sequential\": {{\"alpha\": 0.05, \"min_shots\": 64, \
             \"max_shots\": 1024, \"tranche\": 64}}}}, \
             \"assertions\": [{{\"kind\": \"superposition\", \"qubit\": 0, \"basis\": \"plus\"}}]}}"
        ),
        3 => format!(
            "{{\"qasm\": \"{BELL}\", \"backend\": \"density-matrix\", \"seed\": {seed}, {NOISE}, \
             \"plan\": {{\"fixed\": 1024}}, \
             \"assertions\": [{{\"kind\": \"entangled\", \"qubits\": [0, 1], \"parity\": \"even\"}}]}}"
        ),
        4 => format!(
            "{{\"qasm\": \"{T_ISLAND}\", \"backend\": \"hybrid\", \"seed\": {seed}, \
             \"plan\": {{\"fixed\": 256}}, \
             \"assertions\": [{{\"kind\": \"entangled\", \"qubits\": [0, 1, 2], \"parity\": \"even\"}}]}}"
        ),
        _ => format!(
            "{{\"qasm\": \"{GHZ3}\", \"backend\": \"trajectory\", \"seed\": {seed}, {NOISE}, \
             \"plan\": {{\"fixed\": 64}}, \
             \"assertions\": [{{\"kind\": \"entangled\", \"qubits\": [0, 1, 2], \"parity\": \"even\"}}]}}"
        ),
    }
}

const KINDS: usize = 6;

/// The per-backend execution metric a job kind feeds.
fn exec_metric(kind: BackendKind) -> &'static str {
    match kind {
        BackendKind::Stabilizer => "qsim.exec_us.stabilizer",
        BackendKind::DensityMatrix => "qsim.exec_us.density-matrix",
        BackendKind::Hybrid => "qsim.exec_us.hybrid",
        BackendKind::Trajectory => "qsim.exec_us.trajectory",
        _ => "qsim.exec_us.statevector",
    }
}

/// The compile state a direct session shares across jobs, mirroring the
/// server's process-wide cache and prefix registry.
struct Shared {
    cache: ProgramCache,
    prefixes: Arc<PrefixRegistry>,
}

/// Runs `circuit` as the server would for `spec` (same backend, noise,
/// plan, seed and filter), optionally timing the session's lowering, run
/// and analysis as separate calls.
fn session_run<B: Backend>(
    backend: B,
    spec: &JobSpec,
    circuit: &AssertingCircuit,
    shared: &Shared,
    trace: Option<(&mut Tracer, u64)>,
) -> Result<AssertionOutcome, String> {
    let mut session = AssertionSession::new(backend)
        .cache(&shared.cache)
        .prefix_registry(Arc::clone(&shared.prefixes))
        .shot_plan(spec.plan)
        .filter_policy(spec.filter);
    if let Some(seed) = spec.seed {
        session = session.seed(seed);
    }
    if let Some(threads) = spec.threads {
        session = session.threads(threads);
    }
    let Some((tracer, job)) = trace else {
        return session.run(circuit).map_err(|e| e.to_string());
    };
    tracer
        .time("qsim.lower", job, || session.lower(circuit.circuit()))
        .map_err(|e| e.to_string())?;
    let outcome = tracer
        .time("qassert.run", job, || session.run(circuit))
        .map_err(|e| e.to_string())?;
    let raw = outcome.raw.clone();
    tracer
        .time("qassert.analyze", job, || session.analyze(raw, circuit))
        .map_err(|e| e.to_string())?;
    Ok(outcome)
}

/// Picks the backend the server would build for `spec` and runs the job
/// through [`session_run`].
fn direct_run(
    spec: &JobSpec,
    circuit: &AssertingCircuit,
    shared: &Shared,
    trace: Option<(&mut Tracer, u64)>,
) -> Result<AssertionOutcome, String> {
    let n = circuit.circuit().num_qubits();
    let noise = match spec.noise {
        None => None,
        Some((p1, p2, readout)) => {
            Some(presets::uniform(n, p1, p2, readout).map_err(|e| e.to_string())?)
        }
    };
    match (spec.backend, noise) {
        (BackendKind::Statevector, _) => {
            session_run(StatevectorBackend::new(), spec, circuit, shared, trace)
        }
        (BackendKind::Trajectory, noise) => {
            let noise = match noise {
                Some(noise) => noise,
                None => presets::uniform(n, 0.0, 0.0, 0.0).map_err(|e| e.to_string())?,
            };
            session_run(TrajectoryBackend::new(noise), spec, circuit, shared, trace)
        }
        (BackendKind::DensityMatrix, Some(noise)) => session_run(
            DensityMatrixBackend::new(noise),
            spec,
            circuit,
            shared,
            trace,
        ),
        (BackendKind::DensityMatrix, None) => {
            session_run(DensityMatrixBackend::ideal(), spec, circuit, shared, trace)
        }
        (BackendKind::Stabilizer, Some(noise)) => {
            session_run(StabilizerBackend::new(noise), spec, circuit, shared, trace)
        }
        (BackendKind::Stabilizer, None) => {
            session_run(StabilizerBackend::ideal(), spec, circuit, shared, trace)
        }
        (BackendKind::Hybrid, Some(noise)) => {
            session_run(HybridBackend::new(noise), spec, circuit, shared, trace)
        }
        (BackendKind::Hybrid, None) => {
            session_run(HybridBackend::ideal(), spec, circuit, shared, trace)
        }
        (other, _) => Err(format!("no direct path for backend {other:?}")),
    }
}

fn render(outcome: &AssertionOutcome, circuit: &AssertingCircuit) -> Vec<String> {
    outcome_records(outcome, circuit.records())
        .iter()
        .map(Value::render)
        .collect()
}

/// The instrumentation half of `JobSpec::build_circuit` (its other half
/// is the QASM parse), replayed through the public instrumentation API so
/// the two halves are timed separately.
fn instrument(spec: &JobSpec, base: QuantumCircuit) -> Result<AssertingCircuit, AssertError> {
    let mut circuit = AssertingCircuit::new(base);
    for assertion in &spec.assertions {
        match assertion {
            AssertionSpec::Classical { qubits, expected } => {
                circuit.assert_classical(qubits.iter().copied(), expected.iter().copied())
            }
            AssertionSpec::Entangled { qubits, parity } => {
                circuit.assert_entangled(qubits.iter().copied(), *parity)
            }
            AssertionSpec::Superposition { qubit, basis } => {
                circuit.assert_superposition(*qubit, *basis)
            }
        }?;
    }
    if spec.measure_data {
        circuit.measure_data();
    }
    Ok(circuit)
}

/// One distinct job body and the records a correct server returns for it.
struct Body {
    json: String,
    backend: BackendKind,
    expected: Vec<String>,
    shots: u64,
}

/// Everything the timed phase needs: the running server, the distinct
/// bodies with their direct-run records, and the fixed job sequence.
struct State {
    server: Server,
    bodies: Vec<Body>,
    sequence: Vec<usize>,
    shared: Shared,
    /// Set-up checks that failed (reported as failures of the run).
    problems: Vec<String>,
}

fn setup(seed: u64, jobs: usize) -> State {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5e7e_0001);
    let shared = Shared {
        cache: ProgramCache::new(512),
        prefixes: Arc::new(PrefixRegistry::new()),
    };
    let bodies: Vec<Body> = (0..KINDS * SEEDS_PER_KIND)
        .map(|i| {
            let json = job_body(i % KINDS, rng.gen::<u64>() >> 16);
            let spec = JobSpec::from_json(&json).expect("benchmark job parses");
            let circuit = spec.build_circuit().expect("benchmark job builds");
            let outcome =
                direct_run(&spec, &circuit, &shared, None).expect("benchmark job runs directly");
            Body {
                expected: render(&outcome, &circuit),
                shots: outcome.plan.shots_used,
                backend: spec.backend,
                json,
            }
        })
        .collect();
    let sequence = (0..jobs)
        .map(|_| (rng.gen::<u64>() % bodies.len() as u64) as usize)
        .collect();
    let server = Server::start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        ..ServerConfig::default()
    })
    .expect("server starts on loopback");
    // One warm-up job per kind lowers every distinct circuit into the
    // server's cache (seeds do not enter the cache key).
    let problems = bodies[..KINDS]
        .iter()
        .filter_map(|body| wire_job(server.addr(), body, None).0.err())
        .map(|why| format!("warm-up job: {why}"))
        .collect();
    State {
        server,
        bodies,
        sequence,
        shared,
        problems,
    }
}

/// Posts one job and checks its records against the direct run; with a
/// tracer, counts the cache activity its telemetry trailer reports.
fn wire_job(
    addr: SocketAddr,
    body: &Body,
    tracer: Option<&mut Tracer>,
) -> (Result<(), String>, u64) {
    let response = match client::post_job(addr, "qbench", &body.json) {
        Ok(response) => response,
        Err(e) => return (Err(format!("request failed: {e}")), 0),
    };
    if response.status != 200 {
        return (
            Err(format!("status {}: {}", response.status, response.body)),
            0,
        );
    }
    let mut lines = response.ndjson_lines();
    let telemetry = match lines.pop() {
        Some(last) if last.contains("\"type\":\"telemetry\"") => last,
        _ => return (Err("response has no telemetry trailer".to_string()), 0),
    };
    if let Some(tracer) = tracer {
        let parsed = json::parse(telemetry).unwrap_or(Value::Null);
        let field = |name: &str| parsed.get(name).and_then(Value::as_u64).unwrap_or(0);
        tracer.count("qsim.cache.hits", field("cache_hits"));
        tracer.count("qsim.cache.misses", field("cache_misses"));
        tracer.count("qsim.prefix.hits", field("prefix_hits"));
    }
    let digest = hash_of(&lines);
    if lines != body.expected {
        return (
            Err(format!(
                "records differ from the direct run\n  wire:   {lines:?}\n  direct: {:?}",
                body.expected
            )),
            digest,
        );
    }
    (Ok(()), digest)
}

/// Runs the fixed job sequence through the wire from [`CLIENTS`] closed
/// loops. With tracers (one per client), trailers are counted.
fn wire_phase(state: &State, tracers: Option<&[Mutex<Tracer>]>) -> Timed {
    let addr = state.server.addr();
    closed_loop(state.sequence.len(), CLIENTS, |client, i| {
        let body = &state.bodies[state.sequence[i]];
        let (check, digest) = match tracers {
            None => wire_job(addr, body, None),
            Some(tracers) => {
                let mut tracer = tracers[client].lock().expect("tracer lock");
                wire_job(addr, body, Some(&mut tracer))
            }
        };
        JobOutcome {
            shots: body.shots,
            check,
            digest,
        }
    })
}

/// Runs the workload: end-to-end metrics, or per-layer metrics when
/// `cfg.trace` is set.
pub fn run(cfg: &RunConfig) -> RunReport {
    let jobs = cfg.job_count(NOMINAL_JOBS_PER_S);
    let (mut report, untraced, state) = untraced_phase(
        cfg,
        || setup(cfg.seed, jobs),
        |state| wire_phase(state, None),
        |state, report| report.fail_setup(&state.problems),
    );
    let Some(state) = state else {
        return report;
    };

    let origin = Instant::now();
    let tracers: Vec<Mutex<Tracer>> = (0..CLIENTS)
        .map(|_| Mutex::new(Tracer::new(origin)))
        .collect();
    let traced = wire_phase(&state, Some(&tracers));
    let traced_report = tally(&traced);
    report.attempted += traced_report.attempted;
    let unlisted = traced_report.failed - traced_report.failures.len() as u64;
    for why in traced_report.failures {
        report.fail(format!("traced {why}"));
    }
    report.failed += unlisted;
    let mut tracer = Tracer::new(origin);
    for slot in tracers {
        tracer.absorb(slot.into_inner().expect("tracer lock"));
    }

    // In-process replay of every traced job: the same spec through the
    // protocol parser, QASM parser, instrumentation, a session sharing a
    // warm cache, and the renderer — each call its own span. Each replay
    // is preceded by a connect probe to the now idle server, timed on its
    // own: inside a wire job it would add an empty connection to the
    // server's work and its own handshake to the job's latency.
    let mut inproc_ms = Vec::with_capacity(state.sequence.len());
    let mut exec_us: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for (i, &b) in state.sequence.iter().enumerate() {
        let job = i as u64;
        let body = &state.bodies[b];
        tracer.time("serve.connect", job, || {
            drop(TcpStream::connect(state.server.addr()))
        });
        let root = tracer.begin("job", job);
        let spec = tracer
            .time("serve.protocol.parse", job, || {
                JobSpec::from_json(&body.json)
            })
            .expect("benchmark job parses");
        let base = tracer
            .time("qcircuit.qasm.parse", job, || qasm::from_qasm(&spec.qasm))
            .expect("benchmark QASM parses");
        let circuit = tracer
            .time("qassert.instrument", job, || instrument(&spec, base))
            .expect("benchmark job instruments");
        let outcome = direct_run(&spec, &circuit, &state.shared, Some((&mut tracer, job)));
        let lines = outcome
            .as_ref()
            .map(|o| tracer.time("serve.protocol.render", job, || render(o, &circuit)));
        tracer.end(root);
        match lines {
            Ok(lines) if lines == body.expected => {}
            Ok(_) => report.fail(format!("replay {i}: records differ from set-up run")),
            Err(why) => report.fail(format!("replay {i}: {why}")),
        }
        let span_us = |name: &str| {
            tracer
                .spans()
                .iter()
                .rev()
                .find(|s| s.name == name && s.job == job)
                .map_or(0.0, |s| (s.end - s.start) as f64 / 1e3)
        };
        let run = span_us("qassert.run");
        exec_us
            .entry(exec_metric(body.backend))
            .or_default()
            .push(run - span_us("qsim.lower") - span_us("qassert.analyze"));
        let pipeline_us: f64 = [
            "serve.protocol.parse",
            "qcircuit.qasm.parse",
            "qassert.instrument",
            "serve.protocol.render",
        ]
        .iter()
        .map(|name| span_us(name))
        .sum();
        inproc_ms.push((pipeline_us + run) / 1e3);
    }

    let wire_ms: Vec<f64> = traced.job_ms.clone();
    let waits: Vec<f64> = wire_ms
        .iter()
        .zip(&inproc_ms)
        .map(|(wire, inproc)| wire - inproc)
        .collect();
    let connects: Vec<f64> = tracer
        .self_times("serve.connect")
        .iter()
        .map(|&ns| ns as f64 / 1e6)
        .collect();
    let n = state.sequence.len();
    let mut values: BTreeMap<&'static str, (f64, usize)> = BTreeMap::new();
    values.insert("serve.wait_ms_p50", (stats::median(&waits), n));
    values.insert("serve.connect_ms_p50", (stats::median(&connects), n));
    values.insert(
        "serve.protocol.parse_us",
        (tracer.mean_us("serve.protocol.parse"), n),
    );
    values.insert(
        "qcircuit.qasm.parse_us",
        (tracer.mean_us("qcircuit.qasm.parse"), n),
    );
    values.insert(
        "qassert.instrument_us",
        (tracer.mean_us("qassert.instrument"), n),
    );
    values.insert(
        "serve.protocol.render_us",
        (tracer.mean_us("serve.protocol.render"), n),
    );
    for (name, samples) in &exec_us {
        values.insert(name, (stats::mean(samples), samples.len()));
    }
    values.insert("qsim.lower_us", (tracer.mean_us("qsim.lower"), n));
    let lowerings = tracer.counter("qsim.cache.hits") + tracer.counter("qsim.cache.misses");
    values.insert(
        "qsim.cache.hit_share",
        (tracer.share("qsim.cache.hits", lowerings), n),
    );
    values.insert(
        "qsim.prefix.hit_share",
        (tracer.share("qsim.prefix.hits", lowerings), n),
    );
    values.insert("qassert.analyze_us", (tracer.mean_us("qassert.analyze"), n));
    values.insert("trace.coverage", (tracer.coverage("job"), n));
    values.insert(
        "trace.overhead",
        (trace_overhead(&untraced.job_ms, &wire_ms), n),
    );
    report.metrics = per_layer(&values);
    report.notes.push(format!(
        "in-process p50 {:.4} ms of wire p50 {:.4} ms",
        stats::median(&inproc_ms),
        stats::median(&wire_ms)
    ));
    report
}
