//! The server: connection workers, shared session infrastructure, and
//! graceful shutdown.
//!
//! # Threading model
//!
//! ```text
//! conn worker (× conn_workers; each blocks in accept() on its own
//!   │          listener clone and serves one connection at a time)
//!   │ read and route the request; for a job, parse the JSON and QASM,
//!   │ instrument the assertions and build the noise model (bad input:
//!   │ 400, a panic: 500; neither takes a queue slot)
//!   v
//! JobQueue::submit(tenant)
//!   │ blocks until the job's fair turn: round-robin across tenants,
//!   │ FIFO within one, at most job_workers turns held
//!   v
//! execute: a one-shot AssertionSession over the shared program cache
//!   │ and shard pool; a panic is caught and answered 500
//!   v
//! drop the turn, write the response, back to accept()
//! ```
//!
//! One thread carries each request from accept to its last byte. Every
//! thread blocks until it has work: in `accept()`, on its socket, or
//! waiting for a turn. No thread polls, so an idle server costs nothing
//! and a request waits for no tick. Execution capacity is `job_workers`
//! turns; jobs beyond that wait in the queue, each holding its
//! connection worker, so at most `conn_workers − job_workers` wait, and
//! further connections wait in the kernel's accept backlog. A job that
//! panics, while it is instrumented or while it executes, is answered
//! with a 500 `internal` error and counted in `jobs_failed`; its worker
//! lives on and the gauges stay correct.
//!
//! # Graceful shutdown
//!
//! [`Server::shutdown`] (also triggered by dropping the server):
//! 1. the shutdown flag is set,
//! 2. one loopback connect per worker wakes the blocked `accept()`s; a
//!    worker that accepts a connection after the flag is set drops it
//!    and exits,
//! 3. a worker busy with a request first finishes it, job included, so
//!    every admitted job drains to a complete response,
//! 4. every worker is joined; the last one closes the listener.

use crate::http::{self, Request, RequestError};
use crate::json::{obj, Value};
use crate::protocol::{outcome_records, telemetry_record, ApiError, JobSpec};
use crate::queue::JobQueue;
use qassert::{AssertingCircuit, AssertionSession, SessionTelemetry};
use qnoise::{presets, NoiseModel};
use qsim::{
    Backend, BackendKind, DensityMatrixBackend, HybridBackend, ProgramCache, ShardPool,
    StabilizerBackend, StatevectorBackend, TrajectoryBackend,
};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// How long a worker backs off after a failed `accept()` (for example
/// `EMFILE`), so fd exhaustion cannot spin it.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(5);

/// Bound on each shutdown wake's loopback connect.
const WAKE_TIMEOUT: Duration = Duration::from_secs(1);

/// Server sizing and limits.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port (tests, benches).
    pub addr: String,
    /// Jobs executing at once (concurrent `AssertionSession`s); further
    /// admitted jobs wait in the queue for a turn.
    pub job_workers: usize,
    /// Threads accepting and serving connections, one request at a
    /// time, its job included. Must exceed `job_workers` a little so
    /// health checks and malformed jobs are answered while every turn
    /// is held. A job waiting for a turn keeps its worker, so while
    /// every turn is held at most `conn_workers − job_workers` jobs
    /// wait; connections beyond the workers wait in the kernel's
    /// accept backlog, which the `queue_depth` gauge does not count.
    pub conn_workers: usize,
    /// Bound on request body size in bytes (413 beyond it).
    pub max_body_bytes: usize,
    /// Capacity of the shared compiled-program cache.
    pub cache_capacity: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        let cores = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        ServerConfig {
            addr: "127.0.0.1:7177".to_string(),
            job_workers: cores.clamp(1, 4),
            conn_workers: (2 * cores).clamp(4, 16),
            max_body_bytes: 1 << 20,
            cache_capacity: 512,
        }
    }
}

/// State shared by every worker thread.
struct ServeState {
    cache: ProgramCache,
    queue: JobQueue,
    max_body_bytes: usize,
    /// Set once by [`Server::shutdown`]; a worker reads it after every
    /// `accept()`.
    shutting_down: AtomicBool,
    /// Jobs completed (success, execution failure or panic) since start.
    jobs_done: AtomicU64,
    /// Jobs answered with a 500 `internal` because instrumenting or
    /// executing them panicked, since start.
    jobs_failed: AtomicU64,
}

impl ServeState {
    /// The `/healthz` body: liveness plus the load gauges an external
    /// admission controller or autoscaler needs.
    fn health_body(&self) -> String {
        let pool = ShardPool::global_gauges();
        obj([
            ("status", Value::from("ok")),
            ("queue_depth", Value::from(self.queue.depth())),
            ("jobs_running", Value::from(self.queue.running())),
            ("pool_workers", Value::from(pool.workers)),
            ("pool_queue_depth", Value::from(pool.queue_depth)),
        ])
        .render()
    }

    /// The `/metrics` body: everything in `/healthz` plus lifetime
    /// counters and shared-infrastructure statistics.
    fn metrics_body(&self) -> String {
        let pool = ShardPool::global_gauges();
        let cache = self.cache.stats();
        obj([
            ("queue_depth", Value::from(self.queue.depth())),
            ("jobs_running", Value::from(self.queue.running())),
            (
                "jobs_done",
                Value::from(self.jobs_done.load(Ordering::Relaxed)),
            ),
            (
                "jobs_failed",
                Value::from(self.jobs_failed.load(Ordering::Relaxed)),
            ),
            ("cache_hits", Value::from(cache.hits)),
            ("cache_misses", Value::from(cache.misses)),
            ("pool_workers", Value::from(pool.workers)),
            ("pool_queue_depth", Value::from(pool.queue_depth)),
        ])
        .render()
    }

    /// Runs one step of a job, answering a panic in it with a 500
    /// `internal`, counted in `jobs_failed`, instead of unwinding the
    /// worker.
    fn guarded<T>(&self, step: impl FnOnce() -> Result<T, ApiError>) -> Result<T, ApiError> {
        catch_unwind(AssertUnwindSafe(step)).unwrap_or_else(|payload| {
            self.jobs_failed.fetch_add(1, Ordering::Relaxed);
            Err(panicked(payload.as_ref()))
        })
    }
}

/// A running assertion server. Obtain with [`Server::start`]; stop
/// with [`Server::shutdown`] (or by dropping it).
pub struct Server {
    addr: SocketAddr,
    state: Arc<ServeState>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Binds the listener and spawns the `conn_workers` threads.
    ///
    /// # Errors
    ///
    /// Propagates a failure to bind, to clone the listener or to spawn
    /// a worker; workers already spawned are shut down first.
    pub fn start(config: ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let mut server = Server {
            addr: listener.local_addr()?,
            state: Arc::new(ServeState {
                cache: ProgramCache::new(config.cache_capacity.max(1)),
                queue: JobQueue::new(config.job_workers.max(1)),
                max_body_bytes: config.max_body_bytes,
                shutting_down: AtomicBool::new(false),
                jobs_done: AtomicU64::new(0),
                jobs_failed: AtomicU64::new(0),
            }),
            workers: Vec::new(),
        };
        for i in 0..config.conn_workers.max(1) {
            let listener = listener.try_clone()?;
            let state = Arc::clone(&server.state);
            server.workers.push(
                std::thread::Builder::new()
                    .name(format!("serve-conn-{i}"))
                    .spawn(move || loop {
                        let accepted = listener.accept();
                        // Pairs with the Release store in shutdown_in_place.
                        if state.shutting_down.load(Ordering::Acquire) {
                            return; // a shutdown wake, or a late client
                        }
                        match accepted {
                            Ok((stream, _)) => handle_connection(&state, stream),
                            Err(_) => std::thread::sleep(ACCEPT_BACKOFF),
                        }
                    })?,
            );
        }
        Ok(server)
    }

    /// The bound address (resolves port 0 to the ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Gracefully stops the server: no new connections, already
    /// accepted requests finish, admitted jobs drain, all threads
    /// join. Idempotent via drop (shutdown then drop is fine).
    pub fn shutdown(mut self) {
        self.shutdown_in_place();
    }

    fn shutdown_in_place(&mut self) {
        self.state.shutting_down.store(true, Ordering::Release);
        // Each connect returns one blocked accept(), or waits in the
        // backlog for a worker finishing a request; either way every
        // worker accepts once more, sees the flag and exits. A failed
        // connect leaves a worker to the next connection that arrives.
        for _ in &self.workers {
            let _ = TcpStream::connect_timeout(&wake_addr(self.addr), WAKE_TIMEOUT);
        }
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown_in_place();
    }
}

/// Where a local connect reaches a listener bound to `addr`: the
/// loopback address of the same family when bound to an unspecified
/// address (`0.0.0.0`, `::`), the bound address otherwise.
fn wake_addr(addr: SocketAddr) -> SocketAddr {
    let ip = match addr.ip() {
        IpAddr::V4(ip) if ip.is_unspecified() => IpAddr::V4(Ipv4Addr::LOCALHOST),
        IpAddr::V6(ip) if ip.is_unspecified() => IpAddr::V6(Ipv6Addr::LOCALHOST),
        ip => ip,
    };
    SocketAddr::new(ip, addr.port())
}

/// The 500 a panicking job is answered with, carrying the panic message.
fn panicked(payload: &(dyn std::any::Any + Send)) -> ApiError {
    let message = payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("non-string panic payload");
    ApiError {
        status: 500,
        code: "internal",
        message: format!("job panicked: {message}"),
        details: Vec::new(),
    }
}

/// Serves one connection: parse, route, respond, close.
fn handle_connection(state: &ServeState, mut stream: TcpStream) {
    let response = match http::read_request(&stream, state.max_body_bytes) {
        Err(RequestError::Closed | RequestError::Io(_)) => return,
        Err(RequestError::Malformed(reason)) => {
            Err(ApiError::bad_request("malformed_request", reason))
        }
        Err(RequestError::BodyTooLarge { announced, limit }) => Err(ApiError {
            status: 413,
            code: "body_too_large",
            message: format!("body of {announced} bytes exceeds the {limit}-byte limit"),
            details: vec![("limit", Value::from(limit))],
        }),
        Ok(request) => match (request.method.as_str(), request.path.as_str()) {
            ("POST", "/v1/jobs") => match handle_job(state, &request) {
                Ok(lines) => {
                    let _ = http::write_ndjson(&mut stream, &lines);
                    return;
                }
                Err(err) => Err(err),
            },
            ("GET", "/healthz") => Ok(state.health_body()),
            ("GET", "/metrics") => Ok(state.metrics_body()),
            (method, "/v1/jobs" | "/healthz" | "/metrics") => Err(ApiError {
                status: 405,
                code: "method_not_allowed",
                message: format!("method {method} not allowed here"),
                details: Vec::new(),
            }),
            (_, path) => Err(ApiError {
                status: 404,
                code: "not_found",
                message: format!("no route for '{path}'"),
                details: Vec::new(),
            }),
        },
    };
    let (status, body) = match response {
        Ok(body) => (200, body),
        Err(err) => (err.status, err.body()),
    };
    // The peer may have hung up; there is nobody left to tell.
    let _ = http::write_response(&mut stream, status, "application/json", body.as_bytes());
}

/// Parses, admits and executes one job submission, returning its
/// NDJSON records.
fn handle_job(state: &ServeState, request: &Request) -> Result<Vec<String>, ApiError> {
    let body = std::str::from_utf8(&request.body)
        .map_err(|_| ApiError::bad_request("invalid_json", "body is not valid UTF-8"))?;
    let spec = JobSpec::from_json(body)?;
    // Parse the QASM, instrument the assertions and build the noise
    // model *before* admission: a malformed job must cost a 400, never a
    // queue slot.
    let circuit = state.guarded(|| spec.build_circuit())?;
    let noise = spec
        .noise
        .map(|(p1, p2, readout)| presets::uniform(circuit.circuit().num_qubits(), p1, p2, readout))
        .transpose()
        .map_err(|e| ApiError::bad_request("invalid_noise", e.to_string()))?;

    let tenant = request.header("x-api-token").unwrap_or("anonymous");
    let turn = state.queue.submit(tenant);
    let result = state.guarded(|| execute(state, &spec, &circuit, noise));
    // Free the turn before the response is written: a slow reader must
    // not hold up the next job.
    drop(turn);
    state.jobs_done.fetch_add(1, Ordering::Relaxed);
    result
}

/// Executes one admitted job on the requested backend, under the
/// job's noise model, through a session sharing the server-wide program
/// cache, and renders the full NDJSON record stream (telemetry trailer
/// included).
fn execute(
    state: &ServeState,
    spec: &JobSpec,
    circuit: &AssertingCircuit,
    noise: Option<NoiseModel>,
) -> Result<Vec<String>, ApiError> {
    let n = circuit.circuit().num_qubits();
    let backend: Box<dyn Backend + Send + Sync> = match (spec.backend, noise) {
        (BackendKind::Statevector, _) => Box::new(StatevectorBackend::new()),
        (BackendKind::Trajectory, noise) => {
            Box::new(TrajectoryBackend::new(noise.unwrap_or_else(|| {
                presets::uniform(n, 0.0, 0.0, 0.0).expect("zero noise model")
            })))
        }
        (BackendKind::DensityMatrix, Some(noise)) => Box::new(DensityMatrixBackend::new(noise)),
        (BackendKind::DensityMatrix, None) => Box::new(DensityMatrixBackend::ideal()),
        (BackendKind::Stabilizer, Some(noise)) => Box::new(StabilizerBackend::new(noise)),
        (BackendKind::Stabilizer, None) => Box::new(StabilizerBackend::ideal()),
        (BackendKind::Hybrid, Some(noise)) => Box::new(HybridBackend::new(noise)),
        (BackendKind::Hybrid, None) => Box::new(HybridBackend::ideal()),
    };
    run_session(state, spec, circuit, &*backend)
}

/// The session leg of [`execute`]: builds the session, runs the
/// circuit, renders records. Execution failures (non-Clifford programs
/// on the stabilizer backend, every shot filtered under
/// `require-kept`, …) map to a 422 — the job was well-formed but not
/// processable as submitted.
fn run_session(
    state: &ServeState,
    spec: &JobSpec,
    circuit: &AssertingCircuit,
    backend: &dyn Backend,
) -> Result<Vec<String>, ApiError> {
    // A job is a one-shot session: it lowers one program, so prefix
    // reuse could only pay for registering it.
    let mut session = AssertionSession::new(backend)
        .cache(&state.cache)
        .prefix_reuse(false)
        .shot_plan(spec.plan)
        .filter_policy(spec.filter);
    if let Some(seed) = spec.seed {
        session = session.seed(seed);
    }
    if let Some(threads) = spec.threads {
        session = session.threads(threads);
    }
    let outcome = session.run(circuit).map_err(|e| ApiError {
        status: 422,
        code: "execution_failed",
        message: e.to_string(),
        details: Vec::new(),
    })?;
    let telemetry: SessionTelemetry = session.telemetry();
    let pool = ShardPool::global_gauges();
    let mut lines: Vec<String> = outcome_records(&outcome, circuit.records())
        .iter()
        .map(Value::render)
        .collect();
    lines.push(
        telemetry_record(
            &telemetry,
            vec![
                ("backend", Value::from(spec.backend.as_str())),
                ("queue_depth", Value::from(state.queue.depth())),
                ("pool_workers", Value::from(pool.workers)),
            ],
        )
        .render(),
    );
    Ok(lines)
}
