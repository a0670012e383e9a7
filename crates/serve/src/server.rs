//! The server: listener, connection workers, job workers, shared
//! session infrastructure, and graceful shutdown.
//!
//! # Threading model
//!
//! ```text
//! accept thread ──> connection channel ──> conn workers (parse, route,
//!  (blocks in                               admission, write response)
//!   accept())                                     │ submit
//!      ^                                          v
//!      │                                    JobQueue (bounded, fair)
//!      │                                          │ pop
//!      │                                          v
//!  shutdown flag +                     job workers (AssertionSession
//!  loopback wake                       over the shared cache/registry/
//!                                      shard pool, panics caught)
//!                                      ──result channel──> the
//!                                      submitting conn worker
//! ```
//!
//! Every thread blocks until it has work: the accept thread in
//! `accept()`, connection workers on the connection channel, their own
//! socket and the job result channel, job workers on the queue. No
//! thread polls, so an idle server costs nothing and a request waits
//! for no tick. Execution capacity is `job_workers` sessions;
//! everything beyond that waits in the queue, and everything beyond
//! the queue bound is rejected with a typed 429 **before** any compile
//! or shot work. A job that panics is answered with a 500 `internal`
//! error; its worker lives on and the gauges stay correct.
//!
//! # Graceful shutdown
//!
//! [`Server::shutdown`] (also triggered by dropping the server):
//! 1. the shutdown flag is set and one loopback connect wakes the
//!    blocked accept; the accept thread sees the flag and exits,
//! 2. connection workers finish the requests they already accepted —
//!    responses for queued jobs complete because job workers are still
//!    running — then exit as the connection channel drains,
//! 3. the queue closes: late submissions get 503, admitted jobs are
//!    drained to completion,
//! 4. job workers exit on the drained queue; every thread is joined.

use crate::http::{self, Request, RequestError};
use crate::json::{obj, Value};
use crate::protocol::{
    outcome_records, queue_full_error, shutting_down_error, telemetry_record, ApiError, JobSpec,
};
use crate::queue::{JobQueue, SubmitError};
use qassert::{AssertingCircuit, AssertionSession, SessionTelemetry};
use qnoise::presets;
use qsim::PrefixRegistry;
use qsim::{
    Backend, BackendKind, DensityMatrixBackend, HybridBackend, ProgramCache, ShardPool,
    StabilizerBackend, StatevectorBackend, TrajectoryBackend,
};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

/// How long the accept thread backs off after a failed `accept()`
/// (for example `EMFILE`), so fd exhaustion cannot spin it.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(5);

/// Bound on the shutdown wake's loopback connect.
const WAKE_TIMEOUT: Duration = Duration::from_secs(1);

/// Server sizing and limits.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port (tests, benches).
    pub addr: String,
    /// Threads executing jobs (concurrent `AssertionSession`s).
    pub job_workers: usize,
    /// Threads parsing/answering connections. Must exceed
    /// `job_workers` a little so queue-full rejections are answered
    /// while every job worker is busy.
    pub conn_workers: usize,
    /// Bound on queued (admitted, not yet executing) jobs.
    pub queue_capacity: usize,
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
            queue_capacity: 64,
            max_body_bytes: 1 << 20,
            cache_capacity: 512,
        }
    }
}

/// One admitted job: the parsed spec, the instrumented circuit, and
/// the channel its results flow back on.
struct Job {
    spec: JobSpec,
    circuit: AssertingCircuit,
    results: mpsc::Sender<Result<Vec<String>, ApiError>>,
}

/// State shared by every worker thread.
struct ServeState {
    cache: ProgramCache,
    prefixes: Arc<PrefixRegistry>,
    queue: JobQueue<Job>,
    max_body_bytes: usize,
    /// Jobs currently executing on a job worker (gauge).
    jobs_running: AtomicUsize,
    /// Jobs completed (success, execution failure or panic) since start.
    jobs_done: AtomicU64,
    /// Submissions rejected by admission control (429) since start.
    jobs_rejected: AtomicU64,
}

/// Counts one job as running for as long as it is alive: dropping it,
/// on return or unwind, moves the job from running to done.
struct Running<'s>(&'s ServeState);

impl<'s> Running<'s> {
    fn start(state: &'s ServeState) -> Self {
        state.jobs_running.fetch_add(1, Ordering::SeqCst);
        Running(state)
    }
}

impl Drop for Running<'_> {
    fn drop(&mut self) {
        self.0.jobs_running.fetch_sub(1, Ordering::SeqCst);
        self.0.jobs_done.fetch_add(1, Ordering::Relaxed);
    }
}

impl ServeState {
    /// The `/healthz` body: liveness plus the load gauges an external
    /// admission controller or autoscaler needs.
    fn health_body(&self) -> String {
        let pool = ShardPool::global_gauges();
        obj([
            ("status", Value::from("ok")),
            ("queue_depth", Value::from(self.queue.depth())),
            ("queue_capacity", Value::from(self.queue.capacity())),
            (
                "jobs_running",
                Value::from(self.jobs_running.load(Ordering::Relaxed)),
            ),
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
            ("queue_capacity", Value::from(self.queue.capacity())),
            (
                "jobs_running",
                Value::from(self.jobs_running.load(Ordering::Relaxed)),
            ),
            (
                "jobs_done",
                Value::from(self.jobs_done.load(Ordering::Relaxed)),
            ),
            (
                "jobs_rejected",
                Value::from(self.jobs_rejected.load(Ordering::Relaxed)),
            ),
            ("cache_hits", Value::from(cache.hits)),
            ("cache_misses", Value::from(cache.misses)),
            ("prefix_hits", Value::from(self.prefixes.hits())),
            ("pool_workers", Value::from(pool.workers)),
            ("pool_queue_depth", Value::from(pool.queue_depth)),
        ])
        .render()
    }
}

/// A running assertion server. Obtain with [`Server::start`]; stop
/// with [`Server::shutdown`] (or by dropping it).
pub struct Server {
    addr: SocketAddr,
    state: Arc<ServeState>,
    shutdown: Arc<AtomicBool>,
    accept_handle: Option<std::thread::JoinHandle<()>>,
    conn_handles: Vec<std::thread::JoinHandle<()>>,
    job_handles: Vec<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Binds the listener and spawns the worker threads.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn start(config: ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;

        let state = Arc::new(ServeState {
            cache: ProgramCache::new(config.cache_capacity.max(1)),
            prefixes: Arc::new(PrefixRegistry::new()),
            queue: JobQueue::new(config.queue_capacity),
            max_body_bytes: config.max_body_bytes,
            jobs_running: AtomicUsize::new(0),
            jobs_done: AtomicU64::new(0),
            jobs_rejected: AtomicU64::new(0),
        });
        let shutdown = Arc::new(AtomicBool::new(false));

        // Connections flow accept loop -> channel -> conn workers; the
        // receiver is shared behind a mutex (a multi-consumer channel
        // out of std's single-consumer one).
        let (conn_tx, conn_rx) = mpsc::channel::<TcpStream>();
        let conn_rx = Arc::new(Mutex::new(conn_rx));

        let mut conn_handles = Vec::new();
        for i in 0..config.conn_workers.max(1) {
            let state = Arc::clone(&state);
            let conn_rx = Arc::clone(&conn_rx);
            conn_handles.push(
                std::thread::Builder::new()
                    .name(format!("serve-conn-{i}"))
                    .spawn(move || loop {
                        let next = conn_rx.lock().expect("conn channel lock").recv();
                        match next {
                            Ok(stream) => handle_connection(&state, stream),
                            Err(_) => return, // accept loop gone: drain done
                        }
                    })
                    .expect("spawn conn worker"),
            );
        }

        let mut job_handles = Vec::new();
        for i in 0..config.job_workers.max(1) {
            let state = Arc::clone(&state);
            job_handles.push(
                std::thread::Builder::new()
                    .name(format!("serve-job-{i}"))
                    .spawn(move || {
                        while let Some(job) = state.queue.pop() {
                            let result = {
                                let _running = Running::start(&state);
                                catch_unwind(AssertUnwindSafe(|| {
                                    execute(&state, &job.spec, &job.circuit)
                                }))
                                .unwrap_or_else(|payload| Err(panicked(payload.as_ref())))
                            };
                            // The conn worker may have gone away (client
                            // hangup); the job's work is done either way.
                            let _ = job.results.send(result);
                        }
                    })
                    .expect("spawn job worker"),
            );
        }

        let accept_shutdown = Arc::clone(&shutdown);
        let accept_handle = std::thread::Builder::new()
            .name("serve-accept".to_string())
            .spawn(move || {
                // Blocks in accept(); shutdown_in_place wakes it with a
                // loopback connect after setting the flag.
                while !accept_shutdown.load(Ordering::Acquire) {
                    match listener.accept() {
                        Ok((stream, _)) => {
                            if conn_tx.send(stream).is_err() {
                                return; // workers gone; nothing to serve
                            }
                        }
                        Err(_) => std::thread::sleep(ACCEPT_BACKOFF),
                    }
                }
                // conn_tx drops here, letting conn workers drain out.
            })
            .expect("spawn accept loop");

        Ok(Server {
            addr,
            state,
            shutdown,
            accept_handle: Some(accept_handle),
            conn_handles,
            job_handles,
        })
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
        self.shutdown.store(true, Ordering::Release);
        if let Some(handle) = self.accept_handle.take() {
            // Wake the blocked accept(). The woken thread sees the flag
            // and exits; the wake connection reaches a conn worker as an
            // empty request and is dropped. A failed connect means the
            // accept thread is not blocked (it has exited, or a backlog
            // or back-off will bring it back to the flag).
            let _ = TcpStream::connect_timeout(&wake_addr(self.addr), WAKE_TIMEOUT);
            let _ = handle.join();
        }
        // Conn workers exit once the (now sender-less) channel drains;
        // their queued jobs still execute because job workers are
        // alive until the queue closes *and* drains below.
        for handle in self.conn_handles.drain(..) {
            let _ = handle.join();
        }
        self.state.queue.close();
        for handle in self.job_handles.drain(..) {
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
fn handle_connection(state: &Arc<ServeState>, mut stream: TcpStream) {
    let request = match http::read_request(&stream, state.max_body_bytes) {
        Ok(request) => request,
        Err(RequestError::Closed) => return,
        Err(RequestError::Malformed(reason)) => {
            let err = ApiError::bad_request("malformed_request", reason);
            let _ = http::write_response(
                &mut stream,
                err.status,
                "application/json",
                err.body().as_bytes(),
            );
            return;
        }
        Err(RequestError::BodyTooLarge { announced, limit }) => {
            let err = ApiError {
                status: 413,
                code: "body_too_large",
                message: format!("body of {announced} bytes exceeds the {limit}-byte limit"),
                details: vec![("limit", Value::from(limit))],
            };
            let _ = http::write_response(
                &mut stream,
                err.status,
                "application/json",
                err.body().as_bytes(),
            );
            return;
        }
        Err(RequestError::Io(_)) => return,
    };

    match (request.method.as_str(), request.path.as_str()) {
        ("POST", "/v1/jobs") => handle_job(state, stream, &request),
        ("GET", "/healthz") => {
            let _ = http::write_response(
                &mut stream,
                200,
                "application/json",
                state.health_body().as_bytes(),
            );
        }
        ("GET", "/metrics") => {
            let _ = http::write_response(
                &mut stream,
                200,
                "application/json",
                state.metrics_body().as_bytes(),
            );
        }
        (_, "/v1/jobs" | "/healthz" | "/metrics") => {
            let err = ApiError {
                status: 405,
                code: "method_not_allowed",
                message: format!("method {} not allowed here", request.method),
                details: Vec::new(),
            };
            let _ = http::write_response(
                &mut stream,
                err.status,
                "application/json",
                err.body().as_bytes(),
            );
        }
        (_, path) => {
            let err = ApiError {
                status: 404,
                code: "not_found",
                message: format!("no route for '{path}'"),
                details: Vec::new(),
            };
            let _ = http::write_response(
                &mut stream,
                err.status,
                "application/json",
                err.body().as_bytes(),
            );
        }
    }
}

/// Parses, admits, and streams one job submission.
fn handle_job(state: &Arc<ServeState>, mut stream: TcpStream, request: &Request) {
    let answer = |stream: &mut TcpStream, err: ApiError| {
        let _ = http::write_response(
            stream,
            err.status,
            "application/json",
            err.body().as_bytes(),
        );
    };

    let body = match std::str::from_utf8(&request.body) {
        Ok(body) => body,
        Err(_) => {
            answer(
                &mut stream,
                ApiError::bad_request("invalid_json", "body is not valid UTF-8"),
            );
            return;
        }
    };
    let spec = match JobSpec::from_json(body) {
        Ok(spec) => spec,
        Err(err) => {
            answer(&mut stream, err);
            return;
        }
    };
    // Parse the QASM and instrument the assertions *before* admission:
    // a malformed job must cost a 400, never a queue slot.
    let circuit = match spec.build_circuit() {
        Ok(circuit) => circuit,
        Err(err) => {
            answer(&mut stream, err);
            return;
        }
    };

    let tenant = request.header("x-api-token").unwrap_or("anonymous");
    let (results_tx, results_rx) = mpsc::channel();
    let job = Job {
        spec,
        circuit,
        results: results_tx,
    };
    match state.queue.submit(tenant, job) {
        Err(SubmitError::Full { capacity }) => {
            state.jobs_rejected.fetch_add(1, Ordering::Relaxed);
            answer(&mut stream, queue_full_error(capacity));
            return;
        }
        Err(SubmitError::Closed) => {
            answer(&mut stream, shutting_down_error());
            return;
        }
        Ok(()) => {}
    }

    // The job is admitted; the status line depends on whether execution
    // succeeds, so wait for the result before writing anything.
    match results_rx.recv() {
        Ok(Ok(lines)) => {
            let _ = http::write_ndjson(&mut stream, &lines);
        }
        Ok(Err(err)) => answer(&mut stream, err),
        Err(_) => {
            // The job was dropped unanswered. Job workers catch panics
            // in execution, so this is strictly a belt-and-braces path.
            answer(
                &mut stream,
                ApiError {
                    status: 500,
                    code: "internal",
                    message: "job worker failed".to_string(),
                    details: Vec::new(),
                },
            );
        }
    }
}

/// Executes one admitted job on the requested backend through a
/// session sharing the server-wide cache and prefix registry, and
/// renders the full NDJSON record stream (telemetry trailer included).
fn execute(
    state: &ServeState,
    spec: &JobSpec,
    circuit: &AssertingCircuit,
) -> Result<Vec<String>, ApiError> {
    let n = circuit.circuit().num_qubits();
    let noise = match spec.noise {
        None => None,
        Some((p1, p2, readout)) => Some(
            presets::uniform(n, p1, p2, readout)
                .map_err(|e| ApiError::bad_request("invalid_noise", e.to_string()))?,
        ),
    };
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
    let mut session = AssertionSession::new(backend)
        .cache(&state.cache)
        .prefix_registry(Arc::clone(&state.prefixes))
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
