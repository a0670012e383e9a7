//! `qassert-serve`: an assertion service frontend over the session
//! layer.
//!
//! The server accepts OpenQASM 2.0 circuits plus assertion
//! specifications over HTTP, executes them through shared
//! [`AssertionSession`](qassert::AssertionSession) infrastructure (one
//! process-wide [`ProgramCache`](qsim::ProgramCache), prefix registry,
//! and [`ShardPool`](qsim::ShardPool) across all tenants), and streams
//! verdicts back as NDJSON. Everything is `std`-only: a hand-rolled
//! HTTP/1.1 subset on blocking sockets and a connection thread pool —
//! no async runtime.
//!
//! # Wire protocol
//!
//! Every connection carries exactly one request (`Connection: close`
//! semantics). Request bodies use `Content-Length`. Job results use
//! `Transfer-Encoding: chunked` with one chunk per NDJSON record; the
//! server sends the whole response in one write once the job has
//! finished, because its status line depends on the outcome.
//!
//! ## Endpoints
//!
//! | Method | Path        | Purpose                                        |
//! |--------|-------------|------------------------------------------------|
//! | POST   | `/v1/jobs`  | Submit a job; streams NDJSON results           |
//! | GET    | `/healthz`  | Liveness + load gauges (queue depth, running)  |
//! | GET    | `/metrics`  | Lifetime counters + cache/pool statistics      |
//!
//! Tenancy: the `x-api-token` request header names the tenant for fair
//! queueing; absent, the job lands in the shared `anonymous` lane.
//!
//! ## Job document (`POST /v1/jobs` body, JSON)
//!
//! ```json
//! {
//!   "qasm": "OPENQASM 2.0; ... (required)",
//!   "backend": "statevector | trajectory | density-matrix | stabilizer",
//!   "plan": {"fixed": 1024},
//!   "seed": 7,
//!   "threads": 2,
//!   "filter": "require-kept | allow-empty",
//!   "noise": {"p1": 0.001, "p2": 0.01, "readout": 0.02},
//!   "measure_data": true,
//!   "assertions": [
//!     {"kind": "classical", "qubits": [0, 1], "expected": [false, false]},
//!     {"kind": "entangled", "qubits": [0, 1], "parity": "even"},
//!     {"kind": "superposition", "qubit": 0, "basis": "plus"}
//!   ]
//! }
//! ```
//!
//! Only `qasm` is required. The sequential plan form is
//! `{"sequential": {"alpha": 0.05, "min_shots": 64, "max_shots": 1024,
//! "tranche": 128}}` (each field optional). Per-job shot budgets are
//! capped at [`protocol::MAX_JOB_SHOTS`]; larger plans are rejected at
//! parse time with `budget_too_large`.
//!
//! ## NDJSON result stream (200 response)
//!
//! Records arrive in a fixed order, one JSON object per line, object
//! keys sorted — byte-identical responses for byte-identical outcomes:
//!
//! 1. one `{"type": "verdict", ...}` record **per assertion**, in
//!    instrumentation order: assertion index, kind, error rate, fired
//!    count, sequential verdict (`holds`/`violated`/`undecided`) and
//!    e-value logs;
//! 2. one `{"type": "counts", ...}` record: raw/kept/data histograms
//!    keyed by bitstring, shots recorded/kept, aggregate assertion
//!    error rate;
//! 3. one `{"type": "plan", ...}` record: the
//!    [`PlanTrace`](qassert::PlanTrace) — shots used, tranches, stop
//!    reason (`fixed`/`decided`/`budget`);
//! 4. one `{"type": "telemetry", ...}` trailer: the session's
//!    [`SessionTelemetry`](qassert::SessionTelemetry) (cache and
//!    prefix hits, pool counters, SIMD backend) plus server gauges.
//!
//! ## Errors and backpressure
//!
//! Failures are single JSON objects (`{"error", "message", ...}`):
//!
//! | Status | `error`             | Meaning                                     |
//! |--------|---------------------|---------------------------------------------|
//! | 400    | `invalid_json` etc. | Body unparseable / bad field                |
//! | 400    | `invalid_qasm`      | QASM rejected; `line`/`col` locate it       |
//! | 404/405| —                   | Unknown route / wrong method                |
//! | 413    | `body_too_large`    | Body exceeds the configured limit           |
//! | 422    | `execution_failed`  | Well-formed job the backend cannot run      |
//! | 429    | `queue_full`        | Admission control: job was **not** executed |
//! | 500    | `internal`          | Job panicked; `message` has the panic text  |
//! | 503    | `shutting_down`     | Server draining; retry elsewhere            |
//!
//! A 429 is decided before compilation or execution — rejection under
//! overload costs the server one queue-depth check. Graceful shutdown
//! (SIGTERM) drains admitted jobs before exit, so an admitted job's
//! response is never cut short by shutdown.

pub mod client;
pub mod http;
pub mod json;
pub mod protocol;
pub mod queue;
pub mod server;

pub use client::{get, post_job, request, HttpResponse};
pub use json::Value;
pub use protocol::{ApiError, JobSpec};
pub use queue::{JobQueue, SubmitError};
pub use server::{Server, ServerConfig};
