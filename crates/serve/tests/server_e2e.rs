//! End-to-end tests: a real server on an ephemeral port, real sockets,
//! the crate's own blocking client.

use qassert::AssertionSession;
use qassert_serve::http::{MAX_HEAD_BYTES, READ_TIMEOUT};
use qassert_serve::json::Value;
use qassert_serve::protocol::outcome_records;
use qassert_serve::{client, JobSpec, Server, ServerConfig};
use qnoise::presets;
use qsim::{
    Backend, DensityMatrixBackend, HybridBackend, StabilizerBackend, StatevectorBackend,
    TrajectoryBackend,
};
use std::io::{Read, Write};
use std::net::{Ipv4Addr, SocketAddr, TcpStream};
use std::sync::mpsc;
use std::time::{Duration, Instant};

const GHZ_QASM: &str = "OPENQASM 2.0;\\nqreg q[3];\\nh q[0];\\ncx q[0],q[1];\\ncx q[1],q[2];\\n";

fn test_config() -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        job_workers: 2,
        conn_workers: 8,
        max_body_bytes: 64 * 1024,
        cache_capacity: 64,
    }
}

fn ghz_job(extra: &str) -> String {
    format!(
        "{{\"qasm\": \"{GHZ_QASM}\", \"seed\": 7, \"plan\": {{\"fixed\": 512}}, \
         \"assertions\": [ \
           {{\"kind\": \"entangled\", \"qubits\": [0, 1, 2], \"parity\": \"even\"}}, \
           {{\"kind\": \"superposition\", \"qubit\": 0}} ]{extra}}}"
    )
}

/// Polls `/metrics` until `pred` on the parsed body holds (or panics
/// after `deadline`).
fn wait_for_metrics(addr: SocketAddr, deadline: Duration, pred: impl Fn(&Value) -> bool) -> Value {
    let start = Instant::now();
    let mut last = String::new();
    loop {
        if let Ok(response) = client::get(addr, "/metrics") {
            let metrics = qassert_serve::json::parse(&response.body).expect("metrics JSON");
            if pred(&metrics) {
                return metrics;
            }
            last = metrics.render();
        }
        assert!(
            start.elapsed() < deadline,
            "metrics never reached the expected state; last seen: {last}"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

fn field(value: &Value, name: &str) -> u64 {
    value.get(name).and_then(Value::as_u64).unwrap_or_else(|| {
        panic!("metrics field {name} missing in {}", value.render());
    })
}

#[test]
fn ghz_job_streams_verdicts_bit_identical_to_direct_session() {
    let server = Server::start(test_config()).expect("start");
    let body = ghz_job("");

    let response = client::post_job(server.addr(), "tenant-a", &body).expect("post");
    assert_eq!(response.status, 200, "body: {}", response.body);
    assert_eq!(
        response.header("content-type"),
        Some("application/x-ndjson")
    );
    let wire_lines: Vec<&str> = response
        .ndjson_lines()
        .into_iter()
        .filter(|l| !l.contains("\"type\":\"telemetry\""))
        .collect();

    // The same spec executed directly through the session layer must
    // render the exact same bytes for every non-telemetry record.
    let spec = JobSpec::from_json(&body).expect("spec");
    let circuit = spec.build_circuit().expect("circuit");
    let session = AssertionSession::new(StatevectorBackend::new())
        .seed(spec.seed.expect("seed"))
        .shot_plan(spec.plan)
        .filter_policy(spec.filter);
    let outcome = session.run(&circuit).expect("direct run");
    let direct_lines: Vec<String> = outcome_records(&outcome, circuit.records())
        .iter()
        .map(Value::render)
        .collect();

    assert_eq!(wire_lines, direct_lines, "wire and direct renders differ");
    // Sanity on the stream shape: verdict records first (one per
    // assertion), then counts, then plan, then the trailer we filtered.
    assert!(wire_lines[0].contains("\"type\":\"verdict\""));
    assert!(wire_lines[0].contains("\"kind\":\"entanglement\""));
    assert!(wire_lines[1].contains("\"kind\":\"superposition\""));
    assert!(wire_lines[2].contains("\"type\":\"counts\""));
    assert!(wire_lines[3].contains("\"type\":\"plan\""));

    // Every other backend, ideal and under the job's uniform noise: the
    // wire stream equals a direct session over the backend built here.
    let n = circuit.circuit().num_qubits();
    let noise = || presets::uniform(n, 0.001, 0.01, 0.02).expect("noise");
    let noisy = ", \"noise\": {\"p1\": 0.001, \"p2\": 0.01, \"readout\": 0.02}";
    let inputs: Vec<(String, Box<dyn Backend>)> = vec![
        (
            ", \"backend\": \"trajectory\"".to_string(),
            Box::new(TrajectoryBackend::new(
                presets::uniform(n, 0.0, 0.0, 0.0).expect("zero noise"),
            )),
        ),
        (
            format!(", \"backend\": \"trajectory\"{noisy}"),
            Box::new(TrajectoryBackend::new(noise())),
        ),
        (
            ", \"backend\": \"density-matrix\"".to_string(),
            Box::new(DensityMatrixBackend::ideal()),
        ),
        (
            format!(", \"backend\": \"density-matrix\"{noisy}"),
            Box::new(DensityMatrixBackend::new(noise())),
        ),
        (
            ", \"backend\": \"stabilizer\"".to_string(),
            Box::new(StabilizerBackend::ideal()),
        ),
        (
            format!(", \"backend\": \"stabilizer\"{noisy}"),
            Box::new(StabilizerBackend::new(noise())),
        ),
        (
            ", \"backend\": \"hybrid\"".to_string(),
            Box::new(HybridBackend::ideal()),
        ),
        (
            format!(", \"backend\": \"hybrid\"{noisy}"),
            Box::new(HybridBackend::new(noise())),
        ),
    ];
    for (extra, backend) in inputs {
        let body = ghz_job(&extra);
        let response = client::post_job(server.addr(), "tenant-a", &body).expect("post");
        assert_eq!(response.status, 200, "{extra}: {}", response.body);
        let wire_lines: Vec<&str> = response
            .ndjson_lines()
            .into_iter()
            .filter(|l| !l.contains("\"type\":\"telemetry\""))
            .collect();
        let spec = JobSpec::from_json(&body).expect("spec");
        let outcome = AssertionSession::new(&*backend)
            .seed(spec.seed.expect("seed"))
            .shot_plan(spec.plan)
            .filter_policy(spec.filter)
            .run(&circuit)
            .expect("direct run");
        let direct_lines: Vec<String> = outcome_records(&outcome, circuit.records())
            .iter()
            .map(Value::render)
            .collect();
        assert_eq!(wire_lines, direct_lines, "{extra}: wire and direct differ");
    }

    server.shutdown();
}

#[test]
fn repeated_jobs_hit_the_shared_program_cache() {
    let server = Server::start(test_config()).expect("start");
    let body = ghz_job("");

    let first = client::post_job(server.addr(), "t", &body).expect("post");
    assert_eq!(first.status, 200);
    let second = client::post_job(server.addr(), "t", &body).expect("post");
    assert_eq!(second.status, 200);

    let trailer = second
        .ndjson_lines()
        .into_iter()
        .find(|l| l.contains("\"type\":\"telemetry\""))
        .expect("telemetry trailer")
        .to_string();
    let trailer = qassert_serve::json::parse(&trailer).expect("trailer JSON");
    assert!(
        field(&trailer, "cache_hits") > 0,
        "second identical job must reuse the shared compiled program: {}",
        trailer.render()
    );

    let metrics = client::get(server.addr(), "/metrics").expect("metrics");
    let metrics = qassert_serve::json::parse(&metrics.body).expect("metrics JSON");
    assert_eq!(field(&metrics, "jobs_done"), 2);
    assert!(field(&metrics, "cache_hits") > 0);

    server.shutdown();
}

#[test]
fn invalid_noise_gets_its_400_before_admission() {
    let server = Server::start(ServerConfig {
        job_workers: 1,
        ..test_config()
    })
    .expect("start");
    let addr = server.addr();

    // A slow trajectory job holds the only turn.
    let slow = format!(
        "{{\"qasm\": \"{GHZ_QASM}\", \"backend\": \"trajectory\", \
         \"noise\": {{\"p1\": 0.001, \"p2\": 0.01, \"readout\": 0.01}}, \
         \"plan\": {{\"fixed\": 4194304}}, \"seed\": 1}}"
    );
    let slow_job = std::thread::spawn(move || client::post_job(addr, "slow", &slow).expect("post"));
    wait_for_metrics(addr, Duration::from_secs(60), |m| {
        field(m, "jobs_running") == 1
    });

    // A p1 past 1 is a malformed job: its 400 comes back while the slow
    // job still holds the turn, so it never waited for one.
    let bad = ghz_job(
        ", \"backend\": \"trajectory\", \
         \"noise\": {\"p1\": 2.0, \"p2\": 0.01, \"readout\": 0.01}",
    );
    let response = client::post_job(addr, "bad", &bad).expect("post");
    assert_eq!(response.status, 400, "body: {}", response.body);
    assert!(
        response.body.contains("\"error\":\"invalid_noise\""),
        "{}",
        response.body
    );
    let metrics = client::get(addr, "/metrics").expect("metrics");
    let metrics = qassert_serve::json::parse(&metrics.body).expect("metrics JSON");
    assert_eq!(field(&metrics, "jobs_running"), 1, "{}", metrics.render());
    assert_eq!(field(&metrics, "jobs_done"), 0, "{}", metrics.render());

    let response = slow_job.join().expect("slow job thread");
    assert_eq!(response.status, 200, "body: {}", response.body);
    // Only the slow job executed.
    let metrics = wait_for_metrics(addr, Duration::from_secs(5), |m| {
        field(m, "jobs_running") == 0
    });
    assert_eq!(field(&metrics, "jobs_done"), 1, "{}", metrics.render());

    server.shutdown();
}

#[test]
fn graceful_shutdown_drains_admitted_jobs() {
    let server = Server::start(ServerConfig {
        job_workers: 1,
        ..test_config()
    })
    .expect("start");
    let addr = server.addr();

    let body = format!(
        "{{\"qasm\": \"{GHZ_QASM}\", \"backend\": \"trajectory\", \
         \"noise\": {{\"p1\": 0.001, \"p2\": 0.01, \"readout\": 0.01}}, \
         \"plan\": {{\"fixed\": 15000}}, \"seed\": 2}}"
    );
    let jobs: Vec<_> = (0..4)
        .map(|i| {
            let body = body.clone();
            let tenant = format!("tenant-{i}");
            std::thread::spawn(move || client::post_job(addr, &tenant, &body).expect("post"))
        })
        .collect();

    // All four admitted (done + running + queued accounts for them)…
    wait_for_metrics(addr, Duration::from_secs(20), |m| {
        field(m, "jobs_done") + field(m, "jobs_running") + field(m, "queue_depth") == 4
    });
    // …then shut down while most are still queued behind one worker.
    server.shutdown();

    // Every admitted job still produced a complete 200 stream.
    for job in jobs {
        let response = job.join().expect("job thread");
        assert_eq!(response.status, 200, "body: {}", response.body);
        let lines = response.ndjson_lines();
        assert!(
            lines.iter().any(|l| l.contains("\"type\":\"counts\"")),
            "stream incomplete: {lines:?}"
        );
        assert!(
            lines
                .last()
                .expect("lines")
                .contains("\"type\":\"telemetry\""),
            "missing trailer: {lines:?}"
        );
    }

    // The listener is gone: new connections fail outright.
    assert!(client::get(addr, "/healthz").is_err());
}

#[test]
fn wire_errors_carry_typed_bodies() {
    let server = Server::start(test_config()).expect("start");
    let addr = server.addr();

    // Malformed QASM: 400 with the parse span in the details.
    let bad_qasm = "{\"qasm\": \"OPENQASM 2.0;\\nqreg q[1];\\nfrobnicate q[0];\\n\"}";
    let response = client::post_job(addr, "t", bad_qasm).expect("post");
    assert_eq!(response.status, 400);
    assert!(
        response.body.contains("\"error\":\"invalid_qasm\""),
        "{}",
        response.body
    );
    assert!(response.body.contains("\"line\":3"), "{}", response.body);
    assert!(response.body.contains("\"col\":1"), "{}", response.body);

    // Non-JSON body.
    let response = client::post_job(addr, "t", "this is not json").expect("post");
    assert_eq!(response.status, 400);
    assert!(
        response.body.contains("\"error\":\"invalid_json\""),
        "{}",
        response.body
    );

    // A well-formed job the backend cannot run: 422, not 400.
    let non_clifford =
        "{\"qasm\": \"OPENQASM 2.0;\\nqreg q[2];\\nh q[0];\\nrz(0.3) q[0];\\ncx q[0],q[1];\\n\", \
         \"backend\": \"stabilizer\", \"plan\": {\"fixed\": 64}}";
    let response = client::post_job(addr, "t", non_clifford).expect("post");
    assert_eq!(response.status, 422, "body: {}", response.body);
    assert!(
        response.body.contains("\"error\":\"execution_failed\""),
        "{}",
        response.body
    );

    // Unknown route and wrong method.
    let response = client::get(addr, "/v2/nope").expect("get");
    assert_eq!(response.status, 404);
    let response = client::get(addr, "/v1/jobs").expect("get");
    assert_eq!(response.status, 405);

    // Oversized body: rejected by the announced length, 413.
    let huge = format!("{{\"qasm\": \"{}\"}}", "x".repeat(128 * 1024));
    let response = client::post_job(addr, "t", &huge).expect("post");
    assert_eq!(response.status, 413);
    assert!(
        response.body.contains("\"error\":\"body_too_large\""),
        "{}",
        response.body
    );

    server.shutdown();
}

#[test]
fn overflowing_register_declarations_get_400_and_the_server_keeps_answering() {
    // Parsing runs on the connection workers, and there are only two,
    // so two jobs that panicked the parser would leave none to answer.
    let server = Server::start(ServerConfig {
        conn_workers: 2,
        ..test_config()
    })
    .expect("start");
    let addr = server.addr();
    let hostile =
        "{\"qasm\": \"OPENQASM 2.0;\\nqreg a[18446744073709551615];\\nqreg b[1];\\nh b[0];\\n\"}";
    for _ in 0..2 {
        let response = client::post_job(addr, "t", hostile).expect("post");
        assert_eq!(response.status, 400, "body: {}", response.body);
        assert!(
            response.body.contains("\"error\":\"invalid_qasm\""),
            "{}",
            response.body
        );
        assert!(response.body.contains("\"line\":2"), "{}", response.body);
    }
    let response = client::get(addr, "/healthz").expect("healthz");
    assert_eq!(response.status, 200, "body: {}", response.body);
    server.shutdown();
}

#[test]
fn health_reports_liveness_and_gauges() {
    let server = Server::start(test_config()).expect("start");
    let response = client::get(server.addr(), "/healthz").expect("healthz");
    assert_eq!(response.status, 200);
    let health = qassert_serve::json::parse(&response.body).expect("health JSON");
    assert_eq!(health.get("status").and_then(Value::as_str), Some("ok"));
    assert_eq!(field(&health, "queue_depth"), 0);
    server.shutdown();
}

#[test]
fn panicking_jobs_get_500_and_the_worker_survives() {
    // One job worker: if a panic killed it, the GHZ job below would
    // never run.
    let server = Server::start(ServerConfig {
        job_workers: 1,
        ..test_config()
    })
    .expect("start");
    let addr = server.addr();

    // A 40-qubit statevector job trips the amplitude-buffer assert.
    let too_wide = "{\"qasm\": \"OPENQASM 2.0;\\nqreg q[40];\\nh q[0];\\n\", \
                    \"plan\": {\"fixed\": 16}}";
    for _ in 0..2 {
        let response = client::post_job(addr, "t", too_wide).expect("post");
        assert_eq!(response.status, 500, "body: {}", response.body);
        assert!(
            response.body.contains("\"error\":\"internal\""),
            "{}",
            response.body
        );
        assert!(
            response.body.contains("job panicked: "),
            "{}",
            response.body
        );
    }

    // The surviving worker still returns records bit-identical to a
    // direct session run.
    let body = ghz_job("");
    let response = client::post_job(addr, "t", &body).expect("post");
    assert_eq!(response.status, 200, "body: {}", response.body);
    let wire_lines: Vec<&str> = response
        .ndjson_lines()
        .into_iter()
        .filter(|l| !l.contains("\"type\":\"telemetry\""))
        .collect();
    let spec = JobSpec::from_json(&body).expect("spec");
    let circuit = spec.build_circuit().expect("circuit");
    let outcome = AssertionSession::new(StatevectorBackend::new())
        .seed(spec.seed.expect("seed"))
        .shot_plan(spec.plan)
        .filter_policy(spec.filter)
        .run(&circuit)
        .expect("direct run");
    let direct_lines: Vec<String> = outcome_records(&outcome, circuit.records())
        .iter()
        .map(Value::render)
        .collect();
    assert_eq!(wire_lines, direct_lines, "wire and direct renders differ");

    let metrics = client::get(addr, "/metrics").expect("metrics");
    let metrics = qassert_serve::json::parse(&metrics.body).expect("metrics JSON");
    assert_eq!(field(&metrics, "jobs_running"), 0, "{}", metrics.render());
    assert_eq!(field(&metrics, "jobs_done"), 3, "{}", metrics.render());
    assert_eq!(field(&metrics, "jobs_failed"), 2, "{}", metrics.render());

    server.shutdown();
}

#[test]
fn panics_while_instrumenting_get_500_and_the_worker_survives() {
    // One connection worker: instrumentation runs on it, so a panic
    // that escaped would leave nobody to answer the requests below.
    let server = Server::start(ServerConfig {
        conn_workers: 1,
        ..test_config()
    })
    .expect("start");
    let addr = server.addr();

    // Each grows a register past the u32 id range: measuring the data
    // qubits into a full classical register, and a second ancilla on a
    // full quantum register.
    let hostile = [
        "{\"qasm\": \"OPENQASM 2.0;\\nqreg q[2];\\ncreg c[4294967295];\\n\"}",
        "{\"qasm\": \"OPENQASM 2.0;\\nqreg q[4294967295];\\n\", \"measure_data\": false, \
         \"assertions\": [ \
           {\"kind\": \"entangled\", \"qubits\": [0, 1], \"parity\": \"even\"}, \
           {\"kind\": \"entangled\", \"qubits\": [2, 3], \"parity\": \"even\"} ]}",
    ];
    for body in hostile {
        let response = client::post_job(addr, "t", body).expect("post");
        assert_eq!(response.status, 500, "body: {}", response.body);
        assert!(
            response.body.contains("\"error\":\"internal\""),
            "{}",
            response.body
        );
        assert!(
            response.body.contains("job panicked: "),
            "{}",
            response.body
        );
    }

    let response = client::get(addr, "/healthz").expect("healthz");
    assert_eq!(response.status, 200, "body: {}", response.body);

    let body = ghz_job("");
    let response = client::post_job(addr, "t", &body).expect("post");
    assert_eq!(response.status, 200, "body: {}", response.body);
    let wire_lines: Vec<&str> = response
        .ndjson_lines()
        .into_iter()
        .filter(|l| !l.contains("\"type\":\"telemetry\""))
        .collect();
    let spec = JobSpec::from_json(&body).expect("spec");
    let circuit = spec.build_circuit().expect("circuit");
    let outcome = AssertionSession::new(StatevectorBackend::new())
        .seed(spec.seed.expect("seed"))
        .shot_plan(spec.plan)
        .filter_policy(spec.filter)
        .run(&circuit)
        .expect("direct run");
    let direct_lines: Vec<String> = outcome_records(&outcome, circuit.records())
        .iter()
        .map(Value::render)
        .collect();
    assert_eq!(wire_lines, direct_lines, "wire and direct renders differ");

    let metrics = client::get(addr, "/metrics").expect("metrics");
    let metrics = qassert_serve::json::parse(&metrics.body).expect("metrics JSON");
    assert_eq!(field(&metrics, "jobs_failed"), 2, "{}", metrics.render());

    server.shutdown();
}

#[test]
fn healthz_round_trips_wait_for_no_accept_tick() {
    let server = Server::start(test_config()).expect("start");
    let mut round_trips: Vec<Duration> = (0..50)
        .map(|_| {
            let start = Instant::now();
            let response = client::get(server.addr(), "/healthz").expect("healthz");
            assert_eq!(response.status, 200);
            start.elapsed()
        })
        .collect();
    round_trips.sort();
    let median = round_trips[round_trips.len() / 2];
    assert!(
        median < Duration::from_millis(2),
        "median /healthz round trip {median:?}: accepts are waiting on a timer"
    );
    server.shutdown();
}

#[test]
fn idle_server_shuts_down_promptly() {
    for addr in ["127.0.0.1:0", "0.0.0.0:0"] {
        let server = Server::start(ServerConfig {
            addr: addr.to_string(),
            ..test_config()
        })
        .expect("start");
        // One loopback round trip: once it is answered, the accept
        // thread has handed the connection on and gone back to its
        // blocking accept().
        let loopback = SocketAddr::from((Ipv4Addr::LOCALHOST, server.addr().port()));
        let response = client::get(loopback, "/healthz").expect("healthz");
        assert_eq!(response.status, 200);
        // Shut down on a helper thread, so a missed wake fails the test
        // instead of hanging the suite.
        let (done_tx, done_rx) = mpsc::channel();
        let shutdown = std::thread::spawn(move || {
            server.shutdown();
            let _ = done_tx.send(());
        });
        assert!(
            done_rx.recv_timeout(Duration::from_secs(2)).is_ok(),
            "shutdown of an idle server bound to {addr} did not return within 2 s"
        );
        shutdown.join().expect("shutdown thread");
    }
}

#[test]
fn deeply_nested_json_gets_400_and_the_server_keeps_answering() {
    let server = Server::start(test_config()).expect("start");
    let addr = server.addr();
    let response = client::post_job(addr, "t", &"[".repeat(50_000)).expect("post");
    assert_eq!(response.status, 400, "body: {}", response.body);
    assert!(
        response.body.contains("\"error\":\"invalid_json\""),
        "{}",
        response.body
    );
    let response = client::get(addr, "/healthz").expect("healthz");
    assert_eq!(response.status, 200, "body: {}", response.body);
    server.shutdown();
}

#[test]
fn newline_free_request_heads_stop_at_the_head_bound() {
    let server = Server::start(test_config()).expect("start");
    let addr = server.addr();
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(READ_TIMEOUT))
        .expect("read timeout");
    let start = Instant::now();
    // The server stops reading at its bound, so the write may fail.
    let _ = stream.write_all(&vec![b'a'; 4 * MAX_HEAD_BYTES as usize]);
    let mut response = Vec::new();
    let _ = stream.read_to_end(&mut response);
    let elapsed = start.elapsed();
    let response = String::from_utf8_lossy(&response);
    assert!(
        elapsed < READ_TIMEOUT / 5,
        "an unbounded head held the connection for {elapsed:?}"
    );
    // A 400, or a bare close when unread bytes reset the connection
    // before the response arrives.
    assert!(
        response.is_empty()
            || (response.starts_with("HTTP/1.1 400 ")
                && response.contains("\"error\":\"malformed_request\"")),
        "{response}"
    );
    let response = client::get(addr, "/healthz").expect("healthz");
    assert_eq!(response.status, 200, "body: {}", response.body);
    server.shutdown();
}
