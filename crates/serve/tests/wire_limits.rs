//! Wire limits end to end, on a real server bound to an ephemeral port:
//! `threads` past [`MAX_JOB_THREADS`] is a 400 before admission, and a
//! seed past 2^53 runs exactly the seed it names, so its records equal a
//! direct session's under that seed.

use qassert::AssertionSession;
use qassert_serve::json::{self, Value};
use qassert_serve::protocol::{outcome_records, MAX_JOB_THREADS};
use qassert_serve::{client, JobSpec, Server, ServerConfig};
use qsim::StatevectorBackend;

fn config() -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        job_workers: 1,
        conn_workers: 4,
        max_body_bytes: 64 * 1024,
        cache_capacity: 16,
    }
}

fn ghz_job(extra: &str) -> String {
    format!(
        "{{\"qasm\": \"OPENQASM 2.0;\\nqreg q[3];\\nh q[0];\\ncx q[0],q[1];\\ncx q[1],q[2];\\n\", \
         \"plan\": {{\"fixed\": 1024}}, \
         \"assertions\": [{{\"kind\": \"superposition\", \"qubit\": 1}}]{extra}}}"
    )
}

fn metrics(server: &Server) -> Value {
    let response = client::get(server.addr(), "/metrics").expect("metrics");
    json::parse(&response.body).expect("metrics JSON")
}

#[test]
fn threads_past_the_ceiling_get_400_before_admission() {
    let server = Server::start(config()).expect("start");
    let body = ghz_job(&format!(", \"threads\": {}", MAX_JOB_THREADS + 1));
    let response = client::post_job(server.addr(), "t", &body).expect("post");
    assert_eq!(response.status, 400, "body: {}", response.body);
    assert!(
        response.body.contains("\"error\":\"invalid_job\"")
            && response
                .body
                .contains(&format!("from 1 to {MAX_JOB_THREADS}")),
        "{}",
        response.body
    );
    // Rejected at parse time: no job ran.
    let after = metrics(&server);
    assert_eq!(after.get("jobs_done").and_then(Value::as_u64), Some(0));

    // The ceiling itself runs.
    let body = ghz_job(&format!(", \"threads\": {MAX_JOB_THREADS}"));
    let response = client::post_job(server.addr(), "t", &body).expect("post");
    assert_eq!(response.status, 200, "body: {}", response.body);
    server.shutdown();
}

#[test]
fn seeds_past_2_pow_53_run_exactly_on_the_wire() {
    let server = Server::start(config()).expect("start");
    for seed in [(1u64 << 53) + 1, u64::MAX] {
        let body = ghz_job(&format!(", \"seed\": {seed}"));
        let response = client::post_job(server.addr(), "t", &body).expect("post");
        assert_eq!(response.status, 200, "body: {}", response.body);
        let mut wire = response.ndjson_lines();
        let trailer = json::parse(wire.pop().expect("trailer")).expect("trailer JSON");
        assert_eq!(
            trailer.get("type").and_then(Value::as_str),
            Some("telemetry")
        );
        // Job sessions run without prefix reuse.
        assert_eq!(trailer.get("prefix_hits").and_then(Value::as_u64), Some(0));

        let spec = JobSpec::from_json(&body).expect("spec");
        assert_eq!(spec.seed, Some(seed));
        let circuit = spec.build_circuit().expect("circuit");
        let outcome = AssertionSession::new(StatevectorBackend::new())
            .seed(seed)
            .shot_plan(spec.plan)
            .run(&circuit)
            .expect("direct run");
        let direct: Vec<String> = outcome_records(&outcome, circuit.records())
            .iter()
            .map(Value::render)
            .collect();
        assert_eq!(wire, direct, "seed {seed}: wire and direct renders differ");
    }
    // The server keeps no prefix registry, so `/metrics` reports none.
    assert!(metrics(&server).get("prefix_hits").is_none());
    server.shutdown();
}
