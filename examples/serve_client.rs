//! Serving assertions over HTTP: an in-process `qassert-serve` server
//! on an ephemeral loopback port, and an instrumented GHZ job
//! submitted through the wire protocol.
//!
//! ```text
//! cargo run --example serve_client
//! ```
//!
//! Starts the server, POSTs a seeded GHZ job (entanglement +
//! superposition assertions) to `/v1/jobs`, prints every streamed
//! NDJSON record as it is decoded, and then verifies the verdict,
//! counts, and plan records are **bit-identical** to the same job
//! executed directly through [`AssertionSession`] — the service
//! frontend adds transport, never a different answer. Exits 3 on any
//! divergence, which lets this example double as a smoke check.

use qassert_serve::json::Value;
use qassert_serve::protocol::outcome_records;
use qassert_serve::{client, JobSpec, Server, ServerConfig};
use qassert_suite::prelude::*;

const JOB: &str =
    "{\"qasm\": \"OPENQASM 2.0;\\nqreg q[3];\\nh q[0];\\ncx q[0],q[1];\\ncx q[1],q[2];\\n\", \
                   \"seed\": 7, \"plan\": {\"fixed\": 512}, \
                   \"assertions\": [ \
                     {\"kind\": \"entangled\", \"qubits\": [0, 1, 2], \"parity\": \"even\"}, \
                     {\"kind\": \"superposition\", \"qubit\": 0} ]}";

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // An ephemeral port keeps the example runnable anywhere (CI, a
    // laptop already running a real server on the default port).
    let server = Server::start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        job_workers: 2,
        conn_workers: 4,
        queue_capacity: 8,
        ..ServerConfig::default()
    })?;
    println!("server listening on http://{}", server.addr());

    println!("\nPOST /v1/jobs  (x-api-token: example-tenant)");
    let response = client::post_job(server.addr(), "example-tenant", JOB)?;
    println!("  -> {} ({})\n", response.status, {
        response.header("content-type").unwrap_or("?").to_string()
    });
    if response.status != 200 {
        eprintln!("job rejected: {}", response.body);
        std::process::exit(3);
    }
    for line in response.ndjson_lines() {
        println!("  {line}");
    }

    let health = client::get(server.addr(), "/healthz")?;
    println!("\nGET /healthz\n  {}", health.body);
    server.shutdown();
    println!("\nserver drained and stopped");

    // The parity check: the wire records must match a direct session
    // run of the same spec byte for byte (telemetry trailer excluded —
    // it carries live server gauges).
    let wire: Vec<&str> = response
        .ndjson_lines()
        .into_iter()
        .filter(|l| !l.contains("\"type\":\"telemetry\""))
        .collect();
    let spec = JobSpec::from_json(JOB).map_err(|e| e.message.clone())?;
    let circuit = spec.build_circuit().map_err(|e| e.message.clone())?;
    let session = AssertionSession::new(StatevectorBackend::new())
        .seed(7)
        .shot_plan(spec.plan);
    let outcome = session.run(&circuit)?;
    let direct: Vec<String> = outcome_records(&outcome, circuit.records())
        .iter()
        .map(Value::render)
        .collect();
    if wire != direct {
        eprintln!("DIVERGENCE: wire records differ from the direct session");
        eprintln!("  wire:   {wire:?}");
        eprintln!("  direct: {direct:?}");
        std::process::exit(3);
    }
    println!(
        "wire records are bit-identical to the direct session — serving adds transport, not noise"
    );
    Ok(())
}
