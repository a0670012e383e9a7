//! The `qassert-serve` binary: parse flags, start the server, wait
//! for SIGTERM/SIGINT, drain gracefully.

use qassert_serve::{Server, ServerConfig};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// Set from the signal handler; polled by the main loop.
static STOP: AtomicBool = AtomicBool::new(false);

const SIGINT: i32 = 2;
const SIGTERM: i32 = 15;

extern "C" fn on_signal(_signum: i32) {
    // Only an atomic store: async-signal-safe.
    STOP.store(true, Ordering::Release);
}

fn install_signal_handlers() {
    // std exposes no signal API; registering a handler needs one libc
    // call, declared here to keep the crate dependency-free.
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    unsafe {
        signal(SIGTERM, on_signal as *const () as usize);
        signal(SIGINT, on_signal as *const () as usize);
    }
}

const HELP: &str = "\
qassert-serve: assertion service over the qassert session layer

Accepts OpenQASM 2.0 jobs with assertion specs over HTTP and streams
per-assertion verdicts, counts, the shot-plan trace, and session
telemetry back as NDJSON. See the qassert-serve crate docs for the
wire protocol.

USAGE:
    qassert-serve [OPTIONS]

OPTIONS:
    --addr <HOST:PORT>      Bind address [default: 127.0.0.1:7177]
                            (port 0 picks an ephemeral port)
    --job-workers <N>       Jobs executing at once (concurrent assertion
                            sessions); further admitted jobs wait for a
                            turn [default: min(cores, 4)]
    --conn-workers <N>      Threads serving connections, each one request
                            at a time from accept to last byte, its job
                            included [default: 2*cores within 4..=16]
    --queue-capacity <N>    Admission bound on jobs waiting for a turn;
                            beyond it submissions get a typed 429
                            [default: 64]
    --max-body-bytes <N>    Request body limit (413 beyond it)
                            [default: 1048576]
    --cache-capacity <N>    Shared compiled-program cache entries
                            [default: 512]
    -h, --help              Print this help

ENDPOINTS:
    POST /v1/jobs    submit a job (JSON body, x-api-token header
                     selects the fair-queue tenant lane)
    GET  /healthz    liveness + queue/pool gauges
    GET  /metrics    lifetime counters + cache statistics

SHUTDOWN:
    SIGTERM or SIGINT stops accepting connections, drains admitted
    jobs to completion, then exits.
";

fn fail(message: &str) -> ! {
    eprintln!("error: {message}\n\nRun with --help for usage.");
    std::process::exit(2);
}

fn parse_config(args: &[String]) -> ServerConfig {
    let mut config = ServerConfig::default();
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        if flag == "-h" || flag == "--help" {
            print!("{HELP}");
            std::process::exit(0);
        }
        let Some(value) = iter.next() else {
            fail(&format!("flag '{flag}' needs a value"));
        };
        let parse_usize = |value: &str| -> usize {
            value
                .parse()
                .unwrap_or_else(|_| fail(&format!("'{value}' is not a count")))
        };
        match flag.as_str() {
            "--addr" => config.addr = value.clone(),
            "--job-workers" => config.job_workers = parse_usize(value).max(1),
            "--conn-workers" => config.conn_workers = parse_usize(value).max(1),
            "--queue-capacity" => config.queue_capacity = parse_usize(value).max(1),
            "--max-body-bytes" => config.max_body_bytes = parse_usize(value).max(1024),
            "--cache-capacity" => config.cache_capacity = parse_usize(value).max(1),
            other => fail(&format!("unknown flag '{other}'")),
        }
    }
    config
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let config = parse_config(&args);
    install_signal_handlers();

    let server = match Server::start(config.clone()) {
        Ok(server) => server,
        Err(e) => fail(&format!("cannot bind {}: {e}", config.addr)),
    };
    eprintln!(
        "qassert-serve listening on {} (conn workers {}, job turns {}, queue {})",
        server.addr(),
        config.conn_workers,
        config.job_workers,
        config.queue_capacity
    );

    while !STOP.load(Ordering::Acquire) {
        std::thread::sleep(Duration::from_millis(50));
    }
    eprintln!("qassert-serve: signal received, draining in-flight jobs");
    server.shutdown();
    eprintln!("qassert-serve: drained, bye");
}
