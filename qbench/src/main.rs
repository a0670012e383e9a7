//! The benchmark command.
//!
//! ```text
//! cargo run --release --offline --manifest-path qbench/Cargo.toml -- \
//!     --workload <serve_mix|hybrid_island|nisq_sweep|all> --seed <n> \
//!     --seconds <s> --trace <0|1> [--repeat <runs>]
//! ```
//!
//! Prints a human-readable report, then as its last line one JSON object
//! with exactly `correct`, `attempted`, `failed` and `metrics`: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. Exits 1 after printing if any job or check failed, and 2
//! on a usage error.
//!
//! `--workload all` runs each workload in its own process, one after
//! another. `--repeat <runs>` runs each selected workload under seeds
//! `seed..seed+runs`, each in its own process, and prints every metric's
//! median and quartile spread across the runs — the steadiness check
//! the bounds in `BENCHMARK.json` are set against.

use qassert_serve::json::{self, Value};
use qbench::{cpu_ticks, provenance, run, stats, RunConfig, Workload};
use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};

fn usage(why: &str) -> ExitCode {
    eprintln!(
        "{why}\nusage: qbench --workload <serve_mix|hybrid_island|nisq_sweep|all> \
         --seed <n> --seconds <s> --trace <0|1> [--repeat <runs>]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
    };
    let Some(workload) = value("--workload") else {
        return usage("missing --workload");
    };
    let Some(seed) = value("--seed").and_then(|s| s.parse::<u64>().ok()) else {
        return usage("missing or invalid --seed");
    };
    let Some(seconds) = value("--seconds").and_then(|s| s.parse::<f64>().ok()) else {
        return usage("missing or invalid --seconds");
    };
    let trace = match value("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        _ => return usage("--trace takes 0 or 1"),
    };
    let Some(repeat) = value("--repeat").map_or(Some(1), |r| r.parse::<u64>().ok()) else {
        return usage("--repeat takes a run count");
    };
    let selected: Vec<Workload> = match workload {
        "all" => Workload::ALL.to_vec(),
        name => match Workload::parse(name) {
            Some(w) => vec![w],
            None => return usage(&format!("unknown workload '{name}'")),
        },
    };
    if selected.len() > 1 || repeat > 1 {
        let child = Child {
            seconds,
            trace,
            repeat,
        };
        return child.run_each(&selected, seed);
    }

    let workload = selected[0];
    let cfg = RunConfig::new(seed, seconds, trace);
    println!(
        "qbench {} seed={seed} seconds={seconds} trace={}",
        workload.name(),
        u8::from(trace)
    );
    println!("{}", provenance(seed));
    let ticks_before = cpu_ticks();
    let report = run(workload, &cfg);
    if let (Some((steal0, total0)), Some((steal1, total1))) = (ticks_before, cpu_ticks()) {
        println!(
            "host steal {:.1}% of CPU time during the run",
            100.0 * (steal1 - steal0) as f64 / (total1 - total0).max(1) as f64
        );
    }
    for m in &report.metrics {
        println!(
            "{:<32} {:>14.4} {:<6} (n={})",
            m.name, m.value, m.unit, m.samples
        );
    }
    for note in &report.notes {
        println!("{note}");
    }
    for why in &report.failures {
        println!("FAILED {why}");
    }
    println!(
        "attempted {} failed {} digest {:016x}",
        report.attempted, report.failed, report.digest
    );
    println!("{}", report.json_line());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs of this executable as child processes, one per workload and
/// seed.
struct Child {
    seconds: f64,
    trace: bool,
    repeat: u64,
}

impl Child {
    fn run_each(&self, selected: &[Workload], first_seed: u64) -> ExitCode {
        let Ok(exe) = std::env::current_exe() else {
            return usage("cannot locate the benchmark executable");
        };
        let mut status = ExitCode::SUCCESS;
        for &workload in selected {
            let mut values: BTreeMap<String, Vec<f64>> = BTreeMap::new();
            for seed in first_seed..first_seed + self.repeat {
                let mut command = Command::new(&exe);
                command.args([
                    "--workload",
                    workload.name(),
                    "--seed",
                    &seed.to_string(),
                    "--seconds",
                    &self.seconds.to_string(),
                    "--trace",
                    if self.trace { "1" } else { "0" },
                ]);
                if self.repeat == 1 {
                    if !command.status().is_ok_and(|s| s.success()) {
                        status = ExitCode::FAILURE;
                    }
                    continue;
                }
                let output = command.stderr(Stdio::inherit()).output();
                let stdout = output
                    .as_ref()
                    .map(|o| String::from_utf8_lossy(&o.stdout).into_owned())
                    .unwrap_or_default();
                let result = stdout.lines().last().and_then(|l| json::parse(l).ok());
                let correct = result
                    .as_ref()
                    .and_then(|r| r.get("correct"))
                    .and_then(Value::as_bool);
                if !output.is_ok_and(|o| o.status.success()) || correct != Some(true) {
                    println!("{} seed {seed}: FAILED\n{stdout}", workload.name());
                    status = ExitCode::FAILURE;
                    continue;
                }
                let metrics = result.as_ref().and_then(|r| r.get("metrics"));
                let mut line = format!("{} seed {seed}:", workload.name());
                for (name, metric) in metrics.and_then(Value::as_obj).into_iter().flatten() {
                    if let Some(v) = metric.get("value").and_then(Value::as_num) {
                        line.push_str(&format!(" {name}={v:.5}"));
                        values.entry(name.clone()).or_default().push(v);
                    }
                }
                // The unbounded p90 and the host's steal share come from
                // the report lines, for comparison with the bounded metrics.
                for (prefix, name) in [
                    ("job_ms_p90 ", "unbounded job_ms_p90"),
                    ("host steal ", "host steal %"),
                ] {
                    let value = stdout
                        .lines()
                        .find_map(|l| l.strip_prefix(prefix))
                        .and_then(|rest| rest.split_whitespace().next())
                        .and_then(|v| v.trim_end_matches('%').parse::<f64>().ok());
                    if let Some(v) = value {
                        line.push_str(&format!(" {name}={v:.5}"));
                        values.entry(name.to_string()).or_default().push(v);
                    }
                }
                println!("{line}");
            }
            for (name, v) in &values {
                let spread = if v.len() >= 2 {
                    stats::quartile_spread(v)
                } else {
                    f64::NAN
                };
                println!(
                    "{} {name:<32} median {:>14.5} spread {spread:.4} (runs={})",
                    workload.name(),
                    stats::median(v),
                    v.len()
                );
            }
        }
        status
    }
}
