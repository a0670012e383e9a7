//! The repository benchmark: three workloads that each route their work
//! to a different layer of the assertion suite, measured end to end with
//! tracing off, and layer by layer in a separate traced run.
//!
//! * [`serve_mix`] — HTTP jobs through `qassert-serve`, closed loop from
//!   two clients.
//! * [`hybrid_island`] — `AssertionSession::run` on the hybrid backend
//!   over a Clifford-dominated family with a late T island.
//! * [`nisq_sweep`] — `AssertionSession::run_sweep` under noise with a
//!   sequential shot plan, one fresh circuit family per job.
//!
//! Every run executes a fixed job sequence generated from the workload
//! seed (its length is `--seconds` times a per-workload nominal rate), so
//! count-type results repeat exactly for one seed. Every job's output is
//! checked; see `README.md` for the metric definitions.

pub mod hybrid_island;
pub mod nisq_sweep;
pub mod serve_mix;
pub mod stats;
pub mod trace;

use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// HTTP load on an in-process `qassert-serve`.
    ServeMix,
    /// Direct session runs on the hybrid Clifford-routing backend.
    HybridIsland,
    /// Direct noisy session sweeps with sequential shot plans.
    NisqSweep,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 3] = [
        Workload::ServeMix,
        Workload::HybridIsland,
        Workload::NisqSweep,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeMix => "serve_mix",
            Workload::HybridIsland => "hybrid_island",
            Workload::NisqSweep => "nisq_sweep",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Cold set-ups timed before the timed phase, and again after it (so the
/// set-up samples see the host at two moments); `setup_s` is the median
/// of all of them.
pub const SETUPS: usize = 5;

/// How one run is sized and what it measures.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// Workload seed; every input is generated from it.
    pub seed: u64,
    /// Nominal length of the timed phase; sets the job count.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
}

impl RunConfig {
    /// The configuration for `seconds` of timed work.
    pub fn new(seed: u64, seconds: f64, trace: bool) -> Self {
        RunConfig {
            seed,
            seconds,
            trace,
        }
    }

    /// Jobs in the run's fixed sequence: `seconds × nominal_rate`, at
    /// least one. A traced run runs its jobs twice (untraced, then traced
    /// with layer replays that cost about one and a half jobs more), so
    /// it runs a quarter as many and takes about as long as an untraced
    /// run.
    pub fn job_count(&self, nominal_rate: f64) -> usize {
        let full = ((self.seconds * nominal_rate).ceil() as usize).max(1);
        if self.trace {
            full.div_ceil(4)
        } else {
            full
        }
    }
}

/// One reported metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Samples the value was computed from.
    pub samples: usize,
}

/// The result of one run.
#[derive(Debug)]
pub struct RunReport {
    /// Jobs attempted in the timed (or traced) phase.
    pub attempted: u64,
    /// Jobs that errored, answered non-200, or failed an output check,
    /// plus failed end-of-run checks.
    pub failed: u64,
    /// The first few failure messages.
    pub failures: Vec<String>,
    /// End-to-end metrics (untraced) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Extra report lines (unbounded tails, designed-verdict tallies).
    pub notes: Vec<String>,
    /// Hash of every job's checked output, in job order: equal for equal
    /// seeds, different for different seeds.
    pub digest: u64,
}

impl RunReport {
    /// Whether every job and every end-of-run check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The value of metric `name`, if reported.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The final result line: exactly `correct`, `attempted`, `failed`
    /// and `metrics` (name → value and unit).
    pub fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A JSON number with every digit Rust's shortest round-trip formatting
/// gives; non-finite values (which JSON cannot carry) become `null`.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// Runs `workload` under `cfg`.
pub fn run(workload: Workload, cfg: &RunConfig) -> RunReport {
    match workload {
        Workload::ServeMix => serve_mix::run(cfg),
        Workload::HybridIsland => hybrid_island::run(cfg),
        Workload::NisqSweep => nisq_sweep::run(cfg),
    }
}

/// Per-layer metrics every traced run reports, with units. A workload
/// that never calls a layer reports 0 for it.
pub const PER_LAYER: [(&str, &str); 26] = [
    ("serve.wait_ms_p50", "ms"),
    ("serve.connect_ms_p50", "ms"),
    ("serve.protocol.parse_us", "us"),
    ("qcircuit.qasm.parse_us", "us"),
    ("qassert.instrument_us", "us"),
    ("serve.protocol.render_us", "us"),
    ("qsim.exec_us.statevector", "us"),
    ("qsim.exec_us.stabilizer", "us"),
    ("qsim.exec_us.density-matrix", "us"),
    ("qsim.exec_us.hybrid", "us"),
    ("qsim.exec_us.trajectory", "us"),
    ("qsim.lower_us", "us"),
    ("qsim.cache.hit_share", "share"),
    ("qsim.prefix.hit_share", "share"),
    ("qsim.stabilizer.prefix_us", "us"),
    ("qsim.hybrid.extract_us", "us"),
    ("qsim.hybrid.distinct_cut_share", "share"),
    ("qsim.exec.suffix_us", "us"),
    ("qsim.exec.shot_us", "us"),
    ("qassert.plan.tranches_per_point", "count"),
    ("qassert.plan.early_stop_share", "share"),
    ("qsim.pool.speedup", "x"),
    ("qsim.pool.steals", "count"),
    ("qassert.analyze_us", "us"),
    ("trace.coverage", "share"),
    ("trace.overhead", "share"),
];

/// Per-layer metrics whose values are counts or ratios of counts, so a
/// run repeats them exactly for one seed (`qsim.pool.steals` depends on
/// scheduling and is left out).
pub const COUNT_METRICS: [&str; 5] = [
    "qsim.cache.hit_share",
    "qsim.prefix.hit_share",
    "qsim.hybrid.distinct_cut_share",
    "qassert.plan.tranches_per_point",
    "qassert.plan.early_stop_share",
];

/// Expands a workload's measured per-layer values to the full
/// [`PER_LAYER`] list.
pub fn per_layer(values: &BTreeMap<&'static str, (f64, usize)>) -> Vec<Metric> {
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let (value, samples) = values.get(name).copied().unwrap_or((0.0, 0));
            Metric {
                name,
                value,
                unit,
                samples,
            }
        })
        .collect()
}

/// What one job produced, as the benchmark checked it.
#[derive(Debug)]
pub struct JobOutcome {
    /// Shots the job executed.
    pub shots: u64,
    /// `Err` with a reason when the job failed or its output was wrong.
    pub check: Result<(), String>,
    /// Hash of the checked output.
    pub digest: u64,
}

/// A timed closed-loop phase.
#[derive(Debug)]
pub struct Timed {
    /// Wall time of the whole phase, seconds.
    pub wall_s: f64,
    /// Per-job latency in milliseconds, by job index.
    pub job_ms: Vec<f64>,
    /// Per-job outcome, by job index.
    pub outcomes: Vec<JobOutcome>,
}

/// Runs jobs `0..n` in a closed loop from `clients` callers, each taking
/// the next job only after its previous one returned, and times every
/// job. `job(client, index)` runs one job.
pub fn closed_loop<F>(n: usize, clients: usize, job: F) -> Timed
where
    F: Fn(usize, usize) -> JobOutcome + Sync,
{
    let next = AtomicUsize::new(0);
    let results: Mutex<Vec<(usize, f64, JobOutcome)>> = Mutex::new(Vec::with_capacity(n));
    let client_loop = |client: usize| {
        let mut mine = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                break;
            }
            let t0 = Instant::now();
            let outcome = job(client, i);
            mine.push((i, t0.elapsed().as_secs_f64() * 1e3, outcome));
        }
        results.lock().expect("result lock").extend(mine);
    };
    let started = Instant::now();
    if clients <= 1 {
        client_loop(0);
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..clients)
                .map(|c| {
                    let client_loop = &client_loop;
                    scope.spawn(move || client_loop(c))
                })
                .collect();
            for handle in handles {
                handle.join().expect("client thread");
            }
        });
    }
    let wall_s = started.elapsed().as_secs_f64();
    let mut results = results.into_inner().expect("result lock");
    results.sort_by_key(|(i, _, _)| *i);
    let (job_ms, outcomes) = results.into_iter().map(|(_, ms, o)| (ms, o)).unzip();
    Timed {
        wall_s,
        job_ms,
        outcomes,
    }
}

/// Runs `setup` [`SETUPS`] times from cold, timing each, and keeps the
/// last state (earlier ones are dropped before the next set-up starts,
/// and their drop is not timed).
fn timed_setups<S>(setup: &impl Fn() -> S) -> (S, Vec<f64>) {
    let mut secs = Vec::with_capacity(SETUPS);
    let mut state = None;
    for _ in 0..SETUPS {
        drop(state.take());
        let t0 = Instant::now();
        state = Some(setup());
        secs.push(t0.elapsed().as_secs_f64());
    }
    (state.expect("at least one set-up"), secs)
}

/// The untraced phase every run starts with: [`SETUPS`] timed cold
/// set-ups, then `phase` (the fixed job sequence in a closed loop) on the
/// last set-up's state, tallied; `checks` adds the state's failed set-up
/// and end-of-run checks to the tally. Without tracing, the state is
/// dropped, [`SETUPS`] more set-ups are timed and the end-to-end metrics
/// filled in; with tracing, the state is returned for the traced pass.
pub fn untraced_phase<S>(
    cfg: &RunConfig,
    setup: impl Fn() -> S,
    phase: impl FnOnce(&S) -> Timed,
    checks: impl FnOnce(&S, &mut RunReport),
) -> (RunReport, Timed, Option<S>) {
    let (state, mut setup_secs) = timed_setups(&setup);
    let timed = phase(&state);
    let mut report = tally(&timed);
    checks(&state, &mut report);
    if cfg.trace {
        return (report, timed, Some(state));
    }
    drop(state);
    setup_secs.extend(timed_setups(&setup).1);
    end_to_end(&mut report, &timed, &setup_secs);
    (report, timed, None)
}

/// Hashes any hashable value with the fixed-key std hasher (stable
/// within one build, which is all the digest comparison needs).
pub fn hash_of<T: Hash + ?Sized>(value: &T) -> u64 {
    let mut h = DefaultHasher::new();
    value.hash(&mut h);
    h.finish()
}

/// Tallies a phase's outcomes into a report skeleton: attempted, failed,
/// the first failure messages, and the order-sensitive digest.
fn tally(timed: &Timed) -> RunReport {
    let mut report = RunReport {
        attempted: timed.outcomes.len() as u64,
        failed: 0,
        failures: Vec::new(),
        metrics: Vec::new(),
        notes: Vec::new(),
        digest: 0xcbf2_9ce4_8422_2325,
    };
    for (i, outcome) in timed.outcomes.iter().enumerate() {
        report.digest = (report.digest ^ outcome.digest).wrapping_mul(0x0100_0000_01b3);
        if let Err(why) = &outcome.check {
            report.fail(format!("job {i}: {why}"));
        }
    }
    report
}

impl RunReport {
    /// Counts one failure and keeps its message if it is among the first
    /// few.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < 5 {
            self.failures.push(why);
        }
    }

    /// Counts every failed set-up check as a failure.
    pub fn fail_setup(&mut self, problems: &[String]) {
        for why in problems {
            self.fail(format!("set-up: {why}"));
        }
    }
}

/// The end-to-end metrics of an untraced phase, plus note lines for the
/// tail percentiles with their counts of samples beyond; p90 and p99 are
/// printed without a bound.
fn end_to_end(report: &mut RunReport, timed: &Timed, setup_secs: &[f64]) {
    let n = timed.job_ms.len();
    let shots: Vec<f64> = timed.outcomes.iter().map(|o| o.shots as f64).collect();
    report.metrics = vec![
        Metric {
            name: "jobs_per_s",
            value: n as f64 / timed.wall_s,
            unit: "jobs/s",
            samples: n,
        },
        Metric {
            name: "job_ms_p50",
            value: stats::percentile(&timed.job_ms, 0.5),
            unit: "ms",
            samples: n,
        },
        Metric {
            name: "job_ms_p75",
            value: stats::percentile(&timed.job_ms, 0.75),
            unit: "ms",
            samples: n,
        },
        Metric {
            name: "shots_per_job",
            value: stats::mean(&shots),
            unit: "shots",
            samples: n,
        },
        Metric {
            name: "setup_s",
            value: stats::median(setup_secs),
            unit: "s",
            samples: setup_secs.len(),
        },
        Metric {
            name: "peak_rss_mb",
            value: peak_rss_mb(),
            unit: "MiB",
            samples: 1,
        },
    ];
    for p in [0.75, 0.9, 0.99] {
        let beyond = stats::beyond(n, p);
        let rule = if stats::tail_is_supported(n, p) {
            ""
        } else {
            "; fewer than 10 beyond, so not a supported tail"
        };
        report.notes.push(format!(
            "job_ms_p{:<2} {:>12.4} ms      (n={n}, {beyond} beyond{rule}{})",
            (p * 100.0).round(),
            stats::percentile(&timed.job_ms, p),
            if p > 0.75 { "; no bound" } else { "" }
        ));
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Where a result came from: core count, SIMD backend, CPU model, seed
/// and commit — so results from different hosts are never compared
/// unnoticed.
pub fn provenance(seed: u64) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, model)| model.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    format!(
        "provenance nproc={nproc} simd={} cpu=\"{cpu}\" seed={seed} commit={}",
        qsim::simd::active_backend().name(),
        commit()
    )
}

/// Cumulative (steal, total) CPU ticks of the whole machine from
/// `/proc/stat`: the share of CPU time the hypervisor gave to other
/// guests, which slows every timing on a shared host.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .take(8)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    Some((*fields.get(7)?, fields.iter().sum()))
}

/// The checked-out commit, read from `.git` in the working directory
/// (`unknown` when the checkout is not a git work tree).
fn commit() -> String {
    let read = |path: &str| std::fs::read_to_string(path).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(sha) = read(&format!(".git/{reference}")) {
        return sha.trim().to_string();
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|sha| sha.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The trace's own cost: how much slower the traced pass ran its jobs
/// than an untraced pass over the same jobs. A closed loop with a fixed
/// client count completes jobs at a rate inversely proportional to mean
/// latency, so this is also the relative loss in `jobs_per_s`.
pub fn trace_overhead(untraced_job_ms: &[f64], traced_job_ms: &[f64]) -> f64 {
    stats::mean(traced_job_ms) / stats::mean(untraced_job_ms) - 1.0
}
