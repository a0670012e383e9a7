//! Self-test: a run executes a fixed job sequence generated from its
//! seed, so a small instance run twice with one seed reproduces its
//! outputs and every count-type metric exactly, and a second seed gives
//! different outputs.
//!
//! Each workload's runs happen one after another inside one test:
//! `nisq_sweep` resets the process-wide program cache, which a
//! concurrent run of the same seed would otherwise hit.

use qbench::{run, RunConfig, RunReport, Workload, COUNT_METRICS};

/// Nominal seconds of a small instance: about 113 `serve_mix`, 21
/// `hybrid_island` and 7 `nisq_sweep` jobs untraced, a quarter as many
/// traced.
const SMALL_SECONDS: f64 = 0.3;

fn small(workload: Workload, seed: u64, trace: bool) -> RunReport {
    let report = run(workload, &RunConfig::new(seed, SMALL_SECONDS, trace));
    assert!(
        report.correct(),
        "{workload:?} seed {seed} trace {trace} failed: {:?}",
        report.failures
    );
    report
}

/// The values that must repeat exactly: shots per job untraced, the
/// count-type per-layer metrics traced.
fn counts(report: &RunReport, trace: bool) -> Vec<(&'static str, f64)> {
    let names: Vec<&'static str> = if trace {
        COUNT_METRICS.to_vec()
    } else {
        vec!["shots_per_job"]
    };
    names
        .into_iter()
        .map(|name| {
            let value = report
                .metric(name)
                .unwrap_or_else(|| panic!("{name} not reported"));
            (name, value)
        })
        .collect()
}

fn check(workload: Workload) {
    for trace in [false, true] {
        let first = small(workload, 11, trace);
        let again = small(workload, 11, trace);
        assert_eq!(
            first.digest, again.digest,
            "{workload:?} trace {trace}: outputs differ for one seed"
        );
        assert_eq!(
            counts(&first, trace),
            counts(&again, trace),
            "{workload:?} trace {trace}: counts differ for one seed"
        );
        let other = small(workload, 12, trace);
        assert_ne!(
            first.digest, other.digest,
            "{workload:?} trace {trace}: outputs do not follow the seed"
        );
    }
}

#[test]
fn serve_mix_repeats_for_one_seed() {
    check(Workload::ServeMix);
}

#[test]
fn hybrid_island_repeats_for_one_seed() {
    check(Workload::HybridIsland);
}

#[test]
fn nisq_sweep_repeats_for_one_seed() {
    check(Workload::NisqSweep);
}
