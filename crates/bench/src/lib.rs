//! Experiment harness regenerating every table and figure of the paper.
//!
//! Each experiment in [`experiments`] builds the paper's circuit with the
//! public `qassert` API, runs it on the appropriate backend (ideal
//! state-vector for the QUIRK figures, exact-density `ibmqx4` model for
//! the hardware tables), and emits an [`qassert::ExperimentReport`] with
//! paper-vs-measured comparisons.
//!
//! Run everything with:
//!
//! ```text
//! cargo run -p qassert-bench --bin repro            # all experiments
//! cargo run -p qassert-bench --bin repro -- table1  # one experiment
//! ```

pub mod experiments;

use qassert::ExperimentReport;

/// One registry entry: `(id, description, runner)`.
pub type Experiment = (&'static str, &'static str, fn() -> ExperimentReport);

/// The experiment registry: `(id, description, runner)`.
///
/// Ids match the per-experiment index in `DESIGN.md`.
pub fn registry() -> Vec<Experiment> {
    vec![
        (
            "fig6",
            "Fig. 6 — classical assertion verified on the ideal simulator (QUIRK substitute)",
            experiments::fig6::run,
        ),
        (
            "table1",
            "Table 1 — classical assertion on the ibmqx4 noise model",
            experiments::table1::run,
        ),
        (
            "table2",
            "Table 2 — entanglement assertion on the ibmqx4 noise model",
            experiments::table2::run,
        ),
        (
            "fig7",
            "Fig. 7 — superposition assertion verified on the ideal simulator",
            experiments::fig7::run,
        ),
        (
            "sec43",
            "Sec. 4.3 — superposition assertion on the ibmqx4 noise model",
            experiments::sec43::run,
        ),
        (
            "theory",
            "Sec. 3 proofs — measured ancilla statistics vs closed forms over an input sweep",
            experiments::theory_sweep::run,
        ),
        (
            "ablation",
            "Fig. 4 ablation — even vs odd CNOT parity, and strong (pairwise) assertion coverage",
            experiments::ablation::run,
        ),
        (
            "baseline",
            "Baseline — dynamic assertions vs statistical assertions (Huang & Martonosi)",
            experiments::baseline::run,
        ),
        (
            "sweep",
            "Noise sweep — error-rate reduction from filtering vs device noise scale",
            experiments::noise_sweep::run,
        ),
        (
            "mitigation",
            "Extension — assertion filtering vs readout mitigation vs both",
            experiments::mitigation::run,
        ),
        (
            "placement",
            "Extension — ancilla placement cost on ibmqx4 (the paper's 'we used q2' remark)",
            experiments::placement::run,
        ),
    ]
}

/// Runs one experiment by id.
pub fn run_by_id(id: &str) -> Option<ExperimentReport> {
    registry()
        .into_iter()
        .find(|(eid, _, _)| *eid == id)
        .map(|(_, _, f)| f())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_ids_are_unique() {
        let mut ids: Vec<&str> = registry().iter().map(|(id, _, _)| *id).collect();
        let before = ids.len();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), before);
    }

    #[test]
    fn unknown_id_returns_none() {
        assert!(run_by_id("nonsense").is_none());
    }
}
