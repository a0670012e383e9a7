//! The assertion runtime: analyzed outcomes of instrumented circuits.
//!
//! Execution goes through an
//! [`AssertionSession`](crate::session::AssertionSession) — it owns the
//! backend, program cache, shard policy, shot plan, and
//! filter/mitigation settings in one place — and every run ends in the
//! analysis here.

use crate::error::AssertError;
use crate::filter::{assertion_fired_shots, filter_assertion_bits};
use crate::instrument::{AssertingCircuit, AssertionRecord};
use crate::mitigation::ReadoutMitigator;
use crate::plan::PlanTrace;
use crate::statistical::{SequentialTest, SequentialVerdict};
use qcircuit::ClbitId;
use qsim::{Counts, RunResult};

/// What a session's analysis does when assertion filtering removes
/// every shot.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum FilterPolicy {
    /// Error with [`AssertError::NoShotsKept`] — the paper's NISQ
    /// filtering workflow has nothing left to report (default).
    #[default]
    RequireKept,
    /// Return the outcome with empty `kept` histograms — debugging
    /// workflows asserting *known-bad* programs (detection-probability
    /// studies) read the error rate, not the filtered data.
    AllowEmpty,
}

/// Per-assertion runtime statistics.
#[derive(Clone, Debug, PartialEq)]
pub struct AssertionStats {
    /// The record describing the instrumented assertion.
    pub record: AssertionRecord,
    /// Fraction of shots in which this assertion fired (any of its
    /// clbits read 1).
    pub error_rate: f64,
    /// Absolute number of shots in which it fired (counted exactly from
    /// the histogram, not reconstructed from `error_rate`).
    pub fired: u64,
}

/// Readout-mitigated outcome distributions, attached when the session
/// carries a [`ReadoutMitigator`].
#[derive(Clone, Debug)]
pub struct MitigatedOutcome {
    /// Quasi-probabilities over the full classical register after
    /// inverting the per-clbit assignment matrices (clipped to the
    /// physical simplex).
    pub probs: Vec<f64>,
    /// The mitigated distribution additionally filtered on the
    /// assertion clbits and renormalized; all zeros when filtering
    /// removed every outcome under [`FilterPolicy::AllowEmpty`].
    pub kept: Vec<f64>,
}

/// The analyzed outcome of running an asserting circuit.
#[derive(Clone, Debug)]
pub struct AssertionOutcome {
    /// The backend's raw result (all shots, full classical register).
    pub raw: RunResult,
    /// Shots surviving assertion filtering (full keys preserved).
    pub kept: Counts,
    /// Raw counts marginalized onto the data clbits (bit `j` of a key is
    /// `data_clbits[j]`).
    pub data_raw: Counts,
    /// Kept counts marginalized onto the data clbits.
    pub data_kept: Counts,
    /// Fraction of shots flagged by at least one assertion.
    pub assertion_error_rate: f64,
    /// Per-assertion firing statistics, in instrumentation order.
    pub per_assertion: Vec<AssertionStats>,
    /// The data clbit indices backing `data_raw`/`data_kept` keys.
    pub data_clbits: Vec<ClbitId>,
    /// Readout-mitigated distributions (sessions with a mitigator only).
    pub mitigated: Option<MitigatedOutcome>,
    /// Per-assertion anytime-valid verdicts (instrumentation order),
    /// evaluated at the final counts under the session's
    /// [`SequentialTest`]. Sequential plans stop on these; fixed plans
    /// still report them, so fixed and sequential runs of the same
    /// program are comparable verdict-for-verdict.
    pub verdicts: Vec<SequentialVerdict>,
    /// How the shot plan actually spent its budget on this run.
    pub plan: PlanTrace,
}

impl AssertionOutcome {
    /// Shots surviving the filter.
    pub fn shots_kept(&self) -> u64 {
        self.kept.total()
    }

    /// Whether every assertion's sequential verdict is decided.
    pub fn decided(&self) -> bool {
        self.verdicts.iter().all(SequentialVerdict::decided)
    }
}

/// The analysis every session run ends in.
/// `test` produces the per-assertion verdicts from the final counts;
/// `plan` records how the shot plan spent its budget producing `raw`.
pub(crate) fn analyze_with_policy(
    raw: RunResult,
    asserting: &AssertingCircuit,
    policy: FilterPolicy,
    mitigator: Option<&ReadoutMitigator>,
    test: &SequentialTest,
    plan: PlanTrace,
) -> Result<AssertionOutcome, AssertError> {
    let assertion_clbits = asserting.assertion_clbits();
    let data_clbits = asserting.data_clbits();

    let kept = filter_assertion_bits(&raw.counts, &assertion_clbits);
    if policy == FilterPolicy::RequireKept && raw.counts.total() > 0 && kept.total() == 0 {
        return Err(AssertError::NoShotsKept);
    }
    let total = raw.counts.total();
    let overall_fired = assertion_fired_shots(&raw.counts, &assertion_clbits);
    let overall = if total == 0 {
        0.0
    } else {
        overall_fired as f64 / total as f64
    };

    let per_assertion: Vec<AssertionStats> = asserting
        .records()
        .iter()
        .map(|record| {
            let fired = assertion_fired_shots(&raw.counts, &record.clbits);
            AssertionStats {
                record: record.clone(),
                error_rate: if total == 0 {
                    0.0
                } else {
                    fired as f64 / total as f64
                },
                fired,
            }
        })
        .collect();

    // Verdicts are a pure function of each assertion's accumulated
    // (recorded, fired) totals, so evaluating here reproduces exactly
    // the state a sequential tranche loop stopped on.
    let verdicts = per_assertion
        .iter()
        .map(|stats| test.evaluate(total, stats.fired))
        .collect();

    let mitigated = match mitigator {
        Some(m) => {
            let probs = m.mitigate_clipped(&raw.counts)?;
            let kept = match crate::mitigation::filter_mitigated(&probs, &assertion_clbits) {
                Ok(kept) => kept,
                Err(AssertError::NoShotsKept) if policy == FilterPolicy::AllowEmpty => {
                    vec![0.0; probs.len()]
                }
                Err(e) => return Err(e),
            };
            Some(MitigatedOutcome { probs, kept })
        }
        None => None,
    };

    let data_bit_indices: Vec<usize> = data_clbits.iter().map(|c| c.index()).collect();
    let data_raw = raw.counts.marginal(&data_bit_indices);
    let data_kept = kept.marginal(&data_bit_indices);

    Ok(AssertionOutcome {
        raw,
        kept,
        data_raw,
        data_kept,
        assertion_error_rate: overall,
        per_assertion,
        data_clbits,
        mitigated,
        verdicts,
        plan,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assertion::{Parity, SuperpositionBasis};
    use crate::session::AssertionSession;
    use qcircuit::{library, QuantumCircuit};
    use qnoise::presets;
    use qsim::{Backend, DensityMatrixBackend, StatevectorBackend};

    fn session<B: Backend>(backend: B, shots: u64) -> AssertionSession<'static, B> {
        AssertionSession::new(backend).shots(shots)
    }

    #[test]
    fn correct_bell_never_fires_on_ideal_backend() {
        let mut ac = AssertingCircuit::new(library::bell());
        ac.assert_entangled([0, 1], Parity::Even).unwrap();
        ac.measure_data();
        let outcome = session(StatevectorBackend::new().with_seed(1), 1000)
            .run(&ac)
            .unwrap();
        assert_eq!(outcome.assertion_error_rate, 0.0);
        assert_eq!(outcome.shots_kept(), 1000);
        // Data marginal still shows the Bell correlation.
        assert_eq!(outcome.data_kept.get(0b01) + outcome.data_kept.get(0b10), 0);
        // A clean 1000-shot stream is decided Holds even on a fixed
        // plan, and the trace records the single fixed call.
        assert_eq!(outcome.verdicts.len(), 1);
        assert_eq!(
            outcome.verdicts[0].verdict,
            crate::statistical::AssertionVerdict::Holds
        );
        assert!(outcome.decided());
        assert_eq!(outcome.plan.shots_used, 1000);
        assert_eq!(outcome.plan.tranches, 1);
        assert_eq!(outcome.plan.stop, crate::plan::StopReason::Fixed);
    }

    #[test]
    fn cached_analysis_is_identical_and_compile_free_on_repeat() {
        let mut ac = AssertingCircuit::new(library::bell());
        ac.assert_entangled([0, 1], Parity::Even).unwrap();
        ac.measure_data();
        let backend = StatevectorBackend::new().with_seed(9);
        let direct = {
            let program = backend.compile(ac.circuit()).unwrap();
            analyze_with_policy(
                backend.run_compiled(&program, 400).unwrap(),
                &ac,
                FilterPolicy::RequireKept,
                None,
                &SequentialTest::default(),
                PlanTrace::fixed(400),
            )
            .unwrap()
        };
        let cache = qsim::ProgramCache::new(8);
        let s = session(&backend, 400).cache(&cache);
        let first = s.run(&ac).unwrap();
        let second = s.run(&ac).unwrap();
        assert_eq!(first.raw.counts, direct.raw.counts);
        assert_eq!(second.raw.counts, direct.raw.counts);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }

    #[test]
    fn classical_assertion_on_wrong_value_always_fires() {
        let mut base = QuantumCircuit::new(1, 0);
        base.x(0).unwrap(); // |1⟩, but we assert == |0⟩
        let mut ac = AssertingCircuit::new(base);
        ac.assert_classical([0], [false]).unwrap();
        ac.measure_data();
        let outcome = session(StatevectorBackend::new().with_seed(2), 64).run(&ac);
        // Every shot fires the assertion → filter removes everything.
        assert!(matches!(outcome, Err(AssertError::NoShotsKept)));
    }

    #[test]
    fn allow_empty_policy_reports_instead_of_erroring() {
        let mut base = QuantumCircuit::new(1, 0);
        base.x(0).unwrap();
        let mut ac = AssertingCircuit::new(base);
        ac.assert_classical([0], [false]).unwrap();
        ac.measure_data();
        let outcome = session(StatevectorBackend::new().with_seed(2), 64)
            .filter_policy(FilterPolicy::AllowEmpty)
            .run(&ac)
            .unwrap();
        assert_eq!(outcome.assertion_error_rate, 1.0);
        assert_eq!(outcome.shots_kept(), 0);
        assert_eq!(outcome.per_assertion[0].fired, 64);
        assert_eq!(
            outcome.verdicts[0].verdict,
            crate::statistical::AssertionVerdict::Violated
        );
    }

    #[test]
    fn classical_assertion_expected_one_passes() {
        let mut base = QuantumCircuit::new(1, 0);
        base.x(0).unwrap();
        let mut ac = AssertingCircuit::new(base);
        ac.assert_classical([0], [true]).unwrap();
        ac.measure_data();
        let outcome = session(StatevectorBackend::new().with_seed(3), 200)
            .run(&ac)
            .unwrap();
        assert_eq!(outcome.assertion_error_rate, 0.0);
    }

    #[test]
    fn superposition_on_classical_input_fires_half_the_time() {
        // Fig. 7: classical input asserted as |+⟩ → 50% assertion error.
        let mut ac = AssertingCircuit::new(QuantumCircuit::new(1, 0));
        ac.assert_superposition(0, SuperpositionBasis::Plus)
            .unwrap();
        ac.measure_data();
        let outcome = session(StatevectorBackend::new().with_seed(4), 4000)
            .run(&ac)
            .unwrap();
        assert!(
            (outcome.assertion_error_rate - 0.5).abs() < 0.03,
            "rate = {}",
            outcome.assertion_error_rate
        );
    }

    #[test]
    fn per_assertion_stats_are_separated() {
        // First assertion correct (never fires), second wrong (always
        // fires) — per-assertion stats must distinguish them, and the
        // lenient policy lets the outcome report it directly.
        let mut base = QuantumCircuit::new(2, 0);
        base.x(1).unwrap();
        let mut ac = AssertingCircuit::new(base);
        ac.assert_classical([0], [false]).unwrap(); // holds
        ac.assert_classical([1], [false]).unwrap(); // violated
        ac.measure_data();
        let strict = session(StatevectorBackend::new().with_seed(5), 100).run(&ac);
        assert!(matches!(strict, Err(AssertError::NoShotsKept)));

        let outcome = session(StatevectorBackend::new().with_seed(5), 100)
            .filter_policy(FilterPolicy::AllowEmpty)
            .run(&ac)
            .unwrap();
        assert_eq!(outcome.per_assertion.len(), 2);
        assert_eq!(outcome.per_assertion[0].fired, 0);
        assert_eq!(outcome.per_assertion[0].error_rate, 0.0);
        assert_eq!(outcome.per_assertion[1].fired, 100);
        assert_eq!(outcome.per_assertion[1].error_rate, 1.0);
    }

    #[test]
    fn fired_counts_are_exact_integers_from_the_histogram() {
        use qcircuit::ClbitId;
        // Synthetic raw result with a total beyond f64's exact-integer
        // range: `fired` must come out exact, not `rate * total`.
        let flagged = (1u64 << 53) + 1;
        let mut ac = AssertingCircuit::new(QuantumCircuit::new(1, 0));
        ac.assert_classical([0], [false]).unwrap();
        ac.measure_data();
        assert_eq!(ac.assertion_clbits(), vec![ClbitId::new(0)]);
        let raw = RunResult {
            counts: Counts::from_pairs(2, [(0b00, 5), (0b01, flagged)]),
            shots_requested: flagged + 5,
            shots_discarded: 0,
        };
        let outcome = analyze_with_policy(
            raw,
            &ac,
            FilterPolicy::RequireKept,
            None,
            &SequentialTest::default(),
            PlanTrace::fixed(flagged + 5),
        )
        .unwrap();
        assert_eq!(outcome.per_assertion[0].fired, flagged);
    }

    #[test]
    fn noisy_backend_shows_filtering_benefit() {
        // Bell pair under depolarizing noise: filtered error < raw error.
        let mut ac = AssertingCircuit::new(library::bell());
        ac.assert_entangled([0, 1], Parity::Even).unwrap();
        ac.measure_data();
        let backend = DensityMatrixBackend::new(presets::uniform(3, 0.003, 0.03, 0.02).unwrap());
        let outcome = session(backend, 100_000).run(&ac).unwrap();
        assert!(outcome.assertion_error_rate > 0.0);

        // Data bits: bit 0 = q0, bit 1 = q1; correct Bell outcomes agree.
        let correct = |key: u64| (key & 1) == ((key >> 1) & 1);
        let raw_err = crate::filter::error_rate(&outcome.data_raw, correct);
        let kept_err = crate::filter::error_rate(&outcome.data_kept, correct);
        assert!(
            kept_err < raw_err,
            "filtering did not help: raw {raw_err}, kept {kept_err}"
        );
    }

    #[test]
    fn data_marginals_use_data_bit_order() {
        let mut ac = AssertingCircuit::new(library::bell());
        ac.assert_entangled([0, 1], Parity::Even).unwrap();
        ac.measure_data();
        let outcome = session(StatevectorBackend::new().with_seed(6), 500)
            .run(&ac)
            .unwrap();
        assert_eq!(outcome.data_raw.num_bits(), 2);
        assert_eq!(outcome.data_clbits.len(), 2);
        // All mass on 00/11 in data space.
        assert_eq!(outcome.data_raw.get(0b00) + outcome.data_raw.get(0b11), 500);
    }
}
