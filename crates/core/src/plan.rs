//! Shot plans: how a session spends a run's shot budget.
//!
//! The paper's workflow burns a fixed shot count per run, but its
//! assertions are *statistical* checks on measured ancillas — most runs
//! reach a clear verdict long before a fixed budget is spent. A
//! [`ShotPlan`] makes the budget a first-class session setting:
//!
//! * [`ShotPlan::Fixed`] — the default. Exactly `n` shots in one
//!   backend call, bit-identical to the pre-plan fixed-shot behavior.
//! * [`ShotPlan::Sequential`] — shots run in tranches; after each
//!   tranche every assertion's anytime-valid sequential test
//!   ([`crate::statistical::SequentialTest`]) is folded over the
//!   accumulated counts, and the run stops as soon as every verdict is
//!   decided at confidence `1 - alpha` (or the budget is exhausted).
//!
//! Sequential execution is deterministic by construction: tranche
//! boundaries are a pure function of the accumulated counts (never
//! timing or worker count), and tranche `k` draws its RNG streams from
//! [`qsim::tranche_seed`]`(base, k)` — so results reproduce exactly for
//! any `(seed, plan, threads, sweep policy, pool size)`.

use std::fmt;

/// Default `min_shots` for [`ShotPlan::sequential`].
pub const DEFAULT_SEQUENTIAL_MIN_SHOTS: u64 = 64;
/// Default `max_shots` for [`ShotPlan::sequential`].
pub const DEFAULT_SEQUENTIAL_MAX_SHOTS: u64 = 8192;
/// Default `tranche` for [`ShotPlan::sequential`].
pub const DEFAULT_SEQUENTIAL_TRANCHE: u64 = 256;

/// How a session spends a run's shot budget.
///
/// Construct a plan and hand it to
/// [`AssertionSession::shot_plan`](crate::AssertionSession::shot_plan).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ShotPlan {
    /// Run exactly this many shots in one backend call — bit-identical
    /// to the pre-plan behavior, and the default
    /// ([`crate::session::DEFAULT_SHOTS`]).
    Fixed(u64),
    /// Run shots in tranches, stopping as soon as every assertion's
    /// anytime-valid sequential verdict is decided.
    Sequential {
        /// Significance level of the per-assertion sequential tests: a
        /// verdict is declared when its e-value reaches `1 / alpha`, so
        /// by Ville's inequality each assertion's probability of *ever*
        /// declaring a wrong verdict is at most `alpha`, no matter when
        /// the plan stops. Also the significance the analysis verdicts
        /// report.
        alpha: f64,
        /// No verdict is declared before this many shots have been
        /// requested — a floor against deciding on a handful of shots
        /// when tranches are small.
        min_shots: u64,
        /// Hard budget: the run stops here with
        /// [`StopReason::Budget`] if verdicts are still undecided
        /// (firing rates near the test threshold may never decide).
        max_shots: u64,
        /// Shots per tranche — the granularity at which verdicts are
        /// re-evaluated. Smaller tranches stop earlier but re-test more
        /// often; pool-shard-sized tranches (a few hundred) amortize
        /// dispatch without overshooting much.
        tranche: u64,
    },
}

impl Default for ShotPlan {
    fn default() -> Self {
        ShotPlan::Fixed(crate::session::DEFAULT_SHOTS)
    }
}

impl ShotPlan {
    /// A sequential plan at significance `alpha` with the default
    /// floor/budget/tranche
    /// ([`DEFAULT_SEQUENTIAL_MIN_SHOTS`]/[`DEFAULT_SEQUENTIAL_MAX_SHOTS`]/
    /// [`DEFAULT_SEQUENTIAL_TRANCHE`]).
    pub fn sequential(alpha: f64) -> Self {
        ShotPlan::Sequential {
            alpha,
            min_shots: DEFAULT_SEQUENTIAL_MIN_SHOTS,
            max_shots: DEFAULT_SEQUENTIAL_MAX_SHOTS,
            tranche: DEFAULT_SEQUENTIAL_TRANCHE,
        }
    }

    /// The most shots this plan can spend on one run: `n` for
    /// `Fixed(n)`, `max_shots` for `Sequential`.
    pub fn budget(&self) -> u64 {
        match *self {
            ShotPlan::Fixed(n) => n,
            ShotPlan::Sequential { max_shots, .. } => max_shots,
        }
    }

    /// Whether this plan evaluates verdicts between tranches.
    pub fn is_sequential(&self) -> bool {
        matches!(self, ShotPlan::Sequential { .. })
    }

    /// The sequential significance level, if this plan has one.
    pub fn alpha(&self) -> Option<f64> {
        match *self {
            ShotPlan::Fixed(_) => None,
            ShotPlan::Sequential { alpha, .. } => Some(alpha),
        }
    }

    /// Checks the plan's parameters: every plan needs a non-zero shot
    /// budget, and `Sequential` additionally needs `alpha` in `(0, 1)`,
    /// `tranche >= 1`, and `1 <= min_shots <= max_shots`. A plan that
    /// can never run a shot can never produce a verdict, so the core
    /// rejects it here — frontends must not need their own special
    /// cases.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        match *self {
            ShotPlan::Fixed(0) => Err(String::from("fixed plan must request at least one shot")),
            ShotPlan::Fixed(_) => Ok(()),
            ShotPlan::Sequential {
                alpha,
                min_shots,
                max_shots,
                tranche,
            } => {
                if !(alpha > 0.0 && alpha < 1.0) {
                    return Err(format!("sequential alpha must be in (0, 1), got {alpha}"));
                }
                if tranche == 0 {
                    return Err(String::from("sequential tranche must be at least 1"));
                }
                if min_shots == 0 {
                    return Err(String::from("sequential min_shots must be at least 1"));
                }
                if min_shots > max_shots {
                    return Err(format!(
                        "sequential min_shots ({min_shots}) must not exceed max_shots ({max_shots})"
                    ));
                }
                Ok(())
            }
        }
    }
}

impl fmt::Display for ShotPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            ShotPlan::Fixed(n) => write!(f, "fixed({n})"),
            ShotPlan::Sequential {
                alpha,
                min_shots,
                max_shots,
                tranche,
            } => write!(
                f,
                "sequential(alpha={alpha}, min={min_shots}, max={max_shots}, tranche={tranche})"
            ),
        }
    }
}

/// Why a run stopped requesting shots.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StopReason {
    /// A fixed plan ran its whole budget in one call (the only reason a
    /// [`ShotPlan::Fixed`] run ever reports).
    Fixed,
    /// Every assertion's sequential verdict was decided, so the
    /// remaining budget was not spent.
    Decided,
    /// The sequential budget (`max_shots`) was exhausted with at least
    /// one verdict still undecided.
    Budget,
}

impl fmt::Display for StopReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            StopReason::Fixed => "fixed",
            StopReason::Decided => "decided",
            StopReason::Budget => "budget",
        })
    }
}

/// How one run actually spent its plan — attached to every
/// [`AssertionOutcome`](crate::AssertionOutcome).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PlanTrace {
    /// Shots requested from the backend (post-selection may have
    /// discarded some; recorded shots are `raw.counts.total()`).
    pub shots_used: u64,
    /// Backend calls the plan made (1 for a fixed plan).
    pub tranches: u64,
    /// Why the run stopped.
    pub stop: StopReason,
}

impl PlanTrace {
    /// The trace of a fixed-budget run.
    pub(crate) fn fixed(shots: u64) -> Self {
        PlanTrace {
            shots_used: shots,
            tranches: 1,
            stop: StopReason::Fixed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_is_the_fixed_default_budget() {
        assert_eq!(
            ShotPlan::default(),
            ShotPlan::Fixed(crate::session::DEFAULT_SHOTS)
        );
        assert!(!ShotPlan::default().is_sequential());
        assert_eq!(ShotPlan::default().alpha(), None);
    }

    #[test]
    fn sequential_constructor_uses_documented_defaults() {
        let plan = ShotPlan::sequential(0.05);
        assert_eq!(
            plan,
            ShotPlan::Sequential {
                alpha: 0.05,
                min_shots: DEFAULT_SEQUENTIAL_MIN_SHOTS,
                max_shots: DEFAULT_SEQUENTIAL_MAX_SHOTS,
                tranche: DEFAULT_SEQUENTIAL_TRANCHE,
            }
        );
        assert!(plan.is_sequential());
        assert_eq!(plan.alpha(), Some(0.05));
        assert_eq!(plan.budget(), DEFAULT_SEQUENTIAL_MAX_SHOTS);
        assert!(plan.validate().is_ok());
    }

    #[test]
    fn validate_rejects_degenerate_parameters() {
        assert!(ShotPlan::sequential(0.0).validate().is_err());
        assert!(ShotPlan::sequential(1.0).validate().is_err());
        assert!(ShotPlan::Sequential {
            alpha: 0.05,
            min_shots: 10,
            max_shots: 100,
            tranche: 0,
        }
        .validate()
        .is_err());
        assert!(ShotPlan::Sequential {
            alpha: 0.05,
            min_shots: 0,
            max_shots: 100,
            tranche: 16,
        }
        .validate()
        .is_err());
        assert!(ShotPlan::Sequential {
            alpha: 0.05,
            min_shots: 200,
            max_shots: 100,
            tranche: 16,
        }
        .validate()
        .is_err());
        assert!(ShotPlan::Fixed(0).validate().is_err());
        assert!(ShotPlan::Fixed(1).validate().is_ok());
    }

    #[test]
    fn display_names_the_plan_shape() {
        assert_eq!(ShotPlan::Fixed(1024).to_string(), "fixed(1024)");
        assert_eq!(
            ShotPlan::sequential(0.05).to_string(),
            "sequential(alpha=0.05, min=64, max=8192, tranche=256)"
        );
        assert_eq!(StopReason::Decided.to_string(), "decided");
    }
}
