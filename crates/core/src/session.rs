//! [`AssertionSession`] — the execution API of the suite.
//!
//! The paper's workflow is inherently *many runs of one instrumented
//! circuit family*: noise sweeps, ablations, error-filtering tables.
//! A session owns everything those runs share — the backend, the
//! [`ProgramCache`], the shard/thread policy, the shot plan, and the
//! filter/mitigation settings — so call sites stop hand-wiring them
//! through free-function parameters:
//!
//! ```
//! use qassert::{AssertionSession, AssertingCircuit, Parity};
//! use qcircuit::library;
//! use qsim::StatevectorBackend;
//!
//! # fn main() -> Result<(), qassert::AssertError> {
//! let mut program = AssertingCircuit::new(library::bell());
//! program.assert_entangled([0, 1], Parity::Even)?;
//! program.measure_data();
//!
//! let session =
//!     AssertionSession::new(StatevectorBackend::new()).shot_plan(qassert::ShotPlan::Fixed(1024));
//! let outcome = session.run(&program)?;
//! assert_eq!(outcome.assertion_error_rate, 0.0);
//! # Ok(())
//! # }
//! ```
//!
//! # Shot plans
//!
//! The budget every run spends is a [`ShotPlan`], set with
//! [`AssertionSession::shot_plan`] ([`AssertionSession::shots`] is a
//! shim for [`ShotPlan::Fixed`], which stays the bit-identical
//! default). [`ShotPlan::Sequential`] runs shots in tranches and stops
//! as soon as every assertion's anytime-valid sequential verdict
//! ([`crate::statistical::SequentialTest`]) is decided — clear-cut
//! points finish in hundreds of shots instead of the full budget, and
//! [`AssertionOutcome::plan`] / [`AssertionOutcome::verdicts`] record
//! how and why each run stopped. Tranche boundaries are a pure function
//! of the accumulated counts and tranche `k` draws its RNG streams from
//! [`qsim::tranche_seed`]`(base, k)`, so sequential results are
//! bit-reproducible for any `(seed, plan, threads, policy, workers)` —
//! pinned, like fixed plans, by the `sweep_equivalence` property suite.
//!
//! # Migrating older call shapes
//!
//! | old | new |
//! |---|---|
//! | per-point loop + `push_cache_metrics` | `session.run_sweep(circuits)` → [`SweepOutcome::telemetry`] |
//! | `.shots(n)` | `.shot_plan(ShotPlan::Fixed(n))`, or keep the shim |
//! | `sweep.points[i]` | `sweep.point(i)` / `sweep.iter()` / `sweep.outcomes()` |
//!
//! # Prefix-aware sweeps
//!
//! Every circuit lowered through a session is also registered in a
//! [`qsim::PrefixRegistry`]. When a later circuit of the same session
//! *extends* an earlier one (the per-θ theory circuits do — each
//! assertion fragment appends to a shared preparation), only the suffix
//! is lowered and the compiled prefix is reused; `prefix_hits` in the
//! session telemetry counts those reuses. Reuse is bit-exact: the
//! registry only splits where no gate-fusion run crosses the boundary,
//! so the op stream is identical to a fresh compile.
//!
//! # Parallel sweeps
//!
//! [`AssertionSession::run_sweep`] executes its points across the
//! process-wide [`qsim::ShardPool`] by default ([`SweepPolicy`]),
//! making the shot plan two-dimensional: whole points are pool tasks,
//! and each point's shot shards are nested tasks under the sweep's
//! latch group — so the work-stealing scheduler splits the machine
//! between points and shots adaptively. Scheduling never changes
//! results: lowering stays serial in input order, per-point seeds are
//! pure functions of `(session seed, point index)`
//! ([`qsim::sweep_point_seed`]), and per-point counts are bit-identical
//! for any `(seed, threads, policy, worker count)`. Sweep telemetry is
//! assembled from per-point traces plus the latch group's own pool
//! counters, so it stays exact even when several sweeps run
//! concurrently — which also makes concurrent [`qsim::ProgramCache`]
//! and [`qsim::PrefixRegistry`] access from pool workers a routine,
//! tested path.

use crate::error::AssertError;
use crate::instrument::AssertingCircuit;
use crate::mitigation::ReadoutMitigator;
use crate::plan::{PlanTrace, ShotPlan, StopReason};
use crate::report::SessionRecord;
use crate::runtime::{analyze_with_policy, AssertionOutcome, FilterPolicy};
use crate::statistical::{
    SequentialTest, SequentialVerdict, DEFAULT_VERDICT_ALPHA, DEFAULT_VERDICT_THRESHOLD,
};
use qcircuit::QuantumCircuit;
use qsim::{
    sweep_point_seed, tranche_seed, Backend, CompiledProgram, PrefixRegistry, ProgramCache,
    ProgramKey, RunResult, ShardPool, SimError,
};
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Default fixed shot budget when neither [`AssertionSession::shots`]
/// nor [`AssertionSession::shot_plan`] is called.
pub const DEFAULT_SHOTS: u64 = 1024;

/// Bound on the session's registered-key memo — matches the prefix
/// registry's own registration cap, beyond which registering is a no-op
/// anyway, so remembering more keys buys nothing.
const REGISTERED_MEMO_CAP: usize = 1024;

/// How [`AssertionSession::run_sweep`] schedules its points.
///
/// Scheduling never changes results: for any policy, worker count, and
/// thread count, per-point counts and the sweep telemetry's
/// deterministic fields are bit-identical — pinned by the
/// `sweep_equivalence` property suite across all three backends.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SweepPolicy {
    /// Points execute one after another on the calling thread (the
    /// pre-parallel behavior). Within a point, shots still shard across
    /// the pool under the session's thread plan.
    Serial,
    /// Points fan out across the shard pool as whole-point tasks
    /// (default), the second dimension of the 2-D `points × shots`
    /// plan. Each point's shot shards submit *nested* pool tasks, so
    /// the work-stealing scheduler adapts automatically: with few
    /// points, idle workers steal a point's shot shards (shot-level
    /// parallelism); with many points, every worker is busy with its
    /// own point and drains its own shards inline (point-level
    /// parallelism).
    #[default]
    Parallel,
}

/// Which program cache a session compiles through.
enum CacheRef<'c> {
    /// The process-wide [`ProgramCache::global`] (default).
    Global,
    /// A caller-owned cache — isolated hit/miss accounting, shared
    /// across sessions at the caller's discretion.
    Borrowed(&'c ProgramCache),
    /// A cache owned by this session.
    Owned(ProgramCache),
}

/// Counters a session accumulates across its lifetime.
///
/// Snapshots are taken with [`AssertionSession::telemetry`]; deltas
/// (e.g. for one sweep) with [`SessionTelemetry::since`]. Sweep
/// harnesses export these into report metrics via
/// [`crate::ExperimentReport::push_session_telemetry`], replacing the
/// old ad-hoc `push_cache_metrics` plumbing around global cache stats.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SessionTelemetry {
    /// Circuits executed (each [`AssertionSession::run`] or
    /// [`AssertionSession::run_circuit`] call).
    pub runs: u64,
    /// Total shots *requested* across those runs (post-selection may
    /// discard some of them; per-run discards are on
    /// [`qsim::RunResult::shots_discarded`]). Under a sequential plan
    /// this is the shots actually spent, not the budget.
    pub shots: u64,
    /// Backend calls the shot plan made across those runs — one per run
    /// under [`ShotPlan::Fixed`], one per tranche under
    /// [`ShotPlan::Sequential`].
    pub tranches: u64,
    /// Sequential runs that stopped with every verdict decided before
    /// exhausting their budget ([`StopReason::Decided`]).
    pub early_stops: u64,
    /// Lowerings served whole from the program cache.
    pub cache_hits: u64,
    /// Lowerings that had to compile (fully or by prefix extension).
    pub cache_misses: u64,
    /// Compiles that reused a previously lowered prefix, lowering only
    /// the suffix.
    pub prefix_hits: u64,
    /// Ops covered by batched plan nodes across executed programs
    /// (summed per run, not per shot). Per-shot backends execute these
    /// through the blocked SoA kernels; the exact density-matrix
    /// executor compiles plans but walks ops per branch, so for it
    /// this counts plan *coverage*, not kernel executions.
    pub batched_ops: u64,
    /// Batched plan nodes across executed programs (summed per run,
    /// not per shot) — blocked apply passes per shot on the per-shot
    /// backends.
    pub batch_passes: u64,
    /// Shard-pool tasks executed since the session was created
    /// ([`qsim::PoolStats::tasks_run`] deltas against the session's
    /// creation-time baseline). The global pool serves every session,
    /// so the count is attributable to this session only while nothing
    /// else submits concurrently.
    pub pool_tasks: u64,
    /// Shard-pool steals since the session was created
    /// ([`qsim::PoolStats::steals`]); same attribution caveat as
    /// [`SessionTelemetry::pool_tasks`].
    pub pool_steals: u64,
    /// The SIMD backend name the amplitude kernels dispatch to
    /// ([`qsim::simd::active_backend`] at snapshot time; `""` until a
    /// snapshot is taken). Provenance, not a counter: every backend is
    /// bit-identical, so this never changes results — it records which
    /// ISA produced the throughput numbers next to it.
    pub simd_backend: &'static str,
}

impl SessionTelemetry {
    /// Cache hits over total lookups (0 when nothing was looked up).
    pub fn hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }

    /// The activity between `earlier` and `self` (counters are
    /// monotonic, so a plain field-wise difference).
    pub fn since(&self, earlier: &SessionTelemetry) -> SessionTelemetry {
        SessionTelemetry {
            runs: self.runs - earlier.runs,
            shots: self.shots - earlier.shots,
            tranches: self.tranches - earlier.tranches,
            early_stops: self.early_stops - earlier.early_stops,
            cache_hits: self.cache_hits - earlier.cache_hits,
            cache_misses: self.cache_misses - earlier.cache_misses,
            prefix_hits: self.prefix_hits - earlier.prefix_hits,
            batched_ops: self.batched_ops - earlier.batched_ops,
            batch_passes: self.batch_passes - earlier.batch_passes,
            pool_tasks: self.pool_tasks - earlier.pool_tasks,
            pool_steals: self.pool_steals - earlier.pool_steals,
            simd_backend: self.simd_backend,
        }
    }

    /// Accumulates another session's (or sweep's) counters into this
    /// one — experiments that build one session per noise point merge
    /// before reporting. (Merge *deltas* when pool counters matter:
    /// they are process-wide snapshots, so merging two raw snapshots
    /// double-counts the pool.)
    pub fn merge(&mut self, other: &SessionTelemetry) {
        self.runs += other.runs;
        self.shots += other.shots;
        self.tranches += other.tranches;
        self.early_stops += other.early_stops;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.prefix_hits += other.prefix_hits;
        self.batched_ops += other.batched_ops;
        self.batch_passes += other.batch_passes;
        self.pool_tasks += other.pool_tasks;
        self.pool_steals += other.pool_steals;
        if self.simd_backend.is_empty() {
            self.simd_backend = other.simd_backend;
        }
    }
}

/// What one [`AssertionSession::lower`]-family call observed — the
/// per-call attribution sweeps aggregate into exact telemetry.
#[derive(Clone, Copy, Debug)]
struct LowerTrace {
    /// The lowering was served whole from the program cache.
    cache_hit: bool,
    /// The compile reused a registered prefix (miss path only).
    prefix_hit: bool,
}

/// The result of [`AssertionSession::run_sweep`]: per-point outcomes
/// plus the cache/prefix/pool telemetry aggregated over the sweep.
///
/// Points are read through the structured accessors —
/// [`SweepOutcome::point`], [`SweepOutcome::iter`],
/// [`SweepOutcome::outcomes`]: a [`SweepPoint`] carries the point index
/// next to the verdicts, shots spent, and stop reason, so harness code
/// stops re-deriving them from raw histograms.
#[derive(Debug)]
pub struct SweepOutcome {
    /// One analyzed outcome per swept circuit, in input order.
    points: Vec<AssertionOutcome>,
    /// Cache and prefix activity attributable to this sweep.
    pub telemetry: SessionTelemetry,
}

impl SweepOutcome {
    /// Number of sweep points.
    pub fn len(&self) -> usize {
        self.outcomes().len()
    }

    /// Whether the sweep had no points.
    pub fn is_empty(&self) -> bool {
        self.outcomes().is_empty()
    }

    /// The structured view of point `index`.
    ///
    /// # Panics
    ///
    /// Panics when `index >= self.len()`.
    pub fn point(&self, index: usize) -> SweepPoint<'_> {
        SweepPoint {
            index,
            outcome: &self.outcomes()[index],
        }
    }

    /// Iterates the points in input order as structured views.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = SweepPoint<'_>> {
        self.outcomes()
            .iter()
            .enumerate()
            .map(|(index, outcome)| SweepPoint { index, outcome })
    }

    /// The analyzed outcomes, in input order.
    pub fn outcomes(&self) -> &[AssertionOutcome] {
        &self.points
    }

    /// Consumes the sweep into its outcome vector (for harnesses that
    /// need owned outcomes).
    pub fn into_outcomes(self) -> Vec<AssertionOutcome> {
        self.points
    }

    /// Total shots the sweep actually requested across all points —
    /// under a sequential plan, the number the early stops saved from.
    pub fn shots_used(&self) -> u64 {
        self.outcomes().iter().map(|o| o.plan.shots_used).sum()
    }
}

/// One sweep point's analyzed outcome with its position and shot-plan
/// attribution — what [`SweepOutcome::point`]/[`SweepOutcome::iter`]
/// hand out instead of a bare vec entry.
#[derive(Clone, Copy, Debug)]
pub struct SweepPoint<'a> {
    index: usize,
    outcome: &'a AssertionOutcome,
}

impl<'a> SweepPoint<'a> {
    /// The point's position in the swept input.
    pub fn index(&self) -> usize {
        self.index
    }

    /// The full analyzed outcome.
    pub fn outcome(&self) -> &'a AssertionOutcome {
        self.outcome
    }

    /// Per-assertion sequential verdicts, in instrumentation order.
    pub fn verdicts(&self) -> &'a [SequentialVerdict] {
        &self.outcome.verdicts
    }

    /// Shots the plan requested for this point.
    pub fn shots_used(&self) -> u64 {
        self.outcome.plan.shots_used
    }

    /// Backend calls the plan made for this point.
    pub fn tranches(&self) -> u64 {
        self.outcome.plan.tranches
    }

    /// Why this point stopped requesting shots.
    pub fn stop(&self) -> StopReason {
        self.outcome.plan.stop
    }

    /// Whether every assertion's verdict is decided at this point.
    pub fn decided(&self) -> bool {
        self.outcome.decided()
    }
}

/// A configured execution context for instrumented circuits.
///
/// Construct with [`AssertionSession::new`] (the backend moves in;
/// references to backends are backends too, so `new(&backend)` borrows)
/// and chain builder methods. All execution methods take `&self`: a
/// session is shareable across threads when its backend is.
pub struct AssertionSession<'c, B: Backend> {
    backend: B,
    cache: CacheRef<'c>,
    plan: ShotPlan,
    /// Firing-rate threshold of the analysis verdicts (see
    /// [`AssertionSession::verdict_threshold`]).
    threshold: f64,
    threads: Option<usize>,
    seed: Option<u64>,
    filter: FilterPolicy,
    mitigator: Option<ReadoutMitigator>,
    sweep_policy: SweepPolicy,
    /// The pool sweeps dispatch on (`None` = the process-wide
    /// [`ShardPool::global`]); injectable so tests pin behavior across
    /// worker counts.
    pool: Option<&'c ShardPool>,
    prefix_reuse: bool,
    /// The prefix registry lowering compiles through. Owned by default;
    /// [`AssertionSession::prefix_registry`] shares one across sessions
    /// (the multi-tenant server shape), which is why hits are counted
    /// per-session in `prefix_hits` rather than read off the registry.
    prefixes: Arc<PrefixRegistry>,
    /// Prefix reuses observed by *this session's* lowerings. The
    /// registry's own [`PrefixRegistry::hits`] aggregates every sharer,
    /// so telemetry reads this session-local counter instead.
    prefix_hits: AtomicU64,
    /// Keys already registered in `prefixes` — repeated cache hits on a
    /// hot sweep circuit skip recomputing its prefix-hash chain. Capped
    /// (see [`REGISTERED_MEMO_CAP`]); the registry itself refreshes
    /// dead registrations on the miss path, so a stale memo entry can
    /// only delay re-registration until the next cache miss.
    registered: Mutex<HashSet<ProgramKey>>,
    /// The backend's noise fingerprint, hashed once on first use —
    /// fingerprinting walks the model's whole Kraus content, far too
    /// expensive to repeat on every lookup of a sweep.
    noise_fp: OnceLock<Option<u128>>,
    runs: AtomicU64,
    shots_run: AtomicU64,
    tranches_run: AtomicU64,
    early_stops: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    batched_ops: AtomicU64,
    batch_passes: AtomicU64,
    /// The widest program (qubit count) executed so far — reported in
    /// [`SessionRecord::max_qubits`] so repro artifacts show the scale
    /// a backend actually ran at.
    max_qubits: AtomicU64,
    /// Global-pool counters at session creation: [`Self::telemetry`]
    /// reports pool activity *since then*, so per-experiment sessions
    /// don't attribute earlier workloads' tasks to themselves.
    pool_baseline: qsim::PoolStats,
}

impl<'c, B: Backend> AssertionSession<'c, B> {
    /// Creates a session over `backend` with the defaults: the global
    /// program cache, a fixed [`DEFAULT_SHOTS`]-shot plan, the
    /// backend's own thread policy, strict filtering, no mitigation,
    /// prefix reuse on.
    pub fn new(backend: B) -> Self {
        AssertionSession {
            backend,
            cache: CacheRef::Global,
            plan: ShotPlan::default(),
            threshold: DEFAULT_VERDICT_THRESHOLD,
            threads: None,
            seed: None,
            filter: FilterPolicy::default(),
            mitigator: None,
            sweep_policy: SweepPolicy::default(),
            pool: None,
            prefix_reuse: true,
            prefixes: Arc::new(PrefixRegistry::new()),
            prefix_hits: AtomicU64::new(0),
            registered: Mutex::new(HashSet::new()),
            noise_fp: OnceLock::new(),
            runs: AtomicU64::new(0),
            shots_run: AtomicU64::new(0),
            tranches_run: AtomicU64::new(0),
            early_stops: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
            cache_misses: AtomicU64::new(0),
            batched_ops: AtomicU64::new(0),
            batch_passes: AtomicU64::new(0),
            max_qubits: AtomicU64::new(0),
            pool_baseline: qsim::ShardPool::global_stats(),
        }
    }

    /// Compiles through `cache` instead of the process-wide one
    /// (isolated hit/miss accounting; share one cache across sessions
    /// by passing the same reference).
    #[must_use]
    pub fn cache(mut self, cache: &'c ProgramCache) -> Self {
        self.cache = CacheRef::Borrowed(cache);
        self
    }

    /// Compiles through a cache owned by this session, holding at most
    /// `capacity` programs.
    ///
    /// # Panics
    ///
    /// Panics when `capacity == 0`.
    #[must_use]
    pub fn private_cache(mut self, capacity: usize) -> Self {
        self.cache = CacheRef::Owned(ProgramCache::new(capacity));
        self
    }

    /// Sets the shot plan for every run (default
    /// [`ShotPlan::Fixed`]`(`[`DEFAULT_SHOTS`]`)`).
    ///
    /// [`ShotPlan::Fixed`] runs its whole budget in one backend call —
    /// bit-identical to the pre-plan behavior. [`ShotPlan::Sequential`]
    /// runs tranches and stops each run as soon as every assertion's
    /// anytime-valid verdict is decided (see the module docs); its
    /// `alpha` also becomes the significance of the analysis verdicts.
    ///
    /// # Panics
    ///
    /// Panics when the plan's parameters are invalid
    /// ([`ShotPlan::validate`]).
    #[must_use]
    pub fn shot_plan(mut self, plan: ShotPlan) -> Self {
        if let Err(why) = plan.validate() {
            panic!("invalid shot plan: {why}");
        }
        self.plan = plan;
        self
    }

    /// Shim for [`AssertionSession::shot_plan`] with
    /// [`ShotPlan::Fixed`]`(shots)` — the pre-plan surface, kept for
    /// the one-line fixed-budget case.
    #[must_use]
    pub fn shots(self, shots: u64) -> Self {
        self.shot_plan(ShotPlan::Fixed(shots))
    }

    /// Sets the firing-rate threshold the per-assertion verdicts test
    /// against (default
    /// [`DEFAULT_VERDICT_THRESHOLD`](crate::statistical::DEFAULT_VERDICT_THRESHOLD)):
    /// rates decisively below it report
    /// [`AssertionVerdict::Holds`](crate::statistical::AssertionVerdict::Holds),
    /// decisively above it
    /// [`AssertionVerdict::Violated`](crate::statistical::AssertionVerdict::Violated).
    /// Set it between the backend's noise-level firing rate and the
    /// structural rate of a genuinely violated assertion.
    ///
    /// # Panics
    ///
    /// Panics unless `threshold` is in `(0, 1)`.
    #[must_use]
    pub fn verdict_threshold(mut self, threshold: f64) -> Self {
        assert!(
            threshold > 0.0 && threshold < 1.0,
            "verdict threshold must be in (0, 1), got {threshold}"
        );
        self.threshold = threshold;
        self
    }

    /// Overrides the backend's shard/thread count for per-shot
    /// execution. Backends without a shard concept (the exact
    /// density-matrix executor) ignore this.
    ///
    /// # Panics
    ///
    /// Panics when `threads == 0`.
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        assert!(threads >= 1, "at least one thread required");
        self.threads = Some(threads);
        self
    }

    /// Overrides the backend's RNG seed for every run of this session
    /// (via [`qsim::Backend::run_compiled_seeded`]). Seed sweeps build
    /// one cheap session per seed around a *borrowed* backend instead
    /// of rebuilding (or cloning) the backend per call. Backends that
    /// draw no sampling randomness (the exact density-matrix executor)
    /// ignore the override.
    ///
    /// [`AssertionSession::run_sweep`] derives **per-point** seeds from
    /// this value through [`qsim::sweep_point_seed`] (point `p` runs
    /// under `sweep_point_seed(seed, p)`), so sweep points draw
    /// statistically independent streams while staying a pure function
    /// of `(seed, point)` — identical under serial and parallel
    /// scheduling. Without a session seed, every sweep point runs under
    /// the backend's own seed, as single runs do.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self
    }

    /// Sets how [`AssertionSession::run_sweep`] schedules its points
    /// (default [`SweepPolicy::Parallel`]). Results are bit-identical
    /// under every policy; `Serial` exists for equivalence tests and
    /// for callers that must not occupy the pool.
    #[must_use]
    pub fn sweep_policy(mut self, policy: SweepPolicy) -> Self {
        self.sweep_policy = policy;
        self
    }

    /// Dispatches this session's sweeps on an explicit pool instead of
    /// the process-wide [`ShardPool::global`]. Scheduling never changes
    /// results (see [`SweepPolicy`]); tests use explicit pools to pin
    /// worker-count independence, benchmarks to isolate interference.
    ///
    /// Only whole-point sweep tasks move to this pool: shot shards
    /// *within* a run still execute wherever the backend's sharding
    /// harness puts them (the global pool), nested under the sweep's
    /// latch group either way.
    #[must_use]
    pub fn pool(mut self, pool: &'c ShardPool) -> Self {
        self.pool = Some(pool);
        self
    }

    /// Sets what analysis does when filtering removes every shot
    /// (default [`FilterPolicy::RequireKept`]).
    #[must_use]
    pub fn filter_policy(mut self, policy: FilterPolicy) -> Self {
        self.filter = policy;
        self
    }

    /// Attaches a readout mitigator: every analyzed outcome additionally
    /// carries mitigated raw/filtered distributions
    /// ([`crate::runtime::MitigatedOutcome`]).
    #[must_use]
    pub fn mitigator(mut self, mitigator: ReadoutMitigator) -> Self {
        self.mitigator = Some(mitigator);
        self
    }

    /// Enables or disables compiled-prefix reuse across this session's
    /// lowerings (on by default).
    ///
    /// Turn it off for one-shot sessions (a single run can never reuse
    /// a prefix, so registration is pure overhead) and for equivalence
    /// tests pinning reuse bit-identical to fresh compilation.
    #[must_use]
    pub fn prefix_reuse(mut self, reuse: bool) -> Self {
        self.prefix_reuse = reuse;
        self
    }

    /// Compiles through a shared [`PrefixRegistry`] instead of a
    /// session-owned one: sessions built around the same `Arc` reuse
    /// each other's compiled prefixes, the cross-tenant amortization
    /// the assertion server runs on (many users submitting variants of
    /// the same instrumented families).
    ///
    /// Sharing never changes results — prefix reuse is bit-identical
    /// to fresh compilation by construction — and telemetry stays
    /// exactly attributed: [`SessionTelemetry::prefix_hits`] counts
    /// only *this* session's reuses, not the registry-wide total.
    #[must_use]
    pub fn prefix_registry(mut self, registry: Arc<PrefixRegistry>) -> Self {
        self.prefixes = registry;
        self
    }

    /// The backend this session executes on.
    pub fn backend(&self) -> &B {
        &self.backend
    }

    /// The program cache this session compiles through.
    pub fn program_cache(&self) -> &ProgramCache {
        match &self.cache {
            CacheRef::Global => ProgramCache::global(),
            CacheRef::Borrowed(cache) => cache,
            CacheRef::Owned(cache) => cache,
        }
    }

    /// The session's effective configuration, for embedding in
    /// experiment reports ([`crate::ExperimentReport::push_session`]) so
    /// repro artifacts record how they were produced.
    pub fn record(&self) -> SessionRecord {
        SessionRecord {
            backend: self.backend.name().to_string(),
            backend_kind: self.backend.kind().as_str().to_string(),
            threads: self.threads,
            threads_effective: self.backend.effective_threads(self.threads),
            seed: self.seed,
            shots: self.plan.budget(),
            max_qubits: self.max_qubits.load(Ordering::Relaxed),
            plan: self.plan.to_string(),
            cache_capacity: self.program_cache().capacity(),
            simd: qsim::simd::active_backend().name().to_string(),
        }
    }

    /// A snapshot of this session's lifetime counters, plus the global
    /// shard pool's activity since this session was created
    /// (process-wide pool — see [`SessionTelemetry::pool_tasks`]).
    /// Reading counters never spawns the pool.
    pub fn telemetry(&self) -> SessionTelemetry {
        let pool = qsim::ShardPool::global_stats().since(&self.pool_baseline);
        SessionTelemetry {
            runs: self.runs.load(Ordering::Relaxed),
            shots: self.shots_run.load(Ordering::Relaxed),
            tranches: self.tranches_run.load(Ordering::Relaxed),
            early_stops: self.early_stops.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            cache_misses: self.cache_misses.load(Ordering::Relaxed),
            prefix_hits: self.prefix_hits.load(Ordering::Relaxed),
            batched_ops: self.batched_ops.load(Ordering::Relaxed),
            batch_passes: self.batch_passes.load(Ordering::Relaxed),
            pool_tasks: pool.tasks_run,
            pool_steals: pool.steals,
            simd_backend: qsim::simd::active_backend().name(),
        }
    }

    /// Records the first sight of a lowered key, bounding the memo;
    /// returns whether this call was the first.
    fn memo_first_sight(&self, key: ProgramKey) -> bool {
        let mut memo = self.registered.lock().expect("session lock");
        if memo.len() >= REGISTERED_MEMO_CAP && !memo.contains(&key) {
            // The prefix registry stops accepting new registrations at
            // the same cap, so stop attempting (and stop growing).
            return false;
        }
        memo.insert(key)
    }

    /// Lowers a circuit through the session's cache and prefix registry
    /// without executing it — sweep harnesses that evolve compiled
    /// programs directly (e.g. exact statevector evolution) use this to
    /// get compile-free, prefix-aware lowering with session telemetry.
    ///
    /// The program is bound to the backend's noise model and compile
    /// options, exactly like [`qsim::Backend::compile`].
    ///
    /// # Errors
    ///
    /// Returns [`AssertError::Sim`] when lowering fails.
    pub fn lower(&self, circuit: &QuantumCircuit) -> Result<Arc<CompiledProgram>, AssertError> {
        self.lower_traced(circuit).map(|(program, _)| program)
    }

    /// [`AssertionSession::lower`] additionally reporting what *this*
    /// call observed (cache hit vs miss, prefix reuse). Sweeps build
    /// per-point telemetry from these traces instead of shared-counter
    /// deltas, which would cross-attribute under concurrent use.
    fn lower_traced(
        &self,
        circuit: &QuantumCircuit,
    ) -> Result<(Arc<CompiledProgram>, LowerTrace), AssertError> {
        let noise = self.backend.noise_model();
        let options = self.backend.compile_options();
        let cache = self.program_cache();
        let noise_fp = *self
            .noise_fp
            .get_or_init(|| noise.map(qnoise::NoiseModel::fingerprint));
        let key = ProgramKey::from_fingerprint(circuit, noise_fp, options);
        if let Some(program) = cache.lookup(&key) {
            self.cache_hits.fetch_add(1, Ordering::Relaxed);
            if self.prefix_reuse && self.memo_first_sight(key) {
                // A cache-served program is still prefix fodder for
                // longer circuits later in the sweep (first sight only —
                // repeat hits skip the prefix-hash computation).
                self.prefixes
                    .register_with_fingerprint(circuit, noise_fp, options, &program);
            }
            return Ok((
                program,
                LowerTrace {
                    cache_hit: true,
                    prefix_hit: false,
                },
            ));
        }
        self.cache_misses.fetch_add(1, Ordering::Relaxed);
        let (program, prefix_hit) = if self.prefix_reuse {
            // The registry registers (and revives an eviction-killed
            // registration for) this circuit itself.
            let (compiled, reused) = self
                .prefixes
                .compile_traced_with_fingerprint(circuit, noise, noise_fp, options)?;
            self.memo_first_sight(key);
            if reused {
                self.prefix_hits.fetch_add(1, Ordering::Relaxed);
            }
            (compiled, reused)
        } else {
            (Arc::new(self.backend.compile(circuit)?), false)
        };
        Ok((
            cache.insert(key, program),
            LowerTrace {
                cache_hit: false,
                prefix_hit,
            },
        ))
    }

    /// The sequential test the session's verdicts evaluate under: the
    /// session's firing threshold at the plan's significance (fixed
    /// plans use [`DEFAULT_VERDICT_ALPHA`]).
    fn verdict_test(&self) -> SequentialTest {
        SequentialTest::new(
            self.threshold,
            self.plan.alpha().unwrap_or(DEFAULT_VERDICT_ALPHA),
        )
    }

    /// Lowers and executes a bare circuit, returning the raw backend
    /// result. Runs the plan's full budget in one backend call: a bare
    /// circuit carries no assertion records, so a sequential plan has no
    /// verdicts to stop on — use [`AssertionSession::run`] with the
    /// instrumented circuit for early termination.
    ///
    /// This is the entry point for circuits that were rewritten after
    /// instrumentation (e.g. transpiled to a device topology): run the
    /// native circuit here, then feed the result to
    /// [`AssertionSession::analyze`] with the original
    /// [`AssertingCircuit`].
    ///
    /// # Errors
    ///
    /// Returns [`AssertError::Sim`] when lowering or execution fails.
    pub fn run_circuit(&self, circuit: &QuantumCircuit) -> Result<RunResult, AssertError> {
        let program = self.lower(circuit)?;
        let shots = self.plan.budget();
        let raw = self
            .backend
            .run_compiled_seeded(&program, shots, self.seed, self.threads)?;
        self.record_run(&program, &PlanTrace::fixed(shots));
        Ok(raw)
    }

    /// Bumps the session's lifetime counters for one executed run.
    fn record_run(&self, program: &CompiledProgram, trace: &PlanTrace) {
        self.runs.fetch_add(1, Ordering::Relaxed);
        self.max_qubits
            .fetch_max(program.num_qubits() as u64, Ordering::Relaxed);
        self.shots_run
            .fetch_add(trace.shots_used, Ordering::Relaxed);
        self.tranches_run
            .fetch_add(trace.tranches, Ordering::Relaxed);
        if trace.stop == StopReason::Decided {
            self.early_stops.fetch_add(1, Ordering::Relaxed);
        }
        self.batched_ops
            .fetch_add(program.batched_ops() as u64, Ordering::Relaxed);
        self.batch_passes
            .fetch_add(program.batch_passes() as u64, Ordering::Relaxed);
    }

    /// Executes one instrumented program under the session's shot plan.
    ///
    /// [`ShotPlan::Fixed`] is exactly one backend call under
    /// `base_seed` — bit-identical to the pre-plan behavior, including
    /// `base_seed = None` deferring to the backend's own seed.
    /// [`ShotPlan::Sequential`] runs tranches, tranche `k` under
    /// [`qsim::tranche_seed`]`(base, k)` where `base` is `base_seed` or
    /// 0 (the derivation needs *some* base so tranches draw independent
    /// streams even on unseeded sessions), folds the accumulated counts
    /// into every assertion's sequential test once `min_shots` have
    /// been requested, and stops when all verdicts are decided or the
    /// budget runs out. The stop point is a pure function of the
    /// accumulated counts — never timing or worker count.
    ///
    /// A tranche that discards every shot
    /// ([`qsim::SimError::AllShotsDiscarded`]) contributes zero
    /// recorded shots but still counts against the budget; the error
    /// only propagates if *every* accumulated shot was discarded.
    fn run_planned(
        &self,
        program: &Arc<CompiledProgram>,
        asserting: &AssertingCircuit,
        base_seed: Option<u64>,
    ) -> Result<(RunResult, PlanTrace), AssertError> {
        let (raw, trace) = match self.plan {
            ShotPlan::Fixed(shots) => {
                let raw =
                    self.backend
                        .run_compiled_seeded(program, shots, base_seed, self.threads)?;
                (raw, PlanTrace::fixed(shots))
            }
            ShotPlan::Sequential {
                min_shots,
                max_shots,
                tranche,
                ..
            } => {
                let test = self.verdict_test();
                let base = base_seed.unwrap_or(0);
                let records = asserting.records();
                let mut accumulated: Option<RunResult> = None;
                let mut requested = 0u64;
                let mut discarded = 0u64;
                let mut tranches = 0u64;
                let mut stop = StopReason::Budget;
                while requested < max_shots {
                    let shots = tranche.min(max_shots - requested);
                    let seed = Some(tranche_seed(base, tranches as usize));
                    tranches += 1;
                    requested += shots;
                    match self
                        .backend
                        .run_compiled_seeded(program, shots, seed, self.threads)
                    {
                        Ok(result) => {
                            discarded += result.shots_discarded;
                            accumulated = Some(match accumulated {
                                Some(mut acc) => {
                                    acc.counts.absorb(result.counts);
                                    acc
                                }
                                None => result,
                            });
                        }
                        // A fully-discarded tranche is evidence, not
                        // failure: record zero kept shots and continue.
                        Err(SimError::AllShotsDiscarded) => discarded += shots,
                        Err(error) => return Err(error.into()),
                    }
                    if requested >= min_shots {
                        let total = accumulated.as_ref().map_or(0, |acc| acc.counts.total());
                        let all_decided = records.iter().all(|record| {
                            let fired = accumulated.as_ref().map_or(0, |acc| {
                                crate::filter::assertion_fired_shots(&acc.counts, &record.clbits)
                            });
                            test.evaluate(total, fired).decided()
                        });
                        if all_decided {
                            stop = StopReason::Decided;
                            break;
                        }
                    }
                }
                let mut raw = accumulated.ok_or(AssertError::Sim(SimError::AllShotsDiscarded))?;
                raw.shots_requested = requested;
                raw.shots_discarded = discarded;
                (
                    raw,
                    PlanTrace {
                        shots_used: requested,
                        tranches,
                        stop,
                    },
                )
            }
        };
        self.record_run(program, &trace);
        Ok((raw, trace))
    }

    /// Runs an instrumented circuit under the session's shot plan and
    /// analyzes its assertion outcomes under the session's filter and
    /// mitigation settings. Under [`ShotPlan::Sequential`] this is the
    /// early-terminating path: the run stops as soon as every
    /// assertion's verdict is decided, and the outcome's
    /// [`AssertionOutcome::plan`] records how it stopped.
    ///
    /// # Errors
    ///
    /// Returns [`AssertError::Sim`] when execution fails and
    /// [`AssertError::NoShotsKept`] when filtering removes every shot
    /// under [`FilterPolicy::RequireKept`].
    pub fn run(&self, asserting: &AssertingCircuit) -> Result<AssertionOutcome, AssertError> {
        let program = self.lower(asserting.circuit())?;
        let (raw, trace) = self.run_planned(&program, asserting, self.seed)?;
        self.analyze_traced(raw, asserting, trace)
    }

    /// Analyzes an existing backend result against an asserting
    /// circuit's records under the session's filter and mitigation
    /// settings (no execution — for results the caller produced, e.g.
    /// from a transpiled circuit via [`AssertionSession::run_circuit`]).
    /// The result is treated as one fixed run of `raw.shots_requested`
    /// shots.
    ///
    /// # Errors
    ///
    /// Returns [`AssertError::NoShotsKept`] when filtering removes every
    /// shot under [`FilterPolicy::RequireKept`].
    pub fn analyze(
        &self,
        raw: RunResult,
        asserting: &AssertingCircuit,
    ) -> Result<AssertionOutcome, AssertError> {
        let trace = PlanTrace::fixed(raw.shots_requested);
        self.analyze_traced(raw, asserting, trace)
    }

    /// [`AssertionSession::analyze`] with an explicit plan trace — the
    /// internal path for planned runs. Verdicts are recomputed from the
    /// final accumulated counts, which equals the tranche loop's stop
    /// state exactly because the sequential test is a pure function of
    /// the running totals.
    fn analyze_traced(
        &self,
        raw: RunResult,
        asserting: &AssertingCircuit,
        trace: PlanTrace,
    ) -> Result<AssertionOutcome, AssertError> {
        analyze_with_policy(
            raw,
            asserting,
            self.filter,
            self.mitigator.as_ref(),
            &self.verdict_test(),
            trace,
        )
    }

    /// The base seed sweep point `p` runs under. A fixed plan keeps the
    /// exact legacy semantics: derived only when the session has a seed,
    /// `None` (backend's own seed) otherwise. A sequential plan *always*
    /// derives — its tranche streams come from
    /// `tranche_seed(base, k)`, so without a per-point base every point
    /// of an unseeded sweep would replay the same streams.
    fn sweep_point_base_seed(&self, point: usize) -> Option<u64> {
        if self.plan.is_sequential() {
            Some(sweep_point_seed(self.seed.unwrap_or(0), point))
        } else {
            self.seed.map(|s| sweep_point_seed(s, point))
        }
    }

    /// Executes an already-lowered sweep point under the session's shot
    /// plan: point `p` runs under the base seed
    /// [`qsim::sweep_point_seed`]`(session_seed, p)` (see
    /// [`AssertionSession::sweep_point_base_seed`] for the unseeded
    /// cases), then analyzes under the session's filter and mitigation
    /// settings. Pure function of `(program, point, session config)`,
    /// which is what makes scheduling-independent sweeps possible.
    fn run_sweep_point(
        &self,
        program: &Arc<CompiledProgram>,
        point: usize,
        asserting: &AssertingCircuit,
    ) -> Result<AssertionOutcome, AssertError> {
        let base = self.sweep_point_base_seed(point);
        let (raw, trace) = self.run_planned(program, asserting, base)?;
        self.analyze_traced(raw, asserting, trace)
    }

    /// Runs a family of instrumented circuits, returning per-point
    /// outcomes plus the cache/prefix/pool telemetry aggregated over
    /// exactly this sweep.
    ///
    /// # The 2-D shot plan
    ///
    /// Every circuit is lowered **on the calling thread, in input
    /// order** (so the cache hit/miss sequence and prefix-extension
    /// chains are identical under every policy — circuits sharing a
    /// lowered prefix compile incrementally, see the module docs), then
    /// points execute according to the session's [`SweepPolicy`]:
    /// serially, or fanned out across the shard pool with each point's
    /// shot shards nested under the same latch group. Point `p` runs
    /// under the derived seed [`qsim::sweep_point_seed`]`(seed, p)`
    /// when the session has a seed (statistically independent streams
    /// per point), under the backend's own seed otherwise. Counts are
    /// **bit-identical** for any `(seed, threads, policy, worker
    /// count)`.
    ///
    /// # Telemetry
    ///
    /// Aggregated from per-point traces and the sweep's own pool latch
    /// group — not from shared-counter snapshots — so it stays exact
    /// even when other sweeps or sessions run concurrently.
    /// `pool_tasks`/`pool_steals` cover exactly this sweep's tasks
    /// (whole-point tasks under [`SweepPolicy::Parallel`] plus nested
    /// shot shards under either policy); `pool_steals` (and under
    /// `Parallel` also `pool_tasks`' split between stolen and home
    /// pops) is scheduling-dependent, every other field is
    /// deterministic.
    ///
    /// # Memory
    ///
    /// [`SweepPolicy::Serial`] streams — one lowered program is alive
    /// at a time beyond the cache, exactly like a hand-written
    /// lower/run loop. [`SweepPolicy::Parallel`] must materialize all
    /// lowered points before dispatch (worst case `O(points)` programs
    /// beyond the cache's LRU bound, released point by point as they
    /// finish executing) — prefer `Serial` for sweeps of very many
    /// very large distinct circuits.
    ///
    /// # Errors
    ///
    /// Returns the lowest-indexed point's error, if any. Under
    /// [`SweepPolicy::Serial`] the sweep stops at the first failure
    /// (points before it have executed, as in a hand-written loop);
    /// under [`SweepPolicy::Parallel`] a lowering error surfaces before
    /// anything executes, and an execution error does not prevent
    /// other points from executing first. Either way the `Err` carries
    /// no partial outcomes or telemetry.
    pub fn run_sweep<I>(&self, circuits: I) -> Result<SweepOutcome, AssertError>
    where
        I: IntoIterator<Item = AssertingCircuit>,
        B: Sync,
    {
        let circuits: Vec<AssertingCircuit> = circuits.into_iter().collect();
        if circuits.is_empty() {
            return Ok(SweepOutcome {
                points: Vec::new(),
                telemetry: SessionTelemetry::default(),
            });
        }
        let pool = match self.pool {
            Some(pool) => pool,
            None => ShardPool::global(),
        };
        // Either policy lowers on the calling thread, in input order,
        // accumulating exact per-call traces — so cache/prefix
        // telemetry (and prefix reuse itself) is policy-independent.
        // Run/shot/tranche accounting is assembled from per-point plan
        // traces *after* execution: under a sequential plan the shots a
        // point spends aren't known at lowering time.
        let mut telemetry = SessionTelemetry::default();
        let mut record_lowering = |trace: LowerTrace, program: &CompiledProgram| {
            telemetry.cache_hits += u64::from(trace.cache_hit);
            telemetry.cache_misses += u64::from(!trace.cache_hit);
            telemetry.prefix_hits += u64::from(trace.prefix_hit);
            telemetry.batched_ops += program.batched_ops() as u64;
            telemetry.batch_passes += program.batch_passes() as u64;
        };

        let (points, pool_stats) = match self.sweep_policy {
            SweepPolicy::Serial => {
                // Stream lower → run per point: one lowered program
                // alive at a time, the pre-parallel loop semantics.
                let mut points = Vec::with_capacity(circuits.len());
                let mut failure = None;
                let ((), pool_stats) = pool.scope(|scope| {
                    scope.run_attributed(|| {
                        for (point, asserting) in circuits.iter().enumerate() {
                            let attempt = self.lower_traced(asserting.circuit()).and_then(
                                |(program, trace)| {
                                    record_lowering(trace, &program);
                                    self.run_sweep_point(&program, point, asserting)
                                },
                            );
                            match attempt {
                                Ok(outcome) => points.push(outcome),
                                Err(error) => {
                                    failure = Some(error);
                                    break;
                                }
                            }
                        }
                    })
                });
                if let Some(error) = failure {
                    return Err(error);
                }
                (points, pool_stats)
            }
            SweepPolicy::Parallel => {
                // Phase 1 — lower every point up front (execution can't
                // start before its program exists); a lowering error
                // returns before anything executes.
                let mut programs: Vec<Mutex<Option<Arc<CompiledProgram>>>> =
                    Vec::with_capacity(circuits.len());
                for asserting in &circuits {
                    let (program, trace) = self.lower_traced(asserting.circuit())?;
                    record_lowering(trace, &program);
                    programs.push(Mutex::new(Some(program)));
                }

                // Phase 2 — execute the points under one pool latch
                // group, so the group's stats are exactly this sweep's
                // pool activity. Each task takes its program out of the
                // slot, releasing memory as the sweep progresses.
                let slots: Vec<Mutex<Option<Result<AssertionOutcome, AssertError>>>> =
                    circuits.iter().map(|_| Mutex::new(None)).collect();
                let ((), pool_stats) = pool.scope(|scope| {
                    let (slots, programs) = (&slots, &programs);
                    for (point, asserting) in circuits.iter().enumerate() {
                        scope.submit(move || {
                            let program = programs[point]
                                .lock()
                                .expect("program slot")
                                .take()
                                .expect("each point's program is taken once");
                            let result = self.run_sweep_point(&program, point, asserting);
                            *slots[point].lock().expect("sweep slot") = Some(result);
                        });
                    }
                });

                let mut points = Vec::with_capacity(slots.len());
                for slot in slots {
                    match slot.into_inner().expect("sweep slot") {
                        Some(Ok(outcome)) => points.push(outcome),
                        Some(Err(error)) => return Err(error),
                        None => unreachable!("scope drained with an unexecuted point"),
                    }
                }
                (points, pool_stats)
            }
        };
        // Run/shot/tranche accounting from the per-point plan traces —
        // exact under any plan, policy, or concurrent session activity.
        telemetry.runs = points.len() as u64;
        telemetry.shots = points.iter().map(|p| p.plan.shots_used).sum();
        telemetry.tranches = points.iter().map(|p| p.plan.tranches).sum();
        telemetry.early_stops = points
            .iter()
            .filter(|p| p.plan.stop == StopReason::Decided)
            .count() as u64;
        telemetry.pool_tasks = pool_stats.tasks_run;
        telemetry.pool_steals = pool_stats.steals;
        telemetry.simd_backend = qsim::simd::active_backend().name();
        Ok(SweepOutcome { points, telemetry })
    }
}

impl<B: Backend> std::fmt::Debug for AssertionSession<'_, B> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let t = self.telemetry();
        write!(
            f,
            "AssertionSession {{ backend: {:?}, plan: {}, threads: {:?}, runs: {}, \
             cache {}h/{}m, prefix_hits: {} }}",
            self.backend.name(),
            self.plan,
            self.threads,
            t.runs,
            t.cache_hits,
            t.cache_misses,
            t.prefix_hits
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assertion::Parity;
    use qcircuit::library;
    use qsim::{DensityMatrixBackend, StatevectorBackend, TrajectoryBackend};

    fn bell_assertion() -> AssertingCircuit {
        let mut ac = AssertingCircuit::new(library::bell());
        ac.assert_entangled([0, 1], Parity::Even).unwrap();
        ac.measure_data();
        ac
    }

    /// One θ point of a staged-assertion sweep: a program asserted after
    /// its first stage, and the same program grown by a second stage and
    /// a second assertion — the longer circuit's instruction stream
    /// extends the shorter's exactly (the assertion ancilla and clbit it
    /// adds widen the registers, which prefix reuse tolerates).
    fn theta_pair(theta: f64) -> (AssertingCircuit, AssertingCircuit) {
        let mut prep = QuantumCircuit::new(2, 0);
        prep.ry(theta, 0).unwrap();
        prep.cx(0, 1).unwrap();
        let mut first = AssertingCircuit::new(prep);
        first.assert_entangled([0, 1], Parity::Even).unwrap();
        let mut second = first.clone();
        second.circuit_mut().x(0).unwrap();
        second.circuit_mut().x(1).unwrap();
        second.assert_entangled([0, 1], Parity::Even).unwrap();
        (first, second)
    }

    #[test]
    #[should_panic(expected = "invalid shot plan")]
    fn zero_shot_fixed_plan_is_rejected_at_the_session() {
        // Regression: core validation owns the zero-budget rejection
        // (it used to live as a serve-side special case).
        let _ = AssertionSession::new(DensityMatrixBackend::ideal()).shots(0);
    }

    #[test]
    fn borrowed_and_owned_backends_agree() {
        let ac = bell_assertion();
        let backend = StatevectorBackend::new().with_seed(11);
        let owned = AssertionSession::new(backend.clone()).shots(300);
        let borrowed = AssertionSession::new(&backend).shots(300);
        let a = owned.run(&ac).unwrap();
        let b = borrowed.run(&ac).unwrap();
        assert_eq!(a.raw.counts, b.raw.counts);
    }

    #[test]
    fn threads_override_preserves_seeded_counts() {
        // `threads` fixes the shard split, so the session override must
        // reproduce a backend configured with the same count.
        let ac = bell_assertion();
        let noise = qnoise::presets::uniform(3, 0.01, 0.04, 0.02).unwrap();
        let configured = TrajectoryBackend::new(noise.clone())
            .with_seed(5)
            .with_threads(4);
        let overridden = AssertionSession::new(TrajectoryBackend::new(noise).with_seed(5))
            .threads(4)
            .shots(801);
        let a = AssertionSession::new(configured)
            .shots(801)
            .run(&ac)
            .unwrap();
        let b = overridden.run(&ac).unwrap();
        assert_eq!(a.raw.counts, b.raw.counts);
    }

    #[test]
    fn private_cache_isolates_accounting() {
        let ac = bell_assertion();
        let session = AssertionSession::new(StatevectorBackend::new().with_seed(2))
            .private_cache(4)
            .shots(100);
        session.run(&ac).unwrap();
        session.run(&ac).unwrap();
        let t = session.telemetry();
        assert_eq!((t.cache_hits, t.cache_misses), (1, 1));
        assert_eq!(t.runs, 2);
        assert_eq!(t.shots, 200);
        assert_eq!(session.program_cache().stats().entries, 1);
    }

    #[test]
    fn sweep_over_a_circuit_family_reuses_prefixes_bit_identically() {
        let circuits = |steps: usize| {
            let mut family = Vec::new();
            for step in 0..steps {
                let theta = step as f64 / steps as f64 * std::f64::consts::TAU;
                let (a, b) = theta_pair(theta);
                family.push(a);
                family.push(b);
            }
            family
        };
        let with_prefix = AssertionSession::new(StatevectorBackend::new().with_seed(3))
            .private_cache(64)
            .shots(128);
        let without_prefix = AssertionSession::new(StatevectorBackend::new().with_seed(3))
            .private_cache(64)
            .shots(128)
            .prefix_reuse(false);
        let a = with_prefix.run_sweep(circuits(6)).unwrap();
        let b = without_prefix.run_sweep(circuits(6)).unwrap();
        assert!(
            a.telemetry.prefix_hits >= 6,
            "each longer circuit should extend its θ's shorter one, got {}",
            a.telemetry.prefix_hits
        );
        assert_eq!(b.telemetry.prefix_hits, 0);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.outcomes().iter().zip(b.outcomes()) {
            assert_eq!(x.raw.counts, y.raw.counts, "prefix reuse changed counts");
            assert_eq!(x.kept, y.kept);
        }
    }

    #[test]
    fn sweep_telemetry_covers_exactly_the_sweep() {
        let session = AssertionSession::new(StatevectorBackend::new().with_seed(4))
            .private_cache(16)
            .shots(64);
        session.run(&bell_assertion()).unwrap(); // outside the sweep
        let sweep = session
            .run_sweep(vec![bell_assertion(), bell_assertion()])
            .unwrap();
        assert_eq!(sweep.len(), 2);
        assert_eq!(sweep.telemetry.runs, 2);
        assert_eq!(sweep.telemetry.shots, 128);
        assert_eq!(sweep.telemetry.tranches, 2);
        assert_eq!(sweep.telemetry.early_stops, 0);
        assert_eq!(sweep.shots_used(), 128);
        // Both sweep points hit the program cached by the pre-sweep run.
        assert_eq!(sweep.telemetry.cache_hits, 2);
        assert_eq!(sweep.telemetry.cache_misses, 0);
    }

    #[test]
    fn lower_is_compile_free_on_repeat_and_feeds_statevector_evolution() {
        let backend = StatevectorBackend::new();
        let session = AssertionSession::new(&backend).private_cache(8);
        let mut prep = QuantumCircuit::new(2, 0);
        prep.ry(0.9, 0).unwrap();
        prep.cx(0, 1).unwrap();
        let p1 = session.lower(&prep).unwrap();
        let p2 = session.lower(&prep).unwrap();
        assert!(Arc::ptr_eq(&p1, &p2));
        let psi = backend.statevector_compiled(&p1).unwrap();
        let direct = backend.statevector(&prep).unwrap();
        for i in 0..4 {
            assert_eq!(psi.amplitude(i), direct.amplitude(i));
        }
    }

    #[test]
    fn record_reports_the_effective_configuration() {
        let session = AssertionSession::new(DensityMatrixBackend::ideal())
            .shots(4096)
            .threads(3)
            .private_cache(32);
        let record = session.record();
        assert_eq!(record.backend, "density matrix (exact ideal)");
        // The requested override is recorded even though the exact
        // backend ignores it; threads_effective carries what took hold.
        assert_eq!(record.threads, Some(3));
        assert_eq!(record.threads_effective, None);
        assert_eq!(record.shots, 4096);
        assert_eq!(record.plan, "fixed(4096)");
        assert_eq!(record.cache_capacity, 32);
        let sharded = AssertionSession::new(StatevectorBackend::new())
            .threads(3)
            .record();
        assert_eq!(sharded.threads, Some(3));
        assert_eq!(sharded.threads_effective, Some(3));
        let sequential = AssertionSession::new(DensityMatrixBackend::ideal())
            .shot_plan(ShotPlan::sequential(0.05))
            .record();
        assert_eq!(sequential.shots, 8192);
        assert_eq!(
            sequential.plan,
            "sequential(alpha=0.05, min=64, max=8192, tranche=256)"
        );
    }

    #[test]
    fn mitigator_attaches_mitigated_distributions() {
        use qnoise::ReadoutError;
        let mut base = QuantumCircuit::new(1, 0);
        base.h(0).unwrap();
        let mut ac = AssertingCircuit::new(base);
        ac.assert_classical([0], [false]).unwrap();
        ac.measure_data();
        let mut noise = qnoise::NoiseModel::new();
        for q in 0..2 {
            noise.with_readout_error(q, ReadoutError::new(0.05, 0.05).unwrap());
        }
        let mitigator = ReadoutMitigator::from_noise_model(
            &noise,
            &[qcircuit::QubitId::new(1), qcircuit::QubitId::new(0)],
        );
        let backend = DensityMatrixBackend::new(noise);
        let session = AssertionSession::new(backend)
            .shots(1 << 14)
            .mitigator(mitigator);
        let outcome = session.run(&ac).unwrap();
        let mitigated = outcome.mitigated.as_ref().expect("mitigator attached");
        assert_eq!(mitigated.probs.len(), 4);
        let sum: f64 = mitigated.probs.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
        let kept_sum: f64 = mitigated.kept.iter().sum();
        assert!((kept_sum - 1.0).abs() < 1e-9);
        // Filtered mass only on outcomes whose assertion bit is clear.
        for (k, p) in mitigated.kept.iter().enumerate() {
            if k & 1 == 1 {
                assert_eq!(*p, 0.0);
            }
        }
    }

    #[test]
    fn telemetry_merge_and_hit_rate() {
        let mut a = SessionTelemetry {
            runs: 2,
            shots: 100,
            tranches: 2,
            early_stops: 0,
            cache_hits: 3,
            cache_misses: 1,
            prefix_hits: 1,
            batched_ops: 10,
            batch_passes: 2,
            pool_tasks: 8,
            pool_steals: 1,
            simd_backend: "",
        };
        let b = SessionTelemetry {
            runs: 1,
            shots: 50,
            tranches: 4,
            early_stops: 1,
            cache_hits: 1,
            cache_misses: 3,
            prefix_hits: 0,
            batched_ops: 5,
            batch_passes: 1,
            pool_tasks: 4,
            pool_steals: 0,
            simd_backend: "avx2",
        };
        a.merge(&b);
        assert_eq!(a.runs, 3);
        assert_eq!(a.shots, 150);
        assert_eq!(a.tranches, 6);
        assert_eq!(a.early_stops, 1);
        assert_eq!(a.batched_ops, 15);
        assert_eq!(a.batch_passes, 3);
        assert_eq!(a.pool_tasks, 12);
        assert_eq!(a.pool_steals, 1);
        // An empty backend slot takes the merged-in one.
        assert_eq!(a.simd_backend, "avx2");
        assert!((a.hit_rate() - 0.5).abs() < 1e-12);
        assert_eq!(SessionTelemetry::default().hit_rate(), 0.0);
    }

    #[test]
    fn seed_override_matches_a_reseeded_backend() {
        // One session per seed over a *borrowed* backend must reproduce
        // rebuilding the backend with that seed — the point of the
        // per-run seed hook.
        let ac = bell_assertion();
        let noise = qnoise::presets::uniform(3, 0.01, 0.04, 0.02).unwrap();
        let proto = TrajectoryBackend::new(noise.clone());
        for seed in [0u64, 7, 1234] {
            let via_session = AssertionSession::new(&proto)
                .seed(seed)
                .shots(301)
                .run(&ac)
                .unwrap();
            let via_backend =
                AssertionSession::new(TrajectoryBackend::new(noise.clone()).with_seed(seed))
                    .shots(301)
                    .run(&ac)
                    .unwrap();
            assert_eq!(
                via_session.raw.counts, via_backend.raw.counts,
                "seed {seed}"
            );
        }
    }

    #[test]
    fn sweep_policies_and_worker_counts_agree_bit_identically() {
        let noise = qnoise::presets::uniform(3, 0.01, 0.04, 0.02).unwrap();
        let family = || {
            (0..5)
                .map(|i| {
                    let mut prep = QuantumCircuit::new(2, 0);
                    prep.ry(0.3 + i as f64 * 0.4, 0).unwrap();
                    prep.cx(0, 1).unwrap();
                    let mut ac = AssertingCircuit::new(prep);
                    ac.assert_entangled([0, 1], Parity::Even).unwrap();
                    ac.measure_data();
                    ac
                })
                .collect::<Vec<_>>()
        };
        let backend = TrajectoryBackend::new(noise);
        let reference = AssertionSession::new(&backend)
            .private_cache(16)
            .shots(150)
            .seed(9)
            .threads(2)
            .sweep_policy(SweepPolicy::Serial)
            .run_sweep(family())
            .unwrap();
        for workers in [0, 3] {
            let pool = qsim::ShardPool::new(workers);
            let sweep = AssertionSession::new(&backend)
                .private_cache(16)
                .shots(150)
                .seed(9)
                .threads(2)
                .sweep_policy(SweepPolicy::Parallel)
                .pool(&pool)
                .run_sweep(family())
                .unwrap();
            assert_eq!(sweep.len(), reference.len());
            for (a, b) in sweep.outcomes().iter().zip(reference.outcomes()) {
                assert_eq!(a.raw.counts, b.raw.counts, "{workers} workers");
                assert_eq!(a.kept, b.kept);
            }
            // Deterministic telemetry fields agree exactly; pool fields
            // differ by construction (parallel adds the point tasks) and
            // steals are scheduling-dependent.
            assert_eq!(sweep.telemetry.runs, reference.telemetry.runs);
            assert_eq!(sweep.telemetry.shots, reference.telemetry.shots);
            assert_eq!(sweep.telemetry.cache_hits, reference.telemetry.cache_hits);
            assert_eq!(
                sweep.telemetry.cache_misses,
                reference.telemetry.cache_misses
            );
            assert_eq!(sweep.telemetry.prefix_hits, reference.telemetry.prefix_hits);
        }
    }

    #[test]
    fn sweep_derives_independent_per_point_seeds() {
        // With a session seed, point p must run under
        // sweep_point_seed(seed, p) — reproducible by a single-run
        // session configured with that exact seed — and distinct points
        // draw distinct streams even for identical circuits.
        let noise = qnoise::presets::uniform(3, 0.01, 0.05, 0.02).unwrap();
        let backend = TrajectoryBackend::new(noise);
        let ac = bell_assertion();
        let sweep = AssertionSession::new(&backend)
            .private_cache(4)
            .shots(300)
            .seed(42)
            .run_sweep(vec![ac.clone(), ac.clone()])
            .unwrap();
        for point in sweep.iter() {
            let isolated = AssertionSession::new(&backend)
                .private_cache(4)
                .shots(300)
                .seed(qsim::sweep_point_seed(42, point.index()))
                .run(&ac)
                .unwrap();
            assert_eq!(
                point.outcome().raw.counts,
                isolated.raw.counts,
                "point {}",
                point.index()
            );
        }
        assert_ne!(
            sweep.outcomes()[0].raw.counts,
            sweep.outcomes()[1].raw.counts,
            "identical circuits at different points must draw distinct streams"
        );
    }

    #[test]
    fn concurrent_sweeps_keep_exact_pool_telemetry() {
        // The satellite regression: two sweeps running concurrently on
        // one process must each report exactly their own pool activity
        // (latch-group attribution), not racy global-counter deltas
        // that cross-count each other's tasks. With .threads(2) every
        // point contributes 1 point task + 2 shard tasks = 3.
        let noise = qnoise::presets::uniform(3, 0.01, 0.04, 0.02).unwrap();
        let backend = TrajectoryBackend::new(noise);
        let family = |n: usize| {
            (0..n)
                .map(|_| bell_assertion())
                .collect::<Vec<AssertingCircuit>>()
        };
        std::thread::scope(|threads| {
            for n in [4usize, 9] {
                let backend = &backend;
                threads.spawn(move || {
                    let sweep = AssertionSession::new(backend)
                        .private_cache(4)
                        .shots(64)
                        .threads(2)
                        .run_sweep(family(n))
                        .unwrap();
                    assert_eq!(
                        sweep.telemetry.pool_tasks,
                        3 * n as u64,
                        "sweep of {n} points must count exactly its own tasks"
                    );
                });
            }
        });
    }

    #[test]
    fn batched_telemetry_counts_per_run() {
        // A wide ideal layer batches; two runs double the counters.
        let mut prep = QuantumCircuit::new(4, 0);
        for _ in 0..2 {
            for q in 0..4 {
                prep.h(q).unwrap();
            }
            for q in 0..2 {
                prep.cx(q, q + 2).unwrap();
            }
        }
        let mut ac = AssertingCircuit::new(prep);
        ac.assert_classical([0], [false]).unwrap();
        ac.measure_data();
        let session = AssertionSession::new(StatevectorBackend::new().with_seed(1))
            .private_cache(4)
            .shots(64);
        session.run(&ac).unwrap();
        let t1 = session.telemetry();
        assert!(t1.batched_ops > 0, "wide layers must batch");
        assert!(t1.batch_passes > 0);
        session.run(&ac).unwrap();
        let t2 = session.telemetry();
        assert_eq!(t2.batched_ops, 2 * t1.batched_ops);
        assert_eq!(t2.batch_passes, 2 * t1.batch_passes);
    }

    /// A bell pair asserted with the *wrong* parity: the assertion fires
    /// on essentially every shot, the clearest possible violation.
    fn violated_bell_assertion() -> AssertingCircuit {
        let mut ac = AssertingCircuit::new(library::bell());
        ac.assert_entangled([0, 1], Parity::Odd).unwrap();
        ac.measure_data();
        ac
    }

    #[test]
    fn sequential_plan_stops_clear_cut_runs_early() {
        let plan = ShotPlan::Sequential {
            alpha: 0.05,
            min_shots: 64,
            max_shots: 4096,
            tranche: 64,
        };
        let session = AssertionSession::new(StatevectorBackend::new())
            .private_cache(4)
            .shot_plan(plan)
            .seed(7);
        let outcome = session.run(&bell_assertion()).unwrap();
        assert_eq!(outcome.plan.stop, StopReason::Decided);
        assert!(
            outcome.plan.shots_used < 4096,
            "a clean run must stop before the budget, used {}",
            outcome.plan.shots_used
        );
        assert_eq!(outcome.plan.tranches, outcome.plan.shots_used / 64);
        assert_eq!(
            outcome.verdicts[0].verdict,
            crate::statistical::AssertionVerdict::Holds
        );
        assert!(outcome.decided());
        let t = session.telemetry();
        assert_eq!(t.runs, 1);
        assert_eq!(t.shots, outcome.plan.shots_used);
        assert_eq!(t.tranches, outcome.plan.tranches);
        assert_eq!(t.early_stops, 1);

        // A violated assertion fires on every shot — one tranche past
        // the floor decides it.
        let violated = AssertionSession::new(StatevectorBackend::new())
            .private_cache(4)
            .filter_policy(FilterPolicy::AllowEmpty)
            .shot_plan(plan)
            .seed(7)
            .run(&violated_bell_assertion())
            .unwrap();
        assert_eq!(violated.plan.stop, StopReason::Decided);
        assert_eq!(violated.plan.shots_used, 64);
        assert_eq!(
            violated.verdicts[0].verdict,
            crate::statistical::AssertionVerdict::Violated
        );
    }

    #[test]
    fn sequential_plan_exhausts_budget_near_the_threshold() {
        // A state firing at exactly the 10% verdict threshold can never
        // decide; the plan must stop at max_shots with Budget.
        let theta = 2.0 * (0.1f64.sqrt()).asin();
        let mut prep = QuantumCircuit::new(2, 0);
        prep.ry(theta, 0).unwrap();
        let mut ac = AssertingCircuit::new(prep);
        ac.assert_entangled([0, 1], Parity::Even).unwrap();
        ac.measure_data();
        let outcome = AssertionSession::new(StatevectorBackend::new())
            .private_cache(4)
            .shot_plan(ShotPlan::Sequential {
                alpha: 0.05,
                min_shots: 64,
                max_shots: 512,
                tranche: 64,
            })
            .seed(3)
            .run(&ac)
            .unwrap();
        assert_eq!(outcome.plan.stop, StopReason::Budget);
        assert_eq!(outcome.plan.shots_used, 512);
        assert_eq!(outcome.plan.tranches, 8);
        assert!(!outcome.decided());
        assert_eq!(
            outcome.verdicts[0].verdict,
            crate::statistical::AssertionVerdict::Undecided
        );
    }

    #[test]
    fn sequential_verdicts_match_fixed_plan_verdicts() {
        // Early termination must never change *what* is decided, only
        // how many shots it takes: a clear-cut circuit gets the same
        // verdict from a sequential plan and a full fixed budget.
        for (ac, expected) in [
            (
                bell_assertion(),
                crate::statistical::AssertionVerdict::Holds,
            ),
            (
                violated_bell_assertion(),
                crate::statistical::AssertionVerdict::Violated,
            ),
        ] {
            let sequential = AssertionSession::new(StatevectorBackend::new())
                .private_cache(4)
                .filter_policy(FilterPolicy::AllowEmpty)
                .shot_plan(ShotPlan::Sequential {
                    alpha: 0.05,
                    min_shots: 64,
                    max_shots: 2048,
                    tranche: 64,
                })
                .seed(11)
                .run(&ac)
                .unwrap();
            let fixed = AssertionSession::new(StatevectorBackend::new())
                .private_cache(4)
                .filter_policy(FilterPolicy::AllowEmpty)
                .shots(2048)
                .seed(11)
                .run(&ac)
                .unwrap();
            assert_eq!(sequential.verdicts[0].verdict, expected);
            assert_eq!(fixed.verdicts[0].verdict, expected);
            assert!(sequential.plan.shots_used < fixed.plan.shots_used);
        }
    }

    #[test]
    fn sequential_sweeps_are_policy_and_worker_independent() {
        // The determinism contract extended to sequential plans: for a
        // fixed (seed, plan, threads), per-point counts, shots_used,
        // tranches, and stop reasons are bit-identical under every
        // sweep policy and worker count.
        let noise = qnoise::presets::uniform(3, 0.005, 0.02, 0.01).unwrap();
        let backend = TrajectoryBackend::new(noise);
        let family = || {
            (0..6)
                .map(|i| {
                    let mut prep = QuantumCircuit::new(2, 0);
                    prep.ry(0.2 + i as f64 * 0.5, 0).unwrap();
                    prep.cx(0, 1).unwrap();
                    let mut ac = AssertingCircuit::new(prep);
                    ac.assert_entangled([0, 1], Parity::Even).unwrap();
                    ac.measure_data();
                    ac
                })
                .collect::<Vec<_>>()
        };
        let plan = ShotPlan::Sequential {
            alpha: 0.05,
            min_shots: 64,
            max_shots: 1024,
            tranche: 64,
        };
        let reference = AssertionSession::new(&backend)
            .private_cache(16)
            .shot_plan(plan)
            .seed(13)
            .threads(2)
            .sweep_policy(SweepPolicy::Serial)
            .run_sweep(family())
            .unwrap();
        assert!(
            reference.telemetry.early_stops > 0,
            "clean family points must stop early"
        );
        for workers in [0, 3] {
            let pool = qsim::ShardPool::new(workers);
            let sweep = AssertionSession::new(&backend)
                .private_cache(16)
                .shot_plan(plan)
                .seed(13)
                .threads(2)
                .sweep_policy(SweepPolicy::Parallel)
                .pool(&pool)
                .run_sweep(family())
                .unwrap();
            assert_eq!(sweep.len(), reference.len());
            for (a, b) in sweep.iter().zip(reference.iter()) {
                assert_eq!(
                    a.outcome().raw.counts,
                    b.outcome().raw.counts,
                    "{workers} workers, point {}",
                    a.index()
                );
                assert_eq!(a.shots_used(), b.shots_used());
                assert_eq!(a.tranches(), b.tranches());
                assert_eq!(a.stop(), b.stop());
                assert_eq!(
                    a.verdicts()[0].verdict,
                    b.verdicts()[0].verdict,
                    "{workers} workers"
                );
            }
            assert_eq!(sweep.telemetry.shots, reference.telemetry.shots);
            assert_eq!(sweep.telemetry.tranches, reference.telemetry.tranches);
            assert_eq!(sweep.telemetry.early_stops, reference.telemetry.early_stops);
            assert_eq!(sweep.shots_used(), reference.shots_used());
        }
    }

    #[test]
    fn unseeded_sequential_sweep_points_draw_distinct_streams() {
        // Without a session seed a sequential sweep still derives
        // per-point bases (from 0): identical circuits at different
        // points must not replay the same tranche streams.
        let noise = qnoise::presets::uniform(3, 0.01, 0.05, 0.02).unwrap();
        let backend = TrajectoryBackend::new(noise);
        let ac = bell_assertion();
        let sweep = AssertionSession::new(&backend)
            .private_cache(4)
            .shot_plan(ShotPlan::Sequential {
                alpha: 0.05,
                min_shots: 256,
                max_shots: 256,
                tranche: 64,
            })
            .run_sweep(vec![ac.clone(), ac])
            .unwrap();
        assert_ne!(
            sweep.outcomes()[0].raw.counts,
            sweep.outcomes()[1].raw.counts,
            "unseeded sequential points must still draw distinct streams"
        );
    }
}
