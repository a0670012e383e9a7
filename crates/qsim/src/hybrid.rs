//! Hybrid Clifford routing: tableau prefix, amplitude suffix.
//!
//! Assertion-instrumented circuits are typically Clifford-dominated —
//! long runs of H/CX/S dressing, parity checks and mid-circuit
//! measurements — with a small non-Clifford island (a `T` rotation, an
//! arbitrary-angle phase) near the end. The pure backends force a
//! whole-circuit choice: the stabilizer tableau rejects the island, the
//! statevector pays `O(2^n)` for every prefix gate. [`HybridBackend`]
//! routes instead of choosing: the **maximal Clifford prefix** (recorded
//! at compile time by the eligibility scan, carried on the
//! [`CompiledProgram`] as a [`HybridPlan`]) runs per shot on the
//! Aaronson–Gottesman tableau, the live state is materialized as
//! amplitudes at the cut ([`Tableau::to_statevector`] — deterministic
//! Gaussian elimination, no RNG), and the separately compiled suffix
//! finishes the shot on the amplitude executor, batched/SIMD kernels
//! included.
//!
//! # Routing decisions (all at compile time)
//!
//! * **Pure Clifford program** — delegates to the tableau harness
//!   end-to-end, bit-identical to [`crate::StabilizerBackend`] with the
//!   same `(seed, threads)`; zero handoff, so thousands of qubits keep
//!   working.
//! * **Profitable [`HybridPlan`]** within [`MAX_HANDOFF_QUBITS`] — the
//!   tableau-prefix + amplitude-suffix path below.
//! * **Anything else** (empty or unprofitable prefix, noisy programs
//!   whose channels defeat the cost model) — falls back to the pure
//!   amplitude path, bit-identical to [`StatevectorBackend`] with the
//!   same `(seed, threads)`.
//! * A non-Clifford program **wider than [`MAX_HANDOFF_QUBITS`]** cannot be
//!   materialized on any amplitude substrate; it fails with
//!   [`SimError::NotClifford`] naming the blocking instruction, before
//!   any shot runs.
//!
//! # Bit-exactness contract
//!
//! Hybrid counts are a pure function of `(program, seed, threads)` —
//! the shot split and per-shard streams come from the same
//! [`crate::shard_seed`] harness as every per-shot backend. Each shot
//! draws its prefix, handoff marker and suffix per the frozen contract
//! of [`crate::Draws`], pinned by golden seed-stream vectors.
//!
//! The backend walks the program's hybrid outcome tree
//! ([`crate::tree`]), so a warm shot replays a recorded path instead of
//! running the prefix, the handoff and the suffix;
//! [`run_hybrid_sharded`] runs every shot in full, with equal counts.
//!
//! Because the tableau and amplitude executors burn entropy
//! differently, hybrid counts agree with the pure statevector backend
//! **distributionally**, not bit-for-bit; the equivalence suite pins
//! the TVD. Counts on the fallback paths *are* bit-identical to the
//! backend they delegate to.

use crate::compile::CompileOptions;
use crate::counts::Counts;
use crate::draws::Draws;
use crate::error::SimError;
use crate::executor::{
    run_compiled_from, run_sharded_generic_on, Backend, BackendKind, RunResult, StatevectorBackend,
};
use crate::pool::ShardPool;
use crate::program::{CompiledProgram, HybridPlan};
use crate::stabilizer::{run_clifford, run_clifford_shot, Tableau};
use crate::tree::OutcomeTree;
use qnoise::NoiseModel;

/// Widest register the amplitude handoff can materialize
/// ([`crate::StateVector`] stops at 29 qubits).
pub const MAX_HANDOFF_QUBITS: usize = 29;

/// One routed shot: the prefix on the shard's tableau, the handoff
/// marker, then the suffix on a fresh statevector extracted at the cut.
fn hybrid_shot<D: Draws + ?Sized>(
    plan: &HybridPlan,
    tableau: &mut Tableau,
    draws: &mut D,
) -> Result<Option<u64>, SimError> {
    let Some(mut clbits) = run_clifford_shot(plan.prefix(), tableau, draws) else {
        return Ok(None);
    };
    draws.marker();
    let mut state = tableau.to_statevector();
    let kept = run_compiled_from(plan.suffix(), &mut state, &mut clbits, draws)?;
    Ok(kept.then_some(clbits))
}

/// The routed path: `plan`'s Clifford prefix on a tableau, the handoff,
/// and the amplitude suffix, per shot, sharded like
/// [`crate::run_compiled_sharded`]. [`HybridBackend`] runs this same
/// path on a program's outcome tree; this entry point runs every shot
/// in full.
///
/// # Errors
///
/// Returns [`SimError::NotClifford`] naming the plan's blocking
/// instruction when the program is wider than [`MAX_HANDOFF_QUBITS`],
/// before any shot runs; otherwise propagates the first shard's
/// [`SimError`].
pub fn run_hybrid_sharded(
    plan: &HybridPlan,
    shots: u64,
    seed: u64,
    threads: usize,
) -> Result<(Counts, u64), SimError> {
    run_hybrid(plan, None, shots, seed, threads)
}

/// [`run_hybrid_sharded`], walking `tree` when given.
fn run_hybrid(
    plan: &HybridPlan,
    tree: Option<&OutcomeTree>,
    shots: u64,
    seed: u64,
    threads: usize,
) -> Result<(Counts, u64), SimError> {
    let prefix = plan.prefix();
    if prefix.num_qubits() > MAX_HANDOFF_QUBITS {
        return Err(SimError::NotClifford(plan.block().clone()));
    }
    run_sharded_generic_on(
        ShardPool::global(),
        prefix.num_clbits(),
        shots,
        seed,
        threads,
        tree,
        || Tableau::new(prefix.num_qubits()),
        |tableau, draws| hybrid_shot(plan, tableau, draws),
    )
}

/// Hybrid Clifford-routing backend (see [module docs](self)).
///
/// Compiles through the shared pipeline — cached programs are shared
/// with every other backend, and the routing verdict (Clifford
/// lowering, [`HybridPlan`], cost model) is part of the compilation —
/// so `ProgramCache`, `ShardPool`, sweeps, sessions and serve compose
/// unchanged.
///
/// # Example
///
/// ```
/// use qsim::{Backend, HybridBackend};
/// use qcircuit::QuantumCircuit;
///
/// # fn main() -> Result<(), qsim::SimError> {
/// // Clifford-dominated circuit with one non-Clifford island.
/// let mut qc = QuantumCircuit::new(4, 4);
/// for q in 0..4 {
///     qc.h(q)?;
/// }
/// for q in 0..3 {
///     qc.cx(q, q + 1)?;
/// }
/// qc.t(0)?; // the island: the eligibility scan cuts here
/// qc.measure_all();
/// let result = HybridBackend::ideal().with_seed(7).run(&qc, 256)?;
/// assert_eq!(result.counts.total(), 256);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct HybridBackend {
    noise: Option<NoiseModel>,
    seed: u64,
    threads: usize,
}

impl HybridBackend {
    /// An ideal (noise-free) hybrid backend.
    pub fn ideal() -> Self {
        HybridBackend {
            noise: None,
            seed: 0,
            threads: 1,
        }
    }

    /// A noisy hybrid backend: `noise` is bound at compile time, so
    /// Pauli channels in the prefix become tableau injections and
    /// channels in the suffix stay Kraus samples. Non-Pauli channels in
    /// the prefix shrink it (the eligibility scan stops there).
    pub fn new(noise: NoiseModel) -> Self {
        HybridBackend {
            noise: Some(noise),
            seed: 0,
            threads: 1,
        }
    }

    /// Sets the RNG seed (default 0). Runs with equal
    /// `(program, seed, threads)` produce bit-identical counts.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the shard count (default 1). Like the other per-shot
    /// backends this fixes the seed derivation, not the worker count.
    ///
    /// # Panics
    ///
    /// Panics when `threads` is 0.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        assert!(threads > 0, "thread count must be at least 1");
        self.threads = threads;
        self
    }
}

impl Default for HybridBackend {
    fn default() -> Self {
        HybridBackend::ideal()
    }
}

impl Backend for HybridBackend {
    fn name(&self) -> &str {
        match &self.noise {
            Some(_) => "hybrid (noisy clifford routing)",
            None => "hybrid (ideal clifford routing)",
        }
    }

    fn kind(&self) -> BackendKind {
        BackendKind::Hybrid
    }

    fn noise_model(&self) -> Option<&NoiseModel> {
        self.noise.as_ref()
    }

    fn compile_options(&self) -> CompileOptions {
        CompileOptions::default()
    }

    fn run_compiled_seeded(
        &self,
        program: &CompiledProgram,
        shots: u64,
        seed: Option<u64>,
        threads: Option<usize>,
    ) -> Result<RunResult, SimError> {
        let seed = seed.unwrap_or(self.seed);
        let threads = threads.unwrap_or(self.threads);

        // Pure Clifford: the tableau runs the whole program, zero
        // handoff — bit-identical to StabilizerBackend.
        let block = match program.clifford() {
            Ok(clifford) => {
                return RunResult::from_shots(
                    shots,
                    run_clifford(
                        ShardPool::global(),
                        clifford,
                        Some(&program.trees().tableau),
                        shots,
                        seed,
                        threads,
                    )?,
                );
            }
            Err(block) => block,
        };
        if program.num_qubits() > MAX_HANDOFF_QUBITS {
            return Err(SimError::NotClifford(block.clone()));
        }
        match program.hybrid() {
            Some(plan) if plan.profitable() => RunResult::from_shots(
                shots,
                run_hybrid(plan, Some(&program.trees().hybrid), shots, seed, threads)?,
            ),
            // Fallback: the whole program on amplitudes, bit-identical
            // to StatevectorBackend with the same (seed, threads).
            _ => StatevectorBackend::new()
                .with_seed(seed)
                .with_threads(threads)
                .run_compiled(program, shots),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcircuit::{library, QuantumCircuit};

    // Clifford-dominated 12-qubit circuit with one non-Clifford island:
    // wide enough that a tableau pass is cheap next to a 4096-amplitude
    // pass, so the cost model routes it.
    fn clifford_island_circuit() -> QuantumCircuit {
        let n = 12;
        let mut qc = QuantumCircuit::new(n, n);
        for q in 0..n {
            qc.h(q).unwrap();
        }
        for _ in 0..2 {
            for q in 0..n - 1 {
                qc.cx(q, q + 1).unwrap();
            }
            for q in 0..n {
                qc.s(q).unwrap();
            }
        }
        qc.t(0).unwrap(); // non-Clifford island
        qc.h(0).unwrap();
        qc.measure_all();
        qc
    }

    #[test]
    fn pure_clifford_matches_stabilizer_bit_for_bit() {
        let mut bell = library::bell();
        bell.measure_all();
        let hybrid = HybridBackend::ideal()
            .with_seed(11)
            .with_threads(3)
            .run(&bell, 500)
            .unwrap();
        let stab = crate::StabilizerBackend::ideal()
            .with_seed(11)
            .with_threads(3)
            .run(&bell, 500)
            .unwrap();
        assert_eq!(hybrid.counts, stab.counts);
    }

    #[test]
    fn routed_program_reports_a_profitable_plan() {
        let qc = clifford_island_circuit();
        let program = HybridBackend::ideal().compile(&qc).unwrap();
        let plan = program.hybrid().expect("clifford prefix recorded");
        assert!(plan.profitable(), "58-op clifford prefix should route");
        // 12 H + 2 rounds of (11 CX + 12 S) come before the island.
        assert_eq!(plan.boundary(), 58);
    }

    #[test]
    fn hybrid_counts_are_seed_deterministic() {
        let qc = clifford_island_circuit();
        let a = HybridBackend::ideal()
            .with_seed(42)
            .with_threads(4)
            .run(&qc, 400)
            .unwrap();
        let b = HybridBackend::ideal()
            .with_seed(42)
            .with_threads(4)
            .run(&qc, 400)
            .unwrap();
        assert_eq!(a.counts, b.counts);
    }

    #[test]
    fn unprofitable_prefix_falls_back_to_statevector_bit_for_bit() {
        // One Clifford gate before the island: the cost model keeps the
        // amplitude path, so counts match StatevectorBackend exactly.
        let mut qc = QuantumCircuit::new(2, 2);
        qc.h(0).unwrap();
        qc.t(0).unwrap();
        qc.cx(0, 1).unwrap();
        qc.measure_all();
        let program = HybridBackend::ideal().compile(&qc).unwrap();
        if let Some(plan) = program.hybrid() {
            assert!(!plan.profitable());
        }
        let hybrid = HybridBackend::ideal().with_seed(5).run(&qc, 300).unwrap();
        let sv = StatevectorBackend::new()
            .with_seed(5)
            .run(&qc, 300)
            .unwrap();
        assert_eq!(hybrid.counts, sv.counts);
    }

    #[test]
    fn over_width_non_clifford_program_errors_before_running() {
        // One qubit wider than any amplitude substrate holds: neither the
        // handoff nor the statevector fallback can run it, so execution
        // fails with the blocking T before any state is allocated.
        let n = MAX_HANDOFF_QUBITS + 1;
        let mut qc = QuantumCircuit::new(n, n);
        for q in 0..n {
            qc.h(q).unwrap();
        }
        qc.t(0).unwrap();
        qc.measure_all();
        let backend = HybridBackend::ideal();
        let program = backend.compile(&qc).unwrap();
        assert!(program.clifford().is_err());
        let err = backend.run_compiled(&program, 10).unwrap_err();
        assert_eq!(
            err,
            SimError::NotClifford(crate::CliffordBlock::NonCliffordGate {
                gate: "t".to_string(),
                instruction: n,
            })
        );
    }

    #[test]
    fn the_plain_routed_path_refuses_an_over_width_plan() {
        let n = MAX_HANDOFF_QUBITS + 1;
        let mut qc = QuantumCircuit::new(n, 1);
        for q in 0..n {
            qc.h(q).unwrap();
        }
        qc.t(0).unwrap();
        qc.measure(0, 0).unwrap();
        let program = HybridBackend::ideal().compile(&qc).unwrap();
        let plan = program.hybrid().expect("clifford prefix recorded");
        assert_eq!(
            run_hybrid_sharded(plan, 10, 0, 1).unwrap_err(),
            SimError::NotClifford(plan.block().clone())
        );
    }
}
