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
//! [`crate::shard_seed`] harness as every per-shot backend. The
//! per-shot draw order is frozen (and pinned by golden seed-stream
//! vectors):
//!
//! 1. the prefix draws per the stabilizer contract (see
//!    [`crate::stabilizer`] module docs),
//! 2. the handoff draws exactly **one `f64` marker** (extraction itself
//!    draws nothing),
//! 3. the suffix draws per the amplitude contract (one `f64` per
//!    measurement, etc.).
//!
//! Because the tableau and amplitude executors burn entropy
//! differently, hybrid counts agree with the pure statevector backend
//! **distributionally**, not bit-for-bit; the equivalence suite pins
//! the TVD. Counts on the fallback paths *are* bit-identical to the
//! backend they delegate to.

use crate::compile::CompileOptions;
use crate::counts::Counts;
use crate::error::SimError;
use crate::executor::{
    run_compiled_from, run_sharded_generic_on, Backend, BackendKind, RunResult, StatevectorBackend,
};
use crate::pool::ShardPool;
use crate::program::{CompiledProgram, HybridPlan};
use crate::stabilizer::{run_clifford_sharded, run_clifford_shot, Tableau};
use qnoise::NoiseModel;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Widest register the amplitude handoff can materialize
/// ([`crate::StateVector`] stops at 29 qubits).
pub const MAX_HANDOFF_QUBITS: usize = 29;

/// One shard of hybrid shots: a single tableau and a fresh suffix
/// statevector per shot, one RNG stream straight through the handoff.
fn run_hybrid_shard(
    plan: &HybridPlan,
    num_qubits: usize,
    num_clbits: usize,
    shots: u64,
    rng_seed: u64,
) -> Result<(Counts, u64), SimError> {
    let mut rng = StdRng::seed_from_u64(rng_seed);
    let mut tableau = Tableau::new(num_qubits);
    let mut counts = Counts::new(num_clbits);
    let mut discarded = 0u64;
    for shot in 0..shots {
        if shot > 0 {
            tableau.reset_state();
        }
        let Some(mut clbits) = run_clifford_shot(plan.prefix(), &mut tableau, &mut rng) else {
            discarded += 1;
            continue;
        };
        // The frozen handoff marker: one f64, drawn whether or not the
        // suffix consumes entropy, so inserting ops on either side of
        // the cut can never silently realign the streams.
        let _marker: f64 = rng.gen();
        let mut state = tableau.to_statevector();
        if run_compiled_from(plan.suffix(), &mut state, &mut clbits, &mut rng)? {
            counts.record(clbits, 1);
        } else {
            discarded += 1;
        }
    }
    Ok((counts, discarded))
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
        if let Ok(clifford) = program.clifford() {
            return RunResult::from_shots(
                shots,
                run_clifford_sharded(clifford, shots, seed, threads)?,
            );
        }

        let routed = match program.hybrid() {
            Some(plan) if plan.profitable() && program.num_qubits() <= MAX_HANDOFF_QUBITS => {
                Some(plan)
            }
            _ => None,
        };
        let Some(plan) = routed else {
            if program.num_qubits() > MAX_HANDOFF_QUBITS {
                let block = program
                    .clifford()
                    .expect_err("non-Clifford program carries a block");
                return Err(SimError::NotClifford(block.clone()));
            }
            // Fallback: the whole program on amplitudes, bit-identical
            // to StatevectorBackend with the same (seed, threads).
            return StatevectorBackend::new()
                .with_seed(seed)
                .with_threads(threads)
                .run_compiled(program, shots);
        };

        RunResult::from_shots(
            shots,
            run_sharded_generic_on(
                ShardPool::global(),
                program.num_clbits(),
                shots,
                seed,
                threads,
                |n, s| run_hybrid_shard(plan, program.num_qubits(), program.num_clbits(), n, s),
            )?,
        )
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
}
