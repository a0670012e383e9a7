//! Prefix-aware lowering for circuit families.
//!
//! Sweeps frequently lower *families* of circuits that share a common
//! instruction prefix — the per-θ theory circuits append an assertion
//! fragment to a shared preparation, parameter scans grow one circuit
//! gate by gate. The whole-program [`crate::ProgramCache`] cannot help
//! there: every family member has a distinct structural hash.
//!
//! [`PrefixRegistry`] fills that gap. Every program lowered through it
//! is registered under the rolling
//! [prefix hash](qcircuit::QuantumCircuit::prefix_hashes) of its full
//! instruction stream; a later circuit whose instruction stream *extends*
//! a registered one reuses the registered compiled ops and lowers only
//! the suffix ([`crate::compile::compile_extension`]).
//!
//! Reuse is **bit-exact by construction**: a registered prefix is only
//! consumed when [`crate::compile::extension_fusion_safe`] proves no
//! single-qubit fusion run crosses the boundary, so the concatenated op
//! stream is identical to a fresh full compile (noise binding is
//! per-instruction and splits anywhere). When the check fails, the
//! registry silently falls back to a full compile — `prefix_hits` simply
//! doesn't grow.

use crate::compile::{compile_extension, compile_with, extension_fusion_safe, CompileOptions};
use crate::error::SimError;
use crate::program::CompiledProgram;
use qcircuit::QuantumCircuit;
use qnoise::NoiseModel;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, Weak};

/// Default registration capacity (see [`PrefixRegistry::with_capacity`])
/// — a backstop so a long-lived session lowering unboundedly many
/// distinct circuits cannot grow the registry's map without limit.
const REGISTRY_CAP: usize = 1024;

/// The identity of one registered lowering: the rolling hash of the
/// circuit's full instruction stream plus everything else compilation
/// reads. Register widths are deliberately absent — compiled ops carry
/// absolute indices, so a narrower circuit's lowering is a valid prefix
/// of a wider one's (instrumented families grow ancillas per point).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
struct PrefixKey {
    chain: u128,
    noise: Option<u128>,
    options: CompileOptions,
}

struct Registered {
    /// Weak so the registry never *owns* a program: ownership stays
    /// with whoever compiled it (typically a `ProgramCache`, whose LRU
    /// eviction thus remains the real memory bound). A registration
    /// whose program has been dropped simply stops matching.
    program: Weak<CompiledProgram>,
    len: usize,
    /// Registration order, driving FIFO eviction at capacity.
    stamp: u64,
}

/// The mutex-guarded registry state.
struct Inner {
    map: HashMap<PrefixKey, Registered>,
    /// Monotonic registration clock ([`Registered::stamp`] source).
    clock: u64,
}

/// A registry of lowered circuits enabling compiled-prefix reuse across
/// a sweep.
///
/// Thread-safe; typically owned by a session or sweep harness and
/// dropped with it, bounding its lifetime to one circuit family.
///
/// # Ownership
///
/// The registry indexes programs but never owns them: registrations
/// hold [`Weak`] references, so memory remains bounded by whatever
/// holds the strong `Arc`s — in the session flow, the `ProgramCache`
/// and its LRU eviction. A registration whose program has been dropped
/// (evicted) silently stops matching; keep the returned `Arc`s alive
/// for as long as reuse should be possible.
///
/// # Example
///
/// ```
/// use qsim::{CompileOptions, PrefixRegistry};
/// use qcircuit::QuantumCircuit;
///
/// # fn main() -> Result<(), qsim::SimError> {
/// let registry = PrefixRegistry::new();
/// let mut prefix = QuantumCircuit::new(3, 0);
/// prefix.ry(0.7, 0)?.ry(0.8, 1)?;
/// let mut full = prefix.clone();
/// full.cx(0, 2)?.cx(1, 2)?;
/// // Keep the returned program alive: the registry holds only weak
/// // references (a ProgramCache normally owns the strong ones).
/// let lowered_prefix = registry.compile(&prefix, None, CompileOptions::default())?;
/// let program = registry.compile(&full, None, CompileOptions::default())?;
/// assert_eq!(registry.hits(), 1); // the ry-ry prefix was not re-lowered
/// drop(lowered_prefix);
/// assert_eq!(program.source_instructions(), 4);
/// # Ok(())
/// # }
/// ```
pub struct PrefixRegistry {
    inner: Mutex<Inner>,
    capacity: usize,
    hits: AtomicU64,
}

impl PrefixRegistry {
    /// Creates an empty registry with the default capacity (1024
    /// registrations).
    pub fn new() -> Self {
        PrefixRegistry::with_capacity(REGISTRY_CAP)
    }

    /// Creates an empty registry holding at most `capacity`
    /// registrations.
    ///
    /// At capacity, a new registration first **compacts** entries whose
    /// programs have been dropped (cache-evicted) — they can never
    /// match again, so they always go first — and only if every entry
    /// is still live evicts the **oldest registration** (FIFO). Sweeps
    /// extend recent circuits, so the oldest prefix is the least likely
    /// to be extended next.
    ///
    /// # Panics
    ///
    /// Panics when `capacity == 0`.
    fn with_capacity(capacity: usize) -> Self {
        assert!(capacity >= 1, "registry capacity must be at least 1");
        PrefixRegistry {
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                clock: 0,
            }),
            capacity,
            hits: AtomicU64::new(0),
        }
    }

    /// Compiled-prefix reuses so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lowers `circuit`, reusing the longest registered compiled prefix
    /// when one exists and the split is fusion-safe, and registers the
    /// resulting program for future reuse.
    ///
    /// The result is identical to `compile_with(circuit, noise,
    /// options)` — prefix reuse only skips work.
    ///
    /// # Errors
    ///
    /// Propagates [`SimError`] from lowering.
    pub fn compile(
        &self,
        circuit: &QuantumCircuit,
        noise: Option<&NoiseModel>,
        options: CompileOptions,
    ) -> Result<Arc<CompiledProgram>, SimError> {
        let noise_fp = noise.map(NoiseModel::fingerprint);
        self.compile_traced_with_fingerprint(circuit, noise, noise_fp, options)
            .map(|(program, _)| program)
    }

    /// [`PrefixRegistry::compile`] with the noise fingerprint already
    /// computed (sessions over one fixed backend hash it once),
    /// additionally reporting whether *this* compile reused a
    /// registered prefix.
    ///
    /// Callers attributing prefix hits to individual compiles (a sweep
    /// building per-point telemetry while other points lower
    /// concurrently) need the per-call flag: deltas of the shared
    /// [`PrefixRegistry::hits`] counter would race.
    ///
    /// # Errors
    ///
    /// Propagates [`SimError`] from lowering.
    pub fn compile_traced_with_fingerprint(
        &self,
        circuit: &QuantumCircuit,
        noise: Option<&NoiseModel>,
        noise_fp: Option<u128>,
        options: CompileOptions,
    ) -> Result<(Arc<CompiledProgram>, bool), SimError> {
        let chains = circuit.prefix_hashes();
        let key_at = |k: usize| PrefixKey {
            chain: chains[k],
            noise: noise_fp,
            options,
        };

        // Longest registered, fusion-safe proper prefix, if any. The
        // map probe is O(1), the safety check O(len) — probe first so
        // unregistered cut points cost a hash lookup, not a wire scan.
        let reusable = {
            let inner = self.inner.lock().expect("prefix registry lock");
            (1..circuit.len()).rev().find_map(|k| {
                inner
                    .map
                    .get(&key_at(k))
                    .filter(|r| r.len == k)
                    .and_then(|r| r.program.upgrade())
                    .filter(|_| extension_fusion_safe(circuit, k, options))
                    .map(|program| (program, k))
            })
        };

        let (program, reused) = match reusable {
            Some((prefix, len)) => {
                let extended = Arc::new(compile_extension(&prefix, circuit, len, noise, options)?);
                self.hits.fetch_add(1, Ordering::Relaxed);
                (extended, true)
            }
            None => (Arc::new(compile_with(circuit, noise, options)?), false),
        };
        self.register_keyed(key_at(circuit.len()), circuit.len(), &program);
        Ok((program, reused))
    }

    fn register_keyed(&self, key: PrefixKey, len: usize, program: &Arc<CompiledProgram>) {
        let mut inner = self.inner.lock().expect("prefix registry lock");
        if inner.map.len() >= self.capacity && !inner.map.contains_key(&key) {
            // Make room by compacting registrations whose programs died
            // (evicted from their cache) — they can never match again.
            inner.map.retain(|_, r| r.program.strong_count() > 0);
            // Still full of live entries: evict the oldest
            // registrations (FIFO) rather than refusing the new one.
            while inner.map.len() >= self.capacity {
                let oldest = inner
                    .map
                    .iter()
                    .min_by_key(|(_, r)| r.stamp)
                    .map(|(k, _)| *k)
                    .expect("non-empty at-capacity registry");
                inner.map.remove(&oldest);
            }
        }
        inner.clock += 1;
        let stamp = inner.clock;
        // A dead registration (its program was evicted, then the circuit
        // recompiled) is *replaced* — keeping the corpse would disable
        // prefix reuse for this key for the registry's whole lifetime.
        inner
            .map
            .entry(key)
            .and_modify(|r| {
                if r.program.strong_count() == 0 {
                    r.program = Arc::downgrade(program);
                    r.len = len;
                    r.stamp = stamp;
                }
            })
            .or_insert_with(|| Registered {
                program: Arc::downgrade(program),
                len,
                stamp,
            });
    }
}

impl Default for PrefixRegistry {
    fn default() -> Self {
        PrefixRegistry::new()
    }
}

impl std::fmt::Debug for PrefixRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "PrefixRegistry {{ registered: {}, capacity: {}, hits: {} }}",
            self.inner.lock().expect("prefix registry lock").map.len(),
            self.capacity,
            self.hits()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn theory_family(theta: f64) -> (QuantumCircuit, QuantumCircuit) {
        let mut prefix = QuantumCircuit::new(3, 0);
        prefix.ry(theta, 0).unwrap().ry(0.8, 1).unwrap();
        let mut entangled = prefix.clone();
        entangled.cx(0, 2).unwrap().cx(1, 2).unwrap();
        (prefix, entangled)
    }

    #[test]
    fn extension_reuses_the_registered_prefix() {
        let registry = PrefixRegistry::new();
        let (prefix, entangled) = theory_family(0.7);
        let _alive = registry
            .compile(&prefix, None, CompileOptions::default())
            .unwrap();
        assert_eq!(registry.hits(), 0);
        let program = registry
            .compile(&entangled, None, CompileOptions::default())
            .unwrap();
        assert_eq!(registry.hits(), 1);
        assert_eq!(program.source_instructions(), 4);
        assert_eq!(program.num_qubits(), 3);
    }

    #[test]
    fn distinct_parameters_do_not_cross_reuse() {
        let registry = PrefixRegistry::new();
        let (prefix_a, _) = theory_family(0.7);
        let (_, entangled_b) = theory_family(0.9);
        let _alive_a = registry
            .compile(&prefix_a, None, CompileOptions::default())
            .unwrap();
        let _alive_b = registry
            .compile(&entangled_b, None, CompileOptions::default())
            .unwrap();
        assert_eq!(registry.hits(), 0, "θ=0.9 must not extend the θ=0.7 prefix");
    }

    #[test]
    fn unsafe_fusion_boundary_falls_back_to_full_compile() {
        // prefix ends with a 1q gate and the suffix starts with one on
        // the same wire: a fused run would cross the cut.
        let registry = PrefixRegistry::new();
        let mut prefix = QuantumCircuit::new(1, 0);
        prefix.h(0).unwrap();
        let mut full = prefix.clone();
        full.t(0).unwrap();
        let _alive = registry
            .compile(&prefix, None, CompileOptions::default())
            .unwrap();
        let program = registry
            .compile(&full, None, CompileOptions::default())
            .unwrap();
        assert_eq!(registry.hits(), 0);
        // Full compile fused H·T into one op — reuse would have yielded 2.
        assert_eq!(program.ops().len(), 1);
        assert_eq!(program.fused_gates(), 1);
    }

    #[test]
    fn fusion_off_makes_every_boundary_safe() {
        let registry = PrefixRegistry::new();
        let opts = CompileOptions { fuse_1q: false };
        let mut prefix = QuantumCircuit::new(1, 0);
        prefix.h(0).unwrap();
        let mut full = prefix.clone();
        full.t(0).unwrap();
        let _alive = registry.compile(&prefix, None, opts).unwrap();
        let program = registry.compile(&full, None, opts).unwrap();
        assert_eq!(registry.hits(), 1);
        assert_eq!(program.ops().len(), 2);
    }

    #[test]
    fn longest_registered_prefix_wins() {
        let registry = PrefixRegistry::new();
        let mut a = QuantumCircuit::new(2, 0);
        a.cx(0, 1).unwrap();
        let mut b = a.clone();
        b.cx(1, 0).unwrap();
        let mut c = b.clone();
        c.cx(0, 1).unwrap();
        let _a = registry
            .compile(&a, None, CompileOptions::default())
            .unwrap();
        let _b = registry
            .compile(&b, None, CompileOptions::default())
            .unwrap();
        assert_eq!(registry.hits(), 1); // b extended a
        let _c = registry
            .compile(&c, None, CompileOptions::default())
            .unwrap();
        assert_eq!(registry.hits(), 2); // c extended b, not a
    }

    #[test]
    fn wider_circuits_extend_narrower_prefixes() {
        // Instrumented sweeps grow an ancilla wire and a clbit per
        // point; the narrower point's lowering must still be reusable.
        let registry = PrefixRegistry::new();
        let mut first = QuantumCircuit::new(3, 1);
        first.h(0).unwrap();
        first.cx(0, 2).unwrap();
        first.measure(2, 0).unwrap();
        let mut second = QuantumCircuit::new(4, 2);
        second.h(0).unwrap();
        second.cx(0, 2).unwrap();
        second.measure(2, 0).unwrap();
        second.cx(1, 3).unwrap();
        second.measure(3, 1).unwrap();
        let _alive = registry
            .compile(&first, None, CompileOptions::default())
            .unwrap();
        let program = registry
            .compile(&second, None, CompileOptions::default())
            .unwrap();
        assert_eq!(registry.hits(), 1);
        assert_eq!(program.num_qubits(), 4);
        assert_eq!(program.num_clbits(), 2);
        assert_eq!(program.ops().len(), 5);
    }

    #[test]
    fn dropped_programs_stop_matching_and_free_registry_slots() {
        // The registry must not keep evicted programs alive: once the
        // strong Arc is gone, the registration is dead and a would-be
        // extension falls back to a full compile.
        let registry = PrefixRegistry::new();
        let (prefix, entangled) = theory_family(0.7);
        let lowered = registry
            .compile(&prefix, None, CompileOptions::default())
            .unwrap();
        drop(lowered); // simulate cache eviction
        let program = registry
            .compile(&entangled, None, CompileOptions::default())
            .unwrap();
        assert_eq!(registry.hits(), 0, "dead registration must not match");
        assert_eq!(program.source_instructions(), 4);
    }

    #[test]
    fn recompiling_after_eviction_revives_the_registration() {
        // Evict (drop) a registered program, recompile the same circuit
        // (a cache miss in the session flow): the dead registration must
        // be replaced so later extensions work again.
        let registry = PrefixRegistry::new();
        let (prefix, entangled) = theory_family(0.7);
        let first = registry
            .compile(&prefix, None, CompileOptions::default())
            .unwrap();
        drop(first); // simulate cache eviction
        let _revived = registry
            .compile(&prefix, None, CompileOptions::default())
            .unwrap();
        let _extended = registry
            .compile(&entangled, None, CompileOptions::default())
            .unwrap();
        assert_eq!(
            registry.hits(),
            1,
            "recompiled prefix must be reusable again"
        );
    }

    /// A one-op circuit family member: `cx(0,1)` repeated `n` times
    /// (distinct prefix chains per length, no 1q fusion involved).
    fn chain_circuit(n: usize) -> QuantumCircuit {
        let mut c = QuantumCircuit::new(2, 0);
        for _ in 0..n {
            c.cx(0, 1).unwrap();
        }
        c
    }

    #[test]
    fn at_capacity_dead_registrations_compact_before_live_ones_evict() {
        let registry = PrefixRegistry::with_capacity(2);
        let opts = CompileOptions::default();
        let a = registry.compile(&chain_circuit(1), None, opts).unwrap();
        let b = registry.compile(&chain_circuit(2), None, opts).unwrap();
        assert_eq!(registry.hits(), 1); // b extended a
        drop(a); // a's program dies (cache eviction)

        // Registering at capacity must compact the dead `a`, keeping
        // the live `b` even though `a` is older.
        let mut unrelated = QuantumCircuit::new(2, 0);
        unrelated.swap(0, 1).unwrap();
        let _c = registry.compile(&unrelated, None, opts).unwrap();
        let _extended = registry.compile(&chain_circuit(3), None, opts).unwrap();
        assert_eq!(registry.hits(), 2, "live b must survive compaction");
        drop(b);
    }

    #[test]
    fn at_capacity_with_all_live_entries_the_oldest_evicts_first() {
        let registry = PrefixRegistry::with_capacity(2);
        let opts = CompileOptions::default();
        let mut first = QuantumCircuit::new(2, 0);
        first.swap(0, 1).unwrap();
        let _a = registry.compile(&first, None, opts).unwrap(); // oldest
        let _b = registry.compile(&chain_circuit(1), None, opts).unwrap();
        // All live, at capacity: the next registration evicts `first`
        // (FIFO), not `chain_circuit(1)`.
        let _c = registry.compile(&chain_circuit(2), None, opts).unwrap();
        assert_eq!(registry.hits(), 1, "the younger chain prefix survived");

        // `first` was evicted: a circuit extending it compiles fresh...
        let mut first_ext = first.clone();
        first_ext.cx(0, 1).unwrap();
        let _d = registry.compile(&first_ext, None, opts).unwrap();
        assert_eq!(registry.hits(), 1, "evicted oldest entry must not match");
        // ...while the chain family (still resident) keeps extending.
        let _e = registry.compile(&chain_circuit(3), None, opts).unwrap();
        assert_eq!(registry.hits(), 2);
    }

    #[test]
    fn noise_and_options_partition_registrations() {
        let registry = PrefixRegistry::new();
        let (prefix, entangled) = theory_family(0.7);
        let noise = qnoise::presets::ideal();
        let _alive = registry
            .compile(&prefix, None, CompileOptions::default())
            .unwrap();
        let _noisy = registry
            .compile(&entangled, Some(&noise), CompileOptions::default())
            .unwrap();
        assert_eq!(
            registry.hits(),
            0,
            "a noisy compile must not extend an ideal prefix"
        );
    }
}
