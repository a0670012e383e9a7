//! Keyed program cache: compile-free repeated analyses.
//!
//! Sweep workloads (`noise_sweep`, `theory_sweep`, `ablation`, and any
//! assertion-session loop) lower the *same* instrumented circuit
//! against the *same* noise model over and over — once per assertion
//! point per noise level. [`ProgramCache`] memoizes
//! [`crate::compile::compile_with`] behind a key of
//!
//! * the circuit's 128-bit [structural hash](qcircuit::QuantumCircuit::structural_hash),
//! * the noise model's content [fingerprint](qnoise::NoiseModel::fingerprint)
//!   (absent for ideal compilation), and
//! * the [`CompileOptions`] that steer lowering,
//!
//! so a repeated `(circuit, noise, options)` triple returns a shared
//! [`Arc<CompiledProgram>`] without re-lowering. Compilation is
//! deterministic, so a cached program is identical to a fresh compile —
//! the property suite in `tests/program_cache.rs` pins the op streams
//! byte-for-byte.
//!
//! Entries are evicted least-recently-used once `capacity` is exceeded;
//! hit/miss/eviction counters are exported via [`ProgramCache::stats`]
//! and surface in the experiment reports' JSON.

use crate::compile::{compile_with, CompileOptions};
use crate::error::SimError;
use crate::program::CompiledProgram;
use qcircuit::QuantumCircuit;
use qnoise::NoiseModel;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// The cache key of one compilation: circuit structure × noise content
/// × lowering options.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ProgramKey {
    circuit: u128,
    /// `None` for ideal compilation (distinct from any model
    /// fingerprint, including an *empty* model's).
    noise: Option<u128>,
    options: CompileOptions,
}

impl ProgramKey {
    /// Computes the key for a `(circuit, noise, options)` triple.
    pub fn new(
        circuit: &QuantumCircuit,
        noise: Option<&NoiseModel>,
        options: CompileOptions,
    ) -> Self {
        ProgramKey::from_fingerprint(circuit, noise.map(NoiseModel::fingerprint), options)
    }

    /// Like [`ProgramKey::new`] with the noise fingerprint already
    /// computed. Fingerprinting hashes the model's entire Kraus content,
    /// so sessions issuing thousands of lookups against one fixed
    /// backend compute it once and key through this.
    pub fn from_fingerprint(
        circuit: &QuantumCircuit,
        noise_fingerprint: Option<u128>,
        options: CompileOptions,
    ) -> Self {
        ProgramKey {
            circuit: circuit.structural_hash(),
            noise: noise_fingerprint,
            options,
        }
    }
}

/// A point-in-time snapshot of cache effectiveness.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that had to compile.
    pub misses: u64,
    /// Entries displaced by the LRU policy.
    pub evictions: u64,
    /// Programs currently resident.
    pub entries: usize,
}

impl CacheStats {
    /// Hits over total lookups (0 when nothing was looked up).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// The lookups that happened between `earlier` and `self` (counters
    /// are monotonic, so a plain field-wise difference).
    pub fn since(&self, earlier: &CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
            evictions: self.evictions - earlier.evictions,
            entries: self.entries,
        }
    }
}

struct Entry {
    program: Arc<CompiledProgram>,
    last_used: u64,
}

struct Inner {
    map: HashMap<ProgramKey, Entry>,
    tick: u64,
}

/// An LRU cache of compiled programs, keyed by
/// `(circuit structural hash, noise fingerprint, compile options)`.
///
/// Thread-safe; lookups are a key computation plus one short critical
/// section. Compilation on a miss happens *outside* the lock, so
/// concurrent misses on different circuits compile in parallel (two
/// racing misses on the same key both compile, and the first insert
/// wins — compilation is deterministic, so both results are identical).
///
/// # Example
///
/// ```
/// use qsim::{CompileOptions, ProgramCache};
/// use qcircuit::library;
///
/// # fn main() -> Result<(), qsim::SimError> {
/// let cache = ProgramCache::new(16);
/// let mut bell = library::bell();
/// bell.measure_all();
/// let a = cache.get_or_compile(&bell, None, CompileOptions::default())?;
/// let b = cache.get_or_compile(&bell, None, CompileOptions::default())?;
/// assert!(std::sync::Arc::ptr_eq(&a, &b));
/// assert_eq!(cache.stats().hits, 1);
/// # Ok(())
/// # }
/// ```
pub struct ProgramCache {
    inner: Mutex<Inner>,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl ProgramCache {
    /// Creates a cache holding at most `capacity` programs.
    ///
    /// # Panics
    ///
    /// Panics when `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 1, "cache capacity must be at least 1");
        ProgramCache {
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                tick: 0,
            }),
            capacity,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// The process-wide cache used by the assertion runtime and the
    /// experiment harness.
    pub fn global() -> &'static ProgramCache {
        static CACHE: OnceLock<ProgramCache> = OnceLock::new();
        CACHE.get_or_init(|| ProgramCache::new(256))
    }

    /// Maximum number of resident programs.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Returns the cached program for the triple, compiling and
    /// inserting on a miss.
    ///
    /// # Errors
    ///
    /// Propagates [`SimError`] from compilation (errors are not cached).
    pub fn get_or_compile(
        &self,
        circuit: &QuantumCircuit,
        noise: Option<&NoiseModel>,
        options: CompileOptions,
    ) -> Result<Arc<CompiledProgram>, SimError> {
        let key = ProgramKey::new(circuit, noise, options);
        if let Some(program) = self.lookup(&key) {
            return Ok(program);
        }
        let program = Arc::new(compile_with(circuit, noise, options)?);
        Ok(self.insert(key, program))
    }

    /// Looks up a compiled program by key, counting a hit or a miss.
    ///
    /// Callers that compile through a different path than
    /// [`ProgramCache::get_or_compile`] (e.g. prefix-aware sweep
    /// lowering) pair this with [`ProgramCache::insert`].
    pub fn lookup(&self, key: &ProgramKey) -> Option<Arc<CompiledProgram>> {
        let mut inner = self.inner.lock().expect("cache lock");
        inner.tick += 1;
        let tick = inner.tick;
        match inner.map.get_mut(key) {
            Some(entry) => {
                entry.last_used = tick;
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(Arc::clone(&entry.program))
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Inserts a compiled program under `key`, returning the resident
    /// program (first insert wins on a race — compilation is
    /// deterministic, so racing programs are identical) and evicting
    /// least-recently-used entries beyond capacity.
    pub fn insert(&self, key: ProgramKey, program: Arc<CompiledProgram>) -> Arc<CompiledProgram> {
        let mut inner = self.inner.lock().expect("cache lock");
        inner.tick += 1;
        let tick = inner.tick;
        let resident = inner
            .map
            .entry(key)
            .or_insert_with(|| Entry {
                program,
                last_used: tick,
            })
            .program
            .clone();
        while inner.map.len() > self.capacity {
            let coldest = inner
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| *k)
                .expect("non-empty over-capacity cache");
            inner.map.remove(&coldest);
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        resident
    }

    /// Current counters and occupancy.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries: self.inner.lock().expect("cache lock").map.len(),
        }
    }

    /// Drops every resident program (counters are preserved — they are
    /// lifetime totals, not occupancy).
    pub fn clear(&self) {
        self.inner.lock().expect("cache lock").map.clear();
    }
}

impl std::fmt::Debug for ProgramCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        write!(
            f,
            "ProgramCache {{ capacity: {}, entries: {}, hits: {}, misses: {}, evictions: {} }}",
            self.capacity, stats.entries, stats.hits, stats.misses, stats.evictions
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcircuit::library;

    fn measured_bell() -> QuantumCircuit {
        let mut c = library::bell();
        c.measure_all();
        c
    }

    #[test]
    fn hits_share_one_program() {
        let cache = ProgramCache::new(4);
        let c = measured_bell();
        let a = cache
            .get_or_compile(&c, None, CompileOptions::default())
            .unwrap();
        let b = cache
            .get_or_compile(&c, None, CompileOptions::default())
            .unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn options_and_noise_partition_the_key_space() {
        let cache = ProgramCache::new(8);
        let c = measured_bell();
        let ideal = cache
            .get_or_compile(&c, None, CompileOptions::default())
            .unwrap();
        let unfused = cache
            .get_or_compile(&c, None, CompileOptions { fuse_1q: false })
            .unwrap();
        let noise = qnoise::presets::ideal();
        let noisy = cache
            .get_or_compile(&c, Some(&noise), CompileOptions::default())
            .unwrap();
        assert!(!Arc::ptr_eq(&ideal, &unfused));
        assert!(!Arc::ptr_eq(&ideal, &noisy));
        assert_eq!(cache.stats().misses, 3);
        assert_eq!(cache.stats().entries, 3);
    }

    #[test]
    fn lru_evicts_the_coldest_entry() {
        let cache = ProgramCache::new(2);
        let a = measured_bell();
        let mut b = library::ghz(3);
        b.measure_all();
        let mut c = library::ghz(4);
        c.measure_all();
        let opts = CompileOptions::default();
        cache.get_or_compile(&a, None, opts).unwrap();
        cache.get_or_compile(&b, None, opts).unwrap();
        // Touch `a` so `b` is the LRU victim when `c` arrives.
        cache.get_or_compile(&a, None, opts).unwrap();
        cache.get_or_compile(&c, None, opts).unwrap();
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(cache.stats().entries, 2);
        // `a` is still resident (hit), `b` was evicted (miss).
        let before = cache.stats();
        cache.get_or_compile(&a, None, opts).unwrap();
        cache.get_or_compile(&b, None, opts).unwrap();
        let delta = cache.stats().since(&before);
        assert_eq!((delta.hits, delta.misses), (1, 1));
    }

    #[test]
    fn clear_preserves_lifetime_counters() {
        let cache = ProgramCache::new(4);
        let c = measured_bell();
        cache
            .get_or_compile(&c, None, CompileOptions::default())
            .unwrap();
        cache.clear();
        let stats = cache.stats();
        assert_eq!(stats.entries, 0);
        assert_eq!(stats.misses, 1);
    }

    #[test]
    fn compile_errors_are_not_cached() {
        let cache = ProgramCache::new(4);
        let wide = QuantumCircuit::new(1, 65);
        assert!(cache
            .get_or_compile(&wide, None, CompileOptions::default())
            .is_err());
        assert_eq!(cache.stats().entries, 0);
    }
}
