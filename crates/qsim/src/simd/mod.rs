//! Explicit-width SIMD amplitude kernels with runtime CPU-feature
//! dispatch.
//!
//! The hot loops of the simulator — the blocked
//! [`BatchKernel`](crate::kernel::BatchKernel) passes and the shared
//! 2×2 sweeps in [`crate::apply`] (which the density-matrix row/column
//! kernels reuse) — bottom out in five *run primitives* over contiguous
//! spans of interleaved `Complex` amplitudes:
//!
//! * `cmul` — scale a span by one complex coefficient (Phase/Scale ops),
//! * `swap` — exchange two spans (X/CX),
//! * `flip` — anti-diagonal 2×2 (Y and phased flips),
//! * `real_general` — real 2×2 (H, Ry),
//! * `general` — full complex 2×2 ([`Mat2::apply`] per pair).
//!
//! Each primitive has one implementation per instruction set (the
//! `Isa` trait): `scalar` is the original per-pair arithmetic kept
//! verbatim, `x86` packs two amplitudes per 256-bit AVX2 vector, and
//! `aarch64` maps one amplitude onto a 128-bit NEON vector. The CPU
//! is probed once per process and every kernel entry point dispatches
//! through [`active_backend`]; `QSIM_SIMD=scalar|avx2|neon|auto` (env)
//! and [`set_backend_override`] (programmatic) force a specific
//! backend — see the `dispatch` module.
//!
//! # The bit-exactness contract
//!
//! Every backend must produce **bit-identical** output: for each output
//! amplitude, the same IEEE-754 operations on the same values in the
//! same association as the scalar reference, one rounding per multiply
//! and one per add — which forbids FMA contraction (`vfmadd*`,
//! `vfmaq_f64`) and any reassociation of the complex multiply-accumulate.
//! "Same operations" is literal up to two bitwise-exact identities:
//! `x − y ≡ x + (−y)` and `(−a)·b ≡ −(a·b)` (how NEON synthesizes the
//! missing `addsub`). Under this contract assertion counts cannot
//! depend on which ISA ran the shots; `tests/simd_equivalence.rs` pins
//! every primitive scalar-vs-vector with `f64::to_bits` equality, and
//! the batch/compiled equivalence suites pin it end to end.
//!
//! # Adding an ISA
//!
//! 1. Add a variant to [`SimdBackend`] with its `name`/`is_available`
//!    arms (runtime feature detection, `cfg`-gated per `target_arch`).
//! 2. Implement `Isa` in a new `cfg`-gated submodule using only
//!    unfused multiply/add/sub lanes, matching the scalar operation
//!    sequence per element (the two identities above are the only
//!    rewrites allowed). Handle run tails shorter than the vector
//!    width by deferring to `scalar::ScalarIsa`.
//! 3. Add the backend's arm to every dispatch `match` (they are
//!    exhaustive — the compiler lists the sites) behind a
//!    `#[target_feature(enable = ...)]` wrapper so the generic walk
//!    vectorizes.
//! 4. Run `tests/simd_equivalence.rs` forced onto the new backend; the
//!    bitwise suites fail on any contraction or reassociation.

use qmath::{Complex, Mat2};

#[cfg(target_arch = "aarch64")]
pub(crate) mod aarch64;
pub(crate) mod dispatch;
pub(crate) mod scalar;
#[cfg(target_arch = "x86_64")]
pub(crate) mod x86;

pub use dispatch::{active_backend, detected_backend, set_backend_override, SimdBackend};

/// One instruction set's implementation of the five run primitives.
///
/// Spans are raw because callers slice disjoint windows out of one
/// amplitude buffer.
///
/// # Safety
///
/// For every method: the pointers must be valid for reads and writes of
/// `len` `Complex` values, and the `x`/`y` spans must not overlap.
/// Implementations other than the scalar one additionally require their
/// CPU features (callers hold that proof via [`SimdBackend::is_available`]
/// and compile the call under a matching `#[target_feature]`).
pub(crate) trait Isa {
    /// `p[i] = z * p[i]` for `i < len`.
    unsafe fn cmul(p: *mut Complex, len: usize, z: Complex);
    /// `swap(x[i], y[i])` for `i < len`.
    unsafe fn swap(x: *mut Complex, y: *mut Complex, len: usize);
    /// `(x[i], y[i]) = (b * y[i], c * x[i])` for `i < len`.
    unsafe fn flip(x: *mut Complex, y: *mut Complex, len: usize, b: Complex, c: Complex);
    /// Real 2×2: `(x[i], y[i]) = (a·x[i] + b·y[i], c·x[i] + d·y[i])`
    /// with `m = [a, b, c, d]` applied componentwise to re and im.
    unsafe fn real_general(x: *mut Complex, y: *mut Complex, len: usize, m: [f64; 4]);
    /// Full complex 2×2: [`Mat2::apply`] on each pair.
    unsafe fn general(x: *mut Complex, y: *mut Complex, len: usize, m: &Mat2);

    // Stride-1 pair primitives: the target is qubit 0, so the op's
    // (x, y) pairs are the *interleaved* `(p[2i], p[2i + 1])` — runs
    // degenerate to a single pair and the span-based primitives above
    // cannot fill a vector. These walk the same pairs in the same
    // ascending order with the same per-element arithmetic (the
    // defaults literally call the span primitives pairwise); ISAs whose
    // vectors hold more than one amplitude override them with
    // in-register shuffles so qubit-0 ops vectorize too.

    /// `p[2i + 1] = d * p[2i + 1]` for `i < pairs` (`diag(1, d)`); the
    /// even slots must pass through untouched, bit for bit.
    #[inline(always)]
    unsafe fn phase_pairs(p: *mut Complex, pairs: usize, d: Complex) {
        for i in 0..pairs {
            Self::cmul(p.add(2 * i + 1), 1, d);
        }
    }
    /// `(p[2i], p[2i + 1]) *= (a, d)` for `i < pairs` (`diag(a, d)`).
    #[inline(always)]
    unsafe fn scale_pairs(p: *mut Complex, pairs: usize, a: Complex, d: Complex) {
        for i in 0..pairs {
            Self::cmul(p.add(2 * i), 1, a);
            Self::cmul(p.add(2 * i + 1), 1, d);
        }
    }
    /// `swap(p[2i], p[2i + 1])` for `i < pairs`.
    #[inline(always)]
    unsafe fn swap_pairs(p: *mut Complex, pairs: usize) {
        for i in 0..pairs {
            Self::swap(p.add(2 * i), p.add(2 * i + 1), 1);
        }
    }
    /// Anti-diagonal 2×2 on each interleaved pair.
    #[inline(always)]
    unsafe fn flip_pairs(p: *mut Complex, pairs: usize, b: Complex, c: Complex) {
        for i in 0..pairs {
            Self::flip(p.add(2 * i), p.add(2 * i + 1), 1, b, c);
        }
    }
    /// Real 2×2 on each interleaved pair.
    #[inline(always)]
    unsafe fn real_general_pairs(p: *mut Complex, pairs: usize, m: [f64; 4]) {
        for i in 0..pairs {
            Self::real_general(p.add(2 * i), p.add(2 * i + 1), 1, m);
        }
    }
    /// Full complex 2×2 on each interleaved pair.
    #[inline(always)]
    unsafe fn general_pairs(p: *mut Complex, pairs: usize, m: &Mat2) {
        for i in 0..pairs {
            Self::general(p.add(2 * i), p.add(2 * i + 1), 1, m);
        }
    }
}

/// The precomputed run decomposition of one op's index pairs inside a
/// group of `2 × stride` amplitudes — the skip-stride table that
/// replaces per-pair control-mask tests.
///
/// The pair set `{(i, i | stride) : i & stride == 0, i & cmask == cmask}`
/// always decomposes into *contiguous runs*, because `cmask` is a single
/// control bit distinct from the stride bit:
///
/// * `cmask == 0` — every offset passes: one run of `stride` pairs per
///   group.
/// * `cmask > stride` — the control bit is constant across a group
///   (groups are `2 × stride`-aligned and `cmask ≥ 2 × stride`): one
///   whole-group test (`group_mask`), then one full run. No per-pair
///   test.
/// * `cmask < stride` — the control bit selects alternating sub-spans of
///   the offset: runs of `cmask` pairs starting at `first = cmask`,
///   stepping `2 × cmask`. No test at all.
///
/// Runs visit exactly the pairs the per-pair loop visited, in the same
/// ascending order, so the decomposition is bit-identical by
/// construction — and hands the vector backends maximal contiguous
/// spans.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct RunShape {
    /// Offset of the first run inside a group.
    pub first: usize,
    /// Pairs per run.
    pub run_len: usize,
    /// Distance between consecutive run starts inside a group.
    pub inner_step: usize,
    /// Mask tested once per group against the group's base index
    /// (group skipped when the masked bits are zero); 0 = no test.
    pub group_mask: usize,
}

impl RunShape {
    /// Decomposes pair iteration for one op. `cmask` is the op's
    /// *in-group* control mask: a single bit below the block size, or 0.
    pub(crate) fn new(stride: usize, cmask: usize) -> Self {
        debug_assert!(stride.is_power_of_two());
        debug_assert!(cmask == 0 || (cmask.is_power_of_two() && cmask != stride));
        if cmask == 0 {
            RunShape {
                first: 0,
                run_len: stride,
                inner_step: stride,
                group_mask: 0,
            }
        } else if cmask > stride {
            RunShape {
                first: 0,
                run_len: stride,
                inner_step: stride,
                group_mask: cmask,
            }
        } else {
            RunShape {
                first: cmask,
                run_len: cmask,
                inner_step: 2 * cmask,
                group_mask: 0,
            }
        }
    }
}

/// Walks the contiguous runs of one op over `[base, base + span)` of the
/// buffer at `ptr`, evaluating the body on each x-run and its
/// stride-distant y-run: `for_runs!(ptr, base, span, stride, shape,
/// |x, y, len| body)`.
///
/// This is a macro, not a function taking a closure, **on purpose**: the
/// body expands textually inside the caller, so when the caller is a
/// `#[target_feature]` wrapper the vector intrinsics in the body compile
/// as native vector code no matter what the inliner decides. (A closure
/// outlined from a `target_feature` fn does not inherit the feature;
/// once kernel bodies grew past the inlining threshold, every intrinsic
/// inside them degraded to a function call — a ~20× slowdown.)
///
/// # Safety
///
/// `ptr` must be valid for reads and writes over `[base, base + span)`,
/// `span` a multiple of `2 × stride`, `base` a multiple of `2 × stride`
/// aligned so that `base & group_mask` honestly reflects the control bit
/// (both the blocked kernel walk and the whole-array sweeps satisfy this
/// by construction). Every produced span lies inside the window: run
/// offsets stay below `stride` and `y = x + stride < base + span`.
macro_rules! for_runs {
    ($ptr:expr, $base:expr, $span:expr, $stride:expr, $shape:expr, |$x:pat_param, $y:pat_param, $len:pat_param| $body:expr) => {{
        let ptr = $ptr;
        let stride = $stride;
        let shape = $shape;
        let top = $base + $span;
        let mut lo = $base;
        while lo < top {
            if shape.group_mask == 0 || lo & shape.group_mask != 0 {
                let end = lo + stride;
                let mut off = lo + shape.first;
                while off < end {
                    let xp = ptr.add(off);
                    {
                        let $x = xp;
                        let $y = xp.add(stride);
                        let $len = shape.run_len;
                        $body
                    }
                    off += shape.inner_step;
                }
            }
            lo += 2 * stride;
        }
    }};
}
pub(crate) use for_runs;

/// Safe per-backend entry points to the raw run primitives, used by the
/// bitwise equivalence suites to compare every backend against the
/// scalar oracle on the same inputs. Not part of the supported API.
#[doc(hidden)]
pub mod test_support {
    use super::*;

    fn check(backend: SimdBackend, x_len: usize, y_len: usize) {
        assert!(
            backend.is_available(),
            "SIMD backend {} is not available on this host",
            backend.name()
        );
        assert_eq!(x_len, y_len, "span lengths must match");
    }

    /// `amps[i] = z * amps[i]`, on `backend`.
    pub fn cmul(backend: SimdBackend, amps: &mut [Complex], z: Complex) {
        check(backend, amps.len(), amps.len());
        let (p, len) = (amps.as_mut_ptr(), amps.len());
        // SAFETY: span from a live mutable slice; availability asserted.
        unsafe {
            match backend {
                SimdBackend::Scalar => scalar::ScalarIsa::cmul(p, len, z),
                #[cfg(target_arch = "x86_64")]
                SimdBackend::Avx2 => cmul_avx2(p, len, z),
                #[cfg(target_arch = "aarch64")]
                SimdBackend::Neon => cmul_neon(p, len, z),
                #[allow(unreachable_patterns)]
                other => unreachable!("{} unavailable", other.name()),
            }
        }
    }

    /// `swap(x[i], y[i])`, on `backend`.
    pub fn swap(backend: SimdBackend, x: &mut [Complex], y: &mut [Complex]) {
        check(backend, x.len(), y.len());
        let (px, py, len) = (x.as_mut_ptr(), y.as_mut_ptr(), x.len());
        // SAFETY: two distinct live slices; availability asserted.
        unsafe {
            match backend {
                SimdBackend::Scalar => scalar::ScalarIsa::swap(px, py, len),
                #[cfg(target_arch = "x86_64")]
                SimdBackend::Avx2 => swap_avx2(px, py, len),
                #[cfg(target_arch = "aarch64")]
                SimdBackend::Neon => swap_neon(px, py, len),
                #[allow(unreachable_patterns)]
                other => unreachable!("{} unavailable", other.name()),
            }
        }
    }

    /// `(x[i], y[i]) = (b * y[i], c * x[i])`, on `backend`.
    pub fn flip(
        backend: SimdBackend,
        x: &mut [Complex],
        y: &mut [Complex],
        b: Complex,
        c: Complex,
    ) {
        check(backend, x.len(), y.len());
        let (px, py, len) = (x.as_mut_ptr(), y.as_mut_ptr(), x.len());
        // SAFETY: two distinct live slices; availability asserted.
        unsafe {
            match backend {
                SimdBackend::Scalar => scalar::ScalarIsa::flip(px, py, len, b, c),
                #[cfg(target_arch = "x86_64")]
                SimdBackend::Avx2 => flip_avx2(px, py, len, b, c),
                #[cfg(target_arch = "aarch64")]
                SimdBackend::Neon => flip_neon(px, py, len, b, c),
                #[allow(unreachable_patterns)]
                other => unreachable!("{} unavailable", other.name()),
            }
        }
    }

    /// Real 2×2 on the pair of spans, on `backend`.
    pub fn real_general(backend: SimdBackend, x: &mut [Complex], y: &mut [Complex], m: [f64; 4]) {
        check(backend, x.len(), y.len());
        let (px, py, len) = (x.as_mut_ptr(), y.as_mut_ptr(), x.len());
        // SAFETY: two distinct live slices; availability asserted.
        unsafe {
            match backend {
                SimdBackend::Scalar => scalar::ScalarIsa::real_general(px, py, len, m),
                #[cfg(target_arch = "x86_64")]
                SimdBackend::Avx2 => real_general_avx2(px, py, len, m),
                #[cfg(target_arch = "aarch64")]
                SimdBackend::Neon => real_general_neon(px, py, len, m),
                #[allow(unreachable_patterns)]
                other => unreachable!("{} unavailable", other.name()),
            }
        }
    }

    /// Full complex 2×2 on the pair of spans, on `backend`.
    pub fn general(backend: SimdBackend, x: &mut [Complex], y: &mut [Complex], m: &Mat2) {
        check(backend, x.len(), y.len());
        let (px, py, len) = (x.as_mut_ptr(), y.as_mut_ptr(), x.len());
        // SAFETY: two distinct live slices; availability asserted.
        unsafe {
            match backend {
                SimdBackend::Scalar => scalar::ScalarIsa::general(px, py, len, m),
                #[cfg(target_arch = "x86_64")]
                SimdBackend::Avx2 => general_avx2(px, py, len, m),
                #[cfg(target_arch = "aarch64")]
                SimdBackend::Neon => general_neon(px, py, len, m),
                #[allow(unreachable_patterns)]
                other => unreachable!("{} unavailable", other.name()),
            }
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn cmul_avx2(p: *mut Complex, len: usize, z: Complex) {
        x86::Avx2Isa::cmul(p, len, z)
    }
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn swap_avx2(x: *mut Complex, y: *mut Complex, len: usize) {
        x86::Avx2Isa::swap(x, y, len)
    }
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn flip_avx2(x: *mut Complex, y: *mut Complex, len: usize, b: Complex, c: Complex) {
        x86::Avx2Isa::flip(x, y, len, b, c)
    }
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn real_general_avx2(x: *mut Complex, y: *mut Complex, len: usize, m: [f64; 4]) {
        x86::Avx2Isa::real_general(x, y, len, m)
    }
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn general_avx2(x: *mut Complex, y: *mut Complex, len: usize, m: &Mat2) {
        x86::Avx2Isa::general(x, y, len, m)
    }

    #[cfg(target_arch = "aarch64")]
    #[target_feature(enable = "neon")]
    unsafe fn cmul_neon(p: *mut Complex, len: usize, z: Complex) {
        aarch64::NeonIsa::cmul(p, len, z)
    }
    #[cfg(target_arch = "aarch64")]
    #[target_feature(enable = "neon")]
    unsafe fn swap_neon(x: *mut Complex, y: *mut Complex, len: usize) {
        aarch64::NeonIsa::swap(x, y, len)
    }
    #[cfg(target_arch = "aarch64")]
    #[target_feature(enable = "neon")]
    unsafe fn flip_neon(x: *mut Complex, y: *mut Complex, len: usize, b: Complex, c: Complex) {
        aarch64::NeonIsa::flip(x, y, len, b, c)
    }
    #[cfg(target_arch = "aarch64")]
    #[target_feature(enable = "neon")]
    unsafe fn real_general_neon(x: *mut Complex, y: *mut Complex, len: usize, m: [f64; 4]) {
        aarch64::NeonIsa::real_general(x, y, len, m)
    }
    #[cfg(target_arch = "aarch64")]
    #[target_feature(enable = "neon")]
    unsafe fn general_neon(x: *mut Complex, y: *mut Complex, len: usize, m: &Mat2) {
        aarch64::NeonIsa::general(x, y, len, m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Collects the pairs `for_runs` visits, flattened back to
    /// per-pair index tuples in visit order.
    fn run_pairs(base: usize, span: usize, stride: usize, cmask: usize) -> Vec<(usize, usize)> {
        let shape = RunShape::new(stride, cmask);
        let mut dummy = vec![Complex::ZERO; base + span];
        let ptr = dummy.as_mut_ptr();
        let origin = ptr as usize;
        let mut pairs = Vec::new();
        // SAFETY: the buffer covers [0, base + span); pointers are only
        // inspected, never dereferenced.
        unsafe {
            for_runs!(ptr, base, span, stride, &shape, |x, y, len| {
                let i0 = (x as usize - origin) / std::mem::size_of::<Complex>();
                let i1 = (y as usize - origin) / std::mem::size_of::<Complex>();
                for k in 0..len {
                    pairs.push((i0 + k, i1 + k));
                }
            });
        }
        pairs
    }

    /// The original per-pair loop, as the oracle.
    fn pair_loop(base: usize, span: usize, stride: usize, cmask: usize) -> Vec<(usize, usize)> {
        let mut pairs = Vec::new();
        let mut lo = base;
        while lo < base + span {
            for off in lo..lo + stride {
                if cmask == 0 || off & cmask != 0 {
                    pairs.push((off, off + stride));
                }
            }
            lo += 2 * stride;
        }
        pairs
    }

    #[test]
    fn runs_visit_exactly_the_per_pair_loop_in_order() {
        for stride_bit in 0..6usize {
            let stride = 1 << stride_bit;
            let mut cmasks = vec![0usize];
            cmasks.extend((0..7usize).map(|b| 1usize << b).filter(|&c| c != stride));
            for &cmask in &cmasks {
                for &(base, span) in &[(0usize, 128usize), (128, 128), (0, 2 * stride)] {
                    assert_eq!(
                        run_pairs(base, span, stride, cmask),
                        pair_loop(base, span, stride, cmask),
                        "stride={stride} cmask={cmask} base={base} span={span}"
                    );
                }
            }
        }
    }

    #[test]
    fn run_shape_has_no_per_pair_test() {
        // The decomposition never needs a test below group level.
        let below = RunShape::new(8, 2);
        assert_eq!(below.group_mask, 0);
        assert_eq!((below.first, below.run_len, below.inner_step), (2, 2, 4));
        let above = RunShape::new(4, 32);
        assert_eq!(above.group_mask, 32);
        assert_eq!((above.first, above.run_len, above.inner_step), (0, 4, 4));
        let free = RunShape::new(16, 0);
        assert_eq!(free.group_mask, 0);
        assert_eq!((free.first, free.run_len, free.inner_step), (0, 16, 16));
    }

    #[test]
    fn test_support_primitives_agree_with_plain_complex_ops() {
        // Smoke the safe wrappers on the backend this host detected —
        // the deep bitwise sweeps live in tests/simd_equivalence.rs.
        let backend = detected_backend();
        let z = Complex::new(0.6, -0.8);
        let mut a: Vec<Complex> = (0..5)
            .map(|i| Complex::new(i as f64 + 0.25, -(i as f64) * 0.5))
            .collect();
        let expect: Vec<Complex> = a.iter().map(|&v| z * v).collect();
        test_support::cmul(backend, &mut a, z);
        assert_eq!(a, expect);
    }
}
