//! Explicit-width SIMD amplitude kernels with runtime CPU-feature
//! dispatch.
//!
//! The hot loop of the simulator — the shared 2×2 sweep in the
//! crate-private `apply` module, which every single-qubit and controlled
//! op of every amplitude executor runs, and which the density-matrix
//! row/column kernels reuse — bottoms out in two *run primitives* over interleaved
//! `Complex` amplitudes:
//!
//! * `general` — full complex 2×2 ([`Mat2::apply`] per pair) over two
//!   contiguous spans,
//! * `general_pairs` — the same on interleaved pairs `(p[2i], p[2i + 1])`,
//!   for the qubit-0 sweep, whose runs are a single pair long.
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
//! the primitives and the sweeps scalar-vs-vector with `f64::to_bits`
//! equality, and end to end through the backends.
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

/// One instruction set's implementation of the two run primitives.
///
/// Spans are raw because callers slice disjoint windows out of one
/// amplitude buffer.
///
/// # Safety
///
/// For every method: the pointers must be valid for reads and writes of
/// `len` `Complex` values (`2 × pairs` for `general_pairs`), and the
/// `x`/`y` spans must not overlap. Implementations other than the scalar
/// one additionally require their CPU features (callers hold that proof
/// via [`SimdBackend::is_available`] and compile the call under a
/// matching `#[target_feature]`).
pub(crate) trait Isa {
    /// Full complex 2×2: [`Mat2::apply`] on each pair.
    unsafe fn general(x: *mut Complex, y: *mut Complex, len: usize, m: &Mat2);

    /// Full complex 2×2 on each interleaved pair `(p[2i], p[2i + 1])`,
    /// `i < pairs`: the qubit-0 sweep, whose runs degenerate to a single
    /// pair that `general` cannot fill a vector with. Walks the same
    /// pairs in the same ascending order with the same per-element
    /// arithmetic (the default literally calls `general` pairwise); ISAs
    /// whose vectors hold more than one amplitude override it with
    /// in-register shuffles so qubit-0 ops vectorize too.
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
    /// control mask: a single bit other than the stride bit, or 0.
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

/// Walks the contiguous runs of one op over the `len` amplitudes at
/// `ptr`, evaluating the body on each x-run and its stride-distant
/// y-run: `for_runs!(ptr, len, stride, shape, |x, y, run| body)`.
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
/// `ptr` must be valid for reads and writes of `len` amplitudes, `len` a
/// multiple of `2 × stride`. Every produced span lies inside the array:
/// run offsets stay below `stride` and `y = x + stride < len`.
macro_rules! for_runs {
    ($ptr:expr, $len:expr, $stride:expr, $shape:expr, |$x:pat_param, $y:pat_param, $run:pat_param| $body:expr) => {{
        let ptr = $ptr;
        let stride = $stride;
        let shape = $shape;
        let len = $len;
        let mut lo = 0;
        while lo < len {
            if shape.group_mask == 0 || lo & shape.group_mask != 0 {
                let end = lo + stride;
                let mut off = lo + shape.first;
                while off < end {
                    let xp = ptr.add(off);
                    {
                        let $x = xp;
                        let $y = xp.add(stride);
                        let $run = shape.run_len;
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

/// Safe per-backend entry points to the raw `general` primitive and to
/// the 2×2 sweeps built on it, used by the bitwise equivalence suite to
/// compare every backend against the scalar oracle on the same inputs.
/// Not part of the supported API.
#[doc(hidden)]
pub mod test_support {
    use super::*;

    /// Full complex 2×2 on the pair of spans, on `backend`.
    ///
    /// # Panics
    ///
    /// Panics when `backend` is unavailable here or the spans' lengths
    /// differ.
    pub fn general(backend: SimdBackend, x: &mut [Complex], y: &mut [Complex], m: &Mat2) {
        assert!(
            backend.is_available(),
            "SIMD backend {} is not available on this host",
            backend.name()
        );
        assert_eq!(x.len(), y.len(), "span lengths must match");
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
    unsafe fn general_avx2(x: *mut Complex, y: *mut Complex, len: usize, m: &Mat2) {
        x86::Avx2Isa::general(x, y, len, m)
    }

    #[cfg(target_arch = "aarch64")]
    #[target_feature(enable = "neon")]
    unsafe fn general_neon(x: *mut Complex, y: *mut Complex, len: usize, m: &Mat2) {
        aarch64::NeonIsa::general(x, y, len, m)
    }

    /// The 2×2 sweep of bit `bit` over `amps`, on `backend`.
    ///
    /// # Panics
    ///
    /// Panics when `backend` is unavailable here, or unless `amps.len()`
    /// is a power of two and `bit` addresses it.
    pub fn mat2_sweep(backend: SimdBackend, amps: &mut [Complex], bit: usize, m: &Mat2) {
        crate::apply::apply_mat2_at_on(backend, amps, bit, m)
    }

    /// The controlled 2×2 sweep over `amps`, on `backend`: `m` acts on
    /// bit `target` where bit `control` is set.
    ///
    /// # Panics
    ///
    /// As [`mat2_sweep`], plus when `control == target`.
    pub fn controlled_mat2_sweep(
        backend: SimdBackend,
        amps: &mut [Complex],
        control: usize,
        target: usize,
        m: &Mat2,
    ) {
        crate::apply::apply_controlled_mat2_at_on(backend, amps, control, target, m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Collects the pairs `for_runs` visits, flattened back to
    /// per-pair index tuples in visit order.
    fn run_pairs(len: usize, stride: usize, cmask: usize) -> Vec<(usize, usize)> {
        let shape = RunShape::new(stride, cmask);
        let mut dummy = vec![Complex::ZERO; len];
        let ptr = dummy.as_mut_ptr();
        let origin = ptr as usize;
        let mut pairs = Vec::new();
        // SAFETY: the buffer covers [0, len); pointers are only
        // inspected, never dereferenced.
        unsafe {
            for_runs!(ptr, len, stride, &shape, |x, y, run| {
                let i0 = (x as usize - origin) / std::mem::size_of::<Complex>();
                let i1 = (y as usize - origin) / std::mem::size_of::<Complex>();
                for k in 0..run {
                    pairs.push((i0 + k, i1 + k));
                }
            });
        }
        pairs
    }

    /// The original per-pair loop, as the oracle.
    fn pair_loop(len: usize, stride: usize, cmask: usize) -> Vec<(usize, usize)> {
        let mut pairs = Vec::new();
        let mut lo = 0;
        while lo < len {
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
                for len in [128, 2 * stride] {
                    assert_eq!(
                        run_pairs(len, stride, cmask),
                        pair_loop(len, stride, cmask),
                        "stride={stride} cmask={cmask} len={len}"
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
        // Smoke the safe wrapper on the backend this host detected —
        // the deep bitwise sweeps live in tests/simd_equivalence.rs.
        let backend = detected_backend();
        let m = Mat2::new(
            Complex::new(0.6, -0.8),
            Complex::new(0.1, 0.2),
            Complex::new(-0.3, 0.4),
            Complex::new(0.0, 1.0),
        );
        let span = |k: f64| -> Vec<Complex> {
            (0..5)
                .map(|i| Complex::new(i as f64 + k, -(i as f64) * 0.5))
                .collect()
        };
        let (mut x, mut y) = (span(0.25), span(-0.75));
        let expect: Vec<(Complex, Complex)> =
            x.iter().zip(&y).map(|(&a, &b)| m.apply(a, b)).collect();
        test_support::general(backend, &mut x, &mut y, &m);
        let got: Vec<(Complex, Complex)> = x.into_iter().zip(y).collect();
        assert_eq!(got, expect);
    }
}
