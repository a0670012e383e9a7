//! NEON (aarch64) implementation of the run primitives: one complex
//! amplitude per 128-bit vector.
//!
//! # Bit-exactness
//!
//! NEON has no `addsub` instruction, so the complex product `z·v` is
//! built from a sign-folded constant instead: with `v = [v.re, v.im]`
//! (lane 0 low), `vs = [v.im, v.re]` (an `EXT` byte rotate, pure data
//! movement), and the pre-negated broadcast `zn = [−z.im, z.im]`,
//!
//! ```text
//! fmul  t1 = [z.re·v.re,    z.re·v.im]
//! fmul  t2 = [(−z.im)·v.im, z.im·v.re]
//! fadd  [t1₀ + t2₀, t1₁ + t2₁]
//! ```
//!
//! Lane 1 is literally the scalar `z.re·v.im + z.im·v.re`. Lane 0 is
//! `z.re·v.re + (−z.im)·v.im`, which is bit-identical to the scalar
//! `z.re·v.re − z.im·v.im` for every input including signed zeros and
//! subnormals: IEEE-754 negation is a sign-bit flip, multiplication's
//! sign is the XOR of its operands' signs (so `(−a)·b` has exactly the
//! bits of `−(a·b)`), and `x + (−y)` rounds identically to `x − y`.
//! Crucially the fused `vfmaq_f64`/`vmlaq_f64` forms are **never**
//! used — a fused multiply-add skips the intermediate rounding and
//! would diverge from the scalar oracle.
//!
//! # Safety
//!
//! Every method of [`NeonIsa`] additionally requires NEON support; the
//! dispatch sites guarantee it (detection or an availability assert)
//! and wrap the kernel walk in a `#[target_feature(enable = "neon")]`
//! function so these `#[inline(always)]` bodies compile as NEON code.

use super::Isa;
use core::arch::aarch64::{
    float64x2_t, vaddq_f64, vcombine_f64, vdup_n_f64, vdupq_n_f64, vextq_f64, vld1q_f64, vmulq_f64,
    vst1q_f64,
};
use qmath::{Complex, Mat2};

/// The NEON instruction-set implementation.
pub(crate) struct NeonIsa;

/// Broadcast of a complex coefficient for the product shape above:
/// `re = [z.re, z.re]`, `neg_im = [−z.im, z.im]`.
#[derive(Clone, Copy)]
struct Coeff {
    re: float64x2_t,
    neg_im: float64x2_t,
}

#[inline(always)]
unsafe fn coeff(z: Complex) -> Coeff {
    Coeff {
        re: vdupq_n_f64(z.re),
        neg_im: vcombine_f64(vdup_n_f64(-z.im), vdup_n_f64(z.im)),
    }
}

/// Swaps the real/imaginary halves of the complex slot: `[a, b] → [b, a]`.
#[inline(always)]
unsafe fn swap_halves(v: float64x2_t) -> float64x2_t {
    vextq_f64::<1>(v, v)
}

/// `z · v` on one complex amplitude.
#[inline(always)]
unsafe fn cmul1(z: Coeff, v: float64x2_t) -> float64x2_t {
    vaddq_f64(vmulq_f64(z.re, v), vmulq_f64(z.neg_im, swap_halves(v)))
}

#[inline(always)]
unsafe fn load1(p: *const Complex, i: usize) -> float64x2_t {
    vld1q_f64(p.add(i) as *const f64)
}

#[inline(always)]
unsafe fn store1(p: *mut Complex, i: usize, v: float64x2_t) {
    vst1q_f64(p.add(i) as *mut f64, v)
}

impl Isa for NeonIsa {
    #[inline(always)]
    unsafe fn general(x: *mut Complex, y: *mut Complex, len: usize, m: &Mat2) {
        let a = coeff(m.a);
        let b = coeff(m.b);
        let c = coeff(m.c);
        let d = coeff(m.d);
        for i in 0..len {
            let xv = load1(x, i);
            let yv = load1(y, i);
            // (a·x + b·y, c·x + d·y) — each complex product via the
            // shape above, then one componentwise add: exactly
            // `Mat2::apply`'s operation sequence.
            store1(x, i, vaddq_f64(cmul1(a, xv), cmul1(b, yv)));
            store1(y, i, vaddq_f64(cmul1(c, xv), cmul1(d, yv)));
        }
    }
}
