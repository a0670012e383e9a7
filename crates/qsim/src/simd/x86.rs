//! AVX2 (x86-64) implementation of the run primitives: two complex
//! amplitudes per 256-bit vector.
//!
//! # Bit-exactness
//!
//! Every lane reproduces the scalar operation sequence exactly — see
//! the [`crate::simd`] module docs for the contract. The complex
//! product `z·v` is computed as
//!
//! ```text
//! vpermilpd  vs = [v.im, v.re]            (pure data movement)
//! vmulpd     t1 = [z.re·v.re, z.re·v.im]
//! vmulpd     t2 = [z.im·v.im, z.im·v.re]
//! vaddsubpd  [t1₀ − t2₀, t1₁ + t2₁]
//! ```
//!
//! which is element-for-element the scalar
//! `(z.re·v.re − z.im·v.im, z.re·v.im + z.im·v.re)`: one rounding per
//! multiply, one per add/sub, same association, same operand order. No
//! FMA instruction is ever emitted (`vaddsubpd`/`vaddpd`/`vmulpd`
//! only), so no contraction can change a rounding. Run tails shorter
//! than one vector fall through to the scalar oracle loops.
//!
//! # Safety
//!
//! Every method of [`Avx2Isa`] additionally requires the host to
//! support AVX2; the dispatch sites guarantee it by construction
//! (detection or an availability assert) and wrap the whole kernel walk
//! in a `#[target_feature(enable = "avx2")]` function so these
//! `#[inline(always)]` bodies compile as AVX2 code.

use super::scalar::ScalarIsa;
use super::Isa;
use core::arch::x86_64::{
    __m256d, _mm256_add_pd, _mm256_addsub_pd, _mm256_loadu_pd, _mm256_mul_pd,
    _mm256_permute2f128_pd, _mm256_permute_pd, _mm256_set1_pd, _mm256_setr_pd, _mm256_storeu_pd,
};
use qmath::{Complex, Mat2};

/// The AVX2 instruction-set implementation.
pub(crate) struct Avx2Isa;

/// Complex amplitudes per 256-bit vector.
const LANES: usize = 2;

/// Swaps the real/imaginary halves of each complex slot:
/// `[a, b, c, d] → [b, a, d, c]`.
#[inline(always)]
unsafe fn swap_halves(v: __m256d) -> __m256d {
    _mm256_permute_pd(v, 0b0101)
}

/// `z · v` on two complex amplitudes, with `z` pre-broadcast as
/// `zr = [z.re; 4]`, `zi = [z.im; 4]`.
#[inline(always)]
unsafe fn cmul2(zr: __m256d, zi: __m256d, v: __m256d) -> __m256d {
    _mm256_addsub_pd(_mm256_mul_pd(zr, v), _mm256_mul_pd(zi, swap_halves(v)))
}

/// Loads two complex amplitudes starting at `p + i`.
#[inline(always)]
unsafe fn load2(p: *const Complex, i: usize) -> __m256d {
    _mm256_loadu_pd(p.add(i) as *const f64)
}

/// Stores two complex amplitudes starting at `p + i`.
#[inline(always)]
unsafe fn store2(p: *mut Complex, i: usize, v: __m256d) {
    _mm256_storeu_pd(p.add(i) as *mut f64, v)
}

/// Broadcasts the low complex slot: `[x, y] → [x, x]`.
#[inline(always)]
unsafe fn dup_lo(v: __m256d) -> __m256d {
    _mm256_permute2f128_pd::<0x00>(v, v)
}

/// Broadcasts the high complex slot: `[x, y] → [y, y]`.
#[inline(always)]
unsafe fn dup_hi(v: __m256d) -> __m256d {
    _mm256_permute2f128_pd::<0x11>(v, v)
}

/// `[z0 · v.lo, z1 · v.hi]` with the coefficients pre-split as
/// `re = [z0.re, z0.re, z1.re, z1.re]`, `im = [z0.im, …]` — the same
/// addsub shape as [`cmul2`], just with a different coefficient per
/// complex slot.
#[inline(always)]
unsafe fn cmul_slots(re: __m256d, im: __m256d, v: __m256d) -> __m256d {
    _mm256_addsub_pd(_mm256_mul_pd(re, v), _mm256_mul_pd(im, swap_halves(v)))
}

/// `[z0.re, z0.re, z1.re, z1.re]` / imaginary analog for [`cmul_slots`].
#[inline(always)]
unsafe fn split_re(z0: Complex, z1: Complex) -> __m256d {
    _mm256_setr_pd(z0.re, z0.re, z1.re, z1.re)
}
#[inline(always)]
unsafe fn split_im(z0: Complex, z1: Complex) -> __m256d {
    _mm256_setr_pd(z0.im, z0.im, z1.im, z1.im)
}

impl Isa for Avx2Isa {
    #[inline(always)]
    unsafe fn general(x: *mut Complex, y: *mut Complex, len: usize, m: &Mat2) {
        let ar = _mm256_set1_pd(m.a.re);
        let ai = _mm256_set1_pd(m.a.im);
        let br = _mm256_set1_pd(m.b.re);
        let bi = _mm256_set1_pd(m.b.im);
        let cr = _mm256_set1_pd(m.c.re);
        let ci = _mm256_set1_pd(m.c.im);
        let dr = _mm256_set1_pd(m.d.re);
        let di = _mm256_set1_pd(m.d.im);
        let mut i = 0;
        while i + LANES <= len {
            let xv = load2(x, i);
            let yv = load2(y, i);
            // (a·x + b·y, c·x + d·y) — each complex product via the
            // addsub shape above, then one componentwise add: exactly
            // `Mat2::apply`'s operation sequence.
            store2(x, i, _mm256_add_pd(cmul2(ar, ai, xv), cmul2(br, bi, yv)));
            store2(y, i, _mm256_add_pd(cmul2(cr, ci, xv), cmul2(dr, di, yv)));
            i += LANES;
        }
        if i < len {
            ScalarIsa::general(x.add(i), y.add(i), len - i, m);
        }
    }

    // Stride-1 override: one interleaved pair `[x, y]` per 256-bit
    // vector, coefficients split per complex slot, so qubit-0 ops run
    // at full vector width instead of falling to the scalar tails.

    #[inline(always)]
    unsafe fn general_pairs(p: *mut Complex, pairs: usize, m: &Mat2) {
        let ac_re = split_re(m.a, m.c);
        let ac_im = split_im(m.a, m.c);
        let bd_re = split_re(m.b, m.d);
        let bd_im = split_im(m.b, m.d);
        for i in 0..pairs {
            let v = load2(p, 2 * i);
            // [a·x, c·x] + [b·y, d·y] — each complex product in the
            // addsub shape, then one add: exactly `Mat2::apply`.
            let px = cmul_slots(ac_re, ac_im, dup_lo(v));
            let py = cmul_slots(bd_re, bd_im, dup_hi(v));
            store2(p, 2 * i, _mm256_add_pd(px, py));
        }
    }
}
