//! The portable reference implementation of the run primitives.
//!
//! This loop is the original per-pair arithmetic of the shared 2×2
//! apply sweeps, kept verbatim: one [`Mat2::apply`] per pair, in
//! ascending index order. It is the **bit-exactness oracle** — every
//! vector backend must produce, for every output element, the same
//! IEEE-754 operation sequence on the same values (see the
//! [`crate::simd`] module docs) — and the fallback on hosts without a
//! supported vector unit. The vector backends also call into it for
//! sub-vector-width run tails.

use super::Isa;
use qmath::{Complex, Mat2};

/// The scalar instruction-set implementation.
pub(crate) struct ScalarIsa;

impl Isa for ScalarIsa {
    #[inline(always)]
    unsafe fn general(x: *mut Complex, y: *mut Complex, len: usize, m: &Mat2) {
        for i in 0..len {
            let px = x.add(i);
            let py = y.add(i);
            let (nx, ny) = m.apply(*px, *py);
            *px = nx;
            *py = ny;
        }
    }
}
