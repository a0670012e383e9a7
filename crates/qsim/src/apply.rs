//! Shared matrix-application kernels.
//!
//! These free functions apply (not necessarily unitary) matrices to
//! selected bit positions of a complex amplitude buffer. The state-vector
//! simulator calls them with qubit indices directly; the density-matrix
//! simulator reuses the exact same kernels on its vectorized
//! representation (row qubits at bits `0..n`, column qubits at bits
//! `n..2n`, with conjugated matrices on the column side).
//!
//! The 2×2 sweeps dispatch onto the [`crate::simd`] run primitives: the
//! pair walk is decomposed into contiguous runs (`RunShape` — control
//! masks resolved up front, never per pair) and each run streams through
//! the active backend's `general` kernel, which performs exactly
//! [`Mat2::apply`]'s operation sequence per pair on every backend. The
//! `*_on` variants take the backend explicitly; the plain entry points
//! read [`crate::simd::active_backend`].

use crate::simd::scalar::ScalarIsa;
use crate::simd::{self, for_runs, Isa, RunShape, SimdBackend};
use qmath::{CMatrix, Complex, Mat2};

/// Applies a 2×2 matrix to bit `bit` of `amps` on the active SIMD
/// backend.
///
/// # Panics
///
/// Panics unless `amps.len()` is a power of two and `bit` addresses it.
pub fn apply_mat2_at(amps: &mut [Complex], bit: usize, m: &Mat2) {
    apply_mat2_at_on(simd::active_backend(), amps, bit, m)
}

/// [`apply_mat2_at`] on an explicit SIMD backend — the equivalence
/// suites use this to compare backends deterministically.
///
/// # Panics
///
/// As [`apply_mat2_at`], plus when `backend` is unavailable here.
pub fn apply_mat2_at_on(backend: SimdBackend, amps: &mut [Complex], bit: usize, m: &Mat2) {
    sweep_mat2(backend, amps, 1usize << bit, 0, m);
}

/// Applies a controlled 2×2 matrix on the active SIMD backend: `m` acts
/// on bit `target` only where bit `control` is set.
///
/// # Panics
///
/// Panics unless `amps.len()` is a power of two addressed by both bits,
/// and `control != target`.
pub fn apply_controlled_mat2_at(amps: &mut [Complex], control: usize, target: usize, m: &Mat2) {
    apply_controlled_mat2_at_on(simd::active_backend(), amps, control, target, m)
}

/// [`apply_controlled_mat2_at`] on an explicit SIMD backend.
///
/// # Panics
///
/// As [`apply_controlled_mat2_at`], plus when `backend` is unavailable
/// here.
pub fn apply_controlled_mat2_at_on(
    backend: SimdBackend,
    amps: &mut [Complex],
    control: usize,
    target: usize,
    m: &Mat2,
) {
    assert_ne!(control, target, "control equals target");
    sweep_mat2(backend, amps, 1usize << target, 1usize << control, m);
}

/// One full-array pair sweep: stride from the target bit, `cmask` a
/// single control bit or 0.
fn sweep_mat2(backend: SimdBackend, amps: &mut [Complex], stride: usize, cmask: usize, m: &Mat2) {
    let len = amps.len();
    assert!(
        len.is_power_of_two() && stride < len && cmask < len,
        "amplitude array of {len} cannot hold the addressed bits"
    );
    assert!(
        backend.is_available(),
        "SIMD backend {} is not available on this host",
        backend.name()
    );
    let shape = RunShape::new(stride, cmask);
    // SAFETY: the whole array is one window ([0, len)), len a multiple
    // of 2 × stride by the power-of-two check; the wrappers only add the
    // `target_feature` proof just asserted available.
    unsafe {
        match backend {
            SimdBackend::Scalar => sweep_with::<ScalarIsa>(amps, stride, &shape, m),
            #[cfg(target_arch = "x86_64")]
            SimdBackend::Avx2 => sweep_avx2(amps, stride, &shape, m),
            #[cfg(target_arch = "aarch64")]
            SimdBackend::Neon => sweep_neon(amps, stride, &shape, m),
            #[allow(unreachable_patterns)]
            other => unreachable!("{} unavailable", other.name()),
        }
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn sweep_avx2(amps: &mut [Complex], stride: usize, shape: &RunShape, m: &Mat2) {
    sweep_with::<crate::simd::x86::Avx2Isa>(amps, stride, shape, m)
}

#[cfg(target_arch = "aarch64")]
#[target_feature(enable = "neon")]
unsafe fn sweep_neon(amps: &mut [Complex], stride: usize, shape: &RunShape, m: &Mat2) {
    sweep_with::<crate::simd::aarch64::NeonIsa>(amps, stride, shape, m)
}

/// # Safety
///
/// `amps.len()` must be a power of two exceeding `stride` (callers
/// assert it), and the caller must hold the `I`-specific CPU-feature
/// proof.
#[inline(always)]
unsafe fn sweep_with<I: Isa>(amps: &mut [Complex], stride: usize, shape: &RunShape, m: &Mat2) {
    let len = amps.len();
    if stride == 1 && shape.group_mask == 0 {
        // Qubit-0 sweep: runs degenerate to single pairs; the
        // interleaved-pair primitive walks the same pairs at vector
        // width instead.
        return I::general_pairs(amps.as_mut_ptr(), len / 2, m);
    }
    let ptr = amps.as_mut_ptr();
    for_runs!(ptr, len, stride, shape, |x, y, run| I::general(
        x, y, run, m
    ));
}

/// Applies an arbitrary `2^k × 2^k` matrix to the bit positions `bits`
/// (bit `bits[j]` is local bit `j` of the matrix's basis).
///
/// `k == 1` routes to the SIMD 2×2 sweep (float-exact up to the sign of
/// zero against the dense loop, which skips exact-zero entries). The
/// `k >= 2` gather/scatter loop stays scalar: its basis indices are
/// non-contiguous, so there are no runs for the vector backends to
/// stream.
///
/// # Panics
///
/// Panics if `m.dim() != 2^bits.len()` or any two bit positions collide.
pub fn apply_matrix_at(amps: &mut [Complex], bits: &[usize], m: &CMatrix) {
    let k = bits.len();
    let dim = 1usize << k;
    assert_eq!(m.dim(), dim, "matrix dimension must be 2^k");
    let full_mask: usize = bits.iter().fold(0, |acc, b| {
        let mask = 1usize << b;
        assert_eq!(acc & mask, 0, "duplicate bit positions");
        acc | mask
    });

    if k == 1 {
        let m2 = Mat2::new(m.get(0, 0), m.get(0, 1), m.get(1, 0), m.get(1, 1));
        return apply_mat2_at(amps, bits[0], &m2);
    }

    // Precompute the global offset of each local basis index.
    let mut offsets = vec![0usize; dim];
    for (li, offset) in offsets.iter_mut().enumerate() {
        let mut o = 0usize;
        for (j, b) in bits.iter().enumerate() {
            if (li >> j) & 1 == 1 {
                o |= 1 << b;
            }
        }
        *offset = o;
    }

    let len = amps.len();
    let mut local = vec![Complex::ZERO; dim];
    for i in 0..len {
        if i & full_mask != 0 {
            continue;
        }
        for (li, o) in offsets.iter().enumerate() {
            local[li] = amps[i + o];
        }
        for (row, o) in offsets.iter().enumerate() {
            let mut acc = Complex::ZERO;
            for (col, l) in local.iter().enumerate() {
                let mij = m.get(row, col);
                if mij != Complex::ZERO {
                    acc += mij * *l;
                }
            }
            amps[i + o] = acc;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcircuit::Gate;
    use qmath::approx_eq_slice;

    fn basis(n: usize, i: usize) -> Vec<Complex> {
        let mut v = vec![Complex::ZERO; 1 << n];
        v[i] = Complex::ONE;
        v
    }

    #[test]
    fn mat2_on_each_bit_of_three() {
        let x = Gate::X.mat2().unwrap();
        for bit in 0..3 {
            let mut amps = basis(3, 0);
            apply_mat2_at(&mut amps, bit, &x);
            assert!(approx_eq_slice(&amps, &basis(3, 1 << bit), 1e-12));
        }
    }

    #[test]
    fn controlled_mat2_respects_control() {
        let x = Gate::X.mat2().unwrap();
        // Control bit 0 clear: nothing happens.
        let mut amps = basis(2, 0b00);
        apply_controlled_mat2_at(&mut amps, 0, 1, &x);
        assert!(approx_eq_slice(&amps, &basis(2, 0b00), 1e-12));
        // Control set: target flips.
        let mut amps = basis(2, 0b01);
        apply_controlled_mat2_at(&mut amps, 0, 1, &x);
        assert!(approx_eq_slice(&amps, &basis(2, 0b11), 1e-12));
    }

    #[test]
    fn controlled_mat2_is_identical_on_every_backend() {
        // Control below and above the target, strict bit equality
        // between the scalar oracle and the detected vector backend.
        let vector = simd::detected_backend();
        let u = Gate::U3(0.7, -0.2, 1.3).mat2().unwrap();
        for &(control, target) in &[(0usize, 3usize), (3, 0), (2, 4), (5, 1)] {
            let amps0: Vec<Complex> = (0..1usize << 6)
                .map(|i| Complex::new(1.0 / (i + 1) as f64, -(i as f64) * 0.01))
                .collect();
            let mut scalar_out = amps0.clone();
            let mut vector_out = amps0;
            apply_controlled_mat2_at_on(SimdBackend::Scalar, &mut scalar_out, control, target, &u);
            apply_controlled_mat2_at_on(vector, &mut vector_out, control, target, &u);
            for (i, (a, b)) in scalar_out.iter().zip(&vector_out).enumerate() {
                assert_eq!(
                    (a.re.to_bits(), a.im.to_bits()),
                    (b.re.to_bits(), b.im.to_bits()),
                    "amplitude {i} diverged (control {control}, target {target})"
                );
            }
        }
    }

    #[test]
    fn general_matrix_matches_mat2_kernel() {
        let h = Gate::H;
        let mut a = basis(3, 0b101);
        let mut b = a.clone();
        apply_mat2_at(&mut a, 1, &h.mat2().unwrap());
        apply_matrix_at(&mut b, &[1], &h.matrix());
        assert!(approx_eq_slice(&a, &b, 1e-12));
    }

    #[test]
    fn general_matrix_cx_truth_table() {
        let cx = Gate::Cx.matrix();
        // control = bit 2, target = bit 0 in a 3-bit register.
        let mut amps = basis(3, 0b100);
        apply_matrix_at(&mut amps, &[2, 0], &cx);
        assert!(approx_eq_slice(&amps, &basis(3, 0b101), 1e-12));
        // control clear: unchanged.
        let mut amps = basis(3, 0b010);
        apply_matrix_at(&mut amps, &[2, 0], &cx);
        assert!(approx_eq_slice(&amps, &basis(3, 0b010), 1e-12));
    }

    #[test]
    fn general_matrix_toffoli() {
        let ccx = Gate::Ccx.matrix();
        let mut amps = basis(4, 0b0110);
        // controls bits 1,2, target bit 3.
        apply_matrix_at(&mut amps, &[1, 2, 3], &ccx);
        assert!(approx_eq_slice(&amps, &basis(4, 0b1110), 1e-12));
    }

    #[test]
    #[should_panic(expected = "duplicate bit")]
    fn duplicate_bits_panic() {
        let mut amps = basis(2, 0);
        apply_matrix_at(&mut amps, &[0, 0], &Gate::Cx.matrix());
    }

    #[test]
    #[should_panic(expected = "2^k")]
    fn wrong_dimension_panics() {
        let mut amps = basis(2, 0);
        apply_matrix_at(&mut amps, &[0], &Gate::Cx.matrix());
    }
}
