//! Cache-blocked SoA apply kernels for batched op execution.
//!
//! A [`BatchKernel`] is the executable form of one
//! [`BatchedApply`](crate::batch::PlanNode::BatchedApply) plan node: a
//! group of single-qubit / controlled-single-qubit ops on pairwise
//! disjoint qubits, compiled into a structure-of-arrays layout (parallel
//! `strides` / `shapes` / `block_masks` / `classes` tables, indexed by
//! op) and executed as **one blocked pass** over the amplitude array
//! instead of one full sweep per op.
//!
//! # Blocking and bit-identity
//!
//! The batch is split **in plan order** into segments: maximal runs of
//! *low* ops (target bit below `block_bits`) execute as one blocked
//! pass — the amplitude array is walked in aligned L1-sized blocks of
//! `2^block_bits` entries and every op of the segment is applied to a
//! block before the walk moves on — while each *high* op (target bit at
//! or above the block) executes as a single full-array sweep of
//! maximal-length runs, which streams at vector width anyway. A low
//! op's index pairs `(i, i | stride)` lie entirely inside one block, so
//! applying the segment's ops **in op order within each block** is
//! float-exact with respect to applying each op in a full sweep of its
//! own: every amplitude sees the same arithmetic operations on the same
//! values in the same order; only the traversal order of *independent*
//! pair updates changes. Since segments preserve plan order, the whole
//! pass is bit-identical to sequential application (the equivalence
//! suite in `tests/batch_equivalence.rs` pins this across backends,
//! seeds, and thread counts). Keeping the block L1-resident — instead
//! of growing it to cover the batch's highest target — is what lets the
//! low ops reuse cached amplitudes while all of them stream over a
//! block, and it is where the SIMD backends win: L1-resident blocks are
//! compute-bound, not bandwidth-bound.
//!
//! # Control handling
//!
//! Control masks are resolved entirely at compile time, never per pair:
//! a control bit at or above the block becomes a whole-block skip mask
//! (`block_masks`), and a control bit inside the block folds into the
//! op's `RunShape` — the precomputed skip-stride table that walks only
//! the passing pairs as contiguous runs. The inner loops are branch-free
//! over each run, which is also what lets the SIMD backends stream full
//! vectors.
//!
//! # Coefficient classes and SIMD
//!
//! Each op's 2×2 matrix is classified once at plan time
//! (`OpClass`): phase gates (S, T, Z, P, CZ) touch only the set-bit
//! amplitude, X/CX reduce to swaps, real matrices (H, Ry) drop the
//! imaginary half of the complex products. Specialized products elide
//! only multiplications by exact `0.0`/`1.0` coefficients, which is
//! float-exact for every finite amplitude up to the sign of zero — and
//! `-0.0 == 0.0`, `(-0.0)² == 0.0`, so sampling, probabilities, and
//! amplitude comparisons are unaffected.
//!
//! Each class bottoms out in one [`crate::simd`] run primitive; the
//! whole blocked walk is compiled once per instruction set and selected
//! at runtime ([`crate::simd::active_backend`]). All backends are
//! bit-identical by the [`crate::simd`] contract.

use crate::simd::scalar::ScalarIsa;
use crate::simd::{self, for_runs, Isa, RunShape, SimdBackend};
use qmath::{Complex, Mat2};

/// Blocks hold `2^MIN_BLOCK_BITS` amplitudes (2048 × 16 B = 32 KiB —
/// sized to a typical L1 data cache). Ops whose target bit does not fit
/// the block are not blocked at all: they run as full-array sweeps in
/// their plan-order slot (see the module docs).
pub(crate) const MIN_BLOCK_BITS: usize = 11;

/// One op of a batch, as handed over by the planner.
#[derive(Clone, Copy, Debug)]
pub(crate) struct KernelOp {
    /// Target qubit (bit position of the index pairs).
    pub target: usize,
    /// Control qubit, if any.
    pub control: Option<usize>,
    /// The 2×2 unitary applied to the target.
    pub matrix: Mat2,
}

/// The coefficient structure of one op's matrix, chosen once at plan
/// time so the per-block inner loops are monomorphic.
#[derive(Clone, Debug)]
enum OpClass {
    /// `diag(1, d)` — S, T, Z, P and the target of CZ/CP: only the
    /// set-bit amplitude is loaded, scaled, and stored.
    Phase { d: Complex },
    /// `diag(a, d)` — Rz and fused diagonal runs.
    Scale { a: Complex, d: Complex },
    /// `offdiag(1, 1)` — X and the target of CX: a pure amplitude swap,
    /// no arithmetic at all.
    Swap,
    /// `offdiag(b, c)` — Y and phased flips.
    Flip { b: Complex, c: Complex },
    /// All four entries real — H, Ry, and their fusions: half the
    /// multiplies of the complex path.
    RealGeneral { a: f64, b: f64, c: f64, d: f64 },
    /// Anything else: the full [`Mat2::apply`] product.
    General { m: Mat2 },
}

fn classify(m: &Mat2) -> OpClass {
    let zero = Complex::ZERO;
    let one = Complex::ONE;
    if m.b == zero && m.c == zero {
        if m.a == one {
            OpClass::Phase { d: m.d }
        } else {
            OpClass::Scale { a: m.a, d: m.d }
        }
    } else if m.a == zero && m.d == zero {
        if m.b == one && m.c == one {
            OpClass::Swap
        } else {
            OpClass::Flip { b: m.b, c: m.c }
        }
    } else if m.a.im == 0.0 && m.b.im == 0.0 && m.c.im == 0.0 && m.d.im == 0.0 {
        OpClass::RealGeneral {
            a: m.a.re,
            b: m.b.re,
            c: m.c.re,
            d: m.d.re,
        }
    } else {
        OpClass::General { m: *m }
    }
}

/// One plan-order slice of a batch: either a run of low ops executed as
/// a blocked pass, or a single high op executed as a full-array sweep.
#[derive(Clone, Copy, Debug)]
struct Segment {
    /// Op range `[start, end)` into the SoA tables.
    start: usize,
    end: usize,
    /// `true` → blocked pass over L1-sized blocks; `false` → one
    /// full-array sweep (`end == start + 1`).
    blocked: bool,
}

/// A compiled batch of disjoint-qubit ops in SoA layout, applied to an
/// amplitude array in one blocked pass.
#[derive(Clone, Debug)]
pub struct BatchKernel {
    /// `strides[j] = 1 << target_bit(j)` — the index-pair stride of op
    /// `j` (parallel to `shapes`, `block_masks`, and `classes`).
    strides: Vec<usize>,
    /// Precomputed in-block run decomposition of op `j` (control bits
    /// below the block folded in — no per-pair tests remain).
    shapes: Vec<RunShape>,
    /// Control mask of op `j` when the control bit lives at or above the
    /// block: constant across a block, tested once per block. 0 = none.
    block_masks: Vec<usize>,
    /// Coefficient class of op `j`.
    classes: Vec<OpClass>,
    /// Plan-order execution segments (blocked low-op runs interleaved
    /// with full-sweep high ops).
    segments: Vec<Segment>,
    /// log₂ of the block length used by blocked segments.
    block_bits: usize,
    /// Highest bit any op addresses (validated against the amplitude
    /// array length on every apply).
    max_bit: usize,
}

impl BatchKernel {
    /// Compiles a batch. The planner guarantees `ops` is non-empty and
    /// its qubit sets are pairwise disjoint; both are debug-asserted.
    pub(crate) fn new(ops: &[KernelOp]) -> Self {
        debug_assert!(!ops.is_empty(), "empty batch");
        Self::with_block_bits(ops, MIN_BLOCK_BITS)
    }

    /// [`BatchKernel::new`] with an explicit block size — tests pin the
    /// blocked/unblocked equivalence with this.
    pub(crate) fn with_block_bits(ops: &[KernelOp], block_bits: usize) -> Self {
        let mut seen = 0u128;
        let mut strides = Vec::with_capacity(ops.len());
        let mut shapes = Vec::with_capacity(ops.len());
        let mut block_masks = Vec::with_capacity(ops.len());
        let mut classes = Vec::with_capacity(ops.len());
        let mut segments: Vec<Segment> = Vec::new();
        let mut max_bit = 0usize;
        for (j, op) in ops.iter().enumerate() {
            // The planner caps batched qubits (MAX_BATCH_QUBIT) well
            // under the usize shifts below; the mask bound is looser.
            debug_assert!(op.target < 128 && seen & (1u128 << op.target) == 0);
            seen |= 1u128 << (op.target % 128);
            max_bit = max_bit.max(op.target);
            if let Some(c) = op.control {
                debug_assert_ne!(c, op.target, "control equals target");
                debug_assert!(c < 128 && seen & (1u128 << c) == 0);
                seen |= 1u128 << (c % 128);
                max_bit = max_bit.max(c);
            }
            let stride = 1usize << op.target;
            let cmask = op.control.map_or(0, |c| 1usize << c);
            let low = op.target < block_bits;
            // Split the control between the block walk and the run
            // shape at compile time. For a low op, whenever the mask
            // could matter (cmask < n, i.e. the state holds the control
            // bit), the apply-time block is exactly `2^block_bits`, so
            // the split is decidable here: at or above the block →
            // constant per block, test once per block; below → fold
            // into the runs. A high op sweeps the whole array, so its
            // control always folds into the runs.
            let (block_mask, in_run) = if low && cmask >= 1usize << block_bits {
                (cmask, 0)
            } else {
                (0, cmask)
            };
            strides.push(stride);
            shapes.push(RunShape::new(stride, in_run));
            block_masks.push(block_mask);
            classes.push(classify(&op.matrix));
            match segments.last_mut() {
                Some(seg) if low && seg.blocked && seg.end == j => seg.end = j + 1,
                _ => segments.push(Segment {
                    start: j,
                    end: j + 1,
                    blocked: low,
                }),
            }
        }
        BatchKernel {
            strides,
            shapes,
            block_masks,
            classes,
            segments,
            block_bits,
            max_bit,
        }
    }

    /// Ops in this batch.
    pub fn len(&self) -> usize {
        self.strides.len()
    }

    /// Returns `true` when the batch holds no ops (never produced by the
    /// planner; here for API completeness).
    pub fn is_empty(&self) -> bool {
        self.strides.is_empty()
    }

    /// Applies every op of the batch to `amps` in one blocked pass on
    /// the active SIMD backend, bit-identical to applying the ops
    /// sequentially in full sweeps.
    ///
    /// # Panics
    ///
    /// Panics when `amps` is not a power-of-two length covering every
    /// qubit the batch addresses.
    pub fn apply(&self, amps: &mut [Complex]) {
        self.apply_on(simd::active_backend(), amps)
    }

    /// [`BatchKernel::apply`] on an explicit SIMD backend — the
    /// equivalence suites use this to compare backends deterministically
    /// without touching the process-global dispatch.
    ///
    /// # Panics
    ///
    /// Panics when `backend` is not available on this host, or when
    /// `amps` is not a power-of-two length covering every qubit the
    /// batch addresses.
    pub fn apply_on(&self, backend: SimdBackend, amps: &mut [Complex]) {
        let n = amps.len();
        assert!(
            n.is_power_of_two() && n >= (2usize << self.max_bit),
            "amplitude array of {n} cannot hold qubit bit {}",
            self.max_bit
        );
        assert!(
            backend.is_available(),
            "SIMD backend {} is not available on this host",
            backend.name()
        );
        // SAFETY: length checked above; the per-backend wrappers only
        // add the `target_feature` proof just asserted available.
        unsafe {
            match backend {
                SimdBackend::Scalar => self.apply_with::<ScalarIsa>(amps),
                #[cfg(target_arch = "x86_64")]
                SimdBackend::Avx2 => self.apply_avx2(amps),
                #[cfg(target_arch = "aarch64")]
                SimdBackend::Neon => self.apply_neon(amps),
                #[allow(unreachable_patterns)]
                other => unreachable!("{} unavailable", other.name()),
            }
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn apply_avx2(&self, amps: &mut [Complex]) {
        self.apply_with::<crate::simd::x86::Avx2Isa>(amps)
    }

    #[cfg(target_arch = "aarch64")]
    #[target_feature(enable = "neon")]
    unsafe fn apply_neon(&self, amps: &mut [Complex]) {
        self.apply_with::<crate::simd::aarch64::NeonIsa>(amps)
    }

    /// The blocked walk, generic over the instruction set and inlined
    /// into each `target_feature` wrapper so the run primitives compile
    /// as native vector code.
    ///
    /// # Safety
    ///
    /// `amps.len()` must be a power of two covering `max_bit` (the
    /// public entry points assert it), and the caller must hold the
    /// `I`-specific CPU-feature proof.
    #[inline(always)]
    unsafe fn apply_with<I: Isa>(&self, amps: &mut [Complex]) {
        let n = amps.len();
        let block = (1usize << self.block_bits).min(n);
        let ptr = amps.as_mut_ptr();
        for seg in &self.segments {
            if !seg.blocked {
                // High op: one full-array sweep in its plan-order slot.
                // In-bounds: `n` is a power of two covering `max_bit`,
                // so it is a multiple of 2 × stride.
                let j = seg.start;
                apply_class_runs::<I>(
                    ptr,
                    0,
                    n,
                    self.strides[j],
                    &self.shapes[j],
                    &self.classes[j],
                );
                continue;
            }
            let mut base = 0usize;
            while base < n {
                for j in seg.start..seg.end {
                    let block_mask = self.block_masks[j];
                    if block_mask != 0 && base & block_mask == 0 {
                        // Control bit lives at or above the block:
                        // constant across the whole block — skip it
                        // outright.
                        continue;
                    }
                    // In-bounds by construction: `base + block <= n` (n
                    // is a multiple of the power-of-two block) and every
                    // pair index is `off | stride < base + block`
                    // because `stride < block`.
                    apply_class_runs::<I>(
                        ptr,
                        base,
                        block,
                        self.strides[j],
                        &self.shapes[j],
                        &self.classes[j],
                    );
                }
                base += block;
            }
        }
    }
}

/// Applies one classified op to one block by streaming the op's
/// [`RunShape`] runs through the matching `I` primitive. The specialized
/// products are float-exact against [`Mat2::apply`] up to the sign of
/// zero (see the module docs).
///
/// # Safety
///
/// As for [`for_runs`]: `ptr` valid over `[base, base + block)`, `block`
/// and `base` multiples of `2 × stride`, plus the `I`-specific
/// CPU-feature proof.
#[inline(always)]
unsafe fn apply_class_runs<I: Isa>(
    ptr: *mut Complex,
    base: usize,
    block: usize,
    stride: usize,
    shape: &RunShape,
    class: &OpClass,
) {
    if stride == 1 && shape.group_mask == 0 {
        // Qubit-0 op, uncontrolled in-block: runs degenerate to single
        // pairs, so use the interleaved-pair primitives instead (same
        // pairs, same order, vector-width arithmetic).
        let p = ptr.add(base);
        let pairs = block / 2;
        match class {
            OpClass::Phase { d } => I::phase_pairs(p, pairs, *d),
            OpClass::Scale { a, d } => I::scale_pairs(p, pairs, *a, *d),
            OpClass::Swap => I::swap_pairs(p, pairs),
            OpClass::Flip { b, c } => I::flip_pairs(p, pairs, *b, *c),
            OpClass::RealGeneral { a, b, c, d } => {
                I::real_general_pairs(p, pairs, [*a, *b, *c, *d])
            }
            OpClass::General { m } => I::general_pairs(p, pairs, m),
        }
        return;
    }
    match class {
        OpClass::Phase { d } => {
            let d = *d;
            for_runs!(ptr, base, block, stride, shape, |_x, y, len| I::cmul(
                y, len, d
            ));
        }
        OpClass::Scale { a, d } => {
            let (a, d) = (*a, *d);
            for_runs!(ptr, base, block, stride, shape, |x, y, len| {
                I::cmul(x, len, a);
                I::cmul(y, len, d);
            });
        }
        OpClass::Swap => {
            for_runs!(ptr, base, block, stride, shape, |x, y, len| I::swap(
                x, y, len
            ));
        }
        OpClass::Flip { b, c } => {
            let (b, c) = (*b, *c);
            for_runs!(ptr, base, block, stride, shape, |x, y, len| I::flip(
                x, y, len, b, c
            ));
        }
        OpClass::RealGeneral { a, b, c, d } => {
            let m = [*a, *b, *c, *d];
            for_runs!(ptr, base, block, stride, shape, |x, y, len| {
                I::real_general(x, y, len, m)
            });
        }
        OpClass::General { m } => {
            for_runs!(ptr, base, block, stride, shape, |x, y, len| I::general(
                x, y, len, m
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apply::{apply_controlled_mat2_at_on, apply_mat2_at_on};
    use qcircuit::Gate;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// A reproducible dense state (not normalized — the kernels are
    /// linear, normalization is irrelevant to bit-identity).
    fn random_amps(num_qubits: usize, seed: u64) -> Vec<Complex> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..1usize << num_qubits)
            .map(|_| Complex::new(rng.gen::<f64>() - 0.5, rng.gen::<f64>() - 0.5))
            .collect()
    }

    /// Sequential reference: full sweep per op via the forced-scalar
    /// kernels.
    fn reference(ops: &[KernelOp], amps: &mut [Complex]) {
        for op in ops {
            match op.control {
                Some(c) => {
                    apply_controlled_mat2_at_on(SimdBackend::Scalar, amps, c, op.target, &op.matrix)
                }
                None => apply_mat2_at_on(SimdBackend::Scalar, amps, op.target, &op.matrix),
            }
        }
    }

    fn mat(g: Gate) -> Mat2 {
        g.mat2().expect("single-qubit gate")
    }

    fn assert_states_equal(a: &[Complex], b: &[Complex]) {
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            // `==` on f64 treats -0.0 and 0.0 as equal, which is exactly
            // the contract the specialized products promise.
            assert_eq!(x, y, "amplitude {i} diverged");
        }
    }

    fn cases() -> Vec<Vec<KernelOp>> {
        vec![
            // Phase / Scale / Swap / Flip / RealGeneral / General singles.
            vec![KernelOp {
                target: 2,
                control: None,
                matrix: mat(Gate::T),
            }],
            vec![KernelOp {
                target: 1,
                control: None,
                matrix: mat(Gate::Rz(0.83)),
            }],
            vec![KernelOp {
                target: 3,
                control: None,
                matrix: mat(Gate::X),
            }],
            vec![KernelOp {
                target: 0,
                control: None,
                matrix: mat(Gate::Y),
            }],
            vec![KernelOp {
                target: 2,
                control: None,
                matrix: mat(Gate::H),
            }],
            vec![KernelOp {
                target: 1,
                control: None,
                matrix: mat(Gate::U3(0.4, 1.1, -0.6)),
            }],
            // Controlled variants (CX = controlled Swap, CZ = controlled
            // Phase, CH = controlled RealGeneral), with controls below
            // and above the target to hit both RunShape arms.
            vec![KernelOp {
                target: 2,
                control: Some(0),
                matrix: mat(Gate::X),
            }],
            vec![KernelOp {
                target: 0,
                control: Some(3),
                matrix: mat(Gate::Z),
            }],
            vec![KernelOp {
                target: 1,
                control: Some(4),
                matrix: mat(Gate::H),
            }],
            // A wide disjoint layer mixing every class.
            vec![
                KernelOp {
                    target: 0,
                    control: None,
                    matrix: mat(Gate::H),
                },
                KernelOp {
                    target: 1,
                    control: None,
                    matrix: mat(Gate::T),
                },
                KernelOp {
                    target: 2,
                    control: None,
                    matrix: mat(Gate::X),
                },
                KernelOp {
                    target: 4,
                    control: Some(3),
                    matrix: mat(Gate::X),
                },
                KernelOp {
                    target: 5,
                    control: None,
                    matrix: mat(Gate::U3(0.2, 0.3, 0.4)),
                },
            ],
        ]
    }

    #[test]
    fn every_class_matches_the_scalar_kernels_bit_for_bit() {
        for (k, ops) in cases().iter().enumerate() {
            let mut batched = random_amps(6, k as u64);
            let mut sequential = batched.clone();
            BatchKernel::new(ops).apply(&mut batched);
            reference(ops, &mut sequential);
            assert_states_equal(&batched, &sequential);
        }
    }

    #[test]
    fn every_backend_is_bit_identical_to_forced_scalar() {
        // Strict `to_bits` equality, not `==`: scalar and vector run the
        // same operation sequence, so even zero signs must agree.
        let vector = simd::detected_backend();
        for (k, ops) in cases().iter().enumerate() {
            let scalar_out = {
                let mut amps = random_amps(6, 100 + k as u64);
                BatchKernel::new(ops).apply_on(SimdBackend::Scalar, &mut amps);
                amps
            };
            let vector_out = {
                let mut amps = random_amps(6, 100 + k as u64);
                BatchKernel::new(ops).apply_on(vector, &mut amps);
                amps
            };
            for (i, (a, b)) in scalar_out.iter().zip(&vector_out).enumerate() {
                assert_eq!(
                    (a.re.to_bits(), a.im.to_bits()),
                    (b.re.to_bits(), b.im.to_bits()),
                    "amplitude {i} diverged between scalar and {} on case {k}",
                    vector.name()
                );
            }
        }
    }

    #[test]
    fn blocking_is_bit_identical_to_one_big_block() {
        // 8 qubits, forced tiny blocks: every block boundary is crossed
        // by the walk, including control bits above the block size.
        let ops = vec![
            KernelOp {
                target: 0,
                control: None,
                matrix: mat(Gate::H),
            },
            KernelOp {
                target: 1,
                control: Some(6),
                matrix: mat(Gate::X),
            },
            KernelOp {
                target: 2,
                control: None,
                matrix: mat(Gate::T),
            },
            KernelOp {
                target: 3,
                control: Some(7),
                matrix: mat(Gate::S),
            },
        ];
        let amps0 = random_amps(8, 42);
        let mut small_blocks = amps0.clone();
        let mut one_block = amps0.clone();
        let mut sequential = amps0;
        BatchKernel::with_block_bits(&ops, 4).apply(&mut small_blocks);
        BatchKernel::with_block_bits(&ops, 8).apply(&mut one_block);
        reference(&ops, &mut sequential);
        assert_states_equal(&small_blocks, &one_block);
        assert_states_equal(&small_blocks, &sequential);
    }

    #[test]
    fn high_targets_run_as_full_sweeps() {
        // Target at/above MIN_BLOCK_BITS: executed as a full-array
        // sweep in its plan-order slot, not a blocked pass.
        let ops = vec![KernelOp {
            target: 13,
            control: None,
            matrix: mat(Gate::H),
        }];
        let mut batched = random_amps(14, 7);
        let mut sequential = batched.clone();
        BatchKernel::new(&ops).apply(&mut batched);
        reference(&ops, &mut sequential);
        assert_states_equal(&batched, &sequential);
    }

    #[test]
    fn interleaved_low_and_high_ops_preserve_plan_order() {
        // low, high, low, high with tiny blocks: two blocked segments
        // split around full sweeps, bit-identical to sequential order.
        // The high ops carry controls below and above their target to
        // exercise both RunShape arms in the sweep path.
        let ops = vec![
            KernelOp {
                target: 0,
                control: None,
                matrix: mat(Gate::H),
            },
            KernelOp {
                target: 6,
                control: Some(2),
                matrix: mat(Gate::U3(0.9, -0.3, 0.5)),
            },
            KernelOp {
                target: 3,
                control: None,
                matrix: mat(Gate::T),
            },
            KernelOp {
                target: 5,
                control: Some(7),
                matrix: mat(Gate::X),
            },
        ];
        let amps0 = random_amps(8, 99);
        let mut batched = amps0.clone();
        let mut sequential = amps0;
        BatchKernel::with_block_bits(&ops, 4).apply(&mut batched);
        reference(&ops, &mut sequential);
        assert_states_equal(&batched, &sequential);
    }

    #[test]
    #[should_panic(expected = "cannot hold qubit bit")]
    fn too_small_state_panics() {
        let ops = vec![KernelOp {
            target: 4,
            control: None,
            matrix: mat(Gate::H),
        }];
        let mut amps = random_amps(3, 0);
        BatchKernel::new(&ops).apply(&mut amps);
    }
}
