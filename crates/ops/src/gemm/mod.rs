//! General matrix-matrix multiplication kernels.
//!
//! DeepBench's two operator families are GEMM and convolution; GEMM also
//! backs the fully-connected layer and the im2col convolution algorithm.
//! Four kernels of increasing quality are provided:
//!
//! * [`Algorithm::Naive`] — triple loop in `ijk` order (poor locality);
//!   stands in for an unoptimized reference,
//! * [`Algorithm::Blocked`] — cache-blocked `ikj` micro-kernels,
//! * [`Algorithm::Parallel`] — the blocked kernel parallelized across row
//!   panels (through [`crate::par`]),
//! * [`Algorithm::Packed`] — the default: a BLIS-style register-tiled
//!   microkernel over packed panels with cache-aware `MC/KC/NC` dispatch
//!   and row-panel parallelism (see [`packed`]); this is the
//!   "cuDNN-class" kernel that the simulated frameworks, the DeepBench
//!   baseline, and both graph executors call by default.
//!
//! Every product goes through one slice-level call, [`gemm_into`], and one
//! tensor-level call, [`matmul_as`]: `C = op(A) * op(B)` for row-major
//! `op(A) (M x K)`, `op(B) (K x N)`, `C (M x N)`, where the operand form
//! (either operand transposed, for the backward products and `Linear`'s
//! `x * Wᵀ`) and the fused write-back [`Epilogue`] are arguments, not
//! separate functions. The first three tiers accumulate each output
//! element in plain ascending-`p` order and serve as the bit-exact
//! reference tiers; the packed tier sums the same products with a
//! different grouping (per-`KC` register partials, FMA where the host
//! supports it), giving the paper's cross-framework `ℓ∞` comparisons a
//! genuinely distinct accumulation order to measure.

pub mod packed;

use crate::par;
use deep500_tensor::{Error, Result, Tensor};

pub use packed::{Blocking, Epilogue, MR, NR};

/// GEMM kernel selection. `Packed` is fastest on every `BENCH_gemm.json`
/// shape (gate `packed_fastest`) and is what everything calls by default;
/// each slower tier is kept for the one job named on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Algorithm {
    /// The parity oracle: plain ascending-`p` triple loop every other tier
    /// is held to within ℓ∞ tolerance of (`BENCH_gemm` gate `parity`,
    /// Fig. 6 correctness table, the packed tier's unit tests).
    Naive,
    /// The single-threaded cache-blocked baseline of the Fig. 6 correctness
    /// table and the `ablations` GEMM-blocking table.
    Blocked,
    /// The "different BLAS" of the TensorFlow-like framework profile
    /// (Fig. 6 / Fig. 10): same products, different accumulation order and
    /// speed than the packed tier the other profiles share.
    Parallel,
    #[default]
    Packed,
}

impl Algorithm {
    /// The work a reference tier reports to [`par`] for a product's row
    /// panels: `Parallel` its multiply-adds, the serial tiers none.
    fn panel_work(self, m: usize, n: usize, k: usize) -> usize {
        if self == Algorithm::Parallel {
            m * n * k
        } else {
            0
        }
    }
}

/// Cache-block edge for the blocked kernels (elements).
const BLOCK: usize = 64;

/// The one slice-level product: `C += op(A) * op(B)` for row-major
/// slices, `op` a transpose where its flag is set (`A` stored `[K x M]`,
/// `B` stored `[N x K]`), then the fused write-back `epilogue`. Under the
/// **zeroed-`C` contract**: `c` holds zeros on entry — a freshly zeroed
/// buffer ([`Tensor::zeros`], pool acquisitions, `vec![0.0; ..]`) is
/// touched once. `Packed` adds the product to whatever `c` holds (the
/// convolution backward accumulates `dW` through it) and runs the epilogue
/// inside its final `KC`-block store; the other tiers apply it as a
/// separate pass with the identical per-element float sequence.
///
/// The plain form runs the tier's own kernel; both transposed forms run
/// one reference panel (`transposed_panel`) on every other tier —
/// serially on `Naive`/`Blocked`, over [`par`]'s row panels on `Parallel`
/// (bit-identical to serial) — and `Packed` absorbs the transposition
/// into its pack. No kernel computes `Aᵀ * Bᵀ`.
#[allow(clippy::too_many_arguments)]
pub fn gemm_into(
    algo: Algorithm,
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    a_trans: bool,
    b: &[f32],
    b_trans: bool,
    c: &mut [f32],
    epilogue: Epilogue<'_>,
) {
    debug_assert!(!(a_trans && b_trans), "no kernel computes A^T * B^T");
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(c.len(), m * n);
    match algo {
        Algorithm::Packed => {
            let (nr, ldb) = (packed::host_nr(), if b_trans { k } else { n });
            return packed::gemm_packed_as(nr, m, n, k, a, a_trans, b, b_trans, ldb, c, epilogue);
        }
        _ if a_trans || b_trans => {
            par::for_each_chunk(c, BLOCK * n, algo.panel_work(m, n, k), |chunk, cpanel| {
                transposed_panel(chunk * BLOCK, m, n, k, a, a_trans, b, cpanel)
            })
        }
        Algorithm::Naive => gemm_naive(m, n, k, a, b, c),
        Algorithm::Blocked => gemm_blocked_acc(m, n, k, a, b, c),
        Algorithm::Parallel => gemm_parallel_acc(m, n, k, a, b, c),
    }
    epilogue.apply_matrix(c, n);
}

fn gemm_naive(m: usize, n: usize, k: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for p in 0..k {
                acc += a[i * k + p] * b[p * n + j];
            }
            c[i * n + j] = acc;
        }
    }
}

/// Serial cache-blocked kernel: `ikj` inner order so the innermost loop
/// streams both `B` and `C` rows (unit stride), blocked to keep panels in
/// cache. **Accumulates** into `c` (zeroed-`C` contract of [`gemm_into`]).
fn gemm_blocked_acc(m: usize, n: usize, k: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    for ib in (0..m).step_by(BLOCK) {
        let ie = (ib + BLOCK).min(m);
        for pb in (0..k).step_by(BLOCK) {
            let pe = (pb + BLOCK).min(k);
            for jb in (0..n).step_by(BLOCK) {
                let je = (jb + BLOCK).min(n);
                for i in ib..ie {
                    for p in pb..pe {
                        let aval = a[i * k + p];
                        let brow = &b[p * n + jb..p * n + je];
                        let crow = &mut c[i * n + jb..i * n + je];
                        for (cv, &bv) in crow.iter_mut().zip(brow) {
                            *cv += aval * bv;
                        }
                    }
                }
            }
        }
    }
}

/// The blocked kernel over `C`'s row panels (zeroed-`C` contract), forked
/// when `m * n * k` clears [`par`]'s cut; the blocked kernel's outer loop
/// walks the same panels, so the bits are its bits either way.
fn gemm_parallel_acc(m: usize, n: usize, k: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    par::for_each_chunk(c, BLOCK * n, m * n * k, |chunk, cpanel| {
        let ib = chunk * BLOCK;
        let rows = cpanel.len() / n;
        let apanel = &a[ib * k..(ib + rows) * k];
        gemm_blocked_acc(rows, n, k, apanel, b, cpanel);
    });
}

/// `op(A) [M x K] * op(B) [K x N] -> C [M x N]` plus the fused
/// write-back: the one tensor-level product, over [`gemm_into`]. Both
/// operands must be rank 2 with matching inner dimensions
/// ([`Error::ShapeMismatch`]); both flags set is [`Error::Unsupported`].
pub fn matmul_as(
    algo: Algorithm,
    a: &Tensor,
    a_trans: bool,
    b: &Tensor,
    b_trans: bool,
    epilogue: Epilogue<'_>,
) -> Result<Tensor> {
    if a_trans && b_trans {
        return Err(Error::Unsupported(
            "matmul: both operands transposed".into(),
        ));
    }
    if a.shape().rank() != 2 || b.shape().rank() != 2 {
        return Err(Error::ShapeMismatch(format!(
            "matmul requires rank-2 operands, got {} and {}",
            a.shape(),
            b.shape()
        )));
    }
    let (a0, a1) = (a.shape().dim(0), a.shape().dim(1));
    let (b0, b1) = (b.shape().dim(0), b.shape().dim(1));
    let (m, k) = if a_trans { (a1, a0) } else { (a0, a1) };
    let (kb, n) = if b_trans { (b1, b0) } else { (b0, b1) };
    if k != kb {
        return Err(Error::ShapeMismatch(format!(
            "matmul inner dims: {k} vs {kb}"
        )));
    }
    let mut c = Tensor::zeros([m, n]);
    let (ad, bd, cd) = (a.data(), b.data(), c.data_mut());
    gemm_into(algo, m, n, k, ad, a_trans, bd, b_trans, cd, epilogue);
    Ok(c)
}

/// `A [M x K] * B [K x N]`, nothing fused.
pub fn matmul(algo: Algorithm, a: &Tensor, b: &Tensor) -> Result<Tensor> {
    matmul_as(algo, a, false, b, false, Epilogue::None)
}

/// `A [M x K] * Bᵀ` for `B [N x K]` on the default tier. Kept for the
/// frozen spine benchmark's raw-kernel probe, which calls it by name.
pub fn matmul_a_bt(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    matmul_as(Algorithm::default(), a, false, b, true, Epilogue::None)
}

/// `op(A) * op(B)` for rows `ib..` of the result, exactly one operand
/// transposed; `cpanel` holds exactly those rows, so panelling never
/// changes an element's float sequence. `Aᵀ * B` adds into `cpanel` over
/// ascending `p`; `A * Bᵀ` writes each element's dot product of two
/// contiguous rows (an iterator sum, which starts from `-0.0`). Every
/// product participates — no zero-skip shortcut, so `0 * NaN` / `0 * inf`
/// propagate as IEEE 754 demands and the hot loop stays branch-free.
#[allow(clippy::too_many_arguments)]
fn transposed_panel(
    ib: usize,
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    a_trans: bool,
    b: &[f32],
    cpanel: &mut [f32],
) {
    for (i, crow) in (ib..).zip(cpanel.chunks_mut(n)) {
        if a_trans {
            for p in 0..k {
                let av = a[p * m + i];
                for (cv, &bv) in crow.iter_mut().zip(&b[p * n..(p + 1) * n]) {
                    *cv += av * bv;
                }
            }
        } else {
            let arow = &a[i * k..(i + 1) * k];
            for (j, cv) in crow.iter_mut().enumerate() {
                let brow = &b[j * k..(j + 1) * k];
                *cv = arow.iter().zip(brow).map(|(&x, &y)| x * y).sum();
            }
        }
    }
}

/// The `MatMul` operator: `C = A * B`, optionally with a ReLU fused into
/// the GEMM write-back (`epilogue = "relu"` attribute, installed by the
/// graph crate's epilogue-fusion transform).
#[derive(Debug, Clone, Default)]
pub struct MatMulOp {
    pub algo: Algorithm,
    /// Fold `max(x, 0)` into the write-back. Bit-identical to a separate
    /// `Relu` node (same float sequence; NaN maps to 0 either way).
    pub relu: bool,
}

impl MatMulOp {
    pub fn new(algo: Algorithm) -> Self {
        MatMulOp { algo, relu: false }
    }

    /// Enable the fused ReLU epilogue.
    pub fn with_relu(mut self, relu: bool) -> Self {
        self.relu = relu;
        self
    }
}

impl crate::operator::Operator for MatMulOp {
    fn name(&self) -> &str {
        "MatMul"
    }
    fn num_inputs(&self) -> usize {
        2
    }
    fn output_shapes(&self, s: &[&deep500_tensor::Shape]) -> Result<Vec<deep500_tensor::Shape>> {
        if s[0].rank() != 2 || s[1].rank() != 2 || s[0].dim(1) != s[1].dim(0) {
            return Err(Error::ShapeMismatch(format!("MatMul: {} x {}", s[0], s[1])));
        }
        Ok(vec![deep500_tensor::Shape::new(&[
            s[0].dim(0),
            s[1].dim(1),
        ])])
    }
    fn forward(&self, inputs: &[&Tensor]) -> Result<Vec<Tensor>> {
        let epilogue = if self.relu {
            Epilogue::Relu
        } else {
            Epilogue::None
        };
        let (a, b) = (inputs[0], inputs[1]);
        Ok(vec![matmul_as(self.algo, a, false, b, false, epilogue)?])
    }
    fn backward(
        &self,
        grad_outputs: &[&Tensor],
        inputs: &[&Tensor],
        outputs: &[&Tensor],
    ) -> Result<Vec<Tensor>> {
        let g = &packed::relu_grad(self.relu, grad_outputs[0], outputs[0])?;
        let (a, b) = (inputs[0], inputs[1]);
        // dA = dC * B^T ; dB = A^T * dC
        let da = matmul_as(self.algo, g, false, b, true, Epilogue::None)?;
        let db = matmul_as(self.algo, a, true, g, false, Epilogue::None)?;
        Ok(vec![da, db])
    }
    fn flops(&self, s: &[&deep500_tensor::Shape]) -> f64 {
        deep500_metrics::flops::counts::gemm(s[0].dim(0), s[1].dim(1), s[0].dim(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operator::Operator;
    use deep500_metrics::norms::linf_diff;
    use deep500_tensor::rng::Xoshiro256StarStar;

    const ALL: [Algorithm; 4] = [
        Algorithm::Naive,
        Algorithm::Blocked,
        Algorithm::Parallel,
        Algorithm::Packed,
    ];

    fn reference(m: usize, n: usize, k: usize, a: &[f32], b: &[f32]) -> Vec<f32> {
        let mut c = vec![0.0f32; m * n];
        gemm_naive(m, n, k, a, b, &mut c);
        c
    }

    #[test]
    fn identity_multiplication() {
        let a = Tensor::from_vec([2, 2], vec![1.0, 0.0, 0.0, 1.0]).unwrap();
        let b = Tensor::from_vec([2, 2], vec![3.0, 4.0, 5.0, 6.0]).unwrap();
        for algo in ALL {
            assert_eq!(matmul(algo, &a, &b).unwrap(), b);
        }
    }

    #[test]
    fn all_kernels_agree_on_odd_sizes() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(1);
        for (m, n, k) in [(1, 1, 1), (3, 5, 7), (65, 33, 129), (130, 70, 64)] {
            let a = Tensor::rand_uniform([m, k], -1.0, 1.0, &mut rng);
            let b = Tensor::rand_uniform([k, n], -1.0, 1.0, &mut rng);
            let reference = reference(m, n, k, a.data(), b.data());
            for algo in [Algorithm::Blocked, Algorithm::Parallel, Algorithm::Packed] {
                let c = matmul(algo, &a, &b).unwrap();
                let err = linf_diff(c.data(), &reference);
                assert!(err < 1e-3, "{algo:?} {m}x{n}x{k}: linf {err}");
            }
        }
    }

    #[test]
    fn packed_agrees_on_block_and_tile_edges() {
        // Shapes straddling the cache-block edge (64) and the microkernel
        // tile edges (MR/NR = 8): 1, BLOCK-1, BLOCK, BLOCK+1 in every role.
        let mut rng = Xoshiro256StarStar::seed_from_u64(5);
        let edges = [1usize, 7, 8, 9, BLOCK - 1, BLOCK, BLOCK + 1];
        for &m in &edges {
            for &n in &edges {
                for &k in &[1usize, BLOCK - 1, BLOCK, BLOCK + 1] {
                    let a = Tensor::rand_uniform([m, k], -1.0, 1.0, &mut rng);
                    let b = Tensor::rand_uniform([k, n], -1.0, 1.0, &mut rng);
                    let naive = matmul(Algorithm::Naive, &a, &b).unwrap();
                    let packed = matmul(Algorithm::Packed, &a, &b).unwrap();
                    let err = linf_diff(packed.data(), naive.data());
                    assert!(err < 1e-3, "{m}x{n}x{k}: linf {err}");
                }
            }
        }
    }

    #[test]
    fn shape_errors() {
        let a = Tensor::zeros([2, 3]);
        let b = Tensor::zeros([4, 2]);
        assert!(matmul(Algorithm::Naive, &a, &b).is_err());
        // A rank-1 operand on either side, in every operand form, on
        // every tier and through both wrappers.
        let v = Tensor::zeros([3]);
        let shape_mismatch = |r: Result<Tensor>| matches!(r, Err(Error::ShapeMismatch(_)));
        for algo in ALL {
            for (a_trans, b_trans) in [(false, false), (false, true), (true, false)] {
                let (x, y) = (&v, &b);
                assert!(shape_mismatch(matmul_as(
                    algo,
                    x,
                    a_trans,
                    y,
                    b_trans,
                    Epilogue::None
                )));
                assert!(shape_mismatch(matmul_as(
                    algo,
                    y,
                    a_trans,
                    x,
                    b_trans,
                    Epilogue::None
                )));
                let inner = matmul_as(algo, &a, a_trans, &b, b_trans, Epilogue::None);
                assert!(shape_mismatch(inner), "{algo:?} {a_trans} {b_trans}");
            }
            assert!(shape_mismatch(matmul(algo, &v, &b)));
            assert!(shape_mismatch(matmul(algo, &b, &v)));
        }
        assert!(shape_mismatch(matmul_a_bt(&v, &b)));
        assert!(shape_mismatch(matmul_a_bt(&b, &v)));
        // Two transposed operands have no kernel.
        let both = matmul_as(Algorithm::Naive, &a, true, &a, true, Epilogue::None);
        assert!(matches!(both, Err(Error::Unsupported(_))));
    }

    #[test]
    fn transposed_variants_match_explicit_transpose() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(2);
        let a = Tensor::rand_uniform([4, 3], -1.0, 1.0, &mut rng);
        let b = Tensor::rand_uniform([4, 5], -1.0, 1.0, &mut rng);
        let explicit = matmul(Algorithm::Naive, &a.transpose2d().unwrap(), &b).unwrap();
        for algo in ALL {
            let atb = matmul_as(algo, &a, true, &b, false, Epilogue::None).unwrap();
            assert!(atb.approx_eq(&explicit, 1e-5), "{algo:?}");
        }

        let c = Tensor::rand_uniform([5, 3], -1.0, 1.0, &mut rng);
        let d = Tensor::rand_uniform([6, 3], -1.0, 1.0, &mut rng);
        let explicit = matmul(Algorithm::Naive, &c, &d.transpose2d().unwrap()).unwrap();
        for algo in ALL {
            let abt = matmul_as(algo, &c, false, &d, true, Epilogue::None).unwrap();
            assert!(abt.approx_eq(&explicit, 1e-5), "{algo:?}");
        }
    }

    #[test]
    fn transposed_kernels_propagate_nan_and_inf() {
        // A zero in A must not short-circuit past a NaN/inf in B:
        // IEEE 754 says 0 * NaN = NaN and 0 * inf = NaN, so the affected
        // outputs are poisoned. (A skip-on-zero shortcut here once
        // silently produced finite results.)
        let a = Tensor::from_vec([2, 2], vec![0.0, 1.0, 1.0, 1.0]).unwrap(); // A [K x M]
        let mut bvals = vec![1.0f32; 6];
        bvals[0] = f32::NAN; // B[0, 0]
        bvals[1] = f32::INFINITY; // B[0, 1]
        let b = Tensor::from_vec([2, 3], bvals).unwrap(); // B [K x N]
        for algo in ALL {
            let c = matmul_as(algo, &a, true, &b, false, Epilogue::None).unwrap();
            // Row 0 of C = 0 * B[0, :] + 1 * B[1, :]: both 0 * NaN and
            // 0 * inf must collapse to NaN.
            assert!(c.data()[0].is_nan(), "{algo:?}: 0 * NaN was dropped");
            assert!(c.data()[1].is_nan(), "{algo:?}: 0 * inf was dropped");
            assert_eq!(c.data()[2], 1.0, "{algo:?}");
        }

        // Same property through A * B^T with the NaN on the other side.
        let e = Tensor::from_vec([1, 2], vec![0.0, 1.0]).unwrap();
        let f = Tensor::from_vec([1, 2], vec![f32::NAN, 1.0]).unwrap();
        for algo in ALL {
            let c = matmul_as(algo, &e, false, &f, true, Epilogue::None).unwrap();
            assert!(c.data()[0].is_nan(), "{algo:?}: 0 * NaN was dropped");
        }
    }

    #[test]
    fn matmul_op_backward_matches_manual() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(3);
        let a = Tensor::rand_uniform([3, 4], -1.0, 1.0, &mut rng);
        let b = Tensor::rand_uniform([4, 2], -1.0, 1.0, &mut rng);
        let op = MatMulOp::default();
        let out = op.forward(&[&a, &b]).unwrap();
        let g = Tensor::ones([3, 2]);
        let grads = op.backward(&[&g], &[&a, &b], &[&out[0]]).unwrap();
        assert_eq!(grads[0].shape(), a.shape());
        assert_eq!(grads[1].shape(), b.shape());
        // dA = G * B^T with G = ones => row sums of B^T = col sums broadcast
        let expected_da = matmul(Algorithm::Naive, &g, &b.transpose2d().unwrap()).unwrap();
        assert!(grads[0].approx_eq(&expected_da, 1e-5));
    }

    #[test]
    fn transposed_kernels_parallel_path_is_bit_identical() {
        // Sizes straddling `par`'s cut: the parallel row-panel path must
        // reproduce the serial panel bit for bit (same per-element
        // reduction order, only the rows are distributed).
        let mut rng = Xoshiro256StarStar::seed_from_u64(7);
        let (m, n, k) = (130, 70, 64); // above the cut
        assert!(par::worth_forking(m * n * k));

        let a = Tensor::rand_uniform([k, m], -1.0, 1.0, &mut rng);
        let b = Tensor::rand_uniform([k, n], -1.0, 1.0, &mut rng);
        let par = matmul_as(Algorithm::Parallel, &a, true, &b, false, Epilogue::None).unwrap();
        let mut serial = Tensor::zeros([m, n]);
        transposed_panel(0, m, n, k, a.data(), true, b.data(), serial.data_mut());
        assert_eq!(par.data(), serial.data());

        let c = Tensor::rand_uniform([m, k], -1.0, 1.0, &mut rng);
        let d = Tensor::rand_uniform([n, k], -1.0, 1.0, &mut rng);
        let par = matmul_as(Algorithm::Parallel, &c, false, &d, true, Epilogue::None).unwrap();
        let mut serial = Tensor::zeros([m, n]);
        transposed_panel(0, m, n, k, c.data(), false, d.data(), serial.data_mut());
        assert_eq!(par.data(), serial.data());
    }

    #[test]
    fn flops_declared() {
        let op = MatMulOp::default();
        let s1 = deep500_tensor::Shape::new(&[2, 3]);
        let s2 = deep500_tensor::Shape::new(&[3, 4]);
        assert_eq!(op.flops(&[&s1, &s2]), 48.0);
    }
}

#[cfg(test)]
mod properties {
    use super::*;
    use proptest::prelude::*;

    /// Unfused reference: the plain product in the same operand form, then
    /// the epilogue as a separate elementwise pass written out longhand —
    /// the float sequence a standalone bias-add / `Relu` node pair would
    /// execute.
    fn unfused(
        algo: Algorithm,
        a: &Tensor,
        at: bool,
        b: &Tensor,
        bt: bool,
        ep: &Epilogue<'_>,
    ) -> Tensor {
        let mut c = matmul_as(algo, a, at, b, bt, Epilogue::None).unwrap();
        let n = c.shape().dim(1);
        for (i, v) in c.data_mut().iter_mut().enumerate() {
            let j = i % n;
            match *ep {
                Epilogue::None => {}
                Epilogue::Bias(bias) => *v += bias[j],
                Epilogue::Relu => *v = v.max(0.0),
                Epilogue::BiasRelu(bias) => *v = (*v + bias[j]).max(0.0),
                Epilogue::BiasRow(bias) => *v += bias[i / n],
                Epilogue::BiasRowRelu(bias) => *v = (*v + bias[i / n]).max(0.0),
            }
        }
        c
    }

    /// Inject a non-finite value at `pos` (wrapped) so NaN/inf paths are
    /// exercised in every case.
    fn poison(vals: &mut [f32], pos: usize, kind: u8) {
        let i = pos % vals.len();
        vals[i] = match kind % 3 {
            0 => f32::NAN,
            1 => f32::INFINITY,
            _ => f32::NEG_INFINITY,
        };
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Fused epilogue write-back is bit-identical to the product + a
        /// separate epilogue pass on every kernel tier and in every operand
        /// form, including NaN and ±inf propagation (compared on raw bit
        /// patterns; `max` maps NaN to 0 in both paths).
        #[test]
        fn fused_epilogue_matches_unfused_bitwise(
            m in 1usize..10,
            n in 1usize..10,
            k in 1usize..10,
            seed in 0u64..1000,
            pos in 0usize..64,
            kind in 0u8..3,
            which in 0u8..6,
        ) {
            let mut rng = deep500_tensor::rng::Xoshiro256StarStar::seed_from_u64(seed);
            let mut a = Tensor::rand_uniform([m * k], -2.0, 2.0, &mut rng);
            let b = Tensor::rand_uniform([k * n], -2.0, 2.0, &mut rng);
            let mut bias = vec![0.0f32; n.max(m)];
            for v in bias.iter_mut() {
                *v = rng.next_f32() - 0.5;
            }
            poison(a.data_mut(), pos, kind);
            if kind == 0 {
                poison(&mut bias, pos, kind); // NaN through the bias path too
            }
            let ep = match which {
                0 => Epilogue::None,
                1 => Epilogue::Bias(&bias[..n]),
                2 => Epilogue::Relu,
                3 => Epilogue::BiasRelu(&bias[..n]),
                4 => Epilogue::BiasRow(&bias[..m]),
                _ => Epilogue::BiasRowRelu(&bias[..m]),
            };
            for (at, bt) in [(false, false), (false, true), (true, false)] {
                let a = a.reshaped(&if at { [k, m] } else { [m, k] }).unwrap();
                let b = b.reshaped(&if bt { [n, k] } else { [k, n] }).unwrap();
                for algo in [
                    Algorithm::Naive,
                    Algorithm::Blocked,
                    Algorithm::Parallel,
                    Algorithm::Packed,
                ] {
                    let fused = matmul_as(algo, &a, at, &b, bt, ep).unwrap();
                    let reference = unfused(algo, &a, at, &b, bt, &ep);
                    let fb: Vec<u32> = fused.data().iter().map(|v| v.to_bits()).collect();
                    let rb: Vec<u32> = reference.data().iter().map(|v| v.to_bits()).collect();
                    prop_assert_eq!(&fb, &rb, "algo {:?}, at {} bt {}, epilogue {:?}", algo, at, bt, ep);
                }
            }
        }
    }
}
