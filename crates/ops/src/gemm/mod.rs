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
//! All kernels compute `C = A * B` for row-major `A (M x K)`, `B (K x N)`,
//! `C (M x N)`. The first three accumulate each output element in plain
//! ascending-`p` order and serve as the bit-exact reference tiers; the
//! packed tier sums the same products with a different grouping (per-`KC`
//! register partials, FMA where the host supports it), giving the paper's
//! cross-framework `ℓ∞` comparisons a genuinely distinct accumulation
//! order to measure.

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

/// `C = A * B` with the selected algorithm; buffers are row-major slices.
/// `C`'s prior contents are ignored (the accumulate-style kernels clear it
/// first). Callers holding a freshly zeroed `C` should use [`gemm_into`].
pub fn gemm(algo: Algorithm, m: usize, n: usize, k: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    match algo {
        Algorithm::Naive => {
            debug_assert_eq!(a.len(), m * k);
            debug_assert_eq!(b.len(), k * n);
            debug_assert_eq!(c.len(), m * n);
            gemm_naive(m, n, k, a, b, c);
        }
        _ => {
            c.iter_mut().for_each(|v| *v = 0.0);
            gemm_into(algo, m, n, k, a, b, c);
        }
    }
}

/// `C += A * B` under the explicit **zeroed-`C` contract**: `c` must hold
/// zeros on entry (the accumulate-style kernels add into it), so callers
/// with freshly zeroed buffers — [`Tensor::zeros`], pool acquisitions,
/// `vec![0.0; ..]` — touch the `M x N` output exactly once instead of
/// paying [`gemm`]'s redundant clearing pass.
pub fn gemm_into(
    algo: Algorithm,
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(c.len(), m * n);
    match algo {
        Algorithm::Naive => gemm_naive(m, n, k, a, b, c),
        Algorithm::Blocked => gemm_blocked_acc(m, n, k, a, b, c),
        Algorithm::Parallel => gemm_parallel_acc(m, n, k, a, b, c),
        Algorithm::Packed => packed::gemm_packed_into(m, n, k, a, false, b, false, c),
    }
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

/// Tensor-level GEMM: `A [M x K] * B [K x N] -> C [M x N]`.
pub fn matmul(algo: Algorithm, a: &Tensor, b: &Tensor) -> Result<Tensor> {
    if a.shape().rank() != 2 || b.shape().rank() != 2 {
        return Err(Error::ShapeMismatch(format!(
            "matmul requires rank-2 operands, got {} and {}",
            a.shape(),
            b.shape()
        )));
    }
    let (m, ka) = (a.shape().dim(0), a.shape().dim(1));
    let (kb, n) = (b.shape().dim(0), b.shape().dim(1));
    if ka != kb {
        return Err(Error::ShapeMismatch(format!(
            "matmul inner dims: {} vs {}",
            ka, kb
        )));
    }
    let mut c = Tensor::zeros([m, n]);
    gemm_into(algo, m, n, ka, a.data(), b.data(), c.data_mut());
    Ok(c)
}

/// [`matmul`] with a fused write-back [`Epilogue`]. Under `Packed` the
/// epilogue runs inside the final `KC`-block store (zero extra memory
/// traffic); the other tiers apply it as a separate pass with the identical
/// per-element float sequence, so all tiers stay bit-identical to an
/// unfused GEMM followed by separate bias/ReLU passes.
fn matmul_with_epilogue(
    algo: Algorithm,
    a: &Tensor,
    b: &Tensor,
    epilogue: Epilogue<'_>,
) -> Result<Tensor> {
    if a.shape().rank() != 2 || b.shape().rank() != 2 {
        return Err(Error::ShapeMismatch(format!(
            "matmul requires rank-2 operands, got {} and {}",
            a.shape(),
            b.shape()
        )));
    }
    let (m, ka) = (a.shape().dim(0), a.shape().dim(1));
    let (kb, n) = (b.shape().dim(0), b.shape().dim(1));
    if ka != kb {
        return Err(Error::ShapeMismatch(format!(
            "matmul inner dims: {} vs {}",
            ka, kb
        )));
    }
    let mut c = Tensor::zeros([m, n]);
    match algo {
        Algorithm::Packed => {
            packed::gemm_packed_into_epilogue(
                m,
                n,
                ka,
                a.data(),
                false,
                b.data(),
                false,
                c.data_mut(),
                epilogue,
            );
        }
        _ => {
            gemm_into(algo, m, n, ka, a.data(), b.data(), c.data_mut());
            epilogue.apply_matrix(c.data_mut(), n);
        }
    }
    Ok(c)
}

/// `A^T * B` for rows `ib..ib+rows` of the result; `cpanel` holds exactly
/// those rows. Per output element the `p` reduction ascends, matching the
/// historical serial kernel bit for bit regardless of panelling. Every
/// product participates — no zero-skip shortcut, so `0 * NaN` / `0 * inf`
/// propagate as IEEE 754 demands and the hot loop stays branch-free.
fn at_b_panel(ib: usize, m: usize, n: usize, k: usize, ad: &[f32], bd: &[f32], cpanel: &mut [f32]) {
    let rows = cpanel.len() / n;
    for (ri, crow) in cpanel.chunks_mut(n).enumerate() {
        let i = ib + ri;
        debug_assert!(i < ib + rows);
        for p in 0..k {
            let av = ad[p * m + i];
            let brow = &bd[p * n..(p + 1) * n];
            for (cv, &bv) in crow.iter_mut().zip(brow) {
                *cv += av * bv;
            }
        }
    }
}

/// `A^T * B` without materializing the transpose: `A [K x M]`, `B [K x N]`,
/// result `[M x N]`. Used by FC/conv backward passes.
///
/// `Naive`/`Blocked` run the panel kernel serially (bit-exact reference),
/// `Parallel` hands the same row panels to [`par`] with the product's
/// multiply-adds as their work (bit-identical to serial), and `Packed`
/// absorbs the transposition into the A-panel pack gather so the backward
/// product runs the same register-tiled microkernel as the forward GEMM.
pub fn matmul_at_b_with(algo: Algorithm, a: &Tensor, b: &Tensor) -> Result<Tensor> {
    let (k, m) = (a.shape().dim(0), a.shape().dim(1));
    let (kb, n) = (b.shape().dim(0), b.shape().dim(1));
    if k != kb {
        return Err(Error::ShapeMismatch(format!(
            "A^T*B inner dims: {k} vs {kb}"
        )));
    }
    let mut c = Tensor::zeros([m, n]);
    let (ad, bd, cd) = (a.data(), b.data(), c.data_mut());
    match algo {
        Algorithm::Packed => packed::gemm_packed_into(m, n, k, ad, true, bd, false, cd),
        _ => par::for_each_chunk(cd, BLOCK * n, algo.panel_work(m, n, k), |chunk, cpanel| {
            at_b_panel(chunk * BLOCK, m, n, k, ad, bd, cpanel)
        }),
    }
    Ok(c)
}

/// `A * B^T` for rows `ib..` of the result (each row is an independent set
/// of dot products, so panelling cannot change the accumulation order).
fn a_bt_panel(ib: usize, n: usize, k: usize, ad: &[f32], bd: &[f32], cpanel: &mut [f32]) {
    for (ri, crow) in cpanel.chunks_mut(n).enumerate() {
        let i = ib + ri;
        let arow = &ad[i * k..(i + 1) * k];
        for (j, cv) in crow.iter_mut().enumerate() {
            let brow = &bd[j * k..(j + 1) * k];
            *cv = arow.iter().zip(brow).map(|(&x, &y)| x * y).sum();
        }
    }
}

/// `A * B^T`: `A [M x K]`, `B [N x K]`, result `[M x N]`. Tier selection
/// mirrors [`matmul_at_b_with`]; under `Packed` the transposition is
/// absorbed into the B-side transposing pack.
pub fn matmul_a_bt_with(algo: Algorithm, a: &Tensor, b: &Tensor) -> Result<Tensor> {
    matmul_a_bt_with_epilogue(algo, a, b, Epilogue::None)
}

/// `A * B^T` with the default algorithm ([`Algorithm::Packed`]).
pub fn matmul_a_bt(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    matmul_a_bt_with(Algorithm::default(), a, b)
}

/// [`matmul_a_bt_with`] with a fused write-back [`Epilogue`] — the
/// fully-connected forward product (`y = x * W^T` plus bias/activation in
/// one pass). Under `Packed` the epilogue runs inside the final
/// `KC`-block store; the other tiers apply it as a separate pass with the
/// identical per-element float sequence.
pub fn matmul_a_bt_with_epilogue(
    algo: Algorithm,
    a: &Tensor,
    b: &Tensor,
    epilogue: Epilogue<'_>,
) -> Result<Tensor> {
    let (m, k) = (a.shape().dim(0), a.shape().dim(1));
    let (n, kb) = (b.shape().dim(0), b.shape().dim(1));
    if k != kb {
        return Err(Error::ShapeMismatch(format!(
            "A*B^T inner dims: {k} vs {kb}"
        )));
    }
    let mut c = Tensor::zeros([m, n]);
    let (ad, bd, cd) = (a.data(), b.data(), c.data_mut());
    match algo {
        Algorithm::Packed => {
            packed::gemm_packed_into_epilogue(m, n, k, ad, false, bd, true, cd, epilogue);
        }
        _ => {
            par::for_each_chunk(cd, BLOCK * n, algo.panel_work(m, n, k), |chunk, cpanel| {
                a_bt_panel(chunk * BLOCK, n, k, ad, bd, cpanel)
            });
            epilogue.apply_matrix(cd, n);
        }
    }
    Ok(c)
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
        Ok(vec![matmul_with_epilogue(
            self.algo, inputs[0], inputs[1], epilogue,
        )?])
    }
    fn backward(
        &self,
        grad_outputs: &[&Tensor],
        inputs: &[&Tensor],
        outputs: &[&Tensor],
    ) -> Result<Vec<Tensor>> {
        let g = grad_outputs[0];
        // With the fused ReLU, first mask the incoming gradient exactly
        // like a standalone Relu node's backward: g * (y > 0 ? 1 : 0),
        // where y is this op's (post-ReLU) output.
        let masked;
        let g = if self.relu {
            let y = outputs[0];
            masked = g.zip(y, |gv, yv| gv * if yv > 0.0 { 1.0 } else { 0.0 })?;
            &masked
        } else {
            g
        };
        // dA = dC * B^T ; dB = A^T * dC
        let da = matmul_a_bt_with(self.algo, g, inputs[1])?;
        let db = matmul_at_b_with(self.algo, inputs[0], g)?;
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
    fn gemm_into_skips_the_clear_but_matches_gemm() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(9);
        let (m, n, k) = (33, 17, 65);
        let a = Tensor::rand_uniform([m, k], -1.0, 1.0, &mut rng);
        let b = Tensor::rand_uniform([k, n], -1.0, 1.0, &mut rng);
        for algo in ALL {
            let mut dirty = vec![f32::NAN; m * n];
            gemm(algo, m, n, k, a.data(), b.data(), &mut dirty);
            let mut zeroed = vec![0.0f32; m * n];
            gemm_into(algo, m, n, k, a.data(), b.data(), &mut zeroed);
            assert_eq!(dirty, zeroed, "{algo:?}: zeroed-C contract diverged");
        }
    }

    #[test]
    fn shape_errors() {
        let a = Tensor::zeros([2, 3]);
        let b = Tensor::zeros([4, 2]);
        assert!(matmul(Algorithm::Naive, &a, &b).is_err());
        let v = Tensor::zeros([3]);
        assert!(matmul(Algorithm::Naive, &v, &b).is_err());
    }

    #[test]
    fn transposed_variants_match_explicit_transpose() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(2);
        let a = Tensor::rand_uniform([4, 3], -1.0, 1.0, &mut rng);
        let b = Tensor::rand_uniform([4, 5], -1.0, 1.0, &mut rng);
        let explicit = matmul(Algorithm::Naive, &a.transpose2d().unwrap(), &b).unwrap();
        for algo in ALL {
            let atb = matmul_at_b_with(algo, &a, &b).unwrap();
            assert!(atb.approx_eq(&explicit, 1e-5), "{algo:?}");
        }

        let c = Tensor::rand_uniform([5, 3], -1.0, 1.0, &mut rng);
        let d = Tensor::rand_uniform([6, 3], -1.0, 1.0, &mut rng);
        let explicit = matmul(Algorithm::Naive, &c, &d.transpose2d().unwrap()).unwrap();
        for algo in ALL {
            let abt = matmul_a_bt_with(algo, &c, &d).unwrap();
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
            let c = matmul_at_b_with(algo, &a, &b).unwrap();
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
            let c = matmul_a_bt_with(algo, &e, &f).unwrap();
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
        let par = matmul_at_b_with(Algorithm::Parallel, &a, &b).unwrap();
        let mut serial = Tensor::zeros([m, n]);
        at_b_panel(0, m, n, k, a.data(), b.data(), serial.data_mut());
        assert_eq!(par.data(), serial.data());

        let c = Tensor::rand_uniform([m, k], -1.0, 1.0, &mut rng);
        let d = Tensor::rand_uniform([n, k], -1.0, 1.0, &mut rng);
        let par = matmul_a_bt_with(Algorithm::Parallel, &c, &d).unwrap();
        let mut serial = Tensor::zeros([m, n]);
        a_bt_panel(0, n, k, c.data(), d.data(), serial.data_mut());
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

    /// Unfused reference: plain GEMM, then the epilogue as a separate
    /// elementwise pass written out longhand — the float sequence a
    /// standalone bias-add / `Relu` node pair would execute.
    fn unfused(algo: Algorithm, a: &Tensor, b: &Tensor, ep: &Epilogue<'_>) -> Tensor {
        let mut c = matmul(algo, a, b).unwrap();
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

        /// Fused epilogue write-back is bit-identical to GEMM + separate
        /// epilogue pass on every kernel tier, including NaN and ±inf
        /// propagation (compared on raw bit patterns; `max` maps NaN to 0
        /// in both paths).
        #[test]
        fn fused_epilogue_matches_unfused_bitwise(
            m in 1usize..10,
            n in 1usize..10,
            k in 1usize..10,
            seed in 0u64..1000,
            pos in 0usize..64,
            kind in 0u8..3,
            which in 0u8..4,
        ) {
            let mut rng = deep500_tensor::rng::Xoshiro256StarStar::seed_from_u64(seed);
            let mut a = Tensor::rand_uniform([m, k], -2.0, 2.0, &mut rng);
            let b = Tensor::rand_uniform([k, n], -2.0, 2.0, &mut rng);
            let mut bias = vec![0.0f32; n];
            for v in bias.iter_mut() {
                *v = rng.next_f32() - 0.5;
            }
            poison(a.data_mut(), pos, kind);
            if kind == 0 {
                poison(&mut bias, pos, kind); // NaN through the bias path too
            }
            let ep = match which % 4 {
                0 => Epilogue::None,
                1 => Epilogue::Bias(&bias),
                2 => Epilogue::Relu,
                _ => Epilogue::BiasRelu(&bias),
            };
            for algo in [
                Algorithm::Naive,
                Algorithm::Blocked,
                Algorithm::Parallel,
                Algorithm::Packed,
            ] {
                let fused = matmul_with_epilogue(algo, &a, &b, ep).unwrap();
                let reference = unfused(algo, &a, &b, &ep);
                let fb: Vec<u32> = fused.data().iter().map(|v| v.to_bits()).collect();
                let rb: Vec<u32> = reference.data().iter().map(|v| v.to_bits()).collect();
                prop_assert_eq!(&fb, &rb, "algo {:?}, epilogue {:?}", algo, ep);
            }
            // The transposed entry point used by Linear forward
            // (x * W^T) under the same epilogue.
            let bt = Tensor::rand_uniform([n, k], -2.0, 2.0, &mut rng);
            let fused = matmul_a_bt_with_epilogue(Algorithm::Packed, &a, &bt, ep).unwrap();
            let mut reference = matmul_a_bt_with(Algorithm::Packed, &a, &bt).unwrap();
            let cols = reference.shape().dim(1);
            for (i, v) in reference.data_mut().iter_mut().enumerate() {
                let j = i % cols;
                match ep {
                    Epilogue::None => {}
                    Epilogue::Bias(bias) => *v += bias[j],
                    Epilogue::Relu => *v = v.max(0.0),
                    Epilogue::BiasRelu(bias) => *v = (*v + bias[j]).max(0.0),
                    Epilogue::BiasRow(bias) => *v += bias[i / cols],
                    Epilogue::BiasRowRelu(bias) => *v = (*v + bias[i / cols]).max(0.0),
                }
            }
            let fb: Vec<u32> = fused.data().iter().map(|v| v.to_bits()).collect();
            let rb: Vec<u32> = reference.data().iter().map(|v| v.to_bits()).collect();
            prop_assert_eq!(&fb, &rb, "a_bt epilogue {:?}", ep);
        }
    }
}
