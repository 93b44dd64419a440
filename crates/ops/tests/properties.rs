//! Property-based tests for Level-0 operators: algorithmic agreement,
//! analytical invariants, and gradient correctness on random inputs.

use deep500_ops::activation::{ActivationOp, SoftmaxOp};
use deep500_ops::conv::direct::{forward_direct_packed_as, pack_filter, BOperand};
use deep500_ops::conv::{forward_direct, forward_im2col, Conv2dOp, ConvAlgorithm, ConvGeometry};
use deep500_ops::gemm::packed::{NR, NR_W};
use deep500_ops::gemm::{gemm_into, matmul, matmul_as, Algorithm, Blocking, Epilogue};
use deep500_ops::grad_check::test_gradient;
use deep500_ops::pool::Pool2dOp;
use deep500_ops::shape_ops::{ConcatOp, SplitOp};
use deep500_ops::Operator;
use deep500_tensor::{Tensor, Xoshiro256StarStar};
use proptest::prelude::*;

fn rand_tensor(shape: &[usize], seed: u64) -> Tensor {
    let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
    Tensor::rand_uniform(shape, -1.0, 1.0, &mut rng)
}

/// Dimensions that straddle the microkernel tile edge (8), the cache-block
/// edge (64 = BLOCK), and the degenerate extreme: 1, BLOCK-1, BLOCK,
/// BLOCK+1 plus a couple of "ordinary" sizes. Indexed by a proptest range
/// strategy since the shim has no `prop_oneof`.
const EDGE_DIMS: [usize; 8] = [1, 7, 8, 9, 63, 64, 65, 37];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// All GEMM kernels agree with the naive reference on random shapes.
    #[test]
    fn gemm_kernels_agree(m in 1usize..40, n in 1usize..40, k in 1usize..40, seed in 0u64..1000) {
        let a = rand_tensor(&[m, k], seed);
        let b = rand_tensor(&[k, n], seed ^ 1);
        let reference = matmul(Algorithm::Naive, &a, &b).unwrap();
        for algo in [Algorithm::Blocked, Algorithm::Parallel, Algorithm::Packed] {
            let c = matmul(algo, &a, &b).unwrap();
            prop_assert!(c.approx_eq(&reference, 1e-3), "{algo:?} diverged");
        }
    }

    /// The packed tier agrees with the naive reference within l-inf 1e-3 on
    /// shapes straddling the tile/block edges, for plain GEMM and both
    /// transposed variants (whose transposition is absorbed into packing).
    #[test]
    fn packed_parity_on_edge_shapes(mi in 0usize..8, ni in 0usize..8, ki in 0usize..8,
                                    seed in 0u64..1000) {
        let (m, n, k) = (EDGE_DIMS[mi], EDGE_DIMS[ni], EDGE_DIMS[ki]);

        let a = rand_tensor(&[m, k], seed);
        let b = rand_tensor(&[k, n], seed ^ 1);
        let reference = matmul(Algorithm::Naive, &a, &b).unwrap();
        let c = matmul(Algorithm::Packed, &a, &b).unwrap();
        prop_assert!(c.approx_eq(&reference, 1e-3), "gemm {m}x{n}x{k}");

        // A^T * B: A stored [K x M].
        let at = rand_tensor(&[k, m], seed ^ 2);
        let reference = matmul_as(Algorithm::Naive, &at, true, &b, false, Epilogue::None).unwrap();
        let c = matmul_as(Algorithm::Packed, &at, true, &b, false, Epilogue::None).unwrap();
        prop_assert!(c.approx_eq(&reference, 1e-3), "at_b {m}x{n}x{k}");

        // A * B^T: B stored [N x K].
        let bt = rand_tensor(&[n, k], seed ^ 3);
        let reference = matmul_as(Algorithm::Naive, &a, false, &bt, true, Epilogue::None).unwrap();
        let c = matmul_as(Algorithm::Packed, &a, false, &bt, true, Epilogue::None).unwrap();
        prop_assert!(c.approx_eq(&reference, 1e-3), "a_bt {m}x{n}x{k}");
    }

    /// The cache-aware dispatcher produces usable (nonzero, tile-aligned)
    /// blocking parameters and the packed kernel never panics on degenerate
    /// shapes, including K=0 and M=1.
    #[test]
    fn packed_dispatch_total_on_degenerate_shapes(m in 0usize..70, n in 0usize..70,
                                                  k in 0usize..70) {
        let bl = Blocking::for_shape(m, n, k);
        prop_assert!(bl.mc >= 1 && bl.kc >= 1 && bl.nc >= 1);
        prop_assert_eq!(bl.mc % deep500_ops::gemm::MR, 0);
        prop_assert_eq!(bl.nc % deep500_ops::gemm::NR, 0);

        // The kernel itself must be total too: K=0 (or empty M/N) leaves C
        // as zeros without touching A/B.
        let a = vec![1.0f32; m * k];
        let b = vec![1.0f32; k * n];
        let mut c = vec![0.0f32; m * n];
        gemm_into(Algorithm::Packed, m, n, k, &a, false, &b, false, &mut c, Epilogue::None);
        if k == 0 {
            prop_assert!(c.iter().all(|&v| v == 0.0));
        } else {
            prop_assert!(c.iter().all(|&v| v == k as f32));
        }
    }

    /// GEMM is linear: (alpha*A) * B == alpha * (A*B).
    #[test]
    fn gemm_linearity(m in 1usize..12, n in 1usize..12, k in 1usize..12,
                      alpha in -3.0f32..3.0, seed in 0u64..100) {
        let a = rand_tensor(&[m, k], seed);
        let b = rand_tensor(&[k, n], seed ^ 2);
        let lhs = matmul(Algorithm::Blocked, &a.scale(alpha), &b).unwrap();
        let rhs = matmul(Algorithm::Blocked, &a, &b).unwrap().scale(alpha);
        prop_assert!(lhs.approx_eq(&rhs, 1e-3));
    }

    /// Direct and im2col convolution agree on random geometries.
    #[test]
    fn conv_algorithms_agree(
        n in 1usize..3, c in 1usize..4, hw in 3usize..12,
        co in 1usize..4, k in 1usize..4, stride in 1usize..3, pad in 0usize..2,
        seed in 0u64..500,
    ) {
        prop_assume!(hw + 2 * pad >= k);
        let x = rand_tensor(&[n, c, hw, hw], seed);
        let w = rand_tensor(&[co, c, k, k], seed ^ 3);
        let b = rand_tensor(&[co], seed ^ 4);
        let g = ConvGeometry { stride, pad };
        let direct = forward_direct(&x, &w, &b, g).unwrap();
        let lowered = forward_im2col(&x, &w, &b, g, false).unwrap();
        prop_assert!(direct.approx_eq(&lowered, 1e-4));
    }

    /// The direct NCHWc tier agrees with the im2col tier within l-inf 1e-4
    /// across stride, padding, odd channel counts, 1x1 kernels, and
    /// degenerate spatial extents — with and without the fused ReLU
    /// epilogue — and the ahead-of-time packed-filter path is bit-identical
    /// to the direct tier packing on the fly.
    #[test]
    fn conv_tier_parity_direct_vs_im2col(
        n in 1usize..3, ci in 0usize..5, hwi in 0usize..5,
        co in 1usize..18, k in 1usize..5, stride in 1usize..4, pad in 0usize..3,
        relu in any::<bool>(), seed in 0u64..500,
    ) {
        // Odd/prime channel counts and tile-edge spatial sizes.
        let c = [1, 3, 7, 8, 13][ci];
        let hw = [1, 2, 5, 9, 16][hwi];
        prop_assume!(hw + 2 * pad >= k);
        let x = rand_tensor(&[n, c, hw, hw], seed);
        let w = rand_tensor(&[co, c, k, k], seed ^ 3);
        let b = rand_tensor(&[co], seed ^ 4);

        let direct = Conv2dOp::new(stride, pad, ConvAlgorithm::Direct).with_relu(relu);
        let im2col = Conv2dOp::new(stride, pad, ConvAlgorithm::Im2col).with_relu(relu);
        let yd = direct.forward(&[&x, &w, &b]).unwrap();
        let yi = im2col.forward(&[&x, &w, &b]).unwrap();
        prop_assert!(yd[0].approx_eq(&yi[0], 1e-4),
                     "direct vs im2col n={n} c={c} hw={hw} co={co} k={k} s={stride} p={pad}");
    }

    /// The direct tier's backward pass agrees with numerical gradients on
    /// random conv instances (stride, padding, 1x1, fused ReLU).
    #[test]
    fn conv_direct_gradcheck_random(
        c in 1usize..4, hw in 3usize..7, co in 1usize..10, k in 1usize..4,
        stride in 1usize..3, pad in 0usize..2, seed in 0u64..50,
    ) {
        prop_assume!(hw + 2 * pad >= k);
        let x = rand_tensor(&[1, c, hw, hw], seed);
        let w = rand_tensor(&[co, c, k, k], seed ^ 5);
        let b = rand_tensor(&[co], seed ^ 6);
        let op = Conv2dOp::new(stride, pad, ConvAlgorithm::Direct);
        let report = test_gradient(&op, &[&x, &w, &b], 1e-3, 40).unwrap();
        prop_assert!(report.passes(5e-3), "max rel {}", report.max_rel_error);
    }

    /// Pooling order: min(window) <= avg <= max for every output element.
    #[test]
    fn pooling_order(hw in 4usize..10, k in 2usize..4, seed in 0u64..200) {
        prop_assume!(hw >= k);
        let x = rand_tensor(&[1, 2, hw, hw], seed);
        let max = Pool2dOp::max(k, k).forward(&[&x]).unwrap();
        let avg = Pool2dOp::average(k, k).forward(&[&x]).unwrap();
        let med = Pool2dOp::median(k, k).forward(&[&x]).unwrap();
        for i in 0..max[0].numel() {
            prop_assert!(avg[0].data()[i] <= max[0].data()[i] + 1e-6);
            prop_assert!(med[0].data()[i] <= max[0].data()[i] + 1e-6);
        }
    }

    /// Softmax rows sum to one and are strictly positive.
    #[test]
    fn softmax_is_a_distribution(rows in 1usize..6, cols in 1usize..8, seed in 0u64..200) {
        let x = rand_tensor(&[rows, cols], seed).scale(5.0);
        let y = SoftmaxOp::softmax_rows(&x).unwrap();
        for r in 0..rows {
            let row = &y.data()[r * cols..(r + 1) * cols];
            let sum: f32 = row.iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-5);
            prop_assert!(row.iter().all(|&p| p > 0.0));
        }
    }

    /// Split then Concat along axis 0 is the identity for any partition.
    #[test]
    fn split_concat_identity(parts in prop::collection::vec(1usize..5, 1..5),
                             cols in 1usize..6, seed in 0u64..100) {
        let total: usize = parts.iter().sum();
        let x = rand_tensor(&[total, cols], seed);
        let split = SplitOp::new(&parts);
        let pieces = split.forward(&[&x]).unwrap();
        let refs: Vec<&Tensor> = pieces.iter().collect();
        let concat = ConcatOp::new(parts.len());
        let back = concat.forward(&refs).unwrap();
        prop_assert_eq!(&back[0], &x);
    }

    /// Activations are monotone nondecreasing (ReLU/Sigmoid/Tanh).
    #[test]
    fn activations_monotone(a in -5.0f32..5.0, b in -5.0f32..5.0) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        for op in [ActivationOp::relu(), ActivationOp::sigmoid(), ActivationOp::tanh()] {
            let x = Tensor::from_slice(&[lo, hi]);
            let y = op.forward(&[&x]).unwrap();
            prop_assert!(y[0].data()[0] <= y[0].data()[1] + 1e-7, "{}", op.name());
        }
    }

    /// Numerical gradient check passes for random linear-layer instances.
    #[test]
    fn linear_gradcheck_random(n in 1usize..4, fin in 1usize..5, fout in 1usize..5,
                               seed in 0u64..50) {
        let x = rand_tensor(&[n, fin], seed);
        let w = rand_tensor(&[fout, fin], seed ^ 7);
        let b = rand_tensor(&[fout], seed ^ 8);
        let op = deep500_ops::linear::LinearOp::default();
        let report = test_gradient(&op, &[&x, &w, &b], 1e-3, 30).unwrap();
        prop_assert!(report.passes(5e-3), "max rel {}", report.max_rel_error);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Stride 1: reading the reduction rows as windows of the padded image
    /// gives the bits of gathering them, at both register tiles, and the
    /// narrow tile's windows and seams give the wide tile's bits wherever
    /// the two kernels round alike. Non-square images and filters, padding
    /// from none (read in place, last tile bounced) to the whole kernel,
    /// reductions of one to three `KC` blocks, output rows narrower than a
    /// vector and flat widths that fill no whole tile — with and without
    /// ReLU.
    #[test]
    fn conv_window_forward_is_bitwise_the_gathered_forward(
        three in any::<bool>(), c in 1usize..48, co in 1usize..20,
        h in 1usize..10, dw in 1usize..14, kh in 1usize..6, tall in any::<bool>(),
        padi in 0usize..8, relu in any::<bool>(), seed in 0u64..500,
    ) {
        let n = if three { 3 } else { 1 };
        let wd = h + dw;
        let (kh, kw) = if tall { (kh + 1, kh) } else { (kh, kh + 1) };
        let pad = padi % (kh.max(kw) + 1);
        let g = ConvGeometry { stride: 1, pad };
        prop_assume!(h + 2 * pad >= kh && wd + 2 * pad >= kw);
        let x = rand_tensor(&[n, c, h, wd], seed);
        let w = rand_tensor(&[co, c, kh, kw], seed ^ 3);
        let b = rand_tensor(&[co], seed ^ 4);
        let pf = pack_filter(w.data(), co, c * kh * kw).data;
        let run = |operand, nr| {
            forward_direct_packed_as(&x, &pf, co, kh, kw, &b, g, relu, operand, nr).unwrap()
        };
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let mut windows = Vec::new();
        for nr in [NR, NR_W] {
            let at = bits(&run(BOperand::Windows, nr));
            prop_assert_eq!(
                &at, &bits(&run(BOperand::Rows, nr)),
                "nr={} n={} c={} {}x{} co={} {}x{} p={} relu={}", nr, n, c, h, wd, co, kh, kw, pad, relu
            );
            windows.push(at);
        }
        if tiles_round_alike() {
            prop_assert_eq!(&windows[0], &windows[1], "narrow vs wide");
        }
        // And windows are what the operator runs, at one of the widths.
        prop_assert_eq!(BOperand::for_geometry(g), BOperand::Windows);
        let op = Conv2dOp::new(1, pad, ConvAlgorithm::Direct).with_relu(relu);
        let ran = bits(&op.forward(&[&x, &w, &b]).unwrap()[0]);
        prop_assert!(windows.contains(&ran));
    }
}

/// Whether the 8-wide and the 32-wide kernels round alike on this host:
/// both fused (AVX-512F, whose hosts also have AVX2+FMA) or both portable
/// (neither, or miri). On an AVX2-only host the wide tile runs its portable
/// kernel, which nothing but these tests selects there.
fn tiles_round_alike() -> bool {
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    {
        std::arch::is_x86_feature_detected!("avx512f")
            || !(std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("fma"))
    }
    #[cfg(not(all(target_arch = "x86_64", not(miri))))]
    {
        true
    }
}

/// Uniform values in [-1, 1) with about a third of the elements replaced by
/// NaN, ±inf, ±0.0 or a repeated ±1.0 (ties). `dense` draws every element
/// from the first five, so that windows of nothing but NaN and `-inf` come
/// up too.
fn planted_tensor(shape: &[usize], seed: u64, dense: bool) -> Tensor {
    const PLANTED: [f32; 7] = [
        f32::NAN,
        f32::INFINITY,
        f32::NEG_INFINITY,
        0.0,
        -0.0,
        1.0,
        -1.0,
    ];
    let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
    let mut t = Tensor::rand_uniform(shape, -1.0, 1.0, &mut rng);
    for v in t.data_mut() {
        if dense {
            *v = PLANTED[rng.next_below(5)];
        } else if rng.next_below(3) == 0 {
            *v = PLANTED[rng.next_below(PLANTED.len())];
        }
    }
    t
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// `kernel == stride == 2` max pooling, forward and backward, is bitwise
    /// a scalar walk over each window in row-major order: the output is
    /// `f32::max` folded from `-inf`, and the gradient is added (`+=`) to
    /// the first element strictly above everything before it (the first
    /// element if nothing is above `-inf`). Odd extents drop their last row
    /// or column.
    #[test]
    fn max_pool_2x2_is_bitwise_the_window_fold(
        n in 1usize..4, c in 1usize..5, h in 2usize..13, w in 2usize..13, dense in any::<bool>(),
        seed in 0u64..1000,
    ) {
        let op = Pool2dOp::max(2, 2);
        let x = planted_tensor(&[n, c, h, w], seed, dense);
        let y = op.forward(&[&x]).unwrap();
        let (ho, wo) = (h / 2, w / 2);
        let dy = planted_tensor(&[n, c, ho, wo], seed ^ 5, false);
        let dx = op.backward(&[&dy], &[&x], &[&y[0]]).unwrap();

        let (xd, dyd) = (x.data(), dy.data());
        let mut want_y = vec![0.0f32; n * c * ho * wo];
        let mut want_dx = vec![0.0f32; n * c * h * w];
        for p in 0..n * c {
            for oh in 0..ho {
                for ow in 0..wo {
                    let o = (p * ho + oh) * wo + ow;
                    let window = [(0, 0), (0, 1), (1, 0), (1, 1)]
                        .map(|(fh, fw)| (p * h + 2 * oh + fh) * w + 2 * ow + fw);
                    let (mut m, mut best, mut at) = (f32::NEG_INFINITY, f32::NEG_INFINITY, window[0]);
                    for i in window {
                        m = m.max(xd[i]);
                        if xd[i] > best {
                            (best, at) = (xd[i], i);
                        }
                    }
                    want_y[o] = m;
                    want_dx[at] += dyd[o];
                }
            }
        }
        let bits = |v: &[f32]| v.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let what = format!("n={n} c={c} {h}x{w} dense={dense} seed={seed}");
        prop_assert_eq!(bits(y[0].data()), bits(&want_y), "{} forward", what);
        prop_assert_eq!(bits(dx[0].data()), bits(&want_dx), "{} backward", what);
    }
}
