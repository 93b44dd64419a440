//! Batch normalization (training mode, per-channel over NCHW).
//!
//! Inputs: `X [N,C,H,W]`, `gamma [C]`, `beta [C]`. The batch statistics are
//! recomputed in the backward pass, keeping the operator stateless (the
//! running-statistics bookkeeping of inference-mode batchnorm belongs to
//! training loops, not Level 0).
//!
//! Reduction order: every per-channel sum (the mean and variance of the
//! forward pass, dgamma and dbeta of the backward pass) adds each `H x W`
//! plane in [`LANES`] independent `f64` partial sums, folded in a fixed
//! order that depends only on the plane length, and then adds the planes
//! in image order. Nothing forks inside a channel, so the bits do not
//! depend on the thread count. The per-element `f64` formulas are those of
//! a plain sequential loop; only the order of the additions differs.

use crate::operator::Operator;
use deep500_tensor::{Error, Result, Shape, Tensor};

/// Batch-normalization operator.
#[derive(Debug, Clone)]
pub struct BatchNormOp {
    pub eps: f32,
}

impl Default for BatchNormOp {
    fn default() -> Self {
        BatchNormOp { eps: 1e-5 }
    }
}

/// Independent partial sums of [`lane_sum`]: enough to hide the latency
/// of an `f64` add.
const LANES: usize = 16;

/// `Σ term(xs[i], ys[i])` over two planes of one length: element `i` goes
/// to lane `i % LANES`, lanes add in increasing `i`, and the lanes fold
/// pairwise (lane `l` takes lane `l + width` for width 8, 4, 2, 1). The
/// order depends on the length alone. A sum over one plane passes it twice.
fn lane_sum(xs: &[f32], ys: &[f32], term: impl Fn(f32, f32) -> f64) -> f64 {
    debug_assert_eq!(xs.len(), ys.len());
    let mut lanes = [0.0f64; LANES];
    let (xc, yc) = (xs.chunks_exact(LANES), ys.chunks_exact(LANES));
    let rest = xc.remainder().iter().zip(yc.remainder());
    for (xl, yl) in xc.zip(yc) {
        for ((acc, &x), &y) in lanes.iter_mut().zip(xl).zip(yl) {
            *acc += term(x, y);
        }
    }
    for (acc, (&x, &y)) in lanes.iter_mut().zip(rest) {
        *acc += term(x, y);
    }
    let mut width = LANES;
    while width > 1 {
        width /= 2;
        let (low, high) = lanes.split_at_mut(width);
        for (a, b) in low.iter_mut().zip(&high[..width]) {
            *a += b;
        }
    }
    lanes[0]
}

/// Per-channel mean and (biased) variance over `N, H, W`.
fn channel_stats(x: &Tensor) -> (Vec<f64>, Vec<f64>, usize) {
    let s = x.shape();
    let (n, c, h, w) = (s.dim(0), s.dim(1), s.dim(2), s.dim(3));
    let plane = h * w;
    let m = n * plane;
    let mut mean = vec![0.0f64; c];
    let mut var = vec![0.0f64; c];
    let planes = || x.data().chunks_exact(plane.max(1)).zip((0..c).cycle());
    for (xp, ch) in planes() {
        mean[ch] += lane_sum(xp, xp, |x, _| x as f64);
    }
    for mu in &mut mean {
        *mu /= m as f64;
    }
    for (xp, ch) in planes() {
        let mu = mean[ch];
        var[ch] += lane_sum(xp, xp, |x, _| {
            let d = x as f64 - mu;
            d * d
        });
    }
    for v in &mut var {
        *v /= m as f64;
    }
    (mean, var, m)
}

impl BatchNormOp {
    fn check(&self, s: &[&Shape]) -> Result<usize> {
        if s[0].rank() != 4 {
            return Err(Error::ShapeMismatch(format!(
                "BatchNorm requires rank-4 input, got {}",
                s[0]
            )));
        }
        let c = s[0].dim(1);
        if s[1].numel() != c || s[2].numel() != c {
            return Err(Error::ShapeMismatch(format!(
                "BatchNorm: gamma {} / beta {} vs {c} channels",
                s[1], s[2]
            )));
        }
        Ok(c)
    }
}

impl Operator for BatchNormOp {
    fn name(&self) -> &str {
        "BatchNorm"
    }
    fn num_inputs(&self) -> usize {
        3
    }
    fn output_shapes(&self, s: &[&Shape]) -> Result<Vec<Shape>> {
        self.check(s)?;
        Ok(vec![s[0].clone()])
    }
    fn forward(&self, inputs: &[&Tensor]) -> Result<Vec<Tensor>> {
        let (x, gamma, beta) = (inputs[0], inputs[1], inputs[2]);
        let shapes = [x.shape(), gamma.shape(), beta.shape()];
        let c = self.check(&[shapes[0], shapes[1], shapes[2]])?;
        let s = x.shape();
        // Chunk width; `max(1)` only keeps an empty input from panicking.
        let plane = (s.dim(2) * s.dim(3)).max(1);
        let (mean, var, _m) = channel_stats(x);
        let mut out = Tensor::zeros(s.clone());
        let (gd, bd) = (gamma.data(), beta.data());
        let planes = x.data().chunks_exact(plane);
        let out_planes = out.data_mut().chunks_exact_mut(plane);
        for ((xp, op), ch) in planes.zip(out_planes).zip((0..c).cycle()) {
            let inv = 1.0 / (var[ch] + self.eps as f64).sqrt();
            let (mu, g, b) = (mean[ch], gd[ch] as f64, bd[ch] as f64);
            for (o, &x) in op.iter_mut().zip(xp) {
                let xhat = (x as f64 - mu) * inv;
                *o = (g * xhat + b) as f32;
            }
        }
        Ok(vec![out])
    }
    fn backward(
        &self,
        grad_outputs: &[&Tensor],
        inputs: &[&Tensor],
        _outputs: &[&Tensor],
    ) -> Result<Vec<Tensor>> {
        let (x, gamma, _beta) = (inputs[0], inputs[1], inputs[2]);
        let dy = grad_outputs[0];
        let s = x.shape();
        let (c, plane) = (s.dim(1), (s.dim(2) * s.dim(3)).max(1));
        let (mean, var, m) = channel_stats(x);
        let gd = gamma.data();
        let inv: Vec<f64> = var
            .iter()
            .map(|v| 1.0 / (v + self.eps as f64).sqrt())
            .collect();
        let planes = || {
            let xs = x.data().chunks_exact(plane);
            xs.zip(dy.data().chunks_exact(plane)).zip((0..c).cycle())
        };

        // First pass: dgamma, dbeta.
        let mut dgamma = vec![0.0f64; c];
        let mut dbeta = vec![0.0f64; c];
        for ((xp, dyp), ch) in planes() {
            let (mu, inv) = (mean[ch], inv[ch]);
            dgamma[ch] += lane_sum(xp, dyp, |x, g| g as f64 * ((x as f64 - mu) * inv));
            dbeta[ch] += lane_sum(dyp, dyp, |g, _| g as f64);
        }

        // Second pass: dx = gamma*inv * (dy - dbeta/m - xhat*dgamma/m).
        let mut dx = Tensor::zeros(s.clone());
        let dx_planes = dx.data_mut().chunks_exact_mut(plane);
        for (((xp, dyp), ch), dxp) in planes().zip(dx_planes) {
            let (mu, inv) = (mean[ch], inv[ch]);
            let scale = gd[ch] as f64 * inv;
            for ((d, &x), &g) in dxp.iter_mut().zip(xp).zip(dyp) {
                let xhat = (x as f64 - mu) * inv;
                let g = g as f64;
                *d = (scale * (g - dbeta[ch] / m as f64 - xhat * dgamma[ch] / m as f64)) as f32;
            }
        }
        let dgamma_t =
            Tensor::from_vec([c], dgamma.iter().map(|&v| v as f32).collect()).expect("shape");
        let dbeta_t =
            Tensor::from_vec([c], dbeta.iter().map(|&v| v as f32).collect()).expect("shape");
        Ok(vec![dx, dgamma_t, dbeta_t])
    }
    fn flops(&self, s: &[&Shape]) -> f64 {
        deep500_metrics::flops::counts::elementwise(s[0].numel(), 5)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deep500_tensor::rng::Xoshiro256StarStar;

    #[test]
    fn output_is_normalized() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(3);
        let x = Tensor::rand_normal([4, 2, 3, 3], 5.0, 2.0, &mut rng);
        let gamma = Tensor::ones([2]);
        let beta = Tensor::zeros([2]);
        let y = BatchNormOp::default()
            .forward(&[&x, &gamma, &beta])
            .unwrap();
        // Per-channel mean ~0, variance ~1.
        let (mean, var, _) = channel_stats(&y[0]);
        for ch in 0..2 {
            assert!(mean[ch].abs() < 1e-5, "mean {}", mean[ch]);
            assert!((var[ch] - 1.0).abs() < 1e-3, "var {}", var[ch]);
        }
    }

    #[test]
    fn gamma_beta_shift_and_scale() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(4);
        let x = Tensor::rand_normal([2, 1, 4, 4], 0.0, 1.0, &mut rng);
        let gamma = Tensor::from_slice(&[3.0]);
        let beta = Tensor::from_slice(&[-1.0]);
        let y = BatchNormOp::default()
            .forward(&[&x, &gamma, &beta])
            .unwrap();
        let (mean, var, _) = channel_stats(&y[0]);
        assert!((mean[0] + 1.0).abs() < 1e-5);
        assert!((var[0] - 9.0).abs() < 1e-2);
    }

    #[test]
    fn dbeta_is_grad_sum() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(5);
        let x = Tensor::rand_normal([2, 2, 2, 2], 0.0, 1.0, &mut rng);
        let gamma = Tensor::ones([2]);
        let beta = Tensor::zeros([2]);
        let op = BatchNormOp::default();
        let y = op.forward(&[&x, &gamma, &beta]).unwrap();
        let dy = Tensor::ones(x.shape().clone());
        let grads = op.backward(&[&dy], &[&x, &gamma, &beta], &[&y[0]]).unwrap();
        // dbeta = sum of ones over N*H*W = 8 per channel
        assert!(grads[2].data().iter().all(|&v| (v - 8.0).abs() < 1e-4));
        // dX for constant dy is ~0 (normalization removes constants)
        assert!(grads[0].data().iter().all(|&v| v.abs() < 1e-4));
    }

    #[test]
    fn lane_sum_matches_a_sequential_sum() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(6);
        for len in (1..=40).chain([1024]) {
            let x = Tensor::rand_normal([len], 5.0, 2.0, &mut rng);
            let xd = x.data();
            let sequential: f64 = xd.iter().map(|&v| v as f64).sum();
            let magnitude: f64 = xd.iter().map(|&v| (v as f64).abs()).sum();
            let lanes = lane_sum(xd, xd, |x, _| x as f64);
            assert!(
                (lanes - sequential).abs() <= 1e-12 * magnitude,
                "len {len}: {lanes} vs {sequential}"
            );
        }
    }

    #[test]
    fn forward_matches_sequential_statistics() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(8);
        let (n, c, plane) = (3, 4, 37);
        let x = Tensor::rand_normal([n, c, 1, plane], 5.0, 2.0, &mut rng);
        let gamma = Tensor::rand_normal([c], 1.0, 0.5, &mut rng);
        let beta = Tensor::rand_normal([c], 0.0, 1.0, &mut rng);
        let op = BatchNormOp::default();
        let y = op.forward(&[&x, &gamma, &beta]).unwrap();
        let (xd, m) = (x.data(), (n * plane) as f64);
        let values = |ch: usize| {
            (0..n).flat_map(move |img| {
                xd[(img * c + ch) * plane..][..plane]
                    .iter()
                    .map(move |&v| (img, v as f64))
            })
        };
        for ch in 0..c {
            let mean = values(ch).map(|(_, v)| v).sum::<f64>() / m;
            let var = values(ch)
                .map(|(_, v)| (v - mean) * (v - mean))
                .sum::<f64>()
                / m;
            let inv = 1.0 / (var + op.eps as f64).sqrt();
            for (i, (img, v)) in values(ch).enumerate() {
                let want = gamma.data()[ch] as f64 * (v - mean) * inv + beta.data()[ch] as f64;
                let got = y[0].data()[(img * c + ch) * plane + i % plane] as f64;
                assert!(
                    (got - want).abs() <= 1e-6,
                    "channel {ch} element {i}: {got} vs {want}"
                );
            }
        }
    }

    #[test]
    fn shape_validation() {
        let op = BatchNormOp::default();
        let bad = Shape::new(&[2, 3]);
        let g = Shape::new(&[3]);
        assert!(op.output_shapes(&[&bad, &g, &g]).is_err());
        let x = Shape::new(&[1, 3, 2, 2]);
        let wrong = Shape::new(&[4]);
        assert!(op.output_shapes(&[&x, &wrong, &g]).is_err());
    }
}
