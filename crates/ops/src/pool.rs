//! Pooling operators: max, average, and **median** pooling.
//!
//! Median pooling is the paper's running custom-operator example
//! (Listings 3–4): a user-defined operator registered through the custom
//! operator interface and usable alongside built-ins. We implement it with
//! the same forward/backward contract as the built-in pools. For an even
//! window, the median is the mean of the two middle elements and the
//! gradient splits equally between them.

use crate::conv::ConvGeometry;
use crate::operator::Operator;
use deep500_tensor::{Error, Result, Shape, Tensor};
use std::hint::select_unpredictable;

/// The pooling reduction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PoolKind {
    Max,
    Average,
    Median,
}

/// A 2-D pooling operator over NCHW input, kernel `k x k`, stride `s`,
/// no padding (matching the common DNN usage).
#[derive(Debug, Clone)]
pub struct Pool2dOp {
    kind: PoolKind,
    pub kernel: usize,
    pub stride: usize,
}

impl Pool2dOp {
    fn new(kind: PoolKind, kernel: usize, stride: usize) -> Self {
        Pool2dOp {
            kind,
            kernel,
            stride,
        }
    }

    /// Max pooling, the common DNN downsampler.
    pub fn max(kernel: usize, stride: usize) -> Self {
        Self::new(PoolKind::Max, kernel, stride)
    }

    /// Average pooling.
    pub fn average(kernel: usize, stride: usize) -> Self {
        Self::new(PoolKind::Average, kernel, stride)
    }

    /// Median pooling — the paper's custom-operator example.
    pub fn median(kernel: usize, stride: usize) -> Self {
        Self::new(PoolKind::Median, kernel, stride)
    }

    fn geometry(&self) -> ConvGeometry {
        ConvGeometry {
            stride: self.stride,
            pad: 0,
        }
    }

    fn out_dims(&self, x: &Shape) -> Result<(usize, usize, usize, usize, usize, usize)> {
        if x.rank() != 4 {
            return Err(Error::ShapeMismatch(format!(
                "Pool2d requires rank-4 input, got {x}"
            )));
        }
        let g = self.geometry();
        let (n, c, h, w) = (x.dim(0), x.dim(1), x.dim(2), x.dim(3));
        let ho = g.out_extent(h, self.kernel)?;
        let wo = g.out_extent(w, self.kernel)?;
        Ok((n, c, h, w, ho, wo))
    }

    /// Window values and their input offsets for window (oh, ow) — the
    /// generic gather behind median pooling, which has to sort the window.
    /// Max and average run the direct plane loops below instead.
    #[allow(clippy::too_many_arguments)]
    fn window(
        &self,
        xd: &[f32],
        base: usize, // offset of (img, channel) plane
        h: usize,
        w: usize,
        oh: usize,
        ow: usize,
        vals: &mut Vec<(f32, usize)>,
    ) {
        vals.clear();
        for fh in 0..self.kernel {
            for fw in 0..self.kernel {
                let ih = oh * self.stride + fh;
                let iw = ow * self.stride + fw;
                debug_assert!(ih < h && iw < w);
                let off = base + ih * w + iw;
                vals.push((xd[off], off));
            }
        }
    }

    /// Offset, within a `w`-wide plane, of the first element of the window
    /// behind output element `o` of a `wo`-wide output plane. Window row
    /// `fh` is the `kernel` elements from `origin + fh * w`.
    #[inline]
    fn window_origin(&self, o: usize, w: usize, wo: usize) -> usize {
        (o / wo) * self.stride * w + (o % wo) * self.stride
    }

    /// Whether windows are the non-overlapping 2x2 tiles of the plane, which
    /// `max_plane` and `max_plane_backward` walk two input rows at a time.
    fn is_2x2(&self) -> bool {
        self.kernel == 2 && self.stride == 2
    }

    /// Max over each window of one input plane: `f32::max` folded from
    /// `-inf` in row-major window order (so NaNs are ignored). With
    /// `kernel == stride == 2` each output row reads its two input rows
    /// directly and folds `-inf.max(a).max(b).max(c).max(d)` — the same
    /// operands in the same order, so the result is bitwise the general
    /// loop's.
    fn max_plane(&self, xp: &[f32], w: usize, wo: usize, out: &mut [f32]) {
        if self.is_2x2() {
            for (orow, rows) in out.chunks_exact_mut(wo).zip(xp.chunks_exact(2 * w)) {
                let (top, bottom) = rows.split_at(w);
                let windows = top.chunks_exact(2).zip(bottom.chunks_exact(2));
                for (v, (t, b)) in orow.iter_mut().zip(windows) {
                    *v = f32::NEG_INFINITY.max(t[0]).max(t[1]).max(b[0]).max(b[1]);
                }
            }
            return;
        }
        let k = self.kernel;
        for (o, v) in out.iter_mut().enumerate() {
            let first = self.window_origin(o, w, wo);
            let mut m = f32::NEG_INFINITY;
            for fh in 0..k {
                for &x in &xp[first + fh * w..first + fh * w + k] {
                    m = m.max(x);
                }
            }
            *v = m;
        }
    }

    /// Mean over each window of one input plane, summed in row-major
    /// window order from the empty `f32` sum.
    fn avg_plane(&self, xp: &[f32], w: usize, wo: usize, out: &mut [f32]) {
        let k = self.kernel;
        let zero: f32 = std::iter::empty::<f32>().sum();
        let count = (k * k) as f32;
        for (o, v) in out.iter_mut().enumerate() {
            let first = self.window_origin(o, w, wo);
            let mut sum = zero;
            for fh in 0..k {
                for &x in &xp[first + fh * w..first + fh * w + k] {
                    sum += x;
                }
            }
            *v = sum / count;
        }
    }

    /// Route each window's gradient to its first maximal element
    /// (cuDNN-style deterministic tie rule). A window with nothing above
    /// `-inf` — all NaN or `-inf` — routes to its first element. With
    /// `kernel == stride == 2` the windows do not overlap, so each 2x2 tile
    /// picks its element by selects and stores `0.0 + g` there: what the
    /// general `+=` leaves in a zeroed plane, a `-0.0` gradient landing as
    /// `+0.0`.
    fn max_plane_backward(&self, xp: &[f32], dyp: &[f32], w: usize, wo: usize, dxp: &mut [f32]) {
        if self.is_2x2() {
            for (i, grow) in dyp.chunks_exact(wo).enumerate() {
                let (top, bottom) = xp[2 * i * w..][..2 * w].split_at(w);
                for (j, &g) in grow.iter().enumerate() {
                    let (l, r) = (2 * j, 2 * j + 1);
                    // The general scan unrolled: `at` moves to each element
                    // strictly above the running maximum. `f32::max` keeps
                    // that maximum (a `±0.0` tie may keep either zero, which
                    // no later `>` can tell apart), and the moves are
                    // selects, not branches: which element wins is data.
                    let m = f32::NEG_INFINITY.max(top[l]);
                    let at = select_unpredictable(top[r] > m, 1, 0);
                    let m = m.max(top[r]);
                    let at = select_unpredictable(bottom[l] > m, 2, at);
                    let m = m.max(bottom[l]);
                    let at = select_unpredictable(bottom[r] > m, 3, at);
                    dxp[(2 * i + at / 2) * w + l + at % 2] = 0.0 + g;
                }
            }
            return;
        }
        let k = self.kernel;
        for (o, &g) in dyp.iter().enumerate() {
            let first = self.window_origin(o, w, wo);
            let (mut best, mut at) = (f32::NEG_INFINITY, first);
            for fh in 0..k {
                let row = first + fh * w;
                for (fw, &x) in xp[row..row + k].iter().enumerate() {
                    if x > best {
                        (best, at) = (x, row + fw);
                    }
                }
            }
            dxp[at] += g;
        }
    }

    /// Spread each window's gradient evenly over its elements.
    fn avg_plane_backward(&self, dyp: &[f32], w: usize, wo: usize, dxp: &mut [f32]) {
        let k = self.kernel;
        let count = (k * k) as f32;
        for (o, &g) in dyp.iter().enumerate() {
            let share = g / count;
            let first = self.window_origin(o, w, wo);
            for fh in 0..k {
                for d in &mut dxp[first + fh * w..first + fh * w + k] {
                    *d += share;
                }
            }
        }
    }
}

/// How many runs of whole planes a pool pass is cut into (four per worker
/// on a two-core host), fixed so the split depends only on the shape.
const PLANE_RUNS: usize = 8;

/// Run `f(plane index, plane)` over the `len`-element planes of `data`:
/// planes are independent, so they go through [`crate::par`] — up to
/// [`PLANE_RUNS`] runs of whole planes, `visits` window-element visits as
/// the work — without changing any result.
fn for_each_plane(
    data: &mut [f32],
    len: usize,
    visits: usize,
    f: impl Fn(usize, &mut [f32]) + Sync,
) {
    if len == 0 {
        return;
    }
    let run = (data.len() / len).div_ceil(PLANE_RUNS);
    crate::par::for_each_chunk(data, run * len, visits, |t, chunk| {
        for (i, p) in chunk.chunks_exact_mut(len).enumerate() {
            f(t * run + i, p);
        }
    });
}

impl Operator for Pool2dOp {
    fn name(&self) -> &str {
        match self.kind {
            PoolKind::Max => "MaxPool2d",
            PoolKind::Average => "AvgPool2d",
            PoolKind::Median => "MedianPool2d",
        }
    }
    fn num_inputs(&self) -> usize {
        1
    }
    fn output_shapes(&self, s: &[&Shape]) -> Result<Vec<Shape>> {
        let (n, c, _, _, ho, wo) = self.out_dims(s[0])?;
        Ok(vec![Shape::new(&[n, c, ho, wo])])
    }
    fn forward(&self, inputs: &[&Tensor]) -> Result<Vec<Tensor>> {
        let x = inputs[0];
        let (n, c, h, w, ho, wo) = self.out_dims(x.shape())?;
        let mut out = Tensor::zeros([n, c, ho, wo]);
        let xd = x.data();
        let od = out.data_mut();
        let visits = od.len() * self.kernel * self.kernel;
        match self.kind {
            PoolKind::Max => for_each_plane(od, ho * wo, visits, |p, o| {
                self.max_plane(&xd[p * h * w..(p + 1) * h * w], w, wo, o)
            }),
            PoolKind::Average => for_each_plane(od, ho * wo, visits, |p, o| {
                self.avg_plane(&xd[p * h * w..(p + 1) * h * w], w, wo, o)
            }),
            PoolKind::Median => {
                let mut vals = Vec::with_capacity(self.kernel * self.kernel);
                for plane in 0..n * c {
                    for oh in 0..ho {
                        for ow in 0..wo {
                            self.window(xd, plane * h * w, h, w, oh, ow, &mut vals);
                            vals.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("NaN in pool"));
                            let m = vals.len();
                            od[(plane * ho + oh) * wo + ow] = if m % 2 == 1 {
                                vals[m / 2].0
                            } else {
                                0.5 * (vals[m / 2 - 1].0 + vals[m / 2].0)
                            };
                        }
                    }
                }
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
        let x = inputs[0];
        let dy = grad_outputs[0];
        let (n, c, h, w, ho, wo) = self.out_dims(x.shape())?;
        if dy.numel() != n * c * ho * wo {
            return Err(Error::ShapeMismatch(format!(
                "Pool2d backward: dY {} vs expected [{n}x{c}x{ho}x{wo}]",
                dy.shape()
            )));
        }
        let mut dx = Tensor::zeros(x.shape().clone());
        let (xd, dyd) = (x.data(), dy.data());
        let dxd = dx.data_mut();
        let visits = dyd.len() * self.kernel * self.kernel;
        let out_plane = |p: usize| &dyd[p * ho * wo..(p + 1) * ho * wo];
        match self.kind {
            PoolKind::Max => for_each_plane(dxd, h * w, visits, |p, d| {
                self.max_plane_backward(&xd[p * h * w..(p + 1) * h * w], out_plane(p), w, wo, d)
            }),
            PoolKind::Average => for_each_plane(dxd, h * w, visits, |p, d| {
                self.avg_plane_backward(out_plane(p), w, wo, d)
            }),
            PoolKind::Median => {
                let mut vals = Vec::with_capacity(self.kernel * self.kernel);
                for plane in 0..n * c {
                    for oh in 0..ho {
                        for ow in 0..wo {
                            let g = dyd[(plane * ho + oh) * wo + ow];
                            self.window(xd, plane * h * w, h, w, oh, ow, &mut vals);
                            vals.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("NaN in pool"));
                            let m = vals.len();
                            if m % 2 == 1 {
                                dxd[vals[m / 2].1] += g;
                            } else {
                                dxd[vals[m / 2 - 1].1] += 0.5 * g;
                                dxd[vals[m / 2].1] += 0.5 * g;
                            }
                        }
                    }
                }
            }
        }
        Ok(vec![dx])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plane(vals: &[f32]) -> Tensor {
        let n = (vals.len() as f64).sqrt() as usize;
        Tensor::from_vec([1, 1, n, n], vals.to_vec()).unwrap()
    }

    #[test]
    fn max_pool_known_values() {
        let x = plane(&[
            1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0,
        ]);
        let op = Pool2dOp::max(2, 2);
        let y = op.forward(&[&x]).unwrap();
        assert_eq!(y[0].shape(), &Shape::new(&[1, 1, 2, 2]));
        assert_eq!(y[0].data(), &[6.0, 8.0, 14.0, 16.0]);
    }

    #[test]
    fn avg_pool_known_values() {
        let x = plane(&[1.0, 2.0, 3.0, 4.0]);
        let op = Pool2dOp::average(2, 2);
        let y = op.forward(&[&x]).unwrap();
        assert_eq!(y[0].data(), &[2.5]);
    }

    #[test]
    fn median_pool_odd_window() {
        let x = plane(&[9.0, 1.0, 5.0, 2.0, 8.0, 3.0, 7.0, 4.0, 6.0]);
        let op = Pool2dOp::median(3, 1);
        let y = op.forward(&[&x]).unwrap();
        // median of 1..9 is 5
        assert_eq!(y[0].data(), &[5.0]);
    }

    #[test]
    fn median_pool_even_window_averages_middles() {
        let x = plane(&[1.0, 2.0, 3.0, 4.0]);
        let op = Pool2dOp::median(2, 2);
        let y = op.forward(&[&x]).unwrap();
        assert_eq!(y[0].data(), &[2.5]);
    }

    #[test]
    fn max_backward_routes_to_argmax() {
        let x = plane(&[1.0, 2.0, 3.0, 4.0]);
        let op = Pool2dOp::max(2, 2);
        let y = op.forward(&[&x]).unwrap();
        let g = Tensor::from_vec([1, 1, 1, 1], vec![10.0]).unwrap();
        let dx = op.backward(&[&g], &[&x], &[&y[0]]).unwrap();
        assert_eq!(dx[0].data(), &[0.0, 0.0, 0.0, 10.0]);
    }

    #[test]
    fn median_backward_splits_on_even_window() {
        let x = plane(&[1.0, 2.0, 3.0, 4.0]);
        let op = Pool2dOp::median(2, 2);
        let y = op.forward(&[&x]).unwrap();
        let g = Tensor::from_vec([1, 1, 1, 1], vec![2.0]).unwrap();
        let dx = op.backward(&[&g], &[&x], &[&y[0]]).unwrap();
        // middles of {1,2,3,4} are 2 and 3
        assert_eq!(dx[0].data(), &[0.0, 1.0, 1.0, 0.0]);
    }

    #[test]
    fn avg_backward_distributes_evenly() {
        let x = plane(&[1.0, 2.0, 3.0, 4.0]);
        let op = Pool2dOp::average(2, 2);
        let y = op.forward(&[&x]).unwrap();
        let g = Tensor::from_vec([1, 1, 1, 1], vec![4.0]).unwrap();
        let dx = op.backward(&[&g], &[&x], &[&y[0]]).unwrap();
        assert_eq!(dx[0].data(), &[1.0, 1.0, 1.0, 1.0]);
    }

    /// The generic window path max and average pooling ran on before their
    /// direct plane loops: every window gathered through `window`, then
    /// folded. Kept here as the bitwise oracle for the fast paths.
    fn generic(op: &Pool2dOp, x: &Tensor, dy: &Tensor) -> (Tensor, Tensor) {
        let (n, c, h, w, ho, wo) = op.out_dims(x.shape()).unwrap();
        let mut out = Tensor::zeros([n, c, ho, wo]);
        let mut dx = Tensor::zeros(x.shape().clone());
        let (xd, dyd) = (x.data(), dy.data());
        let (od, dxd) = (out.data_mut(), dx.data_mut());
        let mut vals = Vec::new();
        for plane in 0..n * c {
            for oh in 0..ho {
                for ow in 0..wo {
                    let o = (plane * ho + oh) * wo + ow;
                    op.window(xd, plane * h * w, h, w, oh, ow, &mut vals);
                    match op.kind {
                        PoolKind::Max => {
                            od[o] = vals
                                .iter()
                                .map(|&(v, _)| v)
                                .fold(f32::NEG_INFINITY, f32::max);
                            let (_, off) = vals.iter().copied().fold(
                                (f32::NEG_INFINITY, vals[0].1),
                                |acc, (v, o)| if v > acc.0 { (v, o) } else { acc },
                            );
                            dxd[off] += dyd[o];
                        }
                        _ => {
                            od[o] = vals.iter().map(|&(v, _)| v).sum::<f32>() / vals.len() as f32;
                            let share = dyd[o] / vals.len() as f32;
                            for &(_, off) in vals.iter() {
                                dxd[off] += share;
                            }
                        }
                    }
                }
            }
        }
        (out, dx)
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn fast_paths_match_the_generic_window_path_bitwise() {
        use deep500_tensor::rng::Xoshiro256StarStar;
        let mut rng = Xoshiro256StarStar::seed_from_u64(17);
        // Overlapping, touching and gapped windows; odd extents; the
        // (8, 32, 32, 32) case is large enough to take the pool split.
        for (n, c, h, w, k, s) in [
            (2usize, 3usize, 7usize, 9usize, 2usize, 2usize),
            (1, 2, 8, 8, 3, 1),
            (3, 1, 9, 6, 3, 2),
            (2, 2, 5, 5, 2, 3),
            (1, 1, 4, 4, 4, 4),
            (8, 32, 32, 32, 2, 2),
        ] {
            for quantize in [false, true] {
                let mut x = Tensor::rand_uniform([n, c, h, w], -1.0, 1.0, &mut rng);
                if quantize {
                    // Three distinct values: every window is full of ties.
                    // (No zeros: `f32::max` leaves the sign of a +0/-0 tie
                    // to the compiler, so no two loops need agree on it.)
                    x = x.map(|v| (v * 1.5).round() * 0.5 + 0.25);
                }
                for op in [Pool2dOp::max(k, s), Pool2dOp::average(k, s)] {
                    let y = op.forward(&[&x]).unwrap();
                    let dy = Tensor::rand_uniform(y[0].shape().clone(), -1.0, 1.0, &mut rng);
                    let dx = op.backward(&[&dy], &[&x], &[&y[0]]).unwrap();
                    let (want_y, want_dx) = generic(&op, &x, &dy);
                    let what = format!("{} n{n} c{c} {h}x{w} k{k} s{s} ties={quantize}", op.name());
                    assert_eq!(bits(&y[0]), bits(&want_y), "{what}: forward");
                    assert_eq!(bits(&dx[0]), bits(&want_dx), "{what}: backward");
                }
            }
        }
    }

    #[test]
    fn max_pool_ignores_nan_and_routes_degenerate_windows_to_their_first_element() {
        // f32::max drops NaN operands, forward and backward alike.
        let x = Tensor::from_vec([1, 1, 2, 2], vec![f32::NAN, 2.0, 1.0, f32::NAN]).unwrap();
        let op = Pool2dOp::max(2, 2);
        let y = op.forward(&[&x]).unwrap();
        assert_eq!(y[0].data(), &[2.0]);
        let g = Tensor::from_vec([1, 1, 1, 1], vec![3.0]).unwrap();
        let dx = op.backward(&[&g], &[&x], &[&y[0]]).unwrap();
        assert_eq!(dx[0].data(), &[0.0, 3.0, 0.0, 0.0]);
        // Nothing above -inf in the second plane's window: the gradient
        // stays inside that window (its first element).
        let x =
            Tensor::from_vec([1, 2, 1, 2], vec![1.0, 2.0, f32::NAN, f32::NEG_INFINITY]).unwrap();
        let op = Pool2dOp::max(1, 1);
        let y = op.forward(&[&x]).unwrap();
        let g = Tensor::from_vec([1, 2, 1, 2], vec![1.0, 1.0, 5.0, 7.0]).unwrap();
        let dx = op.backward(&[&g], &[&x], &[&y[0]]).unwrap();
        assert_eq!(dx[0].data(), &[1.0, 1.0, 5.0, 7.0]);
    }

    #[test]
    fn backward_rejects_a_mismatched_gradient() {
        let x = plane(&[1.0, 2.0, 3.0, 4.0]);
        let op = Pool2dOp::max(2, 2);
        let y = op.forward(&[&x]).unwrap();
        let g = Tensor::zeros([1, 1, 2, 2]);
        assert!(op.backward(&[&g], &[&x], &[&y[0]]).is_err());
    }

    #[test]
    fn rejects_bad_rank() {
        let op = Pool2dOp::max(2, 2);
        assert!(op.output_shapes(&[&Shape::new(&[3, 3])]).is_err());
    }

    #[test]
    fn names() {
        assert_eq!(Pool2dOp::max(2, 2).name(), "MaxPool2d");
        assert_eq!(Pool2dOp::average(2, 2).name(), "AvgPool2d");
        assert_eq!(Pool2dOp::median(2, 2).name(), "MedianPool2d");
    }
}
