//! 2-D convolution (NCHW), with the paper's algorithm diversity.
//!
//! The paper's motivating examples stress that convolutions "can be
//! computed using different methods" and that the benchmark says which is
//! fast; the Level-1 micro-batch experiment even assigns *different*
//! algorithms to different micro-batch sizes (Fig. 7). We keep the two
//! interchangeable algorithms the tracked `BENCH_conv.json` sweep ever
//! ranks first, and a graph names the one that runs (a missing `algorithm`
//! attribute means the direct tier, an unknown one is refused):
//!
//! * [`ConvAlgorithm::Direct`] — the fast tier ([`direct`]), fastest on
//!   every tracked shape: implicit-GEMM
//!   convolution in an NCHWc blocked layout driving the packed SIMD GEMM
//!   microkernel, with the filter packed once per weight version (one
//!   memo per op instance, the only place a filter is packed), no
//!   activation lowering at all at
//!   stride 1 (the kernel reads windows of one zero-padded copy of the
//!   image; other strides gather a cache block of rows at a time), and
//!   bias/ReLU folded into the GEMM write-back via
//!   [`Epilogue`](crate::gemm::Epilogue),
//! * [`ConvAlgorithm::Im2col`] — lowering to GEMM through a materialized
//!   whole-image column buffer (the "explicit precompute GEMM" of the
//!   paper's figure), sharing the Level-0 GEMM kernels; it sums in a
//!   different grouping than the direct tier, which is what keeps the
//!   paper's ℓ∞ cross-implementation comparisons non-trivial (the scalar
//!   [`forward_reference`] is the third, bit-transparent, arithmetic).
//!
//! The tier is reported through [`Operator::annotation`] so per-op trace
//! attribution records which one ran.
//!
//! The backward pass ([`backward_direct`]) is shared by the tiers: `dX`
//! through the blocked GEMM lowering, `dW` through it too on wide layers
//! and, at stride 1 on narrow ones, as a reduction along the same windows
//! the forward reads.
//!
//! Inputs follow ONNX `Conv`: `X [N,C,H,W]`, `W [Cout,Cin,kh,kw]`,
//! `B [Cout]`.

mod backward;
pub mod direct;

pub use backward::{backward_direct, backward_reference};

use crate::gemm;
use crate::memo::VersionMemo;
use crate::operator::Operator;
use deep500_tensor::{Error, Result, Shape, Tensor};
use std::sync::Arc;

/// Convolution algorithm selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ConvAlgorithm {
    #[default]
    Direct,
    Im2col,
}

impl ConvAlgorithm {
    /// The registry `algorithm` attribute value naming this variant.
    pub fn attr_name(self) -> &'static str {
        match self {
            ConvAlgorithm::Direct => "direct",
            ConvAlgorithm::Im2col => "im2col",
        }
    }

    /// Parse a registry `algorithm` attribute value. Any name that is not
    /// a tier is refused, never run on some other tier.
    pub fn parse(s: &str) -> Result<ConvAlgorithm> {
        match s {
            "direct" => Ok(ConvAlgorithm::Direct),
            // The retired tier selector's name, which resolved to the
            // direct tier on every shape: stored graphs still carry it.
            "auto" => Ok(ConvAlgorithm::Direct),
            "im2col" => Ok(ConvAlgorithm::Im2col),
            other => Err(Error::Invalid(format!(
                "Conv2d attribute algorithm = \"{other}\" names no tier (direct, im2col)"
            ))),
        }
    }
}

/// Resolved convolution dimensions:
/// `(n, c, h, w, c_out, kh, kw, h_out, w_out)`.
pub type ConvDims = (
    usize,
    usize,
    usize,
    usize,
    usize,
    usize,
    usize,
    usize,
    usize,
);

/// Geometry of a convolution: stride and symmetric zero padding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvGeometry {
    pub stride: usize,
    pub pad: usize,
}

impl ConvGeometry {
    /// Output spatial extent for input extent `h` and kernel extent `k`.
    pub fn out_extent(&self, h: usize, k: usize) -> Result<usize> {
        let padded = h + 2 * self.pad;
        if k == 0 || self.stride == 0 {
            return Err(Error::Invalid("kernel/stride must be nonzero".into()));
        }
        if padded < k {
            return Err(Error::ShapeMismatch(format!(
                "kernel {k} larger than padded input {padded}"
            )));
        }
        Ok((padded - k) / self.stride + 1)
    }
}

/// The 2-D convolution operator.
#[derive(Debug, Clone)]
pub struct Conv2dOp {
    pub geometry: ConvGeometry,
    pub algo: ConvAlgorithm,
    /// Fold `max(x, 0)` into the write-back (installed by the graph
    /// crate's epilogue-fusion transform). On the direct tier this rides
    /// the GEMM epilogue; im2col applies the identical float sequence as
    /// a separate pass.
    pub relu: bool,
    /// The direct tier's packed filter, memoized on the weight's version.
    cache: VersionMemo<direct::PackedFilter>,
}

impl Conv2dOp {
    /// Convolution with the given stride/padding and algorithm.
    pub fn new(stride: usize, pad: usize, algo: ConvAlgorithm) -> Self {
        Conv2dOp {
            geometry: ConvGeometry { stride, pad },
            algo,
            relu: false,
            cache: VersionMemo::default(),
        }
    }

    /// Enable the fused ReLU epilogue.
    pub fn with_relu(mut self, relu: bool) -> Self {
        self.relu = relu;
        self
    }

    fn dims(&self, x: &Shape, w: &Shape) -> Result<ConvDims> {
        if x.rank() != 4 {
            return Err(Error::ShapeMismatch(format!(
                "Conv2d: X {x} must be rank 4"
            )));
        }
        if w.rank() != 4 {
            return Err(Error::ShapeMismatch(format!(
                "Conv2d: W {w} must be rank 4"
            )));
        }
        let (co, ci, kh, kw) = (w.dim(0), w.dim(1), w.dim(2), w.dim(3));
        let (n, c, h, wd) = (x.dim(0), x.dim(1), x.dim(2), x.dim(3));
        if ci != c {
            return Err(Error::ShapeMismatch(format!(
                "Conv2d: input channels {c} vs kernel channels {ci}"
            )));
        }
        let ho = self.geometry.out_extent(h, kh)?;
        let wo = self.geometry.out_extent(wd, kw)?;
        Ok((n, c, h, wd, co, kh, kw, ho, wo))
    }

    /// Pack (or fetch the memoized packing of) the filter.
    fn packed_filter(&self, w: &Tensor, co: usize, k: usize) -> Arc<direct::PackedFilter> {
        self.cache
            .get_or_build(w, |w, _| direct::pack_filter(w.data(), co, k))
    }
}

impl Operator for Conv2dOp {
    fn name(&self) -> &str {
        "Conv2d"
    }
    fn num_inputs(&self) -> usize {
        3
    }
    fn output_shapes(&self, s: &[&Shape]) -> Result<Vec<Shape>> {
        let (n, _, _, _, co, _, _, ho, wo) = self.dims(s[0], s[1])?;
        if s[2].numel() != co {
            return Err(Error::ShapeMismatch(format!(
                "Conv2d bias {} vs {co} output channels",
                s[2]
            )));
        }
        Ok(vec![Shape::new(&[n, co, ho, wo])])
    }
    fn forward(&self, inputs: &[&Tensor]) -> Result<Vec<Tensor>> {
        let (x, w, b) = (inputs[0], inputs[1], inputs[2]);
        let g = self.geometry;
        let d = self.dims(x.shape(), w.shape())?;
        let (_, c, _, _, co, kh, kw, _, _) = d;
        let out = match self.algo {
            ConvAlgorithm::Direct => {
                let pf = self.packed_filter(w, co, c * kh * kw);
                direct::forward_direct_packed(x, &pf.data, co, kh, kw, b, g, self.relu)?
            }
            ConvAlgorithm::Im2col => {
                let mut y = forward_im2col(x, w, b, g)?;
                if self.relu {
                    relu_inplace(&mut y);
                }
                y
            }
        };
        Ok(vec![out])
    }
    fn backward(
        &self,
        grad_outputs: &[&Tensor],
        inputs: &[&Tensor],
        outputs: &[&Tensor],
    ) -> Result<Vec<Tensor>> {
        self.backward_wanted(grad_outputs, inputs, outputs, &[true; 3])
            .map(crate::operator::all_wanted)
    }
    fn backward_wanted(
        &self,
        grad_outputs: &[&Tensor],
        inputs: &[&Tensor],
        outputs: &[&Tensor],
        wanted: &[bool],
    ) -> Result<Vec<Option<Tensor>>> {
        // With the fused ReLU, first mask the incoming gradient exactly
        // like a standalone Relu node's backward: g * (y > 0 ? 1 : 0),
        // where y is this op's (post-ReLU) output.
        let masked;
        let dy = if self.relu {
            let y = outputs[0];
            masked = grad_outputs[0].zip(y, |gv, yv| gv * if yv > 0.0 { 1.0 } else { 0.0 })?;
            &masked
        } else {
            grad_outputs[0]
        };
        // dX is half the work and the only part worth eliding: a first
        // layer's input is a feed nobody differentiates.
        let (dx, dw, db) =
            backward::backward_lowered(dy, inputs[0], inputs[1], self.geometry, wanted[0])?;
        Ok(vec![dx, Some(dw), Some(db)])
    }
    fn flops(&self, s: &[&Shape]) -> f64 {
        match self.dims(s[0], s[1]) {
            Ok((n, c, _, _, co, kh, kw, ho, wo)) => {
                deep500_metrics::flops::counts::conv2d(n, c, co, ho, wo, kh, kw)
            }
            Err(_) => 0.0,
        }
    }
    fn workspace_bytes(&self, s: &[&Shape]) -> usize {
        // Models the per-algorithm lowering buffer: im2col materializes
        // [N * C*kh*kw * Ho*Wo] floats. This batch-proportional workspace
        // is exactly what the micro-batch transformation (Fig. 7)
        // reduces. The direct tier never materializes the lowering: per
        // image in flight it holds what `direct::workspace_floats` says —
        // one zero-padded copy of the image at stride 1 (nothing but a
        // one-tile bounce when `pad = 0` is read in place), one
        // cache-blocked block of gathered rows otherwise.
        match self.dims(s[0], s[1]) {
            Ok(d) => {
                let (n, c, h, wd, co, kh, kw, ho, wo) = d;
                let lw = Lowering {
                    c,
                    h,
                    wd,
                    kh,
                    kw,
                    ho,
                    wo,
                    g: self.geometry,
                };
                match self.algo {
                    ConvAlgorithm::Direct => direct::workspace_floats(co, &lw) * 4,
                    ConvAlgorithm::Im2col => n * lw.k() * ho * wo * 4,
                }
            }
            Err(_) => 0,
        }
    }
    fn bytes_moved(&self, s: &[&Shape]) -> u64 {
        // Inputs read + outputs written, plus the lowering-buffer traffic
        // the tier actually generates (written once, read once by its
        // GEMM): the whole [K x Ho·Wo] im2col matrix per image for the
        // explicit lowering, nothing for the direct tier (its padded image
        // copy or gathered block stays cache-resident by construction —
        // that difference is the point of the tier, and it is what the
        // attribution's bytes-moved column should show).
        let io: usize = s.iter().map(|sh| sh.numel()).sum::<usize>()
            + self
                .output_shapes(s)
                .map(|o| o.iter().map(Shape::numel).sum())
                .unwrap_or(0);
        let lowering = match self.dims(s[0], s[1]) {
            Ok(d) => {
                let (n, c, _, _, _, kh, kw, ho, wo) = d;
                match self.algo {
                    ConvAlgorithm::Direct => 0,
                    ConvAlgorithm::Im2col => 2 * n * c * kh * kw * ho * wo,
                }
            }
            Err(_) => 0,
        };
        ((io + lowering) * std::mem::size_of::<f32>()) as u64
    }
    fn annotation(&self, s: &[&Shape]) -> Option<String> {
        self.dims(s[0], s[1]).ok()?;
        let mut note = format!("tier={}", self.algo.attr_name());
        if self.relu {
            note.push_str("+relu");
        }
        Some(note)
    }
}

/// `max(x, 0)` over a whole tensor — the unfused ReLU pass for tiers
/// without a fusable write-back. Same per-element float op as the fused
/// [`Epilogue`] path and `ActivationOp::relu` (NaN maps to 0).
fn relu_inplace(t: &mut Tensor) {
    for v in t.data_mut() {
        *v = v.max(0.0);
    }
}

/// Padded fetch: `x[n, c, h, w]` with zero padding outside bounds.
#[inline]
#[allow(clippy::too_many_arguments)] // inner-kernel plumbing: all scalars
fn fetch(
    x: &[f32],
    c: usize,
    hd: usize,
    wd: usize,
    n: usize,
    ci: usize,
    h: isize,
    w: isize,
) -> f32 {
    if h < 0 || w < 0 || h as usize >= hd || w as usize >= wd {
        0.0
    } else {
        x[((n * c + ci) * hd + h as usize) * wd + w as usize]
    }
}

/// Seven-loop reference convolution, parallel over images. Kept as the
/// bit-transparent oracle for the optimized tiers' parity tests; not
/// selected by any [`ConvAlgorithm`].
pub fn forward_reference(x: &Tensor, w: &Tensor, b: &Tensor, g: ConvGeometry) -> Result<Tensor> {
    let (n, c, h, wd) = {
        let s = x.shape();
        (s.dim(0), s.dim(1), s.dim(2), s.dim(3))
    };
    let (co, _ci, kh, kw) = {
        let s = w.shape();
        (s.dim(0), s.dim(1), s.dim(2), s.dim(3))
    };
    let ho = g.out_extent(h, kh)?;
    let wo = g.out_extent(wd, kw)?;
    let mut out = Tensor::zeros([n, co, ho, wo]);
    let (xd, wdat, bd) = (x.data(), w.data(), b.data());
    let work = n * co * ho * wo * c * kh * kw;
    crate::par::for_each_chunk(out.data_mut(), co * ho * wo, work, |img, optr| {
        for oc in 0..co {
            for oh in 0..ho {
                for ow in 0..wo {
                    let mut acc = bd[oc];
                    for ic in 0..c {
                        for fh in 0..kh {
                            for fw in 0..kw {
                                let ih = (oh * g.stride + fh) as isize - g.pad as isize;
                                let iw = (ow * g.stride + fw) as isize - g.pad as isize;
                                let v = fetch(xd, c, h, wd, img, ic, ih, iw);
                                acc += v * wdat[((oc * c + ic) * kh + fh) * kw + fw];
                            }
                        }
                    }
                    optr[(oc * ho + oh) * wo + ow] = acc;
                }
            }
        }
    });
    Ok(out)
}

/// Direct-tier convolution from natural-layout inputs: packs the filter
/// (unmemoized) and runs the NCHWc implicit-GEMM fast path — the
/// standalone entry point mirroring [`forward_im2col`]. [`Conv2dOp`] goes
/// through its packing memo instead.
pub fn forward_direct(x: &Tensor, w: &Tensor, b: &Tensor, g: ConvGeometry) -> Result<Tensor> {
    let s = w.shape();
    if s.rank() != 4 {
        return Err(Error::ShapeMismatch(format!(
            "Conv2d: W {s} must be rank 4"
        )));
    }
    let (co, k) = (s.dim(0), s.dim(1) * s.dim(2) * s.dim(3));
    let pf = direct::pack_filter(w.data(), co, k);
    direct::forward_direct_packed(x, &pf.data, co, s.dim(2), s.dim(3), b, g, false)
}

/// Per-image geometry of a convolution's lowering to GEMM — the gathered
/// column matrix (im2col and its adjoint) and the stride-1 window form
/// both read it.
#[derive(Debug, Clone, Copy)]
struct Lowering {
    c: usize,
    h: usize,
    wd: usize,
    kh: usize,
    kw: usize,
    ho: usize,
    wo: usize,
    g: ConvGeometry,
}

impl Lowering {
    /// Rows of the column matrix: the reduction depth `C·kh·kw`.
    fn k(&self) -> usize {
        self.c * self.kh * self.kw
    }

    /// For filter column `fw`: the output columns `lo..hi` whose input
    /// column `ow·stride + fw - pad` lies inside the image, and the input
    /// column `lo` reads. Everything outside `lo..hi` is zero padding.
    fn tap_span(&self, fw: usize) -> (usize, usize, usize) {
        let (s, pad) = (self.g.stride, self.g.pad);
        let lo = pad.saturating_sub(fw).div_ceil(s).min(self.wo);
        let hi = if self.wd + pad > fw {
            ((self.wd + pad - fw - 1) / s + 1).min(self.wo)
        } else {
            0
        };
        (lo, hi.max(lo), (lo * s + fw).saturating_sub(pad))
    }

    /// The input row tap row `fh` reads for output row `oh`, if it is
    /// inside the image.
    fn tap_row(&self, oh: usize, fh: usize) -> Option<usize> {
        (oh * self.g.stride + fh)
            .checked_sub(self.g.pad)
            .filter(|&ih| ih < self.h)
    }

    /// Row pitch `Wp = W + 2·pad` of the zero-padded image.
    fn wp(&self) -> usize {
        self.wd + 2 * self.g.pad
    }

    /// Floats in one channel plane `[Hp, Wp]` of the zero-padded image.
    fn padded_plane(&self) -> usize {
        (self.h + 2 * self.g.pad) * self.wp()
    }

    /// Floats in one zero-padded image `[C, Hp, Wp]`.
    fn padded_len(&self) -> usize {
        self.c * self.padded_plane()
    }

    /// Stride 1 only. Number of *flat padded positions* `j = oh·Wp + ow`
    /// spanned by `rows` whole output rows: the last row stops at `Wo`, so
    /// `(rows - 1)·Wp + Wo`. Positions with `j mod Wp >= Wo` are seams —
    /// they belong to no output.
    fn flat(&self, rows: usize) -> usize {
        (rows - 1) * self.wp() + self.wo
    }

    /// Stride 1 only. Where each reduction row starts in the padded image:
    /// tap `(ic, fh, fw)` at flat position `j` reads padded pixel
    /// `ic·Hp·Wp + fh·Wp + fw + j`, so the whole row is the *window* of
    /// the image beginning at that offset — nothing to gather. Ascending
    /// in the reduction index, and `last + flat(Ho) == padded_len()`
    /// exactly: the windows tile the image with no slack.
    fn window_offsets(&self) -> Vec<usize> {
        let (wp, plane) = (self.wp(), self.padded_plane());
        (0..self.k())
            .map(|r| {
                let (ic, fh, fw) = direct::tap(r, self.kh, self.kw);
                ic * plane + fh * wp + fw
            })
            .collect()
    }
}

/// Copy one image `xi` (`[C, h, wd]`) into `dst` (`[C, Hp, Wp]`,
/// [`Lowering::padded_len`] floats) with its zero border. Writes every
/// element, so `dst` may be dirty scratch.
fn pad_image(xi: &[f32], lw: &Lowering, dst: &mut [f32]) {
    let (pad, wp, wd) = (lw.g.pad, lw.wp(), lw.wd);
    for (ic, pc) in dst.chunks_exact_mut(lw.padded_plane()).enumerate() {
        // Top border and the first row's left border; then each row with
        // the border that follows it (its right, the next row's left).
        let mut at = pad * wp + pad;
        pc[..at].fill(0.0);
        for ih in 0..lw.h {
            let src = (ic * lw.h + ih) * wd;
            pc[at..at + wd].copy_from_slice(&xi[src..src + wd]);
            pc[at + wd..at + wp].fill(0.0);
            at += wp;
        }
        pc[at..].fill(0.0);
    }
}

/// Lower one image `xi` (`[C, h, wd]` flattened): reduction rows `taps` x
/// output columns `cols` (`oh·wo + ow`; any range, rows may be cut) of its
/// column matrix go to `dst[(r - taps.start)·ld + col0..]`. Per reduction
/// row and output row that is a zero prefix, one (strided) row copy and a
/// zero suffix — the padding bounds are resolved once per filter tap, not
/// per element or per segment. Writes every element of the block, so
/// callers may hand in dirty scratch. The one gather behind
/// [`forward_im2col`], [`backward_direct`] and the direct tier's gathered
/// `B` rows.
fn im2col_block(
    xi: &[f32],
    lw: &Lowering,
    taps: std::ops::Range<usize>,
    cols: std::ops::Range<usize>,
    dst: &mut [f32],
    ld: usize,
    col0: usize,
) {
    if cols.is_empty() {
        return;
    }
    let (wo, s) = (lw.wo, lw.g.stride);
    let plane = lw.h * lw.wd;
    let (oh0, oh1) = (cols.start / wo, (cols.end - 1) / wo + 1);
    for r in taps.clone() {
        let (ic, fh, fw) = direct::tap(r, lw.kh, lw.kw);
        let (lo, hi, iw0) = lw.tap_span(fw);
        let xc = &xi[ic * plane..(ic + 1) * plane];
        let at = (r - taps.start) * ld + col0;
        let row = &mut dst[at..at + cols.len()];
        for oh in oh0..oh1 {
            // This output row's columns `a..b`, cut to the block.
            let a = cols.start.max(oh * wo) - oh * wo;
            let b = cols.end.min((oh + 1) * wo) - oh * wo;
            let seg = &mut row[oh * wo + a - cols.start..][..b - a];
            let (l, u) = (lo.clamp(a, b), hi.clamp(a, b));
            let Some(ih) = lw.tap_row(oh, fh).filter(|_| l < u) else {
                seg.fill(0.0);
                continue;
            };
            let src = &xc[ih * lw.wd + iw0 + (l - lo) * s..(ih + 1) * lw.wd];
            seg[..l - a].fill(0.0);
            let live = &mut seg[l - a..u - a];
            match s {
                1 => live.copy_from_slice(&src[..u - l]),
                2 => gemm::packed::strided_copy2(live, src),
                _ => {
                    for (d, &v) in live.iter_mut().zip(src.iter().step_by(s)) {
                        *d = v;
                    }
                }
            }
            seg[u - a..].fill(0.0);
        }
    }
}

/// im2col + GEMM convolution, parallel over images.
pub fn forward_im2col(x: &Tensor, w: &Tensor, b: &Tensor, g: ConvGeometry) -> Result<Tensor> {
    let (n, c, h, wd) = {
        let s = x.shape();
        (s.dim(0), s.dim(1), s.dim(2), s.dim(3))
    };
    let (co, _ci, kh, kw) = {
        let s = w.shape();
        (s.dim(0), s.dim(1), s.dim(2), s.dim(3))
    };
    let ho = g.out_extent(h, kh)?;
    let wo = g.out_extent(wd, kw)?;
    let mut out = Tensor::zeros([n, co, ho, wo]);
    let lw = Lowering {
        c,
        h,
        wd,
        kh,
        kw,
        ho,
        wo,
        g,
    };
    let k = lw.k();
    let cols = ho * wo;
    let chw = c * h * wd;
    let (xd, wdat, bd) = (x.data(), w.data(), b.data());
    crate::par::for_each_chunk(out.data_mut(), co * cols, n * co * cols * k, |img, optr| {
        // Dirty scratch: im2col_block overwrites all k * cols elements
        // (padding written explicitly), so acquire-time zeroing was
        // pure wasted traffic — k * cols floats cleared per image.
        let mut col = deep500_tensor::scratch_dirty(k * cols);
        let xi = &xd[img * chw..(img + 1) * chw];
        im2col_block(xi, &lw, 0..k, 0..cols, &mut col, cols, 0);
        // W [co x k] * col [k x cols] -> out [co x cols]; `optr` comes
        // from Tensor::zeros, so the zeroed-C gemm_into contract holds.
        gemm::gemm_into(
            gemm::Algorithm::default(),
            co,
            cols,
            k,
            wdat,
            &col[..k * cols],
            optr,
        );
        deep500_tensor::recycle_scratch(col);
        for oc in 0..co {
            let bias = bd[oc];
            for v in &mut optr[oc * cols..(oc + 1) * cols] {
                *v += bias;
            }
        }
    });
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use deep500_metrics::norms::linf_diff;
    use deep500_tensor::rng::Xoshiro256StarStar;

    fn rand_case(
        n: usize,
        c: usize,
        h: usize,
        w: usize,
        co: usize,
        k: usize,
        seed: u64,
    ) -> (Tensor, Tensor, Tensor) {
        let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
        (
            Tensor::rand_uniform([n, c, h, w], -1.0, 1.0, &mut rng),
            Tensor::rand_uniform([co, c, k, k], -0.5, 0.5, &mut rng),
            Tensor::rand_uniform([co], -0.1, 0.1, &mut rng),
        )
    }

    #[test]
    fn output_shapes_computed() {
        let op = Conv2dOp::new(2, 1, ConvAlgorithm::Direct);
        let x = Shape::new(&[2, 3, 8, 8]);
        let w = Shape::new(&[4, 3, 3, 3]);
        let b = Shape::new(&[4]);
        let out = op.output_shapes(&[&x, &w, &b]).unwrap();
        // (8 + 2 - 3)/2 + 1 = 4
        assert_eq!(out[0], Shape::new(&[2, 4, 4, 4]));
    }

    #[test]
    fn invalid_geometry_rejected() {
        let op = Conv2dOp::new(1, 0, ConvAlgorithm::Direct);
        let x = Shape::new(&[1, 1, 2, 2]);
        let w = Shape::new(&[1, 1, 5, 5]);
        let b = Shape::new(&[1]);
        assert!(op.output_shapes(&[&x, &w, &b]).is_err());
        let w2 = Shape::new(&[1, 3, 2, 2]); // channel mismatch
        assert!(op.output_shapes(&[&x, &w2, &b]).is_err());
    }

    #[test]
    fn known_1x1_convolution() {
        // 1x1 kernel with weight 2 and bias 1 is an affine map.
        let x = Tensor::from_vec([1, 1, 2, 2], vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let w = Tensor::from_vec([1, 1, 1, 1], vec![2.0]).unwrap();
        let b = Tensor::from_slice(&[1.0]);
        let op = Conv2dOp::new(1, 0, ConvAlgorithm::Direct);
        let y = op.forward(&[&x, &w, &b]).unwrap();
        assert_eq!(y[0].data(), &[3.0, 5.0, 7.0, 9.0]);
    }

    #[test]
    fn algorithms_agree() {
        let (x, w, b) = rand_case(2, 3, 9, 9, 4, 3, 7);
        let g = ConvGeometry { stride: 1, pad: 1 };
        let reference = forward_reference(&x, &w, &b, g).unwrap();
        let direct = Conv2dOp::new(1, 1, ConvAlgorithm::Direct)
            .forward(&[&x, &w, &b])
            .unwrap();
        let im2col = Conv2dOp::new(1, 1, ConvAlgorithm::Im2col)
            .forward(&[&x, &w, &b])
            .unwrap();
        assert!(linf_diff(direct[0].data(), im2col[0].data()) < 1e-4);
        assert!(linf_diff(reference.data(), direct[0].data()) < 1e-4);
    }

    #[test]
    fn strided_algorithms_agree() {
        let (x, w, b) = rand_case(1, 2, 11, 11, 3, 5, 9);
        let direct = Conv2dOp::new(2, 2, ConvAlgorithm::Direct)
            .forward(&[&x, &w, &b])
            .unwrap();
        let im2col = Conv2dOp::new(2, 2, ConvAlgorithm::Im2col)
            .forward(&[&x, &w, &b])
            .unwrap();
        assert!(linf_diff(direct[0].data(), im2col[0].data()) < 1e-4);
    }

    #[test]
    fn bias_gradient_is_output_sum() {
        let (x, w, b) = rand_case(2, 2, 5, 5, 3, 3, 11);
        let op = Conv2dOp::new(1, 1, ConvAlgorithm::Direct);
        let y = op.forward(&[&x, &w, &b]).unwrap();
        let dy = Tensor::ones(y[0].shape().clone());
        let grads = op.backward(&[&dy], &[&x, &w, &b], &[&y[0]]).unwrap();
        let per_channel = y[0].shape().dim(0) * y[0].shape().dim(2) * y[0].shape().dim(3);
        for &g in grads[2].data() {
            assert!((g - per_channel as f32).abs() < 1e-3);
        }
    }

    #[test]
    fn flops_match_formula() {
        let op = Conv2dOp::new(1, 0, ConvAlgorithm::Direct);
        let x = Shape::new(&[1, 1, 3, 3]);
        let w = Shape::new(&[1, 1, 3, 3]);
        let b = Shape::new(&[1]);
        // single output pixel, 9 MACs = 18 FLOPs
        assert_eq!(op.flops(&[&x, &w, &b]), 18.0);
    }

    #[test]
    fn im2col_is_stale_scratch_safe() {
        // Regression for the wasted-zeroing fix: forward_im2col now takes
        // *dirty* pool scratch for the column buffer, relying on
        // im2col_block writing every element (padding included). Poison
        // the current thread's scratch pool with NaN-filled buffers of the
        // exact class the conv will draw, then check parity against the
        // reference. (The per-image closure runs on rayon workers whose
        // pools start clean, so a same-thread single-image case is the
        // sharp version of this test.)
        let (x, w, b) = rand_case(1, 2, 7, 7, 3, 3, 21);
        let g = ConvGeometry { stride: 1, pad: 2 };
        let k_cols = (2 * 3 * 3) * (9 * 9);
        for _ in 0..4 {
            let mut buf = deep500_tensor::scratch_dirty(k_cols);
            buf.fill(f32::NAN);
            deep500_tensor::recycle_scratch(buf);
        }
        let lowered = forward_im2col(&x, &w, &b, g).unwrap();
        let reference = forward_reference(&x, &w, &b, g).unwrap();
        assert!(
            lowered.data().iter().all(|v| v.is_finite()),
            "stale NaN scratch leaked into the output"
        );
        assert!(linf_diff(lowered.data(), reference.data()) < 1e-4);
    }

    #[test]
    fn an_unknown_tier_name_is_refused_and_auto_reads_as_direct() {
        let err = ConvAlgorithm::parse("winograd").unwrap_err();
        assert!(matches!(err, Error::Invalid(_)), "{err}");
        assert!(
            err.to_string().contains("algorithm = \"winograd\""),
            "{err}"
        );
        assert_eq!(ConvAlgorithm::parse("auto").unwrap(), ConvAlgorithm::Direct);
        for algo in [ConvAlgorithm::Direct, ConvAlgorithm::Im2col] {
            assert_eq!(ConvAlgorithm::parse(algo.attr_name()).unwrap(), algo);
        }
    }

    #[test]
    fn fused_relu_matches_separate_pass_bitwise() {
        for algo in [ConvAlgorithm::Direct, ConvAlgorithm::Im2col] {
            let (x, w, b) = rand_case(2, 3, 7, 7, 4, 3, 31);
            let plain = Conv2dOp::new(1, 1, algo).forward(&[&x, &w, &b]).unwrap();
            let fused = Conv2dOp::new(1, 1, algo)
                .with_relu(true)
                .forward(&[&x, &w, &b])
                .unwrap();
            let mut want = plain[0].clone();
            relu_inplace(&mut want);
            let fb: Vec<u32> = fused[0].data().iter().map(|v| v.to_bits()).collect();
            let wb: Vec<u32> = want.data().iter().map(|v| v.to_bits()).collect();
            assert_eq!(fb, wb, "{algo:?}: fused ReLU diverged from separate pass");
        }
    }

    #[test]
    fn filter_cache_tracks_weight_updates() {
        // Same op instance, mutated weights: the packing memo must notice
        // the content change (an optimizer step replacing the parameter)
        // and repack rather than serving the stale filter.
        let (x, w, b) = rand_case(1, 2, 6, 6, 4, 3, 51);
        let op = Conv2dOp::new(1, 1, ConvAlgorithm::Direct);
        let y1 = op.forward(&[&x, &w, &b]).unwrap();
        let w2 = w.scale(2.0);
        let y2 = op.forward(&[&x, &w2, &b]).unwrap();
        let fresh = Conv2dOp::new(1, 1, ConvAlgorithm::Direct)
            .forward(&[&x, &w2, &b])
            .unwrap();
        assert_eq!(y2[0].data(), fresh[0].data(), "stale packed filter served");
        assert_ne!(y1[0].data(), y2[0].data());
    }

    #[test]
    fn annotation_reports_resolved_tier() {
        let op = Conv2dOp::new(1, 1, ConvAlgorithm::Direct).with_relu(true);
        let x = Shape::new(&[1, 8, 14, 14]);
        let w = Shape::new(&[16, 8, 5, 5]);
        let b = Shape::new(&[16]);
        assert_eq!(
            op.annotation(&[&x, &w, &b]).as_deref(),
            Some("tier=direct+relu")
        );
        let op = Conv2dOp::new(1, 0, ConvAlgorithm::Im2col);
        assert_eq!(
            op.annotation(&[&Shape::new(&[1, 1, 4, 4]), &Shape::new(&[2, 1, 1, 1]), &b])
                .as_deref(),
            Some("tier=im2col")
        );
    }

    #[test]
    fn direct_tier_parity_on_awkward_shapes() {
        // Odd channels, edge-tile output widths, 1x1 kernels, strides.
        for (n, c, h, w, co, k, stride, pad, seed) in [
            (
                1usize, 3usize, 9usize, 9usize, 7usize, 3usize, 1usize, 1usize, 61u64,
            ),
            (2, 1, 8, 8, 9, 1, 1, 0, 62),
            (1, 5, 12, 10, 11, 3, 2, 1, 63),
            (3, 2, 6, 6, 4, 5, 1, 2, 64),
            (1, 4, 17, 3, 13, 3, 3, 1, 65),
        ] {
            let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
            let x = Tensor::rand_uniform([n, c, h, w], -1.0, 1.0, &mut rng);
            let wt = Tensor::rand_uniform([co, c, k, k], -0.5, 0.5, &mut rng);
            let b = Tensor::rand_uniform([co], -0.1, 0.1, &mut rng);
            let g = ConvGeometry { stride, pad };
            let direct = forward_direct(&x, &wt, &b, g).unwrap();
            let lowered = forward_im2col(&x, &wt, &b, g).unwrap();
            let err = linf_diff(direct.data(), lowered.data());
            assert!(
                err < 1e-4,
                "n{n} c{c} {h}x{w} co{co} k{k} s{stride} p{pad}: linf {err}"
            );
        }
    }
}
