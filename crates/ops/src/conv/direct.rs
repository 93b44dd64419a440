//! The `ConvAlgorithm::Direct` fast tier: NCHWc blocked-layout convolution
//! driving the packed GEMM microkernel, with both layout transforms hoisted
//! out of the hot loop.
//!
//! The computation is the same implicit GEMM as im2col —
//! `C [Co x P] = W [Co x K] * X̃ [K x P]` per image, `K = C·kh·kw`,
//! `P = Ho·Wo` — but neither operand is ever materialized in its logical
//! layout:
//!
//! * **Weights** are packed *once* into the microkernel's blocked sliver
//!   format ([`pack_filter`]): for every `KC` reduction block, `MR`-row
//!   slivers laid out `[p][i]` — the nGraph-style "NCHWc" blocked filter
//!   layout, with the output-channel dimension split into
//!   register-tile-sized chunks. Because the packed A-panel geometry
//!   ([`Blocking`]) depends only on `(Co, K)`, one packed image serves
//!   every input spatial size, so the transform is hoisted to op-instance
//!   setup (or, under the graph compiler, to a constant-folded
//!   `PackConv2dFilter` node).
//! * **Activations** are gathered directly from NCHW into the packed
//!   B-panel slivers `[p][j]` ([`pack_b_conv`]): the im2col lowering *is*
//!   the panel-packing copy the GEMM would do anyway, so no `K x P` scratch
//!   matrix ever exists. Stride-1 rows take a `copy_from_slice` fast path;
//!   zero padding is written analytically (no per-element bounds branch).
//!
//! The output `C` rows are output channels, so the GEMM writes the NCHW
//! result natively — there is no NCHWc→NCHW conversion pass to pay on the
//! way out. Bias-add (per output channel = per GEMM row) and ReLU ride the
//! packed GEMM's fused write-back via [`Epilogue::BiasRow`] /
//! [`Epilogue::BiasRowRelu`], while each freshly stored tile is cache-hot.
//!
//! On AVX-512-class hosts the B panel is gathered *row-major* (one
//! contiguous gathered row per reduction index, no sliver scatter at all)
//! and driven through the dedicated 16-lane microkernel
//! ([`run_panel_wide`]) at the wide register tile ([`NR_W`] = 32 columns)
//! — conv GEMMs have few rows (`Co`) and very many columns (`Ho·Wo`), so
//! widening the per-tile column count is where the extra vector width
//! pays, and the kernel's unaligned strided loads make the sliver repack
//! (a second full copy of the activation block) pure waste. The packed
//! *filter* layout is width agnostic (`MR`-row slivers), so one packing
//! serves both widths and the choice can stay a per-run CPUID dispatch.
//!
//! Determinism: each output element's `K` reduction ascends in the same
//! blocked order as [`gemm_packed`](crate::gemm::packed), parallelism is
//! only over whole images, and the epilogue follows the shared
//! bit-identity contract — so direct-tier results are bit-identical across
//! thread counts and across the fused/unfused epilogue split (im2col
//! parity stays the paper's ℓ∞-measured ~1e-6, the tiers sum in different
//! groupings).

use super::ConvGeometry;
use crate::gemm::packed::{
    pack_a, round_up, run_panel, run_panel_wide, wide_tier_available, Blocking, MR, NR, NR_W,
};
use crate::gemm::Epilogue;
use crate::operator::Operator;
use deep500_tensor::{recycle_scratch, scratch_dirty, Error, Result, Shape, Tensor};
use rayon::prelude::*;

/// The one rule behind [`ConvAlgorithm::Auto`](super::ConvAlgorithm::Auto):
/// this tier, unless one image's output (`cols = Ho·Wo`, the GEMM width)
/// is narrower than a single [`NR`]-column register tile — the padded tile
/// then wastes most of its lanes and the explicit lowering is 5–11 % faster
/// (`BENCH_conv.json` row `tiny_p_tail3x3`, `Ho·Wo = 4`: im2col 0.034 ms,
/// direct 0.037 ms, the same way round in eight of eight runs; EXPERIMENTS
/// E26). Every other tracked shape, down to a reduction depth of 3
/// (`tiny_k_rgb1x1`) and up to batch 8, is fastest here, so there is no
/// second condition.
pub fn auto_picks_direct(cols: usize) -> bool {
    cols >= NR
}

/// A convolution filter pre-packed into the microkernel's blocked sliver
/// layout for a `Co x K` GEMM A-operand (`K = Cin·kh·kw`).
///
/// Layout: for each `KC` reduction block `pc` (ascending), the `MC` row
/// panels (ascending `ic`), each a [`pack_a`]-format run of `MR`-row
/// `[p][i]` slivers with edge rows zero-padded. The block starting at
/// `(pc, ic)` lives at offset `round_up(co, MR) * pc + ic * kc_b`; total
/// length is [`packed_filter_len`]`(co, k)`.
#[derive(Debug, Clone, PartialEq)]
pub struct PackedFilter {
    pub data: Vec<f32>,
    /// Output channels (GEMM rows).
    pub co: usize,
    /// Reduction depth `Cin·kh·kw` (GEMM K).
    pub k: usize,
}

/// The `(mc, kc)` A-panel blocking a `Co x K` filter packs under. Shared by
/// [`pack_filter`] and [`conv_image`] so a filter packed ahead of time (op
/// cache or `PackConv2dFilter` graph node) always matches the geometry the
/// forward pass consumes: the conv [`Blocking`]'s `mc`/`kc` depend only on
/// `(m, k)`, never on the GEMM width or sliver width, so one packing
/// serves every input spatial size on both the narrow and wide panel
/// drivers.
pub fn filter_blocking(co: usize, k: usize) -> (usize, usize) {
    let bl = Blocking::for_conv(co, NR, k, NR);
    (bl.mc, bl.kc)
}

/// Length in floats of a packed `Co x K` filter: `round_up(co, MR) * k`
/// (every reduction step stores one full zero-padded `MR`-row column).
pub fn packed_filter_len(co: usize, k: usize) -> usize {
    if k == 0 {
        return 0;
    }
    round_up(co, MR) * k
}

/// Pack a filter stored `[Co, Cin, kh, kw]` row-major (so flattened
/// `[Co x K]` with `K`-index `(ic·kh + fh)·kw + fw` — exactly the im2col
/// row order) into the blocked sliver layout described on
/// [`PackedFilter`].
pub fn pack_filter(wdat: &[f32], co: usize, k: usize) -> PackedFilter {
    debug_assert_eq!(wdat.len(), co * k);
    let (mc, kc) = filter_blocking(co, k);
    let rows_pad = round_up(co, MR);
    let mut data = vec![0.0f32; packed_filter_len(co, k)];
    for pc in (0..k).step_by(kc) {
        let kc_b = kc.min(k - pc);
        for ic in (0..co).step_by(mc) {
            let mc_b = mc.min(co - ic);
            let off = rows_pad * pc + ic * kc_b;
            let len = round_up(mc_b, MR) * kc_b;
            pack_a(
                &mut data[off..off + len],
                wdat,
                false,
                k,
                ic,
                pc,
                mc_b,
                kc_b,
            );
        }
    }
    PackedFilter { data, co, k }
}

/// Gather one logical im2col row segment (fixed reduction index, output
/// columns `jc..jc + row.len()`) for filter tap `(fh, fw)` of one input
/// channel plane `xc` (`h x wd`), writing zero padding analytically.
#[allow(clippy::too_many_arguments)] // gather-kernel plumbing: all scalars
fn gather_row(
    row: &mut [f32],
    xc: &[f32],
    h: usize,
    wd: usize,
    fh: usize,
    fw: usize,
    g: ConvGeometry,
    wo: usize,
    jc: usize,
) {
    let nc_b = row.len();
    let mut j = 0usize;
    while j < nc_b {
        let col = jc + j;
        let oh = col / wo;
        let ow0 = col % wo;
        let seg = (wo - ow0).min(nc_b - j);
        let ih = (oh * g.stride + fh) as isize - g.pad as isize;
        let dst = &mut row[j..j + seg];
        if ih < 0 || ih as usize >= h {
            dst.fill(0.0);
        } else {
            let xrow = &xc[ih as usize * wd..(ih as usize + 1) * wd];
            gather_xrow(dst, xrow, ow0, fw, g);
        }
        j += seg;
    }
}

/// One output row's worth of the gather: `dst[i] = xrow[(ow0 + i)·stride +
/// fw - pad]` with zeros outside `[0, wd)`. The padding bounds are
/// resolved analytically into prefix fill / in-range copy / suffix fill
/// for *every* stride — stride 1 is a straight `copy_from_slice`, larger
/// strides a branchless strided read — which is the fast path that
/// replaces im2col's per-element branchy fetch.
fn gather_xrow(dst: &mut [f32], xrow: &[f32], ow0: usize, fw: usize, g: ConvGeometry) {
    let wd = xrow.len();
    let s = g.stride as isize;
    let base = (ow0 * g.stride + fw) as isize - g.pad as isize;
    let len = dst.len() as isize;
    // In-range output indices i: 0 <= base + i*s < wd.
    let lo = if base < 0 { (-base + s - 1) / s } else { 0 }.clamp(0, len) as usize;
    let hi = ((wd as isize - base + s - 1) / s).clamp(0, len) as usize;
    dst[..lo].fill(0.0);
    if hi > lo {
        let s0 = (base + lo as isize * s) as usize;
        if g.stride == 1 {
            dst[lo..hi].copy_from_slice(&xrow[s0..s0 + (hi - lo)]);
        } else if g.stride == 2 {
            crate::gemm::packed::strided_copy2(&mut dst[lo..hi], &xrow[s0..]);
        } else {
            let src = xrow[s0..].iter().step_by(g.stride);
            for (v, &xv) in dst[lo..hi].iter_mut().zip(src) {
                *v = xv;
            }
        }
    }
    dst[hi.max(lo)..].fill(0.0);
}

/// Decompose an im2col reduction index `r` into its `(input channel,
/// filter row, filter column)` tap coordinates — the `K`-index order is
/// `(ic·kh + fh)·kw + fw`, matching [`pack_filter`]'s row order.
#[inline]
pub(super) fn tap(r: usize, kh: usize, kw: usize) -> (usize, usize, usize) {
    let ic = r / (kh * kw);
    let rem = r % (kh * kw);
    (ic, rem / kw, rem % kw)
}

/// Pack the `kc_b x nc_b` implicit-im2col block at `(pc, jc)` of one image
/// `xi` (`[C, h, wd]` flattened) into packed B-panel slivers of width
/// [`NR`] (`[jt][p][j]`, edge lanes zero-padded) for the *narrow* panel
/// driver — the fused activation-layout-conversion step. Each reduction
/// row is gathered across the full block width in one [`gather_row`] call
/// (the per-segment geometry math amortizes over the whole row) into
/// `row_buf` (`nc_b` floats of caller-provided scratch), then split into
/// slivers with straight `copy_from_slice`s. The wide driver skips this
/// entirely: it reads `B` row-major, so [`conv_image`] gathers each
/// reduction row directly into its final slot.
#[allow(clippy::too_many_arguments)] // pack-kernel plumbing: all scalars
fn pack_b_conv(
    dst: &mut [f32],
    xi: &[f32],
    h: usize,
    wd: usize,
    kh: usize,
    kw: usize,
    wo: usize,
    g: ConvGeometry,
    pc: usize,
    jc: usize,
    kc_b: usize,
    nc_b: usize,
    row_buf: &mut [f32],
) {
    for p in 0..kc_b {
        let (ic, fh, fw) = tap(pc + p, kh, kw);
        let xc = &xi[ic * h * wd..(ic + 1) * h * wd];
        let row = &mut row_buf[..nc_b];
        gather_row(row, xc, h, wd, fh, fw, g, wo, jc);
        for (jt, chunk) in row.chunks(NR).enumerate() {
            let off = (jt * kc_b + p) * NR;
            dst[off..off + chunk.len()].copy_from_slice(chunk);
            dst[off + chunk.len()..off + NR].fill(0.0);
        }
    }
}

/// Direct convolution of one image: `optr` is the `[Co x Ho·Wo]` output
/// slab (zeroed on entry, per the packed GEMM's zeroed-C contract), `pf`
/// the pre-packed filter data for `(co, k)`. The epilogue fires once per
/// element on the final `KC` block.
#[allow(clippy::too_many_arguments)] // driver plumbing: all scalars
fn conv_image(
    pf: &[f32],
    co: usize,
    k: usize,
    xi: &[f32],
    optr: &mut [f32],
    h: usize,
    wd: usize,
    kh: usize,
    kw: usize,
    wo: usize,
    g: ConvGeometry,
    epilogue: Epilogue<'_>,
) {
    let cols = optr.len() / co;
    // B sliver width: the wide AVX-512 register tile when the host has it
    // (detection is CPUID-cached, so this is deterministic per run — the
    // bit-identity contract between pre-packed and on-the-fly filters
    // holds because both take the same width), the shared narrow tile
    // otherwise. The conv blocking rounds the macro-panel step to that
    // width so every sliver is whole; its `(mc, kc)` matches
    // [`filter_blocking`] by construction.
    let wide = wide_tier_available();
    let nr = if wide { NR_W } else { NR };
    let bl = Blocking::for_conv(co, cols, k, nr);
    let rows_pad = round_up(co, MR);
    let bwidth = bl.nc.min(round_up(cols, nr));
    // Dirty scratch: the gathers fully overwrite the prefixes read
    // downstream, so acquire-time zeroing would be wasted traffic. The
    // slab is over-acquired by one cache line and its use offset to a
    // 64-byte boundary: `bwidth` is a multiple of the sliver width, and
    // tile offsets are too, so with an aligned base *every* wide-kernel
    // B load is cache-line aligned instead of split across two lines.
    let mut bpack_slab = scratch_dirty(bwidth * bl.kc + 16);
    let boff = (bpack_slab.as_ptr() as usize).wrapping_neg() % 64 / 4;
    let bpack = &mut bpack_slab[boff..boff + bwidth * bl.kc];
    let mut row_buf = scratch_dirty(if wide { 1 } else { bwidth });
    for jc in (0..cols).step_by(bl.nc) {
        let nc_b = bl.nc.min(cols - jc);
        for pc in (0..k).step_by(bl.kc) {
            let kc_b = bl.kc.min(k - pc);
            let first = pc == 0;
            let last = pc + kc_b == k;
            if wide {
                // Row-major B: gather each reduction row once, straight
                // into the slot the wide kernel reads at stride `bwidth`
                // — no sliver repack, half the pack-side traffic. Columns
                // `nc_b..` of the last partial tile are zero-filled so
                // the kernel's whole-tile loads stay in bounds and inert.
                let wused = round_up(nc_b, nr);
                for p in 0..kc_b {
                    let (ic, fh, fw) = tap(pc + p, kh, kw);
                    let xc = &xi[ic * h * wd..(ic + 1) * h * wd];
                    let row = &mut bpack[p * bwidth..p * bwidth + wused];
                    gather_row(&mut row[..nc_b], xc, h, wd, fh, fw, g, wo, jc);
                    row[nc_b..].fill(0.0);
                }
            } else {
                pack_b_conv(
                    bpack,
                    xi,
                    h,
                    wd,
                    kh,
                    kw,
                    wo,
                    g,
                    pc,
                    jc,
                    kc_b,
                    nc_b,
                    &mut row_buf,
                );
            }
            for ic in (0..co).step_by(bl.mc) {
                let mc_b = bl.mc.min(co - ic);
                // Safety audit: these calls are safe fns, but they feed the
                // `unsafe` microkernels in `gemm::packed`, whose SAFETY
                // comments assume whole `MR`/`nr`-padded slivers. The A
                // slice is `round_up(mc_b, MR)·kc_b` by construction here
                // and the B rows were padded to `round_up(nc_b, nr)` above;
                // the kernels re-assert both via slice indexing, and the CI
                // miri job interprets the `conv::direct` tests to check the
                // packing arithmetic end to end.
                let apack = &pf[rows_pad * pc + ic * kc_b..][..round_up(mc_b, MR) * kc_b];
                let cpanel = &mut optr[ic * cols..(ic + mc_b) * cols];
                if wide {
                    run_panel_wide(
                        apack, bpack, bwidth, cpanel, cols, ic, jc, mc_b, nc_b, kc_b, epilogue,
                        first, last,
                    );
                } else {
                    run_panel(
                        apack, bpack, cpanel, cols, ic, jc, mc_b, nc_b, kc_b, epilogue, last,
                    );
                }
            }
        }
    }
    recycle_scratch(row_buf);
    recycle_scratch(bpack_slab);
}

/// Direct-tier forward pass over a batch: `pf` is the packed filter data
/// for a `[co, c, kh, kw]` filter (see [`pack_filter`] /
/// [`packed_filter_len`]), `relu` folds `max(x, 0)` into the write-back.
/// Parallel over images above the GEMM [`PAR_THRESHOLD`]; a single image
/// (the closed-loop serving case) runs serially with zero dispatch cost.
///
/// [`PAR_THRESHOLD`]: crate::gemm::PAR_THRESHOLD
#[allow(clippy::too_many_arguments)] // entry-point plumbing: all scalars
pub fn forward_direct_packed(
    x: &Tensor,
    pf: &[f32],
    co: usize,
    kh: usize,
    kw: usize,
    b: &Tensor,
    g: ConvGeometry,
    relu: bool,
) -> Result<Tensor> {
    let s = x.shape();
    let (n, c, h, wd) = (s.dim(0), s.dim(1), s.dim(2), s.dim(3));
    let ho = g.out_extent(h, kh)?;
    let wo = g.out_extent(wd, kw)?;
    let k = c * kh * kw;
    if pf.len() != packed_filter_len(co, k) {
        return Err(Error::ShapeMismatch(format!(
            "packed filter length {} vs expected {} for co={co}, k={k}",
            pf.len(),
            packed_filter_len(co, k)
        )));
    }
    let cols = ho * wo;
    let mut out = Tensor::zeros([n, co, ho, wo]);
    let (xd, bd) = (x.data(), b.data());
    let epilogue = if relu {
        Epilogue::BiasRowRelu(bd)
    } else {
        Epilogue::BiasRow(bd)
    };
    if k == 0 {
        // Zero-depth reduction (degenerate empty-channel input): the GEMM
        // is empty but the epilogue still owes its pass.
        for img in out.data_mut().chunks_mut(co * cols) {
            epilogue.apply_matrix(img, cols);
        }
        return Ok(out);
    }
    let image = |img: usize, optr: &mut [f32]| {
        let xi = &xd[img * c * h * wd..(img + 1) * c * h * wd];
        conv_image(pf, co, k, xi, optr, h, wd, kh, kw, wo, g, epilogue);
    };
    if n > 1 && n * co * cols * k >= crate::gemm::PAR_THRESHOLD {
        out.data_mut()
            .par_chunks_mut(co * cols)
            .enumerate()
            .for_each(|(img, optr)| image(img, optr));
    } else {
        for (img, optr) in out.data_mut().chunks_mut(co * cols).enumerate() {
            image(img, optr);
        }
    }
    Ok(out)
}

/// Pre-packs a `[Co, Cin, kh, kw]` convolution filter into the direct
/// tier's blocked layout ([`pack_filter`]), producing a rank-1 tensor of
/// [`packed_filter_len`] floats. Inserted on frozen-parameter weight edges
/// by the graph compiler's layout pass so constant folding materializes
/// the packed image ahead of time and `Conv2d` (with `weights_packed = 1`)
/// borrows it at zero per-call cost.
#[derive(Debug, Clone, Default)]
pub struct PackConv2dFilterOp;

impl Operator for PackConv2dFilterOp {
    fn name(&self) -> &str {
        "PackConv2dFilter"
    }
    fn num_inputs(&self) -> usize {
        1
    }
    fn output_shapes(&self, s: &[&Shape]) -> Result<Vec<Shape>> {
        if s[0].rank() != 4 {
            return Err(Error::ShapeMismatch(format!(
                "PackConv2dFilter: W {} must be rank 4",
                s[0]
            )));
        }
        let (co, ci, kh, kw) = (s[0].dim(0), s[0].dim(1), s[0].dim(2), s[0].dim(3));
        Ok(vec![Shape::new(&[packed_filter_len(co, ci * kh * kw)])])
    }
    fn forward(&self, inputs: &[&Tensor]) -> Result<Vec<Tensor>> {
        let s = inputs[0].shape();
        if s.rank() != 4 {
            return Err(Error::ShapeMismatch(format!(
                "PackConv2dFilter: W {s} must be rank 4"
            )));
        }
        let (co, k) = (s.dim(0), s.dim(1) * s.dim(2) * s.dim(3));
        let pf = pack_filter(inputs[0].data(), co, k);
        Tensor::from_vec([pf.data.len()], pf.data).map(|t| vec![t])
    }
    fn backward(
        &self,
        _grad_outputs: &[&Tensor],
        inputs: &[&Tensor],
        _outputs: &[&Tensor],
    ) -> Result<Vec<Tensor>> {
        // Layout-only node, inserted exclusively on frozen (inference)
        // parameter edges — no gradient flows through a packing.
        Ok(vec![Tensor::zeros(inputs[0].shape().clone())])
    }
    fn input_differentiable(&self, _i: usize) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deep500_tensor::rng::Xoshiro256StarStar;

    #[test]
    fn packed_filter_layout_roundtrips_through_offsets() {
        // co = 10 (edge tile), k = 5: every weight must appear exactly once
        // at the offset conv_image computes, with pad rows zero.
        let (co, k) = (10usize, 5usize);
        let wdat: Vec<f32> = (0..co * k).map(|v| v as f32 + 1.0).collect();
        let pf = pack_filter(&wdat, co, k);
        assert_eq!(pf.data.len(), packed_filter_len(co, k));
        let (mc, kc) = filter_blocking(co, k);
        let rows_pad = round_up(co, MR);
        let mut seen = vec![0u32; co * k];
        for pc in (0..k).step_by(kc) {
            let kc_b = kc.min(k - pc);
            for ic in (0..co).step_by(mc) {
                let mc_b = mc.min(co - ic);
                let base = rows_pad * pc + ic * kc_b;
                // pack_a sliver layout: [tile][p][i].
                for (it, sliver) in pf.data[base..base + round_up(mc_b, MR) * kc_b]
                    .chunks(MR * kc_b)
                    .enumerate()
                {
                    for p in 0..kc_b {
                        for i in 0..MR {
                            let row = ic + it * MR + i;
                            let got = sliver[p * MR + i];
                            if row < co {
                                assert_eq!(got, wdat[row * k + pc + p]);
                                seen[row * k + pc + p] += 1;
                            } else {
                                assert_eq!(got, 0.0, "pad row {row} not zero");
                            }
                        }
                    }
                }
            }
        }
        assert!(seen.iter().all(|&c| c == 1), "coverage: {seen:?}");
    }

    #[test]
    fn gather_matches_scalar_fetch() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(3);
        let (h, wd) = (7usize, 9usize);
        let xc = Tensor::rand_uniform([h, wd], -1.0, 1.0, &mut rng);
        for (stride, pad, kh, kw) in [(1, 0, 3, 3), (1, 2, 3, 3), (2, 1, 5, 5), (3, 0, 1, 1)] {
            let g = ConvGeometry { stride, pad };
            let (Ok(ho), Ok(wo)) = (g.out_extent(h, kh), g.out_extent(wd, kw)) else {
                continue;
            };
            for fh in 0..kh {
                for fw in 0..kw {
                    let mut row = vec![f32::NAN; ho * wo];
                    gather_row(&mut row, xc.data(), h, wd, fh, fw, g, wo, 0);
                    for oh in 0..ho {
                        for ow in 0..wo {
                            let ih = (oh * stride + fh) as isize - pad as isize;
                            let iw = (ow * stride + fw) as isize - pad as isize;
                            let want = if ih < 0 || iw < 0 || ih as usize >= h || iw as usize >= wd
                            {
                                0.0
                            } else {
                                xc.data()[ih as usize * wd + iw as usize]
                            };
                            assert_eq!(
                                row[oh * wo + ow],
                                want,
                                "s{stride} p{pad} tap ({fh},{fw}) at ({oh},{ow})"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn pack_op_output_shape_matches_forward() {
        let op = PackConv2dFilterOp;
        let ws = Shape::new(&[6, 3, 3, 3]);
        let declared = op.output_shapes(&[&ws]).unwrap();
        let mut rng = Xoshiro256StarStar::seed_from_u64(8);
        let w = Tensor::rand_uniform([6, 3, 3, 3], -1.0, 1.0, &mut rng);
        let out = op.forward(&[&w]).unwrap();
        assert_eq!(out[0].shape(), &declared[0]);
        assert_eq!(out[0].shape().numel(), packed_filter_len(6, 27));
    }
}
