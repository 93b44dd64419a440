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
//!   every input spatial size, so the transform runs once per weight
//!   version, memoized by the `Conv2d` operator.
//! * **Activations** reach the kernel in one of two forms
//!   ([`BOperand`]), chosen by the one rule in [`BOperand::for_geometry`].
//!   For stride 1 nothing is lowered at all: the image
//!   is copied once into a zero-padded `[C, Hp, Wp]` scratch (`3·20·20`
//!   floats for LeNet conv1, where the gathered rows were `75·256`; with
//!   `pad = 0` the input is read in place and even that copy goes), and
//!   the reduction row of tap `(ic, fh, fw)` *is* the window of that image
//!   starting at `ic·Hp·Wp + fh·Wp + fw`, indexed by flat padded position
//!   `j = oh·Wp + ow`. The `Wp - Wo` positions between output rows (the
//!   *seam*) are computed with the rest of their register tile and dropped
//!   by the write-back (`Seam`). Other strides have no such window, so
//!   their rows are gathered — by the same hoisted row copy the explicit
//!   lowering uses (`im2col_block`), one `KC x NC` block at a time, never
//!   the whole `K x P` matrix, row-major.
//!
//! The output `C` rows are output channels, so the GEMM writes the NCHW
//! result natively — there is no NCHWc→NCHW conversion pass to pay on the
//! way out. Bias-add (per output channel = per GEMM row) and ReLU ride the
//! packed GEMM's fused write-back via [`Epilogue::BiasRow`] /
//! [`Epilogue::BiasRowRelu`], while each freshly stored tile is cache-hot.
//!
//! Both forms run through the packed GEMM's one panel driver
//! (`run_panel`) at the host's register tile (`host_nr`): [`NR_W`] = 32
//! columns on AVX-512-class hosts — conv GEMMs have few rows (`Co`) and
//! very many columns (`Ho·Wo`), so widening the per-tile column count is
//! where the extra vector width pays — and [`NR`] = 8 elsewhere. The
//! driver addresses `B` through a per-row offset table (`b[offs[p] + j]`),
//! which is what makes windows and gathered rows the same kernel: gathered
//! rows are the special case `offs[p] = p·ldb`. The packed *filter*
//! layout is width agnostic (`MR`-row slivers), so one packing serves both
//! widths and the choice can stay a per-run CPUID dispatch.
//!
//! Determinism: each output element's `K` reduction ascends in the same
//! blocked order as [`gemm_packed`](crate::gemm::packed), parallelism is
//! only over whole images, and the epilogue follows the shared
//! bit-identity contract — so direct-tier results are bit-identical across
//! thread counts, across the fused/unfused epilogue split, and across
//! windows vs gathered rows and both tile widths (which columns share a
//! register tile never enters an element's float sequence;
//! `tests/properties.rs` holds them to equal bits). im2col parity stays the paper's ℓ∞-measured ~1e-6, the
//! tiers sum in different groupings.

use super::{im2col_block, pad_image, ConvGeometry, Lowering};
use crate::gemm::packed::{host_nr, pack_a, round_up, run_panel, Blocking, Seam, MR, NR, NR_W};
use crate::gemm::Epilogue;
use deep500_tensor::{recycle_scratch, scratch_dirty, Error, Result, Tensor};

/// A convolution filter pre-packed into the microkernel's blocked sliver
/// layout for a `Co x K` GEMM A-operand (`K = Cin·kh·kw`).
///
/// Layout: for each `KC` reduction block `pc` (ascending), the `MC` row
/// panels (ascending `ic`), each a `pack_a`-format run of `MR`-row
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
/// [`pack_filter`] and [`conv_image`] so a memoized packed filter always
/// matches the geometry the forward pass consumes: the conv [`Blocking`]'s
/// `mc`/`kc` depend only on `(m, k)`, never on the GEMM width or tile
/// width, so one packing serves every input spatial size at both widths.
fn filter_blocking(co: usize, k: usize) -> (usize, usize) {
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

/// Decompose an im2col reduction index `r` into its `(input channel,
/// filter row, filter column)` tap coordinates — the `K`-index order is
/// `(ic·kh + fh)·kw + fw`, matching [`pack_filter`]'s row order.
#[inline]
pub(super) fn tap(r: usize, kh: usize, kw: usize) -> (usize, usize, usize) {
    let ic = r / (kh * kw);
    let rem = r % (kh * kw);
    (ic, rem / kw, rem % kw)
}

/// How one image's implicit-GEMM `B` operand (`K` reduction rows of output
/// positions) reaches the panel driver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BOperand {
    /// Rows gathered block by block, row-major.
    Rows,
    /// Stride 1: no rows at all — the driver reads each one as a window of
    /// the zero-padded image (of the input itself when `pad = 0`) and drops
    /// the seam columns.
    Windows,
}

impl BOperand {
    /// The one rule, on every host: windows wherever they exist (stride 1),
    /// rows gathered otherwise. Tracked by `BENCH_conv.json`: every stride-1
    /// forward cell's `direct` row is the window form (`lenet_conv1` 0.36
    /// → 0.16 ms, `resnet16_body_b4` 0.47 → 0.22 against the gathered rows
    /// it replaced, the 3x3 body cells 1.1–1.9x; EXPERIMENTS E27), and
    /// `stem7x7` is the gathered one. `pad = 0` needs no condition of its
    /// own — it reads the input in place, so the `proj1x1` and
    /// `tiny_k_rgb1x1` rows pay no copy. The seam costs `Wp / Wo` in
    /// columns (1.02–1.08 on the tracked 3x3 cells, often nothing once
    /// rounded to whole tiles); an output much narrower than its filter
    /// would pay more, and no tracked shape is one.
    pub fn for_geometry(g: ConvGeometry) -> BOperand {
        if g.stride == 1 {
            BOperand::Windows
        } else {
            BOperand::Rows
        }
    }
}

/// Blocking and scratch geometry of one `B` operand form at one tile width:
/// everything [`workspace_floats`] needs, and nothing that allocates.
#[derive(Clone, Copy)]
struct Layout {
    operand: BOperand,
    /// Register tile width, [`NR`] or [`NR_W`].
    nr: usize,
    bl: Blocking,
    /// GEMM width per image: `Ho·Wo` gathered columns, or the flat padded
    /// positions `(Ho - 1)·Wp + Wo` under [`BOperand::Windows`].
    width: usize,
    /// Row pitch of the gathered block (`0` under windows).
    bwidth: usize,
    /// Floats of pool scratch [`conv_image`] draws per image in flight:
    /// the padded image plus one tile of zero slack (so the last tile's
    /// whole-tile loads stay inside it); or, reading `pad = 0` input in
    /// place, only the one-tile bounce buffer; or one gathered `KC x NC`
    /// block (a cache line over, to align it).
    scratch: usize,
}

impl Layout {
    fn new(co: usize, lw: &Lowering, operand: BOperand, nr: usize) -> Layout {
        let cols = lw.ho * lw.wo;
        let windows = operand == BOperand::Windows;
        // The conv blocking rounds the macro-panel step to the tile width
        // so every tile is whole; its `(mc, kc)` matches
        // [`filter_blocking`] by construction, whatever the width.
        let width = if windows { lw.flat(lw.ho) } else { cols };
        let bl = Blocking::for_conv(co, width, lw.k(), nr);
        let bwidth = if windows {
            0
        } else {
            bl.nc.min(round_up(cols, nr))
        };
        let scratch = match operand {
            BOperand::Windows if lw.g.pad == 0 => bl.kc * nr,
            BOperand::Windows => lw.padded_len() + nr,
            BOperand::Rows => bwidth * bl.kc + 16,
        };
        Layout {
            operand,
            nr,
            bl,
            width,
            bwidth,
            scratch,
        }
    }
}

/// Pool scratch, in floats, one in-flight image of a direct-tier forward
/// draws — what [`Conv2dOp::workspace_bytes`](super::Conv2dOp) reports,
/// and (being the [`Layout`] the kernel sizes its slab with) what the
/// kernel acquires.
pub(super) fn workspace_floats(co: usize, lw: &Lowering) -> usize {
    Layout::new(co, lw, BOperand::for_geometry(lw.g), host_nr()).scratch
}

/// Everything about one forward call that does not depend on the image:
/// the [`Layout`] and the `B` offset tables.
struct Plan<'a> {
    pf: &'a [f32],
    co: usize,
    lw: Lowering,
    epilogue: Epilogue<'a>,
    layout: Layout,
    /// Where reduction row `p` starts in `B`: the `K` window offsets, or
    /// `p·bwidth` for the `kc` rows of a gathered block.
    offs: Vec<usize>,
    /// `p·nr`: the rows of the one-tile bounce buffer an image read in
    /// place finishes through (empty otherwise).
    tile_offs: Vec<usize>,
}

impl<'a> Plan<'a> {
    fn new(
        pf: &'a [f32],
        co: usize,
        lw: Lowering,
        operand: BOperand,
        nr: usize,
        epilogue: Epilogue<'a>,
    ) -> Plan<'a> {
        let layout = Layout::new(co, &lw, operand, nr);
        let rows = |pitch: usize| (0..layout.bl.kc).map(|p| p * pitch).collect::<Vec<_>>();
        let (offs, tile_offs) = match operand {
            BOperand::Windows if lw.g.pad == 0 => (lw.window_offsets(), rows(nr)),
            BOperand::Windows => (lw.window_offsets(), Vec::new()),
            BOperand::Rows => (rows(layout.bwidth), Vec::new()),
        };
        Plan {
            pf,
            co,
            lw,
            epilogue,
            layout,
            offs,
            tile_offs,
        }
    }
}

/// Direct convolution of one image. `x` starts at the image and may run on
/// to the end of the batch (a window read in place over-reads its last
/// tile into whatever follows); `optr` is the `[Co x Ho·Wo]` output slab,
/// zeroed on entry per the packed GEMM's zeroed-C contract. The epilogue
/// fires once per element on the final `KC` block.
fn conv_image(pl: &Plan<'_>, x: &[f32], optr: &mut [f32]) {
    let Layout {
        operand,
        nr,
        bl,
        width,
        bwidth,
        scratch,
    } = pl.layout;
    let (lw, co, k) = (&pl.lw, pl.co, pl.lw.k());
    let xi = &x[..lw.c * lw.h * lw.wd];
    let cols = lw.ho * lw.wo;
    let rows_pad = round_up(co, MR);
    // Dirty scratch: every float read downstream is written first (the
    // padded copy and the gathers write whole blocks, borders and tile
    // padding included), so acquire-time zeroing would be wasted traffic.
    let mut slab = scratch_dirty(scratch);
    // Windows: `b` is the padded copy with its slack, or the input itself;
    // in the second case the slab is the bounce tile.
    let in_place = operand == BOperand::Windows && lw.g.pad == 0;
    let (window_b, work): (&[f32], &mut [f32]) = match operand {
        BOperand::Windows if !in_place => {
            let (img, rest) = slab.split_at_mut(lw.padded_len() + nr);
            pad_image(xi, lw, &mut img[..lw.padded_len()]);
            img[lw.padded_len()..].fill(0.0);
            (img, rest)
        }
        BOperand::Windows => (x, &mut slab),
        // The gathered block is offset to a 64-byte boundary: `bwidth` and
        // the tile offsets are multiples of the tile width, so with an
        // aligned base no kernel B load is split across two cache lines.
        BOperand::Rows => {
            let boff = (slab.as_ptr() as usize).wrapping_neg() % 64 / 4;
            (&[], &mut slab[boff..])
        }
    };
    let (bpack, row_buf) = work.split_at_mut(bwidth * bl.kc);
    // No seam when the filter is one column wide and unpadded: every flat
    // position is an output, and tiles store as single runs.
    let seam = if lw.wp() == lw.wo {
        Seam::NONE
    } else {
        Seam {
            period: lw.wp(),
            keep: lw.wo,
        }
    };
    for jc in (0..width).step_by(bl.nc) {
        let nc_b = bl.nc.min(width - jc);
        for pc in (0..k).step_by(bl.kc) {
            let kc_b = bl.kc.min(k - pc);
            let first = pc == 0;
            let last = pc + kc_b == k;
            // Columns of this block the driver reads straight off
            // `window_b`; the rest (`tail`, less than a tile) go through
            // the bounce.
            let mut body = nc_b;
            match operand {
                BOperand::Windows => {
                    // Window offsets ascend, so the block's last is its
                    // largest. Whole tiles always fit (`offs[K - 1] +
                    // width` is the image length exactly); only the last,
                    // partial tile of an image with nothing behind it can
                    // reach past the end, and then it is gathered instead.
                    let reach = jc + pl.offs[pc + kc_b - 1] + round_up(nc_b, nr);
                    if reach > window_b.len() {
                        body = nc_b / nr * nr;
                        let tail = nc_b - body;
                        for (p, row) in row_buf.chunks_exact_mut(nr).take(kc_b).enumerate() {
                            let at = pl.offs[pc + p] + jc + body;
                            row[..tail].copy_from_slice(&window_b[at..at + tail]);
                            row[tail..].fill(0.0);
                        }
                    }
                }
                BOperand::Rows => {
                    // Row-major B: each reduction row once, straight into
                    // the slot the kernel reads at pitch `bwidth`. Columns
                    // `nc_b..` of the last partial tile are zero-filled so
                    // its whole-tile loads are inert.
                    im2col_block(xi, lw, pc..pc + kc_b, jc..jc + nc_b, bpack, bwidth, 0);
                    for row in bpack.chunks_exact_mut(bwidth).take(kc_b) {
                        row[nc_b..round_up(nc_b, nr)].fill(0.0);
                    }
                }
            }
            for ic in (0..co).step_by(bl.mc) {
                let mc_b = bl.mc.min(co - ic);
                // Safety audit: these calls are safe fns, but at the wide
                // tile they feed the `unsafe` AVX-512 microkernel in
                // `gemm::packed`, whose SAFETY comment assumes whole
                // `MR`-padded A slivers and `nr` readable B lanes per
                // reduction row. The A slice is `round_up(mc_b, MR)·kc_b`
                // by construction here; the B side is padded above and
                // `run_panel` asserts the wide tile's reach against the
                // slice it is given. The CI miri job interprets the
                // `conv::direct` tests to check the arithmetic end to end.
                let apack = &pl.pf[rows_pad * pc + ic * kc_b..][..round_up(mc_b, MR) * kc_b];
                let cpanel = &mut optr[ic * cols..(ic + mc_b) * cols];
                let mut panel = |b: &[f32], offs: &[usize], seam: Seam, j0: usize, nc: usize| {
                    run_panel::<MR>(
                        nr,
                        apack,
                        b,
                        offs,
                        cpanel,
                        cols,
                        seam,
                        ic,
                        j0,
                        mc_b,
                        nc,
                        pl.epilogue,
                        first,
                        last,
                    )
                };
                match operand {
                    BOperand::Windows => {
                        if body > 0 {
                            panel(&window_b[jc..], &pl.offs[pc..pc + kc_b], seam, jc, body);
                        }
                        if body < nc_b {
                            panel(row_buf, &pl.tile_offs[..kc_b], seam, jc + body, nc_b - body);
                        }
                    }
                    BOperand::Rows => panel(bpack, &pl.offs[..kc_b], Seam::NONE, jc, nc_b),
                }
            }
        }
    }
    recycle_scratch(slab);
}

/// Direct-tier forward pass over a batch: `pf` is the packed filter data
/// for a `[co, c, kh, kw]` filter (see [`pack_filter`] /
/// [`packed_filter_len`]), `relu` folds `max(x, 0)` into the write-back.
/// Images go through [`par`](crate::par) with the batch's multiply-adds as
/// their work; a single image (the closed-loop serving case) runs on the
/// caller with zero dispatch cost.
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
    let operand = BOperand::for_geometry(g);
    forward_direct_packed_as(x, pf, co, kh, kw, b, g, relu, operand, host_nr())
}

/// [`forward_direct_packed`] with the `B` operand form and the register
/// tile width (`gemm::packed::NR` or `NR_W`) given instead of chosen: how
/// the tests hold windows to the bits of the gathered rows, and one width
/// to the other, on any host (every form runs at every width — the driver
/// falls back to its portable kernel), and nothing an operator calls.
///
/// # Errors
///
/// [`BOperand::Windows`] at a stride other than 1, where there are none,
/// and a width that is neither tile's.
#[doc(hidden)]
#[allow(clippy::too_many_arguments)] // entry-point plumbing: all scalars
pub fn forward_direct_packed_as(
    x: &Tensor,
    pf: &[f32],
    co: usize,
    kh: usize,
    kw: usize,
    b: &Tensor,
    g: ConvGeometry,
    relu: bool,
    operand: BOperand,
    nr: usize,
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
    if operand == BOperand::Windows && g.stride != 1 {
        return Err(Error::Invalid(format!(
            "window lowering needs stride 1, got {}",
            g.stride
        )));
    }
    if nr != NR && nr != NR_W {
        return Err(Error::Invalid(format!("no {nr}-column register tile")));
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
    let plan = Plan::new(pf, co, lw, operand, nr, epilogue);
    let work = n * co * cols * k;
    crate::par::for_each_chunk(out.data_mut(), co * cols, work, |img, optr| {
        conv_image(&plan, &xd[img * c * h * wd..], optr)
    });
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::packed::properties::tiles_round_alike;
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
        // The one lowering gather, over blocks that start and stop in the
        // middle of output rows (as the direct tier's `NC` blocks do) and
        // cover a sub-range of the reduction.
        let mut rng = Xoshiro256StarStar::seed_from_u64(3);
        let (c, h, wd) = (2usize, 7usize, 9usize);
        let x = Tensor::rand_uniform([c, h, wd], -1.0, 1.0, &mut rng);
        for (stride, pad, kh, kw) in [
            (1, 0, 3, 3),
            (1, 2, 3, 3),
            (2, 1, 5, 5),
            (2, 3, 7, 2),
            (3, 0, 1, 1),
        ] {
            let g = ConvGeometry { stride, pad };
            let (Ok(ho), Ok(wo)) = (g.out_extent(h, kh), g.out_extent(wd, kw)) else {
                continue;
            };
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
            let (k, cols) = (lw.k(), ho * wo);
            for (taps, block) in [
                (0..k, 0..cols),
                (1..k, 1..cols),
                (k / 2..k, cols / 3..cols - cols / 4),
                (0..1, cols - 1..cols),
            ] {
                let (ld, col0) = (block.len() + 3, 2);
                let mut got = vec![f32::NAN; taps.len() * ld];
                im2col_block(
                    x.data(),
                    &lw,
                    taps.clone(),
                    block.clone(),
                    &mut got,
                    ld,
                    col0,
                );
                for r in taps.clone() {
                    let (ic, fh, fw) = tap(r, kh, kw);
                    for j in block.clone() {
                        let ih = (j / wo * stride + fh) as isize - pad as isize;
                        let iw = (j % wo * stride + fw) as isize - pad as isize;
                        let inside = ih >= 0 && iw >= 0 && (ih as usize) < h && (iw as usize) < wd;
                        let want = if inside {
                            x.data()[(ic * h + ih as usize) * wd + iw as usize]
                        } else {
                            0.0
                        };
                        assert_eq!(
                            got[(r - taps.start) * ld + col0 + j - block.start],
                            want,
                            "s{stride} p{pad} {kh}x{kw} tap {r} col {j} of {block:?}"
                        );
                    }
                }
            }
        }
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn every_b_operand_form_computes_the_same_convolution() {
        // Forced forms and widths, so this runs the window and gathered-row
        // paths — offset tables, seams, the in-place bounce tile — at both
        // tiles on any host and under miri (through the portable kernel
        // there). Shapes:
        // LeNet conv1 in small (one seamed tile and a bit), a 1x1 and a
        // 2x3 read in place whose last tile is partial, a wide padding,
        // and a reduction of three KC blocks.
        let mut rng = Xoshiro256StarStar::seed_from_u64(23);
        for (n, c, h, wd, co, kh, kw, pad) in [
            (
                2usize, 3usize, 6usize, 7usize, 6usize, 5usize, 5usize, 2usize,
            ),
            (1, 4, 5, 9, 9, 1, 1, 0),
            (3, 2, 6, 8, 3, 2, 3, 0),
            (1, 1, 3, 4, 2, 3, 2, 3),
            (1, 130, 3, 5, 2, 3, 3, 1),
        ] {
            let g = ConvGeometry { stride: 1, pad };
            let x = Tensor::rand_uniform([n, c, h, wd], -1.0, 1.0, &mut rng);
            let w = Tensor::rand_uniform([co, c, kh, kw], -0.5, 0.5, &mut rng);
            let b = Tensor::rand_uniform([co], -0.1, 0.1, &mut rng);
            let pf = pack_filter(w.data(), co, c * kh * kw);
            let run = |operand, nr| {
                forward_direct_packed_as(&x, &pf.data, co, kh, kw, &b, g, true, operand, nr)
                    .unwrap()
            };
            let what = format!("n{n} c{c} {h}x{wd} co{co} {kh}x{kw} p{pad}");
            let mut want = super::super::forward_reference(&x, &w, &b, g).unwrap();
            want.data_mut().iter_mut().for_each(|v| *v = v.max(0.0));
            let [narrow, wide] = [NR, NR_W].map(|nr| {
                let (windows, rows) = (run(BOperand::Windows, nr), run(BOperand::Rows, nr));
                assert_eq!(
                    bits(&windows),
                    bits(&rows),
                    "{what} nr {nr}: windows vs rows"
                );
                assert!(
                    windows.approx_eq(&want, 1e-4),
                    "{what} nr {nr}: vs reference"
                );
                windows
            });
            // The two widths run the same per-element sequence wherever
            // their kernels round alike (both fused, or both portable).
            if tiles_round_alike() {
                assert_eq!(bits(&narrow), bits(&wide), "{what}: narrow vs wide");
            }
        }
        // Windows exist at stride 1 only.
        let x = Tensor::zeros([1, 1, 4, 4]);
        let pf = pack_filter(&[1.0], 1, 1);
        let g = ConvGeometry { stride: 2, pad: 0 };
        let b = Tensor::zeros([1]);
        assert!(forward_direct_packed_as(
            &x,
            &pf.data,
            1,
            1,
            1,
            &b,
            g,
            false,
            BOperand::Windows,
            NR
        )
        .is_err());
    }

    #[test]
    fn stale_scratch_never_reaches_a_window_output() {
        // The padded copy and the bounce tile are drawn dirty: poison the
        // size classes both forms of window scratch fall in.
        for len in [64usize, 256, 1024] {
            for _ in 0..4 {
                let mut buf = scratch_dirty(len);
                buf.fill(f32::NAN);
                recycle_scratch(buf);
            }
        }
        let mut rng = Xoshiro256StarStar::seed_from_u64(29);
        for (pad, nr) in [(0usize, NR), (0, NR_W), (2, NR), (2, NR_W)] {
            let g = ConvGeometry { stride: 1, pad };
            let x = Tensor::rand_uniform([1, 2, 7, 6], -1.0, 1.0, &mut rng);
            let w = Tensor::rand_uniform([3, 2, 3, 3], -0.5, 0.5, &mut rng);
            let b = Tensor::zeros([3]);
            let pf = pack_filter(w.data(), 3, 18);
            let windows = BOperand::Windows;
            let y =
                forward_direct_packed_as(&x, &pf.data, 3, 3, 3, &b, g, false, windows, nr).unwrap();
            let want = super::super::forward_reference(&x, &w, &b, g).unwrap();
            assert!(y.approx_eq(&want, 1e-4), "pad {pad} nr {nr}");
        }
    }
}
