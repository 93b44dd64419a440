//! `Conv2d` backward: the cache-blocked lowering to GEMM, the stride-1
//! window reduction that replaces its `dW` half on narrow layers, and the
//! scalar seven-loop oracle both are tested against.
//!
//! With `K = C·kh·kw` and a block of `B` output positions (whole images,
//! or a band of output rows when one image's column matrix is too big),
//! the three gradients are
//!
//! ```text
//! dW  [Co x K]  += dY [Co x B] · colᵀ,  col [K x B] = im2col(X block)
//! dcol [K x B]   = Wᵀ [K x Co] · dY [Co x B]        (packed GEMM, A absorbed transposed)
//! dX            += col2im(dcol)                     (row add)
//! db  [Co]      += row sums of dY
//! ```
//!
//! `dX` never reads `col`, and for stride 1 `dW` does not need it built
//! either: row `r` of `col` is the window of the zero-padded image that
//! starts at tap `r`'s offset ([`Lowering::window_offsets`]), indexed by
//! flat padded position `j = oh·Wp + ow`. So `dY` is scattered to the same
//! flat positions (exact zeros at the seams between output rows) and
//!
//! ```text
//! dW[oc][r] += Σ_img Σ_j dYflat[img][oc][j] · Xpad[img][offs[r] + j]
//! ```
//!
//! is a dot product of two contiguous runs per image
//! ([`window_dw_block`]) — no `K x B` matrix, no GEMM whose `M` is a
//! six-channel `Co`. [`dw_reads_windows`] is the one rule for which layers
//! take it; every other `dW` (any other stride, wide layers) is the packed
//! GEMM with `B` absorbed transposed, over a `col` built by the shared row
//! copy (`im2col_block`).
//!
//! Every product participates — there is no skip on zero gradient
//! elements, so the cost does not depend on gradient density and `0 · NaN`
//! propagates exactly as in the GEMM backward
//! ([`matmul_at_b_with`](crate::gemm::matmul_at_b_with)): a non-finite
//! `dY` element reaches every tap of its channel's `dW` and, through `Wᵀ`,
//! `dX`; a non-finite weight reaches `dX` under an all-zero `dY`. The
//! window reduction adds one case of its own. It multiplies the seam
//! zeros of `dYflat` (and the up-to-fifteen zeros that round a run up to
//! whole vectors) by whatever pixel the window holds there — the start of
//! the next row, or of the next image of the block — so a non-finite
//! *input* pixel turns `dW` NaN not only at the taps that read it for some
//! output, as in the lowering and the oracle, but also at taps that only
//! meet it across a row seam. Finite inputs are unaffected: those products
//! are exact zeros.
//!
//! **Determinism contract.** The images are cut into contiguous *lanes*
//! and each lane into column blocks by [`Blocking::for_shape`], a pure
//! function of the shape. A lane walks its blocks in ascending order,
//! accumulating `dW`/`db` into its own partial — through the GEMM, or
//! through 16-lane accumulators carried across a block's images and
//! folded once per block in a fixed tree ([`fold`]); the partials are then
//! added in lane-index order. `dX` images belong to exactly one lane.
//! Lanes may run on pool workers or serially ([`crate::par`] decides) —
//! the float sequence per output element is the same, so the result is
//! bitwise independent of the thread count.

use super::{direct, fetch, im2col_block, pad_image, ConvGeometry, Lowering};
use crate::gemm::packed::gemm_packed_into;
use deep500_tensor::{
    recycle_scratch, scratch_dirty, scratch_zeroed, Error, Result, Shape, Tensor,
};

/// Budget for one lane's column block (`K x B` floats): sized to stay
/// L2-resident next to the packed GEMM panels.
const COL_BLOCK_BYTES: usize = 512 * 1024;

/// Upper bound on lanes (and so on `dW` partials and concurrent column
/// blocks). Batches of at least this many images always split this wide.
const MAX_LANES: usize = 8;

/// How a backward pass over `n` images is cut up — a pure function of the
/// shape (never of the thread count), which is what makes the reduction
/// order reproducible.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Blocking {
    /// Contiguous image ranges, each with its own `dW`/`db` partial.
    lanes: usize,
    /// Whole images per column block.
    imgs: usize,
    /// Output rows per column block (`ho` unless a single image's column
    /// matrix exceeds the budget, in which case `imgs == 1`).
    rows: usize,
}

impl Blocking {
    fn for_shape(n: usize, k: usize, ho: usize, wo: usize) -> Blocking {
        let lanes = n.min(MAX_LANES);
        let per_lane = n.div_ceil(lanes.max(1));
        let budget = COL_BLOCK_BYTES / std::mem::size_of::<f32>();
        let image = (k * ho * wo).max(1);
        // Even out the blocks: as few as the budget allows, equally sized.
        let even = |total: usize, fit: usize| total.div_ceil(total.div_ceil(fit).max(1));
        let (imgs, rows) = if image <= budget {
            (
                even(per_lane, (budget / image).clamp(1, per_lane.max(1))),
                ho,
            )
        } else {
            (1, even(ho, (budget / (k * wo).max(1)).clamp(1, ho)))
        };
        Blocking {
            lanes,
            imgs: imgs.max(1),
            rows: rows.max(1),
        }
    }

    /// Images `start..end` of lane `lane` out of `n`: as even as possible,
    /// the earlier lanes taking the remainder.
    fn lane_images(&self, n: usize, lane: usize) -> (usize, usize) {
        let (base, extra) = (n / self.lanes, n % self.lanes);
        let start = lane * base + lane.min(extra);
        (start, start + base + usize::from(lane < extra))
    }
}

/// Sum of a row in a fixed order: eight interleaved partial sums (so the
/// loop vectorizes), folded pairwise, then the tail.
fn row_sum(row: &[f32]) -> f32 {
    let mut acc = [0.0f32; 8];
    let chunks = row.chunks_exact(8);
    let tail = chunks.remainder();
    for chunk in chunks {
        for (a, &v) in acc.iter_mut().zip(chunk) {
            *a += v;
        }
    }
    let mut sum = ((acc[0] + acc[4]) + (acc[1] + acc[5])) + ((acc[2] + acc[6]) + (acc[3] + acc[7]));
    for &v in tail {
        sum += v;
    }
    sum
}

/// Adjoint of [`im2col_rows`]: add columns `col0..` of the `[K, ld]`
/// matrix `dcol` (output rows `oh0..oh1` of one image) into that image's
/// input gradient `dxi`, one (strided) row add per reduction row and
/// output row. Columns the lowering filled from the zero padding are
/// dropped.
fn col2im_rows(
    dcol: &[f32],
    ld: usize,
    col0: usize,
    lw: &Lowering,
    oh0: usize,
    oh1: usize,
    dxi: &mut [f32],
) {
    let seg = (oh1 - oh0) * lw.wo;
    let plane = lw.h * lw.wd;
    for r in 0..lw.k() {
        let (ic, fh, fw) = direct::tap(r, lw.kh, lw.kw);
        let (lo, hi, iw0) = lw.tap_span(fw);
        if lo == hi {
            continue;
        }
        let dxc = &mut dxi[ic * plane..(ic + 1) * plane];
        let rows = dcol[r * ld + col0..r * ld + col0 + seg].chunks_exact(lw.wo);
        for (oh, src) in (oh0..oh1).zip(rows) {
            let Some(ih) = lw.tap_row(oh, fh) else {
                continue;
            };
            let dst = &mut dxc[ih * lw.wd + iw0..(ih + 1) * lw.wd];
            if lw.g.stride == 1 {
                for (d, &v) in dst.iter_mut().zip(&src[lo..hi]) {
                    *d += v;
                }
            } else {
                for (d, &v) in dst.iter_mut().step_by(lw.g.stride).zip(&src[lo..hi]) {
                    *d += v;
                }
            }
        }
    }
}

/// Lanes of one `dW` accumulator: a 512-bit vector of consecutive flat
/// positions. The portable reduction keeps the same 16 partial sums in an
/// array, so both fold the same tree.
const LANES: usize = 16;
/// The `dW` register tile: `COB` output channels x `TPB` filter taps of
/// 16-lane accumulators (24 of the 32 zmm registers, plus the tile's six
/// input windows and one gradient vector).
const COB: usize = 4;
const TPB: usize = 6;

/// Whether `dW` reduces along windows of the padded image
/// ([`window_dw_block`]) instead of through the column matrix and the
/// packed GEMM. Windows need stride 1; and they only pay while the GEMM is
/// starved for rows — its `M` is `Co`. `BENCH_conv.json` backward rows,
/// `dw_ms`, against the GEMM `dW` measured beside them (EXPERIMENTS E27):
/// `lenet_conv1` (`Co` 6, a six-row panel at 19.6 GFLOP/s after a `K x B`
/// lowering used once) 0.66 → 0.16 ms; `lenet_conv2` (16) 0.20 → 0.15;
/// `body3x3_56_b8` (32) 8.2 → 4.5. At `Co` 64 (`resnet3x3_56`) the GEMM
/// runs at 80 GFLOP/s, building `col` is under 1 % of its time and the
/// two are level (24.5 vs 23.2 ms); at 128 (`resnet3x3_28`, runs too short
/// to amortise a tile's fold) windows are 1.3x *slower* (25.3 vs 32.5).
/// So layers from 64 channels up stay on the GEMM.
fn dw_reads_windows(lw: &Lowering, co: usize) -> bool {
    lw.g.stride == 1 && co < 64
}

/// The sixteen partial sums of one accumulator, added in a fixed tree:
/// halves, quarters, pairs, then the last two.
fn fold(mut acc: [f32; LANES]) -> f32 {
    for half in [8, 4, 2, 1] {
        for l in 0..half {
            acc[l] += acc[l + half];
        }
    }
    acc[0]
}

/// Portable `dW` tile: `acc[i][t][l] = Σ_img Σ_s dy[img·dy_img + rows[i] +
/// s + l] · x[img·x_img + offs[t] + s + l]` over `s = 0, 16, .. < fl`,
/// each lane's sum ascending in `(img, s)` — the loop the AVX-512 tile
/// runs, on arrays. What miri and hosts without AVX-512 execute.
#[allow(clippy::too_many_arguments)] // kernel plumbing: slices and scalars
fn dw_tile_portable<const CO: usize>(
    dy: &[f32],
    dy_img: usize,
    rows: [usize; CO],
    x: &[f32],
    x_img: usize,
    offs: [usize; TPB],
    imgs: usize,
    fl: usize,
) -> [[[f32; LANES]; TPB]; CO] {
    let mut acc = [[[0.0f32; LANES]; TPB]; CO];
    for img in 0..imgs {
        let (dyi, xi) = (&dy[img * dy_img..], &x[img * x_img..]);
        for s in (0..fl).step_by(LANES) {
            for (i, row) in rows.into_iter().enumerate() {
                let d = &dyi[row + s..row + s + LANES];
                for (t, off) in offs.into_iter().enumerate() {
                    let xv = &xi[off + s..off + s + LANES];
                    for l in 0..LANES {
                        acc[i][t][l] += d[l] * xv[l];
                    }
                }
            }
        }
    }
    acc
}

/// AVX-512 `dW` tile: [`dw_tile_portable`] with each 16-lane accumulator
/// in a zmm register and the multiply-add fused. The tile's `TPB` input
/// windows are loaded once per step and shared by its `CO` gradient rows,
/// so a step is `CO + TPB` loads for `CO·TPB` FMAs. Kept because the
/// compiler does not keep that tile in registers: [`dw_tile_portable`]
/// with fused multiply-adds read 29.7 GFLOP/s compiled for `avx512f` and
/// 12.9 for `avx2,fma`, against this kernel's 88.6 (EXPERIMENTS E46).
///
/// # Safety
///
/// * The caller must have proven, at runtime, that the executing CPU
///   supports AVX-512F. [`dw_tile`] is the only caller and establishes
///   this with `is_x86_feature_detected!`.
/// * `fl` is a multiple of [`LANES`], and for every image `img < imgs` the
///   reads stay inside the slices: `img·dy_img + max(rows) + fl <=
///   dy.len()` and `img·x_img + max(offs) + fl <= x.len()`.
#[cfg(all(target_arch = "x86_64", not(miri)))]
#[target_feature(enable = "avx512f")]
#[allow(clippy::too_many_arguments)] // kernel plumbing: slices and scalars
unsafe fn dw_tile_avx512<const CO: usize>(
    dy: &[f32],
    dy_img: usize,
    rows: [usize; CO],
    x: &[f32],
    x_img: usize,
    offs: [usize; TPB],
    imgs: usize,
    fl: usize,
) -> [[[f32; LANES]; TPB]; CO] {
    use core::arch::x86_64::*;
    let mut out = [[[0.0f32; LANES]; TPB]; CO];
    // SAFETY: every load reads 16 floats at `img·dy_img + rows[i] + s` or
    // `img·x_img + offs[t] + s` with `s + 16 <= fl` (`fl` a multiple of
    // 16), which the caller guarantees is inside `dy` / `x` for every
    // `img < imgs`; `loadu`/`storeu` tolerate any alignment and each
    // `out[i][t]` is exactly 16 floats. The intrinsics are safe to execute
    // per this fn's `#[target_feature]` contract, upheld by the caller.
    unsafe {
        let mut acc = [[_mm512_setzero_ps(); TPB]; CO];
        for img in 0..imgs {
            let (dyi, xi) = (dy.as_ptr().add(img * dy_img), x.as_ptr().add(img * x_img));
            for s in (0..fl).step_by(LANES) {
                let xv = offs.map(|off| _mm512_loadu_ps(xi.add(off + s)));
                for (row, arow) in rows.into_iter().zip(acc.iter_mut()) {
                    let d = _mm512_loadu_ps(dyi.add(row + s));
                    for (a, v) in arow.iter_mut().zip(xv) {
                        *a = _mm512_fmadd_ps(d, v, *a);
                    }
                }
            }
        }
        for (orow, arow) in out.iter_mut().zip(acc) {
            for (o, a) in orow.iter_mut().zip(arow) {
                _mm512_storeu_ps(o.as_mut_ptr(), a);
            }
        }
    }
    out
}

/// One `CO x TPB` tile of `dW`, folded: the reduction of
/// [`dw_tile_portable`] over channels `oc0..oc0 + CO` on the best kernel
/// the host has. Rows `CO..` of the result stay zero.
#[allow(clippy::too_many_arguments)] // kernel plumbing: slices and scalars
fn dw_tile<const CO: usize>(
    dy: &[f32],
    dy_img: usize,
    oc0: usize,
    x: &[f32],
    x_img: usize,
    offs: [usize; TPB],
    imgs: usize,
    fl: usize,
) -> [[f32; TPB]; COB] {
    let rows: [usize; CO] = std::array::from_fn(|i| (oc0 + i) * fl);
    let top = offs.into_iter().max().unwrap_or(0);
    // What both kernels read; the AVX-512 one relies on it.
    assert!(fl.is_multiple_of(LANES) && imgs > 0);
    assert!((imgs - 1) * dy_img + rows[CO - 1] + fl <= dy.len());
    assert!((imgs - 1) * x_img + top + fl <= x.len());
    let tile = 'tile: {
        #[cfg(all(target_arch = "x86_64", not(miri)))]
        if std::arch::is_x86_feature_detected!("avx512f") {
            // SAFETY: avx512f was detected on this very path, and the
            // three assertions above are the kernel's bounds contract
            // (`rows` ascends, so its last entry is its largest).
            break 'tile unsafe { dw_tile_avx512(dy, dy_img, rows, x, x_img, offs, imgs, fl) };
        }
        dw_tile_portable(dy, dy_img, rows, x, x_img, offs, imgs, fl)
    };
    let mut sums = [[0.0f32; TPB]; COB];
    for (srow, trow) in sums.iter_mut().zip(tile) {
        *srow = trow.map(fold);
    }
    sums
}

/// `dW += dY ⋆ X` for one block of images and one band of output rows,
/// along the windows of the padded images — no column matrix.
///
/// `xp` holds the block's `imgs` zero-padded images back to back (`x_img`
/// floats each, one vector of zero slack after the last), `dyf` their `dY`
/// rows `oh0..` scattered to the same flat padded positions (`[imgs][Co]
/// [fl]`, exact zeros at the seams and past the band). Then
/// `dW[oc][tap] = Σ_img Σ_j dyf[img][oc][j] · xp[img][base + offs[tap] +
/// j]`: a dot product of two contiguous runs per image. It is register
/// blocked [`COB`] channels x [`TPB`] taps, each pair a 16-lane
/// accumulator carried across the block's images and folded once, in a
/// fixed tree — so the float sequence depends on the shape alone. A tile
/// short of taps repeats its last live one and drops the repeats.
///
/// Over-read: a tile reads `fl` (`<= flat + 15`) positions past `base +
/// offs[tap]`, and `base + offs[K - 1] + flat` is at most the image length
/// — so at most one vector into the next image or the slack, where `dyf`
/// is zero.
#[allow(clippy::too_many_arguments)] // block plumbing: slices and scalars
fn window_dw_block(
    dyf: &[f32],
    fl: usize,
    xp: &[f32],
    x_img: usize,
    imgs: usize,
    offs: &[usize],
    base: usize,
    co: usize,
    dw: &mut [f32],
) {
    let k = offs.len();
    for oc0 in (0..co).step_by(COB) {
        for t0 in (0..k).step_by(TPB) {
            let taps = TPB.min(k - t0);
            let to: [usize; TPB] = std::array::from_fn(|t| base + offs[t0 + t.min(taps - 1)]);
            macro_rules! tile {
                ($n:literal) => {
                    dw_tile::<$n>(dyf, co * fl, oc0, xp, x_img, to, imgs, fl)
                };
            }
            let sums = match co - oc0 {
                1 => tile!(1),
                2 => tile!(2),
                3 => tile!(3),
                _ => tile!(4),
            };
            for (i, srow) in sums.iter().enumerate().take(co - oc0) {
                let dwrow = &mut dw[(oc0 + i) * k + t0..][..taps];
                for (acc, &sum) in dwrow.iter_mut().zip(srow) {
                    *acc += sum;
                }
            }
        }
    }
}

/// Scatter output rows `oh0..oh1` of `imgs` images' `dY` (from image `i0`)
/// to flat padded positions: row `oh` of channel `oc` lands at
/// `dyf[(il·Co + oc)·fl + (oh - oh0)·Wp..]`, and every other float of the
/// `fl`-long run — the seams between rows, the tail past the band — is
/// written as an exact zero, so `dyf` may be dirty scratch.
#[allow(clippy::too_many_arguments)] // block plumbing: slices and scalars
fn scatter_dy(
    dyd: &[f32],
    lw: &Lowering,
    co: usize,
    i0: usize,
    imgs: usize,
    oh0: usize,
    oh1: usize,
    dyf: &mut [f32],
    fl: usize,
) {
    let (wo, wp, p) = (lw.wo, lw.wp(), lw.ho * lw.wo);
    let runs = dyf[..imgs * co * fl].chunks_exact_mut(fl);
    for (ch, run) in runs.enumerate() {
        let src = &dyd[(i0 * co + ch) * p + oh0 * wo..(i0 * co + ch) * p + oh1 * wo];
        let mut at = 0;
        for row in src.chunks_exact(wo) {
            run[at..at + wo].copy_from_slice(row);
            let seam = (at + wp).min(fl);
            run[at + wo..seam].fill(0.0);
            at = seam;
        }
        run[at..].fill(0.0);
    }
}

/// One lane: images `img0..img0 + imgs` in ascending column blocks,
/// accumulating into `dw` (`[Co x K]`) and `db` (`[Co]`), both zero on
/// entry, and writing those images' `dX` into `dxl` when requested.
#[allow(clippy::too_many_arguments)] // lane plumbing: slices and scalars
fn lane_backward(
    dyd: &[f32],
    xd: &[f32],
    wdat: &[f32],
    lw: &Lowering,
    co: usize,
    bl: Blocking,
    img0: usize,
    imgs: usize,
    mut dxl: Option<&mut [f32]>,
    dw: &mut [f32],
    db: &mut [f32],
) {
    let (k, p, chw) = (lw.k(), lw.ho * lw.wo, lw.c * lw.h * lw.wd);
    let block_cols = bl.imgs * bl.rows * lw.wo;
    let windows = dw_reads_windows(lw, co);
    // Dirty scratch throughout: im2col_block writes every column it
    // lowers (and the dX GEMM's target is cleared first), the dY block is
    // copied whole before use, and the window form writes every float of
    // its padded images, their slack and the scattered dY.
    let scratch = |needed: bool, len: usize| {
        if needed {
            scratch_dirty(len)
        } else {
            Vec::new()
        }
    };
    let mut col = scratch(!windows || dxl.is_some(), k * block_cols);
    let mut dyb = scratch_dirty(co * block_cols);
    let (x_img, fl_max) = (lw.padded_len(), lw.flat(bl.rows).next_multiple_of(LANES));
    let offs = if windows {
        lw.window_offsets()
    } else {
        Vec::new()
    };
    let mut xp = scratch(windows, bl.imgs * x_img + LANES);
    let mut dyf = scratch(windows, bl.imgs * co * fl_max);
    for i0 in (img0..img0 + imgs).step_by(bl.imgs) {
        let ni = bl.imgs.min(img0 + imgs - i0);
        if windows {
            for (il, dst) in xp.chunks_exact_mut(x_img).take(ni).enumerate() {
                pad_image(&xd[(i0 + il) * chw..(i0 + il + 1) * chw], lw, dst);
            }
            xp[ni * x_img..ni * x_img + LANES].fill(0.0);
        }
        for oh0 in (0..lw.ho).step_by(bl.rows) {
            let oh1 = (oh0 + bl.rows).min(lw.ho);
            let seg = (oh1 - oh0) * lw.wo;
            let cols = ni * seg;
            // dY as one [Co x cols] matrix: a whole single image already
            // is one; anything else is gathered channel by channel.
            let dyblk: &[f32] = if ni == 1 && seg == p {
                &dyd[i0 * co * p..(i0 + 1) * co * p]
            } else {
                for oc in 0..co {
                    for il in 0..ni {
                        let src = ((i0 + il) * co + oc) * p + oh0 * lw.wo;
                        dyb[oc * cols + il * seg..oc * cols + (il + 1) * seg]
                            .copy_from_slice(&dyd[src..src + seg]);
                    }
                }
                &dyb[..co * cols]
            };
            for (b, row) in db.iter_mut().zip(dyblk.chunks_exact(cols.max(1))) {
                *b += row_sum(row);
            }
            if windows {
                let fl = lw.flat(oh1 - oh0).next_multiple_of(LANES);
                scatter_dy(dyd, lw, co, i0, ni, oh0, oh1, &mut dyf, fl);
                let base = oh0 * lw.wp();
                window_dw_block(&dyf, fl, &xp, x_img, ni, &offs, base, co, dw);
            } else {
                let colb = &mut col[..k * cols];
                for il in 0..ni {
                    let xi = &xd[(i0 + il) * chw..(i0 + il + 1) * chw];
                    im2col_block(xi, lw, 0..k, oh0 * lw.wo..oh1 * lw.wo, colb, cols, il * seg);
                }
                // dW += dY · colᵀ
                gemm_packed_into(co, k, cols, dyblk, false, colb, true, dw);
            }
            if let Some(dxl) = dxl.as_deref_mut() {
                // dcol = Wᵀ · dY, into the column block (dW is done with
                // it, if it used it at all).
                let colb = &mut col[..k * cols];
                colb.fill(0.0);
                gemm_packed_into(k, cols, co, wdat, true, dyblk, false, colb);
                for il in 0..ni {
                    let at = (i0 + il - img0) * chw;
                    col2im_rows(colb, cols, il * seg, lw, oh0, oh1, &mut dxl[at..at + chw]);
                }
            }
        }
    }
    recycle_scratch(dyf);
    recycle_scratch(xp);
    recycle_scratch(dyb);
    recycle_scratch(col);
}

/// Gradients w.r.t. input, weights and bias — `[dX, dW, db]` — through the
/// blocked GEMM lowering described in the module docs.
pub fn backward_direct(
    dy: &Tensor,
    x: &Tensor,
    w: &Tensor,
    g: ConvGeometry,
) -> Result<Vec<Tensor>> {
    let (dx, dw, db) = backward_lowered(dy, x, w, g, true)?;
    Ok(vec![dx.expect("dX was requested"), dw, db])
}

/// [`backward_direct`] that computes `dX` only when `want_dx` — the half
/// of the work a first layer never needs.
pub(super) fn backward_lowered(
    dy: &Tensor,
    x: &Tensor,
    w: &Tensor,
    g: ConvGeometry,
    want_dx: bool,
) -> Result<(Option<Tensor>, Tensor, Tensor)> {
    let (lw, n, co) = resolve(dy, x, w, g)?;
    let work = n * co * lw.k() * lw.ho * lw.wo;
    Ok(backward_blocked(dy, x, w, &lw, n, co, want_dx, work))
}

/// Validate the operand shapes of a backward call and resolve the
/// lowering geometry, batch size and output channel count.
fn resolve(
    dy: &Tensor,
    x: &Tensor,
    w: &Tensor,
    g: ConvGeometry,
) -> Result<(Lowering, usize, usize)> {
    let (xs, ws) = (x.shape(), w.shape());
    if xs.rank() != 4 || ws.rank() != 4 || xs.dim(1) != ws.dim(1) {
        return Err(Error::ShapeMismatch(format!(
            "Conv2d backward: X {xs} vs W {ws}"
        )));
    }
    let (n, c, h, wd) = (xs.dim(0), xs.dim(1), xs.dim(2), xs.dim(3));
    let (co, kh, kw) = (ws.dim(0), ws.dim(2), ws.dim(3));
    let ho = g.out_extent(h, kh)?;
    let wo = g.out_extent(wd, kw)?;
    if dy.shape() != &Shape::new(&[n, co, ho, wo]) {
        return Err(Error::ShapeMismatch(format!(
            "Conv2d backward: dY shape {} vs expected [{n}x{co}x{ho}x{wo}]",
            dy.shape()
        )));
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
    Ok((lw, n, co))
}

/// The lane driver: `work` (the forward's multiply-adds; 0 = stay on the
/// caller) only chooses *where* lanes run, never what they compute.
#[allow(clippy::too_many_arguments)] // driver plumbing
fn backward_blocked(
    dy: &Tensor,
    x: &Tensor,
    w: &Tensor,
    lw: &Lowering,
    n: usize,
    co: usize,
    want_dx: bool,
    work: usize,
) -> (Option<Tensor>, Tensor, Tensor) {
    let k = lw.k();
    let chw = lw.c * lw.h * lw.wd;
    let bl = Blocking::for_shape(n, k, lw.ho, lw.wo);
    let mut dx = want_dx.then(|| Tensor::zeros(x.shape().clone()));
    let mut dw = Tensor::zeros(w.shape().clone());
    let mut db = Tensor::zeros([co]);
    let (dyd, xd, wdat) = (dy.data(), x.data(), w.data());

    // One [dW | db] partial per lane, acquired and recycled on this
    // thread so the buffer returns to the pool it came from.
    let part = co * k + co;
    let mut partials = scratch_zeroed(bl.lanes * part);
    {
        let mut dx_rest = dx.as_mut().map(|t| t.data_mut());
        let mut part_rest = &mut partials[..bl.lanes * part];
        let mut jobs = Vec::with_capacity(bl.lanes);
        for lane in 0..bl.lanes {
            let (img0, end) = bl.lane_images(n, lane);
            let imgs = end - img0;
            let dxl = dx_rest.take().map(|rest| {
                let (head, tail) = rest.split_at_mut(imgs * chw);
                dx_rest = Some(tail);
                head
            });
            let (head, tail) = part_rest.split_at_mut(part);
            part_rest = tail;
            jobs.push((img0, imgs, dxl, head));
        }
        crate::par::map_items(jobs, work, |(img0, imgs, dxl, partial)| {
            let (dwl, dbl) = partial.split_at_mut(co * k);
            lane_backward(dyd, xd, wdat, lw, co, bl, img0, imgs, dxl, dwl, dbl);
        });
    }
    // Fixed-order reduction: lane 0, then 1, ...
    {
        let (dwd, dbd) = (dw.data_mut(), db.data_mut());
        for partial in partials[..bl.lanes * part].chunks_exact(part.max(1)) {
            let (dwl, dbl) = partial.split_at(co * k);
            for (acc, &v) in dwd.iter_mut().zip(dwl) {
                *acc += v;
            }
            for (acc, &v) in dbd.iter_mut().zip(dbl) {
                *acc += v;
            }
        }
    }
    recycle_scratch(partials);
    (dx, dw, db)
}

/// Seven-loop reference backward pass, serial and scalar. Kept as the
/// oracle for [`backward_direct`]'s parity tests and the bench parity
/// gate, exactly like [`forward_reference`](super::forward_reference); no
/// operator calls it.
pub fn backward_reference(
    dy: &Tensor,
    x: &Tensor,
    w: &Tensor,
    g: ConvGeometry,
) -> Result<Vec<Tensor>> {
    let (lw, n, co) = resolve(dy, x, w, g)?;
    let Lowering {
        c,
        h,
        wd,
        kh,
        kw,
        ho,
        wo,
        ..
    } = lw;
    let mut dx = Tensor::zeros(x.shape().clone());
    let mut dw = Tensor::zeros(w.shape().clone());
    let mut db = Tensor::zeros([co]);
    let (dyd, xd, wdat) = (dy.data(), x.data(), w.data());
    let (dxd, dwd, dbd) = (dx.data_mut(), dw.data_mut(), db.data_mut());
    for img in 0..n {
        for oc in 0..co {
            for oh in 0..ho {
                for ow in 0..wo {
                    let gval = dyd[((img * co + oc) * ho + oh) * wo + ow];
                    dbd[oc] += gval;
                    for ic in 0..c {
                        for fh in 0..kh {
                            for fw in 0..kw {
                                let ih = (oh * g.stride + fh) as isize - g.pad as isize;
                                let iw = (ow * g.stride + fw) as isize - g.pad as isize;
                                let woff = ((oc * c + ic) * kh + fh) * kw + fw;
                                dwd[woff] += gval * fetch(xd, c, h, wd, img, ic, ih, iw);
                                if ih < 0 || iw < 0 || ih as usize >= h || iw as usize >= wd {
                                    continue;
                                }
                                let xoff = ((img * c + ic) * h + ih as usize) * wd + iw as usize;
                                dxd[xoff] += gval * wdat[woff];
                            }
                        }
                    }
                }
            }
        }
    }
    Ok(vec![dx, dw, db])
}

#[cfg(test)]
mod tests {
    use super::*;
    use deep500_metrics::norms::linf_diff;
    use deep500_tensor::rng::Xoshiro256StarStar;
    use proptest::prelude::*;

    /// Incoming-gradient patterns: dense, ReLU-sparse (about half exact
    /// zeros), all zero.
    fn make_dy(shape: [usize; 4], kind: u8, rng: &mut Xoshiro256StarStar) -> Tensor {
        let dense = Tensor::rand_uniform(shape, -1.0, 1.0, rng);
        match kind % 3 {
            0 => dense,
            1 => dense.map(|v| v.max(0.0)),
            _ => Tensor::zeros(shape),
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn case(
        n: usize,
        c: usize,
        h: usize,
        w: usize,
        co: usize,
        k: usize,
        g: ConvGeometry,
        kind: u8,
        seed: u64,
    ) -> (Tensor, Tensor, Tensor) {
        let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
        let x = Tensor::rand_uniform([n, c, h, w], -1.0, 1.0, &mut rng);
        let wt = Tensor::rand_uniform([co, c, k, k], -0.5, 0.5, &mut rng);
        let (ho, wo) = (g.out_extent(h, k).unwrap(), g.out_extent(w, k).unwrap());
        let dy = make_dy([n, co, ho, wo], kind, &mut rng);
        (dy, x, wt)
    }

    /// Relative l-inf of each gradient against the scalar oracle.
    fn assert_matches_reference(dy: &Tensor, x: &Tensor, w: &Tensor, g: ConvGeometry, what: &str) {
        let got = backward_direct(dy, x, w, g).unwrap();
        let want = backward_reference(dy, x, w, g).unwrap();
        for (name, (a, b)) in ["dX", "dW", "db"].iter().zip(got.iter().zip(&want)) {
            assert_eq!(a.shape(), b.shape(), "{what}: {name} shape");
            let scale = b.data().iter().fold(1.0f32, |m, v| m.max(v.abs()));
            let err = linf_diff(a.data(), b.data()) / f64::from(scale);
            assert!(err <= 1e-4, "{what}: {name} relative linf {err}");
        }
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|v| v.to_bits()).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn lowering_matches_reference(
            n in 1usize..10,
            c in 1usize..6,
            h in 1usize..11,
            w in 1usize..11,
            co in 1usize..8,
            k in 1usize..6,
            stride in 1usize..4,
            pad in 0usize..3,
            kind in 0u8..3,
            seed in 0u64..1000,
        ) {
            prop_assume!(k <= h + 2 * pad && k <= w + 2 * pad);
            let g = ConvGeometry { stride, pad };
            let (dy, x, wt) = case(n, c, h, w, co, k, g, kind, seed);
            assert_matches_reference(
                &dy, &x, &wt, g,
                &format!("n{n} c{c} {h}x{w} co{co} k{k} s{stride} p{pad} dy{kind}"),
            );
        }
    }

    #[test]
    fn lowering_matches_reference_on_edge_geometries() {
        for (what, n, c, h, w, co, k, stride, pad) in [
            (
                "1x1 kernel",
                5usize,
                3usize,
                6usize,
                7usize,
                5usize,
                1usize,
                1usize,
                0usize,
            ),
            ("strided 1x1 with padding", 3, 2, 5, 5, 3, 1, 2, 1),
            ("kernel == padded input", 6, 3, 3, 3, 4, 5, 1, 1),
            ("kernel == padded input, strided", 4, 1, 2, 2, 2, 4, 3, 1),
            ("n not a multiple of the block", 7, 2, 8, 8, 3, 3, 1, 1),
            ("lenet conv1", 9, 3, 16, 16, 6, 5, 1, 2),
            // One image's column matrix (144 x 1024 floats) is over the
            // block budget: the output-row band path.
            ("row-band blocks", 2, 16, 32, 32, 4, 3, 1, 1),
        ] {
            let g = ConvGeometry { stride, pad };
            for kind in 0..3 {
                let (dy, x, wt) = case(n, c, h, w, co, k, g, kind, 77);
                assert_matches_reference(&dy, &x, &wt, g, &format!("{what} dy{kind}"));
            }
        }
    }

    #[test]
    fn blocking_is_a_pure_function_of_shape_and_covers_the_batch() {
        // lenet conv1 at batch 32: 8 lanes of 4 images, each lane one
        // column block of its four 75 x 256 per-image matrices.
        let bl = Blocking::for_shape(32, 75, 16, 16);
        assert_eq!((bl.lanes, bl.imgs, bl.rows), (8, 4, 16));
        assert!(75 * bl.imgs * 256 * 4 <= COL_BLOCK_BYTES);
        // A 150 x 784 image matrix (459 KiB) fits the budget only once, so
        // a lane of three images takes three blocks.
        assert_eq!(Blocking::for_shape(24, 150, 28, 28).imgs, 1);
        // One lane per image up to the cap, tiling the batch.
        for n in 1..40 {
            let bl = Blocking::for_shape(n, 27, 8, 8);
            assert_eq!(bl.lanes, n.min(MAX_LANES), "{n}: {bl:?}");
            let mut next = 0;
            for lane in 0..bl.lanes {
                let (start, end) = bl.lane_images(n, lane);
                assert!(
                    start == next && end > start,
                    "{n} lane {lane}: {start}..{end}"
                );
                next = end;
            }
            assert_eq!(next, n);
        }
        // Oversized images fall back to row bands of one image.
        let bl = Blocking::for_shape(2, 144, 32, 32);
        assert_eq!(bl.imgs, 1);
        assert!(bl.rows < 32 && 144 * bl.rows * 32 * 4 <= COL_BLOCK_BYTES);
        assert_eq!(Blocking::for_shape(0, 27, 8, 8).lanes, 0);
    }

    #[test]
    fn serial_and_rayon_lanes_are_bitwise_equal() {
        // Thread-count independence: the same lanes run on this thread in
        // order, or handed to the pool, must produce identical bits.
        // Window dW (whole-lane blocks; read with no padding; row bands),
        // then the GEMM dW at a stride with no windows and on a layer too
        // wide for them.
        for (n, c, h, co, k, stride, pad) in [
            (32usize, 3usize, 16usize, 6usize, 5usize, 1usize, 2usize),
            (11, 6, 8, 16, 5, 1, 0),
            (2, 16, 32, 4, 3, 1, 1),
            (7, 5, 9, 4, 3, 2, 1),
            (9, 2, 6, 64, 3, 1, 1),
        ] {
            let g = ConvGeometry { stride, pad };
            let (dy, x, wt) = case(n, c, h, h, co, k, g, 1, 5);
            let (lw, n, co) = resolve(&dy, &x, &wt, g).unwrap();
            assert_eq!(
                dw_reads_windows(&lw, co),
                stride == 1 && co < 64,
                "the cases straddle the rule"
            );
            for want_dx in [true, false] {
                let serial = backward_blocked(&dy, &x, &wt, &lw, n, co, want_dx, 0);
                let pooled = backward_blocked(&dy, &x, &wt, &lw, n, co, want_dx, usize::MAX);
                assert_eq!(serial.0.as_ref().map(bits), pooled.0.as_ref().map(bits));
                assert_eq!(bits(&serial.1), bits(&pooled.1));
                assert_eq!(bits(&serial.2), bits(&pooled.2));
                assert_eq!(serial.0.is_some(), want_dx);
            }
            // Eliding dX changes nothing about dW / db.
            let full = backward_blocked(&dy, &x, &wt, &lw, n, co, true, usize::MAX);
            let elided = backward_blocked(&dy, &x, &wt, &lw, n, co, false, usize::MAX);
            assert_eq!(bits(&full.1), bits(&elided.1));
            assert_eq!(bits(&full.2), bits(&elided.2));
        }
    }

    #[test]
    fn nan_weight_reaches_dx_under_a_zero_gradient() {
        // 0 * NaN = NaN: with the zero-skip gone, conv backward has the
        // GEMM backward's IEEE semantics.
        let g = ConvGeometry { stride: 1, pad: 1 };
        let (_, x, mut wt) = case(2, 2, 5, 5, 3, 3, g, 0, 9);
        wt.data_mut()[4] = f32::NAN;
        let dy = Tensor::zeros([2, 3, 5, 5]);
        let grads = backward_direct(&dy, &x, &wt, g).unwrap();
        assert!(
            grads[0].data().iter().any(|v| v.is_nan()),
            "NaN weight was skipped"
        );
        let oracle = backward_reference(&dy, &x, &wt, g).unwrap();
        assert!(oracle[0].data().iter().any(|v| v.is_nan()));
        // dW = dY · colᵀ has no NaN operand.
        assert!(grads[1].data().iter().all(|v| *v == 0.0));
    }

    #[test]
    fn nan_gradient_reaches_every_tap_of_its_channel_and_no_other() {
        // Window dW (co 3) and GEMM dW (stride 2) alike: every product
        // participates, padding zeros included.
        for stride in [1usize, 2] {
            let g = ConvGeometry { stride, pad: 1 };
            let (mut dy, x, wt) = case(2, 2, 6, 6, 3, 3, g, 1, 9);
            let at = dy.numel() / 3 / 2; // channel 1 of image 0
            dy.data_mut()[at] = f32::NAN;
            let grads = backward_direct(&dy, &x, &wt, g).unwrap();
            let oracle = backward_reference(&dy, &x, &wt, g).unwrap();
            for (oc, (got, want)) in grads[1]
                .data()
                .chunks(18)
                .zip(oracle[1].data().chunks(18))
                .enumerate()
            {
                assert!(
                    got.iter().all(|v| v.is_nan() == (oc == 1)),
                    "s{stride} {oc}"
                );
                assert!(
                    want.iter().all(|v| v.is_nan() == (oc == 1)),
                    "s{stride} {oc}"
                );
            }
            assert!(grads[2].data()[1].is_nan() && grads[2].data()[0].is_finite());
        }
    }

    #[test]
    fn nan_pixel_reaches_window_taps_across_a_row_seam() {
        // The one case the window reduction adds (module docs): the oracle
        // turns NaN the four taps that read pixel (0, 0) for some output;
        // tap (0, 2) never does — its column runs one to the right — but
        // its window holds the pixel at the seam after output row 0.
        let g = ConvGeometry { stride: 1, pad: 1 };
        let (dy, mut x, wt) = case(1, 1, 5, 5, 2, 3, g, 0, 9);
        x.data_mut()[0] = f32::NAN;
        let got = backward_direct(&dy, &x, &wt, g).unwrap();
        let want = backward_reference(&dy, &x, &wt, g).unwrap();
        let nan = |t: &Tensor| t.data().iter().map(|v| v.is_nan()).collect::<Vec<_>>();
        let t = true;
        assert_eq!(
            nan(&want[1])[..9],
            [t, t, false, t, t, false, false, false, false]
        );
        assert_eq!(
            nan(&got[1])[..9],
            [t, t, t, t, t, false, false, false, false]
        );
        for (a, b) in got[1].data().iter().zip(want[1].data()) {
            assert!(a.is_nan() || (a - b).abs() <= 1e-4 * b.abs().max(1.0));
        }
        // dX and db never read X.
        assert!(got[0]
            .data()
            .iter()
            .chain(got[2].data())
            .all(|v| v.is_finite()));
    }

    #[test]
    fn portable_dw_tile_matches_the_dispatched_one_and_a_scalar_sum() {
        // On an AVX-512 host this is the only place the portable tile
        // runs. Two images, runs of three vectors, windows that overlap.
        let mut rng = Xoshiro256StarStar::seed_from_u64(31);
        let (co, fl, imgs, x_img) = (5usize, 48usize, 2usize, 70usize);
        let dyf = Tensor::rand_uniform([imgs * co * fl], -1.0, 1.0, &mut rng);
        let xp = Tensor::rand_uniform([imgs * x_img + LANES], -1.0, 1.0, &mut rng);
        let offs = [0usize, 1, 2, 9, 10, 11, 20, 22];
        let mut dw = vec![0.0f32; co * offs.len()];
        window_dw_block(
            dyf.data(),
            fl,
            xp.data(),
            x_img,
            imgs,
            &offs,
            1,
            co,
            &mut dw,
        );
        for oc in 0..co {
            for (t, off) in offs.iter().enumerate() {
                let want: f64 = (0..imgs)
                    .flat_map(|img| (0..fl).map(move |j| (img, j)))
                    .map(|(img, j)| {
                        f64::from(dyf.data()[(img * co + oc) * fl + j])
                            * f64::from(xp.data()[img * x_img + 1 + off + j])
                    })
                    .sum();
                let got = f64::from(dw[oc * offs.len() + t]);
                assert!((got - want).abs() < 1e-4, "dW[{oc}][{t}]: {got} vs {want}");
            }
        }
        let rows = [0, fl, 2 * fl, 3 * fl];
        let to = [1usize, 2, 3, 10, 11, 12];
        let tile = dw_tile_portable(dyf.data(), co * fl, rows, xp.data(), x_img, to, imgs, fl);
        for (i, trow) in tile.into_iter().enumerate() {
            for (t, sums) in trow.into_iter().enumerate() {
                let (got, want) = (fold(sums), dw[i * offs.len() + t]);
                assert!((got - want).abs() < 1e-4, "tile[{i}][{t}]: {got} vs {want}");
            }
        }
    }

    #[test]
    fn stale_scratch_never_leaks_into_gradients() {
        // Every lane buffer is drawn dirty; poison their size classes.
        let g = ConvGeometry { stride: 2, pad: 2 };
        let (dy, x, wt) = case(3, 2, 7, 7, 3, 3, g, 0, 13);
        for len in [2 * 3 * 3 * 3 * 5 * 5, 3 * 3 * 5 * 5] {
            for _ in 0..4 {
                let mut buf = scratch_dirty(len);
                buf.fill(f32::NAN);
                recycle_scratch(buf);
            }
        }
        assert_matches_reference(&dy, &x, &wt, g, "poisoned scratch");
        // The window form: padded images, scattered dY.
        let g = ConvGeometry { stride: 1, pad: 2 };
        let (dy, x, wt) = case(3, 2, 7, 7, 3, 3, g, 0, 13);
        for len in [2 * 11 * 11 + 16, 3 * 112, 2 * 3 * 3 * 9 * 9] {
            for _ in 0..4 {
                let mut buf = scratch_dirty(len);
                buf.fill(f32::NAN);
                recycle_scratch(buf);
            }
        }
        assert_matches_reference(&dy, &x, &wt, g, "poisoned window scratch");
    }

    #[test]
    fn mismatched_operands_are_rejected() {
        let g = ConvGeometry { stride: 1, pad: 0 };
        let x = Tensor::zeros([1, 2, 4, 4]);
        let w = Tensor::zeros([3, 2, 3, 3]);
        assert!(backward_direct(&Tensor::zeros([1, 3, 3, 3]), &x, &w, g).is_err());
        let w_bad = Tensor::zeros([3, 1, 3, 3]);
        assert!(backward_direct(&Tensor::zeros([1, 3, 2, 2]), &x, &w_bad, g).is_err());
        assert!(backward_reference(&Tensor::zeros([1, 3, 2, 2]), &x, &w_bad, g).is_err());
    }
}
