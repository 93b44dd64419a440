//! The `Algorithm::Packed` tier: register-tiled microkernel over packed
//! panels with cache-aware dispatch.
//!
//! Structure follows the BLIS/GotoBLAS decomposition. The problem is
//! blocked three ways by a [`Blocking`] plan chosen from the shape:
//!
//! ```text
//! for jc in 0..N step NC          // B macro-panel   (~L3)
//!   for pc in 0..K step KC        // B block: read in place or packed once (shared)
//!     parfor ic in 0..M step MC   // pack A[ic.., pc..] per worker (~L2)
//!       for jr in 0..NC step NR   // B tile resident in L1
//!         for ir in 0..MC step MR //   MR x NR microkernel
//! ```
//!
//! `A` panels are copied into contiguous scratch drawn from the tensor
//! [`BufferPool`](deep500_tensor::BufferPool) (`scratch_zeroed` /
//! `recycle_scratch`, rounded to whole cache lines) as `MR`-row slivers
//! laid out `[p][i]`, so the microkernel streams them with unit stride
//! whatever the source layout — the transposed `AᵀB` product is absorbed
//! into that gather.
//!
//! Every packed product, one row or many, runs one panel driver
//! (`run_panel`, generic over the sliver height). Two or more rows are
//! packed into `MR`-row slivers and run at the width the host picks by CPU
//! detection alone (`host_nr`): `MR x NR_W` (8x32) on hosts with AVX-512F,
//! `MR x NR` (8x8) elsewhere and under miri. A single row is its own
//! one-row sliver, read in place, and runs `1 x NR_W` on every host: a
//! 1x8 tile is one multiply-add chain per vector, and four of them over the
//! same 32 columns read 2–3x slower (EXPERIMENTS E46). The driver reads
//! reduction row `p` of `B` through an offset table, whatever the tile, so
//! `B` is never packed into column slivers:
//!
//! * a row-major `B [K x N]` is read in place — only a ragged last tile
//!   that would read past the operand is copied into padded scratch;
//! * a transposed `B [N x K]` takes one transposing pack per `KC x NC`
//!   block (`pack_bt_rows`) into `[p][j]` rows padded to whole tiles;
//! * `Linear` hands in its memoized `[K x round_up(N, NR_W)]` weight image
//!   at every batch size;
//! * the direct convolution tier hands in gathered rows, or windows of one
//!   padded image with a `Seam` between output rows.
//!
//! Each tile keeps its accumulator block in registers across the whole
//! `KC` reduction. One portable multiply-add body (`microkernel`),
//! generic over the tile shape, is written lane-wise so LLVM vectorizes it
//! for the instruction set of the function it is compiled into. The
//! `MR x NR` tile runs it inside a panel loop compiled for `avx2,fma`
//! (`run_panel_fma`) where the CPU has AVX2+FMA, and the `1 x NR_W` tile
//! inside one compiled for `avx512f` (`run_row_avx512`) where it has
//! AVX-512F, else for `avx2,fma`; there each step is one fused
//! `f32::mul_add`. Its plain, unfused instance runs everywhere else (no
//! AVX2+FMA, other architectures, miri). Only the `MR x NR_W` tile on
//! AVX-512F hosts keeps a hand-written kernel (`microkernel_avx512`).
//!
//! Unsafe-code policy: vendor intrinsics stay only where the portable body
//! measurably cannot match them, and each says so, with the measurement,
//! at its definition: `microkernel_avx512`, `transpose_blocks_avx` and
//! `strided_copy2_avx512` here, and the convolution `dW` tile in
//! `conv::backward`, which follows the same rules. Every `unsafe` block
//! carries a `// SAFETY:` comment (enforced by the workspace
//! `clippy::undocumented_unsafe_blocks` deny), and each kernel compiled
//! for an instruction set is reachable *only* through its dispatcher's
//! runtime CPUID check — see `run_panel` for the dispatch invariant. Under
//! miri every vendor path is compiled out (`cfg(not(miri))`), so `cargo
//! miri test -p deep500-ops gemm::packed` checks the packing, the offset
//! tables and the portable body at all three tile shapes (the tests force
//! both widths, and one-row products run the third): the same body AVX2
//! hosts run, there fused.
//!
//! Determinism: parallelism is only over disjoint `C` row panels and each
//! output element's `K` reduction ascends in `p` (one fused multiply-add
//! per step where the host has FMA, register-summed per `KC` block, block
//! partials added to `C` in ascending `pc` order), so results are
//! bit-identical across thread counts, across the tiles and between a row
//! computed alone and the same row inside a batch — which rows and
//! columns share a register tile never enters an element's float
//! sequence (a NaN's sign and payload aside, which each kernel's FMA
//! operand order picks; EXPERIMENTS E46). The *grouping* of that sum
//! differs from the `Naive`/`Blocked` tiers, which is exactly the
//! distinct accumulation order the paper's cross-kernel ℓ∞ comparisons
//! measure.

use crate::par;
use deep500_tensor::{recycle_scratch, scratch_dirty, scratch_zeroed};

/// Microkernel tile rows (`C` rows kept in registers).
pub const MR: usize = 8;
/// Narrow tile columns (one 8-wide AVX2 vector per row): the tile of every
/// packed product of two or more rows and of the direct convolution tier
/// on hosts without AVX-512F.
pub const NR: usize = 8;
/// Wide tile columns (two 16-lane vectors per row): the tile on
/// AVX-512-class hosts, and of a single row on every host. Both batched
/// tiles read the same `MR`-row `A` slivers, so a filter packed once
/// serves both widths.
pub const NR_W: usize = 32;
/// Deepest reduction block [`Blocking::for_shape`] picks.
const KC: usize = 256;

/// Cache-aware blocking parameters, in elements. `mc`/`nc` are rounded to
/// microkernel tile multiples; all three are clamped to the problem shape
/// so degenerate sizes (`M = 1`, `K = 0`) stay valid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Blocking {
    /// Rows of `A` packed per panel (L2-resident: `mc * kc` floats).
    pub mc: usize,
    /// Reduction depth per pack (L1-resident: `kc * MR` sliver floats, and
    /// `kc` tile rows of `B`).
    pub kc: usize,
    /// Columns of `B` packed per macro-panel (L3-resident: `kc * nc`).
    pub nc: usize,
}

impl Blocking {
    /// Pick blocking from the problem shape. Targets are conservative
    /// laptop/server-class caches: an `MR x KC` sliver and `KC` rows of one
    /// `B` tile well inside a 32 KiB L1, the packed A panel in half of a
    /// 256 KiB L2, and the `B` macro-panel in a ~1 MiB L3 share.
    pub fn for_shape(m: usize, n: usize, k: usize) -> Blocking {
        let kc = k.clamp(1, KC);
        let mc_cap = ((128 * 1024 / 4) / kc).max(MR);
        let mc = round_up(m.clamp(1, mc_cap), MR);
        let nc_cap = ((1024 * 1024 / 4) / kc).max(NR);
        let nc = round_up(n.clamp(1, nc_cap), NR);
        Blocking { mc, kc, nc }
    }

    /// Blocking for the direct convolution tier's implicit GEMM at tile
    /// width `nr` ([`NR`] or [`NR_W`]). Differs from [`Blocking::for_shape`]
    /// in two ways. First, the `kc` cap stretches beyond 256 (up to 512)
    /// while the `Co`-row A panel still fits the L2 budget — conv GEMMs
    /// have few rows, and every extra `KC` block costs a full
    /// read-modify-write pass over the output, so a 288-deep ResNet-body
    /// reduction runs as *one* block (store + fused epilogue, `C` touched
    /// once) instead of 256 + 32 — and the cap stretches a further 25%
    /// when that single step turns a two-pass reduction into one (576
    /// deep on few-row conv GEMMs: the A panel grows by kilobytes, the
    /// saved `C` pass is megabytes). Within the cap the reduction splits
    /// into equal-depth blocks (576 past the stretch would run 2x288,
    /// not 256 + 256 + 64). Second, `nc` is rounded to the selected
    /// tile width so every gathered tile is whole.
    pub(crate) fn for_conv(m: usize, n: usize, k: usize, nr: usize) -> Blocking {
        let mut kc_cap = ((128 * 1024 / 4) / m.max(1)).clamp(256, 512);
        if k > kc_cap && k <= kc_cap + kc_cap / 4 {
            kc_cap = k;
        }
        let kc = if k == 0 {
            1
        } else {
            k.div_ceil(k.div_ceil(kc_cap))
        };
        let mc_cap = ((128 * 1024 / 4) / kc).max(MR);
        let mc = round_up(m.clamp(1, mc_cap), MR);
        let nc_cap = ((1024 * 1024 / 4) / kc).max(nr);
        let nc = round_up(n.clamp(1, nc_cap), nr);
        Blocking { mc, kc, nc }
    }
}

pub(crate) fn round_up(v: usize, to: usize) -> usize {
    v.div_ceil(to) * to
}

/// Elementwise transform fused into the GEMM write-back: applied to each
/// output element exactly once, while its cache line is still hot from the
/// final `KC`-block store, so post-GEMM bias/activation passes cost zero
/// extra memory traffic.
///
/// **Bit-identity contract:** the fused sequence per element is exactly the
/// unfused one — full `K` reduction in the tier's accumulation order, then
/// `+= bias[j]` (`j` the absolute output column) or `+= bias[i]` (`i` the
/// absolute output row, for the `BiasRow*` variants the NCHWc convolution
/// uses: its `C` rows are output channels), then `max(x, 0.0)` — so a
/// fused `Linear(+Relu)` is bit-identical to `Linear` followed by a
/// separate `Relu` pass, including NaN propagation (`max` maps NaN to 0,
/// matching `ActivationOp`).
#[derive(Debug, Clone, Copy, Default)]
pub enum Epilogue<'a> {
    /// Plain accumulate write-back.
    #[default]
    None,
    /// `C[i][j] += bias[j]` after the final `K` block.
    Bias(&'a [f32]),
    /// `C[i][j] = max(C[i][j], 0.0)` after the final `K` block.
    Relu,
    /// Bias add, then ReLU.
    BiasRelu(&'a [f32]),
    /// `C[i][j] += bias[i]` after the final `K` block (per-row bias).
    BiasRow(&'a [f32]),
    /// Per-row bias add, then ReLU.
    BiasRowRelu(&'a [f32]),
}

impl Epilogue<'_> {
    /// Apply to one row segment of absolute output row `i`, covering
    /// absolute output columns `j0..j0 + seg.len()`.
    #[inline]
    fn apply_row(&self, seg: &mut [f32], i: usize, j0: usize) {
        let cols = seg.len();
        match *self {
            Epilogue::None => {}
            Epilogue::Bias(bias) => {
                for (cv, &bv) in seg.iter_mut().zip(&bias[j0..j0 + cols]) {
                    *cv += bv;
                }
            }
            Epilogue::Relu => {
                for cv in seg.iter_mut() {
                    *cv = cv.max(0.0);
                }
            }
            Epilogue::BiasRelu(bias) => {
                for (cv, &bv) in seg.iter_mut().zip(&bias[j0..j0 + cols]) {
                    *cv = (*cv + bv).max(0.0);
                }
            }
            Epilogue::BiasRow(bias) => {
                let bv = bias[i];
                for cv in seg.iter_mut() {
                    *cv += bv;
                }
            }
            Epilogue::BiasRowRelu(bias) => {
                let bv = bias[i];
                for cv in seg.iter_mut() {
                    *cv = (*cv + bv).max(0.0);
                }
            }
        }
    }

    /// Apply as a separate pass over a row-major `M x N` matrix — the
    /// fallback for kernel tiers without a fusable write-back. Produces the
    /// same per-element float sequence as the fused path.
    pub(crate) fn apply_matrix(&self, c: &mut [f32], n: usize) {
        if n == 0 || matches!(self, Epilogue::None) {
            return;
        }
        for (i, row) in c.chunks_mut(n).enumerate() {
            self.apply_row(row, i, 0);
        }
    }
}

/// Pack the `mc x kc` block of logical `A` starting at `(ic, pc)` into
/// `dst` as a sequence of `MR`-row slivers, each laid out `[p][i]`. Rows
/// beyond `mc` are written as zero so edge tiles run the full microkernel.
/// `A` is stored row-major `[M x K]` (`trans = false`, `lda = K`) or
/// `[K x M]` (`trans = true`, `lda = M`).
#[allow(clippy::too_many_arguments)] // pack-kernel plumbing: all scalars
pub(crate) fn pack_a(
    dst: &mut [f32],
    a: &[f32],
    trans: bool,
    lda: usize,
    ic: usize,
    pc: usize,
    mc: usize,
    kc: usize,
) {
    for (tile, chunk) in dst[..mc.div_ceil(MR) * MR * kc]
        .chunks_mut(MR * kc)
        .enumerate()
    {
        let i0 = tile * MR;
        let rows = MR.min(mc - i0);
        if trans {
            for p in 0..kc {
                let lane = &mut chunk[p * MR..p * MR + MR];
                // A[K x M]: row pc+p is contiguous in i.
                let src = &a[(pc + p) * lda + ic + i0..];
                lane[..rows].copy_from_slice(&src[..rows]);
                lane[rows..].iter_mut().for_each(|v| *v = 0.0);
            }
        } else {
            // A[M x K]: each source row is contiguous in p, so stream it
            // once into its lane of every `[p][i]` step.
            if rows < MR {
                chunk.fill(0.0);
            }
            for i in 0..rows {
                let at = (ic + i0 + i) * lda + pc;
                for (lane, &v) in chunk.chunks_exact_mut(MR).zip(&a[at..at + kc]) {
                    lane[i] = v;
                }
            }
        }
    }
}

/// The transposing pack: the `kc x nc` block of logical `B`
/// at `(pc, jc)`, stored `[N x K]` at row pitch `ldb`, written into `dst`
/// as `kc` rows of `ldd >= nc` floats — `dst[p * ldd + j] = B[jc + j][pc +
/// p]`, columns `nc..ldd` zeroed — which [`run_panel`] reads at offsets
/// `p * ldd`. `Linear` builds its whole weight image with it
/// (`pc = jc = 0`, `ldd = round_up(N, NR_W)`). The whole 8x8 blocks go
/// through [`transpose_blocks`], eight output rows at a time so each is
/// written contiguously; the ragged edges go element by element.
///
/// # Panics
///
/// If `dst` holds fewer than `kc * ldd` floats, `ldd < nc`, or `b` ends
/// before the block does.
#[allow(clippy::too_many_arguments)] // pack-kernel plumbing: all scalars
pub(crate) fn pack_bt_rows(
    dst: &mut [f32],
    ldd: usize,
    b: &[f32],
    ldb: usize,
    pc: usize,
    jc: usize,
    kc: usize,
    nc: usize,
) {
    if kc == 0 || ldd == 0 {
        return;
    }
    assert!(
        ldd >= nc && dst.len() >= kc * ldd,
        "transposing pack target"
    );
    let src = &b[jc * ldb + pc..];
    let (kw, nw) = (kc / 8 * 8, nc / 8 * 8);
    transpose_blocks(dst, ldd, src, ldb, kw, nw);
    for j in 0..nc {
        let from = if j < nw { kw } else { 0 };
        for (p, &v) in src[j * ldb..][..kc].iter().enumerate().skip(from) {
            dst[p * ldd + j] = v;
        }
    }
    for row in dst.chunks_exact_mut(ldd).take(kc) {
        row[nc..].fill(0.0);
    }
}

/// `dst[p * ldd + j] = src[j * lds + p]` for `p < kw`, `j < nw`, both
/// multiples of 8: the whole blocks of [`pack_bt_rows`], transposed in
/// registers where the host has AVX.
///
/// # Panics
///
/// Unless `src` holds `(nw - 1) * lds + kw` floats and `dst` `(kw - 1) *
/// ldd + nw` (when both are non-zero).
fn transpose_blocks(dst: &mut [f32], ldd: usize, src: &[f32], lds: usize, kw: usize, nw: usize) {
    if kw == 0 || nw == 0 {
        return;
    }
    assert!(kw.is_multiple_of(8) && nw.is_multiple_of(8));
    assert!(src.len() >= (nw - 1) * lds + kw && dst.len() >= (kw - 1) * ldd + nw);
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    if std::arch::is_x86_feature_detected!("avx") {
        // SAFETY: the `#[target_feature(enable = "avx")]` contract is
        // established by the runtime detection on this exact execution
        // path, and the slice-length preconditions are asserted above.
        unsafe { transpose_blocks_avx(dst, ldd, src, lds, kw, nw) };
        return;
    }
    for p in 0..kw {
        for j in 0..nw {
            dst[p * ldd + j] = src[j * lds + p];
        }
    }
}

/// AVX body of [`transpose_blocks`]: per 8x8 block, eight row loads, three
/// shuffle stages (interleave pairs, then quads, then 128-bit halves) and
/// eight row stores; blocks go `j`-fastest, so the eight output rows of a
/// block row fill in order. Kept because LLVM does not find these
/// shuffles: the scalar loop reads 1.35–1.57 Gfloat/s against this
/// kernel's 2.9–3.5 (EXPERIMENTS E46).
///
/// # Safety
///
/// * The executing CPU must support AVX ([`transpose_blocks`], the only
///   caller, detects it at runtime).
/// * `kw` and `nw` are non-zero multiples of 8, `src.len() >= (nw - 1) *
///   lds + kw` and `dst.len() >= (kw - 1) * ldd + nw`.
#[cfg(all(target_arch = "x86_64", not(miri)))]
#[target_feature(enable = "avx")]
unsafe fn transpose_blocks_avx(
    dst: &mut [f32],
    ldd: usize,
    src: &[f32],
    lds: usize,
    kw: usize,
    nw: usize,
) {
    use core::arch::x86_64::*;
    // SAFETY: for the block at `(p0, j0)` (`p0 + 8 <= kw`, `j0 + 8 <=
    // nw`) the loads read the 8 floats at `src[(j0 + r) * lds + p0..]` and
    // the stores write the 8 at `dst[(p0 + r) * ldd + j0..]` (r < 8), all
    // in bounds by the function contract; the unaligned intrinsics
    // tolerate any alignment, and executing them is sound because the
    // caller established AVX.
    unsafe {
        for p0 in (0..kw).step_by(8) {
            for j0 in (0..nw).step_by(8) {
                let s = src.as_ptr().add(j0 * lds + p0);
                let r = [
                    _mm256_loadu_ps(s),
                    _mm256_loadu_ps(s.add(lds)),
                    _mm256_loadu_ps(s.add(2 * lds)),
                    _mm256_loadu_ps(s.add(3 * lds)),
                    _mm256_loadu_ps(s.add(4 * lds)),
                    _mm256_loadu_ps(s.add(5 * lds)),
                    _mm256_loadu_ps(s.add(6 * lds)),
                    _mm256_loadu_ps(s.add(7 * lds)),
                ];
                // Pairs: t0 = a00 a10 a01 a11 | a04 a14 a05 a15, and so on.
                let t = [
                    _mm256_unpacklo_ps(r[0], r[1]),
                    _mm256_unpackhi_ps(r[0], r[1]),
                    _mm256_unpacklo_ps(r[2], r[3]),
                    _mm256_unpackhi_ps(r[2], r[3]),
                    _mm256_unpacklo_ps(r[4], r[5]),
                    _mm256_unpackhi_ps(r[4], r[5]),
                    _mm256_unpacklo_ps(r[6], r[7]),
                    _mm256_unpackhi_ps(r[6], r[7]),
                ];
                // Quads: q0 = a00 a10 a20 a30 | a04 a14 a24 a34, and so on.
                let q = [
                    _mm256_shuffle_ps::<0x44>(t[0], t[2]),
                    _mm256_shuffle_ps::<0xEE>(t[0], t[2]),
                    _mm256_shuffle_ps::<0x44>(t[1], t[3]),
                    _mm256_shuffle_ps::<0xEE>(t[1], t[3]),
                    _mm256_shuffle_ps::<0x44>(t[4], t[6]),
                    _mm256_shuffle_ps::<0xEE>(t[4], t[6]),
                    _mm256_shuffle_ps::<0x44>(t[5], t[7]),
                    _mm256_shuffle_ps::<0xEE>(t[5], t[7]),
                ];
                let d = dst.as_mut_ptr().add(p0 * ldd + j0);
                for c in 0..4 {
                    let (lo, hi) = (q[c], q[c + 4]);
                    _mm256_storeu_ps(d.add(c * ldd), _mm256_permute2f128_ps::<0x20>(lo, hi));
                    _mm256_storeu_ps(d.add((c + 4) * ldd), _mm256_permute2f128_ps::<0x31>(lo, hi));
                }
            }
        }
    }
}

/// The one portable multiply-add body, at tile shape `R x N` (`R` the
/// sliver height, [`MR`] or 1): `acc = Asliver * Btile` with the whole
/// accumulator block in locals, reading reduction row `p` of `B` at
/// `b[offs[p]..][..N]` (see [`run_panel`]). Written lane-wise so LLVM
/// vectorizes the `j` loop for the instruction set of the function it is
/// compiled into. `FUSED` makes each step one `f32::mul_add`, a single
/// rounding like a hardware FMA; only [`run_panel_fma`] and
/// [`run_row_avx512`] set it, whose targets (`avx2,fma`, `avx512f`)
/// compile that to one instruction. The plain instance rounds the product
/// and the sum apart, as hosts without FMA and miri always have.
#[inline(always)]
fn microkernel<const R: usize, const N: usize, const FUSED: bool>(
    asliver: &[f32],
    b: &[f32],
    offs: &[usize],
    acc: &mut [[f32; N]; R],
) {
    let mut local = [[0.0f32; N]; R];
    for (ar, &off) in asliver.chunks_exact(R).zip(offs) {
        let br = &b[off..off + N];
        for (row, &ai) in local.iter_mut().zip(ar) {
            for (s, &bv) in row.iter_mut().zip(br) {
                *s = if FUSED {
                    ai.mul_add(bv, *s)
                } else {
                    *s + ai * bv
                };
            }
        }
    }
    *acc = local;
}

/// Explicit 16-wide AVX-512 microkernel for the `MR x NR_W` tile: two
/// `__m512` accumulators per `C` row (16 live accumulator registers plus
/// four `B` vectors and one broadcast — well inside the 32 zmm registers),
/// with the `K` loop unrolled by two so the four `B` loads per iteration
/// hide the FMA latency chain. Reduction row `p` of `B` is the 32 floats at
/// `b[offs[p]..]`. Per output element the reduction still ascends in `p`
/// one FMA at a time, so results are bit-identical to the non-unrolled
/// order (and to the fused [`microkernel`]'s, which runs the same
/// per-element multiply-add sequence) and do not depend on what the
/// offsets are. Kept because LLVM does not find this register blocking:
/// the portable body at `MR x NR_W` reads 2.6–4.0 GFLOP/s compiled for
/// `avx512f` and 27–53 for `avx2,fma`, against this kernel's 58–126
/// (EXPERIMENTS E46).
///
/// # Safety
///
/// * The caller must have proven, at runtime, that the executing CPU
///   supports AVX-512F — calling this without it is immediate UB (illegal
///   instruction). [`run_panel_avx512`] is the only caller; it runs only
///   behind [`run_panel`]'s `is_x86_feature_detected!`.
/// * `asliver.len() >= offs.len() * MR`, and `off + NR_W <= b.len()` for
///   every `off` in `offs`: the unaligned vector loads read `MR` lanes /
///   `NR_W` lanes at each reduction step.
#[cfg(all(target_arch = "x86_64", not(miri)))]
#[target_feature(enable = "avx512f")]
unsafe fn microkernel_avx512(
    asliver: &[f32],
    b: &[f32],
    offs: &[usize],
    acc: &mut [[f32; NR_W]; MR],
) {
    use core::arch::x86_64::*;
    let kc = offs.len();
    debug_assert!(asliver.len() >= kc * MR);
    debug_assert!(offs.iter().all(|&off| off + NR_W <= b.len()));
    // SAFETY: pointer arithmetic stays inside the slices — the A packer
    // always produces whole slivers (`asliver.len() >= kc * MR`, edge rows
    // zero-padded) and the caller guarantees `NR_W` readable lanes past
    // every row offset, so `offs[p] + 31` and `p * MR + i` (i < MR) index
    // in-bounds for every `p < kc`; `offs[p]` itself is a checked slice
    // index. `_mm512_loadu_ps`/`_mm512_storeu_ps` tolerate any alignment,
    // and `acc[i]` is exactly `NR_W == 32` floats, matching two `__m512`
    // stores. The intrinsics themselves are safe to execute because this
    // fn's `#[target_feature]` contract (CPU has avx512f) is upheld by the
    // caller per the function-level Safety section.
    unsafe {
        let mut vacc = [[_mm512_setzero_ps(); 2]; MR];
        let mut p = 0usize;
        while p + 2 <= kc {
            let (r0, r1) = (b.as_ptr().add(offs[p]), b.as_ptr().add(offs[p + 1]));
            let b0 = _mm512_loadu_ps(r0);
            let b1 = _mm512_loadu_ps(r0.add(16));
            let b2 = _mm512_loadu_ps(r1);
            let b3 = _mm512_loadu_ps(r1.add(16));
            let a0 = asliver.as_ptr().add(p * MR);
            let a1 = asliver.as_ptr().add((p + 1) * MR);
            for (i, v) in vacc.iter_mut().enumerate() {
                let av = _mm512_set1_ps(*a0.add(i));
                v[0] = _mm512_fmadd_ps(av, b0, v[0]);
                v[1] = _mm512_fmadd_ps(av, b1, v[1]);
            }
            for (i, v) in vacc.iter_mut().enumerate() {
                let av = _mm512_set1_ps(*a1.add(i));
                v[0] = _mm512_fmadd_ps(av, b2, v[0]);
                v[1] = _mm512_fmadd_ps(av, b3, v[1]);
            }
            p += 2;
        }
        if p < kc {
            let r0 = b.as_ptr().add(offs[p]);
            let b0 = _mm512_loadu_ps(r0);
            let b1 = _mm512_loadu_ps(r0.add(16));
            let a0 = asliver.as_ptr().add(p * MR);
            for (i, v) in vacc.iter_mut().enumerate() {
                let av = _mm512_set1_ps(*a0.add(i));
                v[0] = _mm512_fmadd_ps(av, b0, v[0]);
                v[1] = _mm512_fmadd_ps(av, b1, v[1]);
            }
        }
        for (i, v) in vacc.into_iter().enumerate() {
            _mm512_storeu_ps(acc[i].as_mut_ptr(), v[0]);
            _mm512_storeu_ps(acc[i].as_mut_ptr().add(16), v[1]);
        }
    }
}

/// Stride-2 gather: `dst[i] = src[2 * i]`. The hot path of strided
/// (downsampling) convolutions' activation lowering — the convolution
/// lowering (`conv::im2col_block`) calls this once a tap's padding bounds
/// are resolved, so no per-element bounds checks remain. On AVX-512
/// hosts each 16-element group is produced by two vector loads and one
/// even-lane compaction shuffle; elsewhere a scalar loop. The shuffle is
/// kept because the compiler does not emit it: the scalar loop reads
/// 1.2–2.4 Gfloat/s, or 2.1–3.8 in 16-element chunks, against its 5.7–6.3
/// (EXPERIMENTS E46).
///
/// # Panics
///
/// Unless `src.len() > 2 * (dst.len() - 1)` (the last element read is
/// `src[2 * (dst.len() - 1)]`).
pub(crate) fn strided_copy2(dst: &mut [f32], src: &[f32]) {
    assert!(dst.is_empty() || src.len() > 2 * (dst.len() - 1));
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    if dst.len() >= 16 && std::arch::is_x86_feature_detected!("avx512f") {
        // SAFETY: the `#[target_feature(enable = "avx512f")]` contract is
        // established by the runtime detection on this exact execution
        // path; the slice-length precondition is asserted above, and the
        // vector loop carries its own explicit in-bounds guard.
        unsafe { strided_copy2_avx512(dst, src) };
        return;
    }
    for (v, &xv) in dst.iter_mut().zip(src.iter().step_by(2)) {
        *v = xv;
    }
}

/// AVX-512 even-lane compaction for [`strided_copy2`]: two 16-lane loads
/// cover a 32-element source window whose even elements are one
/// `vpermt2ps` away from the 16 contiguous outputs.
///
/// # Safety
///
/// * The caller must have proven, at runtime, that the executing CPU
///   supports AVX-512F ([`strided_copy2`] is the only caller and
///   establishes this with `is_x86_feature_detected!`).
/// * `src.len() > 2 * (dst.len() - 1)`.
#[cfg(all(target_arch = "x86_64", not(miri)))]
#[target_feature(enable = "avx512f")]
unsafe fn strided_copy2_avx512(dst: &mut [f32], src: &[f32]) {
    use core::arch::x86_64::*;
    let n = dst.len();
    debug_assert!(src.len() > 2 * (n - 1));
    // SAFETY: the vector loop only runs while both the 16-lane store
    // (`i + 16 <= n`) and the full 32-element source window
    // (`2 * i + 32 <= src.len()`) are in bounds; the scalar tail reads
    // `src[2 * j]` for `j < n`, in bounds by the function precondition.
    // The `loadu`/`storeu` intrinsics tolerate any alignment, and the
    // intrinsics are safe to execute per this fn's `#[target_feature]`
    // contract, upheld by the caller.
    unsafe {
        // Lane k of the result selects element 2k of the concatenated
        // (a, b) 32-lane window: indices 0..15 pick from a, 16..31 from b.
        let idx = _mm512_setr_epi32(0, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 22, 24, 26, 28, 30);
        let mut i = 0usize;
        while i + 16 <= n && 2 * i + 32 <= src.len() {
            let a = _mm512_loadu_ps(src.as_ptr().add(2 * i));
            let b = _mm512_loadu_ps(src.as_ptr().add(2 * i + 16));
            _mm512_storeu_ps(dst.as_mut_ptr().add(i), _mm512_permutex2var_ps(a, idx, b));
            i += 16;
        }
        for j in i..n {
            *dst.get_unchecked_mut(j) = *src.get_unchecked(2 * j);
        }
    }
}

/// Which of the panel driver's flat `B` columns are output columns, and
/// where they land in a `C` row: flat column `j = r * period + q` is kept
/// iff `q < keep` and is `C` column `r * keep + q`; the rest are *seam*
/// columns — computed, because the tile is, and dropped on the way out.
/// This is what lets the direct convolution read its reduction rows as
/// windows of one zero-padded image: indexed by flat padded position
/// `oh * Wp + ow`, every filter tap's row is one contiguous window, at the
/// price of `Wp - Wo` columns per output row that belong to no output.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Seam {
    pub period: usize,
    pub keep: usize,
}

impl Seam {
    /// Every column kept in place: `C` column `j` is flat column `j`.
    pub(crate) const NONE: Seam = Seam {
        period: usize::MAX,
        keep: usize::MAX,
    };

    /// Cut flat columns `j0..j0 + cols` (`cols <= NR_W`) into runs of kept
    /// columns, written to `runs` as `(lane in the tile, C column, length)`;
    /// returns how many.
    fn runs(self, j0: usize, cols: usize, runs: &mut [(usize, usize, usize); NR_W]) -> usize {
        let (end, mut j, mut n) = (j0 + cols, j0, 0);
        while j < end {
            let (r, q) = (j / self.period, j % self.period);
            if q < self.keep {
                runs[n] = (j - j0, r * self.keep + q, (self.keep - q).min(end - j));
                n += 1;
            }
            j = (r + 1).saturating_mul(self.period);
        }
        n
    }
}

/// Process one `A` panel of `R`-row slivers ([`MR`], or 1 for a single
/// row) against one `B` block at tile width `nr` ([`NR`] or [`NR_W`]; a
/// one-row sliver runs at `NR_W` only), accumulating into the `C` row
/// panel `cpanel` (rows `row0..row0 + mc` of the output, row pitch `ldc`).
/// `B` is read through a per-row offset table: reduction step `p` of the
/// tile at flat column `j` is the `nr` floats at `b[offs[p] + j..]`. The
/// GEMM driver hands in rows read in place (`b` from block row `pc`,
/// `offs[p] = p * ldb`), a transposing pack's rows or a one-tile bounce;
/// the direct convolution tier hands in rows it gathered off the
/// activation image (`offs[p] = p * ldb`, the columns past `nc`
/// zero-filled to a whole tile) or, for stride 1, the overlapping
/// *windows* of one zero-padded image (`offs[p]` = the tap's
/// `ic * Hp * Wp + fh * Wp + fw`) with the [`Seam`] that drops the columns
/// between output rows.
/// Which rows and columns share a register tile, and so the tile and the
/// offsets, never enters an output element's float sequence.
///
/// `jc` is the flat column of the panel's first tile in `C` terms (`b` is
/// already positioned there), `nc` the flat columns to produce. Lanes past
/// `nc` in the last tile, like seam lanes, are computed from whatever
/// `b` holds there and never stored. When `last` is set (final `KC` block
/// of the reduction), `epilogue` runs over each freshly stored tile while
/// it is still cache-hot; `row0` gives it the absolute row index (the
/// `BiasRow*` variants index bias per row).
///
/// `first` marks the reduction's first `KC` block over a caller-zeroed
/// `C`: the tile write-back then *stores* instead of read-modify-writes,
/// saving one read pass over the output per macro-panel. For finite
/// inputs this is bit-identical to accumulating into zero — the register
/// accumulator starts at `+0.0` and IEEE-754 addition can never turn it
/// into `-0.0`, and `0.0 + x == x` bitwise for every other `x`.
///
/// Runtime-dispatch invariant: this function is the only caller of
/// [`run_panel_avx512`], [`run_row_avx512`] and [`run_panel_fma`], and
/// calls each exclusively
/// behind a successful `is_x86_feature_detected!` for its instruction set
/// on the executing thread (CPUID, cached by std), so a binary built for
/// baseline x86_64 stays correct on older hardware: the kernels compiled
/// for those sets are in the binary but never reached. Without them the
/// plain [`microkernel`] runs.
///
/// # Panics
///
/// If a whole last tile would read past `b`. At `MR x NR_W` the bound
/// `max(offs) + round_up(nc, NR_W) <= b.len()` is asserted up front, in
/// release builds too, because the AVX-512 kernel's loads rely on it; the
/// portable body's slicing checks each row it reads.
#[allow(clippy::too_many_arguments)] // hot-path plumbing: all scalars
pub(crate) fn run_panel<const R: usize>(
    nr: usize,
    apack: &[f32],
    b: &[f32],
    offs: &[usize],
    cpanel: &mut [f32],
    ldc: usize,
    seam: Seam,
    row0: usize,
    jc: usize,
    mc: usize,
    nc: usize,
    epilogue: Epilogue<'_>,
    first: bool,
    last: bool,
) {
    debug_assert!(matches!((R, nr), (MR, NR) | (MR, NR_W) | (1, NR_W)));
    // The wide tile may run the one kernel whose loads are unchecked; the
    // portable body slices every row it reads.
    if (R, nr) == (MR, NR_W) {
        let reach = offs.iter().max().map_or(0, |&m| m + round_up(nc, nr));
        assert!(reach <= b.len(), "panel reads {reach} of {}", b.len());
    }
    let panel = Panel {
        apack,
        b,
        offs,
        ldc,
        seam,
        row0,
        jc,
        mc,
        nc,
        epilogue,
        first,
        last,
    };
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    {
        use std::arch::is_x86_feature_detected as has;
        let fma = has!("avx2") && has!("fma");
        match (R, nr) {
            // SAFETY: the `#[target_feature(enable = "avx512f")]` contract
            // is established by the runtime detection on this exact
            // execution path, and the reach precondition is the
            // release-mode assertion above.
            (MR, NR_W) if has!("avx512f") => return unsafe { run_panel_avx512(&panel, cpanel) },
            // SAFETY: safe code compiled for `avx512f`, which the runtime
            // detection establishes here.
            (1, NR_W) if has!("avx512f") => return unsafe { run_row_avx512(&panel, cpanel) },
            // SAFETY: safe code compiled for `avx2,fma`, which the runtime
            // detection establishes here.
            (1, NR_W) if fma => return unsafe { run_panel_fma::<1, NR_W>(&panel, cpanel) },
            // SAFETY: as above.
            (MR, NR) if fma => return unsafe { run_panel_fma::<MR, NR>(&panel, cpanel) },
            _ => {}
        }
    }
    if nr == NR_W {
        panel.run(cpanel, microkernel::<R, NR_W, false>);
    } else {
        panel.run(cpanel, microkernel::<R, NR, false>);
    }
}

/// [`run_panel`]'s operands, past its reach check.
struct Panel<'a> {
    apack: &'a [f32],
    b: &'a [f32],
    offs: &'a [usize],
    ldc: usize,
    seam: Seam,
    row0: usize,
    jc: usize,
    mc: usize,
    nc: usize,
    epilogue: Epilogue<'a>,
    first: bool,
    last: bool,
}

impl Panel<'_> {
    /// The panel loop over an `R x N` `kernel`, `apack` read as `R`-row
    /// slivers. Inlined into each caller, so under [`run_panel_avx512`] /
    /// [`run_panel_fma`] the kernel, the accumulator and the write-back are
    /// compiled for that instruction set together.
    #[inline(always)]
    fn run<const R: usize, const N: usize>(
        &self,
        cpanel: &mut [f32],
        kernel: impl Fn(&[f32], &[f32], &[usize], &mut [[f32; N]; R]),
    ) {
        let (offs, ldc, mc, nc) = (self.offs, self.ldc, self.mc, self.nc);
        let kc = offs.len();
        let mut acc = [[0.0f32; N]; R];
        let mut runs = [(0usize, 0usize, 0usize); NR_W];
        let fuse = self.last && !matches!(self.epilogue, Epilogue::None);
        for j0r in (0..nc).step_by(N) {
            let nruns = self.seam.runs(self.jc + j0r, N.min(nc - j0r), &mut runs);
            // The kernel reads `N` lanes past `offs[p]` in this slice: in
            // bounds by `run_panel`'s assertion, `j0r + N <= round_up(nc,
            // N)`.
            let btile = &self.b[j0r..];
            for (it, asliver) in self.apack[..mc.div_ceil(R) * R * kc]
                .chunks(R * kc)
                .enumerate()
            {
                let i0 = it * R;
                let rows = R.min(mc - i0);
                kernel(asliver, btile, offs, &mut acc);
                for (i, arow) in acc.iter().enumerate().take(rows) {
                    for &(lane, col, len) in &runs[..nruns] {
                        let crow = &mut cpanel[(i0 + i) * ldc + col..][..len];
                        let vals = &arow[lane..lane + len];
                        if self.first {
                            crow.copy_from_slice(vals);
                        } else {
                            for (cv, &av) in crow.iter_mut().zip(vals) {
                                *cv += av;
                            }
                        }
                        if fuse {
                            self.epilogue.apply_row(crow, self.row0 + i0 + i, col);
                        }
                    }
                }
            }
        }
    }
}

/// [`Panel::run`] over [`microkernel_avx512`], the whole loop nest
/// compiled for AVX-512: the kernel inlines into it, and the accumulator
/// write-back runs at the kernel's vector width instead of the baseline
/// build's.
///
/// # Safety
///
/// * The executing CPU must support AVX-512F; [`run_panel`], the only
///   caller, detects it at runtime.
/// * `max(offs) + round_up(nc, NR_W) <= b.len()`, which [`run_panel`]
///   asserts: the kernel's loads rely on it.
#[cfg(all(target_arch = "x86_64", not(miri)))]
#[target_feature(enable = "avx512f")]
unsafe fn run_panel_avx512(panel: &Panel<'_>, cpanel: &mut [f32]) {
    panel.run(cpanel, |asliver, b, offs, acc| {
        // SAFETY: avx512f holds per this function's contract; the A
        // sliver is whole (`asliver.len() == offs.len() * MR`, by the
        // `chunks` in `Panel::run`) and every row offset has `NR_W`
        // readable lanes in `b` by the reach contract.
        unsafe { microkernel_avx512(asliver, b, offs, acc) }
    });
}

/// [`Panel::run`] over the fused [`microkernel`] at `R x N`, the whole
/// loop nest compiled for AVX2+FMA: the `MR x NR` tile, and the `1 x NR_W`
/// tile without AVX-512F, where the CPU has both. Safe code throughout;
/// calling it is `unsafe` only because the CPU must have the instruction
/// sets, which [`run_panel`], the only caller, detects at runtime. At
/// `MR x NR` the body gives the bits of the hand-written AVX2 intrinsics
/// it replaced and reads within a few percent of their speed
/// (EXPERIMENTS E46).
#[cfg(all(target_arch = "x86_64", not(miri)))]
#[target_feature(enable = "avx2,fma")]
fn run_panel_fma<const R: usize, const N: usize>(panel: &Panel<'_>, cpanel: &mut [f32]) {
    // The kernel is a call of its own, compiled for FMA (`mul_add` without
    // it is a libm call). Inlined into the panel loop, the loop's live
    // values left the 8x8 kernel too few registers: it reloaded two
    // pointers from the stack every reduction step.
    #[target_feature(enable = "avx2,fma")]
    #[inline(never)]
    fn kernel<const R: usize, const N: usize>(
        asliver: &[f32],
        b: &[f32],
        offs: &[usize],
        acc: &mut [[f32; N]; R],
    ) {
        microkernel::<R, N, true>(asliver, b, offs, acc)
    }
    panel.run(cpanel, |asliver, b, offs, acc| {
        kernel::<R, N>(asliver, b, offs, acc)
    });
}

/// The same fused body at `1 x NR_W`, compiled for AVX-512F: two 16-lane
/// multiply-adds per reduction step instead of four 8-lane ones, which
/// reads a row streamed from L2 about 1.3x faster (`256 -> 128`: 2.4
/// against 3.1 µs, EXPERIMENTS E46). Same bits: `avx512f` implies FMA.
/// Calling it is `unsafe` only because the CPU must have AVX-512F, which
/// [`run_panel`], the only caller, detects at runtime.
#[cfg(all(target_arch = "x86_64", not(miri)))]
#[target_feature(enable = "avx512f")]
fn run_row_avx512(panel: &Panel<'_>, cpanel: &mut [f32]) {
    // The closure inherits this function's target, so the body inlined
    // into it is compiled with FMA wherever the closure ends up.
    panel.run(cpanel, |asliver, b, offs, acc| {
        microkernel::<1, NR_W, true>(asliver, b, offs, acc)
    });
}

/// Packed GEMM core: `C += op(A) * op(B)` for row-major storage, where
/// `op` is transpose when the corresponding flag is set (`A` stored
/// `[K x M]`, `B` stored `[N x K]`). **Contract:** callers hand in a `C`
/// that already holds the addend — `matmul`-style entry points pass a
/// freshly zeroed buffer (see [`super::gemm_into`]), and the convolution
/// backward accumulates `dW` across blocks through it.
///
/// Runs at the host's tile width ([`host_nr`]); see [`gemm_packed_as`].
#[allow(clippy::too_many_arguments)]
pub(crate) fn gemm_packed_into(
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    a_trans: bool,
    b: &[f32],
    b_trans: bool,
    c: &mut [f32],
) {
    gemm_packed_into_epilogue(m, n, k, a, a_trans, b, b_trans, c, Epilogue::None)
}

/// [`gemm_packed_into`] with a fused write-back [`Epilogue`], applied to
/// every output element exactly once during the final `KC`-block store.
#[allow(clippy::too_many_arguments)]
pub(super) fn gemm_packed_into_epilogue(
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
    let ldb = if b_trans { k } else { n };
    gemm_packed_as(host_nr(), m, n, k, a, a_trans, b, b_trans, ldb, c, epilogue)
}

/// The register tile width packed GEMMs and the direct convolution tier
/// run at on this host: [`NR_W`] where the CPU has AVX-512F, else [`NR`]
/// (AVX2+FMA, or the portable kernel; always under miri). This is the only
/// switch between the widths: there is no option for it.
pub(crate) fn host_nr() -> usize {
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    if std::arch::is_x86_feature_detected!("avx512f") {
        return NR_W;
    }
    NR
}

/// The packed GEMM at tile width `nr` ([`NR`] or [`NR_W`]; callers pass
/// [`host_nr`], tests either), `B` stored at row pitch `ldb` (`>= n`, or
/// `>= k` transposed) — `Linear` passes its weight image, whose rows are
/// padded to whole wide tiles. A single row (`m == 1`) ignores `nr`: it
/// runs the `1 x NR_W` tile, reading `A` in place as its own sliver.
///
/// The `MC` row panels of `C` go through [`par`] with `m * n * k` as their
/// work; each worker packs its own `A` panel, and the `B` block is shared
/// read-only. `B` reaches [`run_panel`] in one of two forms:
///
/// * `B [K x N]`: read in place — reduction row `p` is the caller's row
///   `pc + p`, at offset `p * ldb` from row `pc` — except a ragged last
///   tile that would read past the end of `b`, whose `kc` rows are copied
///   into a zero-padded one-tile bounce;
/// * `B [N x K]`: each block transposed once into `kc` rows padded to
///   whole tiles ([`pack_bt_rows`]).
///
/// Each block's register partial is added into `C` (the driver runs with
/// `first = false`), so the per-element float sequence is the same at
/// every tile and the addend contract holds.
#[allow(clippy::too_many_arguments)]
pub(crate) fn gemm_packed_as(
    nr: usize,
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    a_trans: bool,
    b: &[f32],
    b_trans: bool,
    ldb: usize,
    c: &mut [f32],
    epilogue: Epilogue<'_>,
) {
    debug_assert!(nr == NR || nr == NR_W);
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        // The zero-length reduction leaves C as the caller's addend; the
        // epilogue still owes its pass over every element.
        for (i, crow) in c.chunks_mut(n).enumerate() {
            epilogue.apply_row(crow, i, 0);
        }
        return;
    }
    // One row is a `1 x NR_W` sliver, whatever width was asked for.
    let run = if m == 1 {
        run_panel::<1>
    } else {
        run_panel::<MR>
    };
    let nr = if m == 1 { NR_W } else { nr };
    let bl = Blocking::for_shape(m, n, k);
    let lda = if a_trans { m } else { k };
    let nc_step = round_up(bl.nc, nr);
    // Reduction row `p` of every block sits `p * pitch` past the block's
    // first row — of the caller's `B` read in place, or of the transposing
    // pack — so one offset table serves them all.
    let pitch = if b_trans {
        nc_step.min(round_up(n, nr))
    } else {
        ldb
    };
    let mut offs = [0; KC];
    for (p, off) in offs[..bl.kc].iter_mut().enumerate() {
        *off = p * pitch;
    }
    // Dirty scratch: the transposing pack and the bounce overwrite every
    // float the panel driver reads, edge lanes zero-padded explicitly, so
    // the acquire-time zero-fill would be wasted traffic. Rows read in
    // place draw the bounce tile, and its row offsets, only when a ragged
    // last tile first needs them.
    let mut bpack = if b_trans {
        scratch_dirty(pitch * bl.kc)
    } else {
        Vec::new()
    };
    let mut tile_offs = Vec::new();
    for jc in (0..n).step_by(nc_step) {
        let nc = nc_step.min(n - jc);
        for pc in (0..k).step_by(bl.kc) {
            let kc = bl.kc.min(k - pc);
            let last = pc + kc == k;
            // Columns `..body` of the block read `rows` at `offs`; the
            // rest, less than a tile, read the bounce tile.
            let (rows, body): (&[f32], usize) = if b_trans {
                pack_bt_rows(&mut bpack, pitch, b, ldb, pc, jc, kc, nc);
                (&bpack, nc)
            } else {
                let rows = &b[pc * ldb + jc..];
                // Whole tiles always fit (`b` holds `(k - 1) * ldb + n`
                // floats); only a ragged last tile of `B`'s last rows can
                // reach past it.
                if offs[kc - 1] + round_up(nc, nr) <= rows.len() {
                    (rows, nc)
                } else {
                    if bpack.is_empty() {
                        bpack = scratch_dirty(bl.kc * nr);
                        tile_offs.extend((0..bl.kc).map(|p| p * nr));
                    }
                    let body = nc / nr * nr;
                    let tail = nc - body;
                    for (row, &off) in bpack.chunks_exact_mut(nr).zip(&offs[..kc]) {
                        row[..tail].copy_from_slice(&rows[off + body..off + nc]);
                        row[tail..].fill(0.0);
                    }
                    (rows, body)
                }
            };
            let (offs, bounce, tile_offs) = (&offs[..kc], &bpack[..], &tile_offs[..]);
            par::for_each_chunk(c, bl.mc * n, m * n * k, |chunk, cpanel| {
                let (ic, mc) = (chunk * bl.mc, cpanel.len() / n);
                // One row is its own sliver: `A [1 x K]` and `A [K x 1]`
                // both hold it contiguously, so nothing is packed.
                let apack = (m > 1).then(|| {
                    let mut apack = scratch_zeroed(round_up(mc, MR) * kc);
                    pack_a(&mut apack, a, a_trans, lda, ic, pc, mc, kc);
                    apack
                });
                let sliver = apack.as_deref().unwrap_or(&a[pc..pc + kc]);
                // Safety audit: `run_panel` asserts, in release builds too,
                // that every wide tile's reach stays inside the `B` slice it
                // is handed — the bound the AVX-512 kernel's loads rely on;
                // the portable body checks its own slices — and the A
                // slivers are whole by construction above.
                let mut panel = |b: &[f32], offs: &[usize], j0: usize, cols: usize| {
                    run(
                        nr,
                        sliver,
                        b,
                        offs,
                        cpanel,
                        n,
                        Seam::NONE,
                        ic,
                        j0,
                        mc,
                        cols,
                        epilogue,
                        false,
                        last,
                    )
                };
                if body > 0 {
                    panel(rows, offs, jc, body);
                }
                if body < nc {
                    panel(bounce, &tile_offs[..kc], jc + body, nc - body);
                }
                if let Some(apack) = apack {
                    recycle_scratch(apack);
                }
            });
        }
    }
    if !bpack.is_empty() {
        recycle_scratch(bpack);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blocking_is_total_on_degenerate_shapes() {
        for (m, n, k) in [(0, 0, 0), (1, 1, 0), (0, 5, 3), (1, 1, 1), (7, 3, 1)] {
            let bl = Blocking::for_shape(m, n, k);
            assert!(
                bl.kc >= 1 && bl.mc >= MR && bl.nc >= NR,
                "{m}x{n}x{k}: {bl:?}"
            );
            assert_eq!(bl.mc % MR, 0);
            assert_eq!(bl.nc % NR, 0);
        }
    }

    #[test]
    fn blocking_respects_cache_budgets() {
        let bl = Blocking::for_shape(4096, 4096, 4096);
        assert!(bl.kc <= 256);
        assert!(
            bl.mc * bl.kc * 4 <= 160 * 1024,
            "A panel beyond L2 half: {bl:?}"
        );
        assert!(
            bl.nc * bl.kc * 4 <= 1536 * 1024,
            "B panel beyond L3 share: {bl:?}"
        );
    }

    #[test]
    fn empty_k_leaves_c_untouched() {
        let mut c = vec![0.0f32; 6];
        gemm_packed_into(2, 3, 0, &[], false, &[], false, &mut c);
        assert_eq!(c, vec![0.0; 6]);
    }

    #[test]
    fn epilogue_matches_separate_passes_bitwise() {
        use deep500_tensor::rng::Xoshiro256StarStar;
        use deep500_tensor::Tensor;
        let mut rng = Xoshiro256StarStar::seed_from_u64(3);
        // Multiple KC blocks (k > 256) so the final-block gating matters,
        // plus ragged edges in every dimension.
        let (m, n, k) = (13, 21, 300);
        let a = Tensor::rand_uniform([m, k], -1.0, 1.0, &mut rng);
        let b = Tensor::rand_uniform([k, n], -1.0, 1.0, &mut rng);
        let bias: Vec<f32> = (0..n).map(|j| j as f32 * 0.25 - 2.0).collect();

        let mut unfused = vec![0.0f32; m * n];
        gemm_packed_into(m, n, k, a.data(), false, b.data(), false, &mut unfused);
        for row in unfused.chunks_mut(n) {
            for (cv, &bv) in row.iter_mut().zip(&bias) {
                *cv += bv;
            }
        }
        for v in unfused.iter_mut() {
            *v = v.max(0.0);
        }

        let mut fused = vec![0.0f32; m * n];
        gemm_packed_into_epilogue(
            m,
            n,
            k,
            a.data(),
            false,
            b.data(),
            false,
            &mut fused,
            Epilogue::BiasRelu(&bias),
        );
        assert_eq!(fused, unfused);
    }

    #[test]
    fn epilogue_propagates_nan_like_separate_relu() {
        // A NaN product: relu(NaN) must be 0.0 (f32::max semantics), both
        // fused and unfused.
        let a = [f32::NAN, 1.0];
        let b = [1.0, 1.0, 2.0, -5.0]; // 2x2
        let mut fused = vec![0.0f32; 2];
        gemm_packed_into_epilogue(1, 2, 2, &a, false, &b, false, &mut fused, Epilogue::Relu);
        let mut unfused = vec![0.0f32; 2];
        gemm_packed_into(1, 2, 2, &a, false, &b, false, &mut unfused);
        for v in unfused.iter_mut() {
            *v = v.max(0.0);
        }
        assert!(!fused[0].is_nan() && fused[0] == 0.0);
        assert_eq!(fused[0].to_bits(), unfused[0].to_bits());
        assert_eq!(fused[1].to_bits(), unfused[1].to_bits());
    }

    #[test]
    fn epilogue_runs_even_for_empty_k() {
        let bias = [1.5, -2.0, 3.0];
        let mut c = vec![0.0f32; 6];
        gemm_packed_into_epilogue(
            2,
            3,
            0,
            &[],
            false,
            &[],
            false,
            &mut c,
            Epilogue::BiasRelu(&bias),
        );
        assert_eq!(c, vec![1.5, 0.0, 3.0, 1.5, 0.0, 3.0]);
    }

    #[test]
    fn packing_pads_edge_tiles_with_zeros() {
        // 3x2 A block packed into one MR-sliver: rows 3..MR must be zero.
        let a = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]; // 3x2 row-major
        let mut dst = vec![f32::NAN; MR * 2];
        pack_a(&mut dst, &a, false, 2, 0, 0, 3, 2);
        // p = 0 lane: column 0 of A then zeros.
        assert_eq!(&dst[..MR], &[1.0, 3.0, 5.0, 0.0, 0.0, 0.0, 0.0, 0.0]);
        assert_eq!(&dst[MR..2 * MR], &[2.0, 4.0, 6.0, 0.0, 0.0, 0.0, 0.0, 0.0]);
    }

    #[test]
    fn parallel_and_serial_packed_paths_are_bit_identical() {
        use deep500_tensor::rng::Xoshiro256StarStar;
        use deep500_tensor::Tensor;
        let mut rng = Xoshiro256StarStar::seed_from_u64(11);
        // Above `par`'s cut and spanning several MC panels.
        let (m, n, k) = (300, 96, 64);
        assert!(par::worth_forking(m * n * k));
        let a = Tensor::rand_uniform([m, k], -1.0, 1.0, &mut rng);
        let b = Tensor::rand_uniform([k, n], -1.0, 1.0, &mut rng);
        let mut par = vec![0.0f32; m * n];
        gemm_packed_into(m, n, k, a.data(), false, b.data(), false, &mut par);
        // Serial: run panel-by-panel through the one panel driver, `B`
        // read in place (`n` is a whole number of tiles at either width).
        let mut serial = vec![0.0f32; m * n];
        let (bl, nr) = (Blocking::for_shape(m, n, k), host_nr());
        for jc in (0..n).step_by(bl.nc) {
            let nc = bl.nc.min(n - jc);
            for pc in (0..k).step_by(bl.kc) {
                let kc = bl.kc.min(k - pc);
                let offs: Vec<usize> = (pc..pc + kc).map(|p| p * n).collect();
                for (chunk, cpanel) in serial.chunks_mut(bl.mc * n).enumerate() {
                    let mc = cpanel.len() / n;
                    let mut apack = vec![0.0f32; mc.div_ceil(MR) * MR * kc];
                    pack_a(&mut apack, a.data(), false, k, chunk * bl.mc, pc, mc, kc);
                    run_panel::<MR>(
                        nr,
                        &apack,
                        &b.data()[jc..],
                        &offs,
                        cpanel,
                        n,
                        Seam::NONE,
                        chunk * bl.mc,
                        jc,
                        mc,
                        nc,
                        Epilogue::None,
                        false,
                        pc + kc == k,
                    );
                }
            }
        }
        assert_eq!(par, serial);
    }

    #[test]
    fn seam_runs_keep_the_leading_columns_of_each_period() {
        let mut runs = [(0, 0, 0); NR_W];
        // Period 5, keep 3: flat 3, 4, 8, 9 are seams.
        let seam = Seam { period: 5, keep: 3 };
        let n = seam.runs(2, 10, &mut runs);
        // Flat 2 | 5 6 7 | 10 11 -> C columns 2 | 3 4 5 | 6 7.
        assert_eq!(&runs[..n], &[(0, 2, 1), (3, 3, 3), (8, 6, 2)]);
        // A tile that starts on a seam, and one that is all seam.
        let n = seam.runs(4, 3, &mut runs);
        assert_eq!(&runs[..n], &[(1, 3, 2)]);
        assert_eq!(seam.runs(3, 2, &mut runs), 0);
        // No seam: one run, columns in place.
        let n = Seam::NONE.runs(64, NR_W, &mut runs);
        assert_eq!(&runs[..n], &[(0, 64, NR_W)]);
        // Every column its own period (1x1 on a one-column image).
        let n = Seam { period: 1, keep: 1 }.runs(7, NR_W, &mut runs);
        assert_eq!(n, NR_W);
        assert_eq!(runs[NR_W - 1], (NR_W - 1, 7 + NR_W - 1, 1));
    }

    #[test]
    fn wide_panel_reads_overlapping_windows_and_drops_seams() {
        use deep500_tensor::rng::Xoshiro256StarStar;
        use deep500_tensor::Tensor;
        // A 2-tap "convolution" of a 5-wide signal kept 3 of every 5: B
        // rows are windows of one buffer at offsets 0 and 1, 11 rows of A
        // (an edge sliver), 44 flat columns (an edge tile), two KC blocks.
        let mut rng = Xoshiro256StarStar::seed_from_u64(17);
        let (m, k, flat) = (11usize, 6usize, 44usize);
        let seam = Seam { period: 5, keep: 3 };
        let offs = [0usize, 1, 7, 8, 14, 15];
        let b = Tensor::rand_uniform([15 + 64], -1.0, 1.0, &mut rng);
        let a = Tensor::rand_uniform([m, k], -1.0, 1.0, &mut rng);
        let bias: Vec<f32> = (0..m).map(|i| i as f32 * 0.25 - 1.0).collect();
        let kept: Vec<usize> = (0..flat).filter(|j| j % 5 < 3).collect();
        let ldc = kept.len();
        for nr in [NR, NR_W] {
            let mut c = vec![0.0f32; m * ldc];
            for (pc, kc) in [(0usize, 4usize), (4, 2)] {
                let mut apack = vec![0.0f32; round_up(m, MR) * kc];
                pack_a(&mut apack, a.data(), false, k, 0, pc, m, kc);
                run_panel::<MR>(
                    nr,
                    &apack,
                    b.data(),
                    &offs[pc..pc + kc],
                    &mut c,
                    ldc,
                    seam,
                    0,
                    0,
                    m,
                    flat,
                    Epilogue::BiasRowRelu(&bias),
                    pc == 0,
                    pc + kc == k,
                );
            }
            for i in 0..m {
                for (col, &j) in kept.iter().enumerate() {
                    let dot: f32 = (0..k)
                        .map(|p| a.data()[i * k + p] * b.data()[offs[p] + j])
                        .sum();
                    let want = (dot + bias[i]).max(0.0);
                    assert!(
                        (c[i * ldc + col] - want).abs() < 1e-5,
                        "nr {nr} row {i} flat {j}: {} vs {want}",
                        c[i * ldc + col]
                    );
                }
            }
        }
    }

    #[test]
    fn wide_portable_kernel_matches_the_dispatched_one() {
        use deep500_tensor::rng::Xoshiro256StarStar;
        use deep500_tensor::Tensor;
        // On a host with the SIMD kernels this is the only place the
        // plain body runs inside the panel loop, at each tile; everywhere
        // else the two are the same code.
        fn at<const R: usize, const N: usize>() {
            let mut rng = Xoshiro256StarStar::seed_from_u64(19);
            let offs = [40usize, 3, 3, 0, 97, 64, 65];
            let (m, nc) = (11usize, 40usize);
            let apack = Tensor::rand_uniform([round_up(m, MR) * offs.len()], -1.0, 1.0, &mut rng);
            let b = Tensor::rand_uniform([97 + round_up(nc, NR_W)], -1.0, 1.0, &mut rng);
            let addend = Tensor::rand_uniform([m * nc], -1.0, 1.0, &mut rng);
            let mut dispatched = addend.data().to_vec();
            let mut portable = addend.data().to_vec();
            let (ap, bd) = (apack.data(), b.data());
            let ep = Epilogue::Relu;
            run_panel::<R>(
                N,
                ap,
                bd,
                &offs,
                &mut dispatched,
                nc,
                Seam::NONE,
                0,
                0,
                m,
                nc,
                ep,
                false,
                true,
            );
            let panel = Panel {
                apack: ap,
                b: bd,
                offs: &offs,
                ldc: nc,
                seam: Seam::NONE,
                row0: 0,
                jc: 0,
                mc: m,
                nc,
                epilogue: ep,
                first: false,
                last: true,
            };
            panel.run(&mut portable, microkernel::<R, N, false>);
            for (p, d) in portable.iter().zip(&dispatched) {
                assert!((p - d).abs() < 1e-5, "{R}x{N}: {p} vs {d}");
            }
        }
        at::<MR, NR>();
        at::<MR, NR_W>();
        at::<1, NR_W>();
    }

    #[test]
    #[should_panic(expected = "panel reads 41 of 40")]
    fn wide_panel_refuses_a_tile_that_would_read_past_b() {
        let apack = vec![0.0f32; MR * 2];
        let b = vec![0.0f32; 40];
        let mut c = vec![0.0f32; 8];
        // Offset 9 plus one whole wide tile is 41 floats.
        run_panel::<MR>(
            NR_W,
            &apack,
            &b,
            &[0, 9],
            &mut c,
            8,
            Seam::NONE,
            0,
            0,
            1,
            8,
            Epilogue::None,
            true,
            true,
        );
    }

    #[test]
    fn transposing_pack_matches_scalar_transpose() {
        // Whole 8x8 blocks, ragged edges in both directions, an interior
        // block of a larger operand (`pc`, `jc`), and padding columns that
        // start dirty.
        let (rows, cols) = (21usize, 30usize); // B stored [N x K]
        let b: Vec<f32> = (0..rows * cols).map(|v| v as f32).collect();
        for (pc, jc, kc, nc, ldd) in [(0, 0, 30, 21, 32), (3, 2, 17, 19, 40), (8, 8, 8, 8, 8)] {
            let mut dst = vec![f32::NAN; kc * ldd];
            pack_bt_rows(&mut dst, ldd, &b, cols, pc, jc, kc, nc);
            for p in 0..kc {
                for j in 0..ldd {
                    let want = if j < nc {
                        b[(jc + j) * cols + pc + p]
                    } else {
                        0.0
                    };
                    assert_eq!(
                        dst[p * ldd + j],
                        want,
                        "block {pc},{jc} {kc}x{nc}: p {p} j {j}"
                    );
                }
            }
        }
    }

    #[test]
    fn rows_read_in_place_bounce_only_a_ragged_last_tile() {
        use deep500_tensor::rng::Xoshiro256StarStar;
        use deep500_tensor::Tensor;
        // `B [K x N]` sized exactly: the last row's ragged tile would read
        // past it and must go through the bounce, at every `nc` edge.
        let mut rng = Xoshiro256StarStar::seed_from_u64(29);
        for (m, n, k) in [(3usize, 33usize, 5usize), (9, 70, 300), (1, 7, 2)] {
            let a = Tensor::rand_uniform([m, k], -1.0, 1.0, &mut rng);
            let b = Tensor::rand_uniform([k, n], -1.0, 1.0, &mut rng);
            let run = |nr| {
                let mut c = vec![0.5f32; m * n];
                gemm_packed_as(
                    nr,
                    m,
                    n,
                    k,
                    a.data(),
                    false,
                    b.data(),
                    false,
                    n,
                    &mut c,
                    Epilogue::None,
                );
                c
            };
            let (wide, narrow) = (run(NR_W), run(NR));
            for (w, v) in wide.iter().zip(&narrow) {
                assert!((w - v).abs() < 1e-4, "{m}x{n}x{k}: {w} vs {v}");
            }
        }
    }
}

#[cfg(test)]
pub(crate) mod properties {
    use super::*;
    use deep500_tensor::rng::Xoshiro256StarStar;
    use deep500_tensor::Tensor;
    use proptest::prelude::*;

    /// Whether the two tiles' kernels round alike here: both fused
    /// (AVX-512 host, whose narrow tile runs AVX2+FMA) or both portable
    /// (no AVX2+FMA, or miri). On an AVX2-only host the wide tile runs its
    /// portable kernel, which the driver never selects there.
    pub(crate) fn tiles_round_alike() -> bool {
        #[cfg(all(target_arch = "x86_64", not(miri)))]
        {
            host_nr() == NR_W
                || !(std::arch::is_x86_feature_detected!("avx2")
                    && std::arch::is_x86_feature_detected!("fma"))
        }
        #[cfg(not(all(target_arch = "x86_64", not(miri))))]
        {
            true
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(if cfg!(miri) { 3 } else { 64 }))]

        /// The wide and the narrow tile give the same bits over the same
        /// operand forms: `A` plain or transposed; `B` read in place (its
        /// ragged last tile bounced), at a padded row pitch like `Linear`'s
        /// weight image, or transposed through the pack; reductions past
        /// one `KC` block, ragged edges, an addend in `C` and every
        /// epilogue `Linear` and `MatMul` fuse. Under miri both run the
        /// portable kernel, which checks the offset tables, the bounce
        /// tile, the transposing pack and the reach assertion at both
        /// widths. The tiles agree bitwise for finite values, ±inf and the
        /// canonical `f32::NAN`; a NaN input with its sign bit or a payload
        /// set may leave with different NaN bits per tile (the FMA operand
        /// order picks which NaN propagates), so the operands drawn here
        /// are finite.
        #[test]
        fn wide_and_narrow_tiles_agree_bitwise(
            m in 1usize..if cfg!(miri) { 12 } else { 160 },
            n in 1usize..if cfg!(miri) { 40 } else { 90 },
            k in 1usize..if cfg!(miri) { 300 } else { 601 },
            a_trans in any::<bool>(),
            b_trans in any::<bool>(),
            pad in 0usize..40,
            which in 0u8..4,
            seed in 0u64..1000,
        ) {
            let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
            let a = Tensor::rand_uniform([m * k], -1.0, 1.0, &mut rng);
            // A padded pitch only where `B` is read as rows.
            let ldb = if b_trans { k } else { n + pad };
            let rows = if b_trans { n } else { k };
            let b = Tensor::rand_uniform([(rows - 1) * ldb + if b_trans { k } else { n }], -1.0, 1.0, &mut rng);
            let addend = Tensor::rand_uniform([m * n], -1.0, 1.0, &mut rng);
            let bias = Tensor::rand_uniform([n], -1.0, 1.0, &mut rng);
            let ep = match which {
                0 => Epilogue::None,
                1 => Epilogue::Bias(bias.data()),
                2 => Epilogue::BiasRelu(bias.data()),
                _ => Epilogue::Relu,
            };
            let run = |nr| {
                let mut c = addend.data().to_vec();
                gemm_packed_as(nr, m, n, k, a.data(), a_trans, b.data(), b_trans, ldb, &mut c, ep);
                c
            };
            let (wide, narrow) = (run(NR_W), run(NR));
            if tiles_round_alike() {
                let bits = |c: &[f32]| c.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                prop_assert_eq!(bits(&wide), bits(&narrow), "{}x{}x{} {:?}", m, n, k, ep);
            } else {
                for (w, v) in wide.iter().zip(&narrow) {
                    prop_assert!((w - v).abs() <= 1e-4 * (1.0 + v.abs()), "{} vs {}", w, v);
                }
            }
        }

        /// A row computed alone is the same row of a 2–9-row product (2–3
        /// under miri), bit for bit, in the operand form of every packed
        /// entry point:
        /// `matmul` (`A`, `B` as stored), `matmul_a_bt_with` (`B`
        /// transposed) with and without an epilogue, and
        /// `matmul_at_b_with` (`A` transposed); at `k = 0` and at the drawn
        /// `k`, up to two `KC` blocks. The batch runs at both forced widths
        /// and the row on its own `1 x NR_W` tile, which rounds like the
        /// narrow tile on every host and like the wide one wherever the
        /// two tiles round alike. The entry points themselves run at the
        /// host's width, where that always holds. A row alone is its row
        /// in a batch for finite values, ±inf and the canonical
        /// `f32::NAN`; a NaN input with its sign bit or a payload set may
        /// leave with different NaN bits per tile, so the operands drawn
        /// here are finite.
        #[test]
        fn a_row_alone_is_its_row_in_a_batch(
            m in 2usize..if cfg!(miri) { 4 } else { 10 },
            n in 1usize..if cfg!(miri) { 40 } else { 90 },
            drawn_k in 1usize..if cfg!(miri) { 300 } else { 601 },
            entry in 0u8..4,
            relu in any::<bool>(),
            seed in 0u64..1000,
        ) {
            use crate::gemm::{self, Algorithm::Packed};
            let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
            let (a_trans, b_trans) = (entry == 3, entry == 1 || entry == 2);
            let bias = Tensor::rand_uniform([n], -1.0, 1.0, &mut rng);
            let ep = match (entry, relu) {
                (2, false) => Epilogue::Bias(bias.data()),
                (2, true) => Epilogue::BiasRelu(bias.data()),
                _ => Epilogue::None,
            };
            let bits = |c: &[f32]| c.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            for k in [0, drawn_k] {
                let ad = Tensor::rand_uniform([m * k], -1.0, 1.0, &mut rng);
                let (a, b) = (ad.data(), Tensor::rand_uniform([n * k], -1.0, 1.0, &mut rng));
                let ldb = if b_trans { k } else { n };
                // Row `r` of `op(A)`, which is its own stored form either way.
                let row = |r: usize| -> Vec<f32> {
                    (0..k).map(|p| if a_trans { a[p * m + r] } else { a[r * k + p] }).collect()
                };
                let public = |rows: usize, a: &[f32]| {
                    let at = Tensor::from_vec(if a_trans { [k, rows] } else { [rows, k] }, a.to_vec()).unwrap();
                    let bt = Tensor::from_vec(if b_trans { [n, k] } else { [k, n] }, b.data().to_vec()).unwrap();
                    match entry {
                        0 => gemm::matmul(Packed, &at, &bt),
                        1 => gemm::matmul_a_bt_with(Packed, &at, &bt),
                        2 => gemm::matmul_a_bt_with_epilogue(Packed, &at, &bt, ep),
                        _ => gemm::matmul_at_b_with(Packed, &at, &bt),
                    }
                    .unwrap()
                };
                let batch = public(m, a);
                for nr in [NR, NR_W] {
                    let run = |rows: usize, a: &[f32]| {
                        let mut c = vec![0.0f32; rows * n];
                        gemm_packed_as(nr, rows, n, k, a, a_trans, b.data(), b_trans, ldb, &mut c, ep);
                        c
                    };
                    let forced = run(m, a);
                    for r in 0..m {
                        let (alone, want) = (run(1, &row(r)), &forced[r * n..(r + 1) * n]);
                        if nr == NR || tiles_round_alike() {
                            prop_assert_eq!(bits(&alone), bits(want), "nr {} {}x{}x{} entry {} row {}", nr, m, n, k, entry, r);
                        } else {
                            for (s, v) in alone.iter().zip(want) {
                                prop_assert!((s - v).abs() <= 1e-4 * (1.0 + v.abs()), "{} vs {}", s, v);
                            }
                        }
                    }
                }
                for r in 0..m {
                    let alone = public(1, &row(r));
                    prop_assert_eq!(bits(alone.data()), bits(&batch.data()[r * n..(r + 1) * n]), "host width, {}x{}x{} entry {} row {}", m, n, k, entry, r);
                }
            }
        }
    }
}
