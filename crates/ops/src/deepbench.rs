//! DeepBench problem-size suites.
//!
//! The paper's Level-0 evaluation (Fig. 6) runs "160 different matrix
//! multiplication sizes and 94 convolution dimensions, typically found in
//! DL workloads", collected from Baidu's DeepBench. We embed representative
//! subsets of the published DeepBench suites (training kernels from DeepMark
//! networks: AlexNet/VGG/ResNet convs, speech/NMT GEMMs), plus the two
//! highlighted problem sizes the paper box-plots:
//!
//! * GEMM `M = K = 2560, N = 64`,
//! * convolution `N = 16, C = 3, H = W = 224`, 3×3 filters.

/// A GEMM problem size `C[MxN] = A[MxK] * B[KxN]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GemmSize {
    pub m: usize,
    pub n: usize,
    pub k: usize,
}

impl GemmSize {
    pub const fn new(m: usize, n: usize, k: usize) -> Self {
        GemmSize { m, n, k }
    }

    /// FLOP count of this GEMM.
    pub fn flops(&self) -> f64 {
        deep500_metrics::flops::counts::gemm(self.m, self.n, self.k)
    }
}

/// A convolution problem size (NCHW, square kernels, symmetric padding).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvSize {
    pub n: usize,
    pub c: usize,
    pub h: usize,
    pub w: usize,
    pub k: usize, // output channels
    pub r: usize, // kernel extent
    pub stride: usize,
    pub pad: usize,
}

impl ConvSize {
    #[allow(clippy::too_many_arguments)]
    pub const fn new(
        n: usize,
        c: usize,
        h: usize,
        w: usize,
        k: usize,
        r: usize,
        stride: usize,
        pad: usize,
    ) -> Self {
        ConvSize {
            n,
            c,
            h,
            w,
            k,
            r,
            stride,
            pad,
        }
    }

    /// Output spatial extent, from the conv operator's own geometry.
    /// Every suite size is a valid convolution.
    pub fn out_hw(&self) -> (usize, usize) {
        let g = crate::conv::ConvGeometry {
            stride: self.stride,
            pad: self.pad,
        };
        let extent = |x| g.out_extent(x, self.r).expect("a valid convolution size");
        (extent(self.h), extent(self.w))
    }

    /// FLOP count of this convolution.
    pub fn flops(&self) -> f64 {
        let (ho, wo) = self.out_hw();
        deep500_metrics::flops::counts::conv2d(self.n, self.c, self.k, ho, wo, self.r, self.r)
    }
}

/// The GEMM size the paper highlights in Fig. 6b's box plot.
pub const HIGHLIGHTED_GEMM: GemmSize = GemmSize::new(2560, 64, 2560);

/// The convolution size the paper highlights in Fig. 6a's box plot
/// (`N=16, C=3, H=W=224`, 3×3 filters; first VGG-style layer).
pub const HIGHLIGHTED_CONV: ConvSize = ConvSize::new(16, 3, 224, 224, 64, 3, 1, 1);

/// Representative subset of the DeepBench training GEMM suite (shapes from
/// speech (DeepSpeech), NMT and vision workloads). The full suite has 160
/// entries; we keep the shape diversity (tall-skinny, square, wide) while
/// remaining laptop-runnable.
pub fn gemm_suite() -> Vec<GemmSize> {
    vec![
        GemmSize::new(1760, 16, 1760),
        GemmSize::new(1760, 32, 1760),
        GemmSize::new(1760, 64, 1760),
        GemmSize::new(1760, 128, 1760),
        GemmSize::new(2048, 16, 2048),
        GemmSize::new(2048, 32, 2048),
        GemmSize::new(2048, 64, 2048),
        GemmSize::new(2560, 16, 2560),
        GemmSize::new(2560, 32, 2560),
        HIGHLIGHTED_GEMM, // 2560 x 64 x 2560
        GemmSize::new(1024, 128, 1024),
        GemmSize::new(512, 256, 512),
        GemmSize::new(128, 1024, 128),
        GemmSize::new(4096, 16, 512),
        GemmSize::new(512, 512, 512),
        GemmSize::new(1024, 1024, 64),
    ]
}

/// Representative subset of the DeepBench convolution suite (AlexNet, VGG,
/// ResNet layer shapes at reduced batch). The full suite has 94 entries.
pub fn conv_suite() -> Vec<ConvSize> {
    vec![
        // VGG-style first layers
        HIGHLIGHTED_CONV, // 16 x 3 x 224 x 224, 3x3
        ConvSize::new(8, 64, 112, 112, 128, 3, 1, 1),
        ConvSize::new(8, 128, 56, 56, 256, 3, 1, 1),
        ConvSize::new(8, 256, 28, 28, 512, 3, 1, 1),
        // ResNet bottleneck shapes
        ConvSize::new(8, 64, 56, 56, 64, 1, 1, 0),
        ConvSize::new(8, 64, 56, 56, 64, 3, 1, 1),
        ConvSize::new(8, 256, 56, 56, 64, 1, 1, 0),
        ConvSize::new(8, 128, 28, 28, 128, 3, 1, 1),
        ConvSize::new(8, 512, 7, 7, 512, 3, 1, 1),
        // AlexNet-style large kernels / strides
        ConvSize::new(16, 3, 227, 227, 64, 11, 4, 0),
        ConvSize::new(16, 64, 27, 27, 192, 5, 1, 2),
        ConvSize::new(16, 192, 13, 13, 384, 3, 1, 1),
    ]
}

/// Scale a suite down for quick runs: shrink batch to 1 and cap spatial
/// extents — used by the test suite to exercise the full code path cheaply.
pub fn shrink_conv(cs: &ConvSize, max_hw: usize) -> ConvSize {
    ConvSize {
        n: 1,
        c: cs.c.min(16),
        h: cs.h.min(max_hw),
        w: cs.w.min(max_hw),
        k: cs.k.min(16),
        r: cs.r.min(cs.h.min(max_hw)),
        stride: cs.stride,
        pad: cs.pad,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suites_are_nonempty_and_contain_highlights() {
        let gemms = gemm_suite();
        assert!(gemms.len() >= 16);
        assert!(gemms.contains(&HIGHLIGHTED_GEMM));
        let convs = conv_suite();
        assert!(convs.len() >= 12);
        assert!(convs.contains(&HIGHLIGHTED_CONV));
    }

    #[test]
    fn highlighted_sizes_match_paper() {
        assert_eq!(
            (HIGHLIGHTED_GEMM.m, HIGHLIGHTED_GEMM.n, HIGHLIGHTED_GEMM.k),
            (2560, 64, 2560)
        );
        assert_eq!(
            (
                HIGHLIGHTED_CONV.n,
                HIGHLIGHTED_CONV.c,
                HIGHLIGHTED_CONV.h,
                HIGHLIGHTED_CONV.r
            ),
            (16, 3, 224, 3)
        );
    }

    #[test]
    fn conv_output_extents() {
        let (ho, wo) = HIGHLIGHTED_CONV.out_hw();
        assert_eq!((ho, wo), (224, 224)); // same padding
        let alex = ConvSize::new(16, 3, 227, 227, 64, 11, 4, 0);
        assert_eq!(alex.out_hw(), (55, 55));
    }

    #[test]
    fn flops_positive_and_consistent() {
        for g in gemm_suite() {
            assert!(g.flops() > 0.0);
        }
        for c in conv_suite() {
            assert!(c.flops() > 0.0);
        }
        assert_eq!(GemmSize::new(2, 3, 4).flops(), 48.0);
    }

    #[test]
    fn shrink_caps_extents() {
        let s = shrink_conv(&HIGHLIGHTED_CONV, 32);
        assert_eq!(s.n, 1);
        assert!(s.h <= 32 && s.w <= 32);
        assert!(s.flops() < HIGHLIGHTED_CONV.flops());
    }
}
