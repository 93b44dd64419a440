//! Floating-point-operation counting.
//!
//! Deep500 reports FLOPs as a per-operator and per-network performance
//! metric. Operators declare their analytical FLOP cost from these counts;
//! combined with wallclock time, they yield FLOP/s rates.

/// Analytical FLOP counts for the standard dense kernels, shared by the
/// operator implementations and the benchmark harnesses.
pub mod counts {
    /// GEMM `C[MxN] = A[MxK] * B[KxN]`: one multiply + one add per inner step.
    pub fn gemm(m: usize, n: usize, k: usize) -> f64 {
        2.0 * m as f64 * n as f64 * k as f64
    }

    /// Direct 2-D convolution with `n` images, `c_in`/`c_out` channels,
    /// `h_out * w_out` output pixels and a `kh x kw` kernel.
    #[allow(clippy::too_many_arguments)]
    pub fn conv2d(
        n: usize,
        c_in: usize,
        c_out: usize,
        h_out: usize,
        w_out: usize,
        kh: usize,
        kw: usize,
    ) -> f64 {
        2.0 * n as f64
            * c_out as f64
            * h_out as f64
            * w_out as f64
            * c_in as f64
            * kh as f64
            * kw as f64
    }

    /// Elementwise op over `len` values, `ops_per_element` FLOPs each.
    pub fn elementwise(len: usize, ops_per_element: usize) -> f64 {
        len as f64 * ops_per_element as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gemm_count() {
        assert_eq!(counts::gemm(2, 3, 4), 48.0);
    }

    #[test]
    fn conv_count_matches_im2col_gemm() {
        // conv as GEMM: M=c_out, N=n*h_out*w_out, K=c_in*kh*kw
        let (n, ci, co, ho, wo, kh, kw) = (2, 3, 8, 5, 5, 3, 3);
        assert_eq!(
            counts::conv2d(n, ci, co, ho, wo, kh, kw),
            counts::gemm(co, n * ho * wo, ci * kh * kw)
        );
    }

    #[test]
    fn elementwise_count() {
        assert_eq!(counts::elementwise(10, 2), 20.0);
    }
}
