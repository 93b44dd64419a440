//! The fully-connected (dense) layer: `Y = X Wᵀ + b`.
//!
//! Inputs: `X [N, in]`, `W [out, in]`, `b [out]`; output `Y [N, out]`.
//! Backed by the Level-0 GEMM kernels. Under `Packed` the forward reads
//! one per-instance weight image, `Wᵀ` as `[in x round_up(out, NR_W)]`
//! rows, memoized on the weight's version and rewritten in place when it
//! changes. Every batch size is one packed GEMM reading the image's rows
//! as `B` through the one panel driver: a single row (`N == 1`, the
//! closed-loop serving case) runs as a one-row sliver on the `1 x NR_W`
//! tile, with no packing of either operand, and more rows run the batched
//! tiles — so no call packs `Wᵀ`, and a row served alone is bit-identical
//! to the same row inside any batch.

use crate::gemm::packed::{gemm_packed_as, host_nr, pack_bt_rows, round_up, NR_W};
use crate::gemm::{self, Algorithm, Epilogue};
use crate::memo::VersionMemo;
use crate::operator::Operator;
use deep500_tensor::{Error, Result, Shape, Tensor};
use std::sync::Arc;

/// Fully-connected layer operator. The bias add always rides the GEMM
/// write-back epilogue (zero extra memory traffic under `Packed`), and a
/// downstream ReLU can be folded in too (`epilogue = "relu"` attribute,
/// installed by the graph crate's epilogue-fusion transform). Both fusions
/// are bit-identical to the separate passes — same per-element float
/// sequence, including NaN-to-0 under `max`.
#[derive(Debug, Clone, Default)]
pub struct LinearOp {
    pub algo: Algorithm,
    /// Fold `max(x, 0)` into the write-back after the bias add.
    pub relu: bool,
    /// The `[K x n_pad]` transposed, column-padded weight image the
    /// `Packed` forward reads at every batch size, memoized on the
    /// weight's version.
    cache: VersionMemo<Vec<f32>>,
}

impl LinearOp {
    pub fn new(algo: Algorithm) -> Self {
        LinearOp {
            algo,
            ..LinearOp::default()
        }
    }

    /// Enable the fused ReLU epilogue.
    pub fn with_relu(mut self, relu: bool) -> Self {
        self.relu = relu;
        self
    }

    /// Fetch (or build and memoize) the `[K x round_up(out, NR_W)]`
    /// transposed weight image of a `[out, K]` parameter, zero-padding the
    /// trailing columns so the kernels' whole-tile loads stay in bounds and
    /// inert. A rebuild rewrites the replaced image's buffer when no pass
    /// still holds it.
    fn transposed(&self, w: &Tensor, fout: usize, fin: usize) -> Arc<Vec<f32>> {
        self.cache.get_or_build(w, |w, old| {
            let n_pad = round_up(fout, NR_W);
            let mut wt = old.unwrap_or_default();
            wt.resize(fin * n_pad, 0.0);
            pack_bt_rows(&mut wt, n_pad, w.data(), fin, 0, 0, fin, fout);
            wt
        })
    }

    fn dims(&self, x: &Shape, w: &Shape, b: &Shape) -> Result<(usize, usize, usize)> {
        if x.rank() != 2 || w.rank() != 2 || b.rank() != 1 {
            return Err(Error::ShapeMismatch(format!("Linear: X {x}, W {w}, b {b}")));
        }
        let (n, fin) = (x.dim(0), x.dim(1));
        let (fout, fin2) = (w.dim(0), w.dim(1));
        if fin != fin2 || b.dim(0) != fout {
            return Err(Error::ShapeMismatch(format!(
                "Linear: X {x} W {w} b {b} are inconsistent"
            )));
        }
        Ok((n, fin, fout))
    }
}

impl Operator for LinearOp {
    fn name(&self) -> &str {
        "Linear"
    }
    fn num_inputs(&self) -> usize {
        3
    }
    fn output_shapes(&self, s: &[&Shape]) -> Result<Vec<Shape>> {
        let (n, _, fout) = self.dims(s[0], s[1], s[2])?;
        Ok(vec![Shape::new(&[n, fout])])
    }
    fn forward(&self, inputs: &[&Tensor]) -> Result<Vec<Tensor>> {
        let (x, w, b) = (inputs[0], inputs[1], inputs[2]);
        let (n, fin, fout) = self.dims(x.shape(), w.shape(), b.shape())?;
        // Y = X * Wᵀ (+ b, [+ ReLU]) in one write-back pass.
        let epilogue = if self.relu {
            Epilogue::BiasRelu(b.data())
        } else {
            Epilogue::Bias(b.data())
        };
        if self.algo == Algorithm::Packed {
            // Safety audit: the packed GEMM reads whole tiles of every
            // image row, at any tile, so each row is padded to
            // `round_up(fout, NR_W)` lanes; `transposed` builds exactly
            // that layout, `run_panel` asserts the wide tile's reach
            // against it (the portable body checks its own slices), and
            // the CI miri job interprets the `linear` tests to check it.
            let wt = self.transposed(w, fout, fin);
            let mut y = Tensor::zeros([n, fout]);
            let ldb = round_up(fout, NR_W);
            let (xd, yd) = (x.data(), y.data_mut());
            gemm_packed_as(
                host_nr(),
                n,
                fout,
                fin,
                xd,
                false,
                &wt,
                false,
                ldb,
                yd,
                epilogue,
            );
            return Ok(vec![y]);
        }
        let y = gemm::matmul_a_bt_with_epilogue(self.algo, x, w, epilogue)?;
        Ok(vec![y])
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
        let g = grad_outputs[0]; // [N, out]
        let (x, w, b) = (inputs[0], inputs[1], inputs[2]);
        // With the fused ReLU, first mask the incoming gradient exactly
        // like a standalone Relu node's backward: g * (y > 0 ? 1 : 0),
        // where y is this op's (post-ReLU) output.
        let masked;
        let g = if self.relu {
            let y = outputs[0];
            masked = g.zip(y, |gv, yv| gv * if yv > 0.0 { 1.0 } else { 0.0 })?;
            &masked
        } else {
            g
        };
        // dX = g * W          [N, in] — skipped for a first layer, whose
        // input is a feed nobody differentiates.
        let dx = if wanted[0] {
            Some(gemm::matmul(self.algo, g, w)?)
        } else {
            None
        };
        // dW = gᵀ * X         [out, in]
        let dw = gemm::matmul_at_b_with(self.algo, g, x)?;
        // db = column sums of g
        let fout = g.shape().dim(1);
        let mut db = Tensor::zeros(b.shape().clone());
        let dbd = db.data_mut();
        for grow in g.data().chunks_exact(fout.max(1)) {
            for (acc, &gv) in dbd.iter_mut().zip(grow) {
                *acc += gv;
            }
        }
        Ok(vec![dx, Some(dw), Some(db)])
    }
    fn flops(&self, s: &[&Shape]) -> f64 {
        deep500_metrics::flops::counts::gemm(s[0].dim(0), s[1].dim(0), s[0].dim(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_known_values() {
        // X = [[1, 2]], W = [[1, 0], [0, 1], [1, 1]], b = [0, 10, 100]
        let x = Tensor::from_vec([1, 2], vec![1.0, 2.0]).unwrap();
        let w = Tensor::from_vec([3, 2], vec![1.0, 0.0, 0.0, 1.0, 1.0, 1.0]).unwrap();
        let b = Tensor::from_slice(&[0.0, 10.0, 100.0]);
        let y = LinearOp::default().forward(&[&x, &w, &b]).unwrap();
        assert_eq!(y[0].data(), &[1.0, 12.0, 103.0]);
    }

    #[test]
    fn backward_shapes_and_bias_grad() {
        let x = Tensor::from_vec([2, 3], vec![1.0; 6]).unwrap();
        let w = Tensor::from_vec([4, 3], vec![0.5; 12]).unwrap();
        let b = Tensor::zeros([4]);
        let op = LinearOp::default();
        let y = op.forward(&[&x, &w, &b]).unwrap();
        let g = Tensor::ones([2, 4]);
        let grads = op.backward(&[&g], &[&x, &w, &b], &[&y[0]]).unwrap();
        assert_eq!(grads[0].shape(), &Shape::new(&[2, 3]));
        assert_eq!(grads[1].shape(), &Shape::new(&[4, 3]));
        assert_eq!(grads[2].shape(), &Shape::new(&[4]));
        // db = sum over batch of ones = 2 per output
        assert!(grads[2].data().iter().all(|&v| v == 2.0));
        // dX row = sum of W rows = 4 * 0.5 = 2.0 per input feature
        assert!(grads[0].data().iter().all(|&v| v == 2.0));
    }

    #[test]
    fn single_row_gemv_is_bit_identical_to_batched_rows() {
        use deep500_tensor::rng::Xoshiro256StarStar;
        let mut rng = Xoshiro256StarStar::seed_from_u64(11);
        // Ragged out-features (neither a multiple of the one-row tile nor
        // the narrow batched tile) and k past one KC block to exercise the
        // chunking;
        // then the distributed MLP's three layers (64 -> 256 -> 128 -> 8)
        // and LeNet's three (400 or 64 flattened -> 120 -> 84 -> 10), each
        // inside batches of 2..9 rows. Miri interprets the first three.
        let shapes: &[(usize, usize)] = &[
            (120, 84),
            (300, 37),
            (64, 120),
            (64, 256),
            (256, 128),
            (128, 8),
            (400, 120),
            (84, 10),
        ];
        let (shapes, batches) = if cfg!(miri) {
            (&shapes[..3], 2..=3)
        } else {
            (shapes, 2..=9)
        };
        for &(fin, fout) in shapes {
            let w = Tensor::rand_uniform([fout, fin], -1.0, 1.0, &mut rng);
            let b = Tensor::rand_uniform([fout], -1.0, 1.0, &mut rng);
            for n in batches.clone() {
                let xb = Tensor::rand_uniform([n, fin], -1.0, 1.0, &mut rng);
                for relu in [false, true] {
                    let op = LinearOp::new(Algorithm::Packed).with_relu(relu);
                    let yb = op.forward(&[&xb, &w, &b]).unwrap();
                    for r in 0..n {
                        let xr = xb.slice_axis0(r, 1).unwrap();
                        let yr = op.forward(&[&xr, &w, &b]).unwrap();
                        let got: Vec<u32> = yr[0].data().iter().map(|v| v.to_bits()).collect();
                        let want: Vec<u32> = yb[0].data()[r * fout..(r + 1) * fout]
                            .iter()
                            .map(|v| v.to_bits())
                            .collect();
                        assert_eq!(
                            got, want,
                            "{fin}x{fout} n={n} relu={relu}: solo row {r} diverged from its batched row"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn gemv_cache_tracks_weight_content() {
        // Same instance, two different weight tensors: the memo must not
        // serve the first image for the second tensor.
        let op = LinearOp::new(Algorithm::Packed);
        let x = Tensor::from_vec([1, 2], vec![1.0, 2.0]).unwrap();
        let b = Tensor::zeros([2]);
        let w1 = Tensor::from_vec([2, 2], vec![1.0, 0.0, 0.0, 1.0]).unwrap();
        let y1 = op.forward(&[&x, &w1, &b]).unwrap();
        assert_eq!(y1[0].data(), &[1.0, 2.0]);
        let w2 = Tensor::from_vec([2, 2], vec![0.0, 1.0, 1.0, 0.0]).unwrap();
        let y2 = op.forward(&[&x, &w2, &b]).unwrap();
        assert_eq!(y2[0].data(), &[2.0, 1.0]);
    }

    #[test]
    fn inconsistent_shapes_rejected() {
        let op = LinearOp::default();
        let x = Shape::new(&[2, 3]);
        let w = Shape::new(&[4, 5]); // wrong in-features
        let b = Shape::new(&[4]);
        assert!(op.output_shapes(&[&x, &w, &b]).is_err());
        let w = Shape::new(&[4, 3]);
        let b = Shape::new(&[5]); // wrong bias
        assert!(op.output_shapes(&[&x, &w, &b]).is_err());
    }
}
