//! Global average pooling: `[N,C,H,W] -> [N,C]`.
//!
//! The standard ResNet classification head (the paper's ResNet-18/50
//! models end in one); included so the model zoo's residual networks can
//! use the real head instead of a strided max-pool.

use crate::operator::Operator;
use deep500_tensor::{Error, Result, Shape, Tensor};

/// Global average pooling over the spatial dimensions.
#[derive(Debug, Clone, Default)]
pub struct GlobalAvgPoolOp;

impl Operator for GlobalAvgPoolOp {
    fn name(&self) -> &str {
        "GlobalAvgPool"
    }
    fn num_inputs(&self) -> usize {
        1
    }
    fn output_shapes(&self, s: &[&Shape]) -> Result<Vec<Shape>> {
        if s[0].rank() != 4 {
            return Err(Error::ShapeMismatch(format!(
                "GlobalAvgPool requires rank-4 input, got {}",
                s[0]
            )));
        }
        Ok(vec![Shape::new(&[s[0].dim(0), s[0].dim(1)])])
    }
    fn forward(&self, inputs: &[&Tensor]) -> Result<Vec<Tensor>> {
        let x = inputs[0];
        let s = x.shape();
        if s.rank() != 4 {
            return Err(Error::ShapeMismatch(format!(
                "GlobalAvgPool requires rank-4 input, got {s}"
            )));
        }
        let (n, c, h, w) = (s.dim(0), s.dim(1), s.dim(2), s.dim(3));
        let plane = h * w;
        if plane == 0 {
            return Err(Error::Invalid("empty spatial dimensions".into()));
        }
        let mut out = Tensor::zeros([n, c]);
        for (o, xplane) in out.data_mut().iter_mut().zip(x.data().chunks_exact(plane)) {
            let sum: f64 = xplane.iter().map(|&v| v as f64).sum();
            *o = (sum / plane as f64) as f32;
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
        let s = x.shape();
        let plane = s.dim(2) * s.dim(3);
        let g = grad_outputs[0];
        let mut dx = Tensor::zeros(s.clone());
        if plane > 0 {
            for (dplane, &gv) in dx.data_mut().chunks_exact_mut(plane).zip(g.data()) {
                dplane.fill(gv / plane as f32);
            }
        }
        Ok(vec![dx])
    }
    fn flops(&self, s: &[&Shape]) -> f64 {
        s[0].numel() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grad_check::test_gradient;
    use deep500_tensor::Xoshiro256StarStar;

    #[test]
    fn averages_each_plane() {
        let x = Tensor::from_vec(
            [1, 2, 2, 2],
            vec![1.0, 2.0, 3.0, 4.0, 10.0, 10.0, 10.0, 10.0],
        )
        .unwrap();
        let y = GlobalAvgPoolOp.forward(&[&x]).unwrap();
        assert_eq!(y[0].shape(), &Shape::new(&[1, 2]));
        assert_eq!(y[0].data(), &[2.5, 10.0]);
    }

    #[test]
    fn backward_distributes_uniformly() {
        let x = Tensor::ones([1, 1, 2, 2]);
        let y = GlobalAvgPoolOp.forward(&[&x]).unwrap();
        let g = Tensor::from_vec([1, 1], vec![4.0]).unwrap();
        let dx = GlobalAvgPoolOp.backward(&[&g], &[&x], &[&y[0]]).unwrap();
        assert_eq!(dx[0].data(), &[1.0, 1.0, 1.0, 1.0]);
    }

    #[test]
    fn gradient_check() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(1);
        let x = Tensor::rand_uniform([2, 3, 4, 4], -1.0, 1.0, &mut rng);
        let report = test_gradient(&GlobalAvgPoolOp, &[&x], 1e-3, 40).unwrap();
        assert!(report.passes(5e-3), "{}", report.max_rel_error);
    }

    #[test]
    fn rejects_bad_rank() {
        assert!(GlobalAvgPoolOp
            .output_shapes(&[&Shape::new(&[2, 3])])
            .is_err());
        assert!(GlobalAvgPoolOp.forward(&[&Tensor::zeros([2, 3])]).is_err());
    }
}
