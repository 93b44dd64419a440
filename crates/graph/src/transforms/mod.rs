//! Graph transformations (Level-1 "Transformable" capability).
//!
//! The paper separates the network abstraction from operators precisely so
//! that "researchers can build their own graph transformations to optimize
//! between operators". Two transformations are provided, matching the
//! paper's evaluation and motivation:
//!
//! * [`microbatch`] — the micro-batch convolution rewrite of Oyama et al.
//!   (§V-C, Fig. 7): `Conv -> Split + k·Conv + Concat` under a memory
//!   constraint, with per-micro-batch algorithm selection,
//! * [`fusion`] — elementwise-operator fusion (the Caffe2-style fused-Adam
//!   optimization of Use Case 1): chains of elementwise ops collapse into a
//!   single operator, removing per-operator dispatch overhead.

pub mod fusion;
pub mod microbatch;

#[cfg(test)]
mod tests {
    use crate::models;
    use deep500_tensor::{Error, Shape};
    use deep500_verify::shape_pass;

    #[test]
    fn shape_pass_infers_through_lenet() {
        let net = models::lenet(1, 28, 10, 0).unwrap();
        let mut lints = Vec::new();
        let shapes = shape_pass::infer(
            &net.to_ir(),
            &[
                ("x", Shape::new(&[4, 1, 28, 28])),
                ("labels", Shape::new(&[4])),
            ],
            &[],
            &mut lints,
        );
        assert!(lints.is_empty(), "{lints:?}");
        assert_eq!(shapes["logits"], Shape::new(&[4, 10]));
        assert_eq!(shapes["loss"], Shape::scalar());
        // First conv: same padding keeps 28x28 with 6 channels.
        assert_eq!(shapes["conv1"], Shape::new(&[4, 6, 28, 28]));
    }

    #[test]
    fn missing_input_shape_is_reported() {
        // No shape for `x`: nothing downstream of it is inferred, and the
        // micro-batch rewrite cannot size the first convolution.
        let mut net = models::lenet(1, 28, 10, 0).unwrap();
        let err = super::microbatch::microbatch_convolutions(
            &mut net,
            &[("labels", Shape::new(&[4]))],
            1,
        )
        .unwrap_err();
        assert!(matches!(err, Error::NotFound(_)), "{err}");
    }
}
