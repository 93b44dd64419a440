//! Direct kernel invocation and native-operator wrapping.
//!
//! Two pieces of the paper's Level-0 evaluation live here:
//!
//! * [`run_kernel_framework`] — a kernel call as the profiled framework
//!   makes it (the DeepBench mode, which "only calls a given kernel and
//!   outputs the resulting GPU runtime", is a plain `Operator::forward`),
//! * [`NativeOpWrapper`] — the Rust analogue of
//!   `custom_op_from_native` (Listing 5): wrap any operator behind
//!   Deep500's descriptor-checked interface so it can be validated and
//!   benchmarked; Fig. 6 shows this wrapping costs <1%, which
//!   `tests::wrapping_overhead_is_small` asserts.

use crate::profile::FrameworkProfile;
use deep500_ops::operator::Operator;
use deep500_tensor::{Result, Shape, Tensor, TensorDesc};

/// Run an operator's forward pass the way the profiled framework would:
/// dispatch burn + optional input copies + the kernel.
pub fn run_kernel_framework(
    profile: &FrameworkProfile,
    op: &dyn Operator,
    inputs: &[&Tensor],
) -> Result<Vec<Tensor>> {
    profile.dispatch();
    if profile.input_copies {
        let copies: Vec<Tensor> = inputs.iter().map(|&t| t.clone()).collect();
        let refs: Vec<&Tensor> = copies.iter().collect();
        op.forward(&refs)
    } else {
        op.forward(inputs)
    }
}

/// A native operator wrapped behind the Deep500 custom-operator interface:
/// declares tensor descriptors, validates them on call, and forwards to
/// the wrapped implementation — `custom_op_from_native` (Listing 5).
pub struct NativeOpWrapper<O: Operator> {
    inner: O,
    input_descs: Vec<TensorDesc>,
}

impl<O: Operator> NativeOpWrapper<O> {
    /// Wrap `inner`, declaring the descriptors of the tensors it accepts.
    pub fn new(inner: O, input_descs: Vec<TensorDesc>) -> Self {
        NativeOpWrapper { inner, input_descs }
    }

    /// Descriptor check: shapes of `inputs` must match the declaration.
    fn check_descs(&self, inputs: &[&Tensor]) -> Result<()> {
        if inputs.len() != self.input_descs.len() {
            return Err(deep500_tensor::Error::Invalid(format!(
                "{}: {} inputs vs {} descriptors",
                self.inner.name(),
                inputs.len(),
                self.input_descs.len()
            )));
        }
        for (t, d) in inputs.iter().zip(&self.input_descs) {
            if t.shape() != &d.shape {
                return Err(deep500_tensor::Error::ShapeMismatch(format!(
                    "{}: tensor {} vs descriptor {}",
                    self.inner.name(),
                    t.shape(),
                    d.shape
                )));
            }
        }
        Ok(())
    }
}

impl<O: Operator> Operator for NativeOpWrapper<O> {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn num_inputs(&self) -> usize {
        self.inner.num_inputs()
    }
    fn num_outputs(&self) -> usize {
        self.inner.num_outputs()
    }
    fn output_shapes(&self, s: &[&Shape]) -> Result<Vec<Shape>> {
        self.inner.output_shapes(s)
    }
    fn forward(&self, inputs: &[&Tensor]) -> Result<Vec<Tensor>> {
        self.check_descs(inputs)?;
        self.inner.forward(inputs)
    }
    fn backward(
        &self,
        grad_outputs: &[&Tensor],
        inputs: &[&Tensor],
        outputs: &[&Tensor],
    ) -> Result<Vec<Tensor>> {
        self.inner.backward(grad_outputs, inputs, outputs)
    }
    fn backward_wanted(
        &self,
        grad_outputs: &[&Tensor],
        inputs: &[&Tensor],
        outputs: &[&Tensor],
        wanted: &[bool],
    ) -> Result<Vec<Option<Tensor>>> {
        self.inner
            .backward_wanted(grad_outputs, inputs, outputs, wanted)
    }
    fn flops(&self, s: &[&Shape]) -> f64 {
        self.inner.flops(s)
    }
    fn workspace_bytes(&self, s: &[&Shape]) -> usize {
        self.inner.workspace_bytes(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deep500_metrics::stats::Summary;
    use deep500_metrics::Timer;
    use deep500_ops::gemm::{Algorithm, MatMulOp};
    use deep500_ops::operator::checked_forward;
    use deep500_tensor::Xoshiro256StarStar;

    fn gemm_case(n: usize) -> (MatMulOp, Tensor, Tensor) {
        let mut rng = Xoshiro256StarStar::seed_from_u64(3);
        (
            MatMulOp::new(Algorithm::Parallel),
            Tensor::rand_uniform([n, n], -1.0, 1.0, &mut rng),
            Tensor::rand_uniform([n, n], -1.0, 1.0, &mut rng),
        )
    }

    #[test]
    fn direct_and_wrapped_agree() {
        let (op, a, b) = gemm_case(32);
        let direct = op.forward(&[&a, &b]).unwrap();
        let wrapper = NativeOpWrapper::new(
            MatMulOp::new(Algorithm::Parallel),
            vec![TensorDesc::f32([32, 32]), TensorDesc::f32([32, 32])],
        );
        let wrapped = checked_forward(&wrapper, &[&a, &b]).unwrap();
        assert_eq!(direct[0], wrapped[0]);
    }

    #[test]
    fn descriptor_mismatch_is_caught() {
        let (_, a, b) = gemm_case(32);
        let wrapper = NativeOpWrapper::new(
            MatMulOp::new(Algorithm::Parallel),
            vec![TensorDesc::f32([16, 16]), TensorDesc::f32([16, 16])],
        );
        assert!(wrapper.forward(&[&a, &b]).is_err());
        let wrapper2 = NativeOpWrapper::new(
            MatMulOp::new(Algorithm::Parallel),
            vec![TensorDesc::f32([32, 32])],
        );
        assert!(wrapper2.forward(&[&a, &b]).is_err());
    }

    #[test]
    fn framework_profile_adds_overhead_to_kernel() {
        let (op, a, b) = gemm_case(64);
        let tf = FrameworkProfile::tensorflow();
        let mut direct_t = Vec::new();
        let mut tf_t = Vec::new();
        for _ in 0..20 {
            let (_, t) = Timer::time(|| op.forward(&[&a, &b]).unwrap());
            direct_t.push(t);
            let (_, t) = Timer::time(|| run_kernel_framework(&tf, &op, &[&a, &b]).unwrap());
            tf_t.push(t);
        }
        let d = Summary::of(&direct_t).median;
        let f = Summary::of(&tf_t).median;
        assert!(f > d, "framework path {f} must exceed direct {d}");
    }

    #[test]
    fn wrapping_overhead_is_small() {
        // The paper's <1% claim for Deep500-wrapped operators. We use a
        // kernel large enough that the descriptor check is noise, and a
        // generous 5% bound to stay robust on shared CI machines.
        let (op, a, b) = gemm_case(256);
        let wrapper = NativeOpWrapper::new(
            MatMulOp::new(Algorithm::Parallel),
            vec![TensorDesc::f32([256, 256]), TensorDesc::f32([256, 256])],
        );
        let mut direct_t = Vec::new();
        let mut wrapped_t = Vec::new();
        for _ in 0..15 {
            let (_, t) = Timer::time(|| op.forward(&[&a, &b]).unwrap());
            direct_t.push(t);
            let (_, t) = Timer::time(|| checked_forward(&wrapper, &[&a, &b]).unwrap());
            wrapped_t.push(t);
        }
        let d = Summary::of(&direct_t);
        let w = Summary::of(&wrapped_t);
        // Within CIs or within 5% — the paper's "statistically
        // indistinguishable" criterion.
        assert!(
            w.median_ci.overlaps(&d.median_ci) || w.median < d.median * 1.05,
            "wrapped {} vs direct {}",
            w.median,
            d.median
        );
    }
}
