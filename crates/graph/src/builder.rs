//! Fluent network construction with automatic parameter initialization.
//!
//! While the paper builds networks by parsing ONNX, researchers also build
//! them programmatically; the builder tracks the sample shape through the
//! layer stack, auto-names tensors, and initializes parameters with
//! Xavier/He schemes from a single seed (reproducibility).

use crate::network::Network;
use deep500_ops::conv::ConvGeometry;
use deep500_ops::registry::Attributes;
use deep500_tensor::rng::{init, Xoshiro256StarStar};
use deep500_tensor::{Error, Result, Tensor};

/// What flows between layers while building.
#[derive(Debug, Clone)]
enum Flow {
    /// `[C, H, W]` image sample (batch dim implicit).
    Image(usize, usize, usize),
    /// `[F]` feature-vector sample.
    Features(usize),
}

/// `(h_out, w_out)` of a `kernel`-square window over `h × w`, from the
/// conv operator's own geometry — the one place output sizes are computed.
fn out_hw(geometry: ConvGeometry, h: usize, w: usize, kernel: usize) -> Result<(usize, usize)> {
    Ok((
        geometry.out_extent(h, kernel)?,
        geometry.out_extent(w, kernel)?,
    ))
}

/// Fluent builder for feed-forward networks.
pub struct NetworkBuilder {
    net: Network,
    rng: Xoshiro256StarStar,
    flow: Flow,
    /// Name of the tensor currently flowing out of the stack.
    cursor: String,
    counter: usize,
    err: Option<Error>,
}

impl NetworkBuilder {
    /// Start from an image input `x` of sample shape `[c, h, w]`.
    pub fn image_input(name: &str, c: usize, h: usize, w: usize, seed: u64) -> Self {
        let mut net = Network::new(name);
        net.add_input("x");
        NetworkBuilder {
            net,
            rng: Xoshiro256StarStar::seed_from_u64(seed),
            flow: Flow::Image(c, h, w),
            cursor: "x".into(),
            counter: 0,
            err: None,
        }
    }

    /// Start from a feature-vector input `x` of `features` elements.
    pub fn vector_input(name: &str, features: usize, seed: u64) -> Self {
        let mut net = Network::new(name);
        net.add_input("x");
        NetworkBuilder {
            net,
            rng: Xoshiro256StarStar::seed_from_u64(seed),
            flow: Flow::Features(features),
            cursor: "x".into(),
            counter: 0,
            err: None,
        }
    }

    fn fresh(&mut self, tag: &str) -> String {
        self.counter += 1;
        format!("{tag}{}", self.counter)
    }

    fn fail(&mut self, e: Error) {
        if self.err.is_none() {
            self.err = Some(e);
        }
    }

    /// Convolution layer on the direct tier (`algorithm = "direct"`), the
    /// one the tracked `BENCH_conv.json` sweep ranks first on every shape
    /// it holds. Use [`Self::conv_with_algo`] to name another tier.
    pub fn conv(mut self, out_c: usize, kernel: usize, stride: usize, pad: usize) -> Self {
        self.conv_impl(out_c, kernel, stride, pad, "direct");
        self
    }

    /// Convolution with an explicit algorithm choice.
    ///
    /// Public for: §IV-C, Level 0's choice of implementation per operator,
    /// made from the network builder.
    pub fn conv_with_algo(
        mut self,
        out_c: usize,
        kernel: usize,
        stride: usize,
        pad: usize,
        algo: &str,
    ) -> Self {
        self.conv_impl(out_c, kernel, stride, pad, algo);
        self
    }

    fn conv_impl(&mut self, out_c: usize, kernel: usize, stride: usize, pad: usize, algo: &str) {
        let (c, h, w) = match self.flow {
            Flow::Image(c, h, w) => (c, h, w),
            Flow::Features(_) => {
                return self.fail(Error::Invalid("conv on feature-vector flow".into()))
            }
        };
        let (ho, wo) = match out_hw(ConvGeometry { stride, pad }, h, w, kernel) {
            Ok(hw) => hw,
            Err(e) => return self.fail(e),
        };
        let out = self.fresh("conv");
        let wname = format!("{out}.w");
        let bname = format!("{out}.b");
        let fan_in = c * kernel * kernel;
        let mut wt = Tensor::zeros([out_c, c, kernel, kernel]);
        init::he_normal(&mut self.rng, wt.data_mut(), fan_in);
        self.net.add_parameter(&wname, wt);
        self.net.add_parameter(&bname, Tensor::zeros([out_c]));
        let r = self.net.add_node(
            &out,
            "Conv2d",
            Attributes::new()
                .with_int("stride", stride as i64)
                .with_int("pad", pad as i64)
                .with_str("algorithm", algo),
            &[&self.cursor.clone(), &wname, &bname],
            &[&out],
        );
        if let Err(e) = r {
            return self.fail(e);
        }
        self.flow = Flow::Image(out_c, ho, wo);
        self.cursor = out;
    }

    /// Generic single-input single-output op on the cursor.
    fn unary(&mut self, op_type: &str, attrs: Attributes, tag: &str) {
        let out = self.fresh(tag);
        let r = self
            .net
            .add_node(&out, op_type, attrs, &[&self.cursor.clone()], &[&out]);
        if let Err(e) = r {
            return self.fail(e);
        }
        self.cursor = out;
    }

    /// ReLU activation.
    pub fn relu(mut self) -> Self {
        self.unary("Relu", Attributes::new(), "relu");
        self
    }

    /// Sigmoid activation.
    pub fn sigmoid(mut self) -> Self {
        self.unary("Sigmoid", Attributes::new(), "sigmoid");
        self
    }

    /// Tanh activation.
    pub fn tanh(mut self) -> Self {
        self.unary("Tanh", Attributes::new(), "tanh");
        self
    }

    /// Max pooling.
    pub fn maxpool(mut self, kernel: usize, stride: usize) -> Self {
        match self.flow {
            Flow::Image(c, h, w) => match out_hw(ConvGeometry { stride, pad: 0 }, h, w, kernel) {
                Ok((ho, wo)) => self.flow = Flow::Image(c, ho, wo),
                Err(e) => {
                    self.fail(e);
                    return self;
                }
            },
            Flow::Features(_) => {
                self.fail(Error::Invalid("pool on feature-vector flow".into()));
                return self;
            }
        }
        self.unary(
            "MaxPool2d",
            Attributes::new()
                .with_int("kernel", kernel as i64)
                .with_int("stride", stride as i64),
            "pool",
        );
        self
    }

    /// Flatten `[C, H, W]` to features.
    pub fn flatten(mut self) -> Self {
        if let Flow::Image(c, h, w) = self.flow {
            self.flow = Flow::Features(c * h * w);
            self.unary("Flatten", Attributes::new(), "flat");
        }
        self
    }

    /// Dense (fully-connected) layer.
    pub fn dense(mut self, out_features: usize) -> Self {
        let fin = match self.flow {
            Flow::Features(f) => f,
            Flow::Image(..) => {
                self.fail(Error::Invalid("dense on image flow; flatten first".into()));
                return self;
            }
        };
        let out = self.fresh("fc");
        let wname = format!("{out}.w");
        let bname = format!("{out}.b");
        let mut wt = Tensor::zeros([out_features, fin]);
        init::xavier_uniform(&mut self.rng, wt.data_mut(), fin, out_features);
        self.net.add_parameter(&wname, wt);
        self.net
            .add_parameter(&bname, Tensor::zeros([out_features]));
        let r = self.net.add_node(
            &out,
            "Linear",
            Attributes::new(),
            &[&self.cursor.clone(), &wname, &bname],
            &[&out],
        );
        if let Err(e) = r {
            self.fail(e);
            return self;
        }
        self.flow = Flow::Features(out_features);
        self.cursor = out;
        self
    }

    /// Dropout layer with a derived deterministic seed.
    pub fn dropout(mut self, ratio: f32) -> Self {
        let seed = self.rng.next_u64();
        self.unary(
            "Dropout",
            Attributes::new()
                .with_float("ratio", ratio as f64)
                .with_int("seed", (seed & 0x7FFF_FFFF) as i64),
            "drop",
        );
        self
    }

    /// Close the network for classification training: rename the cursor to
    /// `logits`, attach a `SoftmaxCrossEntropy` loss against a `labels`
    /// input, and declare `logits` and `loss` as graph outputs.
    pub fn classifier_loss(mut self) -> Self {
        // Alias the cursor via a Scale(1,0) identity named `logits` so the
        // output name is stable regardless of stack depth.
        let cursor = self.cursor.clone();
        if let Err(e) = self.net.add_node(
            "logits_alias",
            "Scale",
            Attributes::new().with_float("alpha", 1.0),
            &[&cursor],
            &["logits"],
        ) {
            self.fail(e);
            return self;
        }
        self.net.add_input("labels");
        if let Err(e) = self.net.add_node(
            "loss_node",
            "SoftmaxCrossEntropy",
            Attributes::new(),
            &["logits", "labels"],
            &["loss"],
        ) {
            self.fail(e);
            return self;
        }
        self.net.add_output("logits");
        self.net.add_output("loss");
        self.cursor = "loss".into();
        self
    }

    /// Finish, declaring the cursor as the output if no loss was attached.
    pub fn build(mut self) -> Result<Network> {
        if let Some(e) = self.err.take() {
            return Err(e);
        }
        if self.net.graph_outputs().is_empty() {
            let cursor = self.cursor.clone();
            self.net.add_output(cursor);
        }
        Ok(self.net)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::{GraphExecutor, ReferenceExecutor};

    #[test]
    fn builds_a_runnable_cnn() {
        let net = NetworkBuilder::image_input("cnn", 1, 8, 8, 42)
            .conv(4, 3, 1, 1)
            .relu()
            .maxpool(2, 2)
            .flatten()
            .dense(10)
            .classifier_loss()
            .build()
            .unwrap();
        assert_eq!(
            net.graph_outputs(),
            &["logits".to_string(), "loss".to_string()]
        );
        let mut ex = ReferenceExecutor::construct(net, usize::MAX).unwrap();
        let x = Tensor::zeros([2, 1, 8, 8]);
        let labels = Tensor::from_slice(&[1.0, 3.0]);
        let out = ex
            .inference_and_backprop(&[("x", x), ("labels", labels)], "loss")
            .unwrap();
        assert_eq!(out["logits"].shape().dims(), &[2, 10]);
        assert!(out["loss"].data()[0] > 0.0);
        // All parameters got gradients.
        for p in ex.network().get_params().to_vec() {
            assert!(
                ex.network().fetch_tensor(&crate::grad_name(&p)).is_ok(),
                "{p}"
            );
        }
    }

    #[test]
    fn shape_tracking() {
        let b = NetworkBuilder::image_input("t", 3, 32, 32, 0)
            .conv(8, 5, 1, 2)
            .maxpool(2, 2);
        assert!(matches!(b.flow, Flow::Image(8, 16, 16)));
        let b = b.flatten();
        assert!(matches!(b.flow, Flow::Features(2048)));
    }

    #[test]
    fn misuse_is_reported_at_build() {
        let r = NetworkBuilder::image_input("bad", 1, 4, 4, 0)
            .dense(10) // dense on image flow without flatten
            .build();
        assert!(r.is_err());
        let r = NetworkBuilder::vector_input("bad2", 8, 0)
            .conv(4, 3, 1, 1)
            .build();
        assert!(r.is_err());
        let r = NetworkBuilder::image_input("bad3", 1, 4, 4, 0)
            .conv(2, 9, 1, 0) // kernel too large
            .build();
        assert!(r.is_err());
    }

    #[test]
    fn deterministic_initialization() {
        let a = NetworkBuilder::vector_input("a", 4, 7)
            .dense(3)
            .build()
            .unwrap();
        let b = NetworkBuilder::vector_input("b", 4, 7)
            .dense(3)
            .build()
            .unwrap();
        assert_eq!(
            a.fetch_tensor("fc1.w").unwrap(),
            b.fetch_tensor("fc1.w").unwrap()
        );
        let c = NetworkBuilder::vector_input("c", 4, 8)
            .dense(3)
            .build()
            .unwrap();
        assert_ne!(
            a.fetch_tensor("fc1.w").unwrap(),
            c.fetch_tensor("fc1.w").unwrap()
        );
    }

    #[test]
    fn vector_mlp_without_loss_outputs_cursor() {
        let net = NetworkBuilder::vector_input("mlp", 6, 1)
            .dense(4)
            .tanh()
            .dense(2)
            .build()
            .unwrap();
        assert_eq!(net.graph_outputs().len(), 1);
        let mut ex = ReferenceExecutor::construct(net, usize::MAX).unwrap();
        let out = ex.inference(&[("x", Tensor::zeros([3, 6]))]).unwrap();
        assert_eq!(out.values().next().unwrap().shape().dims(), &[3, 2]);
    }
}
