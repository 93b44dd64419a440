//! Wanted-gradient elision: both executors tell each operator which input
//! gradients have a reader (`Operator::backward_wanted`) and skip the rest
//! — the first layer's dX above all. The rule is shared, so eliding must
//! leave the Reference / Planned bit-identity contract untouched.

use deep500_graph::{grad_name, models, Engine, ExecutorKind, Network};
use deep500_ops::conv::{Conv2dOp, ConvAlgorithm};
use deep500_ops::registry::{register_op, Attributes};
use deep500_ops::Operator;
use deep500_tensor::rng::Xoshiro256StarStar;
use deep500_tensor::{Result, Shape, Tensor};
use std::sync::Mutex;

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

fn image_feeds(batch: usize, c: usize, hw: usize, classes: usize) -> Vec<(&'static str, Tensor)> {
    let mut rng = Xoshiro256StarStar::seed_from_u64(11);
    let labels: Vec<f32> = (0..batch).map(|i| (i % classes) as f32).collect();
    vec![
        (
            "x",
            Tensor::rand_uniform([batch, c, hw, hw], -1.0, 1.0, &mut rng),
        ),
        ("labels", Tensor::from_slice(&labels)),
    ]
}

#[test]
fn parameter_gradients_stay_bitwise_equal_across_executors() {
    // Batch 11 splits unevenly over the conv backward's eight lanes.
    let zoo: Vec<(&str, Network, usize, usize)> = vec![
        ("lenet", models::lenet(3, 16, 10, 24).unwrap(), 3, 16),
        (
            "alexnet_like",
            models::alexnet_like(3, 16, 5, 9).unwrap(),
            3,
            16,
        ),
        (
            "resnet_like",
            models::resnet_like(2, 8, 4, 2, 3, 7).unwrap(),
            2,
            8,
        ),
    ];
    for (name, net, c, hw) in zoo {
        let feeds = image_feeds(11, c, hw, 3);
        let planned = Engine::builder(net.clone_structure())
            .executor(ExecutorKind::Planned)
            .build()
            .unwrap();
        let reference = Engine::builder(net).build().unwrap();
        let (mut planned, mut reference) = (planned.lock(), reference.lock());
        for pass in 0..2 {
            let p = planned.inference_and_backprop(&feeds, "loss").unwrap();
            let r = reference.inference_and_backprop(&feeds, "loss").unwrap();
            assert_eq!(
                bits(&p["loss"]),
                bits(&r["loss"]),
                "{name}: loss, pass {pass}"
            );
            let params = reference.network().get_params().to_vec();
            assert!(!params.is_empty());
            for param in params {
                let g = grad_name(&param);
                let pg = planned.network().fetch_tensor(&g).unwrap();
                let rg = reference.network().fetch_tensor(&g).unwrap();
                assert_eq!(bits(pg), bits(rg), "{name}: '{g}' differs, pass {pass}");
                assert!(
                    pg.data().iter().any(|v| *v != 0.0),
                    "{name}: '{g}' is all zero — a gradient was elided that had a reader"
                );
            }
        }
    }
}

/// `(node tag, wanted mask)` for every `ProbeConv2d` backward call.
static SEEN: Mutex<Vec<(String, Vec<bool>)>> = Mutex::new(Vec::new());

/// A `Conv2d` that records the `wanted` mask its executor hands it.
struct ProbeConv {
    tag: String,
    inner: Conv2dOp,
}

impl Operator for ProbeConv {
    fn name(&self) -> &str {
        "ProbeConv2d"
    }
    fn num_inputs(&self) -> usize {
        3
    }
    fn output_shapes(&self, s: &[&Shape]) -> Result<Vec<Shape>> {
        self.inner.output_shapes(s)
    }
    fn forward(&self, inputs: &[&Tensor]) -> Result<Vec<Tensor>> {
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
        let grads = self
            .inner
            .backward_wanted(grad_outputs, inputs, outputs, wanted)?;
        let computed: Vec<bool> = grads.iter().map(Option::is_some).collect();
        assert_eq!(
            computed, wanted,
            "{}: Conv2d computes exactly what is wanted",
            self.tag
        );
        SEEN.lock()
            .unwrap()
            .push((self.tag.clone(), wanted.to_vec()));
        Ok(grads)
    }
}

/// `x -> conv(first) -> relu -> conv(inner) -> flatten -> dense -> loss`.
fn conv_chain() -> Network {
    register_op("ProbeConv2d", |attrs: &Attributes| {
        Ok(Box::new(ProbeConv {
            tag: attrs.str_or("tag", "").to_string(),
            inner: Conv2dOp::new(1, attrs.int_or("pad", 0) as usize, ConvAlgorithm::Im2col),
        }) as Box<dyn Operator>)
    });
    let mut rng = Xoshiro256StarStar::seed_from_u64(5);
    let mut net = Network::new("conv_chain");
    net.add_input("x");
    net.add_input("labels");
    let mut param = |net: &mut Network, name: &str, shape: &[usize]| {
        net.add_parameter(name, Tensor::rand_uniform(shape, -0.3, 0.3, &mut rng));
    };
    param(&mut net, "w1", &[4, 2, 3, 3]);
    param(&mut net, "b1", &[4]);
    param(&mut net, "w2", &[3, 4, 3, 3]);
    param(&mut net, "b2", &[3]);
    param(&mut net, "wd", &[5, 3 * 6 * 6]);
    param(&mut net, "bd", &[5]);
    let conv = |tag: &str, pad: i64| Attributes::new().with_str("tag", tag).with_int("pad", pad);
    net.add_node(
        "conv_first",
        "ProbeConv2d",
        conv("first", 1),
        &["x", "w1", "b1"],
        &["h1"],
    )
    .unwrap();
    net.add_node("relu", "Relu", Attributes::new(), &["h1"], &["h2"])
        .unwrap();
    net.add_node(
        "conv_inner",
        "ProbeConv2d",
        conv("inner", 0),
        &["h2", "w2", "b2"],
        &["h3"],
    )
    .unwrap();
    net.add_node("flat", "Flatten", Attributes::new(), &["h3"], &["h4"])
        .unwrap();
    net.add_node(
        "dense",
        "Linear",
        Attributes::new(),
        &["h4", "wd", "bd"],
        &["logits"],
    )
    .unwrap();
    net.add_node(
        "loss_node",
        "SoftmaxCrossEntropy",
        Attributes::new(),
        &["logits", "labels"],
        &["loss"],
    )
    .unwrap();
    net.add_output("loss");
    net
}

#[test]
fn first_conv_skips_dx_and_the_inner_conv_still_gets_it() {
    let feeds = image_feeds(5, 2, 8, 5);
    let mut w1_grads = Vec::new();
    for kind in [ExecutorKind::Reference, ExecutorKind::Planned] {
        SEEN.lock().unwrap().clear();
        let engine = Engine::builder(conv_chain())
            .executor(kind)
            .build()
            .unwrap();
        let mut exec = engine.lock();
        exec.inference_and_backprop(&feeds, "loss").unwrap();
        let mut seen = SEEN.lock().unwrap().clone();
        seen.sort();
        assert_eq!(
            seen,
            vec![
                // x is a feed: nobody reads dX.
                ("first".to_string(), vec![false, true, true]),
                // h2 has a producer, whose backward consumes dX.
                ("inner".to_string(), vec![true, true, true]),
            ],
            "{kind:?}"
        );
        // The inner conv's dX really flowed: the first conv's weight
        // gradient depends on it.
        let g = exec
            .network()
            .fetch_tensor(&grad_name("w1"))
            .unwrap()
            .clone();
        assert!(g.data().iter().any(|v| *v != 0.0), "{kind:?}: dW1 is zero");
        w1_grads.push(bits(&g));
    }
    assert_eq!(w1_grads[0], w1_grads[1], "dW1 differs between executors");
}
