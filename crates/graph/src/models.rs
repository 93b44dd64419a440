//! Model zoo: the architectures the paper benchmarks with, scaled to run
//! on a CPU substrate.
//!
//! The paper "facilitates access to DNN architectures (as ONNX files) for
//! LeNet, ResNet with varying depths, and Wide ResNet"; its experiments use
//! LeNet/MNIST, ResNet-18/50 on CIFAR/ImageNet, and AlexNet for the
//! micro-batch study. We provide: [`lenet`], [`mlp`], [`alexnet_like`]
//! (large early convolutions, the OOM workload of Fig. 7), and
//! [`resnet_like`] (residual blocks with batchnorm and skip `Add`s).
//!
//! [`zoo`] is the one list of named, sized instances of those builders
//! that the bench entries, the `deep500-verify` gate and the parity / plan /
//! verifier test suites all run over.

use crate::builder::NetworkBuilder;
use crate::network::Network;
use deep500_ops::registry::Attributes;
use deep500_tensor::rng::{init, Xoshiro256StarStar};
use deep500_tensor::{Result, Shape, Tensor};

/// LeNet-5-style CNN for `in_c x hw x hw` inputs (MNIST: 1×28×28).
/// Ends in a softmax-cross-entropy loss with inputs `x` and `labels` and
/// outputs `logits` / `loss`.
pub fn lenet(in_c: usize, hw: usize, classes: usize, seed: u64) -> Result<Network> {
    NetworkBuilder::image_input("lenet", in_c, hw, hw, seed)
        .conv(6, 5, 1, 2)
        .relu()
        .maxpool(2, 2)
        .conv(16, 5, 1, 0)
        .relu()
        .maxpool(2, 2)
        .flatten()
        .dense(120)
        .relu()
        .dense(84)
        .relu()
        .dense(classes)
        .classifier_loss()
        .build()
}

/// Multi-layer perceptron: `features -> hidden* -> classes`, ReLU between
/// layers, classifier loss at the end.
pub fn mlp(features: usize, hidden: &[usize], classes: usize, seed: u64) -> Result<Network> {
    let mut b = NetworkBuilder::vector_input("mlp", features, seed);
    for &h in hidden {
        b = b.dense(h).relu();
    }
    b.dense(classes).classifier_loss().build()
}

/// AlexNet-style convolution stack: the large-minibatch convolution
/// workload of the paper's Level-1 micro-batching experiment. Kept
/// shallow (the experiment exercises the first conv's memory footprint,
/// not ImageNet accuracy).
pub fn alexnet_like(in_c: usize, hw: usize, classes: usize, seed: u64) -> Result<Network> {
    NetworkBuilder::image_input("alexnet", in_c, hw, hw, seed)
        .conv(16, 5, 2, 2)
        .relu()
        .maxpool(2, 2)
        .conv(32, 3, 1, 1)
        .relu()
        .maxpool(2, 2)
        .flatten()
        .dense(64)
        .relu()
        .dense(classes)
        .classifier_loss()
        .build()
}

/// A small residual network: stem conv, `blocks` residual blocks
/// (conv-bn-relu-conv-bn + skip `Add`, then relu), global pooling via
/// strided max-pool, dense classifier. Stands in for the paper's
/// ResNet-18/50 at laptop scale.
pub fn resnet_like(
    in_c: usize,
    hw: usize,
    channels: usize,
    blocks: usize,
    classes: usize,
    seed: u64,
) -> Result<Network> {
    let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
    let mut net = Network::new("resnet");
    net.add_input("x");
    net.add_input("labels");

    let add_conv = |net: &mut Network,
                    name: &str,
                    cin: usize,
                    cout: usize,
                    input: &str,
                    output: &str,
                    rng: &mut Xoshiro256StarStar|
     -> Result<()> {
        let wname = format!("{name}.w");
        let bname = format!("{name}.b");
        let mut w = Tensor::zeros([cout, cin, 3, 3]);
        init::he_normal(rng, w.data_mut(), cin * 9);
        net.add_parameter(&wname, w);
        net.add_parameter(&bname, Tensor::zeros([cout]));
        net.add_node(
            name,
            "Conv2d",
            Attributes::new()
                .with_int("stride", 1)
                .with_int("pad", 1)
                .with_str("algorithm", "direct"),
            &[input, &wname, &bname],
            &[output],
        )?;
        Ok(())
    };
    let add_bn =
        |net: &mut Network, name: &str, c: usize, input: &str, output: &str| -> Result<()> {
            net.add_parameter(format!("{name}.gamma"), Tensor::ones([c]));
            net.add_parameter(format!("{name}.beta"), Tensor::zeros([c]));
            net.add_node(
                name,
                "BatchNorm",
                Attributes::new(),
                &[input, &format!("{name}.gamma"), &format!("{name}.beta")],
                &[output],
            )?;
            Ok(())
        };

    // Stem.
    add_conv(&mut net, "stem", in_c, channels, "x", "t0", &mut rng)?;
    net.add_node("stem_relu", "Relu", Attributes::new(), &["t0"], &["r0"])?;

    let mut cur = "r0".to_string();
    for bidx in 0..blocks {
        let c1 = format!("b{bidx}c1");
        let n1 = format!("b{bidx}n1");
        let a1 = format!("b{bidx}a1");
        let c2 = format!("b{bidx}c2");
        let n2 = format!("b{bidx}n2");
        let sum = format!("b{bidx}sum");
        let out = format!("b{bidx}out");
        add_conv(
            &mut net,
            &c1,
            channels,
            channels,
            &cur,
            &format!("{c1}.o"),
            &mut rng,
        )?;
        add_bn(
            &mut net,
            &n1,
            channels,
            &format!("{c1}.o"),
            &format!("{n1}.o"),
        )?;
        net.add_node(
            &a1,
            "Relu",
            Attributes::new(),
            &[&format!("{n1}.o")],
            &[&format!("{a1}.o")],
        )?;
        add_conv(
            &mut net,
            &c2,
            channels,
            channels,
            &format!("{a1}.o"),
            &format!("{c2}.o"),
            &mut rng,
        )?;
        add_bn(
            &mut net,
            &n2,
            channels,
            &format!("{c2}.o"),
            &format!("{n2}.o"),
        )?;
        // Residual Add: skip from block input.
        net.add_node(
            &sum,
            "Add",
            Attributes::new(),
            &[&format!("{n2}.o"), &cur],
            &[&format!("{sum}.o")],
        )?;
        net.add_node(
            &out,
            "Relu",
            Attributes::new(),
            &[&format!("{sum}.o")],
            &[&format!("{out}.o")],
        )?;
        cur = format!("{out}.o");
    }

    // Head: downsample, flatten, classify.
    net.add_node(
        "head_pool",
        "MaxPool2d",
        Attributes::new()
            .with_int("kernel", 2)
            .with_int("stride", 2),
        &[&cur],
        &["pooled"],
    )?;
    net.add_node(
        "head_flat",
        "Flatten",
        Attributes::new(),
        &["pooled"],
        &["flat"],
    )?;
    let pooled_hw = hw / 2;
    let fin = channels * pooled_hw * pooled_hw;
    let mut w = Tensor::zeros([classes, fin]);
    init::xavier_uniform(&mut rng, w.data_mut(), fin, classes);
    net.add_parameter("head.w", w);
    net.add_parameter("head.b", Tensor::zeros([classes]));
    net.add_node(
        "head_fc",
        "Linear",
        Attributes::new(),
        &["flat", "head.w", "head.b"],
        &["logits"],
    )?;
    net.add_node(
        "loss_node",
        "SoftmaxCrossEntropy",
        Attributes::new(),
        &["logits", "labels"],
        &["loss"],
    )?;
    net.add_output("logits");
    net.add_output("loss");
    Ok(net)
}

/// One zoo entry: a classifier network with inputs `x` and `labels` and
/// outputs `logits` / `loss`, at a concrete batch.
pub struct ZooCase {
    pub name: &'static str,
    pub net: Network,
    /// Shape of the `x` feed, batch first.
    pub x: Shape,
    /// What the logits' last dimension comes out as.
    pub classes: usize,
}

impl ZooCase {
    fn new(name: &'static str, net: Result<Network>, x: &[usize], classes: usize) -> ZooCase {
        ZooCase {
            name,
            net: net.expect("bundled model builds"),
            x: Shape::new(x),
            classes,
        }
    }

    pub fn batch(&self) -> usize {
        self.x.dim(0)
    }

    /// The same model at another batch size.
    pub fn at_batch(&self, batch: usize) -> ZooCase {
        let mut dims = self.x.dims().to_vec();
        dims[0] = batch;
        ZooCase {
            name: self.name,
            net: self.net.clone_structure(),
            x: Shape::new(&dims),
            classes: self.classes,
        }
    }

    /// Declared shapes of the two graph inputs.
    pub fn input_shapes(&self) -> Vec<(&'static str, Shape)> {
        vec![
            ("x", self.x.clone()),
            ("labels", Shape::new(&[self.batch()])),
        ]
    }

    /// Seeded feeds matching [`Self::input_shapes`]: uniform `x` in
    /// `[-1, 1)` and class-index labels cycling through every class.
    pub fn feeds(&self, seed: u64) -> Vec<(String, Tensor)> {
        let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
        let x = Tensor::rand_uniform(self.x.clone(), -1.0, 1.0, &mut rng);
        let labels: Vec<f32> = (0..self.batch())
            .map(|i| ((i + seed as usize) % self.classes) as f32)
            .collect();
        vec![
            ("x".to_string(), x),
            ("labels".to_string(), Tensor::from_slice(&labels)),
        ]
    }
}

/// The model zoo: every architecture family at a small and a larger
/// size. `resnet_deep` repeats `resnet_like`'s residual block twice as
/// often — the cross-model sharing brick decomposition exploits — and
/// `resnet_wide` runs it at 32 channels, the width of the `BENCH_conv`
/// body cells, so a conv tier-routing mistake shows up in every suite that
/// walks the zoo and not only in a kernel bench. New cases go last: tests
/// pick models by index.
pub fn zoo() -> Vec<ZooCase> {
    vec![
        ZooCase::new("mlp_small", mlp(16, &[32, 24], 4, 42), &[16, 16], 4),
        ZooCase::new("mlp_wide", mlp(64, &[256, 128], 8, 43), &[32, 64], 8),
        ZooCase::new("lenet", lenet(1, 14, 4, 44), &[4, 1, 14, 14], 4),
        ZooCase::new(
            "alexnet_like",
            alexnet_like(1, 16, 5, 45),
            &[2, 1, 16, 16],
            5,
        ),
        ZooCase::new("mlp_deep", mlp(64, &[128, 128, 128], 8, 47), &[32, 64], 8),
        ZooCase::new(
            "resnet_like",
            resnet_like(1, 8, 8, 2, 4, 46),
            &[2, 1, 8, 8],
            4,
        ),
        ZooCase::new(
            "resnet_deep",
            resnet_like(1, 8, 8, 4, 4, 48),
            &[2, 1, 8, 8],
            4,
        ),
        ZooCase::new(
            "resnet_wide",
            resnet_like(1, 8, 32, 2, 4, 49),
            &[2, 1, 8, 8],
            4,
        ),
    ]
}

/// Borrow owned feeds in the `(&str, Tensor)` form executors and sessions
/// take.
pub fn feed_refs(feeds: &[(String, Tensor)]) -> Vec<(&str, Tensor)> {
    feeds.iter().map(|(n, t)| (n.as_str(), t.clone())).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::{GraphExecutor, ReferenceExecutor};

    fn run_train_step(net: Network, x: Tensor, labels: Tensor) -> (f32, usize) {
        let mut ex = ReferenceExecutor::construct(net, usize::MAX).unwrap();
        let out = ex
            .inference_and_backprop(&[("x", x), ("labels", labels)], "loss")
            .unwrap();
        let n_grads = ex
            .network()
            .get_params()
            .iter()
            .filter(|p| ex.network().has_tensor(&crate::grad_name(p)))
            .count();
        (out["loss"].data()[0], n_grads)
    }

    #[test]
    fn lenet_trains_one_step() {
        let net = lenet(1, 28, 10, 1).unwrap();
        let nparams = net.get_params().len();
        let (loss, grads) = run_train_step(
            net,
            Tensor::zeros([2, 1, 28, 28]),
            Tensor::from_slice(&[0.0, 5.0]),
        );
        assert!(loss > 0.0 && loss.is_finite());
        assert_eq!(grads, nparams);
    }

    #[test]
    fn mlp_shapes() {
        let net = mlp(16, &[8, 8], 4, 2).unwrap();
        let (loss, grads) = run_train_step(
            net,
            Tensor::zeros([3, 16]),
            Tensor::from_slice(&[0.0, 1.0, 2.0]),
        );
        assert!((loss - (4.0f32).ln()).abs() < 0.5); // near-uniform at init
        assert_eq!(grads, 6); // 3 layers x (w, b)
    }

    #[test]
    fn alexnet_like_runs() {
        let net = alexnet_like(3, 32, 10, 3).unwrap();
        let (loss, _) = run_train_step(
            net,
            Tensor::zeros([2, 3, 32, 32]),
            Tensor::from_slice(&[1.0, 2.0]),
        );
        assert!(loss.is_finite());
    }

    #[test]
    fn resnet_like_has_residual_adds_and_trains() {
        let net = resnet_like(1, 8, 4, 2, 3, 4).unwrap();
        let adds = net.nodes().filter(|(_, n)| n.op_type == "Add").count();
        assert_eq!(adds, 2, "one skip Add per block");
        let nparams = net.get_params().len();
        let (loss, grads) = run_train_step(
            net,
            Tensor::ones([2, 1, 8, 8]),
            Tensor::from_slice(&[0.0, 2.0]),
        );
        assert!(loss.is_finite());
        assert_eq!(grads, nparams, "skip connections must not block gradients");
    }

    #[test]
    fn every_zoo_conv_runs_the_direct_tier() {
        let mut widest = 0;
        for case in zoo() {
            let shapes = crate::transforms::infer_shapes(&case.net, &case.input_shapes()).unwrap();
            let ops = case.net.instantiate_ops().unwrap();
            for (id, node) in case.net.nodes().filter(|(_, n)| n.op_type == "Conv2d") {
                assert_eq!(
                    node.attrs.str_or("algorithm", ""),
                    "direct",
                    "{}",
                    case.name
                );
                let ins: Vec<&Shape> = node.inputs.iter().map(|n| &shapes[n]).collect();
                assert_eq!(
                    ops[&id].annotation(&ins).as_deref(),
                    Some("tier=direct"),
                    "{}/{}: x {} w {}",
                    case.name,
                    node.name,
                    ins[0],
                    ins[1]
                );
                widest = widest.max(ins[0].dim(1).min(ins[1].dim(0)));
            }
        }
        assert!(widest >= 32, "no zoo conv is 32 channels in and out");
    }

    #[test]
    fn every_zoo_conv_reports_the_workspace_its_kernel_draws() {
        use deep500_tensor::{with_pool, BufferPool, LINE_F32};
        use std::sync::Arc;
        let mut convs = 0;
        for case in zoo() {
            // Batch 1: one image in flight, on this thread's pool scope.
            let case = case.at_batch(1);
            let shapes = crate::transforms::infer_shapes(&case.net, &case.input_shapes()).unwrap();
            let ops = case.net.instantiate_ops().unwrap();
            let mut rng = Xoshiro256StarStar::seed_from_u64(5);
            for (id, node) in case.net.nodes().filter(|(_, n)| n.op_type == "Conv2d") {
                let ins: Vec<&Shape> = node.inputs.iter().map(|n| &shapes[n]).collect();
                let feeds: Vec<Tensor> = ins
                    .iter()
                    .map(|s| Tensor::rand_uniform((*s).clone(), -1.0, 1.0, &mut rng))
                    .collect();
                let pool = Arc::new(BufferPool::new());
                let out = with_pool(&pool, || {
                    ops[&id].forward(&feeds.iter().collect::<Vec<_>>())
                });
                // The output is alive, so all the pool holds is the
                // kernel's scratch: one slab of the reported size, rounded
                // to cache lines and then to the pool's size class.
                let floats = ops[&id].workspace_bytes(&ins) / 4;
                assert!(floats > 0 && out.is_ok(), "{}/{}", case.name, node.name);
                assert_eq!(
                    pool.stats().held_bytes,
                    BufferPool::class_of(floats.next_multiple_of(LINE_F32)) * 4,
                    "{}/{}: x {} w {} reports {floats} floats",
                    case.name,
                    node.name,
                    ins[0],
                    ins[1]
                );
                convs += 1;
            }
        }
        assert!(convs >= 10, "the zoo has convs of several shapes: {convs}");
    }

    #[test]
    fn every_zoo_case_passes_the_gate_and_feeds_match_input_shapes() {
        let zoo = zoo();
        let mut names: Vec<&str> = zoo.iter().map(|c| c.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), zoo.len(), "case names are unique");
        for case in &zoo {
            let report = deep500_verify::gate(&case.net.to_ir())
                .unwrap_or_else(|e| panic!("{} denied by gate: {e}", case.name));
            assert_eq!(report.deny_count(), 0, "{}", case.name);
            for c in [case.at_batch(case.batch()), case.at_batch(1)] {
                let feeds = c.feeds(7);
                let shapes = c.input_shapes();
                assert_eq!(feeds.len(), shapes.len(), "{}", c.name);
                for ((fname, t), (sname, shape)) in feeds.iter().zip(&shapes) {
                    assert_eq!(fname, sname, "{}", c.name);
                    assert_eq!(t.shape(), shape, "{}: feed '{fname}'", c.name);
                }
                let labels = &feeds[1].1;
                assert!(
                    labels.data().iter().all(|&l| (l as usize) < c.classes),
                    "{}: labels index a class",
                    c.name
                );
                assert_eq!(feed_refs(&feeds)[0].0, "x");
            }
            // Seeded: same seed, same bits; another seed, another x.
            assert_eq!(
                case.feeds(3)[0].1.data(),
                case.at_batch(case.batch()).feeds(3)[0].1.data()
            );
            assert_ne!(case.feeds(3)[0].1.data(), case.feeds(4)[0].1.data());
        }
    }
}
