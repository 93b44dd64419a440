//! d5nx format integration: train → save → load → keep training; the
//! reloaded model must behave identically (reproducibility, pillar 5).

use deep500::graph::format;
use deep500::prelude::*;
use deep500::train::TrainingConfig;
use std::sync::Arc;

#[test]
fn trained_model_survives_a_roundtrip() {
    let train_ds = SyntheticDataset::new("fmt", Shape::new(&[10]), 3, 128, 0.25, 41);
    let test_ds = train_ds.holdout(64);
    let test_arc: Arc<dyn Dataset> = Arc::new(test_ds);

    // Train briefly.
    let net = models::mlp(10, &[12], 3, 41).unwrap();
    let ex_engine = Engine::builder(net).build().unwrap();
    let mut ex = ex_engine.lock();
    let mut sampler = ShuffleSampler::new(Arc::new(train_ds), 16, 1);
    let mut opt = GradientDescent::new(0.1);
    let mut runner = TrainingRunner::new(TrainingConfig {
        epochs: 3,
        ..Default::default()
    });
    runner.run(&mut opt, &mut *ex, &mut sampler, None).unwrap();

    // Evaluate, save, reload, evaluate again: identical accuracy.
    let mut test_sampler = ShuffleSampler::new(test_arc.clone(), 32, 2);
    let acc_before = deep500::train::runner::evaluate(&mut *ex, &mut test_sampler).unwrap();

    let path = std::env::temp_dir().join("d5-roundtrip-integration.d5nx");
    format::save(ex.network(), &path).unwrap();
    let reloaded = format::load(&path).unwrap();
    let ex2_engine = Engine::builder(reloaded).build().unwrap();
    let mut ex2 = ex2_engine.lock();
    let mut test_sampler = ShuffleSampler::new(test_arc, 32, 2);
    let acc_after = deep500::train::runner::evaluate(&mut *ex2, &mut test_sampler).unwrap();
    assert_eq!(acc_before, acc_after, "bitwise identical evaluation");
    std::fs::remove_file(&path).ok();
}

#[test]
fn bytes_are_deterministic_across_saves() {
    let net = models::lenet(1, 12, 4, 5).unwrap();
    let a = format::encode(&net);
    let b = format::encode(&net);
    assert_eq!(a, b);
    // And across an encode/decode cycle.
    let c = format::encode(&format::decode(&a).unwrap());
    assert_eq!(a, c, "re-encoding a decoded model is byte-identical");
}

#[test]
fn custom_ops_roundtrip_when_registered() {
    struct Half;
    impl Operator for Half {
        fn name(&self) -> &str {
            "Half"
        }
        fn num_inputs(&self) -> usize {
            1
        }
        fn output_shapes(&self, s: &[&Shape]) -> deep500::tensor::Result<Vec<Shape>> {
            Ok(vec![s[0].clone()])
        }
        fn forward(&self, i: &[&Tensor]) -> deep500::tensor::Result<Vec<Tensor>> {
            Ok(vec![i[0].scale(0.5)])
        }
        fn backward(
            &self,
            g: &[&Tensor],
            _i: &[&Tensor],
            _o: &[&Tensor],
        ) -> deep500::tensor::Result<Vec<Tensor>> {
            Ok(vec![g[0].scale(0.5)])
        }
    }
    register_op("Half", |_| Ok(Box::new(Half)));
    let mut net = Network::new("with-custom");
    net.add_input("x");
    net.add_node("h", "Half", Attributes::new(), &["x"], &["y"])
        .unwrap();
    net.add_output("y");
    let bytes = format::encode(&net);
    let back = format::decode(&bytes).unwrap();
    let ex_engine = Engine::builder(back).build().unwrap();
    let mut ex = ex_engine.lock();
    let out = ex.inference(&[("x", Tensor::from_slice(&[4.0]))]).unwrap();
    assert_eq!(out["y"].data(), &[2.0]);
}

#[test]
fn microbatched_graph_roundtrips() {
    use deep500::graph::transforms::microbatch::microbatch_convolutions;
    let mut rng = Xoshiro256StarStar::seed_from_u64(3);
    let mut net = Network::new("mb");
    net.add_input("x");
    net.add_parameter("w", Tensor::rand_uniform([2, 1, 3, 3], -0.5, 0.5, &mut rng));
    net.add_parameter("b", Tensor::zeros([2]));
    net.add_node(
        "conv",
        "Conv2d",
        Attributes::new()
            .with_int("pad", 1)
            .with_str("algorithm", "im2col"),
        &["x", "w", "b"],
        &["y"],
    )
    .unwrap();
    net.add_output("y");
    microbatch_convolutions(&mut net, &[("x", Shape::new(&[16, 1, 8, 8]))], 10_000).unwrap();
    assert!(net.num_nodes() > 1, "transformed");
    let back = format::decode(&format::encode(&net)).unwrap();
    // The transformed (Split/Conv*/Concat) graph still executes correctly.
    let x = Tensor::rand_uniform([16, 1, 8, 8], -1.0, 1.0, &mut rng);
    let e1_engine = Engine::builder(net).build().unwrap();
    let mut e1 = e1_engine.lock();
    let e2_engine = Engine::builder(back).build().unwrap();
    let mut e2 = e2_engine.lock();
    let y1 = e1.inference(&[("x", x.clone())]).unwrap();
    let y2 = e2.inference(&[("x", x)]).unwrap();
    assert_eq!(y1["y"], y2["y"]);
}
