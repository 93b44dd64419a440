//! Brick subsystem regressions: decompose/dedup round-trip over the zoo,
//! backprop reachability, and end-to-end prediction error.

use deep500::graph::models::{self, zoo};
use deep500::graph::{Engine, ExecutorKind};
use deep500::metrics::{Phase, TraceRecorder};
use deep500::tensor::{Shape, Tensor, Xoshiro256StarStar};
use deep500_bench::bricks::{calibrate, decompose, dedup, measure, predict, BrickCost, BrickKey};
use deep500_bench::{time_rounds, Subject};
use std::collections::HashMap;

fn mlp_feeds(batch: usize, features: usize) -> Vec<(&'static str, Shape)> {
    vec![
        ("x", Shape::new(&[batch, features])),
        ("labels", Shape::new(&[batch])),
    ]
}

#[test]
fn decompose_dedup_round_trip_preserves_every_node() {
    let mlp = |seed| {
        let net = models::mlp(16, &[32, 24], 4, seed).unwrap();
        decompose(&net, &mlp_feeds(8, 16), "loss").unwrap()
    };
    let lenet = zoo().swap_remove(2);
    let zoo = vec![
        ("mlp_a".to_string(), mlp(1)),
        ("mlp_b".to_string(), mlp(2)),
        (
            "lenet".to_string(),
            decompose(&lenet.net, &lenet.input_shapes(), "loss").unwrap(),
        ),
    ];
    let total: usize = zoo.iter().map(|(_, v)| v.len()).sum();
    let set = dedup(&zoo);

    // Round trip: multiplicities account for every decomposed node, and
    // every instance's key resolves back into the set.
    assert_eq!(set.total_instances, total);
    assert_eq!(set.bricks.iter().map(|b| b.count).sum::<usize>(), total);
    for (_, instances) in &zoo {
        for inst in instances {
            assert!(
                set.bricks.iter().any(|b| b.key == inst.key),
                "missing brick {}",
                inst.key.render()
            );
        }
    }

    // mlp_a and mlp_b differ only in their weight values, which bricks
    // deliberately abstract over: the two must dedup perfectly.
    let (a, b) = (&zoo[0].1, &zoo[1].1);
    for (ia, ib) in a.iter().zip(b.iter()) {
        assert_eq!(ia.key, ib.key, "identical architectures must share bricks");
    }
    // 28 instances, lenet shares nothing with the MLPs: 21 unique.
    assert!(
        set.dedup_ratio() > 1.3,
        "two identical MLPs plus lenet must dedup well, got {:.2}",
        set.dedup_ratio()
    );
}

/// The key holds what a brick's cost depends on and nothing else: with the
/// gradient-density component gone, fewer key components can only merge
/// bricks, so the zoo must dedup at least as well as it did with it
/// (103 instances -> 54 bricks on the seven-model zoo; `resnet_wide` adds
/// 20 instances and the 8 bricks no narrower model shares).
#[test]
fn dedup_ratio_did_not_fall_with_the_density_key_gone() {
    let per_model: Vec<(String, Vec<_>)> = zoo()
        .iter()
        .map(|case| {
            let instances = decompose(&case.net, &case.input_shapes(), "loss").unwrap();
            (case.name.to_string(), instances)
        })
        .collect();
    let set = dedup(&per_model);
    assert_eq!(set.total_instances, 123, "the zoo's node count moved");
    assert!(
        set.len() <= 54 + 8,
        "{} unique bricks, more than with the density key",
        set.len()
    );
    assert!(set.dedup_ratio() >= 123.0 / 62.0);
    // First layers skip dX: the `wanted` mask still splits them off.
    assert!(set.bricks.iter().any(|b| b.key.wanted.contains(&false)));
}

#[test]
fn reached_marks_the_backprop_path_and_dead_branches_are_not_charged() {
    // Every node of a classifier sits on the path to its loss (the logits
    // alias too: the loss consumes its output).
    let bricks = decompose(
        &models::lenet(1, 14, 4, 3).unwrap(),
        &[
            ("x", Shape::new(&[2, 1, 14, 14])),
            ("labels", Shape::new(&[2])),
        ],
        "loss",
    )
    .unwrap();
    for b in &bricks {
        assert!(b.reached, "{}", b.node);
    }

    // A branch backprop never reaches: the executor skips its backward
    // entirely, and the predictor must not charge for it.
    let mut net = deep500::graph::Network::new("dead-branch");
    net.add_input("x");
    net.add_input("target");
    let attrs = deep500::ops::registry::Attributes::new;
    net.add_node("live", "Relu", attrs(), &["x"], &["y"])
        .unwrap();
    net.add_node("mse", "MseLoss", attrs(), &["y", "target"], &["loss"])
        .unwrap();
    net.add_node("dead", "Relu", attrs(), &["x"], &["dead_out"])
        .unwrap();
    net.add_output("loss");
    net.add_output("dead_out");
    let bricks = decompose(
        &net,
        &[("x", Shape::new(&[4, 8])), ("target", Shape::new(&[4, 8]))],
        "loss",
    )
    .unwrap();
    let by_node = |n: &str| bricks.iter().find(|b| b.node == n).unwrap();
    assert!(by_node("live").reached && by_node("mse").reached);
    assert!(!by_node("dead").reached);
    // Same op, shapes and wanted mask: one brick, whichever side of the
    // loss it sits on.
    assert_eq!(by_node("live").key, by_node("dead").key);

    let cost = BrickCost {
        forward_s: 1.0,
        backward_s: 10.0,
    };
    let costs: HashMap<BrickKey, BrickCost> =
        bricks.iter().map(|b| (b.key.clone(), cost)).collect();
    let pred = predict(&bricks, &costs, &Default::default()).unwrap();
    assert_eq!(pred.forward_s, 3.0);
    assert_eq!(pred.train_s, 3.0 + 20.0, "two reached backwards, not three");
}

/// End-to-end prediction-error regression. The release-build `bricks` bin
/// gates the paper's 25% target; under an unoptimized debug build with a
/// handful of rounds the tolerance here is deliberately loose — it guards
/// against the composition logic breaking (double-counted overhead,
/// dropped bricks, seconds/milliseconds mixups produce errors of 100%+),
/// not against timer jitter.
#[test]
fn composed_prediction_tracks_whole_model_measurement() {
    let net = models::mlp(24, &[48, 32], 4, 5).unwrap();
    let batch = 16;
    let instances = decompose(&net, &mlp_feeds(batch, 24), "loss").unwrap();
    let set = dedup(&[("mlp".to_string(), instances.clone())]);
    let costs_vec = measure(&set, 2, 5).unwrap();
    let costs: HashMap<BrickKey, BrickCost> = set
        .bricks
        .iter()
        .zip(&costs_vec)
        .map(|(b, c)| (b.key.clone(), *c))
        .collect();
    let overhead = calibrate(2, 5).unwrap();
    let pred = predict(&instances, &costs, &overhead).unwrap();
    assert!(pred.forward_s > 0.0 && pred.train_s > pred.forward_s);

    // Whole-model ground truth, same discipline as the `bricks` entry.
    let recorder = TraceRecorder::new();
    let engine = Engine::builder(net)
        .executor(ExecutorKind::Reference)
        .trace(&recorder)
        .build()
        .unwrap();
    let session = engine.session();
    let mut rng = Xoshiro256StarStar::seed_from_u64(9);
    let x = Tensor::rand_uniform(Shape::new(&[batch, 24]), -0.5, 0.5, &mut rng);
    let labels: Vec<f32> = (0..batch).map(|i| (i % 4) as f32).collect();
    let labels = Tensor::from_vec(Shape::new(&[batch]), labels).unwrap();
    let feeds = vec![("x", x), ("labels", labels)];
    let mut train_step = [Subject::spans(|| {
        let t0 = recorder.phase_total_s(Phase::Backprop);
        session.infer_and_backprop(&feeds, "loss").unwrap();
        [recorder.phase_total_s(Phase::Backprop) - t0]
    })];
    let [meas_train] = time_rounds(2, 5, &mut train_step)[0];
    let meas_train = meas_train.median;

    let rel_err = (pred.train_s - meas_train).abs() / meas_train;
    assert!(
        rel_err < 0.60,
        "debug-build training-step prediction {:.3} ms vs measured {:.3} ms \
         (rel err {:.2}) exceeds even the loose 60% debug tolerance",
        pred.train_s * 1e3,
        meas_train * 1e3,
        rel_err
    );
}
