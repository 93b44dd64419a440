//! Fig. 7 / §V-C — the micro-batch convolution transformation.
//!
//! Reproduces the Level-1 experiment: an AlexNet-style convolution at
//! growing minibatch sizes on a memory-capped device.
//!
//! Expected shapes (paper): the *PyTorch-like* backend runs out of memory
//! at large minibatches; the transformation eliminates the OOM and lets it
//! run. The *TensorFlow-like* backend survives untransformed (bigger
//! memory headroom in the paper's setup) but gets **slower** when
//! transformed, because its Split/Concat nodes incur additional memory
//! copies. The transformation picks micro-batch sizes `[rem, k, k, …]`
//! with per-piece algorithm choices, exactly like the paper's ILP.

use deep500::graph::transforms::microbatch::microbatch_convolutions;
use deep500::metrics::report::fmt_bytes;
use deep500::prelude::*;
use deep500::tensor::Error;
use deep500_bench::{banner, measure, scale, Scale};

fn conv_net(seed: u64) -> Network {
    let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
    let mut net = Network::new("alex-conv");
    net.add_input("x");
    net.add_parameter("w", Tensor::rand_uniform([8, 3, 3, 3], -0.3, 0.3, &mut rng));
    net.add_parameter("b", Tensor::zeros([8]));
    net.add_node(
        "conv",
        "Conv2d",
        Attributes::new().with_int("stride", 1).with_int("pad", 1),
        &["x", "w", "b"],
        &["y"],
    )
    .unwrap();
    net.add_output("y");
    net
}

fn main() {
    banner(
        "Fig. 7 / §V-C — micro-batch transformation",
        "minibatch sweep under a device memory cap, per framework profile",
    );
    let (hw, batches, capacity): (usize, Vec<usize>, usize) = if scale() == Scale::Full {
        (224, vec![64, 128, 256, 468, 512], 1_500_000_000)
    } else {
        (32, vec![48, 96, 160, 256], 16_000_000)
    };
    // The TF-like device has more headroom (the paper's TF run survives
    // untransformed at B=468 while PyTorch OOMs).
    let tf_capacity = capacity * 4;
    println!(
        "conv: Cin=3 HxW={hw}x{hw} Cout=8 3x3; device caps: pytorch-like {}  tf-like {}\n",
        fmt_bytes(capacity as u64),
        fmt_bytes(tf_capacity as u64)
    );

    let mut rng = Xoshiro256StarStar::seed_from_u64(7);
    let mut table = Table::new(
        "runtime per minibatch [ms] (OOM = out of memory)",
        &[
            "batch",
            "pytorch native",
            "pytorch microbatched",
            "tf native",
            "tf microbatched",
            "plan",
        ],
    );

    for &batch in &batches {
        let shape = Shape::new(&[batch, 3, hw, hw]);
        let x = Tensor::rand_uniform(shape.clone(), -1.0, 1.0, &mut rng);
        let mut cells = vec![batch.to_string()];
        let mut plan_str = String::new();

        for (profile, cap) in [
            (FrameworkProfile::pytorch(), capacity),
            (FrameworkProfile::tensorflow(), tf_capacity),
        ] {
            // Native (untransformed).
            let native = {
                match FrameworkExecutor::with_memory_limit(&conv_net(1), profile.clone(), cap) {
                    Ok(mut ex) => match ex.inference(&[("x", x.clone())]) {
                        Ok(_) => {
                            let s = measure(|| ex.inference(&[("x", x.clone())]).unwrap());
                            format!("{:.1}", s.median * 1e3)
                        }
                        Err(Error::OutOfMemory { .. }) => "OOM".to_string(),
                        Err(e) => format!("error: {e}"),
                    },
                    Err(e) => format!("error: {e}"),
                }
            };
            // Micro-batched: transform so each piece's workspace fits a
            // quarter of the device.
            let mut net = conv_net(1);
            let reports =
                microbatch_convolutions(&mut net, &[("x", shape.clone())], cap / 4).unwrap();
            if plan_str.is_empty() {
                plan_str = match reports.first() {
                    Some(r) => format!("{:?}", r.plan.sizes),
                    None => "unchanged".into(),
                };
            }
            let transformed = {
                let mut ex =
                    FrameworkExecutor::with_memory_limit(&net, profile.clone(), cap).unwrap();
                match ex.inference(&[("x", x.clone())]) {
                    Ok(_) => {
                        let s = measure(|| ex.inference(&[("x", x.clone())]).unwrap());
                        format!("{:.1}", s.median * 1e3)
                    }
                    Err(Error::OutOfMemory { .. }) => "OOM".to_string(),
                    Err(e) => format!("error: {e}"),
                }
            };
            cells.push(native);
            cells.push(transformed);
        }
        cells.push(plan_str);
        table.row(&cells);
    }
    table.print();
    println!(
        "\nreading guide: the transformation must turn the PyTorch column's\n\
         OOM cells into runtimes, while the TF columns show the split/concat\n\
         copy penalty (tf native < tf microbatched where both run)."
    );
}
