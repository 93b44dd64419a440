//! The four workloads' models, as the d5nx bytes a deployment would load,
//! plus seeded request generation for them.

use crate::consts::*;
use deep500::graph::{format, models, Network};
use deep500::tensor::{Shape, Tensor, Xoshiro256StarStar};

/// One request's (or minibatch's) feeds, ready for `Server::submit` /
/// `Session::infer` without further allocation of names.
pub type Feed = [(&'static str, Tensor); 2];

/// A model as the spine sees it: serialized bytes and its interface.
pub struct Model {
    /// Name the server registers it under.
    pub name: &'static str,
    /// d5nx encoding of the zoo network (weights from the fixed seed).
    pub bytes: Vec<u8>,
    /// Per-sample dims of input `x`.
    pub sample_dims: Vec<usize>,
    pub classes: usize,
}

impl Model {
    fn new(name: &'static str, net: Network, sample_dims: &[usize], classes: usize) -> Model {
        Model {
            name,
            bytes: format::encode(&net),
            sample_dims: sample_dims.to_vec(),
            classes,
        }
    }

    pub fn serve_small() -> Model {
        let net = models::mlp(
            SMALL_FEATURES,
            &SMALL_HIDDEN,
            SMALL_CLASSES,
            SMALL_WEIGHT_SEED,
        )
        .expect("mlp builds");
        Model::new("mlp", net, &[SMALL_FEATURES], SMALL_CLASSES)
    }

    pub fn serve_conv() -> Model {
        let net = models::resnet_like(
            CONV_IN_C,
            CONV_HW,
            CONV_CHANNELS,
            CONV_BLOCKS,
            CONV_CLASSES,
            CONV_WEIGHT_SEED,
        )
        .expect("resnet builds");
        Model::new("resnet", net, &[CONV_IN_C, CONV_HW, CONV_HW], CONV_CLASSES)
    }

    pub fn train_cnn() -> Model {
        let net = models::lenet(TRAIN_IN_C, TRAIN_HW, TRAIN_CLASSES, TRAIN_WEIGHT_SEED)
            .expect("lenet builds");
        Model::new(
            "lenet",
            net,
            &[TRAIN_IN_C, TRAIN_HW, TRAIN_HW],
            TRAIN_CLASSES,
        )
    }

    pub fn dist_mlp() -> Model {
        let net = models::mlp(DIST_FEATURES, &DIST_HIDDEN, DIST_CLASSES, DIST_WEIGHT_SEED)
            .expect("mlp builds");
        Model::new("mlp-dist", net, &[DIST_FEATURES], DIST_CLASSES)
    }

    /// Decode the bytes back into a network (the `graph::format` layer).
    pub fn decode(&self) -> Network {
        format::decode(&self.bytes).expect("own encoding decodes")
    }

    /// Shape of `x` for a `rows`-row feed.
    pub fn x_shape(&self, rows: usize) -> Shape {
        let mut dims = vec![rows];
        dims.extend_from_slice(&self.sample_dims);
        Shape::new(&dims)
    }

    /// Declared input shapes for the verifier / compiler at `rows` rows.
    pub fn input_shapes(&self, rows: usize) -> Vec<(&'static str, Shape)> {
        vec![("x", self.x_shape(rows)), ("labels", Shape::new(&[rows]))]
    }

    /// One seeded feed of `rows` rows: `x` uniform in [-1, 1), labels
    /// uniform over the classes.
    pub fn feed(&self, rng: &mut Xoshiro256StarStar, rows: usize) -> Feed {
        let shape = self.x_shape(rows);
        let mut x = vec![0.0f32; shape.numel()];
        rng.fill_uniform(&mut x, -1.0, 1.0);
        let labels: Vec<f32> = (0..rows)
            .map(|_| rng.next_below(self.classes) as f32)
            .collect();
        [
            ("x", Tensor::from_vec(shape, x).expect("shape matches")),
            ("labels", Tensor::from_slice(&labels)),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn feeds_repeat_for_equal_seeds_and_differ_otherwise() {
        let m = Model::serve_small();
        let gen = |seed| m.feed(&mut Xoshiro256StarStar::seed_from_u64(seed), 2);
        let (a, b, c) = (gen(5), gen(5), gen(6));
        assert_eq!(a[0].1.data(), b[0].1.data());
        assert_eq!(a[1].1.data(), b[1].1.data());
        assert_ne!(a[0].1.data(), c[0].1.data());
        assert_eq!(a[0].1.shape().dims(), &[2, SMALL_FEATURES]);
    }

    #[test]
    fn bytes_round_trip_to_the_same_interface() {
        let m = Model::serve_conv();
        let net = m.decode();
        assert_eq!(net.graph_inputs(), &["x".to_string(), "labels".to_string()]);
        assert!(net.graph_outputs().contains(&"logits".to_string()));
    }
}
