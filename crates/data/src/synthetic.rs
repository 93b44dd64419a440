//! Deterministic synthetic datasets.
//!
//! The paper downloads MNIST, Fashion-MNIST, CIFAR-10/100 and parses
//! ImageNet. We substitute deterministic synthetic datasets that preserve
//! the properties the experiments need:
//!
//! * identical **shapes and sizes** (28×28×1, 32×32×3, 224×224×3; sample
//!   counts scaled down but proportionate),
//! * **learnability**: samples are Gaussian perturbations of per-class
//!   prototype patterns, so optimizers genuinely converge and optimizer
//!   rankings are meaningful (Fig. 9/10),
//! * **reproducibility**: sample `i` is a pure function of
//!   `(dataset seed, i)` via split RNG streams.
//!
//! "Synthetic data generation" in Fig. 8 measures exactly this generation
//! cost.

use crate::dataset::{Dataset, Sample};
use deep500_tensor::{Result, Shape, Tensor, Xoshiro256StarStar};

/// A synthetic classification dataset: per-class smooth prototype patterns
/// plus per-sample Gaussian noise.
pub struct SyntheticDataset {
    name: String,
    shape: Shape,
    classes: usize,
    len: usize,
    noise: f32,
    base: Xoshiro256StarStar,
    /// Per-class prototypes, precomputed.
    prototypes: Vec<Vec<f32>>,
    /// Index offset: sample `i` of this view is global sample `offset + i`
    /// of the underlying distribution (used for train/test holdouts that
    /// share prototypes but never share samples).
    offset: usize,
}

impl SyntheticDataset {
    /// Build with an explicit shape/class count.
    pub fn new(
        name: &str,
        shape: Shape,
        classes: usize,
        len: usize,
        noise: f32,
        seed: u64,
    ) -> Self {
        let base = Xoshiro256StarStar::seed_from_u64(seed);
        let numel = shape.numel();
        let mut prototypes = Vec::with_capacity(classes);
        for c in 0..classes {
            // Smooth, well-separated pattern: sinusoid with class-specific
            // frequency/phase plus a class-mean offset.
            let mut proto_rng = base.split(0xC0FFEE ^ c as u64);
            let freq = 1.0 + c as f32 * 0.7;
            let phase = proto_rng.uniform(0.0, std::f32::consts::TAU);
            let offset = proto_rng.uniform(-0.5, 0.5);
            let proto: Vec<f32> = (0..numel)
                .map(|i| {
                    let t = i as f32 / numel as f32;
                    offset + (freq * std::f32::consts::TAU * t + phase).sin()
                })
                .collect();
            prototypes.push(proto);
        }
        SyntheticDataset {
            name: name.into(),
            shape,
            classes,
            len,
            noise,
            base,
            prototypes,
            offset: 0,
        }
    }

    /// A disjoint holdout view of the same distribution: identical
    /// prototypes and noise, but samples indexed past the end of `self`
    /// (and past any previous holdout), so train/test never overlap.
    pub fn holdout(&self, len: usize) -> SyntheticDataset {
        SyntheticDataset {
            name: format!("{}-holdout", self.name),
            shape: self.shape.clone(),
            classes: self.classes,
            len,
            noise: self.noise,
            base: self.base.clone(),
            prototypes: self.prototypes.clone(),
            offset: self.offset + self.len,
        }
    }

    /// MNIST-shaped dataset: `1x28x28`, 10 classes.
    pub fn mnist_like(len: usize, seed: u64) -> Self {
        Self::new("mnist-synth", Shape::new(&[1, 28, 28]), 10, len, 0.3, seed)
    }

    /// Fashion-MNIST-shaped dataset: `1x28x28`, 10 classes (different seed
    /// stream so contents differ from MNIST).
    pub fn fashion_mnist_like(len: usize, seed: u64) -> Self {
        Self::new(
            "fashion-mnist-synth",
            Shape::new(&[1, 28, 28]),
            10,
            len,
            0.35,
            seed ^ 0xFA5410,
        )
    }

    /// CIFAR-10-shaped dataset: `3x32x32`, 10 classes.
    pub fn cifar10_like(len: usize, seed: u64) -> Self {
        Self::new(
            "cifar10-synth",
            Shape::new(&[3, 32, 32]),
            10,
            len,
            0.4,
            seed,
        )
    }

    /// CIFAR-100-shaped dataset: `3x32x32`, 100 classes.
    pub fn cifar100_like(len: usize, seed: u64) -> Self {
        Self::new(
            "cifar100-synth",
            Shape::new(&[3, 32, 32]),
            100,
            len,
            0.4,
            seed,
        )
    }

    /// Fast synthetic minibatch generation — the "Synth" generator of the
    /// paper's Fig. 8: allocate the batch tensor and fill it with cheap
    /// uniform noise + random labels, without the per-pixel Gaussian work
    /// of the learnable sampler. This is what DL benchmarks mean by
    /// "synthetic data": something shaped right, produced at memory speed.
    pub fn generate_fast_batch(&self, batch: usize, seed: u64) -> crate::Minibatch {
        let mut rng = self.base.split(seed ^ 0xFA57);
        let mut dims = vec![batch];
        dims.extend_from_slice(self.shape.dims());
        let mut x = Tensor::zeros(Shape::new(&dims));
        rng.fill_uniform(x.data_mut(), -1.0, 1.0);
        let mut labels = Tensor::zeros([batch]);
        for l in labels.data_mut() {
            *l = rng.next_below(self.classes) as f32;
        }
        crate::Minibatch { x, labels }
    }

    /// Sample as raw `u8` pixels in `[0, 255]` (what the codec encodes).
    pub fn sample_u8(&self, idx: usize) -> (Vec<u8>, u32) {
        let s = self.sample(idx).expect("in-range idx");
        let bytes = s
            .data
            .data()
            .iter()
            .map(|&v| ((v.clamp(-1.5, 1.5) + 1.5) / 3.0 * 255.0) as u8)
            .collect();
        (bytes, s.label)
    }
}

impl Dataset for SyntheticDataset {
    fn name(&self) -> &str {
        &self.name
    }
    fn len(&self) -> usize {
        self.len
    }
    fn sample_shape(&self) -> Shape {
        self.shape.clone()
    }
    fn num_classes(&self) -> usize {
        self.classes
    }
    fn sample(&self, idx: usize) -> Result<Sample> {
        if idx >= self.len {
            return Err(deep500_tensor::Error::NotFound(format!(
                "sample {idx} of {}",
                self.len
            )));
        }
        let mut rng = self.base.split((self.offset + idx) as u64);
        let label = rng.next_below(self.classes) as u32;
        let proto = &self.prototypes[label as usize];
        let mut data = Tensor::zeros(self.shape.clone());
        for (v, &p) in data.data_mut().iter_mut().zip(proto) {
            *v = p + self.noise * rng.normal() as f32;
        }
        Ok(Sample { data, label })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deep500_metrics::norms::l2_diff;

    #[test]
    fn deterministic_samples() {
        let d = SyntheticDataset::mnist_like(100, 7);
        let a = d.sample(42).unwrap();
        let b = d.sample(42).unwrap();
        assert_eq!(a, b);
        let c = d.sample(43).unwrap();
        assert_ne!(a.data, c.data);
    }

    #[test]
    fn shapes_match_real_datasets() {
        assert_eq!(
            SyntheticDataset::mnist_like(1, 0).sample_shape(),
            Shape::new(&[1, 28, 28])
        );
        assert_eq!(
            SyntheticDataset::cifar10_like(1, 0).sample_shape(),
            Shape::new(&[3, 32, 32])
        );
        assert_eq!(SyntheticDataset::cifar100_like(1, 0).num_classes(), 100);
    }

    #[test]
    fn classes_are_separated() {
        // Same-class samples must be closer than cross-class samples on
        // average — the property that makes training converge.
        let d = SyntheticDataset::mnist_like(400, 3);
        let mut by_class: Vec<Vec<usize>> = vec![Vec::new(); 10];
        for i in 0..400 {
            by_class[d.sample(i).unwrap().label as usize].push(i);
        }
        let (c0, c1) = (&by_class[0], &by_class[1]);
        assert!(c0.len() >= 2 && c1.len() >= 2);
        let s = |i: usize| d.sample(i).unwrap().data;
        let within = l2_diff(s(c0[0]).data(), s(c0[1]).data());
        let across = l2_diff(s(c0[0]).data(), s(c1[0]).data());
        assert!(
            across > within,
            "across {across} must exceed within {within}"
        );
    }

    #[test]
    fn out_of_range_rejected() {
        let d = SyntheticDataset::mnist_like(5, 0);
        assert!(d.sample(5).is_err());
    }

    #[test]
    fn u8_conversion_in_range() {
        let d = SyntheticDataset::cifar10_like(3, 1);
        let (bytes, label) = d.sample_u8(0);
        assert_eq!(bytes.len(), 3 * 32 * 32);
        assert!((label as usize) < 10);
    }

    #[test]
    fn label_distribution_covers_classes() {
        let d = SyntheticDataset::mnist_like(1000, 11);
        let mut seen = [false; 10];
        for i in 0..1000 {
            seen[d.sample(i).unwrap().label as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }
}
