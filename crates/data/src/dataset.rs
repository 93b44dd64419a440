//! Dataset interfaces: samples, datasets, minibatches.

use deep500_tensor::{Error, Result, Shape, Tensor};

/// One labeled sample: a tensor (sample shape, no batch axis) and a class.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    pub data: Tensor,
    pub label: u32,
}

/// A minibatch ready to feed a network: `x` is `[B, ...sample]`, `labels`
/// is `[B]` (class indices as f32, the substrate's single dtype).
#[derive(Debug, Clone, PartialEq)]
pub struct Minibatch {
    pub x: Tensor,
    pub labels: Tensor,
}

impl Minibatch {
    /// Batch size.
    pub fn len(&self) -> usize {
        self.labels.numel()
    }

    /// Whether the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Feed pairs for a classifier-loss network (`x`, `labels`).
    pub fn feeds(&self) -> Vec<(&str, Tensor)> {
        vec![("x", self.x.clone()), ("labels", self.labels.clone())]
    }
}

/// A dataset of labeled samples. Implementations may perform real work per
/// access (decode, simulated I/O) — that cost is what the latency
/// experiments measure.
pub trait Dataset: Send + Sync {
    /// Dataset name for reports.
    fn name(&self) -> &str;

    /// Number of samples.
    fn len(&self) -> usize;

    /// Whether the dataset is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Shape of one sample (no batch axis).
    fn sample_shape(&self) -> Shape;

    /// Number of classes.
    fn num_classes(&self) -> usize;

    /// Fetch sample `idx`.
    fn sample(&self, idx: usize) -> Result<Sample>;
}

/// Assemble a minibatch by gathering `indices` from `dataset`.
pub fn assemble_minibatch(dataset: &dyn Dataset, indices: &[usize]) -> Result<Minibatch> {
    if indices.is_empty() {
        return Err(Error::Invalid("empty minibatch".into()));
    }
    let sshape = dataset.sample_shape();
    let per = sshape.numel();
    let mut dims = vec![indices.len()];
    dims.extend_from_slice(sshape.dims());
    let mut x = Tensor::zeros(Shape::new(&dims));
    let mut labels = Tensor::zeros([indices.len()]);
    for (row, &idx) in indices.iter().enumerate() {
        let s = dataset.sample(idx)?;
        if s.data.shape() != &sshape {
            return Err(Error::ShapeMismatch(format!(
                "sample {idx}: {} vs dataset shape {}",
                s.data.shape(),
                sshape
            )));
        }
        x.data_mut()[row * per..(row + 1) * per].copy_from_slice(s.data.data());
        labels.data_mut()[row] = s.label as f32;
    }
    Ok(Minibatch { x, labels })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A trivially small in-memory dataset.
    struct InMemoryDataset {
        name: String,
        samples: Vec<Sample>,
        shape: Shape,
        classes: usize,
    }

    impl InMemoryDataset {
        /// Wrap a list of samples. All must share a shape.
        fn new(name: &str, samples: Vec<Sample>, classes: usize) -> Result<Self> {
            let shape = samples
                .first()
                .map(|s| s.data.shape().clone())
                .ok_or_else(|| Error::Invalid("empty dataset".into()))?;
            if samples.iter().any(|s| s.data.shape() != &shape) {
                return Err(Error::ShapeMismatch("inconsistent sample shapes".into()));
            }
            Ok(InMemoryDataset {
                name: name.into(),
                samples,
                shape,
                classes,
            })
        }
    }

    impl Dataset for InMemoryDataset {
        fn name(&self) -> &str {
            &self.name
        }
        fn len(&self) -> usize {
            self.samples.len()
        }
        fn sample_shape(&self) -> Shape {
            self.shape.clone()
        }
        fn num_classes(&self) -> usize {
            self.classes
        }
        fn sample(&self, idx: usize) -> Result<Sample> {
            self.samples
                .get(idx)
                .cloned()
                .ok_or_else(|| Error::NotFound(format!("sample {idx}")))
        }
    }

    fn tiny() -> InMemoryDataset {
        let samples = (0..4)
            .map(|i| Sample {
                data: Tensor::full([2], i as f32),
                label: i % 2,
            })
            .collect();
        InMemoryDataset::new("tiny", samples, 2).unwrap()
    }

    #[test]
    fn dataset_basics() {
        let d = tiny();
        assert_eq!(d.len(), 4);
        assert!(!d.is_empty());
        assert_eq!(d.num_classes(), 2);
        assert_eq!(d.sample_shape(), Shape::new(&[2]));
        assert_eq!(d.sample(3).unwrap().label, 1);
        assert!(d.sample(4).is_err());
    }

    #[test]
    fn minibatch_assembly_gathers_in_order() {
        let d = tiny();
        let mb = assemble_minibatch(&d, &[2, 0]).unwrap();
        assert_eq!(mb.len(), 2);
        assert_eq!(mb.x.shape(), &Shape::new(&[2, 2]));
        assert_eq!(mb.x.data(), &[2.0, 2.0, 0.0, 0.0]);
        assert_eq!(mb.labels.data(), &[0.0, 0.0]);
        let feeds = mb.feeds();
        assert_eq!(feeds[0].0, "x");
        assert_eq!(feeds[1].0, "labels");
    }

    #[test]
    fn empty_minibatch_rejected() {
        let d = tiny();
        assert!(assemble_minibatch(&d, &[]).is_err());
    }

    #[test]
    fn inconsistent_shapes_rejected() {
        let samples = vec![
            Sample {
                data: Tensor::zeros([2]),
                label: 0,
            },
            Sample {
                data: Tensor::zeros([3]),
                label: 1,
            },
        ];
        assert!(InMemoryDataset::new("bad", samples, 2).is_err());
        assert!(InMemoryDataset::new("empty", vec![], 2).is_err());
    }
}
