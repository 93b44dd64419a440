//! The `DatasetBias` metric and `test_sampler` (paper §IV-E).
//!
//! "Dataset samplers can be tested individually by running `test_sampler`
//! with the `DatasetBias` metric, which collects a histogram of sampled
//! elements w.r.t. corresponding labels." A biased sampler (one that
//! over-represents some classes) skews training; the metric quantifies the
//! skew via the histogram and a chi-square statistic against the dataset's
//! own label distribution.

use crate::sampler::DatasetSampler;
use deep500_tensor::Result;

/// Label histogram of sampled elements; [`test_sampler`] reduces it to
/// its chi-square statistic.
struct DatasetBias {
    counts: Vec<u64>,
}

impl DatasetBias {
    /// Metric over `classes` labels.
    fn new(classes: usize) -> Self {
        DatasetBias {
            counts: vec![0; classes],
        }
    }

    /// Record one sampled label.
    fn record(&mut self, label: u32) {
        if let Some(c) = self.counts.get_mut(label as usize) {
            *c += 1;
        }
    }

    /// Total samples recorded.
    fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Chi-square statistic against the expected counts (same length).
    fn chi_square(&self, expected: &[f64]) -> f64 {
        assert_eq!(expected.len(), self.counts.len());
        self.counts
            .iter()
            .zip(expected)
            .map(|(&obs, &exp)| {
                if exp > 0.0 {
                    let d = obs as f64 - exp;
                    d * d / exp
                } else {
                    0.0
                }
            })
            .sum()
    }
}

/// Report from a sampler bias test.
///
/// Public for: returned by `test_sampler`.
#[derive(Debug, Clone)]
pub struct SamplerReport {
    /// Samples drawn.
    pub samples: u64,
    /// Chi-square statistic vs the dataset's true label distribution.
    pub chi_square: f64,
    /// Degrees of freedom (classes - 1).
    pub dof: usize,
}

impl SamplerReport {
    /// Loose pass criterion: the statistic is below `factor` times the
    /// degrees of freedom (`E[chi2] = dof` for an unbiased sampler).
    pub fn passes(&self, factor: f64) -> bool {
        self.chi_square <= factor * self.dof.max(1) as f64
    }
}

/// Drain `epochs` epochs from the sampler and report label bias relative
/// to the dataset's own label distribution.
pub fn test_sampler(sampler: &mut dyn DatasetSampler, epochs: usize) -> Result<SamplerReport> {
    let classes = sampler.dataset().num_classes();
    let mut bias = DatasetBias::new(classes);
    // Dataset's true label distribution.
    let mut truth = vec![0u64; classes];
    for i in 0..sampler.dataset().len() {
        truth[sampler.dataset().sample(i)?.label as usize] += 1;
    }
    for _ in 0..epochs {
        sampler.reset_epoch();
        while let Some(batch) = sampler.next_batch()? {
            for &l in batch.labels.data() {
                bias.record(l as u32);
            }
        }
    }
    let total = bias.total() as f64;
    let truth_total: u64 = truth.iter().sum();
    let expected: Vec<f64> = truth
        .iter()
        .map(|&t| t as f64 / truth_total.max(1) as f64 * total)
        .collect();
    let chi_square = bias.chi_square(&expected);
    Ok(SamplerReport {
        samples: total as u64,
        chi_square,
        dof: classes.saturating_sub(1),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sampler::{SequentialSampler, ShuffleSampler};
    use crate::synthetic::SyntheticDataset;
    use std::sync::Arc;

    #[test]
    fn histogram_records() {
        let mut b = DatasetBias::new(3);
        for l in [0u32, 1, 1, 2, 2, 2] {
            b.record(l);
        }
        assert_eq!(b.counts, [1, 2, 3]);
        assert_eq!(b.total(), 6);
        b.record(99); // out of range: ignored
        assert_eq!(b.total(), 6);
        assert!(b.chi_square(&[2.0; 3]) > 0.0);
    }

    #[test]
    fn chi_square_of_perfect_match_is_zero() {
        let mut b = DatasetBias::new(2);
        b.record(0);
        b.record(1);
        assert_eq!(b.chi_square(&[1.0, 1.0]), 0.0);
    }

    #[test]
    fn full_epoch_samplers_are_unbiased() {
        // Any sampler that visits each element exactly once per epoch has
        // chi-square exactly 0 against the dataset distribution.
        let d: Arc<dyn crate::Dataset> = Arc::new(SyntheticDataset::mnist_like(200, 4));
        let mut s = SequentialSampler::new(d.clone(), 32);
        let report = test_sampler(&mut s, 2).unwrap();
        assert_eq!(report.samples, 400);
        assert!(report.chi_square < 1e-9);
        assert!(report.passes(2.0));

        let mut s = ShuffleSampler::new(d, 32, 7);
        let report = test_sampler(&mut s, 1).unwrap();
        assert!(report.chi_square < 1e-9);
    }

    #[test]
    fn a_biased_sampler_is_caught() {
        /// A sampler that only ever returns sample 0.
        struct Stuck {
            d: Arc<dyn crate::Dataset>,
            remaining: usize,
        }
        impl DatasetSampler for Stuck {
            fn dataset(&self) -> &dyn crate::Dataset {
                self.d.as_ref()
            }
            fn batch_size(&self) -> usize {
                1
            }
            fn next_batch(&mut self) -> Result<Option<crate::Minibatch>> {
                if self.remaining == 0 {
                    return Ok(None);
                }
                self.remaining -= 1;
                Ok(Some(crate::dataset::assemble_minibatch(
                    self.d.as_ref(),
                    &[0],
                )?))
            }
            fn reset_epoch(&mut self) {
                self.remaining = 100;
            }
        }
        let d: Arc<dyn crate::Dataset> = Arc::new(SyntheticDataset::mnist_like(200, 4));
        let mut s = Stuck { d, remaining: 0 };
        let report = test_sampler(&mut s, 1).unwrap();
        assert!(
            !report.passes(3.0),
            "chi2 {} dof {}",
            report.chi_square,
            report.dof
        );
    }
}
