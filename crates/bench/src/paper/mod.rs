//! `paper` — the paper's own evaluation (Section V: Fig. 6–12, Table III,
//! the §V-D overhead claim) as one tracked report, `BENCH_paper.json`.
//!
//! One module per figure adds its row tables (table names prefixed with
//! the figure) and turns each "Expected shapes (paper)" sentence of its
//! header into a named gate — a pure function of the rows (see
//! [`crate::rows`]), listed beside the entry in [`crate::BENCHES`].
//! A claim this substrate cannot reproduce is renegotiated in the open:
//! the gate's `detail` quotes the paper, the measured values and the
//! restated criterion (EXPERIMENTS E28).
//!
//! Run with: `cargo run --release -p deep500-bench -- paper`

use crate::rows::Row;
use crate::{time_rounds, Subject};
use deep500::data::codec::RawImage;
use deep500::metrics::stats::Summary;
use deep500::prelude::*;
use deep500::train::runner::evaluate;

pub mod fig10_frameworks;
pub mod fig11_divergence;
pub mod fig12_scaling;
pub mod fig6_operators;
pub mod fig7_microbatch;
pub mod fig8_dataset_latency;
pub mod fig9_optimizers;
pub mod level2_overhead;
pub mod table3_decode;

pub fn measure() -> Vec<Row> {
    [
        fig6_operators::section,
        fig7_microbatch::section,
        fig8_dataset_latency::section,
        table3_decode::section,
        fig9_optimizers::section,
        fig10_frameworks::section,
        fig11_divergence::section,
        fig12_scaling::section,
        level2_overhead::section,
    ]
    .iter()
    .flat_map(|section| section())
    .collect()
}

/// One training configuration that advances an epoch per call, so any
/// number of them are subjects of one `time_rounds` loop — every round is
/// one epoch of every configuration, and machine drift over the run lands
/// on all of them alike. The epoch's time is the runner's own (test-set
/// evaluation excluded); the warm-up round is the first epoch, which the
/// paper also drops ("instantiation overhead").
struct Trainee {
    executor: Box<dyn GraphExecutor>,
    optimizer: Box<dyn ThreeStepOptimizer>,
    train: ShuffleSampler,
    test: ShuffleSampler,
    /// Test accuracy after each epoch run so far.
    accuracy: Vec<f64>,
}

impl Trainee {
    /// `optimizer` training `executor`'s network on a seeded synthetic
    /// `[3, hw, hw]` 10-class task, identical across the trainees of a
    /// figure: a fair comparison.
    fn new(
        executor: Box<dyn GraphExecutor>,
        optimizer: Box<dyn ThreeStepOptimizer>,
        (channels, hw, len, batch): (usize, usize, usize, usize),
        seed: u64,
    ) -> Trainee {
        let shape = Shape::new(&[channels, hw, hw]);
        let train_ds = SyntheticDataset::new("paper", shape, 10, len, 2.0, seed);
        let test_ds = train_ds.holdout(len / 4);
        Trainee {
            executor,
            optimizer,
            train: ShuffleSampler::new(std::sync::Arc::new(train_ds), batch, seed),
            test: ShuffleSampler::new(std::sync::Arc::new(test_ds), batch * 2, seed),
            accuracy: Vec::new(),
        }
    }

    /// One warm-up epoch (dropped, as the paper drops the first), then
    /// `rounds` timed epochs of every trainee, interleaved; returns each
    /// trainee's per-epoch timing.
    fn train(trainees: &mut [Trainee], rounds: usize) -> Vec<Summary> {
        let mut subjects: Vec<Subject<1>> = trainees
            .iter_mut()
            .map(|trainee| Subject::spans(move || trainee.epoch()))
            .collect();
        let timed = time_rounds(1, rounds, &mut subjects);
        timed.into_iter().map(|[t]| t).collect()
    }

    /// The accuracy after the last epoch run.
    fn final_accuracy(&self) -> f64 {
        *self.accuracy.last().expect("epochs ran")
    }

    /// Train one epoch; returns its wall time in seconds.
    fn epoch(&mut self) -> [f64; 1] {
        let mut runner = TrainingRunner::new(TrainingConfig {
            epochs: 1,
            ..Default::default()
        });
        let log = runner
            .run(
                &mut *self.optimizer,
                &mut *self.executor,
                &mut self.train,
                None,
            )
            .expect("training epoch");
        let accuracy = evaluate(&mut *self.executor, &mut self.test).expect("test accuracy");
        self.accuracy.push(accuracy);
        [log.epoch_times[0]]
    }
}

/// A file under a per-process scratch directory of the system temp dir.
fn scratch_file(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("d5-paper-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(name)
}

/// `count` labelled `3 x hw x hw` images of a seeded ImageNet-shaped
/// synthetic dataset, ready for a container writer.
fn imagenet_shard(dataset: &SyntheticDataset, hw: usize, count: usize) -> Vec<(RawImage, u32)> {
    let sample = |i| {
        let (pixels, label) = dataset.sample_u8(i);
        (RawImage::new(3, hw, hw, pixels).expect("raw image"), label)
    };
    (0..count).map(sample).collect()
}
