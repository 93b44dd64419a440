//! Dataset samplers (Level-2 `DatasetSampler` interface).
//!
//! A sampler turns a [`Dataset`] into a stream of minibatches. The paper's
//! interface "provides minibatches by sampling a given dataset, and can be
//! extended to test different sampling schemes"; we provide:
//!
//! * [`SequentialSampler`] — in-order batches,
//! * [`ShuffleSampler`] — a fresh full permutation every epoch (true
//!   shuffling),
//! * [`BufferShuffleSampler`] — TF-style pseudo-shuffling through a
//!   bounded buffer (reduced stochasticity, cheap sequential I/O),
//! * [`ShardedSampler`] — the Level-3 `DistributedSampler`: rank `r` of
//!   `world` sees every `world`-th index, preserving the distributed-SGD
//!   semantics the paper keeps when forking processes.
//!
//! The first three assemble **one batch ahead**: `next_batch` hands out the
//! batch a worker thread assembled while the caller was busy with the
//! previous one, then draws the next batch's indices and starts it. What a
//! caller times around `next_batch` is therefore the time it *waited* for
//! data, not what the data cost to produce; the cost itself is
//! [`assemble_minibatch`] over the same indices, which is what the
//! look-ahead runs and what the dataset-latency experiments time directly.
//! Which indices form which batch, every RNG draw and the order of
//! `Dataset::sample` calls are those of drawing and assembling inline.

use crate::dataset::{assemble_minibatch, Dataset, Minibatch};
use deep500_tensor::{Error, Result, Xoshiro256StarStar};
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{self, Receiver, SendError, Sender};
use std::sync::Arc;

/// A source of minibatches over a dataset.
pub trait DatasetSampler: Send {
    /// The sampled dataset.
    fn dataset(&self) -> &dyn Dataset;

    /// Configured batch size.
    fn batch_size(&self) -> usize;

    /// Next minibatch, or `None` when the epoch is exhausted.
    fn next_batch(&mut self) -> Result<Option<Minibatch>>;

    /// Start a new epoch (reshuffle where applicable).
    fn reset_epoch(&mut self);

    /// Number of (full or partial) batches per epoch.
    fn batches_per_epoch(&self) -> usize {
        self.dataset().len().div_ceil(self.batch_size().max(1))
    }
}

/// What the look-ahead worker is sent: the indices of one batch, and where
/// the assembled batch goes.
type Request = (Vec<usize>, Sender<Result<Minibatch>>);

/// One batch of look-ahead over a dataset: a worker thread that runs
/// [`assemble_minibatch`] on the indices it is sent, one request at a time
/// in the order sent, and at most one batch requested and not yet handed
/// out.
///
/// The depth is one on purpose: a batch is cheaper to assemble than the
/// training step it hides behind, so a second batch in flight would only
/// hold memory. Every batch goes through the worker, also when nothing was
/// requested ahead (a fresh sampler, a new epoch), so a dataset never sees
/// two assemblers at once and a batch discarded by `reset_epoch` finishes
/// before the new epoch's first `Dataset::sample`.
struct LookAhead {
    dataset: Arc<dyn Dataset>,
    /// The worker's inbox; the thread is spawned by the first request and
    /// ends when this sender drops.
    worker: Option<Sender<Request>>,
    /// The batch requested last, until `next` hands it out or `discard`
    /// forgets it.
    pending: Option<Receiver<Result<Minibatch>>>,
}

impl LookAhead {
    fn new(dataset: Arc<dyn Dataset>) -> Self {
        LookAhead {
            dataset,
            worker: None,
            pending: None,
        }
    }

    /// The next batch, where `draw` yields the indices of each batch in
    /// turn (advancing the sampler past them) and `None` once the epoch is
    /// exhausted: the pending batch — or, when there is none, the one drawn
    /// now — after drawing and requesting its successor. A batch that
    /// failed is consumed like one that succeeded.
    fn next(&mut self, mut draw: impl FnMut() -> Option<Vec<usize>>) -> Result<Option<Minibatch>> {
        let pending = match self.pending.take() {
            Some(pending) => pending,
            None => match draw() {
                Some(indices) => self.request(indices),
                None => return Ok(None),
            },
        };
        let batch = pending.recv().unwrap_or_else(|_| {
            Err(Error::Invalid(
                "the look-ahead worker exited before delivering its batch".into(),
            ))
        });
        self.pending = draw().map(|indices| self.request(indices));
        batch.map(Some)
    }

    /// Forget the pending batch (its indices belong to an abandoned epoch).
    /// The worker still finishes assembling it; nobody receives it.
    fn discard(&mut self) {
        self.pending = None;
    }

    /// Ask the worker for the batch over `indices`.
    fn request(&mut self, indices: Vec<usize>) -> Receiver<Result<Minibatch>> {
        let (reply, pending) = mpsc::channel();
        if self.worker.is_none() {
            self.worker = spawn_worker(self.dataset.clone());
        }
        let request = (indices, reply);
        let sent = match &self.worker {
            Some(worker) => worker.send(request),
            None => Err(SendError(request)),
        };
        // Without a worker (the thread could not be spawned) the batch is
        // assembled here: the same batches at the same calls, no overlap.
        if let Err(SendError((indices, reply))) = sent {
            self.worker = None;
            let _ = reply.send(assemble_minibatch(self.dataset.as_ref(), &indices));
        }
        pending
    }
}

/// Spawn the look-ahead worker over `dataset`; `None` if the OS refuses
/// the thread. The thread is detached on purpose: dropping a sampler must
/// not wait for a slow dataset, and the worker owns nothing but its
/// `Arc` of the dataset, which it releases when the inbox closes. What a
/// join would report — a panic — reaches the caller as the batch's error.
fn spawn_worker(dataset: Arc<dyn Dataset>) -> Option<Sender<Request>> {
    let (worker, inbox) = mpsc::channel::<Request>();
    std::thread::Builder::new()
        .name("d5-lookahead".into())
        .spawn(move || {
            for (indices, reply) in inbox {
                // A `Dataset` is `Sync`: whatever state a panic leaves in it
                // is the state an inline caller would have been left with.
                let assemble = AssertUnwindSafe(|| assemble_minibatch(dataset.as_ref(), &indices));
                let batch = catch_unwind(assemble).unwrap_or_else(|_| {
                    Err(Error::Invalid(
                        "the dataset panicked while a batch was assembled \
                         (message on stderr, thread d5-lookahead)"
                            .into(),
                    ))
                });
                // An epoch reset or a dropped sampler no longer listens.
                let _ = reply.send(batch);
            }
        })
        .ok()?;
    Some(worker)
}

/// The next (full or tail) batch of `len` positions: the range starting at
/// `cursor`, which moves past it.
fn advance(cursor: &mut usize, batch: usize, len: usize) -> Option<Range<usize>> {
    let start = *cursor;
    *cursor = start.saturating_add(batch).min(len);
    (start < len).then_some(start..*cursor)
}

/// In-order batches, assembled one ahead.
pub struct SequentialSampler {
    ahead: LookAhead,
    batch: usize,
    cursor: usize,
}

impl SequentialSampler {
    pub fn new(dataset: Arc<dyn Dataset>, batch: usize) -> Self {
        SequentialSampler {
            ahead: LookAhead::new(dataset),
            batch: batch.max(1),
            cursor: 0,
        }
    }
}

impl DatasetSampler for SequentialSampler {
    fn dataset(&self) -> &dyn Dataset {
        self.ahead.dataset.as_ref()
    }
    fn batch_size(&self) -> usize {
        self.batch
    }
    fn next_batch(&mut self) -> Result<Option<Minibatch>> {
        let len = self.ahead.dataset.len();
        self.ahead
            .next(|| advance(&mut self.cursor, self.batch, len).map(Vec::from_iter))
    }
    fn reset_epoch(&mut self) {
        self.ahead.discard();
        self.cursor = 0;
    }
}

/// True shuffling: a fresh permutation of the whole dataset per epoch,
/// batches assembled one ahead.
pub struct ShuffleSampler {
    ahead: LookAhead,
    batch: usize,
    order: Vec<usize>,
    cursor: usize,
    rng: Xoshiro256StarStar,
}

impl ShuffleSampler {
    pub fn new(dataset: Arc<dyn Dataset>, batch: usize, seed: u64) -> Self {
        let mut s = ShuffleSampler {
            order: (0..dataset.len()).collect(),
            ahead: LookAhead::new(dataset),
            batch: batch.max(1),
            cursor: 0,
            rng: Xoshiro256StarStar::seed_from_u64(seed),
        };
        s.rng.shuffle(&mut s.order);
        s
    }

    /// The current epoch's permutation (test hook).
    pub fn order(&self) -> &[usize] {
        &self.order
    }
}

impl DatasetSampler for ShuffleSampler {
    fn dataset(&self) -> &dyn Dataset {
        self.ahead.dataset.as_ref()
    }
    fn batch_size(&self) -> usize {
        self.batch
    }
    fn next_batch(&mut self) -> Result<Option<Minibatch>> {
        self.ahead.next(|| {
            advance(&mut self.cursor, self.batch, self.order.len())
                .map(|positions| self.order[positions].to_vec())
        })
    }
    fn reset_epoch(&mut self) {
        self.ahead.discard();
        self.cursor = 0;
        self.rng.shuffle(&mut self.order);
    }
}

/// TF-style pseudo-shuffling: indices stream sequentially into a bounded
/// buffer; batches draw uniformly from the buffer. Cheap for sequential
/// storage, but "reduces stochasticity" (paper §V-D) — early batches can
/// only contain early samples. Batches are assembled one ahead.
pub struct BufferShuffleSampler {
    ahead: LookAhead,
    batch: usize,
    capacity: usize,
    buffer: Vec<usize>,
    next_index: usize,
    rng: Xoshiro256StarStar,
    seed: u64,
    epoch: u64,
}

impl BufferShuffleSampler {
    pub fn new(dataset: Arc<dyn Dataset>, batch: usize, capacity: usize, seed: u64) -> Self {
        BufferShuffleSampler {
            ahead: LookAhead::new(dataset),
            batch: batch.max(1),
            capacity: capacity.max(1),
            buffer: Vec::new(),
            next_index: 0,
            rng: Xoshiro256StarStar::seed_from_u64(seed),
            seed,
            epoch: 0,
        }
    }
}

impl DatasetSampler for BufferShuffleSampler {
    fn dataset(&self) -> &dyn Dataset {
        self.ahead.dataset.as_ref()
    }
    fn batch_size(&self) -> usize {
        self.batch
    }
    fn next_batch(&mut self) -> Result<Option<Minibatch>> {
        let len = self.ahead.dataset.len();
        self.ahead.next(|| {
            while self.buffer.len() < self.capacity && self.next_index < len {
                self.buffer.push(self.next_index);
                self.next_index += 1;
            }
            let take = self.batch.min(self.buffer.len());
            let mut draw = || {
                let j = self.rng.next_below(self.buffer.len());
                self.buffer.swap_remove(j)
            };
            (take > 0).then(|| (0..take).map(|_| draw()).collect())
        })
    }
    fn reset_epoch(&mut self) {
        self.ahead.discard();
        self.epoch += 1;
        self.buffer.clear();
        self.next_index = 0;
        self.rng = Xoshiro256StarStar::seed_from_u64(self.seed ^ self.epoch);
    }
}

/// The Level-3 distributed sampler: rank `rank` of `world` draws the
/// subsequence `rank, rank+world, rank+2·world, …` of an (optionally
/// shuffled) global permutation, so the union over ranks is exactly one
/// epoch with no overlap.
///
/// Batches are assembled inline, without the look-ahead of the samplers
/// above: a distributed run already has one thread per rank, so there is no
/// idle core to assemble on, and a rank's batch is a few percent of its
/// step.
pub struct ShardedSampler {
    dataset: Arc<dyn Dataset>,
    batch: usize,
    rank: usize,
    world: usize,
    order: Vec<usize>,
    /// This rank's share of `order`, rebuilt with each epoch's permutation.
    shard: Vec<usize>,
    cursor: usize,
    rng: Xoshiro256StarStar,
    shuffle: bool,
}

impl ShardedSampler {
    /// Sharded sampler; all ranks must use the same `seed` so their global
    /// permutations agree (the paper's "proper distributed DL semantics
    /// w.r.t. dataset sampling").
    pub fn new(
        dataset: Arc<dyn Dataset>,
        batch: usize,
        rank: usize,
        world: usize,
        shuffle: bool,
        seed: u64,
    ) -> Self {
        assert!(rank < world, "rank {rank} out of world {world}");
        let mut s = ShardedSampler {
            order: (0..dataset.len()).collect(),
            shard: Vec::new(),
            dataset,
            batch: batch.max(1),
            rank,
            world,
            cursor: 0,
            rng: Xoshiro256StarStar::seed_from_u64(seed),
            shuffle,
        };
        s.begin_epoch();
        s
    }

    /// Indices owned by this rank in the current epoch.
    ///
    /// Public for: §IV-F, the slice of an epoch a data-parallel rank owns.
    pub fn shard_indices(&self) -> Vec<usize> {
        self.shard.clone()
    }

    /// Draw the epoch's permutation and this rank's shard of it.
    fn begin_epoch(&mut self) {
        self.cursor = 0;
        if self.shuffle {
            self.rng.shuffle(&mut self.order);
        }
        let mine = self.order.iter().skip(self.rank).step_by(self.world);
        self.shard.clear();
        self.shard.extend(mine);
    }
}

impl DatasetSampler for ShardedSampler {
    fn dataset(&self) -> &dyn Dataset {
        self.dataset.as_ref()
    }
    fn batch_size(&self) -> usize {
        self.batch
    }
    fn next_batch(&mut self) -> Result<Option<Minibatch>> {
        if self.cursor >= self.shard.len() {
            return Ok(None);
        }
        let end = (self.cursor + self.batch).min(self.shard.len());
        let mb = assemble_minibatch(self.dataset.as_ref(), &self.shard[self.cursor..end])?;
        self.cursor = end;
        Ok(Some(mb))
    }
    fn reset_epoch(&mut self) {
        self.begin_epoch();
    }
    fn batches_per_epoch(&self) -> usize {
        let shard = self.dataset.len().div_ceil(self.world);
        shard.div_ceil(self.batch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::SyntheticDataset;

    fn ds(n: usize) -> Arc<dyn Dataset> {
        Arc::new(SyntheticDataset::mnist_like(n, 1))
    }

    fn drain(s: &mut dyn DatasetSampler) -> Vec<Minibatch> {
        let mut out = Vec::new();
        while let Some(b) = s.next_batch().unwrap() {
            out.push(b);
        }
        out
    }

    #[test]
    fn sequential_covers_epoch_in_order() {
        let mut s = SequentialSampler::new(ds(10), 4);
        let batches = drain(&mut s);
        assert_eq!(batches.len(), 3);
        assert_eq!(batches[0].len(), 4);
        assert_eq!(batches[2].len(), 2); // partial tail
        assert_eq!(s.batches_per_epoch(), 3);
        s.reset_epoch();
        assert_eq!(drain(&mut s).len(), 3);
    }

    #[test]
    fn shuffle_is_a_permutation_and_reshuffles() {
        let mut s = ShuffleSampler::new(ds(20), 7, 3);
        let first_order = s.order().to_vec();
        let total: usize = drain(&mut s).iter().map(|b| b.len()).sum();
        assert_eq!(total, 20);
        let mut sorted = first_order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..20).collect::<Vec<_>>());
        s.reset_epoch();
        assert_ne!(s.order(), &first_order[..], "new epoch, new permutation");
    }

    #[test]
    fn buffer_shuffle_reduces_stochasticity() {
        // With capacity 4, the first batch can only contain indices < 4+batch.
        let d = ds(100);
        let mut s = BufferShuffleSampler::new(d, 4, 4, 1);
        let b = s.next_batch().unwrap().unwrap();
        assert_eq!(b.len(), 4);
        // Epoch covers everything exactly once.
        s.reset_epoch();
        let total: usize = drain(&mut s).iter().map(|b| b.len()).sum();
        assert_eq!(total, 100);
    }

    #[test]
    fn sharded_ranks_partition_the_epoch() {
        let d = ds(23);
        let world = 4;
        let mut seen = Vec::new();
        for rank in 0..world {
            let s = ShardedSampler::new(d.clone(), 5, rank, world, true, 99);
            seen.extend(s.shard_indices());
        }
        seen.sort_unstable();
        assert_eq!(seen, (0..23).collect::<Vec<_>>(), "no overlap, no gaps");
    }

    #[test]
    fn sharded_batches_drain() {
        let d = ds(16);
        let mut s = ShardedSampler::new(d, 3, 1, 4, false, 0);
        let batches = drain(&mut s);
        let total: usize = batches.iter().map(|b| b.len()).sum();
        assert_eq!(total, 4); // 16/4 per rank
        assert_eq!(s.batches_per_epoch(), 2);
        s.reset_epoch();
        assert_eq!(drain(&mut s).len(), batches.len());
    }

    #[test]
    #[should_panic(expected = "out of world")]
    fn sharded_rank_bound() {
        ShardedSampler::new(ds(4), 1, 4, 4, false, 0);
    }

    // ---- look-ahead -------------------------------------------------------

    /// The index lists of three epochs: one run to its end, one abandoned
    /// by `reset_epoch` after its first batch, one run to its end.
    type Epochs = [&'static [&'static [usize]]; 3];

    // Recorded from the samplers as they were when `next_batch` drew and
    // assembled inline (10 samples, batch 4; shuffle seed 3; buffer 5).
    const SEQUENTIAL: Epochs = [
        &[&[0, 1, 2, 3], &[4, 5, 6, 7], &[8, 9]],
        &[&[0, 1, 2, 3]],
        &[&[0, 1, 2, 3], &[4, 5, 6, 7], &[8, 9]],
    ];
    const SHUFFLE: Epochs = [
        &[&[6, 7, 3, 4], &[5, 2, 0, 9], &[1, 8]],
        &[&[2, 3, 4, 5]],
        &[&[8, 4, 2, 5], &[0, 7, 1, 6], &[3, 9]],
    ];
    const BUFFER: Epochs = [
        &[&[3, 2, 4, 0], &[5, 7, 6, 1], &[9, 8]],
        &[&[0, 2, 4, 1]],
        &[&[2, 4, 3, 1], &[5, 6, 7, 8], &[9, 0]],
    ];

    /// The three look-ahead samplers over `dataset`, each with the epochs
    /// it must reproduce.
    fn cases(dataset: Arc<dyn Dataset>) -> [(Box<dyn DatasetSampler>, Epochs); 3] {
        [
            (
                Box::new(SequentialSampler::new(dataset.clone(), 4)),
                SEQUENTIAL,
            ),
            (
                Box::new(ShuffleSampler::new(dataset.clone(), 4, 3)),
                SHUFFLE,
            ),
            (
                Box::new(BufferShuffleSampler::new(dataset, 4, 5, 3)),
                BUFFER,
            ),
        ]
    }

    /// Ten MNIST-like samples behind a hook that sees every `sample(idx)`
    /// first: it may log, fail, panic or block.
    struct Probe {
        inner: SyntheticDataset,
        hook: Box<dyn Fn(usize) -> Result<()> + Send + Sync>,
    }

    fn probe(hook: impl Fn(usize) -> Result<()> + Send + Sync + 'static) -> Arc<Probe> {
        Arc::new(Probe {
            inner: SyntheticDataset::mnist_like(10, 1),
            hook: Box::new(hook),
        })
    }

    impl Dataset for Probe {
        fn name(&self) -> &str {
            "probe"
        }
        fn len(&self) -> usize {
            self.inner.len()
        }
        fn sample_shape(&self) -> deep500_tensor::Shape {
            self.inner.sample_shape()
        }
        fn num_classes(&self) -> usize {
            self.inner.num_classes()
        }
        fn sample(&self, idx: usize) -> Result<crate::Sample> {
            (self.hook)(idx)?;
            self.inner.sample(idx)
        }
    }

    fn bits(batch: &Minibatch) -> Vec<u32> {
        let values = batch.x.data().iter().chain(batch.labels.data());
        values.map(|v| v.to_bits()).collect()
    }

    /// `sampler`'s next batches must be, bit for bit, inline assembly over
    /// each of `expected`'s index lists.
    fn assert_hands_out(
        sampler: &mut dyn DatasetSampler,
        dataset: &dyn Dataset,
        expected: &[&[usize]],
    ) {
        for indices in expected {
            let got = sampler.next_batch().unwrap().expect("epoch ended early");
            let want = assemble_minibatch(dataset, indices).unwrap();
            assert_eq!(got.x.shape(), want.x.shape());
            assert_eq!(bits(&got), bits(&want), "batch over {indices:?}");
        }
    }

    #[test]
    fn look_ahead_hands_out_the_recorded_batches_bitwise() {
        let dataset = ds(10);
        for (mut sampler, [first, abandoned, third]) in cases(dataset.clone()) {
            assert_hands_out(&mut *sampler, &*dataset, first);
            assert!(sampler.next_batch().unwrap().is_none());
            assert!(sampler.next_batch().unwrap().is_none(), "and stays ended");
            sampler.reset_epoch();
            assert_hands_out(&mut *sampler, &*dataset, abandoned);
            sampler.reset_epoch(); // mid-epoch: a batch is in flight
            assert_hands_out(&mut *sampler, &*dataset, third);
            assert!(sampler.next_batch().unwrap().is_none());
        }
        // The permutations themselves, not just what was assembled from them.
        let mut shuffle = ShuffleSampler::new(dataset, 4, 3);
        assert_eq!(shuffle.order(), SHUFFLE[0].concat());
        shuffle.next_batch().unwrap();
        assert_eq!(shuffle.order(), SHUFFLE[0].concat(), "drawing ahead");
        shuffle.reset_epoch();
        assert_eq!(shuffle.order()[..4], *SHUFFLE[1][0]);
        shuffle.reset_epoch();
        assert_eq!(shuffle.order(), SHUFFLE[2].concat());
    }

    #[test]
    fn sample_call_order_is_that_of_inline_assembly() {
        let log = Arc::new(std::sync::Mutex::new(Vec::new()));
        let calls = || std::mem::take(&mut *log.lock().unwrap());
        let logging = probe({
            let log = log.clone();
            move |idx| {
                log.lock().unwrap().push(idx);
                Ok(())
            }
        });
        for (mut sampler, [epoch, ..]) in cases(logging.clone()) {
            assert_eq!(drain(&mut *sampler).len(), epoch.len());
            let ahead = calls();
            for indices in epoch {
                assemble_minibatch(&*logging, indices).unwrap();
            }
            assert_eq!(ahead, calls());
        }
    }

    #[test]
    fn a_dataset_error_surfaces_at_the_call_that_would_have_assembled_it() {
        let failing = probe(|idx| match idx {
            9 => Err(Error::Io("probe fails at 9".into())),
            _ => Ok(()),
        });
        for (mut sampler, [first, abandoned, _]) in cases(failing.clone()) {
            for indices in first {
                let inline = assemble_minibatch(&*failing, indices);
                let ahead = sampler.next_batch().map(|b| b.expect("epoch ended early"));
                assert_eq!(ahead, inline, "batch over {indices:?}");
            }
            assert!(sampler.next_batch().unwrap().is_none());
            // The failure is behind it: the next epoch starts like any other.
            sampler.reset_epoch();
            assert_hands_out(&mut *sampler, &*failing, abandoned);
        }
    }

    #[test]
    fn a_panicking_dataset_is_an_error_not_a_hang() {
        let panicking = probe(|idx| {
            assert_ne!(idx, 9, "probe panics at 9");
            Ok(())
        });
        for (mut sampler, [first, abandoned, _]) in cases(panicking.clone()) {
            for indices in first {
                let batch = sampler.next_batch();
                assert_eq!(batch.is_err(), indices.contains(&9), "{batch:?}");
            }
            // The worker outlives the panic.
            sampler.reset_epoch();
            assert_hands_out(&mut *sampler, &*panicking, abandoned);
        }
    }

    #[test]
    fn dropping_a_sampler_does_not_wait_for_the_batch_in_flight() {
        let (entered, worker_entered) = mpsc::channel();
        let (open_gate, gate) = mpsc::channel::<()>();
        let gate = std::sync::Mutex::new(gate);
        // Samples past the first batch report in and wait at the gate.
        let gated = probe(move |idx| {
            if idx >= 4 {
                entered.send(idx).unwrap();
                // Opened by the test dropping its end.
                let _ = gate.lock().unwrap().recv();
            }
            Ok(())
        });
        let mut sampler = SequentialSampler::new(gated, 4);
        assert_eq!(sampler.next_batch().unwrap().unwrap().len(), 4);
        // The worker is now inside `sample(4)` and stays there.
        assert_eq!(worker_entered.recv().unwrap(), 4);
        drop(sampler);
        // Reaching this line is the claim. The worker then finishes its
        // batch, finds the inbox closed and lets go of the dataset, whose
        // hook owns the only `entered` sender.
        drop(open_gate);
        loop {
            match worker_entered.recv_timeout(std::time::Duration::from_secs(30)) {
                Ok(_rest_of_the_abandoned_batch) => {}
                Err(mpsc::RecvTimeoutError::Disconnected) => break,
                Err(mpsc::RecvTimeoutError::Timeout) => {
                    panic!("the look-ahead worker never let go of the dataset")
                }
            }
        }
    }
}
