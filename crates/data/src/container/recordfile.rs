//! TFRecord-style chunked record container with a pseudo-shuffle pipeline.
//!
//! The paper attributes TensorFlow's ImageNet ingest advantage (Table III)
//! to two mechanisms, both reproduced here:
//!
//! * **parallel decoding** of a minibatch ("the ratios between runtime of a
//!   minibatch and one image suggest that TensorFlow employs parallel
//!   decoding") — [`RecordPipeline::next_batch`] decodes records with
//!   rayon,
//! * **pseudo-shuffling**: "a buffer of (10,000) images is loaded into
//!   memory once and shuffled internally. This chunk-based loading reduces
//!   stochasticity, but enables pipelining file I/O and in-memory
//!   shuffling" — the pipeline reads *sequentially* (cheap) into a shuffle
//!   buffer and samples from it at random.
//!
//! Record layout: varint label, varint payload length, D5J payload.

use crate::codec;
use crate::codec::entropy::{read_u64, write_u64};
use crate::io_model::{StorageClock, StorageModel};
use crate::Minibatch;
use deep500_tensor::{Error, Result, Tensor, Xoshiro256StarStar};
use rayon::prelude::*;
use std::io::Write;
use std::path::Path;
use std::sync::Arc;

/// Write a record file of D5J-encoded images.
pub fn write_recordfile(
    path: &Path,
    samples: &[(codec::RawImage, u32)],
    quality: u8,
) -> Result<()> {
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    let mut header = Vec::new();
    for (img, label) in samples {
        let payload = codec::encode(img, quality)?;
        header.clear();
        write_u64(&mut header, *label as u64);
        write_u64(&mut header, payload.len() as u64);
        f.write_all(&header)?;
        f.write_all(&payload)?;
    }
    f.flush()?;
    Ok(())
}

/// One encoded record held in memory.
#[derive(Debug, Clone)]
pub struct Record {
    pub label: u32,
    pub payload: Vec<u8>,
}

/// A streaming reader over a record file: loads the raw bytes once,
/// yields records sequentially, charging sequential-stream I/O.
pub struct RecordReader {
    bytes: Vec<u8>,
    pos: usize,
    model: StorageModel,
    clock: Arc<StorageClock>,
    charged: usize,
}

impl RecordReader {
    /// Open a record file.
    pub fn open(path: &Path, model: StorageModel, clock: Arc<StorageClock>) -> Result<Self> {
        let bytes = std::fs::read(path)?;
        clock.charge(model.open_latency_s);
        Ok(RecordReader {
            bytes,
            pos: 0,
            model,
            clock,
            charged: 0,
        })
    }

    /// Next record, or `None` at end of stream.
    pub fn next_record(&mut self) -> Result<Option<Record>> {
        if self.pos >= self.bytes.len() {
            return Ok(None);
        }
        let start = self.pos;
        let label = read_u64(&self.bytes, &mut self.pos)? as u32;
        let len = read_u64(&self.bytes, &mut self.pos)? as usize;
        let end = self
            .pos
            .checked_add(len)
            .filter(|&e| e <= self.bytes.len())
            .ok_or_else(|| Error::Format("truncated record".into()))?;
        let payload = self.bytes[self.pos..end].to_vec();
        self.pos = end;
        // Charge sequential streaming for the bytes consumed.
        let consumed = self.pos - start;
        self.charged += consumed;
        self.clock.charge(self.model.stream_cost(consumed));
        Ok(Some(Record { label, payload }))
    }

    /// Restart from the beginning (new epoch).
    pub fn rewind(&mut self) {
        self.pos = 0;
        self.clock.charge(self.model.seek_latency_s);
    }
}

/// The TF-style input pipeline: sequential reads → shuffle buffer →
/// parallel decode.
pub struct RecordPipeline {
    reader: RecordReader,
    buffer: Vec<Record>,
    buffer_capacity: usize,
    rng: Xoshiro256StarStar,
    parallel_decode: bool,
}

impl RecordPipeline {
    /// Pipeline over `reader` with the given shuffle-buffer capacity
    /// (the paper quotes TensorFlow's default of 10,000).
    pub fn new(
        reader: RecordReader,
        buffer_capacity: usize,
        parallel_decode: bool,
        seed: u64,
    ) -> Self {
        RecordPipeline {
            reader,
            buffer: Vec::with_capacity(buffer_capacity.min(16384)),
            buffer_capacity: buffer_capacity.max(1),
            rng: Xoshiro256StarStar::seed_from_u64(seed),
            parallel_decode,
        }
    }

    fn refill(&mut self) -> Result<()> {
        while self.buffer.len() < self.buffer_capacity {
            match self.reader.next_record()? {
                Some(r) => self.buffer.push(r),
                None => break,
            }
        }
        Ok(())
    }

    /// Pop `batch` records (pseudo-shuffled), decode them (in parallel if
    /// configured), and assemble the batch tensor. Returns `None` when the
    /// stream and buffer are exhausted. The batch's `x` is `[B, C, H, W]`.
    pub fn next_batch(&mut self, batch: usize) -> Result<Option<Minibatch>> {
        self.refill()?;
        if self.buffer.is_empty() {
            return Ok(None);
        }
        let take = batch.min(self.buffer.len());
        let mut records = Vec::with_capacity(take);
        for _ in 0..take {
            let j = self.rng.next_below(self.buffer.len());
            records.push(self.buffer.swap_remove(j));
        }
        type Decoded = (Vec<f32>, u32, (usize, usize, usize));
        let decode = |r: &Record| -> Result<Decoded> {
            let img = codec::decode_turbo(&r.payload)?;
            let data: Vec<f32> = img.pixels.iter().map(|&b| b as f32 / 127.5 - 1.0).collect();
            Ok((data, r.label, (img.c, img.h, img.w)))
        };
        // Not through `deep500_ops::par`: its cut counts multiply-adds, a
        // record decode is not counted in those, so the caller's
        // `parallel_decode` decides.
        let decoded: Vec<_> = if self.parallel_decode {
            records.par_iter().map(decode).collect::<Result<_>>()?
        } else {
            records.iter().map(decode).collect::<Result<_>>()?
        };
        let (c, h, w) = decoded[0].2;
        if decoded.iter().any(|d| d.2 != (c, h, w)) {
            return Err(Error::ShapeMismatch("mixed image sizes in batch".into()));
        }
        let mut x = Tensor::zeros([take, c, h, w]);
        let mut labels = Tensor::zeros([take]);
        let per = c * h * w;
        for (i, (data, label, _)) in decoded.iter().enumerate() {
            x.data_mut()[i * per..(i + 1) * per].copy_from_slice(data);
            labels.data_mut()[i] = *label as f32;
        }
        Ok(Some(Minibatch { x, labels }))
    }

    /// Restart the underlying stream (buffer contents retained, as TF does).
    pub fn rewind(&mut self) {
        self.reader.rewind();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::SyntheticDataset;

    fn make_record_file(n: usize, name: &str) -> std::path::PathBuf {
        let src = SyntheticDataset::cifar10_like(n, 3);
        let samples: Vec<(codec::RawImage, u32)> = (0..n)
            .map(|i| {
                let (pix, label) = src.sample_u8(i);
                (codec::RawImage::new(3, 32, 32, pix).unwrap(), label)
            })
            .collect();
        let dir = std::env::temp_dir().join("d5-record-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        write_recordfile(&path, &samples, 80).unwrap();
        path
    }

    fn reader(path: &Path) -> RecordReader {
        RecordReader::open(
            path,
            StorageModel::local_ssd(),
            Arc::new(StorageClock::new()),
        )
        .unwrap()
    }

    #[test]
    fn sequential_read_sees_all_records() {
        let path = make_record_file(12, "seq.d5rec");
        let mut r = reader(&path);
        let mut count = 0;
        while let Some(rec) = r.next_record().unwrap() {
            assert!(!rec.payload.is_empty());
            count += 1;
        }
        assert_eq!(count, 12);
        r.rewind();
        assert!(r.next_record().unwrap().is_some());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn pipeline_batches_decode_correct_shapes() {
        let path = make_record_file(20, "pipe.d5rec");
        let mut p = RecordPipeline::new(reader(&path), 8, true, 42);
        let b = p.next_batch(6).unwrap().unwrap();
        assert_eq!(b.x.shape().dims(), &[6, 3, 32, 32]);
        assert_eq!(b.labels.numel(), 6);
        assert!(b.labels.data().iter().all(|&l| l < 10.0));
        // Drain the rest.
        let mut total = 6;
        while let Some(b) = p.next_batch(6).unwrap() {
            total += b.labels.numel();
        }
        assert_eq!(total, 20);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn parallel_and_serial_decode_agree() {
        let path = make_record_file(8, "par.d5rec");
        let mut a = RecordPipeline::new(reader(&path), 100, true, 7);
        let mut b = RecordPipeline::new(reader(&path), 100, false, 7);
        let ba = a.next_batch(8).unwrap().unwrap();
        let bb = b.next_batch(8).unwrap().unwrap();
        assert_eq!(ba.x, bb.x);
        assert_eq!(ba.labels, bb.labels);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn pseudo_shuffle_changes_order() {
        let path = make_record_file(30, "shuf.d5rec");
        let mut p = RecordPipeline::new(reader(&path), 30, false, 1);
        let shuffled = p.next_batch(30).unwrap().unwrap();
        let mut q = RecordPipeline::new(reader(&path), 1, false, 1); // buffer 1 = no shuffling
        let sequential = q.next_batch(30).unwrap();
        // buffer capacity 1 yields one record per refill; take differs.
        assert!(sequential.unwrap().labels.numel() <= 30);
        // With a full buffer the order is (almost surely) permuted.
        let mut r = reader(&path);
        let mut in_order = Vec::new();
        while let Some(rec) = r.next_record().unwrap() {
            in_order.push(rec.label as f32);
        }
        assert_ne!(shuffled.labels.data(), &in_order[..]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn io_clock_charged_for_streaming() {
        let path = make_record_file(5, "clock.d5rec");
        let clock = Arc::new(StorageClock::new());
        let mut r = RecordReader::open(&path, StorageModel::parallel_fs(), clock.clone()).unwrap();
        while r.next_record().unwrap().is_some() {}
        assert!(clock.elapsed() > 0.0);
        std::fs::remove_file(&path).ok();
    }
}
