//! Fig. 8 — dataset loading latency.
//!
//! Left panel: small datasets (MNIST, Fashion-MNIST, CIFAR-10, CIFAR-100)
//! stored as raw binary files — real (load from disk-resident memory) vs
//! synthetic generation. Right panel: ImageNet-shaped data, record
//! container in steady state (the pipeline is built once; a batch is one
//! `next_batch`), against synthetic generation, plus the modeled PFS I/O
//! of 1 vs 1024 files on 1 vs 64 nodes. Every row is keyed by the
//! minibatch size `batch` as well: `fig8_small` by `dataset` (`real`,
//! `synthetic`), `fig8_imagenet` by `source` and `image_hw` (`batch`
//! time; `encoded_bytes_per_image` on the record pipeline), `fig8_io` by
//! `files` and `nodes` (`io_ms`).
//!
//! Expected shapes (paper), each a gate:
//! * for MNIST-class in-memory datasets, *loading is faster than
//!   synthesizing*; for CIFAR it tightens —
//!   `small_datasets_load_faster_than_synthesis`. The first half is the
//!   gate; the second is **not reproduced** and says so in the detail:
//!   here the real/synthetic ratio falls from MNIST to CIFAR (the gap
//!   widens), because `generate_fast_batch` fills four times the bytes
//!   while the memory-resident load stays one copy (EXPERIMENTS E28);
//! * for ImageNet, synthetic generation is ~2 orders of magnitude faster
//!   than the decode pipeline — `synthetic_beats_imagenet_decode` gates
//!   the direction; the factor is scale-dependent (64×64 images at the
//!   default scale) and is printed in the detail;
//! * on 1 node one segmented file beats 1024 shards, on 64 nodes the 1024
//!   shards win by ~10% — `sharding_wins_only_at_scale`, on the modeled
//!   I/O (deterministic).

use super::{imagenet_shard, scratch_file};
use crate::rows::{find, no_slower, select, Better, Row, Verdict};
use crate::{reruns, scale, time_rounds, Scale, Subject};
use deep500::data::container::binfile::{write_binfile, BinFileDataset};
use deep500::data::container::recordfile::{write_recordfile, RecordPipeline, RecordReader};
use deep500::data::dataset::assemble_minibatch;
use deep500::data::io_model::{StorageClock, StorageModel};
use deep500::data::{codec, Dataset};
use deep500::prelude::*;
use std::sync::Arc;

pub fn small_datasets_load_faster_than_synthesis(rows: &[Row]) -> Verdict {
    let pairs = select(rows, "fig8_small", "real").map(|r| {
        let label = format!("{}, real vs synthetic", r.text("dataset"));
        (label, r.interval(), r.sibling(rows, "synthetic").interval())
    });
    let ratio = |name: &str| {
        let real = find(rows, "fig8_small", "real", ("dataset", name));
        real.median / real.sibling(rows, "synthetic").median
    };
    let (mnist, cifar) = (ratio("MNIST"), ratio("CIFAR-10"));
    let trend = if cifar > mnist { "tightens" } else { "widens" };
    no_slower(
        "small_datasets_load_faster_than_synthesis",
        "loading a memory-resident batch is never measurably slower than synthesizing one",
        pairs,
    )
    .with(format!(
        "real/synthetic {mnist:.2} on MNIST, {cifar:.2} on CIFAR-10: the gap {trend} (paper: \
         tightens; not gated — the generator's cost grows with the sample, the resident load \
         does not, E28)"
    ))
}

pub fn synthetic_beats_imagenet_decode(rows: &[Row]) -> Verdict {
    let batch = |source| find(rows, "fig8_imagenet", "batch", ("source", source)).interval();
    let (decode, synth) = (batch("record pipeline"), batch("synthetic"));
    no_slower(
        "synthetic_beats_imagenet_decode",
        "synthesizing an ImageNet-shaped batch is never measurably slower than decoding one",
        [("synthetic vs record pipeline".to_string(), synth, decode)],
    )
    .with(format!(
        "{:.1}x faster (paper: ~100x at 224x224 full scale)",
        decode.median / synth.median
    ))
}

pub fn sharding_wins_only_at_scale(rows: &[Row]) -> Verdict {
    let io = |files: i64, nodes: i64| {
        let mut cells = select(rows, "fig8_io", "io_ms");
        let row = cells.find(|r| r.int("files") == files && r.int("nodes") == nodes);
        row.expect("io row").median
    };
    let (one, sharded) = (io(1, 1), io(1024, 1));
    let (one_at_64, sharded_at_64) = (io(1, 64), io(1024, 64));
    Verdict::new(
        "sharding_wins_only_at_scale",
        one < sharded && sharded_at_64 < one_at_64,
        format!(
            "modeled I/O per batch: 1 node {one:.3} (1 file) < {sharded:.3} ms (1024 files); \
             64 nodes {sharded_at_64:.3} (1024 files) < {one_at_64:.3} ms (1 file), shards win \
             by {:.0}% (paper: ~10%)",
            (1.0 - sharded_at_64 / one_at_64) * 100.0
        ),
    )
}

pub fn section() -> Vec<Row> {
    let full = scale() == Scale::Full;
    let batch = if full { 128 } else { 32 };
    let small_len = if full { 4096 } else { 512 };

    // ------------------------------------------------- small datasets
    let fashion = SyntheticDataset::fashion_mnist_like(small_len, 2);
    let small: [(&str, SyntheticDataset); 4] = [
        ("MNIST", SyntheticDataset::mnist_like(small_len, 1)),
        ("Fashion-MNIST", fashion),
        ("CIFAR-10", SyntheticDataset::cifar10_like(small_len, 3)),
        ("CIFAR-100", SyntheticDataset::cifar100_like(small_len, 4)),
    ];
    let mut rows = Vec::new();
    for (name, synth) in &small {
        // Write the real on-disk file once, then time batch assembly.
        let d = synth.sample_shape().dims().to_vec();
        let samples: Vec<(Vec<u8>, u32)> = (0..small_len).map(|i| synth.sample_u8(i)).collect();
        let path = scratch_file(&format!("{name}.d5bin"));
        write_binfile(&path, d[0], d[1], d[2], &samples).expect("write binfile");
        let clock = Arc::new(StorageClock::new());
        let model = StorageModel::local_ssd();
        let real = BinFileDataset::open(&path, synth.num_classes(), &model, &clock).expect("open");
        let indices: Vec<usize> = (0..batch).collect();
        let mut seed = 0u64;
        let timed = time_rounds(
            1,
            3 * reruns(),
            &mut [
                Subject::wall(|| assemble_minibatch(&real, &indices).expect("assemble")),
                Subject::wall(|| {
                    seed += 1;
                    synth.generate_fast_batch(batch, seed)
                }),
            ],
        );
        let row = Row::of("fig8_small")
            .key("batch", batch)
            .key("dataset", *name);
        rows.push(row.ms("real", &timed[0][0]));
        rows.push(row.ms("synthetic", &timed[1][0]));
        std::fs::remove_file(&path).ok();
    }

    // ---------------------------------------------------- ImageNet panel
    let (img_hw, img_count) = if full { (224, 256) } else { (64, 64) };
    let imagenet = SyntheticDataset::new(
        "imagenet-synth",
        Shape::new(&[3, img_hw, img_hw]),
        1000,
        1_281_167, // logical size; samples are generated on demand
        0.4,
        5,
    );
    // Encode a shard of images into a record file (the real decode work).
    let samples = imagenet_shard(&imagenet, img_hw, img_count);
    let bytes_per_image = codec::encode(&samples[0].0, 85).expect("encode").len();
    let path = scratch_file("imagenet.d5rec");
    write_recordfile(&path, &samples, 85).expect("write record file");
    let clock = Arc::new(StorageClock::new());
    let reader = RecordReader::open(&path, StorageModel::local_ssd(), clock).expect("open");
    let mut pipeline = RecordPipeline::new(reader, 10_000, true, 9);
    let n = batch.min(img_count);
    let mut seed = 0u64;
    let timed = time_rounds(
        1,
        reruns(),
        &mut [
            // One steady-state batch; at the end of the stream, rewind
            // (the shuffle buffer is retained, as TF does).
            Subject::wall(|| loop {
                if let Some(b) = pipeline.next_batch(n).expect("decode batch") {
                    break b;
                }
                pipeline.rewind();
            }),
            // The paper's "Synth" generator allocates and fills; it does
            // not model the class structure.
            Subject::wall(|| {
                seed += 1;
                imagenet.generate_fast_batch(batch, seed)
            }),
        ],
    );
    std::fs::remove_file(&path).ok();
    for (source, [t]) in ["record pipeline", "synthetic"].iter().zip(&timed) {
        let row = Row::of("fig8_imagenet")
            .key("batch", batch)
            .key("source", *source);
        let row = row.key("image_hw", img_hw);
        rows.push(row.ms("batch", t));
        if *source == "record pipeline" {
            rows.push(row.bytes("encoded_bytes_per_image", Better::None, bytes_per_image));
        }
    }

    let pfs = StorageModel::parallel_fs();
    for (files, nodes) in [(1usize, 1usize), (1024, 1), (1, 64), (1024, 64)] {
        let io = pfs.batch_read_cost(batch, bytes_per_image, 1_281_167, files, nodes, true);
        let row = Row::of("fig8_io").key("batch", batch);
        let row = row.key("files", files).key("nodes", nodes);
        rows.push(row.value("io_ms", "ms", Better::Lower, io * 1e3));
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    type Span = (f64, f64);

    fn ms(row: &Row, metric: &str, (lo, hi): Span) -> Row {
        row.measured(
            metric,
            "ms",
            Better::Lower,
            (lo + hi) / 2.0,
            Some((lo, hi)),
            21,
        )
    }

    fn small(cells: [(Span, Span); 2]) -> Vec<Row> {
        let mut rows = Vec::new();
        for (name, (real, synth)) in ["MNIST", "CIFAR-10"].into_iter().zip(cells) {
            let row = Row::of("fig8_small").key("dataset", name);
            rows.push(ms(&row, "real", real));
            rows.push(ms(&row, "synthetic", synth));
        }
        rows
    }

    #[test]
    fn loading_is_gated_and_the_cifar_trend_is_reported() {
        let agreeing = small([((0.01, 0.02), (0.04, 0.05)), ((0.04, 0.05), (0.2, 0.3))]);
        let v = small_datasets_load_faster_than_synthesis(&agreeing);
        assert!(v.ok && v.detail.contains("widens"), "{}", v.detail);
        let contradicting = small([((0.06, 0.07), (0.04, 0.05)), ((0.04, 0.05), (0.05, 0.06))]);
        let v = small_datasets_load_faster_than_synthesis(&contradicting);
        assert!(!v.ok && v.detail.contains("MNIST, real"), "{}", v.detail);
    }

    #[test]
    fn synthetic_must_not_be_measurably_slower_than_decode() {
        let rows = |decode: Span, synth: Span| {
            let row = |source: &str, span: Span| {
                ms(
                    &Row::of("fig8_imagenet").key("source", source),
                    "batch",
                    span,
                )
            };
            [row("record pipeline", decode), row("synthetic", synth)]
        };
        assert!(synthetic_beats_imagenet_decode(&rows((5.0, 5.5), (1.0, 1.4))).ok);
        assert!(!synthetic_beats_imagenet_decode(&rows((1.0, 1.4), (5.0, 5.5))).ok);
    }

    #[test]
    fn shards_must_lose_on_one_node_and_win_on_sixty_four() {
        let rows = |io: [f64; 4]| {
            let cells = [(1usize, 1usize), (1024, 1), (1, 64), (1024, 64)];
            let row = |((files, nodes), io): ((usize, usize), f64)| {
                let row = Row::of("fig8_io").key("files", files).key("nodes", nodes);
                row.value("io_ms", "ms", Better::Lower, io)
            };
            cells.into_iter().zip(io).map(row).collect::<Vec<_>>()
        };
        assert!(sharding_wins_only_at_scale(&rows([0.128, 0.165, 0.204, 0.165])).ok);
        assert!(!sharding_wins_only_at_scale(&rows([0.128, 0.100, 0.204, 0.165])).ok);
        assert!(!sharding_wins_only_at_scale(&rows([0.128, 0.165, 0.150, 0.165])).ok);
    }
}
