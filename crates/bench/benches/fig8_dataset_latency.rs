//! Fig. 8 — dataset loading latency.
//!
//! Left panel: small datasets (MNIST, Fashion-MNIST, CIFAR-10, CIFAR-100)
//! stored as raw binary files — real (load from disk-resident memory) vs
//! synthetic generation. Right panel: ImageNet-shaped data, record
//! container, 1 vs 1024 files and 1 vs 64 nodes (modeled PFS I/O) vs
//! synthetic generation.
//!
//! Expected shapes (paper): for MNIST-class in-memory datasets, *loading
//! is faster than synthesizing*; for CIFAR it tightens; for ImageNet,
//! synthetic generation is ~2 orders of magnitude faster than the decode
//! pipeline; on 1 node one segmented file beats 1024 shards, on 64 nodes
//! the 1024 shards win by ~10%.

use deep500::data::container::binfile::{write_binfile, BinFileDataset};
use deep500::data::container::recordfile::{write_recordfile, RecordPipeline, RecordReader};
use deep500::data::dataset::assemble_minibatch;
use deep500::data::io_model::{StorageClock, StorageModel};
use deep500::data::{codec, Dataset};
use deep500::prelude::*;
use deep500_bench::{banner, measure, scale, Scale};
use std::path::PathBuf;
use std::sync::Arc;

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("d5-fig8");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

fn main() {
    banner(
        "Fig. 8 — dataset loading latency",
        "minibatch-assembly latency: real containers vs synthetic generation",
    );
    let batch = if scale() == Scale::Full { 128 } else { 32 };
    let small_len = if scale() == Scale::Full { 4096 } else { 512 };
    println!("minibatch size: {batch}\n");

    // ------------------------------------------------- small datasets
    let mut table = Table::new(
        "small datasets (raw binary, fully memory-resident after open)",
        &[
            "dataset",
            "real load [ms/batch]",
            "synthetic [ms/batch]",
            "faster",
        ],
    );
    let small: Vec<(&str, SyntheticDataset)> = vec![
        ("MNIST", SyntheticDataset::mnist_like(small_len, 1)),
        (
            "Fashion-MNIST",
            SyntheticDataset::fashion_mnist_like(small_len, 2),
        ),
        ("CIFAR-10", SyntheticDataset::cifar10_like(small_len, 3)),
        ("CIFAR-100", SyntheticDataset::cifar100_like(small_len, 4)),
    ];
    for (name, synth) in small {
        // Write the real on-disk file once, then measure batch assembly.
        let shape = synth.sample_shape();
        let d = shape.dims().to_vec();
        let samples: Vec<(Vec<u8>, u32)> = (0..small_len).map(|i| synth.sample_u8(i)).collect();
        let path = tmp(&format!("{name}.d5bin"));
        write_binfile(&path, d[0], d[1], d[2], &samples).unwrap();
        let clock = Arc::new(StorageClock::new());
        let real = BinFileDataset::open(
            &path,
            synth.num_classes(),
            &StorageModel::local_ssd(),
            &clock,
        )
        .unwrap();
        let indices: Vec<usize> = (0..batch).collect();
        let real_s = measure(|| assemble_minibatch(&real, &indices).unwrap());
        let mut seed = 0u64;
        let synth_s = measure(|| {
            seed += 1;
            synth.generate_fast_batch(batch, seed)
        });
        table.row(&[
            name.to_string(),
            format!("{:.3}", real_s.median * 1e3),
            format!("{:.3}", synth_s.median * 1e3),
            if real_s.median < synth_s.median {
                "real"
            } else {
                "synthetic"
            }
            .to_string(),
        ]);
        std::fs::remove_file(&path).ok();
    }
    table.print();

    // ---------------------------------------------------- ImageNet panel
    println!();
    let (img_hw, img_count) = if scale() == Scale::Full {
        (224, 256)
    } else {
        (64, 64)
    };
    let imagenet = SyntheticDataset::new(
        "imagenet-synth",
        Shape::new(&[3, img_hw, img_hw]),
        1000,
        1_281_167, // logical size; samples are generated on demand
        0.4,
        5,
    );
    // Encode a shard of images into a record file (the real decode work).
    let samples: Vec<(codec::RawImage, u32)> = (0..img_count)
        .map(|i| {
            let (pix, label) = imagenet.sample_u8(i);
            (codec::RawImage::new(3, img_hw, img_hw, pix).unwrap(), label)
        })
        .collect();
    let bytes_per_image = {
        let enc = codec::encode(&samples[0].0, 85).unwrap();
        enc.len()
    };
    let path = tmp("imagenet.d5rec");
    write_recordfile(&path, &samples, 85).unwrap();

    // Measured decode+assembly cost of one minibatch from the pipeline.
    let decode_s = measure(|| {
        let clock = Arc::new(StorageClock::new());
        let reader = RecordReader::open(&path, StorageModel::local_ssd(), clock).unwrap();
        let mut pipeline = RecordPipeline::new(reader, 10_000, true, 9);
        pipeline.next_batch(batch.min(img_count)).unwrap().unwrap()
    });
    // Synthetic generation cost for the same minibatch (fast path: the
    // paper's "Synth" generator allocates and fills, it does not model the
    // class structure).
    let mut seed = 0u64;
    let synth_s = measure(|| {
        seed += 1;
        imagenet.generate_fast_batch(batch, seed)
    });

    let mut table = Table::new(
        format!(
            "ImageNet-shaped data ({img_hw}x{img_hw}, ~{} encoded bytes/img): decode vs synth + modeled PFS I/O",
            bytes_per_image
        ),
        &["generator", "decode+assemble [ms]", "modeled I/O [ms]", "total [ms]"],
    );
    let pfs = StorageModel::parallel_fs();
    for (label, files, nodes) in [
        ("1 file + 1 node", 1usize, 1usize),
        ("1024 files + 1 node", 1024, 1),
        ("1 file + 64 nodes", 1, 64),
        ("1024 files + 64 nodes", 1024, 64),
    ] {
        let io = pfs.batch_read_cost(batch, bytes_per_image, 1_281_167, files, nodes, true);
        table.row(&[
            label.to_string(),
            format!("{:.2}", decode_s.median * 1e3),
            format!("{:.3}", io * 1e3),
            format!("{:.2}", (decode_s.median + io) * 1e3),
        ]);
    }
    table.row(&[
        "synthetic".to_string(),
        format!("{:.2}", synth_s.median * 1e3),
        "0.000".to_string(),
        format!("{:.2}", synth_s.median * 1e3),
    ]);
    table.print();
    println!(
        "\nreading guide: synthetic generation should beat the decode pipeline\n\
         by a wide margin (paper: ~2 orders of magnitude at full scale); on\n\
         1 node '1 file' edges out '1024 files' (open cost), while on 64\n\
         nodes the sharded layout wins (~10% in the paper) via reduced\n\
         stripe-lock contention."
    );
    std::fs::remove_file(&path).ok();
}
