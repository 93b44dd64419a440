//! Table III — ImageNet decoding latency breakdown.
//!
//! Reproduces the paper's four-row table: {1 image, B images} ×
//! {sequential, shuffled}, across three ingestion paths:
//!
//! * indexed tar + scalar decoder  (paper: tar + PIL),
//! * indexed tar + turbo decoder   (paper: tar + libjpeg-turbo),
//! * record container + pipeline   (paper: TFRecord + TF native decoder,
//!   with pseudo-shuffle buffer and parallel batch decode).
//!
//! Expected shapes (paper): turbo < scalar per image; the record pipeline
//! wins at minibatch granularity and is barely hurt by shuffling (its
//! shuffle is buffer-based), whereas tar pays real seeks for every
//! shuffled access.

use deep500::data::codec;
use deep500::data::container::indexed_tar::{write_indexed_tar, Decoder, IndexedTarReader};
use deep500::data::container::recordfile::{write_recordfile, RecordPipeline, RecordReader};
use deep500::data::io_model::{StorageClock, StorageModel};
use deep500::prelude::*;
use deep500_bench::{banner, measure, scale, Scale};
use std::path::PathBuf;
use std::sync::Arc;

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("d5-table3");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

fn main() {
    banner(
        "Table III — ImageNet decoding latency breakdown",
        "indexed tar (scalar/turbo decoders) vs record pipeline (native)",
    );
    let (hw, count, batch) = if scale() == Scale::Full {
        (224, 256, 128)
    } else {
        (64, 160, 32)
    };
    println!("images: {count} x 3x{hw}x{hw}, minibatch {batch}\n");

    // Build both containers from identical images.
    let src = SyntheticDataset::new(
        "imagenet-synth",
        Shape::new(&[3, hw, hw]),
        1000,
        count,
        0.4,
        13,
    );
    let samples: Vec<(codec::RawImage, u32)> = (0..count)
        .map(|i| {
            let (pix, label) = src.sample_u8(i);
            (codec::RawImage::new(3, hw, hw, pix).unwrap(), label)
        })
        .collect();
    let tar_path = tmp("t3.tar");
    let rec_path = tmp("t3.d5rec");
    write_indexed_tar(&tar_path, &samples, 85).unwrap();
    write_recordfile(&rec_path, &samples, 85).unwrap();

    // Shuffled access pattern, fixed across paths for fairness.
    let mut rng = Xoshiro256StarStar::seed_from_u64(21);
    let mut shuffled: Vec<usize> = (0..count).collect();
    rng.shuffle(&mut shuffled);

    let model = StorageModel::parallel_fs();
    let tar_run = |decoder: Decoder, indices: &[usize]| -> (f64, f64) {
        // Returns (measured decode seconds, modeled I/O seconds).
        let clock = Arc::new(StorageClock::new());
        let mut reader =
            IndexedTarReader::open(&tar_path, decoder, model.clone(), clock.clone()).unwrap();
        clock.reset();
        let s = measure(|| {
            for &i in indices {
                reader.read_sample(i).unwrap();
            }
        });
        let runs = deep500_bench::reruns() as f64;
        (s.median, clock.elapsed() / runs)
    };
    let rec_run = |n: usize, shuffle_buffer: usize| -> (f64, f64) {
        let clock = Arc::new(StorageClock::new());
        let clock2 = clock.clone();
        let s = measure(|| {
            let reader = RecordReader::open(&rec_path, model.clone(), clock2.clone()).unwrap();
            let mut p = RecordPipeline::new(reader, shuffle_buffer, true, 3);
            p.next_batch(n).unwrap().unwrap()
        });
        let runs = deep500_bench::reruns() as f64;
        (s.median, clock.elapsed() / runs)
    };

    let mut table = Table::new(
        "median time [ms] = measured decode + modeled PFS I/O",
        &[
            "data / access",
            "tar + scalar (PIL)",
            "tar + turbo (libjpeg-turbo)",
            "record pipeline (native)",
        ],
    );
    let fmt = |(cpu, io): (f64, f64)| {
        format!(
            "{:.2} (cpu {:.2} + io {:.2})",
            (cpu + io) * 1e3,
            cpu * 1e3,
            io * 1e3
        )
    };

    // 1 image, sequential (first image).
    table.row(&[
        "1 image (sequential)".to_string(),
        fmt(tar_run(Decoder::Scalar, &[0])),
        fmt(tar_run(Decoder::Turbo, &[0])),
        fmt(rec_run(1, 1)),
    ]);
    // 1 image, shuffled (random position).
    table.row(&[
        "1 image (shuffled)".to_string(),
        fmt(tar_run(Decoder::Scalar, &shuffled[..1])),
        fmt(tar_run(Decoder::Turbo, &shuffled[..1])),
        fmt(rec_run(1, count)),
    ]);
    // B images, sequential.
    let seq: Vec<usize> = (0..batch).collect();
    table.row(&[
        format!("{batch} images (sequential)"),
        fmt(tar_run(Decoder::Scalar, &seq)),
        fmt(tar_run(Decoder::Turbo, &seq)),
        fmt(rec_run(batch, 1)),
    ]);
    // B images, shuffled.
    table.row(&[
        format!("{batch} images (shuffled)"),
        fmt(tar_run(Decoder::Scalar, &shuffled[..batch])),
        fmt(tar_run(Decoder::Turbo, &shuffled[..batch])),
        fmt(rec_run(batch, count)),
    ]);
    table.print();

    println!(
        "\nreading guide (paper's Table III): turbo beats scalar on every\n\
         row; the record pipeline's shuffled rows stay close to its\n\
         sequential rows (pseudo-shuffling reads sequentially), while the\n\
         tar columns degrade under shuffling (true random access pays a\n\
         seek per image). Note: on a single-core host the pipeline's\n\
         parallel-decode advantage is muted; its sequential-I/O advantage\n\
         remains."
    );
    std::fs::remove_file(&tar_path).ok();
    std::fs::remove_file(&rec_path).ok();
    let mut idx = tar_path.into_os_string();
    idx.push(".idx");
    std::fs::remove_file(PathBuf::from(idx)).ok();
}
