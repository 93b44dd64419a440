//! Table III — ImageNet decoding latency breakdown.
//!
//! The paper's four-row table: {1 image, B images} × {sequential,
//! shuffled}, across three ingestion paths:
//!
//! * indexed tar + scalar decoder  (paper: tar + PIL),
//! * indexed tar + turbo decoder   (paper: tar + libjpeg-turbo),
//! * record container + pipeline   (paper: TFRecord + TF native decoder,
//!   with pseudo-shuffle buffer and parallel batch decode), in steady
//!   state: built and primed once, a sample is one `next_batch`; the
//!   shuffled rows use a buffer of four batches, the sequential rows one.
//!
//! A row's time is the measured decode (`cpu`, interleaved across the
//! three paths) plus the modeled PFS I/O the path's reads were charged
//! per pass (`io_ms`).
//!
//! Expected shapes (paper), each a gate:
//! * turbo < scalar per image — `turbo_beats_scalar`;
//! * the record pipeline wins at minibatch granularity —
//!   `record_pipeline_wins_at_minibatch`;
//! * and is barely hurt by shuffling (its shuffle is buffer-based) —
//!   `record_barely_hurt_by_shuffling` ("barely": the shuffled CI within
//!   1.5 × the sequential one);
//! * whereas tar pays real seeks for every shuffled access —
//!   `tar_pays_seeks_when_shuffled`, on the modeled I/O (deterministic).

use super::{imagenet_shard, scratch_file};
use crate::rows::{claims, no_slower, num, select, text, unless, Timing, Verdict};
use crate::{reruns, scale, time_rounds, Report, Scale, Subject};
use deep500::data::container::indexed_tar::{write_indexed_tar, Decoder, IndexedTarReader};
use deep500::data::container::recordfile::{write_recordfile, RecordPipeline, RecordReader};
use deep500::data::io_model::{StorageClock, StorageModel};
use deep500::metrics::Json;
use deep500::prelude::*;
use std::path::PathBuf;
use std::sync::Arc;

const PATHS: [&str; 3] = ["tar+scalar", "tar+turbo", "record pipeline"];

/// The row for (`images`, `access`, `path`).
fn row<'a>(rows: &'a [Json], images: f64, access: &str, path: &str) -> &'a Json {
    let found = rows.iter().find(|r| {
        num(r, "images") == images && text(r, "access") == access && text(r, "path") == path
    });
    found.unwrap_or_else(|| panic!("no row {images} {access} {path}"))
}

/// `(label, first path's key, second path's key)` for every (images,
/// access) group of the table.
fn versus<'a>(
    rows: &'a [Json],
    (first, second, key): (&'a str, &'a str, &'a str),
) -> impl Iterator<Item = (String, Timing, Timing)> + 'a {
    select(rows, "path", first).map(move |r| {
        let (images, access) = (num(r, "images"), text(r, "access"));
        let other = row(rows, images, access, second);
        let label = format!("{images} {access}: {first} vs {second}");
        (label, Timing::read(r, key), Timing::read(other, key))
    })
}

/// The largest `images` of the table: the minibatch rows.
fn minibatch(rows: &[Json]) -> f64 {
    rows.iter().map(|r| num(r, "images")).fold(0.0, f64::max)
}

pub fn turbo_beats_scalar(rows: &[Json]) -> Verdict {
    no_slower(
        "turbo_beats_scalar",
        "the turbo decoder's CI is never above the scalar decoder's",
        versus(rows, ("tar+turbo", "tar+scalar", "cpu")),
    )
}

pub fn record_pipeline_wins_at_minibatch(rows: &[Json]) -> Verdict {
    let batch = minibatch(rows);
    let at_batch = |(label, ..): &(String, Timing, Timing)| label.starts_with(&format!("{batch} "));
    let tars = PATHS[..2].iter();
    let pairs =
        tars.flat_map(|tar| versus(rows, ("record pipeline", tar, "total")).filter(at_batch));
    no_slower(
        "record_pipeline_wins_at_minibatch",
        &format!("at {batch} images the record pipeline's total is never above a tar path's"),
        pairs,
    )
}

/// "Barely": within this factor of the sequential time.
const SHUFFLE_TOLERANCE: f64 = 1.5;

pub fn record_barely_hurt_by_shuffling(rows: &[Json]) -> Verdict {
    let shuffled =
        select(rows, "path", "record pipeline").filter(|r| text(r, "access") == "shuffled");
    let pairs: Vec<(String, Timing, Timing)> = shuffled
        .map(|r| {
            let images = num(r, "images");
            let sequential = row(rows, images, "sequential", "record pipeline");
            let allowed = Timing::read(sequential, "total").times(SHUFFLE_TOLERANCE);
            let label = format!("{images} images, shuffled vs {SHUFFLE_TOLERANCE} x sequential");
            (label, Timing::read(r, "total"), allowed)
        })
        .collect();
    let ratio = |(_, s, allowed): &(String, Timing, Timing)| s.ms / allowed.ms * SHUFFLE_TOLERANCE;
    let ratios: Vec<String> = pairs.iter().map(|p| format!("{:.2}x", ratio(p))).collect();
    no_slower(
        "record_barely_hurt_by_shuffling",
        &format!(
            "the record pipeline's shuffled CI is within {SHUFFLE_TOLERANCE} x its sequential one"
        ),
        pairs,
    )
    .with(format!("shuffled/sequential {ratios:?}"))
}

pub fn tar_pays_seeks_when_shuffled(rows: &[Json]) -> Verdict {
    let batch = minibatch(rows);
    let io = |access: &str, path: &str| num(row(rows, batch, access, path), "io_ms");
    let free = PATHS[..2]
        .iter()
        .filter(|tar| io("shuffled", tar) <= io("sequential", tar));
    let free = free.map(|tar| {
        format!(
            "{tar}: sequential {:.3} ms, shuffled {:.3} ms",
            io("sequential", tar),
            io("shuffled", tar)
        )
    });
    unless(
        "tar_pays_seeks_when_shuffled",
        &format!("modeled I/O of {batch} tar reads is higher shuffled than sequential"),
        free.collect(),
    )
}

pub fn section(report: &mut Report) {
    let (hw, count, batch) = if scale() == Scale::Full {
        (224, 256, 128)
    } else {
        (64, 160, 32)
    };
    // Build both containers from identical images.
    let shape = Shape::new(&[3, hw, hw]);
    let src = SyntheticDataset::new("imagenet-synth", shape, 1000, count, 0.4, 13);
    let samples = imagenet_shard(&src, hw, count);
    let (tar_path, rec_path) = (scratch_file("t3.tar"), scratch_file("t3.d5rec"));
    write_indexed_tar(&tar_path, &samples, 85).expect("write tar");
    write_recordfile(&rec_path, &samples, 85).expect("write record file");

    // Shuffled access pattern, fixed across paths for fairness.
    let mut rng = Xoshiro256StarStar::seed_from_u64(21);
    let mut shuffled: Vec<usize> = (0..count).collect();
    rng.shuffle(&mut shuffled);
    let sequential: Vec<usize> = (0..count).collect();

    let model = StorageModel::parallel_fs();
    let rounds = reruns();
    let mut rows = Vec::new();
    for n in [1, batch] {
        for (access, order) in [("sequential", &sequential), ("shuffled", &shuffled)] {
            let indices = &order[..n];
            let clocks: [Arc<StorageClock>; 3] = std::array::from_fn(|_| Arc::default());
            let mut tars: Vec<IndexedTarReader> = [Decoder::Scalar, Decoder::Turbo]
                .into_iter()
                .zip(&clocks)
                .map(|(decoder, clock)| {
                    IndexedTarReader::open(&tar_path, decoder, model.clone(), clock.clone())
                        .expect("open tar")
                })
                .collect();
            let reader =
                RecordReader::open(&rec_path, model.clone(), clocks[2].clone()).expect("open");
            let window = if access == "shuffled" { 4 * n } else { n };
            let mut pipeline = RecordPipeline::new(reader, window, true, 3);
            // Prime the shuffle buffer, then charge only steady-state reads.
            pipeline.next_batch(n).expect("prime").expect("non-empty");
            clocks.iter().for_each(|clock| clock.reset());

            let mut subjects: Vec<Subject<1>> = tars
                .iter_mut()
                .map(|reader| {
                    Subject::wall(move || {
                        for &i in indices {
                            reader.read_sample(i).expect("tar sample");
                        }
                    })
                })
                .collect();
            subjects.push(Subject::wall(|| loop {
                if let Some(b) = pipeline.next_batch(n).expect("record batch") {
                    break b.labels.numel();
                }
                pipeline.rewind();
            }));
            let timed = time_rounds(1, rounds, &mut subjects);
            drop(subjects);
            for ((path, [t]), clock) in PATHS.iter().zip(&timed).zip(&clocks) {
                let cpu = Timing::of(t);
                let io = clock.elapsed() / (rounds + 1) as f64 * 1e3;
                rows.push(Json::obj([
                    ("images", Json::from(n)),
                    ("access", Json::from(access)),
                    ("path", Json::from(*path)),
                    ("cpu", cpu.json()),
                    ("io_ms", Json::fixed(io, 6)),
                    ("total", cpu.plus(io).json()),
                ]));
            }
        }
    }
    for path in [&tar_path, &rec_path] {
        std::fs::remove_file(path).ok();
    }
    let mut idx = tar_path.into_os_string();
    idx.push(".idx");
    std::fs::remove_file(PathBuf::from(idx)).ok();

    let verdicts = [
        turbo_beats_scalar(&rows),
        record_pipeline_wins_at_minibatch(&rows),
        record_barely_hurt_by_shuffling(&rows),
        tar_pays_seeks_when_shuffled(&rows),
    ];
    claims(report, verdicts);
    report
        .field(
            "table3_images",
            format!("{count} x 3x{hw}x{hw}, minibatch {batch}"),
        )
        .rows("table3_decode", rows);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The 12 rows of a table: per (images, access), the three paths'
    /// `(cpu_lo, cpu_hi, io)`.
    fn table(cells: [[(f64, f64, f64); 3]; 4]) -> Vec<Json> {
        let groups = [
            (1, "sequential"),
            (1, "shuffled"),
            (32, "sequential"),
            (32, "shuffled"),
        ];
        let mut rows = Vec::new();
        for ((images, access), paths) in groups.into_iter().zip(cells) {
            for (path, (lo, hi, io)) in PATHS.into_iter().zip(paths) {
                let cpu = Timing {
                    ms: (lo + hi) / 2.0,
                    lo,
                    hi,
                };
                rows.push(Json::obj([
                    ("images", Json::from(images as usize)),
                    ("access", Json::from(access)),
                    ("path", Json::from(path)),
                    ("cpu", cpu.json()),
                    ("io_ms", Json::from(io)),
                    ("total", cpu.plus(io).json()),
                ]));
            }
        }
        rows
    }

    /// The shapes of the paper's table.
    fn paper_like() -> [[(f64, f64, f64); 3]; 4] {
        [
            [(2.3, 2.5, 0.3), (0.1, 0.2, 0.3), (0.4, 0.6, 0.1)],
            [(2.3, 2.5, 0.6), (0.1, 0.2, 0.6), (0.4, 0.7, 0.1)],
            [(70.0, 75.0, 1.0), (3.5, 4.5, 1.0), (1.8, 2.2, 0.3)],
            [(70.0, 75.0, 9.3), (3.5, 4.5, 9.3), (2.0, 2.6, 0.3)],
        ]
    }

    #[test]
    fn a_table_with_the_papers_shapes_passes_every_gate() {
        let rows = table(paper_like());
        for verdict in [
            turbo_beats_scalar(&rows),
            record_pipeline_wins_at_minibatch(&rows),
            record_barely_hurt_by_shuffling(&rows),
            tar_pays_seeks_when_shuffled(&rows),
        ] {
            assert!(verdict.ok, "{}", verdict.detail);
        }
    }

    #[test]
    fn each_gate_goes_red_on_the_rows_that_contradict_it() {
        let mut cells = paper_like();
        cells[1][1] = (2.6, 2.8, 0.6); // turbo slower than scalar on one row
        assert!(!turbo_beats_scalar(&table(cells)).ok);

        let mut cells = paper_like();
        cells[3][2] = (20.0, 22.0, 0.3); // record loses the shuffled minibatch
        let rows = table(cells);
        assert!(!record_pipeline_wins_at_minibatch(&rows).ok);
        assert!(!record_barely_hurt_by_shuffling(&rows).ok);
        // Losing at one image is not what the claim is about.
        let mut cells = paper_like();
        cells[0][2] = (5.0, 6.0, 0.1);
        assert!(record_pipeline_wins_at_minibatch(&table(cells)).ok);

        let mut cells = paper_like();
        cells[3][0].2 = 1.0; // shuffled tar reads charged like sequential ones
        cells[3][1].2 = 1.0;
        let v = tar_pays_seeks_when_shuffled(&table(cells));
        assert!(!v.ok && v.detail.contains("tar+scalar"), "{}", v.detail);
    }
}
