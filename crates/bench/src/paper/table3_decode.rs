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
//! `table3_decode` rows are keyed by the image side `hw`, `images`,
//! `access` and `path`: the measured decode (`cpu`, interleaved across the
//! three paths) and the modeled PFS I/O the path's reads were charged per
//! pass (`io_ms`); a cell's total is the two summed. The images are 160
//! (256 at full scale) synthetic ImageNet-shaped samples, the minibatch 32
//! (128).
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
use crate::rows::{no_slower, select, unless, Better, Interval, Row, Verdict};
use crate::{reruns, scale, time_rounds, Scale, Subject};
use deep500::data::container::indexed_tar::{write_indexed_tar, Decoder, IndexedTarReader};
use deep500::data::container::recordfile::{write_recordfile, RecordPipeline, RecordReader};
use deep500::data::io_model::{StorageClock, StorageModel};
use deep500::prelude::*;
use std::path::PathBuf;
use std::sync::Arc;

const PATHS: [&str; 3] = ["tar+scalar", "tar+turbo", "record pipeline"];

/// The `cpu` row of (`images`, `access`, `path`).
fn cell<'a>(rows: &'a [Row], images: i64, access: &str, path: &str) -> &'a Row {
    let found = select(rows, "table3_decode", "cpu")
        .find(|r| r.int("images") == images && r.is("access", access) && r.is("path", path));
    found.unwrap_or_else(|| panic!("no row {images} {access} {path}"))
}

/// A cell's decode time, or its decode plus its modeled I/O.
fn time(rows: &[Row], cpu: &Row, total: bool) -> Interval {
    let io = cpu.median_of(rows, "io_ms");
    cpu.interval().map(|v| if total { v + io } else { v })
}

/// `(label, first path's time, second path's time)` for every (images,
/// access) group of the table.
fn versus<'a>(
    rows: &'a [Row],
    (first, second, total): (&'a str, &'a str, bool),
) -> impl Iterator<Item = (String, Interval, Interval)> + 'a {
    let firsts = select(rows, "table3_decode", "cpu").filter(move |r| r.is("path", first));
    firsts.map(move |r| {
        let (images, access) = (r.int("images"), r.text("access"));
        let other = cell(rows, images, access, second);
        let label = format!("{images} {access}: {first} vs {second}");
        (label, time(rows, r, total), time(rows, other, total))
    })
}

/// The largest `images` of the table: the minibatch rows.
fn minibatch(rows: &[Row]) -> i64 {
    let cells = select(rows, "table3_decode", "cpu");
    cells.map(|r| r.int("images")).max().unwrap_or(0)
}

pub fn turbo_beats_scalar(rows: &[Row]) -> Verdict {
    no_slower(
        "turbo_beats_scalar",
        "the turbo decoder's CI is never above the scalar decoder's",
        versus(rows, ("tar+turbo", "tar+scalar", false)),
    )
}

pub fn record_pipeline_wins_at_minibatch(rows: &[Row]) -> Verdict {
    let batch = minibatch(rows);
    let at_batch =
        |(label, ..): &(String, Interval, Interval)| label.starts_with(&format!("{batch} "));
    let tars = PATHS[..2].iter();
    let pairs = tars.flat_map(|tar| versus(rows, ("record pipeline", tar, true)).filter(at_batch));
    no_slower(
        "record_pipeline_wins_at_minibatch",
        &format!("at {batch} images the record pipeline's total is never above a tar path's"),
        pairs,
    )
}

/// "Barely": within this factor of the sequential time.
const SHUFFLE_TOLERANCE: f64 = 1.5;

pub fn record_barely_hurt_by_shuffling(rows: &[Row]) -> Verdict {
    let record = select(rows, "table3_decode", "cpu").filter(|r| r.is("path", "record pipeline"));
    let shuffled = record.filter(|r| r.is("access", "shuffled"));
    let pairs: Vec<(String, Interval, Interval)> = shuffled
        .map(|r| {
            let images = r.int("images");
            let sequential = cell(rows, images, "sequential", "record pipeline");
            let allowed = time(rows, sequential, true).map(|v| v * SHUFFLE_TOLERANCE);
            let label = format!("{images} images, shuffled vs {SHUFFLE_TOLERANCE} x sequential");
            (label, time(rows, r, true), allowed)
        })
        .collect();
    let ratio = |(_, s, allowed): &(_, Interval, Interval)| s.median / allowed.median;
    let ratios: Vec<String> = pairs
        .iter()
        .map(|p| format!("{:.2}x", ratio(p) * SHUFFLE_TOLERANCE))
        .collect();
    let claim = format!(
        "the record pipeline's shuffled CI is within {SHUFFLE_TOLERANCE} x its sequential one"
    );
    no_slower("record_barely_hurt_by_shuffling", &claim, pairs)
        .with(format!("shuffled/sequential {ratios:?}"))
}

pub fn tar_pays_seeks_when_shuffled(rows: &[Row]) -> Verdict {
    let batch = minibatch(rows);
    let io = |access: &str, path: &str| cell(rows, batch, access, path).median_of(rows, "io_ms");
    let free = PATHS[..2].iter().filter_map(|tar| {
        let (sequential, shuffled) = (io("sequential", tar), io("shuffled", tar));
        let detail = format!("{tar}: sequential {sequential:.3} ms, shuffled {shuffled:.3} ms");
        (shuffled <= sequential).then_some(detail)
    });
    unless(
        "tar_pays_seeks_when_shuffled",
        &format!("modeled I/O of {batch} tar reads is higher shuffled than sequential"),
        free.collect(),
    )
}

pub fn section() -> Vec<Row> {
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
            let open = |(decoder, clock): (Decoder, &Arc<StorageClock>)| {
                IndexedTarReader::open(&tar_path, decoder, model.clone(), clock.clone())
            };
            let tars = [Decoder::Scalar, Decoder::Turbo]
                .into_iter()
                .zip(&clocks)
                .map(open);
            let mut tars: Vec<IndexedTarReader> = tars.collect::<Result<_, _>>().expect("open tar");
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
                let io = clock.elapsed() / (rounds + 1) as f64 * 1e3;
                let row = Row::of("table3_decode").key("hw", hw).key("images", n);
                let row = row.key("access", access).key("path", *path);
                rows.push(row.ms("cpu", t));
                rows.push(row.value("io_ms", "ms", Better::Lower, io));
            }
        }
    }
    for path in [&tar_path, &rec_path] {
        std::fs::remove_file(path).ok();
    }
    let mut idx = tar_path.into_os_string();
    idx.push(".idx");
    std::fs::remove_file(PathBuf::from(idx)).ok();

    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The 12 rows of a table: per (images, access), the three paths'
    /// `(cpu_lo, cpu_hi, io)`.
    fn table(cells: [[(f64, f64, f64); 3]; 4]) -> Vec<Row> {
        let groups = [
            (1usize, "sequential"),
            (1, "shuffled"),
            (32, "sequential"),
            (32, "shuffled"),
        ];
        let mut rows = Vec::new();
        for ((images, access), paths) in groups.into_iter().zip(cells) {
            for (path, (lo, hi, io)) in PATHS.into_iter().zip(paths) {
                let row = Row::of("table3_decode")
                    .key("images", images)
                    .key("access", access)
                    .key("path", path);
                let cpu = (lo + hi) / 2.0;
                rows.push(row.measured("cpu", "ms", Better::Lower, cpu, Some((lo, hi)), 7));
                rows.push(row.value("io_ms", "ms", Better::Lower, io));
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
