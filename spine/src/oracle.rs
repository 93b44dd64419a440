//! Correctness oracle: outputs of the timed run are replayed, after the
//! timed region, on a fresh **uncompiled `ReferenceExecutor`** engine and
//! must match bit for bit (the repository's own tier contract). Because
//! all tiers could drift together, `--seed 1` additionally compares a few
//! reference values against `golden_seed1.json` within ℓ∞ 1e-4.

use crate::consts::GOLDEN_TOL;
use crate::loadgen::Kept;
use crate::model::{Feed, Model};
use deep500::graph::{Engine, ExecutorKind, Session};
use deep500::tensor::Tensor;
use std::collections::HashMap;

/// The committed golden values, embedded so the binary needs no file at
/// run time. Regenerate with `spine golden > spine/golden_seed1.json`.
const GOLDEN: &str = include_str!("../golden_seed1.json");
/// The seed the golden file was recorded with.
pub const GOLDEN_SEED: u64 = 1;

/// Same shape and the same bits in every element.
pub fn bitwise_eq(a: &Tensor, b: &Tensor) -> bool {
    a.shape() == b.shape()
        && a.data()
            .iter()
            .zip(b.data())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// A fresh reference-tier engine over the model's decoded bytes.
pub fn reference_engine(model: &Model) -> Engine {
    Engine::builder(model.decode())
        .executor(ExecutorKind::Reference)
        .build()
        .expect("reference engine builds")
}

/// Is every output of `reply` bit-identical to rows `offset..offset+rows`
/// of the reference pass over its whole batch? Outputs without a batch
/// axis (a lone request's scalar loss) are compared whole.
fn reply_matches(
    reply: &HashMap<String, Tensor>,
    reference: &HashMap<String, Tensor>,
    offset: usize,
    rows: usize,
    batch_rows: usize,
) -> bool {
    !reply.is_empty()
        && reply.iter().all(|(name, got)| {
            reference.get(name).is_some_and(|want| {
                if rows == batch_rows {
                    bitwise_eq(got, want)
                } else {
                    want.slice_axis0(offset, rows)
                        .is_ok_and(|want| bitwise_eq(got, &want))
                }
            })
        })
}

/// What the oracle found.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Verdict {
    /// Replies compared against the reference tier.
    pub checked: u64,
    pub incorrect: u64,
}

/// Replay the kept executor passes on `reference`. A reply's value may
/// depend on its batch mates (`resnet_like`'s BatchNorm normalizes over
/// the batch), so the unit of replay is the pass: its requests, in
/// admission order, are concatenated exactly as the server assembles them.
/// Passes of which not every reply was kept are skipped.
pub fn replay_kept(reference: &Session, pool: &[Feed], mut kept: Vec<Kept>) -> Verdict {
    kept.sort_by_key(|k| (k.batch_id, k.order));
    let mut verdict = Verdict::default();
    for pass in kept.chunk_by(|a, b| a.batch_id == b.batch_id) {
        let feeds: Vec<&Feed> = pass.iter().map(|k| &pool[k.feed as usize]).collect();
        let rows: Vec<usize> = feeds.iter().map(|f| f[1].1.numel()).collect();
        let batch_rows = pass[0].batch_rows;
        if rows.iter().sum::<usize>() != batch_rows {
            continue;
        }
        let assembled: Vec<(&str, Tensor)> = (0..2)
            .map(|input| {
                let parts: Vec<Tensor> = feeds.iter().map(|f| f[input].1.clone()).collect();
                (
                    feeds[0][input].0,
                    Tensor::concat_axis0(&parts).expect("feeds of one model concatenate"),
                )
            })
            .collect();
        let want = reference.infer(&assembled).expect("reference pass runs");
        let mut offset = 0;
        for (k, &r) in pass.iter().zip(&rows) {
            verdict.checked += 1;
            if !reply_matches(&k.outputs, &want, offset, r, batch_rows) {
                verdict.incorrect += 1;
            }
            offset += r;
        }
    }
    verdict
}

/// The golden values recorded for `workload`, if any.
pub fn golden(workload: &str) -> Option<Vec<f32>> {
    let key = format!("\"{workload}\"");
    let rest = &GOLDEN[GOLDEN.find(&key)? + key.len()..];
    let body = &rest[rest.find('[')? + 1..rest.find(']')?];
    body.split(',')
        .map(|v| v.trim().parse::<f32>().ok())
        .collect()
}

/// For the golden seed: do `values` match the committed file within
/// [`GOLDEN_TOL`]? Other seeds have no golden values and pass.
pub fn golden_matches(workload: &str, seed: u64, values: &[f32]) -> bool {
    if seed != GOLDEN_SEED {
        return true;
    }
    match golden(workload) {
        Some(want) => {
            want.len() == values.len()
                && want
                    .iter()
                    .zip(values)
                    .all(|(w, v)| (w - v).abs() <= GOLDEN_TOL)
        }
        None => false,
    }
}

/// One line of the golden file.
pub fn golden_line(workload: &str, values: &[f32]) -> String {
    let body: Vec<String> = values.iter().map(|v| format!("{v:?}")).collect();
    format!("  \"{workload}\": [{}]", body.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loadgen::Tally;
    use deep500::tensor::Xoshiro256StarStar;

    #[test]
    fn bitwise_eq_sees_one_ulp_and_shape_changes() {
        let a = Tensor::from_slice(&[1.0, 2.0]);
        let mut b = a.clone();
        assert!(bitwise_eq(&a, &b));
        b.data_mut()[1] = f32::from_bits(2.0f32.to_bits() + 1);
        assert!(!bitwise_eq(&a, &b));
        assert!(!bitwise_eq(&a, &a.reshaped(&[2, 1]).unwrap()));
        // -0.0 == 0.0 numerically, but not bitwise.
        assert!(!bitwise_eq(
            &Tensor::from_slice(&[0.0]),
            &Tensor::from_slice(&[-0.0])
        ));
    }

    fn kept_pass(session: &Session, pool: &[Feed], batch_id: usize, feeds: &[u32]) -> Vec<Kept> {
        // Serve the pass the way the server would: one assembled inference,
        // split back into per-request rows.
        let parts = |i: usize| -> Vec<Tensor> {
            feeds
                .iter()
                .map(|&f| pool[f as usize][i].1.clone())
                .collect()
        };
        let assembled = [
            ("x", Tensor::concat_axis0(&parts(0)).unwrap()),
            ("labels", Tensor::concat_axis0(&parts(1)).unwrap()),
        ];
        let logits = session.infer(&assembled).unwrap()["logits"].clone();
        let batch_rows = logits.shape().dim(0);
        let mut offset = 0;
        feeds
            .iter()
            .enumerate()
            .map(|(order, &feed)| {
                let rows = pool[feed as usize][1].1.numel();
                let mine = logits.slice_axis0(offset, rows).unwrap();
                offset += rows;
                Kept {
                    feed,
                    order: order as u64,
                    batch_id,
                    batch_rows,
                    outputs: HashMap::from([("logits".to_string(), mine)]),
                }
            })
            .collect()
    }

    #[test]
    fn a_corrupted_reply_raises_failed_share() {
        let model = Model::serve_small();
        let mut rng = Xoshiro256StarStar::seed_from_u64(3);
        let pool: Vec<Feed> = (0..4).map(|i| model.feed(&mut rng, 1 + i % 2)).collect();
        let session = reference_engine(&model).session();
        let passes = || {
            let mut kept = kept_pass(&session, &pool, 0, &[0, 1]);
            kept.extend(kept_pass(&session, &pool, 1, &[2]));
            kept.extend(kept_pass(&session, &pool, 2, &[3, 0, 1]));
            kept
        };
        let clean = replay_kept(&session, &pool, passes());
        assert_eq!((clean.checked, clean.incorrect), (6, 0));

        // Flip the lowest mantissa bit of one logit of one reply.
        let mut kept = passes();
        let logits = kept[4].outputs.get_mut("logits").unwrap();
        let bits = logits.data()[0].to_bits();
        logits.data_mut()[0] = f32::from_bits(bits ^ 1);
        let verdict = replay_kept(&session, &pool, kept);
        assert_eq!((verdict.checked, verdict.incorrect), (6, 1));
        let tally = Tally {
            attempted: 6,
            incorrect: verdict.incorrect,
            ..Tally::default()
        };
        assert_eq!(tally.failed_share(), 1.0 / 6.0);

        // A reply that lost its outputs is wrong, not vacuously right; and a
        // pass with a reply missing is skipped, not guessed at.
        let mut kept = passes();
        kept[2].outputs.clear();
        kept.remove(0);
        let verdict = replay_kept(&session, &pool, kept);
        assert_eq!((verdict.checked, verdict.incorrect), (4, 1));
    }

    #[test]
    fn golden_file_has_a_row_per_workload_and_gates_only_its_seed() {
        for w in crate::workloads() {
            let row = golden(w).unwrap_or_else(|| panic!("golden row for {w}"));
            assert!(!row.is_empty(), "{w}");
            assert!(golden_matches(w, GOLDEN_SEED, &row));
            let mut off = row.clone();
            off[0] += 10.0 * GOLDEN_TOL;
            assert!(!golden_matches(w, GOLDEN_SEED, &off));
            assert!(golden_matches(w, GOLDEN_SEED + 1, &off), "other seeds pass");
        }
        assert!(golden("no-such-workload").is_none());
    }

    #[test]
    fn golden_line_round_trips_through_the_parser_format() {
        let line = golden_line("w", &[0.5, -1.25e-3]);
        assert_eq!(line, "  \"w\": [0.5, -0.00125]");
    }
}
