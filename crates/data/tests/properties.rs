//! Property-based tests for the data substrate: codec round-trips,
//! entropy-coding invariants, sampler coverage, and storage-model
//! monotonicity.

use deep500_data::codec::{self, entropy, RawImage};
use deep500_data::io_model::StorageModel;
use deep500_data::sampler::{
    BufferShuffleSampler, DatasetSampler, SequentialSampler, ShardedSampler, ShuffleSampler,
};
use deep500_data::synthetic::SyntheticDataset;
use deep500_data::Dataset;
use proptest::prelude::*;
use std::sync::Arc;

fn drain_labels(s: &mut dyn DatasetSampler) -> Vec<f32> {
    let mut out = Vec::new();
    while let Some(b) = s.next_batch().unwrap() {
        out.extend_from_slice(b.labels.data());
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// D5J encode/decode round-trips any image within a quality-dependent
    /// pixel-error bound, and the two decoders agree bit-for-bit.
    #[test]
    fn codec_roundtrip_bounded(
        c in 1usize..4, h in 1usize..40, w in 1usize..40,
        quality in 55u8..100, seed in 0u64..1000,
    ) {
        // Smooth-ish content (transform codecs are specified for natural
        // images; noise at low quality has unbounded error).
        let pixels: Vec<u8> = (0..c * h * w)
            .map(|i| {
                let x = (i % w) as f32;
                let y = ((i / w) % h) as f32;
                (128.0 + 80.0 * ((x + seed as f32) * 0.2).sin() * (y * 0.15).cos()) as u8
            })
            .collect();
        let img = RawImage::new(c, h, w, pixels).unwrap();
        let bytes = codec::encode(&img, quality).unwrap();
        let a = codec::decode_scalar(&bytes).unwrap();
        let b = codec::decode_turbo(&bytes).unwrap();
        prop_assert_eq!(&a, &b, "decoders must agree");
        prop_assert_eq!((a.c, a.h, a.w), (c, h, w));
        let max_err = img
            .pixels
            .iter()
            .zip(&a.pixels)
            .map(|(&x, &y)| (x as i32 - y as i32).abs())
            .max()
            .unwrap();
        prop_assert!(max_err <= 40, "max pixel err {max_err} at q{quality}");
    }

    /// Entropy coding round-trips arbitrary coefficient blocks exactly.
    #[test]
    fn entropy_roundtrip_exact(
        blocks in 1usize..5,
        coeffs in prop::collection::vec(-300i16..300, 64..65),
    ) {
        let mut all = Vec::new();
        for b in 0..blocks {
            for (i, &c) in coeffs.iter().enumerate() {
                // Vary per block; zero most high frequencies.
                all.push(if i > 20 && (i + b) % 3 != 0 { 0 } else { c });
            }
        }
        let enc = entropy::encode_coefficients(&all);
        let dec = entropy::decode_coefficients(&enc, all.len()).unwrap();
        prop_assert_eq!(dec, all);
    }

    /// Every sampler covers each dataset element exactly once per epoch.
    #[test]
    fn samplers_cover_epoch_exactly_once(
        len in 1usize..80, batch in 1usize..16, seed in 0u64..200,
    ) {
        let ds: Arc<dyn Dataset> = Arc::new(SyntheticDataset::mnist_like(len, seed));
        let expected = {
            let mut labels: Vec<f32> = (0..len)
                .map(|i| ds.sample(i).unwrap().label as f32)
                .collect();
            labels.sort_by(|a, b| a.partial_cmp(b).unwrap());
            labels
        };
        let mut seq = SequentialSampler::new(ds.clone(), batch);
        let mut shuf = ShuffleSampler::new(ds.clone(), batch, seed);
        let mut buf = BufferShuffleSampler::new(ds.clone(), batch, 7, seed);
        for s in [&mut seq as &mut dyn DatasetSampler, &mut shuf, &mut buf] {
            let mut got = drain_labels(s);
            got.sort_by(|a, b| a.partial_cmp(b).unwrap());
            prop_assert_eq!(&got, &expected);
        }
    }

    /// Sharded sampling partitions the epoch across ranks: no overlap, no
    /// gaps, for any world size.
    #[test]
    fn sharding_partitions(len in 1usize..60, world in 1usize..9, seed in 0u64..100) {
        let ds: Arc<dyn Dataset> = Arc::new(SyntheticDataset::mnist_like(len, seed));
        let mut all_indices = Vec::new();
        for rank in 0..world {
            let s = ShardedSampler::new(ds.clone(), 4, rank, world, true, seed);
            all_indices.extend(s.shard_indices());
        }
        all_indices.sort_unstable();
        prop_assert_eq!(all_indices, (0..len).collect::<Vec<_>>());
    }

    /// Storage-model costs are monotone in bytes and batch size, and
    /// shuffled access never costs less than sequential.
    #[test]
    fn storage_costs_monotone(
        batch in 1usize..256, bytes in 1usize..200_000,
        files in 1usize..2048, nodes in 1usize..128,
    ) {
        let total = 1_000_000usize;
        for m in [StorageModel::local_ssd(), StorageModel::parallel_fs()] {
            let seq = m.batch_read_cost(batch, bytes, total, files, nodes, true);
            let shuf = m.batch_read_cost(batch, bytes, total, files, nodes, false);
            prop_assert!(shuf >= seq - 1e-12);
            let bigger = m.batch_read_cost(batch, bytes * 2, total, files, nodes, true);
            prop_assert!(bigger >= seq);
            prop_assert!(seq.is_finite() && seq >= 0.0);
        }
    }

    /// Fast synthetic batches have the declared shape and in-range labels.
    #[test]
    fn fast_batches_are_well_formed(batch in 1usize..32, seed in 0u64..100) {
        let ds = SyntheticDataset::cifar10_like(16, seed);
        let mb = ds.generate_fast_batch(batch, seed);
        prop_assert_eq!(mb.x.shape().dims(), &[batch, 3, 32, 32]);
        prop_assert_eq!(mb.labels.numel(), batch);
        prop_assert!(mb.labels.data().iter().all(|&l| (0.0..10.0).contains(&l)));
    }
}
