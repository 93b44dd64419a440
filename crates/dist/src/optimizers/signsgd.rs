//! Sign-compressed decentralized SGD (1-bit gradient compression).
//!
//! The paper's "Others" use cases ask: *"What is the reduction in
//! communication over the network, when a certain compression scheme is
//! applied in training?"* — this scheme answers it with the classic
//! signSGD-with-majority-vote compression (Bernstein et al.): each rank
//! transmits only the **sign bit** of every gradient entry plus one scale
//! (the mean magnitude), packing 32 gradients per word — a 32× volume
//! reduction that the `CommunicationVolume` metric measures directly
//! (payloads are priced at their packed bitset size, the
//! `DataType::Bitset` description of the tensor-descriptor system).

use super::{collect_gradients, Scheme, SchemeCore};
use crate::comm::Communicator;
use deep500_data::Minibatch;
use deep500_graph::GraphExecutor;
use deep500_tensor::{DataType, Result, Tensor};
use deep500_train::optimizer::StepResult;
use deep500_train::ThreeStepOptimizer;

/// Pack signs into 32-bit words (1 = negative). Returns `(words, scale)`.
fn compress(grad: &[f32]) -> (Vec<f32>, f32) {
    let mut words = vec![0u32; grad.len().div_ceil(32)];
    let mut mag = 0.0f64;
    for (i, &g) in grad.iter().enumerate() {
        if g < 0.0 {
            words[i / 32] |= 1 << (i % 32);
        }
        mag += g.abs() as f64;
    }
    let scale = (mag / grad.len().max(1) as f64) as f32;
    // Ship the words through the f32 channel bit-for-bit.
    (words.into_iter().map(f32::from_bits).collect(), scale)
}

/// Unpack sign words back into `±scale` values of length `len`.
fn decompress(words: &[f32], scale: f32, len: usize) -> Vec<f32> {
    let mut out = Vec::with_capacity(len);
    for i in 0..len {
        let bit = (words[i / 32].to_bits() >> (i % 32)) & 1;
        out.push(if bit == 1 { -scale } else { scale });
    }
    out
}

/// signSGD with majority vote: ranks exchange sign bitsets (via gather to
/// rank 0 + broadcast of the vote), and apply `±mean_scale` per entry by
/// the majority sign.
pub struct SignCompressedSgd {
    core: SchemeCore,
}

impl SignCompressedSgd {
    pub fn new(base: Box<dyn ThreeStepOptimizer>, comm: Box<dyn Communicator>) -> Self {
        SignCompressedSgd {
            core: SchemeCore::new(base, comm),
        }
    }

    /// Packed wire size in bytes of an `n`-entry sign payload — the
    /// `DataType::Bitset` description plus one f32 scale.
    pub fn wire_bytes(n: usize) -> usize {
        DataType::Bitset.bytes_for(n) + 4
    }
}

impl Scheme for SignCompressedSgd {
    fn name(&self) -> &str {
        "SignSGD"
    }

    fn train_step(
        &mut self,
        executor: &mut dyn GraphExecutor,
        batch: &Minibatch,
    ) -> Result<StepResult> {
        let result = self.core.backprop(executor, batch)?;
        let world = self.core.comm.world();
        let rank = self.core.comm.rank();
        for (pname, grad) in collect_gradients(executor)? {
            let n = grad.numel();
            let (words, scale) = compress(grad.data());
            let mut payload = words;
            payload.push(scale);
            let wire = Self::wire_bytes(n);

            // Majority vote at rank 0, result broadcast back (both legs at
            // the packed bitset price).
            let voted: Vec<f32>;
            let mean_scale: f32;
            if rank == 0 {
                // votes[i] = number of negative signs; scales averaged.
                let mut votes = vec![0u32; n];
                let mut scales = scale as f64;
                let tally = |votes: &mut [u32], words: &[f32]| {
                    for (i, v) in votes.iter_mut().enumerate() {
                        *v += (words[i / 32].to_bits() >> (i % 32)) & 1;
                    }
                };
                tally(&mut votes, &payload);
                for peer in 1..world {
                    let incoming = self.core.comm.recv(peer)?;
                    scales += incoming[incoming.len() - 1] as f64;
                    tally(&mut votes, &incoming);
                }
                mean_scale = (scales / world as f64) as f32;
                let mut out_words = vec![0u32; n.div_ceil(32)];
                for (i, &v) in votes.iter().enumerate() {
                    if v * 2 > world as u32 {
                        out_words[i / 32] |= 1 << (i % 32);
                    }
                }
                let mut vote_payload: Vec<f32> =
                    out_words.into_iter().map(f32::from_bits).collect();
                vote_payload.push(mean_scale);
                for peer in 1..world {
                    self.core.comm.send_sized(peer, &vote_payload, wire)?;
                }
                voted = vote_payload;
            } else {
                self.core.comm.send_sized(0, &payload, wire)?;
                voted = self.core.comm.recv(0)?;
                mean_scale = voted[voted.len() - 1];
            }
            let dense = decompress(&voted[..voted.len() - 1], mean_scale, n);
            let g = Tensor::from_vec(grad.shape().clone(), dense)?;
            self.core.apply_update(executor, &pname, &g)?;
        }
        Ok(result)
    }

    fn core(&self) -> &SchemeCore {
        &self.core
    }

    fn core_mut(&mut self) -> &mut SchemeCore {
        &mut self.core
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{DistributedRunner, Variant};
    use deep500_data::synthetic::SyntheticDataset;
    use deep500_graph::models;
    use deep500_tensor::Shape;
    use std::sync::Arc;

    #[test]
    fn compress_roundtrip_preserves_signs_and_scale() {
        let g = [1.5f32, -0.5, 0.25, -2.0, 0.0, 3.0, -1.0];
        let (words, scale) = compress(&g);
        assert_eq!(words.len(), 1);
        let mean: f32 = g.iter().map(|v| v.abs()).sum::<f32>() / g.len() as f32;
        assert!((scale - mean).abs() < 1e-6);
        let back = decompress(&words, scale, g.len());
        for (orig, dec) in g.iter().zip(&back) {
            if *orig < 0.0 {
                assert!(*dec < 0.0, "{orig} vs {dec}");
            } else {
                assert!(*dec >= 0.0, "{orig} vs {dec}");
            }
            assert!((dec.abs() - scale).abs() < 1e-6);
        }
    }

    #[test]
    fn wire_size_is_one_bit_per_entry() {
        assert_eq!(SignCompressedSgd::wire_bytes(32), 8); // 4 B signs + 4 B scale
        assert_eq!(SignCompressedSgd::wire_bytes(33), 9);
        assert_eq!(SignCompressedSgd::wire_bytes(256), 36);
    }

    #[test]
    fn signsgd_trains_and_slashes_volume() {
        let ds: Arc<dyn deep500_data::Dataset> = Arc::new(SyntheticDataset::new(
            "sign",
            Shape::new(&[16]),
            3,
            1024,
            0.25,
            8,
        ));
        let net = models::mlp(16, &[16], 3, 8).unwrap();
        let steps = 25;
        let run = |variant: Variant| {
            DistributedRunner::new(&net, ds.clone())
                .world(4)
                .batch(16)
                .steps(steps)
                .seed(1)
                .learning_rate(0.02)
                .variant(variant)
                .run()
                .unwrap()
        };
        let s = run(Variant::SignSgd);
        let d = run(Variant::Cdsgd);
        // Majority-vote keeps ranks consistent.
        let consistency = s.consistency(1e-6);
        assert!(consistency.is_consistent(), "{consistency}");
        // Loss decreases.
        let head: f32 = s.ranks[0].losses[..5].iter().sum::<f32>() / 5.0;
        let tail: f32 = s.ranks[0].losses[steps - 5..].iter().sum::<f32>() / 5.0;
        assert!(tail < head, "signSGD must learn: {head} -> {tail}");
        // The headline: an order-of-magnitude volume reduction vs dense
        // allreduce (1 bit vs 32 bits, minus the scale and PS-shape costs).
        let sv = s.ranks[1].volume.bytes_sent as f64; // worker rank
        let dv = d.ranks[1].volume.bytes_sent as f64;
        assert!(
            sv < dv / 8.0,
            "compressed {sv} should be well under dense {dv}"
        );
    }
}
