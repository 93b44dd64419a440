//! The α-β network performance model.
//!
//! Each message of `n` bytes costs `α + n/β` seconds end to end; the
//! receiving endpoint additionally serializes payload delivery (so an
//! incast of `k` messages onto one rank — the parameter-server hotspot —
//! takes `k` payload times, which is exactly the PS bottleneck the paper's
//! Fig. 12 exposes).

/// Latency-bandwidth network model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetworkModel {
    /// Per-message latency α in seconds.
    pub alpha_s: f64,
    /// Link bandwidth β in bytes/second.
    pub bandwidth_bps: f64,
}

impl NetworkModel {
    /// Cray-Aries-like dragonfly parameters (Piz Daint's interconnect):
    /// ~1.5 µs latency, ~10 GB/s injection bandwidth.
    pub fn aries() -> Self {
        NetworkModel {
            alpha_s: 1.5e-6,
            bandwidth_bps: 10.0e9,
        }
    }

    /// Commodity 10 GbE cluster: ~25 µs latency, ~1.1 GB/s.
    ///
    /// Public for: §V-E, the commodity network beside the Aries preset
    /// that Level 3 runs are priced on.
    pub fn ethernet_10g() -> Self {
        NetworkModel {
            alpha_s: 25e-6,
            bandwidth_bps: 1.1e9,
        }
    }

    /// An instantaneous network (for tests that only check data movement).
    pub fn instant() -> Self {
        NetworkModel {
            alpha_s: 0.0,
            bandwidth_bps: f64::INFINITY,
        }
    }

    /// Serialization time of `bytes` on the link.
    pub fn transfer_s(&self, bytes: usize) -> f64 {
        if self.bandwidth_bps.is_infinite() {
            0.0
        } else {
            bytes as f64 / self.bandwidth_bps
        }
    }

    /// Full cost of one message: latency + serialization.
    pub fn message_s(&self, bytes: usize) -> f64 {
        self.alpha_s + self.transfer_s(bytes)
    }

    /// Exponential retransmit backoff before retry number `attempt`
    /// (0-based): one message time of the payload, doubled per attempt.
    /// Used by the fault-injection layer to price recovery in virtual
    /// seconds.
    pub fn backoff_s(&self, bytes: usize, attempt: u32) -> f64 {
        self.message_s(bytes) * 2f64.powi(attempt.min(16) as i32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn message_cost_decomposes() {
        let m = NetworkModel {
            alpha_s: 1e-6,
            bandwidth_bps: 1e9,
        };
        assert!((m.transfer_s(1_000_000) - 1e-3).abs() < 1e-12);
        assert!((m.message_s(0) - 1e-6).abs() < 1e-15);
        assert!((m.message_s(1_000_000) - 1.001e-3).abs() < 1e-9);
    }

    #[test]
    fn instant_network_is_free() {
        let m = NetworkModel::instant();
        assert_eq!(m.message_s(1 << 30), 0.0);
    }

    #[test]
    fn backoff_doubles_per_attempt() {
        let m = NetworkModel::ethernet_10g();
        let b0 = m.backoff_s(1024, 0);
        assert!((m.backoff_s(1024, 1) - 2.0 * b0).abs() < 1e-12);
        assert!((m.backoff_s(1024, 3) - 8.0 * b0).abs() < 1e-12);
        assert_eq!(NetworkModel::instant().backoff_s(1 << 20, 5), 0.0);
    }

    #[test]
    fn presets_are_ordered() {
        assert!(NetworkModel::aries().alpha_s < NetworkModel::ethernet_10g().alpha_s);
        assert!(NetworkModel::aries().bandwidth_bps > NetworkModel::ethernet_10g().bandwidth_bps);
    }
}
