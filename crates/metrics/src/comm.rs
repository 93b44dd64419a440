//! Communication-volume accounting (Level 3 metric).
//!
//! Deep500's `CommunicationVolume` metric records how much data a
//! distributed optimizer moves. In Deep500-rs every message that crosses a
//! [`Communicator`](../../deep500_dist) is counted here, so reported volumes
//! are exact properties of the executed communication schedule rather than
//! estimates.

use crate::{MetricValue, TestMetric};

/// Bytes and message counts sent/received by one rank (or aggregated over
/// ranks via [`merge`](CommunicationVolume::merge)).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CommunicationVolume {
    pub bytes_sent: u64,
    pub bytes_received: u64,
    pub messages_sent: u64,
    pub messages_received: u64,
}

impl CommunicationVolume {
    /// Zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record an outgoing message of `bytes`.
    pub fn record_send(&mut self, bytes: usize) {
        self.bytes_sent += bytes as u64;
        self.messages_sent += 1;
    }

    /// Record an incoming message of `bytes`.
    pub fn record_recv(&mut self, bytes: usize) {
        self.bytes_received += bytes as u64;
        self.messages_received += 1;
    }

    /// Total traffic (sent + received) in bytes.
    pub fn total_bytes(&self) -> u64 {
        self.bytes_sent + self.bytes_received
    }

    /// Aggregate another rank's counters into this one.
    pub fn merge(&mut self, other: &CommunicationVolume) {
        self.bytes_sent += other.bytes_sent;
        self.bytes_received += other.bytes_received;
        self.messages_sent += other.messages_sent;
        self.messages_received += other.messages_received;
    }

    /// Sent bytes in GB (decimal, as the paper reports: "0.952 GB").
    fn sent_gb(&self) -> f64 {
        self.bytes_sent as f64 / 1e9
    }
}

impl TestMetric for CommunicationVolume {
    fn name(&self) -> &str {
        "communication-volume"
    }
    fn observe(&mut self, value: f64) {
        self.record_send(value as usize);
    }
    fn summarize(&self) -> MetricValue {
        MetricValue::Scalar(self.total_bytes() as f64)
    }
    fn render(&self) -> String {
        format!(
            "communication-volume: sent {:.3} GB in {} msgs, received {:.3} GB in {} msgs",
            self.sent_gb(),
            self.messages_sent,
            self.bytes_received as f64 / 1e9,
            self.messages_received
        )
    }
    fn reset(&mut self) {
        *self = Self::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_totals() {
        let mut v = CommunicationVolume::new();
        v.record_send(100);
        v.record_send(200);
        v.record_recv(50);
        assert_eq!(v.bytes_sent, 300);
        assert_eq!(v.messages_sent, 2);
        assert_eq!(v.bytes_received, 50);
        assert_eq!(v.total_bytes(), 350);
    }

    #[test]
    fn merge_adds_counters() {
        let mut a = CommunicationVolume::new();
        a.record_send(10);
        let mut b = CommunicationVolume::new();
        b.record_recv(20);
        a.merge(&b);
        assert_eq!(a.total_bytes(), 30);
        assert_eq!(a.messages_received, 1);
    }

    #[test]
    fn gb_conversion_is_decimal() {
        let mut v = CommunicationVolume::new();
        v.record_send(952_000_000);
        assert!((v.sent_gb() - 0.952).abs() < 1e-9);
    }

    #[test]
    fn render_mentions_both_directions() {
        let mut v = CommunicationVolume::new();
        v.record_send(1_000_000_000);
        let r = v.render();
        assert!(r.contains("sent 1.000 GB"));
        v.reset();
        assert_eq!(v, CommunicationVolume::default());
    }
}
