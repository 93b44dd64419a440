//! Communication-volume accounting (Level 3 metric).
//!
//! Deep500's `CommunicationVolume` metric records how much data a
//! distributed optimizer moves. In Deep500-rs every message that crosses a
//! [`Communicator`](../../deep500_dist) is counted here, so reported volumes
//! are exact properties of the executed communication schedule rather than
//! estimates.

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
}
