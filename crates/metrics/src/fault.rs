//! Fault-injection and recovery accounting (Level 3 metric).
//!
//! The fault-injection subsystem in `deep500-dist` decorates a
//! communicator with a deterministic fault model (message drops, bounded
//! delays, stragglers, rank crashes). Every injected fault and
//! every recovery action is counted here, so a benchmark can report *how
//! much* resilience machinery a distributed scheme exercised — retries,
//! recoveries, virtual seconds spent recovering, and training steps lost
//! to crashed ranks — as exact counters rather than estimates.

/// Counters of injected faults and recovery work on one rank (or
/// aggregated across ranks via [`merge`](FaultCounters::merge)).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FaultCounters {
    /// Messages dropped by the fault plan (including retried attempts).
    pub drops_injected: u64,
    /// Messages held back by an injected network delay.
    pub delays_injected: u64,
    /// Rank crashes executed by the plan (1 on the crashing rank).
    pub crashes_injected: u64,
    /// Compute advances slowed down by a straggler factor.
    pub straggler_slowdowns: u64,
    /// Retransmission attempts after a dropped message.
    pub retries: u64,
    /// Recovery actions: a surviving rank detecting a peer crash and
    /// re-forming its communication group, or a scheme skipping a lost
    /// contribution and continuing.
    pub recoveries: u64,
    /// Training steps (or sync contributions) lost to faults.
    pub steps_lost: u64,
    /// Virtual seconds spent on recovery: retransmit backoff, timeout
    /// detection, and wasted transmissions, priced through the α-β
    /// network model.
    pub recovery_virtual_s: f64,
}

impl FaultCounters {
    /// Zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Aggregate another rank's counters into this one.
    pub fn merge(&mut self, other: &FaultCounters) {
        self.drops_injected += other.drops_injected;
        self.delays_injected += other.delays_injected;
        self.crashes_injected += other.crashes_injected;
        self.straggler_slowdowns += other.straggler_slowdowns;
        self.retries += other.retries;
        self.recoveries += other.recoveries;
        self.steps_lost += other.steps_lost;
        self.recovery_virtual_s += other.recovery_virtual_s;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_and_merge() {
        let mut a = FaultCounters::new();
        a.drops_injected = 3;
        a.retries = 2;
        a.recovery_virtual_s = 0.5;
        let mut b = FaultCounters::new();
        b.crashes_injected = 1;
        b.steps_lost = 4;
        b.recovery_virtual_s = 0.25;
        a.merge(&b);
        assert_eq!((a.drops_injected, a.crashes_injected), (3, 1));
        assert_eq!(a.steps_lost, 4);
        assert!((a.recovery_virtual_s - 0.75).abs() < 1e-12);
    }
}
