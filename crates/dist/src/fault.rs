//! Deterministic fault injection for the distributed layer.
//!
//! A seeded [`FaultPlan`] describes the anomalies a run should suffer:
//! message **drops** (with bounded retransmit + exponential backoff),
//! bounded in-network **delays**, **reordering** (modeled as head-of-line
//! blocking delay under an in-order transport), **straggler** ranks whose
//! compute is slowed by a factor, and **rank crashes** at chosen steps.
//! [`FaultyCommunicator`] decorates any [`Communicator`] with the plan:
//! every injected fault is priced in virtual seconds through the α-β
//! [`NetworkModel`] and counted in
//! [`FaultCounters`].
//!
//! Everything is a pure function of the plan's seed and the (lockstep)
//! message schedule, so the same seed reproduces the same fault sequence
//! bit for bit — faults are *measurable conditions*, not noise. Crashes in
//! particular are plan-visible to every rank: survivors consult the plan
//! instead of a failure detector, which makes group re-formation
//! (`live_ranks`) deterministic and race-free.

use crate::comm::{CommError, CommResult, Communicator, SendOptions};
use crate::netmodel::NetworkModel;
use deep500_metrics::{CommunicationVolume, FaultCounters};
use deep500_tensor::SplitMix64;
use std::sync::Arc;

/// A seeded, reproducible fault schedule. All probabilities are per
/// message transmission; delays and backoff are priced in virtual seconds
/// through the run's [`NetworkModel`].
#[derive(Debug, Clone)]
pub struct FaultPlan {
    /// Seed for all stochastic decisions (drops, delays, reordering).
    pub seed: u64,
    /// Probability that a message transmission is dropped.
    pub drop_rate: f64,
    /// Retransmissions allowed after a drop before `Dropped` surfaces
    /// (0 = strict: the first drop is an error).
    pub max_retries: u32,
    /// Probability that a message suffers an injected delay.
    pub delay_rate: f64,
    /// Upper bound of the injected delay in *message times* of the delayed
    /// payload (`α + bytes/β`); the actual delay is uniform in
    /// `[0, max_delay_msgs)`.
    pub max_delay_msgs: f64,
    /// Probability that a message is reordered. Under the in-order
    /// transport this manifests as head-of-line blocking: one extra
    /// message time of delay.
    pub reorder_rate: f64,
    /// `(rank, slowdown_factor)` — straggler ranks whose compute advances
    /// are multiplied by the factor (> 1).
    pub stragglers: Vec<(usize, f64)>,
    /// `(rank, step)` — the rank crashes at the *beginning* of the given
    /// step: its `begin_step(step)` returns `RankDead` and every later
    /// operation fails.
    pub crashes: Vec<(usize, u64)>,
    /// Real-time patience while waiting for a message before a `Timeout`
    /// surfaces (bounds wall-clock hangs when a peer aborted outside the
    /// plan).
    pub recv_patience_s: f64,
    /// Virtual seconds charged when a timeout or peer crash is detected
    /// (the cost of the failure detector).
    pub detect_virtual_s: f64,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            seed: 0,
            drop_rate: 0.0,
            max_retries: 3,
            delay_rate: 0.0,
            max_delay_msgs: 4.0,
            reorder_rate: 0.0,
            stragglers: Vec::new(),
            crashes: Vec::new(),
            recv_patience_s: 5.0,
            detect_virtual_s: 1e-3,
        }
    }
}

impl FaultPlan {
    /// A zero-fault plan: decorating with it is bit-identical to the
    /// undecorated path.
    pub fn none() -> Self {
        Self::default()
    }

    /// A zero-fault plan carrying a seed (faults are added with the
    /// `with_*` builders).
    pub fn seeded(seed: u64) -> Self {
        FaultPlan {
            seed,
            ..Self::default()
        }
    }

    /// Drop each transmission with probability `rate`; allow `max_retries`
    /// retransmissions (with exponential backoff) before erroring.
    pub fn with_drops(mut self, rate: f64, max_retries: u32) -> Self {
        assert!((0.0..1.0).contains(&rate), "drop rate must be in [0, 1)");
        self.drop_rate = rate;
        self.max_retries = max_retries;
        self
    }

    /// Delay each message with probability `rate` by up to
    /// `max_delay_msgs` message times.
    pub fn with_delays(mut self, rate: f64, max_delay_msgs: f64) -> Self {
        assert!((0.0..1.0).contains(&rate), "delay rate must be in [0, 1)");
        self.delay_rate = rate;
        self.max_delay_msgs = max_delay_msgs;
        self
    }

    /// Slow rank `rank`'s compute down by `factor` (> 1).
    pub fn with_straggler(mut self, rank: usize, factor: f64) -> Self {
        assert!(factor >= 1.0, "straggler factor must be >= 1");
        self.stragglers.push((rank, factor));
        self
    }

    /// Crash `rank` at the beginning of `step`.
    pub fn with_crash(mut self, rank: usize, step: u64) -> Self {
        self.crashes.push((rank, step));
        self
    }

    /// Override the real-time receive patience.
    pub fn with_patience(mut self, seconds: f64) -> Self {
        self.recv_patience_s = seconds;
        self
    }

    /// The step at which `rank` crashes, if any.
    fn crash_step(&self, rank: usize) -> Option<u64> {
        self.crashes
            .iter()
            .filter(|(r, _)| *r == rank)
            .map(|(_, s)| *s)
            .min()
    }

    /// Whether `rank` is dead at (the beginning of) `step`.
    fn is_dead(&self, rank: usize, step: u64) -> bool {
        self.crash_step(rank).is_some_and(|s| s <= step)
    }

    /// Ranks alive at `step`, ascending.
    fn live_at(&self, step: u64, world: usize) -> Vec<usize> {
        (0..world).filter(|&r| !self.is_dead(r, step)).collect()
    }

    /// The straggler slowdown factor of `rank` (1.0 when not a straggler).
    fn straggler_factor(&self, rank: usize) -> f64 {
        self.stragglers
            .iter()
            .filter(|(r, _)| *r == rank)
            .map(|(_, f)| *f)
            .fold(1.0, f64::max)
    }
}

/// Decorator injecting a [`FaultPlan`] into any [`Communicator`].
pub struct FaultyCommunicator<C: Communicator> {
    inner: C,
    plan: Arc<FaultPlan>,
    model: NetworkModel,
    rng: SplitMix64,
    step: u64,
    dead: bool,
    counters: FaultCounters,
}

impl<C: Communicator> FaultyCommunicator<C> {
    /// Wrap `inner` under `plan`; `model` prices injected faults in
    /// virtual seconds (use the same model as the transport).
    pub fn new(inner: C, plan: Arc<FaultPlan>, model: NetworkModel) -> Self {
        // Per-rank decision stream: reproducible, and distinct per rank.
        let rng = SplitMix64::new(
            plan.seed ^ (inner.rank() as u64 + 1).wrapping_mul(0xA076_1D64_78BD_642F),
        );
        FaultyCommunicator {
            inner,
            plan,
            model,
            rng,
            step: 0,
            dead: false,
            counters: FaultCounters::new(),
        }
    }

    /// Consume the decorator, returning the inner communicator.
    pub fn into_inner(self) -> C {
        self.inner
    }

    fn check_self_alive(&self) -> CommResult<()> {
        if self.dead {
            return Err(CommError::RankDead(self.inner.rank()));
        }
        Ok(())
    }
}

impl<C: Communicator> Communicator for FaultyCommunicator<C> {
    fn rank(&self) -> usize {
        self.inner.rank()
    }
    fn world(&self) -> usize {
        self.inner.world()
    }

    fn send_opts(&mut self, to: usize, data: &[f32], opts: SendOptions) -> CommResult<()> {
        self.check_self_alive()?;
        if self.plan.is_dead(to, self.step) {
            // Plan-visible peer death: sending into the void fails fast
            // and deterministically.
            self.counters.recoveries += 1;
            return Err(CommError::RankDead(to));
        }
        let msg_s = self.model.message_s(opts.logical_bytes);
        let mut attempts: u32 = 0;
        loop {
            if self.plan.drop_rate > 0.0 && self.rng.next_f64() < self.plan.drop_rate {
                // The transmission occupied the wire and was lost.
                attempts += 1;
                self.counters.drops_injected += 1;
                self.inner.advance(msg_s);
                self.counters.recovery_virtual_s += msg_s;
                if attempts > self.plan.max_retries {
                    return Err(CommError::Dropped { to, attempts });
                }
                // Exponential backoff before the retransmission.
                let backoff = self.model.backoff_s(opts.logical_bytes, attempts - 1);
                self.inner.advance(backoff);
                self.counters.recovery_virtual_s += backoff;
                self.counters.retries += 1;
                continue;
            }
            let mut opts = opts;
            if self.plan.delay_rate > 0.0 && self.rng.next_f64() < self.plan.delay_rate {
                let delay = self.rng.next_f64() * self.plan.max_delay_msgs * msg_s;
                opts.extra_delay_s += delay;
                self.counters.delays_injected += 1;
            }
            if self.plan.reorder_rate > 0.0 && self.rng.next_f64() < self.plan.reorder_rate {
                // In-order transport: a reordered packet stalls the flow
                // for one extra message time (head-of-line blocking).
                opts.extra_delay_s += msg_s;
                self.counters.reorders_injected += 1;
            }
            if attempts > 0 {
                // A retransmission got through: the drop was recovered.
                self.counters.recoveries += 1;
            }
            return self.inner.send_opts(to, data, opts);
        }
    }

    fn recv(&mut self, from: usize) -> CommResult<Vec<f32>> {
        let patience = self.plan.recv_patience_s;
        self.recv_timeout(from, patience)
    }

    fn recv_timeout(&mut self, from: usize, patience_s: f64) -> CommResult<Vec<f32>> {
        self.check_self_alive()?;
        // Whether the plan has killed `from` depends on the step, which
        // cannot change during a call, so it is decided before waiting.
        let err = if self.plan.is_dead(from, self.step) {
            // Messages sent before the crash remain consumable.
            match self.inner.try_recv(from) {
                Ok(Some(data)) => return Ok(data),
                Ok(None) | Err(CommError::Closed(_)) => {}
                Err(e) => return Err(e),
            }
            self.counters.recoveries += 1;
            CommError::RankDead(from)
        } else {
            match self.inner.recv_timeout(from, patience_s) {
                Err(e @ CommError::Timeout { .. }) => e,
                other => return other,
            }
        };
        self.counters.recovery_virtual_s += self.plan.detect_virtual_s;
        self.inner.advance(self.plan.detect_virtual_s);
        Err(err)
    }

    fn try_recv(&mut self, from: usize) -> CommResult<Option<Vec<f32>>> {
        self.check_self_alive()?;
        self.inner.try_recv(from)
    }

    fn advance(&mut self, seconds: f64) {
        let factor = self.plan.straggler_factor(self.inner.rank());
        if factor > 1.0 && seconds > 0.0 {
            self.counters.straggler_slowdowns += 1;
            self.inner.advance(seconds * factor);
        } else {
            self.inner.advance(seconds);
        }
    }

    fn elapsed(&self) -> f64 {
        self.inner.elapsed()
    }

    fn stats(&self) -> CommunicationVolume {
        self.inner.stats()
    }

    fn begin_step(&mut self, step: u64) -> CommResult<()> {
        let prev_live = self.plan.live_at(self.step, self.world()).len();
        self.step = step;
        if !self.dead && self.plan.is_dead(self.rank(), step) {
            self.dead = true;
            self.counters.crashes_injected += 1;
            return Err(CommError::RankDead(self.rank()));
        }
        self.check_self_alive()?;
        // Group re-formation: when peers died since the previous step, the
        // survivors pay the detection cost once and count a recovery.
        let live = self.plan.live_at(step, self.world()).len();
        if step > 0 && live < prev_live {
            self.counters.recoveries += 1;
            self.counters.recovery_virtual_s += self.plan.detect_virtual_s;
            self.inner.advance(self.plan.detect_virtual_s);
        }
        Ok(())
    }

    fn live_ranks(&self) -> Vec<usize> {
        self.plan.live_at(self.step, self.world())
    }

    fn fault_stats(&self) -> FaultCounters {
        self.counters
    }

    fn record_recovery(&mut self, virtual_s: f64) {
        self.counters.recoveries += 1;
        self.counters.recovery_virtual_s += virtual_s;
        self.inner.advance(virtual_s);
    }

    fn record_lost(&mut self, n: u64) {
        self.counters.steps_lost += n;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::ThreadTransport;
    use std::time::Instant;

    fn pair(
        plan: FaultPlan,
    ) -> (
        FaultyCommunicator<crate::comm::ThreadCommunicator>,
        crate::comm::ThreadCommunicator,
    ) {
        let model = NetworkModel::aries();
        let mut comms = ThreadTransport::create(2, model);
        let c1 = comms.pop().expect("two comms");
        let c0 = comms.pop().expect("two comms");
        (FaultyCommunicator::new(c0, Arc::new(plan), model), c1)
    }

    #[test]
    fn zero_fault_plan_is_transparent() {
        let (mut f0, mut c1) = pair(FaultPlan::none());
        f0.begin_step(0).unwrap();
        f0.send(1, &[1.0, 2.0]).unwrap();
        assert_eq!(c1.recv(0).unwrap(), vec![1.0, 2.0]);
        assert_eq!(f0.fault_stats(), FaultCounters::default());
        assert_eq!(f0.live_ranks(), vec![0, 1]);
    }

    #[test]
    fn strict_drops_surface_as_typed_errors() {
        // drop_rate ~1: the very first transmission drops; with
        // max_retries = 0 the error surfaces immediately.
        let (mut f0, _c1) = pair(FaultPlan::seeded(7).with_drops(0.999, 0));
        let err = f0.send(1, &[1.0]).unwrap_err();
        assert!(matches!(err, CommError::Dropped { to: 1, attempts: 1 }));
        assert_eq!(f0.fault_stats().drops_injected, 1);
        assert_eq!(f0.fault_stats().retries, 0);
        assert!(f0.fault_stats().recovery_virtual_s > 0.0);
    }

    #[test]
    fn retries_eventually_deliver() {
        let (mut f0, mut c1) = pair(FaultPlan::seeded(3).with_drops(0.5, 20));
        for _ in 0..16 {
            f0.send(1, &[5.0]).unwrap();
            assert_eq!(c1.recv(0).unwrap(), vec![5.0]);
        }
        let stats = f0.fault_stats();
        assert!(stats.drops_injected > 0, "expected some drops");
        assert_eq!(stats.drops_injected, stats.retries);
        assert!(stats.recovery_virtual_s > 0.0);
    }

    #[test]
    fn same_seed_same_fault_log() {
        // The witness is what the faults cost: the counters, and the
        // virtual clocks of the sender and of the receiver, which every
        // drop, backoff, delay and reorder moves.
        let run = |seed: u64| {
            let (mut f0, mut c1) = pair(FaultPlan {
                reorder_rate: 0.2,
                ..FaultPlan::seeded(seed)
                    .with_drops(0.3, 10)
                    .with_delays(0.3, 4.0)
            });
            for _ in 0..32 {
                f0.send(1, &[1.0]).unwrap();
                c1.recv(0).unwrap();
            }
            (
                f0.fault_stats(),
                f0.elapsed().to_bits(),
                c1.elapsed().to_bits(),
            )
        };
        let a = run(11);
        let b = run(11);
        assert!(a.0.drops_injected > 0 && a.0.delays_injected > 0 && a.0.reorders_injected > 0);
        assert_eq!(a, b, "same seed must reproduce the fault sequence");
        let c = run(12);
        assert_ne!(a, c, "a different seed should perturb the sequence");
    }

    #[test]
    fn planned_crash_kills_and_is_visible_to_peers() {
        let model = NetworkModel::instant();
        let plan = Arc::new(FaultPlan::seeded(0).with_crash(1, 2));
        let mut comms = ThreadTransport::create(2, model);
        let mut f1 = FaultyCommunicator::new(comms.pop().expect("c1"), plan.clone(), model);
        let mut f0 = FaultyCommunicator::new(comms.pop().expect("c0"), plan, model);

        f0.begin_step(0).unwrap();
        f1.begin_step(0).unwrap();
        assert_eq!(f0.live_ranks(), vec![0, 1]);

        // Rank 1 dies at step 2.
        f1.begin_step(2).unwrap_err();
        assert!(matches!(f1.send(0, &[1.0]), Err(CommError::RankDead(1))));
        assert_eq!(f1.fault_stats().crashes_injected, 1);

        // Rank 0 observes the death deterministically.
        f0.begin_step(2).unwrap();
        assert_eq!(f0.live_ranks(), vec![0]);
        assert!(matches!(f0.recv(1), Err(CommError::RankDead(1))));
        assert!(matches!(f0.send(1, &[1.0]), Err(CommError::RankDead(1))));
        assert!(f0.fault_stats().recoveries >= 1);
    }

    #[test]
    fn straggler_compute_is_slowed() {
        let (mut f0, _c1) = pair(FaultPlan::seeded(0).with_straggler(0, 3.0));
        f0.advance(2.0);
        assert!((f0.elapsed() - 6.0).abs() < 1e-12);
        assert_eq!(f0.fault_stats().straggler_slowdowns, 1);
    }

    #[test]
    fn recv_timeout_bounds_the_wait() {
        let (mut f0, _c1) = pair(FaultPlan::seeded(0).with_patience(0.05));
        let t0 = Instant::now();
        let err = f0.recv_timeout(1, 0.05).unwrap_err();
        assert!(matches!(err, CommError::Timeout { peer: 1, .. }));
        assert!(t0.elapsed().as_secs_f64() < 2.0, "wait must be bounded");
    }
}
