//! Communicators: MPI-style point-to-point messaging between ranks.
//!
//! The thread transport gives every rank a [`ThreadCommunicator`] wired to
//! its peers through crossbeam channels. Each message carries the sender's
//! **virtual timestamp**; on receipt the receiver's virtual clock advances
//! to `max(own, sender_ts + α) + payload/β` under the attached
//! [`NetworkModel`] — a conservative virtual-time simulation that prices
//! the real message schedule while the data itself moves for real. Compute
//! time enters via [`Communicator::advance`].
//!
//! A rank waits in one place, [`ThreadCommunicator`]'s private `wait`: it
//! polls its inbox through [`deep500_tensor::wait::poll`] — the workspace's
//! one poll-before-park loop, shared with `deep500-serve`, which owns the
//! 50 µs window and gives the core away between polls — then parks on the
//! channel for what remains of the caller's deadline. Every receive
//! polls, also with more ranks than cores (measured in EXPERIMENTS E30:
//! never slower than parking at once). How a rank waits moves wall time;
//! message order, volumes and virtual time never depend on it.
//!
//! Communication is **fallible by design**: every operation returns a
//! typed [`CommError`] instead of panicking, so the fault-injection layer
//! ([`crate::fault`]) can surface drops, timeouts, and rank deaths through
//! the same API the fault-free path uses, and schemes can make typed
//! recovery decisions (retry, renormalize, fail over, or abort cleanly).

use crate::netmodel::NetworkModel;
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender, TryRecvError};
use deep500_metrics::{CommunicationVolume, FaultCounters};
use deep500_tensor::wait::poll;
use std::fmt;
use std::time::{Duration, Instant};

/// A typed communication failure.
///
/// The variants map one-to-one onto recovery decisions: `Timeout` and
/// `Dropped` are retryable, `RankDead` triggers group re-formation or
/// failover, `Closed` and `Mismatch` are protocol-fatal.
#[derive(Debug, Clone, PartialEq)]
pub enum CommError {
    /// No message arrived from `peer` within the patience budget.
    Timeout { peer: usize, waited_s: f64 },
    /// The named rank has crashed (per the fault plan, or detected via a
    /// disconnected channel). On the crashing rank itself, `RankDead`
    /// carries its own rank.
    RankDead(usize),
    /// A message to `to` was dropped and the retry budget (`attempts`
    /// transmissions) is exhausted.
    Dropped { to: usize, attempts: u32 },
    /// The endpoint or channel is closed (peer hung up outside the fault
    /// plan, or an invalid peer was addressed).
    Closed(String),
    /// A protocol-level payload mismatch (wrong buffer size for a
    /// collective).
    Mismatch(String),
}

impl fmt::Display for CommError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CommError::Timeout { peer, waited_s } => {
                write!(f, "timeout waiting on rank {peer} after {waited_s:.3}s")
            }
            CommError::RankDead(r) => write!(f, "rank {r} is dead"),
            CommError::Dropped { to, attempts } => {
                write!(f, "message to rank {to} dropped after {attempts} attempts")
            }
            CommError::Closed(m) => write!(f, "communicator closed: {m}"),
            CommError::Mismatch(m) => write!(f, "protocol mismatch: {m}"),
        }
    }
}

impl std::error::Error for CommError {}

impl From<CommError> for deep500_tensor::Error {
    fn from(e: CommError) -> Self {
        deep500_tensor::Error::Communication(e.to_string())
    }
}

/// Result alias for fallible communication.
pub type CommResult<T> = std::result::Result<T, CommError>;

/// Options for [`Communicator::send_opts`].
#[derive(Debug, Clone, Copy)]
pub struct SendOptions {
    /// Logical payload size in bytes for timing/volume accounting.
    pub logical_bytes: usize,
    /// Extra in-network delay (queuing, injected faults) added to the
    /// message's arrival time, in virtual seconds. Does not occupy the
    /// sender's NIC.
    pub extra_delay_s: f64,
}

impl SendOptions {
    /// Plain options pricing `data.len() * 4` bytes with no extra delay.
    fn sized(logical_bytes: usize) -> Self {
        SendOptions {
            logical_bytes,
            extra_delay_s: 0.0,
        }
    }
}

/// One in-flight message.
#[derive(Debug, Clone)]
struct Message {
    data: Vec<f32>,
    /// Sender's virtual clock at send time (plus any in-network delay).
    send_ts: f64,
    /// Logical payload size in bytes (defaults to `4 * data.len()`; the
    /// scaling harness prices full-size tensors while moving small ones).
    logical_bytes: usize,
}

/// An MPI-style communicator endpoint.
///
/// All data-moving operations return [`CommResult`]; nothing in this trait
/// panics on communication failure. Fault-aware implementations
/// ([`crate::fault::FaultyCommunicator`]) additionally report which ranks
/// are alive ([`live_ranks`](Communicator::live_ranks)) and account their
/// injected faults ([`fault_stats`](Communicator::fault_stats)); the
/// defaults describe a perfect network.
pub trait Communicator: Send {
    /// This endpoint's rank.
    fn rank(&self) -> usize;

    /// Number of ranks.
    fn world(&self) -> usize;

    /// Send `data` to rank `to` (non-blocking; unbounded buffering).
    fn send(&mut self, to: usize, data: &[f32]) -> CommResult<()> {
        self.send_opts(to, data, SendOptions::sized(data.len() * 4))
    }

    /// Send with an explicit logical payload size for timing/volume.
    fn send_sized(&mut self, to: usize, data: &[f32], logical_bytes: usize) -> CommResult<()> {
        self.send_opts(to, data, SendOptions::sized(logical_bytes))
    }

    /// Send with full options (logical size, injected delay).
    fn send_opts(&mut self, to: usize, data: &[f32], opts: SendOptions) -> CommResult<()>;

    /// Blocking receive of the next message from rank `from`.
    fn recv(&mut self, from: usize) -> CommResult<Vec<f32>>;

    /// Non-blocking receive: `Ok(None)` when no message is waiting.
    fn try_recv(&mut self, from: usize) -> CommResult<Option<Vec<f32>>>;

    /// Receive with a (real-time) patience budget: `Timeout` once
    /// `patience_s` passed without a message. [`ThreadCommunicator`] honours
    /// the budget; this default, for transports that cannot wait against a
    /// deadline, blocks.
    fn recv_timeout(&mut self, from: usize, _patience_s: f64) -> CommResult<Vec<f32>> {
        self.recv(from)
    }

    /// Advance this rank's virtual clock by `seconds` of local compute.
    fn advance(&mut self, seconds: f64);

    /// This rank's virtual time.
    fn elapsed(&self) -> f64;

    /// Communication counters of this endpoint.
    fn stats(&self) -> CommunicationVolume;

    /// Mark the beginning of training step `step` on this rank. The fault
    /// layer uses this to execute planned crashes (`Err(RankDead(self))`
    /// on the crashing rank) and to detect peer-group changes; the default
    /// perfect network always succeeds.
    fn begin_step(&mut self, _step: u64) -> CommResult<()> {
        Ok(())
    }

    /// Ranks still alive at the current step, ascending. Synchronous
    /// schemes run their collectives over this group and renormalize by
    /// its size.
    fn live_ranks(&self) -> Vec<usize> {
        (0..self.world()).collect()
    }

    /// Fault-injection and recovery counters of this endpoint (all zero on
    /// a perfect network).
    fn fault_stats(&self) -> FaultCounters {
        FaultCounters::default()
    }

    /// Record a scheme-level recovery action (e.g. a stale-synchronous
    /// sync skipping a lost contribution) in the fault counters; no-op on
    /// a perfect network.
    fn record_recovery(&mut self, _virtual_s: f64) {}

    /// Record `n` lost steps/contributions in the fault counters; no-op on
    /// a perfect network.
    fn record_lost(&mut self, _n: u64) {}

    /// Barrier across all ranks (implemented with messages so virtual time
    /// propagates: everyone syncs to the global maximum clock).
    fn barrier(&mut self) -> CommResult<()> {
        // Centralized: ranks report to 0, 0 answers with the max clock.
        if self.rank() == 0 {
            for peer in 1..self.world() {
                let _ = self.recv(peer)?;
            }
            for peer in 1..self.world() {
                self.send(peer, &[])?;
            }
        } else {
            self.send(0, &[])?;
            let _ = self.recv(0)?;
        }
        Ok(())
    }
}

/// The thread-transport communicator endpoint.
pub struct ThreadCommunicator {
    rank: usize,
    world: usize,
    /// `senders[dst]` — channel into rank `dst`'s inbox from this rank.
    senders: Vec<Sender<Message>>,
    /// `receivers[src]` — this rank's inbox from rank `src`.
    receivers: Vec<Receiver<Message>>,
    model: NetworkModel,
    vclock: f64,
    volume: CommunicationVolume,
}

impl ThreadCommunicator {
    /// The network model pricing this endpoint's messages.
    pub fn model(&self) -> NetworkModel {
        self.model
    }

    fn check_peer(&self, peer: usize, what: &str) -> CommResult<()> {
        if peer >= self.world {
            return Err(CommError::Closed(format!(
                "{what} rank {peer} of world {}",
                self.world
            )));
        }
        Ok(())
    }

    /// The one place a rank waits: the next message from `from`, or
    /// `Timeout` once `patience` has passed (`Duration::MAX`: no deadline).
    /// Polls the inbox first, then parks on the channel for the rest.
    fn wait(&mut self, from: usize, patience: Duration) -> CommResult<Vec<f32>> {
        self.check_peer(from, "recv from")?;
        let inbox = &self.receivers[from];
        let start = Instant::now();
        let polled = poll(patience, || match inbox.try_recv() {
            Err(TryRecvError::Empty) => None,
            got => Some(got.map_err(|_| RecvTimeoutError::Disconnected)),
        });
        let outcome =
            polled.unwrap_or_else(|| inbox.recv_timeout(patience.saturating_sub(start.elapsed())));
        let msg = outcome.map_err(|e| match e {
            RecvTimeoutError::Disconnected => CommError::Closed(format!("rank {from} hung up")),
            RecvTimeoutError::Timeout => CommError::Timeout {
                peer: from,
                waited_s: start.elapsed().as_secs_f64(),
            },
        })?;
        self.account_arrival(&msg);
        Ok(msg.data)
    }

    /// Price an arrived message on the receiving endpoint's clock.
    fn account_arrival(&mut self, msg: &Message) {
        // Arrival: latency after the sender's timestamp, then delivery
        // serializes on this endpoint.
        let arrival = msg.send_ts + self.model.alpha_s;
        self.vclock = self.vclock.max(arrival) + self.model.transfer_s(msg.logical_bytes);
        self.volume.record_recv(msg.logical_bytes);
    }
}

/// Factory for wired-up thread communicators.
pub struct ThreadTransport;

impl ThreadTransport {
    /// Create `world` fully-connected communicators under `model`.
    pub fn create(world: usize, model: NetworkModel) -> Vec<ThreadCommunicator> {
        assert!(world >= 1);
        // channels[src][dst]
        let mut txs: Vec<Vec<Option<Sender<Message>>>> = (0..world)
            .map(|_| (0..world).map(|_| None).collect())
            .collect();
        let mut rxs: Vec<Vec<Option<Receiver<Message>>>> = (0..world)
            .map(|_| (0..world).map(|_| None).collect())
            .collect();
        for src in 0..world {
            for dst in 0..world {
                let (tx, rx) = unbounded();
                txs[src][dst] = Some(tx);
                rxs[dst][src] = Some(rx);
            }
        }
        let mut comms = Vec::with_capacity(world);
        for rank in 0..world {
            let senders = txs[rank]
                .iter_mut()
                .map(|t| t.take().expect("channel wired exactly once"))
                .collect();
            let receivers = rxs[rank]
                .iter_mut()
                .map(|r| r.take().expect("channel wired exactly once"))
                .collect();
            comms.push(ThreadCommunicator {
                rank,
                world,
                senders,
                receivers,
                model,
                vclock: 0.0,
                volume: CommunicationVolume::new(),
            });
        }
        comms
    }
}

impl Communicator for ThreadCommunicator {
    fn rank(&self) -> usize {
        self.rank
    }
    fn world(&self) -> usize {
        self.world
    }
    fn send_opts(&mut self, to: usize, data: &[f32], opts: SendOptions) -> CommResult<()> {
        self.check_peer(to, "send to")?;
        // Sender-side injection occupies the NIC; injected delay rides in
        // the network (it postpones arrival, not the sender).
        self.vclock += self.model.transfer_s(opts.logical_bytes);
        self.volume.record_send(opts.logical_bytes);
        self.senders[to]
            .send(Message {
                data: data.to_vec(),
                send_ts: self.vclock + opts.extra_delay_s,
                logical_bytes: opts.logical_bytes,
            })
            .map_err(|_| CommError::Closed(format!("rank {to} is gone")))?;
        Ok(())
    }
    fn recv(&mut self, from: usize) -> CommResult<Vec<f32>> {
        self.wait(from, Duration::MAX)
    }
    fn recv_timeout(&mut self, from: usize, patience_s: f64) -> CommResult<Vec<f32>> {
        let patience = Duration::try_from_secs_f64(patience_s.max(0.0));
        self.wait(from, patience.unwrap_or(Duration::MAX))
    }
    fn try_recv(&mut self, from: usize) -> CommResult<Option<Vec<f32>>> {
        self.check_peer(from, "recv from")?;
        match self.receivers[from].try_recv() {
            Ok(msg) => {
                self.account_arrival(&msg);
                Ok(Some(msg.data))
            }
            Err(TryRecvError::Empty) => Ok(None),
            Err(TryRecvError::Disconnected) => {
                Err(CommError::Closed(format!("rank {from} hung up")))
            }
        }
    }
    fn advance(&mut self, seconds: f64) {
        self.vclock += seconds;
    }
    fn elapsed(&self) -> f64 {
        self.vclock
    }
    fn stats(&self) -> CommunicationVolume {
        self.volume
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn point_to_point_roundtrip() {
        let mut comms = ThreadTransport::create(2, NetworkModel::instant());
        let mut c1 = comms.pop().unwrap();
        let mut c0 = comms.pop().unwrap();
        let h = thread::spawn(move || {
            c1.send(0, &[1.0, 2.0, 3.0]).unwrap();
            c1.recv(0).unwrap()
        });
        let got = c0.recv(1).unwrap();
        assert_eq!(got, vec![1.0, 2.0, 3.0]);
        c0.send(1, &[9.0]).unwrap();
        assert_eq!(h.join().unwrap(), vec![9.0]);
        assert_eq!(c0.stats().messages_sent, 1);
        assert_eq!(c0.stats().bytes_received, 12);
    }

    #[test]
    fn virtual_time_propagates_through_messages() {
        let model = NetworkModel {
            alpha_s: 1.0,
            bandwidth_bps: 4.0,
        }; // 1 B/s per f32
        let mut comms = ThreadTransport::create(2, model);
        let mut c1 = comms.pop().unwrap();
        let mut c0 = comms.pop().unwrap();
        let h = thread::spawn(move || {
            c1.advance(10.0); // compute for 10 virtual seconds
            c1.send(0, &[0.0; 4]).unwrap(); // 16 B -> 4 s injection
            c1.elapsed()
        });
        let _ = c0.recv(1).unwrap();
        // Sender timestamp: 10 + 4 = 14; arrival 14 + 1 = 15; delivery + 4.
        assert!((c0.elapsed() - 19.0).abs() < 1e-9, "{}", c0.elapsed());
        assert!((h.join().unwrap() - 14.0).abs() < 1e-9);
    }

    #[test]
    fn extra_delay_postpones_arrival_not_the_sender() {
        let model = NetworkModel {
            alpha_s: 1.0,
            bandwidth_bps: 4.0,
        };
        let mut comms = ThreadTransport::create(2, model);
        let mut c1 = comms.pop().unwrap();
        let mut c0 = comms.pop().unwrap();
        let h = thread::spawn(move || {
            c1.send_opts(
                0,
                &[0.0; 4],
                SendOptions {
                    logical_bytes: 16,
                    extra_delay_s: 5.0,
                },
            )
            .unwrap();
            c1.elapsed()
        });
        let _ = c0.recv(1).unwrap();
        // Sender pays only the 4 s injection; the receiver sees the
        // timestamp shifted by the 5 s in-network delay:
        // arrival (4 + 5) + 1 = 10, delivery + 4 = 14.
        assert!((h.join().unwrap() - 4.0).abs() < 1e-9);
        assert!((c0.elapsed() - 14.0).abs() < 1e-9, "{}", c0.elapsed());
    }

    #[test]
    fn incast_serializes_at_the_receiver() {
        let model = NetworkModel {
            alpha_s: 0.0,
            bandwidth_bps: 4.0,
        };
        let mut comms = ThreadTransport::create(3, model);
        let c2 = comms.pop().unwrap();
        let c1 = comms.pop().unwrap();
        let mut c0 = comms.pop().unwrap();
        let mk = |mut c: ThreadCommunicator| {
            thread::spawn(move || {
                c.send(0, &[0.0; 4]).unwrap();
            })
        };
        let h1 = mk(c1);
        let h2 = mk(c2);
        c0.recv(1).unwrap();
        c0.recv(2).unwrap();
        h1.join().unwrap();
        h2.join().unwrap();
        // Each sender finishes injecting at t=4; the first delivery then
        // occupies the receiver until 8, the second (already queued) until
        // 12 — deliveries serialize instead of overlapping.
        assert!((c0.elapsed() - 12.0).abs() < 1e-9, "{}", c0.elapsed());
    }

    #[test]
    fn barrier_synchronizes_clocks_monotonically() {
        let mut comms = ThreadTransport::create(4, NetworkModel::instant());
        let handles: Vec<_> = comms
            .drain(..)
            .map(|mut c| {
                thread::spawn(move || {
                    c.advance(c.rank() as f64); // heterogeneous compute
                    c.barrier().unwrap();
                    c.elapsed()
                })
            })
            .collect();
        let times: Vec<f64> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        // After the barrier everyone's clock is at least the max pre-barrier
        // clock (3.0).
        assert!(times.iter().all(|&t| t >= 3.0), "{times:?}");
    }

    #[test]
    fn invalid_peers_rejected_with_typed_errors() {
        let mut comms = ThreadTransport::create(1, NetworkModel::instant());
        let mut c = comms.pop().unwrap();
        assert!(matches!(c.send(5, &[1.0]), Err(CommError::Closed(_))));
        assert!(matches!(c.recv(5), Err(CommError::Closed(_))));
    }

    #[test]
    fn try_recv_reports_empty_and_disconnected() {
        let mut comms = ThreadTransport::create(2, NetworkModel::instant());
        let c1 = comms.pop().unwrap();
        let mut c0 = comms.pop().unwrap();
        assert_eq!(c0.try_recv(1).unwrap(), None);
        drop(c1);
        assert!(matches!(c0.try_recv(1), Err(CommError::Closed(_))));
    }

    fn two() -> (ThreadCommunicator, ThreadCommunicator) {
        let mut comms = ThreadTransport::create(2, NetworkModel::instant());
        let c1 = comms.pop().unwrap();
        (comms.pop().unwrap(), c1)
    }

    #[test]
    fn a_queued_message_needs_no_wait_and_a_late_one_wakes_the_parked_receiver() {
        let (mut c0, mut c1) = two();
        c1.send(0, &[1.0]).unwrap();
        // Delivered on a zero budget: nothing was waited for.
        assert_eq!(c0.recv_timeout(1, 0.0).unwrap(), vec![1.0]);
        assert!(matches!(
            c0.recv_timeout(1, 0.0),
            Err(CommError::Timeout { peer: 1, .. })
        ));
        // 5 ms is a hundred polling windows: this one arrives in the park.
        let h = thread::spawn(move || {
            thread::sleep(Duration::from_millis(5));
            c1.send(0, &[2.0]).unwrap();
            c1
        });
        assert_eq!(c0.recv(1).unwrap(), vec![2.0]);
        assert_eq!(c0.stats().messages_received, 2);
        drop(h.join().unwrap());
    }

    #[test]
    fn recv_timeout_waits_its_patience_and_loses_nothing() {
        let (mut c0, mut c1) = two();
        let patience = 0.02;
        match c0.recv_timeout(1, patience) {
            Err(CommError::Timeout { peer: 1, waited_s }) => assert!(
                (patience..=patience + 0.05).contains(&waited_s),
                "waited {waited_s}"
            ),
            other => panic!("expected a timeout, got {other:?}"),
        }
        // A timeout is not an arrival: clock and volume did not move.
        assert_eq!((c0.elapsed(), c0.stats().messages_received), (0.0, 0));
        c1.send(0, &[3.0]).unwrap();
        assert_eq!(c0.recv_timeout(1, patience).unwrap(), vec![3.0]);
    }

    #[test]
    fn a_peer_dropped_while_polling_or_while_parked_is_closed() {
        // 0: gone before the receive; 20 µs: inside the polling window;
        // 5 ms: long after the receiver parked.
        for delay_us in [0u64, 20, 5_000] {
            for bounded in [false, true] {
                let (mut c0, c1) = two();
                let h = thread::spawn(move || {
                    let t0 = Instant::now();
                    while t0.elapsed() < Duration::from_micros(delay_us) {
                        std::hint::spin_loop();
                    }
                    drop(c1);
                });
                let got = if bounded {
                    c0.recv_timeout(1, 5.0)
                } else {
                    c0.recv(1)
                };
                assert!(
                    matches!(got, Err(CommError::Closed(_))),
                    "{delay_us} µs: {got:?}"
                );
                h.join().unwrap();
            }
        }
    }

    #[test]
    fn comm_errors_display_and_convert() {
        let e = CommError::Timeout {
            peer: 3,
            waited_s: 0.5,
        };
        assert!(e.to_string().contains("rank 3"));
        let t: deep500_tensor::Error = CommError::RankDead(1).into();
        assert!(matches!(t, deep500_tensor::Error::Communication(_)));
        assert!(CommError::Dropped { to: 2, attempts: 4 }
            .to_string()
            .contains("4 attempts"));
    }

    #[test]
    fn logical_bytes_override_volume() {
        let mut comms = ThreadTransport::create(2, NetworkModel::instant());
        let mut c1 = comms.pop().unwrap();
        let mut c0 = comms.pop().unwrap();
        let h = thread::spawn(move || {
            // 2 floats carried, priced as 1 MB.
            c1.send_sized(0, &[1.0, 2.0], 1_000_000).unwrap();
            c1.stats().bytes_sent
        });
        let data = c0.recv(1).unwrap();
        assert_eq!(data.len(), 2);
        assert_eq!(h.join().unwrap(), 1_000_000);
        assert_eq!(c0.stats().bytes_received, 1_000_000);
    }
}
