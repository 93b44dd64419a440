//! The spine's own load generators for [`Server`].
//!
//! Unlike `serve::loadgen` these run for a fixed *duration*, cycle through
//! feeds built before the clock starts, time what the client observes, and
//! use at most two generator threads (this host has two cores). One call is
//! one *session* on freshly spawned threads; a run is a sequence of them:
//!
//! * closed loop — `clients` threads, one request in flight each; latency
//!   is the wall clock around `submit` + `wait`;
//! * open loop — one dispatcher thread follows a seeded Poisson schedule
//!   and never waits for replies, one collector thread waits the tickets.
//!   Latency counts **from the instant the request was due**: the
//!   dispatcher's measured lateness plus the admission-to-delivery time on
//!   the reply (`RequestTiming::total_s`). The collector's own clock is not
//!   used for latency because it waits tickets in admission order and two
//!   workers complete out of order; how late the dispatcher ran is reported
//!   alongside.

use crate::model::Feed;
use crate::span::Track;
use deep500::serve::{InferReply, ServeError, Server};
use deep500::tensor::{Tensor, Xoshiro256StarStar};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Operation counts of one run. A refused or wrong reply misses every
/// latency limit, so `failed`, `rejected` and `incorrect` all count
/// against `attempted` (see [`Tally::bad`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub rejected: u64,
    pub incorrect: u64,
}

impl Tally {
    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.rejected += other.rejected;
        self.incorrect += other.incorrect;
    }

    fn record_error(&mut self, e: &ServeError) {
        match e {
            ServeError::QueueFull { .. } => self.rejected += 1,
            _ => self.failed += 1,
        }
    }

    /// Operations that did not produce a correct result.
    pub fn bad(&self) -> u64 {
        self.failed + self.rejected + self.incorrect
    }

    pub fn failed_share(&self) -> f64 {
        crate::stats::failed_share(self.attempted, self.failed, self.rejected, self.incorrect)
    }
}

/// A reply retained for the correctness oracle.
pub struct Kept {
    /// Index of the request's feed in the pool.
    pub feed: u32,
    /// Admission order of the request (its position inside its batch).
    pub order: u64,
    /// The executor pass the request rode in, and that pass's total rows.
    pub batch_id: usize,
    pub batch_rows: usize,
    pub outputs: HashMap<String, Tensor>,
}

impl Kept {
    fn new(feed: u32, order: u64, reply: InferReply) -> Kept {
        Kept {
            feed,
            order,
            batch_id: reply.timing.batch_id,
            batch_rows: reply.timing.batch_rows,
            outputs: reply.outputs,
        }
    }
}

/// Where one request's time went: the client's clock plus the worker's
/// `RequestTiming`, in nanoseconds.
#[derive(Debug, Clone, Copy)]
pub struct ReplyTiming {
    /// Client wall clock around submit + wait (closed loop) or due-to-
    /// delivery (open loop).
    pub client_ns: u64,
    pub queued_ns: u64,
    pub run_ns: u64,
    pub total_ns: u64,
    pub batch_rows: u32,
}

impl ReplyTiming {
    fn of(client_ns: u64, reply: &InferReply) -> ReplyTiming {
        let ns = |s: f64| (s * 1e9) as u64;
        ReplyTiming {
            client_ns,
            queued_ns: ns(reply.timing.queued_s),
            run_ns: ns(reply.timing.run_s),
            total_ns: ns(reply.timing.total_s),
            batch_rows: reply.timing.batch_rows as u32,
        }
    }
}

/// What a traced run records on top of the plain one.
#[derive(Clone, Copy)]
pub struct TraceOpts {
    pub epoch: Instant,
    /// Record spans for one request id in `stride`.
    pub stride: u64,
    pub cap: usize,
}

/// Options shared by both generators. A run is a sequence of *sessions*,
/// each one call of a generator on freshly spawned threads.
#[derive(Clone, Copy)]
pub struct LoadOpts {
    pub seed: u64,
    /// Keep the replies of one executor pass in this many for the oracle
    /// (0 = keep none).
    pub keep_one_in: u64,
    /// Request id of the session's first request, so ids stay unique (and
    /// the feed order moves on) across the sessions of a run.
    pub first_id: u64,
    pub trace: Option<TraceOpts>,
}

fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Seeded 1-in-`one_in` choice of the executor passes (by batch id) whose
/// replies the oracle replays: a pass is kept or dropped as a whole.
fn keeps(seed: u64, id: u64, one_in: u64) -> bool {
    one_in != 0 && splitmix(seed ^ id.wrapping_mul(0xD6E8_FEB8_6659_FD93)).is_multiple_of(one_in)
}

/// Record the server-side spans of one request, rebuilt from its reply
/// timing and anchored at the client's submit instant: `serve.total`
/// (admission → delivery) over `serve.queue` and `serve.run`, so that
/// `serve.total`'s self time is assemble + split + deliver.
fn reply_spans(track: &mut Track, id: u64, submit_ns: u64, t: &ReplyTiming, parent: Option<u32>) {
    let total = track.push_ns("serve.total", id, submit_ns, submit_ns + t.total_ns, parent);
    let assembled = submit_ns + t.queued_ns;
    track.push_ns("serve.queue", id, submit_ns, assembled, total);
    track.push_ns("serve.run", id, assembled, assembled + t.run_ns, total);
}

/// What one session of either generator observed.
#[derive(Default)]
pub struct Session {
    /// Latency of every completed request in ms: client-observed (closed
    /// loop) or due-to-delivery (open loop).
    pub latency_ms: Vec<f64>,
    /// Start of the session to its last reply.
    pub wall_s: f64,
    pub kept: Vec<Kept>,
    /// Per-reply breakdown (traced runs, and every open-loop run).
    pub timings: Vec<ReplyTiming>,
    pub tally: Tally,
    /// Open loop: how late the dispatcher submitted each request, in µs.
    pub lateness_us: Vec<f64>,
    /// Open loop: requests admitted but not yet collected when the last
    /// request of the session was submitted.
    pub backlog_end: u64,
    /// Traced runs only.
    pub tracks: Vec<Track>,
}

// ------------------------------------------------------------- closed loop

/// One closed-loop session: `clients` fresh threads, one request in flight
/// each, for `duration`.
pub fn closed_loop(
    server: &Server,
    model: &str,
    pool: &[Feed],
    clients: usize,
    duration: Duration,
    opts: &LoadOpts,
) -> Session {
    let start = Instant::now();
    let logs: Vec<Session> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                scope.spawn(move || {
                    let mut order: Vec<u32> = (0..pool.len() as u32).collect();
                    Xoshiro256StarStar::seed_from_u64(opts.seed)
                        .split(c as u64)
                        .shuffle(&mut order);
                    let mut log = Session {
                        tracks: opts
                            .trace
                            .map(|t| {
                                vec![
                                    Track::new(format!("client{c}"), t.epoch, t.cap),
                                    Track::new(format!("client{c} (reply timing)"), t.epoch, t.cap),
                                ]
                            })
                            .unwrap_or_default(),
                        ..Session::default()
                    };
                    for k in 0u64.. {
                        let t0 = Instant::now();
                        if t0.duration_since(start) >= duration {
                            break;
                        }
                        let id = opts.first_id + k * clients as u64 + c as u64;
                        let feed_idx = order[(id / clients as u64) as usize % order.len()];
                        log.tally.attempted += 1;
                        let ticket = server.submit(model, &pool[feed_idx as usize]);
                        let t1 = Instant::now();
                        let outcome = ticket.and_then(|t| t.wait());
                        let t2 = Instant::now();
                        let reply = match outcome {
                            Ok(reply) => reply,
                            Err(e) => {
                                log.tally.record_error(&e);
                                continue;
                            }
                        };
                        let client_ns = (t2 - t0).as_nanos() as u64;
                        log.latency_ms.push(client_ns as f64 / 1e6);
                        log.wall_s = (t2 - start).as_secs_f64();
                        if let Some(trace) = &opts.trace {
                            let timing = ReplyTiming::of(client_ns, &reply);
                            log.timings.push(timing);
                            if id.is_multiple_of(trace.stride) {
                                let [client, replies] = &mut log.tracks[..] else {
                                    unreachable!("two tracks per traced client")
                                };
                                let root = client.push("client.request", id, t0, t2, None);
                                client.push("serve.submit", id, t0, t1, root);
                                client.push("serve.wait", id, t1, t2, root);
                                let t0_ns = (t0 - trace.epoch).as_nanos() as u64;
                                reply_spans(replies, id, t0_ns, &timing, None);
                            }
                        }
                        if keeps(opts.seed, reply.timing.batch_id as u64, opts.keep_one_in) {
                            log.kept.push(Kept::new(feed_idx, id, reply));
                        }
                    }
                    log
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut session = Session::default();
    for log in logs {
        session.latency_ms.extend(log.latency_ms);
        session.wall_s = session.wall_s.max(log.wall_s);
        session.kept.extend(log.kept);
        session.timings.extend(log.timings);
        session.tally.absorb(log.tally);
        session.tracks.extend(log.tracks);
    }
    session
}

// --------------------------------------------------------------- open loop

/// One scheduled request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    /// Due time from the start of the session.
    pub due_ns: u64,
    /// Index of the feed in the pool.
    pub feed: u32,
}

/// Poisson arrivals at `rate` requests/s for one session of `duration`,
/// each drawing its feed uniformly from a pool of `pool_len`. Drawing the
/// sessions of a run from one `rng` makes the whole run a function of the
/// seed.
pub fn poisson_schedule(
    rng: &mut Xoshiro256StarStar,
    rate: f64,
    duration: Duration,
    pool_len: usize,
) -> Vec<Arrival> {
    let end = duration.as_nanos() as f64;
    let mut out = Vec::new();
    let mut t = 0.0;
    loop {
        // Exponential(rate) gap; 1-u keeps ln's argument in (0, 1].
        t += -(1.0 - rng.next_f64()).ln() / rate * 1e9;
        if t >= end {
            return out;
        }
        out.push(Arrival {
            due_ns: t as u64,
            feed: rng.next_below(pool_len) as u32,
        });
    }
}

/// Draw a row count from `mix` (`(rows, share)` pairs whose shares sum to 1).
pub fn draw_rows(rng: &mut Xoshiro256StarStar, mix: &[(usize, f64)]) -> usize {
    let u = rng.next_f64();
    let mut acc = 0.0;
    for &(rows, share) in mix {
        acc += share;
        if u < acc {
            return rows;
        }
    }
    mix.last().expect("non-empty mix").0
}

/// What the dispatcher hands the collector per admitted request.
struct InFlight {
    ticket: deep500::serve::Ticket,
    arrival: u32,
    submit_ns: u64,
}

/// One open-loop session: a fresh dispatcher offers `schedule` to `server`
/// on time, regardless of completions; a fresh collector waits the tickets.
/// The session ends when the last reply is in.
pub fn open_loop(
    server: &Server,
    model: &str,
    pool: &[Feed],
    schedule: &[Arrival],
    opts: &LoadOpts,
) -> Session {
    let (tx, rx) = std::sync::mpsc::channel::<InFlight>();
    let collected = AtomicU64::new(0);
    let start = Instant::now();
    let trace = opts.trace;
    std::thread::scope(|scope| {
        let collected = &collected;
        let collector = scope.spawn(move || {
            let mut session = Session {
                tracks: trace
                    .map(|t| {
                        vec![
                            Track::new("collector", t.epoch, t.cap),
                            Track::new("requests (reply timing)", t.epoch, t.cap),
                        ]
                    })
                    .unwrap_or_default(),
                ..Session::default()
            };
            while let Ok(f) = rx.recv() {
                let a = schedule[f.arrival as usize];
                let w0 = Instant::now();
                let outcome = f.ticket.wait();
                let w1 = Instant::now();
                collected.fetch_add(1, Ordering::Relaxed);
                session.wall_s = (w1 - start).as_secs_f64();
                let reply = match outcome {
                    Ok(reply) => reply,
                    Err(e) => {
                        session.tally.record_error(&e);
                        continue;
                    }
                };
                let lateness_ns = f.submit_ns - a.due_ns;
                let mut timing = ReplyTiming::of(0, &reply);
                timing.client_ns = lateness_ns + timing.total_ns;
                session.latency_ms.push(timing.client_ns as f64 / 1e6);
                session.lateness_us.push(lateness_ns as f64 / 1e3);
                session.timings.push(timing);
                let id = opts.first_id + f.arrival as u64;
                if let Some(t) = &trace {
                    if id.is_multiple_of(t.stride) {
                        let [waits, replies] = &mut session.tracks[..] else {
                            unreachable!("two collector tracks")
                        };
                        waits.push("serve.wait", id, w0, w1, None);
                        let due_ns = (start - t.epoch).as_nanos() as u64 + a.due_ns;
                        let root = replies.push_ns(
                            "client.request",
                            id,
                            due_ns,
                            due_ns + timing.client_ns,
                            None,
                        );
                        replies.push_ns("gen.lateness", id, due_ns, due_ns + lateness_ns, root);
                        reply_spans(replies, id, due_ns + lateness_ns, &timing, root);
                    }
                }
                if keeps(opts.seed, reply.timing.batch_id as u64, opts.keep_one_in) {
                    session.kept.push(Kept::new(a.feed, id, reply));
                }
            }
            session
        });

        let mut tally = Tally::default();
        let mut admitted = 0u64;
        let mut submit_track = trace.map(|t| Track::new("dispatcher", t.epoch, t.cap));
        for (i, a) in schedule.iter().enumerate() {
            wait_until(start + Duration::from_nanos(a.due_ns));
            let t0 = Instant::now();
            tally.attempted += 1;
            let outcome = server.submit(model, &pool[a.feed as usize]);
            let id = opts.first_id + i as u64;
            if let (Some(track), Some(t)) = (submit_track.as_mut(), &trace) {
                if id.is_multiple_of(t.stride) {
                    track.push("serve.submit", id, t0, Instant::now(), None);
                }
            }
            match outcome {
                Ok(ticket) => {
                    admitted += 1;
                    tx.send(InFlight {
                        ticket,
                        arrival: i as u32,
                        submit_ns: (t0 - start).as_nanos() as u64,
                    })
                    .expect("collector alive");
                }
                Err(e) => tally.record_error(&e),
            }
        }
        let backlog_end = admitted - collected.load(Ordering::Relaxed);
        drop(tx);
        let mut session = collector.join().expect("collector panicked");
        session.tally.absorb(tally);
        session.backlog_end = backlog_end;
        session.tracks.extend(submit_track);
        session
    })
}

/// Sleep until shortly before `due`, then spin: `sleep` alone overshoots by
/// tens of microseconds, spinning alone would take a core from the two
/// workers. The last stretch spins, not yields: a yield hands the core to
/// the idle-priority spinner of [`crate::awake`] until the next tick, which
/// made the median request half a millisecond late.
fn wait_until(due: Instant) {
    const SPIN: Duration = Duration::from_micros(150);
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > SPIN {
            std::thread::sleep(left - SPIN);
        } else {
            std::hint::spin_loop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::consts::CONV_ROW_MIX;

    #[test]
    fn schedule_repeats_for_equal_seeds_and_differs_otherwise() {
        let gen = |seed| {
            let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
            let first = poisson_schedule(&mut rng, 200.0, Duration::from_secs(1), 64);
            let second = poisson_schedule(&mut rng, 800.0, Duration::from_secs(1), 64);
            (first, second)
        };
        assert_eq!(gen(3), gen(3));
        assert_ne!(gen(3), gen(4));
        assert_ne!(gen(3).0, gen(3).1, "sessions of one run differ");
    }

    #[test]
    fn schedule_is_ordered_bounded_and_near_the_offered_rate() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(9);
        let s = poisson_schedule(&mut rng, 2000.0, Duration::from_secs(2), 64);
        assert!(s.windows(2).all(|w| w[0].due_ns <= w[1].due_ns));
        // 4000 expected; 5 sigma of a Poisson count.
        assert!((s.len() as f64 - 4000.0).abs() < 5.0 * 4000f64.sqrt());
        assert!(s.iter().all(|a| a.due_ns < 2_000_000_000 && a.feed < 64));
    }

    #[test]
    fn row_mix_repeats_per_seed_and_matches_its_shares() {
        let draw = |seed| {
            let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
            (0..20_000)
                .map(|_| draw_rows(&mut rng, &CONV_ROW_MIX))
                .collect::<Vec<_>>()
        };
        let (a, b, c) = (draw(1), draw(1), draw(2));
        assert_eq!(a, b);
        assert_ne!(a, c);
        for (rows, share) in CONV_ROW_MIX {
            let got = a.iter().filter(|&&r| r == rows).count() as f64 / a.len() as f64;
            assert!((got - share).abs() < 0.02, "{rows} rows: {got} vs {share}");
        }
    }

    #[test]
    fn oracle_sample_is_seeded_and_about_one_in_n() {
        let picked = |seed| (0..64_000u64).filter(|&id| keeps(seed, id, 64)).count();
        assert_eq!(picked(5), picked(5));
        assert!((800..1200).contains(&picked(5)), "{}", picked(5));
        assert!(!keeps(5, 1, 0), "0 disables sampling");
        let ids = |seed| -> Vec<u64> { (0..4096).filter(|&id| keeps(seed, id, 64)).collect() };
        assert_ne!(ids(5), ids(6));
    }

    #[test]
    fn refused_and_failed_requests_count_against_attempted() {
        let mut t = Tally {
            attempted: 10,
            ..Tally::default()
        };
        t.record_error(&ServeError::QueueFull {
            model: "m".into(),
            capacity: 1,
        });
        t.record_error(&ServeError::Shutdown);
        assert_eq!((t.rejected, t.failed, t.bad()), (1, 1, 2));
        assert_eq!(t.failed_share(), 0.2);
    }
}
