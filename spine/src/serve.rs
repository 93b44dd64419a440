//! The two serving workloads: `serve-small-closed` and `serve-conv-open`.

use crate::awake::KeepAwake;
use crate::consts::*;
use crate::loadgen::{
    closed_loop, draw_rows, open_loop, poisson_schedule, Kept, LoadOpts, ReplyTiming, Session,
    Tally, TraceOpts,
};
use crate::model::{Feed, Model};
use crate::oracle;
use crate::probes;
use crate::report::Metrics;
use crate::span::Track;
use crate::stats::{median, windowed, Sorted, Windowed};
use crate::{Outcome, RunArgs};
use deep500::graph::ExecutorKind;
use deep500::metrics::trace::TraceRecorder;
use deep500::serve::{BatchPolicy, ModelConfig, Server};
use deep500::tensor::Xoshiro256StarStar;
use deep500::verify;
use std::time::{Duration, Instant};

/// `FEED_POOL` seeded requests whose row counts follow `mix`.
fn build_pool(model: &Model, seed: u64, mix: &[(usize, f64)]) -> Vec<Feed> {
    let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
    (0..FEED_POOL)
        .map(|_| {
            let rows = draw_rows(&mut rng, mix);
            model.feed(&mut rng, rows)
        })
        .collect()
}

/// Decode the model bytes, pass the verifier gate and start a server the
/// way both workloads host their model.
fn build_server(
    model: &Model,
    policy: BatchPolicy,
    queue: usize,
    recorder: Option<&TraceRecorder>,
) -> Server {
    let net = model.decode();
    verify::gate_with_inputs(&net.to_ir(), &model.input_shapes(1)).expect("model passes the gate");
    let config = ModelConfig::new(net)
        .executor(ExecutorKind::Planned)
        .policy(policy)
        .workers(SERVE_WORKERS)
        .queue_capacity(queue)
        .batched_input("x", &model.sample_dims)
        .batched_input("labels", &[]);
    let mut builder = Server::builder().model(model.name, config);
    if let Some(r) = recorder {
        builder = builder.trace(r);
    }
    builder.build().expect("server builds")
}

/// Serve `requests` with `burst` in flight: builds the plans, packs the
/// filters and fills the pools a cold server lacks.
fn warm_burst(server: &Server, model: &Model, requests: &[Feed], burst: usize) {
    for chunk in requests.chunks(burst) {
        let tickets: Vec<_> = chunk
            .iter()
            .map(|f| {
                server
                    .submit(model.name, f)
                    .expect("set-up request admitted")
            })
            .collect();
        for t in tickets {
            t.wait().expect("set-up request served");
        }
    }
}

/// What both workloads host their model with.
struct Hosting<'a> {
    model: &'a Model,
    policy: BatchPolicy,
    /// Admission queue capacity.
    queue: usize,
    /// Set-up requests and how many of them are in flight at once.
    requests: &'a [Feed],
    burst: usize,
}

impl Hosting<'_> {
    /// One set-up — model bytes to the last set-up request answered — and
    /// the seconds it took.
    fn set_up(&self, recorder: Option<&TraceRecorder>) -> (Server, f64) {
        let t = Instant::now();
        let server = build_server(self.model, self.policy, self.queue, recorder);
        warm_burst(&server, self.model, self.requests, self.burst);
        (server, t.elapsed().as_secs_f64())
    }
}

/// The sessions of one run, accumulated.
#[derive(Default)]
struct Run {
    /// `(seconds, latencies in ms)` per session.
    sessions: Vec<(f64, Vec<f64>)>,
    kept: Vec<Kept>,
    tally: Tally,
    timings: Vec<ReplyTiming>,
    lateness_us: Vec<f64>,
    /// Seconds each session's server took to set up.
    setup_s: Vec<f64>,
    /// Executor passes the sessions' servers ran for them.
    batches: usize,
    /// Session tracks merged by thread role.
    tracks: Vec<Track>,
    /// Peak RSS (MB) read once `rss_at` requests were attempted: a fixed
    /// amount of work, so the figure does not follow run speed.
    rss_mb: Option<f64>,
}

impl Run {
    fn absorb(&mut self, mut s: Session, rss_at: u64) {
        if self.kept.len() < ORACLE_CAP {
            // Batch ids count from 0 on every session's server; keep the
            // oracle's passes apart.
            let session = self.sessions.len() << 32;
            self.kept.extend(s.kept.into_iter().map(|mut k| {
                k.batch_id += session;
                k
            }));
        }
        self.sessions
            .push((s.wall_s, std::mem::take(&mut s.latency_ms)));
        self.tally.absorb(s.tally);
        self.timings.extend(s.timings);
        self.lateness_us.extend(s.lateness_us);
        for track in s.tracks {
            match self.tracks.iter_mut().find(|t| t.name == track.name) {
                Some(mine) => mine.append(track),
                None => self.tracks.push(track),
            }
        }
        if self.rss_mb.is_none() && self.tally.attempted >= rss_at {
            self.rss_mb = Some(crate::peak_rss_mb());
        }
    }

    /// Options for the next session.
    fn opts(&self, args: &RunArgs, keep: bool, trace: Option<TraceOpts>) -> LoadOpts {
        LoadOpts {
            seed: args.seed,
            keep_one_in: if keep { ORACLE_ONE_IN } else { 0 },
            first_id: self.tally.attempted,
            trace,
        }
    }

    fn summary(&mut self) -> Windowed {
        windowed(std::mem::take(&mut self.sessions), 1.0)
    }
}

/// The four end-to-end figures of a run.
fn end_to_end(w: &Windowed, rss_mb: Option<f64>, m: &mut Metrics) {
    m.set("throughput_per_s", w.rate);
    m.set("latency_p50_ms", w.p50);
    m.set("latency_p99_ms", w.tail);
    m.set("peak_rss_mb", rss_mb.unwrap_or_else(crate::peak_rss_mb));
}

/// The traced run's own view of the same figures.
fn traced_view(w: &Windowed, m: &mut Metrics) {
    m.set("spine.traced_throughput_per_s", w.rate);
    m.set("spine.traced_latency_p50_ms", w.p50);
    m.set("spine.latency_samples", w.samples as f64);
    m.set("spine.tail_percentile", w.tail_percentile);
}

fn session_note(w: &Windowed) -> String {
    format!(
        "{} requests in {} sessions; quiet quartile over sessions, tail is p{:.2}",
        w.samples, w.sessions, w.tail_percentile
    )
}

fn sorted_us(timings: &[ReplyTiming], f: fn(&ReplyTiming) -> u64) -> Sorted {
    Sorted::new(timings.iter().map(|t| f(t) as f64 / 1e3).collect())
}

/// `serve.*` metrics that come straight from reply timings.
fn timing_layers(timings: &[ReplyTiming], m: &mut Metrics) {
    let queued = sorted_us(timings, |t| t.queued_ns);
    m.set("serve.queue_p50_us", queued.median());
    m.set("serve.queue_p99_us", queued.tail(99).value);
    m.set(
        "serve.run_p50_us",
        sorted_us(timings, |t| t.run_ns).median(),
    );
    m.set(
        "serve.overhead_p50_us",
        sorted_us(timings, |t| {
            t.total_ns.saturating_sub(t.queued_ns + t.run_ns)
        })
        .median(),
    );
    let rows: u64 = timings.iter().map(|t| t.batch_rows as u64).sum();
    m.set(
        "serve.mean_batch_rows",
        rows as f64 / timings.len().max(1) as f64,
    );
}

/// Set-up, pass, kernel and roofline probes on `model` at `rows` per pass.
fn layer_probes(
    model: &Model,
    seed: u64,
    rows: usize,
    mixed: Option<&[Feed]>,
    epoch: Instant,
    m: &mut Metrics,
) -> Track {
    let mut rng = Xoshiro256StarStar::seed_from_u64(seed ^ 0x5EED);
    let feeds: Vec<Feed> = (0..64).map(|_| model.feed(&mut rng, rows)).collect();
    let mut track = Track::new("probe engine", epoch, SPAN_CAP);
    probes::setup_layers(model, ExecutorKind::Planned, rows, m);
    probes::pass_layers(
        model,
        ExecutorKind::Planned,
        &feeds,
        mixed,
        false,
        &mut track,
        m,
    );
    probes::kernel_layers(model, &feeds[0], false, m);
    probes::roofline(SERVE_WORKERS, m);
    track
}

/// Replay the kept replies on the reference tier and assemble the outcome.
fn conclude(
    model: &Model,
    pool: &[Feed],
    run: Run,
    metrics: Metrics,
    mut tracks: Vec<Track>,
    mut notes: Vec<String>,
) -> Outcome {
    let reference = oracle::reference_engine(model).session();
    let verdict = oracle::replay_kept(&reference, pool, run.kept);
    let mut tally = run.tally;
    tally.incorrect = verdict.incorrect;
    notes.push(format!(
        "oracle: {} replies replayed bitwise on the reference tier, {} incorrect",
        verdict.checked, verdict.incorrect
    ));
    // Golden values: the reference tier's logits for the first pool feed.
    let golden = reference.infer(&pool[0]).expect("reference pass")["logits"]
        .data()
        .iter()
        .copied()
        .take(4)
        .collect();
    tracks.extend(run.tracks);
    Outcome {
        metrics,
        tally,
        checks_ok: verdict.checked > 0,
        golden,
        tracks,
        notes,
    }
}

// ------------------------------------------------------- serve-small-closed

pub fn run_small(args: &RunArgs) -> Outcome {
    let model = Model::serve_small();
    let pool = build_pool(&model, args.seed, &[(1, 1.0)]);
    let hosting = Hosting {
        model: &model,
        policy: BatchPolicy::Single,
        queue: SMALL_QUEUE,
        requests: &pool[..SMALL_SETUP_REQUESTS],
        burst: SMALL_CLIENTS,
    };
    let session = Duration::from_secs_f64(args.seconds / SMALL_SESSIONS as f64);
    // `sessions` closed-loop sessions, each against a server of its own.
    let drive = |sessions: usize,
                 keep: bool,
                 trace: Option<TraceOpts>,
                 recorder: Option<&TraceRecorder>| {
        let mut run = Run::default();
        for _ in 0..sessions {
            let (server, setup_s) = hosting.set_up(recorder);
            let before = server.stats(model.name).expect("model registered");
            let opts = run.opts(args, keep, trace);
            let s = closed_loop(&server, model.name, &pool, SMALL_CLIENTS, session, &opts);
            let after = server.stats(model.name).expect("model registered");
            run.setup_s.push(setup_s);
            run.batches += after.batches - before.batches;
            run.absorb(s, SMALL_RSS_AT);
        }
        run
    };
    {
        let (server, _) = hosting.set_up(None);
        let warm = Duration::from_secs_f64(WARMUP_S);
        let opts = Run::default().opts(args, false, None);
        closed_loop(&server, model.name, &pool, SMALL_CLIENTS, warm, &opts);
    }
    let mut m = Metrics::default();

    if !args.trace {
        let mut run = drive(SMALL_SESSIONS, true, None, None);
        m.set("setup_s", median(&run.setup_s));
        let w = run.summary();
        end_to_end(&w, run.rss_mb, &mut m);
        return conclude(&model, &pool, run, m, vec![], vec![session_note(&w)]);
    }

    // Traced run: a quarter plain, half with the spine's spans, a quarter
    // with a `TraceRecorder` attached to the servers — the two overheads.
    let quarter = SMALL_SESSIONS / 4;
    let plain = drive(quarter, false, None, None).summary();
    let epoch = Instant::now();
    let trace = TraceOpts {
        epoch,
        stride: SMALL_SPAN_STRIDE,
        cap: SPAN_CAP,
    };
    let mut traced = drive(2 * quarter, true, Some(trace), None);
    let recorder = TraceRecorder::new();
    let recorded = drive(quarter, false, None, Some(&recorder)).summary();

    timing_layers(&traced.timings, &mut m);
    m.set(
        "serve.client_overhead_p50_us",
        sorted_us(&traced.timings, |t| t.client_ns.saturating_sub(t.total_ns)).median(),
    );
    m.set("serve.batches", traced.batches as f64);
    m.set("serve.rejected", traced.tally.rejected as f64);
    let w = traced.summary();
    traced_view(&w, &mut m);
    m.set("spine.trace_overhead_share", 1.0 - w.rate / plain.rate);
    m.set(
        "metrics.recorder_overhead_share",
        1.0 - recorded.rate / plain.rate,
    );
    let notes = vec![
        session_note(&w),
        format!(
            "plain {:.0} req/s, spine-traced {:.0} req/s, TraceRecorder attached {:.0} req/s \
             ({} recorder spans)",
            plain.rate,
            w.rate,
            recorded.rate,
            recorder.span_count()
        ),
    ];
    let probe_track = layer_probes(&model, args.seed, 1, None, epoch, &mut m);
    conclude(&model, &pool, traced, m, vec![probe_track], notes)
}

// ---------------------------------------------------------- serve-conv-open

/// What the sessions offered at one rate of the traced sweep observed.
#[derive(Default)]
struct RateLog {
    latency_ms: Vec<f64>,
    rejected: u64,
    /// Largest end-of-session backlog.
    backlog_end: u64,
}

/// Per-rate tail latency, rejects and backlog, and the highest rate that
/// meets the latency limit with no rejects and a bounded backlog. Returns
/// the reference rate's latencies.
fn rate_layers(rates: Vec<RateLog>, m: &mut Metrics, notes: &mut Vec<String>) -> Sorted {
    const NAMES: [&str; 4] = [
        "serve.rate_r1_p99_ms",
        "serve.rate_r2_p99_ms",
        "serve.rate_r3_p99_ms",
        "serve.rate_r4_p99_ms",
    ];
    let mut slo_rate = 0.0;
    let mut reference = Sorted::new(Vec::new());
    for (k, (log, name)) in rates.into_iter().zip(NAMES).enumerate() {
        let lat = Sorted::new(log.latency_ms);
        let tail = lat.tail(99);
        m.set(name, tail.value);
        let meets = tail.value <= CONV_P99_LIMIT_MS
            && log.rejected == 0
            && log.backlog_end <= CONV_BACKLOG_LIMIT;
        if meets {
            slo_rate = CONV_RATES[k];
        }
        notes.push(format!(
            "r{} = {} req/s: {} served, p50 {:.3} ms, p{:.2} {:.3} ms, {} rejected, largest \
             end-of-session backlog {} -> {}",
            k + 1,
            CONV_RATES[k],
            lat.len(),
            lat.median(),
            tail.percentile,
            tail.value,
            log.rejected,
            log.backlog_end,
            if meets {
                "meets the limit"
            } else {
                "misses the limit"
            }
        ));
        if k == CONV_REFERENCE_RATE {
            reference = lat;
        }
    }
    m.set("serve.slo_rate_rps", slo_rate);
    reference
}

pub fn run_conv(args: &RunArgs) -> Outcome {
    let _awake = KeepAwake::start();
    let model = Model::serve_conv();
    let pool = build_pool(&model, args.seed, &CONV_ROW_MIX);
    // The same rows in every set-up of every seed: with requests drawn from
    // the pool, `setup_s` followed the seed's row mix by +-20 %.
    let mut setup_rng = Xoshiro256StarStar::seed_from_u64(args.seed ^ 0x5E7);
    let setup: Vec<Feed> = (0..CONV_SETUP_REQUESTS)
        .map(|i| model.feed(&mut setup_rng, CONV_SETUP_ROWS[i % CONV_SETUP_ROWS.len()]))
        .collect();
    let hosting = Hosting {
        model: &model,
        policy: BatchPolicy::Dynamic {
            max_batch: CONV_MAX_BATCH,
            max_delay: CONV_MAX_DELAY,
        },
        queue: CONV_QUEUE,
        requests: &setup,
        burst: CONV_SETUP_REQUESTS,
    };
    let mut rng = Xoshiro256StarStar::seed_from_u64(args.seed ^ 0xA11CE);
    {
        let (server, _) = hosting.set_up(None);
        let warm = poisson_schedule(
            &mut rng,
            CONV_RATES[CONV_REFERENCE_RATE],
            Duration::from_secs_f64(WARMUP_S),
            pool.len(),
        );
        let opts = Run::default().opts(args, false, None);
        open_loop(&server, model.name, &pool, &warm, &opts);
    }

    // Sessions, each against a server of its own. End to end every session
    // offers the reference rate. Traced: the four rates in turn, a quarter
    // of the sessions each, so each rate's tail, the highest rate within
    // the limit and batching under load are seen.
    let session = Duration::from_secs_f64(args.seconds / CONV_SESSIONS as f64);
    let epoch = Instant::now();
    let trace = args.trace.then_some(TraceOpts {
        epoch,
        stride: 1,
        cap: SPAN_CAP,
    });
    let mut run = Run::default();
    let mut rates: Vec<RateLog> = CONV_RATES.iter().map(|_| RateLog::default()).collect();
    let mut scheduled = 0;
    for k in 0..CONV_SESSIONS {
        let rate_idx = if args.trace {
            k * CONV_RATES.len() / CONV_SESSIONS
        } else {
            CONV_REFERENCE_RATE
        };
        let schedule = poisson_schedule(&mut rng, CONV_RATES[rate_idx], session, pool.len());
        scheduled += schedule.len();
        let (server, setup_s) = hosting.set_up(None);
        let before = server.stats(model.name).expect("model registered");
        let opts = run.opts(args, true, trace);
        let s = open_loop(&server, model.name, &pool, &schedule, &opts);
        let after = server.stats(model.name).expect("model registered");
        let log = &mut rates[rate_idx];
        log.latency_ms.extend_from_slice(&s.latency_ms);
        log.rejected += s.tally.rejected;
        log.backlog_end = log.backlog_end.max(s.backlog_end);
        run.setup_s.push(setup_s);
        run.batches += after.batches - before.batches;
        run.absorb(s, CONV_RSS_AT);
    }
    let mut m = Metrics::default();

    let mut notes = vec![format!(
        "{} of {scheduled} scheduled requests served in {:.2} s",
        run.timings.len(),
        run.sessions.iter().map(|(s, _)| s).sum::<f64>()
    )];
    let mut tracks = Vec::new();
    if args.trace {
        timing_layers(&run.timings, &mut m);
        m.set("serve.batches", run.batches as f64);
        m.set("serve.rejected", run.tally.rejected as f64);
        m.set(
            "serve.backlog_end",
            rates.last().expect("four rates").backlog_end as f64,
        );
        m.set(
            "serve.gen_lateness_p99_us",
            Sorted::new(std::mem::take(&mut run.lateness_us))
                .tail(99)
                .value,
        );
        let reference = rate_layers(rates, &mut m, &mut notes);
        let requests: usize = run.sessions.iter().map(|(_, l)| l.len()).sum();
        let seconds: f64 = run.sessions.iter().map(|(s, _)| s).sum();
        m.set("spine.traced_throughput_per_s", requests as f64 / seconds);
        m.set("spine.traced_latency_p50_ms", reference.median());
        m.set("spine.latency_samples", reference.len() as f64);
        m.set("spine.tail_percentile", reference.tail(99).percentile);
        tracks.push(layer_probes(
            &model,
            args.seed,
            CONV_PROBE_ROWS,
            Some(&pool[..128]),
            epoch,
            &mut m,
        ));
    } else {
        m.set("setup_s", median(&run.setup_s));
        let w = run.summary();
        end_to_end(&w, run.rss_mb, &mut m);
        notes.push(session_note(&w));
    }
    conclude(&model, &pool, run, m, tracks, notes)
}
