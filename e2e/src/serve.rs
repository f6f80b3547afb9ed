//! The two serving workloads: requests go through `rita_infer::Server` from submit to
//! answer, once in a closed loop (callers that each wait for their reply) and once in
//! an open loop (arrivals on a schedule, whether or not the server keeps up).
//!
//! The load generator never uses more than two threads: two callers in the closed
//! loop; one sender and one collector in the open loop. The traced pass records a
//! span around `submit` and around the wait for each answer, reads the server's own
//! public counters before and after the window, and probes the layers under a
//! request at the workload's shapes.

use std::collections::{BTreeMap, VecDeque};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::Rng;
use rita_core::attention::AttentionKind;
use rita_core::checkpoint::Checkpoint;
use rita_core::model::RitaConfig;
use rita_core::tasks::{timed, Classifier};
use rita_infer::{
    plan_cache_stats, InferModel, InferSession, MetricsSnapshot, ModelRegistry, Precision,
    ServeError, Server, ServerConfig, Ticket,
};
use rita_tensor::{rng_from_seed, worker_budget, NdArray, SeedableRng64};

use crate::probes::{probe_kernels, probe_ms, probe_then, Shapes};
use crate::report::{note_shares, Outcome};
use crate::stats::{median, percentile, sorted, subwindow_percentile, subwindow_rate_median};
use crate::sys::{peak_rss_mb, process_cpu_seconds};
use crate::trace::{self, Recorder, Span};
use crate::{MODEL_SEED, SETUP_REPEATS};

const TENANTS: [&str; 3] = ["tenant-a", "tenant-b", "tenant-c"];
const CLASSES: usize = 5;
const CHANNELS: usize = 3;

/// How requests arrive.
#[derive(Clone, Copy)]
enum Load {
    /// This many callers, each sending its next request when the last is answered.
    Closed { callers: usize },
    /// Independent arrivals, sent on schedule regardless of answers, at the rate that
    /// keeps the process at this share of its workers' CPU time (see [`Arrivals`]).
    Open { cpu_share: f64 },
}

/// A serving workload.
pub struct ServeSpec {
    model: RitaConfig,
    precision: Precision,
    /// Common request lengths, equally likely.
    lengths: [usize; 4],
    /// `(length, share)` of rare long requests.
    long: Option<(usize, f64)>,
    load: Load,
    /// A request answered later than this (or not answered `Ok`) misses the limit.
    latency_limit_ms: f64,
}

/// Arrival rate of an open loop until it has measured its own cost per request: what
/// half of two workers' CPU time paid for on the seed commit on 2026-09-26 (see
/// README.md, "How the open loop is paced").
const FIRST_RATE_PER_S: f64 = 240.0;

/// Arrivals per block of the open-loop schedule.
const ARRIVAL_BLOCK: usize = 20;

/// Blocks over which the open loop measures its CPU time per request: 640 requests,
/// two to three seconds.
const PACING_BLOCKS: usize = 32;

/// Sub-windows the latency percentiles are taken over, at most: one per second of a
/// 25 s window.
const LATENCY_PARTS: usize = 25;

/// Requests a sub-window holds on average, at least. Requests do not spread evenly
/// over sub-windows; 150 keeps ten beyond the 90th percentile in the thinnest one.
const LATENCY_PART_MIN: usize = 150;

fn server_config() -> ServerConfig {
    ServerConfig {
        workers: worker_budget().min(2),
        max_batch: 6,
        slo: Duration::from_millis(50),
        linger: Duration::from_micros(100),
        ..Default::default()
    }
}

fn frozen_groups() -> AttentionKind {
    AttentionKind::Group { epsilon: 2.0, initial_groups: 8, adaptive: false }
}

/// `serve_closed_low`: latency-bound. Two callers keep at most two requests in flight
/// on the small f32 model, so batches hold one or two requests and queue wait, linger,
/// plan lookup and per-node executor overhead are the whole cost; batching cannot
/// help. Tracks the known regression of continuous batching against one-at-a-time
/// serving at low load.
pub fn serve_closed_low() -> ServeSpec {
    ServeSpec {
        model: RitaConfig {
            channels: CHANNELS,
            max_len: 120,
            d_model: 32,
            n_layers: 2,
            ff_hidden: 64,
            dropout: 0.0,
            attention: frozen_groups(),
            ..Default::default()
        },
        precision: Precision::F32,
        lengths: [48, 64, 88, 120],
        long: None,
        load: Load::Closed { callers: 2 },
        latency_limit_ms: 2.0,
    }
}

/// `serve_open_mixed`: queueing- and GEMM-bound. A wide int8 model, independent
/// arrivals that keep the two workers half busy and one request in twenty four to ten
/// times longer than the rest: batch forming, length bucketing, the number of
/// `(batch, length)` plans, `qgemm` and head-of-line blocking behind long requests
/// decide the result.
pub fn serve_open_mixed() -> ServeSpec {
    ServeSpec {
        model: RitaConfig {
            channels: CHANNELS,
            max_len: 480,
            d_model: 256,
            n_heads: 8,
            n_layers: 2,
            ff_hidden: 1024,
            dropout: 0.0,
            attention: frozen_groups(),
            ..Default::default()
        },
        precision: Precision::Int8,
        lengths: [48, 64, 88, 120],
        long: Some((480, 0.05)),
        load: Load::Open { cpu_share: 0.5 },
        latency_limit_ms: 50.0,
    }
}

/// A model being served, with the distinct requests the load draws from: the common
/// lengths first, then `long` long ones.
struct Serving {
    requests: Vec<NdArray>,
    long: usize,
    ckpt: Checkpoint,
    registry: Arc<ModelRegistry>,
    server: Server,
}

impl ServeSpec {
    /// The distinct request tensors: 80 of them, 19 (20 without long requests) per
    /// common length and 4 long ones, so the long share is the spec's 5 %.
    fn requests(&self, rng: &mut impl Rng) -> (Vec<NdArray>, usize) {
        let total = 80;
        let long = self.long.map_or(0, |(_, share)| (total as f64 * share).round() as usize);
        let mut out = Vec::with_capacity(total);
        for i in 0..total - long {
            out.push(NdArray::randn(&[CHANNELS, self.lengths[i % self.lengths.len()]], 1.0, rng));
        }
        for _ in 0..long {
            let (len, _) = self.long.expect("long requests configured");
            out.push(NdArray::randn(&[CHANNELS, len], 1.0, rng));
        }
        (out, long)
    }

    /// Set-up as an operator pays it: initialise a model, write and read back its
    /// checkpoint, publish it (which runs `rita-verify`, and quantizes under int8),
    /// start the server, and warm it with three bursts of `max_batch` requests per
    /// length (calibration probe, first plans, worker buffer pools).
    fn set_up(&self, seed: u64) -> Serving {
        let mut rng = rng_from_seed(seed);
        let (requests, long) = self.requests(&mut rng);
        let classifier = Classifier::new(self.model, CLASSES, &mut rng_from_seed(MODEL_SEED));
        let bytes = Checkpoint::of_classifier(&classifier, None).to_bytes();
        let ckpt = Checkpoint::from_bytes(&bytes).expect("checkpoint round trip");
        let registry = Arc::new(ModelRegistry::new());
        registry.publish_with(&ckpt, self.precision).expect("publish checkpoint");
        let config = server_config();
        let server = Server::start(Arc::clone(&registry), config);
        let mut by_length: BTreeMap<usize, &NdArray> = BTreeMap::new();
        for r in &requests {
            by_length.entry(r.shape()[1]).or_insert(r);
        }
        for _ in 0..3 {
            for request in by_length.values() {
                let tickets: Vec<Ticket> = (0..config.max_batch)
                    .map(|_| server.submit("warmup", (*request).clone()).expect("warm-up submit"))
                    .collect();
                for ticket in tickets {
                    ticket.wait().expect("warm-up answer");
                }
            }
        }
        Serving { requests, long, ckpt, registry, server }
    }
}

/// The seeded request stream of one load thread. Common requests are drawn uniformly.
/// Long ones are stratified: exactly one, at a random place, in every block of
/// `requests / long` consecutive requests, so every run carries the same share of
/// long requests and only their timing is random. Left to chance, their count and
/// clustering alone moved `op_ms_p90` by 13 % between two runs of one seed.
struct Stream<'a> {
    serving: &'a Serving,
    rng: SeedableRng64,
    sent: u64,
    long_at: u64,
}

impl<'a> Stream<'a> {
    fn new(serving: &'a Serving, seed: u64) -> Self {
        Stream { serving, rng: rng_from_seed(seed), sent: 0, long_at: 0 }
    }

    fn draw(&mut self) -> &'a NdArray {
        let Serving { requests, long, .. } = self.serving;
        let common = requests.len() - long;
        let mut is_long = false;
        if *long > 0 {
            let block = (requests.len() / long) as u64;
            if self.sent.is_multiple_of(block) {
                self.long_at = self.rng.gen_range(0..block);
            }
            is_long = self.sent % block == self.long_at;
        }
        self.sent += 1;
        if is_long {
            &requests[common + self.rng.gen_range(0..*long)]
        } else {
            &requests[self.rng.gen_range(0..common)]
        }
    }
}

/// The seeded arrival offsets of an open loop, in seconds from its start.
///
/// *Independent users, conditioned on their number.* Each block of [`ARRIVAL_BLOCK`]
/// arrivals spans `ARRIVAL_BLOCK / rate` seconds and its arrivals fall uniformly at
/// random within it (a Poisson process given its count), so requests still bunch and
/// leave gaps at the scale of a service time, but every seed offers the same load.
///
/// *Paced by CPU time, not by a rate frozen as a number.* The wait in a queue grows
/// with the third power of its utilisation and more, and this box is 5 % slower in one
/// minute than in the next, 20 % in a bad one: at a fixed 312 req/s ten runs of one
/// binary spread `op_ms_p90` by 17 % to 36 % (4.05 ms of CPU per request gave 11 ms,
/// 4.6 ms gave 24 ms). So before each block the schedule reads the CPU time the
/// process spent on the last [`PACING_BLOCKS`] blocks and sets the rate at which that
/// cost per request fills `cpu_share` of the workers' time. The server stays as busy
/// whatever the box does, latency moves with the box's speed about as every other
/// metric here does (a measured power of 1.3 to 1.6 against 3.1), and a cheaper
/// request shows as more requests per second.
struct Arrivals<C: FnMut() -> f64> {
    rng: SeedableRng64,
    /// CPU seconds the process may spend per second: `cpu_share` × workers.
    cpu_per_s: f64,
    /// CPU seconds the process has spent so far.
    cpu_clock: C,
    /// `cpu_clock` when each of the last `PACING_BLOCKS + 1` blocks was drawn.
    cpu_marks: VecDeque<f64>,
    /// Where the next block starts.
    next_block_at: f64,
    /// Offsets of the current block still to come, latest first.
    pending: Vec<f64>,
}

impl<C: FnMut() -> f64> Arrivals<C> {
    fn new(cpu_per_s: f64, cpu_clock: C, seed: u64) -> Self {
        Arrivals {
            rng: rng_from_seed(seed),
            cpu_per_s,
            cpu_clock,
            cpu_marks: VecDeque::with_capacity(PACING_BLOCKS + 2),
            next_block_at: 0.0,
            pending: Vec::with_capacity(ARRIVAL_BLOCK),
        }
    }

    /// Seconds the next block spans: at the first rate until [`PACING_BLOCKS`] blocks
    /// have been measured, and never more than four times faster or slower than it.
    fn block_seconds(&mut self) -> f64 {
        let first = ARRIVAL_BLOCK as f64 / FIRST_RATE_PER_S;
        let now = (self.cpu_clock)();
        self.cpu_marks.push_back(now);
        if self.cpu_marks.len() <= PACING_BLOCKS {
            return first;
        }
        let then = self.cpu_marks.pop_front().expect("a mark per block");
        let cpu_per_block = (now - then) / PACING_BLOCKS as f64;
        (cpu_per_block / self.cpu_per_s).clamp(first / 4.0, first * 4.0)
    }
}

impl<C: FnMut() -> f64> Iterator for Arrivals<C> {
    type Item = f64;

    fn next(&mut self) -> Option<f64> {
        if self.pending.is_empty() {
            let (from, width) = (self.next_block_at, self.block_seconds());
            self.pending.extend((0..ARRIVAL_BLOCK).map(|_| from + self.rng.gen::<f64>() * width));
            self.pending.sort_by(|a, b| b.partial_cmp(a).expect("finite offset"));
            self.next_block_at = from + width;
        }
        self.pending.pop()
    }
}

/// Stops a server once its workers are parked.
///
/// `Server::shutdown` sets its flag and notifies the workers' condition variable
/// without holding the queue lock under which a worker checks that flag before it
/// waits. A worker caught between the check and the wait — one that was just started,
/// or has just answered the last request — misses the wake-up and sleeps forever, and
/// `shutdown` never returns: a traced run of `serve_closed_low` hung that way inside
/// the `Server::start` probe. The benchmark may not change the library, so it gives
/// the workers two milliseconds to reach their wait first.
fn shut_down(server: Server) {
    std::thread::sleep(Duration::from_millis(2));
    server.shutdown();
}

/// Correctness gates, run on every distinct request before anything is timed.
fn check_answers(spec: &ServeSpec, serving: &Serving, out: &mut Outcome) {
    let reference = InferSession::new(
        InferModel::from_checkpoint_with(&serving.ckpt, Precision::F32).expect("load f32 model"),
    );
    let want = reference.classify_logits(&serving.requests).expect("reference logits");
    let served: Vec<Vec<f32>> = serving
        .requests
        .iter()
        .map(|r| serving.server.classify("gate", r.clone()).expect("gate request").logits)
        .collect();
    if spec.precision == Precision::F32 {
        let differing = served.iter().zip(&want).filter(|(got, want)| {
            got.iter().map(|v| v.to_bits()).ne(want.as_slice().iter().map(|v| v.to_bits()))
        });
        match differing.count() {
            0 => out.note(format!(
                "{} distinct requests: served logits bit-equal to InferSession::classify_logits",
                served.len()
            )),
            n => out.fail(format!("{n} served answers differ from InferSession::classify_logits")),
        }
        return;
    }
    // Int8 has no bit-parity oracle, and the served model is untrained: its logits are
    // near-ties, and an int8 rounding that moves one window to another k-means group
    // shifts them by several percent of their range, so a strict argmax comparison
    // would measure the seed, not the kernels (`tests/quantized_accuracy.rs` gates
    // accuracy on trained models). The gate catches gross faults instead: every logit
    // finite and within half the f32 logit range of its f32 value, and the picked
    // class one the f32 model scores within a quarter of the range of its own pick, on
    // at least 98 % of the request set.
    if served.iter().flatten().any(|v| !v.is_finite()) {
        out.fail("int8 served a non-finite logit".into());
    }
    let all = || want.iter().flat_map(|w| w.as_slice().iter().copied());
    let range = all().fold(f32::MIN, f32::max) - all().fold(f32::MAX, f32::min);
    let argmax = |row: &[f32]| {
        let by_logit = |&a: &usize, &b: &usize| row[a].partial_cmp(&row[b]).expect("finite logit");
        (0..row.len()).max_by(by_logit).expect("at least one class")
    };
    let (mut agree, mut exact, mut worst) = (0usize, 0usize, 0.0f32);
    for (got, want) in served.iter().zip(&want) {
        let want = want.as_slice();
        let (g, w) = (argmax(got), argmax(want));
        exact += usize::from(g == w);
        agree += usize::from(want[w] - want[g] <= 0.25 * range);
        worst = got.iter().zip(want).map(|(a, b)| (a - b).abs()).fold(worst, f32::max);
    }
    let n = served.len();
    out.note(format!(
        "int8 vs f32 on {n} distinct requests: argmax identical on {exact}, within tolerance on \
         {agree}; largest logit deviation {:.1}% of the f32 range",
        100.0 * worst / range
    ));
    if (agree as f64) < 0.98 * n as f64 {
        out.fail(format!(
            "int8 picks a class far from the f32 model's on {} of {n} requests",
            n - agree
        ));
    }
    if worst > 0.5 * range {
        out.fail(format!(
            "int8 logits deviate from f32 by {worst}, more than half the range {range}"
        ));
    }
}

/// How a request ended.
#[derive(Clone, Copy, PartialEq, Eq)]
enum End {
    Ok,
    Failed,
    Shed,
}

/// One request as the load generator saw it.
#[derive(Clone, Copy)]
struct Sample {
    /// When it was due to be sent (closed loop: when it was sent).
    due: Instant,
    /// When `submit` was entered.
    sent: Instant,
    /// When the answer was observed.
    done: Instant,
    end: End,
}

fn end_of<T>(result: &Result<T, ServeError>) -> End {
    match result {
        Ok(_) => End::Ok,
        Err(ServeError::Overloaded { .. }) => End::Shed,
        Err(_) => End::Failed,
    }
}

/// Closed loop: `callers` threads, each submit → wait → next, for `seconds`.
fn closed_loop(
    serving: &Serving,
    callers: usize,
    seed: u64,
    seconds: f64,
    trace_from: Option<Instant>,
) -> (Vec<Sample>, Vec<Recorder>) {
    let begin = Instant::now();
    let window = Duration::from_secs_f64(seconds);
    let per_thread: Vec<(Vec<Sample>, Recorder)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..callers)
            .map(|c| {
                scope.spawn(move || {
                    let mut stream = Stream::new(serving, seed.wrapping_add(1 + c as u64));
                    let mut rec = match trace_from {
                        Some(origin) => Recorder::new(origin, c as u32, 1 << 16),
                        None => Recorder::disabled(),
                    };
                    let mut samples = Vec::new();
                    let mut op = c as u64;
                    while begin.elapsed() < window {
                        let request = stream.draw();
                        let whole = rec.enter("loadgen.request", op);
                        let sent = Instant::now();
                        let submit = rec.enter("infer.server.submit", op);
                        let ticket =
                            serving.server.submit(TENANTS[c % TENANTS.len()], request.clone());
                        rec.exit(submit);
                        let result = match ticket {
                            Ok(ticket) => rec.span("infer.server.wait", op, || ticket.wait()),
                            Err(e) => Err(e),
                        };
                        let done = Instant::now();
                        rec.exit(whole);
                        samples.push(Sample { due: sent, sent, done, end: end_of(&result) });
                        op += callers as u64;
                    }
                    (samples, rec)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("caller thread")).collect()
    });
    let (samples, recorders): (Vec<_>, Vec<_>) = per_thread.into_iter().unzip();
    (samples.into_iter().flatten().collect(), recorders)
}

/// A submitted request the collector is watching.
struct Pending {
    op: u64,
    due: Instant,
    sent: Instant,
    submitted: Instant,
    ticket: Ticket,
}

/// Open loop: one sender submits on the schedule [`Arrivals`] draws from the seed; one
/// collector polls the outstanding tickets every 100 µs and stamps completions, so a
/// slow request never delays the stamp of a faster one behind it.
fn open_loop(
    serving: &Serving,
    cpu_share: f64,
    seed: u64,
    seconds: f64,
    trace_from: Option<Instant>,
) -> (Vec<Sample>, Vec<Recorder>) {
    let begin = Instant::now();
    let recorder = |thread: u32| match trace_from {
        Some(origin) => Recorder::new(origin, thread, 1 << 16),
        None => Recorder::disabled(),
    };
    let (tx, rx) = mpsc::channel::<Pending>();
    std::thread::scope(|scope| {
        let sender = scope.spawn(move || {
            let cpu_per_s = cpu_share * server_config().workers as f64;
            let arrivals = Arrivals::new(cpu_per_s, process_cpu_seconds, seed.wrapping_add(1));
            let mut stream = Stream::new(serving, seed.wrapping_add(2));
            let mut rec = recorder(0);
            let mut refused = Vec::new();
            for (op, offset) in (0u64..).zip(arrivals.take_while(|&offset| offset < seconds)) {
                let due = begin + Duration::from_secs_f64(offset);
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                let request = stream.draw();
                let tenant = TENANTS[op as usize % TENANTS.len()];
                let sent = Instant::now();
                let result = rec.span("infer.server.submit", op, || {
                    serving.server.submit(tenant, request.clone())
                });
                let submitted = Instant::now();
                match result {
                    Ok(ticket) => tx
                        .send(Pending { op, due, sent, submitted, ticket })
                        .expect("collector alive"),
                    Err(e) => refused.push(Sample {
                        due,
                        sent,
                        done: submitted,
                        end: end_of::<()>(&Err(e)),
                    }),
                }
            }
            drop(tx);
            (refused, rec)
        });
        let collector = scope.spawn(move || {
            let mut rec = recorder(1);
            let mut pending: Vec<Pending> = Vec::new();
            let mut samples = Vec::new();
            let mut sender_done = false;
            while !(sender_done && pending.is_empty()) {
                loop {
                    match rx.try_recv() {
                        Ok(p) => pending.push(p),
                        Err(mpsc::TryRecvError::Empty) => break,
                        Err(mpsc::TryRecvError::Disconnected) => {
                            sender_done = true;
                            break;
                        }
                    }
                }
                pending.retain(|p| match p.ticket.try_wait() {
                    Some(result) => {
                        let done = Instant::now();
                        rec.record("infer.server.wait", p.op, p.submitted, done);
                        samples.push(Sample {
                            due: p.due,
                            sent: p.sent,
                            done,
                            end: end_of(&result),
                        });
                        false
                    }
                    None => true,
                });
                std::thread::sleep(Duration::from_micros(100));
            }
            (samples, rec)
        });
        let (refused, sender_rec) = sender.join().expect("sender thread");
        let (mut samples, collector_rec) = collector.join().expect("collector thread");
        samples.extend(refused);
        (samples, vec![sender_rec, collector_rec])
    })
}

/// End-to-end numbers of one load window.
struct WindowStats {
    items_per_s: f64,
    op_ms_p50: f64,
    op_ms_p90: f64,
    op_ms_mean: f64,
    sent: u64,
    ok: u64,
    failed: u64,
    shed: u64,
    slo_miss_frac: f64,
    lag_ms_p90: f64,
    lag_ms_p50: f64,
}

fn window_stats(
    spec: &ServeSpec,
    samples: &[Sample],
    begin: Instant,
    seconds: f64,
    out: &mut Outcome,
) -> WindowStats {
    let ms = |from: Instant, to: Instant| to.saturating_duration_since(from).as_secs_f64() * 1e3;
    let ok: Vec<&Sample> = samples.iter().filter(|s| s.end == End::Ok).collect();
    let ops: Vec<(f64, f64, f64)> =
        ok.iter().map(|s| (ms(begin, s.due) / 1e3, ms(begin, s.done) / 1e3, 1.0)).collect();
    let latencies: Vec<f64> = ok.iter().map(|s| ms(s.due, s.done)).collect();
    let stamped: Vec<(f64, f64)> = ops.iter().zip(&latencies).map(|(op, &l)| (op.1, l)).collect();
    let lags = sorted(&samples.iter().map(|s| ms(s.due, s.sent)).collect::<Vec<_>>());
    let p50 = subwindow_percentile(&stamped, 0.0, seconds, 0.5, LATENCY_PARTS, LATENCY_PART_MIN)
        .expect("an answered request");
    let p90 = subwindow_percentile(&stamped, 0.0, seconds, 0.9, LATENCY_PARTS, LATENCY_PART_MIN)
        .expect("an answered request");
    out.note(format!(
        "{} requests answered; op_ms_p90 has at least {} samples beyond it in every sub-window{}",
        p90.samples,
        p90.beyond,
        if p90.has_enough_beyond() { "" } else { " (fewer than 10: not steady)" }
    ));
    let within = latencies.iter().filter(|&&l| l <= spec.latency_limit_ms).count();
    let count = |end: End| samples.iter().filter(|s| s.end == end).count() as u64;
    WindowStats {
        items_per_s: subwindow_rate_median(&ops, 0.0, seconds, 5),
        op_ms_p50: p50.value,
        op_ms_p90: p90.value,
        op_ms_mean: latencies.iter().sum::<f64>() / latencies.len() as f64,
        sent: samples.len() as u64,
        ok: ok.len() as u64,
        failed: count(End::Failed),
        shed: count(End::Shed),
        slo_miss_frac: 1.0 - within as f64 / samples.len() as f64,
        lag_ms_p90: percentile(&lags, 0.9).expect("at least one request").value,
        lag_ms_p50: percentile(&lags, 0.5).expect("at least one request").value,
    }
}

fn run_load(
    spec: &ServeSpec,
    serving: &Serving,
    seed: u64,
    seconds: f64,
    trace_from: Option<Instant>,
    out: &mut Outcome,
) -> (WindowStats, Vec<Recorder>, f64) {
    let begin = Instant::now();
    let cpu0 = process_cpu_seconds();
    let (samples, recorders) = match spec.load {
        Load::Closed { callers } => closed_loop(serving, callers, seed, seconds, trace_from),
        Load::Open { cpu_share } => open_loop(serving, cpu_share, seed, seconds, trace_from),
    };
    let cpu = process_cpu_seconds() - cpu0;
    let stats = window_stats(spec, &samples, begin, seconds, out);
    if stats.sent != stats.ok + stats.failed + stats.shed {
        out.fail("load generator lost a request: sent != ok + failed + shed".into());
    }
    if let Load::Open { .. } = spec.load {
        out.note(format!(
            "sender lag p50 {:.3} ms, p90 {:.3} ms",
            stats.lag_ms_p50, stats.lag_ms_p90
        ));
        if stats.lag_ms_p90 > 1.0 {
            out.fail(format!(
                "sender ran {:.3} ms late at p90 (limit 1 ms): the schedule was not kept",
                stats.lag_ms_p90
            ));
        }
    }
    let cpu_ms_per_item = cpu * 1e3 / stats.ok.max(1) as f64;
    (stats, recorders, cpu_ms_per_item)
}

/// The server's conservation law, read from its public snapshot once traffic stopped.
fn check_conservation(snapshot: &MetricsSnapshot, out: &mut Outcome) {
    let sum = |f: fn(&rita_infer::TenantSnapshot) -> u64| -> u64 {
        snapshot.tenants.iter().map(|(_, t)| f(t)).sum()
    };
    let (accepted, served, failed) = (sum(|t| t.accepted), sum(|t| t.served), sum(|t| t.failed));
    if accepted != served + failed {
        out.fail(format!(
            "server lost requests: accepted {accepted} != served {served} + failed {failed}"
        ));
    }
}

fn finish_counts(out: &mut Outcome, stats: &WindowStats) {
    out.attempted = stats.sent;
    out.failed = stats.failed + stats.shed;
    let fail_frac = out.failed as f64 / stats.sent as f64;
    out.note(format!(
        "sent {} ok {} failed {} shed {}; fail_frac {fail_frac:.5}; slo_miss_frac {:.5}",
        stats.sent, stats.ok, stats.failed, stats.shed, stats.slo_miss_frac
    ));
    if fail_frac > 0.001 {
        out.fail(format!("fail_frac {fail_frac:.5} exceeds 0.001"));
    }
}

/// The untraced pass: end-to-end metrics.
pub fn run_untraced(spec: &ServeSpec, seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome { correct: true, ..Default::default() };
    let (serving, first_setup) = timed(|| spec.set_up(seed));
    let mut setups = vec![first_setup];
    check_answers(spec, &serving, &mut out);

    let (stats, _, cpu_ms_per_item) = run_load(spec, &serving, seed, seconds, None, &mut out);
    check_conservation(&serving.server.metrics().snapshot(), &mut out);
    finish_counts(&mut out, &stats);
    // Read before the remaining set-up repeats, which would only add allocator noise.
    out.put("peak_rss_mb", peak_rss_mb());
    shut_down(serving.server);
    while setups.len() < SETUP_REPEATS {
        let (again, secs) = timed(|| spec.set_up(seed));
        setups.push(secs);
        shut_down(again.server);
    }
    out.put("setup_s", median(&setups));
    out.put("items_per_s", stats.items_per_s);
    out.put("op_ms_p50", stats.op_ms_p50);
    out.put("op_ms_p90", stats.op_ms_p90);
    out.put("cpu_ms_per_item", cpu_ms_per_item);
    out
}

/// Mean of a histogram over a window, from its cumulative `(count, mean)` before and
/// after.
fn window_mean(before: (u64, f64), after: (u64, f64)) -> f64 {
    let n = after.0 - before.0;
    if n == 0 {
        0.0
    } else {
        (after.0 as f64 * after.1 - before.0 as f64 * before.1) / n as f64
    }
}

/// The traced pass: per-layer metrics. Returns the spans for the JSONL dump.
pub fn run_traced(spec: &ServeSpec, seed: u64, seconds: f64) -> (Outcome, Vec<Span>) {
    let mut out = Outcome { correct: true, ..Default::default() };
    let serving = spec.set_up(seed);
    check_answers(spec, &serving, &mut out);

    // Untraced reference, then the traced window, 30 % of the budget each, on the
    // same server; the server's counters are read around the traced window.
    let span = 0.3 * seconds;
    let (reference, _, _) = run_load(spec, &serving, seed, span, None, &mut Outcome::default());
    let before = serving.server.metrics().snapshot();
    let plans_before = plan_cache_stats();
    let origin = Instant::now();
    let (stats, recorders, _) = run_load(spec, &serving, seed, span, Some(origin), &mut out);
    let after = serving.server.metrics().snapshot();
    let plans_after = plan_cache_stats();
    check_conservation(&after, &mut out);
    finish_counts(&mut out, &stats);
    let model = serving.registry.current().expect("published model").model;
    let plan_buckets = model.cached_plans();
    shut_down(serving.server);

    let (spans, dropped) = trace::merge(recorders);
    if dropped > 0 {
        out.fail(format!("{dropped} spans did not fit the trace buffer"));
    }
    let agg = trace::aggregate(&spans);
    let submit_us = agg.get("infer.server.submit").map_or(0.0, |a| median(&a.durations_ms) * 1e3);

    // The server's own counters over the traced window.
    let batches = after.batches - before.batches;
    let served = after.served() - before.served();
    let batch_size_mean = served as f64 / batches.max(1) as f64;
    let queue_wait_us = window_mean(
        (before.queue_wait_us.count, before.queue_wait_us.mean),
        (after.queue_wait_us.count, after.queue_wait_us.mean),
    );
    let pool_allocs =
        (after.pool.reused - before.pool.reused) + (after.pool.fresh - before.pool.fresh);
    let lookups =
        (plans_after.hits - plans_before.hits) + (plans_after.misses - plans_before.misses);

    // Probes at the workload's shapes: the middle request length, the batch size
    // the server formed on average.
    let batch = (batch_size_mean.round() as usize).max(1);
    let mut by_length: BTreeMap<usize, (usize, &NdArray)> = BTreeMap::new();
    for r in &serving.requests {
        by_length.entry(r.shape()[1]).or_insert((0, r)).0 += 1;
    }
    let total = serving.requests.len() as f64;
    let stacked = |request: &NdArray| {
        NdArray::stack(&vec![request; batch]).expect("stack identical requests")
    };
    let mut forward_ms = 0.0;
    let mut compile_ms = 0.0;
    let mut classify_ms = 0.0;
    let session = InferSession::new(
        InferModel::from_checkpoint_with(&serving.ckpt, spec.precision).expect("load model"),
    );
    for (count, request) in by_length.values() {
        let weight = *count as f64 / total;
        let x = stacked(request);
        let warm = probe_ms(|| {
            std::hint::black_box(model.try_logits(&x).expect("warm forward"));
        });
        // Cold: a freshly loaded model has no plan for this bucket yet.
        let cold: Vec<f64> = (0..5)
            .map(|_| {
                let fresh = InferModel::from_checkpoint_with(&serving.ckpt, spec.precision)
                    .expect("load model");
                let t = Instant::now();
                std::hint::black_box(fresh.try_logits(&x).expect("cold forward"));
                t.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        forward_ms += weight * warm;
        compile_ms += weight * (median(&cold) - warm).max(0.0);
        classify_ms += weight
            * probe_ms(|| {
                std::hint::black_box(
                    session.classify(std::slice::from_ref(*request)).expect("classify"),
                );
            });
    }

    let mut lengths: Vec<usize> = serving.requests.iter().map(|r| r.shape()[1]).collect();
    lengths.sort_unstable();
    let length = lengths[lengths.len() / 2];
    let AttentionKind::Group { epsilon, initial_groups, .. } = spec.model.attention else {
        panic!("serving workloads use group attention");
    };
    let shapes = Shapes {
        batch,
        heads: spec.model.n_heads,
        tokens: spec.model.windows_for(length) + 1,
        d_head: spec.model.head_dim(),
        groups: initial_groups,
        d_model: spec.model.d_model,
        ff_hidden: spec.model.ff_hidden,
        kmeans_iters: rita_core::GroupAttentionConfig::default().kmeans_iters,
        epsilon,
    };
    out.note(format!(
        "probe shapes: b {batch} h {} n {} d_head {} N {} d_model {} ff {} (length {length})",
        shapes.heads, shapes.tokens, shapes.d_head, shapes.groups, shapes.d_model, shapes.ff_hidden
    ));
    let int8 = spec.precision.uses_int8();
    let mut probe_rng = rng_from_seed(seed ^ 0x9e37_79b9_7f4a_7c15);
    let kernels = probe_kernels(shapes, false, int8, &mut probe_rng);

    // Set-up layers, each timed in isolation.
    let ckpt = &serving.ckpt;
    let bytes = ckpt.to_bytes();
    let encode_ms = probe_ms(|| {
        std::hint::black_box(ckpt.to_bytes());
    });
    let decode_ms = probe_ms(|| {
        std::hint::black_box(Checkpoint::from_bytes(&bytes).expect("decode checkpoint"));
    });
    let load_ms = probe_ms(|| {
        std::hint::black_box(
            InferModel::from_checkpoint_with(ckpt, spec.precision).expect("load model"),
        );
    });
    let publish_ms = probe_ms(|| {
        std::hint::black_box(
            ModelRegistry::new().publish_with(ckpt, spec.precision).expect("publish"),
        );
    });
    let start_ms =
        probe_then(|| Server::start(Arc::clone(&serving.registry), server_config()), shut_down);

    // Attribution of one request. The server reports queue wait as a mean, so the
    // parts are held against the mean latency, not the median: on the open loop the
    // two differ by the tail that waits behind long requests.
    let op_ms = stats.op_ms_mean;
    let overhead_us = op_ms * 1e3 - queue_wait_us - forward_ms * 1e3;
    let layers = spec.model.n_layers as f64;
    let plan_kernels = layers
        * (kernels.kmeans_ms
            + 2.0 * kernels.segment_sum_ms
            + kernels.fused_fwd_ms
            + kernels.layer_gemm_ms(int8));
    let lag_ms = if matches!(spec.load, Load::Open { .. }) { stats.lag_ms_p50 } else { 0.0 };
    let explained_ms = queue_wait_us / 1e3 + forward_ms + submit_us / 1e3 + lag_ms;
    let mut shares = vec![
        ("infer.server queue wait (mean)", queue_wait_us / 1e3),
        ("infer.server.submit", submit_us / 1e3),
        ("loadgen lag (p50)", lag_ms),
        ("core.group.kmeans", layers * kernels.kmeans_ms),
        ("tensor.segment.sum", layers * 2.0 * kernels.segment_sum_ms),
        ("tensor.fused.fwd", layers * kernels.fused_fwd_ms),
        (if int8 { "tensor.qgemm" } else { "tensor.gemm" }, layers * kernels.layer_gemm_ms(int8)),
        ("infer.plan other nodes + executor", forward_ms - plan_kernels),
        ("unexplained (wake-ups, scatter, delivery)", op_ms - explained_ms),
    ];
    note_shares(&mut out, &mut shares, op_ms, "traced mean request latency");
    out.note(format!(
        "serial floor infer.session.classify_ms {classify_ms:.4}; time above it {:.4} ms = queue wait {:.4} + \
         batch-mates in the forward {:.4} + submit {:.4} + rest {:.4}",
        op_ms - classify_ms,
        queue_wait_us / 1e3,
        forward_ms - classify_ms,
        submit_us / 1e3,
        op_ms - explained_ms,
    ));

    out.put("e2e.fail_frac", out.failed as f64 / stats.sent as f64);
    out.put("e2e.slo_miss_frac", stats.slo_miss_frac);
    out.put_all(kernels.metrics());
    out.put("core.group.calls_per_item", layers / batch as f64);
    out.put("core.scheduler.groups_mean", model.mean_groups().map_or(0.0, f64::from));
    out.put(
        "tensor.pool.reuse_frac",
        (after.pool.reused - before.pool.reused) as f64 / pool_allocs.max(1) as f64,
    );
    out.put(
        "tensor.pool.fresh_mb",
        (after.pool.fresh_bytes - before.pool.fresh_bytes) as f64 / 1e6,
    );
    out.put("core.checkpoint.encode_ms", encode_ms);
    out.put("core.checkpoint.decode_ms", decode_ms);
    out.put("core.checkpoint.bytes", bytes.len() as f64);
    out.put("infer.registry.publish_ms", publish_ms);
    out.put("infer.model.load_ms", load_ms);
    out.put("infer.plan.forward_ms", forward_ms);
    out.put("infer.plan.compile_ms", compile_ms);
    out.put(
        "infer.plan.cache_hit_frac",
        (plans_after.hits - plans_before.hits) as f64 / lookups.max(1) as f64,
    );
    out.put("infer.plan.buckets", plan_buckets as f64);
    out.put("infer.session.classify_ms", classify_ms);
    out.put("infer.server.start_ms", start_ms);
    out.put("infer.server.submit_us", submit_us);
    out.put("infer.server.queue_wait_us_mean", queue_wait_us);
    out.put("infer.server.batch_size_mean", batch_size_mean);
    out.put("infer.server.batches", batches as f64);
    out.put(
        "infer.server.early_close_frac",
        (after.early_closes - before.early_closes) as f64 / batches.max(1) as f64,
    );
    out.put("infer.server.shed", (after.shed() - before.shed()) as f64);
    out.put("infer.server.latency_ms_p99", after.latency_us.p99 as f64 / 1e3);
    out.put("infer.server.overhead_us", overhead_us);
    out.put("loadgen.rate_per_s", stats.sent as f64 / span);
    out.put("loadgen.lag_ms_p90", stats.lag_ms_p90);
    out.put("loadgen.sent", stats.sent as f64);
    out.put("loadgen.ok", stats.ok as f64);
    out.put("loadgen.failed", stats.failed as f64);
    out.put("loadgen.shed", stats.shed as f64);
    out.put("trace.overhead_frac", 1.0 - stats.items_per_s / reference.items_per_s);
    out.put("trace.unattributed_frac", ((op_ms - explained_ms) / op_ms).max(0.0));
    out.put("trace.spans", spans.len() as f64);
    out.put("trace.items_per_s", stats.items_per_s);
    out.put("trace.op_ms_p50", stats.op_ms_p50);
    (out, spans)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arrivals_follow_the_cpu_time_a_request_costs() {
        // A process that spends 4 ms of CPU per request, allowed one CPU second per
        // second (half of two workers), is paced to 250 req/s once it has measured
        // itself; until then it runs at the first rate.
        let mut drawn = 0u32;
        let cpu_clock = move || {
            drawn += 1;
            f64::from(drawn - 1) * ARRIVAL_BLOCK as f64 * 0.004
        };
        let offsets: Vec<f64> =
            Arrivals::new(1.0, cpu_clock, 7).take((PACING_BLOCKS + 10) * ARRIVAL_BLOCK).collect();
        assert!(offsets.windows(2).all(|w| w[0] <= w[1]), "offsets ascend");
        let first = PACING_BLOCKS as f64 * ARRIVAL_BLOCK as f64 / FIRST_RATE_PER_S;
        let measured = &offsets[PACING_BLOCKS * ARRIVAL_BLOCK..];
        assert!(measured[0] >= first - 1e-9 && *measured.last().unwrap() <= first + 0.8 + 1e-9);
        // Every block holds exactly its share of arrivals.
        for (i, block) in measured.chunks(ARRIVAL_BLOCK).enumerate() {
            let (lo, hi) = (first + i as f64 * 0.08, first + (i + 1) as f64 * 0.08);
            assert!(block.iter().all(|&t| t >= lo - 1e-9 && t <= hi + 1e-9), "block {i}");
        }
    }
}
