//! The continuous-batching multi-tenant serving core.
//!
//! [`Server`] turns `rita-infer` from a blocking library call into a service: requests
//! from many tenants land in one MPSC queue, N worker threads drain it continuously,
//! and every drained batch runs on an `Arc` snapshot of the [`ModelRegistry`]'s
//! current checkpoint — hot-swap and rollback are atomic per batch, zero-copy per
//! worker (PR-1 tensor sharing makes the snapshot free).
//!
//! ## Continuous batching under a latency SLO
//!
//! The batcher reuses the training engine's length-bucketed batcher
//! (`batch_indices_by_length`) over the live queue: the oldest queued request anchors
//! the next batch, and the batch's target size is the largest `B` whose forward-only
//! cost fits the *latency* budget, half the SLO ([`LatencyBudget::COMPUTE_FRACTION`]),
//! converted to bytes through a calibrated throughput (see
//! `rita_core::scheduler::latency`). Every batch is sized against that one budget,
//! however deep the queue; overload is admission control's to shed. A batch closes when
//! it reaches its target, when the batching window (`linger`) expires, or **early**
//! when the oldest request approaches its SLO deadline — a request never waits for
//! batch-mates it cannot afford.
//!
//! ## Admission control
//!
//! Per-tenant token buckets (rate + burst) and queue-depth bounds shed load *at
//! admission* with a typed [`ServeError::Overloaded`] instead of letting queues grow
//! unbounded; a rate-limit shed carries a `retry_after` hint derived from the bucket's
//! refill rate. Requests with NaN/infinite values are rejected there too
//! (`RequestError::NonFinite`), before they can poison a mixed-tenant batch.
//!
//! ## Fault tolerance
//!
//! Workers are **panic-isolated and restart themselves**: each drains batches inside
//! `catch_unwind`. When a batch panics, its worker first records the crash (panic and
//! restart counters, circuit breaker), then drops the batch, whose drop guards answer
//! every request with [`ServeError::Internal`] (no ticket is ever lost *or* answered
//! twice), then backs off (capped exponential) and resumes draining on the same
//! thread — a server runs no thread but its workers. Recurring crashes trip a
//! **circuit breaker** ([`BreakerPolicy`]): submissions fail fast with
//! [`ServeError::Unavailable`] and a `retry_after` hint until a cooldown passes, then
//! a few half-open probes decide between closing the breaker and doubling the
//! cooldown. Serve-time model faults (executor errors, non-finite logits) quarantine
//! the faulty version in the registry, which atomically rolls traffic back to the
//! pinned last-good checkpoint. Requests may carry a **hard deadline** past which
//! they are cancelled with [`ServeError::DeadlineExceeded`] — never silently served
//! stale.
//!
//! ## One lock
//!
//! The queue, the tenants' token buckets and the breaker live behind one mutex, the
//! queue lock: a valid submit from a known tenant takes it once and no other mutex
//! (validation reads the current model under the registry's `RwLock`, shared). Every acquisition recovers from poisoning (see the crate-root
//! helpers), so one crashed batch can never wedge the other workers.
//!
//! ## Worker-pool budget sharing
//!
//! Each worker caps its inner kernel parallelism at `worker_budget() / workers` via
//! `with_worker_threads` (the PR-2 budget-sharing pattern), so N serving workers × M
//! kernel threads never multiply past the machine budget.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use rand::SeedableRng;
use rita_core::scheduler::LatencyBudget;
use rita_data::batch::{batch_indices_by_length, stack_samples};
use rita_tensor::{with_worker_threads, worker_budget, NdArray, SeedableRng64};

use crate::metrics::{Metrics, TenantMetrics};
use crate::model::InferModel;
use crate::registry::{ModelHandle, ModelRegistry};
use crate::session::{validate_request, RequestError};

/// Pause before a worker resumes after its second crash within a breaker window;
/// doubles per further crash in the streak.
const RESTART_BACKOFF: Duration = Duration::from_millis(10);
/// Ceiling on [`RESTART_BACKOFF`]'s doubling.
const RESTART_BACKOFF_MAX: Duration = Duration::from_secs(1);

/// Admission policy for one tenant.
#[derive(Debug, Clone, Copy)]
pub struct TenantPolicy {
    /// Sustained admission rate in requests/second (`None` = unlimited). Enforced by a
    /// token bucket refilled continuously.
    pub rate_per_sec: Option<f64>,
    /// Bucket capacity: how many requests may burst above the sustained rate.
    pub burst: f64,
    /// Most requests this tenant may have queued at once; beyond it, submissions shed
    /// with [`ShedReason::TenantQueueFull`].
    pub max_queue_depth: usize,
}

impl Default for TenantPolicy {
    fn default() -> Self {
        Self { rate_per_sec: None, burst: 16.0, max_queue_depth: 256 }
    }
}

/// Circuit-breaker policy: when recurring worker crashes should flip the server to
/// reject-fast, and how it probes its way back.
#[derive(Debug, Clone, Copy)]
pub struct BreakerPolicy {
    /// Crashes within [`window`](Self::window) that trip the breaker open
    /// (`0` disables the breaker entirely).
    pub threshold: usize,
    /// Sliding window over which crashes are counted.
    pub window: Duration,
    /// How long the breaker stays open after tripping; doubles (up to
    /// [`max_cooldown`](Self::max_cooldown)) every time a half-open probe crashes
    /// again.
    pub cooldown: Duration,
    /// Ceiling on the doubling cooldown.
    pub max_cooldown: Duration,
    /// Requests admitted in the half-open state to test the waters; one surviving
    /// batch closes the breaker.
    pub probes: u32,
}

impl Default for BreakerPolicy {
    fn default() -> Self {
        Self {
            threshold: 5,
            window: Duration::from_secs(2),
            cooldown: Duration::from_millis(250),
            max_cooldown: Duration::from_secs(5),
            probes: 2,
        }
    }
}

/// Tunables of the serving core.
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Worker threads draining the queue. Each holds an `Arc` view of the current
    /// model per batch and caps its kernel parallelism at its share of
    /// `worker_budget()`.
    pub workers: usize,
    /// Hard cap on any batch, over and above the latency budget's target.
    pub max_batch: usize,
    /// Per-request latency SLO: the deadline a request receives at admission. Half
    /// of it ([`LatencyBudget::COMPUTE_FRACTION`]) is the compute one batch may spend.
    pub slo: Duration,
    /// Longest a batch waits for same-length batch-mates before closing under target.
    pub linger: Duration,
    /// Global queue bound; beyond it submissions shed with [`ShedReason::QueueFull`].
    pub max_queue_depth: usize,
    /// Policy applied to tenants without an explicit [`Server::set_tenant_policy`].
    pub default_policy: TenantPolicy,
    /// Calibrated serving throughput in cost-model bytes/second. `None` measures it at
    /// startup by timing a probe forward of the current model.
    pub bytes_per_sec: Option<f64>,
    /// Hard per-request deadline applied at admission (`None` = requests wait as long
    /// as it takes; the SLO still shapes batching). A request past its hard deadline
    /// is cancelled with [`ServeError::DeadlineExceeded`] instead of served stale.
    /// Per-request overrides: [`Server::submit_with_deadline`].
    pub deadline: Option<Duration>,
    /// Circuit-breaker policy for recurring worker crashes.
    pub breaker: BreakerPolicy,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            workers: 2,
            max_batch: 64,
            slo: Duration::from_millis(250),
            linger: Duration::from_millis(2),
            max_queue_depth: 1024,
            default_policy: TenantPolicy::default(),
            bytes_per_sec: None,
            deadline: None,
            breaker: BreakerPolicy::default(),
        }
    }
}

/// Why admission control shed a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedReason {
    /// The tenant's token bucket is empty (sustained rate exceeded).
    RateLimited,
    /// The tenant's queue slice is full.
    TenantQueueFull,
    /// The server's global queue is full.
    QueueFull,
}

/// Why a request was not served.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// Shed by admission control — the typed rejection a client backs off on.
    Overloaded {
        /// The tenant whose request was shed.
        tenant: String,
        /// Which admission bound tripped.
        reason: ShedReason,
        /// For rate-limit sheds: how long until the token bucket refills one token.
        /// `None` for queue-bound sheds (drain time is not predictable from policy).
        retry_after: Option<Duration>,
    },
    /// Rejected by request validation (shape, length, non-finite values, wrong head).
    Invalid(RequestError),
    /// The forward pass failed — e.g. a malformed checkpoint tensor caught by plan
    /// compilation. Every request in the affected batch receives this error; the
    /// worker thread survives and keeps serving. A plan the static analyzer rejected
    /// arrives as [`InferError::Rejected`](crate::InferError::Rejected) with its full
    /// diagnostic report; with publish-time verification in front, that only happens
    /// if a corrupt plan slips past it for an unprobed shape bucket.
    Infer(crate::InferError),
    /// No checkpoint has been published to the registry yet.
    NoModel,
    /// The worker serving this request's batch crashed, or the model produced
    /// non-finite logits. The request was *answered*, not lost — resubmit freely. A
    /// crash is recorded (panic and restart counters, circuit breaker) before this
    /// answer is delivered, and a model fault has already rolled the model back.
    Internal {
        /// Human-readable cause.
        detail: String,
    },
    /// The request's hard deadline passed before a batch could serve it; it was
    /// cancelled rather than silently served stale.
    DeadlineExceeded {
        /// How far past the deadline the cancellation happened.
        late_by: Duration,
    },
    /// The circuit breaker is open after recurring worker crashes: the server is
    /// rejecting fast instead of queueing into a crash loop.
    Unavailable {
        /// When the breaker will next admit probes.
        retry_after: Duration,
    },
    /// The server is shutting down and no longer admits requests.
    ShutDown,
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Overloaded { tenant, reason, retry_after } => {
                let r = match reason {
                    ShedReason::RateLimited => "rate limited",
                    ShedReason::TenantQueueFull => "tenant queue full",
                    ShedReason::QueueFull => "server queue full",
                };
                write!(f, "overloaded ({r}) for tenant '{tenant}'")?;
                if let Some(d) = retry_after {
                    write!(f, ", retry after {:.1}ms", d.as_secs_f64() * 1e3)?;
                }
                Ok(())
            }
            ServeError::Invalid(e) => write!(f, "invalid request: {e}"),
            ServeError::Infer(e) => write!(f, "forward pass failed: {e}"),
            ServeError::NoModel => write!(f, "no model published"),
            ServeError::Internal { detail } => write!(f, "internal server error: {detail}"),
            ServeError::DeadlineExceeded { late_by } => {
                write!(f, "deadline exceeded by {:.1}ms", late_by.as_secs_f64() * 1e3)
            }
            ServeError::Unavailable { retry_after } => {
                write!(
                    f,
                    "unavailable (circuit breaker open), retry after {:.1}ms",
                    retry_after.as_secs_f64() * 1e3
                )
            }
            ServeError::ShutDown => write!(f, "server shutting down"),
        }
    }
}

impl std::error::Error for ServeError {}

/// One served classification answer.
#[derive(Debug, Clone, PartialEq)]
pub struct ServedResponse {
    /// Predicted class (argmax of the logits).
    pub class: usize,
    /// The full logits row, bit-identical to the single-call `InferSession` path.
    pub logits: Vec<f32>,
    /// Registry version of the checkpoint that served this request — every request is
    /// answered by exactly one version, even across a concurrent hot-swap.
    pub model_version: u64,
}

/// A pending answer: `wait` blocks until the worker fills it.
pub struct Ticket {
    slot: Arc<Slot>,
}

impl Ticket {
    /// Blocks until the request is served (or failed) and returns the outcome.
    pub fn wait(self) -> Result<ServedResponse, ServeError> {
        let mut done = crate::lock_mx(&self.slot.done);
        loop {
            match done.take() {
                Some(result) => return result,
                None => done = crate::wait_cv(&self.slot.cv, done),
            }
        }
    }

    /// Non-blocking poll: the outcome if the request has been served, else `None`
    /// (the ticket stays valid for a later [`Ticket::wait`]).
    pub fn try_wait(&self) -> Option<Result<ServedResponse, ServeError>> {
        crate::lock_mx(&self.slot.done).take()
    }
}

impl std::fmt::Debug for Ticket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let ready = crate::lock_mx(&self.slot.done).is_some();
        f.debug_struct("Ticket").field("ready", &ready).finish()
    }
}

struct Slot {
    /// Fill-once latch: the first `fill` wins, every later attempt is a no-op. This
    /// is what makes "no request answered twice" structural — the happy path, the
    /// error paths, and the drop guard all funnel through the same swap.
    answered: AtomicBool,
    done: Mutex<Option<Result<ServedResponse, ServeError>>>,
    cv: Condvar,
}

impl Slot {
    /// Delivers `result` to the ticket if nothing was delivered before. Returns
    /// whether this call was the one that answered.
    fn fill(&self, result: Result<ServedResponse, ServeError>) -> bool {
        if self.answered.swap(true, Ordering::AcqRel) {
            return false;
        }
        *crate::lock_mx(&self.done) = Some(result);
        self.cv.notify_all();
        true
    }
}

/// One queued request.
///
/// `Pending` is a **drop guard**: once a request is admitted, the only ways out are
/// an explicit [`answer`](Self::answer) or — if its batch panicked — the `Drop` impl,
/// which answers [`ServeError::Internal`]. A client ticket can
/// therefore never hang on a crashed batch, and (via the slot's fill-once latch)
/// never observe two answers.
struct Pending {
    tenant: Arc<str>,
    tenant_metrics: Arc<TenantMetrics>,
    metrics: Arc<Metrics>,
    input: NdArray,
    enqueued: Instant,
    /// Soft deadline: shapes batch closing (SLO pressure), never cancels.
    slo_deadline: Instant,
    /// Hard deadline: past it the request is cancelled, never served stale.
    hard_deadline: Option<Instant>,
    slot: Arc<Slot>,
}

impl Pending {
    /// Answers the ticket (first answer wins). Returns whether this was the first.
    fn answer(&self, result: Result<ServedResponse, ServeError>) -> bool {
        self.slot.fill(result)
    }
}

impl Drop for Pending {
    fn drop(&mut self) {
        if self.slot.answered.load(Ordering::Acquire) {
            return;
        }
        // Reached only after a panic, when the worker drops the batch it was serving:
        // convert the crash into a typed per-request error instead of a hung client.
        if self.slot.fill(Err(ServeError::Internal {
            detail: "worker crashed while serving this batch".into(),
        })) {
            self.metrics.faults.internal_errors.fetch_add(1, Ordering::Relaxed);
            self.tenant_metrics.failed.fetch_add(1, Ordering::Relaxed);
        }
    }
}

struct TenantState {
    policy: TenantPolicy,
    tokens: f64,
    refilled: Instant,
    queued: usize,
    metrics: Arc<TenantMetrics>,
}

impl TenantState {
    /// Refills the token bucket for elapsed time and tries to take one token.
    fn admit_token(&mut self, now: Instant) -> bool {
        let Some(rate) = self.policy.rate_per_sec else { return true };
        let elapsed = now.saturating_duration_since(self.refilled).as_secs_f64();
        self.refilled = now;
        self.tokens = (self.tokens + elapsed * rate).min(self.policy.burst.max(1.0));
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            true
        } else {
            false
        }
    }

    /// How long until the bucket refills one whole token at the sustained rate — the
    /// `retry_after` hint attached to a rate-limit shed. `None` when the policy has
    /// no (or a zero) rate: no refill time is derivable.
    fn retry_after(&self) -> Option<Duration> {
        let rate = self.policy.rate_per_sec?;
        if rate <= 0.0 {
            return None;
        }
        let deficit = (1.0 - self.tokens).max(0.0);
        Some(Duration::from_secs_f64(deficit / rate))
    }
}

/// Everything the queue lock guards: the queue, the tenants and the breaker.
/// Admission consults the breaker under this lock.
struct QueueState {
    pending: VecDeque<Pending>,
    tenants: HashMap<Arc<str>, TenantState>,
    breaker: Breaker,
}

/// The `N` the serve cost model charges at length `len`: the checkpoint's frozen mean
/// scheduler target, or (for non-group attention) the window count — the cost model's
/// saturation point, never a sentinel that would inflate the byte estimate.
fn serve_groups(model: &InferModel, len: usize) -> usize {
    let groups = model.mean_groups().map(|g| g.round() as usize);
    groups.unwrap_or_else(|| model.memory_model().windows(len)).max(1)
}

/// The serving throughput in cost-model bytes/second: time a probe forward and divide
/// the cost model's byte estimate by the measured wall time.
fn calibrate(model: &InferModel) -> f64 {
    let config = model.config();
    let len = config.max_len.max(config.window);
    let data: Vec<f32> = (0..config.channels * len).map(|i| (i as f32 * 0.37).sin()).collect();
    let probe =
        NdArray::from_vec(data, &[1, config.channels, len]).expect("probe shape matches data");
    // Warm the arena/dispatch once, then time the faster of two runs (cold-start
    // noise makes the budget too pessimistic otherwise).
    let _ = model.logits(&probe);
    let secs = (0..2)
        .map(|_| {
            let start = Instant::now();
            let out = model.logits(&probe);
            let elapsed = start.elapsed().as_secs_f64();
            crate::reclaim(out);
            elapsed
        })
        .fold(f64::INFINITY, f64::min)
        .max(1e-9);
    let bytes = model.memory_model().serve_bytes_for(1, len, serve_groups(model, len)) as f64;
    bytes / secs
}

/// Circuit-breaker state machine (part of [`QueueState`]).
enum BreakerState {
    /// Normal operation; `recent` tracks crashes inside the sliding window.
    Closed,
    /// Rejecting fast until `until`; `cooldown` is the open duration that produced
    /// it (doubles on a failed probe).
    Open { until: Instant, cooldown: Duration },
    /// Admitting up to `probes_left` more probe requests; one served batch closes
    /// the breaker, one more crash re-opens it with `cooldown × 2`.
    HalfOpen { probes_left: u32, cooldown: Duration },
}

struct Breaker {
    state: BreakerState,
    recent: VecDeque<Instant>,
}

struct Shared {
    /// The queue lock — the serving core's one mutex.
    state: Mutex<QueueState>,
    work_cv: Condvar,
    registry: Arc<ModelRegistry>,
    metrics: Arc<Metrics>,
    config: ServerConfig,
    /// The startup calibration ([`calibrate`]) when `config.bytes_per_sec` is `None`:
    /// measured once, then read without a lock.
    calibrated: OnceLock<f64>,
    shutdown: AtomicBool,
    /// Kernel-thread share of each worker (`worker_budget() / workers`, at least 1).
    kernel_cap: usize,
    /// Fast-path flag: `true` while the breaker is open or half-open, so a served
    /// batch pays one load instead of the queue lock.
    breaker_engaged: AtomicBool,
}

impl Shared {
    /// Admission-side breaker gate, under the queue lock (only consulted while
    /// `breaker_engaged`): `Ok` to admit (possibly as a half-open probe),
    /// `Err(retry_after)` to reject fast.
    fn breaker_admit(&self, b: &mut Breaker, now: Instant) -> Result<(), Duration> {
        match b.state {
            BreakerState::Closed => Ok(()),
            BreakerState::Open { until, cooldown } => {
                if now >= until {
                    b.state = BreakerState::HalfOpen {
                        probes_left: self.config.breaker.probes.saturating_sub(1),
                        cooldown,
                    };
                    Ok(())
                } else {
                    Err(until.saturating_duration_since(now))
                }
            }
            BreakerState::HalfOpen { probes_left, cooldown } => {
                if probes_left > 0 {
                    b.state = BreakerState::HalfOpen { probes_left: probes_left - 1, cooldown };
                    Ok(())
                } else {
                    // Probes are in flight; tell the client to check back after
                    // roughly the time a verdict needs.
                    Err(cooldown)
                }
            }
        }
    }

    /// Worker-side, after a panic: records the crash and trips/extends the breaker.
    fn breaker_on_crash(&self, now: Instant) {
        let policy = self.config.breaker;
        if policy.threshold == 0 {
            return;
        }
        let mut st = crate::lock_mx(&self.state);
        let b = &mut st.breaker;
        match b.state {
            BreakerState::Closed => {
                b.recent.push_back(now);
                while b
                    .recent
                    .front()
                    .is_some_and(|t| now.saturating_duration_since(*t) > policy.window)
                {
                    b.recent.pop_front();
                }
                if b.recent.len() >= policy.threshold {
                    b.recent.clear();
                    b.state = BreakerState::Open {
                        until: now + policy.cooldown,
                        cooldown: policy.cooldown,
                    };
                    self.metrics.faults.breaker_opens.fetch_add(1, Ordering::Relaxed);
                    self.breaker_engaged.store(true, Ordering::Release);
                }
            }
            BreakerState::HalfOpen { cooldown, .. } => {
                // The probe crashed: back to open, twice as patient.
                let cd = cooldown.saturating_mul(2).min(policy.max_cooldown);
                b.state = BreakerState::Open { until: now + cd, cooldown: cd };
                self.metrics.faults.breaker_opens.fetch_add(1, Ordering::Relaxed);
            }
            BreakerState::Open { until, cooldown } => {
                b.state = BreakerState::Open { until: until.max(now + cooldown), cooldown };
            }
        }
    }

    /// Worker-side: a batch served to completion; a half-open breaker closes.
    fn breaker_on_success(&self) {
        if !self.breaker_engaged.load(Ordering::Acquire) {
            return;
        }
        let mut st = crate::lock_mx(&self.state);
        let b = &mut st.breaker;
        if matches!(b.state, BreakerState::HalfOpen { .. }) {
            b.state = BreakerState::Closed;
            b.recent.clear();
            self.breaker_engaged.store(false, Ordering::Release);
        }
    }
}

/// A serve-time model fault (executor error, non-finite logits): count it and
/// quarantine the version — the registry atomically repoints traffic to last-good.
fn note_model_fault(shared: &Shared, version: u64) {
    shared.metrics.faults.model_faults.fetch_add(1, Ordering::Relaxed);
    if shared.registry.quarantine(version).is_some() {
        shared.metrics.faults.rollbacks.fetch_add(1, Ordering::Relaxed);
    }
}

/// The serving core: an admission-controlled request queue over continuous-batching
/// worker threads that restart themselves after a panic. See the module docs for the
/// batching, SLO, and failure semantics.
pub struct Server {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Starts `config.workers` worker threads over `registry` — the server's only
    /// threads. The registry may still be empty; submissions are rejected with
    /// [`ServeError::NoModel`] until the first [`ModelRegistry::publish`].
    pub fn start(registry: Arc<ModelRegistry>, config: ServerConfig) -> Server {
        assert!(config.workers > 0, "a server needs at least one worker");
        assert!(config.max_batch > 0, "max_batch must be positive");
        // Budget sharing (read on the spawning thread, before any worker caps apply):
        // each worker may use its share of the kernel-thread budget, so the serving
        // fan-out and the kernel fan-outs never multiply.
        let kernel_cap = (worker_budget() / config.workers).max(1);
        let shared = Arc::new(Shared {
            state: Mutex::new(QueueState {
                pending: VecDeque::new(),
                tenants: HashMap::new(),
                breaker: Breaker { state: BreakerState::Closed, recent: VecDeque::new() },
            }),
            work_cv: Condvar::new(),
            registry,
            metrics: Arc::new(Metrics::default()),
            config,
            calibrated: OnceLock::new(),
            shutdown: AtomicBool::new(false),
            kernel_cap,
            breaker_engaged: AtomicBool::new(false),
        });
        let workers = (0..config.workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("rita-serve-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn serving worker")
            })
            .collect();
        Server { shared, workers }
    }

    /// The server's model registry (publish/rollback while serving).
    pub fn registry(&self) -> &Arc<ModelRegistry> {
        &self.shared.registry
    }

    /// The server's metrics (snapshot any time).
    pub fn metrics(&self) -> &Arc<Metrics> {
        &self.shared.metrics
    }

    /// Sets (or replaces) the admission policy of one tenant. Existing queued requests
    /// are unaffected. A new tenant's token bucket starts full to `burst`; an existing
    /// one keeps its tokens, capped at the new `burst`, so re-setting a policy never
    /// hands out a free burst.
    pub fn set_tenant_policy(&self, tenant: &str, policy: TenantPolicy) {
        let mut st = crate::lock_mx(&self.shared.state);
        let entry = st.tenants.entry(Arc::from(tenant)).or_insert_with(|| TenantState {
            policy,
            tokens: policy.burst.max(1.0),
            refilled: Instant::now(),
            queued: 0,
            metrics: self.shared.metrics.tenant(tenant),
        });
        entry.policy = policy;
        entry.tokens = entry.tokens.min(policy.burst.max(1.0));
    }

    /// Submits one `(channels, length)` classification request for `tenant`. Returns a
    /// [`Ticket`] immediately; the answer is produced by a worker batch. Rejections
    /// (validation, rate limit, queue bounds, open breaker) are synchronous and typed.
    /// The hard deadline, if any, comes from [`ServerConfig::deadline`].
    pub fn submit(&self, tenant: &str, input: NdArray) -> Result<Ticket, ServeError> {
        self.submit_inner(tenant, input, self.shared.config.deadline)
    }

    /// [`submit`](Self::submit) with an explicit per-request hard deadline measured
    /// from now, overriding [`ServerConfig::deadline`]. Past it the request is
    /// cancelled with [`ServeError::DeadlineExceeded`] instead of served stale.
    pub fn submit_with_deadline(
        &self,
        tenant: &str,
        input: NdArray,
        deadline: Duration,
    ) -> Result<Ticket, ServeError> {
        self.submit_inner(tenant, input, Some(deadline))
    }

    fn submit_inner(
        &self,
        tenant: &str,
        input: NdArray,
        deadline: Option<Duration>,
    ) -> Result<Ticket, ServeError> {
        if self.shared.shutdown.load(Ordering::Acquire) {
            return Err(ServeError::ShutDown);
        }
        let Some(handle) = self.shared.registry.current() else {
            return Err(ServeError::NoModel);
        };
        if handle.model.num_classes().is_none() {
            return Err(ServeError::Invalid(RequestError::WrongHead { requested: "classify" }));
        }
        if let Err(e) = validate_request(handle.model.config(), 0, &input) {
            self.shared.metrics.tenant(tenant).invalid.fetch_add(1, Ordering::Relaxed);
            return Err(ServeError::Invalid(e));
        }
        let now = Instant::now();
        let mut st = crate::lock_mx(&self.shared.state);
        // Re-check under the lock: a request enqueued here is guaranteed to be drained
        // by a worker (shutdown drains under this same lock), so a ticket can never be
        // orphaned by a concurrent shutdown.
        if self.shared.shutdown.load(Ordering::Acquire) {
            return Err(ServeError::ShutDown);
        }
        // Breaker fast path: one load while healthy.
        if self.shared.breaker_engaged.load(Ordering::Acquire) {
            if let Err(retry_after) = self.shared.breaker_admit(&mut st.breaker, now) {
                let faults = &self.shared.metrics.faults;
                faults.breaker_rejections.fetch_add(1, Ordering::Relaxed);
                faults.last_retry_after_us.store(retry_after.as_micros() as u64, Ordering::Relaxed);
                return Err(ServeError::Unavailable { retry_after });
            }
        }
        if st.pending.len() >= self.shared.config.max_queue_depth {
            self.shared.metrics.shed_queue_full.fetch_add(1, Ordering::Relaxed);
            return Err(ServeError::Overloaded {
                tenant: tenant.to_string(),
                reason: ShedReason::QueueFull,
                retry_after: None,
            });
        }
        let default_policy = self.shared.config.default_policy;
        let key: Arc<str> = Arc::from(tenant);
        // A known tenant's state caches its metrics handle: the metrics registry is
        // consulted once per tenant lifetime, never on the steady-state path.
        let state = st.tenants.entry(Arc::clone(&key)).or_insert_with(|| TenantState {
            policy: default_policy,
            tokens: default_policy.burst.max(1.0),
            refilled: now,
            queued: 0,
            metrics: self.shared.metrics.tenant(tenant),
        });
        if state.queued >= state.policy.max_queue_depth {
            state.metrics.shed_depth.fetch_add(1, Ordering::Relaxed);
            return Err(ServeError::Overloaded {
                tenant: tenant.to_string(),
                reason: ShedReason::TenantQueueFull,
                retry_after: None,
            });
        }
        if !state.admit_token(now) {
            let retry_after = state.retry_after();
            if let Some(d) = retry_after {
                state.metrics.retry_after_us.store(d.as_micros() as u64, Ordering::Relaxed);
            }
            state.metrics.shed_rate.fetch_add(1, Ordering::Relaxed);
            return Err(ServeError::Overloaded {
                tenant: tenant.to_string(),
                reason: ShedReason::RateLimited,
                retry_after,
            });
        }
        state.queued += 1;
        state.metrics.accepted.fetch_add(1, Ordering::Relaxed);
        let tenant_metrics = Arc::clone(&state.metrics);
        let slot = Arc::new(Slot {
            answered: AtomicBool::new(false),
            done: Mutex::new(None),
            cv: Condvar::new(),
        });
        st.pending.push_back(Pending {
            tenant: key,
            tenant_metrics,
            metrics: Arc::clone(&self.shared.metrics),
            input,
            enqueued: now,
            slo_deadline: now + self.shared.config.slo,
            hard_deadline: deadline.map(|d| now + d),
            slot: Arc::clone(&slot),
        });
        self.shared.metrics.queue_depth.store(st.pending.len() as u64, Ordering::Relaxed);
        drop(st);
        self.shared.work_cv.notify_one();
        Ok(Ticket { slot })
    }

    /// Submit-and-wait convenience: the closed-loop client call.
    pub fn classify(&self, tenant: &str, input: NdArray) -> Result<ServedResponse, ServeError> {
        self.submit(tenant, input)?.wait()
    }

    /// Requests currently queued.
    pub fn queue_depth(&self) -> usize {
        crate::lock_mx(&self.shared.state).pending.len()
    }

    /// Stops admitting requests, drains the queue (every already-admitted request is
    /// still served), and joins the workers.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        // Flag and notify under the lock each waiter checks the flag under. Without
        // it a worker that has just read `shutdown == false` in `next_batch`, but has
        // not yet parked in `wait_cv`, misses the only notification and sleeps forever.
        {
            let _queue = crate::lock_mx(&self.shared.state);
            self.shared.shutdown.store(true, Ordering::Release);
            self.shared.work_cv.notify_all();
        }
        // A worker's drain loop runs under `catch_unwind`, so it ends by returning;
        // this also runs from `Drop`, which must not panic on a join error.
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if !self.workers.is_empty() {
            self.shutdown_inner();
        }
    }
}

/// What a worker decided to run: one rectangular batch plus its model snapshot.
struct ClosedBatch {
    handle: ModelHandle,
    requests: Vec<Pending>,
    early_close: bool,
}

/// One worker thread, its own restarter: runs [`drain`] under `catch_unwind` until
/// shutdown has drained the queue. After a panic it records the crash — panic count,
/// circuit breaker, restart count — and only then drops the batch it was serving,
/// whose drop guards answer [`ServeError::Internal`]: a client that sees the crash
/// finds it already counted. It then backs off (from the second crash within a
/// [`BreakerPolicy::window`], doubling per crash, capped) and resumes on this thread.
fn worker_loop(shared: &Shared) {
    // The batch being served. A panic leaves it here; it is then only dropped, never
    // read.
    let mut held: Option<ClosedBatch> = None;
    let mut streak = 0u32;
    let mut last_crash: Option<Instant> = None;
    while std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| drain(shared, &mut held)))
        .is_err()
    {
        let now = Instant::now();
        let faults = &shared.metrics.faults;
        faults.worker_panics.fetch_add(1, Ordering::Relaxed);
        shared.breaker_on_crash(now);
        faults.worker_respawns.fetch_add(1, Ordering::Relaxed);
        drop(held.take());
        if last_crash
            .is_some_and(|l| now.saturating_duration_since(l) > shared.config.breaker.window)
        {
            streak = 0;
        }
        streak += 1;
        last_crash = Some(now);
        if streak > 1 && !shared.shutdown.load(Ordering::Acquire) {
            let backoff = RESTART_BACKOFF.saturating_mul(1 << (streak - 2).min(16));
            std::thread::sleep(backoff.min(RESTART_BACKOFF_MAX));
        }
    }
}

/// Drains the queue until shutdown: waits for work, closes batches under the SLO
/// policy, and serves each, held in `held`, on its model snapshot.
fn drain(shared: &Shared, held: &mut Option<ClosedBatch>) {
    let mut last_version: Option<u64> = None;
    while let Some(batch) = next_batch(shared) {
        if last_version.is_some_and(|v| v != batch.handle.version) {
            shared.metrics.model_swaps.fetch_add(1, Ordering::Relaxed);
        }
        if last_version != Some(batch.handle.version) {
            shared
                .metrics
                .record_version(batch.handle.version, batch.handle.model.precision().as_str());
        }
        last_version = Some(batch.handle.version);
        serve_batch(shared, held.insert(batch));
        *held = None;
    }
}

/// Cancels every queued request whose hard deadline has passed (answering
/// [`ServeError::DeadlineExceeded`]) before any batch is closed over the queue.
fn sweep_expired(shared: &Shared, st: &mut QueueState, now: Instant) {
    let mut i = 0;
    while i < st.pending.len() {
        let expired = st.pending[i].hard_deadline.is_some_and(|d| now >= d);
        if !expired {
            i += 1;
            continue;
        }
        let p = st.pending.remove(i).expect("index in bounds");
        note_dequeued(st, &shared.metrics, &[&p]);
        let late_by =
            now.saturating_duration_since(p.hard_deadline.expect("expired implies deadline"));
        shared.metrics.faults.deadline_expired.fetch_add(1, Ordering::Relaxed);
        p.tenant_metrics.failed.fetch_add(1, Ordering::Relaxed);
        p.answer(Err(ServeError::DeadlineExceeded { late_by }));
    }
}

/// Blocks until a batch can be closed (returning `None` on drained shutdown).
///
/// The close policy, evaluated under the queue lock against the *oldest* request:
/// its length anchors the bucket, the latency budget sets the bucket's target `B`, and
/// the batch closes as soon as (a) `B` same-length requests are queued, (b) the
/// `linger` window since the oldest enqueue expires, or (c) the oldest request's
/// remaining SLO slack shrinks to the compute slice one batch needs — the early close
/// that keeps tail latencies inside the SLO instead of waiting for batch-mates.
fn next_batch(shared: &Shared) -> Option<ClosedBatch> {
    let mut st: MutexGuard<'_, QueueState> = crate::lock_mx(&shared.state);
    loop {
        sweep_expired(shared, &mut st, Instant::now());
        if st.pending.is_empty() {
            if shared.shutdown.load(Ordering::Acquire) {
                return None;
            }
            st = crate::wait_cv(&shared.work_cv, st);
            continue;
        }
        let Some(handle) = shared.registry.current() else {
            // Unreachable in practice (submissions require a model and the registry
            // never unpublishes), but fail the request rather than wedging the queue.
            let p = st.pending.pop_front().expect("non-empty queue");
            note_dequeued(&mut st, &shared.metrics, &[&p]);
            drop(st);
            p.answer(Err(ServeError::NoModel));
            drop(p);
            st = crate::lock_mx(&shared.state);
            continue;
        };
        let config = &shared.config;
        let Some(bytes_per_sec) = config.bytes_per_sec.or_else(|| shared.calibrated.get().copied())
        else {
            // Calibration is slow once per server (a timed probe forward): run it
            // without the queue lock so admissions keep flowing, then start over.
            drop(st);
            shared.calibrated.get_or_init(|| calibrate(&handle.model));
            st = crate::lock_mx(&shared.state);
            continue;
        };

        let budget = LatencyBudget { slo: config.slo, bytes_per_sec };
        let memory = handle.model.memory_model();
        let target_for = |len: usize| {
            budget.max_batch_size(&memory, len, serve_groups(&handle.model, len), config.max_batch)
        };
        let now = Instant::now();
        let oldest = &st.pending[0];
        let anchor_len = oldest.input.shape()[1];
        let target = target_for(anchor_len);
        let matching = st.pending.iter().filter(|p| p.input.shape()[1] == anchor_len).count();
        let fill_by = oldest.enqueued + shared.config.linger;
        // Close early once the oldest request's slack can only just cover one batch's
        // compute: estimated at the target size — the worst batch we might run.
        let compute = budget.estimated_compute(
            &memory,
            target,
            anchor_len,
            serve_groups(&handle.model, anchor_len),
        );
        let close_by = oldest.slo_deadline.checked_sub(compute).unwrap_or(oldest.enqueued);
        let slo_pressed = now >= close_by;
        let ready = matching >= target
            || now >= fill_by
            || slo_pressed
            || shared.shutdown.load(Ordering::Acquire);
        if !ready {
            let mut wake_at = fill_by.min(close_by);
            if let Some(hd) = st.pending.iter().filter_map(|p| p.hard_deadline).min() {
                wake_at = wake_at.min(hd); // wake in time to cancel, not just to batch
            }
            let timeout = wake_at.saturating_duration_since(now);
            st = crate::wait_cv_timeout(&shared.work_cv, st, timeout);
            continue;
        }

        // Close the batch through the training engine's length-bucketed batcher over
        // the live queue (shuffle off: FIFO order within each length bucket is
        // preserved, so same-length requests of one tenant are served in submission
        // order). The chosen batch is the one holding the oldest request — index 0.
        let lengths: Vec<usize> = st.pending.iter().map(|p| p.input.shape()[1]).collect();
        let mut rng = SeedableRng64::seed_from_u64(0); // shuffle off: never consulted
        let batches = batch_indices_by_length(&lengths, target_for, false, &mut rng);
        let chosen =
            batches.into_iter().find(|b| b.contains(&0)).expect("oldest request is in a batch");
        let early_close = slo_pressed && chosen.len() < target;
        // Extract in descending index order so earlier removals don't shift later ones.
        let mut requests: Vec<Pending> = Vec::with_capacity(chosen.len());
        for &i in chosen.iter().rev() {
            requests.push(st.pending.remove(i).expect("chosen index in bounds"));
        }
        requests.reverse();
        let refs: Vec<&Pending> = requests.iter().collect();
        note_dequeued(&mut st, &shared.metrics, &refs);
        if !st.pending.is_empty() {
            // Leftover work: hand it to a sibling worker while we compute.
            shared.work_cv.notify_one();
        }
        return Some(ClosedBatch { handle, requests, early_close });
    }
}

/// Bookkeeping for requests leaving the queue: tenant queue slices and the depth gauge.
fn note_dequeued(st: &mut QueueState, metrics: &Metrics, leaving: &[&Pending]) {
    for p in leaving {
        if let Some(t) = st.tenants.get_mut(&*p.tenant) {
            t.queued = t.queued.saturating_sub(1);
        }
    }
    metrics.queue_depth.store(st.pending.len() as u64, Ordering::Relaxed);
}

/// Runs one closed batch on its model snapshot and fills every ticket. Kernel
/// parallelism is capped at this worker's share of the machine budget.
///
/// Failure semantics: a forward error or non-finite logits fail every ticket in the
/// batch with a typed error *and* quarantine the model version (rolling traffic back
/// to last-good); a panic anywhere in here leaves the batch with [`worker_loop`], which
/// records the crash and then drops it, its drop guards answering
/// [`ServeError::Internal`] on every unanswered ticket. Requests whose hard deadline
/// passed during compute are cancelled, never served stale.
fn serve_batch(shared: &Shared, batch: &ClosedBatch) {
    let ClosedBatch { handle, requests, early_close } = batch;
    // Chaos injection point: may sleep (slow batch) and may panic (worker crash) —
    // compiled in, armed only inside `chaos::inject` scopes.
    crate::chaos::before_batch();
    let closed_at = Instant::now();
    let samples: Vec<NdArray> = requests.iter().map(|p| p.input.clone()).collect();
    let stacked = stack_samples(&samples);
    drop(samples);
    // The pool is thread-local and with_worker_threads runs the closure inline, so the
    // before/after delta is exactly this batch's arena traffic.
    let pool_before = rita_tensor::pool_stats();
    let logits = with_worker_threads(shared.kernel_cap, || handle.model.try_logits(&stacked));
    crate::reclaim(stacked);
    shared.metrics.record_pool(&pool_before, &rita_tensor::pool_stats());
    shared.metrics.batches.fetch_add(1, Ordering::Relaxed);
    shared.metrics.batch_size.record(requests.len() as u64);
    if *early_close {
        shared.metrics.early_closes.fetch_add(1, Ordering::Relaxed);
    }
    let logits = match logits {
        Ok(logits) => logits,
        Err(e) => {
            note_model_fault(shared, handle.version);
            for p in requests {
                p.tenant_metrics.failed.fetch_add(1, Ordering::Relaxed);
                p.answer(Err(ServeError::Infer(e.clone())));
            }
            return;
        }
    };
    // Chaos injection point: replaces the batch output with NaN when armed.
    let logits = crate::chaos::poison_logits(logits);
    // Non-finite logits mean the model (or a kernel) is damaged: failing the batch is
    // not enough — quarantine the version so traffic rolls back to last-good.
    let flat = logits.materialize();
    if !flat.as_slice().iter().all(|v| v.is_finite()) {
        note_model_fault(shared, handle.version);
        let detail = format!("model v{} produced non-finite logits", handle.version);
        for p in requests {
            p.tenant_metrics.failed.fetch_add(1, Ordering::Relaxed);
            p.answer(Err(ServeError::Internal { detail: detail.clone() }));
        }
        crate::reclaim(flat);
        crate::reclaim(logits);
        return;
    }
    crate::reclaim(flat);
    let classes = logits.argmax_last();
    let done = Instant::now();
    // A fully computed batch is the breaker's recovery signal. Record it *before*
    // delivering answers: a client that just received a success must not race a
    // stale half-open state on its next submit.
    shared.breaker_on_success();
    for (i, p) in requests.iter().enumerate() {
        // Hard deadline re-check after compute: a slow batch must cancel, not serve
        // stale ("never silently served stale").
        if let Some(hd) = p.hard_deadline {
            if done >= hd {
                shared.metrics.faults.deadline_expired.fetch_add(1, Ordering::Relaxed);
                p.tenant_metrics.failed.fetch_add(1, Ordering::Relaxed);
                p.answer(Err(ServeError::DeadlineExceeded {
                    late_by: done.saturating_duration_since(hd),
                }));
                continue;
            }
        }
        let row = logits.index_axis(0, i).expect("logits row").materialize();
        shared.metrics.record_served(
            &p.tenant_metrics,
            done.saturating_duration_since(p.enqueued),
            closed_at.saturating_duration_since(p.enqueued),
        );
        p.answer(Ok(ServedResponse {
            class: classes[i],
            logits: row.as_slice().to_vec(),
            model_version: handle.version,
        }));
    }
    crate::reclaim(logits);
}
