//! Lightweight serving metrics: lock-free counters and gauges, log-scale histograms
//! for batch sizes and latencies, and per-tenant accounting, snapshotable as JSON.
//!
//! Everything on the hot path is a relaxed atomic increment — workers and admission
//! control never contend on a lock to record a measurement. Only registering a
//! previously-unseen tenant takes a mutex, once per tenant lifetime; after that the
//! tenant's counters are reached through an `Arc` the caller keeps.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use rita_tensor::PoolStats;

use crate::plan::{plan_cache_stats, PlanCacheStats};

/// Power-of-two-bucketed histogram: bucket `i` counts values in `[2^i, 2^(i+1))`
/// (bucket 0 holds 0 and 1). 48 buckets cover u64 microsecond latencies and batch
/// sizes alike; recording is one relaxed fetch-add.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; 48],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// Records one value.
    pub fn record(&self, value: u64) {
        let bucket = (64 - value.max(1).leading_zeros() as usize - 1).min(47);
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Mean of the recorded values (0 when empty).
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum.load(Ordering::Relaxed) as f64 / n as f64
        }
    }

    /// Approximate quantile `q ∈ [0, 1]`: the recorded maximum for the top bucket,
    /// otherwise the geometric midpoint of the bucket holding the `q`-th value.
    /// Resolution is the bucket width (a factor of two) — plenty for p50/p99 trend
    /// lines, and recording stays constant-time and allocation-free.
    pub fn quantile(&self, q: f64) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as u64).clamp(1, n);
        if rank == n {
            // The top of the distribution is tracked exactly.
            return self.max.load(Ordering::Relaxed);
        }
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= rank {
                let lo = if i == 0 { 0u64 } else { 1u64 << i };
                let hi = 1u64 << (i + 1);
                let mid = lo + (hi - lo) / 2;
                return mid.min(self.max.load(Ordering::Relaxed));
            }
        }
        self.max.load(Ordering::Relaxed)
    }

    fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count(),
            mean: self.mean(),
            p50: self.quantile(0.5),
            p99: self.quantile(0.99),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// Point-in-time view of one histogram.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct HistogramSnapshot {
    /// Number of recorded values.
    pub count: u64,
    /// Mean value.
    pub mean: f64,
    /// Approximate median.
    pub p50: u64,
    /// Approximate 99th percentile.
    pub p99: u64,
    /// Exact maximum.
    pub max: u64,
}

/// Per-tenant serving counters.
#[derive(Debug, Default)]
pub struct TenantMetrics {
    /// Requests admitted into the queue.
    pub accepted: AtomicU64,
    /// Requests answered.
    pub served: AtomicU64,
    /// Requests shed by the token-bucket rate limit.
    pub shed_rate: AtomicU64,
    /// Requests shed because the tenant's queue slice was full.
    pub shed_depth: AtomicU64,
    /// Requests rejected by validation before reaching the queue.
    pub invalid: AtomicU64,
    /// Requests that ended in a server-side failure (worker crash, deadline blowout,
    /// model fault) after admission.
    pub failed: AtomicU64,
    /// The `retry_after` hint (µs) attached to this tenant's most recent rate-limit
    /// shed (gauge; 0 until the first such shed).
    pub retry_after_us: AtomicU64,
}

/// Point-in-time view of one tenant's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TenantSnapshot {
    /// Requests admitted into the queue.
    pub accepted: u64,
    /// Requests answered.
    pub served: u64,
    /// Requests shed by the token-bucket rate limit.
    pub shed_rate: u64,
    /// Requests shed because the tenant's queue slice was full.
    pub shed_depth: u64,
    /// Requests rejected by validation.
    pub invalid: u64,
    /// Requests that ended in a server-side failure after admission.
    pub failed: u64,
    /// Most recent rate-limit `retry_after` hint (µs).
    pub retry_after_us: u64,
}

/// Fault-tolerance counters: everything the worker restart path, circuit breaker,
/// rollback path and deadline checks record. All relaxed atomics, same discipline as
/// the rest of [`Metrics`].
#[derive(Debug, Default)]
pub struct FaultCounters {
    /// Panics a worker caught while serving, each counted before the crashed batch's
    /// requests are answered.
    pub worker_panics: AtomicU64,
    /// Times a worker resumed its drain loop on its own thread after a panic; like
    /// `worker_panics`, counted before the crashed batch's requests are answered.
    pub worker_respawns: AtomicU64,
    /// Times the circuit breaker tripped open.
    pub breaker_opens: AtomicU64,
    /// Requests rejected fast because the breaker was open.
    pub breaker_rejections: AtomicU64,
    /// Requests cancelled because their hard deadline passed.
    pub deadline_expired: AtomicU64,
    /// Serve-time model faults detected (executor error or non-finite logits).
    pub model_faults: AtomicU64,
    /// Automatic rollbacks to the last-good checkpoint version.
    pub rollbacks: AtomicU64,
    /// Requests answered with `ServeError::Internal` (crashed mid-batch).
    pub internal_errors: AtomicU64,
    /// The most recent `retry_after` hint handed out by the breaker (µs, gauge).
    pub last_retry_after_us: AtomicU64,
}

/// Point-in-time view of [`FaultCounters`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultSnapshot {
    /// Worker panics caught while serving.
    pub worker_panics: u64,
    /// Worker restarts after a panic (same thread).
    pub worker_respawns: u64,
    /// Breaker trips.
    pub breaker_opens: u64,
    /// Fast rejections while the breaker was open.
    pub breaker_rejections: u64,
    /// Hard-deadline cancellations.
    pub deadline_expired: u64,
    /// Serve-time model faults.
    pub model_faults: u64,
    /// Automatic last-good rollbacks.
    pub rollbacks: u64,
    /// Requests answered with `ServeError::Internal`.
    pub internal_errors: u64,
    /// Most recent breaker `retry_after` hint (µs).
    pub last_retry_after_us: u64,
}

/// Buffer-pool counters aggregated across worker threads. The tensor crate's pool is
/// thread-local, so each worker folds its per-batch `pool_stats()` delta in here after
/// the forward — the snapshot shows the server-wide arena behaviour.
#[derive(Debug, Default)]
pub struct PoolCounters {
    /// Allocations served from a thread's free list.
    pub reused: AtomicU64,
    /// Allocations that fell through to the system allocator.
    pub fresh: AtomicU64,
    /// Buffers returned to a free list at their planned last use.
    pub recycled: AtomicU64,
    /// Bytes served from free lists (requested sizes, not capacities).
    pub reused_bytes: AtomicU64,
    /// Bytes that fell through to the system allocator.
    pub fresh_bytes: AtomicU64,
}

/// Point-in-time view of the aggregated pool counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolSnapshot {
    /// Allocations served from a free list.
    pub reused: u64,
    /// Allocations that fell through to the system allocator.
    pub fresh: u64,
    /// Buffers returned to a free list.
    pub recycled: u64,
    /// Bytes served from free lists.
    pub reused_bytes: u64,
    /// Bytes allocated fresh.
    pub fresh_bytes: u64,
}

impl PoolSnapshot {
    /// Fraction of allocations served from the pool (0 when nothing was allocated).
    pub fn hit_rate(&self) -> f64 {
        let total = self.reused + self.fresh;
        if total == 0 {
            0.0
        } else {
            self.reused as f64 / total as f64
        }
    }
}

/// The serving tier's metrics: global counters and histograms plus per-tenant slices.
#[derive(Debug, Default)]
pub struct Metrics {
    /// Requests currently queued (gauge).
    pub queue_depth: AtomicU64,
    /// Requests shed because the global queue was full.
    pub shed_queue_full: AtomicU64,
    /// Batches executed.
    pub batches: AtomicU64,
    /// Batches closed before reaching their target size because the oldest queued
    /// request approached its SLO deadline.
    pub early_closes: AtomicU64,
    /// Hot-swaps observed by workers (a batch ran on a different version than the
    /// previous batch on that worker).
    pub model_swaps: AtomicU64,
    /// Distribution of executed batch sizes.
    pub batch_size: Histogram,
    /// Distribution of end-to-end request latencies, in microseconds (enqueue → reply).
    pub latency_us: Histogram,
    /// Distribution of queue wait times, in microseconds (enqueue → batch close).
    pub queue_wait_us: Histogram,
    /// Buffer-pool behaviour, aggregated over worker threads.
    pub pool: PoolCounters,
    /// Worker restart, breaker, rollback and deadline counters.
    pub faults: FaultCounters,
    tenants: Mutex<BTreeMap<String, Arc<TenantMetrics>>>,
    /// Numeric precision of every model version a worker has served a batch on, so a
    /// mixed-precision rollout (f32 current, int8 canary) is observable per version.
    versions: Mutex<BTreeMap<u64, &'static str>>,
}

impl Metrics {
    /// The counters of `tenant`, registering it on first sight. Callers hold the `Arc`
    /// so steady-state recording never touches the registry lock.
    pub fn tenant(&self, tenant: &str) -> Arc<TenantMetrics> {
        let mut map = crate::lock_mx(&self.tenants);
        if let Some(t) = map.get(tenant) {
            return Arc::clone(t);
        }
        let t = Arc::new(TenantMetrics::default());
        map.insert(tenant.to_string(), Arc::clone(&t));
        t
    }

    /// Records that a worker served a batch on model `version` running at `precision`
    /// (idempotent; workers call it once per observed swap, not per batch).
    pub fn record_version(&self, version: u64, precision: &'static str) {
        crate::lock_mx(&self.versions).insert(version, precision);
    }

    /// Records one served request's end-to-end latency and queue wait.
    pub fn record_served(&self, tenant: &TenantMetrics, latency: Duration, queue_wait: Duration) {
        tenant.served.fetch_add(1, Ordering::Relaxed);
        self.latency_us.record(latency.as_micros() as u64);
        self.queue_wait_us.record(queue_wait.as_micros() as u64);
    }

    /// Folds one worker's pool delta (its thread-local `pool_stats()` before vs after a
    /// batch) into the aggregated counters.
    pub fn record_pool(&self, before: &PoolStats, after: &PoolStats) {
        let add = |c: &AtomicU64, b: u64, a: u64| {
            c.fetch_add(a.saturating_sub(b), Ordering::Relaxed);
        };
        add(&self.pool.reused, before.reused, after.reused);
        add(&self.pool.fresh, before.fresh, after.fresh);
        add(&self.pool.recycled, before.recycled, after.recycled);
        add(&self.pool.reused_bytes, before.reused_bytes, after.reused_bytes);
        add(&self.pool.fresh_bytes, before.fresh_bytes, after.fresh_bytes);
    }

    /// Point-in-time snapshot of every counter, histogram, and tenant.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let tenants = crate::lock_mx(&self.tenants)
            .iter()
            .map(|(name, t)| {
                (
                    name.clone(),
                    TenantSnapshot {
                        accepted: t.accepted.load(Ordering::Relaxed),
                        served: t.served.load(Ordering::Relaxed),
                        shed_rate: t.shed_rate.load(Ordering::Relaxed),
                        shed_depth: t.shed_depth.load(Ordering::Relaxed),
                        invalid: t.invalid.load(Ordering::Relaxed),
                        failed: t.failed.load(Ordering::Relaxed),
                        retry_after_us: t.retry_after_us.load(Ordering::Relaxed),
                    },
                )
            })
            .collect();
        MetricsSnapshot {
            queue_depth: self.queue_depth.load(Ordering::Relaxed),
            shed_queue_full: self.shed_queue_full.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            early_closes: self.early_closes.load(Ordering::Relaxed),
            model_swaps: self.model_swaps.load(Ordering::Relaxed),
            batch_size: self.batch_size.snapshot(),
            latency_us: self.latency_us.snapshot(),
            queue_wait_us: self.queue_wait_us.snapshot(),
            pool: PoolSnapshot {
                reused: self.pool.reused.load(Ordering::Relaxed),
                fresh: self.pool.fresh.load(Ordering::Relaxed),
                recycled: self.pool.recycled.load(Ordering::Relaxed),
                reused_bytes: self.pool.reused_bytes.load(Ordering::Relaxed),
                fresh_bytes: self.pool.fresh_bytes.load(Ordering::Relaxed),
            },
            faults: FaultSnapshot {
                worker_panics: self.faults.worker_panics.load(Ordering::Relaxed),
                worker_respawns: self.faults.worker_respawns.load(Ordering::Relaxed),
                breaker_opens: self.faults.breaker_opens.load(Ordering::Relaxed),
                breaker_rejections: self.faults.breaker_rejections.load(Ordering::Relaxed),
                deadline_expired: self.faults.deadline_expired.load(Ordering::Relaxed),
                model_faults: self.faults.model_faults.load(Ordering::Relaxed),
                rollbacks: self.faults.rollbacks.load(Ordering::Relaxed),
                internal_errors: self.faults.internal_errors.load(Ordering::Relaxed),
                last_retry_after_us: self.faults.last_retry_after_us.load(Ordering::Relaxed),
            },
            plan_cache: plan_cache_stats(),
            tenants,
            versions: crate::lock_mx(&self.versions).iter().map(|(&v, &p)| (v, p)).collect(),
        }
    }
}

/// A consistent-enough point-in-time view of [`Metrics`] (individual loads are relaxed;
/// totals may straddle in-flight requests by ±1, which is fine for dashboards).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Requests currently queued.
    pub queue_depth: u64,
    /// Requests shed because the global queue was full.
    pub shed_queue_full: u64,
    /// Batches executed.
    pub batches: u64,
    /// Batches closed early on SLO pressure.
    pub early_closes: u64,
    /// Hot-swaps observed by workers.
    pub model_swaps: u64,
    /// Executed batch sizes.
    pub batch_size: HistogramSnapshot,
    /// End-to-end request latencies (µs).
    pub latency_us: HistogramSnapshot,
    /// Queue wait times (µs).
    pub queue_wait_us: HistogramSnapshot,
    /// Aggregated buffer-pool behaviour (hits, misses, bytes) across workers.
    pub pool: PoolSnapshot,
    /// Worker restart, breaker, rollback and deadline counters.
    pub faults: FaultSnapshot,
    /// Process-wide plan-cache hit/miss counters.
    pub plan_cache: PlanCacheStats,
    /// Per-tenant counters, keyed by tenant name.
    pub tenants: Vec<(String, TenantSnapshot)>,
    /// Precision of every served model version, in version order — the observable a
    /// mixed-precision rollout watches while shifting traffic.
    pub versions: Vec<(u64, &'static str)>,
}

impl MetricsSnapshot {
    /// Total served across tenants.
    pub fn served(&self) -> u64 {
        self.tenants.iter().map(|(_, t)| t.served).sum()
    }

    /// Total shed across tenants and the global queue bound.
    pub fn shed(&self) -> u64 {
        self.shed_queue_full
            + self.tenants.iter().map(|(_, t)| t.shed_rate + t.shed_depth).sum::<u64>()
    }

    /// Serialises the snapshot as a self-contained JSON object (hand-rolled, matching
    /// the repo's dependency-free bench emitters).
    pub fn to_json(&self) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        let h = |h: &HistogramSnapshot| {
            format!(
                "{{\"count\": {}, \"mean\": {:.1}, \"p50\": {}, \"p99\": {}, \"max\": {}}}",
                h.count, h.mean, h.p50, h.p99, h.max
            )
        };
        let _ = write!(
            s,
            "{{\"queue_depth\": {}, \"batches\": {}, \"early_closes\": {}, \
             \"model_swaps\": {}, \"shed_queue_full\": {}, \"served\": {}, \"shed\": {}, \
             \"batch_size\": {}, \"latency_us\": {}, \"queue_wait_us\": {}, \
             \"pool\": {{\"reused\": {}, \"fresh\": {}, \"recycled\": {}, \
             \"reused_bytes\": {}, \"fresh_bytes\": {}, \"hit_rate\": {:.4}}}, \
             \"faults\": {{\"worker_panics\": {}, \"worker_respawns\": {}, \
             \"breaker_opens\": {}, \"breaker_rejections\": {}, \"deadline_expired\": {}, \
             \"model_faults\": {}, \"rollbacks\": {}, \"internal_errors\": {}, \
             \"last_retry_after_us\": {}}}, \
             \"plan_cache\": {{\"hits\": {}, \"misses\": {}, \"hit_rate\": {:.4}}}, \
             \"versions\": {{",
            self.queue_depth,
            self.batches,
            self.early_closes,
            self.model_swaps,
            self.shed_queue_full,
            self.served(),
            self.shed(),
            h(&self.batch_size),
            h(&self.latency_us),
            h(&self.queue_wait_us),
            self.pool.reused,
            self.pool.fresh,
            self.pool.recycled,
            self.pool.reused_bytes,
            self.pool.fresh_bytes,
            self.pool.hit_rate(),
            self.faults.worker_panics,
            self.faults.worker_respawns,
            self.faults.breaker_opens,
            self.faults.breaker_rejections,
            self.faults.deadline_expired,
            self.faults.model_faults,
            self.faults.rollbacks,
            self.faults.internal_errors,
            self.faults.last_retry_after_us,
            self.plan_cache.hits,
            self.plan_cache.misses,
            self.plan_cache.hit_rate(),
        );
        for (i, (version, precision)) in self.versions.iter().enumerate() {
            let comma = if i + 1 < self.versions.len() { ", " } else { "" };
            let _ = write!(s, "\"{version}\": \"{precision}\"{comma}");
        }
        s.push_str("}, \"tenants\": {");
        for (i, (name, t)) in self.tenants.iter().enumerate() {
            let comma = if i + 1 < self.tenants.len() { ", " } else { "" };
            let _ = write!(
                s,
                "\"{}\": {{\"accepted\": {}, \"served\": {}, \"shed_rate\": {}, \
                 \"shed_depth\": {}, \"invalid\": {}, \"failed\": {}, \
                 \"retry_after_us\": {}}}{}",
                escape_json(name),
                t.accepted,
                t.served,
                t.shed_rate,
                t.shed_depth,
                t.invalid,
                t.failed,
                t.retry_after_us,
                comma
            );
        }
        s.push_str("}}");
        s
    }
}

/// Escapes a string for embedding in a JSON object key or value.
fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_bracket_the_data() {
        let h = Histogram::default();
        for v in 1..=1000u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 1000);
        assert!((h.mean() - 500.5).abs() < 1e-9);
        let p50 = h.quantile(0.5);
        // Bucket resolution is a factor of two: the median of 1..=1000 (500) lives in
        // [256, 512); the reported midpoint must too.
        assert!((256..1024).contains(&p50), "p50 {p50}");
        let p99 = h.quantile(0.99);
        assert!((512..=1000).contains(&p99), "p99 {p99}");
        assert_eq!(h.quantile(1.0), 1000);
        assert!(h.quantile(0.0) >= 1);
    }

    #[test]
    fn histogram_handles_zero_and_extremes() {
        let h = Histogram::default();
        assert_eq!(h.quantile(0.5), 0);
        h.record(0);
        h.record(u64::MAX);
        assert_eq!(h.count(), 2);
        assert!(h.quantile(0.25) <= 1);
        assert_eq!(h.quantile(1.0), u64::MAX);
    }

    #[test]
    fn tenant_registry_returns_one_instance_per_name() {
        let m = Metrics::default();
        let a1 = m.tenant("a");
        let a2 = m.tenant("a");
        let b = m.tenant("b");
        a1.served.fetch_add(3, Ordering::Relaxed);
        a2.served.fetch_add(2, Ordering::Relaxed);
        b.shed_rate.fetch_add(1, Ordering::Relaxed);
        let snap = m.snapshot();
        assert_eq!(snap.tenants.len(), 2);
        assert_eq!(
            snap.tenants[0],
            ("a".to_string(), TenantSnapshot { served: 5, ..Default::default() })
        );
        assert_eq!(snap.served(), 5);
        assert_eq!(snap.shed(), 1);
    }

    /// The atomics-audit stress test (see DESIGN.md "Atomics audit"): every counter
    /// uses `Ordering::Relaxed`, which is sound because each is independently
    /// meaningful — so after all writers join, plain load visibility (guaranteed by
    /// the join's synchronizes-with edge) must make every final total exact, and
    /// snapshots taken *during* the run must stay within the monotone envelope
    /// (relaxed counters never run backwards from one snapshot to the next on the
    /// same thread, and a histogram's bucket total can never exceed what its `count`
    /// will eventually reach).
    #[test]
    fn relaxed_counters_are_exact_under_forced_multithreading() {
        const THREADS: u64 = 8;
        const PER_THREAD: u64 = 5_000;
        let m = Arc::new(Metrics::default());
        let stop = Arc::new(AtomicU64::new(0));

        let writers: Vec<_> = (0..THREADS)
            .map(|t| {
                let m = Arc::clone(&m);
                std::thread::spawn(move || {
                    let tenant = m.tenant(if t % 2 == 0 { "even" } else { "odd" });
                    for i in 0..PER_THREAD {
                        tenant.accepted.fetch_add(1, Ordering::Relaxed);
                        tenant.served.fetch_add(1, Ordering::Relaxed);
                        m.batches.fetch_add(1, Ordering::Relaxed);
                        m.batch_size.record(i % 32);
                    }
                })
            })
            .collect();
        // A concurrent observer: snapshots must be monotone in every counter.
        let observer = {
            let m = Arc::clone(&m);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut last_served = 0u64;
                let mut last_batches = 0u64;
                while stop.load(Ordering::Relaxed) == 0 {
                    let snap = m.snapshot();
                    assert!(snap.served() >= last_served, "served ran backwards");
                    assert!(snap.batches >= last_batches, "batches ran backwards");
                    assert!(
                        snap.batch_size.count <= THREADS * PER_THREAD,
                        "histogram count overshot"
                    );
                    last_served = snap.served();
                    last_batches = snap.batches;
                }
            })
        };
        for w in writers {
            w.join().unwrap();
        }
        stop.store(1, Ordering::Relaxed);
        observer.join().unwrap();

        let snap = m.snapshot();
        assert_eq!(snap.served(), THREADS * PER_THREAD);
        assert_eq!(snap.batches, THREADS * PER_THREAD);
        assert_eq!(snap.batch_size.count, THREADS * PER_THREAD);
        let even = snap.tenants.iter().find(|(n, _)| n == "even").unwrap();
        assert_eq!(even.1.accepted, THREADS / 2 * PER_THREAD);
    }

    #[test]
    fn snapshot_json_is_well_formed_enough() {
        let m = Metrics::default();
        m.tenant("t\"1").accepted.fetch_add(1, Ordering::Relaxed);
        m.batch_size.record(8);
        m.latency_us.record(1500);
        let json = m.snapshot().to_json();
        assert!(json.starts_with('{') && json.ends_with('}'), "{json}");
        assert!(json.contains("\"t\\\"1\""), "{json}");
        assert!(json.contains("\"batch_size\""), "{json}");
        assert!(json.contains("\"faults\""), "{json}");
        assert!(json.contains("\"worker_panics\""), "{json}");
        assert!(json.contains("\"retry_after_us\""), "{json}");
        // Balanced braces and quotes outside escapes.
        let depth = json.chars().fold(0i32, |d, c| d + (c == '{') as i32 - (c == '}') as i32);
        assert_eq!(depth, 0);
    }
}
