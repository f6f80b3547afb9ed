//! Deterministic runtime fault injection for the serving tier.
//!
//! PR 8's `rita_verify::mutate` proved the exactness-oracle value of injected faults
//! for *static* checking; this module applies the same discipline to the *runtime*.
//! Each injection point sits on a real failure path of the [`Server`](crate::Server):
//!
//! | point | fires as | exercises |
//! |---|---|---|
//! | `worker_panic` | `panic!` inside a worker's batch | catch-unwind isolation, the in-place worker restart, the circuit breaker |
//! | `slow_batch` | a sleep before the batch forward | hard-deadline cancellation of a request that expires while its batch computes |
//! | `poison_logits` | the batch output replaced with NaN | non-finite detection, quarantine + last-good rollback |
//! | `corrupt_publish` | one byte of the checkpoint file flipped in `publish_path` | the checkpoint's CRC trailer, publish rejection with traffic on last-good |
//!
//! Injection is **runtime-scoped and default-off**: every hook first checks one
//! relaxed atomic, so an un-injected server pays a single load per batch. A
//! [`ChaosGuard`] from [`inject`] owns a process-wide serialization lock (chaos tests
//! cannot race each other), installs a panic hook that silences the injected panics'
//! backtraces, and disarms everything on drop. Firing is counter-based
//! (`every`/`limit` per point), so a given config produces the same fault schedule on
//! every run — the property `tests/fault_tolerance.rs` leans on.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

use rita_tensor::NdArray;

/// When one injection point fires: on every `every`-th visit, at most `limit` times
/// (`every == 0` disables the point; `limit == 0` means unlimited).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Injection {
    /// Fire on every `every`-th visit to the point (0 = never).
    pub every: u64,
    /// Stop after this many firings (0 = no cap).
    pub limit: u64,
}

impl Injection {
    /// The disabled injection.
    pub const OFF: Injection = Injection { every: 0, limit: 0 };

    /// Fires on every `n`-th visit, forever.
    pub fn every(n: u64) -> Self {
        Self { every: n, limit: 0 }
    }

    /// Fires on the first visit only.
    pub fn once() -> Self {
        Self { every: 1, limit: 1 }
    }

    /// Fires on the first `n` visits.
    pub fn times(n: u64) -> Self {
        Self { every: 1, limit: n }
    }
}

/// Which faults to inject, one [`Injection`] schedule per point.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChaosConfig {
    /// Panic a worker mid-batch (after the batch left the queue, before its forward).
    pub worker_panic: Injection,
    /// Sleep `slow_batch_delay` before a batch's forward.
    pub slow_batch: Injection,
    /// How long a fired `slow_batch` sleeps.
    pub slow_batch_delay: Duration,
    /// Replace a batch's logits with NaN after the forward.
    pub poison_logits: Injection,
    /// Flip one byte of the checkpoint bytes read by
    /// [`ModelRegistry::publish_path`](crate::ModelRegistry::publish_path).
    pub corrupt_publish: Injection,
}

/// How often each point has fired under the current [`ChaosGuard`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChaosStats {
    /// Worker panics injected.
    pub worker_panics: u64,
    /// Batches slowed.
    pub slow_batches: u64,
    /// Batches poisoned.
    pub poisoned_logits: u64,
    /// Publishes corrupted.
    pub corrupted_publishes: u64,
}

/// The message injected worker panics carry; the guard's panic hook silences
/// payloads with this prefix so chaos tests do not spray backtraces.
pub const PANIC_MESSAGE: &str = "chaos: injected worker panic";

static ACTIVE: AtomicBool = AtomicBool::new(false);
static CONFIG: Mutex<ChaosConfig> = Mutex::new(ChaosConfig {
    worker_panic: Injection::OFF,
    slow_batch: Injection::OFF,
    slow_batch_delay: Duration::ZERO,
    poison_logits: Injection::OFF,
    corrupt_publish: Injection::OFF,
});
/// Serializes chaos scopes across threads: the global config cannot race between two
/// concurrently running chaos tests in one process.
static SERIAL: Mutex<()> = Mutex::new(());

struct Point {
    calls: AtomicU64,
    fires: AtomicU64,
}

impl Point {
    const fn new() -> Self {
        Self { calls: AtomicU64::new(0), fires: AtomicU64::new(0) }
    }

    fn reset(&self) {
        self.calls.store(0, Ordering::Relaxed);
        self.fires.store(0, Ordering::Relaxed);
    }

    /// Counts one visit and decides whether the point fires under `inj`.
    fn fire(&self, inj: Injection) -> bool {
        if inj.every == 0 {
            return false;
        }
        let call = self.calls.fetch_add(1, Ordering::Relaxed) + 1;
        if !call.is_multiple_of(inj.every) {
            return false;
        }
        if inj.limit != 0 && self.fires.load(Ordering::Relaxed) >= inj.limit {
            return false;
        }
        self.fires.fetch_add(1, Ordering::Relaxed);
        true
    }
}

static WORKER_PANIC: Point = Point::new();
static SLOW_BATCH: Point = Point::new();
static POISON_LOGITS: Point = Point::new();
static CORRUPT_PUBLISH: Point = Point::new();

/// Scoped fault injection: holds the injected [`ChaosConfig`] active until dropped.
///
/// Holding the guard also holds the process-wide chaos serialization lock — a second
/// `inject` from another thread blocks until this scope ends.
pub struct ChaosGuard {
    _serial: MutexGuard<'static, ()>,
}

impl Drop for ChaosGuard {
    fn drop(&mut self) {
        ACTIVE.store(false, Ordering::SeqCst);
        // Pop our silencing hook (reinstalls the default); counters stay readable
        // through `stats()` until the next `inject`. The hook registry cannot be
        // touched from a panicking thread (it would abort the process mid-unwind,
        // exactly when a failing chaos test drops its guard) — in that case leave the
        // hook installed; it chains to the previous one and the next `inject` swaps it.
        if !std::thread::panicking() {
            drop(std::panic::take_hook());
        }
    }
}

/// Arms `config` and returns the guard that keeps it active.
///
/// Deterministic by construction: per-point counters restart at zero, so the same
/// config yields the same fault schedule on every run.
pub fn inject(config: ChaosConfig) -> ChaosGuard {
    let serial = crate::lock_mx(&SERIAL);
    for p in [&WORKER_PANIC, &SLOW_BATCH, &POISON_LOGITS, &CORRUPT_PUBLISH] {
        p.reset();
    }
    *crate::lock_mx(&CONFIG) = config;
    // Injected panics are expected control flow for a worker's restart path; keep
    // them off stderr. Anything else still reaches the previous hook.
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let silenced = info.payload().downcast_ref::<&str>().is_some_and(|s| *s == PANIC_MESSAGE)
            || info.payload().downcast_ref::<String>().is_some_and(|s| s == PANIC_MESSAGE);
        if !silenced {
            prev(info);
        }
    }));
    ACTIVE.store(true, Ordering::SeqCst);
    ChaosGuard { _serial: serial }
}

/// Whether a chaos scope is currently armed.
pub fn active() -> bool {
    ACTIVE.load(Ordering::Relaxed)
}

/// Firing counts for the current (or most recent) chaos scope.
pub fn stats() -> ChaosStats {
    ChaosStats {
        worker_panics: WORKER_PANIC.fires.load(Ordering::Relaxed),
        slow_batches: SLOW_BATCH.fires.load(Ordering::Relaxed),
        poisoned_logits: POISON_LOGITS.fires.load(Ordering::Relaxed),
        corrupted_publishes: CORRUPT_PUBLISH.fires.load(Ordering::Relaxed),
    }
}

/// Server hook: called once per closed batch, before its forward. May sleep
/// (`slow_batch`) and may panic (`worker_panic`) — in that order, so a single config
/// can exercise both.
pub(crate) fn before_batch() {
    if !ACTIVE.load(Ordering::Relaxed) {
        return;
    }
    let cfg = *crate::lock_mx(&CONFIG);
    if SLOW_BATCH.fire(cfg.slow_batch) {
        std::thread::sleep(cfg.slow_batch_delay);
    }
    if WORKER_PANIC.fire(cfg.worker_panic) {
        panic!("{}", PANIC_MESSAGE);
    }
}

/// Server hook: given a batch's logits, returns them poisoned (all-NaN, same shape)
/// when the point fires, unchanged otherwise.
pub(crate) fn poison_logits(logits: NdArray) -> NdArray {
    if !ACTIVE.load(Ordering::Relaxed) {
        return logits;
    }
    let cfg = *crate::lock_mx(&CONFIG);
    if !POISON_LOGITS.fire(cfg.poison_logits) {
        return logits;
    }
    let shape = logits.shape().to_vec();
    let n = shape.iter().product();
    crate::reclaim(logits);
    NdArray::from_vec(vec![f32::NAN; n], &shape).expect("poisoned shape matches element count")
}

/// Registry hook: flips one mid-file byte of the checkpoint bytes about to be parsed
/// by `publish_path` when the point fires.
pub(crate) fn corrupt_publish(bytes: &mut [u8]) {
    if !ACTIVE.load(Ordering::Relaxed) || bytes.is_empty() {
        return;
    }
    let cfg = *crate::lock_mx(&CONFIG);
    if CORRUPT_PUBLISH.fire(cfg.corrupt_publish) {
        let site = bytes.len() / 2;
        rita_verify::flip_byte(bytes, site);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedules_are_deterministic_and_capped() {
        let _guard = inject(ChaosConfig {
            worker_panic: Injection { every: 3, limit: 2 },
            ..Default::default()
        });
        let fired: Vec<bool> =
            (0..12).map(|_| WORKER_PANIC.fire(Injection { every: 3, limit: 2 })).collect();
        // Fires on visits 3 and 6, then the limit caps it.
        assert_eq!(
            fired,
            vec![false, false, true, false, false, true, false, false, false, false, false, false]
        );
        assert_eq!(stats().worker_panics, 2);
    }

    #[test]
    fn disarmed_hooks_are_inert() {
        // Hold the serialization lock with everything OFF: hooks must be no-ops.
        let _guard = inject(ChaosConfig::default());
        before_batch();
        let a = NdArray::from_vec(vec![1.0, 2.0], &[1, 2]).unwrap();
        let b = poison_logits(a);
        assert_eq!(b.as_slice(), &[1.0, 2.0]);
        let mut bytes = vec![0xAAu8; 16];
        corrupt_publish(&mut bytes);
        assert_eq!(bytes, vec![0xAAu8; 16]);
    }
}
