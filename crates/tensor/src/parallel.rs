//! The shared worker fan-out used by every threaded kernel in the workspace: one
//! process-wide pool of parked worker threads, the [`scope`] primitive that hands them
//! borrowed chunks, the one chunked split over mutable output slices built on it
//! ([`scoped_chunks_mut`]: a serial kernel is its one-chunk case), a global worker
//! budget with the multiply-add gate the fused attention and the grouping share, and a
//! per-thread cap so nested fan-outs (a grouping worker issuing matmuls) stay serial
//! instead of oversubscribing the machine.
//!
//! The pool starts on the first chunk any fan-out spawns, so a process that never fans
//! out starts no thread (a serving worker at kernel cap 1 never does). It holds one
//! worker fewer than the machine budget: the caller is the last worker of its own
//! fan-out. While it waits, a caller runs its own scope's not-yet-started chunks, never
//! another caller's, so a fan-out nested inside a chunk always makes progress, whatever
//! the workers are doing, and which thread runs a chunk never changes what it computes.

use std::any::Any;
use std::cell::Cell;
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::ops::Range;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::thread::ThreadId;

/// Upper bound on the threads of any single fan-out, which also bounds the pool at
/// `MAX_THREADS − 1` workers on large machines.
const MAX_THREADS: usize = 16;

thread_local! {
    /// Per-thread override of the worker budget (see [`with_worker_threads`]).
    static THREAD_CAP: Cell<usize> = const { Cell::new(usize::MAX) };
}

/// Machine parallelism, read once. `available_parallelism` is a syscall on Linux
/// (`sched_getaffinity`), and `worker_budget` is consulted on every kernel invocation —
/// including the per-block calls issued inside fan-outs — so the answer is cached for
/// the process lifetime rather than re-queried each time.
fn machine_parallelism() -> usize {
    static CACHED: OnceLock<usize> = OnceLock::new();
    *CACHED.get_or_init(|| std::thread::available_parallelism().map(|t| t.get()).unwrap_or(1))
}

/// Number of worker threads a kernel may fan out to from this thread:
/// `available_parallelism` (cached in a `OnceLock`), capped at 16 and at any
/// [`with_worker_threads`] override.
pub fn worker_budget() -> usize {
    machine_parallelism().min(MAX_THREADS).min(THREAD_CAP.with(|c| c.get()))
}

/// Minimum multiply-adds before a kernel that counts its work that way fans out: the
/// fused attention (`b·h·n·m·(d + d_v)`) and the k-means grouping
/// (`Σ blocks · n · N · d`). Below it the kernel runs as one chunk on the caller. The
/// batched matmul keeps its own gate, on output elements. The value dates from when
/// every fan-out spawned fresh threads and has not been re-measured against the pool.
const MULTIPLY_ADD_THRESHOLD: usize = 64 * 64 * 16;

/// The workers a kernel of `multiply_adds` multiply-adds fans out to: the
/// [`worker_budget`] at or above the shared threshold, else 1.
pub fn fan_out_threads(multiply_adds: usize) -> usize {
    if multiply_adds >= MULTIPLY_ADD_THRESHOLD {
        worker_budget()
    } else {
        1
    }
}

/// Runs `f` with the worker budget on this thread capped at `cap` threads.
///
/// Callers that fan work out across their own pool (e.g. the per-head k-means grouping)
/// wrap their worker bodies in `with_worker_threads(1, ..)` so the kernels they issue
/// stay serial instead of nesting a second fan-out on top of an already saturated
/// machine. The cap is per-thread and restored on exit (panic-safe via a drop guard).
pub fn with_worker_threads<T>(cap: usize, f: impl FnOnce() -> T) -> T {
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            THREAD_CAP.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(THREAD_CAP.with(|c| c.replace(cap.max(1))));
    f()
}

/// A spawned chunk with its borrow lifetime erased (see [`Scope::spawn`]).
type Chunk = Box<dyn FnOnce() + Send + 'static>;

/// Locks `m`. No lock in this module is held while a chunk runs, so none can be
/// poisoned; recovering the guard anyway keeps [`scope`]'s wait free of panics, which
/// the safety argument of [`Scope::spawn`] needs.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// One [`scope`] call's shared state. The caller and the pool workers hold it through
/// an `Arc`, so a worker's stale reference outlives the call harmlessly.
#[derive(Default)]
struct ScopeState {
    /// Spawned chunks no thread has started yet, in spawn order.
    queued: Mutex<VecDeque<Chunk>>,
    /// Spawned chunks that have not finished, queued or running.
    pending: AtomicUsize,
    /// Signalled, under `queued`'s lock, when `pending` falls to zero.
    finished: Condvar,
    /// The payload of the first chunk that panicked.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

impl ScopeState {
    /// Runs one not-yet-started chunk of this scope, if one is left, and reports
    /// whether it did. The chunk runs at the budget a fresh thread has, whichever
    /// thread takes it, and a panic is caught and kept for the caller.
    fn run_one(&self) -> bool {
        let chunk = lock(&self.queued).pop_front();
        let Some(chunk) = chunk else { return false };
        let outcome =
            panic::catch_unwind(AssertUnwindSafe(|| with_worker_threads(usize::MAX, chunk)));
        if let Err(payload) = outcome {
            lock(&self.panic).get_or_insert(payload);
        }
        // Release: publishes the chunk's writes to the caller's `Acquire` load in `wait`.
        if self.pending.fetch_sub(1, Ordering::Release) == 1 {
            let _queued = lock(&self.queued);
            self.finished.notify_one();
        }
        true
    }

    /// Runs this scope's remaining chunks on the calling thread, then sleeps until the
    /// ones pool workers took have finished. Never panics.
    fn wait(&self) {
        while self.run_one() {}
        let mut queued = lock(&self.queued);
        while self.pending.load(Ordering::Acquire) != 0 {
            queued = self.finished.wait(queued).unwrap_or_else(|poisoned| poisoned.into_inner());
        }
    }
}

/// Scopes with a chunk for the pool to take, one entry per spawned chunk. An entry
/// whose chunk its caller already ran is skipped.
static TICKETS: Mutex<VecDeque<Arc<ScopeState>>> = Mutex::new(VecDeque::new());
/// Signalled once per pushed ticket.
static TICKET_READY: Condvar = Condvar::new();

/// The pool's worker threads, started on first use: one fewer than the machine budget
/// (none on a one-CPU machine, where every chunk runs on its caller).
fn pool_workers() -> &'static [ThreadId] {
    static WORKERS: OnceLock<Vec<ThreadId>> = OnceLock::new();
    WORKERS.get_or_init(|| {
        // The handles are dropped: workers run for the life of the process, and a
        // panicking chunk is caught in `run_one`, so a worker never ends.
        (1..machine_parallelism().min(MAX_THREADS))
            .filter_map(|i| {
                let worker = std::thread::Builder::new().name(format!("rita-kernel-{i}"));
                worker.spawn(work).ok().map(|handle| handle.thread().id())
            })
            .collect()
    })
}

/// A pool worker's loop: take a ticket, run one chunk of its scope, repeat.
fn work() {
    loop {
        let scope = {
            let mut tickets = lock(&TICKETS);
            loop {
                if let Some(scope) = tickets.pop_front() {
                    break scope;
                }
                tickets =
                    TICKET_READY.wait(tickets).unwrap_or_else(|poisoned| poisoned.into_inner());
            }
        };
        scope.run_one();
    }
}

/// A fan-out in progress; see [`scope`].
struct Scope<'env> {
    state: Arc<ScopeState>,
    /// Invariant in `'env`, and neither `Send` nor `Sync`, so a chunk cannot carry the
    /// scope to another thread and spawn into it.
    _env: PhantomData<*mut &'env ()>,
}

impl<'env> Scope<'env> {
    /// Queues `f` to run on a pool worker, or on the caller of [`scope`] if it gets
    /// there first. `f` may borrow anything that outlives the `scope` call.
    fn spawn(&self, f: impl FnOnce() + Send + 'env) {
        let chunk: Box<dyn FnOnce() + Send + 'env> = Box::new(f);
        // SAFETY: only the lifetime changes; the two types have one layout. The chunk
        // borrows data that lives for `'env`, which outlives the `scope` call that
        // created `self`. That call cannot return, not even by unwinding, before
        // `pending` is zero (`scope` catches a panic of its closure, and `wait` cannot
        // panic), and `pending` counts this chunk from here until it has run and been
        // dropped: every queued chunk is taken by a worker or by `wait` itself, and the
        // decrement follows the call that consumes it. So no use of the borrow can
        // happen after `'env` ends.
        let chunk = unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + 'env>, Chunk>(chunk) };
        // Relaxed: the increment publishes nothing, and the queue's lock orders it
        // before any thread can take this chunk and decrement.
        self.state.pending.fetch_add(1, Ordering::Relaxed);
        lock(&self.state.queued).push_back(chunk);
        if !pool_workers().is_empty() {
            lock(&TICKETS).push_back(Arc::clone(&self.state));
            TICKET_READY.notify_one();
        }
    }
}

/// Runs `f` with a [`Scope`] whose spawned chunks may borrow from the caller's stack,
/// the shape of `std::thread::scope`, and returns once every chunk has finished.
///
/// The chunks run on the process-wide pool of parked workers and on the calling
/// thread, which takes this scope's own not-yet-started chunks while it waits. Each
/// chunk runs at the budget a fresh thread would have (no [`with_worker_threads`] cap),
/// so a nested fan-out inside it behaves the same whichever thread runs it. With every
/// worker busy a chunk starts only once `f` has returned, so `f` must not wait for
/// one. If `f` or a chunk panics, `scope` still waits for every chunk and then
/// re-raises the payload (`f`'s first, else the first chunk's); pool workers survive
/// the panic.
fn scope<'env, T>(f: impl FnOnce(&Scope<'env>) -> T) -> T {
    let scope = Scope { state: Arc::default(), _env: PhantomData };
    let result = panic::catch_unwind(AssertUnwindSafe(|| f(&scope)));
    scope.state.wait();
    let chunk_panic = lock(&scope.state.panic).take();
    match (result, chunk_panic) {
        (Ok(value), None) => value,
        (Err(payload), _) | (Ok(_), Some(payload)) => panic::resume_unwind(payload),
    }
}

/// Splits `items` logical items into contiguous chunks of up to `per` items and runs
/// `f(range, chunks)` once per chunk, across the worker pool.
///
/// Each of the `K` outputs is a `(slice, width)` pair holding `width` elements per item,
/// so `slice.len()` must be `items · width`; `chunks[i]` is output `i`'s part for the
/// items in `range`. Blocks until every chunk has run, so `f` may borrow from the
/// caller's stack. With `per` at or above `items` (a serial kernel) `f` runs once on
/// the calling thread and the pool is not touched: callers decide the chunking, this
/// helper only owns the splitting and the hand-off.
pub fn scoped_chunks_mut<T: Send, const K: usize>(
    items: usize,
    per: usize,
    outputs: [(&mut [T], usize); K],
    f: impl Fn(Range<usize>, [&mut [T]; K]) + Send + Copy,
) {
    for (data, width) in &outputs {
        assert_eq!(
            data.len(),
            items * width,
            "scoped_chunks_mut: an output does not hold {items} items of {width}"
        );
    }
    if items <= per {
        f(0..items, outputs.map(|(data, _)| data));
        return;
    }
    assert!(per > 0, "scoped_chunks_mut: {items} items cannot split into chunks of 0");
    let mut rest = outputs;
    scope(|s| {
        for start in (0..items).step_by(per) {
            let end = items.min(start + per);
            let chunks = rest.each_mut().map(|(data, width)| {
                let (chunk, tail) = std::mem::take(data).split_at_mut((end - start) * *width);
                *data = tail;
                chunk
            });
            s.spawn(move || f(start..end, chunks));
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::mpsc::{channel, Receiver, Sender};
    use std::time::Duration;

    /// One chunk of a pair that must run at the same time: signals the other chunk,
    /// then waits for its signal and returns the id of the thread it ran on. A pair run
    /// one after the other panics here after a minute instead of hanging.
    fn meet(signal: Sender<()>, wait: Receiver<()>) -> ThreadId {
        let _ = signal.send(());
        wait.recv_timeout(Duration::from_secs(60)).expect("the two chunks never ran at once");
        std::thread::current().id()
    }

    /// One fan-out of two chunks that meet, then run `after`; returns their thread ids.
    fn concurrent_pair(after: fn()) -> [ThreadId; 2] {
        let (to_a, from_b) = channel();
        let (to_b, from_a) = channel();
        let mut ends = [(Some(to_b), Some(from_b), None), (Some(to_a), Some(from_a), None)];
        scoped_chunks_mut(2, 1, [(&mut ends, 1)], |_, [end]| {
            let (signal, wait, ran_on) = &mut end[0];
            *ran_on = Some(meet(signal.take().expect("unused"), wait.take().expect("unused")));
            after();
        });
        ends.map(|(_, _, ran_on)| ran_on.expect("every chunk ran"))
    }

    #[test]
    fn fan_outs_run_on_the_pool_workers_and_the_caller_only() {
        // A fresh thread per chunk would show up here as an id outside the pool. With
        // one CPU there is no pool and every chunk runs on its caller.
        let pool: HashSet<ThreadId> = pool_workers().iter().copied().collect();
        if pool.is_empty() {
            return;
        }
        let caller = std::thread::current().id();
        let mut seen = HashSet::new();
        for _ in 0..100 {
            seen.extend(concurrent_pair(|| {}));
        }
        assert!(
            seen.iter().all(|id| *id == caller || pool.contains(id)),
            "a chunk ran outside the pool: {seen:?} against {pool:?} and caller {caller:?}"
        );
        assert!(seen.iter().any(|id| pool.contains(id)), "no pool worker took a chunk");
    }

    #[test]
    fn a_chunk_panic_reaches_the_caller_and_the_pool_survives_it() {
        // Both chunks of the pair panic, so whichever ran on a pool worker did too.
        let caught = panic::catch_unwind(|| {
            concurrent_pair(|| panic!("chunk failed"));
        });
        let payload = caught.expect_err("the chunk panic must reach the caller");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"chunk failed"));
        // The next fan-outs run every chunk, and the worker is still there to meet.
        scoped_chunks_cover_every_item_exactly_once();
        if !pool_workers().is_empty() {
            concurrent_pair(|| {});
        }
    }

    #[test]
    fn a_fan_out_nested_in_a_chunk_completes() {
        // More chunks than the pool has workers, at both levels: the outer chunks the
        // workers hold wait on inner chunks that only their own callers can run.
        let per_level = pool_workers().len() + 3;
        let mut sums = vec![0usize; per_level];
        scoped_chunks_mut(per_level, 1, [(&mut sums, 1)], |outer, [sum]| {
            let mut inner = vec![0usize; per_level];
            scoped_chunks_mut(per_level, 1, [(&mut inner, 1)], |i, [x]| {
                x[0] = outer.start * per_level + i.start
            });
            sum[0] = inner.iter().sum();
        });
        let n = per_level;
        let expect: Vec<usize> = (0..n).map(|o| o * n * n + n * (n - 1) / 2).collect();
        assert_eq!(sums, expect);
    }

    #[test]
    fn concurrent_callers_get_exact_results() {
        // 8 callers × 500 fan-outs of 8 chunks each share the pool at once; every
        // fan-out must see exactly its own chunks run, each exactly once.
        std::thread::scope(|callers| {
            for caller in 0..8usize {
                callers.spawn(move || {
                    for round in 0..500usize {
                        let mut data = vec![0usize; 64];
                        scoped_chunks_mut(64, 8, [(&mut data, 1)], |items, [chunk]| {
                            for (i, x) in chunk.iter_mut().enumerate() {
                                *x += caller * round + items.start + i;
                            }
                        });
                        let sum: usize = data.iter().sum();
                        assert_eq!(sum, 64 * caller * round + 64 * 63 / 2, "caller {caller}");
                    }
                });
            }
        });
    }

    #[test]
    fn scoped_chunks_cover_every_item_exactly_once() {
        // 10 items of 3 elements, 4 per chunk: workers must see starts 0, 4, 8 and
        // jointly write every element exactly once.
        let mut data = vec![0usize; 30];
        scoped_chunks_mut(10, 4, [(&mut data, 3)], |items, [chunk]| {
            for (i, x) in chunk.iter_mut().enumerate() {
                *x += items.start * 3 + i + 1;
            }
        });
        let expect: Vec<usize> = (1..=30).collect();
        assert_eq!(data, expect);
    }

    #[test]
    fn scoped_chunks_run_inline_when_one_chunk_suffices() {
        let mut data = vec![0u8; 6];
        scoped_chunks_mut(3, 3, [(&mut data, 2)], |items, [chunk]| {
            assert_eq!(items, 0..3);
            assert_eq!(chunk.len(), 6);
            chunk.fill(7);
        });
        assert_eq!(data, vec![7; 6]);
    }

    /// Records, in every element of `items`' part of `chunk`, the range of the chunk
    /// that wrote it; an element already written means two chunks overlapped.
    fn mark(items: &Range<usize>, chunk: &mut [Option<Range<usize>>]) {
        for slot in chunk {
            assert!(slot.is_none(), "element written twice");
            *slot = Some(items.clone());
        }
    }

    /// Checks that every element of an output of `width` elements per item was written
    /// exactly once, by the chunk of at most `per` items whose range covers its item.
    fn written_by_covering_chunk(out: &[Option<Range<usize>>], width: usize, per: usize) {
        for (e, slot) in out.iter().enumerate() {
            let items = slot.as_ref().expect("every element is written");
            assert!(items.contains(&(e / width)), "element {e} written by chunk {items:?}");
            assert_eq!(items.start % per, 0, "chunks start at multiples of {per}");
            assert!(items.len() <= per, "chunk {items:?} holds more than {per} items");
        }
    }

    #[test]
    fn every_output_splits_at_the_same_items_from_1_to_16_chunks() {
        // 16 items split among one output (width 1), two (widths 3 and 1) and three
        // (widths 2, 0 and 5), `per` from 16 (one chunk, run inline) down to 1 (16
        // chunks queued on the pool).
        const ITEMS: usize = 16;
        let fresh = |width: usize| vec![None; ITEMS * width];
        for per in 1..=ITEMS {
            let mut a = fresh(1);
            scoped_chunks_mut(ITEMS, per, [(&mut a, 1)], |items, [a]| mark(&items, a));
            written_by_covering_chunk(&a, 1, per);

            let (mut a, mut b) = (fresh(3), fresh(1));
            scoped_chunks_mut(ITEMS, per, [(&mut a, 3), (&mut b, 1)], |items, [a, b]| {
                mark(&items, a);
                mark(&items, b);
            });
            written_by_covering_chunk(&a, 3, per);
            written_by_covering_chunk(&b, 1, per);

            let (mut a, mut b, mut c) = (fresh(2), fresh(0), fresh(5));
            let outputs = [(&mut a[..], 2), (&mut b[..], 0), (&mut c[..], 5)];
            scoped_chunks_mut(ITEMS, per, outputs, |items, chunks| {
                assert!(chunks[1].is_empty(), "a zero-width output has no elements");
                for chunk in chunks {
                    mark(&items, chunk);
                }
            });
            written_by_covering_chunk(&a, 2, per);
            written_by_covering_chunk(&c, 5, per);
        }
    }

    #[test]
    fn zero_items_run_once_inline() {
        let runs = AtomicUsize::new(0);
        scoped_chunks_mut(0, 0, [(&mut [0u8; 0][..], 4)], |items, [chunk]| {
            assert!(items.is_empty() && chunk.is_empty());
            runs.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(runs.into_inner(), 1);
    }

    #[test]
    fn worker_cap_applies_and_restores() {
        let outer = worker_budget();
        with_worker_threads(1, || {
            assert_eq!(worker_budget(), 1);
            // Nested caps apply innermost-first and unwind in order.
            with_worker_threads(3, || assert_eq!(worker_budget(), 3.min(outer.max(1))));
            assert_eq!(worker_budget(), 1);
        });
        assert_eq!(worker_budget(), outer);
    }

    #[test]
    fn capped_matmul_matches_uncapped() {
        // Exceeds the parallel threshold so the budget is actually consulted.
        let a = crate::NdArray::arange(0.0, 0.001, 80 * 40).reshape(&[80, 40]).unwrap();
        let b = crate::NdArray::arange(1.0, -0.0005, 40 * 80).reshape(&[40, 80]).unwrap();
        let free = a.matmul(&b).unwrap();
        let capped = with_worker_threads(1, || a.matmul(&b).unwrap());
        assert_eq!(free, capped);
    }
}
