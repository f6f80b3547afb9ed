//! Thread-local recycling of kernel buffers. One pool per thread serves both the
//! inference arena and the training step's working set.
//!
//! Every size-proportional `f32` buffer this crate allocates (kernel outputs, gradient
//! accumulators, compactions of strided views, `zeros` / `full`, concatenations) comes
//! from [`alloc_zeroed`] or [`alloc_for_extend`], which first consult this thread's free
//! list. What they return is a [`Storage`]: the `Vec` plus the id of the pool that issued
//! it. Scratch that kernel chunks allocate wherever the fan-out runs them (packing
//! panels, score tiles) and small per-row statistics stay plain `Vec`s.
//!
//! **Ownership.** A buffer belongs to the pool of the thread that issued it. An
//! [`NdArray`] and all its views share one `Storage` behind an `Arc`; when the last
//! handle drops (a tape node, a tensor captured by a backward closure, a gradient, a
//! temporary) on the issuing thread, `Storage::drop` offers the `Vec` back to that
//! thread's free list. Dropped on another thread, or while the thread's locals are
//! being torn down, it is simply freed. A buffer the pool did not issue
//! ([`NdArray::from_vec`], `randn`) never comes back on drop: only what the pool handed
//! out returns by itself. [`recycle`] is the explicit door of the serving arena, which
//! also takes small and caller-built buffers; [`POOL_MIN_BYTES`] states the one rule
//! that bounds what both doors leave in the list. The free lists hold raw `Vec`s, never
//! a `Storage`, so evicting an entry cannot re-enter the pool.
//!
//! Reused buffers are re-zeroed or fully overwritten exactly like fresh ones, so pooling
//! never changes a numerical result: a pooled allocation is bit-identical to a fresh
//! `vec![0.0; len]`. Reuse is by capacity (smallest sufficient), not by shape, so
//! differently-shaped batches share one working set.
//!
//! The pool is **byte-denominated**: sizing ([`pool_reserve`], the retention rule, the
//! stats) is in bytes, and alongside the `f32` list there is an `i16` list for the int8
//! packing scratch of the quantized GEMM. Each element type keeps its own list (a
//! `Vec<f32>` allocation cannot be retyped in safe Rust), but both share one stats block
//! and the one retention rule. Kernels that fan work out to the worker pool allocate
//! their outputs on the calling thread before the fan-out, so outputs return to the
//! caller's pool whichever thread wrote them.

use std::cell::RefCell;
use std::mem::size_of;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::NdArray;

/// The retention rule, for both doors and both lists.
///
/// * **Drop door.** A buffer this thread's pool issued returns to it when its `Storage`
///   drops, if it holds at least `POOL_MIN_BYTES`: the sizes the allocator gets from the
///   kernel and hands back to it (`mmap` / `munmap`, heap growth and trim, a page fault
///   per 4 KiB on first touch), which is what a training step paid for every step.
///   Smaller buffers cost the allocator a free-list operation and are left to it. The
///   value is twice glibc's default `M_MMAP_THRESHOLD`, and measured, not derived: at
///   128 KiB itself the pool kept the few 128 to 160 KiB buffers of a short-series
///   step, which bought nothing and hid their frees from glibc, whose trim threshold
///   adapts to the largest chunk it has seen freed; the worker threads' arenas were
///   then trimmed at the default and the run took 60 to 100 % more minor page faults
///   and 14 % more memory (DESIGN.md). Lower floors cost far more memory for no speed.
/// * **Bound.** Pooled + live bytes never exceed 9/8 of the most bytes the thread ever
///   had live at once (its high-water since [`pool_reset`]). Only a miss can push them
///   over, so only a miss evicts: before it allocates, it frees pooled buffers,
///   smallest (cheapest to make again) first, until the bound holds. The eighth is the
///   slack a cycle needs: at the moment a step's live bytes peak, a few buffers sit
///   free that nothing live then could have used but an earlier phase of the next step
///   will (6.6 % in `tests/pool_steady_state.rs`, 1.3 % on a long-series step); with
///   no slack they are evicted at every peak and missed in every step. A steady cycle
///   of identical steps therefore misses nothing and evicts nothing, and a thread that
///   interleaves shapes converges on the buffers of its largest.
/// * **Explicit door.** [`recycle`] and the kernels' own `give_back` waive the size
///   floor, so the serving arena keeps re-using its ≈ 15 KB activations, under the same
///   bound. A request below the floor never takes a buffer at or above it, so small
///   tensors cannot pin the large ones a step needs next. Recycling a buffer the caller
///   built adds bytes like a miss does, and makes room the same way first.
///   [`pool_reserve`] sizes the list ahead of the high-water; what it adds comes under
///   the bound at the next miss.
pub(crate) const POOL_MIN_BYTES: usize = 256 << 10;

/// Largest buffer (in bytes, 64 MiB) any pool retains; bigger ones are dropped.
pub(crate) const MAX_POOLED_BYTES: usize = 1 << 26;

/// Source of pool ids. 0 marks a buffer no pool issued.
static NEXT_POOL_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static POOL: RefCell<Pool> = const { RefCell::new(Pool::new()) };
}

/// Counters describing the pool's behaviour on this thread (for tests and diagnostics).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolStats {
    /// Allocations served from the free lists.
    pub reused: u64,
    /// Allocations that fell through to the system allocator.
    pub fresh: u64,
    /// Buffers returned to the free lists, by [`recycle`], a kernel's internal return or
    /// the drop of their storage.
    pub recycled: u64,
    /// Recycle attempts that could not reclaim the storage (shared or oversized).
    pub dropped: u64,
    /// Bytes served from the free lists (requested sizes, not capacities).
    pub reused_bytes: u64,
    /// Bytes that fell through to the system allocator.
    pub fresh_bytes: u64,
    /// Fresh allocations of at least the size the drop door retains: the misses that
    /// cost a trip to the kernel. Zero per step once a fixed-shape training loop is warm.
    pub large_fresh: u64,
    /// Bytes (capacities) of buffers this thread's pool issued that are still alive. A
    /// buffer dropped on another thread stays counted here.
    pub live_bytes: u64,
    /// Highest `live_bytes` since the thread started, [`pool_reset`] or
    /// [`pool_restart_high_water`].
    pub high_water_bytes: u64,
    /// Bytes (capacities) waiting in the free lists.
    pub pooled_bytes: u64,
}

impl PoolStats {
    const fn new() -> Self {
        Self {
            reused: 0,
            fresh: 0,
            recycled: 0,
            dropped: 0,
            reused_bytes: 0,
            fresh_bytes: 0,
            large_fresh: 0,
            live_bytes: 0,
            high_water_bytes: 0,
            pooled_bytes: 0,
        }
    }
}

/// An element type with a free list of its own.
trait Elem: Copy + 'static {
    const ZERO: Self;
    fn list(pool: &mut Pool) -> &mut Vec<Vec<Self>>;
}

impl Elem for f32 {
    const ZERO: f32 = 0.0;
    fn list(pool: &mut Pool) -> &mut Vec<Vec<f32>> {
        &mut pool.f32s
    }
}

impl Elem for i16 {
    const ZERO: i16 = 0;
    fn list(pool: &mut Pool) -> &mut Vec<Vec<i16>> {
        &mut pool.i16s
    }
}

/// One thread's pool: its id, its counters and a free list per element type, each kept
/// sorted by capacity: best fit is a binary search, eviction takes from the front.
struct Pool {
    /// Assigned when the thread first issues a buffer; 0 until then.
    id: u64,
    stats: PoolStats,
    /// Highest `stats.live_bytes` since [`pool_reset`]: the yardstick of the retention
    /// rule, which [`pool_restart_high_water`] must not move.
    peak: u64,
    f32s: Vec<Vec<f32>>,
    i16s: Vec<Vec<i16>>,
}

impl Pool {
    const fn new() -> Self {
        Self { id: 0, stats: PoolStats::new(), peak: 0, f32s: Vec::new(), i16s: Vec::new() }
    }

    /// Pops the smallest pooled buffer with room for `len` elements. A request below
    /// [`POOL_MIN_BYTES`] is never served by a buffer at or above it.
    fn pop_fit<T: Elem>(&mut self, len: usize) -> Option<Vec<T>> {
        let free = T::list(self);
        let i = free.partition_point(|b| b.capacity() < len);
        let bytes = size_of::<T>() * free.get(i)?.capacity();
        if size_of::<T>() * len < POOL_MIN_BYTES && bytes >= POOL_MIN_BYTES {
            return None;
        }
        let buf = free.remove(i);
        self.stats.pooled_bytes -= bytes as u64;
        Some(buf)
    }

    /// Before `incoming` more bytes join the live or pooled ones: frees pooled buffers,
    /// smallest first, until pooled + live bytes fit under the bound of
    /// [`POOL_MIN_BYTES`] again or none is left. Called on a miss, so no pooled buffer
    /// could have served the request.
    fn make_room<T: Elem>(&mut self, incoming: usize) {
        let peak = self.peak.max(self.stats.live_bytes + incoming as u64);
        let held = self.stats.pooled_bytes + self.stats.live_bytes + incoming as u64;
        let excess = held.saturating_sub(peak + peak / 8);
        if excess == 0 {
            return;
        }
        let free = T::list(self);
        let (mut evicted, mut freed) = (0, 0);
        while evicted < free.len() && freed < excess {
            freed += (size_of::<T>() * free[evicted].capacity()) as u64;
            evicted += 1;
        }
        free.drain(..evicted);
        self.stats.pooled_bytes -= freed;
    }

    /// Files `buf` in its free list (contents irrelevant: reuse re-zeroes or
    /// overwrites). `true` when retained.
    fn keep<T: Elem>(&mut self, buf: Vec<T>) -> bool {
        let bytes = size_of::<T>() * buf.capacity();
        if bytes > MAX_POOLED_BYTES {
            return false;
        }
        let free = T::list(self);
        let i = free.partition_point(|b| b.capacity() < buf.capacity());
        free.insert(i, buf);
        self.stats.pooled_bytes += bytes as u64;
        true
    }

    /// [`Pool::keep`] for a buffer coming back through a door: counts the outcome.
    fn take_back<T: Elem>(&mut self, buf: Vec<T>) -> bool {
        let ok = self.keep(buf);
        if ok {
            self.stats.recycled += 1;
        } else {
            self.stats.dropped += 1;
        }
        ok
    }

    /// Takes `bytes` off the live count when `issuer` is this pool; says whether it was.
    fn settle(&mut self, issuer: u64, bytes: usize) -> bool {
        let own = issuer != 0 && issuer == self.id;
        if own {
            self.stats.live_bytes = self.stats.live_bytes.saturating_sub(bytes as u64);
        }
        own
    }
}

/// Issues a buffer of `len` elements — zero-filled, or empty with capacity for `len` —
/// from this thread's pool, together with the pool's id.
fn obtain<T: Elem>(len: usize, zeroed: bool) -> (Vec<T>, u64) {
    let bytes = size_of::<T>() * len;
    POOL.with(|p| {
        let mut p = p.borrow_mut();
        let pooled = p.pop_fit::<T>(len);
        let hit = pooled.is_some();
        let buf = match pooled {
            Some(mut buf) => {
                buf.clear();
                if zeroed {
                    buf.resize(len, T::ZERO);
                }
                buf
            }
            None => {
                p.make_room::<T>(bytes);
                if zeroed {
                    vec![T::ZERO; len]
                } else {
                    Vec::with_capacity(len)
                }
            }
        };
        let stats = &mut p.stats;
        if hit {
            stats.reused += 1;
            stats.reused_bytes += bytes as u64;
        } else {
            stats.fresh += 1;
            stats.fresh_bytes += bytes as u64;
            stats.large_fresh += u64::from(bytes >= POOL_MIN_BYTES);
        }
        stats.live_bytes += (size_of::<T>() * buf.capacity()) as u64;
        stats.high_water_bytes = stats.high_water_bytes.max(stats.live_bytes);
        p.peak = p.peak.max(p.stats.live_bytes);
        if p.id == 0 {
            // Relaxed: the id only has to be unique, it publishes nothing.
            p.id = NEXT_POOL_ID.fetch_add(1, Ordering::Relaxed);
        }
        (buf, p.id)
    })
}

/// The kernels' explicit return of a scratch buffer they took from [`obtain`].
fn give_back<T: Elem>(buf: Vec<T>) -> bool {
    let bytes = size_of::<T>() * buf.capacity();
    // `try_with`: callers return scratch from `Drop` impls, which must not panic.
    POOL.try_with(|p| {
        let mut p = p.borrow_mut();
        p.stats.live_bytes = p.stats.live_bytes.saturating_sub(bytes as u64);
        p.take_back(buf)
    })
    .unwrap_or(false)
}

/// The `i16` list: int8 packing scratch of the quantized GEMM.
pub(crate) mod pool_i16 {
    /// Allocates a zero-filled buffer of `len` elements through the pool.
    pub(crate) fn alloc_zeroed(len: usize) -> Vec<i16> {
        super::obtain(len, true).0
    }

    /// Returns a buffer to the list. `true` when retained.
    pub(crate) fn give_back(buf: Vec<i16>) -> bool {
        super::give_back(buf)
    }
}

/// The flat buffer behind an [`NdArray`], tagged with the pool that issued it (0 for a
/// buffer the caller built). Dropping it is the pool's drop door.
#[derive(Debug)]
pub(crate) struct Storage {
    data: Vec<f32>,
    issuer: u64,
}

impl Storage {
    /// Takes the buffer out without offering it to the pool; the tag comes with it.
    fn disarm(mut self) -> (Vec<f32>, u64) {
        (std::mem::take(&mut self.data), std::mem::replace(&mut self.issuer, 0))
    }

    /// Hands the buffer to the caller and out of the pool's accounting.
    pub(crate) fn into_vec(self) -> Vec<f32> {
        let (buf, issuer) = self.disarm();
        let _ = POOL.try_with(|p| p.borrow_mut().settle(issuer, 4 * buf.capacity()));
        buf
    }
}

impl From<Vec<f32>> for Storage {
    fn from(data: Vec<f32>) -> Self {
        Self { data, issuer: 0 }
    }
}

impl Deref for Storage {
    type Target = Vec<f32>;
    fn deref(&self) -> &Vec<f32> {
        &self.data
    }
}

impl DerefMut for Storage {
    fn deref_mut(&mut self) -> &mut Vec<f32> {
        &mut self.data
    }
}

#[cfg(test)]
impl PartialEq<Vec<f32>> for Storage {
    fn eq(&self, other: &Vec<f32>) -> bool {
        self.data == *other
    }
}

impl Drop for Storage {
    fn drop(&mut self) {
        if self.issuer == 0 {
            return;
        }
        let (buf, issuer) = (std::mem::take(&mut self.data), self.issuer);
        let bytes = 4 * buf.capacity();
        // `try_with`: a tensor held by another thread-local may drop after this one is
        // gone; the buffer is then freed like any other `Vec`.
        let _ = POOL.try_with(|p| {
            let mut p = p.borrow_mut();
            if p.settle(issuer, bytes) && bytes >= POOL_MIN_BYTES {
                p.take_back(buf);
            }
        });
    }
}

/// Allocates a zero-filled `f32` buffer of `len` elements through the pool. For
/// **accumulator** outputs (matmul, fused attention) whose kernels add into the buffer.
pub(crate) fn alloc_zeroed(len: usize) -> Storage {
    let (data, issuer) = obtain(len, true);
    Storage { data, issuer }
}

/// Allocates an **empty** `f32` buffer with capacity for `len` elements through the
/// pool. For full-overwrite outputs (elementwise maps, broadcasts) that fill by
/// `push`/`extend` — no redundant zero pass.
pub(crate) fn alloc_for_extend(len: usize) -> Storage {
    let (data, issuer) = obtain(len, false);
    Storage { data, issuer }
}

/// Offers an array's storage back to this thread's pool, whatever its size.
///
/// Succeeds (returns `true`) only when the storage is uniquely owned — i.e. no other
/// `NdArray` views alias it — and small enough to retain. Otherwise the array is
/// dropped normally and `false` is returned, so recycling a still-aliased intermediate
/// is always safe.
pub fn recycle(a: NdArray) -> bool {
    let Ok(storage) = Arc::try_unwrap(a.storage) else {
        POOL.with(|p| p.borrow_mut().stats.dropped += 1);
        return false;
    };
    let (buf, issuer) = storage.disarm();
    let bytes = 4 * buf.capacity();
    POOL.with(|p| {
        let mut p = p.borrow_mut();
        if !p.settle(issuer, bytes) {
            p.make_room::<f32>(bytes);
        }
        p.take_back(buf)
    })
}

/// Pre-sizes this thread's pool for a known set of upcoming allocations.
///
/// `byte_lens` lists buffer sizes in **bytes** — the slot capacities of a compiled
/// plan's activation arena, which the planner sizes in bytes precisely so callers
/// holding mixed-precision plans need no dtype arithmetic here. Today every arena slot
/// is `f32` activation storage, so each request is rounded up to whole `f32` elements
/// and reserved on the `f32` list. The effect is that of allocating every request at
/// once (largest first, best fit) and returning them all, without touching the
/// counters: free buffers that already cover a request are kept, and only the uncovered
/// remainder is allocated, with capacity but no contents. Requests above the per-buffer
/// bound (64 MiB) are skipped.
pub fn pool_reserve(byte_lens: &[usize]) {
    let mut lens: Vec<usize> = byte_lens
        .iter()
        .map(|&b| b.div_ceil(4))
        .filter(|&l| l > 0 && 4 * l <= MAX_POOLED_BYTES)
        .collect();
    lens.sort_unstable_by(|a, b| b.cmp(a));
    POOL.with(|p| {
        let mut p = p.borrow_mut();
        let mut held: Vec<Vec<f32>> = Vec::with_capacity(lens.len());
        for len in lens {
            let covered = p.pop_fit(len);
            held.push(covered.unwrap_or_else(|| {
                p.make_room::<f32>(4 * len);
                Vec::with_capacity(len)
            }));
        }
        for buf in held {
            p.keep(buf);
        }
    });
}

/// Current pool counters for this thread.
pub fn pool_stats() -> PoolStats {
    POOL.with(|p| p.borrow().stats)
}

/// Restarts [`PoolStats::high_water_bytes`] from the bytes live now, so that its next
/// reading is the peak since this call (the trainer brackets an epoch with it).
pub fn pool_restart_high_water() {
    POOL.with(|p| {
        let stats = &mut p.borrow_mut().stats;
        stats.high_water_bytes = stats.live_bytes;
    });
}

/// Resets the counters and drops every pooled buffer (both element types) on this
/// thread. Buffers still alive stay counted in [`PoolStats::live_bytes`].
pub fn pool_reset() {
    POOL.with(|p| {
        let mut p = p.borrow_mut();
        let live = p.stats.live_bytes;
        p.f32s.clear();
        p.i16s.clear();
        p.stats = PoolStats { live_bytes: live, high_water_bytes: live, ..PoolStats::new() };
        p.peak = live;
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_without_recycling_is_always_fresh() {
        pool_reset();
        let a = alloc_zeroed(16);
        assert_eq!(a, vec![0.0; 16]);
        assert_eq!(pool_stats().reused, 0);
        assert!(pool_stats().fresh >= 1);
        pool_reset();
    }

    #[test]
    fn recycled_buffer_is_reused_and_rezeroed() {
        pool_reset();
        let mut a = NdArray::from_vec(vec![1.0; 32], &[32]).unwrap();
        a.as_mut_slice()[0] = 42.0;
        assert!(recycle(a));
        assert_eq!(pool_stats().recycled, 1);
        // Smaller request reuses the same capacity and comes back zeroed.
        let b = alloc_zeroed(20);
        assert_eq!(b, vec![0.0; 20]);
        assert_eq!(pool_stats().reused, 1);
        pool_reset();
    }

    #[test]
    fn shared_storage_is_not_recycled() {
        pool_reset();
        let a = NdArray::from_vec(vec![1.0; 8], &[8]).unwrap();
        let alias = a.clone();
        assert!(!recycle(a));
        assert_eq!(pool_stats().recycled, 0);
        assert_eq!(alias.as_slice()[0], 1.0);
        pool_reset();
    }

    #[test]
    fn reserve_presizes_so_first_allocations_hit() {
        pool_reset();
        pool_reserve(&[4 * 64, 4 * 16]);
        let a = alloc_zeroed(60);
        let b = alloc_for_extend(16);
        let stats = pool_stats();
        assert_eq!(stats.reused, 2);
        assert_eq!(stats.fresh, 0);
        assert_eq!(stats.reused_bytes, 4 * (60 + 16));
        assert_eq!(a, vec![0.0; 60]);
        assert!(b.is_empty() && b.capacity() >= 16);
        pool_reset();
    }

    #[test]
    fn reserve_rounds_partial_elements_up() {
        pool_reset();
        // 13 bytes must yield a buffer that can hold 4 f32s, not 3.
        pool_reserve(&[13]);
        let a = alloc_zeroed(4);
        assert_eq!(pool_stats().reused, 1);
        assert_eq!(a, vec![0.0; 4]);
        pool_reset();
    }

    #[test]
    fn reserve_keeps_existing_buffers_that_already_fit() {
        pool_reset();
        assert!(recycle(NdArray::from_vec(vec![0.0; 100], &[100]).unwrap()));
        pool_reserve(&[4 * 80, 4 * 24]);
        // The 100-cap buffer covers the 80 request; only the 24 is allocated fresh.
        let big = alloc_zeroed(80);
        let small = alloc_zeroed(24);
        assert!(big.capacity() >= 100, "existing buffer should serve the large request");
        assert!(small.capacity() < 100);
        assert_eq!(pool_stats().reused, 2);
        pool_reset();
    }

    #[test]
    fn reserve_skips_oversized_requests() {
        pool_reset();
        pool_reserve(&[MAX_POOLED_BYTES + 4]);
        let _ = alloc_zeroed(8);
        assert_eq!(pool_stats().fresh, 1);
        pool_reset();
    }

    #[test]
    fn best_fit_prefers_the_smallest_sufficient_buffer() {
        pool_reset();
        assert!(recycle(NdArray::from_vec(vec![0.0; 100], &[100]).unwrap()));
        assert!(recycle(NdArray::from_vec(vec![0.0; 10], &[10]).unwrap()));
        let b = alloc_zeroed(8);
        assert!(b.capacity() < 100, "should have picked the 10-element buffer");
        pool_reset();
    }

    #[test]
    fn typed_pools_recycle_independently_of_f32() {
        pool_reset();
        // Seed the i16 list by giving a buffer back, then reuse it.
        assert!(pool_i16::give_back(Vec::with_capacity(64)));
        let qa = pool_i16::alloc_zeroed(48);
        assert_eq!(qa, vec![0i16; 48]);
        let stats = pool_stats();
        assert_eq!(stats.reused, 1);
        assert_eq!(stats.reused_bytes, 2 * 48);
        // f32 list is untouched: an f32 request still falls through fresh.
        let f = alloc_zeroed(16);
        assert_eq!(f, vec![0.0; 16]);
        assert_eq!(pool_stats().fresh, 1);
        pool_reset();
    }

    /// Elements of a buffer at the drop door's floor.
    const FLOOR: usize = POOL_MIN_BYTES / 4;

    #[test]
    fn a_dropped_large_buffer_returns_and_a_small_or_foreign_one_does_not() {
        pool_reset();
        drop(NdArray::zeros(&[FLOOR]));
        assert_eq!(pool_stats().recycled, 1, "the last handle's drop is the door");
        assert_eq!(pool_stats().pooled_bytes, POOL_MIN_BYTES as u64);
        drop(NdArray::zeros(&[FLOOR - 1]));
        drop(NdArray::from_vec(vec![0.0; 2 * FLOOR], &[2 * FLOOR]).unwrap());
        assert_eq!(pool_stats().recycled, 1, "below the floor, or not the pool's to keep");
        assert_eq!(pool_stats().live_bytes, 0);
        // A view keeps the storage alive; the buffer returns when the last one goes.
        let a = NdArray::zeros(&[2, FLOOR]);
        let view = a.index_axis0(1).unwrap();
        assert_eq!(pool_stats().reused, 0, "twice the floor does not fit the pooled buffer");
        drop(a);
        assert_eq!(pool_stats().recycled, 1);
        drop(view);
        assert_eq!(pool_stats().recycled, 2);
        pool_reset();
    }

    #[test]
    fn into_vec_takes_the_buffer_out_of_the_accounting() {
        pool_reset();
        let a = NdArray::zeros(&[FLOOR]);
        assert_eq!(pool_stats().live_bytes, POOL_MIN_BYTES as u64);
        let v = a.into_vec();
        assert_eq!(pool_stats().live_bytes, 0);
        drop(v);
        assert_eq!(pool_stats().recycled, 0, "a plain Vec is the caller's");
        assert_eq!(pool_stats().high_water_bytes, POOL_MIN_BYTES as u64);
        pool_reset();
    }

    #[test]
    fn a_small_request_never_takes_a_large_buffer() {
        pool_reset();
        // Enough alive that the misses below stay under the bound and evict nothing.
        let _alive = NdArray::zeros(&[16 * FLOOR]);
        drop(NdArray::zeros(&[FLOOR]));
        let small = alloc_zeroed(FLOOR - 1);
        assert_eq!(pool_stats().reused, 0);
        drop(small);
        let large = alloc_zeroed(FLOOR);
        assert_eq!(pool_stats().reused, 1);
        drop(large);
        pool_reset();
    }

    #[test]
    fn a_miss_evicts_only_what_exceeds_the_bound() {
        pool_reset();
        // Three buffers live at once set the high-water; all three return.
        let held: Vec<Storage> = (0..3).map(|_| alloc_zeroed(FLOOR)).collect();
        drop(held);
        let at_rest = pool_stats();
        assert_eq!((at_rest.pooled_bytes, at_rest.live_bytes), (3 * POOL_MIN_BYTES as u64, 0));
        // A request too large for any of them: pooled 3 + live 2 is over 9/8 of the new
        // high-water 3 (the old one), so the miss frees two of the three before it
        // allocates, and leaves the third, which still fits.
        let big = alloc_zeroed(2 * FLOOR);
        let after = pool_stats();
        assert_eq!(after.large_fresh, 4);
        assert_eq!(after.pooled_bytes, POOL_MIN_BYTES as u64);
        assert!(after.pooled_bytes + after.live_bytes <= after.high_water_bytes * 9 / 8);
        drop(big);
        // The same request again is a hit and evicts nothing.
        let again = alloc_zeroed(2 * FLOOR);
        assert_eq!(pool_stats().reused, 1);
        assert_eq!(pool_stats().pooled_bytes, POOL_MIN_BYTES as u64);
        drop(again);
        pool_reset();
    }

    #[test]
    fn reset_and_restart_keep_live_buffers_counted() {
        pool_reset();
        let a = NdArray::zeros(&[FLOOR]);
        drop(NdArray::zeros(&[2 * FLOOR]));
        assert_eq!(pool_stats().high_water_bytes, 3 * POOL_MIN_BYTES as u64);
        pool_restart_high_water();
        assert_eq!(pool_stats().high_water_bytes, POOL_MIN_BYTES as u64);
        assert_eq!(pool_stats().pooled_bytes, 2 * POOL_MIN_BYTES as u64, "restart evicts nothing");
        pool_reset();
        let s = pool_stats();
        assert_eq!(
            (s.live_bytes, s.high_water_bytes, s.pooled_bytes),
            (POOL_MIN_BYTES as u64, POOL_MIN_BYTES as u64, 0)
        );
        drop(a);
        assert_eq!(pool_stats().live_bytes, 0);
        pool_reset();
    }
}
