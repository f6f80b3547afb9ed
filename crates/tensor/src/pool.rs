//! Opt-in, thread-local recycling of output buffers — the substrate of the inference
//! arena.
//!
//! Every sizeable kernel output in this crate (matmul products, fused-attention outputs)
//! is allocated through [`alloc_zeroed`], which first consults a thread-local free list
//! of returned buffers. The list is only ever filled by explicit [`recycle`] calls, so
//! code that never recycles pays nothing beyond one empty-vec check per allocation and
//! behaves exactly as before. A caller that *does* recycle (the `rita-infer` session
//! arena) gets its buffers back on the next allocation of any fitting size — reuse is by
//! capacity, not by shape, so differently-shaped batches share one working set.
//!
//! Recycled buffers are re-zeroed on reuse, so pooling never changes numerical results:
//! a pooled allocation is bit-identical to a fresh `vec![0.0; len]`.
//!
//! Since the quantized inference path, the pool is **byte-denominated**: sizing
//! ([`pool_reserve`], the per-buffer retention bound, the stats counters) is in bytes,
//! and alongside the `f32` free list there are parallel `i16`/`u16` lists serving the
//! int8 packing scratch and bf16 K/V tiles of the quantized kernels. Each element type
//! keeps its own list (a `Vec<f32>` allocation cannot be retyped in safe Rust), but all
//! three share one stats block and one per-list buffer-count bound.
//!
//! The pool is deliberately bounded ([`MAX_POOLED_BUFFERS`], [`MAX_POOLED_BYTES`]) and
//! thread-local: kernels that fan work out to scoped threads allocate their outputs on
//! the calling thread before spawning, so worker threads never touch the pool.

use std::cell::RefCell;
use std::sync::Arc;

use crate::NdArray;

/// Maximum number of buffers each typed free list retains; further recycles (and
/// further [`pool_reserve`] requests) are dropped. Twice the eight slots of a compiled
/// plan's activation arena, which leaves room for kernel scratch. The cap is blind to
/// size: every slot beyond what a pass re-uses is a full activation kept resident for
/// nothing.
const MAX_POOLED_BUFFERS: usize = 16;
/// Largest buffer (in bytes, 64 MiB) any pool retains; bigger ones are dropped.
pub(crate) const MAX_POOLED_BYTES: usize = 1 << 26;

thread_local! {
    static STATS: RefCell<PoolStats> = const { RefCell::new(PoolStats::new()) };
}

/// Counters describing the pool's behaviour on this thread (for tests and diagnostics).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolStats {
    /// Allocations served from the free lists.
    pub reused: u64,
    /// Allocations that fell through to the system allocator.
    pub fresh: u64,
    /// Buffers successfully returned by [`recycle`] (or a kernel's internal return).
    pub recycled: u64,
    /// Recycle attempts that could not reclaim the storage (shared, oversized, or the
    /// free list was full).
    pub dropped: u64,
    /// Bytes served from the free lists (requested sizes, not capacities).
    pub reused_bytes: u64,
    /// Bytes that fell through to the system allocator.
    pub fresh_bytes: u64,
}

impl PoolStats {
    const fn new() -> Self {
        Self { reused: 0, fresh: 0, recycled: 0, dropped: 0, reused_bytes: 0, fresh_bytes: 0 }
    }
}

fn note_alloc(reused: bool, bytes: usize) {
    STATS.with(|s| {
        let mut s = s.borrow_mut();
        if reused {
            s.reused += 1;
            s.reused_bytes += bytes as u64;
        } else {
            s.fresh += 1;
            s.fresh_bytes += bytes as u64;
        }
    });
}

fn note_recycle(ok: bool) {
    STATS.with(|s| {
        let mut s = s.borrow_mut();
        if ok {
            s.recycled += 1;
        } else {
            s.dropped += 1;
        }
    });
}

/// One typed free list plus the best-fit/recycle/reserve logic, instantiated per
/// element type below. All sizes crossing this boundary are **element counts**; the
/// caller-facing accounting multiplies by the element width.
macro_rules! typed_pool {
    ($mod_name:ident, $ty:ty, $width:expr, $zero:expr) => {
        pub(crate) mod $mod_name {
            use super::*;

            thread_local! {
                static FREE: RefCell<Vec<Vec<$ty>>> = const { RefCell::new(Vec::new()) };
            }

            /// Pops the best-fitting pooled buffer with capacity ≥ `len` (smallest
            /// sufficient, so one giant buffer is not burned on a tiny allocation).
            fn pop_fit(len: usize) -> Option<Vec<$ty>> {
                FREE.with(|f| {
                    let mut free = f.borrow_mut();
                    if free.is_empty() {
                        return None;
                    }
                    let mut best: Option<(usize, usize)> = None;
                    for (i, b) in free.iter().enumerate() {
                        let cap = b.capacity();
                        if cap >= len && best.is_none_or(|(_, c)| cap < c) {
                            best = Some((i, cap));
                        }
                    }
                    best.map(|(i, _)| free.swap_remove(i))
                })
            }

            /// Allocates a zero-filled buffer of `len` elements, reusing a recycled
            /// buffer with sufficient capacity when one is available.
            #[allow(dead_code)] // each width exposes the full family
            pub(crate) fn alloc_zeroed(len: usize) -> Vec<$ty> {
                match pop_fit(len) {
                    Some(mut buf) => {
                        note_alloc(true, $width * len);
                        buf.clear();
                        buf.resize(len, $zero);
                        buf
                    }
                    None => {
                        note_alloc(false, $width * len);
                        vec![$zero; len]
                    }
                }
            }

            /// Allocates an **empty** buffer with capacity for `len` elements, for
            /// full-overwrite fills by `push`/`extend` — no redundant zero pass.
            #[allow(dead_code)] // each width exposes the full family
            pub(crate) fn alloc_for_extend(len: usize) -> Vec<$ty> {
                match pop_fit(len) {
                    Some(mut buf) => {
                        note_alloc(true, $width * len);
                        buf.clear();
                        buf
                    }
                    None => {
                        note_alloc(false, $width * len);
                        Vec::with_capacity(len)
                    }
                }
            }

            /// Returns a raw buffer to this list (contents irrelevant; reuse re-zeroes
            /// or overwrites). `true` when retained.
            pub(crate) fn give_back(buf: Vec<$ty>) -> bool {
                let ok = $width * buf.capacity() <= MAX_POOLED_BYTES
                    && FREE.with(|f| {
                        let mut free = f.borrow_mut();
                        if free.len() < MAX_POOLED_BUFFERS {
                            free.push(buf);
                            true
                        } else {
                            false
                        }
                    });
                note_recycle(ok);
                ok
            }

            /// Pre-sizes this list for upcoming allocations of `lens` **elements**
            /// each. Existing free buffers are kept when they already cover a request.
            #[allow(dead_code)] // each width exposes the full family
            pub(crate) fn reserve(lens: &[usize]) {
                let max_len = MAX_POOLED_BYTES / $width;
                let mut wanted: Vec<usize> =
                    lens.iter().copied().filter(|&l| l > 0 && l <= max_len).collect();
                wanted.sort_unstable_by(|a, b| b.cmp(a));
                FREE.with(|f| {
                    let mut free = f.borrow_mut();
                    // Earmark existing buffers: each request claims the smallest free
                    // buffer that covers it, once.
                    let mut claimed = vec![false; free.len()];
                    for want in &mut wanted {
                        let mut best: Option<(usize, usize)> = None;
                        for (i, b) in free.iter().enumerate() {
                            let cap = b.capacity();
                            if !claimed[i] && cap >= *want && best.is_none_or(|(_, c)| cap < c) {
                                best = Some((i, cap));
                            }
                        }
                        if let Some((i, _)) = best {
                            claimed[i] = true;
                            *want = 0; // covered
                        }
                    }
                    for want in wanted {
                        if want > 0 && free.len() < MAX_POOLED_BUFFERS {
                            free.push(Vec::with_capacity(want));
                        }
                    }
                });
            }

            /// Drops every pooled buffer on this thread.
            pub(crate) fn clear() {
                FREE.with(|f| f.borrow_mut().clear());
            }
        }
    };
}

typed_pool!(pool_f32, f32, 4, 0.0f32);
typed_pool!(pool_i16, i16, 2, 0i16);
typed_pool!(pool_u16, u16, 2, 0u16);

/// Allocates a zero-filled `f32` buffer of `len` elements through the pool. For
/// **accumulator** outputs (matmul, fused attention) whose kernels add into the buffer.
pub(crate) fn alloc_zeroed(len: usize) -> Vec<f32> {
    pool_f32::alloc_zeroed(len)
}

/// Allocates an **empty** `f32` buffer with capacity for `len` elements through the
/// pool. For full-overwrite outputs (elementwise maps, broadcasts) that fill by
/// `push`/`extend` — no redundant zero pass.
pub(crate) fn alloc_for_extend(len: usize) -> Vec<f32> {
    pool_f32::alloc_for_extend(len)
}

/// Offers an array's storage back to this thread's pool.
///
/// Succeeds (returns `true`) only when the storage is uniquely owned — i.e. no other
/// `NdArray` views alias it — small enough to retain, and the free list has room.
/// Otherwise the array is dropped normally and `false` is returned, so recycling a
/// still-aliased intermediate is always safe.
pub fn recycle(a: NdArray) -> bool {
    match Arc::try_unwrap(a.storage) {
        Ok(buf) => pool_f32::give_back(buf),
        Err(_) => {
            note_recycle(false);
            false
        }
    }
}

/// Pre-sizes this thread's pool for a known set of upcoming allocations.
///
/// `byte_lens` lists buffer sizes in **bytes** — the slot capacities of a compiled
/// plan's activation arena, which the planner sizes in bytes precisely so callers
/// holding mixed-precision plans need no dtype arithmetic here. Today every arena slot
/// is `f32` activation storage, so each request is rounded up to whole `f32` elements
/// and reserved on the `f32` list. Existing free buffers are kept when they already
/// cover a requested size (largest requests claim first, mirroring [`recycle`]'s
/// best-fit service order); only the uncovered remainder is allocated fresh, with
/// capacity but no contents, so reserving is cheap and never changes numerics. Requests
/// above the pool's per-buffer size bound (64 MiB) are skipped, and the pool stays
/// bounded by its buffer-count cap.
pub fn pool_reserve(byte_lens: &[usize]) {
    let elems: Vec<usize> = byte_lens.iter().map(|&b| b.div_ceil(4)).collect();
    pool_f32::reserve(&elems);
}

/// Current pool counters for this thread.
pub fn pool_stats() -> PoolStats {
    STATS.with(|s| *s.borrow())
}

/// Resets the counters and drops every pooled buffer (all element types) on this thread.
pub fn pool_reset() {
    pool_f32::clear();
    pool_i16::clear();
    pool_u16::clear();
    STATS.with(|s| *s.borrow_mut() = PoolStats::new());
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
        // Seed the i16 and u16 lists by giving buffers back, then reuse them.
        assert!(pool_i16::give_back(Vec::with_capacity(64)));
        assert!(pool_u16::give_back(Vec::with_capacity(32)));
        let qa = pool_i16::alloc_zeroed(48);
        let kb = pool_u16::alloc_for_extend(30);
        assert_eq!(qa, vec![0i16; 48]);
        assert!(kb.is_empty() && kb.capacity() >= 30);
        let stats = pool_stats();
        assert_eq!(stats.reused, 2);
        assert_eq!(stats.reused_bytes, 2 * 48 + 2 * 30);
        // f32 list is untouched: an f32 request still falls through fresh.
        let f = alloc_zeroed(16);
        assert_eq!(f, vec![0.0; 16]);
        assert_eq!(pool_stats().fresh, 1);
        pool_reset();
    }
}
