//! Matrix multiplication: a batched driver over the blocked, packed GEMM engine in
//! [`crate::gemm`], with transpose-free handling of the `Q · Kᵀ` attention pattern and
//! an `alpha`-scaled variant that folds attention's `1/√d` into the product.
//!
//! Operands may be arbitrary strided views. The batch dimensions are walked through the
//! operands' own strides (so sliced or broadcast batches are zero-copy); the trailing
//! two dimensions are consumed through their `(row, column)` strides directly — the
//! packing step of the blocked engine normalises every layout (row-major, transposed,
//! broadcast, fully general), so no operand is ever compacted wholesale.

use crate::broadcast::effective_strides;
use crate::gemm::gemm_strided;
use crate::parallel::{scoped_chunks_mut, worker_budget};
use crate::qgemm::{qgemm, QuantMatrix};
use crate::{NdArray, Result, TensorError};

/// Minimum number of output elements before the kernels fan work out to threads. It
/// counts outputs, not the multiply-adds of [`crate::fan_out_threads`]: a multiply-add
/// gate would move which small products (a one-row lhs against a `(64, 64)` weight,
/// say) run serially, and that needs its own measurement.
const PARALLEL_THRESHOLD: usize = 64 * 64;

/// Layout of one matrix operand: the element strides of its trailing two dimensions.
/// `Row`/`Col` classify the cache-friendly cases (used by the packing fast paths and the
/// row-advance of the parallel row split); `General` covers everything else — it packs
/// like the others instead of forcing a compaction.
#[derive(Clone, Copy, Debug)]
enum MatLayout {
    /// Element `(i, p)` lives at `i * pitch + p`.
    Row(usize),
    /// Element `(i, p)` lives at `p * pitch + i` (a transposed row-major matrix).
    Col(usize),
    /// Element `(i, p)` lives at `i * rs + p * cs`.
    General(usize, usize),
}

impl MatLayout {
    /// `(row_stride, col_stride)` of the operand.
    fn strides(self) -> (usize, usize) {
        match self {
            MatLayout::Row(p) => (p, 1),
            MatLayout::Col(p) => (1, p),
            MatLayout::General(rs, cs) => (rs, cs),
        }
    }
}

/// Classifies the trailing two dimensions of a view.
fn mat_layout(shape: &[usize], strides: &[usize]) -> MatLayout {
    let nd = shape.len();
    let (r, c) = (shape[nd - 2], shape[nd - 1]);
    let (sr, sc) = (strides[nd - 2], strides[nd - 1]);
    if sc == 1 || c <= 1 {
        MatLayout::Row(sr)
    } else if sr == 1 || r <= 1 {
        MatLayout::Col(sc)
    } else {
        MatLayout::General(sr, sc)
    }
}

/// One 2-D product: `out += alpha · a · b`. `a`/`b` are already offset to the matrix
/// start; the blocked engine consumes both layouts through their strides.
#[allow(clippy::too_many_arguments)]
fn matmul_2d(
    a: &[f32],
    la: MatLayout,
    b: &[f32],
    lb: MatLayout,
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    alpha: f32,
) {
    let (ars, acs) = la.strides();
    let (brs, bcs) = lb.strides();
    gemm_strided(a, ars, acs, b, brs, bcs, out, m, k, n, alpha);
}

/// Advances the lhs slice to its `row0`-th output row (layout-dependent).
fn lhs_rows_from(layout: MatLayout, a: &[f32], row0: usize) -> &[f32] {
    let (rs, _) = layout.strides();
    &a[row0 * rs..]
}

impl NdArray {
    /// Matrix product.
    ///
    /// * 2-D × 2-D → classic GEMM.
    /// * ≥3-D operands are treated as stacks of matrices over leading batch dimensions;
    ///   batch dimensions broadcast against each other (a 2-D operand broadcasts over all
    ///   batches).
    ///
    /// Strided views are consumed without compaction — the blocked kernels pack cache-
    /// sized panels from any layout (covers transposes, head splits, sliced and broadcast
    /// batches). Batched products are parallelised across the batch dimension, single
    /// large 2-D products across output rows.
    pub fn matmul(&self, other: &NdArray) -> Result<NdArray> {
        self.matmul_scaled(other, 1.0)
    }

    /// `alpha · self · other` — the scale is folded into the kernel's packing pass, so
    /// it costs no extra traversal of the output (attention's `1/√d` on the score
    /// product rides along for free instead of materialising a scaled copy).
    pub fn matmul_scaled(&self, other: &NdArray, alpha: f32) -> Result<NdArray> {
        if self.ndim() < 2 || other.ndim() < 2 {
            return Err(TensorError::MatmulMismatch {
                lhs: self.shape.clone(),
                rhs: other.shape.clone(),
            });
        }
        let (lm, lk) = (self.shape[self.ndim() - 2], self.shape[self.ndim() - 1]);
        let (rk, rn) = (other.shape[other.ndim() - 2], other.shape[other.ndim() - 1]);
        if lk != rk {
            return Err(TensorError::MatmulMismatch {
                lhs: self.shape.clone(),
                rhs: other.shape.clone(),
            });
        }
        let lbatch = &self.shape[..self.ndim() - 2];
        let rbatch = &other.shape[..other.ndim() - 2];
        let batch_shape = crate::broadcast::broadcast_shape(lbatch, rbatch)?;
        let batch: usize = batch_shape.iter().product::<usize>().max(1);
        let lbn: usize = lbatch.iter().product::<usize>().max(1);
        let rbn: usize = rbatch.iter().product::<usize>().max(1);
        if (lbn != batch && lbn != 1) || (rbn != batch && rbn != 1) {
            return Err(TensorError::MatmulMismatch {
                lhs: self.shape.clone(),
                rhs: other.shape.clone(),
            });
        }

        let la = mat_layout(&self.shape, &self.strides);
        let lb = mat_layout(&other.shape, &other.strides);

        // Per-batch storage offsets, walked through each operand's own (broadcast-aligned)
        // batch strides — sliced and broadcast batch dims cost nothing here.
        let l_offsets = batch_offsets(self, &batch_shape);
        let r_offsets = batch_offsets(other, &batch_shape);

        let mut out_shape = batch_shape.clone();
        out_shape.push(lm);
        out_shape.push(rn);
        let mut out = crate::pool::alloc_zeroed(batch * lm * rn);
        let ldata: &[f32] = &self.storage;
        let rdata: &[f32] = &other.storage;

        let threads = if batch * lm * rn >= PARALLEL_THRESHOLD { worker_budget() } else { 1 };
        if batch >= threads {
            // Enough batch entries to saturate the pool (or one chunk when serial):
            // split across the batch×heads dimension, each chunk running whole products.
            let per = batch.div_ceil(threads);
            scoped_chunks_mut(batch, per, [(&mut out[..], lm * rn)], |mats, [chunk]| {
                for (i, idx) in mats.enumerate() {
                    matmul_2d(
                        &ldata[l_offsets[idx]..],
                        la,
                        &rdata[r_offsets[idx]..],
                        lb,
                        &mut chunk[i * lm * rn..(i + 1) * lm * rn],
                        lm,
                        lk,
                        rn,
                        alpha,
                    );
                }
            });
        } else {
            // Fewer batch entries than workers (including batch == 1): split each
            // product's output rows across the pool so small batch counts still use
            // every core, one product at a time (a one-row product is one chunk).
            let rows_per = lm.div_ceil(threads);
            for bidx in 0..batch {
                let a = &ldata[l_offsets[bidx]..];
                let b = &rdata[r_offsets[bidx]..];
                let out_b = &mut out[bidx * lm * rn..(bidx + 1) * lm * rn];
                scoped_chunks_mut(lm, rows_per, [(out_b, rn)], |rows, [chunk]| {
                    let a_rows = lhs_rows_from(la, a, rows.start);
                    matmul_2d(a_rows, la, b, lb, chunk, rows.len(), lk, rn, alpha);
                });
            }
        }
        NdArray::try_from_buffer(out, &out_shape)
    }

    /// `self · wq` where the rhs is a pre-packed per-channel int8 [`QuantMatrix`] —
    /// the inference pattern `activations × weights` with the weight panels already
    /// quantized and packed at model load. The rhs is rank-2 `(k, n)` and shared by
    /// every batch entry, so all leading lhs dimensions collapse into output rows of
    /// one quantized product (large products split rows across the worker pool; row
    /// splitting is safe because activation scales are per-row). Strided lhs views
    /// fall back to a per-matrix walk through their own strides, like
    /// [`NdArray::matmul`].
    pub fn matmul_quant(&self, wq: &QuantMatrix) -> Result<NdArray> {
        let nd = self.ndim();
        if nd < 2 || self.shape[nd - 1] != wq.k() {
            return Err(TensorError::MatmulMismatch {
                lhs: self.shape.clone(),
                rhs: vec![wq.k(), wq.n()],
            });
        }
        let (k, n) = (wq.k(), wq.n());
        let m: usize = self.shape[..nd - 1].iter().product();
        let mut out_shape = self.shape[..nd - 1].to_vec();
        out_shape.push(n);
        let mut out = crate::pool::alloc_zeroed(m * n);
        if self.is_contiguous() {
            let a = self.as_slice();
            let threads = if m * n >= PARALLEL_THRESHOLD { worker_budget() } else { 1 };
            scoped_chunks_mut(m, m.div_ceil(threads), [(&mut out[..], n)], |rows, [chunk]| {
                qgemm(&a[rows.start * k..], k, 1, rows.len(), wq, chunk, 1.0);
            });
        } else {
            let la = mat_layout(&self.shape, &self.strides);
            let (ars, acs) = la.strides();
            let lm = self.shape[nd - 2];
            let batch_shape = self.shape[..nd - 2].to_vec();
            let ldata: &[f32] = &self.storage;
            for (bi, off) in batch_offsets(self, &batch_shape).into_iter().enumerate() {
                qgemm(
                    &ldata[off..],
                    ars,
                    acs,
                    lm,
                    wq,
                    &mut out[bi * lm * n..(bi + 1) * lm * n],
                    1.0,
                );
            }
        }
        NdArray::try_from_buffer(out, &out_shape)
    }

    /// `self · otherᵀ` where the transpose applies to the last two dims of `other`.
    ///
    /// The transpose is a zero-copy stride swap; the blocked kernel packs the transposed
    /// operand's panels directly from the view (no compaction at any reduction length).
    pub fn matmul_nt(&self, other: &NdArray) -> Result<NdArray> {
        self.matmul_nt_scaled(other, 1.0)
    }

    /// `alpha · self · otherᵀ` — attention's scaled score product `Q · Kᵀ / √d` in one
    /// kernel pass, with no scaled temporary (see [`NdArray::matmul_scaled`]).
    pub fn matmul_nt_scaled(&self, other: &NdArray, alpha: f32) -> Result<NdArray> {
        if self.ndim() < 2 || other.ndim() < 2 {
            return Err(TensorError::MatmulMismatch {
                lhs: self.shape.clone(),
                rhs: other.shape.clone(),
            });
        }
        self.matmul_scaled(&other.transpose_last2()?, alpha)
    }

    /// Dot product of two equally sized arrays, treated as flat vectors.
    pub fn dot(&self, other: &NdArray) -> Result<f32> {
        if self.len() != other.len() {
            return Err(TensorError::BroadcastMismatch {
                lhs: self.shape.clone(),
                rhs: other.shape.clone(),
            });
        }
        if self.is_contiguous() && other.is_contiguous() {
            return Ok(self
                .as_slice()
                .iter()
                .zip(other.as_slice().iter())
                .map(|(&a, &b)| a * b)
                .sum());
        }
        Ok(self.values().zip(other.values()).map(|(a, b)| a * b).sum())
    }
}

/// Storage offset of each batch matrix of `a` for the broadcast `batch_shape`.
fn batch_offsets(a: &NdArray, batch_shape: &[usize]) -> Vec<usize> {
    let nd = a.ndim();
    let abatch_shape = &a.shape()[..nd - 2];
    let abatch_strides = &a.strides[..nd - 2];
    // Right-align the operand's batch dims inside batch_shape with stride 0 elsewhere.
    let view =
        NdArray::view(a.storage.clone(), abatch_shape.to_vec(), abatch_strides.to_vec(), a.offset);
    let eff = effective_strides(&view, batch_shape);
    crate::array::OffsetIter::new(batch_shape, &eff, a.offset).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allclose;

    fn naive_matmul(a: &NdArray, b: &NdArray) -> NdArray {
        let (m, k) = (a.shape()[0], a.shape()[1]);
        let n = b.shape()[1];
        let mut out = NdArray::zeros(&[m, n]);
        for i in 0..m {
            for j in 0..n {
                let mut s = 0.0;
                for p in 0..k {
                    s += a.get(&[i, p]).unwrap() * b.get(&[p, j]).unwrap();
                }
                out.set(&[i, j], s).unwrap();
            }
        }
        out
    }

    #[test]
    fn matmul_2d_matches_naive() {
        let a = NdArray::arange(0.0, 1.0, 12).reshape(&[3, 4]).unwrap();
        let b = NdArray::arange(1.0, 0.5, 20).reshape(&[4, 5]).unwrap();
        let c = a.matmul(&b).unwrap();
        let expect = naive_matmul(&a, &b);
        assert!(allclose(c.as_slice(), expect.as_slice(), 1e-4, 1e-5));
    }

    #[test]
    fn matmul_identity() {
        let a = NdArray::arange(0.0, 1.0, 9).reshape(&[3, 3]).unwrap();
        let c = a.matmul(&NdArray::eye(3)).unwrap();
        assert_eq!(c, a);
    }

    #[test]
    fn matmul_rejects_bad_shapes() {
        let a = NdArray::zeros(&[2, 3]);
        let b = NdArray::zeros(&[4, 2]);
        assert!(a.matmul(&b).is_err());
        let v = NdArray::zeros(&[3]);
        assert!(a.matmul(&v).is_err());
    }

    #[test]
    fn matmul_scaled_matches_scale_of_matmul() {
        let a = NdArray::arange(0.0, 0.03, 7 * 9).reshape(&[7, 9]).unwrap();
        let b = NdArray::arange(1.0, -0.01, 9 * 5).reshape(&[9, 5]).unwrap();
        for &alpha in &[0.5f32, -2.0, 0.125] {
            let fused = a.matmul_scaled(&b, alpha).unwrap();
            let reference = a.matmul(&b).unwrap().scale(alpha);
            assert!(allclose(fused.as_slice(), reference.as_slice(), 1e-5, 1e-5));
        }
    }

    #[test]
    fn matmul_nt_scaled_matches_explicit_chain() {
        let q = NdArray::arange(0.0, 0.1, 2 * 6 * 4).reshape(&[2, 6, 4]).unwrap();
        let k = NdArray::arange(0.5, 0.2, 2 * 5 * 4).reshape(&[2, 5, 4]).unwrap();
        let alpha = 1.0 / 2.0f32;
        let fused = q.matmul_nt_scaled(&k, alpha).unwrap();
        let reference = q.matmul(&k.transpose_last2().unwrap().materialize()).unwrap().scale(alpha);
        assert!(allclose(fused.as_slice(), reference.as_slice(), 1e-5, 1e-5));
    }

    #[test]
    fn batched_matmul_and_broadcast() {
        // (2, 2, 3) x (2, 3, 2)
        let a = NdArray::arange(0.0, 1.0, 12).reshape(&[2, 2, 3]).unwrap();
        let b = NdArray::arange(0.0, 1.0, 12).reshape(&[2, 3, 2]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.shape(), &[2, 2, 2]);
        // batch 0 manually
        let a0 = NdArray::from_vec(a.as_slice()[..6].to_vec(), &[2, 3]).unwrap();
        let b0 = NdArray::from_vec(b.as_slice()[..6].to_vec(), &[3, 2]).unwrap();
        let c0 = naive_matmul(&a0, &b0);
        assert!(allclose(&c.as_slice()[..4], c0.as_slice(), 1e-4, 1e-5));

        // 2-D rhs broadcasts over batches
        let w = NdArray::arange(0.0, 1.0, 6).reshape(&[3, 2]).unwrap();
        let cw = a.matmul(&w).unwrap();
        assert_eq!(cw.shape(), &[2, 2, 2]);
        let expect0 = naive_matmul(&a0, &w);
        assert!(allclose(&cw.as_slice()[..4], expect0.as_slice(), 1e-4, 1e-5));
    }

    #[test]
    fn matmul_nt_matches_explicit_transpose() {
        let q = NdArray::arange(0.0, 0.1, 24).reshape(&[2, 3, 4]).unwrap();
        let k = NdArray::arange(0.5, 0.2, 40).reshape(&[2, 5, 4]).unwrap();
        let a = q.matmul_nt(&k).unwrap();
        let b = q.matmul(&k.transpose_last2().unwrap().materialize()).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.shape(), &[2, 3, 5]);
    }

    #[test]
    fn transposed_lhs_view_matches_materialized() {
        // Exercises the packed column-major lhs path against the compacted reference.
        let a = NdArray::arange(0.0, 0.2, 12).reshape(&[4, 3]).unwrap();
        let b = NdArray::arange(-1.0, 0.15, 20).reshape(&[4, 5]).unwrap();
        let at = a.transpose_last2().unwrap(); // (3, 4) view
        let via_view = at.matmul(&b).unwrap();
        let via_copy = at.materialize().matmul(&b).unwrap();
        assert!(allclose(via_view.as_slice(), via_copy.as_slice(), 1e-5, 1e-5));
    }

    #[test]
    fn both_transposed_views_match_materialized() {
        let a = NdArray::arange(0.0, 0.2, 12).reshape(&[4, 3]).unwrap();
        let b = NdArray::arange(-1.0, 0.15, 12).reshape(&[4, 3]).unwrap();
        let at = a.transpose_last2().unwrap(); // (3, 4)
        let bt = b.transpose_last2().unwrap(); // (3, 4) -> needs (4, ...) rhs; use at · a
        let c_view = at.matmul(&a).unwrap();
        let c_copy = at.materialize().matmul(&a).unwrap();
        assert!(allclose(c_view.as_slice(), c_copy.as_slice(), 1e-5, 1e-5));
        // col×col: atᵀ is (3,4) col-major; bt (3,4) col-major as rhs of (4,3)·(3,4)
        let d_view = a.matmul(&bt).unwrap();
        let d_copy = a.matmul(&bt.materialize()).unwrap();
        assert!(allclose(d_view.as_slice(), d_copy.as_slice(), 1e-5, 1e-5));
        // col×col: at (3,4) col-major · ct (4,5) col-major.
        let c0 = NdArray::arange(0.3, -0.07, 20).reshape(&[5, 4]).unwrap();
        let ct = c0.transpose_last2().unwrap();
        let e_view = at.matmul(&ct).unwrap();
        let e_copy = at.materialize().matmul(&ct.materialize()).unwrap();
        assert!(allclose(e_view.as_slice(), e_copy.as_slice(), 1e-5, 1e-5));
    }

    #[test]
    fn batched_matmul_on_sliced_batch_views() {
        // Slice away the first batch entry on each operand: offsets must follow strides.
        let a = NdArray::arange(0.0, 0.05, 36).reshape(&[3, 4, 3]).unwrap();
        let b = NdArray::arange(1.0, -0.02, 27).reshape(&[3, 3, 3]).unwrap();
        let asub = a.slice_axis(0, 1, 3).unwrap();
        let bsub = b.slice_axis(0, 1, 3).unwrap();
        let via_view = asub.matmul(&bsub).unwrap();
        let via_copy = asub.materialize().matmul(&bsub.materialize()).unwrap();
        assert!(allclose(via_view.as_slice(), via_copy.as_slice(), 1e-5, 1e-5));
    }

    #[test]
    fn fully_general_layout_packs_without_compaction() {
        // A permuted 3-D view whose trailing two dims both have non-unit strides — the
        // old kernels compacted this; the packed engine must consume it in place.
        let a = NdArray::arange(0.0, 0.01, 24).reshape(&[2, 3, 4]).unwrap();
        let p = a.permute(&[2, 0, 1]).unwrap(); // (4, 2, 3), trailing strides (12, 4)
        let w = NdArray::arange(0.5, -0.03, 9).reshape(&[3, 3]).unwrap();
        let via_view = p.matmul(&w).unwrap();
        let via_copy = p.materialize().matmul(&w).unwrap();
        assert!(allclose(via_view.as_slice(), via_copy.as_slice(), 1e-5, 1e-5));
    }

    #[test]
    fn large_matmul_parallel_path_matches_serial() {
        // Exceeds PARALLEL_THRESHOLD to exercise the threaded code path.
        let m = 80;
        let k = 33;
        let n = 90;
        let a = NdArray::arange(0.0, 0.001, m * k).reshape(&[m, k]).unwrap();
        let b = NdArray::arange(1.0, -0.0005, k * n).reshape(&[k, n]).unwrap();
        let c = a.matmul(&b).unwrap();
        let expect = naive_matmul(&a, &b);
        assert!(allclose(c.as_slice(), expect.as_slice(), 1e-3, 1e-4));
    }

    #[test]
    fn large_batched_matmul_parallel_path_matches_per_batch() {
        // batch large enough to trigger the batch-parallel path.
        let (bt, m, k, n) = (8, 32, 16, 32);
        let a = NdArray::arange(0.0, 0.0007, bt * m * k).reshape(&[bt, m, k]).unwrap();
        let b = NdArray::arange(0.5, -0.0003, bt * k * n).reshape(&[bt, k, n]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.shape(), &[bt, m, n]);
        for bi in 0..bt {
            let ai = a.index_axis0(bi).unwrap().materialize();
            let bi_ = b.index_axis0(bi).unwrap().materialize();
            let expect = naive_matmul(&ai, &bi_);
            let got = c.index_axis0(bi).unwrap();
            assert!(allclose(got.as_slice(), expect.as_slice(), 1e-3, 1e-4), "batch {bi}");
        }
    }

    #[test]
    fn odd_sizes_cross_every_micro_tile_edge() {
        // m, k, n chosen to leave partial MR-row and NR-column panels plus a short
        // trailing k-block; compares against the O(n³) reference.
        let (m, k, n) = (13usize, 21usize, 27usize);
        let a = NdArray::arange(-0.4, 0.017, m * k).reshape(&[m, k]).unwrap();
        let b = NdArray::arange(0.9, -0.013, k * n).reshape(&[k, n]).unwrap();
        let c = a.matmul(&b).unwrap();
        let expect = naive_matmul(&a, &b);
        assert!(allclose(c.as_slice(), expect.as_slice(), 1e-4, 1e-4));
    }

    #[test]
    fn matmul_quant_driver_is_exact_over_qgemm_across_every_path() {
        // The driver's job is batching, the parallel row split, and strided
        // fallbacks; each path must be *bit-identical* to a direct `qgemm` call
        // (row quantization is per-row, so splitting rows changes nothing).
        // Accuracy vs f32 is the quantized engine's own test suite's job.
        let (k, n) = (24usize, 18usize);
        let w = NdArray::arange(-0.6, 0.0123, k * n).reshape(&[k, n]).unwrap();
        let wq = QuantMatrix::quantize(w.as_slice(), k, n);

        let a2 = NdArray::arange(0.0, 0.021, 7 * k).reshape(&[7, k]).unwrap();
        let q2 = a2.matmul_quant(&wq).unwrap();
        assert_eq!(q2.shape(), &[7, n]);
        let mut direct = vec![0.0f32; 7 * n];
        qgemm(a2.as_slice(), k, 1, 7, &wq, &mut direct, 1.0);
        assert_eq!(q2.as_slice(), &direct[..]);

        // Batched lhs: leading dims collapse into rows of the same single product.
        let a3 = NdArray::arange(-0.3, 0.007, 3 * 5 * k).reshape(&[3, 5, k]).unwrap();
        let q3 = a3.matmul_quant(&wq).unwrap();
        assert_eq!(q3.shape(), &[3, 5, n]);
        let mut direct3 = vec![0.0f32; 15 * n];
        qgemm(a3.as_slice(), k, 1, 15, &wq, &mut direct3, 1.0);
        assert_eq!(q3.as_slice(), &direct3[..]);

        // Big enough to take the threaded row split — still bit-identical.
        let m = 4 * PARALLEL_THRESHOLD / (k * n);
        let ab = NdArray::arange(0.0, 0.0004, m * k).reshape(&[m, k]).unwrap();
        let qb = ab.matmul_quant(&wq).unwrap();
        let mut directb = vec![0.0f32; m * n];
        qgemm(ab.as_slice(), k, 1, m, &wq, &mut directb, 1.0);
        assert_eq!(qb.as_slice(), &directb[..]);

        // A transposed (non-contiguous) lhs view walks the strided path.
        let at = NdArray::arange(0.1, 0.011, k * 6).reshape(&[k, 6]).unwrap();
        let view = at.transpose_last2().unwrap(); // (6, k) view
        let qv = view.matmul_quant(&wq).unwrap();
        let fv = view.materialize().matmul_quant(&wq).unwrap();
        assert_eq!(qv.as_slice(), fv.as_slice());

        // And the whole chain lands near the f32 product (coarsely — both operands
        // are quantized): relative Frobenius error under 2%.
        let wd = NdArray::from_vec(wq.dequantize(), &[k, n]).unwrap();
        let f2 = a2.matmul(&wd).unwrap();
        let num: f32 =
            q2.as_slice().iter().zip(f2.as_slice()).map(|(&q, &f)| (q - f) * (q - f)).sum();
        let den: f32 = f2.as_slice().iter().map(|&f| f * f).sum();
        assert!((num / den).sqrt() < 0.02, "relative error {}", (num / den).sqrt());

        // Mismatched inner dim is a typed error.
        assert!(NdArray::zeros(&[2, k + 1]).matmul_quant(&wq).is_err());
    }

    #[test]
    fn dot_product() {
        let a = NdArray::from_slice(&[1.0, 2.0, 3.0]);
        let b = NdArray::from_slice(&[4.0, 5.0, 6.0]);
        assert_eq!(a.dot(&b).unwrap(), 32.0);
        assert!(a.dot(&NdArray::zeros(&[4])).is_err());
    }
}
