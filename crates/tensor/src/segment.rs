//! Sparse grouping operators: batched segment-sum and row gathering.
//!
//! These two kernels replace the dense `(N, n)` averaging/summation matrices of the
//! group-attention pipeline (see `rita-core`): instead of materialising a one-hot matrix
//! per `(batch, head)` and paying an `O(N·n·d)` matrix product, the group membership is
//! carried as a flat assignment list and each operator costs `O(n·d)`:
//!
//! * [`NdArray::segment_sum`] — sums the rows of every batch block into their assigned
//!   segments (`M · V`, the paper's *embedding aggregation*; divided by the group sizes it
//!   is `S · K`, the centroid representatives);
//! * [`NdArray::gather_rows_batched`] — reads one row per assignment back out of a
//!   segment tensor. This is the adjoint of `segment_sum`: the backward pass of a segment
//!   sum is a gather of the upstream gradient, and the backward pass of a gather is a
//!   scatter-add, i.e. a segment sum.
//!
//! Both are stride-aware: a head-split or sliced input is consumed through
//! [`NdArray::rows`] in place as long as its rows are contiguous, matching the zero-copy
//! contract of the rest of the tensor layer.

use crate::{NdArray, Result, TensorError};

impl NdArray {
    /// Sums rows into segments, batch block by batch block.
    ///
    /// `self` has shape `(..., n, d)`; the leading dimensions form `batch` independent
    /// blocks. `segments` holds one segment id in `0..n_segments` per `(block, row)` pair,
    /// flattened block-major (`segments[block * n + i]` is the segment of row `i` of
    /// block `block`), so `segments.len()` must equal `batch * n`. The result has shape
    /// `(..., n_segments, d)` with
    ///
    /// ```text
    /// out[..., g, :] = Σ_{i : segments[block·n + i] = g}  self[..., i, :]
    /// ```
    ///
    /// Segments with no member row are zero. Cost is `O(batch · n · d)` — one pass over
    /// the input, no intermediate matrices.
    pub fn segment_sum(&self, segments: &[usize], n_segments: usize) -> Result<NdArray> {
        if self.ndim() < 2 {
            return Err(TensorError::InvalidArgument(
                "segment_sum requires rank >= 2 (got a vector or scalar)".into(),
            ));
        }
        if n_segments == 0 {
            return Err(TensorError::InvalidArgument("segment_sum with 0 segments".into()));
        }
        let nd = self.ndim();
        let n = self.shape[nd - 2];
        let d = self.shape[nd - 1];
        let batch: usize = self.shape[..nd - 2].iter().product::<usize>().max(1);
        if segments.len() != batch * n {
            return Err(TensorError::InvalidArgument(format!(
                "segment_sum: {} assignments for {} rows ({} blocks of {})",
                segments.len(),
                batch * n,
                batch,
                n
            )));
        }
        if let Some(&bad) = segments.iter().find(|&&g| g >= n_segments) {
            return Err(TensorError::IndexOutOfBounds { index: bad, len: n_segments });
        }
        let mut out_shape = self.shape.clone();
        out_shape[nd - 2] = n_segments;
        let mut out = crate::pool::alloc_zeroed(batch * n_segments * d);
        // rows() walks the (possibly strided) view's rows in block-major order, which is
        // exactly the order `segments` is laid out in.
        let x = self.with_contiguous_rows();
        for (idx, row) in x.rows().enumerate() {
            let block = idx / n.max(1);
            let g = segments[idx];
            let dst = &mut out[(block * n_segments + g) * d..(block * n_segments + g + 1) * d];
            for (o, &v) in dst.iter_mut().zip(row) {
                *o += v;
            }
        }
        NdArray::try_from_buffer(out, &out_shape)
    }

    /// Gathers one row per assignment out of each batch block.
    ///
    /// `self` has shape `(..., m, d)`; `indices` holds `batch * n_out` row indices in
    /// `0..m`, flattened block-major exactly like [`NdArray::segment_sum`]'s `segments`
    /// (so `indices.len()` must be a multiple of the number of blocks). The result has
    /// shape `(..., n_out, d)` with
    ///
    /// ```text
    /// out[..., i, :] = self[..., indices[block·n_out + i], :]
    /// ```
    ///
    /// With `indices` = the group assignments, this expands per-group values back to
    /// per-row values — the adjoint of [`NdArray::segment_sum`].
    pub fn gather_rows_batched(&self, indices: &[usize]) -> Result<NdArray> {
        if self.ndim() < 2 {
            return Err(TensorError::InvalidArgument(
                "gather_rows_batched requires rank >= 2 (got a vector or scalar)".into(),
            ));
        }
        let nd = self.ndim();
        let m = self.shape[nd - 2];
        let d = self.shape[nd - 1];
        let batch: usize = self.shape[..nd - 2].iter().product::<usize>().max(1);
        if !indices.len().is_multiple_of(batch) {
            return Err(TensorError::InvalidArgument(format!(
                "gather_rows_batched: {} indices do not divide into {} blocks",
                indices.len(),
                batch
            )));
        }
        let n_out = indices.len() / batch;
        if let Some(&bad) = indices.iter().find(|&&i| i >= m) {
            return Err(TensorError::IndexOutOfBounds { index: bad, len: m });
        }
        let mut out_shape = self.shape.clone();
        out_shape[nd - 2] = n_out;
        let mut out = crate::pool::alloc_for_extend(batch * n_out * d);
        let x = self.with_contiguous_rows();
        // Walk the source blocks in order; each block is a contiguous run of m rows in
        // rows() order, addressed through the lane iterator's strides.
        let block_rows: Vec<&[f32]> = x.rows().collect();
        for block in 0..batch {
            for &i in &indices[block * n_out..(block + 1) * n_out] {
                out.extend_from_slice(block_rows[block * m + i]);
            }
        }
        NdArray::try_from_buffer(out, &out_shape)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allclose;

    #[test]
    fn segment_sum_matches_dense_matrix_product() {
        // 2 blocks of 4 rows, 3 segments.
        let x = NdArray::arange(0.0, 1.0, 2 * 4 * 2).reshape(&[2, 4, 2]).unwrap();
        let segments = [0usize, 2, 0, 1, 1, 1, 2, 0];
        let out = x.segment_sum(&segments, 3).unwrap();
        assert_eq!(out.shape(), &[2, 3, 2]);
        // Dense oracle: one-hot (3, 4) matrix per block.
        for block in 0..2 {
            let mut m = NdArray::zeros(&[3, 4]);
            for i in 0..4 {
                m.set(&[segments[block * 4 + i], i], 1.0).unwrap();
            }
            let expect = m.matmul(&x.index_axis0(block).unwrap()).unwrap();
            let got = out.index_axis0(block).unwrap();
            assert!(allclose(got.materialize().as_slice(), expect.as_slice(), 1e-6, 1e-6));
        }
    }

    #[test]
    fn segment_sum_leaves_empty_segments_zero() {
        let x = NdArray::ones(&[3, 2]);
        let out = x.segment_sum(&[0, 0, 2], 4).unwrap();
        assert_eq!(out.shape(), &[4, 2]);
        assert_eq!(out.as_slice(), &[2.0, 2.0, 0.0, 0.0, 1.0, 1.0, 0.0, 0.0]);
    }

    #[test]
    fn segment_sum_on_strided_view_matches_materialized() {
        // A head-split-style permuted view: (b, n, h, d) -> (b, h, n, d).
        let x = NdArray::arange(0.0, 0.5, 2 * 3 * 2 * 2).reshape(&[2, 3, 2, 2]).unwrap();
        let v = x.permute(&[0, 2, 1, 3]).unwrap(); // (2, 2, 3, 2), strided
        let segments = [0usize, 1, 0, 1, 1, 0, 0, 0, 1, 1, 0, 1];
        let via_view = v.segment_sum(&segments, 2).unwrap();
        let via_copy = v.materialize().segment_sum(&segments, 2).unwrap();
        assert_eq!(via_view, via_copy);
    }

    #[test]
    fn segment_sum_validates_input() {
        let x = NdArray::ones(&[2, 2]);
        assert!(x.segment_sum(&[0], 2).is_err()); // wrong assignment count
        assert!(x.segment_sum(&[0, 5], 2).is_err()); // segment id out of range
        assert!(x.segment_sum(&[0, 0], 0).is_err()); // zero segments
        assert!(NdArray::ones(&[3]).segment_sum(&[0, 0, 0], 1).is_err()); // rank 1
    }

    #[test]
    fn gather_rows_batched_reads_assigned_rows() {
        let x = NdArray::arange(0.0, 1.0, 2 * 3 * 2).reshape(&[2, 3, 2]).unwrap();
        let out = x.gather_rows_batched(&[2, 0, 1, 1]).unwrap();
        assert_eq!(out.shape(), &[2, 2, 2]);
        // block 0: rows 2 and 0; block 1: rows 1 and 1.
        assert_eq!(out.as_slice(), &[4.0, 5.0, 0.0, 1.0, 8.0, 9.0, 8.0, 9.0]);
    }

    #[test]
    fn gather_rows_batched_on_strided_view_matches_materialized() {
        let x = NdArray::arange(0.0, 0.25, 2 * 2 * 3 * 2).reshape(&[2, 3, 2, 2]).unwrap();
        let v = x.permute(&[0, 2, 1, 3]).unwrap(); // (2, 2, 3, 2)
        let indices = [1usize, 1, 0, 2, 0, 1, 2, 2];
        let via_view = v.gather_rows_batched(&indices).unwrap();
        let via_copy = v.materialize().gather_rows_batched(&indices).unwrap();
        assert_eq!(via_view, via_copy);
    }

    #[test]
    fn gather_rows_batched_validates_input() {
        let x = NdArray::ones(&[2, 2, 2]);
        assert!(x.gather_rows_batched(&[0, 1, 0]).is_err()); // 3 indices, 2 blocks
        assert!(x.gather_rows_batched(&[0, 2]).is_err()); // row index out of range
        assert!(NdArray::ones(&[3]).gather_rows_batched(&[0]).is_err()); // rank 1
    }

    #[test]
    fn gather_is_adjoint_of_segment_sum() {
        // <segment_sum(x), y> == <x, gather(y)> for all x, y — the defining property the
        // autograd layer relies on.
        let x = NdArray::arange(0.0, 0.3, 4 * 3).reshape(&[4, 3]).unwrap();
        let y = NdArray::arange(-1.0, 0.7, 2 * 3).reshape(&[2, 3]).unwrap();
        let segments = [1usize, 0, 1, 1];
        let lhs = x.segment_sum(&segments, 2).unwrap().dot(&y).unwrap();
        let rhs = x.dot(&y.gather_rows_batched(&segments).unwrap()).unwrap();
        assert!((lhs - rhs).abs() < 1e-4, "{lhs} vs {rhs}");
    }
}
