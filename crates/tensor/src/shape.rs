//! Shape manipulation: reshape, transpose/permute, concatenation, slicing, stacking and
//! row gathering.
//!
//! Since the zero-copy refactor, every operation in this module that *can* be a pure
//! metadata edit is one: `reshape` of a contiguous view, `permute`/`transpose_last2`,
//! `slice_axis`, `index_axis0`/`index_axis`, `chunk_axis0`, `squeeze`/`unsqueeze` and
//! `flatten` of contiguous data all return views that alias the input's storage in O(1).
//! Only `concat`, `stack` and `gather_rows` (which must interleave buffers) and `reshape`
//! of a non-contiguous view (which must compact first) copy data.

use crate::array::contiguous_strides;
use crate::{NdArray, Result, TensorError};

impl NdArray {
    /// Returns an array with the same data and a new shape (element counts must match).
    ///
    /// Zero-copy for contiguous inputs; a non-contiguous view is compacted first.
    pub fn reshape(&self, shape: &[usize]) -> Result<NdArray> {
        let expected: usize = shape.iter().product();
        if expected != self.len() {
            return Err(TensorError::ReshapeMismatch {
                from: self.shape.clone(),
                to: shape.to_vec(),
            });
        }
        let base = self.materialize(); // cheap clone when contiguous
        Ok(NdArray::view(base.storage, shape.to_vec(), contiguous_strides(shape), base.offset))
    }

    /// Swaps the last two dimensions (batched matrix transpose). Zero-copy.
    pub fn transpose_last2(&self) -> Result<NdArray> {
        let nd = self.ndim();
        if nd < 2 {
            return Err(TensorError::InvalidArgument(
                "transpose_last2 requires rank >= 2".to_string(),
            ));
        }
        let mut axes: Vec<usize> = (0..nd).collect();
        axes.swap(nd - 2, nd - 1);
        self.permute(&axes)
    }

    /// Permutes dimensions according to `axes` (a permutation of `0..ndim`). Zero-copy.
    pub fn permute(&self, axes: &[usize]) -> Result<NdArray> {
        let nd = self.ndim();
        if axes.len() != nd {
            return Err(TensorError::InvalidArgument(format!(
                "permute axes {axes:?} must have length {nd}"
            )));
        }
        let mut seen = vec![false; nd];
        for &a in axes {
            if a >= nd || seen[a] {
                return Err(TensorError::InvalidArgument(format!(
                    "permute axes {axes:?} is not a permutation of 0..{nd}"
                )));
            }
            seen[a] = true;
        }
        let shape: Vec<usize> = axes.iter().map(|&a| self.shape[a]).collect();
        let strides: Vec<usize> = axes.iter().map(|&a| self.strides[a]).collect();
        Ok(NdArray::view(self.storage.clone(), shape, strides, self.offset))
    }

    /// Concatenates arrays along `axis`. All other dimensions must agree. (Copies: the
    /// output interleaves its inputs' buffers.)
    pub fn concat(parts: &[&NdArray], axis: usize) -> Result<NdArray> {
        if parts.is_empty() {
            return Err(TensorError::ConcatMismatch { detail: "no operands".into() });
        }
        let first = parts[0];
        let nd = first.ndim();
        if axis >= nd {
            return Err(TensorError::AxisOutOfRange { axis, ndim: nd });
        }
        let mut axis_total = 0usize;
        for p in parts {
            if p.ndim() != nd {
                return Err(TensorError::ConcatMismatch {
                    detail: format!("rank mismatch: {} vs {}", p.ndim(), nd),
                });
            }
            for d in 0..nd {
                if d != axis && p.shape[d] != first.shape[d] {
                    return Err(TensorError::ConcatMismatch {
                        detail: format!(
                            "dimension {d} mismatch: {} vs {}",
                            p.shape[d], first.shape[d]
                        ),
                    });
                }
            }
            axis_total += p.shape[axis];
        }
        let mut out_shape = first.shape.clone();
        out_shape[axis] = axis_total;

        // Compact any strided operands once, then splice contiguous blocks.
        let dense: Vec<NdArray> = parts.iter().map(|p| p.materialize()).collect();
        // Outer = product of dims before axis; inner = product of dims after axis.
        let outer: usize = first.shape[..axis].iter().product::<usize>().max(1);
        let inner: usize = first.shape[axis + 1..].iter().product::<usize>().max(1);
        let mut data = crate::pool::alloc_for_extend(out_shape.iter().product());
        for o in 0..outer {
            for p in &dense {
                let pa = p.shape[axis];
                let start = o * pa * inner;
                data.extend_from_slice(&p.as_slice()[start..start + pa * inner]);
            }
        }
        NdArray::try_from_buffer(data, &out_shape)
    }

    /// Stacks equally shaped arrays along a new leading axis. (Copies.)
    pub fn stack(parts: &[&NdArray]) -> Result<NdArray> {
        if parts.is_empty() {
            return Err(TensorError::ConcatMismatch { detail: "no operands".into() });
        }
        let first_shape = parts[0].shape.clone();
        let mut data = crate::pool::alloc_for_extend(parts.len() * parts[0].len());
        for p in parts {
            if p.shape != first_shape {
                return Err(TensorError::ConcatMismatch {
                    detail: format!("stack shape mismatch: {:?} vs {:?}", p.shape, first_shape),
                });
            }
            let dense = p.materialize();
            data.extend_from_slice(dense.as_slice());
        }
        let mut shape = vec![parts.len()];
        shape.extend_from_slice(&first_shape);
        NdArray::try_from_buffer(data, &shape)
    }

    /// Extracts the half-open range `[start, end)` along `axis`. Zero-copy.
    pub fn slice_axis(&self, axis: usize, start: usize, end: usize) -> Result<NdArray> {
        let nd = self.ndim();
        if axis >= nd {
            return Err(TensorError::AxisOutOfRange { axis, ndim: nd });
        }
        if start > end || end > self.shape[axis] {
            return Err(TensorError::InvalidArgument(format!(
                "slice [{start}, {end}) out of range for dimension of length {}",
                self.shape[axis]
            )));
        }
        let mut shape = self.shape.clone();
        shape[axis] = end - start;
        let offset = self.offset + start * self.strides[axis];
        Ok(NdArray::view(self.storage.clone(), shape, self.strides.clone(), offset))
    }

    /// Returns the `i`-th sub-array along `axis` (the shape loses that axis). Zero-copy.
    pub fn index_axis(&self, axis: usize, i: usize) -> Result<NdArray> {
        if axis >= self.ndim() {
            return Err(TensorError::AxisOutOfRange { axis, ndim: self.ndim() });
        }
        if i >= self.shape[axis] {
            return Err(TensorError::IndexOutOfBounds { index: i, len: self.shape[axis] });
        }
        let mut shape = self.shape.clone();
        let mut strides = self.strides.clone();
        let offset = self.offset + i * strides[axis];
        shape.remove(axis);
        strides.remove(axis);
        Ok(NdArray::view(self.storage.clone(), shape, strides, offset))
    }

    /// Returns the `i`-th sub-array along the leading axis (shape loses that axis).
    /// Zero-copy.
    pub fn index_axis0(&self, i: usize) -> Result<NdArray> {
        if self.ndim() == 0 {
            return Err(TensorError::InvalidArgument("cannot index a scalar".into()));
        }
        self.index_axis(0, i)
    }

    /// Gathers rows (sub-arrays along axis 0) given by `indices` into a new leading axis.
    /// (Copies: the output is a new arrangement of rows.)
    pub fn gather_rows(&self, indices: &[usize]) -> Result<NdArray> {
        if self.ndim() == 0 {
            return Err(TensorError::InvalidArgument("cannot gather from a scalar".into()));
        }
        let inner: usize = self.shape[1..].iter().product::<usize>().max(1);
        let mut data = crate::pool::alloc_for_extend(indices.len() * inner);
        for &i in indices {
            if i >= self.shape[0] {
                return Err(TensorError::IndexOutOfBounds { index: i, len: self.shape[0] });
            }
            let row = self.index_axis(0, i).expect("validated row index");
            if row.is_contiguous() {
                data.extend_from_slice(row.as_slice());
            } else {
                data.extend(row.values());
            }
        }
        let mut shape = self.shape.clone();
        shape[0] = indices.len();
        NdArray::try_from_buffer(data, &shape)
    }

    /// Splits the array into `chunks` equal parts along axis 0. Zero-copy (each chunk is
    /// a view).
    pub fn chunk_axis0(&self, chunks: usize) -> Result<Vec<NdArray>> {
        if chunks == 0 || self.ndim() == 0 || !self.shape[0].is_multiple_of(chunks) {
            return Err(TensorError::InvalidArgument(format!(
                "cannot split leading dimension {} into {chunks} equal chunks",
                self.shape.first().copied().unwrap_or(0)
            )));
        }
        let per = self.shape[0] / chunks;
        (0..chunks).map(|c| self.slice_axis(0, c * per, (c + 1) * per)).collect()
    }

    /// Flattens to 1-D. Zero-copy for contiguous inputs.
    pub fn flatten(&self) -> NdArray {
        self.reshape(&[self.len()]).expect("flatten preserves the element count")
    }

    /// Inserts a size-1 dimension at `axis`. Zero-copy.
    pub fn unsqueeze(&self, axis: usize) -> Result<NdArray> {
        if axis > self.ndim() {
            return Err(TensorError::AxisOutOfRange { axis, ndim: self.ndim() + 1 });
        }
        let mut shape = self.shape.clone();
        let mut strides = self.strides.clone();
        shape.insert(axis, 1);
        // A size-1 dimension is never stepped over, so any stride is valid; 0 keeps the
        // metadata consistent with broadcast views.
        strides.insert(axis, 0);
        Ok(NdArray::view(self.storage.clone(), shape, strides, self.offset))
    }

    /// Removes a size-1 dimension at `axis`. Zero-copy.
    pub fn squeeze(&self, axis: usize) -> Result<NdArray> {
        if axis >= self.ndim() {
            return Err(TensorError::AxisOutOfRange { axis, ndim: self.ndim() });
        }
        if self.shape[axis] != 1 {
            return Err(TensorError::InvalidArgument(format!(
                "cannot squeeze dimension {axis} of size {}",
                self.shape[axis]
            )));
        }
        let mut shape = self.shape.clone();
        let mut strides = self.strides.clone();
        shape.remove(axis);
        strides.remove(axis);
        Ok(NdArray::view(self.storage.clone(), shape, strides, self.offset))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reshape_roundtrip() {
        let a = NdArray::arange(0.0, 1.0, 6);
        let b = a.reshape(&[2, 3]).unwrap();
        assert_eq!(b.shape(), &[2, 3]);
        assert_eq!(b.get(&[1, 0]).unwrap(), 3.0);
        assert!(a.reshape(&[4, 2]).is_err());
    }

    #[test]
    fn reshape_of_contiguous_is_zero_copy() {
        let a = NdArray::arange(0.0, 1.0, 6);
        let b = a.reshape(&[2, 3]).unwrap();
        assert!(a.shares_storage(&b));
        // Reshape of a permuted (non-contiguous) view must compact.
        let t = b.transpose_last2().unwrap();
        let r = t.reshape(&[6]).unwrap();
        assert!(!t.shares_storage(&r));
        assert_eq!(r.as_slice(), &[0.0, 3.0, 1.0, 4.0, 2.0, 5.0]);
    }

    #[test]
    fn transpose_and_permute() {
        let a = NdArray::arange(0.0, 1.0, 6).reshape(&[2, 3]).unwrap();
        let t = a.transpose_last2().unwrap();
        assert_eq!(t.shape(), &[3, 2]);
        assert_eq!(t.get(&[2, 1]).unwrap(), a.get(&[1, 2]).unwrap());
        assert!(a.shares_storage(&t), "transpose must be a view");

        let b = NdArray::arange(0.0, 1.0, 24).reshape(&[2, 3, 4]).unwrap();
        let p = b.permute(&[2, 0, 1]).unwrap();
        assert_eq!(p.shape(), &[4, 2, 3]);
        assert_eq!(p.get(&[3, 1, 2]).unwrap(), b.get(&[1, 2, 3]).unwrap());
        assert!(b.permute(&[0, 1]).is_err());
        assert!(b.permute(&[0, 0, 1]).is_err());
    }

    #[test]
    fn double_transpose_is_identity() {
        let a = NdArray::arange(0.0, 1.0, 24).reshape(&[2, 3, 4]).unwrap();
        let tt = a.transpose_last2().unwrap().transpose_last2().unwrap();
        assert_eq!(tt, a);
        assert!(tt.is_contiguous(), "double transpose restores the layout");
    }

    #[test]
    fn concat_axis0_and_axis1() {
        let a = NdArray::arange(0.0, 1.0, 4).reshape(&[2, 2]).unwrap();
        let b = NdArray::arange(10.0, 1.0, 4).reshape(&[2, 2]).unwrap();
        let c0 = NdArray::concat(&[&a, &b], 0).unwrap();
        assert_eq!(c0.shape(), &[4, 2]);
        assert_eq!(c0.get(&[2, 0]).unwrap(), 10.0);
        let c1 = NdArray::concat(&[&a, &b], 1).unwrap();
        assert_eq!(c1.shape(), &[2, 4]);
        assert_eq!(c1.as_slice(), &[0.0, 1.0, 10.0, 11.0, 2.0, 3.0, 12.0, 13.0]);
        assert!(NdArray::concat(&[&a, &NdArray::zeros(&[3, 3])], 0).is_err());
        assert!(NdArray::concat(&[], 0).is_err());
    }

    #[test]
    fn concat_accepts_strided_views() {
        let a = NdArray::arange(0.0, 1.0, 4).reshape(&[2, 2]).unwrap();
        let t = a.transpose_last2().unwrap();
        let c = NdArray::concat(&[&t, &t], 0).unwrap();
        assert_eq!(c.as_slice(), &[0.0, 2.0, 1.0, 3.0, 0.0, 2.0, 1.0, 3.0]);
    }

    #[test]
    fn stack_creates_new_axis() {
        let a = NdArray::ones(&[2, 2]);
        let b = NdArray::zeros(&[2, 2]);
        let s = NdArray::stack(&[&a, &b]).unwrap();
        assert_eq!(s.shape(), &[2, 2, 2]);
        assert_eq!(s.get(&[0, 0, 0]).unwrap(), 1.0);
        assert_eq!(s.get(&[1, 1, 1]).unwrap(), 0.0);
        assert!(NdArray::stack(&[&a, &NdArray::zeros(&[3])]).is_err());
    }

    #[test]
    fn slice_and_index() {
        let a = NdArray::arange(0.0, 1.0, 24).reshape(&[4, 3, 2]).unwrap();
        let s = a.slice_axis(0, 1, 3).unwrap();
        assert_eq!(s.shape(), &[2, 3, 2]);
        assert_eq!(s.get(&[0, 0, 0]).unwrap(), 6.0);
        assert!(a.shares_storage(&s), "slice must be a view");
        let s1 = a.slice_axis(1, 2, 3).unwrap();
        assert_eq!(s1.shape(), &[4, 1, 2]);
        assert_eq!(s1.get(&[1, 0, 1]).unwrap(), a.get(&[1, 2, 1]).unwrap());
        assert!(a.slice_axis(0, 2, 6).is_err());
        assert!(a.slice_axis(5, 0, 1).is_err());

        let row = a.index_axis0(2).unwrap();
        assert_eq!(row.shape(), &[3, 2]);
        assert_eq!(row.get(&[0, 0]).unwrap(), 12.0);
        assert!(a.index_axis0(4).is_err());
    }

    #[test]
    fn index_axis_works_on_any_axis() {
        let a = NdArray::arange(0.0, 1.0, 24).reshape(&[2, 3, 4]).unwrap();
        let mid = a.index_axis(1, 2).unwrap();
        assert_eq!(mid.shape(), &[2, 4]);
        assert_eq!(mid.get(&[1, 3]).unwrap(), a.get(&[1, 2, 3]).unwrap());
        assert!(a.shares_storage(&mid));
        assert!(a.index_axis(3, 0).is_err());
        assert!(a.index_axis(1, 3).is_err());
    }

    #[test]
    fn gather_and_chunk() {
        let a = NdArray::arange(0.0, 1.0, 12).reshape(&[4, 3]).unwrap();
        let g = a.gather_rows(&[3, 0, 0]).unwrap();
        assert_eq!(g.shape(), &[3, 3]);
        assert_eq!(g.get(&[0, 0]).unwrap(), 9.0);
        assert_eq!(g.get(&[1, 0]).unwrap(), 0.0);
        assert!(a.gather_rows(&[4]).is_err());

        let chunks = a.chunk_axis0(2).unwrap();
        assert_eq!(chunks.len(), 2);
        assert_eq!(chunks[1].get(&[0, 0]).unwrap(), 6.0);
        assert!(a.chunk_axis0(3).is_err());
    }

    #[test]
    fn gather_rows_from_strided_view() {
        let a = NdArray::arange(0.0, 1.0, 12).reshape(&[4, 3]).unwrap();
        let t = a.transpose_last2().unwrap(); // (3, 4), rows are columns of a
        let g = t.gather_rows(&[2, 0]).unwrap();
        assert_eq!(g.shape(), &[2, 4]);
        assert_eq!(g.as_slice(), &[2.0, 5.0, 8.0, 11.0, 0.0, 3.0, 6.0, 9.0]);
    }

    #[test]
    fn squeeze_unsqueeze_flatten() {
        let a = NdArray::arange(0.0, 1.0, 6).reshape(&[2, 3]).unwrap();
        let u = a.unsqueeze(1).unwrap();
        assert_eq!(u.shape(), &[2, 1, 3]);
        assert!(a.shares_storage(&u));
        let s = u.squeeze(1).unwrap();
        assert_eq!(s.shape(), &[2, 3]);
        assert!(a.shares_storage(&s));
        assert!(u.squeeze(0).is_err());
        assert_eq!(a.flatten().shape(), &[6]);
        assert!(a.shares_storage(&a.flatten()));
    }
}
