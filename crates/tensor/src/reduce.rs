//! Reductions (sum / mean / max / min), softmax, and argmax.
//!
//! All reductions are stride-aware: an axis reduction walks the view's 1-D *lanes* along
//! the reduced axis through a single stride each (see `LaneIter`), so softmax and
//! layer-norm style reductions run directly on permuted / sliced / broadcast views with
//! no compaction. Lanes whose stride is 1 take a contiguous fast path.

use crate::array::LaneIter;
use crate::{NdArray, Result, TensorError};

impl NdArray {
    /// Sum of every element.
    pub fn sum_all(&self) -> f32 {
        if self.is_contiguous() {
            return self.as_slice().iter().sum();
        }
        self.values().sum()
    }

    /// Mean of every element (0 for empty arrays).
    pub fn mean_all(&self) -> f32 {
        if self.is_empty() {
            0.0
        } else {
            self.sum_all() / self.len() as f32
        }
    }

    /// Maximum element (negative infinity for empty arrays).
    pub fn max_all(&self) -> f32 {
        self.values().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Minimum element (positive infinity for empty arrays).
    pub fn min_all(&self) -> f32 {
        self.values().fold(f32::INFINITY, f32::min)
    }

    fn reduce_axis(
        &self,
        axis: usize,
        keepdim: bool,
        init: f32,
        f: impl Fn(f32, f32) -> f32,
    ) -> Result<NdArray> {
        if axis >= self.ndim() {
            return Err(TensorError::AxisOutOfRange { axis, ndim: self.ndim() });
        }
        let lanes = LaneIter::new(self, axis);
        let (lane_len, lane_stride) = (lanes.lane_len, lanes.lane_stride);
        let mut out = crate::pool::alloc_for_extend(self.len() / lane_len.max(1));
        for base in lanes {
            let mut acc = init;
            if lane_stride == 1 {
                for &v in &self.storage[base..base + lane_len] {
                    acc = f(acc, v);
                }
            } else {
                for a in 0..lane_len {
                    acc = f(acc, self.storage[base + a * lane_stride]);
                }
            }
            out.push(acc);
        }
        let mut shape = self.shape.clone();
        if keepdim {
            shape[axis] = 1;
        } else {
            shape.remove(axis);
        }
        NdArray::try_from_buffer(out, &shape)
    }

    /// Sum along `axis`.
    pub fn sum_axis(&self, axis: usize, keepdim: bool) -> Result<NdArray> {
        self.reduce_axis(axis, keepdim, 0.0, |a, b| a + b)
    }

    /// Mean along `axis`.
    pub fn mean_axis(&self, axis: usize, keepdim: bool) -> Result<NdArray> {
        let n = self.shape.get(axis).copied().unwrap_or(1).max(1) as f32;
        Ok(self.sum_axis(axis, keepdim)?.scale(1.0 / n))
    }

    /// Maximum along `axis`.
    pub fn max_axis(&self, axis: usize, keepdim: bool) -> Result<NdArray> {
        self.reduce_axis(axis, keepdim, f32::NEG_INFINITY, f32::max)
    }

    /// Numerically stable softmax over the last dimension. Stride-aware: runs directly on
    /// views (e.g. head-split or sliced score tensors).
    pub fn softmax_last(&self) -> Result<NdArray> {
        if self.ndim() == 0 {
            return Ok(NdArray::scalar(1.0));
        }
        let last = self.shape[self.ndim() - 1];
        if last == 0 {
            return Ok(self.clone());
        }
        let mut out = crate::pool::alloc_zeroed(self.len());
        let lanes = LaneIter::new(self, self.ndim() - 1);
        let stride = lanes.lane_stride;
        for (r, base) in lanes.enumerate() {
            let out_row = &mut out[r * last..(r + 1) * last];
            let mut m = f32::NEG_INFINITY;
            if stride == 1 {
                out_row.copy_from_slice(&self.storage[base..base + last]);
                for &x in out_row.iter() {
                    m = m.max(x);
                }
            } else {
                for (i, o) in out_row.iter_mut().enumerate() {
                    let x = self.storage[base + i * stride];
                    *o = x;
                    m = m.max(x);
                }
            }
            let mut sum = 0.0f32;
            for o in out_row.iter_mut() {
                let e = (*o - m).exp();
                *o = e;
                sum += e;
            }
            let inv = 1.0 / sum;
            for o in out_row.iter_mut() {
                *o *= inv;
            }
        }
        NdArray::try_from_buffer(out, &self.shape)
    }

    /// Log-softmax over the last dimension (numerically stable, stride-aware).
    pub fn log_softmax_last(&self) -> Result<NdArray> {
        if self.ndim() == 0 {
            return Ok(NdArray::scalar(0.0));
        }
        let last = self.shape[self.ndim() - 1];
        if last == 0 {
            return Ok(self.clone());
        }
        let mut out = crate::pool::alloc_zeroed(self.len());
        let lanes = LaneIter::new(self, self.ndim() - 1);
        let stride = lanes.lane_stride;
        for (r, base) in lanes.enumerate() {
            let out_row = &mut out[r * last..(r + 1) * last];
            let mut m = f32::NEG_INFINITY;
            if stride == 1 {
                out_row.copy_from_slice(&self.storage[base..base + last]);
                for &x in out_row.iter() {
                    m = m.max(x);
                }
            } else {
                for (i, o) in out_row.iter_mut().enumerate() {
                    let x = self.storage[base + i * stride];
                    *o = x;
                    m = m.max(x);
                }
            }
            let lse = m + out_row.iter().map(|&x| (x - m).exp()).sum::<f32>().ln();
            for o in out_row.iter_mut() {
                *o -= lse;
            }
        }
        NdArray::try_from_buffer(out, &self.shape)
    }

    /// Index of the maximum element along the last dimension, per row.
    pub fn argmax_last(&self) -> Vec<usize> {
        if self.ndim() == 0 || self.is_empty() {
            return vec![];
        }
        let last = self.shape[self.ndim() - 1];
        let lanes = LaneIter::new(self, self.ndim() - 1);
        let stride = lanes.lane_stride;
        let mut out = Vec::with_capacity(self.len() / last.max(1));
        for base in lanes {
            let mut best = 0usize;
            let mut best_v = f32::NEG_INFINITY;
            for i in 0..last {
                let v = self.storage[base + i * stride];
                if v > best_v {
                    best_v = v;
                    best = i;
                }
            }
            out.push(best);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allclose;

    #[test]
    fn global_reductions() {
        let a = NdArray::from_slice(&[1.0, -2.0, 3.0, 4.0]);
        assert_eq!(a.sum_all(), 6.0);
        assert_eq!(a.mean_all(), 1.5);
        assert_eq!(a.max_all(), 4.0);
        assert_eq!(a.min_all(), -2.0);
    }

    #[test]
    fn axis_reductions() {
        let a = NdArray::arange(0.0, 1.0, 6).reshape(&[2, 3]).unwrap();
        assert_eq!(a.sum_axis(0, false).unwrap().as_slice(), &[3.0, 5.0, 7.0]);
        assert_eq!(a.sum_axis(1, false).unwrap().as_slice(), &[3.0, 12.0]);
        assert_eq!(a.sum_axis(1, true).unwrap().shape(), &[2, 1]);
        assert_eq!(a.mean_axis(1, false).unwrap().as_slice(), &[1.0, 4.0]);
        assert_eq!(a.max_axis(0, false).unwrap().as_slice(), &[3.0, 4.0, 5.0]);
        assert!(a.sum_axis(2, false).is_err());
    }

    #[test]
    fn axis_reduction_middle_axis() {
        let a = NdArray::arange(0.0, 1.0, 24).reshape(&[2, 3, 4]).unwrap();
        let s = a.sum_axis(1, false).unwrap();
        assert_eq!(s.shape(), &[2, 4]);
        // element [0,0] = a[0,0,0]+a[0,1,0]+a[0,2,0] = 0+4+8
        assert_eq!(s.get(&[0, 0]).unwrap(), 12.0);
    }

    #[test]
    fn axis_reduction_on_permuted_view_matches_materialized() {
        let a = NdArray::arange(0.0, 1.0, 24).reshape(&[2, 3, 4]).unwrap();
        let p = a.permute(&[2, 0, 1]).unwrap();
        for axis in 0..3 {
            let via_view = p.sum_axis(axis, false).unwrap();
            let via_copy = p.materialize().sum_axis(axis, false).unwrap();
            assert_eq!(via_view, via_copy, "axis {axis}");
            let mx_view = p.max_axis(axis, true).unwrap();
            let mx_copy = p.materialize().max_axis(axis, true).unwrap();
            assert_eq!(mx_view, mx_copy, "max axis {axis}");
        }
    }

    #[test]
    fn softmax_rows_sum_to_one_and_are_stable() {
        let a = NdArray::from_vec(vec![1.0, 2.0, 3.0, 1000.0, 1001.0, 1002.0], &[2, 3]).unwrap();
        let s = a.softmax_last().unwrap();
        for r in 0..2 {
            let row_sum: f32 = s.as_slice()[r * 3..(r + 1) * 3].iter().sum();
            assert!((row_sum - 1.0).abs() < 1e-5);
        }
        // Shift invariance: both rows should produce identical distributions.
        assert!(allclose(&s.as_slice()[..3], &s.as_slice()[3..], 1e-6, 1e-6));
        assert!(!s.has_non_finite());
    }

    #[test]
    fn softmax_on_transposed_view_matches_materialized() {
        let a = NdArray::arange(-2.0, 0.37, 12).reshape(&[3, 4]).unwrap();
        let t = a.transpose_last2().unwrap();
        let via_view = t.softmax_last().unwrap();
        let via_copy = t.materialize().softmax_last().unwrap();
        assert!(allclose(via_view.as_slice(), via_copy.as_slice(), 1e-7, 1e-7));
        let lvia_view = t.log_softmax_last().unwrap();
        let lvia_copy = t.materialize().log_softmax_last().unwrap();
        assert!(allclose(lvia_view.as_slice(), lvia_copy.as_slice(), 1e-6, 1e-6));
    }

    #[test]
    fn log_softmax_matches_log_of_softmax() {
        let a = NdArray::from_vec(vec![0.5, -1.0, 2.0, 0.0], &[2, 2]).unwrap();
        let ls = a.log_softmax_last().unwrap();
        let s = a.softmax_last().unwrap().ln();
        assert!(allclose(ls.as_slice(), s.as_slice(), 1e-5, 1e-5));
    }

    #[test]
    fn argmax_per_row() {
        let a = NdArray::from_vec(vec![0.1, 0.9, 0.0, 5.0, -1.0, 2.0], &[2, 3]).unwrap();
        assert_eq!(a.argmax_last(), vec![1, 0]);
        // And through a transposed view.
        let t = a.transpose_last2().unwrap(); // (3, 2)
        assert_eq!(t.argmax_last(), t.materialize().argmax_last());
    }
}
