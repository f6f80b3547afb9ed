//! Window extraction and summation for 1-D signals — the im2col pair behind the
//! time-aware convolution and its transpose-convolution decoder.
//!
//! These used to live inside the autograd layer; they are tensor-level kernels so that
//! both the training path (`rita-nn` wraps them as adjoint autograd ops) and the
//! tape-free inference engine (`rita-infer`) run the *same* code — bit-identical outputs
//! by construction.

use crate::{NdArray, Result, TensorError};

impl NdArray {
    /// Unfolds a `(batch, channels, length)` signal into
    /// `(batch, n_windows, channels * width)` windows of size `width` taken every
    /// `stride` steps.
    pub fn unfold1d(&self, width: usize, stride: usize) -> Result<NdArray> {
        if self.ndim() != 3 {
            return Err(TensorError::InvalidArgument(format!(
                "unfold1d expects (batch, channels, length), got rank {}",
                self.ndim()
            )));
        }
        let (b, c, l) = (self.shape()[0], self.shape()[1], self.shape()[2]);
        if width == 0 || stride == 0 || l < width {
            return Err(TensorError::InvalidArgument(format!(
                "invalid unfold1d width {width} / stride {stride} for length {l}"
            )));
        }
        let n = (l - width) / stride + 1;
        let x = self.materialize();
        let xd = x.as_slice();
        // Every (bi, wi, ci) block is written, so the zero fill is only load-bearing
        // for pooled reuse; the buffer still comes from the arena in serving loops.
        let mut out = crate::pool::alloc_zeroed(b * n * c * width);
        for bi in 0..b {
            for wi in 0..n {
                let start = wi * stride;
                for ci in 0..c {
                    let src = bi * c * l + ci * l + start;
                    let dst = ((bi * n + wi) * c + ci) * width;
                    out[dst..dst + width].copy_from_slice(&xd[src..src + width]);
                }
            }
        }
        NdArray::try_from_buffer(out, &[b, n, c * width])
    }

    /// Folds `(batch, n_windows, channels * width)` windows back into a
    /// `(batch, channels, length)` signal by summing overlapping contributions — the
    /// adjoint of [`NdArray::unfold1d`], and an exact inverse when `stride == width`.
    pub fn fold1d(
        &self,
        channels: usize,
        width: usize,
        stride: usize,
        length: usize,
    ) -> Result<NdArray> {
        if self.ndim() != 3 {
            return Err(TensorError::InvalidArgument(format!(
                "fold1d expects (batch, n, channels*width), got rank {}",
                self.ndim()
            )));
        }
        let (b, n, cw) = (self.shape()[0], self.shape()[1], self.shape()[2]);
        if width == 0 || stride == 0 || cw != channels * width {
            return Err(TensorError::InvalidArgument(format!(
                "fold1d: last dim {cw} != channels {channels} * width {width}"
            )));
        }
        if n == 0 || (n - 1) * stride + width > length {
            return Err(TensorError::InvalidArgument(format!(
                "fold1d: {n} windows of width {width} / stride {stride} exceed length {length}"
            )));
        }
        let g = self.materialize();
        let gd = g.as_slice();
        let mut out = crate::pool::alloc_zeroed(b * channels * length);
        for bi in 0..b {
            for wi in 0..n {
                let start = wi * stride;
                for ci in 0..channels {
                    let dst = bi * channels * length + ci * length + start;
                    let src = ((bi * n + wi) * channels + ci) * width;
                    for k in 0..width {
                        out[dst + k] += gd[src + k];
                    }
                }
            }
        }
        NdArray::try_from_buffer(out, &[b, channels, length])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allclose;

    #[test]
    fn unfold_nonoverlapping_is_chunking() {
        let x = NdArray::from_vec((0..12).map(|v| v as f32).collect(), &[1, 2, 6]).unwrap();
        let u = x.unfold1d(3, 3).unwrap();
        assert_eq!(u.shape(), &[1, 2, 6]);
        assert_eq!(&u.as_slice()[..6], &[0.0, 1.0, 2.0, 6.0, 7.0, 8.0]);
        assert_eq!(&u.as_slice()[6..], &[3.0, 4.0, 5.0, 9.0, 10.0, 11.0]);
    }

    #[test]
    fn fold_inverts_unfold_for_nonoverlapping_windows() {
        let x = NdArray::arange(0.0, 1.0, 24).reshape(&[2, 3, 4]).unwrap();
        let u = x.unfold1d(2, 2).unwrap();
        let f = u.fold1d(3, 2, 2, 4).unwrap();
        assert!(allclose(f.as_slice(), x.as_slice(), 1e-6, 1e-6));
    }

    #[test]
    fn fold_sums_overlapping_windows() {
        // length 5, width 3, stride 1 → 3 windows of ones; centre elements overlap.
        let w = NdArray::ones(&[1, 3, 3]);
        let f = w.fold1d(1, 3, 1, 5).unwrap();
        assert_eq!(f.as_slice(), &[1.0, 2.0, 3.0, 2.0, 1.0]);
    }

    #[test]
    fn unfold_consumes_strided_views() {
        let base = NdArray::arange(0.0, 1.0, 24).reshape(&[2, 2, 6]).unwrap();
        let view = base.slice_axis(2, 0, 4).unwrap();
        let via_view = view.unfold1d(2, 2).unwrap();
        let via_copy = view.materialize().unfold1d(2, 2).unwrap();
        assert_eq!(via_view.as_slice(), via_copy.as_slice());
    }

    #[test]
    fn rejects_invalid_shapes_and_windows() {
        let x = NdArray::zeros(&[2, 6]);
        assert!(x.unfold1d(2, 2).is_err());
        let x3 = NdArray::zeros(&[1, 1, 4]);
        assert!(x3.unfold1d(0, 1).is_err());
        assert!(x3.unfold1d(5, 1).is_err());
        let w = NdArray::zeros(&[1, 3, 2]);
        assert!(w.fold1d(1, 2, 2, 4).is_err(), "windows exceed target length");
        assert!(w.fold1d(2, 2, 2, 8).is_err(), "channels*width mismatch");
    }
}
