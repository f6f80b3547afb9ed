use std::sync::Arc;

use crate::pool::{self, Storage};
use crate::{Result, TensorError};

/// A dense, row-major-by-default `f32` n-dimensional array with shared-buffer views.
///
/// `NdArray` is the value type that every higher layer of the RITA stack builds on. Since
/// the zero-copy refactor it is a *view*: an [`Arc`]-shared flat buffer plus
/// `(shape, strides, offset)` metadata. Shape operations — `reshape` on contiguous data,
/// `permute`, `transpose_last2`, `slice_axis`, `index_axis0`, `squeeze` / `unsqueeze`,
/// `broadcast_to` — are O(1) metadata edits that alias the same storage; compute kernels
/// are stride-aware and only compact (`materialize`) when they need contiguity.
///
/// Mutation goes through copy-on-write: `as_mut_slice`, `set` and the in-place update
/// helpers first ensure the storage is uniquely owned and contiguous, so aliased views
/// are never observably mutated through another handle.
#[derive(Clone)]
pub struct NdArray {
    pub(crate) storage: Arc<Storage>,
    pub(crate) shape: Vec<usize>,
    pub(crate) strides: Vec<usize>,
    pub(crate) offset: usize,
}

/// Row-major (C-order) strides for `shape`.
pub(crate) fn contiguous_strides(shape: &[usize]) -> Vec<usize> {
    let mut strides = vec![0usize; shape.len()];
    let mut acc = 1usize;
    for (i, &d) in shape.iter().enumerate().rev() {
        strides[i] = acc;
        acc *= d;
    }
    strides
}

/// Advances a multi-index by one step in C order, updating `offset` by stride deltas
/// (the shared carry loop of [`OffsetIter`] and [`LaneIter`]).
#[inline]
fn advance_index(shape: &[usize], strides: &[usize], index: &mut [usize], offset: &mut usize) {
    for d in (0..shape.len()).rev() {
        index[d] += 1;
        if index[d] < shape[d] {
            *offset += strides[d];
            return;
        }
        index[d] = 0;
        *offset -= strides[d] * (shape[d] - 1);
    }
}

/// Iterator over the storage offsets of a view's elements in logical (C) order.
///
/// Amortised O(1) per element: the multi-index is advanced incrementally and the offset
/// updated by stride deltas, never recomputed from scratch.
pub(crate) struct OffsetIter<'a> {
    shape: &'a [usize],
    strides: &'a [usize],
    index: Vec<usize>,
    offset: usize,
    remaining: usize,
}

impl<'a> OffsetIter<'a> {
    pub(crate) fn new(shape: &'a [usize], strides: &'a [usize], offset: usize) -> Self {
        let remaining = shape.iter().product();
        Self { shape, strides, index: vec![0; shape.len()], offset, remaining }
    }
}

impl Iterator for OffsetIter<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        if self.remaining == 0 {
            return None;
        }
        let current = self.offset;
        self.remaining -= 1;
        advance_index(self.shape, self.strides, &mut self.index, &mut self.offset);
        Some(current)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

/// Iterator over the `(base_offset, lane_length, lane_stride)` of every 1-D lane along
/// one axis of a view, in C-order of the remaining axes.
///
/// This is what makes reductions and softmax run directly on strided views: each lane is
/// walked with a single stride, and the enumeration order of lanes matches the contiguous
/// layout of the reduced output.
pub(crate) struct LaneIter {
    rest_shape: Vec<usize>,
    rest_strides: Vec<usize>,
    index: Vec<usize>,
    offset: usize,
    remaining: usize,
    pub(crate) lane_len: usize,
    pub(crate) lane_stride: usize,
}

impl LaneIter {
    pub(crate) fn new(a: &NdArray, axis: usize) -> Self {
        debug_assert!(axis < a.shape.len());
        let mut rest_shape = a.shape.clone();
        let mut rest_strides = a.strides.clone();
        let lane_len = rest_shape.remove(axis);
        let lane_stride = rest_strides.remove(axis);
        let remaining = rest_shape.iter().product::<usize>();
        Self {
            index: vec![0; rest_shape.len()],
            rest_shape,
            rest_strides,
            offset: a.offset,
            remaining,
            lane_len,
            lane_stride,
        }
    }
}

impl Iterator for LaneIter {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        if self.remaining == 0 {
            return None;
        }
        let current = self.offset;
        self.remaining -= 1;
        advance_index(&self.rest_shape, &self.rest_strides, &mut self.index, &mut self.offset);
        Some(current)
    }
}

impl NdArray {
    // ---------------------------------------------------------------- constructors

    /// Internal constructor wrapping a freshly built buffer (no validation): a `Vec` the
    /// caller built, or a [`Storage`] the pool issued, which returns to it on drop.
    pub(crate) fn from_buffer(data: impl Into<Storage>, shape: &[usize]) -> Self {
        let data = data.into();
        debug_assert_eq!(data.len(), shape.iter().product::<usize>());
        Self {
            storage: Arc::new(data),
            strides: contiguous_strides(shape),
            shape: shape.to_vec(),
            offset: 0,
        }
    }

    /// Internal constructor for a view over existing storage (no validation).
    pub(crate) fn view(
        storage: Arc<Storage>,
        shape: Vec<usize>,
        strides: Vec<usize>,
        offset: usize,
    ) -> Self {
        Self { storage, shape, strides, offset }
    }

    /// Creates an array from a flat buffer and a shape.
    pub fn from_vec(data: Vec<f32>, shape: &[usize]) -> Result<Self> {
        Self::try_from_buffer(data, shape)
    }

    /// [`NdArray::from_vec`] for a buffer that may be pool-issued.
    pub(crate) fn try_from_buffer(data: impl Into<Storage>, shape: &[usize]) -> Result<Self> {
        let data = data.into();
        let expected: usize = shape.iter().product();
        if expected != data.len() {
            return Err(TensorError::ShapeDataMismatch {
                shape: shape.to_vec(),
                data_len: data.len(),
            });
        }
        Ok(Self::from_buffer(data, shape))
    }

    /// Creates a scalar (rank-0) array.
    pub fn scalar(value: f32) -> Self {
        Self::from_buffer(vec![value], &[])
    }

    /// Creates an array filled with `value`.
    pub fn full(shape: &[usize], value: f32) -> Self {
        let n: usize = shape.iter().product();
        let mut data = pool::alloc_for_extend(n);
        data.resize(n, value);
        Self::from_buffer(data, shape)
    }

    /// Creates an array of zeros.
    pub fn zeros(shape: &[usize]) -> Self {
        Self::from_buffer(pool::alloc_zeroed(shape.iter().product()), shape)
    }

    /// Creates an array of ones.
    pub fn ones(shape: &[usize]) -> Self {
        Self::full(shape, 1.0)
    }

    /// Creates the `n × n` identity matrix.
    pub fn eye(n: usize) -> Self {
        let mut data = vec![0.0f32; n * n];
        for i in 0..n {
            data[i * n + i] = 1.0;
        }
        Self::from_buffer(data, &[n, n])
    }

    /// Creates a 1-D array from a slice.
    pub fn from_slice(data: &[f32]) -> Self {
        Self::from_buffer(data.to_vec(), &[data.len()])
    }

    /// Creates a 1-D array of evenly spaced values `[start, start + step, ...)` of length `n`.
    pub fn arange(start: f32, step: f32, n: usize) -> Self {
        let data: Vec<f32> = (0..n).map(|i| start + step * i as f32).collect();
        Self::from_buffer(data, &[n])
    }

    // ---------------------------------------------------------------- view metadata

    /// The shape of the array.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// The rank (number of dimensions).
    pub fn ndim(&self) -> usize {
        self.shape.len()
    }

    /// Total number of (logical) elements.
    pub fn len(&self) -> usize {
        self.shape.iter().product()
    }

    /// `true` when the array holds no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Element strides of this view (in units of `f32`, 0 for broadcast dimensions).
    pub fn strides(&self) -> Vec<usize> {
        self.strides.clone()
    }

    /// Offset of the first logical element into the shared storage.
    pub fn storage_offset(&self) -> usize {
        self.offset
    }

    /// `true` when the view's elements are laid out contiguously in row-major order
    /// starting at `storage_offset()` (size-1 dimensions may carry any stride).
    pub fn is_contiguous(&self) -> bool {
        let mut acc = 1usize;
        for (&d, &s) in self.shape.iter().zip(self.strides.iter()).rev() {
            if d == 0 {
                return true; // empty arrays are trivially contiguous
            }
            if d != 1 {
                if s != acc {
                    return false;
                }
                acc *= d;
            }
        }
        true
    }

    /// An opaque identifier of the underlying storage buffer: two arrays with equal ids
    /// alias the same allocation. Used by the zero-copy regression tests.
    pub fn storage_id(&self) -> usize {
        Arc::as_ptr(&self.storage) as usize
    }

    /// `true` when `self` and `other` share one storage allocation (`Arc::ptr_eq`).
    pub fn shares_storage(&self, other: &NdArray) -> bool {
        Arc::ptr_eq(&self.storage, &other.storage)
    }

    /// Returns a contiguous array with the same logical contents.
    ///
    /// Cheap (an `Arc` clone of the metadata) when the view is already contiguous;
    /// otherwise the elements are compacted into a fresh buffer. This is the single
    /// choke-point kernels use when they require contiguity.
    pub fn materialize(&self) -> NdArray {
        if self.is_contiguous() {
            return self.clone();
        }
        self.compact()
    }

    /// Iterator over storage offsets of elements in logical order.
    pub(crate) fn offsets(&self) -> OffsetIter<'_> {
        OffsetIter::new(&self.shape, &self.strides, self.offset)
    }

    /// Iterator over the contiguous trailing-dimension lanes ("rows") of the view, in
    /// logical order. Requires `stride[-1] == 1` (or a trailing dimension of size ≤ 1);
    /// use [`NdArray::with_contiguous_rows`] first for arbitrary views.
    ///
    /// This is how stride-aware consumers (k-means grouping, per-row statistics) read a
    /// head-split or sliced tensor without any copy.
    pub fn rows(&self) -> impl Iterator<Item = &[f32]> + '_ {
        assert!(self.ndim() >= 1, "rows() requires rank >= 1");
        let last = self.ndim() - 1;
        let len = self.shape[last];
        assert!(
            len <= 1 || self.strides[last] == 1,
            "rows() requires a contiguous trailing dimension (strides {:?})",
            self.strides
        );
        LaneIter::new(self, last).map(move |base| &self.storage[base..base + len])
    }

    /// Contiguous row `i` of a 2-D view whose trailing dimension is contiguous.
    pub fn row(&self, i: usize) -> &[f32] {
        assert_eq!(self.ndim(), 2, "row() requires a 2-D array");
        let (n, d) = (self.shape[0], self.shape[1]);
        assert!(i < n, "row {i} out of bounds for {n} rows");
        assert!(
            d <= 1 || self.strides[1] == 1,
            "row() requires a contiguous trailing dimension (strides {:?})",
            self.strides
        );
        let base = self.offset + i * self.strides[0];
        &self.storage[base..base + d]
    }

    /// Returns an equivalent array whose trailing dimension is contiguous: `self` (cheap
    /// clone) when it already is, otherwise a compacted copy.
    pub fn with_contiguous_rows(&self) -> NdArray {
        if self.ndim() == 0 {
            return self.clone();
        }
        let last = self.ndim() - 1;
        if self.shape[last] <= 1 || self.strides[last] == 1 {
            self.clone()
        } else {
            self.materialize()
        }
    }

    /// Iterator over element values in logical order.
    pub(crate) fn values(&self) -> impl Iterator<Item = f32> + '_ {
        self.offsets().map(move |o| self.storage[o])
    }

    /// Makes the storage uniquely owned and the layout contiguous, compacting if needed.
    /// Every in-place mutation funnels through here, which is what gives views
    /// copy-on-write semantics.
    pub(crate) fn ensure_unique_contiguous(&mut self) {
        if !self.is_contiguous() {
            *self = self.compact();
            return;
        }
        if Arc::get_mut(&mut self.storage).is_none() {
            *self = self.compact();
        }
    }

    /// Unconditionally copies the logical contents into a fresh, uniquely owned buffer.
    fn compact(&self) -> NdArray {
        let mut data = pool::alloc_for_extend(self.len());
        if self.is_contiguous() {
            data.extend_from_slice(&self.storage[self.offset..self.offset + self.len()]);
        } else {
            for off in self.offsets() {
                data.push(self.storage[off]);
            }
        }
        NdArray::from_buffer(data, &self.shape)
    }

    // ---------------------------------------------------------------- accessors

    /// Immutable view of the flat, row-major buffer.
    ///
    /// # Panics
    /// Panics when the view is not contiguous; call [`NdArray::materialize`] first for
    /// arbitrary views.
    pub fn as_slice(&self) -> &[f32] {
        assert!(
            self.is_contiguous(),
            "as_slice() on a non-contiguous view (shape {:?}, strides {:?}); materialize() first",
            self.shape,
            self.strides
        );
        &self.storage[self.offset..self.offset + self.len()]
    }

    /// Mutable view of the flat, row-major buffer (copy-on-write: compacts the view and
    /// unshares the storage first when necessary).
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        self.ensure_unique_contiguous();
        let (offset, len) = (self.offset, self.len());
        let storage = Arc::get_mut(&mut self.storage).expect("storage unique after CoW");
        &mut storage[offset..offset + len]
    }

    /// Consumes the array and returns the flat buffer.
    pub fn into_vec(mut self) -> Vec<f32> {
        self.ensure_unique_contiguous();
        if self.offset == 0 && self.len() == self.storage.len() {
            match Arc::try_unwrap(self.storage) {
                Ok(storage) => storage.into_vec(),
                Err(arc) => arc[..].to_vec(),
            }
        } else {
            self.storage[self.offset..self.offset + self.len()].to_vec()
        }
    }

    /// The value of a rank-0 or single-element array.
    pub fn item(&self) -> f32 {
        debug_assert_eq!(self.len(), 1, "item() called on array with {} elements", self.len());
        self.storage[self.offset]
    }

    /// Value at a multi-dimensional index. Panics (debug) on rank mismatch; returns an
    /// error on out-of-bounds indices.
    pub fn get(&self, index: &[usize]) -> Result<f32> {
        Ok(self.storage[self.flat_offset(index)?])
    }

    /// Sets the value at a multi-dimensional index (copy-on-write).
    pub fn set(&mut self, index: &[usize], value: f32) -> Result<()> {
        // Validate the index against the *current* layout before any compaction.
        self.flat_offset(index)?;
        self.ensure_unique_contiguous();
        let flat = self.flat_offset(index)?;
        let storage = Arc::get_mut(&mut self.storage).expect("storage unique after CoW");
        storage[flat] = value;
        Ok(())
    }

    /// Storage offset of a multi-dimensional index in this view.
    pub(crate) fn flat_offset(&self, index: &[usize]) -> Result<usize> {
        if index.len() != self.shape.len() {
            return Err(TensorError::InvalidArgument(format!(
                "index rank {} does not match array rank {}",
                index.len(),
                self.shape.len()
            )));
        }
        let mut flat = self.offset;
        for ((&i, &d), &s) in index.iter().zip(self.shape.iter()).zip(self.strides.iter()) {
            if i >= d {
                return Err(TensorError::IndexOutOfBounds { index: i, len: d });
            }
            flat += i * s;
        }
        Ok(flat)
    }

    // ---------------------------------------------------------------- simple maps

    /// Applies `f` to every element, returning a new (contiguous) array.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Self {
        let mut data = pool::alloc_for_extend(self.len());
        if self.is_contiguous() {
            data.extend(self.storage[self.offset..self.offset + self.len()].iter().map(|&x| f(x)));
        } else {
            data.extend(self.values().map(&f));
        }
        Self::from_buffer(data, &self.shape)
    }

    /// Applies `f` to every element in place (copy-on-write).
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for x in self.as_mut_slice() {
            *x = f(*x);
        }
    }

    /// Elementwise exponential.
    pub fn exp(&self) -> Self {
        self.map(f32::exp)
    }

    /// Elementwise natural logarithm.
    pub fn ln(&self) -> Self {
        self.map(f32::ln)
    }

    /// Elementwise square root.
    pub fn sqrt(&self) -> Self {
        self.map(f32::sqrt)
    }

    /// Elementwise negation.
    pub fn neg(&self) -> Self {
        self.map(|x| -x)
    }

    /// Elementwise absolute value.
    pub fn abs(&self) -> Self {
        self.map(f32::abs)
    }

    /// Elementwise `tanh`.
    pub fn tanh(&self) -> Self {
        self.map(f32::tanh)
    }

    /// Elementwise power with an integer exponent.
    pub fn powi(&self, n: i32) -> Self {
        self.map(|x| x.powi(n))
    }

    /// Elementwise clamp into `[lo, hi]`.
    pub fn clamp(&self, lo: f32, hi: f32) -> Self {
        self.map(|x| x.clamp(lo, hi))
    }

    /// Multiplies every element by a scalar.
    pub fn scale(&self, s: f32) -> Self {
        self.map(|x| x * s)
    }

    /// Adds a scalar to every element.
    pub fn add_scalar(&self, s: f32) -> Self {
        self.map(|x| x + s)
    }

    /// `true` when any element is NaN or infinite.
    pub fn has_non_finite(&self) -> bool {
        if self.is_contiguous() {
            return self.storage[self.offset..self.offset + self.len()]
                .iter()
                .any(|x| !x.is_finite());
        }
        self.values().any(|x| !x.is_finite())
    }

    /// Squared Euclidean (Frobenius) norm of all elements.
    pub fn sq_norm(&self) -> f32 {
        if self.is_contiguous() {
            return self.storage[self.offset..self.offset + self.len()]
                .iter()
                .map(|&x| x * x)
                .sum();
        }
        self.values().map(|x| x * x).sum()
    }

    /// Euclidean norm of all elements.
    pub fn norm(&self) -> f32 {
        self.sq_norm().sqrt()
    }
}

impl PartialEq for NdArray {
    /// Logical equality: same shape and elementwise-equal values, regardless of layout
    /// (a permuted view equals its materialised copy).
    fn eq(&self, other: &NdArray) -> bool {
        self.shape == other.shape && self.values().zip(other.values()).all(|(a, b)| a == b)
    }
}

impl std::fmt::Debug for NdArray {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NdArray")
            .field("shape", &self.shape)
            .field("strides", &self.strides)
            .field("offset", &self.offset)
            .field("data", &self.values().collect::<Vec<_>>())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_and_accessors() {
        let a = NdArray::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]).unwrap();
        assert_eq!(a.shape(), &[2, 3]);
        assert_eq!(a.ndim(), 2);
        assert_eq!(a.len(), 6);
        assert_eq!(a.get(&[1, 2]).unwrap(), 6.0);
        assert_eq!(a.strides(), vec![3, 1]);

        let z = NdArray::zeros(&[3, 3]);
        assert!(z.as_slice().iter().all(|&x| x == 0.0));
        let o = NdArray::ones(&[4]);
        assert!(o.as_slice().iter().all(|&x| x == 1.0));

        let e = NdArray::eye(3);
        assert_eq!(e.get(&[1, 1]).unwrap(), 1.0);
        assert_eq!(e.get(&[0, 1]).unwrap(), 0.0);
    }

    #[test]
    fn from_vec_rejects_mismatch() {
        assert!(matches!(
            NdArray::from_vec(vec![1.0; 5], &[2, 3]),
            Err(TensorError::ShapeDataMismatch { .. })
        ));
    }

    #[test]
    fn index_out_of_bounds() {
        let a = NdArray::zeros(&[2, 2]);
        assert!(matches!(a.get(&[2, 0]), Err(TensorError::IndexOutOfBounds { .. })));
        assert!(a.get(&[0]).is_err());
    }

    #[test]
    fn set_and_get_roundtrip() {
        let mut a = NdArray::zeros(&[2, 3, 4]);
        a.set(&[1, 2, 3], 7.5).unwrap();
        assert_eq!(a.get(&[1, 2, 3]).unwrap(), 7.5);
        assert_eq!(a.as_slice()[12 + 2 * 4 + 3], 7.5);
    }

    #[test]
    fn scalar_and_item() {
        let s = NdArray::scalar(3.25);
        assert_eq!(s.ndim(), 0);
        assert_eq!(s.item(), 3.25);
    }

    #[test]
    fn arange_and_maps() {
        let a = NdArray::arange(0.0, 0.5, 5);
        assert_eq!(a.as_slice(), &[0.0, 0.5, 1.0, 1.5, 2.0]);
        assert_eq!(a.scale(2.0).as_slice(), &[0.0, 1.0, 2.0, 3.0, 4.0]);
        assert_eq!(a.add_scalar(1.0).as_slice()[0], 1.0);
        let b = NdArray::from_slice(&[-1.0, 4.0]);
        assert_eq!(b.abs().as_slice(), &[1.0, 4.0]);
        assert_eq!(b.powi(2).as_slice(), &[1.0, 16.0]);
        assert_eq!(b.clamp(0.0, 2.0).as_slice(), &[0.0, 2.0]);
        assert!((b.sq_norm() - 17.0).abs() < 1e-6);
    }

    #[test]
    fn non_finite_detection() {
        let mut a = NdArray::ones(&[3]);
        assert!(!a.has_non_finite());
        a.set(&[1], f32::NAN).unwrap();
        assert!(a.has_non_finite());
    }

    #[test]
    fn clone_shares_storage_and_set_copies_on_write() {
        let a = NdArray::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        let mut b = a.clone();
        assert!(a.shares_storage(&b));
        b.set(&[0, 0], 9.0).unwrap();
        // The write detached b; a is untouched.
        assert!(!a.shares_storage(&b));
        assert_eq!(a.get(&[0, 0]).unwrap(), 1.0);
        assert_eq!(b.get(&[0, 0]).unwrap(), 9.0);
    }

    #[test]
    fn materialize_is_cheap_for_contiguous_views() {
        let a = NdArray::arange(0.0, 1.0, 6);
        let m = a.materialize();
        assert!(a.shares_storage(&m), "contiguous materialize must not copy");
    }

    #[test]
    fn map_on_strided_view_matches_contiguous() {
        let a = NdArray::arange(0.0, 1.0, 6).reshape(&[2, 3]).unwrap();
        let t = a.transpose_last2().unwrap();
        assert_eq!(t.map(|x| x * 2.0), t.materialize().map(|x| x * 2.0));
    }

    #[test]
    fn as_mut_slice_compacts_strided_views() {
        let a = NdArray::arange(0.0, 1.0, 6).reshape(&[2, 3]).unwrap();
        let mut t = a.transpose_last2().unwrap();
        assert!(!t.is_contiguous());
        let before = t.materialize();
        t.as_mut_slice()[0] += 0.0;
        assert!(t.is_contiguous());
        assert_eq!(t, before);
        // a is unaffected by the compaction.
        assert_eq!(a.as_slice(), &[0.0, 1.0, 2.0, 3.0, 4.0, 5.0]);
    }

    #[test]
    #[should_panic(expected = "non-contiguous")]
    fn as_slice_panics_on_strided_view() {
        let a = NdArray::arange(0.0, 1.0, 6).reshape(&[2, 3]).unwrap();
        let _ = a.transpose_last2().unwrap().as_slice();
    }

    #[test]
    fn logical_equality_ignores_layout() {
        let a = NdArray::arange(0.0, 1.0, 6).reshape(&[2, 3]).unwrap();
        let t = a.transpose_last2().unwrap();
        assert_eq!(t, t.materialize());
        assert_ne!(a, t.materialize()); // different shapes
    }
}
