//! NumPy-style broadcasting and elementwise binary operations.
//!
//! All operations here are stride-aware: operands may be arbitrary views (permuted,
//! sliced, broadcast) and are walked through their own strides without compaction.
//! [`NdArray::broadcast_to`] exposes broadcasting itself as an O(1) stride-0 view.

use crate::array::OffsetIter;
use crate::{NdArray, Result, TensorError};

/// Computes the broadcast shape of two shapes following NumPy rules
/// (right-aligned; a dimension of 1 stretches to match the other operand).
pub(crate) fn broadcast_shape(lhs: &[usize], rhs: &[usize]) -> Result<Vec<usize>> {
    let ndim = lhs.len().max(rhs.len());
    let mut out = vec![0usize; ndim];
    for i in 0..ndim {
        let l = if i < ndim - lhs.len() { 1 } else { lhs[i - (ndim - lhs.len())] };
        let r = if i < ndim - rhs.len() { 1 } else { rhs[i - (ndim - rhs.len())] };
        out[i] = if l == r {
            l
        } else if l == 1 {
            r
        } else if r == 1 {
            l
        } else {
            return Err(TensorError::BroadcastMismatch { lhs: lhs.to_vec(), rhs: rhs.to_vec() });
        };
    }
    Ok(out)
}

/// Maps a view's own strides into the coordinate system of `out_shape`: missing leading
/// dimensions and size-1 dimensions get stride 0, every other dimension keeps the view's
/// stride, so indexing with the *output* multi-index walks the source correctly.
pub(crate) fn effective_strides(a: &NdArray, out_shape: &[usize]) -> Vec<usize> {
    let offset = out_shape.len() - a.shape.len();
    let mut strides = vec![0usize; out_shape.len()];
    for i in 0..a.shape.len() {
        if a.shape[i] != 1 {
            strides[i + offset] = a.strides[i];
        }
    }
    strides
}

/// The two broadcast patterns every model in the stack actually produces, recognised
/// from the shapes of a full-size operand and a smaller one (both contiguous).
enum RowPattern {
    /// `(…, m, d) ∘ (m, d)` / `(…, d) ∘ (d,)`: the small operand (leading 1s aside) is
    /// the trailing block of `inner` elements, repeated over the leading axes. Its rank
    /// never exceeds the full-size operand's, so the broadcast shape is the latter's.
    Trailing { inner: usize },
    /// `(…, d) ∘ (…, 1)`: one value of the small operand per row of `d` elements.
    Column { d: usize },
}

fn row_pattern(big: &[usize], small: &[usize]) -> Option<RowPattern> {
    let lead = small.iter().take_while(|&&s| s == 1).count();
    let tail = &small[lead..];
    if small.len() <= big.len() && tail.len() < big.len() && !tail.is_empty() && big.ends_with(tail)
    {
        return Some(RowPattern::Trailing { inner: tail.iter().product() });
    }
    let (&d, rest) = big.split_last()?;
    (small.len() == big.len() && small.last() == Some(&1) && small[..rest.len()] == *rest)
        .then_some(RowPattern::Column { d })
}

impl NdArray {
    /// Returns a zero-copy view of `self` broadcast to `shape` (stride 0 on stretched
    /// dimensions). Errors when `self`'s shape does not broadcast to `shape`.
    pub fn broadcast_to(&self, shape: &[usize]) -> Result<NdArray> {
        let merged = broadcast_shape(&self.shape, shape)?;
        if merged != shape {
            return Err(TensorError::BroadcastMismatch {
                lhs: self.shape.clone(),
                rhs: shape.to_vec(),
            });
        }
        let strides = effective_strides(self, shape);
        Ok(NdArray::view(self.storage.clone(), shape.to_vec(), strides, self.offset))
    }

    /// Applies an elementwise binary operation with broadcasting.
    pub fn zip_with(&self, other: &NdArray, f: impl Fn(f32, f32) -> f32) -> Result<NdArray> {
        // Fast path: identical shapes, both contiguous.
        if self.shape == other.shape && self.is_contiguous() && other.is_contiguous() {
            let mut data = crate::pool::alloc_for_extend(self.len());
            data.extend(
                self.as_slice().iter().zip(other.as_slice().iter()).map(|(&a, &b)| f(a, b)),
            );
            return NdArray::try_from_buffer(data, &self.shape);
        }
        // Fast path: rhs is a scalar.
        if other.len() == 1 {
            let b = other.item();
            return Ok(self.map(|a| f(a, b)));
        }
        // Fast path: lhs is a scalar.
        if self.len() == 1 {
            let a = self.item();
            return Ok(other.map(|b| f(a, b)));
        }

        // Fast path: a contiguous full-size operand against a trailing block or a
        // keep-dim column — plain row loops instead of two strided index walks.
        if self.is_contiguous() && other.is_contiguous() {
            if let Some(pattern) = row_pattern(&self.shape, &other.shape) {
                return Ok(zip_rows(self, other, pattern, &f));
            }
            if let Some(pattern) = row_pattern(&other.shape, &self.shape) {
                return Ok(zip_rows(other, self, pattern, &|b, a| f(a, b)));
            }
        }

        self.zip_strided(other, f)
    }

    /// The general strided broadcast of [`NdArray::zip_with`]: walks both operands
    /// with output-aligned strides, whatever their layout.
    fn zip_strided(&self, other: &NdArray, f: impl Fn(f32, f32) -> f32) -> Result<NdArray> {
        let out_shape = broadcast_shape(&self.shape, &other.shape)?;
        let n: usize = out_shape.iter().product();
        let ls = effective_strides(self, &out_shape);
        let rs = effective_strides(other, &out_shape);
        let mut data = crate::pool::alloc_for_extend(n);
        let liter = OffsetIter::new(&out_shape, &ls, self.offset);
        let riter = OffsetIter::new(&out_shape, &rs, other.offset);
        data.extend(liter.zip(riter).map(|(li, ri)| f(self.storage[li], other.storage[ri])));
        NdArray::try_from_buffer(data, &out_shape)
    }

    /// Elementwise addition with broadcasting.
    pub fn add(&self, other: &NdArray) -> Result<NdArray> {
        self.zip_with(other, |a, b| a + b)
    }

    /// Elementwise subtraction with broadcasting.
    pub fn sub(&self, other: &NdArray) -> Result<NdArray> {
        self.zip_with(other, |a, b| a - b)
    }

    /// Elementwise multiplication with broadcasting.
    pub fn mul(&self, other: &NdArray) -> Result<NdArray> {
        self.zip_with(other, |a, b| a * b)
    }

    /// Elementwise division with broadcasting.
    pub fn div(&self, other: &NdArray) -> Result<NdArray> {
        self.zip_with(other, |a, b| a / b)
    }

    /// Elementwise maximum with broadcasting.
    pub fn maximum(&self, other: &NdArray) -> Result<NdArray> {
        self.zip_with(other, f32::max)
    }

    /// Adds `other` into `self` in place (copy-on-write). Shapes must match exactly;
    /// `other` may be any view.
    pub fn add_assign(&mut self, other: &NdArray) -> Result<()> {
        self.zip_apply(other, |a, b| *a += b)
    }

    /// Adds `scale * other` into `self` in place (axpy, copy-on-write). Shapes must match
    /// exactly; `other` may be any view.
    pub fn axpy(&mut self, scale: f32, other: &NdArray) -> Result<()> {
        self.zip_apply(other, |a, b| *a += scale * b)
    }

    /// Shared implementation of exact-shape in-place updates.
    fn zip_apply(&mut self, other: &NdArray, f: impl Fn(&mut f32, f32)) -> Result<()> {
        if self.shape != other.shape {
            return Err(TensorError::BroadcastMismatch {
                lhs: self.shape.clone(),
                rhs: other.shape.clone(),
            });
        }
        // CoW note: when `self` and `other` alias the same storage, ensure_unique_contiguous
        // (inside as_mut_slice) detaches `self` first, so `other` reads stay consistent.
        if other.is_contiguous() {
            let rhs = other.clone(); // keep `other`'s storage alive across the CoW
            for (a, &b) in self.as_mut_slice().iter_mut().zip(rhs.as_slice()) {
                f(a, b);
            }
        } else {
            let rhs = other.clone();
            let lhs = self.as_mut_slice();
            for (a, off) in lhs.iter_mut().zip(rhs.offsets()) {
                f(a, rhs.storage[off]);
            }
        }
        Ok(())
    }

    /// Reduces (by summation) an array produced under broadcasting back to `target_shape`.
    ///
    /// This is the adjoint of broadcasting and is used by the autograd layer: if a forward
    /// op broadcast `x` from `target_shape` to `self.shape`, then the gradient flowing to
    /// `x` is `grad.reduce_to_shape(target_shape)`.
    pub fn reduce_to_shape(&self, target_shape: &[usize]) -> Result<NdArray> {
        if self.shape == target_shape {
            return Ok(self.clone());
        }
        // Validate that target broadcasts to self.
        let bshape = broadcast_shape(&self.shape, target_shape)?;
        if bshape != self.shape {
            return Err(TensorError::BroadcastMismatch {
                lhs: self.shape.clone(),
                rhs: target_shape.to_vec(),
            });
        }
        // Fast paths for the two contiguous patterns; each output element accumulates
        // its inputs in the same (C) order as the general walk below, so the result is
        // bit-identical to it.
        if self.is_contiguous() {
            let mut out = crate::pool::alloc_zeroed(target_shape.iter().product::<usize>().max(1));
            match row_pattern(&self.shape, target_shape) {
                Some(RowPattern::Trailing { .. }) => {
                    crate::rowops::sum_blocks_into(self.as_slice(), &mut out);
                    return NdArray::try_from_buffer(out, target_shape);
                }
                Some(RowPattern::Column { d }) if d > 0 => {
                    for (o, row) in out.iter_mut().zip(self.as_slice().chunks_exact(d)) {
                        for &v in row {
                            *o += v;
                        }
                    }
                    return NdArray::try_from_buffer(out, target_shape);
                }
                _ => {}
            }
        }
        self.reduce_strided(target_shape)
    }

    /// The general walk of [`NdArray::reduce_to_shape`] (`target_shape` already
    /// validated): walks `self` through its own strides and accumulates into the
    /// target through the target's contiguous strides aligned to `self`'s shape.
    fn reduce_strided(&self, target_shape: &[usize]) -> Result<NdArray> {
        let mut out = crate::pool::alloc_zeroed(target_shape.iter().product::<usize>().max(1));
        let own = crate::array::contiguous_strides(target_shape);
        let lead = self.shape.len() - target_shape.len();
        let mut tstrides = vec![0usize; self.shape.len()];
        for i in 0..target_shape.len() {
            if target_shape[i] != 1 {
                tstrides[i + lead] = own[i];
            }
        }
        let titer = OffsetIter::new(&self.shape, &tstrides, 0);
        for (soff, ti) in self.offsets().zip(titer) {
            out[ti] += self.storage[soff];
        }
        NdArray::try_from_buffer(out, target_shape)
    }
}

/// `f(big, small)` elementwise under `pattern`; both operands contiguous, output in
/// `big`'s shape.
fn zip_rows(
    big: &NdArray,
    small: &NdArray,
    pattern: RowPattern,
    f: &impl Fn(f32, f32) -> f32,
) -> NdArray {
    let (a, b) = (big.as_slice(), small.as_slice());
    let mut data = crate::pool::alloc_for_extend(a.len());
    match pattern {
        RowPattern::Trailing { inner } if inner > 0 => {
            for block in a.chunks_exact(inner) {
                data.extend(block.iter().zip(b).map(|(&x, &y)| f(x, y)));
            }
        }
        RowPattern::Column { d } if d > 0 => {
            for (row, &y) in a.chunks_exact(d).zip(b) {
                data.extend(row.iter().map(|&x| f(x, y)));
            }
        }
        _ => {} // an empty axis: nothing to compute
    }
    NdArray::from_buffer(data, &big.shape)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_fast_paths_match_the_general_walk_bitwise() {
        let mut rng = crate::rng_from_seed(11);
        let cases: &[(&[usize], &[usize])] = &[
            (&[7, 5], &[5]),
            (&[7, 5], &[1, 5]),
            (&[3, 7, 5], &[7, 5]),
            (&[2, 3, 7, 5], &[1, 1, 7, 5]),
            (&[2001, 64], &[64]),
            (&[7, 5], &[7, 1]),
            (&[2, 3, 7, 5], &[2, 3, 7, 1]),
            (&[1, 257], &[257]),
            (&[3, 0, 5], &[5]),
        ];
        for &(big, small) in cases {
            assert!(row_pattern(big, small).is_some(), "{big:?} vs {small:?}");
            let a = NdArray::randn(big, 1.0, &mut rng);
            let b = NdArray::randn(small, 1.0, &mut rng);
            // Forward, both operand orders, against the general strided walk.
            let sub = |x: f32, y: f32| x - y;
            assert_eq!(a.sub(&b).unwrap(), a.zip_strided(&b, sub).unwrap());
            assert_eq!(b.sub(&a).unwrap(), b.zip_strided(&a, sub).unwrap());
            assert_eq!(a.sub(&b).unwrap().shape(), big);
            // Adjoint: bit-equal, not merely close.
            let (got, want) = (a.reduce_to_shape(small).unwrap(), a.reduce_strided(small).unwrap());
            assert_eq!(got.shape(), want.shape());
            assert_eq!(got.as_slice(), want.as_slice(), "{big:?} -> {small:?}");
        }
        // Shapes the fast paths must leave to the general walk — among them a small
        // operand of higher rank, whose leading 1s belong to the result's shape.
        for (big, small) in [
            (&[2usize, 3][..], &[2usize, 3][..]),
            (&[2, 3], &[2, 1, 3]),
            (&[2, 3], &[3, 1]),
            (&[3, 5], &[1, 1, 5]),
        ] {
            assert!(row_pattern(big, small).is_none(), "{big:?} vs {small:?}");
            assert!(row_pattern(small, big).is_none(), "{small:?} vs {big:?}");
        }
        let (a, b) = (NdArray::ones(&[3, 5]), NdArray::ones(&[1, 1, 5]));
        assert_eq!(a.add(&b).unwrap().shape(), &[1, 3, 5]);
        assert_eq!(b.add(&a).unwrap().shape(), &[1, 3, 5]);
    }

    #[test]
    fn broadcast_shape_rules() {
        assert_eq!(broadcast_shape(&[2, 3], &[2, 3]).unwrap(), vec![2, 3]);
        assert_eq!(broadcast_shape(&[2, 3], &[3]).unwrap(), vec![2, 3]);
        assert_eq!(broadcast_shape(&[2, 1, 4], &[3, 1]).unwrap(), vec![2, 3, 4]);
        assert_eq!(broadcast_shape(&[], &[5]).unwrap(), vec![5]);
        assert!(broadcast_shape(&[2, 3], &[4]).is_err());
    }

    #[test]
    fn add_same_shape_and_scalar() {
        let a = NdArray::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        let b = NdArray::from_vec(vec![10.0, 20.0, 30.0, 40.0], &[2, 2]).unwrap();
        assert_eq!(a.add(&b).unwrap().as_slice(), &[11.0, 22.0, 33.0, 44.0]);
        let s = NdArray::scalar(1.0);
        assert_eq!(a.add(&s).unwrap().as_slice(), &[2.0, 3.0, 4.0, 5.0]);
        assert_eq!(s.sub(&a).unwrap().as_slice(), &[0.0, -1.0, -2.0, -3.0]);
    }

    #[test]
    fn suffix_broadcast_bias_add() {
        let a = NdArray::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]).unwrap();
        let bias = NdArray::from_slice(&[10.0, 20.0, 30.0]);
        let c = a.add(&bias).unwrap();
        assert_eq!(c.as_slice(), &[11.0, 22.0, 33.0, 14.0, 25.0, 36.0]);
    }

    #[test]
    fn general_broadcast_column_vs_row() {
        // (2,1) * (1,3) -> (2,3) outer product via broadcasting
        let col = NdArray::from_vec(vec![2.0, 3.0], &[2, 1]).unwrap();
        let row = NdArray::from_vec(vec![1.0, 10.0, 100.0], &[1, 3]).unwrap();
        let c = col.mul(&row).unwrap();
        assert_eq!(c.shape(), &[2, 3]);
        assert_eq!(c.as_slice(), &[2.0, 20.0, 200.0, 3.0, 30.0, 300.0]);
    }

    #[test]
    fn broadcast_to_is_a_zero_copy_view() {
        let bias = NdArray::from_slice(&[1.0, 2.0, 3.0]);
        let b = bias.broadcast_to(&[4, 3]).unwrap();
        assert_eq!(b.shape(), &[4, 3]);
        assert!(bias.shares_storage(&b));
        assert_eq!(b.get(&[3, 2]).unwrap(), 3.0);
        assert_eq!(b.materialize().as_slice()[..3], [1.0, 2.0, 3.0]);
        assert!(bias.broadcast_to(&[4, 5]).is_err());
    }

    #[test]
    fn zip_with_on_strided_views_matches_materialized() {
        let a = NdArray::arange(0.0, 1.0, 6).reshape(&[2, 3]).unwrap();
        let t = a.transpose_last2().unwrap(); // (3, 2) view
        let b = NdArray::arange(5.0, -0.5, 6).reshape(&[3, 2]).unwrap();
        let via_view = t.add(&b).unwrap();
        let via_copy = t.materialize().add(&b).unwrap();
        assert_eq!(via_view, via_copy);
    }

    #[test]
    fn division_and_minmax() {
        let a = NdArray::from_slice(&[2.0, 8.0]);
        let b = NdArray::from_slice(&[4.0, 2.0]);
        assert_eq!(a.div(&b).unwrap().as_slice(), &[0.5, 4.0]);
        assert_eq!(a.maximum(&b).unwrap().as_slice(), &[4.0, 8.0]);
    }

    #[test]
    fn add_assign_and_axpy() {
        let mut a = NdArray::ones(&[3]);
        let b = NdArray::from_slice(&[1.0, 2.0, 3.0]);
        a.add_assign(&b).unwrap();
        assert_eq!(a.as_slice(), &[2.0, 3.0, 4.0]);
        a.axpy(0.5, &b).unwrap();
        assert_eq!(a.as_slice(), &[2.5, 4.0, 5.5]);
        let c = NdArray::ones(&[4]);
        assert!(a.add_assign(&c).is_err());
    }

    #[test]
    fn add_assign_from_strided_view_and_alias() {
        let base = NdArray::arange(0.0, 1.0, 6).reshape(&[2, 3]).unwrap();
        let t = base.transpose_last2().unwrap().materialize().transpose_last2().unwrap();
        // t is a non-contiguous view logically equal to base.
        let mut acc = NdArray::zeros(&[2, 3]);
        acc.add_assign(&t).unwrap();
        assert_eq!(acc, base);

        // Self-aliasing: accumulate a view of the same storage into itself.
        let mut x = NdArray::arange(0.0, 1.0, 4).reshape(&[2, 2]).unwrap();
        let alias = x.clone();
        x.add_assign(&alias).unwrap();
        assert_eq!(x.as_slice(), &[0.0, 2.0, 4.0, 6.0]);
        assert_eq!(alias.as_slice(), &[0.0, 1.0, 2.0, 3.0], "CoW must protect the alias");
    }

    #[test]
    fn reduce_to_shape_inverts_broadcast() {
        // Broadcast a bias over rows then reduce back: should sum over rows.
        let g = NdArray::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]).unwrap();
        let r = g.reduce_to_shape(&[3]).unwrap();
        assert_eq!(r.as_slice(), &[5.0, 7.0, 9.0]);
        let r2 = g.reduce_to_shape(&[2, 1]).unwrap();
        assert_eq!(r2.as_slice(), &[6.0, 15.0]);
        let r3 = g.reduce_to_shape(&[]).unwrap();
        assert_eq!(r3.item(), 21.0);
        // Already matching shape is a no-op clone.
        assert_eq!(g.reduce_to_shape(&[2, 3]).unwrap(), g);
    }

    #[test]
    fn reduce_to_shape_of_strided_view() {
        let g = NdArray::arange(0.0, 1.0, 6).reshape(&[2, 3]).unwrap();
        let t = g.transpose_last2().unwrap(); // (3, 2)
        let r = t.reduce_to_shape(&[2]).unwrap();
        let r_copy = t.materialize().reduce_to_shape(&[2]).unwrap();
        assert_eq!(r, r_copy);
    }

    #[test]
    fn reduce_to_shape_rejects_non_broadcastable() {
        let g = NdArray::zeros(&[2, 3]);
        assert!(g.reduce_to_shape(&[4]).is_err());
    }
}
