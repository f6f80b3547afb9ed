//! Fused row kernels: layer normalisation, row-bias add / column sum, GELU and
//! dropout, each as one streaming pass over a `(rows, d)` matrix.
//!
//! These are the operations a Transformer layer applies between its matrix products.
//! Composed from broadcasting primitives each costs five to eleven passes and as many
//! temporaries; here every forward is one pass and every backward is one pass, and the
//! autograd layer, the `no_grad` graph oracle and the tape-free plan executor all call
//! these same functions — so the three forwards agree bit for bit by construction.
//!
//! LayerNorm, the bias add and dropout reproduce, bit for bit, the chain of broadcasting
//! primitives they replaced (row sums in sequence from 0, `·(1/d)`, a division by
//! `√(var + eps)`). GELU does not: its `tanh` is `tanh_rational`, one branch-free
//! rational function, where the chain called libm's `tanhf` (within 4.2e-7 of it on
//! [−30, 30], GELU within 1e-6; DESIGN.md, "Changing forward bits"). Every GELU form —
//! [`NdArray::gelu`], [`NdArray::gelu_with_tanh`] and the executor's
//! [`NdArray::gelu_in_place`] — runs the one `gelu_rows` kernel, so they cannot drift
//! apart, and the training backward reads the `tanh` the forward saved.
//!
//! The kernels are serial, and a serial kernel cannot make a result depend on the worker
//! count. At the shapes the stack runs (10⁵–10⁶ floats) a pass is tens to hundreds of
//! microseconds, below a thread hand-off; a GELU pass at `(2001, 128)` is 0.4–0.6 ms. No
//! kernel calls `mul_add` and the backward reductions use a fixed eight-lane
//! accumulation order written out in the source, so the AVX2 and baseline builds
//! selected by [`simd_dispatch!`] produce identical bits (pinned per kernel by the
//! tests below).
//!
//! Inputs may be arbitrary views; a non-contiguous input is compacted once on entry.

use rand::Rng;

use crate::gemm::simd_dispatch;
use crate::{NdArray, Result, TensorError};

const GELU_C: f32 = 0.797_884_6; // sqrt(2/pi)
const GELU_A: f32 = 0.044_715;

/// `tanh x` as one odd rational function, `x·P(x²)/Q(x²)` with degree-6 and degree-3
/// polynomials in `x²` (the coefficients of Eigen's fast float `tanh`), on the
/// input clamped to ±7.905311, where the fraction rounds to exactly 1. Every operation
/// is a multiply, add, divide, compare or select, so it vectorises with no branch and
/// gives the same bits in every build (no `mul_add`). Within 4.2e-7 of libm's `tanhf`,
/// absolute and relative; odd bit for bit; `|t| ≤ 1`, exactly ±1 from the clamp on
/// (±∞ included); NaN stays NaN; below 4e-4 in magnitude it returns `x` itself, which
/// keeps ±0 and the subnormals.
#[inline(always)]
fn tanh_rational(x: f32) -> f32 {
    const CLAMP: f32 = 7.905_311;
    const P: [f32; 7] = [
        4.893_524_6e-3,
        6.372_619_5e-4,
        1.485_722_4e-5,
        5.122_297e-8,
        -8.604_672e-11,
        2.000_188e-13,
        -2.760_768_6e-16,
    ];
    const Q: [f32; 4] = [4.893_525e-3, 2.268_434_5e-3, 1.185_347_1e-4, 1.198_258_4e-6];
    // `clamp` keeps NaN, where `min`/`max` would replace it.
    let c = x.clamp(-CLAMP, CLAMP);
    let c2 = c * c;
    let p = c
        * (P[0] + c2 * (P[1] + c2 * (P[2] + c2 * (P[3] + c2 * (P[4] + c2 * (P[5] + c2 * P[6]))))));
    let q = Q[0] + c2 * (Q[1] + c2 * (Q[2] + c2 * Q[3]));
    if x.abs() < 4e-4 {
        x
    } else {
        p / q
    }
}

/// `tanh u` with `u = √(2/π)·(x + 0.044715·x³)`: the one transcendental of GELU. Every
/// GELU kernel takes it from here, so the forward, the saved `tanh` and the backward
/// that reads it cannot drift apart by a bit.
#[inline(always)]
fn gelu_tanh(v: f32) -> f32 {
    tanh_rational(GELU_C * (v + GELU_A * v * v * v))
}

/// GELU's value at `v` given `t = gelu_tanh(v)`.
#[inline(always)]
fn gelu_value(v: f32, t: f32) -> f32 {
    0.5 * v * (1.0 + t)
}

/// Sum of `term(a[i], b[i])` in a fixed order: eight interleaved partial sums over
/// the whole chunks of eight, combined pairwise, then the tail added in sequence.
/// The order is part of the numerics contract (it does not depend on the SIMD width
/// the compiler picks).
#[inline(always)]
fn lane_sum(a: &[f32], b: &[f32], term: impl Fn(f32, f32) -> f32) -> f32 {
    let mut acc = [0.0f32; 8];
    let (mut ca, mut cb) = (a.chunks_exact(8), b.chunks_exact(8));
    for (xa, xb) in (&mut ca).zip(&mut cb) {
        for l in 0..8 {
            acc[l] += term(xa[l], xb[l]);
        }
    }
    let mut sum = ((acc[0] + acc[4]) + (acc[1] + acc[5])) + ((acc[2] + acc[6]) + (acc[3] + acc[7]));
    for (&xa, &xb) in ca.remainder().iter().zip(cb.remainder()) {
        sum += term(xa, xb);
    }
    sum
}

// GELU over `y` in place (`y` holds the input on entry), also writing each element's
// `tanh` to `t` unless `t` is empty: the one kernel behind every GELU form.
simd_dispatch! {
    fn gelu_rows(y: &mut [f32], t: &mut [f32]) {
        if t.is_empty() {
            for o in y.iter_mut() {
                *o = gelu_value(*o, gelu_tanh(*o));
            }
        } else {
            for (o, tv) in y.iter_mut().zip(t.iter_mut()) {
                *tv = gelu_tanh(*o);
                *o = gelu_value(*o, *tv);
            }
        }
    }
}

simd_dispatch! {
    fn layer_norm_rows(
        x: &[f32],
        gamma: &[f32],
        beta: &[f32],
        eps: f32,
        y: &mut [f32],
        mean: &mut [f32],
        rstd: &mut [f32],
    ) {
        let d = gamma.len();
        let inv_d = 1.0 / d as f32;
        for (r, (xr, yr)) in x.chunks_exact(d).zip(y.chunks_exact_mut(d)).enumerate() {
            let m = xr.iter().fold(0.0f32, |acc, &v| acc + v) * inv_d;
            let var = xr.iter().fold(0.0f32, |acc, &v| acc + (v - m) * (v - m)) * inv_d;
            let sd = (var + eps).sqrt();
            for ((o, &v), (&g, &b)) in yr.iter_mut().zip(xr).zip(gamma.iter().zip(beta)) {
                *o = (v - m) / sd * g + b;
            }
            mean[r] = m;
            rstd[r] = 1.0 / sd;
        }
    }
}

simd_dispatch! {
    fn layer_norm_backward_rows(
        x: &[f32],
        gamma: &[f32],
        mean: &[f32],
        rstd: &[f32],
        g: &[f32],
        dx: &mut [f32],
        dgamma: &mut [f32],
        dbeta: &mut [f32],
    ) {
        let d = gamma.len();
        let inv_d = 1.0 / d as f32;
        let (dgamma, dbeta) = (&mut dgamma[..d], &mut dbeta[..d]);
        let rows = x.chunks_exact(d).zip(g.chunks_exact(d)).zip(dx.chunks_exact_mut(d));
        for (r, ((xr, gr), dxr)) in rows.enumerate() {
            let (m, rs) = (mean[r], rstd[r]);
            // The row (≤ a few hundred floats) stays in L1 across the three loops, so
            // this is one pass over memory; `dxr` holds dŷ = g·γ until the last loop.
            for i in 0..d {
                let xh = (xr[i] - m) * rs;
                dgamma[i] += gr[i] * xh;
                dbeta[i] += gr[i];
                dxr[i] = gr[i] * gamma[i];
            }
            let c1 = lane_sum(dxr, dxr, |gy, _| gy) * inv_d;
            let c2 = lane_sum(dxr, xr, |gy, v| gy * ((v - m) * rs)) * inv_d;
            for (o, &v) in dxr.iter_mut().zip(xr) {
                *o = rs * (*o - c1 - (v - m) * rs * c2);
            }
        }
    }
}

/// `out[j] += Σ_o x[o · inner + j]`, blocks visited in ascending order — per output
/// element the same accumulation order as the general strided walk of
/// [`NdArray::reduce_to_shape`].
pub(crate) fn sum_blocks_into(x: &[f32], out: &mut [f32]) {
    if out.is_empty() {
        return;
    }
    for block in x.chunks_exact(out.len()) {
        for (o, &v) in out.iter_mut().zip(block) {
            *o += v;
        }
    }
}

/// Output of [`NdArray::layer_norm`]: the normalised rows plus the two per-row
/// statistics the backward pass needs (it recomputes `x̂ = (x − mean)·rstd` from the
/// input instead of keeping a second full-size buffer).
#[derive(Debug, Clone)]
pub struct LayerNormed {
    /// `(x − mean)·rstd·γ + β`, same shape as the input.
    pub out: NdArray,
    /// Per-row mean, one entry per row in C order.
    pub mean: Vec<f32>,
    /// Per-row `1/√(var + eps)` (biased variance), one entry per row in C order.
    pub rstd: Vec<f32>,
}

impl NdArray {
    /// Checks that `p` is a rank-1 parameter matching this array's last axis and
    /// returns that axis' length.
    fn row_param_len(&self, p: &NdArray) -> Result<usize> {
        match self.shape.last() {
            Some(&d) if p.shape == [d] => Ok(d),
            _ => Err(TensorError::BroadcastMismatch {
                lhs: self.shape.clone(),
                rhs: p.shape.clone(),
            }),
        }
    }

    /// Layer normalisation over the last axis, `y = (x − μ)/√(σ² + eps) · γ + β`, in
    /// one pass per row (mean, then the variance of the centred row, then the output) —
    /// the values of `x.sub(mean).div(sqrt(var + eps)).mul(γ).add(β)`, bit for bit.
    pub fn layer_norm(&self, gamma: &NdArray, beta: &NdArray, eps: f32) -> Result<LayerNormed> {
        let d = self.row_param_len(gamma)?;
        self.row_param_len(beta)?;
        let rows = self.len().checked_div(d).unwrap_or(0);
        let x = self.materialize();
        let (gamma, beta) = (gamma.materialize(), beta.materialize());
        let mut y = crate::pool::alloc_zeroed(self.len());
        let (mut mean, mut rstd) = (vec![0.0f32; rows], vec![0.0f32; rows]);
        if rows > 0 {
            layer_norm_rows::run(
                x.as_slice(),
                gamma.as_slice(),
                beta.as_slice(),
                eps,
                &mut y,
                &mut mean,
                &mut rstd,
            );
        }
        Ok(LayerNormed { out: NdArray::from_buffer(y, &self.shape), mean, rstd })
    }

    /// Backward of [`NdArray::layer_norm`] for input `self`: given the saved per-row
    /// statistics and the output gradient `g`, returns `(dx, dγ, dβ)` in one pass —
    /// `dx = rstd·(dŷ − mean(dŷ) − x̂·mean(dŷ·x̂))` with `dŷ = g·γ`, `dγ = Σ g·x̂`,
    /// `dβ = Σ g` (rows accumulated in ascending order).
    pub fn layer_norm_backward(
        &self,
        gamma: &NdArray,
        mean: &[f32],
        rstd: &[f32],
        g: &NdArray,
    ) -> Result<(NdArray, NdArray, NdArray)> {
        let d = self.row_param_len(gamma)?;
        let rows = self.len().checked_div(d).unwrap_or(0);
        if g.shape != self.shape || mean.len() != rows || rstd.len() != rows {
            return Err(TensorError::BroadcastMismatch {
                lhs: self.shape.clone(),
                rhs: g.shape.clone(),
            });
        }
        let (x, g, gamma) = (self.materialize(), g.materialize(), gamma.materialize());
        let mut dx = crate::pool::alloc_zeroed(self.len());
        let (mut dgamma, mut dbeta) = (vec![0.0f32; d], vec![0.0f32; d]);
        if rows > 0 {
            layer_norm_backward_rows::run(
                x.as_slice(),
                gamma.as_slice(),
                mean,
                rstd,
                g.as_slice(),
                &mut dx,
                &mut dgamma,
                &mut dbeta,
            );
        }
        Ok((
            NdArray::from_buffer(dx, &self.shape),
            NdArray::from_buffer(dgamma, &[d]),
            NdArray::from_buffer(dbeta, &[d]),
        ))
    }

    /// Adds a rank-1 `bias` to every row of the last axis, in place when `self` owns
    /// its buffer (a fresh matmul product does) and through copy-on-write otherwise.
    pub fn add_row_bias(mut self, bias: &NdArray) -> Result<NdArray> {
        let d = self.row_param_len(bias)?;
        let bias = bias.materialize();
        if d > 0 {
            for row in self.as_mut_slice().chunks_exact_mut(d) {
                for (y, &b) in row.iter_mut().zip(bias.as_slice()) {
                    *y += b;
                }
            }
        }
        Ok(self)
    }

    /// Sum over every axis but the last, shape `(d,)` — the gradient of a row bias.
    /// Rows are accumulated in ascending order.
    pub fn sum_rows(&self) -> NdArray {
        let d = self.shape.last().copied().unwrap_or(1);
        let mut out = vec![0.0f32; d];
        sum_blocks_into(self.materialize().as_slice(), &mut out);
        NdArray::from_buffer(out, &[d])
    }

    /// Tanh-approximation GELU, `0.5·x·(1 + tanh(√(2/π)·(x + 0.044715·x³)))`, into a
    /// new array.
    pub fn gelu(&self) -> NdArray {
        self.clone().gelu_in_place()
    }

    /// [`NdArray::gelu`] written over this array's own buffer, with the same bits. It
    /// allocates nothing when the array is contiguous and holds the only handle on its
    /// storage (a dead activation in the plan executor); otherwise copy-on-write makes
    /// the one copy [`NdArray::gelu`] would have made.
    pub fn gelu_in_place(mut self) -> NdArray {
        gelu_rows::run(self.as_mut_slice(), &mut []);
        self
    }

    /// [`NdArray::gelu`] in one pass that also returns the `tanh` it computed per
    /// element — the operand [`NdArray::gelu_backward`] reads instead of recomputing it.
    /// The output is bit-equal to [`NdArray::gelu`]'s; both arrays come from the pool.
    pub fn gelu_with_tanh(&self) -> (NdArray, NdArray) {
        let mut y = self.clone();
        let mut t = crate::pool::alloc_zeroed(self.len());
        gelu_rows::run(y.as_mut_slice(), &mut t);
        (y, NdArray::from_buffer(t, &self.shape))
    }

    /// Gradient of [`NdArray::gelu`] at input `self`, times the output gradient `g`, in
    /// one pass: `g·(0.5(1+t) + 0.5·x·(1−t²)·u′)` with `t` read from `tanh` (the second
    /// output of [`NdArray::gelu_with_tanh`] for this input) instead of recomputed.
    pub fn gelu_backward(&self, tanh: &NdArray, g: &NdArray) -> Result<NdArray> {
        if let Some(other) = [tanh, g].into_iter().find(|a| a.shape != self.shape) {
            return Err(TensorError::BroadcastMismatch {
                lhs: self.shape.clone(),
                rhs: other.shape.clone(),
            });
        }
        let (x, t, g) = (self.materialize(), tanh.materialize(), g.materialize());
        let mut dx = crate::pool::alloc_for_extend(self.len());
        let terms = x.as_slice().iter().zip(t.as_slice()).zip(g.as_slice());
        dx.extend(terms.map(|((&v, &t), &gv)| {
            let sech2 = 1.0 - t * t;
            gv * (0.5 * (1.0 + t) + 0.5 * v * sech2 * GELU_C * (1.0 + 3.0 * GELU_A * v * v))
        }));
        Ok(NdArray::from_buffer(dx, &self.shape))
    }

    /// Inverted dropout: draws exactly one `rng.gen::<f32>()` per element in C order,
    /// keeps an element when its draw is below `keep`, and scales the kept ones by
    /// `1/keep`. Returns the output and the keep flags (one byte per element, a quarter
    /// of what the `f32` mask `NdArray::bernoulli(shape, keep, rng).scale(1.0 / keep)`
    /// holds — the values are the same); [`NdArray::scale_kept`] with those flags is
    /// the backward.
    pub fn dropout(&self, keep: f32, rng: &mut impl Rng) -> (NdArray, Vec<u8>) {
        let kept: Vec<u8> = (0..self.len()).map(|_| u8::from(rng.gen::<f32>() < keep)).collect();
        let out = self.scale_kept(&kept, 1.0 / keep).expect("one flag per element");
        (out, kept)
    }

    /// `self[i] · scale` where `kept[i]` is 1 and `0` where it is 0 (flags in C order).
    pub fn scale_kept(&self, kept: &[u8], scale: f32) -> Result<NdArray> {
        if kept.len() != self.len() {
            return Err(TensorError::ShapeDataMismatch {
                shape: self.shape.clone(),
                data_len: kept.len(),
            });
        }
        let x = self.materialize();
        let mut y = crate::pool::alloc_for_extend(self.len());
        y.extend(x.as_slice().iter().zip(kept).map(|(&v, &k)| v * (f32::from(k) * scale)));
        Ok(NdArray::from_buffer(y, &self.shape))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{allclose, rng_from_seed};

    #[test]
    fn layer_norm_rows_are_normalised_and_stats_are_reported() {
        let mut rng = rng_from_seed(1);
        let x = NdArray::randn(&[3, 5, 13], 4.0, &mut rng).add_scalar(7.0);
        let n = x.layer_norm(&NdArray::ones(&[13]), &NdArray::zeros(&[13]), 1e-5).unwrap();
        assert_eq!(n.out.shape(), &[3, 5, 13]);
        assert_eq!((n.mean.len(), n.rstd.len()), (15, 15));
        for (r, row) in n.out.as_slice().chunks(13).enumerate() {
            let mean: f32 = row.iter().sum::<f32>() / 13.0;
            let var: f32 = row.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / 13.0;
            assert!(mean.abs() < 1e-4 && (var - 1.0).abs() < 1e-3, "row {r}: {mean} {var}");
            let want: f32 = x.as_slice()[r * 13..(r + 1) * 13].iter().sum::<f32>() / 13.0;
            assert!((n.mean[r] - want).abs() < 1e-4);
        }
    }

    #[test]
    fn views_give_the_same_bits_as_their_compacted_copies() {
        let mut rng = rng_from_seed(2);
        let base = NdArray::randn(&[6, 4, 10], 1.0, &mut rng);
        let view = base.permute(&[1, 0, 2]).unwrap().slice_axis(1, 1, 5).unwrap();
        assert!(!view.is_contiguous());
        let copy = NdArray::from_vec(view.materialize().into_vec(), view.shape()).unwrap();
        let (gamma, beta) =
            (NdArray::randn(&[10], 1.0, &mut rng), NdArray::randn(&[10], 1.0, &mut rng));
        let (a, b) = (
            view.layer_norm(&gamma, &beta, 1e-5).unwrap(),
            copy.layer_norm(&gamma, &beta, 1e-5).unwrap(),
        );
        assert_eq!(a.out.as_slice(), b.out.as_slice());
        assert_eq!(view.gelu().as_slice(), copy.gelu().as_slice());
        assert_eq!(view.sum_rows().as_slice(), copy.sum_rows().as_slice());
        let biased = view.clone().add_row_bias(&beta).unwrap();
        assert_eq!(biased.as_slice(), copy.clone().add_row_bias(&beta).unwrap().as_slice());
        // Copy-on-write: the view's base is untouched by the in-place add.
        assert_eq!(view.materialize().as_slice(), copy.as_slice());
    }

    #[test]
    fn bias_add_and_column_sum_match_the_broadcast_primitives() {
        let mut rng = rng_from_seed(3);
        for &(rows, d) in &[(1usize, 1usize), (7, 5), (33, 64), (4, 257)] {
            let x = NdArray::randn(&[rows, d], 1.0, &mut rng);
            let b = NdArray::randn(&[d], 1.0, &mut rng);
            let want = x.add(&b).unwrap();
            assert_eq!(x.clone().add_row_bias(&b).unwrap().as_slice(), want.as_slice());
            let mut sums = vec![0.0f32; d];
            for row in x.as_slice().chunks(d) {
                for (s, &v) in sums.iter_mut().zip(row) {
                    *s += v;
                }
            }
            assert_eq!(x.sum_rows().as_slice(), &sums[..]);
        }
        assert!(NdArray::zeros(&[2, 3]).add_row_bias(&NdArray::zeros(&[2])).is_err());
    }

    #[test]
    fn gelu_backward_is_the_derivative_of_the_forward() {
        let x = NdArray::arange(-6.0, 0.01, 1201);
        let (hi, lo) = (x.add_scalar(1e-2).gelu(), x.add_scalar(-1e-2).gelu());
        let want = hi.sub(&lo).unwrap().scale(1.0 / 2e-2);
        let g = NdArray::full(&[1201], 3.0);
        let t = x.gelu_with_tanh().1;
        let got = x.gelu_backward(&t, &g).unwrap().scale(1.0 / 3.0);
        assert!(allclose(got.as_slice(), want.as_slice(), 1e-3, 1e-3));
        assert!(x.gelu_backward(&t, &NdArray::zeros(&[3])).is_err());
        assert!(x.gelu_backward(&t, &NdArray::zeros(&[1])).is_err(), "no silent broadcast");
        assert!(x.gelu_backward(&t.slice_axis(0, 0, 3).unwrap(), &g).is_err());
    }

    /// The backward as it was before the forward's `tanh` was kept: `tanh` recomputed
    /// per element through the shipped helper, the rest written out without the other
    /// shared helpers. The slow twin of [`NdArray::gelu_backward`].
    fn gelu_backward_recomputing(x: &NdArray, g: &NdArray) -> NdArray {
        x.zip_with(g, |v, gv| {
            let t = gelu_tanh(v);
            let sech2 = 1.0 - t * t;
            gv * (0.5 * (1.0 + t) + 0.5 * v * sech2 * GELU_C * (1.0 + 3.0 * GELU_A * v * v))
        })
        .unwrap()
    }

    /// GELU on libm's `tanhf`: the forward every GELU computed before
    /// [`tanh_rational`], kept as the twin its error is stated against.
    fn gelu_libm(v: f32) -> f32 {
        0.5 * v * (1.0 + (GELU_C * (v + GELU_A * v * v * v)).tanh())
    }

    /// The 1e-4 grid over [−30, 30], both saturations and the whole curved middle.
    fn fine_grid() -> impl Iterator<Item = f32> {
        (0..=600_000).map(|i| -30.0 + i as f32 * 1e-4)
    }

    #[test]
    fn tanh_rational_tracks_libm_on_a_fine_grid() {
        let (mut abs, mut rel, mut gelu_abs) = (0.0f64, 0.0f64, 0.0f64);
        for x in fine_grid() {
            let (got, want) = (tanh_rational(x) as f64, x.tanh() as f64);
            abs = abs.max((got - want).abs());
            if want != 0.0 {
                rel = rel.max((got - want).abs() / want.abs());
            }
            let gelu = gelu_value(x, gelu_tanh(x)) as f64;
            gelu_abs = gelu_abs.max((gelu - gelu_libm(x) as f64).abs());
        }
        assert!(abs <= 4.2e-7, "max |tanh − tanhf| {abs:e}");
        assert!(rel <= 4.2e-7, "max relative error {rel:e}");
        assert!(gelu_abs <= 1e-6, "max |gelu − gelu on tanhf| {gelu_abs:e}");
    }

    #[test]
    fn tanh_rational_special_values() {
        let same = |x: f32, want: f32| {
            let got = tanh_rational(x);
            assert_eq!(got.to_bits(), want.to_bits(), "tanh({x:e}) = {got:e}, want {want:e}");
        };
        same(0.0, 0.0);
        same(-0.0, -0.0);
        for bits in [1u32, 0x0040_0000, 0x007f_ffff] {
            let s = f32::from_bits(bits);
            same(s, s);
            same(-s, -s);
        }
        same(f32::MIN_POSITIVE, f32::MIN_POSITIVE);
        for x in [f32::INFINITY, f32::MAX, 1e30, 20.0, 7.905_311] {
            same(x, 1.0);
            same(-x, -1.0);
        }
        assert!(tanh_rational(f32::NAN).is_nan() && tanh_rational(-f32::NAN).is_nan());
        assert!(gelu_tanh(f32::NAN).is_nan());
    }

    #[test]
    fn tanh_rational_is_odd_and_bounded() {
        let mut rng = rng_from_seed(8);
        let random_bits = (0..200_000).map(|_| f32::from_bits(rng.gen::<u32>()));
        for x in fine_grid().chain(random_bits).filter(|x| !x.is_nan()) {
            let (t, u) = (tanh_rational(x), tanh_rational(-x));
            assert_eq!(u.to_bits(), (-t).to_bits(), "tanh(−{x:e}) is not −tanh({x:e})");
            assert!(t.abs() <= 1.0, "|tanh({x:e})| = {t:e} > 1");
        }
    }

    /// Inputs for the kernel-build comparisons: random values, the last eight replaced
    /// by values the GELU kernel treats specially.
    fn kernel_inputs(rows: usize, d: usize, seed: u64) -> Vec<f32> {
        let mut x = NdArray::randn(&[rows, d], 3.0, &mut rng_from_seed(seed)).into_vec();
        let special = [0.0, -0.0, f32::from_bits(1), 1e-4, 6.0, -9.0, 40.0, f32::MAX];
        let n = x.len();
        for (o, v) in x[n.saturating_sub(special.len())..].iter_mut().zip(special) {
            *o = v;
        }
        x
    }

    fn same_bits(a: &[f32], b: &[f32]) -> bool {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
    }

    #[test]
    fn gelu_rows_dispatch_matches_the_portable_build() {
        for (rows, d) in [(1usize, 1usize), (7, 5), (33, 64), (2001, 128)] {
            let x = kernel_inputs(rows, d, d as u64);
            for with_tanh in [false, true] {
                let n = if with_tanh { x.len() } else { 0 };
                let (mut ya, mut ta) = (x.clone(), vec![0.0; n]);
                let (mut yb, mut tb) = (x.clone(), vec![0.0; n]);
                gelu_rows::run(&mut ya, &mut ta);
                gelu_rows::body(&mut yb, &mut tb);
                assert!(same_bits(&ya, &yb) && same_bits(&ta, &tb), "{rows}x{d} tanh {with_tanh}");
            }
        }
    }

    #[test]
    fn layer_norm_rows_dispatch_matches_the_portable_build() {
        type Kernel = fn(&[f32], &[f32], &[f32], f32, &mut [f32], &mut [f32], &mut [f32]);
        for (rows, d) in [(1usize, 1usize), (7, 5), (33, 64), (301, 257)] {
            let x = kernel_inputs(rows, d, 100 + d as u64);
            let gamma = kernel_inputs(1, d, 200 + d as u64);
            let beta = kernel_inputs(1, d, 300 + d as u64);
            let outputs = |kernel: Kernel| {
                let (mut y, mut mean, mut rstd) =
                    (vec![0.0; x.len()], vec![0.0; rows], vec![0.0; rows]);
                kernel(&x, &gamma, &beta, 1e-5, &mut y, &mut mean, &mut rstd);
                [y, mean, rstd]
            };
            let (a, b) = (outputs(layer_norm_rows::run), outputs(layer_norm_rows::body));
            assert!(a.iter().zip(&b).all(|(a, b)| same_bits(a, b)), "{rows}x{d}");
        }
    }

    #[test]
    fn layer_norm_backward_rows_dispatch_matches_the_portable_build() {
        type Kernel =
            fn(&[f32], &[f32], &[f32], &[f32], &[f32], &mut [f32], &mut [f32], &mut [f32]);
        for (rows, d) in [(1usize, 1usize), (7, 5), (33, 64), (301, 257)] {
            let x = NdArray::from_vec(kernel_inputs(rows, d, 400 + d as u64), &[rows, d]).unwrap();
            let (gamma, beta) =
                (NdArray::randn(&[d], 1.0, &mut rng_from_seed(5)), NdArray::zeros(&[d]));
            let n = x.layer_norm(&gamma, &beta, 1e-5).unwrap();
            let g = kernel_inputs(rows, d, 500 + d as u64);
            let outputs = |kernel: Kernel| {
                let (mut dx, mut dgamma, mut dbeta) =
                    (vec![0.0; rows * d], vec![0.0; d], vec![0.0; d]);
                kernel(
                    x.as_slice(),
                    gamma.as_slice(),
                    &n.mean,
                    &n.rstd,
                    &g,
                    &mut dx,
                    &mut dgamma,
                    &mut dbeta,
                );
                [dx, dgamma, dbeta]
            };
            let (a, b) =
                (outputs(layer_norm_backward_rows::run), outputs(layer_norm_backward_rows::body));
            assert!(a.iter().zip(&b).all(|(a, b)| same_bits(a, b)), "{rows}x{d}");
        }
    }

    #[test]
    fn gelu_in_place_reuses_a_unique_buffer_and_gives_gelu_bits() {
        let x = NdArray::randn(&[64, 33], 2.0, &mut rng_from_seed(9));
        let want = x.gelu();
        let owned = NdArray::from_vec(x.materialize().into_vec(), x.shape()).unwrap();
        let before = crate::pool::pool_stats();
        let got = owned.gelu_in_place();
        let after = crate::pool::pool_stats();
        assert_eq!((after.fresh, after.reused), (before.fresh, before.reused), "allocated");
        assert_eq!(bits(&got), bits(&want));
        // A shared buffer is copied first, and the other handle keeps the input.
        let (alias, input) = (x.clone(), bits(&x));
        assert_eq!(bits(&x.gelu_in_place()), bits(&want));
        assert_eq!(bits(&alias), input);
        let (y, _) = alias.gelu_with_tanh();
        assert_eq!(bits(&y), bits(&want));
    }

    fn bits(a: &NdArray) -> Vec<u32> {
        a.materialize().as_slice().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn gelu_backward_from_the_saved_tanh_keeps_every_bit() {
        // A 1e-3 grid over [−30, 30] (both saturations and the whole curved middle),
        // then the values libm treats specially.
        let mut xs: Vec<f32> = (0..=60_000).map(|i| -30.0 + i as f32 * 1e-3).collect();
        let subnormals = [f32::from_bits(1), f32::from_bits(0x0040_0000)];
        xs.extend([0.0, -0.0, f32::MIN_POSITIVE, -f32::MIN_POSITIVE]);
        xs.extend(subnormals.iter().flat_map(|&s| [s, -s]));
        xs.extend([f32::INFINITY, f32::NEG_INFINITY, f32::NAN, f32::MAX, f32::MIN]);
        xs.resize(xs.len().next_multiple_of(8), 0.5);
        let len = xs.len();
        let x = NdArray::from_vec(xs, &[len / 8, 8]).unwrap();
        let g = NdArray::randn(&[len / 8, 8], 1.0, &mut rng_from_seed(6));
        // Strided views of the same data: a transposed buffer and a column slice.
        let xt =
            NdArray::from_vec(x.transpose_last2().unwrap().materialize().into_vec(), &[8, len / 8])
                .unwrap();
        let wide = NdArray::concat(&[&g, &x], 1).unwrap();
        let views = [x.clone(), xt.transpose_last2().unwrap(), wide.slice_axis(1, 8, 16).unwrap()];
        for (i, view) in views.iter().enumerate() {
            assert_eq!(bits(view), bits(&x), "view {i} holds the grid");
            let (y, t) = view.gelu_with_tanh();
            assert_eq!(bits(&y), bits(&view.gelu()), "view {i}: forward");
            for g in
                [g.clone(), NdArray::concat(&[&x, &g], 1).unwrap().slice_axis(1, 8, 16).unwrap()]
            {
                let got = view.gelu_backward(&t, &g).unwrap();
                let want = gelu_backward_recomputing(view, &g);
                assert_eq!(bits(&got), bits(&want), "view {i}: backward");
            }
        }
    }

    #[test]
    fn dropout_draws_the_bernoulli_mask_in_order() {
        let x = NdArray::randn(&[4, 9], 1.0, &mut rng_from_seed(4));
        let (mut a, mut b) = (rng_from_seed(5), rng_from_seed(5));
        let (y, kept) = x.dropout(0.8, &mut a);
        let want = NdArray::bernoulli(&[4, 9], 0.8, &mut b).scale(1.0 / 0.8);
        assert_eq!(y.as_slice(), x.mul(&want).unwrap().as_slice());
        let mask = NdArray::ones(&[4, 9]).scale_kept(&kept, 1.0 / 0.8).unwrap();
        assert_eq!(mask.as_slice(), want.as_slice());
        assert_eq!(a.gen::<u32>(), b.gen::<u32>(), "exactly one draw per element");
        assert!(x.scale_kept(&kept[1..], 2.0).is_err());
    }
}
