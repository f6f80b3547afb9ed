//! The fused row operations of a Transformer layer on [`Var`]: layer normalisation,
//! linear projection with bias, GELU and dropout — one tape node each, forward and
//! backward through the single-pass kernels of `rita_tensor` (`rowops`). The graph
//! interpreters call the same kernels, so every forward of the model agrees bit for
//! bit with these.

use crate::var::{is_grad_enabled, Var};
use rand::Rng;
use rita_tensor::NdArray;

/// Collapses every leading axis: `(…, d) → (rows, d)`.
fn as_rows(a: &NdArray) -> NdArray {
    let d = *a.shape().last().expect("row op on a rank-0 array");
    a.reshape(&[a.len() / d.max(1), d]).expect("flatten leading axes")
}

impl Var {
    /// Layer normalisation over the last axis, `y = (x − μ)/√(σ² + eps) · γ + β`.
    ///
    /// The node saves only the per-row mean and reciprocal standard deviation; the
    /// backward recomputes `x̂` from the input and produces `dx`, `dγ`, `dβ` in one
    /// pass.
    pub fn layer_norm(&self, gamma: &Var, beta: &Var, eps: f32) -> Var {
        let normed = self
            .value()
            .layer_norm(&gamma.value(), &beta.value(), eps)
            .expect("layer_norm: gamma/beta must match the last axis");
        let (mean, rstd) = (normed.mean, normed.rstd);
        Var::from_op(
            normed.out,
            vec![self.clone(), gamma.clone(), beta.clone()],
            Box::new(move |g, parents| {
                let (dx, dgamma, dbeta) = parents[0]
                    .value()
                    .layer_norm_backward(&parents[1].value(), &mean, &rstd, g)
                    .expect("layer_norm backward");
                vec![dx, dgamma, dbeta]
            }),
        )
    }

    /// `self · weight (+ bias)` over the last axis: `weight` is `(in, out)`, `bias`
    /// `(out,)`, added to the product in place.
    ///
    /// Backward: `dx = g · Wᵀ` (not formed when `self` does not require a gradient — the
    /// embedding's input is data), `dW = xᵀ · g` as one product over all rows (leading
    /// axes collapsed, no per-batch partials), `db` the column sum of `g`.
    pub fn linear(&self, weight: &Var, bias: Option<&Var>) -> Var {
        assert_eq!(weight.value().ndim(), 2, "linear: weight must be (in, out)");
        let mut value = self.value().matmul(&weight.value()).expect("linear: incompatible shapes");
        let mut parents = vec![self.clone(), weight.clone()];
        if let Some(b) = bias {
            value = value.add_row_bias(&b.value()).expect("linear: bias must match out features");
            parents.push(b.clone());
        }
        Var::from_op(
            value,
            parents,
            Box::new(move |g, parents| {
                let (x, w) = (parents[0].value(), parents[1].value());
                // The tape drops the gradient of a parent that does not require one.
                let dx = if parents[0].requires_grad() {
                    g.matmul_nt(&w).expect("linear backward")
                } else {
                    NdArray::zeros(&[0])
                };
                let g_rows = as_rows(g);
                let dw = as_rows(&x)
                    .transpose_last2()
                    .expect("linear backward")
                    .matmul(&g_rows)
                    .expect("linear backward");
                let mut grads = vec![dx, dw];
                if parents.len() == 3 {
                    grads.push(g_rows.sum_rows());
                }
                grads
            }),
        )
    }

    /// Gaussian error linear unit (tanh approximation, as in BERT / the RITA reference).
    ///
    /// A recorded node keeps the forward's `tanh` (one `f32` per element while the tape
    /// lives) so the backward does not compute it again; a node that will not be
    /// recorded (`no_grad`, or a constant input) allocates only its output.
    pub fn gelu(&self) -> Var {
        if !(is_grad_enabled() && self.requires_grad()) {
            return Var::constant(self.value().gelu());
        }
        let (value, tanh) = self.value().gelu_with_tanh();
        Var::from_op(
            value,
            vec![self.clone()],
            Box::new(move |g, parents| {
                vec![parents[0].value().gelu_backward(&tanh, g).expect("gelu backward")]
            }),
        )
    }

    /// Inverted dropout with drop probability `p`: zeroes each element with
    /// probability `p` and scales the survivors by `1/(1−p)`.
    ///
    /// Consumes exactly one `rng.gen::<f32>()` per element, in C order — the mask is
    /// the one `NdArray::bernoulli(shape, 1 − p, rng).scale(1/(1 − p))` would draw.
    /// `p == 0` is the identity and draws nothing.
    pub fn dropout(&self, p: f32, rng: &mut impl Rng) -> Var {
        assert!((0.0..1.0).contains(&p), "dropout probability must be in [0,1), got {p}");
        if p == 0.0 {
            return self.clone();
        }
        let keep = 1.0 - p;
        let (value, kept) = self.value().dropout(keep, rng);
        Var::from_op(
            value,
            vec![self.clone()],
            Box::new(move |g, _| vec![g.scale_kept(&kept, 1.0 / keep).expect("dropout backward")]),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::gradcheck;
    use rand::SeedableRng;
    use rita_tensor::{allclose, SeedableRng64};

    fn rng(seed: u64) -> SeedableRng64 {
        SeedableRng64::seed_from_u64(seed)
    }

    // The composed chains the fused nodes replaced, kept as the slow twins.

    fn layer_norm_composed(x: &Var, gamma: &Var, beta: &Var, eps: f32) -> Var {
        let last = x.shape().len() - 1;
        let centered = x.sub(&x.mean_axis(last));
        let var = centered.square().mean_axis(last);
        centered.div(&var.add_scalar(eps).sqrt()).mul(gamma).add(beta)
    }

    fn linear_composed(x: &Var, w: &Var, b: Option<&Var>) -> Var {
        let y = x.matmul(w);
        match b {
            Some(b) => y.add(b),
            None => y,
        }
    }

    fn gelu_composed(x: &Var) -> Var {
        let inner = x.add(&x.mul(x).mul(x).scale(0.044_715)).scale(0.797_884_6);
        x.scale(0.5).mul(&inner.tanh().add_scalar(1.0))
    }

    fn dropout_composed(x: &Var, p: f32, rng: &mut impl Rng) -> Var {
        let keep = 1.0 - p;
        x.mul_mask(&NdArray::bernoulli(&x.shape(), keep, rng).scale(1.0 / keep))
    }

    const ROWS: [usize; 3] = [1, 7, 2001];
    const DIMS: [usize; 5] = [1, 5, 32, 64, 257];

    /// Largest `|a − b|` relative to the larger of `scale` and the values compared.
    fn max_rel(a: &NdArray, b: &NdArray) -> f32 {
        assert_eq!(a.shape(), b.shape());
        let (a, b) = (a.materialize(), b.materialize());
        let scale = b.as_slice().iter().fold(1e-3f32, |m, v| m.max(v.abs()));
        a.as_slice().iter().zip(b.as_slice()).fold(0.0, |m, (x, y)| m.max((x - y).abs() / scale))
    }

    /// A contiguous `(rows, d)` input and two non-contiguous views with the same
    /// logical contents (a transposed buffer; a column slice of a wider one).
    fn layouts(x: &NdArray) -> Vec<NdArray> {
        let (rows, d) = (x.shape()[0], x.shape()[1]);
        let transposed = x.transpose_last2().unwrap().materialize();
        let transposed = NdArray::from_vec(transposed.into_vec(), &[d, rows]).unwrap();
        let wide = NdArray::concat(&[x, x], 1).unwrap();
        vec![
            x.clone(),
            transposed.transpose_last2().unwrap(),
            wide.slice_axis(1, d, 2 * d).unwrap(),
        ]
    }

    /// Runs `fused` and `composed` on every layout of a random `(rows, d)` input with
    /// a random output weighting, and compares the value (bit for bit when
    /// `same_bits`), the input gradient and the gradient of every parameter in `params`.
    fn compare(
        name: &str,
        rows: usize,
        d: usize,
        params: &[Var],
        same_bits: bool,
        fused: &dyn Fn(&Var) -> Var,
        composed: &dyn Fn(&Var) -> Var,
    ) {
        let mut r = rng((rows * 1009 + d) as u64);
        let x0 = NdArray::randn(&[rows, d], 1.5, &mut r).add_scalar(0.3);
        for (li, layout) in layouts(&x0).into_iter().enumerate() {
            let run = |f: &dyn Fn(&Var) -> Var| {
                params.iter().for_each(Var::zero_grad);
                let x = Var::parameter(layout.clone());
                let y = f(&x);
                let w = NdArray::randn(&y.shape(), 1.0, &mut rng(7));
                y.mul(&Var::constant(w)).sum_all().backward();
                let grads: Vec<NdArray> = params.iter().map(|p| p.grad().unwrap()).collect();
                (y.to_array(), x.grad().unwrap(), grads)
            };
            let (ya, dxa, pa) = run(fused);
            let (yb, dxb, pb) = run(composed);
            let what = format!("{name} rows {rows} d {d} layout {li}");
            assert!(max_rel(&ya, &yb) <= 1e-5, "{what}: value {}", max_rel(&ya, &yb));
            if same_bits {
                assert_eq!(ya.materialize().as_slice(), yb.materialize().as_slice(), "{what}");
            }
            assert!(max_rel(&dxa, &dxb) <= 1e-5, "{what}: dx {}", max_rel(&dxa, &dxb));
            for (i, (ga, gb)) in pa.iter().zip(&pb).enumerate() {
                assert!(max_rel(ga, gb) <= 1e-5, "{what}: param {i} {}", max_rel(ga, gb));
            }
        }
    }

    #[test]
    fn layer_norm_matches_the_composed_chain() {
        for rows in ROWS {
            for d in DIMS {
                let mut r = rng(d as u64);
                let gamma = Var::parameter(NdArray::randn(&[d], 1.0, &mut r));
                let beta = Var::parameter(NdArray::randn(&[d], 1.0, &mut r));
                compare(
                    "layer_norm",
                    rows,
                    d,
                    &[gamma.clone(), beta.clone()],
                    true,
                    &|x| x.layer_norm(&gamma, &beta, 1e-5),
                    &|x| layer_norm_composed(x, &gamma, &beta, 1e-5),
                );
            }
        }
    }

    #[test]
    fn linear_matches_the_composed_chain() {
        for rows in ROWS {
            for d in DIMS {
                let mut r = rng(d as u64);
                let w = Var::parameter(NdArray::randn(&[d, 9], 0.5, &mut r));
                let b = Var::parameter(NdArray::randn(&[9], 1.0, &mut r));
                compare(
                    "linear",
                    rows,
                    d,
                    &[w.clone(), b.clone()],
                    true,
                    &|x| x.linear(&w, Some(&b)),
                    &|x| linear_composed(x, &w, Some(&b)),
                );
                compare(
                    "linear (no bias)",
                    rows,
                    d,
                    std::slice::from_ref(&w),
                    true,
                    &|x| x.linear(&w, None),
                    &|x| linear_composed(x, &w, None),
                );
            }
        }
    }

    #[test]
    fn linear_collapses_leading_axes_in_the_weight_gradient() {
        let mut r = rng(3);
        let x = Var::parameter(NdArray::randn(&[4, 6, 5], 1.0, &mut r));
        let w = Var::parameter(NdArray::randn(&[5, 3], 1.0, &mut r));
        let b = Var::parameter(NdArray::randn(&[3], 1.0, &mut r));
        let seed = NdArray::randn(&[4, 6, 3], 1.0, &mut r);
        x.linear(&w, Some(&b)).backward_with(seed.clone());
        let (dx, dw, db) = (x.grad().unwrap(), w.grad().unwrap(), b.grad().unwrap());
        [&x, &w, &b].into_iter().for_each(Var::zero_grad);
        linear_composed(&x, &w, Some(&b)).backward_with(seed);
        assert!(allclose(dx.as_slice(), x.grad().unwrap().as_slice(), 1e-5, 1e-5));
        assert!(allclose(dw.as_slice(), w.grad().unwrap().as_slice(), 1e-4, 1e-5));
        assert!(allclose(db.as_slice(), b.grad().unwrap().as_slice(), 1e-5, 1e-5));
    }

    #[test]
    fn linear_forms_no_input_gradient_for_a_constant_input() {
        // The output buffers a backward allocates go through the tensor pool, so its
        // byte counter shows whether the (rows × in) product `g · Wᵀ` was formed.
        let (rows, d_in, d_out) = (200usize, 64usize, 5usize);
        let mut r = rng(9);
        let x0 = NdArray::randn(&[2, rows / 2, d_in], 1.0, &mut r);
        let w = Var::parameter(NdArray::randn(&[d_in, d_out], 0.5, &mut r));
        let b = Var::parameter(NdArray::randn(&[d_out], 1.0, &mut r));
        let seed = NdArray::randn(&[2, rows / 2, d_out], 1.0, &mut r);
        let run = |x: Var| {
            [&w, &b].into_iter().for_each(Var::zero_grad);
            let y = x.linear(&w, Some(&b));
            let before = rita_tensor::pool_stats();
            y.backward_with(seed.clone());
            let after = rita_tensor::pool_stats();
            let bytes = (after.fresh_bytes + after.reused_bytes)
                - (before.fresh_bytes + before.reused_bytes);
            (w.grad().unwrap(), b.grad().unwrap(), bytes as usize)
        };
        let (dw_leaf, db_leaf, bytes_leaf) = run(Var::parameter(x0.clone()));
        let (dw_const, db_const, bytes_const) = run(Var::constant(x0));
        assert_eq!(dw_leaf.as_slice(), dw_const.as_slice());
        assert_eq!(db_leaf.as_slice(), db_const.as_slice());
        let dx_bytes = rows * d_in * 4;
        assert!(bytes_const < dx_bytes, "constant input: {bytes_const} B allocated");
        assert_eq!(bytes_leaf - bytes_const, dx_bytes);
    }

    #[test]
    fn gelu_keeps_its_tanh_only_when_the_node_is_recorded() {
        // Every buffer the forward allocates goes through the tensor pool, so its byte
        // counter shows whether the saved `tanh` was formed.
        let (rows, ff) = (200usize, 64usize);
        let x0 = NdArray::randn(&[rows, ff], 1.0, &mut rng(10));
        let forward_bytes = |x: &Var| {
            let before = rita_tensor::pool_stats();
            let y = x.gelu();
            let after = rita_tensor::pool_stats();
            let bytes = (after.fresh_bytes + after.reused_bytes)
                - (before.fresh_bytes + before.reused_bytes);
            (y.to_array(), bytes as usize)
        };
        let out_bytes = rows * ff * 4;
        let (y_grad, grad) = forward_bytes(&Var::parameter(x0.clone()));
        let (y_const, constant) = forward_bytes(&Var::constant(x0.clone()));
        let (y_no_grad, no_grad) = crate::no_grad(|| forward_bytes(&Var::parameter(x0.clone())));
        assert_eq!((constant, no_grad), (out_bytes, out_bytes));
        assert_eq!(grad, 2 * out_bytes, "the saved tanh is one extra rows·ff·4 bytes");
        let y = x0.gelu();
        for got in [&y_grad, &y_const, &y_no_grad] {
            assert_eq!(got.as_slice(), y.as_slice());
        }
    }

    #[test]
    fn gelu_matches_the_composed_chain() {
        for rows in ROWS {
            for d in DIMS {
                compare("gelu", rows, d, &[], false, &|x| x.gelu(), &gelu_composed);
            }
        }
    }

    #[test]
    fn dropout_matches_the_composed_chain_bitwise() {
        for rows in ROWS {
            for d in DIMS {
                let x0 = NdArray::randn(&[rows, d], 1.0, &mut rng(d as u64));
                for layout in layouts(&x0) {
                    let run = |f: &dyn Fn(&Var, &mut SeedableRng64) -> Var| {
                        let x = Var::parameter(layout.clone());
                        let mut r = rng(11);
                        let y = f(&x, &mut r);
                        y.square().sum_all().backward();
                        (y.to_array(), x.grad().unwrap(), r.gen::<u64>())
                    };
                    let fused = run(&|x, r| x.dropout(0.3, r));
                    let composed = run(&|x, r| dropout_composed(x, 0.3, r));
                    assert_eq!(fused.0, composed.0, "rows {rows} d {d}: value");
                    assert_eq!(fused.1, composed.1, "rows {rows} d {d}: gradient");
                    assert_eq!(fused.2, composed.2, "rows {rows} d {d}: draws consumed");
                }
            }
        }
    }

    #[test]
    fn dropout_with_zero_probability_is_the_identity_and_draws_nothing() {
        let x = Var::parameter(NdArray::randn(&[3, 4], 1.0, &mut rng(1)));
        let (mut a, mut b) = (rng(2), rng(2));
        let y = x.dropout(0.0, &mut a);
        assert_eq!(y.id(), x.id());
        assert_eq!(a.gen::<u64>(), b.gen::<u64>());
    }

    #[test]
    #[should_panic(expected = "dropout probability")]
    fn dropout_rejects_invalid_p() {
        let _ = Var::constant(NdArray::ones(&[2])).dropout(1.0, &mut rng(0));
    }

    #[test]
    fn fused_ops_pass_finite_difference_checks() {
        // f32 central differences: small shapes, eps 1e-2, the tolerances the rest of
        // the workspace uses for composite functions.
        for (rows, d) in [(1usize, 1usize), (1, 5), (7, 5), (7, 32), (3, 64)] {
            let mut r = rng((rows * 31 + d) as u64);
            let x0 = NdArray::randn(&[rows, d], 1.0, &mut r);
            let w_out = NdArray::randn(&[rows, d], 1.0, &mut r);
            let weigh = |y: Var| y.mul(&Var::constant(w_out.clone())).sum_all();
            let gamma = Var::constant(NdArray::randn(&[d], 1.0, &mut r));
            let beta = Var::constant(NdArray::randn(&[d], 1.0, &mut r));
            let w = Var::constant(NdArray::randn(&[d, d], 0.5, &mut r));
            // A large eps keeps the d = 1 row (variance 0) well conditioned.
            let report = gradcheck(|x| weigh(x.layer_norm(&gamma, &beta, 0.1)), &x0, 1e-2);
            assert!(report.passes(2e-2, 2e-2), "layer_norm {rows}x{d}: {report:?}");
            let report = gradcheck(|x| weigh(x.gelu()), &x0, 1e-2);
            assert!(report.passes(2e-2, 2e-2), "gelu {rows}x{d}: {report:?}");
            let report = gradcheck(|x| weigh(x.linear(&w, Some(&beta))), &x0, 1e-2);
            assert!(report.passes(2e-2, 2e-2), "linear {rows}x{d}: {report:?}");
            let report = gradcheck(|x| weigh(x.dropout(0.5, &mut rng(5))), &x0, 1e-2);
            assert!(report.passes(2e-2, 2e-2), "dropout {rows}x{d}: {report:?}");

            // Parameter gradients: perturb γ, β, W, b through the same helper by making
            // them the differentiated input.
            let x = Var::constant(x0.clone());
            let g0 = gamma.to_array();
            let report = gradcheck(|gm| weigh(x.layer_norm(gm, &beta, 0.1)), &g0, 1e-2);
            assert!(report.passes(2e-2, 2e-2), "layer_norm dγ {rows}x{d}: {report:?}");
            let report =
                gradcheck(|bt| weigh(x.layer_norm(&gamma, bt, 0.1)), &beta.to_array(), 1e-2);
            assert!(report.passes(2e-2, 2e-2), "layer_norm dβ {rows}x{d}: {report:?}");
            let report = gradcheck(|wv| weigh(x.linear(wv, Some(&beta))), &w.to_array(), 1e-2);
            assert!(report.passes(2e-2, 2e-2), "linear dW {rows}x{d}: {report:?}");
            let report = gradcheck(|bv| weigh(x.linear(&w, Some(bv))), &beta.to_array(), 1e-2);
            assert!(report.passes(2e-2, 2e-2), "linear db {rows}x{d}: {report:?}");
        }
    }
}
