//! Elementwise arithmetic, activations, reductions and shape operations on [`Var`].
//!
//! Every operation builds the forward value eagerly and registers a backward closure
//! that maps the output gradient to per-parent gradients. Broadcasting in the forward
//! pass is undone in the backward pass with [`NdArray::reduce_to_shape`].

use crate::var::Var;
use rita_tensor::NdArray;

impl Var {
    // ------------------------------------------------------------------ binary arithmetic

    /// Elementwise addition with broadcasting.
    pub fn add(&self, other: &Var) -> Var {
        let value = self.value().add(&other.value()).expect("add: incompatible shapes");
        let (sa, sb) = (self.shape(), other.shape());
        Var::from_op(
            value,
            vec![self.clone(), other.clone()],
            Box::new(move |g, _| {
                vec![
                    g.reduce_to_shape(&sa).expect("add backward"),
                    g.reduce_to_shape(&sb).expect("add backward"),
                ]
            }),
        )
    }

    /// Elementwise subtraction with broadcasting.
    pub fn sub(&self, other: &Var) -> Var {
        let value = self.value().sub(&other.value()).expect("sub: incompatible shapes");
        let (sa, sb) = (self.shape(), other.shape());
        Var::from_op(
            value,
            vec![self.clone(), other.clone()],
            Box::new(move |g, _| {
                vec![
                    g.reduce_to_shape(&sa).expect("sub backward"),
                    g.neg().reduce_to_shape(&sb).expect("sub backward"),
                ]
            }),
        )
    }

    /// Elementwise multiplication with broadcasting.
    pub fn mul(&self, other: &Var) -> Var {
        let value = self.value().mul(&other.value()).expect("mul: incompatible shapes");
        let (sa, sb) = (self.shape(), other.shape());
        Var::from_op(
            value,
            vec![self.clone(), other.clone()],
            Box::new(move |g, parents| {
                let a = parents[0].value();
                let b = parents[1].value();
                vec![
                    g.mul(&b).expect("mul backward").reduce_to_shape(&sa).expect("mul backward"),
                    g.mul(&a).expect("mul backward").reduce_to_shape(&sb).expect("mul backward"),
                ]
            }),
        )
    }

    /// Elementwise division with broadcasting.
    pub fn div(&self, other: &Var) -> Var {
        let value = self.value().div(&other.value()).expect("div: incompatible shapes");
        let (sa, sb) = (self.shape(), other.shape());
        Var::from_op(
            value,
            vec![self.clone(), other.clone()],
            Box::new(move |g, parents| {
                let a = parents[0].value();
                let b = parents[1].value();
                let ga = g.div(&b).expect("div backward");
                // gb = -g * a / b^2
                let gb = g
                    .mul(&a)
                    .expect("div backward")
                    .div(&b.mul(&b).expect("div backward"))
                    .expect("div backward")
                    .neg();
                vec![
                    ga.reduce_to_shape(&sa).expect("div backward"),
                    gb.reduce_to_shape(&sb).expect("div backward"),
                ]
            }),
        )
    }

    // ------------------------------------------------------------------ unary / scalar ops

    /// Multiplies by a scalar.
    pub fn scale(&self, s: f32) -> Var {
        Var::from_op(
            self.value().scale(s),
            vec![self.clone()],
            Box::new(move |g, _| vec![g.scale(s)]),
        )
    }

    /// Adds a scalar.
    pub fn add_scalar(&self, s: f32) -> Var {
        Var::from_op(
            self.value().add_scalar(s),
            vec![self.clone()],
            Box::new(move |g, _| vec![g.clone()]),
        )
    }

    /// Elementwise negation.
    pub fn neg(&self) -> Var {
        self.scale(-1.0)
    }

    /// Elementwise square.
    pub fn square(&self) -> Var {
        Var::from_op(
            self.value().map(|x| x * x),
            vec![self.clone()],
            Box::new(move |g, parents| {
                let x = parents[0].value();
                vec![g.mul(&x.scale(2.0)).expect("square backward")]
            }),
        )
    }

    /// Elementwise exponential.
    pub fn exp(&self) -> Var {
        let y = self.value().exp();
        let y_saved = y.clone();
        Var::from_op(
            y,
            vec![self.clone()],
            Box::new(move |g, _| vec![g.mul(&y_saved).expect("exp backward")]),
        )
    }

    /// Elementwise natural logarithm.
    pub fn ln(&self) -> Var {
        Var::from_op(
            self.value().ln(),
            vec![self.clone()],
            Box::new(move |g, parents| {
                let x = parents[0].value();
                vec![g.div(&x).expect("ln backward")]
            }),
        )
    }

    /// Elementwise square root.
    pub fn sqrt(&self) -> Var {
        let y = self.value().sqrt();
        let y_saved = y.clone();
        Var::from_op(
            y,
            vec![self.clone()],
            Box::new(move |g, _| {
                // d sqrt(x)/dx = 0.5 / sqrt(x)
                vec![g.mul(&y_saved.map(|v| 0.5 / v.max(1e-12))).expect("sqrt backward")]
            }),
        )
    }

    /// Elementwise hyperbolic tangent.
    pub fn tanh(&self) -> Var {
        let y = self.value().tanh();
        let y_saved = y.clone();
        Var::from_op(
            y,
            vec![self.clone()],
            Box::new(move |g, _| {
                vec![g.mul(&y_saved.map(|v| 1.0 - v * v)).expect("tanh backward")]
            }),
        )
    }

    /// Elementwise logistic sigmoid.
    pub fn sigmoid(&self) -> Var {
        let y = self.value().map(|x| 1.0 / (1.0 + (-x).exp()));
        let y_saved = y.clone();
        Var::from_op(
            y,
            vec![self.clone()],
            Box::new(move |g, _| {
                vec![g.mul(&y_saved.map(|v| v * (1.0 - v))).expect("sigmoid backward")]
            }),
        )
    }

    // ------------------------------------------------------------------ reductions

    /// Sum of all elements, producing a scalar.
    pub fn sum_all(&self) -> Var {
        let shape = self.shape();
        Var::from_op(
            NdArray::scalar(self.value().sum_all()),
            vec![self.clone()],
            Box::new(move |g, _| vec![NdArray::full(&shape, g.item())]),
        )
    }

    /// Mean of all elements, producing a scalar.
    pub fn mean_all(&self) -> Var {
        let shape = self.shape();
        let n: usize = shape.iter().product::<usize>().max(1);
        Var::from_op(
            NdArray::scalar(self.value().mean_all()),
            vec![self.clone()],
            Box::new(move |g, _| vec![NdArray::full(&shape, g.item() / n as f32)]),
        )
    }

    /// Sum along `axis` (always keeps the dimension with size 1 so the result broadcasts
    /// back against the input).
    pub fn sum_axis(&self, axis: usize) -> Var {
        let value = self.value().sum_axis(axis, true).expect("sum_axis");
        let shape = self.shape();
        Var::from_op(
            value,
            vec![self.clone()],
            Box::new(move |g, _| {
                vec![NdArray::zeros(&shape).add(g).expect("sum_axis backward broadcast")]
            }),
        )
    }

    /// Mean along `axis`, keeping the reduced dimension.
    pub fn mean_axis(&self, axis: usize) -> Var {
        let n = self.shape()[axis].max(1) as f32;
        self.sum_axis(axis).scale(1.0 / n)
    }

    // ------------------------------------------------------------------ shape ops

    /// Reshape (element count preserved).
    pub fn reshape(&self, shape: &[usize]) -> Var {
        let value = self.value().reshape(shape).expect("reshape");
        let orig = self.shape();
        Var::from_op(
            value,
            vec![self.clone()],
            Box::new(move |g, _| vec![g.reshape(&orig).expect("reshape backward")]),
        )
    }

    /// Swap the last two dimensions.
    pub fn transpose_last2(&self) -> Var {
        let value = self.value().transpose_last2().expect("transpose_last2");
        Var::from_op(
            value,
            vec![self.clone()],
            Box::new(move |g, _| vec![g.transpose_last2().expect("transpose backward")]),
        )
    }

    /// Permute dimensions.
    pub fn permute(&self, axes: &[usize]) -> Var {
        let value = self.value().permute(axes).expect("permute");
        // inverse permutation
        let mut inverse = vec![0usize; axes.len()];
        for (i, &a) in axes.iter().enumerate() {
            inverse[a] = i;
        }
        Var::from_op(
            value,
            vec![self.clone()],
            Box::new(move |g, _| vec![g.permute(&inverse).expect("permute backward")]),
        )
    }

    /// Concatenates along `axis`.
    pub fn concat(parts: &[Var], axis: usize) -> Var {
        assert!(!parts.is_empty(), "concat of zero Vars");
        let values: Vec<NdArray> = parts.iter().map(|p| p.to_array()).collect();
        let refs: Vec<&NdArray> = values.iter().collect();
        let value = NdArray::concat(&refs, axis).expect("concat");
        let sizes: Vec<usize> = parts.iter().map(|p| p.shape()[axis]).collect();
        Var::from_op(
            value,
            parts.to_vec(),
            Box::new(move |g, _| {
                let mut grads = Vec::with_capacity(sizes.len());
                let mut start = 0usize;
                for &s in &sizes {
                    grads.push(g.slice_axis(axis, start, start + s).expect("concat backward"));
                    start += s;
                }
                grads
            }),
        )
    }

    /// Slices the half-open range `[start, end)` along `axis`.
    pub fn slice_axis(&self, axis: usize, start: usize, end: usize) -> Var {
        let value = self.value().slice_axis(axis, start, end).expect("slice_axis");
        let parent_shape = self.shape();
        Var::from_op(
            value,
            vec![self.clone()],
            Box::new(move |g, _| vec![scatter_slice_axis(g, &parent_shape, axis, start)]),
        )
    }

    /// Numerically stable softmax over the last dimension.
    pub fn softmax_last(&self) -> Var {
        let y = self.value().softmax_last().expect("softmax");
        let y_saved = y.clone();
        Var::from_op(
            y,
            vec![self.clone()],
            Box::new(move |g, _| {
                // dx = y * (g - sum(g * y, last, keepdim))
                let gy = g.mul(&y_saved).expect("softmax backward");
                let last = y_saved.ndim() - 1;
                let s = gy.sum_axis(last, true).expect("softmax backward");
                let dx =
                    y_saved.mul(&g.sub(&s).expect("softmax backward")).expect("softmax backward");
                vec![dx]
            }),
        )
    }

    /// Multiplies by a constant mask (no gradient flows to the mask).
    pub fn mul_mask(&self, mask: &NdArray) -> Var {
        let mask_owned = mask.clone();
        let value = self.value().mul(mask).expect("mul_mask");
        let shape = self.shape();
        Var::from_op(
            value,
            vec![self.clone()],
            Box::new(move |g, _| {
                vec![g
                    .mul(&mask_owned)
                    .expect("mul_mask backward")
                    .reduce_to_shape(&shape)
                    .expect("mul_mask backward")]
            }),
        )
    }
}

/// Places `g` (the gradient of a slice) back into a zero array of `parent_shape` at
/// offset `start` along `axis`.
fn scatter_slice_axis(g: &NdArray, parent_shape: &[usize], axis: usize, start: usize) -> NdArray {
    let mut out = NdArray::zeros(parent_shape);
    let outer: usize = parent_shape[..axis].iter().product::<usize>().max(1);
    let inner: usize = parent_shape[axis + 1..].iter().product::<usize>().max(1);
    let parent_axis = parent_shape[axis];
    let slice_axis_len = g.shape()[axis];
    let g = g.materialize(); // the incoming gradient may be a strided view
    let gdata = g.as_slice();
    let odata = out.as_mut_slice();
    for o in 0..outer {
        for a in 0..slice_axis_len {
            let src = (o * slice_axis_len + a) * inner;
            let dst = (o * parent_axis + start + a) * inner;
            odata[dst..dst + inner].copy_from_slice(&gdata[src..src + inner]);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rita_tensor::allclose;

    #[test]
    fn arithmetic_gradients() {
        let a = Var::parameter(NdArray::from_slice(&[1.0, 2.0]));
        let b = Var::parameter(NdArray::from_slice(&[3.0, 4.0]));
        // y = sum(a*b + a/b - b)
        let y = a.mul(&b).add(&a.div(&b)).sub(&b).sum_all();
        y.backward();
        // dy/da = b + 1/b ; dy/db = a - a/b^2 - 1
        let ga = a.grad().unwrap();
        let gb = b.grad().unwrap();
        assert!(allclose(ga.as_slice(), &[3.0 + 1.0 / 3.0, 4.25], 1e-5, 1e-5));
        assert!(allclose(
            gb.as_slice(),
            &[1.0 - 1.0 / 9.0 - 1.0, 2.0 - 2.0 / 16.0 - 1.0],
            1e-5,
            1e-5
        ));
    }

    #[test]
    fn broadcast_backward_reduces() {
        // (2,3) + (3,) bias
        let x = Var::parameter(NdArray::ones(&[2, 3]));
        let bias = Var::parameter(NdArray::zeros(&[3]));
        let y = x.add(&bias).sum_all();
        y.backward();
        assert_eq!(bias.grad().unwrap().as_slice(), &[2.0, 2.0, 2.0]);
        assert_eq!(x.grad().unwrap().shape(), &[2, 3]);
    }

    #[test]
    fn activation_gradients_match_finite_difference() {
        let x0 = NdArray::from_slice(&[-1.5, -0.3, 0.05, 0.4, 2.0]);
        for (name, f) in [
            ("exp", Box::new(|v: &Var| v.exp()) as Box<dyn Fn(&Var) -> Var>),
            ("tanh", Box::new(|v: &Var| v.tanh())),
            ("sigmoid", Box::new(|v: &Var| v.sigmoid())),
            ("gelu", Box::new(|v: &Var| v.gelu())),
            ("square", Box::new(|v: &Var| v.square())),
        ] {
            let x = Var::parameter(x0.clone());
            f(&x).sum_all().backward();
            let analytic = x.grad().unwrap();
            // central finite differences
            let eps = 1e-3f32;
            let mut numeric = Vec::new();
            for i in 0..x0.len() {
                let mut plus = x0.clone();
                plus.as_mut_slice()[i] += eps;
                let mut minus = x0.clone();
                minus.as_mut_slice()[i] -= eps;
                let fp = f(&Var::constant(plus)).sum_all().item();
                let fm = f(&Var::constant(minus)).sum_all().item();
                numeric.push((fp - fm) / (2.0 * eps));
            }
            assert!(
                allclose(analytic.as_slice(), &numeric, 2e-2, 2e-2),
                "{name}: {:?} vs {:?}",
                analytic.as_slice(),
                numeric
            );
        }
    }

    #[test]
    fn ln_sqrt_gradients() {
        let x = Var::parameter(NdArray::from_slice(&[0.5, 2.0, 4.0]));
        x.ln().sum_all().backward();
        assert!(allclose(x.grad().unwrap().as_slice(), &[2.0, 0.5, 0.25], 1e-5, 1e-5));
        let y = Var::parameter(NdArray::from_slice(&[4.0, 9.0]));
        y.sqrt().sum_all().backward();
        assert!(allclose(y.grad().unwrap().as_slice(), &[0.25, 1.0 / 6.0], 1e-5, 1e-5));
    }

    #[test]
    fn reduction_gradients() {
        let x = Var::parameter(NdArray::arange(0.0, 1.0, 6).reshape(&[2, 3]).unwrap());
        x.mean_all().backward();
        assert!(x.grad().unwrap().as_slice().iter().all(|&g| (g - 1.0 / 6.0).abs() < 1e-6));
        x.zero_grad();
        // sum over axis 1, then weight rows differently via mul by constant
        let w = Var::constant(NdArray::from_vec(vec![1.0, 10.0], &[2, 1]).unwrap());
        x.sum_axis(1).mul(&w).sum_all().backward();
        let g = x.grad().unwrap();
        assert_eq!(&g.as_slice()[..3], &[1.0, 1.0, 1.0]);
        assert_eq!(&g.as_slice()[3..], &[10.0, 10.0, 10.0]);
    }

    #[test]
    fn shape_op_gradients() {
        let x = Var::parameter(NdArray::arange(0.0, 1.0, 6).reshape(&[2, 3]).unwrap());
        let y = x.reshape(&[3, 2]).transpose_last2().sum_all();
        y.backward();
        assert!(x.grad().unwrap().as_slice().iter().all(|&g| g == 1.0));

        let z = Var::parameter(NdArray::arange(0.0, 1.0, 24).reshape(&[2, 3, 4]).unwrap());
        // weight only a slice
        z.slice_axis(1, 1, 3).scale(2.0).sum_all().backward();
        let g = z.grad().unwrap();
        assert_eq!(g.get(&[0, 0, 0]).unwrap(), 0.0);
        assert_eq!(g.get(&[0, 1, 0]).unwrap(), 2.0);
        assert_eq!(g.get(&[1, 2, 3]).unwrap(), 2.0);
    }

    #[test]
    fn permute_gradient_roundtrips() {
        let x = Var::parameter(NdArray::arange(0.0, 1.0, 24).reshape(&[2, 3, 4]).unwrap());
        let w = Var::constant(NdArray::arange(0.0, 0.1, 24).reshape(&[4, 2, 3]).unwrap());
        x.permute(&[2, 0, 1]).mul(&w).sum_all().backward();
        let g = x.grad().unwrap();
        // gradient of x[i,j,k] is w[k,i,j]
        assert!((g.get(&[1, 2, 3]).unwrap() - w.value().get(&[3, 1, 2]).unwrap()).abs() < 1e-6);
    }

    #[test]
    fn concat_gradient_splits() {
        let a = Var::parameter(NdArray::ones(&[2, 2]));
        let b = Var::parameter(NdArray::ones(&[2, 3]));
        let c = Var::concat(&[a.clone(), b.clone()], 1);
        assert_eq!(c.shape(), vec![2, 5]);
        let w = Var::constant(NdArray::arange(0.0, 1.0, 10).reshape(&[2, 5]).unwrap());
        c.mul(&w).sum_all().backward();
        assert_eq!(a.grad().unwrap().as_slice(), &[0.0, 1.0, 5.0, 6.0]);
        assert_eq!(b.grad().unwrap().as_slice(), &[2.0, 3.0, 4.0, 7.0, 8.0, 9.0]);
    }

    #[test]
    fn softmax_gradient_matches_finite_difference() {
        let x0 = NdArray::from_vec(vec![0.2, -0.5, 1.0, 0.0, 0.3, -1.0], &[2, 3]).unwrap();
        let w = NdArray::from_vec(vec![1.0, 2.0, 3.0, -1.0, 0.5, 0.0], &[2, 3]).unwrap();
        let x = Var::parameter(x0.clone());
        x.softmax_last().mul(&Var::constant(w.clone())).sum_all().backward();
        let analytic = x.grad().unwrap();
        let eps = 1e-3f32;
        for i in 0..x0.len() {
            let mut plus = x0.clone();
            plus.as_mut_slice()[i] += eps;
            let mut minus = x0.clone();
            minus.as_mut_slice()[i] -= eps;
            let fp =
                Var::constant(plus).softmax_last().mul(&Var::constant(w.clone())).sum_all().item();
            let fm =
                Var::constant(minus).softmax_last().mul(&Var::constant(w.clone())).sum_all().item();
            let numeric = (fp - fm) / (2.0 * eps);
            assert!(
                (analytic.as_slice()[i] - numeric).abs() < 2e-3,
                "softmax grad {i}: {} vs {numeric}",
                analytic.as_slice()[i]
            );
        }
    }

    #[test]
    fn mask_blocks_gradient_where_zero() {
        let x = Var::parameter(NdArray::ones(&[4]));
        let mask = NdArray::from_slice(&[1.0, 0.0, 1.0, 0.0]);
        x.mul_mask(&mask).sum_all().backward();
        assert_eq!(x.grad().unwrap().as_slice(), &[1.0, 0.0, 1.0, 0.0]);
    }
}
