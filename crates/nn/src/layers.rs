//! Neural-network building blocks: linear projections, layer/batch normalisation,
//! dropout and the position-wise feed-forward block used by Transformer encoders.

use crate::var::Var;
use rand::Rng;
use rita_tensor::NdArray;

pub use crate::module::{BufferVisitor, BufferVisitorMut, Module, ParamPath, ParamVisitor};

/// Fully connected layer `y = x · W + b` applied to the last dimension.
#[derive(Clone)]
pub struct Linear {
    /// Weight of shape `(in_features, out_features)`.
    pub weight: Var,
    /// Bias of shape `(out_features,)`.
    pub bias: Var,
}

impl Linear {
    /// Creates a linear layer with Kaiming-initialised weights and zero bias.
    pub fn new(in_features: usize, out_features: usize, rng: &mut impl Rng) -> Self {
        let weight =
            Var::parameter(NdArray::kaiming(&[in_features, out_features], in_features, rng));
        let bias = Var::parameter(NdArray::zeros(&[out_features]));
        Self { weight, bias }
    }

    /// Applies the layer to an input whose last dimension equals `in_features`.
    pub fn forward(&self, x: &Var) -> Var {
        x.linear(&self.weight, Some(&self.bias))
    }

    /// Input feature dimension.
    pub fn in_features(&self) -> usize {
        self.weight.shape()[0]
    }

    /// Output feature dimension.
    pub fn out_features(&self) -> usize {
        self.weight.shape()[1]
    }
}

impl Module for Linear {
    fn visit_params(&self, v: &mut ParamVisitor<'_>) {
        v.leaf("weight", &self.weight);
        v.leaf("bias", &self.bias);
    }
}

/// Layer normalisation over the last dimension, `y = (x - μ)/√(σ² + ε) · γ + β`.
#[derive(Clone)]
pub struct LayerNorm {
    /// Scale γ of shape `(d,)`.
    pub gamma: Var,
    /// Shift β of shape `(d,)`.
    pub beta: Var,
    /// Numerical-stability epsilon.
    pub eps: f32,
}

impl LayerNorm {
    /// The epsilon `new` installs — the value graph emission stamps on its layer-norm
    /// nodes (it is not checkpointed).
    pub const DEFAULT_EPS: f32 = 1e-5;

    /// Creates a layer norm over a last dimension of size `d`.
    pub fn new(d: usize) -> Self {
        Self {
            gamma: Var::parameter(NdArray::ones(&[d])),
            beta: Var::parameter(NdArray::zeros(&[d])),
            eps: Self::DEFAULT_EPS,
        }
    }

    /// Normalises the last dimension of `x`.
    pub fn forward(&self, x: &Var) -> Var {
        x.layer_norm(&self.gamma, &self.beta, self.eps)
    }
}

impl Module for LayerNorm {
    fn visit_params(&self, v: &mut ParamVisitor<'_>) {
        v.leaf("gamma", &self.gamma);
        v.leaf("beta", &self.beta);
    }
}

/// Batch normalisation over the feature (last) dimension, computed across every other
/// dimension of the mini-batch. Used by the TST baseline, which the RITA paper notes is
/// biased when long series force tiny batches.
pub struct BatchNorm1d {
    /// Scale γ of shape `(d,)`.
    pub gamma: Var,
    /// Shift β of shape `(d,)`.
    pub beta: Var,
    /// Exponential-moving-average mean used at evaluation time.
    pub running_mean: NdArray,
    /// Exponential-moving-average variance used at evaluation time.
    pub running_var: NdArray,
    /// EMA momentum.
    pub momentum: f32,
    /// Numerical-stability epsilon.
    pub eps: f32,
}

impl BatchNorm1d {
    /// Creates a batch norm over a feature dimension of size `d`.
    pub fn new(d: usize) -> Self {
        Self {
            gamma: Var::parameter(NdArray::ones(&[d])),
            beta: Var::parameter(NdArray::zeros(&[d])),
            running_mean: NdArray::zeros(&[d]),
            running_var: NdArray::ones(&[d]),
            momentum: 0.1,
            eps: 1e-5,
        }
    }

    /// Applies batch normalisation. In training mode batch statistics are used and the
    /// running statistics are updated; in evaluation mode the running statistics are used.
    pub fn forward(&mut self, x: &Var, training: bool) -> Var {
        let shape = x.shape();
        let d = *shape.last().expect("batch norm needs at least 1-D input");
        let rows: usize = shape[..shape.len() - 1].iter().product::<usize>().max(1);
        if training {
            let flat = x.reshape(&[rows, d]);
            let mean = flat.mean_axis(0); // (1, d)
            let centered = flat.sub(&mean);
            let var = centered.square().mean_axis(0); // (1, d)
                                                      // update running stats from detached values
            let mean_a = mean.to_array().reshape(&[d]).expect("bn mean shape");
            let var_a = var.to_array().reshape(&[d]).expect("bn var shape");
            self.running_mean = self
                .running_mean
                .scale(1.0 - self.momentum)
                .add(&mean_a.scale(self.momentum))
                .expect("bn ema");
            self.running_var = self
                .running_var
                .scale(1.0 - self.momentum)
                .add(&var_a.scale(self.momentum))
                .expect("bn ema");
            let denom = var.add_scalar(self.eps).sqrt();
            let normalised = centered.div(&denom);
            normalised.mul(&self.gamma).add(&self.beta).reshape(&shape)
        } else {
            let mean = Var::constant(self.running_mean.clone());
            let std = Var::constant(self.running_var.add_scalar(self.eps).sqrt());
            x.sub(&mean).div(&std).mul(&self.gamma).add(&self.beta)
        }
    }
}

impl Module for BatchNorm1d {
    fn visit_params(&self, v: &mut ParamVisitor<'_>) {
        v.leaf("gamma", &self.gamma);
        v.leaf("beta", &self.beta);
    }

    fn visit_buffers(&self, v: &mut BufferVisitor<'_>) {
        v.leaf("running_mean", &self.running_mean);
        v.leaf("running_var", &self.running_var);
    }

    fn visit_buffers_mut(&mut self, v: &mut BufferVisitorMut<'_>) {
        v.leaf("running_mean", &mut self.running_mean);
        v.leaf("running_var", &mut self.running_var);
    }
}

/// Inverted dropout: at training time zeroes activations with probability `p` and rescales
/// the survivors by `1/(1-p)`; at evaluation time it is the identity.
#[derive(Clone, Copy)]
pub struct Dropout {
    /// Drop probability.
    pub p: f32,
}

impl Dropout {
    /// Creates a dropout layer with drop probability `p`.
    pub fn new(p: f32) -> Self {
        assert!((0.0..1.0).contains(&p), "dropout probability must be in [0,1), got {p}");
        Self { p }
    }

    /// Applies dropout.
    pub fn forward(&self, x: &Var, training: bool, rng: &mut impl Rng) -> Var {
        if training {
            x.dropout(self.p, rng)
        } else {
            x.clone()
        }
    }
}

/// The position-wise feed-forward block of a Transformer layer:
/// `Linear(d→hidden) → GELU → Linear(hidden→d)`.
pub struct FeedForward {
    /// Expansion projection.
    pub fc1: Linear,
    /// Contraction projection.
    pub fc2: Linear,
    /// Dropout applied after the activation.
    pub dropout: Dropout,
}

impl FeedForward {
    /// Creates a feed-forward block.
    pub fn new(d_model: usize, hidden: usize, dropout: f32, rng: &mut impl Rng) -> Self {
        Self {
            fc1: Linear::new(d_model, hidden, rng),
            fc2: Linear::new(hidden, d_model, rng),
            dropout: Dropout::new(dropout),
        }
    }

    /// Applies the block.
    pub fn forward(&self, x: &Var, training: bool, rng: &mut impl Rng) -> Var {
        let h = self.fc1.forward(x).gelu();
        let h = self.dropout.forward(&h, training, rng);
        self.fc2.forward(&h)
    }
}

impl Module for FeedForward {
    fn visit_params(&self, v: &mut ParamVisitor<'_>) {
        v.scope("fc1", |v| self.fc1.visit_params(v));
        v.scope("fc2", |v| self.fc2.visit_params(v));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rita_tensor::allclose;

    fn rng() -> rita_tensor::SeedableRng64 {
        use rand::SeedableRng;
        rita_tensor::SeedableRng64::seed_from_u64(0)
    }

    #[test]
    fn linear_shapes_and_params() {
        let mut r = rng();
        let lin = Linear::new(4, 3, &mut r);
        assert_eq!(lin.in_features(), 4);
        assert_eq!(lin.out_features(), 3);
        assert_eq!(lin.num_parameters(), 4 * 3 + 3);
        let x = Var::constant(NdArray::ones(&[2, 5, 4]));
        let y = lin.forward(&x);
        assert_eq!(y.shape(), vec![2, 5, 3]);
    }

    #[test]
    fn linear_gradients_flow_to_weight_and_bias() {
        let mut r = rng();
        let lin = Linear::new(3, 2, &mut r);
        let x = Var::constant(NdArray::ones(&[4, 3]));
        lin.forward(&x).sum_all().backward();
        let gw = lin.weight.grad().unwrap();
        let gb = lin.bias.grad().unwrap();
        assert!(gw.as_slice().iter().all(|&g| (g - 4.0).abs() < 1e-5));
        assert!(gb.as_slice().iter().all(|&g| (g - 4.0).abs() < 1e-5));
    }

    #[test]
    fn layer_norm_output_is_normalised() {
        let ln = LayerNorm::new(8);
        let mut r = rng();
        let x = Var::constant(NdArray::randn(&[3, 5, 8], 4.0, &mut r).add_scalar(7.0));
        let y = ln.forward(&x);
        let v = y.to_array();
        // every row of the last dim should have ~0 mean and ~1 variance (γ=1, β=0 at init)
        for row in 0..15 {
            let slice = &v.as_slice()[row * 8..(row + 1) * 8];
            let mean: f32 = slice.iter().sum::<f32>() / 8.0;
            let var: f32 = slice.iter().map(|x| (x - mean) * (x - mean)).sum::<f32>() / 8.0;
            assert!(mean.abs() < 1e-3, "mean {mean}");
            assert!((var - 1.0).abs() < 1e-2, "var {var}");
        }
    }

    #[test]
    #[allow(clippy::needless_range_loop)] // index drives the perturbed coordinate
    fn layer_norm_gradcheck() {
        let ln = LayerNorm::new(4);
        let x0 =
            NdArray::from_vec(vec![0.5, -1.0, 2.0, 0.1, 1.0, 3.0, -2.0, 0.7], &[2, 4]).unwrap();
        let w = NdArray::from_vec(vec![1.0, -0.5, 2.0, 0.3, -1.0, 0.8, 0.2, 1.5], &[2, 4]).unwrap();
        let x = Var::parameter(x0.clone());
        ln.forward(&x).mul(&Var::constant(w.clone())).sum_all().backward();
        let analytic = x.grad().unwrap();
        let eps = 1e-2f32;
        let mut numeric = vec![0.0f32; x0.len()];
        for i in 0..x0.len() {
            let mut plus = x0.clone();
            plus.as_mut_slice()[i] += eps;
            let mut minus = x0.clone();
            minus.as_mut_slice()[i] -= eps;
            let fp =
                ln.forward(&Var::constant(plus)).mul(&Var::constant(w.clone())).sum_all().item();
            let fm =
                ln.forward(&Var::constant(minus)).mul(&Var::constant(w.clone())).sum_all().item();
            numeric[i] = (fp - fm) / (2.0 * eps);
        }
        assert!(
            allclose(analytic.as_slice(), &numeric, 3e-2, 3e-2),
            "{:?} vs {numeric:?}",
            analytic.as_slice()
        );
    }

    #[test]
    fn batch_norm_train_vs_eval() {
        let mut bn = BatchNorm1d::new(4);
        let mut r = rng();
        let x = Var::constant(NdArray::randn(&[16, 4], 3.0, &mut r).add_scalar(5.0));
        let y = bn.forward(&x, true);
        let v = y.to_array();
        // Feature-wise statistics of the training-mode output are ~N(0,1).
        for f in 0..4 {
            let col: Vec<f32> = (0..16).map(|i| v.as_slice()[i * 4 + f]).collect();
            let mean: f32 = col.iter().sum::<f32>() / 16.0;
            assert!(mean.abs() < 1e-3);
        }
        // Running stats moved away from their initial values.
        assert!(bn.running_mean.as_slice().iter().any(|&m| m.abs() > 0.1));
        // Eval mode uses running stats and still produces the right shape.
        let y_eval = bn.forward(&x, false);
        assert_eq!(y_eval.shape(), vec![16, 4]);
    }

    #[test]
    fn dropout_scales_and_is_identity_in_eval() {
        let mut r = rng();
        let d = Dropout::new(0.5);
        let x = Var::constant(NdArray::ones(&[1000]));
        let y_eval = d.forward(&x, false, &mut r);
        assert!(allclose(y_eval.value().as_slice(), x.value().as_slice(), 1e-6, 1e-6));
        let y_train = d.forward(&x, true, &mut r);
        let v = y_train.to_array();
        // surviving entries are scaled to 2.0; roughly half survive; expectation preserved
        assert!(v.as_slice().iter().all(|&e| e == 0.0 || (e - 2.0).abs() < 1e-6));
        let mean = v.mean_all();
        assert!((mean - 1.0).abs() < 0.15, "mean {mean}");
    }

    #[test]
    #[should_panic(expected = "dropout probability")]
    fn dropout_rejects_invalid_p() {
        let _ = Dropout::new(1.5);
    }

    #[test]
    fn feed_forward_shapes_and_grads() {
        let mut r = rng();
        let ff = FeedForward::new(8, 16, 0.0, &mut r);
        assert_eq!(ff.parameters().len(), 4);
        let x = Var::parameter(NdArray::randn(&[2, 4, 8], 1.0, &mut r));
        let y = ff.forward(&x, true, &mut r);
        assert_eq!(y.shape(), vec![2, 4, 8]);
        y.sum_all().backward();
        assert!(x.grad().is_some());
        assert!(ff.fc1.weight.grad().is_some());
        assert!(ff.fc2.weight.grad().is_some());
    }
}
