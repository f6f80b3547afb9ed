//! Performer attention (Choromanski et al., 2020) — one of the two approximate-attention
//! baselines the RITA paper compares against.
//!
//! The softmax kernel is approximated with positive orthogonal-ish random features
//! (FAVOR+): `exp(qᵀk) ≈ φ(q)ᵀ φ(k)` with `φ(x) = exp(ωᵀx − ‖x‖²/2) / √m`. Changing the
//! multiplication order then makes attention linear in the sequence length.

use rand::Rng;
use rita_core::attention::Attention;
use rita_nn::Var;
use rita_tensor::NdArray;

/// FAVOR+ attention with a fixed random-feature matrix.
pub struct PerformerAttention {
    /// Random feature matrix ω of shape `(head_dim, features)` (not trainable).
    omega: NdArray,
    features: usize,
}

impl PerformerAttention {
    /// Creates the mechanism with `features` random features for `head_dim`-dimensional heads.
    pub fn new(head_dim: usize, features: usize, rng: &mut impl Rng) -> Self {
        assert!(features > 0, "need at least one random feature");
        let omega = NdArray::randn(&[head_dim, features], 1.0, rng);
        Self { omega, features }
    }
}

impl Attention for PerformerAttention {
    fn forward(&mut self, q: &Var, k: &Var, v: &Var) -> Var {
        let omega = Var::constant(self.omega.clone());
        // Positive random-feature map with a detached global stabiliser.
        let feature_map = |x: &Var| {
            let logits = x.matmul(&omega);
            let sq_norm = x.square().sum_axis(3).scale(0.5);
            let raw = logits.sub(&sq_norm);
            // Global (scalar) stabiliser keeps exp() finite; a per-tensor constant shift
            // rescales every feature vector identically, so the normalised attention
            // output is unchanged.
            let stab = raw.to_array().max_all();
            raw.add_scalar(-stab).exp().scale(1.0 / (self.features as f32).sqrt())
        };
        let dk = *q.shape().last().expect("head dim") as f32;
        // Fold the 1/√d_k scaling into the inputs so φ(q)ᵀφ(k) approximates exp(qᵀk/√d_k).
        let scale = dk.powf(-0.25);
        let phi_q = feature_map(&q.scale(scale));
        let phi_k = feature_map(&k.scale(scale));
        // (B,H,m,dh) — the O(n·m·d) contraction that replaces the O(n²·d) score matrix.
        let kv = phi_k.transpose_last2().matmul(v);
        let numerator = phi_q.matmul(&kv);
        // Denominator: φ(q)ᵀ Σ_j φ(k_j).
        let phi_k_sum = phi_k.sum_axis(2); // (B,H,1,m)
        let denominator = phi_q.matmul_nt(&phi_k_sum).add_scalar(1e-6); // (B,H,n,1)
        numerator.div(&denominator)
    }

    fn name(&self) -> &'static str {
        "Performer"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rita_core::attention::VanillaAttention;
    use rita_tensor::SeedableRng64;

    fn rng(seed: u64) -> SeedableRng64 {
        SeedableRng64::seed_from_u64(seed)
    }

    #[test]
    fn output_shape_and_finiteness() {
        let mut r = rng(0);
        let q = Var::constant(NdArray::randn(&[2, 2, 10, 4], 1.0, &mut r));
        let k = Var::constant(NdArray::randn(&[2, 2, 10, 4], 1.0, &mut r));
        let v = Var::constant(NdArray::randn(&[2, 2, 10, 4], 1.0, &mut r));
        let mut attn = PerformerAttention::new(4, 32, &mut r);
        let o = attn.forward(&q, &k, &v);
        assert_eq!(o.shape(), vec![2, 2, 10, 4]);
        assert!(!o.to_array().has_non_finite());
        assert_eq!(attn.features, 32);
    }

    #[test]
    fn approximates_vanilla_attention_with_many_features() {
        let mut r = rng(1);
        // Small-norm inputs keep the kernel approximation well conditioned.
        let q = Var::constant(NdArray::randn(&[1, 1, 8, 4], 0.3, &mut r));
        let k = Var::constant(NdArray::randn(&[1, 1, 8, 4], 0.3, &mut r));
        let v = Var::constant(NdArray::randn(&[1, 1, 8, 4], 1.0, &mut r));
        let exact = VanillaAttention::new().forward(&q, &k, &v).to_array();
        let mut attn = PerformerAttention::new(4, 512, &mut r);
        let approx = attn.forward(&q, &k, &v).to_array();
        let max_err = exact
            .as_slice()
            .iter()
            .zip(approx.as_slice())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max);
        assert!(max_err < 0.25, "max err {max_err}");
    }

    #[test]
    fn gradients_flow_through_feature_map() {
        let mut r = rng(2);
        let q = Var::parameter(NdArray::randn(&[1, 1, 6, 4], 0.5, &mut r));
        let k = Var::parameter(NdArray::randn(&[1, 1, 6, 4], 0.5, &mut r));
        let v = Var::parameter(NdArray::randn(&[1, 1, 6, 4], 0.5, &mut r));
        let mut attn = PerformerAttention::new(4, 16, &mut r);
        attn.forward(&q, &k, &v).sum_all().backward();
        assert!(q.grad().unwrap().norm() > 0.0);
        assert!(k.grad().unwrap().norm() > 0.0);
        assert!(v.grad().unwrap().norm() > 0.0);
    }

    #[test]
    fn attention_rows_approximately_average_values() {
        // With identical keys the Performer output, like vanilla, is the value mean.
        let mut r = rng(3);
        let q = Var::constant(NdArray::randn(&[1, 1, 5, 4], 0.2, &mut r));
        let k = Var::constant(NdArray::full(&[1, 1, 5, 4], 0.1));
        let v = Var::constant(
            NdArray::from_vec((0..20).map(|x| x as f32).collect(), &[1, 1, 5, 4]).unwrap(),
        );
        let mut attn = PerformerAttention::new(4, 128, &mut r);
        let o = attn.forward(&q, &k, &v).to_array();
        // column means of v are 8, 9, 10, 11
        for row in 0..5 {
            for col in 0..4 {
                let expect = 8.0 + col as f32;
                let got = o.get(&[0, 0, row, col]).unwrap();
                assert!((got - expect).abs() < 0.5, "row {row} col {col}: {got} vs {expect}");
            }
        }
    }
}
