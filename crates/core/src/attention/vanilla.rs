//! Canonical scaled-dot-product self-attention (Vaswani et al., §2 of the RITA paper).
//!
//! Time is `O(n²)` in the number of windows — the scalability bottleneck that group
//! attention removes. The forward runs the **fused streaming kernel**
//! ([`Var::fused_attention`]): queries and keys are tiled, the softmax is computed
//! online, and the `(b, h, n, n)` score matrix is never materialised, so memory stays
//! `O(n)` per head and the quadratic time runs at blocked-GEMM speed. The explicit
//! `Q·Kᵀ → softmax → ·V` chain the kernel must match is the property tests' oracle
//! (`tests/common`), not a mode of this module.

use super::Attention;
use rita_nn::Var;

/// Exact softmax attention.
#[derive(Debug, Default, Clone, Copy)]
pub struct VanillaAttention;

impl VanillaAttention {
    /// Creates the mechanism (stateless).
    pub fn new() -> Self {
        Self
    }
}

impl Attention for VanillaAttention {
    fn forward(&mut self, q: &Var, k: &Var, v: &Var) -> Var {
        let dk = *q.shape().last().expect("q must have a head dimension") as f32;
        q.fused_attention(k, v, 1.0 / dk.sqrt())
    }

    fn name(&self) -> &'static str {
        "Vanilla"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rita_tensor::{NdArray, SeedableRng64};

    #[test]
    fn output_shape_matches_values() {
        let mut rng = SeedableRng64::seed_from_u64(0);
        let q = Var::constant(NdArray::randn(&[2, 2, 6, 4], 1.0, &mut rng));
        let k = Var::constant(NdArray::randn(&[2, 2, 6, 4], 1.0, &mut rng));
        let v = Var::constant(NdArray::randn(&[2, 2, 6, 4], 1.0, &mut rng));
        let mut attn = VanillaAttention::new();
        let o = attn.forward(&q, &k, &v);
        assert_eq!(o.shape(), vec![2, 2, 6, 4]);
        assert!(!o.to_array().has_non_finite());
    }

    #[test]
    fn uniform_keys_average_values() {
        // If all keys are identical, attention weights are uniform and the output is the
        // mean of the values for every query.
        let q = Var::constant(NdArray::ones(&[1, 1, 3, 2]));
        let k = Var::constant(NdArray::ones(&[1, 1, 4, 2]));
        let v = Var::constant(
            NdArray::from_vec(vec![1.0, 0.0, 2.0, 0.0, 3.0, 0.0, 6.0, 4.0], &[1, 1, 4, 2]).unwrap(),
        );
        let mut attn = VanillaAttention::new();
        let o = attn.forward(&q, &k, &v).to_array();
        for row in 0..3 {
            assert!((o.get(&[0, 0, row, 0]).unwrap() - 3.0).abs() < 1e-5);
            assert!((o.get(&[0, 0, row, 1]).unwrap() - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn attention_is_differentiable() {
        let mut rng = SeedableRng64::seed_from_u64(3);
        let q = Var::parameter(NdArray::randn(&[1, 1, 4, 3], 0.5, &mut rng));
        let k = Var::parameter(NdArray::randn(&[1, 1, 4, 3], 0.5, &mut rng));
        let v = Var::parameter(NdArray::randn(&[1, 1, 4, 3], 0.5, &mut rng));
        let mut attn = VanillaAttention::new();
        attn.forward(&q, &k, &v).sum_all().backward();
        assert!(q.grad().is_some());
        assert!(k.grad().is_some());
        assert!(v.grad().is_some());
        // The value gradient of attention sums to 1 per value row across queries.
        let gv = v.grad().unwrap();
        let total: f32 = gv.sum_all();
        assert!((total - 4.0 * 3.0).abs() < 1e-3, "total {total}");
    }
}
