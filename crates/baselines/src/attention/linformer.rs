//! Linformer attention (Wang et al., 2020) — the second approximate-attention baseline of
//! the RITA evaluation.
//!
//! Keys and values are projected along the *sequence* dimension with learned matrices
//! `E, F ∈ R^{k×n}` before the usual softmax attention, exploiting the empirical
//! low-rankness of attention matrices. The RITA paper notes that the extra projection
//! parameters make Linformer prone to overfitting in the few-label regime, which the
//! pretrain/finetune experiment (Table 3) reproduces.

use rand::Rng;
use rita_core::attention::Attention;
use rita_nn::{Module, ParamVisitor, Var};
use rita_tensor::NdArray;

/// Low-rank projected attention.
pub struct LinformerAttention {
    /// Key projection `E` of shape `(proj_dim, max_windows)`.
    pub e_proj: Var,
    /// Value projection `F` of shape `(proj_dim, max_windows)`.
    pub f_proj: Var,
    max_windows: usize,
    proj_dim: usize,
}

impl LinformerAttention {
    /// Creates the mechanism for sequences of at most `max_windows` windows, projecting
    /// the sequence dimension down to `proj_dim`.
    pub fn new(max_windows: usize, proj_dim: usize, rng: &mut impl Rng) -> Self {
        assert!(proj_dim > 0 && max_windows > 0, "invalid Linformer dimensions");
        let std = 1.0 / (max_windows as f32).sqrt();
        Self {
            e_proj: Var::parameter(NdArray::randn(&[proj_dim, max_windows], std, rng)),
            f_proj: Var::parameter(NdArray::randn(&[proj_dim, max_windows], std, rng)),
            max_windows,
            proj_dim,
        }
    }

    /// Projected sequence length.
    pub fn proj_dim(&self) -> usize {
        self.proj_dim
    }

    /// Maximum supported number of windows.
    pub fn max_windows(&self) -> usize {
        self.max_windows
    }
}

impl Attention for LinformerAttention {
    fn forward(&mut self, q: &Var, k: &Var, v: &Var) -> Var {
        let n = k.shape()[2];
        assert!(
            n <= self.max_windows,
            "sequence of {n} windows exceeds the Linformer projection size {}",
            self.max_windows
        );
        let dk = *q.shape().last().expect("head dim") as f32;
        // Use the first n columns of the projections for shorter sequences.
        let e = self.e_proj.slice_axis(1, 0, n);
        let f = self.f_proj.slice_axis(1, 0, n);
        let k_proj = e.matmul(k); // (B,H,proj,dh) via broadcast of the 2-D projection
        let v_proj = f.matmul(v);
        // 1/√d folded into the score product — no scaled (b, h, n, proj) temporary.
        let scores = q.matmul_nt_scaled(&k_proj, 1.0 / dk.sqrt());
        scores.softmax_last().matmul(&v_proj)
    }

    fn visit_params(&self, v: &mut ParamVisitor<'_>) {
        v.leaf("e_proj", &self.e_proj);
        v.leaf("f_proj", &self.f_proj);
    }

    fn name(&self) -> &'static str {
        "Linformer"
    }
}

impl Module for LinformerAttention {
    fn visit_params(&self, v: &mut ParamVisitor<'_>) {
        Attention::visit_params(self, v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rita_tensor::SeedableRng64;

    fn rng(seed: u64) -> SeedableRng64 {
        SeedableRng64::seed_from_u64(seed)
    }

    #[test]
    fn output_shape_and_projection_size() {
        let mut r = rng(0);
        let mut attn = LinformerAttention::new(32, 8, &mut r);
        assert_eq!(attn.proj_dim(), 8);
        assert_eq!(attn.max_windows(), 32);
        let q = Var::constant(NdArray::randn(&[2, 2, 20, 4], 1.0, &mut r));
        let k = Var::constant(NdArray::randn(&[2, 2, 20, 4], 1.0, &mut r));
        let v = Var::constant(NdArray::randn(&[2, 2, 20, 4], 1.0, &mut r));
        let o = attn.forward(&q, &k, &v);
        assert_eq!(o.shape(), vec![2, 2, 20, 4]);
        assert!(!o.to_array().has_non_finite());
    }

    #[test]
    #[should_panic(expected = "exceeds the Linformer projection size")]
    fn rejects_sequences_longer_than_max() {
        let mut r = rng(1);
        let mut attn = LinformerAttention::new(8, 4, &mut r);
        let q = Var::constant(NdArray::randn(&[1, 1, 16, 4], 1.0, &mut r));
        let _ = attn.forward(&q, &q, &q);
    }

    #[test]
    fn has_trainable_projection_parameters() {
        let mut r = rng(2);
        let attn = LinformerAttention::new(16, 4, &mut r);
        let params = Module::parameters(&attn);
        assert_eq!(params.len(), 2);
        assert_eq!(Module::num_parameters(&attn), 2 * 4 * 16);
        assert!(params.iter().all(|p| p.requires_grad()));
    }

    #[test]
    fn gradients_reach_inputs_and_projections() {
        let mut r = rng(3);
        let mut attn = LinformerAttention::new(12, 4, &mut r);
        let q = Var::parameter(NdArray::randn(&[1, 2, 10, 4], 0.5, &mut r));
        let k = Var::parameter(NdArray::randn(&[1, 2, 10, 4], 0.5, &mut r));
        let v = Var::parameter(NdArray::randn(&[1, 2, 10, 4], 0.5, &mut r));
        attn.forward(&q, &k, &v).sum_all().backward();
        assert!(q.grad().unwrap().norm() > 0.0);
        assert!(k.grad().unwrap().norm() > 0.0);
        assert!(v.grad().unwrap().norm() > 0.0);
        assert!(attn.e_proj.grad().unwrap().norm() > 0.0);
        assert!(attn.f_proj.grad().unwrap().norm() > 0.0);
        // Columns of E beyond the sequence length receive zero gradient (they were sliced off).
        let ge = attn.e_proj.grad().unwrap();
        for row in 0..4 {
            for col in 10..12 {
                assert_eq!(ge.get(&[row, col]).unwrap(), 0.0);
            }
        }
    }
}
