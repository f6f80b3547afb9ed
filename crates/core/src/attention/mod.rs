//! Attention mechanisms.
//!
//! The RITA encoder is parameterised over the attention mechanism so the paper's
//! comparisons can be run on an otherwise identical architecture. This crate builds the
//! two kinds it checkpoints and serves — vanilla attention and RITA's group attention;
//! the evaluation's Performer and Linformer baselines live in `rita-baselines` and plug
//! in through [`crate::model::RitaModel::with_attention`]. All mechanisms consume
//! pre-projected, head-split tensors of shape `(batch, heads, windows, head_dim)` and
//! produce the same shape.

pub mod group;
pub mod vanilla;

use rita_nn::{ParamVisitor, Var};

pub use group::{GroupAttention, GroupAttentionConfig, GroupAttentionStats};
pub use vanilla::VanillaAttention;

/// Which attention mechanism an encoder layer uses.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AttentionKind {
    /// Exact softmax attention (quadratic in the number of windows).
    Vanilla,
    /// RITA's group attention with the adaptive scheduler (the paper's contribution).
    Group {
        /// Approximation error bound ε (> 1) given to the adaptive scheduler.
        epsilon: f32,
        /// Initial number of groups.
        initial_groups: usize,
        /// Whether the adaptive scheduler may shrink the number of groups.
        adaptive: bool,
    },
}

impl AttentionKind {
    /// Short name used in result tables.
    pub fn name(&self) -> &'static str {
        match self {
            AttentionKind::Vanilla => "Vanilla",
            AttentionKind::Group { .. } => "Group Attn.",
        }
    }

    /// The paper's default group-attention configuration (ε = 2, adaptive scheduling on).
    pub fn default_group() -> Self {
        AttentionKind::Group { epsilon: 2.0, initial_groups: 64, adaptive: true }
    }
}

/// An attention mechanism operating on head-split projections.
pub trait Attention {
    /// Computes attention outputs. `q`, `k`, `v` all have shape
    /// `(batch, heads, windows, head_dim)`; the output has the same shape as `v`.
    fn forward(&mut self, q: &Var, k: &Var, v: &Var) -> Var;

    /// Visits the mechanism's own trainable parameters by name (vanilla and group
    /// attention have none; a baseline such as Linformer reports its projection
    /// matrices). Part of the named module tree that optimisers key off.
    fn visit_params(&self, _visitor: &mut ParamVisitor<'_>) {}

    /// Mechanism name for reporting.
    fn name(&self) -> &'static str;

    /// Scheduler statistics, available only for group attention.
    fn group_stats(&self) -> Option<GroupAttentionStats> {
        None
    }

    /// The scheduler's persistent (real-valued) group-count target, available only for
    /// group attention. Unlike [`GroupAttentionStats::current_groups`] — which is the
    /// count the *last* forward pass used, clamped to that batch's window count — this
    /// does not depend on which batch ran last, so it is the right input for batch-size
    /// planning over mixed-length buckets.
    fn scheduled_group_target(&self) -> Option<f32> {
        None
    }

    /// Overrides the group count (no-op for non-group mechanisms). Used by the
    /// fixed-N ablation (Table 4).
    fn set_group_count(&mut self, _n: usize) {}

    /// Restores the scheduler's persistent real-valued group-count target from a
    /// checkpoint (no-op for non-group mechanisms). Unlike
    /// [`Attention::set_group_count`], this sets the exact fractional state the momentum
    /// update left behind, so resumed training continues step-for-step.
    fn restore_scheduled_target(&mut self, _target: f32) {}
}

/// Builds the configured attention mechanism for one encoder layer. Neither kind draws
/// from a generator, so building one leaves the model's initialisation order untouched.
pub fn build_attention(kind: AttentionKind) -> Box<dyn Attention> {
    match kind {
        AttentionKind::Vanilla => Box::new(VanillaAttention::new()),
        AttentionKind::Group { epsilon, initial_groups, adaptive } => {
            Box::new(GroupAttention::new(GroupAttentionConfig {
                epsilon,
                initial_groups,
                adaptive,
                ..GroupAttentionConfig::default()
            }))
        }
    }
}

/// Splits `(batch, windows, d_model)` into `(batch, heads, windows, d_model / heads)`.
pub fn split_heads(x: &Var, heads: usize) -> Var {
    let shape = x.shape();
    assert_eq!(shape.len(), 3, "split_heads expects (batch, windows, d_model)");
    let (b, n, d) = (shape[0], shape[1], shape[2]);
    assert_eq!(d % heads, 0, "d_model {d} not divisible by heads {heads}");
    x.reshape(&[b, n, heads, d / heads]).permute(&[0, 2, 1, 3])
}

/// Inverse of [`split_heads`]: `(batch, heads, windows, head_dim)` → `(batch, windows, d_model)`.
pub fn merge_heads(x: &Var) -> Var {
    let shape = x.shape();
    assert_eq!(shape.len(), 4, "merge_heads expects (batch, heads, windows, head_dim)");
    let (b, h, n, dh) = (shape[0], shape[1], shape[2], shape[3]);
    x.permute(&[0, 2, 1, 3]).reshape(&[b, n, h * dh])
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rita_tensor::{NdArray, SeedableRng64};

    #[test]
    fn split_and_merge_heads_roundtrip() {
        let mut rng = SeedableRng64::seed_from_u64(0);
        let x = Var::constant(NdArray::randn(&[2, 5, 8], 1.0, &mut rng));
        let split = split_heads(&x, 4);
        assert_eq!(split.shape(), vec![2, 4, 5, 2]);
        let merged = merge_heads(&split);
        assert_eq!(merged.shape(), vec![2, 5, 8]);
        assert_eq!(merged.to_array(), x.to_array());
    }

    #[test]
    fn split_heads_places_head_features_contiguously() {
        // d_model = 4, heads = 2: head 0 must see features 0..2 of every window.
        let x = Var::constant(NdArray::arange(0.0, 1.0, 8).reshape(&[1, 2, 4]).unwrap());
        let s = split_heads(&x, 2);
        // window 0 head 0 -> [0, 1]; window 1 head 0 -> [4, 5]
        assert_eq!(s.to_array().get(&[0, 0, 0, 0]).unwrap(), 0.0);
        assert_eq!(s.to_array().get(&[0, 0, 1, 1]).unwrap(), 5.0);
        // head 1 -> features 2..4
        assert_eq!(s.to_array().get(&[0, 1, 0, 0]).unwrap(), 2.0);
    }

    #[test]
    fn kind_names() {
        assert_eq!(AttentionKind::Vanilla.name(), "Vanilla");
        assert_eq!(AttentionKind::default_group().name(), "Group Attn.");
    }

    #[test]
    fn build_attention_dispatches() {
        for kind in [AttentionKind::Vanilla, AttentionKind::default_group()] {
            assert_eq!(build_attention(kind).name(), kind.name());
        }
    }
}
