//! The RITA encoder: a stack of Transformer encoder layers whose self-attention is
//! pluggable (vanilla and group here; the Performer and Linformer baselines of
//! `rita-baselines` through a factory), as required by the paper's evaluation
//! methodology (§6.1, "Alternative Methods").

use crate::attention::{merge_heads, split_heads, Attention, GroupAttentionStats};
use crate::model::config::RitaConfig;
use rand::Rng;
use rita_nn::layers::{Dropout, FeedForward, LayerNorm, Linear};
use rita_nn::{Module, ParamVisitor, Var};

/// One encoder layer: multi-head (pluggable) attention + feed-forward, each wrapped in a
/// residual connection and layer normalisation (post-norm, as in the original
/// Transformer and TST).
pub struct EncoderLayer {
    q_proj: Linear,
    k_proj: Linear,
    v_proj: Linear,
    out_proj: Linear,
    /// The attention mechanism (owned; group attention keeps scheduler state here).
    pub attention: Box<dyn Attention>,
    norm1: LayerNorm,
    norm2: LayerNorm,
    ff: FeedForward,
    dropout: Dropout,
    heads: usize,
}

impl EncoderLayer {
    /// Builds one layer for `config`. Its attention comes from `make_attention`, called
    /// once after the four projections are drawn and before the feed-forward block.
    pub fn new<R: Rng>(
        config: &RitaConfig,
        make_attention: &mut impl FnMut(&mut R) -> Box<dyn Attention>,
        rng: &mut R,
    ) -> Self {
        let d = config.d_model;
        Self {
            q_proj: Linear::new(d, d, rng),
            k_proj: Linear::new(d, d, rng),
            v_proj: Linear::new(d, d, rng),
            out_proj: Linear::new(d, d, rng),
            attention: make_attention(rng),
            norm1: LayerNorm::new(d),
            norm2: LayerNorm::new(d),
            ff: FeedForward::new(d, config.ff_hidden, config.dropout, rng),
            dropout: Dropout::new(config.dropout),
            heads: config.n_heads,
        }
    }

    /// Applies the layer to `(batch, units, d_model)` embeddings.
    pub fn forward(&mut self, x: &Var, training: bool, rng: &mut impl Rng) -> Var {
        let q = split_heads(&self.q_proj.forward(x), self.heads);
        let k = split_heads(&self.k_proj.forward(x), self.heads);
        let v = split_heads(&self.v_proj.forward(x), self.heads);
        let attended = merge_heads(&self.attention.forward(&q, &k, &v));
        let attended = self.dropout.forward(&self.out_proj.forward(&attended), training, rng);
        let x = self.norm1.forward(&x.add(&attended));
        let ff_out = self.dropout.forward(&self.ff.forward(&x, training, rng), training, rng);
        self.norm2.forward(&x.add(&ff_out))
    }
}

impl Module for EncoderLayer {
    fn visit_params(&self, v: &mut ParamVisitor<'_>) {
        v.scope("q_proj", |v| self.q_proj.visit_params(v));
        v.scope("k_proj", |v| self.k_proj.visit_params(v));
        v.scope("v_proj", |v| self.v_proj.visit_params(v));
        v.scope("out_proj", |v| self.out_proj.visit_params(v));
        v.scope("attention", |v| self.attention.visit_params(v));
        v.scope("norm1", |v| self.norm1.visit_params(v));
        v.scope("norm2", |v| self.norm2.visit_params(v));
        v.scope("ff", |v| self.ff.visit_params(v));
    }
}

/// The full encoder stack.
pub struct RitaEncoder {
    /// The stacked layers.
    pub layers: Vec<EncoderLayer>,
}

impl RitaEncoder {
    /// Builds `config.n_layers` layers, each with its own `make_attention(rng)`.
    pub fn new<R: Rng>(
        config: &RitaConfig,
        mut make_attention: impl FnMut(&mut R) -> Box<dyn Attention>,
        rng: &mut R,
    ) -> Self {
        let layers = (0..config.n_layers)
            .map(|_| EncoderLayer::new(config, &mut make_attention, rng))
            .collect();
        Self { layers }
    }

    /// Applies every layer in sequence.
    pub fn forward(&mut self, x: &Var, training: bool, rng: &mut impl Rng) -> Var {
        let mut h = x.clone();
        for layer in &mut self.layers {
            h = layer.forward(&h, training, rng);
        }
        h
    }

    /// Group-attention statistics per layer (empty entries for non-group layers).
    pub fn group_stats(&self) -> Vec<Option<GroupAttentionStats>> {
        self.layers.iter().map(|l| l.attention.group_stats()).collect()
    }

    /// Average group count across group-attention layers, if any.
    pub fn mean_group_count(&self) -> Option<f32> {
        let counts: Vec<f32> =
            self.group_stats().into_iter().flatten().map(|s| s.current_groups as f32).collect();
        if counts.is_empty() {
            None
        } else {
            Some(counts.iter().sum::<f32>() / counts.len() as f32)
        }
    }

    /// Average *persistent* scheduler group-count target across group-attention layers —
    /// independent of which batch ran last, unlike [`RitaEncoder::mean_group_count`].
    pub fn mean_scheduled_groups(&self) -> Option<f32> {
        let targets: Vec<f32> =
            self.layers.iter().filter_map(|l| l.attention.scheduled_group_target()).collect();
        if targets.is_empty() {
            None
        } else {
            Some(targets.iter().sum::<f32>() / targets.len() as f32)
        }
    }

    /// Forces a fixed group count on every group-attention layer (Table 4's baseline).
    pub fn set_group_count(&mut self, n: usize) {
        for layer in &mut self.layers {
            layer.attention.set_group_count(n);
        }
    }

    /// Per-layer persistent scheduler targets, `None` for non-group layers — the
    /// scheduler state a checkpoint persists.
    pub fn scheduler_state(&self) -> Vec<Option<f32>> {
        self.layers.iter().map(|l| l.attention.scheduled_group_target()).collect()
    }

    /// Restores per-layer scheduler targets captured by [`RitaEncoder::scheduler_state`].
    /// Entries are matched by layer index; `None` entries are skipped.
    pub fn restore_scheduler_state(&mut self, targets: &[Option<f32>]) {
        for (layer, target) in self.layers.iter_mut().zip(targets) {
            if let Some(t) = target {
                layer.attention.restore_scheduled_target(*t);
            }
        }
    }
}

impl Module for RitaEncoder {
    fn visit_params(&self, v: &mut ParamVisitor<'_>) {
        for (i, layer) in self.layers.iter().enumerate() {
            v.scope_indexed("layers", i, |v| layer.visit_params(v));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attention::{build_attention, AttentionKind};
    use rand::SeedableRng;
    use rita_tensor::{NdArray, SeedableRng64};

    fn rng(seed: u64) -> SeedableRng64 {
        SeedableRng64::seed_from_u64(seed)
    }

    fn encoder(config: &RitaConfig, rng: &mut SeedableRng64) -> RitaEncoder {
        RitaEncoder::new(config, |_| build_attention(config.attention), rng)
    }

    fn run_encoder(kind: AttentionKind) -> Var {
        let mut r = rng(0);
        let config = RitaConfig::tiny(3, 60, kind);
        let mut enc = encoder(&config, &mut r);
        let x = Var::constant(NdArray::randn(&[2, 13, 16], 1.0, &mut r));
        enc.forward(&x, false, &mut r)
    }

    #[test]
    fn all_attention_kinds_preserve_shape() {
        for kind in [
            AttentionKind::Vanilla,
            AttentionKind::Group { epsilon: 2.0, initial_groups: 4, adaptive: true },
        ] {
            let y = run_encoder(kind);
            assert_eq!(y.shape(), vec![2, 13, 16], "{}", kind.name());
            assert!(!y.to_array().has_non_finite(), "{}", kind.name());
        }
    }

    #[test]
    fn encoder_is_trainable_end_to_end() {
        let mut r = rng(1);
        let config = RitaConfig::tiny(
            3,
            40,
            AttentionKind::Group { epsilon: 2.0, initial_groups: 4, adaptive: true },
        );
        let mut enc = encoder(&config, &mut r);
        let params = enc.parameters();
        assert!(!params.is_empty());
        let x = Var::constant(NdArray::randn(&[2, 9, 16], 1.0, &mut r));
        enc.forward(&x, true, &mut r).sum_all().backward();
        let with_grad = params.iter().filter(|p| p.grad().is_some()).count();
        // Every projection / norm / FF parameter should receive a gradient.
        assert!(with_grad as f32 >= params.len() as f32 * 0.9, "{with_grad}/{}", params.len());
    }

    #[test]
    fn group_stats_reported_only_for_group_layers() {
        let mut r = rng(2);
        let group_cfg = RitaConfig::tiny(3, 40, AttentionKind::default_group());
        let mut enc = encoder(&group_cfg, &mut r);
        assert_eq!(enc.mean_group_count(), Some(0.0), "no forward pass yet means zero groups used");
        let x = Var::constant(NdArray::randn(&[1, 9, 16], 1.0, &mut r));
        let _ = enc.forward(&x, false, &mut r);
        assert!(enc.mean_group_count().is_some());
        enc.set_group_count(3);
        let _ = enc.forward(&x, false, &mut r);
        assert_eq!(enc.mean_group_count().unwrap(), 3.0);

        let vanilla_cfg = RitaConfig::tiny(3, 40, AttentionKind::Vanilla);
        let mut vanilla_enc = encoder(&vanilla_cfg, &mut r);
        let _ = vanilla_enc.forward(&x, false, &mut r);
        assert!(vanilla_enc.mean_group_count().is_none());
    }
}
