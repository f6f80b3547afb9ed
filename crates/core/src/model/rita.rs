//! The assembled RITA model: time-aware convolution embedding + encoder stack (Fig. 1).

use crate::attention::{build_attention, Attention, GroupAttentionStats};
use crate::model::config::RitaConfig;
use crate::model::embedding::TimeConvEmbed;
use crate::model::encoder::RitaEncoder;
use crate::scheduler::MemoryModel;
use rand::Rng;
use rita_nn::{Module, ParamVisitor, Var};
use rita_tensor::NdArray;

/// The backbone shared by every downstream task: it maps a batch of raw series
/// `(batch, channels, length)` to contextualised embeddings `(batch, windows + 1, d_model)`
/// where position 0 is the `[CLS]` summary token.
pub struct RitaModel {
    /// Model configuration.
    pub config: RitaConfig,
    /// Input stage (convolution windows + positional + CLS).
    pub embedding: TimeConvEmbed,
    /// Encoder stack.
    pub encoder: RitaEncoder,
}

impl RitaModel {
    /// Builds a model for `config` with the attention `config.attention` names.
    pub fn new(config: RitaConfig, rng: &mut impl Rng) -> Self {
        Self::with_attention(config, |_| build_attention(config.attention), rng)
    }

    /// Builds a model for `config` whose layers run the attention `make_attention`
    /// returns: it is called once per layer, after that layer's four projections are
    /// drawn from `rng` and before its feed-forward block, where [`RitaModel::new`]
    /// builds the configured kind. A mechanism that draws from `rng` there (the
    /// `rita-baselines` Performer and Linformer) shifts only the draws after it.
    ///
    /// `config.attention` still names what a checkpoint records, so a model whose layers
    /// run anything else cannot be checkpointed (`Checkpoint::of_*` panics).
    pub fn with_attention<R: Rng>(
        config: RitaConfig,
        make_attention: impl FnMut(&mut R) -> Box<dyn Attention>,
        rng: &mut R,
    ) -> Self {
        config.validate();
        Self {
            config,
            embedding: TimeConvEmbed::new(&config, rng),
            encoder: RitaEncoder::new(&config, make_attention, rng),
        }
    }

    /// Encodes a batch of raw series into contextual embeddings (CLS at position 0).
    pub fn encode(&mut self, x: &NdArray, training: bool, rng: &mut impl Rng) -> Var {
        let input = Var::constant(x.clone());
        let embedded = self.embedding.forward(&input);
        self.encoder.forward(&embedded, training, rng)
    }

    /// The `[CLS]` representation of each series: `(batch, d_model)`.
    pub fn encode_cls(&mut self, x: &NdArray, training: bool, rng: &mut impl Rng) -> Var {
        let h = self.encode(x, training, rng);
        let shape = h.shape();
        h.slice_axis(1, 0, 1).reshape(&[shape[0], shape[2]])
    }

    /// The per-window representations (CLS dropped): `(batch, windows, d_model)`.
    pub fn encode_windows(&mut self, x: &NdArray, training: bool, rng: &mut impl Rng) -> Var {
        let h = self.encode(x, training, rng);
        let shape = h.shape();
        h.slice_axis(1, 1, shape[1])
    }

    /// Per-layer group-attention statistics (for the scheduler experiments).
    pub fn group_stats(&self) -> Vec<Option<GroupAttentionStats>> {
        self.encoder.group_stats()
    }

    /// Average number of groups across group-attention layers after the last forward pass.
    pub fn mean_group_count(&self) -> Option<f32> {
        self.encoder.mean_group_count()
    }

    /// Average persistent scheduler group-count target across group-attention layers.
    /// Defined from construction on (the configured initial group count) and independent
    /// of batch order, which makes it the right `N` for batch-size planning (§5.2); the
    /// count an actual batch uses is this target clamped to the batch's window count.
    pub fn mean_scheduled_groups(&self) -> Option<f32> {
        self.encoder.mean_scheduled_groups()
    }

    /// Forces a fixed group count on all group-attention layers.
    pub fn set_group_count(&mut self, n: usize) {
        self.encoder.set_group_count(n);
    }

    /// Per-layer persistent scheduler group-count targets (`None` for non-group
    /// layers) — the §5.1 state a checkpoint persists so a restart resumes the exact
    /// schedule.
    pub fn scheduler_state(&self) -> Vec<Option<f32>> {
        self.encoder.scheduler_state()
    }

    /// Restores scheduler targets captured by [`RitaModel::scheduler_state`].
    pub fn restore_scheduler_state(&mut self, targets: &[Option<f32>]) {
        self.encoder.restore_scheduler_state(targets);
    }

    /// The memory-relevant shape of this model, for the §5.2 batch-size machinery.
    pub fn memory_model(&self) -> MemoryModel {
        self.config.memory_model()
    }
}

impl Module for RitaModel {
    fn visit_params(&self, v: &mut ParamVisitor<'_>) {
        v.scope("embedding", |v| self.embedding.visit_params(v));
        v.scope("encoder", |v| self.encoder.visit_params(v));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attention::AttentionKind;
    use rand::SeedableRng;
    use rita_tensor::SeedableRng64;

    fn rng(seed: u64) -> SeedableRng64 {
        SeedableRng64::seed_from_u64(seed)
    }

    #[test]
    fn encode_shapes_for_all_views() {
        let mut r = rng(0);
        let config = RitaConfig::tiny(3, 60, AttentionKind::default_group());
        let mut model = RitaModel::new(config, &mut r);
        let x = NdArray::randn(&[4, 3, 60], 1.0, &mut r);
        assert_eq!(model.encode(&x, false, &mut r).shape(), vec![4, 13, 16]);
        assert_eq!(model.encode_cls(&x, false, &mut r).shape(), vec![4, 16]);
        assert_eq!(model.encode_windows(&x, false, &mut r).shape(), vec![4, 12, 16]);
        assert!(model.mean_group_count().is_some());
    }

    #[test]
    fn model_has_many_parameters_and_all_require_grad() {
        let mut r = rng(1);
        let model = RitaModel::new(RitaConfig::tiny(2, 40, AttentionKind::Vanilla), &mut r);
        let params = model.parameters();
        assert!(params.len() > 20);
        assert!(params.iter().all(|p| p.requires_grad()));
        assert!(model.num_parameters() > 1000);
    }

    #[test]
    fn different_inputs_produce_different_cls() {
        let mut r = rng(2);
        let mut model = RitaModel::new(RitaConfig::tiny(1, 30, AttentionKind::Vanilla), &mut r);
        let a = NdArray::randn(&[1, 1, 30], 1.0, &mut r);
        let b = NdArray::randn(&[1, 1, 30], 1.0, &mut r);
        let ca = model.encode_cls(&a, false, &mut r).to_array();
        let cb = model.encode_cls(&b, false, &mut r).to_array();
        assert!(ca.sub(&cb).unwrap().norm() > 1e-4);
    }
}
