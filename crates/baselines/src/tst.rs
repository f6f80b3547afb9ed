//! TST (Zerveas et al., KDD 2021) — the state-of-the-art Transformer baseline the RITA
//! paper compares against.
//!
//! TST differs from RITA in exactly the ways §6.2.1 calls out:
//!
//! 1. every *timestamp* (not window) is a token, embedded with a per-timestep linear map,
//!    so the sequence length equals the raw series length;
//! 2. **batch normalisation** replaces layer normalisation, which becomes biased when
//!    long series force tiny batches;
//! 3. classification flattens (concatenates) the output of every timestamp into one huge
//!    vector before a linear classifier, which overfits on long series.
//!
//! All three are reproduced faithfully so the failure modes the paper reports can be
//! observed in the benchmark harness.

use rand::Rng;
use rita_core::attention::{merge_heads, split_heads, Attention, VanillaAttention};
use rita_core::model::embedding::sinusoidal_table;
use rita_data::batch::{batch_indices, make_batch, make_masked_batch};
use rita_data::TimeseriesDataset;
use rita_nn::layers::{BatchNorm1d, Dropout, FeedForward, Linear};
use rita_nn::loss::{accuracy, cross_entropy_logits, masked_mse};
use rita_nn::optim::{clip_grad_norm, AdamW, Optimizer};
use rita_nn::{no_grad, BufferVisitor, BufferVisitorMut, Module, ParamVisitor, Var};
use rita_tensor::NdArray;

use rita_core::tasks::{timed, EpochMetrics, TrainConfig, TrainReport};

/// Hyper-parameters of the TST baseline.
#[derive(Debug, Clone, Copy)]
pub struct TstConfig {
    /// Number of input channels.
    pub channels: usize,
    /// Maximum raw series length (every timestamp is a token).
    pub max_len: usize,
    /// Hidden dimension.
    pub d_model: usize,
    /// Attention heads.
    pub n_heads: usize,
    /// Encoder layers.
    pub n_layers: usize,
    /// Feed-forward hidden size.
    pub ff_hidden: usize,
    /// Dropout probability.
    pub dropout: f32,
}

impl TstConfig {
    /// A small configuration for CPU-scale runs.
    pub fn tiny(channels: usize, max_len: usize) -> Self {
        Self {
            channels,
            max_len,
            d_model: 16,
            n_heads: 2,
            n_layers: 2,
            ff_hidden: 32,
            dropout: 0.0,
        }
    }
}

/// One TST encoder layer: vanilla attention + feed-forward with batch norm.
struct TstLayer {
    q: Linear,
    k: Linear,
    v: Linear,
    out: Linear,
    attention: VanillaAttention,
    bn1: BatchNorm1d,
    bn2: BatchNorm1d,
    ff: FeedForward,
    dropout: Dropout,
    heads: usize,
}

impl TstLayer {
    fn new(cfg: &TstConfig, rng: &mut impl Rng) -> Self {
        let d = cfg.d_model;
        Self {
            q: Linear::new(d, d, rng),
            k: Linear::new(d, d, rng),
            v: Linear::new(d, d, rng),
            out: Linear::new(d, d, rng),
            attention: VanillaAttention::new(),
            bn1: BatchNorm1d::new(d),
            bn2: BatchNorm1d::new(d),
            ff: FeedForward::new(d, cfg.ff_hidden, cfg.dropout, rng),
            dropout: Dropout::new(cfg.dropout),
            heads: cfg.n_heads,
        }
    }

    fn forward(&mut self, x: &Var, training: bool, rng: &mut impl Rng) -> Var {
        let q = split_heads(&self.q.forward(x), self.heads);
        let k = split_heads(&self.k.forward(x), self.heads);
        let v = split_heads(&self.v.forward(x), self.heads);
        let attended = merge_heads(&self.attention.forward(&q, &k, &v));
        let attended = self.dropout.forward(&self.out.forward(&attended), training, rng);
        let x = self.bn1.forward(&x.add(&attended), training);
        let ff_out = self.dropout.forward(&self.ff.forward(&x, training, rng), training, rng);
        self.bn2.forward(&x.add(&ff_out), training)
    }

    fn visit_params(&self, v: &mut ParamVisitor<'_>) {
        for (name, lin) in [("q", &self.q), ("k", &self.k), ("v", &self.v), ("out", &self.out)] {
            v.scope(name, |v| lin.visit_params(v));
        }
        v.scope("bn1", |v| self.bn1.visit_params(v));
        v.scope("bn2", |v| self.bn2.visit_params(v));
        v.scope("ff", |v| self.ff.visit_params(v));
    }

    // Batch-norm running statistics are the buffers that make an evaluated TST model
    // reproducible; forward them so the generic checkpoint recipe sees them.
    fn visit_buffers(&self, v: &mut BufferVisitor<'_>) {
        v.scope("bn1", |v| self.bn1.visit_buffers(v));
        v.scope("bn2", |v| self.bn2.visit_buffers(v));
    }

    fn visit_buffers_mut(&mut self, v: &mut BufferVisitorMut<'_>) {
        v.scope("bn1", |v| self.bn1.visit_buffers_mut(v));
        v.scope("bn2", |v| self.bn2.visit_buffers_mut(v));
    }
}

/// The TST backbone: per-timestep embedding + encoder stack.
pub struct TstModel {
    /// Configuration.
    pub config: TstConfig,
    embed: Linear,
    positional: NdArray,
    layers: Vec<TstLayer>,
}

impl TstModel {
    /// Builds the backbone.
    pub fn new(config: TstConfig, rng: &mut impl Rng) -> Self {
        let embed = Linear::new(config.channels, config.d_model, rng);
        let positional = sinusoidal_table(config.max_len, config.d_model);
        let layers = (0..config.n_layers).map(|_| TstLayer::new(&config, rng)).collect();
        Self { config, embed, positional, layers }
    }

    /// Encodes `(batch, channels, length)` into `(batch, length, d_model)`.
    pub fn encode(&mut self, x: &NdArray, training: bool, rng: &mut impl Rng) -> Var {
        let shape = x.shape();
        assert_eq!(shape[1], self.config.channels, "channel mismatch");
        let len = shape[2];
        assert!(len <= self.config.max_len, "series longer than max_len");
        // (B, C, L) -> (B, L, C) -> linear -> (B, L, d)
        let tokens = Var::constant(x.clone()).permute(&[0, 2, 1]);
        let embedded = self.embed.forward(&tokens);
        let pos = self.positional.slice_axis(0, 0, len).expect("positional slice");
        let mut h = embedded.add(&Var::constant(pos));
        for layer in &mut self.layers {
            h = layer.forward(&h, training, rng);
        }
        h
    }
}

impl Module for TstModel {
    fn visit_params(&self, v: &mut ParamVisitor<'_>) {
        v.scope("embed", |v| self.embed.visit_params(v));
        for (i, l) in self.layers.iter().enumerate() {
            v.scope_indexed("layers", i, |v| l.visit_params(v));
        }
    }

    fn visit_buffers(&self, v: &mut BufferVisitor<'_>) {
        for (i, l) in self.layers.iter().enumerate() {
            v.scope_indexed("layers", i, |v| l.visit_buffers(v));
        }
    }

    fn visit_buffers_mut(&mut self, v: &mut BufferVisitorMut<'_>) {
        for (i, l) in self.layers.iter_mut().enumerate() {
            v.scope_indexed("layers", i, |v| l.visit_buffers_mut(v));
        }
    }
}

/// TST with its concatenated-output linear classifier.
pub struct TstClassifier {
    /// Backbone.
    pub model: TstModel,
    /// The (large) classification head over the flattened outputs.
    pub head: Linear,
    series_len: usize,
    num_classes: usize,
}

impl TstClassifier {
    /// Builds a classifier for series of exactly `series_len` timestamps.
    pub fn new(
        config: TstConfig,
        series_len: usize,
        num_classes: usize,
        rng: &mut impl Rng,
    ) -> Self {
        assert!(series_len <= config.max_len);
        let model = TstModel::new(config, rng);
        // The overfitting-prone part: one weight per (timestamp × feature × class).
        let head = Linear::new(series_len * config.d_model, num_classes, rng);
        Self { model, head, series_len, num_classes }
    }

    /// Class logits.
    pub fn logits(&mut self, x: &NdArray, training: bool, rng: &mut impl Rng) -> Var {
        let h = self.model.encode(x, training, rng); // (B, L, d)
        let shape = h.shape();
        assert_eq!(shape[1], self.series_len, "series length changed between batches");
        let flat = h.reshape(&[shape[0], shape[1] * shape[2]]);
        self.head.forward(&flat)
    }

    /// One training epoch.
    pub fn train_epoch(
        &mut self,
        data: &TimeseriesDataset,
        opt: &mut AdamW,
        cfg: &TrainConfig,
        rng: &mut impl Rng,
    ) -> EpochMetrics {
        let (loss, seconds) = timed(|| {
            let mut sum = 0.0;
            let mut batches = 0;
            for idx in batch_indices(data.len(), cfg.batch_size, true, rng) {
                let batch = make_batch(data, &idx);
                opt.zero_grad();
                let loss =
                    cross_entropy_logits(&self.logits(&batch.inputs, true, rng), &batch.labels);
                loss.backward();
                if cfg.grad_clip > 0.0 {
                    clip_grad_norm(&opt.parameters(), cfg.grad_clip);
                }
                opt.step();
                sum += loss.item();
                batches += 1;
            }
            sum / batches.max(1) as f32
        });
        EpochMetrics { loss, seconds }
    }

    /// Full training run.
    pub fn train(
        &mut self,
        data: &TimeseriesDataset,
        cfg: &TrainConfig,
        rng: &mut impl Rng,
    ) -> TrainReport {
        let mut opt = AdamW::new(self.parameters(), cfg.lr, cfg.weight_decay);
        let mut report = TrainReport::default();
        for _ in 0..cfg.epochs {
            report.push(self.train_epoch(data, &mut opt, cfg, rng));
        }
        report
    }

    /// Accuracy on a labelled dataset.
    pub fn evaluate(
        &mut self,
        data: &TimeseriesDataset,
        batch_size: usize,
        rng: &mut impl Rng,
    ) -> f32 {
        let mut weighted = 0.0;
        for idx in batch_indices(data.len(), batch_size, false, rng) {
            let batch = make_batch(data, &idx);
            let logits = no_grad(|| self.logits(&batch.inputs, false, rng).to_array());
            weighted += accuracy(&logits, &batch.labels) * idx.len() as f32;
        }
        weighted / data.len().max(1) as f32
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }
}

impl Module for TstClassifier {
    fn visit_params(&self, v: &mut ParamVisitor<'_>) {
        v.scope("model", |v| self.model.visit_params(v));
        v.scope("head", |v| self.head.visit_params(v));
    }

    fn visit_buffers(&self, v: &mut BufferVisitor<'_>) {
        v.scope("model", |v| self.model.visit_buffers(v));
    }

    fn visit_buffers_mut(&mut self, v: &mut BufferVisitorMut<'_>) {
        v.scope("model", |v| self.model.visit_buffers_mut(v));
    }
}

/// TST with a per-timestep linear reconstruction head (imputation).
pub struct TstImputer {
    /// Backbone.
    pub model: TstModel,
    /// Per-timestep decoder back to the input channels.
    pub decoder: Linear,
}

impl TstImputer {
    /// Builds the imputer.
    pub fn new(config: TstConfig, rng: &mut impl Rng) -> Self {
        let decoder = Linear::new(config.d_model, config.channels, rng);
        Self { model: TstModel::new(config, rng), decoder }
    }

    /// Reconstructs `(batch, channels, length)`.
    pub fn reconstruct(&mut self, observed: &NdArray, training: bool, rng: &mut impl Rng) -> Var {
        let h = self.model.encode(observed, training, rng); // (B, L, d)
        self.decoder.forward(&h).permute(&[0, 2, 1]) // (B, C, L)
    }

    /// One masked-reconstruction training epoch.
    pub fn train_epoch(
        &mut self,
        data: &TimeseriesDataset,
        opt: &mut AdamW,
        cfg: &TrainConfig,
        rng: &mut impl Rng,
    ) -> EpochMetrics {
        let (loss, seconds) = timed(|| {
            let mut sum = 0.0;
            let mut batches = 0;
            for idx in batch_indices(data.len(), cfg.batch_size, true, rng) {
                let batch = make_masked_batch(data, &idx, cfg.mask_rate, rng);
                opt.zero_grad();
                let recon = self.reconstruct(&batch.observed, true, rng);
                let loss = masked_mse(&recon, &batch.targets, &batch.mask);
                loss.backward();
                if cfg.grad_clip > 0.0 {
                    clip_grad_norm(&opt.parameters(), cfg.grad_clip);
                }
                opt.step();
                sum += loss.item();
                batches += 1;
            }
            sum / batches.max(1) as f32
        });
        EpochMetrics { loss, seconds }
    }

    /// Full training run.
    pub fn train(
        &mut self,
        data: &TimeseriesDataset,
        cfg: &TrainConfig,
        rng: &mut impl Rng,
    ) -> TrainReport {
        let mut opt = AdamW::new(self.parameters(), cfg.lr, cfg.weight_decay);
        let mut report = TrainReport::default();
        for _ in 0..cfg.epochs {
            report.push(self.train_epoch(data, &mut opt, cfg, rng));
        }
        report
    }

    /// Masked MSE on held-out data.
    pub fn evaluate(
        &mut self,
        data: &TimeseriesDataset,
        batch_size: usize,
        mask_rate: f32,
        rng: &mut impl Rng,
    ) -> f32 {
        let mut weighted = 0.0;
        for idx in batch_indices(data.len(), batch_size, false, rng) {
            let batch = make_masked_batch(data, &idx, mask_rate, rng);
            let mse = no_grad(|| {
                let recon = self.reconstruct(&batch.observed, false, rng);
                masked_mse(&recon, &batch.targets, &batch.mask).item()
            });
            weighted += mse * idx.len() as f32;
        }
        weighted / data.len().max(1) as f32
    }
}

impl Module for TstImputer {
    fn visit_params(&self, v: &mut ParamVisitor<'_>) {
        v.scope("model", |v| self.model.visit_params(v));
        v.scope("decoder", |v| self.decoder.visit_params(v));
    }

    fn visit_buffers(&self, v: &mut BufferVisitor<'_>) {
        v.scope("model", |v| self.model.visit_buffers(v));
    }

    fn visit_buffers_mut(&mut self, v: &mut BufferVisitorMut<'_>) {
        v.scope("model", |v| self.model.visit_buffers_mut(v));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rita_data::DatasetKind;
    use rita_tensor::SeedableRng64;

    /// The batch-norm running statistics must be visible to the generic checkpoint
    /// recipe (`named_buffers`), or a serialized TST model would silently evaluate
    /// with freshly-initialized statistics after a restore.
    #[test]
    fn batch_norm_running_stats_are_named_buffers() {
        let mut rng = SeedableRng64::seed_from_u64(0);
        let clf = TstClassifier::new(TstConfig::tiny(3, 20), 20, 2, &mut rng);
        let buffers = clf.named_buffers();
        // 2 layers x 2 batch norms x 2 running stats.
        assert_eq!(buffers.len(), 8, "{buffers:?}");
        assert!(
            buffers.iter().any(|(p, _)| p.as_str() == "model.layers.0.bn1.running_mean"),
            "{buffers:?}"
        );
        assert!(buffers.iter().all(|(p, _)| p.as_str().contains("running_")));
    }

    fn rng(seed: u64) -> SeedableRng64 {
        SeedableRng64::seed_from_u64(seed)
    }

    fn tiny_data(n: usize, len: usize, seed: u64) -> TimeseriesDataset {
        TimeseriesDataset::generate_reduced(DatasetKind::Hhar, n, 0, len, &mut rng(seed))
    }

    #[test]
    fn encode_shape_is_per_timestep() {
        let mut r = rng(0);
        let mut m = TstModel::new(TstConfig::tiny(3, 40), &mut r);
        let x = NdArray::randn(&[2, 3, 40], 1.0, &mut r);
        assert_eq!(m.encode(&x, false, &mut r).shape(), vec![2, 40, 16]);
    }

    #[test]
    fn classifier_head_is_much_larger_than_rita_style_head() {
        let mut r = rng(1);
        let clf = TstClassifier::new(TstConfig::tiny(3, 40), 40, 5, &mut r);
        // 40 timestamps × 16 features × 5 classes ≫ 16 × 5
        assert!(clf.head.num_parameters() > 16 * 5 * 10);
        assert_eq!(clf.num_classes(), 5);
    }

    #[test]
    fn classifier_trains_and_loss_decreases() {
        let mut r = rng(2);
        let data = tiny_data(12, 30, 3);
        let mut clf = TstClassifier::new(TstConfig::tiny(3, 30), 30, 5, &mut r);
        let cfg = TrainConfig { epochs: 3, batch_size: 6, lr: 3e-3, ..Default::default() };
        let report = clf.train(&data, &cfg, &mut r);
        assert!(report.final_loss() <= report.epochs[0].loss * 1.05);
        let acc = clf.evaluate(&data, 6, &mut r);
        assert!((0.0..=1.0).contains(&acc));
    }

    #[test]
    fn imputer_reconstruction_shape_and_training() {
        let mut r = rng(4);
        let data = tiny_data(8, 30, 5);
        let mut imp = TstImputer::new(TstConfig::tiny(3, 30), &mut r);
        let x = NdArray::randn(&[2, 3, 30], 1.0, &mut r);
        assert_eq!(imp.reconstruct(&x, false, &mut r).shape(), vec![2, 3, 30]);
        let cfg = TrainConfig { epochs: 2, batch_size: 4, lr: 3e-3, ..Default::default() };
        let report = imp.train(&data, &cfg, &mut r);
        assert!(report.final_loss().is_finite());
        assert!(imp.evaluate(&data, 4, 0.2, &mut r) >= 0.0);
    }

    #[test]
    #[should_panic(expected = "longer than max_len")]
    fn encode_rejects_overlong_series() {
        let mut r = rng(6);
        let mut m = TstModel::new(TstConfig::tiny(3, 20), &mut r);
        let x = NdArray::zeros(&[1, 3, 30]);
        let _ = m.encode(&x, false, &mut r);
    }
}
