//! Imputation and the mask-and-predict (cloze) objective (§3, Appendix A.7.2).
//!
//! The observed series (with `-1` sentinels at masked timestamps) is encoded by the RITA
//! backbone; the per-window output representations are decoded back to the raw series with
//! a transpose-convolution-style head (a linear map per window followed by a fold), and a
//! masked mean-squared error over the missing positions is minimised.

use crate::model::{RitaConfig, RitaModel};
use crate::tasks::trainer::{timed, train_task, TrainConfig, TrainReport, TrainTask};
use rand::Rng;
use rita_data::batch::{batch_indices_by_length, make_masked_batch, MaskedBatch};
use rita_data::TimeseriesDataset;
use rita_nn::layers::Linear;
use rita_nn::loss::masked_mse;
use rita_nn::{no_grad, Module, ParamVisitor, Var};
use rita_tensor::NdArray;

/// A RITA backbone with a reconstruction (transpose-convolution) head.
pub struct Imputer {
    /// The shared backbone.
    pub model: RitaModel,
    /// Linear decoder mapping each window embedding back to `channels × window` raw values.
    pub decoder: Linear,
}

impl Imputer {
    /// Builds an imputer from scratch.
    pub fn new(config: RitaConfig, rng: &mut impl Rng) -> Self {
        let model = RitaModel::new(config, rng);
        Self::from_model(model, rng)
    }

    /// Attaches a fresh decoder to an existing backbone.
    pub fn from_model(model: RitaModel, rng: &mut impl Rng) -> Self {
        let config = model.config;
        let decoder = Linear::new(config.d_model, config.channels * config.window, rng);
        Self { model, decoder }
    }

    /// Reconstructs the full series from the observed (masked) input.
    /// Input and output are `(batch, channels, length)`.
    pub fn reconstruct(&mut self, observed: &NdArray, training: bool, rng: &mut impl Rng) -> Var {
        let shape = observed.shape().to_vec();
        let length = shape[2];
        let config = self.model.config;
        let windows = self.model.encode_windows(observed, training, rng); // (B, n, d)
        let decoded = self.decoder.forward(&windows); // (B, n, c*w)
        decoded.fold1d(config.channels, config.window, config.stride, length)
    }

    /// Masked-MSE loss of one batch.
    pub fn batch_loss(&mut self, batch: &MaskedBatch, training: bool, rng: &mut impl Rng) -> Var {
        let recon = self.reconstruct(&batch.observed, training, rng);
        masked_mse(&recon, &batch.targets, &batch.mask)
    }

    /// Trains for `config.epochs` epochs through the shared adaptive engine
    /// ([`train_task`]).
    pub fn train(
        &mut self,
        data: &TimeseriesDataset,
        config: &TrainConfig,
        rng: &mut impl Rng,
    ) -> TrainReport {
        train_task(self, data, config, rng)
    }

    /// Mean squared imputation error over masked positions of a held-out dataset.
    ///
    /// Each batch's mean masked MSE is weighted by its number of masked elements
    /// (`mask.sum_all()`), not by its sample count: batches mask different numbers of
    /// elements (random mask draws, shorter samples in variable-length data, the smaller
    /// final batch), and sample-count weighting would bias the estimate towards batches
    /// with few masked positions.
    pub fn evaluate(
        &mut self,
        data: &TimeseriesDataset,
        batch_size: usize,
        mask_rate: f32,
        rng: &mut impl Rng,
    ) -> f32 {
        if data.is_empty() {
            return 0.0;
        }
        let mut weighted = 0.0f32;
        let mut masked_total = 0.0f32;
        for idx in batch_indices_by_length(&data.lengths(), |_| batch_size, false, rng) {
            let batch = make_masked_batch(data, &idx, mask_rate, rng);
            let mse = no_grad(|| self.batch_loss(&batch, false, rng).item());
            let weight = batch.mask.sum_all();
            weighted += mse * weight;
            masked_total += weight;
        }
        if masked_total > 0.0 {
            weighted / masked_total
        } else {
            0.0
        }
    }

    /// Mean inference seconds for reconstructing a dataset (Table 7).
    pub fn inference_seconds(
        &mut self,
        data: &TimeseriesDataset,
        batch_size: usize,
        mask_rate: f32,
        rng: &mut impl Rng,
    ) -> f64 {
        let (_, seconds) = timed(|| {
            for idx in batch_indices_by_length(&data.lengths(), |_| batch_size, false, rng) {
                let batch = make_masked_batch(data, &idx, mask_rate, rng);
                let _ = no_grad(|| self.reconstruct(&batch.observed, false, rng).to_array());
            }
        });
        seconds
    }
}

impl TrainTask for Imputer {
    fn backbone(&self) -> &RitaModel {
        &self.model
    }

    fn batch_loss_on<R: Rng>(
        &mut self,
        data: &TimeseriesDataset,
        idx: &[usize],
        config: &TrainConfig,
        rng: &mut R,
    ) -> (Var, f32) {
        let batch = make_masked_batch(data, idx, config.mask_rate, rng);
        // Masked MSE averages over masked elements, so a batch weighs its mask count —
        // the same unbiased weighting `evaluate` uses.
        let weight = batch.mask.sum_all();
        (self.batch_loss(&batch, true, rng), weight)
    }
}

impl Module for Imputer {
    fn visit_params(&self, v: &mut ParamVisitor<'_>) {
        v.scope("model", |v| self.model.visit_params(v));
        v.scope("decoder", |v| self.decoder.visit_params(v));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attention::AttentionKind;
    use rand::SeedableRng;
    use rita_data::DatasetKind;
    use rita_tensor::SeedableRng64;

    fn rng(seed: u64) -> SeedableRng64 {
        SeedableRng64::seed_from_u64(seed)
    }

    fn tiny_data(n: usize, len: usize, seed: u64) -> TimeseriesDataset {
        TimeseriesDataset::generate_reduced(DatasetKind::Hhar, n, 0, len, &mut rng(seed))
    }

    #[test]
    fn reconstruction_shape_matches_input() {
        let mut r = rng(0);
        let config = RitaConfig::tiny(3, 40, AttentionKind::default_group());
        let mut imp = Imputer::new(config, &mut r);
        let x = NdArray::randn(&[2, 3, 40], 1.0, &mut r);
        let y = imp.reconstruct(&x, false, &mut r);
        assert_eq!(y.shape(), vec![2, 3, 40]);
        assert!(!y.to_array().has_non_finite());
    }

    #[test]
    fn training_reduces_masked_mse() {
        let mut r = rng(1);
        let data = tiny_data(16, 40, 2);
        let config = RitaConfig::tiny(3, 40, AttentionKind::Vanilla);
        let mut imp = Imputer::new(config, &mut r);
        let cfg = TrainConfig { epochs: 4, batch_size: 8, lr: 3e-3, ..Default::default() };
        let report = imp.train(&data, &cfg, &mut r);
        assert_eq!(report.epochs.len(), 4);
        assert!(
            report.final_loss() < report.epochs[0].loss,
            "imputation loss should decrease: {:?}",
            report.epochs
        );
        let mse = imp.evaluate(&data, 8, 0.2, &mut r);
        assert!(mse.is_finite() && mse >= 0.0);
    }

    #[test]
    fn group_attention_imputer_runs_on_longer_series() {
        let mut r = rng(3);
        let data = tiny_data(4, 100, 4);
        let config = RitaConfig::tiny(
            3,
            100,
            AttentionKind::Group { epsilon: 2.0, initial_groups: 8, adaptive: true },
        );
        let mut imp = Imputer::new(config, &mut r);
        let cfg = TrainConfig { epochs: 1, batch_size: 4, lr: 1e-3, ..Default::default() };
        let report = imp.train(&data, &cfg, &mut r);
        assert!(report.final_loss().is_finite());
        assert!(imp.inference_seconds(&data, 4, 0.2, &mut r) > 0.0);
        assert!(imp.model.mean_group_count().is_some());
    }

    #[test]
    fn evaluation_weights_batches_by_masked_elements() {
        // Variable-length data with mask_rate 1.0: masks are deterministic (every element
        // masked) and the model is deterministic in eval mode, so the masked MSE must not
        // depend on how samples are batched. The length-40 bucket holds three samples and
        // the length-80 bucket two — a skewed split whose batches mask very different
        // element counts. Sample-count weighting (the old bug) disagrees between the two
        // calls; per-masked-element weighting makes them identical.
        let mut r = rng(7);
        let mut samples = Vec::new();
        for i in 0..3 {
            samples.push(rita_data::generators::har(
                rita_data::generators::HarFlavour::Hhar,
                i,
                3,
                40,
                &mut r,
            ));
        }
        for i in 0..2 {
            samples.push(rita_data::generators::har(
                rita_data::generators::HarFlavour::Hhar,
                i,
                3,
                80,
                &mut r,
            ));
        }
        let spec = DatasetKind::Hhar.reduced_spec(5, 0, 80).with_variable_length(40, 2);
        let data = TimeseriesDataset { spec, samples, labels: None };
        assert!(data.is_variable_length());
        let config = RitaConfig::tiny(3, 80, AttentionKind::Vanilla);
        let mut imp = Imputer::new(config, &mut r);
        let batched = imp.evaluate(&data, 4, 1.0, &mut rng(8));
        let one_by_one = imp.evaluate(&data, 1, 1.0, &mut rng(9));
        assert!(batched.is_finite() && batched > 0.0);
        assert!(
            (batched - one_by_one).abs() <= 1e-4 * batched.max(1.0),
            "masked MSE must not depend on batching: {batched} vs {one_by_one}"
        );
    }

    #[test]
    fn variable_length_dataset_trains_through_the_engine() {
        let mut r = rng(11);
        let data =
            TimeseriesDataset::generate_variable(DatasetKind::Hhar, 10, 0, 40, 80, 3, &mut r);
        let config = RitaConfig::tiny(3, 80, AttentionKind::default_group());
        let mut imp = Imputer::new(config, &mut r);
        let cfg = TrainConfig { epochs: 2, batch_size: 4, lr: 1e-3, ..Default::default() };
        let report = imp.train(&data, &cfg, &mut r);
        assert_eq!(report.epochs.len(), 2);
        assert!(report.final_loss().is_finite());
        // Fixed policy records no batch-size decisions.
        assert!(report.decisions.is_empty());
    }

    #[test]
    fn decoder_dimensions_follow_config() {
        let mut r = rng(5);
        let config = RitaConfig::tiny(12, 60, AttentionKind::Vanilla);
        let imp = Imputer::new(config, &mut r);
        assert_eq!(imp.decoder.in_features(), 16);
        assert_eq!(imp.decoder.out_features(), 12 * 5);
        assert!(imp.num_parameters() > imp.model.num_parameters());
    }
}
