//! Timeseries classification (Appendix A.7.1): the `[CLS]` representation is fed into a
//! linear classifier trained with cross entropy.

use crate::model::{RitaConfig, RitaModel};
use crate::tasks::trainer::{timed, train_task, TrainConfig, TrainReport, TrainTask};
use rand::Rng;
use rita_data::batch::{batch_indices_by_length, make_batch};
use rita_data::TimeseriesDataset;
use rita_nn::layers::Linear;
use rita_nn::loss::{accuracy, cross_entropy_logits};
use rita_nn::{no_grad, Module, ParamVisitor, Var};
use rita_tensor::NdArray;

/// A RITA backbone with a classification head.
pub struct Classifier {
    /// The shared backbone (possibly pretrained).
    pub model: RitaModel,
    /// Linear head mapping the `[CLS]` embedding to class logits.
    pub head: Linear,
    /// Number of classes.
    pub num_classes: usize,
}

impl Classifier {
    /// Builds a classifier from scratch.
    pub fn new(config: RitaConfig, num_classes: usize, rng: &mut impl Rng) -> Self {
        let model = RitaModel::new(config, rng);
        Self::from_model(model, num_classes, rng)
    }

    /// Attaches a fresh classification head to an existing (e.g. pretrained) backbone.
    pub fn from_model(model: RitaModel, num_classes: usize, rng: &mut impl Rng) -> Self {
        assert!(num_classes >= 2, "classification requires at least two classes");
        let head = Linear::new(model.config.d_model, num_classes, rng);
        Self { model, head, num_classes }
    }

    /// Class logits for a raw batch `(batch, channels, length)`.
    pub fn logits(&mut self, x: &NdArray, training: bool, rng: &mut impl Rng) -> Var {
        let cls = self.model.encode_cls(x, training, rng);
        self.head.forward(&cls)
    }

    /// Trains for `config.epochs` epochs through the shared adaptive engine
    /// ([`train_task`]), returning per-epoch metrics and batch-size decisions.
    pub fn train(
        &mut self,
        data: &TimeseriesDataset,
        config: &TrainConfig,
        rng: &mut impl Rng,
    ) -> TrainReport {
        let labels = data.labels.as_ref().expect("classification needs labels");
        assert!(!labels.is_empty(), "empty training set");
        train_task(self, data, config, rng)
    }

    /// Classification accuracy on a labelled dataset (inference mode, no graph).
    /// Variable-length datasets are evaluated in length-bucketed batches.
    pub fn evaluate(
        &mut self,
        data: &TimeseriesDataset,
        batch_size: usize,
        rng: &mut impl Rng,
    ) -> f32 {
        let labels = data.labels.as_ref().expect("evaluation needs labels");
        if labels.is_empty() {
            return 0.0;
        }
        let mut correct_weighted = 0.0f32;
        for idx in batch_indices_by_length(&data.lengths(), |_| batch_size, false, rng) {
            let batch = make_batch(data, &idx);
            let logits = no_grad(|| self.logits(&batch.inputs, false, rng).to_array());
            correct_weighted += accuracy(&logits, &batch.labels) * idx.len() as f32;
        }
        correct_weighted / data.len() as f32
    }

    /// Mean inference seconds per batch over a dataset (Tables 6–7).
    pub fn inference_seconds(
        &mut self,
        data: &TimeseriesDataset,
        batch_size: usize,
        rng: &mut impl Rng,
    ) -> f64 {
        let (_, seconds) = timed(|| {
            for idx in batch_indices_by_length(&data.lengths(), |_| batch_size, false, rng) {
                let batch = make_batch(data, &idx);
                let _ = no_grad(|| self.logits(&batch.inputs, false, rng).to_array());
            }
        });
        seconds
    }
}

impl TrainTask for Classifier {
    fn backbone(&self) -> &RitaModel {
        &self.model
    }

    fn batch_loss_on<R: Rng>(
        &mut self,
        data: &TimeseriesDataset,
        idx: &[usize],
        _config: &TrainConfig,
        rng: &mut R,
    ) -> (Var, f32) {
        let batch = make_batch(data, idx);
        let logits = self.logits(&batch.inputs, true, rng);
        // Cross entropy averages over samples, so a batch weighs its sample count.
        (cross_entropy_logits(&logits, &batch.labels), idx.len() as f32)
    }
}

impl Module for Classifier {
    fn visit_params(&self, v: &mut ParamVisitor<'_>) {
        v.scope("model", |v| self.model.visit_params(v));
        v.scope("head", |v| self.head.visit_params(v));
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

    fn two_class_dataset(n: usize, rng: &mut SeedableRng64) -> TimeseriesDataset {
        // Use the HHAR generator but relabel into two well-separated classes (0 vs 4)
        // so a couple of epochs suffice for the test.
        let mut spec = DatasetKind::Hhar.reduced_spec(n, 0, 40);
        spec.num_classes = 2;
        let mut samples = Vec::new();
        let mut labels = Vec::new();
        for i in 0..n {
            let class = i % 2;
            let gen_class = if class == 0 { 0 } else { 4 };
            samples.push(rita_data::generators::har(
                rita_data::generators::HarFlavour::Hhar,
                gen_class,
                3,
                40,
                rng,
            ));
            labels.push(class);
        }
        TimeseriesDataset { spec, samples, labels: Some(labels) }
    }

    #[test]
    fn logits_shape_matches_classes() {
        let mut r = rng(0);
        let config = RitaConfig::tiny(3, 40, AttentionKind::default_group());
        let mut clf = Classifier::new(config, 5, &mut r);
        let x = NdArray::randn(&[3, 3, 40], 1.0, &mut r);
        assert_eq!(clf.logits(&x, false, &mut r).shape(), vec![3, 5]);
        assert_eq!(clf.num_classes, 5);
    }

    #[test]
    fn training_reduces_loss_and_beats_chance() {
        let mut r = rng(1);
        let data = two_class_dataset(24, &mut r);
        let config = RitaConfig::tiny(3, 40, AttentionKind::Vanilla);
        let mut clf = Classifier::new(config, 2, &mut r);
        let train_cfg = TrainConfig { epochs: 4, batch_size: 8, lr: 3e-3, ..Default::default() };
        let report = clf.train(&data, &train_cfg, &mut r);
        assert_eq!(report.epochs.len(), 4);
        assert!(
            report.final_loss() < report.epochs[0].loss,
            "loss should decrease: {:?}",
            report.epochs
        );
        let acc = clf.evaluate(&data, 8, &mut r);
        assert!(acc > 0.6, "train accuracy {acc}");
    }

    #[test]
    fn group_attention_classifier_trains() {
        let mut r = rng(2);
        let data = two_class_dataset(16, &mut r);
        let config = RitaConfig::tiny(
            3,
            40,
            AttentionKind::Group { epsilon: 2.0, initial_groups: 4, adaptive: true },
        );
        let mut clf = Classifier::new(config, 2, &mut r);
        let train_cfg = TrainConfig { epochs: 2, batch_size: 8, lr: 3e-3, ..Default::default() };
        let report = clf.train(&data, &train_cfg, &mut r);
        assert!(report.final_loss().is_finite());
        assert!(clf.model.mean_group_count().is_some());
        assert!(clf.inference_seconds(&data, 8, &mut r) > 0.0);
    }

    #[test]
    #[should_panic(expected = "at least two classes")]
    fn rejects_single_class() {
        let mut r = rng(3);
        let config = RitaConfig::tiny(3, 40, AttentionKind::Vanilla);
        let _ = Classifier::new(config, 1, &mut r);
    }
}
