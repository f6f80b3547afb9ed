//! End-to-end integration tests exercising the umbrella `rita` crate the way a downstream
//! user would: generate data, train classifiers/imputers with different attention
//! mechanisms, pretrain + fine-tune, and forecast.

use rand::SeedableRng;
use rita::core::attention::AttentionKind;
use rita::core::model::RitaConfig;
use rita::core::scheduler::{BatchSizePredictor, MemoryModel};
use rita::core::tasks::{
    evaluate_forecast, finetune_classifier, pretrain, Classifier, Imputer, TrainConfig,
};
use rita::data::{DatasetKind, TimeseriesDataset};
use rita::tensor::SeedableRng64;

fn rng(seed: u64) -> SeedableRng64 {
    SeedableRng64::seed_from_u64(seed)
}

#[test]
fn classification_beats_chance_with_group_attention() {
    let mut r = rng(0);
    // Dataset/epoch sizes were enlarged (60->120 train samples, 4->6 epochs) when the
    // offline RNG stand-ins replaced upstream rand: the seeded stream changed, and the
    // original tiny setup's accuracy straddled the 0.3 threshold under the new stream.
    // The assertion itself is unchanged.
    let data = TimeseriesDataset::generate_reduced(DatasetKind::Hhar, 120, 40, 80, &mut r);
    let split = data.split_at(120);
    let config = RitaConfig {
        channels: 3,
        max_len: 80,
        d_model: 16,
        n_layers: 2,
        ff_hidden: 32,
        dropout: 0.0,
        attention: AttentionKind::Group { epsilon: 2.0, initial_groups: 8, adaptive: true },
        ..Default::default()
    };
    let mut clf = Classifier::new(config, 5, &mut r);
    let cfg = TrainConfig { epochs: 6, batch_size: 12, lr: 2e-3, ..Default::default() };
    let report = clf.train(&split.train, &cfg, &mut r);
    assert!(report.final_loss() < report.epochs[0].loss);
    let acc = clf.evaluate(&split.valid, 12, &mut r);
    assert!(acc > 0.3, "accuracy {acc} should beat 5-class chance (0.2)");
}

#[test]
fn imputation_beats_predicting_the_mean() {
    let mut r = rng(1);
    let data = TimeseriesDataset::generate_reduced(DatasetKind::Wisdm, 30, 10, 80, &mut r);
    let split = data.split_at(30);
    let config = RitaConfig {
        channels: 3,
        max_len: 80,
        d_model: 16,
        n_layers: 2,
        ff_hidden: 32,
        dropout: 0.0,
        attention: AttentionKind::Group { epsilon: 2.0, initial_groups: 8, adaptive: true },
        ..Default::default()
    };
    let mut imp = Imputer::new(config, &mut r);
    let cfg = TrainConfig { epochs: 30, batch_size: 10, lr: 3e-3, ..Default::default() };
    let _ = imp.train(&split.train, &cfg, &mut r);
    let mse = imp.evaluate(&split.valid, 10, 0.2, &mut r);

    // Trivial baseline: always predict the per-sample mean of the scaled signal. Its MSE
    // at masked positions equals the signal variance; a trained model must beat it.
    let mut baseline_num = 0.0f32;
    let mut baseline_den = 0.0f32;
    for sample in &split.valid.samples {
        let masked = rita::data::masking::mask_sample(sample, 0.2, &mut r);
        let mean = masked.target.mean_all();
        let diff = masked.target.add_scalar(-mean);
        baseline_num += diff.mul(&diff).unwrap().mul(&masked.mask).unwrap().sum_all();
        baseline_den += masked.mask.sum_all();
    }
    let baseline = baseline_num / baseline_den.max(1.0);
    assert!(
        mse < baseline,
        "imputation MSE {mse} should beat the predict-the-mean baseline {baseline}"
    );
}

#[test]
fn pretraining_pipeline_produces_a_usable_classifier() {
    let mut r = rng(2);
    let data = TimeseriesDataset::generate_reduced(DatasetKind::Rwhar, 50, 16, 60, &mut r);
    let split = data.split_at(50);
    let few = split.train.few_labels_per_class(3);
    let config = RitaConfig {
        channels: 3,
        max_len: 60,
        d_model: 16,
        n_layers: 2,
        ff_hidden: 32,
        dropout: 0.0,
        attention: AttentionKind::Group { epsilon: 2.0, initial_groups: 6, adaptive: true },
        ..Default::default()
    };
    let cfg = TrainConfig { epochs: 2, batch_size: 10, lr: 2e-3, ..Default::default() };
    let outcome = pretrain(config, &split.train, &cfg, &mut r);
    assert!(outcome.report.final_loss().is_finite());
    let (mut clf, _) = finetune_classifier(outcome.model, 8, &few, &cfg, &mut r);
    let acc = clf.evaluate(&split.valid, 8, &mut r);
    assert!((0.0..=1.0).contains(&acc));
}

#[test]
fn forecasting_runs_through_the_public_api() {
    let mut r = rng(3);
    let data = TimeseriesDataset::generate_reduced(DatasetKind::Wisdm, 20, 8, 60, &mut r);
    let split = data.split_at(20);
    let config = RitaConfig {
        channels: 3,
        max_len: 60,
        d_model: 16,
        n_layers: 1,
        ff_hidden: 32,
        dropout: 0.0,
        attention: AttentionKind::Vanilla,
        ..Default::default()
    };
    let mut imp = Imputer::new(config, &mut r);
    let cfg =
        TrainConfig { epochs: 2, batch_size: 10, lr: 2e-3, mask_rate: 0.3, ..Default::default() };
    let _ = imp.train(&split.train, &cfg, &mut r);
    let metrics = evaluate_forecast(&mut imp, &split.valid, 15, 8, &mut r);
    assert!(metrics.mse.is_finite() && metrics.mse >= 0.0);
    assert_eq!(metrics.horizon, 15);
}

#[test]
fn all_attention_variants_train_on_the_same_data() {
    let mut r = rng(4);
    let data = TimeseriesDataset::generate_reduced(DatasetKind::Hhar, 20, 6, 60, &mut r);
    let split = data.split_at(20);
    for attention in [
        AttentionKind::Vanilla,
        AttentionKind::Group { epsilon: 2.0, initial_groups: 6, adaptive: true },
    ] {
        let config = RitaConfig {
            channels: 3,
            max_len: 60,
            d_model: 16,
            n_layers: 1,
            ff_hidden: 32,
            dropout: 0.0,
            attention,
            ..Default::default()
        };
        let mut clf = Classifier::new(config, 5, &mut r);
        let cfg = TrainConfig { epochs: 1, batch_size: 10, lr: 1e-3, ..Default::default() };
        let report = clf.train(&split.train, &cfg, &mut r);
        assert!(report.final_loss().is_finite(), "{}", attention.name());
        let acc = clf.evaluate(&split.valid, 6, &mut r);
        assert!((0.0..=1.0).contains(&acc), "{}", attention.name());
    }
}

#[test]
fn batch_size_predictor_integrates_with_model_configs() {
    let memory = MemoryModel {
        d_model: 64,
        layers: 8,
        heads: 2,
        ff_hidden: 256,
        channels: 21,
        window: 5,
        stride: 5,
        bytes_per_element: 4,
    };
    let predictor = BatchSizePredictor::train(&memory, 10_000, 16 * 1024 * 1024 * 1024, 5, 3);
    let short = predictor.predict(200, 16);
    let long = predictor.predict(10_000, 512);
    assert!(
        short >= long,
        "longer series with more groups must not admit larger batches ({short} vs {long})"
    );
    assert!(long >= 1);
}
