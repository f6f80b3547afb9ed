//! Integration tests for the baselines: TST, GRAIL and the Performer and Linformer
//! attention variants run end-to-end on the same synthetic datasets RITA uses, through
//! the public umbrella API.

use rand::SeedableRng;
use rita::baselines::{AttentionVariant, Grail, GrailConfig, TstClassifier, TstConfig, TstImputer};
use rita::core::attention::AttentionKind;
use rita::core::model::RitaConfig;
use rita::core::tasks::{Classifier, TrainConfig};
use rita::data::{DatasetKind, TimeseriesDataset};
use rita::nn::{optim::AdamW, Module};
use rita::tensor::SeedableRng64;

fn rng(seed: u64) -> SeedableRng64 {
    SeedableRng64::seed_from_u64(seed)
}

#[test]
fn tst_classifier_end_to_end() {
    let mut r = rng(0);
    let data = TimeseriesDataset::generate_reduced(DatasetKind::Hhar, 30, 10, 50, &mut r);
    let split = data.split_at(30);
    let mut clf = TstClassifier::new(TstConfig::tiny(3, 50), 50, 5, &mut r);
    let cfg = TrainConfig { epochs: 2, batch_size: 10, lr: 2e-3, ..Default::default() };
    let mut opt = AdamW::new(clf.parameters(), cfg.lr, cfg.weight_decay);
    let mut first_loss = None;
    let mut last_loss = 0.0;
    for _ in 0..cfg.epochs {
        let m = clf.train_epoch(&split.train, &mut opt, &cfg, &mut r);
        first_loss.get_or_insert(m.loss);
        last_loss = m.loss;
    }
    assert!(last_loss.is_finite() && last_loss <= first_loss.unwrap() * 1.2);
    let acc = clf.evaluate(&split.valid, 10, &mut r);
    assert!((0.0..=1.0).contains(&acc));
}

#[test]
fn tst_imputer_end_to_end() {
    let mut r = rng(1);
    let data = TimeseriesDataset::generate_reduced(DatasetKind::Wisdm, 16, 6, 50, &mut r);
    let split = data.split_at(16);
    let mut imp = TstImputer::new(TstConfig::tiny(3, 50), &mut r);
    let cfg = TrainConfig { epochs: 2, batch_size: 8, lr: 2e-3, ..Default::default() };
    let report = imp.train(&split.train, &cfg, &mut r);
    assert!(report.final_loss().is_finite());
    let mse = imp.evaluate(&split.valid, 8, 0.2, &mut r);
    assert!(mse.is_finite() && mse >= 0.0);
}

#[test]
fn grail_univariate_classification() {
    let mut r = rng(2);
    let data = TimeseriesDataset::generate_reduced(DatasetKind::Rwhar, 60, 20, 80, &mut r)
        .to_univariate(0);
    let split = data.split_at(60);
    let grail =
        Grail::fit(GrailConfig { landmarks: 12, ..Default::default() }, &split.train, &mut r);
    let acc = grail.evaluate(&split.valid);
    // 8 classes → chance 0.125; landmark 1-NN should do clearly better on this easy data.
    assert!(acc > 0.2, "GRAIL accuracy {acc}");
    assert!(grail.fit_seconds > 0.0);
}

/// The attention baselines train inside the RITA architecture, built through the
/// variant's factory with the head attached by `Classifier::from_model`.
#[test]
fn attention_baselines_train_on_the_same_data() {
    let mut r = rng(4);
    let data = TimeseriesDataset::generate_reduced(DatasetKind::Hhar, 20, 6, 60, &mut r);
    let split = data.split_at(20);
    for (name, variant) in [
        ("Performer", AttentionVariant::Performer { features: 16 }),
        ("Linformer", AttentionVariant::Linformer { proj_dim: 6 }),
    ] {
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
        let mut clf = Classifier::from_model(variant.model(config, &mut r), 5, &mut r);
        assert_eq!(clf.model.encoder.layers[0].attention.name(), name);
        let cfg = TrainConfig { epochs: 1, batch_size: 10, lr: 1e-3, ..Default::default() };
        let report = clf.train(&split.train, &cfg, &mut r);
        assert!(report.final_loss().is_finite(), "{name}");
        let acc = clf.evaluate(&split.valid, 6, &mut r);
        assert!((0.0..=1.0).contains(&acc), "{name}");
    }
}
