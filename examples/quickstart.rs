//! Quickstart: train a RITA classifier with group attention on a small synthetic
//! activity-recognition dataset, report validation accuracy, then save the model to a
//! versioned checkpoint and reload it in a fresh classifier to show the persisted model
//! reproduces the evaluation exactly.
//!
//! Run with: `cargo run --release --example quickstart`
//! (set `RITA_QUICK=1` for a seconds-scale smoke run, as CI does)

use rand::SeedableRng;
use rita::core::attention::AttentionKind;
use rita::core::checkpoint::Checkpoint;
use rita::core::model::RitaConfig;
use rita::core::tasks::{Classifier, TrainConfig};
use rita::data::{DatasetKind, TimeseriesDataset};
use rita::tensor::SeedableRng64;

fn main() {
    // Quick mode (RITA_QUICK set): tiny sizes so CI can smoke-run the example.
    let quick = std::env::var_os("RITA_QUICK").is_some();
    let (n_train, n_valid, epochs) = if quick { (16, 8, 1) } else { (120, 30, 3) };
    let mut rng = SeedableRng64::seed_from_u64(0);
    // 1. Generate an HHAR-like dataset (3-channel accelerometer, 5 activities).
    let data =
        TimeseriesDataset::generate_reduced(DatasetKind::Hhar, n_train, n_valid, 200, &mut rng);
    let split = data.split_at(n_train);
    println!(
        "train: {} samples, valid: {} samples, length {}",
        split.train.len(),
        split.valid.len(),
        data.length()
    );

    // 2. Configure RITA with group attention (error bound ε = 2, adaptive scheduler on).
    let config = RitaConfig {
        channels: 3,
        max_len: 200,
        d_model: 32,
        n_layers: 2,
        ff_hidden: 64,
        attention: AttentionKind::Group { epsilon: 2.0, initial_groups: 16, adaptive: true },
        ..Default::default()
    };
    let mut classifier = Classifier::new(config, 5, &mut rng);

    // 3. Train and evaluate.
    let train_cfg = TrainConfig { epochs, batch_size: 16, lr: 1e-3, ..Default::default() };
    let report = classifier.train(&split.train, &train_cfg, &mut rng);
    for (i, e) in report.epochs.iter().enumerate() {
        println!("epoch {i}: loss {:.4}  ({:.2}s)", e.loss, e.seconds);
    }
    let accuracy = classifier.evaluate(&split.valid, 16, &mut rng);
    println!("validation accuracy: {:.2}%", accuracy * 100.0);
    if let Some(groups) = classifier.model.mean_group_count() {
        println!("mean group count chosen by the adaptive scheduler: {groups:.1}");
    }

    // 4. Persist the trained model and reload it in a fresh classifier: the checkpoint
    //    carries every parameter bit-exactly plus the scheduler's persistent group
    //    counts, so the reloaded model reproduces the evaluation metric exactly.
    let ckpt_path = std::env::temp_dir().join("rita-quickstart.ckpt");
    Checkpoint::of_classifier(&classifier, None).save(&ckpt_path).expect("save checkpoint");
    let mut reloaded = Checkpoint::load(&ckpt_path)
        .expect("load checkpoint")
        .restore_classifier()
        .expect("restore classifier");
    let mut eval_rng = SeedableRng64::seed_from_u64(1);
    let original = classifier.evaluate(&split.valid, 16, &mut eval_rng);
    let mut eval_rng = SeedableRng64::seed_from_u64(1);
    let restored = reloaded.evaluate(&split.valid, 16, &mut eval_rng);
    println!(
        "checkpoint round-trip: accuracy {:.2}% -> {:.2}% ({})",
        original * 100.0,
        restored * 100.0,
        if original.to_bits() == restored.to_bits() { "bit-identical" } else { "MISMATCH" }
    );
    assert_eq!(original.to_bits(), restored.to_bits(), "reloaded model must match exactly");
    let _ = std::fs::remove_file(&ckpt_path);
}
