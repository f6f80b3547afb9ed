//! Checkpoint round-trips: save → load in a fresh model → bit-identical behaviour on
//! every task, resume-training equivalence, and clean failure on damaged files.

mod common;

use common::assert_same_training_state;
use rand::SeedableRng;
use rita::core::attention::AttentionKind;
use rita::core::checkpoint::{Checkpoint, CheckpointError};
use rita::core::model::RitaConfig;
use rita::core::tasks::{
    evaluate_forecast, train_task_resumable, Classifier, Imputer, TrainConfig,
};
use rita::data::{DatasetKind, TimeseriesDataset};
use rita::nn::no_grad;
use rita::nn::optim::AdamW;
use rita::tensor::{NdArray, SeedableRng64};

fn rng(seed: u64) -> SeedableRng64 {
    SeedableRng64::seed_from_u64(seed)
}

fn group_config(channels: usize, max_len: usize) -> RitaConfig {
    RitaConfig::tiny(
        channels,
        max_len,
        AttentionKind::Group { epsilon: 2.0, initial_groups: 4, adaptive: true },
    )
}

fn tmp_path(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("rita-ckpt-roundtrip");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// Classification: a trained classifier saved to disk and loaded in a fresh process
/// produces bit-identical logits and evaluation accuracy — for every attention kind.
#[test]
fn classification_roundtrip_is_bit_identical() {
    for (i, kind) in [
        AttentionKind::Group { epsilon: 2.0, initial_groups: 4, adaptive: true },
        AttentionKind::Vanilla,
    ]
    .into_iter()
    .enumerate()
    {
        let mut r = rng(0);
        let data = TimeseriesDataset::generate_reduced(DatasetKind::Hhar, 10, 5, 40, &mut r);
        let split = data.split_at(10);
        let mut clf = Classifier::new(RitaConfig::tiny(3, 40, kind), 5, &mut r);
        let cfg = TrainConfig { epochs: 1, batch_size: 5, ..Default::default() };
        let _ = clf.train(&split.train, &cfg, &mut r);

        let path = tmp_path(&format!("classifier-{i}.ckpt"));
        Checkpoint::of_classifier(&clf, None).save(&path).unwrap();
        let mut restored = Checkpoint::load(&path).unwrap().restore_classifier().unwrap();
        std::fs::remove_file(&path).unwrap();

        // Scheduler state survived (the adaptive group run moved it off the initial
        // value; the other kinds have none).
        assert_eq!(clf.model.scheduler_state(), restored.model.scheduler_state());
        let x = NdArray::randn(&[4, 3, 40], 1.0, &mut r);
        let a = no_grad(|| clf.logits(&x, false, &mut rng(1)).to_array());
        let b = no_grad(|| restored.logits(&x, false, &mut rng(2)).to_array());
        assert_eq!(a.as_slice(), b.as_slice(), "{}: restored logits differ", kind.name());

        let acc_a = clf.evaluate(&split.valid, 5, &mut rng(3));
        let acc_b = restored.evaluate(&split.valid, 5, &mut rng(3));
        assert_eq!(acc_a.to_bits(), acc_b.to_bits(), "{}", kind.name());
    }
}

/// Imputation: masked-MSE evaluation after a file round-trip is bit-identical.
#[test]
fn imputation_roundtrip_is_bit_identical() {
    let mut r = rng(10);
    let data = TimeseriesDataset::generate_reduced(DatasetKind::Hhar, 8, 0, 40, &mut r);
    let mut imp = Imputer::new(group_config(3, 40), &mut r);
    let cfg = TrainConfig { epochs: 1, batch_size: 4, ..Default::default() };
    let _ = imp.train(&data, &cfg, &mut r);

    let path = tmp_path("imputer.ckpt");
    Checkpoint::of_imputer(&imp, None).save(&path).unwrap();
    let mut restored = Checkpoint::load(&path).unwrap().restore_imputer().unwrap();
    std::fs::remove_file(&path).unwrap();

    // Identical masks (same rng seed) + identical weights ⇒ identical metric. Evaluate
    // both from the captured scheduler state.
    let mse_a = imp.evaluate(&data, 4, 0.3, &mut rng(4));
    let mse_b = restored.evaluate(&data, 4, 0.3, &mut rng(4));
    assert_eq!(mse_a.to_bits(), mse_b.to_bits());
}

/// Forecasting (the third task rides on the imputer): horizon MSE after a round-trip is
/// bit-identical.
#[test]
fn forecasting_roundtrip_is_bit_identical() {
    let mut r = rng(20);
    let data = TimeseriesDataset::generate_reduced(DatasetKind::Wisdm, 6, 0, 40, &mut r);
    let mut imp = Imputer::new(group_config(3, 40), &mut r);
    let cfg = TrainConfig { epochs: 1, batch_size: 3, ..Default::default() };
    let _ = imp.train(&data, &cfg, &mut r);

    let ckpt = Checkpoint::of_imputer(&imp, None);
    let m_a = evaluate_forecast(&mut imp, &data, 10, 3, &mut rng(5));
    let mut restored = ckpt.restore_imputer().unwrap();
    let m_b = evaluate_forecast(&mut restored, &data, 10, 3, &mut rng(6));
    assert_eq!(m_a.horizon, m_b.horizon);
    assert_eq!(m_a.mse.to_bits(), m_b.mse.to_bits());
}

/// Resume: `train(2)` → checkpoint (weights + optimizer moments + scheduler) → restore
/// in a fresh model → `train(1)` matches an uninterrupted `train(3)` step-for-step,
/// down to the last bit of every parameter and optimizer moment.
#[test]
fn resumed_training_matches_uninterrupted_run() {
    let config = group_config(3, 40);
    let data = TimeseriesDataset::generate_reduced(DatasetKind::Hhar, 12, 0, 40, &mut rng(7));
    let cfg = |epochs| TrainConfig { epochs, batch_size: 4, lr: 2e-3, ..Default::default() };

    // Uninterrupted: three epochs in one run.
    let mut full = Classifier::new(config, 5, &mut rng(8));
    let mut full_opt = AdamW::for_module(&full, 2e-3, 1e-4);
    let mut full_rng = rng(9);
    let _ = train_task_resumable(&mut full, &data, &cfg(3), &mut full_opt, &mut full_rng);

    // Interrupted: two epochs, save everything, restore into a fresh model, one more
    // epoch. The RNG stream is carried across the boundary by the caller (deliberately
    // not part of the checkpoint).
    let mut part = Classifier::new(config, 5, &mut rng(8));
    let mut part_opt = AdamW::for_module(&part, 2e-3, 1e-4);
    let mut part_rng = rng(9);
    let _ = train_task_resumable(&mut part, &data, &cfg(2), &mut part_opt, &mut part_rng);

    let bytes = Checkpoint::of_classifier(&part, Some(&part_opt)).to_bytes();
    let ckpt = Checkpoint::from_bytes(&bytes).unwrap();
    let mut resumed = ckpt.restore_classifier().unwrap();
    let mut resumed_opt = ckpt.restore_optimizer(&resumed).unwrap();
    assert_eq!(resumed_opt.steps(), part_opt.steps(), "step count must round-trip");
    let _ = train_task_resumable(&mut resumed, &data, &cfg(1), &mut resumed_opt, &mut part_rng);

    assert_same_training_state(&full, &full_opt, &resumed, &resumed_opt);
}

/// Two runs of `train(3)` from the same seeds agree to the last bit — with dropout on,
/// so the fused dropout's RNG order, the fused LayerNorm/GELU/linear backwards and the
/// single-node losses are all on the path. (The row kernels are serial and their
/// reductions have a fixed order, so nothing here may depend on thread timing.)
#[test]
fn same_seed_training_is_bit_identical_run_to_run() {
    let config = RitaConfig { dropout: 0.1, ..group_config(3, 40) };
    let data = TimeseriesDataset::generate_reduced(DatasetKind::Hhar, 12, 0, 40, &mut rng(7));
    let cfg = TrainConfig { epochs: 3, batch_size: 4, lr: 2e-3, ..Default::default() };
    let run = || {
        let mut clf = Classifier::new(config, 5, &mut rng(8));
        let mut opt = AdamW::for_module(&clf, 2e-3, 1e-4);
        let report = train_task_resumable(&mut clf, &data, &cfg, &mut opt, &mut rng(9));
        assert!(report.final_loss().is_finite());
        (clf, opt)
    };
    let ((a, a_opt), (b, b_opt)) = (run(), run());
    assert_same_training_state(&a, &a_opt, &b, &b_opt);
}

/// Damaged files fail with descriptive errors, never panics.
#[test]
fn damaged_files_fail_cleanly() {
    // Not a checkpoint at all.
    let garbage = tmp_path("garbage.ckpt");
    std::fs::write(&garbage, b"definitely not a checkpoint").unwrap();
    assert!(matches!(Checkpoint::load(&garbage), Err(CheckpointError::BadMagic)));
    std::fs::remove_file(&garbage).unwrap();

    // A real checkpoint, truncated at several byte offsets. A truncated tail usually
    // trips the whole-file checksum before the structural parser even runs; either
    // way the error must name the damage.
    let mut r = rng(30);
    let clf = Classifier::new(group_config(3, 40), 4, &mut r);
    let bytes = Checkpoint::of_classifier(&clf, None).to_bytes();
    let truncated = tmp_path("truncated.ckpt");
    for frac in [3usize, 5, 2] {
        std::fs::write(&truncated, &bytes[..bytes.len() / frac]).unwrap();
        let err = Checkpoint::load(&truncated).expect_err("truncated file must not parse");
        let msg = err.to_string();
        assert!(
            msg.contains("truncated") || msg.contains("corrupted") || msg.contains("checksum"),
            "unhelpful error: {msg}"
        );
    }
    std::fs::remove_file(&truncated).unwrap();

    // A version this reader does not understand.
    let mut future = bytes.clone();
    future[8..12].copy_from_slice(&7u32.to_le_bytes());
    assert!(matches!(Checkpoint::from_bytes(&future), Err(CheckpointError::UnsupportedVersion(7))));

    // Missing file surfaces the io error.
    assert!(matches!(
        Checkpoint::load(tmp_path("does-not-exist.ckpt")),
        Err(CheckpointError::Io(_))
    ));
}
