//! The quantized-accuracy gate: int8 inference must be *accurate*, not just fast.
//!
//! The int8 path trades exactness for throughput (per-channel weight scales, per-row
//! dynamic activation quantization, i32 accumulation with fused f32 dequant), so unlike
//! every other serving-path test in this repo it cannot assert bit-parity. Instead it
//! pins the contract the rollout machinery relies on, per ISSUE 10's acceptance
//! criteria, on all three task heads:
//!
//! - classification: no argmax flip on a sample the f32 model holds by a clear
//!   margin (its top-2 logit gap above `CONFIDENT_MARGIN` of its logit range);
//! - imputation: quantized masked-reconstruction MSE within 2% of f32;
//! - forecasting: quantized horizon MSE within 2% of f32;
//!
//! plus the serving smoke: a batch served under `Precision::Int8` answers with finite
//! logits and reports its precision in the metrics.
//!
//! Every model is trained tiny-but-really (same shapes as `tests/end_to_end.rs`), then
//! quantized offline via `Checkpoint::quantize` — the exact pipeline a deployment runs.

use std::sync::Arc;
use std::time::Duration;

use rand::SeedableRng;
use rita::core::attention::AttentionKind;
use rita::core::checkpoint::Checkpoint;
use rita::core::model::RitaConfig;
use rita::core::tasks::{Classifier, Imputer, TrainConfig};
use rita::data::masking::{mask_sample, mask_suffix, MaskedSample};
use rita::data::{DatasetKind, TimeseriesDataset};
use rita::infer::{InferSession, ModelRegistry, Precision, Server, ServerConfig};
use rita::tensor::{NdArray, SeedableRng64};

fn rng(seed: u64) -> SeedableRng64 {
    SeedableRng64::seed_from_u64(seed)
}

fn config() -> RitaConfig {
    RitaConfig {
        channels: 3,
        max_len: 80,
        d_model: 16,
        n_layers: 2,
        ff_hidden: 32,
        dropout: 0.0,
        attention: AttentionKind::Group { epsilon: 2.0, initial_groups: 8, adaptive: false },
        ..Default::default()
    }
}

/// Accuracy of a served session over a labelled dataset (single batched call).
fn session_accuracy(session: &InferSession, data: &TimeseriesDataset) -> f32 {
    let labels = data.labels.as_ref().expect("labelled dataset");
    let predictions = session.classify(&data.samples).expect("classify");
    let correct = predictions.iter().zip(labels).filter(|(p, &want)| p.class == want).count();
    correct as f32 / labels.len() as f32
}

/// Masked-position MSE of a session's reconstructions over pre-masked samples (the
/// same masks for every precision, so the comparison isolates the kernels).
fn session_masked_mse(session: &InferSession, masked: &[MaskedSample]) -> f32 {
    let requests: Vec<NdArray> = masked.iter().map(|m| m.observed.clone()).collect();
    let recons = session.reconstruct(&requests).expect("reconstruct");
    let mut num = 0.0f32;
    let mut den = 0.0f32;
    for (recon, m) in recons.iter().zip(masked) {
        let diff = recon.sub(&m.target).expect("shape");
        num += diff.mul(&diff).expect("square").mul(&m.mask).expect("mask").sum_all();
        den += m.mask.sum_all();
    }
    num / den.max(1.0)
}

/// A flipped argmax counts against the gate only when the f32 model was confident in
/// it: its top-2 logit margin exceeds this share of the logit range (largest minus
/// smallest f32 logit over all fit samples). Below it the sample sits close enough to a
/// decision boundary that the int8 path's logit error can decide the argmax, and a flip
/// measures where the data put that sample, not the kernels.
const CONFIDENT_MARGIN: f32 = 0.125;

/// How the int8 twin of one trained classifier answers its fit samples.
#[derive(Debug)]
struct Drift {
    /// f32 and int8 accuracy on the fit samples.
    acc: (f32, f32),
    /// The f32 top-2 margin of each sample whose argmax differs between the precisions,
    /// as a share of the logit range.
    flip_margins: Vec<f32>,
    /// int8 accuracy on the hold-out.
    holdout_int8: f32,
}

impl Drift {
    fn confident_flips(&self) -> usize {
        self.flip_margins.iter().filter(|&&m| m > CONFIDENT_MARGIN).count()
    }
}

fn argmax(row: &[f32]) -> usize {
    (0..row.len()).fold(0, |best, i| if row[i] > row[best] { i } else { best })
}

/// Gap between a logit row's largest and second-largest entries.
fn top2_margin(row: &[f32]) -> f32 {
    let mut sorted = row.to_vec();
    sorted.sort_by(|a, b| b.total_cmp(a));
    sorted[0] - sorted[1]
}

/// Trains the gate's classifier on data seed `seed`, quantizes it offline and compares
/// the two sessions on the fit samples.
fn classification_drift(seed: u64) -> Drift {
    let mut r = rng(seed);
    let data = TimeseriesDataset::generate_reduced(DatasetKind::Hhar, 160, 80, 80, &mut r);
    let split = data.split_at(160);
    // Wider than the shared tiny config: the gate needs a *confident* classifier —
    // an under-trained model parks samples on decision boundaries.
    let clf_config = RitaConfig { d_model: 32, ff_hidden: 64, ..config() };
    let mut clf = Classifier::new(clf_config, 5, &mut r);
    let cfg = TrainConfig { epochs: 24, batch_size: 12, lr: 2e-3, ..Default::default() };
    clf.train(&split.train, &cfg, &mut r);

    let ckpt = Checkpoint::of_classifier(&clf, None);
    let f32_session = InferSession::from_checkpoint(&ckpt).unwrap();
    let int8_session = InferSession::from_checkpoint(&ckpt.quantize()).unwrap();
    assert_eq!(int8_session.model().precision(), Precision::Int8);
    assert!(int8_session.model().quantized_params() > 0);

    // Drift is measured on the fit samples, where the model's margins reflect what it
    // learned: quantization noise is the only thing separating the two sessions.
    // Generalization itself is end_to_end.rs's business, not this gate's.
    let labels = split.train.labels.as_ref().expect("labelled dataset");
    let f32_logits = f32_session.classify_logits(&split.train.samples).expect("classify");
    let int8_logits = int8_session.classify_logits(&split.train.samples).expect("classify");
    let all = f32_logits.iter().flat_map(|row| row.as_slice());
    let range = all.clone().fold(f32::MIN, |m, &v| m.max(v)) - all.fold(f32::MAX, |m, &v| m.min(v));
    let (mut correct, mut flip_margins) = ((0usize, 0usize), Vec::new());
    for ((a, b), &want) in f32_logits.iter().zip(&int8_logits).zip(labels) {
        let (a, b) = (a.as_slice(), b.as_slice());
        correct.0 += usize::from(argmax(a) == want);
        correct.1 += usize::from(argmax(b) == want);
        if argmax(a) != argmax(b) {
            flip_margins.push(top2_margin(a) / range);
        }
    }
    let n = labels.len() as f32;
    Drift {
        acc: (correct.0 as f32 / n, correct.1 as f32 / n),
        flip_margins,
        holdout_int8: session_accuracy(&int8_session, &split.valid),
    }
}

#[test]
fn quantized_classification_flips_only_boundary_samples() {
    let drift = classification_drift(40);
    assert!(drift.acc.0 > 0.5, "f32 model must fit its own training set, got {drift:?}");
    assert_eq!(
        drift.confident_flips(),
        0,
        "int8 flipped a sample the f32 model held by more than {CONFIDENT_MARGIN} of its \
         logit range: {drift:?}"
    );
    // And on the hold-out, int8 must still beat 5-class chance like f32 does.
    assert!(drift.holdout_int8 > 0.3, "quantized hold-out accuracy fell to chance: {drift:?}");
}

/// The gate's seed spread: `cargo test --release --test quantized_accuracy --
/// --ignored --nocapture` prints one line per data seed 40–45.
#[test]
#[ignore = "measurement: six trainings, run on demand in release"]
fn quantized_classification_drift_per_seed() {
    for seed in 40..=45 {
        let d = classification_drift(seed);
        println!(
            "seed {seed}: f32 {:.5} int8 {:.5} flips {} (confident {}) margins {:?}",
            d.acc.0,
            d.acc.1,
            d.flip_margins.len(),
            d.confident_flips(),
            d.flip_margins
        );
    }
}

#[test]
fn quantized_imputation_and_forecast_mse_within_two_percent() {
    let mut r = rng(41);
    let data = TimeseriesDataset::generate_reduced(DatasetKind::Wisdm, 30, 12, 80, &mut r);
    let split = data.split_at(30);
    let mut imp = Imputer::new(config(), &mut r);
    let cfg = TrainConfig { epochs: 20, batch_size: 10, lr: 3e-3, ..Default::default() };
    imp.train(&split.train, &cfg, &mut r);

    let ckpt = Checkpoint::of_imputer(&imp, None);
    let f32_session = InferSession::from_checkpoint(&ckpt).unwrap();
    let int8_session = InferSession::from_checkpoint(&ckpt.quantize()).unwrap();
    assert_eq!(int8_session.model().precision(), Precision::Int8);

    // Imputation: random 20% masks, identical for both precisions.
    let imputation: Vec<MaskedSample> =
        split.valid.samples.iter().map(|s| mask_sample(s, 0.2, &mut r)).collect();
    let mse_f32 = session_masked_mse(&f32_session, &imputation);
    let mse_int8 = session_masked_mse(&int8_session, &imputation);
    assert!(mse_f32.is_finite() && mse_f32 > 0.0);
    assert!(
        (mse_int8 - mse_f32).abs() <= 0.02 * mse_f32,
        "quantized imputation MSE {mse_int8} drifted more than 2% from f32 {mse_f32}"
    );

    // Forecasting: the same head with suffix masks (horizon = final 20 steps).
    let forecast: Vec<MaskedSample> =
        split.valid.samples.iter().map(|s| mask_suffix(s, 60)).collect();
    let fmse_f32 = session_masked_mse(&f32_session, &forecast);
    let fmse_int8 = session_masked_mse(&int8_session, &forecast);
    assert!(fmse_f32.is_finite() && fmse_f32 > 0.0);
    assert!(
        (fmse_int8 - fmse_f32).abs() <= 0.02 * fmse_f32,
        "quantized forecast MSE {fmse_int8} drifted more than 2% from f32 {fmse_f32}"
    );
}

/// The serving half of the gate: a batch served under `Precision::Int8` (forced at
/// publish over an f32 checkpoint) comes back with finite logits, and the metrics
/// name the version's precision.
#[test]
fn one_batch_serves_under_int8_precision() {
    let mut r = rng(42);
    let clf = Classifier::new(config(), 5, &mut r);
    let ckpt = Checkpoint::of_classifier(&clf, None);
    let registry = Arc::new(ModelRegistry::new());
    registry.publish_with(&ckpt, Precision::Int8).unwrap();
    assert_eq!(registry.current().unwrap().model.precision(), Precision::Int8);

    let server = Server::start(
        Arc::clone(&registry),
        ServerConfig {
            workers: 1,
            linger: Duration::from_millis(1),
            bytes_per_sec: Some(1e12),
            ..Default::default()
        },
    );
    let request = NdArray::randn(&[3, 64], 1.0, &mut r);
    let response = server.classify("gate", request).unwrap();
    assert_eq!(response.model_version, 1);
    assert!(response.logits.as_slice().iter().all(|v| v.is_finite()));
    let snap = server.metrics().snapshot();
    assert!(snap.versions.contains(&(1, "int8")), "got {:?}", snap.versions);
    server.shutdown();
}
