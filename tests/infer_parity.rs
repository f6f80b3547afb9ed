//! Parity of the tape-free inference engine with the autograd forward.
//!
//! `rita-infer` executes the model on `NdArray` directly, with no `Var` allocation per
//! op and arena-recycled activation buffers. Because it calls the same tensor kernels
//! in the same order, its outputs must be **bit-identical** (0 ulp) to a `no_grad`
//! `Var` forward of the same checkpoint — across both attention kinds (vanilla and
//! group), both task heads, and the strided split-head shapes the encoder produces
//! internally.

use rand::SeedableRng;
use rita::core::attention::AttentionKind;
use rita::core::checkpoint::Checkpoint;
use rita::core::model::RitaConfig;
use rita::core::tasks::{Classifier, Imputer};
use rita::data::{DatasetKind, TimeseriesDataset};
use rita::infer::{pool_reset, pool_stats, InferModel, InferSession};
use rita::nn::no_grad;
use rita::tensor::{NdArray, SeedableRng64};

fn rng(seed: u64) -> SeedableRng64 {
    SeedableRng64::seed_from_u64(seed)
}

fn attention_kinds() -> Vec<(&'static str, AttentionKind)> {
    vec![
        ("vanilla", AttentionKind::Vanilla),
        // Fixed scheduler so repeated forwards stay comparable.
        ("group", AttentionKind::Group { epsilon: 2.0, initial_groups: 4, adaptive: false }),
        (
            "group_adaptive",
            AttentionKind::Group { epsilon: 2.0, initial_groups: 6, adaptive: true },
        ),
    ]
}

/// Tape-free classifier logits == `no_grad` Var logits, bit-for-bit, for both served
/// attention mechanisms (vanilla / group, fixed and adaptive).
#[test]
fn classifier_logits_match_var_forward_exactly() {
    for (name, kind) in attention_kinds() {
        let mut r = rng(11);
        let mut clf = Classifier::new(RitaConfig::tiny(3, 60, kind), 4, &mut r);
        let ckpt = Checkpoint::of_classifier(&clf, None);
        // Round-trip through the byte format so the comparison covers serialization.
        let model = InferModel::from_checkpoint(&Checkpoint::from_bytes(&ckpt.to_bytes()).unwrap())
            .unwrap();

        let x = NdArray::randn(&[3, 3, 60], 1.0, &mut r);
        let reference = no_grad(|| clf.logits(&x, false, &mut r).to_array());
        let tape_free = model.logits(&x);
        assert_eq!(
            reference.as_slice(),
            tape_free.as_slice(),
            "{name}: tape-free logits diverged from the Var forward"
        );
    }
}

/// Same parity for the reconstruction head (imputation / forecasting path).
#[test]
fn imputer_reconstruction_matches_var_forward_exactly() {
    for (name, kind) in attention_kinds() {
        let mut r = rng(23);
        let mut imp = Imputer::new(RitaConfig::tiny(2, 45, kind), &mut r);
        let ckpt = Checkpoint::of_imputer(&imp, None);
        let model = InferModel::from_checkpoint(&ckpt).unwrap();

        let x = NdArray::randn(&[2, 2, 45], 1.0, &mut r);
        let reference = no_grad(|| imp.reconstruct(&x, false, &mut r).to_array());
        let tape_free = model.reconstruct(&x);
        assert_eq!(reference.shape(), tape_free.shape(), "{name}");
        assert_eq!(
            reference.as_slice(),
            tape_free.as_slice(),
            "{name}: tape-free reconstruction diverged from the Var forward"
        );
    }
}

/// The parity holds for repeated forwards too: arena buffers recycled between calls
/// must never change results.
#[test]
fn repeated_forwards_stay_bit_identical() {
    let mut r = rng(37);
    let kind = AttentionKind::Group { epsilon: 2.0, initial_groups: 4, adaptive: false };
    let mut clf = Classifier::new(RitaConfig::tiny(3, 40, kind), 4, &mut r);
    let infer = InferModel::from_checkpoint(&Checkpoint::of_classifier(&clf, None)).unwrap();
    for trial in 0..3 {
        let x = NdArray::randn(&[2, 3, 40], 1.0, &mut r);
        let reference = no_grad(|| clf.logits(&x, false, &mut r).to_array());
        let tape_free = infer.logits(&x);
        assert_eq!(reference.as_slice(), tape_free.as_slice(), "trial {trial}: logits diverged");
    }
}

/// A trained model saved, loaded in a "fresh process" (a new `InferSession` from the
/// serialized bytes), and evaluated through `rita-infer` reproduces the in-process
/// evaluation metric bit-identically — the acceptance criterion of the serving layer.
#[test]
fn session_accuracy_reproduces_in_process_evaluation() {
    let mut r = rng(41);
    let data = TimeseriesDataset::generate_reduced(DatasetKind::Hhar, 16, 8, 40, &mut r);
    let split = data.split_at(16);
    let kind = AttentionKind::Group { epsilon: 2.0, initial_groups: 4, adaptive: true };
    let mut clf = Classifier::new(RitaConfig::tiny(3, 40, kind), 5, &mut r);
    let train_cfg =
        rita::core::TrainConfig { epochs: 1, batch_size: 8, lr: 1e-3, ..Default::default() };
    let _ = clf.train(&split.train, &train_cfg, &mut r);

    // In-process evaluation through the autograd path.
    let in_process = clf.evaluate(&split.valid, 8, &mut rng(5));

    // "Fresh process": serialize, reparse, serve through the tape-free session.
    let bytes = Checkpoint::of_classifier(&clf, None).to_bytes();
    let session = InferSession::from_checkpoint(&Checkpoint::from_bytes(&bytes).unwrap()).unwrap();
    let predictions = session.classify(&split.valid.samples).unwrap();
    let labels = split.valid.labels.as_ref().unwrap();
    let correct = predictions.iter().zip(labels).filter(|(p, &l)| p.class == l).count();
    let served = correct as f32 / labels.len() as f32;
    assert_eq!(in_process.to_bits(), served.to_bits(), "served accuracy must be bit-identical");
}

/// Malformed requests are rejected up front with a descriptive error — never a panic,
/// and never after part of the batch has been served.
#[test]
fn session_rejects_malformed_requests_without_computing() {
    use rita::infer::RequestError;
    let mut r = rng(61);
    let clf = Classifier::new(RitaConfig::tiny(3, 40, AttentionKind::Vanilla), 4, &mut r);
    let ckpt = Checkpoint::of_classifier(&clf, None);
    let session = InferSession::from_checkpoint(&ckpt).unwrap();

    let ok = NdArray::randn(&[3, 40], 1.0, &mut r);
    // Wrong rank.
    let err = session.classify(&[ok.clone(), NdArray::zeros(&[40])]).unwrap_err();
    assert!(matches!(err, RequestError::BadRank { index: 1, .. }), "{err}");
    // Wrong channel count.
    let err = session.classify(&[NdArray::zeros(&[5, 40])]).unwrap_err();
    assert!(matches!(err, RequestError::WrongChannels { expected: 3, .. }), "{err}");
    // Too short (below one window) and too long (beyond the positional table).
    for bad_len in [2usize, 500] {
        let err = session.classify(&[NdArray::zeros(&[3, bad_len])]).unwrap_err();
        assert!(matches!(err, RequestError::BadLength { .. }), "{err}");
    }
    // A classifier checkpoint cannot serve reconstruction.
    let err = session.reconstruct(std::slice::from_ref(&ok)).unwrap_err();
    assert!(matches!(err, RequestError::WrongHead { requested: "reconstruct" }), "{err}");
    // And the session still serves valid requests afterwards.
    assert_eq!(session.classify(&[ok]).unwrap().len(), 1);
}

/// The session arena reuses buffers across differently-shaped batches: after the first
/// batch populates the pool, later batches (of different lengths and batch sizes) are
/// served from recycled storage.
#[test]
fn arena_reuses_buffers_across_differently_shaped_batches() {
    let mut r = rng(53);
    let clf = Classifier::new(RitaConfig::tiny(3, 80, AttentionKind::Vanilla), 4, &mut r);
    let session = InferSession::from_checkpoint(&Checkpoint::of_classifier(&clf, None)).unwrap();

    pool_reset();
    // First batch: cold pool, every buffer fresh.
    let long: Vec<NdArray> = (0..4).map(|_| NdArray::randn(&[3, 80], 1.0, &mut r)).collect();
    let _ = session.classify(&long).unwrap();
    let after_first = pool_stats();
    assert!(after_first.recycled > 0, "forward must return buffers to the arena");

    // Different shape (shorter series, different batch size): buffers are reused by
    // capacity, not by shape.
    let short: Vec<NdArray> = (0..2).map(|_| NdArray::randn(&[3, 40], 1.0, &mut r)).collect();
    let _ = session.classify(&short).unwrap();
    let after_second = pool_stats();
    assert!(
        after_second.reused > after_first.reused,
        "differently-shaped batch must reuse arena buffers: {after_second:?}"
    );

    // Mixed-length request sets are bucketed and still answered in request order.
    let mixed: Vec<NdArray> = vec![
        NdArray::randn(&[3, 40], 1.0, &mut r),
        NdArray::randn(&[3, 80], 1.0, &mut r),
        NdArray::randn(&[3, 40], 1.0, &mut r),
    ];
    let singles: Vec<_> =
        mixed.iter().map(|m| session.classify(std::slice::from_ref(m)).unwrap()).collect();
    let batched = session.classify(&mixed).unwrap();
    for (i, (one, many)) in singles.iter().zip(&batched).enumerate() {
        assert_eq!(one[0].class, many.class, "request {i} answered out of order");
    }
    pool_reset();
}
