//! Results do not depend on how many kernel threads computed them: a training run and a
//! served batch of each precision agree to the last bit at one worker thread and at the
//! machine's worker budget.
//!
//! The shapes are chosen so that the fan-outs of a training step and of a served batch
//! take their threaded paths at a budget of 2: the batched matmul's batch split, the
//! fused attention's per-matrix split (forward and backward), the k-means block fan-out
//! and the int8 GEMM's row split. (The f32 matmul's row split, taken for a single
//! product, and the fused forward's query-block split, taken when batch × heads is
//! below the budget, are pinned by `rita-tensor`'s `capped_matmul_matches_uncapped`
//! and `threaded_paths_match_serial`.) Every
//! fan-out keeps a chunk's arithmetic, and its reduction order, independent of which
//! thread runs it and of how many chunks there are, so the agreement is by
//! construction; this suite pins it.
//!
//! What a two-CPU box cannot cover: the budget is `available_parallelism` capped at 16,
//! and no public call raises it above the machine, so there this suite compares a 1-way
//! split with a 2-way split only; splits into 3 to 16 chunks run only on a machine with
//! more CPUs. With one CPU both sides are serial and the suite checks nothing.

mod common;

use common::assert_same_training_state;
use rand::SeedableRng;
use rita::core::attention::AttentionKind;
use rita::core::checkpoint::Checkpoint;
use rita::core::model::RitaConfig;
use rita::core::tasks::{train_task_resumable, Classifier, TrainConfig};
use rita::data::{DatasetKind, TimeseriesDataset};
use rita::infer::{InferSession, Precision};
use rita::nn::optim::AdamW;
use rita::tensor::{with_worker_threads, worker_budget, NdArray, SeedableRng64};

fn rng(seed: u64) -> SeedableRng64 {
    SeedableRng64::seed_from_u64(seed)
}

/// The tiny test model at series length 400: 80 windows, 16 groups and a batch of 4
/// put the model's matmuls, fused attention and grouping above their parallel
/// thresholds.
fn config() -> RitaConfig {
    RitaConfig {
        dropout: 0.1,
        ..RitaConfig::tiny(
            3,
            400,
            AttentionKind::Group { epsilon: 2.0, initial_groups: 16, adaptive: true },
        )
    }
}

/// `train(3)` of `same_seed_training_is_bit_identical_run_to_run`, at this suite's
/// shapes: one worker thread and the machine budget end in the same parameters,
/// AdamW moments and scheduler targets.
#[test]
fn training_is_bit_identical_at_one_thread_and_at_the_budget() {
    let data = TimeseriesDataset::generate_reduced(DatasetKind::Hhar, 12, 0, 400, &mut rng(7));
    let cfg = TrainConfig { epochs: 3, batch_size: 4, lr: 2e-3, ..Default::default() };
    let run = || {
        let mut clf = Classifier::new(config(), 5, &mut rng(8));
        let mut opt = AdamW::for_module(&clf, 2e-3, 1e-4);
        let report = train_task_resumable(&mut clf, &data, &cfg, &mut opt, &mut rng(9));
        assert!(report.final_loss().is_finite());
        (clf, opt)
    };
    let (serial, serial_opt) = with_worker_threads(1, run);
    let (threaded, threaded_opt) = run();
    assert_same_training_state(&serial, &serial_opt, &threaded, &threaded_opt);
}

/// One served batch per precision: the logits a session answers at one worker thread
/// are bit-identical to those it answers at the machine budget.
#[test]
fn served_logits_are_bit_identical_at_one_thread_and_at_the_budget() {
    let mut r = rng(21);
    let clf = Classifier::new(config(), 5, &mut r);
    let ckpt = Checkpoint::of_classifier(&clf, None);
    let requests: Vec<NdArray> = (0..4).map(|_| NdArray::randn(&[3, 400], 1.0, &mut r)).collect();
    for (session, precision) in [
        (InferSession::from_checkpoint(&ckpt).unwrap(), Precision::F32),
        (InferSession::from_checkpoint(&ckpt.quantize()).unwrap(), Precision::Int8),
    ] {
        assert_eq!(session.model().precision(), precision);
        let serial = with_worker_threads(1, || session.classify_logits(&requests).unwrap());
        let threaded = session.classify_logits(&requests).unwrap();
        for (i, (a, b)) in serial.iter().zip(&threaded).enumerate() {
            assert_eq!(
                a.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                b.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                "{precision:?} request {i}: logits moved with the thread count (budget {})",
                worker_budget()
            );
        }
    }
}
