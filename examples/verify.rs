//! Checkpoint audit CLI: run the `rita-verify` static analyzer over checkpoints and
//! print a machine-readable report.
//!
//! With file arguments, each is loaded and audited; the process exits non-zero if
//! any checkpoint yields a diagnostic (error *or* warning), so the command can gate
//! a deployment pipeline.
//!
//! With no arguments it runs a self-test, as CI does: train a tiny classifier, save
//! and reload its checkpoint, and demand a clean report — then, as negative controls,
//! corrupt one copy of the checkpoint (wrong-shape head weight), remove one `.bias`
//! from another, and train a Linformer classifier, and demand the analyzer rejects all
//! three (the Linformer baseline trains and checkpoints but is not served). Any
//! direction failing exits non-zero.
//!
//! Run with: `cargo run --release --example verify [CHECKPOINT...]`
//! (set `RITA_QUICK=1` for a seconds-scale smoke run)

use std::process::ExitCode;

use rand::SeedableRng;
use rita::core::attention::AttentionKind;
use rita::core::checkpoint::{Checkpoint, TensorRecord};
use rita::core::model::RitaConfig;
use rita::core::tasks::{Classifier, TrainConfig};
use rita::data::{DatasetKind, TimeseriesDataset};
use rita::tensor::{NdArray, SeedableRng64};
use rita::verify::{verify_checkpoint, VerifyError};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        self_test()
    } else {
        audit_files(&args)
    }
}

/// Audit each named checkpoint; exit 1 if any fails to load or yields a diagnostic.
fn audit_files(paths: &[String]) -> ExitCode {
    let mut failed = false;
    for path in paths {
        let ckpt = match Checkpoint::load(path) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("{path}: failed to load: {e}");
                failed = true;
                continue;
            }
        };
        let report = verify_checkpoint(&ckpt);
        println!("{path}: {}", report.to_json());
        if !report.is_clean() {
            failed = true;
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Trains a small classifier with `attention` and returns its checkpoint.
fn train(
    attention: AttentionKind,
    data: &TimeseriesDataset,
    epochs: usize,
    rng: &mut SeedableRng64,
) -> Checkpoint {
    let config = RitaConfig {
        channels: 3,
        max_len: 80,
        d_model: 32,
        n_layers: 2,
        ff_hidden: 64,
        attention,
        ..Default::default()
    };
    let mut classifier = Classifier::new(config, 5, rng);
    let train_cfg = TrainConfig { epochs, batch_size: 8, lr: 1e-3, ..Default::default() };
    let report = classifier.train(data, &train_cfg, rng);
    println!(
        "trained {} for {} epochs, final loss {:.4}",
        attention.name(),
        report.epochs.len(),
        report.final_loss()
    );
    Checkpoint::of_classifier(&classifier, None)
}

/// Train → save → reload → verify clean, then corrupt or drop a bias → verify rejected,
/// and a freshly trained Linformer checkpoint → verify refused as not served.
fn self_test() -> ExitCode {
    let quick = std::env::var_os("RITA_QUICK").is_some();
    let (n_train, epochs) = if quick { (12, 1) } else { (60, 3) };
    let mut rng = SeedableRng64::seed_from_u64(0);

    let data = TimeseriesDataset::generate_reduced(DatasetKind::Hhar, n_train, 0, 80, &mut rng);
    let group = AttentionKind::Group { epsilon: 2.0, initial_groups: 6, adaptive: true };
    let trained = train(group, &data, epochs, &mut rng);

    let path = std::env::temp_dir().join("rita-verify-selftest.ckpt");
    trained.save(&path).expect("save checkpoint");
    let ckpt = Checkpoint::load(&path).expect("load checkpoint");

    // Positive control: the freshly trained checkpoint must audit clean.
    let clean = verify_checkpoint(&ckpt);
    println!("{}: {}", path.display(), clean.to_json());
    if !clean.is_clean() {
        eprintln!("self-test FAILED: fresh checkpoint did not verify clean");
        return ExitCode::FAILURE;
    }

    // Negative control: a wrong-shape head weight must be rejected before it could
    // ever activate. An analyzer that accepts this is not guarding anything.
    let mut bad = ckpt.clone();
    let head = bad
        .tensors
        .iter_mut()
        .find(|(p, _)| p.starts_with("head."))
        .expect("classifier checkpoint has a head tensor");
    head.1 = TensorRecord::F32(NdArray::zeros(&[3, 3]));
    let rejected = verify_checkpoint(&bad);
    println!("corrupted copy: {}", rejected.to_json());
    if !rejected.has_errors() {
        eprintln!("self-test FAILED: corrupted checkpoint was not rejected");
        return ExitCode::FAILURE;
    }

    // Negative control: every parameter is required, biases included — a checkpoint
    // with one `.bias` removed must be rejected too.
    let mut biasless = ckpt;
    let at = biasless
        .tensors
        .iter()
        .position(|(p, _)| p.ends_with(".bias"))
        .expect("classifier checkpoint has a bias tensor");
    let (dropped, _) = biasless.tensors.remove(at);
    let rejected = verify_checkpoint(&biasless);
    println!("copy without {dropped}: {}", rejected.to_json());
    if !rejected.has_errors() {
        eprintln!("self-test FAILED: checkpoint without {dropped} was not rejected");
        return ExitCode::FAILURE;
    }

    // Negative control: the comparison baselines train and checkpoint but are not
    // served, so a fresh Linformer checkpoint must be refused as such.
    let linformer = train(AttentionKind::Linformer { proj_dim: 8 }, &data, epochs, &mut rng);
    let refused = verify_checkpoint(&linformer);
    println!("Linformer checkpoint: {}", refused.to_json());
    let not_served = refused.diagnostics.iter().any(
        |d| matches!(&d.error, VerifyError::BadConfig { detail } if detail.contains("not served")),
    );
    if !not_served {
        eprintln!("self-test FAILED: Linformer checkpoint was not refused as not served");
        return ExitCode::FAILURE;
    }

    println!(
        "self-test passed: clean checkpoint accepted, corrupted and bias-less checkpoints \
         rejected, Linformer checkpoint refused as not served"
    );
    ExitCode::SUCCESS
}
