//! Checkpoint audit CLI: run the `rita-verify` static analyzer over checkpoints and
//! print a machine-readable report.
//!
//! With file arguments, each is loaded and audited; the process exits non-zero if
//! any checkpoint yields a diagnostic (error *or* warning), so the command can gate
//! a deployment pipeline.
//!
//! With no arguments it runs a self-test, as CI does: train a tiny classifier, save
//! and reload its checkpoint, and demand a clean report — then, as negative controls,
//! corrupt one copy of the checkpoint (wrong-shape head weight) and remove one `.bias`
//! from another, and demand the analyzer rejects both; and rewrite the saved file's
//! attention tag to 2 (the retired Performer tag, with its payload and a fresh
//! checksum), and demand that loading it fails as `Corrupted`; and relabel the saved
//! file as version 1 (retired, and without a checksum trailer) with a fresh checksum,
//! and demand that loading it fails as `UnsupportedVersion(1)`. Any direction failing
//! exits non-zero.
//!
//! Run with: `cargo run --release --example verify [CHECKPOINT...]`
//! (set `RITA_QUICK=1` for a seconds-scale smoke run)

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{SystemTime, UNIX_EPOCH};

use rand::SeedableRng;
use rita::core::attention::AttentionKind;
use rita::core::checkpoint::{crc32, Checkpoint, CheckpointError, TensorRecord};
use rita::core::model::RitaConfig;
use rita::core::tasks::{Classifier, TrainConfig};
use rita::data::{DatasetKind, TimeseriesDataset};
use rita::tensor::{NdArray, SeedableRng64};
use rita::verify::verify_checkpoint;

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

/// A temp-dir checkpoint path unique to this run (pid plus the clock's nanoseconds), so
/// concurrent self-tests never audit each other's file; dropping it removes the file,
/// so every exit path, a failed control or a panic included, cleans up.
struct TempCheckpoint(PathBuf);

impl TempCheckpoint {
    fn new() -> Self {
        let nanos = SystemTime::now().duration_since(UNIX_EPOCH).map_or(0, |d| d.as_nanos());
        let name = format!("rita-verify-selftest-{}-{nanos}.ckpt", std::process::id());
        Self(std::env::temp_dir().join(name))
    }
}

impl Drop for TempCheckpoint {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// Train → save → reload → verify clean, then corrupt or drop a bias → verify rejected,
/// a CRC-valid file with the retired attention tag 2 → load refused as `Corrupted`, and
/// one relabelled as version 1 → load refused as `UnsupportedVersion(1)`.
fn self_test() -> ExitCode {
    let quick = std::env::var_os("RITA_QUICK").is_some();
    let (n_train, epochs) = if quick { (12, 1) } else { (60, 3) };
    let mut rng = SeedableRng64::seed_from_u64(0);

    let data = TimeseriesDataset::generate_reduced(DatasetKind::Hhar, n_train, 0, 80, &mut rng);
    let group = AttentionKind::Group { epsilon: 2.0, initial_groups: 6, adaptive: true };
    let trained = train(group, &data, epochs, &mut rng);

    let temp = TempCheckpoint::new();
    let path = &temp.0;
    trained.save(path).expect("save checkpoint");
    let ckpt = Checkpoint::load(path).expect("load checkpoint");

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

    // Negative control: tag 2 held the Performer baseline, which is no longer
    // checkpointed. A file carrying it (with the `u32` payload its writer put after the
    // tag, and a whole-file checksum that matches) must not load as anything.
    let bytes = std::fs::read(path).expect("read the saved checkpoint");
    // The tag follows magic, version, task tag, class count, eight dims and dropout;
    // the group payload after it is ε, initial_groups and adaptive (9 bytes).
    let tag_at = 8 + 4 + 1 + 4 + 8 * 4 + 4;
    let mut retired = bytes[..tag_at].to_vec();
    retired.push(2);
    retired.extend_from_slice(&16u32.to_le_bytes());
    retired.extend_from_slice(&bytes[tag_at + 1 + 9..bytes.len() - 4]);
    let crc = crc32(&retired);
    retired.extend_from_slice(&crc.to_le_bytes());
    std::fs::write(path, &retired).expect("write the retired-tag file");
    match Checkpoint::load(path) {
        Err(CheckpointError::Corrupted(why)) if why.contains("unknown attention tag 2") => {
            println!("retired attention tag 2: refused ({why})");
        }
        other => {
            let got = other.map(|c| c.config.attention.name());
            eprintln!("self-test FAILED: a file with attention tag 2 loaded as {got:?}");
            return ExitCode::FAILURE;
        }
    }

    // Negative control: versions 1 and 2 are retired, and version 1 carried no
    // checksum at all. The saved file relabelled as version 1, with a whole-file
    // checksum that matches, must not load as anything.
    let mut relabelled = bytes;
    relabelled[8..12].copy_from_slice(&1u32.to_le_bytes());
    let body = relabelled.len() - 4;
    let crc = crc32(&relabelled[..body]);
    relabelled[body..].copy_from_slice(&crc.to_le_bytes());
    std::fs::write(path, &relabelled).expect("write the relabelled file");
    match Checkpoint::load(path) {
        Err(CheckpointError::UnsupportedVersion(1)) => println!("version 1 label: refused"),
        other => {
            let got = other.map(|c| c.task);
            eprintln!("self-test FAILED: a file labelled version 1 loaded as {got:?}");
            return ExitCode::FAILURE;
        }
    }

    println!(
        "self-test passed: clean checkpoint accepted, corrupted and bias-less checkpoints \
         rejected, retired attention tag and version label refused"
    );
    ExitCode::SUCCESS
}
