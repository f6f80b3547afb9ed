//! # RITA — Group Attention is All You Need for Timeseries Analytics
//!
//! A from-scratch Rust reproduction of the RITA system (SIGMOD 2024): a Transformer-based
//! timeseries-analytics tool whose **group attention** clusters windows by key similarity
//! and computes attention at group granularity, with a provably exact group softmax /
//! embedding aggregation and an adaptive scheduler that keeps the number of groups as
//! small as the user's error bound allows.
//!
//! This crate is an umbrella that re-exports the workspace members:
//!
//! | Crate | Contents |
//! |---|---|
//! | [`tensor`] ([`rita_tensor`]) | dense f32 arrays, broadcasting, batched matmul |
//! | [`nn`] ([`rita_nn`]) | reverse-mode autograd, layers, losses, AdamW |
//! | [`data`] ([`rita_data`]) | synthetic datasets, windowing, cloze masking, batching |
//! | [`core`] ([`rita_core`]) | group attention, adaptive scheduler, RITA models & tasks, checkpoints |
//! | [`verify`] ([`rita_verify`]) | independent static analyzer for graph plans and checkpoints |
//! | [`infer`] ([`rita_infer`]) | tape-free batched inference from checkpoints |
//! | [`baselines`] ([`rita_baselines`]) | TST, GRAIL, and the Performer and Linformer attention variants |
//!
//! ## Quickstart
//!
//! ```
//! use rand::SeedableRng;
//! use rita::core::attention::AttentionKind;
//! use rita::core::model::RitaConfig;
//! use rita::core::tasks::{Classifier, TrainConfig};
//! use rita::data::{DatasetKind, TimeseriesDataset};
//!
//! let mut rng = rita::tensor::SeedableRng64::seed_from_u64(0);
//! // A tiny HHAR-like activity-recognition dataset.
//! let data = TimeseriesDataset::generate_reduced(DatasetKind::Hhar, 20, 5, 40, &mut rng);
//! let split = data.split_at(20);
//! // RITA with group attention (error bound ε = 2).
//! let config = RitaConfig::tiny(3, 40, AttentionKind::default_group());
//! let mut classifier = Classifier::new(config, 5, &mut rng);
//! let report = classifier.train(
//!     &split.train,
//!     &TrainConfig { epochs: 1, batch_size: 10, ..Default::default() },
//!     &mut rng,
//! );
//! assert!(report.final_loss().is_finite());
//! let accuracy = classifier.evaluate(&split.valid, 5, &mut rng);
//! assert!((0.0..=1.0).contains(&accuracy));
//! ```
//!
//! See `README.md` for the architecture overview, `DESIGN.md` for the system inventory and
//! substitutions, and `EXPERIMENTS.md` for the per-table/figure reproduction index.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(clippy::all)]

pub use rita_baselines as baselines;
pub use rita_core as core;
pub use rita_data as data;
pub use rita_infer as infer;
pub use rita_nn as nn;
pub use rita_tensor as tensor;
pub use rita_verify as verify;
