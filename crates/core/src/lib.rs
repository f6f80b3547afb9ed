//! # rita-core
//!
//! The RITA timeseries-analytics tool (SIGMOD 2024): a Transformer backbone whose
//! self-attention is replaced by **group attention** — windows are clustered by key
//! similarity and attention is computed at group granularity with an exactness-preserving
//! group softmax and embedding aggregation — plus the **adaptive scheduler** that picks
//! the number of groups from a user error bound and predicts the batch size from
//! `(length, groups)`.
//!
//! Crate layout (matching the paper's sections):
//!
//! * [`attention`] — vanilla and group (§4) attention behind one trait; the evaluation's
//!   Performer and Linformer baselines (`rita-baselines`) implement the same trait and
//!   plug into an otherwise identical model through `RitaModel::with_attention`.
//! * [`group`] — the GPU-friendly k-means grouping (§4.4) and assignment matrices.
//! * [`scheduler`] — error bound (§4.3), cluster merging and momentum update (§5.1),
//!   memory model, batch-size binary search and the learned `B = f(L, N)` predictor (§5.2).
//! * [`model`] — time-aware convolution input stage, encoder stack, assembled backbone (§3).
//! * [`tasks`] — classification, imputation, pretraining + few-label fine-tuning, and
//!   forecasting (Appendix A.7).
//!
//! ```
//! use rand::SeedableRng;
//! use rita_core::attention::AttentionKind;
//! use rita_core::model::RitaConfig;
//! use rita_core::tasks::{Classifier, TrainConfig};
//! use rita_data::{DatasetKind, TimeseriesDataset};
//!
//! let mut rng = rita_tensor::SeedableRng64::seed_from_u64(0);
//! let data = TimeseriesDataset::generate_reduced(DatasetKind::Hhar, 10, 2, 40, &mut rng);
//! let config = RitaConfig::tiny(3, 40, AttentionKind::default_group());
//! let mut classifier = Classifier::new(config, 5, &mut rng);
//! let report = classifier.train(&data, &TrainConfig { epochs: 1, batch_size: 5, ..Default::default() }, &mut rng);
//! assert!(report.final_loss().is_finite());
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod attention;
pub mod checkpoint;
pub mod graph;
pub mod group;
pub mod model;
pub mod scheduler;
pub mod tasks;

pub use attention::{Attention, AttentionKind, GroupAttention, GroupAttentionConfig};
pub use checkpoint::{Checkpoint, CheckpointError, TaskKind};
pub use model::{RitaConfig, RitaModel};
pub use tasks::{Classifier, Imputer, TrainConfig, TrainReport};
