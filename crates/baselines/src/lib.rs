//! # rita-baselines
//!
//! The comparison baselines of the RITA evaluation, reimplemented on the same substrate
//! so comparisons isolate the *algorithmic* differences:
//!
//! * [`attention`] — Performer (Choromanski et al., 2020) and Linformer (Wang et al.,
//!   2020). The paper builds them by swapping the attention module of an otherwise
//!   identical RITA model, which [`AttentionVariant::model`] does through
//!   `rita_core::model::RitaModel::with_attention`. They train and evaluate; `rita-core`
//!   neither checkpoints nor serves them.
//! * [`tst`] — TST (Zerveas et al., KDD 2021), the state-of-the-art Transformer framework
//!   for timeseries representation learning: per-timestamp tokens, batch normalisation,
//!   and a concatenated-output classifier (§6.2 of the RITA paper discusses why these
//!   choices hurt on long series).
//! * [`grail`] — GRAIL (Paparrizos & Franklin, VLDB 2019), the state-of-the-art
//!   non-deep-learning representation learner: landmark selection + shift-invariant
//!   kernel features + a classical classifier (Fig. 5 of the paper).
//!
//! Vanilla self-attention, the remaining comparison point, is one of `rita-core`'s own
//! attention kinds.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod attention;
pub mod grail;
pub mod tst;

pub use attention::{AttentionVariant, LinformerAttention, PerformerAttention};
pub use grail::{Grail, GrailConfig};
pub use tst::{TstClassifier, TstConfig, TstImputer, TstModel};
