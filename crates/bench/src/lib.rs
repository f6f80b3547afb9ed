//! # rita-bench
//!
//! The benchmark harness that regenerates every table and figure of the RITA evaluation
//! (§6). Each binary in `src/bin/` prints one table/figure; the benches in `benches/`,
//! timed by [`sample`], cover the micro-level claims (attention cost vs. length,
//! matmul-formulated k-means vs. the pairwise loop).
//!
//! Absolute numbers differ from the paper — the substrate is a CPU tensor library, the
//! datasets are synthetic equivalents, and the default scale is reduced so the whole suite
//! runs in minutes — but the *shapes* the paper reports (who wins, how the speedup grows
//! with series length, adaptive-vs-fixed orderings, pretraining gains) are reproduced.
//! Pass `--full` to any binary for a larger, slower configuration.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod experiments;
mod sampler;
pub mod scale;
pub mod table;

pub use experiments::{
    run_classification, run_imputation, run_tst_classification, run_tst_imputation,
    ClassificationResult, ImputationResult,
};
pub use sampler::{sample, Sample};
pub use scale::Scale;
pub use table::Table;
