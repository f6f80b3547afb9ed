//! # rita-nn
//!
//! Reverse-mode automatic differentiation and neural-network building blocks for the
//! RITA timeseries-analytics stack, built on [`rita_tensor`].
//!
//! The crate provides:
//!
//! * [`Var`] — a node in a dynamically recorded computation graph, with a full set of
//!   differentiable operations (arithmetic, activations, batched matmul, softmax, window
//!   unfold/fold, reductions, shape ops) and the fused row operations of a Transformer
//!   layer (`layer_norm`, `linear`, `gelu`, `dropout` — one tape node each).
//! * [`layers`] — `Linear`, `LayerNorm`, `BatchNorm1d`, `Dropout`, `FeedForward` and the
//!   [`Module`] trait.
//! * [`graph`] — a static forward-graph IR (nodes with stable parameter-path IDs,
//!   topological scheduling, ahead-of-time shape/lifetime planning) that downstream
//!   crates emit from module trees and interpret.
//! * [`optim`] — the `AdamW` optimiser plus gradient clipping.
//! * [`loss`] — cross entropy, MSE and masked MSE (the cloze-pretraining loss).
//! * [`gradcheck`] — finite-difference gradient verification used by the test-suites of
//!   every downstream crate.
//!
//! ```
//! use rita_nn::{Var, layers::{Linear, Module}, optim::{AdamW, Optimizer}, loss::mse};
//! use rita_tensor::NdArray;
//! use rand::SeedableRng;
//!
//! let mut rng = rita_tensor::SeedableRng64::seed_from_u64(0);
//! let layer = Linear::new(2, 1, &mut rng);
//! let mut opt = AdamW::new(layer.parameters(), 0.05, 0.0);
//! let x = NdArray::from_vec(vec![1.0, 2.0, -1.0, 0.5], &[2, 2]).unwrap();
//! let y = NdArray::from_vec(vec![3.0, -1.0], &[2, 1]).unwrap();
//! for _ in 0..200 {
//!     opt.zero_grad();
//!     let loss = mse(&layer.forward(&Var::constant(x.clone())), &y);
//!     loss.backward();
//!     opt.step();
//! }
//! let final_loss = mse(&layer.forward(&Var::constant(x)), &y).item();
//! assert!(final_loss < 0.05);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod gradcheck;
pub mod graph;
pub mod layers;
pub mod loss;
pub mod module;
mod ops_attention;
mod ops_basic;
mod ops_matrix;
mod ops_row;
mod ops_segment;
pub mod optim;
mod var;

pub use module::{BufferVisitor, BufferVisitorMut, Module, ParamPath, ParamVisitor};
pub use var::{is_grad_enabled, no_grad, Var};
