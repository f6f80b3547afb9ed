//! # rita-infer
//!
//! A planned-graph inference engine for RITA checkpoints: the layer that turns the
//! training stack into a *servable* system.
//!
//! Training runs through `rita-nn`'s autograd `Var` machinery; even under `no_grad`,
//! every operation allocates a graph node and every output buffer comes fresh from the
//! allocator. This crate instead **executes compiled plans**: loading a checkpoint
//! emits the static forward graph (`rita_core::graph::build_graph`, one node per module
//! call, served as emitted), and each `(batch, length)` shape bucket is compiled once
//! into a plan — topological schedule, per-value shapes,
//! last-use positions, and an exact arena of buffer capacities that pre-sizes the
//! tensor crate's thread-local pool (`rita_tensor::pool_reserve`). The plan interpreter
//! runs raw [`NdArray`] kernels with no `Var` allocation per op and recycles each
//! activation at its planned last use, so a long-lived serving session reaches a
//! steady state where differently-shaped batches share one working set of buffers.
//!
//! ## Bit-identical by construction
//!
//! The plan interpreter calls the *same tensor kernels in the same order* as the `Var`
//! forward pass (layer norm as sum → scale → sub → square → …, attention through the
//! fused streaming kernel, grouping through `rita_core::group::group_key_blocks`) —
//! both interpret the *same graph*, so there is no hand-kept mirror to drift. Pooled
//! buffers are re-zeroed before reuse, and each node runs the kernel sequence of the
//! module call it stands for. The result is bit-identical to a `no_grad` `Var` forward —
//! the property `tests/infer_parity.rs` and `tests/plan_executor.rs` pin at 0 ulp
//! for both attention kinds a checkpoint can hold (vanilla and group), with the `Var`
//! interpreter (`rita_core::graph::run_var`) kept in-tree as the exactness oracle.
//! Kernel or plan failures surface as a typed [`InferError`] on the offending request
//! instead of panicking a worker thread.
//!
//! ## Serving
//!
//! [`InferSession`] wraps a loaded model with request batching: concurrent requests of
//! mixed lengths are grouped into rectangular length buckets (the same
//! `batch_indices_by_length` the training engine uses) and answered in request order.
//!
//! ```no_run
//! use rita_core::checkpoint::Checkpoint;
//! use rita_infer::InferSession;
//!
//! let ckpt = Checkpoint::load("classifier.ckpt").unwrap();
//! let session = InferSession::from_checkpoint(&ckpt).unwrap();
//! # let requests: Vec<rita_tensor::NdArray> = vec![];
//! let predictions = session.classify(&requests).unwrap();
//! ```
//!
//! On top of the session sits the multi-tenant serving core: a [`ModelRegistry`] of
//! versioned hot-swappable checkpoints and a continuous-batching [`Server`] with
//! per-tenant admission control, SLO-aware batch closing, and a [`Metrics`] layer —
//! see the [`server`](crate::Server) docs.
//!
//! ```no_run
//! use std::sync::Arc;
//! use rita_core::checkpoint::Checkpoint;
//! use rita_infer::{ModelRegistry, Server, ServerConfig};
//!
//! let registry = Arc::new(ModelRegistry::new());
//! registry.publish(&Checkpoint::load("classifier.ckpt").unwrap()).unwrap();
//! let server = Server::start(registry, ServerConfig::default());
//! # let request: rita_tensor::NdArray = todo!();
//! let answer = server.classify("tenant-a", request).unwrap();
//! println!("{}", server.metrics().snapshot().to_json());
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod chaos;
mod metrics;
mod model;
mod plan;
mod registry;
mod server;
mod session;

pub use metrics::{
    FaultCounters, FaultSnapshot, Histogram, HistogramSnapshot, Metrics, MetricsSnapshot,
    PoolCounters, PoolSnapshot, TenantMetrics, TenantSnapshot,
};
pub use model::{InferModel, Precision};
pub use plan::{plan_cache_stats, InferError, PlanCacheStats};
pub use registry::{ModelHandle, ModelRegistry, PublishError};
pub use rita_tensor::{pool_reset, pool_stats, PoolStats};
pub use server::{
    BreakerPolicy, ServeError, ServedResponse, Server, ServerConfig, ShedReason, TenantPolicy,
    Ticket,
};
pub use session::{InferSession, Prediction, RequestError};

use std::sync::{
    Condvar, Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard,
};
use std::time::Duration;

use rita_tensor::NdArray;

/// Offers an intermediate activation back to the thread-local buffer pool (no-op when
/// the storage is still aliased).
pub(crate) fn reclaim(a: NdArray) {
    let _ = rita_tensor::recycle(a);
}

// ------------------------------------------------------------- poison-safe lock access
//
// A panicking worker poisons every mutex it holds; `.expect("lock")` would then take
// every *other* worker down with it — the cascade PR 9 removes. Every shared structure
// guarded by these locks stays structurally valid mid-mutation (counters, maps, and
// deques whose individual operations are panic-atomic), so recovering the guard is
// sound: the crashed worker restarts its drain loop and everyone else keeps serving.

pub(crate) fn lock_mx<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

pub(crate) fn read_rw<T>(l: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    l.read().unwrap_or_else(PoisonError::into_inner)
}

pub(crate) fn write_rw<T>(l: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    l.write().unwrap_or_else(PoisonError::into_inner)
}

pub(crate) fn wait_cv<'a, T>(cv: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    cv.wait(guard).unwrap_or_else(PoisonError::into_inner)
}

pub(crate) fn wait_cv_timeout<'a, T>(
    cv: &Condvar,
    guard: MutexGuard<'a, T>,
    timeout: Duration,
) -> MutexGuard<'a, T> {
    cv.wait_timeout(guard, timeout).unwrap_or_else(PoisonError::into_inner).0
}
