//! The adaptive scheduler (§5): dynamically determining the number of groups `N` for each
//! group-attention module and the batch size `B` for the training loop.
//!
//! * [`error_bound`] — Lemma 1: user error bound ε → key-distance threshold `d`.
//! * [`merge`] — Lemma 2 and the S1/S2 halving heuristic that shrinks `N`, plus the
//!   momentum update.
//! * [`memory`] — the analytic memory cost model and the binary-search batch-size oracle
//!   (Alg. 2). The cost model replaces the paper's CUDA peak-memory probe; see DESIGN.md.
//! * [`fit`] — the learned batch-size predictor `B = f(L, N)`: least-squares fits over a
//!   small function prior and the DP plane division (Alg. 3).
//! * [`latency`] — the serve-time batch bound: the largest `B` whose forward-only cost
//!   fits a latency SLO's compute slice, in closed form (its oracle is one formula, so
//!   nothing is fitted).

pub mod error_bound;
pub mod fit;
pub mod latency;
pub mod memory;
pub mod merge;

pub use error_bound::{distance_threshold, guaranteed_epsilon, key_ball_radius};
pub use fit::{BatchPoint, BatchSizePredictor, FittedFn};
pub use latency::LatencyBudget;
pub use memory::{usable_budget, MemoryModel, DEFAULT_BUDGET_BYTES, DEFAULT_BUDGET_FRACTION};
pub use merge::{can_absorb, mergeable_count, momentum_update};
