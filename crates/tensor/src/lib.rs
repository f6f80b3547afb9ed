//! # rita-tensor
//!
//! A small, dependency-light dense `f32` n-dimensional array library that serves as the
//! numerical substrate for the RITA timeseries-analytics stack.
//!
//! The design goals, in order, are:
//!
//! 1. **Correctness** — every operation is covered by unit and property tests; shapes are
//!    validated eagerly and errors are reported through [`TensorError`] instead of panics
//!    wherever an invalid shape can arrive from user input. Views have copy-on-write
//!    mutation semantics, so aliasing is never observable.
//! 2. **Predictable performance** — shared-buffer storage with O(1) strided views
//!    (`reshape` of contiguous data, `permute`, `slice_axis`, `broadcast_to` perform no
//!    copies), stride-aware elementwise/reduction kernels, and a batched matrix multiply
//!    that parallelises across the batch×heads dimension and consumes transposed views
//!    without materialising them. The library is deliberately CPU-only: the paper's group
//!    attention is an algorithmic change whose relative behaviour is preserved on CPU.
//! 3. **A small surface** — only the operations needed by the autograd layer
//!    ([`rita-nn`](https://crates.io/crates/rita-nn)) and the models built on top of it.
//!
//! The central type is [`NdArray`]: an `Arc`-shared flat `f32` buffer plus
//! `(shape, strides, offset)` view metadata. See `DESIGN.md` at the workspace root for
//! the storage/stride invariants.
//!
//! ```
//! use rita_tensor::NdArray;
//!
//! let a = NdArray::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
//! let b = NdArray::eye(2);
//! let c = a.matmul(&b).unwrap();
//! assert_eq!(c.as_slice(), &[1.0, 2.0, 3.0, 4.0]);
//! ```

#![deny(unsafe_op_in_unsafe_fn)]
#![deny(missing_docs)]
#![warn(clippy::all)]

mod array;
mod broadcast;
mod error;
mod fused;
mod gemm;
mod matmul;
mod parallel;
mod pool;
mod qgemm;
mod random;
mod reduce;
mod rowops;
mod segment;
mod shape;
mod window;

pub use array::NdArray;
pub use error::TensorError;
pub use fused::{fused_attention, fused_attention_backward, FusedAttention};
pub use parallel::{fan_out_threads, scoped_chunks_mut, with_worker_threads, worker_budget};
pub use pool::{pool_reserve, pool_reset, pool_restart_high_water, pool_stats, recycle, PoolStats};
pub use qgemm::{dequantize_columns, qgemm, quantize_columns, QuantMatrix, MAX_QUANT_K};
pub use random::{rng_from_seed, SeedableRng64};
pub use rowops::LayerNormed;

/// Convenience result alias used across the crate.
pub type Result<T> = std::result::Result<T, TensorError>;

/// Returns `true` when two slices are elementwise close within `atol + rtol * |b|`.
pub fn allclose(a: &[f32], b: &[f32], atol: f32, rtol: f32) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b.iter())
            .all(|(&x, &y)| (x - y).abs() <= atol + rtol * y.abs() || (x.is_nan() && y.is_nan()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allclose_basic() {
        assert!(allclose(&[1.0, 2.0], &[1.0 + 1e-7, 2.0], 1e-5, 1e-5));
        assert!(!allclose(&[1.0, 2.0], &[1.1, 2.0], 1e-5, 1e-5));
        assert!(!allclose(&[1.0], &[1.0, 2.0], 1e-5, 1e-5));
    }
}
