//! Window grouping: the GPU-friendly k-means of §4.4, whose assignments and counts feed
//! the embedding-aggregation / group-softmax computation of §4.2.

pub mod kmeans;

pub use kmeans::{kmeans_matmul, kmeans_pairwise, Grouping};

use rita_tensor::NdArray;

/// Runs the k-means grouping for every `(batch, head)` block of a `(b, h, n, d)` key
/// tensor, picking the worker count from the total distance-matrix work
/// (`Σ blocks · n · N · d` multiply-adds, through the gate the fused attention shares,
/// [`rita_tensor::fan_out_threads`]) and the block count. This is the single grouping
/// entry point shared by the training path (`GroupAttention`) and the tape-free
/// inference engine, so both produce identical clusterings by construction.
pub fn group_key_blocks(keys: &NdArray, n_groups: usize, iters: usize) -> Vec<Grouping> {
    let shape = keys.shape();
    let (b, h, n, dh) = (shape[0], shape[1], shape[2], shape[3]);
    let threads = rita_tensor::fan_out_threads(b * h * n * n_groups * dh).min(b * h);
    group_key_blocks_threaded(keys, n_groups, iters, threads)
}

/// The grouping constants of one group-attention call, block-major over batch×heads, as
/// the training body and the inference executor hand them to segment sums and kernel.
pub struct GroupLayout {
    /// Flat group assignments, block after block — the layout `segment_sum` consumes.
    pub segments: Vec<usize>,
    /// Member counts, shape `(b, h, N)`: the fused kernel's group-softmax weights.
    pub weights: NdArray,
    /// `1 / max(count, 1)`, shape `(b, h, N, 1)`: turns per-group key sums into centroids.
    pub inv_counts: NdArray,
}

/// Lays out the groupings [`group_key_blocks`] returned for a `(b, h, n, d)` key tensor
/// with `n_groups` groups.
pub fn group_layout(groupings: &[Grouping], b: usize, h: usize, n_groups: usize) -> GroupLayout {
    let counts: Vec<f32> =
        groupings.iter().flat_map(|g| g.counts.iter().map(|&c| c as f32)).collect();
    let inv_counts = counts.iter().map(|&c| 1.0 / c.max(1.0)).collect();
    let shape_err = "one count per group of every block";
    GroupLayout {
        segments: groupings.iter().flat_map(|g| g.assignments.iter().copied()).collect(),
        inv_counts: NdArray::from_vec(inv_counts, &[b, h, n_groups, 1]).expect(shape_err),
        weights: NdArray::from_vec(counts, &[b, h, n_groups]).expect(shape_err),
    }
}

/// [`group_key_blocks`] with an explicit worker count (1 = serial).
///
/// Each block is an O(1) strided sub-view of the (possibly head-split) key tensor
/// (k-means reads its rows in place), and the blocks are independent, so they fan out
/// across the shared scoped-chunk pool — the same batch×heads axis the batched matmul
/// parallelises over. Workers cap their inner matmuls at their share of the machine
/// budget so the two fan-outs never multiply into oversubscription.
pub fn group_key_blocks_threaded(
    keys: &NdArray,
    n_groups: usize,
    iters: usize,
    threads: usize,
) -> Vec<Grouping> {
    let (b, h) = (keys.shape()[0], keys.shape()[1]);
    let blocks: Vec<NdArray> = (0..b * h)
        .map(|idx| {
            keys.index_axis(0, idx / h)
                .and_then(|kb| kb.index_axis(0, idx % h))
                .expect("key block view")
        })
        .collect();
    let threads = threads.max(1);
    let mut results: Vec<Option<Grouping>> = (0..blocks.len()).map(|_| None).collect();
    // Each worker gets its share of the machine budget for the matmuls inside k-means
    // (serial when the block fan-out already saturates the pool, more when there are
    // fewer blocks than cores, all of it as the one serial chunk), so the two fan-outs
    // never multiply into oversubscription but idle cores still serve the matmuls.
    let inner = rita_tensor::worker_budget().div_ceil(threads).max(1);
    let per = blocks.len().div_ceil(threads);
    rita_tensor::scoped_chunks_mut(blocks.len(), per, [(&mut results[..], 1)], |ids, [chunk]| {
        rita_tensor::with_worker_threads(inner, || {
            for (slot, block) in chunk.iter_mut().zip(&blocks[ids]) {
                *slot = Some(kmeans_matmul(block, n_groups, iters));
            }
        });
    });
    results.into_iter().map(|g| g.expect("worker filled every slot")).collect()
}
