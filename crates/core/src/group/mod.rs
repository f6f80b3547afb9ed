//! Window grouping: the GPU-friendly k-means of §4.4, whose assignments and counts feed
//! the embedding-aggregation / group-softmax computation of §4.2.

pub mod kmeans;

pub use kmeans::{kmeans_matmul, kmeans_pairwise, Grouping};

use rita_tensor::NdArray;

/// Minimum total distance-matrix work (`Σ blocks · n · N · d`) before the k-means
/// fan-out pays for handing blocks to other threads; below this every block runs
/// serially (the same role as the batched matmul's `PARALLEL_THRESHOLD`). The value
/// dates from when every fan-out spawned fresh threads and has not been re-measured
/// against the worker pool.
const GROUPING_PARALLEL_THRESHOLD: usize = 64 * 64 * 16;

/// Runs the k-means grouping for every `(batch, head)` block of a `(b, h, n, d)` key
/// tensor, picking the worker count from the machine budget and the total
/// distance-matrix work. This is the single grouping entry point shared by the training
/// path (`GroupAttention`) and the tape-free inference engine, so both produce identical
/// clusterings by construction.
pub fn group_key_blocks(keys: &NdArray, n_groups: usize, iters: usize) -> Vec<Grouping> {
    let shape = keys.shape();
    let (b, h, n, dh) = (shape[0], shape[1], shape[2], shape[3]);
    let work = b * h * n * n_groups * dh;
    let threads = if work < GROUPING_PARALLEL_THRESHOLD {
        1
    } else {
        rita_tensor::worker_budget().min(b * h)
    };
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
    if threads <= 1 {
        return blocks.iter().map(|block| kmeans_matmul(block, n_groups, iters)).collect();
    }
    let mut results: Vec<Option<Grouping>> = (0..blocks.len()).map(|_| None).collect();
    let per = blocks.len().div_ceil(threads);
    // Each worker gets its share of the machine budget for the matmuls inside k-means
    // (serial when the block fan-out already saturates the pool, more when there are
    // fewer blocks than cores), so the two fan-outs never multiply into
    // oversubscription but idle cores still serve the matmuls.
    let inner = rita_tensor::worker_budget().div_ceil(threads).max(1);
    rita_tensor::scoped_chunks_mut(&mut results, 1, per, |start, chunk| {
        rita_tensor::with_worker_threads(inner, || {
            for (slot, block) in chunk.iter_mut().zip(&blocks[start..]) {
                *slot = Some(kmeans_matmul(block, n_groups, iters));
            }
        });
    });
    results.into_iter().map(|g| g.expect("worker filled every slot")).collect()
}
