//! Micro-benchmarks for the grouping step (§4.4): the matmul-formulated k-means
//! against the naive pairwise-difference formulation (the ablation DESIGN.md calls out
//! for the "GPU friendly" distance formulation), the grouping of one long-series training
//! step's keys, and the cost of the sparse segment-sum pipeline that applies the grouping
//! constants.
//!
//! Every row is timed by [`rita_bench::sample`] and printed to stdout. `RITA_QUICK=1`
//! shrinks the sweeps to seconds-scale smoke sizes (CI runs it on every push); the
//! `kmeans_train_long` row keeps its real shape in both modes.

use rand::SeedableRng;
use rita_bench::sample;
use rita_core::group::{group_key_blocks, kmeans_matmul, kmeans_pairwise};
use rita_tensor::{NdArray, SeedableRng64};

fn quick() -> bool {
    std::env::var("RITA_QUICK").is_ok_and(|v| !v.is_empty() && v != "0")
}

/// Times `routine` and prints its row.
fn bench<O>(name: &str, routine: impl FnMut() -> O) {
    let s = sample(if quick() { 3 } else { 10 }, routine);
    let (median, q1, q3) = (s.median_ns / 1e3, s.q1_ns / 1e3, s.q3_ns / 1e3);
    println!("{name}: median {median:.1} us (q1 {q1:.1}, q3 {q3:.1})");
}

fn keys(n: usize, d: usize) -> NdArray {
    let mut rng = SeedableRng64::seed_from_u64(7);
    NdArray::randn(&[n, d], 1.0, &mut rng)
}

fn bench_kmeans_formulations() {
    let ns: &[usize] = if quick() { &[256] } else { &[256, 1024, 4096] };
    for &n in ns {
        let x = keys(n, 32);
        bench(&format!("kmeans_grouping/matmul/{n}"), || kmeans_matmul(&x, 64, 2));
        bench(&format!("kmeans_grouping/pairwise/{n}"), || kmeans_pairwise(&x, 64, 2));
    }
}

fn bench_kmeans_iterations() {
    let x = keys(1024, 32);
    let iters: &[usize] = if quick() { &[1, 2] } else { &[1, 2, 4, 8] };
    for &iters in iters {
        bench(&format!("kmeans_iterations/iters/{iters}"), || kmeans_matmul(&x, 64, iters));
    }
}

/// The grouping one `train_long` layer runs per step: the keys of a `(1, 2001, 64)`
/// projection split into two heads of 32 — a `(1, 2, 2001, 32)` view whose rows are
/// strided, not a compacted copy — grouped into N = 64 with two Lloyd iterations.
fn bench_kmeans_train_long() {
    let (n, h, dh) = (2001usize, 2usize, 32usize);
    let heads = keys(n, h * dh).reshape(&[1, n, h, dh]).unwrap().permute(&[0, 2, 1, 3]).unwrap();
    bench(&format!("kmeans_train_long/group_key_blocks/{n}"), || group_key_blocks(&heads, 64, 2));
}

/// Applying the grouping constants: two `O(n·d)` segment sums plus a broadcast scale, in
/// place of the two `O(N·n·d)` products with one-hot `(N, n)` matrices that used to
/// dominate the non-score cost of group attention.
fn bench_grouping_constants() {
    let (d, n_groups) = (32usize, 64usize);
    let ns: &[usize] = if quick() { &[256] } else { &[256, 1024, 4096] };
    for &n in ns {
        let x = keys(n, d);
        let g = kmeans_matmul(&x, n_groups, 2);
        let inv_counts = NdArray::from_vec(
            g.counts.iter().map(|&c| 1.0 / (c.max(1) as f32)).collect(),
            &[n_groups, 1],
        )
        .unwrap();
        bench(&format!("grouping_constants/sparse_segment_sum/{n}"), || {
            let sums = x.segment_sum(&g.assignments, n_groups).unwrap();
            let reps = sums.mul(&inv_counts).unwrap();
            let agg = x.segment_sum(&g.assignments, n_groups).unwrap();
            (reps, agg)
        });
    }
}

fn main() {
    bench_kmeans_formulations();
    bench_kmeans_iterations();
    bench_kmeans_train_long();
    bench_grouping_constants();
}
