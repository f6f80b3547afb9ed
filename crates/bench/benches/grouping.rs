//! Criterion micro-benchmarks for the grouping step (§4.4): the matmul-formulated k-means
//! against the naive pairwise-difference formulation (the ablation DESIGN.md calls out
//! for the "GPU friendly" distance formulation), the grouping of one long-series training
//! step's keys, and the cost of the sparse segment-sum pipeline that applies the grouping
//! constants.
//!
//! `RITA_QUICK=1` shrinks the sweeps to seconds-scale smoke sizes (CI runs it on every
//! push); the `kmeans_train_long` row keeps its real shape in both modes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::SeedableRng;
use rita_core::group::{group_key_blocks, kmeans_matmul, kmeans_pairwise};
use rita_tensor::{NdArray, SeedableRng64};

fn quick() -> bool {
    std::env::var("RITA_QUICK").is_ok_and(|v| !v.is_empty() && v != "0")
}

fn sample_size() -> usize {
    if quick() {
        3
    } else {
        10
    }
}

fn keys(n: usize, d: usize) -> NdArray {
    let mut rng = SeedableRng64::seed_from_u64(7);
    NdArray::randn(&[n, d], 1.0, &mut rng)
}

fn bench_kmeans_formulations(c: &mut Criterion) {
    let mut group = c.benchmark_group("kmeans_grouping");
    group.sample_size(sample_size());
    let ns: &[usize] = if quick() { &[256] } else { &[256, 1024, 4096] };
    for &n in ns {
        let x = keys(n, 32);
        group.bench_with_input(BenchmarkId::new("matmul", n), &n, |b, _| {
            b.iter(|| kmeans_matmul(&x, 64, 2));
        });
        group.bench_with_input(BenchmarkId::new("pairwise", n), &n, |b, _| {
            b.iter(|| kmeans_pairwise(&x, 64, 2));
        });
    }
    group.finish();
}

fn bench_kmeans_iterations(c: &mut Criterion) {
    let mut group = c.benchmark_group("kmeans_iterations");
    group.sample_size(sample_size());
    let x = keys(1024, 32);
    let iters: &[usize] = if quick() { &[1, 2] } else { &[1, 2, 4, 8] };
    for &iters in iters {
        group.bench_with_input(BenchmarkId::new("iters", iters), &iters, |b, &iters| {
            b.iter(|| kmeans_matmul(&x, 64, iters));
        });
    }
    group.finish();
}

/// The grouping one `train_long` layer runs per step: the keys of a `(1, 2001, 64)`
/// projection split into two heads of 32 — a `(1, 2, 2001, 32)` view whose rows are
/// strided, not a compacted copy — grouped into N = 64 with two Lloyd iterations.
fn bench_kmeans_train_long(c: &mut Criterion) {
    let mut group = c.benchmark_group("kmeans_train_long");
    group.sample_size(sample_size());
    let (n, h, dh) = (2001usize, 2usize, 32usize);
    let heads = keys(n, h * dh).reshape(&[1, n, h, dh]).unwrap().permute(&[0, 2, 1, 3]).unwrap();
    group.bench_with_input(BenchmarkId::new("group_key_blocks", n), &n, |b, _| {
        b.iter(|| group_key_blocks(&heads, 64, 2));
    });
    group.finish();
}

/// Applying the grouping constants: two `O(n·d)` segment sums plus a broadcast scale, in
/// place of the two `O(N·n·d)` products with one-hot `(N, n)` matrices that used to
/// dominate the non-score cost of group attention.
fn bench_grouping_constants(c: &mut Criterion) {
    let mut group = c.benchmark_group("grouping_constants");
    group.sample_size(sample_size());
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
        group.bench_with_input(BenchmarkId::new("sparse_segment_sum", n), &n, |b, _| {
            b.iter(|| {
                let sums = x.segment_sum(&g.assignments, n_groups).unwrap();
                let reps = sums.mul(&inv_counts).unwrap();
                let agg = x.segment_sum(&g.assignments, n_groups).unwrap();
                (reps, agg)
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_kmeans_formulations,
    bench_kmeans_iterations,
    bench_kmeans_train_long,
    bench_grouping_constants
);
criterion_main!(benches);
