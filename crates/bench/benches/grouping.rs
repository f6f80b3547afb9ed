//! Criterion micro-benchmarks for the grouping step (§4.4): the matmul-formulated k-means
//! against the naive pairwise-difference formulation (the ablation DESIGN.md calls out
//! for the "GPU friendly" distance formulation), and the cost of the sparse segment-sum
//! pipeline that applies the grouping constants.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::SeedableRng;
use rita_core::group::{kmeans_matmul, kmeans_pairwise};
use rita_tensor::{NdArray, SeedableRng64};

fn keys(n: usize, d: usize) -> NdArray {
    let mut rng = SeedableRng64::seed_from_u64(7);
    NdArray::randn(&[n, d], 1.0, &mut rng)
}

fn bench_kmeans_formulations(c: &mut Criterion) {
    let mut group = c.benchmark_group("kmeans_grouping");
    group.sample_size(10);
    for &n in &[256usize, 1024, 4096] {
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
    group.sample_size(10);
    let x = keys(1024, 32);
    for &iters in &[1usize, 2, 4, 8] {
        group.bench_with_input(BenchmarkId::new("iters", iters), &iters, |b, &iters| {
            b.iter(|| kmeans_matmul(&x, 64, iters));
        });
    }
    group.finish();
}

/// Applying the grouping constants: two `O(n·d)` segment sums plus a broadcast scale, in
/// place of the two `O(N·n·d)` products with one-hot `(N, n)` matrices that used to
/// dominate the non-score cost of group attention.
fn bench_grouping_constants(c: &mut Criterion) {
    let mut group = c.benchmark_group("grouping_constants");
    group.sample_size(10);
    let (d, n_groups) = (32usize, 64usize);
    for &n in &[256usize, 1024, 4096] {
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
    bench_grouping_constants
);
criterion_main!(benches);
