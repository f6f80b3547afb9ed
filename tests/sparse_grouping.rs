//! Property sweeps for the sparse grouping pipeline (the segment-sum formulation of the
//! paper's §4.4 grouping constants).
//!
//! The dense one-hot `(N, n)` matrix formulation is the exactness oracle,
//! `common::reference_group_attention`: for every configuration the module must
//! reproduce its outputs (and gradients) within `f32` round-off, since both compute the
//! same sums in a different association order. The sweeps run as deterministic seeded
//! loops (no `proptest` in this workspace).

mod common;

use common::fixed_group_attention;
use rand::SeedableRng;
use rita::nn::gradcheck::gradcheck;
use rita::nn::Var;
use rita::tensor::{allclose, NdArray, SeedableRng64};

/// Keys drawn from `protos` prototypes with optional jitter — the periodic layout
/// windowed timeseries produce, including exact duplicates (the empty-cluster regime).
fn periodic_keys(
    b: usize,
    h: usize,
    n: usize,
    dh: usize,
    protos: usize,
    noise: f32,
    seed: u64,
) -> NdArray {
    let mut rng = SeedableRng64::seed_from_u64(seed);
    let prototypes = NdArray::randn(&[protos, dh], 1.0, &mut rng);
    let mut data = Vec::with_capacity(b * h * n * dh);
    for _ in 0..b * h {
        for i in 0..n {
            let p = i % protos;
            let jitter = NdArray::randn(&[dh], noise, &mut rng);
            for j in 0..dh {
                data.push(prototypes.as_slice()[p * dh + j] + jitter.as_slice()[j]);
            }
        }
    }
    NdArray::from_vec(data, &[b, h, n, dh]).unwrap()
}

#[test]
fn sparse_pipeline_matches_dense_oracle_across_configurations() {
    // Sweep batch/head/window/group shapes, duplicate-heavy and noisy key layouts.
    let cases = [
        // (b, h, n, dh, protos, groups, noise)
        (1, 1, 8, 4, 2, 2, 0.0),
        (1, 1, 16, 8, 4, 4, 0.05),
        (2, 2, 24, 4, 3, 5, 0.0), // more groups than distinct keys: re-seeded clusters
        (2, 4, 32, 8, 8, 8, 0.1),
        (3, 2, 20, 16, 5, 4, 0.02),
        (1, 8, 48, 4, 6, 12, 0.3),
        (4, 1, 9, 8, 9, 3, 1.0), // effectively random keys
    ];
    for (case, &(b, h, n, dh, protos, groups, noise)) in cases.iter().enumerate() {
        let seed = 100 + case as u64;
        let mut rng = SeedableRng64::seed_from_u64(seed);
        let q = NdArray::randn(&[b, h, n, dh], 1.0, &mut rng);
        let k = periodic_keys(b, h, n, dh, protos, noise, seed * 7 + 1);
        let v = NdArray::randn(&[b, h, n, dh], 1.0, &mut rng);
        let (qv, kv, vv) = (Var::constant(q), Var::constant(k), Var::constant(v));
        let sparse = fixed_group_attention(&qv, &kv, &vv, groups, 4, false).to_array();
        let dense = fixed_group_attention(&qv, &kv, &vv, groups, 4, true).to_array();
        assert_eq!(sparse.shape(), dense.shape());
        assert!(
            allclose(sparse.as_slice(), dense.as_slice(), 1e-5, 1e-5),
            "case {case} ({b}x{h}x{n}x{dh}, {groups} groups): sparse != dense oracle"
        );
        assert!(!sparse.has_non_finite(), "case {case}: non-finite output");
    }
}

#[test]
fn sparse_pipeline_gradients_match_dense_oracle() {
    for (case, &(b, h, n, dh, protos, groups)) in
        [(1usize, 1usize, 10usize, 4usize, 3usize, 3usize), (2, 2, 14, 4, 4, 5)].iter().enumerate()
    {
        let seed = 200 + case as u64;
        let mut rng = SeedableRng64::seed_from_u64(seed);
        let q0 = NdArray::randn(&[b, h, n, dh], 0.5, &mut rng);
        let k0 = periodic_keys(b, h, n, dh, protos, 0.01, seed * 3 + 1);
        let v0 = NdArray::randn(&[b, h, n, dh], 0.5, &mut rng);
        let grads = |dense: bool| {
            let (q, k, v) = (
                Var::parameter(q0.clone()),
                Var::parameter(k0.clone()),
                Var::parameter(v0.clone()),
            );
            fixed_group_attention(&q, &k, &v, groups, 6, dense).square().sum_all().backward();
            [q.grad().unwrap(), k.grad().unwrap(), v.grad().unwrap()]
        };
        let sparse = grads(false);
        let dense = grads(true);
        for (tensor, (s, d)) in ["q", "k", "v"].iter().zip(sparse.iter().zip(dense.iter())) {
            assert!(
                allclose(s.as_slice(), d.as_slice(), 1e-4, 1e-4),
                "case {case}: {tensor} gradient diverges between sparse and dense paths"
            );
        }
    }
}

#[test]
fn segment_sum_gradcheck_through_attention_shapes() {
    // Finite-difference check of the two sparse operators at the (b, h, n, d) rank the
    // attention pipeline uses.
    let mut rng = SeedableRng64::seed_from_u64(7);
    let x0 = NdArray::randn(&[1, 2, 4, 3], 0.5, &mut rng);
    let segments = [0usize, 1, 0, 1, 1, 0, 1, 1];
    let report = gradcheck(|x| x.segment_sum(&segments[..], 2).square().sum_all(), &x0, 1e-2);
    assert!(report.passes(1e-2, 1e-2), "segment_sum gradcheck failed: {report:?}");

    let y0 = NdArray::randn(&[1, 2, 3, 2], 0.5, &mut rng);
    let indices = [2usize, 0, 1, 1, 1, 0, 2, 2];
    let report = gradcheck(|x| x.gather_rows_batched(&indices[..]).square().sum_all(), &y0, 1e-2);
    assert!(report.passes(1e-2, 1e-2), "gather_rows_batched gradcheck failed: {report:?}");
}
