//! Property sweeps for the fused streaming attention kernels.
//!
//! Both attention modules run the fused online-softmax kernel; its one slow twin, the
//! explicit score/softmax chain (over the dense one-hot grouping matrices, for group
//! attention), is `common::reference_attention` / `common::reference_group_attention`.
//! For every configuration — including shapes that are not multiples of the kernel's
//! tile sizes, `d_h = 1`, and strided head-split inputs — the module's output must
//! match the reference within 1e-5 and all three input gradients within 1e-4 (the
//! fused kernel uses a polynomial `exp` with ≈ 4e-6 relative error, and tiles its sums
//! in a different association order).

mod common;

use common::{fixed_group_attention, reference_attention};
use rand::SeedableRng;
use rita::core::attention::{split_heads, Attention, VanillaAttention};
use rita::nn::Var;
use rita::tensor::{allclose, NdArray, SeedableRng64};

fn rng(seed: u64) -> SeedableRng64 {
    SeedableRng64::seed_from_u64(seed)
}

/// Runs `attention` forward + backward on fresh leaves, returning the output and the
/// q/k/v gradients.
fn run(
    q: &NdArray,
    k: &NdArray,
    v: &NdArray,
    attention: impl FnOnce(&Var, &Var, &Var) -> Var,
) -> (NdArray, [NdArray; 3]) {
    let (qv, kv, vv) =
        (Var::parameter(q.clone()), Var::parameter(k.clone()), Var::parameter(v.clone()));
    let out = attention(&qv, &kv, &vv);
    out.sum_all().backward();
    (out.to_array(), [qv.grad().unwrap(), kv.grad().unwrap(), vv.grad().unwrap()])
}

/// One vanilla forward + backward: the module, or the reference chain.
fn run_vanilla(q: &NdArray, k: &NdArray, v: &NdArray, reference: bool) -> (NdArray, [NdArray; 3]) {
    run(q, k, v, |q, k, v| {
        if reference {
            reference_attention(q, k, v, None)
        } else {
            VanillaAttention::new().forward(q, k, v)
        }
    })
}

/// One group forward + backward with a fixed group count: the module, or the reference.
fn run_group(
    q: &NdArray,
    k: &NdArray,
    v: &NdArray,
    groups: usize,
    reference: bool,
) -> (NdArray, [NdArray; 3]) {
    run(q, k, v, |q, k, v| fixed_group_attention(q, k, v, groups, 4, reference))
}

/// Output within 1e-5 and every gradient within 1e-4 of the reference's.
fn assert_matches_reference(
    label: &str,
    (out, grads): &(NdArray, [NdArray; 3]),
    (ref_out, ref_grads): &(NdArray, [NdArray; 3]),
) {
    assert!(
        allclose(out.as_slice(), ref_out.as_slice(), 1e-5, 1e-5),
        "{label}: output disagrees with the reference"
    );
    for (name, (g, r)) in ["dq", "dk", "dv"].iter().zip(grads.iter().zip(ref_grads)) {
        assert!(
            allclose(g.as_slice(), r.as_slice(), 1e-4, 1e-4),
            "{label}: {name} disagrees with the reference"
        );
    }
}

/// Vanilla fused == unfused for outputs and gradients across odd shapes: sequence
/// lengths off every tile boundary (Q_BLOCK = 32, K_BLOCK = 128) and head dims down
/// to 1.
#[test]
fn vanilla_fused_matches_unfused_across_shapes() {
    for &(b, h, n, dh, seed) in &[
        (1usize, 1usize, 1usize, 4usize, 1u64),
        (1, 1, 5, 1, 2),
        (2, 2, 33, 3, 3),
        (1, 2, 64, 8, 4),
        (1, 1, 129, 2, 5),
        (1, 1, 160, 5, 6),
    ] {
        let mut r = rng(seed);
        let q = NdArray::randn(&[b, h, n, dh], 1.0, &mut r);
        let k = NdArray::randn(&[b, h, n, dh], 1.0, &mut r);
        let v = NdArray::randn(&[b, h, n, dh], 1.0, &mut r);
        assert_matches_reference(
            &format!("vanilla (b={b}, h={h}, n={n}, dh={dh})"),
            &run_vanilla(&q, &k, &v, false),
            &run_vanilla(&q, &k, &v, true),
        );
    }
}

/// The fused kernel consumes the strided views produced by `split_heads` directly; the
/// whole head-split → attention → gradient pipeline must match the unfused chain.
#[test]
fn vanilla_fused_matches_unfused_through_split_heads() {
    let (b, n, d_model, heads) = (2usize, 21usize, 12usize, 3usize);
    let mut r = rng(17);
    let q3 = NdArray::randn(&[b, n, d_model], 1.0, &mut r);
    let k3 = NdArray::randn(&[b, n, d_model], 1.0, &mut r);
    let v3 = NdArray::randn(&[b, n, d_model], 1.0, &mut r);
    let through_heads = |reference: bool| {
        run(&q3, &k3, &v3, |q, k, v| {
            let (q, k, v) = (split_heads(q, heads), split_heads(k, heads), split_heads(v, heads));
            if reference {
                reference_attention(&q, &k, &v, None)
            } else {
                VanillaAttention::new().forward(&q, &k, &v)
            }
        })
    };
    assert_matches_reference("split-heads", &through_heads(false), &through_heads(true));
}

/// Group fused == the reference (dense one-hot grouping matrices, explicit weighted
/// softmax) for outputs and gradients, including N = 1, n below/above the key-tile
/// size, and dh = 1.
#[test]
fn group_fused_matches_unfused_across_shapes() {
    for &(b, h, n, dh, groups, seed) in &[
        (1usize, 1usize, 8usize, 4usize, 1usize, 21u64),
        (1, 1, 12, 1, 3, 22),
        (2, 2, 30, 6, 5, 23),
        (1, 2, 50, 3, 7, 24),
        (1, 1, 140, 4, 9, 25),
    ] {
        let mut r = rng(seed);
        let q = NdArray::randn(&[b, h, n, dh], 1.0, &mut r);
        let k = NdArray::randn(&[b, h, n, dh], 1.0, &mut r);
        let v = NdArray::randn(&[b, h, n, dh], 1.0, &mut r);
        assert_matches_reference(
            &format!("group (b={b}, h={h}, n={n}, dh={dh}, N={groups})"),
            &run_group(&q, &k, &v, groups, false),
            &run_group(&q, &k, &v, groups, true),
        );
    }
}

/// The module (fused kernel over sparse segment sums) and the reference (explicit chain
/// over the dense one-hot matrices) on a multi-batch, multi-head configuration.
#[test]
fn group_fused_sparse_and_dense_all_agree() {
    let (b, h, n, dh, groups) = (2usize, 2usize, 24usize, 4usize, 4usize);
    let mut r = rng(31);
    let q = NdArray::randn(&[b, h, n, dh], 1.0, &mut r);
    let k = NdArray::randn(&[b, h, n, dh], 1.0, &mut r);
    let v = NdArray::randn(&[b, h, n, dh], 1.0, &mut r);
    assert_matches_reference(
        "fused sparse vs dense reference",
        &run_group(&q, &k, &v, groups, false),
        &run_group(&q, &k, &v, groups, true),
    );
}

/// The fused vanilla path must still satisfy the softmax sanity property: uniform keys
/// average the values exactly.
#[test]
fn fused_vanilla_uniform_keys_average_values() {
    let q = NdArray::ones(&[1, 1, 3, 2]);
    let k = NdArray::ones(&[1, 1, 4, 2]);
    let v = NdArray::from_vec(vec![1.0, 0.0, 2.0, 0.0, 3.0, 0.0, 6.0, 4.0], &[1, 1, 4, 2]).unwrap();
    let mut attn = VanillaAttention::new();
    let o = attn.forward(&Var::constant(q), &Var::constant(k), &Var::constant(v)).to_array();
    for row in 0..3 {
        assert!((o.get(&[0, 0, row, 0]).unwrap() - 3.0).abs() < 1e-4);
        assert!((o.get(&[0, 0, row, 1]).unwrap() - 1.0).abs() < 1e-4);
    }
}
