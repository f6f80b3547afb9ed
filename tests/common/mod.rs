//! Helpers shared by the integration tests. Each `tests/*.rs` is its own crate and uses
//! some of them, hence the `dead_code` allowance.
#![allow(dead_code)]

use rita::core::attention::{Attention, GroupAttention, GroupAttentionConfig};
use rita::core::group::group_key_blocks;
use rita::core::tasks::Classifier;
use rita::nn::optim::AdamW;
use rita::nn::{Module, Var};
use rita::tensor::NdArray;

/// The one slow twin of the fused attention kernel: `softmax(Q·Kᵀ/√d)·V` on
/// `(batch, heads, windows, head_dim)` tensors as an explicit chain of `Var` ops that
/// materialises the score matrix, so its gradients compare with the kernel's too.
/// `counts`, shaped `(batch, heads, 1, keys)`, weights each key's exponential in the
/// normaliser only: the group softmax of §4.2. The detached row maximum cancels
/// between numerator and denominator.
pub fn reference_attention(q: &Var, k: &Var, v: &Var, counts: Option<NdArray>) -> Var {
    let dh = *q.shape().last().unwrap() as f32;
    let scores = q.matmul_nt_scaled(k, 1.0 / dh.sqrt());
    let row_max = scores.to_array().max_axis(3, true).unwrap();
    let exp = scores.sub(&Var::constant(row_max)).exp();
    let weighted = match counts {
        Some(counts) => exp.mul(&Var::constant(counts)),
        None => exp.clone(),
    };
    exp.div(&weighted.sum_axis(3)).matmul(v)
}

/// Group attention in the paper's matrix formulation (§4.2, §4.4), the oracle for
/// `GroupAttention::forward`: per `(batch, head)` the one-hot `(N, n)` averaging matrix
/// `S` (`S[g, i] = 1/count_g` for a member `i` of group `g`) and summation matrix `M`
/// (`M[g, i] = 1`) give the representatives `S·K` and the aggregated values `M·V` as two
/// `O(N·n·d)` products, followed by [`reference_attention`] with the group counts. The
/// clustering is the module's own (`group_key_blocks` is deterministic).
pub fn reference_group_attention(
    q: &Var,
    k: &Var,
    v: &Var,
    n_groups: usize,
    kmeans_iters: usize,
) -> Var {
    let shape = k.shape();
    let (b, h, n) = (shape[0], shape[1], shape[2]);
    let groupings = group_key_blocks(&k.to_array(), n_groups, kmeans_iters);
    let mut averaging = vec![0.0f32; b * h * n_groups * n];
    let mut summation = vec![0.0f32; b * h * n_groups * n];
    let mut counts = Vec::with_capacity(b * h * n_groups);
    for (block, grouping) in groupings.iter().enumerate() {
        for (i, &g) in grouping.assignments.iter().enumerate() {
            let at = (block * n_groups + g) * n + i;
            averaging[at] = 1.0 / grouping.counts[g] as f32;
            summation[at] = 1.0;
        }
        counts.extend(grouping.counts.iter().map(|&c| c as f32));
    }
    let matrix = |m: Vec<f32>| Var::constant(NdArray::from_vec(m, &[b, h, n_groups, n]).unwrap());
    let representatives = matrix(averaging).matmul(k);
    let aggregated = matrix(summation).matmul(v);
    let counts = NdArray::from_vec(counts, &[b, h, 1, n_groups]).unwrap();
    reference_attention(q, &representatives, &aggregated, Some(counts))
}

/// Group attention with a fixed group count, by the module (sparse segment sums, fused
/// kernel) or, with `reference`, by [`reference_group_attention`] on the group count the
/// module uses.
pub fn fixed_group_attention(
    q: &Var,
    k: &Var,
    v: &Var,
    groups: usize,
    kmeans_iters: usize,
    reference: bool,
) -> Var {
    let mut attn = GroupAttention::new(GroupAttentionConfig {
        initial_groups: groups,
        adaptive: false,
        kmeans_iters,
        ..Default::default()
    });
    if reference {
        reference_group_attention(q, k, v, attn.effective_groups(q.shape()[2]), kmeans_iters)
    } else {
        attn.forward(q, k, v)
    }
}

/// Every parameter, scheduler target and AdamW moment of two training runs equal to
/// the last bit.
pub fn assert_same_training_state(a: &Classifier, a_opt: &AdamW, b: &Classifier, b_opt: &AdamW) {
    let (a_params, b_params) = (a.named_parameters(), b.named_parameters());
    assert_eq!(a_params.len(), b_params.len());
    for ((pa, va), (pb, vb)) in a_params.iter().zip(&b_params) {
        assert_eq!(pa, pb);
        assert_eq!(va.to_array().as_slice(), vb.to_array().as_slice(), "parameter '{pa}' diverged");
    }
    assert_eq!(a.model.scheduler_state(), b.model.scheduler_state());
    let (sa, sb) = (a_opt.state(), b_opt.state());
    assert_eq!(sa.steps, sb.steps);
    for ((pa, ma, va), (pb, mb, vb)) in sa.moments.iter().zip(&sb.moments) {
        assert_eq!(pa, pb);
        assert_eq!(ma.as_slice(), mb.as_slice(), "first moment '{pa}' diverged");
        assert_eq!(va.as_slice(), vb.as_slice(), "second moment '{pa}' diverged");
    }
}
