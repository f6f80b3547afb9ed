//! Layer probes: each public entry point called in isolation, at least
//! [`MIN_CALLS`] times, on tensors of exactly a workload's shapes; the median is
//! reported. Multiplied by calls-per-operation from the model config, a probe gives
//! the layer's share of `op_ms_p50`.

use std::hint::black_box;
use std::time::{Duration, Instant};

use rand::Rng;
use rita_core::attention::{Attention, GroupAttention, GroupAttentionConfig};
use rita_core::group::group_key_blocks;
use rita_core::scheduler::{distance_threshold, key_ball_radius, mergeable_count};
use rita_nn::{no_grad, Var};
use rita_tensor::{fused_attention, fused_attention_backward, NdArray, QuantMatrix};

use crate::stats::median;

/// Calls per probe.
pub const MIN_CALLS: usize = 30;

/// Longest a single probe may run; a probe that would exceed it stops early but never
/// below [`FLOOR_CALLS`] calls.
const PROBE_BUDGET: Duration = Duration::from_millis(1500);
const FLOOR_CALLS: usize = 7;

/// Median wall time of `f` in milliseconds over [`MIN_CALLS`] calls (fewer when the
/// probe's time budget runs out first), after one unmeasured call that fills pools
/// and caches. Each result is handed to `after` outside the timing (a started server
/// must be shut down again).
pub fn probe_then<T>(mut f: impl FnMut() -> T, mut after: impl FnMut(T)) -> f64 {
    after(f());
    let started = Instant::now();
    let mut samples = Vec::with_capacity(MIN_CALLS);
    while samples.len() < MIN_CALLS
        && (samples.len() < FLOOR_CALLS || started.elapsed() < PROBE_BUDGET)
    {
        let t = Instant::now();
        let value = f();
        samples.push(t.elapsed().as_secs_f64() * 1e3);
        after(value);
    }
    median(&samples)
}

/// [`probe_then`] for a call whose result needs no clean-up.
pub fn probe_ms(f: impl FnMut()) -> f64 {
    probe_then(f, |()| ())
}

/// Tensor shapes of one attention layer on one workload.
#[derive(Debug, Clone, Copy)]
pub struct Shapes {
    /// Series per batch.
    pub batch: usize,
    /// Attention heads.
    pub heads: usize,
    /// Tokens per series: windows plus the `[CLS]` token.
    pub tokens: usize,
    /// Per-head feature size.
    pub d_head: usize,
    /// Group count N.
    pub groups: usize,
    /// Model width.
    pub d_model: usize,
    /// Feed-forward hidden width.
    pub ff_hidden: usize,
    /// k-means refinement iterations per forward.
    pub kmeans_iters: usize,
    /// Error bound ε handed to the merge scheduler.
    pub epsilon: f32,
}

/// Median times of the kernels under one encoder layer, in milliseconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct KernelTimes {
    /// `GroupAttention::forward` on `(b, h, n, d_head)` `Var`s.
    pub attention_fwd_ms: f64,
    /// `group_key_blocks(keys, N, iters)`.
    pub kmeans_ms: f64,
    /// `key_ball_radius` plus `mergeable_count` over every grouping.
    pub merge_ms: f64,
    /// `fused_attention` with group weights.
    pub fused_fwd_ms: f64,
    /// `fused_attention_backward`.
    pub fused_bwd_ms: f64,
    /// Bytes the fused forward must move, computed from the shapes (not counted by
    /// the kernel), over its time.
    pub fused_gbytes_per_s: f64,
    /// `NdArray::segment_sum` of `(b, h, n, d_head)` into N groups.
    pub segment_sum_ms: f64,
    /// `matmul` at `(b·n, d, d)`.
    pub gemm_proj_ms: f64,
    /// `matmul` at `(b·n, d, ff)`.
    pub gemm_ffn_ms: f64,
    /// `matmul_nt` at the FFN's input-gradient shape `(b·n, ff) · (d, ff)ᵀ`.
    pub gemm_nt_ms: f64,
    /// Achieved rate of the FFN `matmul`.
    pub gemm_gflops: f64,
    /// `matmul_quant` at `(b·n, d, d)`; 0 unless the workload serves int8.
    pub qgemm_proj_ms: f64,
    /// `matmul_quant` at `(b·n, d, ff)`.
    pub qgemm_ffn_ms: f64,
    /// Achieved rate of the FFN `matmul_quant`.
    pub qgemm_gops: f64,
}

impl KernelTimes {
    /// Attention forward time not explained by the kernels it calls.
    pub fn attention_self_ms(&self) -> f64 {
        self.attention_fwd_ms
            - self.kmeans_ms
            - self.merge_ms
            - 2.0 * self.segment_sum_ms
            - self.fused_fwd_ms
    }

    /// Time of the six dense products of one encoder layer's forward (Q, K, V and
    /// output projections, two FFN products), through `matmul` or `matmul_quant`.
    pub fn layer_gemm_ms(&self, int8: bool) -> f64 {
        if int8 {
            4.0 * self.qgemm_proj_ms + 2.0 * self.qgemm_ffn_ms
        } else {
            4.0 * self.gemm_proj_ms + 2.0 * self.gemm_ffn_ms
        }
    }
}

/// Probes every kernel under one encoder layer at `s`. `training` builds the autograd
/// tape in the attention probe as a training step does; serving probes run it under
/// `no_grad`. `int8` adds the quantized products.
pub fn probe_kernels(s: Shapes, training: bool, int8: bool, rng: &mut impl Rng) -> KernelTimes {
    let Shapes {
        batch: b, heads: h, tokens: n, d_head: dh, groups, d_model: d, ff_hidden: ff, ..
    } = s;
    let groups = groups.clamp(1, n);
    let qkv = [b, h, n, dh];
    let (q, k, v) = (
        NdArray::randn(&qkv, 1.0, rng),
        NdArray::randn(&qkv, 1.0, rng),
        NdArray::randn(&qkv, 1.0, rng),
    );
    let mut out = KernelTimes::default();

    let mut attention = GroupAttention::new(GroupAttentionConfig {
        epsilon: s.epsilon,
        initial_groups: groups,
        kmeans_iters: s.kmeans_iters,
        ..Default::default()
    });
    out.attention_fwd_ms = probe_ms(|| {
        // The scheduler may shrink N after a forward; every call is probed at the
        // workload's N.
        attention.set_groups(groups);
        let run = |a: &mut GroupAttention| {
            let leaf = |x: &NdArray| Var::leaf(x.clone(), training);
            black_box(a.forward(&leaf(&q), &leaf(&k), &leaf(&v)));
        };
        if training {
            run(&mut attention);
        } else {
            no_grad(|| run(&mut attention));
        }
    });

    out.kmeans_ms = probe_ms(|| {
        black_box(group_key_blocks(&k, groups, s.kmeans_iters));
    });
    let groupings = group_key_blocks(&k, groups, s.kmeans_iters);
    out.merge_ms = probe_ms(|| {
        let threshold = distance_threshold(s.epsilon, key_ball_radius(&k));
        let merged: usize = groupings.iter().map(|g| mergeable_count(g, threshold)).sum();
        black_box(merged);
    });

    let segments: Vec<usize> =
        groupings.iter().flat_map(|g| g.assignments.iter().copied()).collect();
    out.segment_sum_ms = probe_ms(|| {
        black_box(k.segment_sum(&segments, groups).expect("segment_sum probe"));
    });

    let reps = k.segment_sum(&segments, groups).expect("representative keys");
    let agg = v.segment_sum(&segments, groups).expect("aggregated values");
    let counts: Vec<f32> =
        groupings.iter().flat_map(|g| g.counts.iter().map(|&c| c as f32)).collect();
    let weights = NdArray::from_vec(counts, &[b, h, groups]).expect("group weights");
    let scale = 1.0 / (dh as f32).sqrt();
    out.fused_fwd_ms = probe_ms(|| {
        black_box(fused_attention(&q, &reps, &agg, scale, Some(&weights)).expect("fused fwd"));
    });
    let fwd = fused_attention(&q, &reps, &agg, scale, Some(&weights)).expect("fused fwd");
    let gout = NdArray::randn(&qkv, 1.0, rng);
    out.fused_bwd_ms = probe_ms(|| {
        black_box(
            fused_attention_backward(
                &q,
                &reps,
                &agg,
                Some(&weights),
                scale,
                &fwd.out,
                &fwd.lse,
                &gout,
            )
            .expect("fused bwd"),
        );
    });
    // q and out are (b,h,n,dh); K and V panels are (b,h,N,dh); lse is (b,h,n); the
    // weights are (b,h,N). Four bytes each.
    let fused_bytes = 4 * b * h * (2 * n * dh + 2 * groups * dh + n + groups);
    out.fused_gbytes_per_s = fused_bytes as f64 / (out.fused_fwd_ms * 1e-3) / 1e9;

    let rows = b * n;
    let x = NdArray::randn(&[rows, d], 1.0, rng);
    let w_proj = NdArray::randn(&[d, d], 0.1, rng);
    let w_ffn = NdArray::randn(&[d, ff], 0.1, rng);
    let g_ffn = NdArray::randn(&[rows, ff], 1.0, rng);
    out.gemm_proj_ms = probe_ms(|| {
        black_box(x.matmul(&w_proj).expect("proj matmul"));
    });
    out.gemm_ffn_ms = probe_ms(|| {
        black_box(x.matmul(&w_ffn).expect("ffn matmul"));
    });
    out.gemm_nt_ms = probe_ms(|| {
        black_box(g_ffn.matmul_nt(&w_ffn).expect("ffn matmul_nt"));
    });
    let ffn_ops = 2.0 * rows as f64 * d as f64 * ff as f64;
    out.gemm_gflops = ffn_ops / (out.gemm_ffn_ms * 1e-3) / 1e9;

    if int8 {
        let q_proj = QuantMatrix::quantize(w_proj.as_slice(), d, d);
        let q_ffn = QuantMatrix::quantize(w_ffn.as_slice(), d, ff);
        out.qgemm_proj_ms = probe_ms(|| {
            black_box(x.matmul_quant(&q_proj).expect("proj matmul_quant"));
        });
        out.qgemm_ffn_ms = probe_ms(|| {
            black_box(x.matmul_quant(&q_ffn).expect("ffn matmul_quant"));
        });
        out.qgemm_gops = ffn_ops / (out.qgemm_ffn_ms * 1e-3) / 1e9;
    }
    out
}

impl KernelTimes {
    /// The kernel rows of the per-layer metric list.
    pub fn metrics(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("core.attention.fwd_ms", self.attention_fwd_ms),
            ("core.attention.self_ms", self.attention_self_ms()),
            ("core.group.kmeans_ms", self.kmeans_ms),
            ("core.scheduler.merge_ms", self.merge_ms),
            ("tensor.fused.fwd_ms", self.fused_fwd_ms),
            ("tensor.fused.bwd_ms", self.fused_bwd_ms),
            ("tensor.fused.gbytes_per_s", self.fused_gbytes_per_s),
            ("tensor.segment.sum_ms", self.segment_sum_ms),
            ("tensor.gemm.proj_ms", self.gemm_proj_ms),
            ("tensor.gemm.ffn_ms", self.gemm_ffn_ms),
            ("tensor.gemm.nt_ms", self.gemm_nt_ms),
            ("tensor.gemm.gflops", self.gemm_gflops),
            ("tensor.qgemm.proj_ms", self.qgemm_proj_ms),
            ("tensor.qgemm.ffn_ms", self.qgemm_ffn_ms),
            ("tensor.qgemm.gops", self.qgemm_gops),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_takes_the_median_of_enough_calls() {
        let mut calls = 0;
        let ms = probe_ms(|| calls += 1);
        assert_eq!(calls, MIN_CALLS + 1);
        assert!((0.0..1.0).contains(&ms));
    }

    #[test]
    fn kernel_probes_run_at_small_shapes() {
        let shapes = Shapes {
            batch: 2,
            heads: 2,
            tokens: 13,
            d_head: 8,
            groups: 4,
            d_model: 16,
            ff_hidden: 32,
            kmeans_iters: 2,
            epsilon: 2.0,
        };
        let mut rng = rita_tensor::rng_from_seed(3);
        let t = probe_kernels(shapes, true, true, &mut rng);
        for (name, value) in t.metrics() {
            assert!(value.is_finite(), "{name} = {value}");
        }
        assert!(t.fused_fwd_ms > 0.0 && t.qgemm_ffn_ms > 0.0 && t.gemm_gflops > 0.0);
        assert!(t.layer_gemm_ms(false) > 0.0 && t.layer_gemm_ms(true) > 0.0);
    }
}
