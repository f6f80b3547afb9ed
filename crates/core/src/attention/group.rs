//! Group attention — the paper's core contribution (§4).
//!
//! Windows are clustered by key similarity into `N` groups; attention is computed against
//! one *representative key* per group (the centroid), producing an `n × N` group attention
//! matrix instead of the `n × n` full matrix. Two ingredients make the result equal to
//! what the restored full matrix would give (§4.2, Appendix A.4):
//!
//! * **Group softmax** — each group's exponentiated score is weighted by the group size
//!   `count_k` in the normaliser, so the compressed matrix normalises exactly like the
//!   full one would.
//! * **Embedding aggregation** — member value vectors are summed per group *before* the
//!   final product, so each window still receives its own output embedding.
//!
//! The number of groups is managed by the adaptive scheduler (§5.1): it starts large and
//! shrinks whenever clusters can be merged without violating the user's error bound ε
//! (Lemmas 1 & 2), with a momentum update smoothing the trajectory.
//!
//! The grouping constants are applied **sparsely**: instead of materialising the one-hot
//! `(N, n)` averaging/summation matrices per `(batch, head)` and paying two `O(N·n·d)`
//! products, the representatives and aggregated values are computed with one
//! `segment_sum` each (`O(n·d)`, keeping the total grouped-attention cost dominated by
//! the `n×N` score/output products exactly as §4.4 intends), and the group softmax runs
//! in the fused streaming kernel. The paper's matrix formulation (one-hot matrices, then
//! the explicit count-weighted softmax chain) is the exactness oracle of the property
//! tests and lives with them, in `tests/common`.

use super::Attention;
use crate::group::{group_key_blocks, group_layout, GroupLayout, Grouping};
use crate::scheduler::error_bound::{distance_threshold, key_ball_radius};
use crate::scheduler::merge::{mergeable_count, momentum_update};
use rita_nn::Var;
use rita_tensor::NdArray;

/// Configuration of a group-attention module.
#[derive(Debug, Clone, Copy)]
pub struct GroupAttentionConfig {
    /// Approximation error bound ε (> 1) handed to the adaptive scheduler.
    pub epsilon: f32,
    /// Number of groups to start with (clamped to the number of windows at run time).
    pub initial_groups: usize,
    /// Lower bound on the number of groups the scheduler may reach.
    pub min_groups: usize,
    /// Whether the adaptive scheduler is allowed to change the group count. With
    /// `adaptive = false` the module reproduces the paper's "fixed N" ablation baseline.
    pub adaptive: bool,
    /// k-means refinement iterations per forward pass (the paper uses a small constant).
    pub kmeans_iters: usize,
    /// Momentum α of the group-count update.
    pub momentum_alpha: f32,
}

impl Default for GroupAttentionConfig {
    fn default() -> Self {
        Self {
            epsilon: 2.0,
            initial_groups: 64,
            min_groups: 2,
            adaptive: true,
            kmeans_iters: 2,
            momentum_alpha: 0.5,
        }
    }
}

/// Observable state of a group-attention module, reported by the ablation experiments
/// (Table 4) and the scalability study (Fig. 4).
#[derive(Debug, Clone, Copy, Default)]
pub struct GroupAttentionStats {
    /// Group count used by the most recent forward pass.
    pub current_groups: usize,
    /// Clusters merged away (averaged over batch × heads) at the last scheduler update.
    pub last_merged: f32,
    /// Largest key-to-representative distance observed at the last forward pass.
    pub last_max_radius: f32,
    /// Distance threshold `d` derived from ε and the key-ball radius at the last pass.
    pub last_distance_threshold: f32,
    /// Number of forward passes performed.
    pub forward_calls: usize,
}

/// The group-attention mechanism with its adaptive scheduler state.
pub struct GroupAttention {
    /// Static configuration.
    pub config: GroupAttentionConfig,
    /// Real-valued group count maintained by the momentum update.
    n_groups: f32,
    /// Latest statistics.
    pub stats: GroupAttentionStats,
}

impl GroupAttention {
    /// Creates a group-attention module.
    pub fn new(config: GroupAttentionConfig) -> Self {
        assert!(config.epsilon > 1.0, "error bound epsilon must be > 1");
        assert!(config.initial_groups >= 1, "need at least one group");
        Self {
            config,
            n_groups: config.initial_groups as f32,
            stats: GroupAttentionStats::default(),
        }
    }

    /// Group count that the next forward pass will use for `n` windows.
    pub fn effective_groups(&self, n_windows: usize) -> usize {
        effective_groups(self.n_groups, self.config.min_groups, n_windows)
    }

    /// Current (real-valued) scheduler group count.
    pub fn scheduled_groups(&self) -> f32 {
        self.n_groups
    }

    /// Overrides the scheduler state (used by the fixed-N ablation harness).
    pub fn set_groups(&mut self, n: usize) {
        self.n_groups = n as f32;
    }

    /// Runs the adaptive scheduler (§5.1) after a forward pass.
    fn update_scheduler(&mut self, groupings: &[Grouping], keys: &NdArray) {
        let radius = key_ball_radius(keys);
        let d = distance_threshold(self.config.epsilon, radius);
        self.stats.last_distance_threshold = d;
        self.stats.last_max_radius = groupings.iter().map(Grouping::max_radius).fold(0.0, f32::max);
        if !self.config.adaptive {
            self.stats.last_merged = 0.0;
            return;
        }
        let total_merged: usize = groupings.iter().map(|g| mergeable_count(g, d)).sum();
        let avg_merged = total_merged as f32 / groupings.len().max(1) as f32;
        self.stats.last_merged = avg_merged;
        let updated =
            momentum_update(self.n_groups, avg_merged.round() as usize, self.config.momentum_alpha);
        // Persistent state is floored at `min_groups` but deliberately NOT clamped to
        // this series' window count: the window count is a property of one series, not
        // of the schedule, and since the momentum update can never raise the count
        // again, absorbing one short series would permanently collapse the schedule for
        // every longer series that follows. `effective_groups` clamps the per-forward
        // count instead. (The old ceiling also made `f32::clamp` panic — min > max —
        // whenever a series had fewer windows than `min_groups`.)
        self.n_groups = updated.max(self.config.min_groups as f32);
    }
}

/// The group count a forward over `n_windows` windows uses for the scheduler target
/// `target`: the rounded target, clamped to this series' window count.
pub fn effective_groups(target: f32, min_groups: usize, n_windows: usize) -> usize {
    (target.round() as usize).clamp(min_groups.min(n_windows), n_windows)
}

/// Group attention over head-split `(batch, heads, windows, head_dim)` tensors with
/// `n_groups` groups: the one body behind [`GroupAttention::forward`] and the graph
/// interpreter's `Attention` node. Returns the output and the groupings it used.
pub(crate) fn group_attention(
    q: &Var,
    k: &Var,
    v: &Var,
    n_groups: usize,
    kmeans_iters: usize,
) -> (Var, Vec<Grouping>) {
    let shape = q.shape();
    let (b, h, dh) = (shape[0], shape[1], shape[3]);

    // 1. Group the (detached) keys through the shared grouping entry point, which the
    //    tape-free inference engine also uses — identical clusterings by construction.
    //    Grouping is a discrete decision, so no gradient flows through the cluster
    //    assignment itself — but the representative keys are centroids (per-group means
    //    of K), so gradients still reach K.
    let groupings = group_key_blocks(&k.to_array(), n_groups, kmeans_iters);

    // 2. Representative keys R = S · K and aggregated values Ṽ = M · V, both
    //    (batch, heads, N, dh), each realised as one segment sum — O(n·dh) per
    //    (batch, head) with no intermediate — instead of the O(N·n·dh) products with
    //    the one-hot (N, n) matrices the paper's matrix formulation describes. One
    //    shared allocation of the assignments feeds both segment sums (and their
    //    backward closures) instead of two copies.
    let GroupLayout { segments, weights, inv_counts } = group_layout(&groupings, b, h, n_groups);
    let segments: std::sync::Arc<[usize]> = segments.into();
    let representatives = k.segment_sum(segments.clone(), n_groups).mul(&Var::constant(inv_counts));
    let aggregated_values = v.segment_sum(segments, n_groups);

    // 3–5. Score matrix P̃ = Q · Rᵀ / √d_k, group softmax (Eq. 3), and the final
    //    embedding-aggregation product O = Ã · Ṽ, in the fused streaming kernel: the
    //    `count_k` weights are folded into its online-softmax denominator, so the
    //    `(b, h, n, N)` score matrix is never materialised and the backward recomputes
    //    per-tile scores.
    let scale = 1.0 / (dh as f32).sqrt();
    let output = q.fused_group_attention(&representatives, &aggregated_values, scale, weights);
    (output, groupings)
}

impl Attention for GroupAttention {
    fn forward(&mut self, q: &Var, k: &Var, v: &Var) -> Var {
        let shape = q.shape();
        assert_eq!(shape.len(), 4, "group attention expects (batch, heads, windows, head_dim)");
        let n_groups = self.effective_groups(shape[2]);
        let (output, groupings) = group_attention(q, k, v, n_groups, self.config.kmeans_iters);

        // 6. Adaptive scheduling for the next iteration.
        self.stats.current_groups = n_groups;
        self.stats.forward_calls += 1;
        self.update_scheduler(&groupings, &k.to_array());

        output
    }

    fn name(&self) -> &'static str {
        "Group Attn."
    }

    fn group_stats(&self) -> Option<GroupAttentionStats> {
        Some(self.stats)
    }

    fn scheduled_group_target(&self) -> Option<f32> {
        Some(self.scheduled_groups())
    }

    fn set_group_count(&mut self, n: usize) {
        self.set_groups(n);
    }

    fn restore_scheduled_target(&mut self, target: f32) {
        self.n_groups = target.max(self.config.min_groups as f32).max(1.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attention::vanilla::VanillaAttention;
    use rand::SeedableRng;
    use rita_tensor::{allclose, NdArray, SeedableRng64};

    fn rng(seed: u64) -> SeedableRng64 {
        SeedableRng64::seed_from_u64(seed)
    }

    /// Builds keys with exactly `groups` distinct rows repeated across `n` windows, so the
    /// grouping is exact and group attention must equal vanilla attention (Lemma 3 /
    /// Appendix A.4).
    fn duplicated_keys(
        b: usize,
        h: usize,
        n: usize,
        dh: usize,
        groups: usize,
        seed: u64,
    ) -> NdArray {
        let mut r = rng(seed);
        let prototypes = NdArray::randn(&[groups, dh], 1.0, &mut r);
        let mut data = Vec::with_capacity(b * h * n * dh);
        for _ in 0..b * h {
            for i in 0..n {
                let p = i % groups;
                data.extend_from_slice(&prototypes.as_slice()[p * dh..(p + 1) * dh]);
            }
        }
        NdArray::from_vec(data, &[b, h, n, dh]).unwrap()
    }

    #[test]
    fn exactly_matches_vanilla_when_keys_are_shared() {
        let (b, h, n, dh, groups) = (2, 2, 12, 4, 3);
        let mut r = rng(1);
        let q = Var::constant(NdArray::randn(&[b, h, n, dh], 1.0, &mut r));
        let k = Var::constant(duplicated_keys(b, h, n, dh, groups, 2));
        let v = Var::constant(NdArray::randn(&[b, h, n, dh], 1.0, &mut r));

        let mut vanilla = VanillaAttention::new();
        let exact = vanilla.forward(&q, &k, &v).to_array();

        let mut group = GroupAttention::new(GroupAttentionConfig {
            initial_groups: groups,
            adaptive: false,
            kmeans_iters: 8,
            ..Default::default()
        });
        let approx = group.forward(&q, &k, &v).to_array();

        assert!(
            allclose(exact.as_slice(), approx.as_slice(), 1e-4, 1e-4),
            "group attention must equal vanilla attention when keys are exactly shared"
        );
    }

    #[test]
    fn output_shape_and_finiteness() {
        let mut r = rng(3);
        let q = Var::constant(NdArray::randn(&[2, 2, 16, 8], 1.0, &mut r));
        let k = Var::constant(NdArray::randn(&[2, 2, 16, 8], 1.0, &mut r));
        let v = Var::constant(NdArray::randn(&[2, 2, 16, 8], 1.0, &mut r));
        let mut attn =
            GroupAttention::new(GroupAttentionConfig { initial_groups: 4, ..Default::default() });
        let o = attn.forward(&q, &k, &v);
        assert_eq!(o.shape(), vec![2, 2, 16, 8]);
        assert!(!o.to_array().has_non_finite());
        assert_eq!(attn.stats.current_groups, 4);
        assert_eq!(attn.stats.forward_calls, 1);
    }

    #[test]
    fn close_to_vanilla_for_clustered_keys() {
        // Keys form tight clusters (periodic windows): the approximation should be close
        // even though keys are not exactly shared.
        let (b, h, n, dh) = (1, 1, 24, 4);
        let mut r = rng(5);
        let prototypes = NdArray::randn(&[4, dh], 1.0, &mut r);
        let mut data = Vec::new();
        for i in 0..n {
            let p = i % 4;
            let noise = NdArray::randn(&[dh], 0.005, &mut r);
            for j in 0..dh {
                data.push(prototypes.as_slice()[p * dh + j] + noise.as_slice()[j]);
            }
        }
        let k = Var::constant(NdArray::from_vec(data, &[b, h, n, dh]).unwrap());
        let q = Var::constant(NdArray::randn(&[b, h, n, dh], 1.0, &mut r));
        let v = Var::constant(NdArray::randn(&[b, h, n, dh], 1.0, &mut r));

        let exact = VanillaAttention::new().forward(&q, &k, &v).to_array();
        let mut group = GroupAttention::new(GroupAttentionConfig {
            initial_groups: 4,
            adaptive: false,
            kmeans_iters: 8,
            ..Default::default()
        });
        let approx = group.forward(&q, &k, &v).to_array();
        let max_err = exact
            .as_slice()
            .iter()
            .zip(approx.as_slice())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max);
        assert!(max_err < 0.2, "max err {max_err}");
    }

    #[test]
    fn gradients_flow_to_q_k_v() {
        let mut r = rng(7);
        let q = Var::parameter(NdArray::randn(&[1, 2, 10, 4], 0.5, &mut r));
        let k = Var::parameter(NdArray::randn(&[1, 2, 10, 4], 0.5, &mut r));
        let v = Var::parameter(NdArray::randn(&[1, 2, 10, 4], 0.5, &mut r));
        let mut attn =
            GroupAttention::new(GroupAttentionConfig { initial_groups: 3, ..Default::default() });
        attn.forward(&q, &k, &v).sum_all().backward();
        for (name, p) in [("q", &q), ("k", &k), ("v", &v)] {
            let g = p.grad().unwrap_or_else(|| panic!("no grad for {name}"));
            assert!(g.norm() > 0.0, "zero grad for {name}");
            assert!(!g.has_non_finite(), "non-finite grad for {name}");
        }
    }

    #[test]
    fn adaptive_scheduler_shrinks_groups_for_redundant_keys() {
        // All keys nearly identical: the scheduler should merge aggressively.
        let mut r = rng(9);
        let base = NdArray::randn(&[1, 1, 1, 4], 1.0, &mut r);
        let mut data = Vec::new();
        for _ in 0..32 {
            for j in 0..4 {
                data.push(base.as_slice()[j] + 0.001 * (j as f32));
            }
        }
        let k = Var::constant(NdArray::from_vec(data, &[1, 1, 32, 4]).unwrap());
        let q = Var::constant(NdArray::randn(&[1, 1, 32, 4], 1.0, &mut r));
        let v = Var::constant(NdArray::randn(&[1, 1, 32, 4], 1.0, &mut r));
        let mut attn = GroupAttention::new(GroupAttentionConfig {
            initial_groups: 16,
            adaptive: true,
            momentum_alpha: 1.0,
            kmeans_iters: 4,
            ..Default::default()
        });
        let before = attn.effective_groups(32);
        let _ = attn.forward(&q, &k, &v);
        let after = attn.effective_groups(32);
        assert!(after < before, "scheduler should merge redundant groups: {before} -> {after}");
        assert!(attn.stats.last_merged > 0.0);
    }

    #[test]
    fn fixed_mode_keeps_group_count() {
        let mut r = rng(11);
        let q = Var::constant(NdArray::randn(&[1, 1, 16, 4], 1.0, &mut r));
        let k = Var::constant(NdArray::full(&[1, 1, 16, 4], 0.5));
        let v = Var::constant(NdArray::randn(&[1, 1, 16, 4], 1.0, &mut r));
        let mut attn = GroupAttention::new(GroupAttentionConfig {
            initial_groups: 8,
            adaptive: false,
            ..Default::default()
        });
        for _ in 0..3 {
            let _ = attn.forward(&q, &k, &v);
        }
        assert_eq!(attn.effective_groups(16), 8);
        attn.set_groups(4);
        assert_eq!(attn.effective_groups(16), 4);
    }

    #[test]
    #[should_panic(expected = "epsilon must be > 1")]
    fn rejects_invalid_epsilon() {
        let _ = GroupAttention::new(GroupAttentionConfig { epsilon: 0.5, ..Default::default() });
    }

    /// Forces the multi-worker grouping fan-out (which the single-CPU CI box never
    /// triggers through `group_all`'s budget) and checks it reproduces the serial
    /// clusterings block for block. k-means is deterministic, so equality is exact.
    #[test]
    fn parallel_grouping_matches_serial() {
        use crate::group::group_key_blocks_threaded;
        let (b, h, n, dh, groups) = (2, 3, 24, 4, 4);
        let keys = duplicated_keys(b, h, n, dh, groups, 51);
        let serial = group_key_blocks_threaded(&keys, groups, 4, 1);
        for threads in [2usize, 4, 6] {
            let parallel = group_key_blocks_threaded(&keys, groups, 4, threads);
            assert_eq!(parallel.len(), serial.len());
            for (block, (p, s)) in parallel.iter().zip(&serial).enumerate() {
                assert_eq!(p.assignments, s.assignments, "block {block}, {threads} threads");
                assert_eq!(p.counts, s.counts, "block {block}, {threads} threads");
                assert_eq!(p.centers, s.centers, "block {block}, {threads} threads");
            }
        }
    }

    /// Regression: a series with fewer windows than `min_groups` (here a single window
    /// against the default `min_groups = 2`) used to panic inside `update_scheduler` —
    /// `f32::clamp` aborts when min > max.
    #[test]
    fn adaptive_forward_survives_series_shorter_than_min_groups() {
        let mut r = rng(31);
        let dh = 8;
        let q = Var::constant(NdArray::randn(&[1, 1, 1, dh], 1.0, &mut r));
        let k = Var::constant(NdArray::randn(&[1, 1, 1, dh], 1.0, &mut r));
        let v = Var::constant(NdArray::randn(&[1, 1, 1, dh], 1.0, &mut r));
        let mut attn = GroupAttention::new(GroupAttentionConfig::default());
        assert!(attn.config.adaptive && attn.config.min_groups > 1);
        for _ in 0..3 {
            let o = attn.forward(&q, &k, &v);
            assert_eq!(o.shape(), vec![1, 1, 1, dh]);
            assert!(!o.to_array().has_non_finite());
        }
        assert_eq!(attn.effective_groups(1), 1);
        assert_eq!(attn.stats.current_groups, 1);
        // The degenerate series must not be absorbed into the persistent scheduler
        // state: a later long series still gets the originally scheduled group count,
        // not one collapsed to the short series' window count (the momentum update can
        // never raise it back).
        assert_eq!(attn.scheduled_groups(), attn.config.initial_groups as f32);
        assert_eq!(attn.effective_groups(256), attn.config.initial_groups);
    }
}
