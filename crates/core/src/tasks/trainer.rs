//! The unified adaptive training engine (§5.2 wired end-to-end).
//!
//! Every task (classification, imputation, and the pretrain/finetune wrappers built on
//! them) trains through [`train_task`]: tasks implement [`TrainTask`] — "build the loss of
//! one mini-batch" — and the engine owns everything around it: the optimiser, the epoch
//! loop, length-bucketed batching for variable-length datasets, and the paper's learned
//! batch-size schedule `B = f(L, N)`.
//!
//! With [`BatchSizePolicy::Adaptive`], the engine trains a [`BatchSizePredictor`] against
//! the backbone's [`MemoryModel`] once at the start of training, predicts a batch size per
//! distinct sample length, and **re-predicts whenever the scheduler's group-count target
//! ([`RitaModel::mean_scheduled_groups`]) shrinks materially** (Alg. 2–3): as the adaptive
//! scheduler merges groups, memory frees up and larger batches fit. The persistent target
//! is used rather than the last forward's clamped count so the plan cannot depend on which
//! length bucket happened to run last. Every decision is recorded in
//! [`TrainReport::decisions`].

use std::collections::BTreeMap;
use std::time::Instant;

use crate::model::RitaModel;
use crate::scheduler::{
    BatchSizePredictor, MemoryModel, DEFAULT_BUDGET_BYTES, DEFAULT_BUDGET_FRACTION,
};
use rand::Rng;
use rita_data::batch::batch_indices_by_length;
use rita_data::TimeseriesDataset;
use rita_nn::optim::{clip_grad_norm, AdamW, Optimizer};
use rita_nn::{Module, Var};

/// Hyper-parameters of a training run (defaults follow Appendix A.1 of the paper, scaled
/// down where noted).
#[derive(Debug, Clone, Copy)]
pub struct TrainConfig {
    /// Number of epochs.
    pub epochs: usize,
    /// Mini-batch size used by [`BatchSizePolicy::Fixed`] — the explicit override for the
    /// §5.2 machinery.
    pub batch_size: usize,
    /// How the engine chooses the actual per-batch size.
    pub batch_policy: BatchSizePolicy,
    /// AdamW learning rate (paper: 1e-4; small-scale runs use a larger value to converge
    /// within few epochs).
    pub lr: f32,
    /// AdamW decoupled weight decay (paper: 1e-4).
    pub weight_decay: f32,
    /// Global gradient-norm clip (0 disables clipping).
    pub grad_clip: f32,
    /// Mask rate for cloze pretraining / imputation (paper: 0.2).
    pub mask_rate: f32,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            epochs: 5,
            batch_size: 16,
            batch_policy: BatchSizePolicy::Fixed,
            lr: 1e-3,
            weight_decay: 1e-4,
            grad_clip: 1.0,
            mask_rate: 0.2,
        }
    }
}

/// How the training engine picks mini-batch sizes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BatchSizePolicy {
    /// Always use [`TrainConfig::batch_size`].
    Fixed,
    /// Learn `B = f(L, N)` from the backbone's memory model (§5.2, Alg. 2–3) and pick a
    /// per-length-bucket batch size, re-predicting as the scheduler shrinks `N`.
    Adaptive(AdaptiveBatchConfig),
}

/// Knobs of the adaptive batch-size schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveBatchConfig {
    /// Simulated accelerator memory in bytes.
    pub budget_bytes: usize,
    /// Fraction of the budget training may occupy (paper: 90 %).
    pub budget_fraction: f32,
    /// Hard cap on any predicted batch size.
    pub max_batch: usize,
    /// Grid resolution per axis when training the predictor (Alg. 3).
    pub samples_per_axis: usize,
    /// Maximum number of length segments of the plane division (Alg. 3).
    pub max_segments: usize,
    /// Fractional shrink of the mean group count that triggers re-prediction: with 0.1,
    /// batch sizes are re-predicted once `N` drops below 90 % of the value they were
    /// last planned with.
    pub repredict_shrink: f32,
}

impl Default for AdaptiveBatchConfig {
    fn default() -> Self {
        Self {
            budget_bytes: DEFAULT_BUDGET_BYTES,
            budget_fraction: DEFAULT_BUDGET_FRACTION,
            max_batch: 1 << 16,
            samples_per_axis: 5,
            max_segments: 3,
            repredict_shrink: 0.1,
        }
    }
}

/// One batch-size decision made by the adaptive engine (empty under the fixed policy).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchSizeDecision {
    /// Epoch at which the (re-)prediction happened.
    pub epoch: usize,
    /// Sample length `L` of the bucket.
    pub length: usize,
    /// Group count `N` the prediction was based on: the scheduler's mean target clamped
    /// to this bucket's window count (for non-group attention, the window count itself —
    /// the memory worst case).
    pub groups: usize,
    /// The predicted, budget-clamped batch size `B = f(L, N)`.
    pub batch_size: usize,
}

/// A task trainable by the shared engine: everything except the per-batch loss is common.
pub trait TrainTask: Module {
    /// The RITA backbone, giving the engine group-count statistics and the memory model.
    fn backbone(&self) -> &RitaModel;

    /// Builds the loss graph of one mini-batch given dataset row indices, together with
    /// the batch's weight in the epoch-loss aggregate — the number of atomic units the
    /// loss averages over (samples for classification, masked elements for imputation),
    /// so the reported epoch loss stays unbiased when bucket batch sizes differ. Called
    /// in training mode; the engine handles zero/backward/clip/step around it.
    fn batch_loss_on<R: Rng>(
        &mut self,
        data: &TimeseriesDataset,
        idx: &[usize],
        config: &TrainConfig,
        rng: &mut R,
    ) -> (Var, f32);
}

/// Trains `task` on `data` for `config.epochs` epochs with AdamW — the single training
/// loop behind every task. Handles variable-length datasets via length-bucketed batches
/// and drives the §5.2 batch-size schedule under [`BatchSizePolicy::Adaptive`].
pub fn train_task<T: TrainTask + ?Sized, R: Rng>(
    task: &mut T,
    data: &TimeseriesDataset,
    config: &TrainConfig,
    rng: &mut R,
) -> TrainReport {
    // Named construction: moment state keyed by parameter path (checkpointable), tied
    // weights deduplicated by node identity so they are stepped once.
    let mut opt = AdamW::for_module(task, config.lr, config.weight_decay);
    train_task_resumable(task, data, config, &mut opt, rng)
}

/// [`train_task`] with a caller-owned optimiser, for checkpoint/resume workflows: pass a
/// fresh `AdamW` (or one rebuilt via `Checkpoint::restore_optimizer`) and capture its
/// state afterwards. Splitting one run into `train(k)` + save + load + `train(n − k)`
/// reproduces the uninterrupted `train(n)` step-for-step, provided the caller carries
/// the RNG stream across the boundary (RNG state is deliberately not part of a
/// checkpoint).
pub fn train_task_resumable<T: TrainTask + ?Sized, R: Rng>(
    task: &mut T,
    data: &TimeseriesDataset,
    config: &TrainConfig,
    opt: &mut AdamW,
    rng: &mut R,
) -> TrainReport {
    assert!(!data.is_empty(), "empty training set");
    let mut planner = BatchPlanner::new(task.backbone(), config);
    let lengths = data.lengths();
    let memory = task.backbone().memory_model();
    let mut report = TrainReport::default();
    for epoch in 0..config.epochs {
        planner.plan_epoch(task.backbone(), &lengths, epoch);
        rita_tensor::pool_restart_high_water();
        let mut costliest = EpochMemory::default();
        let (loss, seconds) = timed(|| {
            // Weight each batch's mean loss by the task-reported unit count: adaptive
            // bucket batch sizes differ widely, and an unweighted mean over batches
            // would silently over-weight the units of small-batch (long-series) buckets.
            let mut loss_sum = 0.0f32;
            let mut weight_sum = 0.0f32;
            for idx in batch_indices_by_length(&lengths, |l| planner.batch_size_for(l), true, rng) {
                let length = lengths[idx[0]];
                let groups = groups_for(&memory, task.backbone().mean_scheduled_groups(), length);
                let predicted_bytes = memory.bytes_for(idx.len(), length, groups);
                if predicted_bytes > costliest.predicted_bytes {
                    costliest = EpochMemory {
                        measured_bytes: 0,
                        predicted_bytes,
                        batch_size: idx.len(),
                        length,
                        groups,
                    };
                }
                opt.zero_grad();
                let (loss, weight) = task.batch_loss_on(data, &idx, config, rng);
                loss.backward();
                if config.grad_clip > 0.0 {
                    clip_grad_norm(&opt.parameters(), config.grad_clip);
                }
                opt.step();
                loss_sum += loss.item() * weight;
                weight_sum += weight;
            }
            loss_sum / weight_sum.max(1.0)
        });
        report.push(EpochMetrics { loss, seconds });
        costliest.measured_bytes = rita_tensor::pool_stats().high_water_bytes as usize;
        report.memory.push(costliest);
    }
    report.decisions = planner.into_decisions();
    report
}

/// The group count a batch of `length`-long series runs with: each group-attention
/// layer clamps the scheduler's target to the batch's window count. For non-group
/// attention (`target` is `None`) every window is its own group, the memory worst case
/// of the n×n mechanisms.
fn groups_for(memory: &MemoryModel, target: Option<f32>, length: usize) -> usize {
    let windows = memory.windows(length);
    match target.filter(|&g| g >= 1.0) {
        Some(g) => (g.round() as usize).clamp(1, windows),
        None => windows,
    }
}

/// Per-length batch-size planning state of one training run.
struct BatchPlanner {
    mode: PlannerMode,
}

enum PlannerMode {
    Fixed(usize),
    Adaptive(Box<AdaptiveState>),
}

struct AdaptiveState {
    predictor: BatchSizePredictor,
    memory: MemoryModel,
    repredict_shrink: f32,
    /// Scheduler group-count target the current plan is based on; `None` for
    /// non-group attention, where the plan uses the worst case `N = windows(L)`.
    groups_at_plan: Option<f32>,
    plan: BTreeMap<usize, usize>,
    decisions: Vec<BatchSizeDecision>,
}

impl BatchPlanner {
    fn new(backbone: &RitaModel, config: &TrainConfig) -> Self {
        match config.batch_policy {
            BatchSizePolicy::Fixed => {
                assert!(config.batch_size > 0, "batch size must be positive");
                Self { mode: PlannerMode::Fixed(config.batch_size) }
            }
            BatchSizePolicy::Adaptive(cfg) => {
                let memory = backbone.memory_model();
                let predictor = BatchSizePredictor::train_with(
                    &memory,
                    backbone.config.max_len,
                    cfg.budget_bytes,
                    cfg.budget_fraction,
                    cfg.max_batch,
                    cfg.samples_per_axis,
                    cfg.max_segments,
                );
                Self {
                    mode: PlannerMode::Adaptive(Box::new(AdaptiveState {
                        predictor,
                        memory,
                        repredict_shrink: cfg.repredict_shrink,
                        groups_at_plan: None,
                        plan: BTreeMap::new(),
                        decisions: Vec::new(),
                    })),
                }
            }
        }
    }

    /// Re-predicts the per-length batch sizes when needed: on the first epoch, and
    /// whenever the scheduler's group-count target has shrunk materially since the plan
    /// was last computed.
    fn plan_epoch(&mut self, backbone: &RitaModel, lengths: &[usize], epoch: usize) {
        let PlannerMode::Adaptive(state) = &mut self.mode else {
            return;
        };
        let AdaptiveState { predictor, memory, repredict_shrink, groups_at_plan, plan, decisions } =
            &mut **state;
        // The *persistent* scheduler target (not the last forward's clamped count, which
        // on mixed-length data depends on which bucket happened to run last): defined
        // from construction on, `None` only for non-group attention.
        let current = backbone.mean_scheduled_groups().filter(|&g| g >= 1.0);
        let replan = match (plan.is_empty(), *groups_at_plan, current) {
            (true, _, _) => true,
            (false, Some(prev), Some(now)) => now < prev * (1.0 - *repredict_shrink),
            (false, _, _) => false,
        };
        if !replan {
            return;
        }
        plan.clear();
        let mut distinct: Vec<usize> = lengths.to_vec();
        distinct.sort_unstable();
        distinct.dedup();
        for len in distinct {
            let groups = groups_for(memory, current, len);
            let batch_size = predictor.predict(len, groups);
            plan.insert(len, batch_size);
            decisions.push(BatchSizeDecision { epoch, length: len, groups, batch_size });
        }
        *groups_at_plan = current;
    }

    fn batch_size_for(&self, len: usize) -> usize {
        match &self.mode {
            PlannerMode::Fixed(b) => *b,
            PlannerMode::Adaptive(state) => state.plan.get(&len).copied().unwrap_or(1).max(1),
        }
    }

    fn into_decisions(self) -> Vec<BatchSizeDecision> {
        match self.mode {
            PlannerMode::Fixed(_) => Vec::new(),
            PlannerMode::Adaptive(state) => state.decisions,
        }
    }

    #[cfg(test)]
    fn decisions_len(&self) -> usize {
        match &self.mode {
            PlannerMode::Fixed(_) => 0,
            PlannerMode::Adaptive(state) => state.decisions.len(),
        }
    }
}

/// Result of one training epoch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochMetrics {
    /// Mean training loss over the epoch.
    pub loss: f32,
    /// Wall-clock seconds spent in the epoch (forward + backward + grouping + update).
    pub seconds: f64,
}

/// One epoch's memory: what the tensor pool measured next to what §5.2 predicts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EpochMemory {
    /// Most bytes of pool-issued tensor buffers alive at once on the training thread
    /// during the epoch (`rita_tensor::PoolStats::high_water_bytes`, restarted at the
    /// epoch's start): the tape, gradients and optimiser moments of its costliest step.
    /// Buffers the pool did not issue (randomly initialised parameters, the dataset)
    /// are not in it.
    pub measured_bytes: usize,
    /// [`MemoryModel::bytes_for`] of the epoch's costliest batch, whose shape follows.
    pub predicted_bytes: usize,
    /// Samples in that batch.
    pub batch_size: usize,
    /// Sample length `L` of that batch.
    pub length: usize,
    /// Group count `N` the prediction used: the scheduler's target before the step,
    /// clamped to the batch's window count (the window count for non-group attention).
    pub groups: usize,
}

/// Result of a full training run.
#[derive(Debug, Clone, Default)]
pub struct TrainReport {
    /// Per-epoch metrics in order.
    pub epochs: Vec<EpochMetrics>,
    /// Per-epoch measured and predicted memory, in order.
    pub memory: Vec<EpochMemory>,
    /// Batch-size decisions of the adaptive engine, in the order they were made (empty
    /// under [`BatchSizePolicy::Fixed`]).
    pub decisions: Vec<BatchSizeDecision>,
}

impl TrainReport {
    /// Adds an epoch record.
    pub fn push(&mut self, metrics: EpochMetrics) {
        self.epochs.push(metrics);
    }

    /// Mean seconds per epoch (the paper's main efficiency metric).
    pub fn mean_epoch_seconds(&self) -> f64 {
        if self.epochs.is_empty() {
            0.0
        } else {
            self.epochs.iter().map(|e| e.seconds).sum::<f64>() / self.epochs.len() as f64
        }
    }

    /// Loss of the final epoch.
    pub fn final_loss(&self) -> f32 {
        self.epochs.last().map(|e| e.loss).unwrap_or(f32::NAN)
    }

    /// Total wall-clock seconds across all epochs.
    pub fn total_seconds(&self) -> f64 {
        self.epochs.iter().map(|e| e.seconds).sum()
    }

    /// The most recent batch-size decision for a given sample length, if any.
    pub fn latest_batch_size_for(&self, length: usize) -> Option<usize> {
        self.decisions.iter().rev().find(|d| d.length == length).map(|d| d.batch_size)
    }
}

/// Runs `f` and returns its result together with the elapsed wall-clock seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attention::AttentionKind;
    use crate::model::RitaConfig;
    use rand::SeedableRng;
    use rita_tensor::SeedableRng64;

    #[test]
    fn defaults_are_sane() {
        let c = TrainConfig::default();
        assert!(c.epochs > 0 && c.batch_size > 0);
        assert_eq!(c.batch_policy, BatchSizePolicy::Fixed);
        assert!((c.mask_rate - 0.2).abs() < 1e-6);
        let a = AdaptiveBatchConfig::default();
        assert!(a.budget_bytes > 0 && a.max_batch > 0);
        assert!((0.0..1.0).contains(&a.repredict_shrink));
    }

    #[test]
    fn report_aggregates() {
        let mut r = TrainReport::default();
        assert_eq!(r.mean_epoch_seconds(), 0.0);
        assert!(r.final_loss().is_nan());
        r.push(EpochMetrics { loss: 2.0, seconds: 1.0 });
        r.push(EpochMetrics { loss: 1.0, seconds: 3.0 });
        assert_eq!(r.mean_epoch_seconds(), 2.0);
        assert_eq!(r.final_loss(), 1.0);
        assert_eq!(r.total_seconds(), 4.0);
        assert!(r.latest_batch_size_for(100).is_none());
        r.decisions.push(BatchSizeDecision { epoch: 0, length: 100, groups: 20, batch_size: 8 });
        r.decisions.push(BatchSizeDecision { epoch: 1, length: 100, groups: 10, batch_size: 12 });
        assert_eq!(r.latest_batch_size_for(100), Some(12));
    }

    #[test]
    fn timed_measures_and_passes_through() {
        let (value, secs) = timed(|| 41 + 1);
        assert_eq!(value, 42);
        assert!(secs >= 0.0);
    }

    #[test]
    fn fixed_planner_always_returns_the_configured_size() {
        let mut rng = SeedableRng64::seed_from_u64(0);
        let model = RitaModel::new(RitaConfig::tiny(1, 40, AttentionKind::Vanilla), &mut rng);
        let config = TrainConfig { batch_size: 7, ..Default::default() };
        let mut planner = BatchPlanner::new(&model, &config);
        planner.plan_epoch(&model, &[40, 40, 20], 0);
        assert_eq!(planner.batch_size_for(40), 7);
        assert_eq!(planner.batch_size_for(20), 7);
        assert!(planner.into_decisions().is_empty());
    }

    #[test]
    fn adaptive_planner_predicts_per_length_and_records_decisions() {
        let mut rng = SeedableRng64::seed_from_u64(1);
        let model =
            RitaModel::new(RitaConfig::tiny(3, 120, AttentionKind::default_group()), &mut rng);
        // A small budget so the predicted batch sizes are in an interesting range.
        let adaptive = AdaptiveBatchConfig {
            budget_bytes: 8 * 1024 * 1024,
            max_batch: 256,
            ..Default::default()
        };
        let config =
            TrainConfig { batch_policy: BatchSizePolicy::Adaptive(adaptive), ..Default::default() };
        let mut planner = BatchPlanner::new(&model, &config);
        planner.plan_epoch(&model, &[40, 40, 80, 120], 0);
        let b40 = planner.batch_size_for(40);
        let b120 = planner.batch_size_for(120);
        assert!(b40 >= 1 && b120 >= 1);
        assert!(b40 >= b120, "shorter series must not get smaller batches: {b40} vs {b120}");
        let decisions = planner.into_decisions();
        assert_eq!(decisions.len(), 3, "one decision per distinct length");
        assert!(decisions.iter().all(|d| d.epoch == 0));
        // The scheduler target (64 for the default group config) clamps to each bucket's
        // window count: 8 windows for length 40.
        assert!(decisions.iter().any(|d| d.length == 40 && d.groups == 8));
    }

    #[test]
    fn planner_repredicts_when_the_scheduler_target_shrinks() {
        let mut rng = SeedableRng64::seed_from_u64(2);
        let mut model =
            RitaModel::new(RitaConfig::tiny(3, 120, AttentionKind::default_group()), &mut rng);
        let adaptive = AdaptiveBatchConfig {
            budget_bytes: 8 * 1024 * 1024,
            max_batch: 256,
            ..Default::default()
        };
        let config =
            TrainConfig { batch_policy: BatchSizePolicy::Adaptive(adaptive), ..Default::default() };
        let mut planner = BatchPlanner::new(&model, &config);
        let lengths = [60usize, 120];
        planner.plan_epoch(&model, &lengths, 0);
        // Same target, same plan: no new decisions.
        planner.plan_epoch(&model, &lengths, 1);
        assert_eq!(planner.decisions_len(), 2);
        // The scheduler shrinks its persistent target materially -> re-prediction with
        // the smaller N, and (memory model monotone in N) batch sizes cannot shrink.
        let before_120 = planner.batch_size_for(120);
        model.set_group_count(4);
        planner.plan_epoch(&model, &lengths, 2);
        let decisions = planner.into_decisions();
        assert_eq!(decisions.len(), 4, "shrunk target must re-predict every bucket");
        let repredicted: Vec<_> = decisions.iter().filter(|d| d.epoch == 2).collect();
        assert_eq!(repredicted.len(), 2);
        assert!(repredicted.iter().all(|d| d.groups == 4));
        let after_120 = repredicted.iter().find(|d| d.length == 120).unwrap().batch_size;
        assert!(after_120 >= before_120, "fewer groups must not shrink the batch");
    }

    #[test]
    fn vanilla_backbone_plans_with_the_window_count_worst_case() {
        let mut rng = SeedableRng64::seed_from_u64(3);
        let model = RitaModel::new(RitaConfig::tiny(3, 120, AttentionKind::Vanilla), &mut rng);
        let config = TrainConfig {
            batch_policy: BatchSizePolicy::Adaptive(AdaptiveBatchConfig::default()),
            ..Default::default()
        };
        let mut planner = BatchPlanner::new(&model, &config);
        planner.plan_epoch(&model, &[120], 0);
        let decisions = planner.into_decisions();
        assert_eq!(decisions.len(), 1);
        assert_eq!(decisions[0].groups, 24, "no scheduler: every window is its own group");
    }
}
