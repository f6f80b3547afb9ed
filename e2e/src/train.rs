//! The two training workloads.
//!
//! **Untraced pass.** The library's own engine, `train_task_resumable`, is called one
//! epoch at a time on a small dataset until the window is over. Step times come from
//! the boundary the engine itself crosses once per step: the task's
//! `TrainTask::batch_loss_on`. [`Timed`] implements that trait by delegation and
//! stamps each entry, so the distance between two stamps is one whole optimizer step
//! (forward, backward, clip, update, zero-grad) as the engine ran it.
//!
//! **Traced pass.** The engine does not expose the boundaries inside a step, so the
//! benchmark owns a loop that mirrors `train_task_resumable` call for call and records
//! a span around each public call. The mirror must reproduce the engine's epoch losses
//! bit for bit from the same seed, or the run is incorrect. Layer probes at the
//! workload's shapes then split the forward span further.

use std::collections::BTreeMap;
use std::time::Instant;

use rand::Rng;
use rita_core::attention::AttentionKind;
use rita_core::model::{RitaConfig, RitaModel};
use rita_core::scheduler::BatchSizePredictor;
use rita_core::tasks::{
    timed, train_task_resumable, AdaptiveBatchConfig, BatchSizeDecision, BatchSizePolicy,
    Classifier, Imputer, TrainConfig, TrainTask,
};
use rita_data::batch::{batch_indices_by_length, make_batch, make_masked_batch};
use rita_data::generators::generate_sample_of_length;
use rita_data::{DatasetKind, TimeseriesDataset};
use rita_nn::optim::{clip_grad_norm, AdamW, Optimizer};
use rita_nn::{BufferVisitor, BufferVisitorMut, Module, ParamVisitor, Var};
use rita_tensor::{pool_stats, rng_from_seed, NdArray, SeedableRng64};

use crate::probes::{probe_kernels, probe_ms, Shapes};
use crate::report::{note_shares, Outcome};
use crate::stats::{median, subwindow_percentile, subwindow_rate_median};
use crate::sys::{peak_rss_mb, process_cpu_seconds};
use crate::trace::{self, Recorder, Span};
use crate::{MODEL_SEED, SETUP_REPEATS};

/// Which task head trains.
#[derive(Clone, Copy)]
enum Head {
    /// Masked-value reconstruction (`Imputer`).
    Imputer,
    /// Classification with this many classes (`Classifier`).
    Classifier(usize),
}

/// Where the series come from.
#[derive(Clone, Copy)]
enum Series {
    /// Every series has this length.
    Fixed(DatasetKind, usize),
    /// Lengths drawn from `buckets` evenly spaced values in `[min, max]`.
    Variable { kind: DatasetKind, min: usize, max: usize, buckets: usize },
}

/// A training workload.
pub struct TrainSpec {
    head: Head,
    model: RitaConfig,
    train: TrainConfig,
    series: Series,
    /// Series in the dataset; one engine call trains one epoch over them.
    count: usize,
    /// Series in the warm-up epoch that ends set-up.
    warmup: usize,
}

/// `train_long`: the paper's headline regime. One 21-channel series of 10 000
/// timestamps is 2 000 windows; with N = 64 groups the k-means grouping, the two
/// `segment_sum`s, the fused n×N attention (forward and backward) and the merge
/// scheduler do most of the work, and batching, planning and serving code do none.
pub fn train_long() -> TrainSpec {
    TrainSpec {
        head: Head::Imputer,
        model: RitaConfig {
            channels: 21,
            max_len: 10_000,
            d_model: 64,
            n_heads: 2,
            n_layers: 2,
            ff_hidden: 128,
            dropout: 0.1,
            attention: AttentionKind::Group { epsilon: 2.0, initial_groups: 64, adaptive: true },
            ..Default::default()
        },
        train: TrainConfig {
            epochs: 1,
            batch_size: 1,
            batch_policy: BatchSizePolicy::Fixed,
            lr: 1e-3,
            mask_rate: 0.2,
            ..Default::default()
        },
        series: Series::Fixed(DatasetKind::Mgh, 10_000),
        count: 12,
        warmup: 2,
    }
}

/// `train_short_varlen`: the same engine used the opposite way. Many small steps on
/// 20–40 windows, where projection/FFN GEMMs, tape overhead, `AdamW`, length
/// bucketing and the §5.2 batch-size predictor dominate and grouping is negligible.
///
/// The memory budget is 8 MiB, not the library's 16 GiB default: under the default
/// the predictor answers "the whole bucket" (39 229 series for length 100) and an
/// epoch is five huge steps, which is the regime this workload exists to avoid. At
/// 8 MiB it predicts 6–12 series per batch.
pub fn train_short_varlen() -> TrainSpec {
    TrainSpec {
        head: Head::Classifier(18),
        model: RitaConfig {
            channels: 3,
            max_len: 200,
            d_model: 64,
            n_heads: 2,
            n_layers: 4,
            ff_hidden: 128,
            dropout: 0.1,
            attention: AttentionKind::default_group(),
            ..Default::default()
        },
        train: TrainConfig {
            epochs: 1,
            batch_policy: BatchSizePolicy::Adaptive(AdaptiveBatchConfig {
                budget_bytes: 8 * 1024 * 1024,
                ..Default::default()
            }),
            lr: 1e-3,
            ..Default::default()
        },
        series: Series::Variable { kind: DatasetKind::Wisdm, min: 100, max: 200, buckets: 5 },
        count: 100,
        warmup: 32,
    }
}

enum Net {
    Imputer(Imputer),
    Classifier(Classifier),
}

/// One entry of the engine into `batch_loss_on`.
#[derive(Clone, Copy)]
struct Entry {
    at: Instant,
    items: usize,
    loss: f32,
}

/// The task under training, stamping every `batch_loss_on` entry.
struct Timed {
    net: Net,
    entries: Vec<Entry>,
}

impl Module for Timed {
    fn visit_params(&self, v: &mut ParamVisitor<'_>) {
        match &self.net {
            Net::Imputer(t) => t.visit_params(v),
            Net::Classifier(t) => t.visit_params(v),
        }
    }

    fn visit_buffers(&self, v: &mut BufferVisitor<'_>) {
        match &self.net {
            Net::Imputer(t) => t.visit_buffers(v),
            Net::Classifier(t) => t.visit_buffers(v),
        }
    }

    fn visit_buffers_mut(&mut self, v: &mut BufferVisitorMut<'_>) {
        match &mut self.net {
            Net::Imputer(t) => t.visit_buffers_mut(v),
            Net::Classifier(t) => t.visit_buffers_mut(v),
        }
    }
}

impl TrainTask for Timed {
    fn backbone(&self) -> &RitaModel {
        match &self.net {
            Net::Imputer(t) => t.backbone(),
            Net::Classifier(t) => t.backbone(),
        }
    }

    fn batch_loss_on<R: Rng>(
        &mut self,
        data: &TimeseriesDataset,
        idx: &[usize],
        config: &TrainConfig,
        rng: &mut R,
    ) -> (Var, f32) {
        let at = Instant::now();
        let out = match &mut self.net {
            Net::Imputer(t) => t.batch_loss_on(data, idx, config, rng),
            Net::Classifier(t) => t.batch_loss_on(data, idx, config, rng),
        };
        self.entries.push(Entry { at, items: idx.len(), loss: out.0.item() });
        out
    }
}

/// Everything one training run owns. A function of the spec and the seed alone, so
/// two builds from one seed train identically. The seed decides the data and, through
/// the run's random stream, the masks, shuffles and dropout; the initial weights come
/// from [`MODEL_SEED`].
struct Bench {
    data: TimeseriesDataset,
    task: Timed,
    opt: AdamW,
    rng: SeedableRng64,
}

impl Bench {
    /// Set-up as a user pays it: generate the data, initialise the model and the
    /// optimiser, then one warm-up epoch on the first `warmup` series (which fits the
    /// batch-size predictor under the adaptive policy, fills the buffer pool and
    /// faults the working set in).
    fn set_up(spec: &TrainSpec, seed: u64) -> Bench {
        let mut rng = rng_from_seed(seed);
        let data = match spec.series {
            Series::Fixed(kind, len) => {
                TimeseriesDataset::generate_reduced(kind, spec.count, 0, len, &mut rng)
            }
            Series::Variable { kind, min, max, buckets } => {
                // Built by hand rather than by `generate_variable`, which draws each
                // length at random: here every bucket gets the same number of series,
                // so the work of an epoch does not depend on the seed.
                let dataset =
                    kind.reduced_spec(spec.count, 0, max).with_variable_length(min, buckets);
                let lengths = dataset.bucket_lengths();
                let labels: Vec<usize> = (0..spec.count).map(|i| i % dataset.num_classes).collect();
                let samples = (0..spec.count)
                    .map(|i| {
                        let length = lengths[i % lengths.len()];
                        generate_sample_of_length(&dataset, labels[i], length, &mut rng)
                    })
                    .collect();
                let mut data = TimeseriesDataset { spec: dataset, samples, labels: Some(labels) };
                data.shuffle(&mut rng);
                data
            }
        };
        let mut init = rng_from_seed(MODEL_SEED);
        let net = match spec.head {
            Head::Imputer => Net::Imputer(Imputer::new(spec.model, &mut init)),
            Head::Classifier(classes) => {
                Net::Classifier(Classifier::new(spec.model, classes, &mut init))
            }
        };
        let task = Timed { net, entries: Vec::new() };
        let opt = AdamW::for_module(&task, spec.train.lr, spec.train.weight_decay);
        let mut bench = Bench { data, task, opt, rng };
        let warm = bench.data.split_at(spec.warmup).train;
        train_task_resumable(&mut bench.task, &warm, &spec.train, &mut bench.opt, &mut bench.rng);
        bench.task.entries.clear();
        bench
    }
}

/// One engine call (one epoch).
struct Call {
    start: Instant,
    end: Instant,
    first_entry: usize,
    loss: f32,
    decisions: Vec<BatchSizeDecision>,
}

/// One optimizer step as measured.
#[derive(Clone, Copy)]
struct Step {
    done: Instant,
    ms: f64,
    items: usize,
    finite: bool,
}

/// Steps of a sequence of engine calls. A call's prelude (planning, bucketing, the
/// first zero-grad) is charged to its first step, so step times sum to call times.
fn steps_of(calls: &[Call], entries: &[Entry]) -> Vec<Step> {
    let mut steps = Vec::with_capacity(entries.len());
    for (c, call) in calls.iter().enumerate() {
        let last = calls.get(c + 1).map_or(entries.len(), |next| next.first_entry);
        for i in call.first_entry..last {
            let from = if i == call.first_entry { call.start } else { entries[i].at };
            let done = if i + 1 < last { entries[i + 1].at } else { call.end };
            steps.push(Step {
                done,
                ms: done.duration_since(from).as_secs_f64() * 1e3,
                items: entries[i].items,
                finite: entries[i].loss.is_finite(),
            });
        }
    }
    steps
}

/// One call of the library's engine: one epoch.
fn engine_epoch(bench: &mut Bench, spec: &TrainSpec) -> Call {
    let first_entry = bench.task.entries.len();
    let start = Instant::now();
    let report = train_task_resumable(
        &mut bench.task,
        &bench.data,
        &spec.train,
        &mut bench.opt,
        &mut bench.rng,
    );
    Call {
        start,
        end: Instant::now(),
        first_entry,
        loss: report.final_loss(),
        decisions: report.decisions,
    }
}

/// Puts the step-derived end-to-end metrics of a window into `out`: rate, median and
/// p90 step time, and the attempted/failed counts. Returns the items completed.
fn put_window(out: &mut Outcome, steps: &[Step], start: Instant, end: Instant) -> f64 {
    let at = |t: Instant| t.duration_since(start).as_secs_f64();
    let ops: Vec<(f64, f64, f64)> =
        steps.iter().map(|s| (at(s.done) - s.ms / 1e3, at(s.done), s.items as f64)).collect();
    let times: Vec<(f64, f64)> = steps.iter().map(|s| (at(s.done), s.ms)).collect();
    let p50 = subwindow_percentile(&times, 0.0, at(end), 0.5, 5, 100).expect("at least one step");
    let p90 = subwindow_percentile(&times, 0.0, at(end), 0.9, 5, 100).expect("at least one step");
    out.note(format!(
        "{} steps; op_ms_p90 has at least {} samples beyond it in every sub-window{}",
        p90.samples,
        p90.beyond,
        if p90.has_enough_beyond() { "" } else { " (fewer than 10: not steady)" }
    ));
    out.attempted = steps.len() as u64;
    out.failed = steps.iter().filter(|s| !s.finite).count() as u64;
    out.put("items_per_s", subwindow_rate_median(&ops, 0.0, at(end), 5));
    out.put("op_ms_p50", p50.value);
    out.put("op_ms_p90", p90.value);
    steps.iter().map(|s| s.items as f64).sum()
}

/// Training quality gate: every loss finite and the last epoch below the first.
fn check_losses(out: &mut Outcome, calls: &[Call]) {
    let (first, last) = (calls[0].loss, calls[calls.len() - 1].loss);
    out.note(format!("{} epochs; loss {first} -> {last}", calls.len()));
    if out.failed > 0 {
        out.fail(format!("{} steps produced a non-finite loss", out.failed));
    }
    if calls.len() < 2 || last >= first {
        out.fail(format!("final loss {last} is not below the first epoch's {first}"));
    }
}

/// The untraced pass: end-to-end metrics.
pub fn run_untraced(spec: &TrainSpec, seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome { correct: true, ..Default::default() };
    let (mut bench, first_setup) = timed(|| Bench::set_up(spec, seed));
    let mut setups = vec![first_setup];

    let cpu0 = process_cpu_seconds();
    let begin = Instant::now();
    let mut calls = Vec::new();
    while begin.elapsed().as_secs_f64() < seconds {
        calls.push(engine_epoch(&mut bench, spec));
    }
    let cpu = process_cpu_seconds() - cpu0;
    let steps = steps_of(&calls, &bench.task.entries);
    let items = put_window(&mut out, &steps, begin, calls[calls.len() - 1].end);
    check_losses(&mut out, &calls);
    out.put("cpu_ms_per_item", cpu * 1e3 / items);
    // Read before the remaining set-up repeats, which would only add allocator noise.
    out.put("peak_rss_mb", peak_rss_mb());
    drop(bench);
    while setups.len() < SETUP_REPEATS {
        let (again, secs) = timed(|| Bench::set_up(spec, seed));
        setups.push(secs);
        drop(again);
    }
    out.put("setup_s", median(&setups));
    out
}

/// Per-length batch sizes of one epoch, re-derived through the public scheduler API
/// exactly as the engine's private planner derives them (empty under `Fixed`).
fn plan_epoch(
    task: &Timed,
    spec: &TrainSpec,
    lengths: &[usize],
    rec: &mut Recorder,
    op: u64,
) -> Vec<BatchSizeDecision> {
    let BatchSizePolicy::Adaptive(cfg) = spec.train.batch_policy else {
        return Vec::new();
    };
    let backbone = task.backbone();
    let memory = backbone.memory_model();
    let predictor = rec.span("core.scheduler.predict", op, || {
        BatchSizePredictor::train_with(
            &memory,
            backbone.config.max_len,
            cfg.budget_bytes,
            cfg.budget_fraction,
            cfg.max_batch,
            cfg.samples_per_axis,
            cfg.max_segments,
        )
    });
    let current = backbone.mean_scheduled_groups().filter(|&g| g >= 1.0);
    let mut distinct = lengths.to_vec();
    distinct.sort_unstable();
    distinct.dedup();
    distinct
        .into_iter()
        .map(|length| {
            let windows = memory.windows(length);
            let groups = match current {
                Some(g) => (g.round() as usize).clamp(1, windows),
                None => windows,
            };
            BatchSizeDecision {
                epoch: 0,
                length,
                groups,
                batch_size: predictor.predict(length, groups),
            }
        })
        .collect()
}

/// One epoch of the bench-owned loop, mirroring `train_task_resumable` with
/// `epochs: 1` call for call. Returns the epoch loss and the planner's decisions.
fn mirror_epoch(
    bench: &mut Bench,
    spec: &TrainSpec,
    rec: &mut Recorder,
    epoch: u64,
    next_step: &mut u64,
) -> (f32, Vec<BatchSizeDecision>) {
    let Bench { data, task, opt, rng } = bench;
    let config = &spec.train;
    let whole = rec.enter("train.epoch", epoch);
    let lengths = data.lengths();
    let decisions = plan_epoch(task, spec, &lengths, rec, epoch);
    let size_for = |len: usize| match config.batch_policy {
        BatchSizePolicy::Fixed => config.batch_size,
        BatchSizePolicy::Adaptive(_) => {
            decisions.iter().find(|d| d.length == len).map_or(1, |d| d.batch_size).max(1)
        }
    };
    let batches = rec.span("data.batch.indices", epoch, || {
        batch_indices_by_length(&lengths, size_for, true, rng)
    });
    let mut loss_sum = 0.0f32;
    let mut weight_sum = 0.0f32;
    for idx in batches {
        let op = *next_step;
        *next_step += 1;
        let step = rec.enter("train.step", op);
        rec.span("nn.optim.zero_grad", op, || opt.zero_grad());
        let (loss, weight) =
            rec.span("core.tasks.forward", op, || task.batch_loss_on(data, &idx, config, rng));
        rec.span("nn.backward", op, || loss.backward());
        if config.grad_clip > 0.0 {
            rec.span("nn.optim.clip", op, || clip_grad_norm(&opt.parameters(), config.grad_clip));
        }
        rec.span("nn.optim.step", op, || opt.step());
        loss_sum += loss.item() * weight;
        weight_sum += weight;
        rec.exit(step);
    }
    rec.exit(whole);
    (loss_sum / weight_sum.max(1.0), decisions)
}

/// Median duration of the spans called `name`, in milliseconds (0 when there are none).
fn span_median(agg: &BTreeMap<&'static str, trace::Aggregate>, name: &str) -> f64 {
    agg.get(name).map_or(0.0, |a| median(&a.durations_ms))
}

/// The traced pass: per-layer metrics. Returns the spans for the JSONL dump.
pub fn run_traced(spec: &TrainSpec, seed: u64, seconds: f64) -> (Outcome, Vec<Span>) {
    let mut out = Outcome { correct: true, ..Default::default() };

    // The library's engine, untraced, and its traced mirror train from the same seed
    // and take turns epoch by epoch, so a drift of the box or of the allocator falls on
    // both alike: 60 % of the budget, at least two epochs (the loss must be seen to
    // fall).
    let mut reference = Bench::set_up(spec, seed);
    let mut bench = Bench::set_up(spec, seed);
    let origin = Instant::now();
    let mut rec = Recorder::new(origin, 0, 1 << 17);
    let (mut pool_reused, mut pool_fresh, mut pool_fresh_bytes) = (0, 0, 0);
    let mut next_step = 0u64;
    let (mut calls, mut mirror_calls) = (Vec::new(), Vec::new());
    while calls.len() < 2 || origin.elapsed().as_secs_f64() < 0.6 * seconds {
        let epoch = calls.len();
        let want = engine_epoch(&mut reference, spec);
        let pool0 = pool_stats();
        let first_entry = bench.task.entries.len();
        let start = Instant::now();
        let (loss, decisions) =
            mirror_epoch(&mut bench, spec, &mut rec, epoch as u64, &mut next_step);
        let end = Instant::now();
        mirror_calls.push(Call { start, end, first_entry, loss, decisions: Vec::new() });
        let pool1 = pool_stats();
        pool_reused += pool1.reused - pool0.reused;
        pool_fresh += pool1.fresh - pool0.fresh;
        pool_fresh_bytes += pool1.fresh_bytes - pool0.fresh_bytes;
        if loss.to_bits() != want.loss.to_bits() {
            out.fail(format!(
                "epoch {epoch}: the mirror loop's loss {loss} differs from train_task's {}",
                want.loss
            ));
        }
        if decisions != want.decisions {
            out.fail(format!(
                "epoch {epoch}: the mirror planner's batch sizes differ from the engine's"
            ));
        }
        calls.push(want);
    }
    let ref_steps = steps_of(&calls, &reference.task.entries);
    let traced_steps = steps_of(&mirror_calls, &bench.task.entries);
    out.attempted = ref_steps.len() as u64;
    out.failed = ref_steps.iter().filter(|s| !s.finite).count() as u64;
    check_losses(&mut out, &calls);
    drop(reference);
    if out.correct {
        out.note("mirror loop reproduced every epoch loss of train_task bit for bit".into());
    }
    let (spans, dropped) = trace::merge(vec![rec]);
    if dropped > 0 {
        out.fail(format!("{dropped} spans did not fit the trace buffer"));
    }
    let agg = trace::aggregate(&spans);

    // Shapes of the middle length bucket at the batch size the run used for it.
    let mut lengths = bench.data.lengths();
    lengths.sort_unstable();
    let length = lengths[lengths.len() / 2];
    let last_decisions = &calls[calls.len() - 1].decisions;
    let batch = match spec.train.batch_policy {
        BatchSizePolicy::Fixed => spec.train.batch_size,
        BatchSizePolicy::Adaptive(_) => {
            last_decisions.iter().find(|d| d.length == length).map_or(1, |d| d.batch_size)
        }
    };
    let same_length: Vec<usize> =
        (0..bench.data.len()).filter(|&i| bench.data.sample_length(i) == length).collect();
    let batch = batch.min(same_length.len());
    let idx = &same_length[..batch];
    let tokens = spec.model.windows_for(length) + 1;
    let groups_mean = bench.task.backbone().mean_scheduled_groups().unwrap_or(0.0);
    let groups = (groups_mean.round() as usize).clamp(2, tokens);
    let AttentionKind::Group { epsilon, .. } = spec.model.attention else {
        panic!("training workloads use group attention");
    };
    let shapes = Shapes {
        batch,
        heads: spec.model.n_heads,
        tokens,
        d_head: spec.model.head_dim(),
        groups,
        d_model: spec.model.d_model,
        ff_hidden: spec.model.ff_hidden,
        kmeans_iters: rita_core::GroupAttentionConfig::default().kmeans_iters,
        epsilon,
    };
    out.note(format!(
        "probe shapes: b {batch} h {} n {tokens} d_head {} N {groups} d_model {} ff {} (length {length})",
        shapes.heads, shapes.d_head, shapes.d_model, shapes.ff_hidden
    ));
    let mut probe_rng = rng_from_seed(seed ^ 0x9e37_79b9_7f4a_7c15);
    let kernels = probe_kernels(shapes, true, false, &mut probe_rng);

    let make_ms = match spec.head {
        Head::Imputer => probe_ms(|| {
            std::hint::black_box(make_masked_batch(
                &bench.data,
                idx,
                spec.train.mask_rate,
                &mut probe_rng,
            ));
        }),
        Head::Classifier(_) => probe_ms(|| {
            std::hint::black_box(make_batch(&bench.data, idx));
        }),
    };
    let inputs: NdArray = make_batch(&bench.data, idx).inputs;
    let mut probe_model = RitaModel::new(spec.model, &mut probe_rng);
    let embed_ms = probe_ms(|| {
        std::hint::black_box(probe_model.embedding.forward(&Var::constant(inputs.clone())));
    });
    let embedded = probe_model.embedding.forward(&Var::constant(inputs.clone())).to_array();
    let layer_ms = probe_ms(|| {
        let layer = &mut probe_model.encoder.layers[0];
        layer.attention.set_group_count(groups);
        std::hint::black_box(layer.forward(
            &Var::leaf(embedded.clone(), true),
            true,
            &mut probe_rng,
        ));
    });
    let predict_ms = match spec.train.batch_policy {
        BatchSizePolicy::Fixed => 0.0,
        BatchSizePolicy::Adaptive(_) => span_median(&agg, "core.scheduler.predict"),
    };

    // Attribution of one step.
    let layers = spec.model.n_layers as f64;
    let step_ms = median(&traced_steps.iter().map(|s| s.ms).collect::<Vec<_>>());
    let forward_ms = span_median(&agg, "core.tasks.forward");
    let backward_ms = span_median(&agg, "nn.backward");
    let clip_ms = span_median(&agg, "nn.optim.clip");
    let update_ms = span_median(&agg, "nn.optim.step");
    let zero_ms = span_median(&agg, "nn.optim.zero_grad");
    let step_spans = agg.get("train.step").expect("step spans");
    let step_self_ms = step_spans.self_ms / step_spans.durations_ms.len() as f64;
    let layer_self_ms = layer_ms - kernels.attention_fwd_ms - kernels.layer_gemm_ms(false);
    let forward_probed =
        make_ms + embed_ms + layers * (kernels.attention_fwd_ms + kernels.layer_gemm_ms(false));
    let tape_unattributed_ms = forward_ms - forward_probed;
    // What neither a span nor a probe explains: the step's own glue and the part of
    // the forward outside batch assembly, embedding and the encoder layers (task
    // head, loss).
    let unexplained_ms =
        step_self_ms + (forward_ms - make_ms - embed_ms - layers * layer_ms).max(0.0);

    let mut shares = vec![
        ("data.batch.make", make_ms),
        ("core.embedding.fwd", embed_ms),
        ("core.group.kmeans", layers * kernels.kmeans_ms),
        ("core.scheduler.merge", layers * kernels.merge_ms),
        ("tensor.segment.sum", layers * 2.0 * kernels.segment_sum_ms),
        ("tensor.fused.fwd", layers * kernels.fused_fwd_ms),
        ("core.attention.self", layers * kernels.attention_self_ms()),
        ("tensor.gemm (forward)", layers * kernels.layer_gemm_ms(false)),
        ("core.encoder.layer_self", layers * layer_self_ms),
        ("nn.backward", backward_ms),
        ("nn.optim.clip", clip_ms),
        ("nn.optim.step", update_ms),
        ("nn.optim.zero_grad", zero_ms),
        ("unexplained (step glue, head, loss)", unexplained_ms),
    ];
    note_shares(&mut out, &mut shares, step_ms, "traced step p50");

    let decisions: Vec<&BatchSizeDecision> = calls.iter().flat_map(|c| &c.decisions).collect();
    let batch_size_mean = if decisions.is_empty() {
        spec.train.batch_size as f64
    } else {
        decisions.iter().map(|d| d.batch_size as f64).sum::<f64>() / decisions.len() as f64
    };

    out.put("e2e.fail_frac", out.failed as f64 / out.attempted as f64);
    out.put("e2e.final_loss", f64::from(calls[calls.len() - 1].loss));
    out.put("data.batch.make_ms", make_ms);
    out.put("core.tasks.forward_ms", forward_ms);
    out.put("core.embedding.fwd_ms", embed_ms);
    out.put("core.encoder.layer_fwd_ms", layer_ms);
    out.put("core.encoder.layer_self_ms", layer_self_ms);
    out.put_all(kernels.metrics());
    out.put("core.group.calls_per_item", layers / batch as f64);
    out.put("core.scheduler.groups_mean", f64::from(groups_mean));
    out.put("core.scheduler.predict_ms", predict_ms);
    out.put("core.scheduler.batch_size_mean", batch_size_mean);
    out.put(
        "tensor.pool.reuse_frac",
        pool_reused as f64 / (pool_reused + pool_fresh).max(1) as f64,
    );
    out.put("tensor.pool.fresh_mb", pool_fresh_bytes as f64 / 1e6);
    out.put("nn.backward.ms", backward_ms);
    out.put("nn.optim.clip_ms", clip_ms);
    out.put("nn.optim.step_ms", update_ms);
    out.put("nn.tape.unattributed_ms", tape_unattributed_ms);
    // The same steps on the same data: the ratio of total step time is the overhead.
    let total_ms = |steps: &[Step]| steps.iter().map(|s| s.ms).sum::<f64>();
    out.put("trace.overhead_frac", 1.0 - total_ms(&ref_steps) / total_ms(&traced_steps));
    out.put("trace.unattributed_frac", unexplained_ms / step_ms);
    out.put("trace.spans", spans.len() as f64);
    let traced_items: f64 = traced_steps.iter().map(|s| s.items as f64).sum();
    out.put("trace.items_per_s", traced_items / (total_ms(&traced_steps) / 1e3));
    out.put("trace.op_ms_p50", step_ms);
    (out, spans)
}
