//! The benchmark's contract: workloads, metric names, units, directions and bounds.
//! `BENCHMARK.json` at the repository root is generated from these tables
//! (`e2e --print-benchmark-json`) and a unit test keeps the two identical.

use crate::json::Json;
use crate::stats::Better;

/// Seconds one run measures when `--seconds` is not given; also `run_seconds` in
/// `BENCHMARK.json`.
pub const RUN_SECONDS: u64 = 25;

/// The command the driver runs from the root of a checkout; it appends
/// `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
pub const COMMAND: [&str; 7] =
    ["cargo", "run", "--release", "--quiet", "--manifest-path", "e2e/Cargo.toml", "--"];

/// Directories that hold the benchmark and nothing else.
pub const PATHS: [&str; 1] = ["e2e"];

/// A workload: its name and the one-line reason it exists.
pub struct Workload {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// Why it is in the suite.
    pub why: &'static str,
}

/// The four workloads, two per user-visible surface (training, serving), each pair
/// stressing different layers.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "train_long",
        why: "Imputer on 21-ch length-10000 series (2000 windows), batch 1: grouping, \
              segment_sum, fused n x N attention fwd+bwd and the merge scheduler dominate",
    },
    Workload {
        name: "train_short_varlen",
        why: "Classifier on 3-ch length 100-200 series in 5 buckets, adaptive batch sizes: \
              GEMMs, tape, AdamW, bucketing and the batch predictor dominate; attention does not",
    },
    Workload {
        name: "serve_closed_low",
        why: "Closed loop, 2 callers, small f32 model: batches of at most 2, so queue wait, \
              linger, plan lookup and per-node overhead are the whole cost",
    },
    Workload {
        name: "serve_open_mixed",
        why: "Open loop, arrivals paced to keep the workers half busy, int8 d_model-256 model, 5% \
              long requests: batch forming, length buckets, qgemm, head-of-line blocking decide",
    },
];

/// A metric's identity in `BENCHMARK.json`.
pub struct Metric {
    /// Name, unique across both lists.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen (end-to-end only).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric { name, unit, better, bound }
}

/// End-to-end metrics: measured with tracing off, reported by every workload.
pub const END_TO_END: [Metric; 6] = [
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("items_per_s", "1/s", Better::Higher, 0.24),
    e2e("op_ms_p50", "ms", Better::Lower, 0.24),
    e2e("op_ms_p90", "ms", Better::Lower, 0.24),
    e2e("cpu_ms_per_item", "ms", Better::Lower, 0.24),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.24),
];

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric { name, unit, better, bound: 0.0 }
}

use Better::{Higher, Lower};

/// Per-layer metrics: reported by the traced pass, no bound. A metric that has no
/// meaning on a workload (a serving counter while training) reads 0 there.
pub const PER_LAYER: [Metric; 63] = [
    // The three end-to-end quantities that can be 0 or do not exist on every
    // workload, which the contract does not allow in the bounded list.
    layer("e2e.fail_frac", "ratio", Lower),
    layer("e2e.slo_miss_frac", "ratio", Lower),
    layer("e2e.final_loss", "loss", Lower),
    layer("data.batch.make_ms", "ms", Lower),
    layer("core.tasks.forward_ms", "ms", Lower),
    layer("core.embedding.fwd_ms", "ms", Lower),
    layer("core.encoder.layer_fwd_ms", "ms", Lower),
    layer("core.encoder.layer_self_ms", "ms", Lower),
    layer("core.attention.fwd_ms", "ms", Lower),
    layer("core.attention.self_ms", "ms", Lower),
    layer("core.group.kmeans_ms", "ms", Lower),
    layer("core.group.calls_per_item", "count", Lower),
    layer("core.scheduler.merge_ms", "ms", Lower),
    layer("core.scheduler.groups_mean", "count", Lower),
    layer("core.scheduler.predict_ms", "ms", Lower),
    layer("core.scheduler.batch_size_mean", "count", Higher),
    layer("tensor.fused.fwd_ms", "ms", Lower),
    layer("tensor.fused.bwd_ms", "ms", Lower),
    layer("tensor.fused.gbytes_per_s", "GB/s", Higher),
    layer("tensor.segment.sum_ms", "ms", Lower),
    layer("tensor.gemm.proj_ms", "ms", Lower),
    layer("tensor.gemm.ffn_ms", "ms", Lower),
    layer("tensor.gemm.nt_ms", "ms", Lower),
    layer("tensor.gemm.gflops", "GFLOP/s", Higher),
    layer("tensor.qgemm.proj_ms", "ms", Lower),
    layer("tensor.qgemm.ffn_ms", "ms", Lower),
    layer("tensor.qgemm.gops", "GOP/s", Higher),
    layer("tensor.pool.reuse_frac", "ratio", Higher),
    layer("tensor.pool.fresh_mb", "MB", Lower),
    layer("nn.backward.ms", "ms", Lower),
    layer("nn.optim.clip_ms", "ms", Lower),
    layer("nn.optim.step_ms", "ms", Lower),
    layer("nn.tape.unattributed_ms", "ms", Lower),
    layer("core.checkpoint.encode_ms", "ms", Lower),
    layer("core.checkpoint.decode_ms", "ms", Lower),
    layer("core.checkpoint.bytes", "count", Lower),
    layer("infer.registry.publish_ms", "ms", Lower),
    layer("infer.model.load_ms", "ms", Lower),
    layer("infer.plan.forward_ms", "ms", Lower),
    layer("infer.plan.compile_ms", "ms", Lower),
    layer("infer.plan.cache_hit_frac", "ratio", Higher),
    layer("infer.plan.buckets", "count", Lower),
    layer("infer.session.classify_ms", "ms", Lower),
    layer("infer.server.start_ms", "ms", Lower),
    layer("infer.server.submit_us", "us", Lower),
    layer("infer.server.queue_wait_us_mean", "us", Lower),
    layer("infer.server.batch_size_mean", "count", Higher),
    layer("infer.server.batches", "count", Lower),
    layer("infer.server.early_close_frac", "ratio", Lower),
    layer("infer.server.shed", "count", Lower),
    layer("infer.server.latency_ms_p99", "ms", Lower),
    layer("infer.server.overhead_us", "us", Lower),
    layer("loadgen.rate_per_s", "1/s", Higher),
    layer("loadgen.lag_ms_p90", "ms", Lower),
    layer("loadgen.sent", "count", Higher),
    layer("loadgen.ok", "count", Higher),
    layer("loadgen.failed", "count", Lower),
    layer("loadgen.shed", "count", Lower),
    layer("trace.overhead_frac", "ratio", Lower),
    layer("trace.unattributed_frac", "ratio", Lower),
    layer("trace.spans", "count", Lower),
    layer("trace.items_per_s", "1/s", Higher),
    layer("trace.op_ms_p50", "ms", Lower),
];

/// The contents of `BENCHMARK.json`.
pub fn benchmark_json() -> Json {
    let strings = |items: &[&str]| Json::Arr(items.iter().map(|s| Json::str(*s)).collect());
    Json::obj([
        ("command", strings(&COMMAND)),
        ("paths", strings(&PATHS)),
        ("run_seconds", Json::count(RUN_SECONDS)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.as_str())),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn valid_name(name: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
        !name.is_empty()
            && name.len() <= 64
            && name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.chars().all(ok)
    }

    #[test]
    fn committed_benchmark_json_is_generated_from_these_tables() {
        let committed = include_str!("../../BENCHMARK.json");
        assert_eq!(committed, benchmark_json().pretty(2), "run `e2e --print-benchmark-json`");
        assert!(committed.len() <= 64 * 1024);
    }

    #[test]
    fn names_units_and_bounds_fit_the_contract() {
        let mut seen = HashSet::new();
        for w in &WORKLOADS {
            assert!(valid_name(w.name) && seen.insert(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(valid_name(m.name) && seen.insert(m.name), "{}", m.name);
            let unit_ok =
                |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
            assert!(!m.unit.is_empty() && m.unit.len() <= 16 && m.unit.chars().all(unit_ok));
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound), "setup_s has the largest bound");
        assert!((1..=60).contains(&RUN_SECONDS));
        assert!(PER_LAYER.len() <= 128 && (2..=8).contains(&WORKLOADS.len()));
    }
}
