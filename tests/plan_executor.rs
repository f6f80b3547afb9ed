//! The planned-graph executor's contract: one IR, two interpreters, identical bits.
//!
//! `rita-infer` compiles the static forward graph (`rita_core::graph::build_graph`)
//! into per-shape plans and interprets them with raw `NdArray` kernels; the `no_grad`
//! `Var` interpreter (`rita_core::graph::run_var`) over the *same* graph is the
//! in-tree exactness oracle. The model serves the graph exactly as `build_graph` emits
//! it. These tests pin that the two interpreters agree at 0 ulp across every served
//! attention kind (vanilla and group), task head, and shape bucket, that the plan cache
//! counts hits and misses, that a checkpoint missing any parameter (a bias included)
//! is refused by every loader and by the verifier, that a header without records or a
//! record of the wrong shape is refused at load, before anything is built, that a
//! damaged int8 record is rejected by every loader before it is packed, and that
//! the FFN's GELU writes over its dying input with the arena, the executor and the
//! verifier agreeing on it.

use std::time::Duration;

use rand::SeedableRng;
use rita::core::attention::AttentionKind;
use rita::core::checkpoint::{Checkpoint, CheckpointError, TensorRecord};
use rita::core::graph::{build_graph, run_var, POSITIONAL};
use rita::core::model::embedding::sinusoidal_table;
use rita::core::model::RitaConfig;
use rita::core::tasks::{Classifier, Imputer};
use rita::infer::{
    plan_cache_stats, pool_stats, InferModel, InferSession, ModelRegistry, PublishError,
    ServeError, Server, ServerConfig,
};
use rita::nn::graph::{Graph, Op, Plan};
use rita::tensor::{NdArray, SeedableRng64};
use rita::verify::{verify_checkpoint, verify_plan, Analysis, Corruption, VerifyError};

fn rng(seed: u64) -> SeedableRng64 {
    SeedableRng64::seed_from_u64(seed)
}

fn attention_kinds() -> Vec<(&'static str, AttentionKind)> {
    vec![
        ("vanilla", AttentionKind::Vanilla),
        ("group", AttentionKind::Group { epsilon: 2.0, initial_groups: 4, adaptive: false }),
        (
            "group_adaptive",
            AttentionKind::Group { epsilon: 2.0, initial_groups: 6, adaptive: true },
        ),
    ]
}

/// Runs the `Var` oracle interpreter over `graph` with parameters drawn from `ckpt`.
fn oracle(graph: &Graph, ckpt: &Checkpoint, x: &NdArray) -> NdArray {
    let table = sinusoidal_table(ckpt.config.max_windows() + 1, ckpt.config.d_model);
    run_var(graph, x, &|name| {
        if name == POSITIONAL {
            return Some(table.clone());
        }
        ckpt.tensors.iter().find(|(p, _)| p == name).map(|(_, t)| t.to_f32())
    })
    .expect("oracle run")
    .to_array()
}

/// The tentpole property: the planned `NdArray` executor and the `no_grad` `Var`
/// interpreter — two interpreters over one compiled graph — produce bit-identical
/// classifier logits across every served attention kind and multiple shape buckets.
#[test]
fn planned_executor_matches_the_var_oracle_across_kinds_and_lengths() {
    for (name, kind) in attention_kinds() {
        let mut r = rng(101);
        let config = RitaConfig::tiny(3, 60, kind);
        let clf = Classifier::new(config, 4, &mut r);
        let ckpt = Checkpoint::of_classifier(&clf, None);
        let emitted = build_graph(&config, ckpt.task, &ckpt.scheduler).unwrap();
        let model = InferModel::from_checkpoint(&ckpt).unwrap();

        for &(batch, len) in &[(2usize, 33usize), (3, 60), (1, 47)] {
            let x = NdArray::randn(&[batch, 3, len], 1.0, &mut r);
            let planned = model.logits(&x);
            let reference = oracle(&emitted, &ckpt, &x);
            assert_eq!(
                reference.as_slice(),
                planned.as_slice(),
                "{name} (batch {batch}, len {len}): planned executor diverged from the oracle"
            );
        }
        assert_eq!(model.cached_plans(), 3, "{name}: one plan per (batch, length) bucket");
    }
}

/// Same two-interpreter agreement for the reconstruction head.
#[test]
fn imputer_plans_match_the_oracle() {
    for (name, kind) in attention_kinds() {
        let mut r = rng(211);
        let config = RitaConfig::tiny(2, 45, kind);
        let imp = Imputer::new(config, &mut r);
        let ckpt = Checkpoint::of_imputer(&imp, None);
        let emitted = build_graph(&config, ckpt.task, &ckpt.scheduler).unwrap();
        let model = InferModel::from_checkpoint(&ckpt).unwrap();
        for &len in &[30usize, 45] {
            let x = NdArray::randn(&[2, 2, len], 1.0, &mut r);
            let planned = model.reconstruct(&x);
            let reference = oracle(&emitted, &ckpt, &x);
            assert_eq!(reference.as_slice(), planned.as_slice(), "{name} imputer, len {len}");
        }
    }
}

/// Every parameter is required on the serving side, as it is on the training side: a
/// classifier checkpoint with one bias removed is refused by `InferModel`, by the
/// registry, by the verifier (a `MissingParam` binding error), and by
/// `restore_classifier` — one rule for every loader.
#[test]
fn a_checkpoint_missing_a_bias_is_refused_by_every_loader() {
    const BIAS: &str = "model.encoder.layers.0.q_proj.bias";
    let mut r = rng(37);
    let config = RitaConfig::tiny(3, 60, AttentionKind::Vanilla);
    let clf = Classifier::new(config, 4, &mut r);
    let mut ckpt = Checkpoint::of_classifier(&clf, None);
    let before = ckpt.tensors.len();
    ckpt.tensors.retain(|(p, _)| p != BIAS);
    assert_eq!(ckpt.tensors.len(), before - 1, "classifier checkpoints carry {BIAS}");

    match InferModel::from_checkpoint(&ckpt) {
        Err(PublishError::Checkpoint(CheckpointError::MissingTensor(path))) => {
            assert_eq!(path, BIAS)
        }
        Err(e) => panic!("expected MissingTensor({BIAS}), got {e}"),
        Ok(_) => panic!("a checkpoint without {BIAS} must not load"),
    }
    let registry = ModelRegistry::new();
    match registry.publish(&ckpt) {
        Err(PublishError::Checkpoint(CheckpointError::MissingTensor(path))) => {
            assert_eq!(path, BIAS)
        }
        other => panic!("expected the publish to be refused, got {other:?}"),
    }
    assert_eq!(registry.current_version(), None);

    let report = verify_checkpoint(&ckpt);
    assert!(
        report.diagnostics.iter().any(|d| d.analysis == Analysis::Binding
            && d.node == BIAS
            && d.error == VerifyError::MissingParam),
        "expected a MissingParam binding error for {BIAS}, got:\n{report}"
    );
    assert!(matches!(
        ckpt.restore_classifier(),
        Err(CheckpointError::MissingTensor(path)) if path == BIAS
    ));
}

/// A header with no records implies a whole model but carries none of it: the restore
/// and the serving load both refuse it, naming the first parameter the graph declares,
/// before a module tree or a plan exists.
#[test]
fn a_header_only_checkpoint_is_refused_by_every_loader() {
    const FIRST: &str = "model.embedding.conv.weight";
    let clf = Classifier::new(RitaConfig::tiny(3, 60, AttentionKind::Vanilla), 4, &mut rng(41));
    let mut ckpt = Checkpoint::of_classifier(&clf, None);
    ckpt.tensors.clear();
    let header_only = Checkpoint::from_bytes(&ckpt.to_bytes()).unwrap();
    assert!(matches!(
        header_only.restore_classifier(),
        Err(CheckpointError::MissingTensor(path)) if path == FIRST
    ));
    match InferModel::from_checkpoint(&header_only) {
        Err(PublishError::Checkpoint(CheckpointError::MissingTensor(path))) => {
            assert_eq!(path, FIRST)
        }
        Err(e) => panic!("expected MissingTensor({FIRST}), got {e}"),
        Ok(_) => panic!("a header without records must not load"),
    }
}

/// An int8 record whose dequantization scale is NaN, or whose payload is one code short
/// of its shape, is judged by the record check `publish` runs, whichever loader meets
/// it: `InferModel`, `InferSession` and the registry each answer `Rejected` with a
/// dtype error, before anything dequantizes or packs the record.
#[test]
fn damaged_int8_records_are_rejected_by_every_loader() {
    let clf = Classifier::new(RitaConfig::tiny(3, 60, AttentionKind::Vanilla), 4, &mut rng(43));
    let quantized = Checkpoint::of_classifier(&clf, None).quantize();
    let rejected = |e: &PublishError| match e {
        PublishError::Rejected(report) => report.has_error_in(Analysis::Dtype),
        PublishError::Checkpoint(_) => false,
    };
    let registry = ModelRegistry::new();
    for damage in ["NaN scale", "short payload"] {
        let mut ckpt = quantized.clone();
        let (data, scales) = ckpt
            .tensors
            .iter_mut()
            .find_map(|(_, t)| match t {
                TensorRecord::Int8 { data, scales, .. } => Some((data, scales)),
                TensorRecord::F32(_) => None,
            })
            .expect("a quantized checkpoint has int8 records");
        if damage == "NaN scale" {
            scales[0] = f32::NAN;
        } else {
            data.pop();
        }
        match InferModel::from_checkpoint(&ckpt) {
            Err(e) => assert!(rejected(&e), "InferModel, {damage}: {e}"),
            Ok(_) => panic!("InferModel loaded a {damage}"),
        }
        match InferSession::from_checkpoint(&ckpt) {
            Err(e) => assert!(rejected(&e), "InferSession, {damage}: {e}"),
            Ok(_) => panic!("InferSession loaded a {damage}"),
        }
        match registry.publish(&ckpt) {
            Err(e) => assert!(rejected(&e), "publish, {damage}: {e}"),
            Ok(version) => panic!("the registry published a {damage} as version {version}"),
        }
    }
    assert_eq!(registry.current_version(), None);
}

/// Plans are compiled once per `(batch, length)` bucket and then served from the
/// cache; the process-wide hit/miss counters (surfaced in server metrics) move
/// accordingly.
#[test]
fn plan_cache_counts_hits_and_misses() {
    let mut r = rng(53);
    let config = RitaConfig::tiny(2, 50, AttentionKind::Vanilla);
    let clf = Classifier::new(config, 3, &mut r);
    let model = InferModel::from_checkpoint(&Checkpoint::of_classifier(&clf, None)).unwrap();

    let before = plan_cache_stats();
    let xa = NdArray::randn(&[2, 2, 40], 1.0, &mut r);
    let xb = NdArray::randn(&[2, 2, 50], 1.0, &mut r);
    let _ = model.logits(&xa); // miss: new (2, 40) bucket
    let _ = model.logits(&xb); // miss: new (2, 50) bucket
    let _ = model.logits(&xa); // hit
    let _ = model.logits(&xa); // hit
    let after = plan_cache_stats();

    assert_eq!(model.cached_plans(), 2);
    // The counters are process-global (other tests run concurrently), so deltas are
    // lower bounds here.
    assert!(after.misses - before.misses >= 2, "{before:?} -> {after:?}");
    assert!(after.hits - before.hits >= 2, "{before:?} -> {after:?}");
    assert!(after.hit_rate() > 0.0);
}

/// A record of the wrong *shape* is refused at load, as `ShapeMismatch` naming it, by
/// `InferModel`, `InferSession` and the registry — and so is a header whose `d_model`
/// disagrees with the records — so the server never runs a request on either.
#[test]
fn wrong_shape_checkpoint_tensor_is_refused_at_load() {
    let mut r = rng(67);
    let config = RitaConfig {
        channels: 2,
        max_len: 64,
        d_model: 16,
        n_layers: 1,
        ff_hidden: 32,
        dropout: 0.0,
        attention: AttentionKind::Vanilla,
        ..Default::default()
    };
    let clf = Classifier::new(config, 4, &mut r);
    let mut bad = Checkpoint::of_classifier(&clf, None);
    let slot = bad
        .tensors
        .iter_mut()
        .find(|(p, _)| p == "head.weight")
        .expect("classifier checkpoints carry a head");
    slot.1 = TensorRecord::F32(NdArray::zeros(&[3, 3])); // wrong shape, right path
    let mut wide = Checkpoint::of_classifier(&clf, None);
    wide.config.d_model = 32; // every record is still d_model 16

    let registry = std::sync::Arc::new(ModelRegistry::new());
    let patch = config.channels * config.window;
    for (ckpt, path, expected) in [
        (&bad, "head.weight", vec![16, 4]),
        (&wide, "model.embedding.conv.weight", vec![patch, 32]),
    ] {
        let refused = |e: &PublishError| {
            matches!(e, PublishError::Checkpoint(CheckpointError::ShapeMismatch {
                path: p, expected: want, ..
            }) if p == path && want == &expected)
        };
        match InferModel::from_checkpoint(ckpt) {
            Err(e) => assert!(refused(&e), "InferModel: {e}"),
            Ok(_) => panic!("InferModel loaded a wrong-shape {path}"),
        }
        match InferSession::from_checkpoint(ckpt) {
            Err(e) => assert!(refused(&e), "InferSession: {e}"),
            Ok(_) => panic!("InferSession loaded a wrong-shape {path}"),
        }
        match registry.publish(ckpt) {
            Err(e) => assert!(refused(&e), "publish: {e}"),
            other => panic!("expected the publish to be refused, got {other:?}"),
        }
    }
    let server = Server::start(
        registry,
        ServerConfig {
            workers: 1,
            linger: Duration::from_millis(1),
            bytes_per_sec: Some(1e12),
            ..Default::default()
        },
    );
    // Nothing was activated, so the server has no model — a typed error, no panic.
    let req = NdArray::randn(&[2, 40], 1.0, &mut r);
    match server.classify("tenant", req.clone()) {
        Err(ServeError::NoModel) => {}
        other => panic!("expected ServeError::NoModel, got {other:?}"),
    }
    server.registry().publish(&Checkpoint::of_classifier(&clf, None)).unwrap();
    let served = server.classify("tenant", req).expect("healthy model serves");
    assert_eq!(served.model_version, 1);
    server.shutdown();
}

/// The server metrics snapshot surfaces the aggregated buffer-pool counters and the
/// plan-cache hit rate, in the struct and in the JSON.
#[test]
fn server_metrics_surface_pool_and_plan_cache_stats() {
    let mut r = rng(71);
    let config = RitaConfig {
        channels: 2,
        max_len: 64,
        d_model: 16,
        n_layers: 1,
        ff_hidden: 32,
        dropout: 0.0,
        attention: AttentionKind::Vanilla,
        ..Default::default()
    };
    let clf = Classifier::new(config, 4, &mut r);
    let registry = std::sync::Arc::new(ModelRegistry::new());
    registry.publish(&Checkpoint::of_classifier(&clf, None)).unwrap();
    let server = Server::start(
        registry,
        ServerConfig {
            workers: 1,
            linger: Duration::from_millis(1),
            bytes_per_sec: Some(1e12),
            ..Default::default()
        },
    );
    for i in 0..6 {
        let req = NdArray::randn(&[2, 40 + 8 * (i % 2)], 1.0, &mut r);
        server.classify("tenant", req).unwrap();
    }
    let snap = server.metrics().snapshot();
    assert!(snap.pool.fresh + snap.pool.reused > 0, "pool counters never recorded: {snap:?}");
    assert!(snap.pool.recycled > 0, "planned last-use recycling never fired: {snap:?}");
    assert!(snap.pool.reused > 0, "steady-state batches should hit the pool: {snap:?}");
    assert!(snap.pool.fresh_bytes + snap.pool.reused_bytes > 0);
    assert!(snap.plan_cache.hits + snap.plan_cache.misses > 0);
    let json = snap.to_json();
    for key in ["\"pool\"", "\"plan_cache\"", "\"hit_rate\"", "\"reused_bytes\"", "\"misses\""] {
        assert!(json.contains(key), "metrics JSON lacks {key}: {json}");
    }
    server.shutdown();
}

fn bits(a: &NdArray) -> Vec<u32> {
    a.materialize().as_slice().iter().map(|v| v.to_bits()).collect()
}

/// A tiny classifier, its servable model, and the plan the model compiles for `x`.
fn model_and_plan(seed: u64, x_shape: &[usize]) -> (InferModel, Plan) {
    let mut r = rng(seed);
    let clf = Classifier::new(RitaConfig::tiny(3, 60, AttentionKind::Vanilla), 4, &mut r);
    let ckpt = Checkpoint::of_classifier(&clf, None);
    let model = InferModel::from_checkpoint(&ckpt).unwrap();
    let table = [ckpt.config.max_windows() + 1, ckpt.config.d_model];
    let plan = model
        .graph()
        .compile(x_shape, &|name| {
            if name == POSITIONAL {
                return Some(table.to_vec());
            }
            ckpt.tensors.iter().find(|(p, _)| p == name).map(|(_, t)| t.shape().to_vec())
        })
        .unwrap();
    (model, plan)
}

/// The FFN's `ff1 → gelu → ff2`: ff1 dies at the GELU, so the plan marks exactly the
/// GELU nodes in place, and the executor's GELU node allocates nothing — the pool's
/// counters move as much through the GELU as through its input — while its output
/// keeps the bits of the allocating GELU.
#[test]
fn the_planned_gelu_writes_over_its_dying_input() {
    let x = NdArray::randn(&[2, 3, 60], 1.0, &mut rng(307));
    let (model, plan) = model_and_plan(307, x.shape());
    let graph = model.graph();
    for (pos, &ni) in plan.order.iter().enumerate() {
        assert_eq!(plan.in_place[pos], graph.nodes[ni].op == Op::Gelu, "{}", graph.nodes[ni].id);
    }
    let _ = model.logits(&x); // reserves the arena and warms the pool
    let gelu = graph.nodes.iter().find(|n| n.op == Op::Gelu).expect("an FFN GELU");
    let allocations_through = |target| {
        let before = pool_stats();
        let y = model.try_run_to(&x, target).unwrap();
        let after = pool_stats();
        (y, (after.fresh + after.reused) - (before.fresh + before.reused))
    };
    let (ff1, through_input) = allocations_through(gelu.inputs[0]);
    let (act, through_gelu) = allocations_through(gelu.output);
    assert_eq!(through_gelu, through_input, "the GELU node allocated");
    assert_eq!(bits(&act), bits(&ff1.gelu()));
}

/// The verifier's `MarkInPlace` mutation on a graph whose GELU input is read again
/// after the GELU (a residual): the executor would overwrite storage the `Add` still
/// reads, and the arena replay rejects the plan with a read-after-free on that input.
#[test]
fn a_gelu_marked_in_place_over_a_live_input_is_rejected() {
    let mut g = Graph::new();
    let x = g.add_input("input");
    let (w, b) = (g.param("l.weight", &[8, 8]), g.param("l.bias", &[8]));
    let l = g.push("l", Op::Linear, vec![x, w, b]);
    let act = g.push("act", Op::Gelu, vec![l]);
    let sum = g.push("residual", Op::Add, vec![act, l]);
    g.output = sum;
    let lookup = |p: &str| match p {
        "l.weight" => Some(vec![8, 8]),
        "l.bias" => Some(vec![8]),
        _ => None,
    };
    let clean = g.compile(&[2, 5, 8], &lookup).unwrap();
    assert_eq!(clean.in_place, vec![false; 3]);
    assert!(verify_plan(&g, &clean, &lookup).is_clean());

    let mut plan = clean.clone();
    assert!(Corruption::MarkInPlace.apply_to_plan(&g, &mut plan, 0));
    assert_eq!(plan.in_place, vec![false, true, false], "the GELU is the only site");
    let report = verify_plan(&g, &plan, &lookup);
    assert!(
        report.diagnostics.iter().any(|d| d.analysis == Analysis::Lifetime
            && d.node == "l"
            && d.error == VerifyError::ReadAfterFree { position: 2, freed_at: 1 }),
        "expected a read-after-free on `l`, got:\n{report}"
    );
}
