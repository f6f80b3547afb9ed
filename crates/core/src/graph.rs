//! Emission of the static forward graph from a model configuration, and the `no_grad`
//! [`Var`] interpreter that serves as the exactness oracle for plan executors.
//!
//! [`build_graph`] lays out the whole RITA forward — window embedding, encoder stack,
//! task head — as [`rita_nn::graph`] nodes whose IDs are the dot-separated parameter
//! paths the module visitors produce, so a checkpoint's tensors bind to the graph by
//! name with no translation table. Each node is one call of a training module (a
//! `Linear` layer is one [`Op::Linear`] node, the time-aware convolution one
//! [`Op::WindowEmbed`] node), so the graph is emitted in the form the serving tier runs.
//!
//! [`run_var`] walks a compiled schedule with the same `Var` operations the training
//! modules call, under `no_grad`. Because the training forward and this interpreter
//! share every kernel and its invocation order, their outputs are bit-identical — and
//! any other interpreter of the same plan (the tape-free one in `rita-infer`) can be
//! checked against it to 0 ulp.

use rita_nn::graph::{AttnOp, Binding, Graph, Op, PlanError, ValueId};
use rita_nn::{no_grad, Var};
use rita_tensor::NdArray;

use crate::attention::group::{effective_groups, group_attention};
use crate::attention::{Attention, AttentionKind, GroupAttentionConfig, VanillaAttention};
use crate::checkpoint::{CheckpointError, TaskKind};
use crate::model::RitaConfig;

/// The value name under which interpreters look up the sinusoidal positional table
/// (rebuilt from the config, never checkpointed).
pub const POSITIONAL: &str = "positional";

/// Emits a linear layer `d_in → d_out` as one node named `prefix` and returns its
/// output value.
fn emit_linear(g: &mut Graph, prefix: &str, x: ValueId, d_in: usize, d_out: usize) -> ValueId {
    let w = g.param(&format!("{prefix}.weight"), &[d_in, d_out]);
    let b = g.param(&format!("{prefix}.bias"), &[d_out]);
    g.push(prefix, Op::Linear, vec![x, w, b])
}

fn emit_layer_norm(g: &mut Graph, prefix: &str, x: ValueId, d: usize) -> ValueId {
    let gamma = g.param(&format!("{prefix}.gamma"), &[d]);
    let beta = g.param(&format!("{prefix}.beta"), &[d]);
    g.push(
        prefix,
        Op::LayerNorm { eps: rita_nn::layers::LayerNorm::DEFAULT_EPS },
        vec![x, gamma, beta],
    )
}

/// Builds the forward graph for `config` and `task`, declaring every parameter's
/// shape next to its path, so [`crate::checkpoint::Checkpoint::bind`] can check a
/// checkpoint's records against it before anything is built.
///
/// `scheduler` is the checkpoint's persisted per-layer group-count targets (ignored for
/// non-group attention); a missing entry falls back to the configured initial group
/// count, exactly as checkpoint loading always has. Node IDs follow the parameter-path
/// grammar (`model.encoder.layers.3.norm1`, …), matching how checkpoints name their
/// tensors.
///
/// A config that [`RitaConfig::check`] rejects is [`CheckpointError::Corrupted`] naming
/// the rule, so no loader serves it.
pub fn build_graph(
    config: &RitaConfig,
    task: TaskKind,
    scheduler: &[Option<f32>],
) -> Result<Graph, CheckpointError> {
    config.check().map_err(CheckpointError::Corrupted)?;
    let (d, patch) = (config.d_model, config.channels * config.window);
    let group_defaults = GroupAttentionConfig::default();
    let mut g = Graph::new();
    let x = g.add_input("input");

    // Input stage: time-aware convolution as one windowed projection, then [CLS] +
    // positions.
    let embedded = {
        let w = g.param("model.embedding.conv.weight", &[patch, d]);
        let b = g.param("model.embedding.conv.bias", &[d]);
        let op = Op::WindowEmbed { window: config.window, stride: config.stride };
        g.push("model.embedding.conv", op, vec![x, w, b])
    };
    let cls = g.param("model.embedding.cls", &[d]);
    let pos = g.positional(POSITIONAL);
    let mut h = g.push("model.embedding", Op::ClsConcatPos, vec![embedded, cls, pos]);

    // Encoder stack.
    for i in 0..config.n_layers {
        let p = format!("model.encoder.layers.{i}");
        let q = emit_linear(&mut g, &format!("{p}.q_proj"), h, d, d);
        let k = emit_linear(&mut g, &format!("{p}.k_proj"), h, d, d);
        let v = emit_linear(&mut g, &format!("{p}.v_proj"), h, d, d);
        let split = Op::SplitHeads { heads: config.n_heads };
        let qh = g.push(&format!("{p}.q_proj.split_heads"), split, vec![q]);
        let kh = g.push(&format!("{p}.k_proj.split_heads"), split, vec![k]);
        let vh = g.push(&format!("{p}.v_proj.split_heads"), split, vec![v]);
        let attn_op = match config.attention {
            AttentionKind::Vanilla => AttnOp::Vanilla,
            AttentionKind::Group { initial_groups, .. } => AttnOp::Group {
                n_groups: scheduler.get(i).copied().flatten().unwrap_or(initial_groups as f32),
                min_groups: group_defaults.min_groups,
                kmeans_iters: group_defaults.kmeans_iters,
            },
        };
        let attended = g.push(&format!("{p}.attention"), Op::Attention(attn_op), vec![qh, kh, vh]);
        let merged = g.push(&format!("{p}.attention.merge_heads"), Op::MergeHeads, vec![attended]);
        let projected = emit_linear(&mut g, &format!("{p}.out_proj"), merged, d, d);
        let sum1 = g.push(&format!("{p}.residual1"), Op::Add, vec![h, projected]);
        let x1 = emit_layer_norm(&mut g, &format!("{p}.norm1"), sum1, d);
        let ff1 = emit_linear(&mut g, &format!("{p}.ff.fc1"), x1, d, config.ff_hidden);
        let act = g.push(&format!("{p}.ff.gelu"), Op::Gelu, vec![ff1]);
        let ff2 = emit_linear(&mut g, &format!("{p}.ff.fc2"), act, config.ff_hidden, d);
        let sum2 = g.push(&format!("{p}.residual2"), Op::Add, vec![x1, ff2]);
        h = emit_layer_norm(&mut g, &format!("{p}.norm2"), sum2, d);
    }

    // Task head.
    g.output = match task {
        TaskKind::Classifier { num_classes } => {
            let pooled = g.push("cls_pool", Op::ClsPool, vec![h]);
            emit_linear(&mut g, "head", pooled, d, num_classes)
        }
        TaskKind::Imputer => {
            let windows = g.push("windows", Op::SliceWindows, vec![h]);
            let decoded = emit_linear(&mut g, "decoder", windows, d, patch);
            let fold = Op::Fold1d {
                channels: config.channels,
                window: config.window,
                stride: config.stride,
            };
            g.push("fold", fold, vec![decoded])
        }
    };
    debug_assert!(g.validate().is_ok(), "emitted graph is malformed: {:?}", g.validate());
    Ok(g)
}

/// Executes `graph` on `x` with `no_grad` [`Var`] operations — the exactness oracle.
///
/// `lookup` supplies parameter tensors by path and the positional table under
/// [`POSITIONAL`]. Every op mirrors the corresponding training-module forward
/// call-for-call, so the result is bit-identical to running the module tree itself.
pub fn run_var(
    graph: &Graph,
    x: &NdArray,
    lookup: &dyn Fn(&str) -> Option<NdArray>,
) -> Result<Var, PlanError> {
    let order = graph.schedule()?;
    no_grad(|| {
        let mut slots: Vec<Option<Var>> = vec![None; graph.values.len()];
        slots[graph.input.0] = Some(Var::constant(x.clone()));
        let fetch = |slots: &[Option<Var>], v: ValueId| -> Result<Var, PlanError> {
            if let Some(var) = &slots[v.0] {
                return Ok(var.clone());
            }
            let info = &graph.values[v.0];
            let name = match &info.binding {
                Some(Binding::Param { path, .. }) => path.as_str(),
                Some(Binding::Positional) => info.name.as_str(),
                _ => return Err(PlanError::MissingParam(info.name.clone())),
            };
            lookup(name).map(Var::constant).ok_or_else(|| PlanError::MissingParam(name.to_string()))
        };
        for &ni in &order {
            let node = &graph.nodes[ni];
            let mut ins = Vec::with_capacity(node.inputs.len());
            for &v in &node.inputs {
                ins.push(fetch(&slots, v)?);
            }
            let out = exec_var(&node.op, &ins, x.shape());
            slots[node.output.0] = Some(out);
        }
        slots[graph.output.0].take().ok_or_else(|| PlanError::MissingParam("graph output".into()))
    })
}

/// One node under the `Var` interpreter, using exactly the training modules' op chains.
fn exec_var(op: &Op, ins: &[Var], input_shape: &[usize]) -> Var {
    match op {
        Op::Linear => ins[0].linear(&ins[1], Some(&ins[2])),
        Op::WindowEmbed { window, stride } => {
            ins[0].unfold1d(*window, *stride).linear(&ins[1], Some(&ins[2]))
        }
        Op::ClsConcatPos => {
            // Mirrors `TimeConvEmbed::forward` after the convolution.
            let embedded = &ins[0];
            let shape = embedded.shape();
            let (batch, n, d) = (shape[0], shape[1], shape[2]);
            let cls = ins[1].reshape(&[1, 1, d]);
            let cls_batch = cls.mul(&Var::constant(NdArray::ones(&[batch, 1, d])));
            let with_cls = Var::concat(&[cls_batch, embedded.clone()], 1);
            let pos = ins[2].slice_axis(0, 0, n + 1);
            with_cls.add(&pos)
        }
        Op::LayerNorm { eps } => ins[0].layer_norm(&ins[1], &ins[2], *eps),
        Op::Gelu => ins[0].gelu(),
        Op::Add => ins[0].add(&ins[1]),
        Op::SplitHeads { heads } => crate::attention::split_heads(&ins[0], *heads),
        Op::MergeHeads => crate::attention::merge_heads(&ins[0]),
        Op::Attention(attn) => exec_var_attention(attn, ins),
        Op::ClsPool => {
            let shape = ins[0].shape();
            ins[0].slice_axis(1, 0, 1).reshape(&[shape[0], shape[2]])
        }
        Op::SliceWindows => {
            let n = ins[0].shape()[1];
            ins[0].slice_axis(1, 1, n)
        }
        Op::Fold1d { channels, window, stride } => {
            ins[0].fold1d(*channels, *window, *stride, input_shape[2])
        }
    }
}

/// An `Attention` node: the body the corresponding module's `forward` runs, with the
/// group scheduler's target frozen at graph-emission time.
fn exec_var_attention(attn: &AttnOp, ins: &[Var]) -> Var {
    let (q, k, v) = (&ins[0], &ins[1], &ins[2]);
    match attn {
        AttnOp::Vanilla => VanillaAttention::new().forward(q, k, v),
        AttnOp::Group { n_groups, min_groups, kmeans_iters } => {
            let groups = effective_groups(*n_groups, *min_groups, q.shape()[2]);
            group_attention(q, k, v, groups, *kmeans_iters).0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::Checkpoint;
    use crate::model::embedding::sinusoidal_table;
    use crate::tasks::{Classifier, Imputer};
    use rand::SeedableRng;
    use rita_tensor::SeedableRng64;

    fn kinds() -> Vec<AttentionKind> {
        vec![
            AttentionKind::Vanilla,
            AttentionKind::Group { epsilon: 2.0, initial_groups: 4, adaptive: false },
        ]
    }

    /// `build_graph` decides what serves, so a config `RitaConfig::check` rejects is a
    /// typed error naming the rule, not the panic `validate` would raise.
    #[test]
    fn an_inconsistent_config_is_corrupted_naming_the_rule() {
        let config = RitaConfig { n_layers: 0, ..RitaConfig::default() };
        assert!(matches!(
            build_graph(&config, TaskKind::Classifier { num_classes: 4 }, &[]),
            Err(CheckpointError::Corrupted(rule)) if rule.contains("encoder layer")
        ));
    }

    /// The graph declares every parameter at the path and shape the module tree gives
    /// it, for both attention kinds and both heads: `Checkpoint::bind` checks records
    /// against the graph alone, and `restore_*` write them into the tree unchecked.
    #[test]
    fn graph_params_match_checkpoint_tensor_paths_exactly() {
        let mut rng = SeedableRng64::seed_from_u64(0);
        for kind in kinds() {
            let config = RitaConfig::tiny(3, 60, kind);
            for ckpt in [
                Checkpoint::of_classifier(&Classifier::new(config, 4, &mut rng), None),
                Checkpoint::of_imputer(&Imputer::new(config, &mut rng), None),
            ] {
                let graph = build_graph(&config, ckpt.task, &ckpt.scheduler).unwrap();
                let mut graph_params: Vec<(String, Vec<usize>)> = graph
                    .values
                    .iter()
                    .filter_map(|v| match &v.binding {
                        Some(Binding::Param { path, shape }) => Some((path.clone(), shape.clone())),
                        _ => None,
                    })
                    .collect();
                let mut ckpt_params: Vec<(String, Vec<usize>)> =
                    ckpt.tensors.iter().map(|(p, t)| (p.clone(), t.shape().to_vec())).collect();
                graph_params.sort();
                ckpt_params.sort();
                assert_eq!(graph_params, ckpt_params, "{} {:?}", kind.name(), ckpt.task);
            }
        }
    }

    /// The graph `build_graph` emits is the one the serving tier runs, so this pins the
    /// served graph against the module tree's own forward, bit for bit.
    #[test]
    fn var_oracle_matches_the_training_forward_bitwise() {
        let mut rng = SeedableRng64::seed_from_u64(1);
        for kind in kinds() {
            let config = RitaConfig::tiny(3, 60, kind);
            let mut clf = Classifier::new(config, 4, &mut rng);
            let ckpt = Checkpoint::of_classifier(&clf, None);
            let graph = build_graph(&config, ckpt.task, &ckpt.scheduler).unwrap();
            let x = NdArray::randn(&[2, 3, 47], 1.0, &mut rng);

            let reference = no_grad(|| clf.logits(&x, false, &mut rng));
            let table = sinusoidal_table(config.max_windows() + 1, config.d_model);
            let oracle = run_var(&graph, &x, &|name| {
                if name == POSITIONAL {
                    return Some(table.clone());
                }
                ckpt.tensors.iter().find(|(p, _)| p == name).map(|(_, t)| t.to_f32())
            })
            .expect("oracle run");
            assert_eq!(
                reference.to_array().as_slice(),
                oracle.to_array().as_slice(),
                "{}",
                kind.name()
            );
        }
    }
}
