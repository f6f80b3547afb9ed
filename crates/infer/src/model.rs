//! The servable model: a checkpoint bound onto the static forward graph, plus a cache
//! of compiled execution plans per `(batch, length)` shape bucket.
//!
//! There is no hand-written forward here any more. `rita_core::graph::build_graph`
//! emits the same graph the training module tree defines (node IDs are the
//! checkpoint's own tensor paths, one node per module call, each parameter declared
//! with its shape), `Checkpoint::bind` checks the records against it before anything
//! is built, the model serves that graph as emitted, and `crate::plan` interprets the
//! compiled plan with raw [`NdArray`] kernels. Bit-parity with a `no_grad` training
//! forward is a property of the shared graph and kernels — pinned by
//! `tests/infer_parity.rs` and the `Var` oracle interpreter — not of a mirror kept in
//! sync by hand.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use rita_core::checkpoint::{Checkpoint, TaskKind, TensorRecord};
use rita_core::graph::build_graph;
use rita_core::model::embedding::sinusoidal_table;
use rita_core::model::RitaConfig;
use rita_core::scheduler::MemoryModel;
use rita_nn::graph::{AttnOp, Binding, Graph, Op, PlanError, ValueId};
use rita_tensor::{NdArray, QuantMatrix, MAX_QUANT_K};
use rita_verify::Report;

use crate::plan::{note_plan_cache, CachedPlan, InferError};
use crate::registry::PublishError;

/// Numeric policy of a loaded model: which kernels the plan executor dispatches and
/// how checkpoint weight records are bound.
///
/// * Under [`Precision::Int8`], eligible weight matrices — rank-2 records consumed only as
///   the weight operand of `Linear`/`WindowEmbed` nodes — are bound as pre-packed
///   [`QuantMatrix`] panels and multiplied by the quantized engine
///   (`NdArray::matmul_quant`): int8 checkpoint records bind **directly**, with no
///   load-time inflation to f32, and f32 `.weight` records are quantized once at
///   load. Ineligible records (norm gains, biases, projection tables consumed as a
///   matmul *lhs*) always stay f32.
/// * Under [`Precision::F32`], int8 records are explicitly dequantized at load — the
///   back-compat escape hatch, and the only policy that inflates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Precision {
    /// Everything f32: quantized records are dequantized at load.
    #[default]
    F32,
    /// Int8 per-channel weights through the quantized GEMM engine; f32 activations.
    Int8,
}

impl Precision {
    /// Whether eligible weights bind as packed int8 panels.
    pub fn uses_int8(self) -> bool {
        self == Precision::Int8
    }

    /// Stable lowercase label, used by metrics snapshots and bench reports.
    pub fn as_str(self) -> &'static str {
        match self {
            Precision::F32 => "f32",
            Precision::Int8 => "int8",
        }
    }

    /// The policy a checkpoint asks for by its own record dtypes: any int8 record
    /// means the checkpoint was quantized offline and should serve through the int8
    /// engine (binding it under `F32` would silently inflate every weight).
    pub fn for_checkpoint(ckpt: &Checkpoint) -> Self {
        let quantized = ckpt.tensors.iter().any(|(_, t)| matches!(t, TensorRecord::Int8 { .. }));
        if quantized {
            Precision::Int8
        } else {
            Precision::F32
        }
    }
}

impl std::fmt::Display for Precision {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A checkpoint loaded into servable form: the forward graph with every parameter
/// value bound to a plain tensor, frozen scheduler state, and a cache of compiled
/// plans keyed by `(batch, length)`. Forward methods take `&self`, so one model can
/// serve from several threads (each thread keeps its own buffer pool).
pub struct InferModel {
    config: RitaConfig,
    task: TaskKind,
    graph: Graph,
    precision: Precision,
    /// Checkpoint tensor (or positional table) per graph value, `None` for activations
    /// and for weights bound quantized.
    bound: Vec<Option<NdArray>>,
    /// Pre-packed int8 weight panels per graph value under an int8 policy — the
    /// executor multiplies through these directly; no f32 copy of the weight exists.
    quant: Vec<Option<Arc<QuantMatrix>>>,
    num_classes: Option<usize>,
    mean_groups: Option<f32>,
    plans: Mutex<HashMap<(usize, usize), Arc<CachedPlan>>>,
}

impl InferModel {
    /// Loads a checkpoint into servable form: emits the forward graph for the
    /// checkpoint's config/task and binds every parameter value to its tensor through
    /// `Checkpoint::bind`, before any weight is packed. A config `build_graph` cannot
    /// serve (one `RitaConfig::check` rejects) is refused with its typed error, and so
    /// is a record set that does not match the graph: a missing tensor, bias included
    /// (`CheckpointError::MissingTensor`), a wrong shape (`CheckpointError::ShapeMismatch`)
    /// or a leftover one, each as [`PublishError::Checkpoint`]. The bound records are
    /// then judged by `rita_verify::verify_records`, the record check
    /// `ModelRegistry::publish` runs too: an int8 record whose payload disagrees with
    /// its shape or whose dequantization scale is not finite and positive is
    /// [`PublishError::Rejected`], before anything dequantizes or packs it.
    pub fn from_checkpoint(ckpt: &Checkpoint) -> Result<Self, PublishError> {
        Self::from_checkpoint_with(ckpt, Precision::for_checkpoint(ckpt))
    }

    /// [`InferModel::from_checkpoint`] with an explicit numeric policy — serve a
    /// quantized checkpoint dequantized (`Precision::F32`) or quantize an f32 checkpoint
    /// at load (`Precision::Int8`). The default entry point picks the policy the
    /// checkpoint's own record dtypes ask for.
    pub fn from_checkpoint_with(
        ckpt: &Checkpoint,
        precision: Precision,
    ) -> Result<Self, PublishError> {
        let config = ckpt.config;
        let graph = build_graph(&config, ckpt.task, &ckpt.scheduler)?;
        let records = ckpt.bind(&graph)?;
        let mut report = Report::new();
        report.extend(rita_verify::verify_records(ckpt));
        if report.has_errors() {
            return Err(PublishError::Rejected(report));
        }

        // A value may bind quantized only if *every* consumption is the weight
        // operand of a quantized-capable op — then no kernel ever needs the f32 form.
        let mut weight_only = vec![true; graph.values.len()];
        let mut consumed = vec![false; graph.values.len()];
        for node in &graph.nodes {
            for (pos, v) in node.inputs.iter().enumerate() {
                consumed[v.0] = true;
                let weight_pos = pos == 1 && matches!(node.op, Op::Linear | Op::WindowEmbed { .. });
                if !weight_pos {
                    weight_only[v.0] = false;
                }
            }
        }

        let mut bound: Vec<Option<NdArray>> = vec![None; graph.values.len()];
        let mut quant: Vec<Option<Arc<QuantMatrix>>> = vec![None; graph.values.len()];
        for (i, (info, record)) in graph.values.iter().zip(records).enumerate() {
            if let Some(rec) = record {
                let eligible = precision.uses_int8()
                    && weight_only[i]
                    && consumed[i]
                    && rec.shape().len() == 2
                    && rec.shape()[0] <= MAX_QUANT_K;
                match rec {
                    // Offline-quantized records bind their packed panels directly — the
                    // int8 payload never inflates to f32.
                    TensorRecord::Int8 { shape, data, scales } if eligible => {
                        quant[i] = Some(Arc::new(QuantMatrix::from_quantized(
                            data,
                            scales.clone(),
                            shape[0],
                            shape[1],
                        )));
                    }
                    // Load-time quantization of a trained f32 weight under an int8
                    // policy — same routine the offline pass uses.
                    TensorRecord::F32(t) if eligible && info.name.ends_with(".weight") => {
                        quant[i] = Some(Arc::new(QuantMatrix::quantize(
                            t.as_slice(),
                            rec.shape()[0],
                            rec.shape()[1],
                        )));
                    }
                    rec => bound[i] = Some(rec.to_f32()),
                }
            } else if info.binding == Some(Binding::Positional) {
                bound[i] = Some(sinusoidal_table(config.max_windows() + 1, config.d_model));
            }
        }

        let group_targets: Vec<f32> = graph
            .nodes
            .iter()
            .filter_map(|n| match n.op {
                Op::Attention(AttnOp::Group { n_groups, .. }) => Some(n_groups),
                _ => None,
            })
            .collect();
        let mean_groups = if group_targets.is_empty() {
            None
        } else {
            Some(group_targets.iter().sum::<f32>() / group_targets.len() as f32)
        };
        let num_classes = match ckpt.task {
            TaskKind::Classifier { num_classes } => Some(num_classes),
            _ => None,
        };

        Ok(Self {
            config,
            task: ckpt.task,
            graph,
            precision,
            bound,
            quant,
            num_classes,
            mean_groups,
            plans: Mutex::new(HashMap::new()),
        })
    }

    /// The numeric policy this model executes under.
    pub fn precision(&self) -> Precision {
        self.precision
    }

    /// Number of weight matrices bound as packed int8 panels (0 under f32 policies).
    pub fn quantized_params(&self) -> usize {
        self.quant.iter().filter(|q| q.is_some()).count()
    }

    /// Architecture of the loaded model.
    pub fn config(&self) -> &RitaConfig {
        &self.config
    }

    /// Which task head the checkpoint carried.
    pub fn task(&self) -> TaskKind {
        self.task
    }

    /// The bound forward graph, exactly as `build_graph` emitted it — for diagnostics
    /// and tests.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The memory-relevant shape of the loaded model — what serve-time batch budgeting
    /// (`rita_core::scheduler::latency`) charges per batch.
    pub fn memory_model(&self) -> MemoryModel {
        self.config.memory_model()
    }

    /// Mean frozen scheduler group target across the group-attention layers — the `N`
    /// that serve-time batch bounds plug in. `None` when the checkpoint
    /// uses a non-group attention mechanism (whose cost model saturates `N` at the
    /// window count instead).
    pub fn mean_groups(&self) -> Option<f32> {
        self.mean_groups
    }

    /// Number of classes, when the model carries a classification head.
    pub fn num_classes(&self) -> Option<usize> {
        self.num_classes
    }

    /// Whether the model carries a reconstruction (imputer) head.
    pub fn has_decoder(&self) -> bool {
        matches!(self.task, TaskKind::Imputer)
    }

    /// The compiled plan for one `(batch, length)` bucket, from the cache when this
    /// shape has run before. Compilation performs the full ahead-of-time shape check,
    /// so a checkpoint with malformed tensor shapes fails here — once, with the
    /// offending node named — instead of panicking mid-kernel. Every freshly compiled
    /// plan is then audited by the independent static analyzer before it is cached:
    /// a plan the verifier rejects never reaches the executor.
    fn plan_for(&self, batch: usize, length: usize) -> Result<Arc<CachedPlan>, InferError> {
        let mut plans = crate::lock_mx(&self.plans);
        if let Some(p) = plans.get(&(batch, length)) {
            note_plan_cache(true);
            return Ok(p.clone());
        }
        note_plan_cache(false);
        let input_shape = [batch, self.config.channels, length];
        // Parameters at their declared (and bound) shapes, the positional table at
        // the shape it was built with.
        let lookup = |name: &str| {
            let (info, table) =
                self.graph.values.iter().zip(&self.bound).find(|(v, _)| v.name == name)?;
            match &info.binding {
                Some(Binding::Param { shape, .. }) => Some(shape.clone()),
                _ => table.as_ref().map(|t| t.shape().to_vec()),
            }
        };
        let plan = self.graph.compile(&input_shape, &lookup)?;
        let report = rita_verify::verify_plan(&self.graph, &plan, &lookup);
        if report.has_errors() {
            return Err(InferError::Rejected(report));
        }
        let cached = Arc::new(CachedPlan::new(plan));
        plans.insert((batch, length), cached.clone());
        Ok(cached)
    }

    /// Number of compiled plans currently cached (one per `(batch, length)` bucket).
    pub fn cached_plans(&self) -> usize {
        crate::lock_mx(&self.plans).len()
    }

    /// Runs the compiled plan for `x`'s `(batch, length)` bucket up to (and including)
    /// the node producing `target`, a value of [`InferModel::graph`], and returns that
    /// value. [`InferModel::try_logits`] and [`InferModel::try_reconstruct`] are this
    /// run to the graph's output; tests and diagnostics use it to look inside a
    /// forward.
    pub fn try_run_to(&self, x: &NdArray, target: ValueId) -> Result<NdArray, InferError> {
        let shape = x.shape();
        if shape.len() != 3 {
            return Err(InferError::Plan(PlanError::Shape {
                node: "input".into(),
                detail: format!("expected (batch, channels, length), got {shape:?}"),
            }));
        }
        if target.0 >= self.graph.values.len() {
            return Err(InferError::Plan(PlanError::UnknownInput {
                node: "target".into(),
                value: format!("#{}", target.0),
            }));
        }
        let cached = self.plan_for(shape[0], shape[2])?;
        crate::plan::execute(&self.graph, &cached, &self.bound, &self.quant, x, target)
    }

    /// Class logits `(batch, classes)` for a raw batch.
    pub fn try_logits(&self, x: &NdArray) -> Result<NdArray, InferError> {
        if self.num_classes.is_none() {
            return Err(InferError::MissingHead { requested: "logits" });
        }
        self.try_run_to(x, self.graph.output)
    }

    /// Reconstructs a full series from (masked) observations, `(batch, channels,
    /// length)` → same shape.
    pub fn try_reconstruct(&self, observed: &NdArray) -> Result<NdArray, InferError> {
        if !self.has_decoder() {
            return Err(InferError::MissingHead { requested: "reconstruct" });
        }
        self.try_run_to(observed, self.graph.output)
    }

    /// Panicking convenience for [`InferModel::try_logits`]. Panics when the
    /// checkpoint carries no classification head.
    pub fn logits(&self, x: &NdArray) -> NdArray {
        self.try_logits(x).unwrap_or_else(|e| panic!("logits failed: {e}"))
    }

    /// Panicking convenience for [`InferModel::try_reconstruct`]. Panics when the
    /// checkpoint carries no decoder head.
    pub fn reconstruct(&self, observed: &NdArray) -> NdArray {
        self.try_reconstruct(observed).unwrap_or_else(|e| panic!("reconstruct failed: {e}"))
    }
}
