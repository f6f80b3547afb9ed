//! The tape-free plan interpreter: executes a compiled forward plan with raw
//! [`NdArray`] kernels.
//!
//! Each node executor calls exactly the tensor kernels, in exactly the order, that the
//! training modules (and the `no_grad` `Var` oracle in `rita_core::graph`) call — that,
//! plus re-zeroing pooled buffers on reuse, is what makes planned execution
//! bit-identical to the training forward. The plan's ahead-of-time lifetime pass tells
//! the executor when each activation is dead, so buffers return to the thread-local
//! pool at their last use, and [`rita_tensor::pool_reserve`] pre-sizes the pool from
//! the plan's arena the first time a thread runs it.
//!
//! Kernel failures surface as a typed [`InferError`] carrying the failing node's ID
//! instead of a panic, so a malformed checkpoint fails the request that touched it —
//! not the worker thread serving it.

use std::cell::RefCell;
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};

use std::sync::Arc;

use rita_core::attention::group::effective_groups;
use rita_core::group::{group_key_blocks, group_layout, GroupLayout};
use rita_nn::graph::{AttnOp, Graph, Node, Op, Plan, PlanError, ValueId};
use rita_tensor::{fused_attention, NdArray, QuantMatrix};

use crate::reclaim;

/// Why a planned forward pass could not produce an answer.
///
/// Unlike the panics it replaces, an `InferError` is request-scoped: the session or
/// server reports it to the caller whose input (or whose checkpoint) triggered it, and
/// the worker thread lives on to serve the next batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InferError {
    /// Compiling the plan for this shape bucket failed — a malformed checkpoint tensor,
    /// an unsupported input shape, or an inconsistent graph.
    Plan(PlanError),
    /// A kernel failed while executing a plan node.
    Node {
        /// ID of the failing node (a parameter path, e.g. `model.encoder.layers.0.norm1`).
        node: String,
        /// The kernel's error.
        detail: String,
    },
    /// The loaded checkpoint has no head for the requested operation.
    MissingHead {
        /// The operation the caller asked for.
        requested: &'static str,
    },
    /// The independent static analyzer (`rita-verify`) found error-severity defects
    /// in the compiled plan; the full report rides along.
    Rejected(rita_verify::Report),
}

impl std::fmt::Display for InferError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InferError::Plan(e) => write!(f, "plan compilation failed: {e}"),
            InferError::Node { node, detail } => write!(f, "node '{node}' failed: {detail}"),
            InferError::MissingHead { requested } => {
                write!(f, "checkpoint has no head for '{requested}'")
            }
            InferError::Rejected(report) => {
                write!(f, "plan rejected by static verification: {report}")
            }
        }
    }
}

impl std::error::Error for InferError {}

impl From<PlanError> for InferError {
    fn from(e: PlanError) -> Self {
        InferError::Plan(e)
    }
}

/// Process-wide plan-cache counters, surfaced in the server metrics snapshot.
static PLAN_CACHE_HITS: AtomicU64 = AtomicU64::new(0);
static PLAN_CACHE_MISSES: AtomicU64 = AtomicU64::new(0);
static NEXT_PLAN_ID: AtomicU64 = AtomicU64::new(0);

/// Plan-cache hit/miss counters (process-wide, across every loaded model version).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Forwards served from an already-compiled plan.
    pub hits: u64,
    /// Forwards that had to compile a plan for a new `(batch, length)` bucket first.
    pub misses: u64,
}

impl PlanCacheStats {
    /// Fraction of forwards served from an already-compiled plan (0 when none ran).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Current process-wide plan-cache counters.
pub fn plan_cache_stats() -> PlanCacheStats {
    PlanCacheStats {
        hits: PLAN_CACHE_HITS.load(Ordering::Relaxed),
        misses: PLAN_CACHE_MISSES.load(Ordering::Relaxed),
    }
}

pub(crate) fn note_plan_cache(hit: bool) {
    if hit {
        PLAN_CACHE_HITS.fetch_add(1, Ordering::Relaxed);
    } else {
        PLAN_CACHE_MISSES.fetch_add(1, Ordering::Relaxed);
    }
}

/// A compiled plan plus a process-unique ID used to pre-size each thread's buffer pool
/// exactly once per (thread, plan). The model's plan cache builds one only after
/// `rita_verify::verify_plan` found no error in the plan.
pub(crate) struct CachedPlan {
    pub(crate) plan: Plan,
    id: u64,
}

impl CachedPlan {
    pub(crate) fn new(plan: Plan) -> Self {
        Self { plan, id: NEXT_PLAN_ID.fetch_add(1, Ordering::Relaxed) }
    }
}

thread_local! {
    /// Plans whose arena this thread has already reserved pool capacity for.
    static RESERVED: RefCell<HashSet<u64>> = RefCell::new(HashSet::new());
}

fn node_err(node: &Node, e: impl std::fmt::Display) -> InferError {
    InferError::Node { node: node.id.clone(), detail: e.to_string() }
}

/// Executes `plan` over `graph` up to (and including) the node producing `target`.
///
/// `bound` holds the checkpoint tensors (and positional table) per [`ValueId`] and
/// `quant` the int8 weight panels bound in their place under an int8 policy;
/// node-produced activations live in a scratch slot vector and are recycled into the
/// thread-local pool the moment the schedule is past their last use.
pub(crate) fn execute(
    graph: &Graph,
    cached: &CachedPlan,
    bound: &[Option<NdArray>],
    quant: &[Option<Arc<QuantMatrix>>],
    x: &NdArray,
    target: ValueId,
) -> Result<NdArray, InferError> {
    let plan = &cached.plan;
    RESERVED.with(|r| {
        if r.borrow_mut().insert(cached.id) {
            rita_tensor::pool_reserve(&plan.arena);
        }
    });
    let mut slots: Vec<Option<NdArray>> = vec![None; graph.values.len()];
    slots[graph.input.0] = Some(x.clone());
    for (pos, &ni) in plan.order.iter().enumerate() {
        let node = &graph.nodes[ni];
        // An input the plan lets this node write over leaves its slot: the kernel then
        // holds the only handle on its storage and writes the output into it.
        let moved = node.op.overwrites_input().filter(|_| plan.in_place[pos]);
        let mut ins = Vec::with_capacity(node.inputs.len());
        let mut qins = Vec::with_capacity(node.inputs.len());
        for (k, v) in node.inputs.iter().enumerate() {
            if moved == Some(k) {
                qins.push(None);
                ins.push(slots[v.0].take().ok_or_else(|| {
                    node_err(node, format!("unbound value '{}'", graph.values[v.0].name))
                })?);
                continue;
            }
            if let Some(wq) = &quant[v.0] {
                // Quantized weight: the packed panels ride in `qins`; the `ins` slot
                // gets an empty placeholder no kernel may touch (a consumer that does
                // not understand `qins` fails its shape check loudly).
                qins.push(Some(wq.clone()));
                ins.push(NdArray::zeros(&[0]));
                continue;
            }
            qins.push(None);
            let arr = bound[v.0].as_ref().or(slots[v.0].as_ref()).ok_or_else(|| {
                node_err(node, format!("unbound value '{}'", graph.values[v.0].name))
            })?;
            ins.push(arr.clone());
        }
        // `exec_node` consumes `ins`, releasing our handles so last-use recycling can
        // reclaim storage.
        let out = exec_node(node, ins, &qins, plan.input_shape[2])?;
        slots[node.output.0] = Some(out);
        let mut seen = HashSet::new();
        for v in &node.inputs {
            if !seen.insert(v.0) || graph.values[v.0].binding.is_some() || *v == target {
                continue;
            }
            if plan.last_use[v.0] == Some(pos) {
                if let Some(dead) = slots[v.0].take() {
                    reclaim(dead);
                }
            }
        }
        if node.output == target {
            break;
        }
    }
    slots[target.0]
        .take()
        .ok_or_else(|| InferError::Plan(PlanError::MissingParam("plan target".into())))
}

/// Runs one node's kernels — the same calls, in the same order, as the training
/// forward. Intermediates internal to a node are reclaimed here; slot lifetimes are
/// the executor loop's job.
fn exec_node(
    node: &Node,
    mut ins: Vec<NdArray>,
    qins: &[Option<Arc<QuantMatrix>>],
    input_len: usize,
) -> Result<NdArray, InferError> {
    // `x · w + b` with the weight operand possibly quantized: this is the *only* place
    // the executor branches on precision for weights — every other op sees f32. The
    // product is freshly allocated and unshared, so the bias lands in place.
    let linear = |x: &NdArray| {
        let y = match &qins[1] {
            Some(wq) => x.matmul_quant(wq),
            None => x.matmul(&ins[1]),
        };
        y.and_then(|y| y.add_row_bias(&ins[2])).map_err(|e| node_err(node, e))
    };
    match &node.op {
        Op::Linear => linear(&ins[0]),
        Op::WindowEmbed { window, stride } => {
            let windows = ins[0].unfold1d(*window, *stride).map_err(|e| node_err(node, e))?;
            let y = linear(&windows);
            reclaim(windows);
            y
        }
        Op::ClsConcatPos => {
            // Mirrors the tail of `TimeConvEmbed::forward`.
            let embedded = &ins[0];
            let shape = embedded.shape();
            let (batch, n, d) = (shape[0], shape[1], shape[2]);
            let cls3 = ins[1].reshape(&[1, 1, d]).map_err(|e| node_err(node, e))?;
            let cls_batch =
                cls3.mul(&NdArray::ones(&[batch, 1, d])).map_err(|e| node_err(node, e))?;
            let with_cls =
                NdArray::concat(&[&cls_batch, embedded], 1).map_err(|e| node_err(node, e))?;
            reclaim(cls_batch);
            let pos = ins[2].slice_axis(0, 0, n + 1).map_err(|e| node_err(node, e))?;
            let out = with_cls.add(&pos).map_err(|e| node_err(node, e))?;
            reclaim(with_cls);
            Ok(out)
        }
        Op::LayerNorm { eps } => {
            Ok(ins[0].layer_norm(&ins[1], &ins[2], *eps).map_err(|e| node_err(node, e))?.out)
        }
        // Written over the operand when the executor moved a dying input in; otherwise
        // the slot still holds a handle and copy-on-write makes the output buffer.
        Op::Gelu => Ok(ins.swap_remove(0).gelu_in_place()),
        Op::Add => ins[0].add(&ins[1]).map_err(|e| node_err(node, e)),
        Op::SplitHeads { heads } => {
            // `split_heads`: (b, n, d) → (b, h, n, d/h), a pure view chain.
            let shape = ins[0].shape().to_vec();
            let (b, n, d) = (shape[0], shape[1], shape[2]);
            ins[0]
                .reshape(&[b, n, *heads, d / heads])
                .map_err(|e| node_err(node, e))?
                .permute(&[0, 2, 1, 3])
                .map_err(|e| node_err(node, e))
        }
        Op::MergeHeads => {
            // `merge_heads`: (b, h, n, dh) → (b, n, h·dh).
            let shape = ins[0].shape().to_vec();
            let (b, h, n, dh) = (shape[0], shape[1], shape[2], shape[3]);
            ins[0]
                .permute(&[0, 2, 1, 3])
                .map_err(|e| node_err(node, e))?
                .reshape(&[b, n, h * dh])
                .map_err(|e| node_err(node, e))
        }
        Op::Attention(attn) => exec_attention(node, attn, &ins),
        Op::ClsPool => {
            let shape = ins[0].shape().to_vec();
            ins[0]
                .slice_axis(1, 0, 1)
                .map_err(|e| node_err(node, e))?
                .reshape(&[shape[0], shape[2]])
                .map_err(|e| node_err(node, e))
        }
        Op::SliceWindows => {
            let n = ins[0].shape()[1];
            ins[0].slice_axis(1, 1, n).map_err(|e| node_err(node, e))
        }
        Op::Fold1d { channels, window, stride } => {
            ins[0].fold1d(*channels, *window, *stride, input_len).map_err(|e| node_err(node, e))
        }
    }
}

/// Mirrors the corresponding `Attention::forward` on head-split
/// `(batch, heads, windows, head_dim)` tensors.
fn exec_attention(node: &Node, attn: &AttnOp, ins: &[NdArray]) -> Result<NdArray, InferError> {
    let (q, k, v) = (&ins[0], &ins[1], &ins[2]);
    // Rank 4 was checked ahead of time by `attention_shape` during plan compilation.
    let dh = *q.shape().last().ok_or_else(|| node_err(node, "rank-0 query"))? as f32;
    match attn {
        AttnOp::Vanilla => {
            let scale = 1.0 / dh.sqrt();
            Ok(fused_attention(q, k, v, scale, None).map_err(|e| node_err(node, e))?.out)
        }
        AttnOp::Group { n_groups, min_groups, kmeans_iters } => {
            let shape = q.shape();
            let groups = effective_groups(*n_groups, *min_groups, shape[2]);
            let groupings = group_key_blocks(k, groups, *kmeans_iters);
            let GroupLayout { segments, weights, inv_counts } =
                group_layout(&groupings, shape[0], shape[1], groups);
            let rep_sum = k.segment_sum(&segments, groups).map_err(|e| node_err(node, e))?;
            let representatives = rep_sum.mul(&inv_counts).map_err(|e| node_err(node, e))?;
            reclaim(rep_sum);
            let aggregated = v.segment_sum(&segments, groups).map_err(|e| node_err(node, e))?;
            let scale = 1.0 / dh.sqrt();
            let out = fused_attention(q, &representatives, &aggregated, scale, Some(&weights))
                .map_err(|e| node_err(node, e))?
                .out;
            reclaim(representatives);
            reclaim(aggregated);
            Ok(out)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rita_tensor::{pool_reset, pool_stats, rng_from_seed};

    /// `Plan::arena` is exactly what the executor's activations take when no node
    /// allocates scratch of its own (in the full model, kernel-internal temporaries
    /// share the pool): the first run, which reserves the arena, allocates nothing
    /// fresh, and the same plan run again from an empty pool allocates exactly the
    /// arena's bytes. The FFN's GELU writes over `ff1`, so the chain needs one
    /// `d_ff`-wide slot, not two.
    #[test]
    fn plan_arena_is_what_the_first_run_allocates() {
        let (d, d_ff) = (8usize, 16usize);
        let mut g = Graph::new();
        let x = g.add_input("input");
        let (gamma, beta) = (g.param("ln.gamma", &[d]), g.param("ln.beta", &[d]));
        let (w1, b1) = (g.param("ff1.weight", &[d, d_ff]), g.param("ff1.bias", &[d_ff]));
        let (w2, b2) = (g.param("ff2.weight", &[d_ff, d]), g.param("ff2.bias", &[d]));
        let ln = g.push("ln", Op::LayerNorm { eps: 1e-5 }, vec![x, gamma, beta]);
        let ff1 = g.push("ff1", Op::Linear, vec![ln, w1, b1]);
        let act = g.push("gelu", Op::Gelu, vec![ff1]);
        let ff2 = g.push("ff2", Op::Linear, vec![act, w2, b2]);
        let out = g.push("residual", Op::Add, vec![ff2, ln]);
        g.output = out;

        let mut rng = rng_from_seed(3);
        let params = [
            ("ln.gamma", vec![d]),
            ("ln.beta", vec![d]),
            ("ff1.weight", vec![d, d_ff]),
            ("ff1.bias", vec![d_ff]),
            ("ff2.weight", vec![d_ff, d]),
            ("ff2.bias", vec![d]),
        ];
        let mut bound: Vec<Option<NdArray>> = vec![None; g.values.len()];
        for (i, info) in g.values.iter().enumerate() {
            if let Some((_, shape)) = params.iter().find(|(p, _)| *p == info.name) {
                bound[i] = Some(NdArray::randn(shape, 0.5, &mut rng));
            }
        }
        let lookup = |p: &str| params.iter().find(|(q, _)| *q == p).map(|(_, s)| s.clone());
        let input = NdArray::randn(&[2, 5, d], 1.0, &mut rng);
        let plan = g.compile(input.shape(), &lookup).unwrap();
        assert_eq!(plan.in_place, vec![false, false, true, false, false]);
        let row = 4 * 2 * 5;
        assert_eq!(plan.arena, vec![row * d, row * d_ff, row * d]);

        let cached = CachedPlan::new(plan);
        let quant = vec![None; g.values.len()];
        let run = || execute(&g, &cached, &bound, &quant, &input, out).unwrap();
        pool_reset();
        let first = run(); // the first run on this thread reserves the arena
        assert_eq!(pool_stats().fresh_bytes, 0, "an activation missed the reserved arena");
        pool_reset();
        let again = run(); // already reserved: runs from an empty pool
        let arena_bytes: usize = cached.plan.arena.iter().sum();
        assert_eq!(pool_stats().fresh_bytes, arena_bytes as u64);
        assert_eq!(first.as_slice(), again.as_slice());
        pool_reset();
    }
}
