//! The verifier's own oracle: deterministic fault injection.
//!
//! Each [`Corruption`] class damages a well-formed plan or graph along exactly one
//! axis the analyzer claims to check; the property sweep in `tests/verify_properties.rs`
//! asserts every class is rejected with a diagnostic from the matching analysis. A
//! verifier that silently accepts any mutation class has a blind spot — this is the
//! exactness-oracle discipline the kernel crates use, applied to the analyzer itself.

use rita_core::checkpoint::{Checkpoint, TensorRecord};
use rita_nn::graph::{Binding, Graph, Plan};

use crate::report::Analysis;

/// What a [`Corruption`] damages: a compiled [`Plan`], the [`Graph`] itself, or the
/// in-memory [`Checkpoint`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Target {
    /// The corruption rewrites plan tables; check with `verify_plan`.
    Plan,
    /// The corruption rewrites graph structure; check with `verify_with_graph`.
    Graph,
    /// The corruption rewrites checkpoint tensor records; check with
    /// `verify_checkpoint`.
    Checkpoint,
}

/// One class of injected fault. `site` in the apply methods selects *which* schedule
/// entry / value / node pair is damaged (taken modulo the number of candidates), so a
/// sweep over sites exercises many concrete corruptions per class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Corruption {
    /// Swap two adjacent schedule entries — the order no longer matches the unique
    /// deterministic topological order (and may break def-before-use outright).
    SwapSchedule,
    /// Delete a schedule entry — the plan no longer executes every node.
    DropNode,
    /// Perturb one node output's ahead-of-time shape — the table disagrees with
    /// bottom-up re-inference.
    PerturbShape,
    /// Halve every arena slot capacity — the planned arena no longer covers the true
    /// allocation peak.
    ShrinkArena,
    /// Move a value's planned free point before its final read — read-after-free.
    TruncateLifetime,
    /// Mark a node in place that reads a node output still read after it — the
    /// executor would write over (or, for an op with no in-place form, hand a kernel)
    /// storage a later node reads.
    MarkInPlace,
    /// Swap the weight operands of two `Linear` nodes — a served graph that is no
    /// longer the one `build_graph` emits, though every shape may still agree.
    SwapWeights,
    /// Retarget a parameter binding at a path the checkpoint does not carry —
    /// breaking resolution and orphaning the original tensor.
    RetargetParam,
    /// Replace one int8 record's dequantization scale with an unusable value (NaN,
    /// infinity, zero, or negative by site) — dequantizing through it would poison or
    /// sign-flip an entire output column.
    PerturbScale,
    /// Break a quantized record's internal dtype/shape agreement — truncate its
    /// payload, grow its scale vector, or push it out of rank-2 (by site) — the
    /// in-memory analogue of a rotted dtype tag in the byte format.
    DtypeMismatch,
}

/// Flips every bit of one byte (`site` taken modulo `buf.len()`) in place — the
/// byte-level twin of [`Corruption`] for serialized artifacts with integrity
/// trailers (the checkpoint format's CRC trailer). A sweep over sites exercises damage
/// in every file region: header, counts, tensor data, and the checksum trailer
/// itself. Returns `false` on an empty buffer (no site to damage).
pub fn flip_byte(buf: &mut [u8], site: usize) -> bool {
    if buf.is_empty() {
        return false;
    }
    let i = site % buf.len();
    buf[i] ^= 0xFF;
    true
}

/// Every corruption class, for sweeping.
pub const ALL: [Corruption; 10] = [
    Corruption::SwapSchedule,
    Corruption::DropNode,
    Corruption::PerturbShape,
    Corruption::ShrinkArena,
    Corruption::TruncateLifetime,
    Corruption::MarkInPlace,
    Corruption::SwapWeights,
    Corruption::RetargetParam,
    Corruption::PerturbScale,
    Corruption::DtypeMismatch,
];

impl Corruption {
    /// Which analysis must reject this class.
    pub fn expected_analysis(self) -> Analysis {
        match self {
            Corruption::SwapSchedule | Corruption::DropNode => Analysis::Schedule,
            Corruption::PerturbShape => Analysis::Shape,
            Corruption::ShrinkArena | Corruption::TruncateLifetime | Corruption::MarkInPlace => {
                Analysis::Lifetime
            }
            Corruption::SwapWeights => Analysis::Emission,
            Corruption::RetargetParam => Analysis::Binding,
            Corruption::PerturbScale | Corruption::DtypeMismatch => Analysis::Dtype,
        }
    }

    /// What this class damages.
    pub fn target(self) -> Target {
        match self {
            Corruption::SwapWeights | Corruption::RetargetParam => Target::Graph,
            Corruption::PerturbScale | Corruption::DtypeMismatch => Target::Checkpoint,
            _ => Target::Plan,
        }
    }

    /// Damage `plan` in place. Returns `false` when the plan offers no site for this
    /// class (e.g. a single-node schedule). Only meaningful for [`Target::Plan`]
    /// classes.
    pub fn apply_to_plan(self, graph: &Graph, plan: &mut Plan, site: usize) -> bool {
        match self {
            Corruption::SwapSchedule => {
                if plan.order.len() < 2 {
                    return false;
                }
                let i = site % (plan.order.len() - 1);
                plan.order.swap(i, i + 1);
                true
            }
            Corruption::DropNode => {
                if plan.order.is_empty() {
                    return false;
                }
                let i = site % plan.order.len();
                plan.order.remove(i);
                true
            }
            Corruption::PerturbShape => {
                if plan.order.is_empty() {
                    return false;
                }
                let ni = plan.order[site % plan.order.len()];
                let out = graph.nodes[ni].output.0;
                match plan.shapes.get_mut(out) {
                    Some(s) if !s.is_empty() => {
                        s[0] += 1;
                        true
                    }
                    _ => false,
                }
            }
            Corruption::ShrinkArena => {
                if plan.arena.iter().all(|&c| c == 0) {
                    return false;
                }
                for cap in &mut plan.arena {
                    *cap /= 2;
                }
                true
            }
            Corruption::TruncateLifetime => {
                let candidates: Vec<usize> = graph
                    .values
                    .iter()
                    .enumerate()
                    .filter(|(i, info)| {
                        info.binding.is_none()
                            && matches!(plan.last_use.get(*i), Some(Some(p)) if *p >= 1)
                    })
                    .map(|(i, _)| i)
                    .collect();
                if candidates.is_empty() {
                    return false;
                }
                let v = candidates[site % candidates.len()];
                let p = plan.last_use[v].expect("candidate has a last use");
                plan.last_use[v] = Some(p - 1);
                true
            }
            Corruption::MarkInPlace => {
                let candidates: Vec<usize> = (0..plan.order.len().min(plan.in_place.len()))
                    .filter(|&pos| {
                        !plan.in_place[pos]
                            && graph.nodes[plan.order[pos]].inputs.iter().any(|v| {
                                graph.values[v.0].binding.is_none()
                                    && matches!(plan.last_use.get(v.0), Some(Some(p)) if *p > pos)
                            })
                    })
                    .collect();
                if candidates.is_empty() {
                    return false;
                }
                plan.in_place[candidates[site % candidates.len()]] = true;
                true
            }
            Corruption::SwapWeights
            | Corruption::RetargetParam
            | Corruption::PerturbScale
            | Corruption::DtypeMismatch => false,
        }
    }

    /// Damage `graph` in place. Returns `false` when the graph offers no site for
    /// this class. Only meaningful for [`Target::Graph`] classes.
    pub fn apply_to_graph(self, graph: &mut Graph, site: usize) -> bool {
        match self {
            Corruption::SwapWeights => {
                let linears: Vec<usize> = graph
                    .nodes
                    .iter()
                    .enumerate()
                    .filter(|(_, n)| n.op == rita_nn::graph::Op::Linear)
                    .map(|(i, _)| i)
                    .collect();
                if linears.len() < 2 {
                    return false;
                }
                let a = linears[site % linears.len()];
                let b = linears[(site + 1) % linears.len()];
                let wa = graph.nodes[a].inputs[1];
                let wb = graph.nodes[b].inputs[1];
                graph.nodes[a].inputs[1] = wb;
                graph.nodes[b].inputs[1] = wa;
                true
            }
            Corruption::RetargetParam => {
                let mut consumers = vec![0usize; graph.values.len()];
                for node in &graph.nodes {
                    for v in &node.inputs {
                        consumers[v.0] += 1;
                    }
                }
                let candidates: Vec<usize> = graph
                    .values
                    .iter()
                    .enumerate()
                    .filter(|(i, info)| {
                        consumers[*i] > 0 && matches!(info.binding, Some(Binding::Param { .. }))
                    })
                    .map(|(i, _)| i)
                    .collect();
                if candidates.is_empty() {
                    return false;
                }
                let v = candidates[site % candidates.len()];
                if let Some(Binding::Param { path, .. }) = &mut graph.values[v].binding {
                    path.push_str(".bogus");
                }
                true
            }
            _ => false,
        }
    }

    /// Damage `ckpt`'s tensor records in place. Returns `false` when the checkpoint
    /// offers no site for this class (no quantized records — both classes target the
    /// version-3 dtypes, so an all-f32 checkpoint is immune by construction). Only
    /// meaningful for [`Target::Checkpoint`] classes.
    pub fn apply_to_checkpoint(self, ckpt: &mut Checkpoint, site: usize) -> bool {
        match self {
            Corruption::PerturbScale => {
                let candidates: Vec<usize> = ckpt
                    .tensors
                    .iter()
                    .enumerate()
                    .filter(|(_, (_, rec))| {
                        matches!(rec, TensorRecord::Int8 { scales, .. } if !scales.is_empty())
                    })
                    .map(|(i, _)| i)
                    .collect();
                if candidates.is_empty() {
                    return false;
                }
                let t = candidates[site % candidates.len()];
                let TensorRecord::Int8 { scales, .. } = &mut ckpt.tensors[t].1 else {
                    unreachable!("candidate filter admits only int8 records");
                };
                let column = site % scales.len();
                scales[column] = [f32::NAN, f32::INFINITY, 0.0, -0.25][site % 4];
                true
            }
            Corruption::DtypeMismatch => {
                let candidates: Vec<usize> = ckpt
                    .tensors
                    .iter()
                    .enumerate()
                    .filter(|(_, (_, rec))| !matches!(rec, TensorRecord::F32(_)))
                    .map(|(i, _)| i)
                    .collect();
                if candidates.is_empty() {
                    return false;
                }
                let t = candidates[site % candidates.len()];
                match &mut ckpt.tensors[t].1 {
                    TensorRecord::Int8 { shape, data, scales } => match site % 3 {
                        0 => {
                            data.pop();
                        }
                        1 => {
                            scales.push(1.0);
                        }
                        _ => {
                            shape.push(1);
                        }
                    },
                    TensorRecord::F32(_) => {
                        unreachable!("candidate filter excludes f32 records")
                    }
                }
                true
            }
            _ => false,
        }
    }
}
