//! The per-plan analyses: SSA structure, schedule validity, shape soundness,
//! buffer-lifetime soundness, and binding coverage.
//!
//! Each analysis re-derives its property from the graph and the checkpoint alone and
//! diffs the result against what the plan claims — none of them call into the
//! compiler's own inference (`Op::infer_shape`, `Graph::schedule`, or the arena
//! simulation in `Graph::compile`).

use std::collections::{HashMap, HashSet};

use rita_core::checkpoint::{Checkpoint, TensorRecord};
use rita_nn::graph::{Binding, Graph, Plan};

use crate::report::{Analysis, Diagnostic, VerifyError};
use crate::shape;

/// Index of the node producing each value, when exactly one does. Values with zero or
/// multiple producers map to `None` (the structure analysis reports the latter).
fn producer_map(graph: &Graph) -> Vec<Option<usize>> {
    let mut producers = vec![None; graph.values.len()];
    for (i, node) in graph.nodes.iter().enumerate() {
        if node.output.0 < producers.len() {
            producers[node.output.0] = Some(i);
        }
    }
    producers
}

/// How many node inputs read each value.
fn consumer_counts(graph: &Graph) -> Vec<usize> {
    let mut counts = vec![0usize; graph.values.len()];
    for node in &graph.nodes {
        for v in &node.inputs {
            if v.0 < counts.len() {
                counts[v.0] += 1;
            }
        }
    }
    counts
}

/// Analysis 1a — SSA well-formedness: value indices in range, unique node IDs, unique
/// producers, no node writing a bound value, every read bound or produced, and the
/// output realisable.
///
/// When this analysis reports errors the graph cannot be indexed safely, so the
/// plan-level analyses are skipped.
pub fn verify_structure(graph: &Graph) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let n_values = graph.values.len();
    let mut indexable = true;
    for node in &graph.nodes {
        for v in node.inputs.iter().chain(std::iter::once(&node.output)) {
            if v.0 >= n_values {
                diags.push(Diagnostic::error(
                    Analysis::Structure,
                    &node.id,
                    VerifyError::ValueOutOfRange { index: v.0 },
                ));
                indexable = false;
            }
        }
    }
    for out in [graph.input, graph.output] {
        if out.0 >= n_values {
            diags.push(Diagnostic::error(
                Analysis::Structure,
                "",
                VerifyError::ValueOutOfRange { index: out.0 },
            ));
            indexable = false;
        }
    }
    if !indexable {
        return diags;
    }

    let mut ids = HashSet::new();
    for node in &graph.nodes {
        if !ids.insert(node.id.as_str()) {
            diags.push(Diagnostic::error(
                Analysis::Structure,
                &node.id,
                VerifyError::DuplicateNodeId,
            ));
        }
    }

    let mut writers = vec![0usize; n_values];
    for node in &graph.nodes {
        writers[node.output.0] += 1;
        if writers[node.output.0] > 1 {
            diags.push(Diagnostic::error(
                Analysis::Structure,
                &node.id,
                VerifyError::DuplicateProducer,
            ));
        }
        if graph.values[node.output.0].binding.is_some() {
            diags.push(Diagnostic::error(
                Analysis::Structure,
                &node.id,
                VerifyError::ProducesBoundValue,
            ));
        }
    }

    let producers = producer_map(graph);
    for node in &graph.nodes {
        for v in &node.inputs {
            if graph.values[v.0].binding.is_none() && producers[v.0].is_none() {
                diags.push(Diagnostic::error(
                    Analysis::Structure,
                    &node.id,
                    VerifyError::UnboundRead { value: graph.values[v.0].name.clone() },
                ));
            }
        }
    }

    let out = graph.output;
    if graph.values[out.0].binding.is_none() && producers[out.0].is_none() {
        diags.push(Diagnostic::error(
            Analysis::Structure,
            graph.values[out.0].name.clone(),
            VerifyError::MissingOutput,
        ));
    }
    diags
}

/// The verifier's own topological order: repeatedly emit the lowest-index node whose
/// produced inputs have all been emitted. This greedy selection provably coincides
/// with a stable min-index Kahn traversal, but shares no code with it (O(n²) scan
/// instead of a heap). Returns `None` on a cycle.
pub(crate) fn derive_order(graph: &Graph) -> Option<Vec<usize>> {
    let producers = producer_map(graph);
    let n = graph.nodes.len();
    let mut emitted_node = vec![false; n];
    let mut emitted_value = vec![false; graph.values.len()];
    let mut order = Vec::with_capacity(n);
    while order.len() < n {
        let next = (0..n).find(|&i| {
            !emitted_node[i]
                && graph.nodes[i]
                    .inputs
                    .iter()
                    .all(|v| producers[v.0].is_none() || emitted_value[v.0])
        })?;
        emitted_node[next] = true;
        emitted_value[graph.nodes[next].output.0] = true;
        order.push(next);
    }
    Some(order)
}

/// Whether `order` lists every node exactly once (so it can drive the shape and
/// lifetime walks without panicking).
pub(crate) fn is_permutation(order: &[usize], nodes: usize) -> bool {
    if order.len() != nodes {
        return false;
    }
    let mut seen = vec![false; nodes];
    for &ni in order {
        if ni >= nodes || seen[ni] {
            return false;
        }
        seen[ni] = true;
    }
    true
}

/// Analysis 1b — schedule validity: the plan's order is a permutation of the nodes,
/// respects def-before-use, and agrees entry-for-entry with the independent
/// topological recomputation.
pub fn verify_schedule(graph: &Graph, order: &[usize]) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let n = graph.nodes.len();
    if order.len() != n {
        diags.push(Diagnostic::error(
            Analysis::Schedule,
            "",
            VerifyError::ScheduleLength { planned: order.len(), nodes: n },
        ));
    }
    let mut seen = vec![false; n];
    let mut well_indexed = true;
    for (pos, &ni) in order.iter().enumerate() {
        if ni >= n {
            diags.push(Diagnostic::error(
                Analysis::Schedule,
                "",
                VerifyError::ScheduleEntry {
                    position: pos,
                    detail: format!("node index {ni} out of range ({n} nodes)"),
                },
            ));
            well_indexed = false;
        } else if seen[ni] {
            diags.push(Diagnostic::error(
                Analysis::Schedule,
                &graph.nodes[ni].id,
                VerifyError::ScheduleEntry {
                    position: pos,
                    detail: format!("node index {ni} scheduled twice"),
                },
            ));
        } else {
            seen[ni] = true;
        }
    }
    if !well_indexed {
        return diags;
    }

    // Def-before-use under the planned order, independent of any topological sort.
    let mut defined: Vec<bool> = graph.values.iter().map(|v| v.binding.is_some()).collect();
    let producers = producer_map(graph);
    for (pos, &ni) in order.iter().enumerate() {
        let node = &graph.nodes[ni];
        for v in &node.inputs {
            // Only produced values can be "not yet defined"; truly unbound reads are
            // the structure analysis's finding.
            if !defined[v.0] && producers[v.0].is_some() {
                diags.push(Diagnostic::error(
                    Analysis::Schedule,
                    &node.id,
                    VerifyError::UseBeforeDef {
                        position: pos,
                        value: graph.values[v.0].name.clone(),
                    },
                ));
            }
        }
        defined[node.output.0] = true;
    }

    // Independent recomputation must agree with the planned order exactly.
    match derive_order(graph) {
        None => diags.push(Diagnostic::error(Analysis::Schedule, "", VerifyError::Cycle)),
        Some(derived) if is_permutation(order, n) => {
            if let Some(pos) = (0..n).find(|&i| order[i] != derived[i]) {
                diags.push(Diagnostic::error(
                    Analysis::Schedule,
                    &graph.nodes[order[pos]].id,
                    VerifyError::ScheduleDivergence {
                        position: pos,
                        planned: graph.nodes[order[pos]].id.clone(),
                        derived: graph.nodes[derived[pos]].id.clone(),
                    },
                ));
            }
        }
        Some(_) => {}
    }
    diags
}

/// Analysis 2 — shape soundness: re-infer every value's shape bottom-up with the
/// verifier's own calculus (`shape.rs`) and diff against the plan's AOT shape
/// table. Returns the diagnostics plus the derived shapes (the lifetime analysis sizes
/// buffers from the *derived* shapes, never the planned ones).
pub fn verify_shapes(
    graph: &Graph,
    plan: &Plan,
    lookup: &dyn Fn(&str) -> Option<Vec<usize>>,
) -> (Vec<Diagnostic>, Vec<Option<Vec<usize>>>) {
    let mut diags = Vec::new();
    let consumers = consumer_counts(graph);
    let mut derived: Vec<Option<Vec<usize>>> = vec![None; graph.values.len()];

    // Leaves: the run input, checkpoint parameters, deterministic tables. Only what
    // the schedule actually reads must resolve.
    for (i, info) in graph.values.iter().enumerate() {
        if consumers[i] == 0 {
            continue;
        }
        match &info.binding {
            Some(Binding::Input) => derived[i] = Some(plan.input_shape.clone()),
            Some(Binding::Param { path, .. }) => match lookup(path) {
                Some(s) => {
                    // Binding coverage's "right shape" half: the checkpoint tensor and
                    // the plan's shape table must agree on every bound parameter.
                    if plan.shapes[i] != s {
                        diags.push(Diagnostic::error(
                            Analysis::Binding,
                            path.clone(),
                            VerifyError::ParamShapeMismatch {
                                checkpoint: s.clone(),
                                planned: plan.shapes[i].clone(),
                            },
                        ));
                    }
                    derived[i] = Some(s);
                }
                None => diags.push(Diagnostic::error(
                    Analysis::Binding,
                    path.clone(),
                    VerifyError::MissingParam,
                )),
            },
            Some(Binding::Positional) => match lookup(&info.name) {
                Some(s) => derived[i] = Some(s),
                None => diags.push(Diagnostic::error(
                    Analysis::Binding,
                    info.name.clone(),
                    VerifyError::MissingParam,
                )),
            },
            None => {}
        }
    }

    // Bottom-up re-inference over the planned order. A node with an untypable input
    // is skipped silently: the root cause is already reported once.
    for &ni in &plan.order {
        let node = &graph.nodes[ni];
        let ins: Option<Vec<&[usize]>> =
            node.inputs.iter().map(|v| derived[v.0].as_deref()).collect();
        let Some(ins) = ins else { continue };
        match shape::derive(&node.op, &ins, &plan.input_shape) {
            Ok(out) => derived[node.output.0] = Some(out),
            Err(detail) => diags.push(Diagnostic::error(
                Analysis::Shape,
                &node.id,
                VerifyError::Underivable { detail },
            )),
        }
    }

    // Diff derived against planned for every value the plan claims a shape for.
    for (i, d) in derived.iter().enumerate() {
        let Some(d) = d else { continue };
        // Parameter disagreements were reported above as binding findings.
        if matches!(graph.values[i].binding, Some(Binding::Param { .. })) {
            continue;
        }
        if &plan.shapes[i] != d {
            diags.push(Diagnostic::error(
                Analysis::Shape,
                graph.values[i].name.clone(),
                VerifyError::ShapeMismatch { planned: plan.shapes[i].clone(), derived: d.clone() },
            ));
        }
    }
    if consumers[graph.input.0] > 0 && plan.shapes[graph.input.0] != plan.input_shape {
        diags.push(Diagnostic::error(
            Analysis::Shape,
            graph.values[graph.input.0].name.clone(),
            VerifyError::InputShape {
                planned: plan.input_shape.clone(),
                recorded: plan.shapes[graph.input.0].clone(),
            },
        ));
    }
    (diags, derived)
}

/// Analysis 3 — buffer-lifetime soundness.
///
/// Three independent proofs:
/// 1. recompute every value's final read position and diff against `plan.last_use`
///    (a planned release *before* the final read is a read-after-free; a later one is
///    waste, reported as a warning);
/// 2. replay the executor's allocate/recycle discipline — releases driven by the
///    *planned* last uses, exactly as the executor will behave — and flag any buffer
///    reuse that clobbers storage a not-yet-performed read (per the *derived* last
///    uses) still needs;
/// 3. prove the planned arena covers the true allocation peak: the replay's required
///    byte capacities must be dominated slot-for-slot by `plan.arena` (bytes).
///
/// A node the plan marks in place ([`Plan::in_place`]) joins the slot of the input
/// [`rita_nn::graph::Op::overwrites_input`] names instead of taking one, as the
/// executor does. The mark is sound only when that input is a node output owning its
/// slot alone and nothing reads the slot's storage after the node.
pub fn verify_lifetimes(
    graph: &Graph,
    plan: &Plan,
    derived_shapes: &[Option<Vec<usize>>],
) -> Vec<Diagnostic> {
    let mut diags = Vec::new();

    // Recompute last uses: the final schedule position reading each value.
    let mut derived_last: Vec<Option<usize>> = vec![None; graph.values.len()];
    for (pos, &ni) in plan.order.iter().enumerate() {
        for v in &graph.nodes[ni].inputs {
            derived_last[v.0] = Some(pos);
        }
    }
    for (i, info) in graph.values.iter().enumerate() {
        let (planned, derived) = (plan.last_use[i], derived_last[i]);
        if planned == derived {
            continue;
        }
        // Only node-produced values are ever recycled; a stale entry on a bound value
        // is inert. Same for a missing planned entry: the executor just never frees.
        let recyclable = info.binding.is_none();
        match (planned, derived) {
            (Some(p), Some(d)) if recyclable && p < d => {
                diags.push(Diagnostic::error(
                    Analysis::Lifetime,
                    info.name.clone(),
                    VerifyError::ReadAfterFree { position: d, freed_at: p },
                ));
            }
            _ => diags.push(Diagnostic::warning(
                Analysis::Lifetime,
                info.name.clone(),
                VerifyError::LastUseMismatch { planned, derived },
            )),
        }
    }

    // Replay the allocate/recycle walk. Aliases (view ops) share their base's
    // storage; a slot is reusable only once every value mapped onto it is past its
    // planned last use — and reusing it must not clobber a pending (derived) read.
    // Required capacities in bytes (4 per f32 element) — the arena's own currency.
    let sized = |v: usize| -> Option<usize> {
        derived_shapes[v].as_ref().map(|s| 4 * s.iter().product::<usize>())
    };
    struct Slot {
        cap: usize,
        live: usize,
        free_since: Option<usize>,
        occupants: Vec<usize>,
    }
    let mut slots: Vec<Slot> = Vec::new();
    let mut root: Vec<usize> = (0..graph.values.len()).collect();
    let mut slot_of: Vec<Option<usize>> = vec![None; graph.values.len()];
    for (pos, &ni) in plan.order.iter().enumerate() {
        let node = &graph.nodes[ni];
        let out = node.output.0;
        let mut overwritten = None;
        if plan.in_place[pos] {
            let unsafe_in_place = |detail: String| {
                Diagnostic::error(
                    Analysis::Lifetime,
                    &node.id,
                    VerifyError::UnsafeInPlace { position: pos, detail },
                )
            };
            match node.op.overwrites_input().map(|k| node.inputs[k].0) {
                None => diags.push(unsafe_in_place("the op has no in-place form".into())),
                Some(v) => match slot_of[v] {
                    Some(s) if slots[s].live == 1 => {
                        // The output is written over this storage here: every read of
                        // what it holds must already have happened.
                        for &w in &slots[s].occupants {
                            if let Some(d) = derived_last[w].filter(|&d| d > pos) {
                                diags.push(Diagnostic::error(
                                    Analysis::Lifetime,
                                    graph.values[w].name.clone(),
                                    VerifyError::ReadAfterFree { position: d, freed_at: pos },
                                ));
                            }
                        }
                        overwritten = Some(s);
                    }
                    _ => diags.push(unsafe_in_place(format!(
                        "input '{}' is bound, a view, or shares its storage",
                        graph.values[v].name
                    ))),
                },
            }
        }
        if let Some(k) = node.op.aliases_input() {
            let base = root[node.inputs[k].0];
            root[out] = base;
            if let Some(s) = slot_of[base] {
                slots[s].live += 1;
                slots[s].occupants.push(out);
            }
        } else if let Some(s) = overwritten {
            slots[s].live += 1;
            slots[s].occupants.push(out);
            slot_of[out] = Some(s);
        } else {
            let Some(need) = sized(out) else { continue };
            let mut best: Option<usize> = None;
            for (si, slot) in slots.iter().enumerate() {
                if slot.free_since.is_some()
                    && slot.cap >= need
                    && best.is_none_or(|b| slot.cap < slots[b].cap)
                {
                    best = Some(si);
                }
            }
            let si = match best {
                Some(si) => {
                    let freed_at = slots[si].free_since.expect("free slot");
                    // Reuse clobbers the previous occupants' storage: every read of
                    // them must already have happened.
                    for &w in &slots[si].occupants {
                        if derived_last[w].is_some_and(|d| d >= pos) {
                            diags.push(Diagnostic::error(
                                Analysis::Lifetime,
                                graph.values[w].name.clone(),
                                VerifyError::ReadAfterFree { position: pos, freed_at },
                            ));
                        }
                    }
                    si
                }
                None => {
                    slots.push(Slot { cap: need, live: 0, free_since: None, occupants: vec![] });
                    slots.len() - 1
                }
            };
            let slot = &mut slots[si];
            slot.occupants.clear();
            slot.occupants.push(out);
            slot.live = 1;
            slot.free_since = None;
            slot_of[out] = Some(si);
        }
        // Release per the *planned* last uses — this is what the executor does.
        let mut released = HashSet::new();
        for v in &node.inputs {
            if !released.insert(v.0) || graph.values[v.0].binding.is_some() {
                continue;
            }
            if plan.last_use[v.0] == Some(pos) {
                if let Some(s) = slot_of[root[v.0]] {
                    slots[s].live = slots[s].live.saturating_sub(1);
                    if slots[s].live == 0 {
                        slots[s].free_since = Some(pos);
                    }
                }
            }
        }
    }

    // Arena coverage: every required capacity must be matched to a planned slot at
    // least as large, injectively (sorted greedy matching on multisets).
    let mut required: Vec<usize> = slots.iter().map(|s| s.cap).collect();
    let mut planned: Vec<usize> = plan.arena.clone();
    required.sort_unstable_by(|a, b| b.cmp(a));
    planned.sort_unstable_by(|a, b| b.cmp(a));
    let mut pi = 0usize;
    for &need in &required {
        if pi < planned.len() && planned[pi] >= need {
            pi += 1;
        } else {
            diags.push(Diagnostic::error(
                Analysis::Lifetime,
                "",
                VerifyError::ArenaShortfall { required: need, planned_slots: plan.arena.len() },
            ));
        }
    }
    diags
}

/// Analysis 5 — binding coverage over the graph × checkpoint pair: every parameter a
/// node reads resolves, and no checkpoint tensor is orphaned. (Shape agreement of
/// bound parameters is the shape analysis's leaf check; record-internal dtype
/// soundness is [`verify_records`]'s job, since binding coverage only sees logical
/// shapes.)
pub fn verify_bindings(graph: &Graph, tensors: &HashMap<String, Vec<usize>>) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let consumers = consumer_counts(graph);
    let mut bound_paths: HashSet<&str> = HashSet::new();
    for (i, info) in graph.values.iter().enumerate() {
        let Some(Binding::Param { path, .. }) = &info.binding else { continue };
        bound_paths.insert(path.as_str());
        if consumers[i] > 0 && !tensors.contains_key(path) {
            diags.push(Diagnostic::error(
                Analysis::Binding,
                path.clone(),
                VerifyError::MissingParam,
            ));
        }
    }
    let mut orphans: Vec<&String> =
        tensors.keys().filter(|p| !bound_paths.contains(p.as_str())).collect();
    orphans.sort();
    for path in orphans {
        diags.push(Diagnostic::error(Analysis::Binding, path.clone(), VerifyError::OrphanTensor));
    }
    diags
}

/// Analysis 6 — record dtype soundness over the version-3 checkpoint formats: every
/// quantized record must be *internally* consistent before anything
/// dequantizes through it. The byte reader already cross-checks the redundant payload
/// length against dtype × dims, but a checkpoint assembled (or mutated) in memory
/// never went through the reader — and scale *values* are data the reader does not
/// judge. Re-derived here, per record:
///
/// - int8 records must be rank-2 with a reduction depth the i32 accumulator covers
///   (`k <= rita_tensor::MAX_QUANT_K`), carry exactly `k * n` payload bytes, and one
///   finite, strictly positive scale per output column — a NaN, infinite, zero, or
///   negative scale poisons or sign-flips an entire column on dequantization.
///
/// f32 records have no side metadata to disagree with and are vacuously sound.
pub fn verify_records(ckpt: &Checkpoint) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for (path, rec) in &ckpt.tensors {
        match rec {
            TensorRecord::F32(_) => {}
            TensorRecord::Int8 { shape, data, scales } => {
                if shape.len() != 2 {
                    diags.push(Diagnostic::error(
                        Analysis::Dtype,
                        path.clone(),
                        VerifyError::UnquantizableShape {
                            shape: shape.clone(),
                            detail: format!("rank {} but the int8 engine is rank-2", shape.len()),
                        },
                    ));
                    continue;
                }
                let (k, n) = (shape[0], shape[1]);
                if k > rita_tensor::MAX_QUANT_K {
                    diags.push(Diagnostic::error(
                        Analysis::Dtype,
                        path.clone(),
                        VerifyError::UnquantizableShape {
                            shape: shape.clone(),
                            detail: format!(
                                "reduction depth {k} exceeds the i32-exact bound {}",
                                rita_tensor::MAX_QUANT_K
                            ),
                        },
                    ));
                }
                if data.len() != k * n {
                    diags.push(Diagnostic::error(
                        Analysis::Dtype,
                        path.clone(),
                        VerifyError::PayloadMismatch { elements: data.len(), expected: k * n },
                    ));
                }
                if scales.len() != n {
                    diags.push(Diagnostic::error(
                        Analysis::Dtype,
                        path.clone(),
                        VerifyError::ScaleCountMismatch { scales: scales.len(), columns: n },
                    ));
                }
                if let Some((column, &s)) =
                    scales.iter().enumerate().find(|(_, s)| !s.is_finite() || **s <= 0.0)
                {
                    diags.push(Diagnostic::error(
                        Analysis::Dtype,
                        path.clone(),
                        VerifyError::BadScale { column, value: format!("{s}") },
                    ));
                }
            }
        }
    }
    diags
}
