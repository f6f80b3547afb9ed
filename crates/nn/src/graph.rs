//! A small static graph IR for the RITA forward pass: one graph, two interpreters.
//!
//! The graph is emitted once, one node per training-module call and in the form it
//! runs: no rewrite pass sits between emission and execution. Node IDs are the
//! dot-separated parameter paths the [`crate::module`] visitors already produce. A
//! topological scheduler orders the graph, and [`Graph::compile`] runs an ahead-of-time
//! shape and lifetime pass per `(batch, length)` bucket so the executor knows, before
//! the first kernel runs, every activation's shape, its last use, and the exact arena
//! of buffer capacities the whole pass needs.
//!
//! The IR is deliberately tiny: single-output nodes, a fixed op vocabulary covering the
//! RITA forward (window embedding, encoder layers with vanilla or group attention, task
//! heads), and values that are either the run input, a named (always required)
//! parameter of a declared shape, a deterministic table, or a node output. Interpreters
//! live downstream: `rita-core` walks a plan with
//! `no_grad` [`crate::Var`] ops (the exactness oracle), `rita-infer` walks the same
//! plan with raw `NdArray` kernels (the serving path). Because both execute the same
//! schedule over the same kernels, their outputs are bit-identical by construction.

use std::collections::HashSet;

/// Index of a value slot in a [`Graph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ValueId(pub usize);

/// Where a graph value comes from when no node produces it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Binding {
    /// The run's input batch, shaped `(batch, channels, length)`.
    Input,
    /// A named parameter from the checkpoint / module tree; every one is required, at
    /// exactly the shape the graph declares for it.
    Param {
        /// Dot-separated path in the module-visitor grammar, e.g.
        /// `model.encoder.layers.0.q_proj.weight`.
        path: String,
        /// The shape the emitted architecture gives this parameter.
        shape: Vec<usize>,
    },
    /// A deterministic table rebuilt from the config rather than checkpointed (the
    /// sinusoidal positional table), looked up by the value's name.
    Positional,
}

/// One value slot: the input, a parameter, a table, or a node output.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ValueInfo {
    /// Human-readable name: the producing node's ID, or the binding's path.
    pub name: String,
    /// External binding; `None` when a node produces this value.
    pub binding: Option<Binding>,
}

/// The attention mechanism a [`Op::Attention`] node runs, with the per-layer
/// constants frozen at graph-emission time (the checkpoint's scheduler state).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AttnOp {
    /// Exact softmax attention.
    Vanilla,
    /// RITA group attention with a frozen scheduler target.
    Group {
        /// The persisted scheduler target (fractional; rounded then clamped per batch).
        n_groups: f32,
        /// Lower clamp on the effective group count.
        min_groups: usize,
        /// K-means refinement iterations per forward.
        kmeans_iters: usize,
    },
}

/// The op vocabulary: one op per call the training modules make, so each node runs
/// the kernel sequence of the module it stands for.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Op {
    /// `inputs: [x, w, b]` — `x · w + b` over the last axis (a `Linear` layer).
    Linear,
    /// `inputs: [x, w, b]` — slide windows over `(batch, channels, length)` and project
    /// each (the time-aware convolution as one node).
    WindowEmbed {
        /// Window width in timestamps.
        window: usize,
        /// Window stride in timestamps.
        stride: usize,
    },
    /// `inputs: [embedded, cls, pos]` — prepend the broadcast `[CLS]` token and add
    /// positional encodings.
    ClsConcatPos,
    /// `inputs: [x, gamma, beta]` — layer normalisation over the last axis.
    LayerNorm {
        /// Numerical-stability epsilon added to the variance.
        eps: f32,
    },
    /// `inputs: [x]` — tanh-approximation GELU.
    Gelu,
    /// `inputs: [a, b]` — broadcasting elementwise add (residual connections).
    Add,
    /// `inputs: [x]` — `(b, n, d) → (b, heads, n, d/heads)`; a pure view.
    SplitHeads {
        /// Number of attention heads.
        heads: usize,
    },
    /// `inputs: [x]` — `(b, h, n, dh) → (b, n, h·dh)`; materialises.
    MergeHeads,
    /// `inputs: [q, k, v]` — one attention mechanism.
    Attention(AttnOp),
    /// `inputs: [h]` — extract the `[CLS]` row: `(b, n, d) → (b, d)`.
    ClsPool,
    /// `inputs: [h]` — drop the `[CLS]` row: `(b, n, d) → (b, n-1, d)`; a pure view.
    SliceWindows,
    /// `inputs: [w]` — overlap-add windows back to `(b, channels, length)`; the output
    /// length is the plan's input length.
    Fold1d {
        /// Number of series channels.
        channels: usize,
        /// Window width in timestamps.
        window: usize,
        /// Window stride in timestamps.
        stride: usize,
    },
}

impl Op {
    /// Which input (if any) the output aliases without allocating — pure view ops.
    /// The lifetime pass keeps an aliased base's arena slot live until every view of
    /// it is past its own last use.
    pub fn aliases_input(&self) -> Option<usize> {
        match self {
            Op::SplitHeads { .. } | Op::SliceWindows => Some(0),
            _ => None,
        }
    }

    /// Which input (if any) the output may be written over when the schedule reads
    /// that input for the last time at this node: the elementwise ops whose output has
    /// the input's shape and whose kernel has an in-place form. The lifetime pass then
    /// gives the output the input's arena slot ([`Plan::in_place`]), the executor runs
    /// the in-place kernel, and the verifier's arena replay reads the same predicate.
    pub fn overwrites_input(&self) -> Option<usize> {
        match self {
            Op::Gelu => Some(0),
            _ => None,
        }
    }

    /// Infers the output shape from input shapes, or explains why they are
    /// inconsistent. `input_shape` is the plan's graph input (needed by
    /// [`Op::Fold1d`], whose output length is not derivable from its input alone).
    pub fn infer_shape(
        &self,
        inputs: &[&[usize]],
        input_shape: &[usize],
    ) -> Result<Vec<usize>, String> {
        match self {
            Op::Linear => {
                let [x, w, b] = expect_inputs::<3>(inputs)?;
                let out = matmul_shape(x, w)?;
                check_bias(&out, b)?;
                Ok(out)
            }
            Op::WindowEmbed { window, stride } => {
                let [x, w, b] = expect_inputs::<3>(inputs)?;
                let unfolded = unfold_shape(x, *window, *stride)?;
                let out = matmul_shape(&unfolded, w)?;
                check_bias(&out, b)?;
                Ok(out)
            }
            Op::ClsConcatPos => {
                let [e, cls, pos] = expect_inputs::<3>(inputs)?;
                if e.len() != 3 {
                    return Err(format!("embedded input must be rank 3, got {e:?}"));
                }
                let (b, n, d) = (e[0], e[1], e[2]);
                if cls != [d] {
                    return Err(format!("cls shape {cls:?} does not match d_model {d}"));
                }
                if pos.len() != 2 || pos[1] != d {
                    return Err(format!("positional table {pos:?} does not match d_model {d}"));
                }
                if n + 1 > pos[0] {
                    return Err(format!(
                        "{n} windows need {} positional rows, table has {}",
                        n + 1,
                        pos[0]
                    ));
                }
                Ok(vec![b, n + 1, d])
            }
            Op::LayerNorm { .. } => {
                let [x, gamma, beta] = expect_inputs::<3>(inputs)?;
                let last = *x.last().ok_or("layer-norm input must have at least one axis")?;
                if gamma != [last] || beta != [last] {
                    return Err(format!(
                        "gamma {gamma:?} / beta {beta:?} do not match last axis {last}"
                    ));
                }
                Ok(x.to_vec())
            }
            Op::Gelu => {
                let [x] = expect_inputs::<1>(inputs)?;
                Ok(x.to_vec())
            }
            Op::Add => {
                let [a, b] = expect_inputs::<2>(inputs)?;
                broadcast_shapes(a, b).ok_or_else(|| format!("cannot broadcast {a:?} with {b:?}"))
            }
            Op::SplitHeads { heads } => {
                let [x] = expect_inputs::<1>(inputs)?;
                if x.len() != 3 {
                    return Err(format!("split-heads input must be rank 3, got {x:?}"));
                }
                if *heads == 0 || x[2] % heads != 0 {
                    return Err(format!("d_model {} not divisible by {heads} heads", x[2]));
                }
                Ok(vec![x[0], *heads, x[1], x[2] / heads])
            }
            Op::MergeHeads => {
                let [x] = expect_inputs::<1>(inputs)?;
                if x.len() != 4 {
                    return Err(format!("merge-heads input must be rank 4, got {x:?}"));
                }
                Ok(vec![x[0], x[2], x[1] * x[3]])
            }
            Op::Attention(_) => attention_shape(inputs),
            Op::ClsPool => {
                let [h] = expect_inputs::<1>(inputs)?;
                if h.len() != 3 {
                    return Err(format!("cls-pool input must be rank 3, got {h:?}"));
                }
                Ok(vec![h[0], h[2]])
            }
            Op::SliceWindows => {
                let [h] = expect_inputs::<1>(inputs)?;
                if h.len() != 3 || h[1] < 2 {
                    return Err(format!(
                        "slice-windows input must be rank 3 with n ≥ 2, got {h:?}"
                    ));
                }
                Ok(vec![h[0], h[1] - 1, h[2]])
            }
            Op::Fold1d { channels, window, stride } => {
                let [w] = expect_inputs::<1>(inputs)?;
                if input_shape.len() != 3 {
                    return Err(format!("fold input shape must be rank 3, got {input_shape:?}"));
                }
                let length = input_shape[2];
                if w.len() != 3 || w[2] != channels * window {
                    return Err(format!(
                        "fold windows {w:?} do not match channels·window = {}",
                        channels * window
                    ));
                }
                let expected = windows_count(length, *window, *stride)?;
                if w[1] != expected {
                    return Err(format!(
                        "fold got {} windows, length {length} yields {expected}",
                        w[1]
                    ));
                }
                Ok(vec![w[0], *channels, length])
            }
        }
    }
}

fn expect_inputs<'a, const N: usize>(inputs: &[&'a [usize]]) -> Result<[&'a [usize]; N], String> {
    <[&[usize]; N]>::try_from(inputs)
        .map_err(|_| format!("expected {N} inputs, got {}", inputs.len()))
}

fn check_bias(out: &[usize], b: &[usize]) -> Result<(), String> {
    let last = *out.last().ok_or("bias target must have at least one axis")?;
    if b != [last] {
        return Err(format!("bias shape {b:?} does not match output axis {last}"));
    }
    Ok(())
}

fn windows_count(length: usize, window: usize, stride: usize) -> Result<usize, String> {
    if length < window {
        return Err(format!("length {length} shorter than window {window}"));
    }
    Ok((length - window) / stride.max(1) + 1)
}

fn unfold_shape(x: &[usize], window: usize, stride: usize) -> Result<Vec<usize>, String> {
    if x.len() != 3 {
        return Err(format!("unfold input must be (batch, channels, length), got {x:?}"));
    }
    let n = windows_count(x[2], window, stride)?;
    Ok(vec![x[0], n, x[1] * window])
}

/// NumPy-style right-aligned broadcast of two shapes.
fn broadcast_shapes(a: &[usize], b: &[usize]) -> Option<Vec<usize>> {
    let n = a.len().max(b.len());
    let mut out = vec![0usize; n];
    for i in 0..n {
        let x = if i < n - a.len() { 1 } else { a[i - (n - a.len())] };
        let y = if i < n - b.len() { 1 } else { b[i - (n - b.len())] };
        out[i] = if x == y || y == 1 {
            x
        } else if x == 1 {
            y
        } else {
            return None;
        };
    }
    Some(out)
}

/// Batched matmul shape: broadcast leading dims, contract the inner pair.
fn matmul_shape(a: &[usize], b: &[usize]) -> Result<Vec<usize>, String> {
    if a.len() < 2 || b.len() < 2 {
        return Err(format!("matmul operands must be at least rank 2: {a:?} × {b:?}"));
    }
    let (am, ak) = (a[a.len() - 2], a[a.len() - 1]);
    let (bk, bn) = (b[b.len() - 2], b[b.len() - 1]);
    if ak != bk {
        return Err(format!("matmul inner dims differ: {a:?} × {b:?}"));
    }
    let mut out = broadcast_shapes(&a[..a.len() - 2], &b[..b.len() - 2])
        .ok_or_else(|| format!("matmul batch dims do not broadcast: {a:?} × {b:?}"))?;
    out.push(am);
    out.push(bn);
    Ok(out)
}

fn attention_shape(inputs: &[&[usize]]) -> Result<Vec<usize>, String> {
    let [q, k, v] = expect_inputs::<3>(inputs)?;
    if q.len() != 4 {
        return Err(format!("attention inputs must be rank 4, got q {q:?}"));
    }
    if k != q || v != q {
        return Err(format!("q {q:?}, k {k:?}, v {v:?} must agree"));
    }
    Ok(q.to_vec())
}

/// One computation step: an op reading value slots and writing exactly one.
#[derive(Debug, Clone, PartialEq)]
pub struct Node {
    /// Stable ID in the parameter-path grammar (e.g. `model.encoder.layers.0.norm1`).
    pub id: String,
    /// The operation.
    pub op: Op,
    /// Value slots read, in op-defined order.
    pub inputs: Vec<ValueId>,
    /// The single value slot written.
    pub output: ValueId,
}

/// The static forward graph: values, nodes, and the distinguished input/outputs.
#[derive(Debug, Clone)]
pub struct Graph {
    /// All value slots; [`ValueId`]s index into this.
    pub values: Vec<ValueInfo>,
    /// All nodes, in emission order (already topological for an emitted graph).
    pub nodes: Vec<Node>,
    /// The run input value.
    pub input: ValueId,
    /// The task output value (logits / reconstruction).
    pub output: ValueId,
}

/// Why a graph failed to compile into a [`Plan`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanError {
    /// The graph has a cycle (names one node on it).
    Cycle(String),
    /// A parameter the graph binds was not provided.
    MissingParam(String),
    /// A node's input shapes are inconsistent — e.g. a malformed checkpoint tensor.
    Shape {
        /// ID of the failing node.
        node: String,
        /// What went wrong.
        detail: String,
    },
    /// A node reads a value that nothing binds or produces.
    UnknownInput {
        /// ID of the reading node.
        node: String,
        /// Name of the unbound value.
        value: String,
    },
    /// Two nodes share the same ID (names the repeated ID).
    DuplicateNode(String),
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::Cycle(node) => write!(f, "graph has a cycle through node '{node}'"),
            PlanError::MissingParam(path) => write!(f, "missing parameter '{path}'"),
            PlanError::Shape { node, detail } => write!(f, "node '{node}': {detail}"),
            PlanError::UnknownInput { node, value } => {
                write!(f, "node '{node}' reads unbound value '{value}'")
            }
            PlanError::DuplicateNode(id) => write!(f, "duplicate node id '{id}'"),
        }
    }
}

impl std::error::Error for PlanError {}

/// A compiled execution plan for one `(batch, length)` shape bucket: schedule, every
/// value's shape, last uses, and the exact arena of buffer capacities the pass needs.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Node indices in execution order.
    pub order: Vec<usize>,
    /// Shape per value (empty for values the plan never touches).
    pub shapes: Vec<Vec<usize>>,
    /// For each value, the schedule position of its final read, if any. A
    /// node-produced value may be recycled the moment its last read completes.
    pub last_use: Vec<Option<usize>>,
    /// Per schedule position: whether that node writes its output over the input
    /// [`Op::overwrites_input`] names, because the schedule reads that input for the
    /// last time there and nothing else shares its storage. Such a node takes no
    /// arena slot of its own.
    pub in_place: Vec<bool>,
    /// Slot capacities **in bytes** of the planned activation arena — feed to
    /// `rita_tensor::pool_reserve` so every major activation is a pool hit from the
    /// first request. Byte-denominated so mixed-precision executors (f32 activations
    /// today, narrower dtypes behind the `Precision` knob) share one sizing currency
    /// with the pool. Kernel-internal scratch still falls back to best-fit.
    pub arena: Vec<usize>,
    /// The graph input shape this plan was compiled for.
    pub input_shape: Vec<usize>,
}

impl Graph {
    /// An empty graph (no input value yet); use the builder methods to populate it.
    pub fn new() -> Self {
        Self { values: Vec::new(), nodes: Vec::new(), input: ValueId(0), output: ValueId(0) }
    }

    /// Adds the run-input value and marks it as [`Graph::input`].
    pub fn add_input(&mut self, name: &str) -> ValueId {
        let id = self.add_value(name, Some(Binding::Input));
        self.input = id;
        id
    }

    /// Adds a named parameter value of the given shape.
    pub fn param(&mut self, path: &str, shape: &[usize]) -> ValueId {
        let binding = Binding::Param { path: path.to_string(), shape: shape.to_vec() };
        self.add_value(path, Some(binding))
    }

    /// Adds a deterministic-table value (looked up by `name` at bind time).
    pub fn positional(&mut self, name: &str) -> ValueId {
        self.add_value(name, Some(Binding::Positional))
    }

    fn add_value(&mut self, name: &str, binding: Option<Binding>) -> ValueId {
        let id = ValueId(self.values.len());
        self.values.push(ValueInfo { name: name.to_string(), binding });
        id
    }

    /// Appends a node, creating its output value (named after the node).
    pub fn push(&mut self, id: &str, op: Op, inputs: Vec<ValueId>) -> ValueId {
        let output = self.add_value(id, None);
        self.nodes.push(Node { id: id.to_string(), op, inputs, output });
        output
    }

    /// Index of the node producing each value, if any.
    fn producers(&self) -> Vec<Option<usize>> {
        let mut p = vec![None; self.values.len()];
        for (i, n) in self.nodes.iter().enumerate() {
            p[n.output.0] = Some(i);
        }
        p
    }

    /// How many node inputs read each value.
    fn consumer_counts(&self) -> Vec<usize> {
        let mut c = vec![0usize; self.values.len()];
        for n in &self.nodes {
            for v in &n.inputs {
                c[v.0] += 1;
            }
        }
        c
    }

    /// Structural sanity: unique node IDs, unique producers, every read either bound
    /// or produced. Returns the first violation as a typed error — publish-path
    /// callers reject the graph; emission sites `debug_assert!` cleanliness.
    pub fn validate(&self) -> Result<(), PlanError> {
        let mut ids = HashSet::new();
        for n in &self.nodes {
            if !ids.insert(n.id.as_str()) {
                return Err(PlanError::DuplicateNode(n.id.clone()));
            }
        }
        let producers = self.producers();
        for n in &self.nodes {
            for v in &n.inputs {
                if self.values[v.0].binding.is_none() && producers[v.0].is_none() {
                    return Err(PlanError::UnknownInput {
                        node: n.id.clone(),
                        value: self.values[v.0].name.clone(),
                    });
                }
            }
        }
        Ok(())
    }

    /// Kahn topological order, stable by node index so an already-topological
    /// emission order is preserved exactly.
    pub fn schedule(&self) -> Result<Vec<usize>, PlanError> {
        let producers = self.producers();
        let n = self.nodes.len();
        let mut indegree = vec![0usize; n];
        let mut dependents: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (i, node) in self.nodes.iter().enumerate() {
            for v in &node.inputs {
                if let Some(p) = producers[v.0] {
                    indegree[i] += 1;
                    dependents[p].push(i);
                }
            }
        }
        let mut ready: std::collections::BinaryHeap<std::cmp::Reverse<usize>> =
            (0..n).filter(|&i| indegree[i] == 0).map(std::cmp::Reverse).collect();
        let mut order = Vec::with_capacity(n);
        while let Some(std::cmp::Reverse(i)) = ready.pop() {
            order.push(i);
            for &d in &dependents[i] {
                indegree[d] -= 1;
                if indegree[d] == 0 {
                    ready.push(std::cmp::Reverse(d));
                }
            }
        }
        if order.len() != n {
            let stuck = (0..n).find(|&i| indegree[i] > 0).unwrap_or(0);
            return Err(PlanError::Cycle(self.nodes[stuck].id.clone()));
        }
        Ok(order)
    }

    /// Compiles the graph for one input shape: schedules it, infers every value's
    /// shape (`lookup` supplies parameter and table shapes by name), computes last
    /// uses, and simulates the executor's allocate/recycle walk to produce the exact
    /// arena of buffer capacities the pass needs.
    pub fn compile(
        &self,
        input_shape: &[usize],
        lookup: &dyn Fn(&str) -> Option<Vec<usize>>,
    ) -> Result<Plan, PlanError> {
        let order = self.schedule()?;
        let consumers = self.consumer_counts();
        let mut shapes: Vec<Vec<usize>> = vec![Vec::new(); self.values.len()];
        let mut known = vec![false; self.values.len()];
        for (i, info) in self.values.iter().enumerate() {
            // Values no node reads are not the plan's problem — only what the schedule
            // actually reads must bind.
            if consumers[i] == 0 {
                continue;
            }
            match &info.binding {
                Some(Binding::Input) => {
                    shapes[i] = input_shape.to_vec();
                    known[i] = true;
                }
                Some(Binding::Param { path, .. }) => {
                    shapes[i] =
                        lookup(path).ok_or_else(|| PlanError::MissingParam(path.clone()))?;
                    known[i] = true;
                }
                Some(Binding::Positional) => {
                    shapes[i] = lookup(&info.name)
                        .ok_or_else(|| PlanError::MissingParam(info.name.clone()))?;
                    known[i] = true;
                }
                None => {}
            }
        }
        for &ni in &order {
            let node = &self.nodes[ni];
            let mut in_shapes = Vec::with_capacity(node.inputs.len());
            for v in &node.inputs {
                if !known[v.0] {
                    return Err(PlanError::UnknownInput {
                        node: node.id.clone(),
                        value: self.values[v.0].name.clone(),
                    });
                }
                in_shapes.push(shapes[v.0].as_slice());
            }
            let out = node
                .op
                .infer_shape(&in_shapes, input_shape)
                .map_err(|detail| PlanError::Shape { node: node.id.clone(), detail })?;
            shapes[node.output.0] = out;
            known[node.output.0] = true;
        }

        let mut last_use: Vec<Option<usize>> = vec![None; self.values.len()];
        for (pos, &ni) in order.iter().enumerate() {
            for v in &self.nodes[ni].inputs {
                last_use[v.0] = Some(pos);
            }
        }

        // Simulate the executor's allocate/recycle walk. `root` follows view aliases
        // to the value whose storage actually backs them; a slot frees only once every
        // value sharing it is past its last use — exactly the condition under which
        // the executor's `recycle` succeeds.
        let mut root: Vec<usize> = (0..self.values.len()).collect();
        let mut slot_of: Vec<Option<usize>> = vec![None; self.values.len()];
        let mut slots: Vec<usize> = Vec::new();
        let mut live: Vec<usize> = Vec::new();
        let mut free: Vec<usize> = Vec::new();
        let mut in_place = Vec::with_capacity(order.len());
        for (pos, &ni) in order.iter().enumerate() {
            let node = &self.nodes[ni];
            let out = node.output.0;
            // The slot of an input that dies here, owned by that input alone and as
            // large as the output: the output may be written over it.
            let overwritten = node.op.overwrites_input().and_then(|k| {
                let v = node.inputs[k].0;
                let s = slot_of[v].filter(|&s| root[v] == v && live[s] == 1)?;
                (last_use[v] == Some(pos) && shapes[v] == shapes[out]).then_some(s)
            });
            in_place.push(overwritten.is_some());
            if let Some(k) = node.op.aliases_input() {
                let base = root[node.inputs[k].0];
                root[out] = base;
                if let Some(s) = slot_of[base] {
                    live[s] += 1;
                }
            } else if let Some(s) = overwritten {
                slot_of[out] = Some(s);
                live[s] += 1;
            } else {
                // Activations are f32 today; the arena is denominated in bytes so the
                // capacities stay meaningful once narrower dtypes flow through.
                let bytes: usize = 4 * shapes[out].iter().product::<usize>();
                let mut best: Option<(usize, usize)> = None;
                for (fi, &s) in free.iter().enumerate() {
                    if slots[s] >= bytes && best.is_none_or(|(_, c)| slots[s] < c) {
                        best = Some((fi, slots[s]));
                    }
                }
                let s = match best {
                    Some((fi, _)) => free.swap_remove(fi),
                    None => {
                        slots.push(bytes);
                        live.push(0);
                        slots.len() - 1
                    }
                };
                slot_of[out] = Some(s);
                live[s] += 1;
            }
            let mut seen = HashSet::new();
            for v in &node.inputs {
                if !seen.insert(v.0) || self.values[v.0].binding.is_some() {
                    continue;
                }
                if last_use[v.0] == Some(pos) {
                    if let Some(s) = slot_of[root[v.0]] {
                        live[s] -= 1;
                        if live[s] == 0 {
                            free.push(s);
                        }
                    }
                }
            }
        }

        Ok(Plan {
            order,
            shapes,
            last_use,
            in_place,
            arena: slots,
            input_shape: input_shape.to_vec(),
        })
    }
}

impl Default for Graph {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy two-linear chain with a residual and an activation:
    /// input → l1 → l2 → add(l1, l2) → gelu.
    fn toy() -> Graph {
        let mut g = Graph::new();
        let x = g.add_input("input");
        let w1 = g.param("l1.weight", &[8, 8]);
        let b1 = g.param("l1.bias", &[8]);
        let w2 = g.param("l2.weight", &[8, 8]);
        let b2 = g.param("l2.bias", &[8]);
        let y1 = g.push("l1", Op::Linear, vec![x, w1, b1]);
        let y2 = g.push("l2", Op::Linear, vec![y1, w2, b2]);
        let sum = g.push("residual", Op::Add, vec![y1, y2]);
        let out = g.push("act", Op::Gelu, vec![sum]);
        g.output = out;
        g.validate().expect("toy graph is well-formed");
        g
    }

    fn toy_lookup(path: &str) -> Option<Vec<usize>> {
        match path {
            "l1.weight" | "l2.weight" => Some(vec![8, 8]),
            "l1.bias" | "l2.bias" => Some(vec![8]),
            _ => None,
        }
    }

    #[test]
    fn schedule_preserves_emission_order() {
        let g = toy();
        assert_eq!(g.schedule().unwrap(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn compile_infers_shapes_and_lifetimes() {
        let g = toy();
        let plan = g.compile(&[2, 5, 8], &toy_lookup).unwrap();
        assert_eq!(plan.shapes[g.output.0], vec![2, 5, 8]);
        // y1 is read by l2 (pos 1) and the residual (pos 2).
        let y1 = g.nodes[0].output;
        assert_eq!(plan.last_use[y1.0], Some(2));
        // Four materialising nodes, but lifetimes overlap at most three deep, and the
        // GELU writes over the residual sum, which dies there.
        assert_eq!(plan.arena.len(), 3);
        assert!(plan.arena.iter().all(|&c| c == 4 * (2 * 5 * 8)), "slots are in bytes");
        assert_eq!(plan.in_place, vec![false, false, false, true]);
    }

    #[test]
    fn gelu_writes_over_its_input_only_where_the_input_dies() {
        // input → ff1 → gelu → ff2, the FFN chain: ff1 dies at the GELU, so the
        // GELU's output takes ff1's slot and the chain needs two slots, not three.
        let mut g = Graph::new();
        let x = g.add_input("input");
        let (w1, b1) = (g.param("l1.weight", &[8, 8]), g.param("l1.bias", &[8]));
        let (w2, b2) = (g.param("l2.weight", &[8, 8]), g.param("l2.bias", &[8]));
        let ff1 = g.push("l1", Op::Linear, vec![x, w1, b1]);
        let act = g.push("act", Op::Gelu, vec![ff1]);
        let ff2 = g.push("l2", Op::Linear, vec![act, w2, b2]);
        g.output = ff2;
        let plan = g.compile(&[2, 5, 8], &toy_lookup).unwrap();
        assert_eq!(plan.in_place, vec![false, true, false]);
        assert_eq!(plan.arena.len(), 2);
        // Read again after the GELU, ff1 must keep its storage.
        let sum = g.push("residual", Op::Add, vec![ff2, ff1]);
        g.output = sum;
        let plan = g.compile(&[2, 5, 8], &toy_lookup).unwrap();
        assert_eq!(plan.in_place, vec![false; 4]);
        assert_eq!(plan.arena.len(), 3);
    }

    #[test]
    fn missing_required_params_are_a_compile_error() {
        let err = toy().compile(&[2, 5, 8], &|_| None).unwrap_err();
        assert!(matches!(err, PlanError::MissingParam(_)));
        let err = toy()
            .compile(&[2, 5, 8], &|p| if p == "l2.bias" { None } else { toy_lookup(p) })
            .unwrap_err();
        assert_eq!(err, PlanError::MissingParam("l2.bias".into()));
    }

    #[test]
    fn wrong_parameter_shape_is_a_compile_error_not_a_panic() {
        let g = toy();
        let err = g
            .compile(&[2, 5, 8], &|p| {
                if p == "l2.weight" {
                    Some(vec![4, 8]) // malformed: inner dim mismatch
                } else {
                    toy_lookup(p)
                }
            })
            .unwrap_err();
        match err {
            PlanError::Shape { node, .. } => assert_eq!(node, "l2"),
            other => panic!("expected shape error, got {other:?}"),
        }
    }

    #[test]
    fn cycles_are_detected() {
        let mut g = Graph::new();
        let x = g.add_input("input");
        // Forge a cycle by hand: a reads b's output, b reads a's.
        let a_out = ValueId(g.values.len() + 1); // b's output, not yet created
        let _ = x;
        let a = g.push("a", Op::Gelu, vec![a_out]);
        let b = g.push("b", Op::Gelu, vec![a]);
        assert_eq!(b, a_out);
        assert!(matches!(g.schedule(), Err(PlanError::Cycle(_))));
    }

    #[test]
    fn aliased_views_keep_their_base_slot_live() {
        let mut g = Graph::new();
        let x = g.add_input("input");
        let w = g.param("l.weight", &[8, 8]);
        let b = g.param("l.bias", &[8]);
        let y = g.push("l", Op::Linear, vec![x, w, b]); // (2, 6, 8)
        let split = g.push("split", Op::SplitHeads { heads: 2 }, vec![y]);
        let merged = g.push("merge", Op::MergeHeads, vec![split]);
        g.output = merged;
        let plan = g
            .compile(&[2, 6, 8], &|p| match p {
                "l.weight" => Some(vec![8, 8]),
                "l.bias" => Some(vec![8]),
                _ => None,
            })
            .unwrap();
        // The split is a view: only the linear and the merge allocate.
        assert_eq!(plan.arena.len(), 2);
        assert_eq!(plan.shapes[split.0], vec![2, 2, 6, 4]);
    }
}
