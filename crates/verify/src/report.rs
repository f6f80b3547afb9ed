//! The diagnostic vocabulary: typed defects, severities, and the report they roll
//! up into.
//!
//! Every analysis in this crate returns [`Diagnostic`]s instead of panicking, so a
//! malformed plan or checkpoint is *described* — which node, which invariant, what the
//! verifier derived versus what the plan claims — and the publish path can refuse
//! activation with the full picture attached. All types here derive `Eq`, so a
//! [`Report`] can ride inside the serving tier's error enums.

/// How bad a diagnostic is. Only [`Severity::Error`] blocks publication; a warning
/// flags waste (e.g. a buffer held longer than needed) that cannot corrupt results.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// Sound but suboptimal — reported, never blocking.
    Warning,
    /// The plan or checkpoint is wrong; activating it could corrupt answers.
    Error,
}

/// Which independent analysis produced a diagnostic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Analysis {
    /// Configuration consistency (the non-panicking twin of `RitaConfig` checks).
    Config,
    /// SSA well-formedness: unique IDs, unique producers, every read bound or produced.
    Structure,
    /// Schedule validity: permutation, def-before-use, agreement with an independent
    /// topological-order recomputation.
    Schedule,
    /// Shape soundness: bottom-up re-inference diffed against the plan's AOT shapes.
    Shape,
    /// Buffer-lifetime soundness: recomputed last uses, read-after-free, arena peak.
    Lifetime,
    /// Emission: the served graph is, node for node, the one `build_graph` emits for
    /// the checkpoint.
    Emission,
    /// Binding coverage: params resolve in the checkpoint, no orphans.
    Binding,
    /// Record dtype soundness: quantized checkpoint records carry payloads and
    /// scales consistent with their declared dtype and shape.
    Dtype,
}

impl Analysis {
    /// Stable lower-case name used in JSON output and test assertions.
    pub fn name(self) -> &'static str {
        match self {
            Analysis::Config => "config",
            Analysis::Structure => "structure",
            Analysis::Schedule => "schedule",
            Analysis::Shape => "shape",
            Analysis::Lifetime => "lifetime",
            Analysis::Emission => "emission",
            Analysis::Binding => "binding",
            Analysis::Dtype => "dtype",
        }
    }
}

/// The typed defect taxonomy. Each variant names one invariant the verifier
/// re-derives from scratch; the payload carries what was planned versus what the
/// independent derivation produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VerifyError {
    /// The checkpoint's configuration is internally inconsistent.
    BadConfig {
        /// Which constraint failed.
        detail: String,
    },
    /// Two nodes share the same ID.
    DuplicateNodeId,
    /// Two nodes write the same value slot (SSA violation).
    DuplicateProducer,
    /// A node writes a value that also has an external binding.
    ProducesBoundValue,
    /// A node reads a value that nothing binds or produces.
    UnboundRead {
        /// Name of the unbound value.
        value: String,
    },
    /// A node references a value slot outside the graph's value table.
    ValueOutOfRange {
        /// The out-of-range slot index.
        index: usize,
    },
    /// The graph's output is neither bound nor produced.
    MissingOutput,
    /// The schedule does not list every node exactly once.
    ScheduleLength {
        /// Entries in the plan's schedule.
        planned: usize,
        /// Nodes in the graph.
        nodes: usize,
    },
    /// A schedule entry is out of range or repeated.
    ScheduleEntry {
        /// Position of the offending entry.
        position: usize,
        /// What is wrong with it.
        detail: String,
    },
    /// A node runs before a value it reads has been produced.
    UseBeforeDef {
        /// Schedule position of the premature read.
        position: usize,
        /// Name of the value read too early.
        value: String,
    },
    /// The plan's schedule disagrees with the verifier's independent topological
    /// recomputation.
    ScheduleDivergence {
        /// First position at which the two orders differ.
        position: usize,
        /// Node the plan schedules there.
        planned: String,
        /// Node the independent recomputation schedules there.
        derived: String,
    },
    /// The graph has a cycle, so no topological order exists.
    Cycle,
    /// The plan's recorded input shape disagrees with the shape table entry for the
    /// input value.
    InputShape {
        /// `plan.input_shape`.
        planned: Vec<usize>,
        /// `plan.shapes[input]`.
        recorded: Vec<usize>,
    },
    /// The plan's AOT shape for a value disagrees with the verifier's bottom-up
    /// re-inference.
    ShapeMismatch {
        /// Shape the plan recorded.
        planned: Vec<usize>,
        /// Shape the independent calculus derived.
        derived: Vec<usize>,
    },
    /// The independent shape calculus could not type a node at all.
    Underivable {
        /// Why the node's input shapes are inconsistent.
        detail: String,
    },
    /// The plan's last-use point for a value disagrees with the recomputed one.
    LastUseMismatch {
        /// Schedule position the plan frees the value at.
        planned: Option<usize>,
        /// Final read position the verifier derived.
        derived: Option<usize>,
    },
    /// A value's storage is recycled (and possibly overwritten) before its final read.
    ReadAfterFree {
        /// Schedule position of the read (or overwrite) after release.
        position: usize,
        /// Schedule position the plan releases the storage at.
        freed_at: usize,
    },
    /// A node is planned to write its output over an input it may not overwrite: its
    /// op has no in-place form, or the input is bound, a view, or shares its storage.
    UnsafeInPlace {
        /// Schedule position of the node.
        position: usize,
        /// Which condition fails.
        detail: String,
    },
    /// The planned arena cannot cover the true allocation peak.
    ArenaShortfall {
        /// A required buffer capacity (f32 elements) with no covering planned slot.
        required: usize,
        /// Number of slots the plan reserved.
        planned_slots: usize,
    },
    /// A required parameter path does not resolve in the checkpoint.
    MissingParam,
    /// A bound parameter's checkpoint shape disagrees with the plan's shape table.
    ParamShapeMismatch {
        /// Shape of the checkpoint tensor.
        checkpoint: Vec<usize>,
        /// Shape the plan recorded for the bound value.
        planned: Vec<usize>,
    },
    /// A checkpoint tensor that no graph value binds.
    OrphanTensor,
    /// The served graph is not, node for node, the graph `build_graph` emits.
    EmissionMismatch {
        /// The first node (or output) that differs, as emitted and as served.
        detail: String,
    },
    /// A quantized record carries an unusable dequantization scale (non-finite, zero,
    /// or negative): dequantizing through it would poison or flip every weight in
    /// that output column.
    BadScale {
        /// Output column of the offending scale.
        column: usize,
        /// The scale value, formatted (kept as text so diagnostics stay `Eq`).
        value: String,
    },
    /// A quantized record's scale vector does not carry one scale per output column.
    ScaleCountMismatch {
        /// Scales the record carries.
        scales: usize,
        /// Output columns (`shape[1]`) it needs.
        columns: usize,
    },
    /// A record's payload element count disagrees with its declared shape — the
    /// in-memory twin of the byte reader's dtype/paylen cross-check.
    PayloadMismatch {
        /// Elements the payload holds.
        elements: usize,
        /// Elements the shape implies.
        expected: usize,
    },
    /// An int8 record whose shape the quantized engine cannot execute: not rank-2, or
    /// a reduction depth that overflows the i32 accumulator.
    UnquantizableShape {
        /// The record's declared shape.
        shape: Vec<usize>,
        /// Which constraint failed.
        detail: String,
    },
}

impl std::fmt::Display for VerifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VerifyError::BadConfig { detail } => write!(f, "bad configuration: {detail}"),
            VerifyError::DuplicateNodeId => write!(f, "duplicate node id"),
            VerifyError::DuplicateProducer => write!(f, "value written by more than one node"),
            VerifyError::ProducesBoundValue => {
                write!(f, "node writes a value that has an external binding")
            }
            VerifyError::UnboundRead { value } => {
                write!(f, "reads value '{value}' that nothing binds or produces")
            }
            VerifyError::ValueOutOfRange { index } => {
                write!(f, "references value slot {index} outside the value table")
            }
            VerifyError::MissingOutput => write!(f, "graph output is neither bound nor produced"),
            VerifyError::ScheduleLength { planned, nodes } => {
                write!(f, "schedule has {planned} entries for {nodes} nodes")
            }
            VerifyError::ScheduleEntry { position, detail } => {
                write!(f, "schedule entry at position {position}: {detail}")
            }
            VerifyError::UseBeforeDef { position, value } => {
                write!(f, "reads '{value}' at position {position} before it is produced")
            }
            VerifyError::ScheduleDivergence { position, planned, derived } => write!(
                f,
                "schedule diverges from the independent topological order at position \
                 {position}: plan runs '{planned}', recomputation runs '{derived}'"
            ),
            VerifyError::Cycle => write!(f, "graph has a cycle; no topological order exists"),
            VerifyError::InputShape { planned, recorded } => write!(
                f,
                "plan input shape {planned:?} disagrees with the shape table's {recorded:?}"
            ),
            VerifyError::ShapeMismatch { planned, derived } => {
                write!(f, "planned shape {planned:?} but re-inference derives {derived:?}")
            }
            VerifyError::Underivable { detail } => write!(f, "shape underivable: {detail}"),
            VerifyError::LastUseMismatch { planned, derived } => {
                write!(f, "planned last use {planned:?} but recomputed last use is {derived:?}")
            }
            VerifyError::ReadAfterFree { position, freed_at } => write!(
                f,
                "storage released at position {freed_at} but still needed at position {position}"
            ),
            VerifyError::UnsafeInPlace { position, detail } => {
                write!(f, "planned in place at position {position}, but {detail}")
            }
            VerifyError::ArenaShortfall { required, planned_slots } => write!(
                f,
                "no planned arena slot (of {planned_slots}) covers a required capacity of \
                 {required} elements"
            ),
            VerifyError::MissingParam => write!(f, "parameter missing from the checkpoint"),
            VerifyError::ParamShapeMismatch { checkpoint, planned } => write!(
                f,
                "checkpoint tensor shape {checkpoint:?} disagrees with planned {planned:?}"
            ),
            VerifyError::OrphanTensor => write!(f, "checkpoint tensor bound by no graph value"),
            VerifyError::EmissionMismatch { detail } => {
                write!(f, "served graph differs from the emission: {detail}")
            }
            VerifyError::BadScale { column, value } => {
                write!(f, "unusable dequantization scale {value} for output column {column}")
            }
            VerifyError::ScaleCountMismatch { scales, columns } => {
                write!(f, "{scales} scales for {columns} output columns")
            }
            VerifyError::PayloadMismatch { elements, expected } => {
                write!(f, "payload holds {elements} elements but the shape implies {expected}")
            }
            VerifyError::UnquantizableShape { shape, detail } => {
                write!(f, "int8 record shape {shape:?} is not executable: {detail}")
            }
        }
    }
}

/// One verified defect: where it is, which analysis found it, and what it is.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Blocking or advisory.
    pub severity: Severity,
    /// The analysis that produced it.
    pub analysis: Analysis,
    /// The node ID or checkpoint tensor path the defect anchors to (the graph's node
    /// IDs *are* tensor paths); empty for graph-global defects.
    pub node: String,
    /// The typed defect.
    pub error: VerifyError,
}

impl Diagnostic {
    /// An error-severity diagnostic.
    pub fn error(analysis: Analysis, node: impl Into<String>, error: VerifyError) -> Self {
        Self { severity: Severity::Error, analysis, node: node.into(), error }
    }

    /// A warning-severity diagnostic.
    pub fn warning(analysis: Analysis, node: impl Into<String>, error: VerifyError) -> Self {
        Self { severity: Severity::Warning, analysis, node: node.into(), error }
    }
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let sev = match self.severity {
            Severity::Warning => "warning",
            Severity::Error => "error",
        };
        if self.node.is_empty() {
            write!(f, "[{sev}] {}: {}", self.analysis.name(), self.error)
        } else {
            write!(f, "[{sev}] {} @ {}: {}", self.analysis.name(), self.node, self.error)
        }
    }
}

/// The verifier's output: every diagnostic from every analysis that ran.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Report {
    /// All diagnostics, in analysis order.
    pub diagnostics: Vec<Diagnostic>,
}

impl Report {
    /// An empty (clean) report.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether any diagnostic is error severity — the publish path refuses activation
    /// exactly when this is true.
    pub fn has_errors(&self) -> bool {
        self.diagnostics.iter().any(|d| d.severity == Severity::Error)
    }

    /// Whether the report carries no diagnostics at all.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Appends one diagnostic, deduplicating exact repeats (the same defect is often
    /// rediscovered once per probe shape).
    pub fn push(&mut self, d: Diagnostic) {
        if !self.diagnostics.contains(&d) {
            self.diagnostics.push(d);
        }
    }

    /// Appends a batch of diagnostics, deduplicating exact repeats.
    pub fn extend(&mut self, ds: Vec<Diagnostic>) {
        for d in ds {
            self.push(d);
        }
    }

    /// Whether any *error* diagnostic came from `analysis`.
    pub fn has_error_in(&self, analysis: Analysis) -> bool {
        self.diagnostics.iter().any(|d| d.severity == Severity::Error && d.analysis == analysis)
    }

    /// The report as a JSON object: `{"clean": bool, "errors": n, "warnings": n,
    /// "diagnostics": [{severity, analysis, node, message}, ...]}`.
    pub fn to_json(&self) -> String {
        let errors = self.diagnostics.iter().filter(|d| d.severity == Severity::Error).count();
        let warnings = self.diagnostics.len() - errors;
        let mut out = format!(
            "{{\"clean\":{},\"errors\":{errors},\"warnings\":{warnings},\"diagnostics\":[",
            self.is_clean()
        );
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let sev = match d.severity {
                Severity::Warning => "warning",
                Severity::Error => "error",
            };
            out.push_str(&format!(
                "{{\"severity\":\"{sev}\",\"analysis\":\"{}\",\"node\":\"{}\",\"message\":\"{}\"}}",
                d.analysis.name(),
                escape(&d.node),
                escape(&d.error.to_string())
            ));
        }
        out.push_str("]}");
        out
    }
}

impl std::fmt::Display for Report {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_clean() {
            return write!(f, "clean");
        }
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            write!(f, "{d}")?;
        }
        Ok(())
    }
}

/// Minimal JSON string escaping (quotes, backslashes, control characters).
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}
