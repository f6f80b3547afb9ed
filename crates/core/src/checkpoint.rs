//! Versioned binary checkpoints: save a trained model (and optionally its optimiser and
//! scheduler state) to a single file, load it in a fresh process, and resume.
//!
//! ## Format (version 3)
//!
//! Hand-rolled little-endian binary — the workspace is offline, so no serde. All
//! multi-byte integers are `u32`/`u64` LE, floats are IEEE-754 `f32` LE bit patterns
//! (tensors round-trip **bit-exactly**).
//!
//! ```text
//! magic    8 bytes  b"RITACKPT"
//! version  u32      currently 3 (version-1/2 files still load bit-exactly)
//! task     u8       0 = backbone, 1 = classifier, 2 = imputer
//! classes  u32      number of classes (classifier only; 0 otherwise)
//! config            channels, max_len, window, stride, d_model, n_heads, n_layers,
//!                   ff_hidden (u32 each), dropout (f32), attention tag (u8) + payload:
//!                     0 vanilla | 1 group (ε f32, initial_groups u32, adaptive u8)
//!                     | 2 performer (features u32) | 3 linformer (proj_dim u32)
//! sched    u32 n    then n × (present u8, target f32): the per-layer persistent §5.1
//!                   group-count targets, so a restart resumes the exact schedule
//! tensors  u32 n    then n records. A v3 record is
//!                     path_len u32, path utf-8
//!                     dtype    u8   0 = f32 | 1 = int8 (per-channel scales); 2 was
//!                                   reserved for bf16 in PR 10, never written, and is
//!                                   rejected like any unknown tag
//!                     ndim u32, dims u32…
//!                     scales   u32  (int8 only) per-channel scale count — must equal
//!                                   the last dim (one scale per output column)
//!                     paylen   u64  payload byte length; the reader cross-checks it
//!                                   against dtype × numel (+ scales) before parsing,
//!                                   so a dtype/payload mismatch is structural damage
//!                     payload       f32 LE data | i8 codes then f32 LE scales
//!                   (v1/v2 records have no dtype/paylen fields and are always f32.)
//!                   Every named parameter followed by every named buffer, in
//!                   visitor order.
//! optim    u8       0 = absent; 1 = steps u64, lr β₁ β₂ ε wd (f32 each), u32 n,
//!                   then n × (path, ndim, dims, first-moment f32…, second-moment f32…)
//! crcs     u32 n    then n × u32: CRC-32 of each tensor record (path length through
//!                   payload), in tensor order — pinpoints *which* tensor rotted
//! filecrc  u32      CRC-32 of every preceding byte of the file — any single flipped
//!                   bit anywhere fails the load before a tensor is parsed
//! ```
//!
//! ## Version policy
//!
//! The version is bumped whenever the byte layout changes incompatibly; readers reject
//! unknown versions with [`CheckpointError::UnsupportedVersion`] instead of guessing.
//! Adding new trailing sections is a version bump too — v1 readers must be able to
//! assume they consumed the whole buffer. This reader accepts version 1 (no checksum
//! trailer — integrity is the caller's problem, as it always was), version 2 (trailer
//! verified; any mismatch is [`CheckpointError::ChecksumMismatch`]), and version 3
//! (per-tensor dtype tags). The one writer, [`Checkpoint::to_bytes`], emits version 3;
//! the older readers are pinned by golden files under `tests/fixtures/`.
//!
//! ## Scale values are not validated here
//!
//! The reader enforces *structure* (dtype/payload-length agreement, scale counts); it
//! deliberately does **not** judge scale *values* (finite, positive). That semantic
//! check lives in `rita-verify`'s independent checkpoint analysis, keeping the
//! second-implementation discipline: a checkpoint whose scales rotted to NaN parses
//! here and is rejected by the verifier before the registry activates it.
//!
//! ## Failure behaviour
//!
//! Loading never panics on malformed input: truncated files, corrupted counts and
//! wrong-version files all surface as descriptive [`CheckpointError`]s. Restoring into a
//! model validates both directions — every parameter must be present with the right
//! shape, and unknown leftover tensors are an error (they indicate an architecture
//! mismatch).

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::path::Path;

use crate::attention::AttentionKind;
use crate::model::config::MAX_TENSOR_ELEMS;
use crate::model::{RitaConfig, RitaModel};
use crate::tasks::{Classifier, Imputer};
use rand::Rng;
use rita_nn::optim::{AdamW, AdamWState};
use rita_nn::{BufferVisitorMut, Module, ParamPath};
use rita_tensor::NdArray;

const MAGIC: &[u8; 8] = b"RITACKPT";
const VERSION: u32 = 3;

/// Dtype tags of version-3 tensor records.
const DTYPE_F32: u8 = 0;
const DTYPE_INT8: u8 = 1;

/// One named tensor as stored in a checkpoint: full-precision, or int8-quantized with
/// per-channel scales.
///
/// Quantized records keep their compact payload in memory — the inference tier binds
/// them directly (packing int8 codes into GEMM panels without ever inflating to f32);
/// [`TensorRecord::to_f32`] is the explicit, lossless-for-f32 widening everything else
/// (training restore, verification probes, non-GEMM consumers) goes through.
#[derive(Debug, Clone, PartialEq)]
pub enum TensorRecord {
    /// Full-precision tensor — what v1/v2 checkpoints contain exclusively.
    F32(NdArray),
    /// Int8 per-channel quantized rank-2 weight: `data[p * n + j]` is the code of
    /// element `(p, j)` and dequantizes to `data[p * n + j] as f32 * scales[j]` — one
    /// scale per output column `j` (`scales.len() == shape[1]`).
    Int8 {
        /// Logical shape `[k, n]`.
        shape: Vec<usize>,
        /// Row-major int8 codes, `k · n` of them.
        data: Vec<i8>,
        /// Per-output-column dequantization scales, `n` of them.
        scales: Vec<f32>,
    },
}

impl TensorRecord {
    /// Logical shape of the stored tensor.
    pub fn shape(&self) -> &[usize] {
        match self {
            TensorRecord::F32(t) => t.shape(),
            TensorRecord::Int8 { shape, .. } => shape,
        }
    }

    /// Element count.
    pub fn numel(&self) -> usize {
        self.shape().iter().product()
    }

    /// Human-readable dtype name (matches the metrics/report vocabulary).
    pub fn dtype(&self) -> &'static str {
        match self {
            TensorRecord::F32(_) => "f32",
            TensorRecord::Int8 { .. } => "int8",
        }
    }

    /// Widens/dequantizes to a dense f32 array. Exact for `F32` (shares storage), the
    /// per-channel dequantization for `Int8`.
    pub fn to_f32(&self) -> NdArray {
        match self {
            TensorRecord::F32(t) => t.clone(),
            TensorRecord::Int8 { shape, data, scales } => {
                let w = rita_tensor::dequantize_columns(data, scales, shape[0], shape[1]);
                NdArray::from_vec(w, shape).expect("int8 record shape matches its data")
            }
        }
    }
}

/// CRC-32 lookup table for the reflected IEEE 802.3 polynomial `0xEDB88320`, built at
/// compile time (the workspace is offline; no crc crate).
const CRC32_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// The CRC-32 (IEEE 802.3, as used by zlib/PNG/Ethernet) of `bytes`.
///
/// This is the integrity primitive behind the version-2 checkpoint trailer: one
/// checksum per tensor record plus one over the whole file, so a single flipped bit
/// anywhere in a checkpoint fails the load instead of silently serving damaged
/// weights. Public so external tooling (and the chaos tests) can recompute trailers.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc = (crc >> 8) ^ CRC32_TABLE[((crc ^ b as u32) & 0xFF) as usize];
    }
    crc ^ 0xFFFF_FFFF
}

/// Hard caps the reader enforces before trusting length fields from the file, so a
/// corrupted count cannot drive a huge allocation.
const MAX_TENSORS: u32 = 1 << 20;
const MAX_PATH_LEN: u32 = 4096;
const MAX_NDIM: u32 = 8;

/// Which task head a checkpoint carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskKind {
    /// A bare RITA backbone (no head).
    Backbone,
    /// Backbone + linear classification head.
    Classifier {
        /// Number of output classes.
        num_classes: usize,
    },
    /// Backbone + reconstruction decoder (imputation / forecasting).
    Imputer,
}

/// Errors produced while writing, reading or restoring a checkpoint.
#[derive(Debug)]
pub enum CheckpointError {
    /// Underlying filesystem error.
    Io(std::io::Error),
    /// The file does not start with the checkpoint magic.
    BadMagic,
    /// The file's format version is not understood by this reader.
    UnsupportedVersion(u32),
    /// The file ended before a declared section was complete.
    Truncated(String),
    /// A structural invariant of the format was violated.
    Corrupted(String),
    /// A version-2 CRC-32 (per-tensor or whole-file) does not match the stored bytes:
    /// the file was damaged after it was written.
    ChecksumMismatch {
        /// Which checksum failed ("whole-file checksum" or the tensor's path).
        what: String,
        /// The checksum stored in the trailer.
        stored: u32,
        /// The checksum recomputed from the bytes actually read.
        computed: u32,
    },
    /// A parameter or buffer of the model has no tensor in the checkpoint.
    MissingTensor(String),
    /// A tensor's shape disagrees with the model parameter it should fill.
    ShapeMismatch {
        /// Parameter path.
        path: String,
        /// Shape the model expects.
        expected: Vec<usize>,
        /// Shape stored in the checkpoint.
        found: Vec<usize>,
    },
    /// The checkpoint holds tensors the model has no home for (architecture drift).
    UnexpectedTensors(Vec<String>),
    /// The checkpoint's task kind does not match the requested restore.
    TaskMismatch {
        /// Task stored in the checkpoint.
        found: &'static str,
        /// Task the caller asked to restore.
        requested: &'static str,
    },
    /// The checkpoint carries no optimizer section.
    NoOptimizerState,
    /// The checkpoint's attention kind trains and restores but has no serving graph:
    /// the comparison baselines (Performer, Linformer) are not served.
    AttentionNotServed {
        /// The kind's name, as [`crate::attention::AttentionKind::name`] gives it.
        kind: &'static str,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint io error: {e}"),
            CheckpointError::BadMagic => {
                write!(f, "not a RITA checkpoint (bad magic; expected {MAGIC:?})")
            }
            CheckpointError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported checkpoint version {v} (this reader understands 1..={VERSION})"
                )
            }
            CheckpointError::Truncated(what) => {
                write!(f, "checkpoint truncated while reading {what}")
            }
            CheckpointError::Corrupted(what) => write!(f, "checkpoint corrupted: {what}"),
            CheckpointError::ChecksumMismatch { what, stored, computed } => write!(
                f,
                "checkpoint checksum mismatch for {what}: trailer stores {stored:#010x} but the \
                 bytes hash to {computed:#010x} — the file was damaged after it was written"
            ),
            CheckpointError::MissingTensor(path) => {
                write!(f, "checkpoint has no tensor for parameter '{path}'")
            }
            CheckpointError::ShapeMismatch { path, expected, found } => write!(
                f,
                "checkpoint tensor '{path}' has shape {found:?} but the model expects {expected:?}"
            ),
            CheckpointError::UnexpectedTensors(paths) => {
                write!(f, "checkpoint holds tensors the model does not: {paths:?}")
            }
            CheckpointError::TaskMismatch { found, requested } => {
                write!(f, "checkpoint stores a {found} but a {requested} restore was requested")
            }
            CheckpointError::NoOptimizerState => {
                write!(f, "checkpoint carries no optimizer state (saved without an optimizer)")
            }
            CheckpointError::AttentionNotServed { kind } => write!(
                f,
                "{kind} attention is not served (only Vanilla and Group are); restore the \
                 checkpoint with the training modules instead"
            ),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

/// An in-memory checkpoint: everything needed to reconstruct a servable model (and
/// optionally resume its training) in a fresh process.
#[derive(Debug, Clone)]
pub struct Checkpoint {
    /// Which task head the tensors describe.
    pub task: TaskKind,
    /// Architecture of the backbone.
    pub config: RitaConfig,
    /// Per-encoder-layer persistent scheduler group-count targets (`None` for
    /// non-group layers).
    pub scheduler: Vec<Option<f32>>,
    /// Named tensors: every parameter, then every buffer, in visitor order.
    pub tensors: Vec<(String, TensorRecord)>,
    /// AdamW moment state keyed by parameter path, when saved for resumption.
    pub optimizer: Option<AdamWState>,
}

/// Collects a module's parameters and buffers into the checkpoint tensor list.
fn collect_tensors(module: &impl Module) -> Vec<(String, TensorRecord)> {
    let mut tensors: Vec<(String, TensorRecord)> = module
        .named_parameters()
        .into_iter()
        .map(|(path, var)| (path.to_string(), TensorRecord::F32(var.to_array())))
        .collect();
    tensors.extend(
        module
            .named_buffers()
            .into_iter()
            .map(|(path, buf)| (path.to_string(), TensorRecord::F32(buf.clone()))),
    );
    tensors
}

impl Checkpoint {
    /// Captures a bare backbone.
    pub fn of_backbone(model: &RitaModel) -> Self {
        Self {
            task: TaskKind::Backbone,
            config: model.config,
            scheduler: model.scheduler_state(),
            tensors: collect_tensors(model),
            optimizer: None,
        }
    }

    /// Captures a classifier, optionally with its optimiser for later resumption.
    pub fn of_classifier(clf: &Classifier, optimizer: Option<&AdamW>) -> Self {
        Self {
            task: TaskKind::Classifier { num_classes: clf.num_classes },
            config: clf.model.config,
            scheduler: clf.model.scheduler_state(),
            tensors: collect_tensors(clf),
            optimizer: optimizer.map(AdamW::state),
        }
    }

    /// Captures an imputer, optionally with its optimiser for later resumption.
    pub fn of_imputer(imp: &Imputer, optimizer: Option<&AdamW>) -> Self {
        Self {
            task: TaskKind::Imputer,
            config: imp.model.config,
            scheduler: imp.model.scheduler_state(),
            tensors: collect_tensors(imp),
            optimizer: optimizer.map(AdamW::state),
        }
    }

    /// Rebuilds a classifier from this checkpoint: constructs the architecture from the
    /// stored config, then overwrites every parameter and buffer bit-exactly and
    /// restores the scheduler state.
    pub fn restore_classifier(&self, rng: &mut impl Rng) -> Result<Classifier, CheckpointError> {
        let TaskKind::Classifier { num_classes } = self.task else {
            return Err(CheckpointError::TaskMismatch {
                found: self.task_name(),
                requested: "classifier",
            });
        };
        let mut clf = Classifier::new(self.config, num_classes, rng);
        self.restore_module(&mut clf)?;
        clf.model.restore_scheduler_state(&self.scheduler);
        Ok(clf)
    }

    /// Rebuilds an imputer from this checkpoint (see
    /// [`Checkpoint::restore_classifier`]).
    pub fn restore_imputer(&self, rng: &mut impl Rng) -> Result<Imputer, CheckpointError> {
        if self.task != TaskKind::Imputer {
            return Err(CheckpointError::TaskMismatch {
                found: self.task_name(),
                requested: "imputer",
            });
        }
        let mut imp = Imputer::new(self.config, rng);
        self.restore_module(&mut imp)?;
        imp.model.restore_scheduler_state(&self.scheduler);
        Ok(imp)
    }

    /// Reattaches the stored AdamW state to a freshly restored module, so training
    /// resumes step-for-step (moments, step count, and hyper-parameters round-trip).
    pub fn restore_optimizer(
        &self,
        module: &(impl Module + ?Sized),
    ) -> Result<AdamW, CheckpointError> {
        let state = self.optimizer.as_ref().ok_or(CheckpointError::NoOptimizerState)?;
        let mut opt = AdamW::for_module(module, state.lr, state.weight_decay);
        opt.load_state(state).map_err(CheckpointError::Corrupted)?;
        Ok(opt)
    }

    fn task_name(&self) -> &'static str {
        match self.task {
            TaskKind::Backbone => "backbone",
            TaskKind::Classifier { .. } => "classifier",
            TaskKind::Imputer => "imputer",
        }
    }

    /// Overwrites every parameter and buffer of `module` from the stored tensors.
    /// Errors when a tensor is missing, has the wrong shape, or is left over.
    fn restore_module(&self, module: &mut (impl Module + ?Sized)) -> Result<(), CheckpointError> {
        let by_path: HashMap<&str, &TensorRecord> =
            self.tensors.iter().map(|(p, t)| (p.as_str(), t)).collect();
        if by_path.len() != self.tensors.len() {
            return Err(CheckpointError::Corrupted("duplicate tensor paths".into()));
        }
        let mut used: HashSet<&str> = HashSet::with_capacity(by_path.len());

        for (path, var) in module.named_parameters() {
            let Some(tensor) = by_path.get(path.as_str()).copied() else {
                return Err(CheckpointError::MissingTensor(path.to_string()));
            };
            if tensor.shape() != var.shape() {
                return Err(CheckpointError::ShapeMismatch {
                    path: path.to_string(),
                    expected: var.shape(),
                    found: tensor.shape().to_vec(),
                });
            }
            var.set_value(tensor.to_f32());
            used.insert(by_path.get_key_value(path.as_str()).expect("present").0);
        }

        let mut buffer_error: Option<CheckpointError> = None;
        let mut visit = |path: &ParamPath, buf: &mut NdArray| {
            if buffer_error.is_some() {
                return;
            }
            let Some(tensor) = by_path.get(path.as_str()).copied() else {
                buffer_error = Some(CheckpointError::MissingTensor(path.to_string()));
                return;
            };
            if tensor.shape() != buf.shape() {
                buffer_error = Some(CheckpointError::ShapeMismatch {
                    path: path.to_string(),
                    expected: buf.shape().to_vec(),
                    found: tensor.shape().to_vec(),
                });
                return;
            }
            *buf = tensor.to_f32();
            used.insert(by_path.get_key_value(path.as_str()).expect("present").0);
        };
        module.visit_buffers_mut(&mut BufferVisitorMut::new(&mut visit));
        if let Some(e) = buffer_error {
            return Err(e);
        }

        let leftover: Vec<String> = self
            .tensors
            .iter()
            .filter(|(p, _)| !used.contains(p.as_str()))
            .map(|(p, _)| p.clone())
            .collect();
        if !leftover.is_empty() {
            return Err(CheckpointError::UnexpectedTensors(leftover));
        }
        Ok(())
    }

    /// The offline int8 quantization pass: converts every rank-2 `.weight` parameter
    /// to [`TensorRecord::Int8`] with per-output-column scales and drops the optimizer
    /// section (a quantized checkpoint is a serving artifact, not a training resume
    /// point). Biases, norms, buffers, and higher-rank tensors stay f32 — they are
    /// tiny and numerically load-bearing. Weights whose reduction depth exceeds
    /// [`rita_tensor::MAX_QUANT_K`] (i32 accumulation could overflow) also stay f32.
    ///
    /// Already-quantized records pass through unchanged, so the pass is idempotent.
    pub fn quantize(&self) -> Checkpoint {
        let tensors = self
            .tensors
            .iter()
            .map(|(path, rec)| {
                let rec = match rec {
                    TensorRecord::F32(a)
                        if path.ends_with(".weight")
                            && a.shape().len() == 2
                            && a.shape()[0] <= rita_tensor::MAX_QUANT_K =>
                    {
                        let (k, n) = (a.shape()[0], a.shape()[1]);
                        let w = a.materialize();
                        let (data, scales) = rita_tensor::quantize_columns(w.as_slice(), k, n);
                        TensorRecord::Int8 { shape: vec![k, n], data, scales }
                    }
                    other => other.clone(),
                };
                (path.clone(), rec)
            })
            .collect();
        Checkpoint {
            task: self.task,
            config: self.config,
            scheduler: self.scheduler.clone(),
            tensors,
            optimizer: None,
        }
    }

    // ------------------------------------------------------------------ serialization

    /// Serialises to the current (version-3) byte format, checksum trailer included.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::default();
        w.bytes(MAGIC);
        w.u32(VERSION);
        match self.task {
            TaskKind::Backbone => {
                w.u8(0);
                w.u32(0);
            }
            TaskKind::Classifier { num_classes } => {
                w.u8(1);
                w.u32(num_classes as u32);
            }
            TaskKind::Imputer => {
                w.u8(2);
                w.u32(0);
            }
        }
        let c = &self.config;
        for dim in [
            c.channels,
            c.max_len,
            c.window,
            c.stride,
            c.d_model,
            c.n_heads,
            c.n_layers,
            c.ff_hidden,
        ] {
            w.u32(dim as u32);
        }
        w.f32(c.dropout);
        match c.attention {
            AttentionKind::Vanilla => w.u8(0),
            AttentionKind::Group { epsilon, initial_groups, adaptive } => {
                w.u8(1);
                w.f32(epsilon);
                w.u32(initial_groups as u32);
                w.u8(adaptive as u8);
            }
            AttentionKind::Performer { features } => {
                w.u8(2);
                w.u32(features as u32);
            }
            AttentionKind::Linformer { proj_dim } => {
                w.u8(3);
                w.u32(proj_dim as u32);
            }
        }
        w.u32(self.scheduler.len() as u32);
        for target in &self.scheduler {
            match target {
                Some(t) => {
                    w.u8(1);
                    w.f32(*t);
                }
                None => {
                    w.u8(0);
                    w.f32(0.0);
                }
            }
        }
        w.u32(self.tensors.len() as u32);
        let mut tensor_crcs = Vec::with_capacity(self.tensors.len());
        for (path, record) in &self.tensors {
            let start = w.0.len();
            w.str(path);
            w.record(record);
            tensor_crcs.push(crc32(&w.0[start..]));
        }
        match &self.optimizer {
            None => w.u8(0),
            Some(state) => {
                w.u8(1);
                w.u64(state.steps as u64);
                for x in [state.lr, state.beta1, state.beta2, state.eps, state.weight_decay] {
                    w.f32(x);
                }
                w.u32(state.moments.len() as u32);
                for (path, m, v) in &state.moments {
                    w.str(path.as_str());
                    w.u32(m.shape().len() as u32);
                    for &d in m.shape() {
                        w.u32(d as u32);
                    }
                    w.f32_slice(&m.materialize().into_vec());
                    w.f32_slice(&v.materialize().into_vec());
                }
            }
        }
        // Trailer: per-tensor CRCs, then the whole-file CRC over everything written so
        // far (trailer counts and tensor CRCs included).
        w.u32(tensor_crcs.len() as u32);
        for crc in &tensor_crcs {
            w.u32(*crc);
        }
        let file_crc = crc32(&w.0);
        w.u32(file_crc);
        w.0
    }

    /// Parses the byte format, accepting versions 1 (no checksum trailer), 2 (trailer
    /// verified), and 3 (dtype-tagged records). Never panics on malformed input.
    pub fn from_bytes(buf: &[u8]) -> Result<Self, CheckpointError> {
        let mut r = Reader { buf, pos: 0 };
        let magic = r.bytes(8, "magic")?;
        if magic != MAGIC {
            return Err(CheckpointError::BadMagic);
        }
        let version = r.u32("version")?;
        if !(1..=VERSION).contains(&version) {
            return Err(CheckpointError::UnsupportedVersion(version));
        }
        if version >= 2 {
            // Verify the whole-file CRC before trusting a single length field: a
            // flipped bit anywhere (header, counts, tensor data, even the trailer
            // itself) fails here, before any allocation-driving parse.
            if buf.len() < r.pos + 4 {
                return Err(CheckpointError::Truncated("file checksum".into()));
            }
            let tail = &buf[buf.len() - 4..];
            let stored = u32::from_le_bytes([tail[0], tail[1], tail[2], tail[3]]);
            let computed = crc32(&buf[..buf.len() - 4]);
            if stored != computed {
                return Err(CheckpointError::ChecksumMismatch {
                    what: "whole-file checksum".into(),
                    stored,
                    computed,
                });
            }
        }
        let task_tag = r.u8("task tag")?;
        let num_classes = r.u32("num_classes")? as usize;
        let task = match task_tag {
            0 => TaskKind::Backbone,
            1 => {
                if num_classes < 2 {
                    return Err(CheckpointError::Corrupted(format!(
                        "classifier checkpoint with {num_classes} classes"
                    )));
                }
                TaskKind::Classifier { num_classes }
            }
            2 => TaskKind::Imputer,
            t => return Err(CheckpointError::Corrupted(format!("unknown task tag {t}"))),
        };
        let mut dims = [0usize; 8];
        for (i, name) in [
            "channels",
            "max_len",
            "window",
            "stride",
            "d_model",
            "n_heads",
            "n_layers",
            "ff_hidden",
        ]
        .iter()
        .enumerate()
        {
            dims[i] = r.u32(name)? as usize;
        }
        let dropout = r.f32("dropout")?;
        let attention = match r.u8("attention tag")? {
            0 => AttentionKind::Vanilla,
            1 => {
                let epsilon = r.f32("group epsilon")?;
                let initial_groups = r.u32("group initial_groups")? as usize;
                let adaptive = r.u8("group adaptive")? != 0;
                AttentionKind::Group { epsilon, initial_groups, adaptive }
            }
            2 => AttentionKind::Performer { features: r.u32("performer features")? as usize },
            3 => AttentionKind::Linformer { proj_dim: r.u32("linformer proj_dim")? as usize },
            t => return Err(CheckpointError::Corrupted(format!("unknown attention tag {t}"))),
        };
        let config = RitaConfig {
            channels: dims[0],
            max_len: dims[1],
            window: dims[2],
            stride: dims[3],
            d_model: dims[4],
            n_heads: dims[5],
            n_layers: dims[6],
            ff_hidden: dims[7],
            dropout,
            attention,
        };
        if let Err(rule) = config.check() {
            return Err(CheckpointError::Corrupted(format!(
                "invalid model config ({rule}): {config:?}"
            )));
        }
        let head = config.d_model.saturating_mul(num_classes);
        if matches!(task, TaskKind::Classifier { .. }) && head > MAX_TENSOR_ELEMS {
            return Err(CheckpointError::Corrupted(format!(
                "a classifier head of {head} elements is over the cap of {MAX_TENSOR_ELEMS}"
            )));
        }

        let sched_len = r.u32("scheduler count")?;
        if sched_len != config.n_layers as u32 {
            return Err(CheckpointError::Corrupted(format!(
                "scheduler section has {sched_len} entries for {} layers",
                config.n_layers
            )));
        }
        // Grows as entries are read: a header count must not size an allocation.
        let mut scheduler = Vec::new();
        for _ in 0..sched_len {
            let present = r.u8("scheduler flag")?;
            let target = r.f32("scheduler target")?;
            if present != 0 && !(target.is_finite() && target >= 1.0) {
                return Err(CheckpointError::Corrupted(format!(
                    "scheduler target {target} out of range"
                )));
            }
            scheduler.push((present != 0).then_some(target));
        }

        let n_tensors = r.u32("tensor count")?;
        if n_tensors > MAX_TENSORS {
            return Err(CheckpointError::Corrupted(format!("{n_tensors} tensors declared")));
        }
        let mut tensors = Vec::with_capacity(n_tensors as usize);
        let mut tensor_spans = Vec::with_capacity(n_tensors as usize);
        for _ in 0..n_tensors {
            let start = r.pos;
            let path = r.str("tensor path")?;
            let record =
                if version >= 3 { r.record(&path)? } else { TensorRecord::F32(r.tensor(&path)?) };
            tensor_spans.push(start..r.pos);
            tensors.push((path, record));
        }

        let optimizer = match r.u8("optimizer flag")? {
            0 => None,
            1 => {
                let steps = r.u64("optimizer steps")? as usize;
                let lr = r.f32("optimizer lr")?;
                let beta1 = r.f32("optimizer beta1")?;
                let beta2 = r.f32("optimizer beta2")?;
                let eps = r.f32("optimizer eps")?;
                let weight_decay = r.f32("optimizer weight_decay")?;
                let n = r.u32("optimizer moment count")?;
                if n > MAX_TENSORS {
                    return Err(CheckpointError::Corrupted(format!("{n} moments declared")));
                }
                let mut moments = Vec::with_capacity(n as usize);
                for _ in 0..n {
                    let path = r.str("moment path")?;
                    let shape = r.shape(&path)?;
                    let len: usize = shape.iter().product();
                    let m = r.tensor_data(len, &shape, &path)?;
                    let v = r.tensor_data(len, &shape, &path)?;
                    moments.push((ParamPath::new(path), m, v));
                }
                Some(AdamWState { steps, lr, beta1, beta2, eps, weight_decay, moments })
            }
            t => return Err(CheckpointError::Corrupted(format!("unknown optimizer flag {t}"))),
        };

        if version >= 2 {
            let n_crcs = r.u32("tensor checksum count")?;
            if n_crcs != n_tensors {
                return Err(CheckpointError::Corrupted(format!(
                    "trailer carries {n_crcs} tensor checksums for {n_tensors} tensors"
                )));
            }
            // The whole-file CRC already proved the bytes are what the writer wrote;
            // the per-tensor CRCs pinpoint the damaged record when it did not (e.g. a
            // trailer rewritten by an attacker-free but buggy copy tool).
            for (span, (path, _)) in tensor_spans.iter().zip(&tensors) {
                let stored = r.u32("tensor checksum")?;
                let computed = crc32(&buf[span.clone()]);
                if stored != computed {
                    return Err(CheckpointError::ChecksumMismatch {
                        what: format!("tensor '{path}'"),
                        stored,
                        computed,
                    });
                }
            }
            let _file_crc = r.u32("file checksum")?; // verified before parsing
        }

        if r.pos != buf.len() {
            return Err(CheckpointError::Corrupted(format!(
                "{} trailing bytes after the last section",
                buf.len() - r.pos
            )));
        }

        Ok(Self { task, config, scheduler, tensors, optimizer })
    }

    /// Writes the checkpoint to `path` (atomically: a temp file renamed into place, so a
    /// crash mid-write never leaves a half-written checkpoint behind).
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), CheckpointError> {
        use std::sync::atomic::{AtomicU64, Ordering};
        static SAVE_SEQ: AtomicU64 = AtomicU64::new(0);
        let path = path.as_ref();
        // Per-call unique temp name in the same directory (rename stays atomic):
        // sibling checkpoints sharing a stem, or concurrent saves of the same file,
        // must not collide on one temp path.
        let tmp = path.with_extension(format!(
            "ckpt.tmp.{}.{}",
            std::process::id(),
            SAVE_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::write(&tmp, self.to_bytes())?;
        if let Err(e) = std::fs::rename(&tmp, path) {
            let _ = std::fs::remove_file(&tmp);
            return Err(e.into());
        }
        Ok(())
    }

    /// Reads a checkpoint from `path`.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, CheckpointError> {
        let bytes = std::fs::read(path)?;
        Self::from_bytes(&bytes)
    }
}

// ---------------------------------------------------------------------- byte plumbing

#[derive(Default)]
struct Writer(Vec<u8>);

impl Writer {
    fn bytes(&mut self, b: &[u8]) {
        self.0.extend_from_slice(b);
    }

    fn u8(&mut self, x: u8) {
        self.0.push(x);
    }

    fn u32(&mut self, x: u32) {
        self.0.extend_from_slice(&x.to_le_bytes());
    }

    fn u64(&mut self, x: u64) {
        self.0.extend_from_slice(&x.to_le_bytes());
    }

    fn f32(&mut self, x: f32) {
        self.0.extend_from_slice(&x.to_le_bytes());
    }

    fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.bytes(s.as_bytes());
    }

    fn f32_slice(&mut self, xs: &[f32]) {
        self.0.reserve(xs.len() * 4);
        for &x in xs {
            self.f32(x);
        }
    }

    /// Writes one version-3 dtype-tagged record (dtype, dims, scale count for int8,
    /// payload length, payload). The payload length is redundant with dtype × dims on
    /// purpose: the reader cross-checks them, turning a rotted dtype tag or payload
    /// into structural damage instead of misparsed weights.
    fn record(&mut self, rec: &TensorRecord) {
        match rec {
            TensorRecord::F32(t) => {
                self.u8(DTYPE_F32);
                self.u32(t.shape().len() as u32);
                for &d in t.shape() {
                    self.u32(d as u32);
                }
                self.u64(4 * t.len() as u64);
                self.f32_slice(&t.materialize().into_vec());
            }
            TensorRecord::Int8 { shape, data, scales } => {
                self.u8(DTYPE_INT8);
                self.u32(shape.len() as u32);
                for &d in shape {
                    self.u32(d as u32);
                }
                self.u32(scales.len() as u32);
                self.u64((data.len() + 4 * scales.len()) as u64);
                self.0.extend(data.iter().map(|&c| c as u8));
                self.f32_slice(scales);
            }
        }
    }
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl Reader<'_> {
    fn bytes(&mut self, n: usize, what: &str) -> Result<&[u8], CheckpointError> {
        if self.pos + n > self.buf.len() {
            return Err(CheckpointError::Truncated(what.to_string()));
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    fn u8(&mut self, what: &str) -> Result<u8, CheckpointError> {
        Ok(self.bytes(1, what)?[0])
    }

    fn u32(&mut self, what: &str) -> Result<u32, CheckpointError> {
        let b = self.bytes(4, what)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self, what: &str) -> Result<u64, CheckpointError> {
        let b = self.bytes(8, what)?;
        Ok(u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
    }

    fn f32(&mut self, what: &str) -> Result<f32, CheckpointError> {
        let b = self.bytes(4, what)?;
        Ok(f32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn str(&mut self, what: &str) -> Result<String, CheckpointError> {
        let len = self.u32(what)?;
        if len > MAX_PATH_LEN {
            return Err(CheckpointError::Corrupted(format!("{what} of {len} bytes")));
        }
        let bytes = self.bytes(len as usize, what)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| CheckpointError::Corrupted(format!("{what} is not valid utf-8")))
    }

    fn shape(&mut self, path: &str) -> Result<Vec<usize>, CheckpointError> {
        self.shape_with_width(path, 4)
    }

    /// Reads a rank + dims prefix, bounding the implied element count by what the
    /// remaining buffer could hold at `width` bytes per element — before any
    /// allocation trusts it.
    fn shape_with_width(&mut self, path: &str, width: u64) -> Result<Vec<usize>, CheckpointError> {
        let ndim = self.u32("tensor rank")?;
        if ndim > MAX_NDIM {
            return Err(CheckpointError::Corrupted(format!("tensor '{path}' has rank {ndim}")));
        }
        let mut shape = Vec::with_capacity(ndim as usize);
        let mut len: u64 = 1;
        for _ in 0..ndim {
            let d = self.u32("tensor dim")? as u64;
            len = len.saturating_mul(d.max(1));
            shape.push(d as usize);
        }
        if len > (self.buf.len() as u64) / width + 1 {
            return Err(CheckpointError::Truncated(format!("tensor '{path}' data")));
        }
        Ok(shape)
    }

    fn tensor_data(
        &mut self,
        len: usize,
        shape: &[usize],
        path: &str,
    ) -> Result<NdArray, CheckpointError> {
        let raw = self.bytes(len * 4, &format!("tensor '{path}' data"))?;
        let mut data = Vec::with_capacity(len);
        for chunk in raw.chunks_exact(4) {
            data.push(f32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]));
        }
        NdArray::from_vec(data, shape)
            .map_err(|e| CheckpointError::Corrupted(format!("tensor '{path}': {e}")))
    }

    fn tensor(&mut self, path: &str) -> Result<NdArray, CheckpointError> {
        let shape = self.shape(path)?;
        let len: usize = shape.iter().product();
        self.tensor_data(len, &shape, path)
    }

    /// Reads one version-3 dtype-tagged record, cross-checking the stored payload
    /// length against the one the dtype and dims imply. Scale *values* are not judged
    /// here — that is the verifier's job (see the module docs).
    fn record(&mut self, path: &str) -> Result<TensorRecord, CheckpointError> {
        let dtype = self.u8("tensor dtype")?;
        let width: u64 = match dtype {
            DTYPE_F32 => 4,
            DTYPE_INT8 => 1,
            t => {
                return Err(CheckpointError::Corrupted(format!(
                    "tensor '{path}' has unknown dtype tag {t}"
                )))
            }
        };
        let shape = self.shape_with_width(path, width)?;
        let numel: usize = shape.iter().product();
        let scales_len = if dtype == DTYPE_INT8 {
            let n = self.u32("tensor scale count")? as usize;
            let channels = shape.last().copied().unwrap_or(0);
            if shape.len() != 2 || n != channels {
                return Err(CheckpointError::Corrupted(format!(
                    "int8 tensor '{path}' (shape {shape:?}) declares {n} scales — expected one                      per output column"
                )));
            }
            n
        } else {
            0
        };
        // `dtype` is one of the two known tags from here on.
        let expect = match dtype {
            DTYPE_F32 => 4 * numel as u64,
            _ => numel as u64 + 4 * scales_len as u64,
        };
        let paylen = self.u64("tensor payload length")?;
        if paylen != expect {
            return Err(CheckpointError::Corrupted(format!(
                "tensor '{path}' stores a {paylen}-byte payload but its dtype and shape imply                  {expect} bytes — dtype tag and payload disagree"
            )));
        }
        match dtype {
            DTYPE_F32 => Ok(TensorRecord::F32(self.tensor_data(numel, &shape, path)?)),
            _ => {
                let raw = self.bytes(numel, &format!("tensor '{path}' int8 codes"))?;
                let data: Vec<i8> = raw.iter().map(|&b| b as i8).collect();
                let sraw = self.bytes(4 * scales_len, &format!("tensor '{path}' scales"))?;
                let scales: Vec<f32> = sraw
                    .chunks_exact(4)
                    .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
                    .collect();
                Ok(TensorRecord::Int8 { shape, data, scales })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attention::AttentionKind;
    use rand::SeedableRng;
    use rita_tensor::SeedableRng64;

    fn rng(seed: u64) -> SeedableRng64 {
        SeedableRng64::seed_from_u64(seed)
    }

    fn classifier(kind: AttentionKind, seed: u64) -> Classifier {
        Classifier::new(RitaConfig::tiny(3, 40, kind), 4, &mut rng(seed))
    }

    impl TensorRecord {
        /// Payload size in bytes as serialized (codes + scales for int8).
        fn payload_bytes(&self) -> usize {
            match self {
                TensorRecord::F32(t) => 4 * t.len(),
                TensorRecord::Int8 { data, scales, .. } => data.len() + 4 * scales.len(),
            }
        }
    }

    #[test]
    fn bytes_roundtrip_preserves_everything() {
        let clf = classifier(AttentionKind::default_group(), 0);
        let ckpt = Checkpoint::of_classifier(&clf, None);
        let restored = Checkpoint::from_bytes(&ckpt.to_bytes()).unwrap();
        assert_eq!(restored.task, TaskKind::Classifier { num_classes: 4 });
        assert_eq!(restored.scheduler, ckpt.scheduler);
        assert_eq!(restored.tensors.len(), ckpt.tensors.len());
        for ((pa, ta), (pb, tb)) in ckpt.tensors.iter().zip(&restored.tensors) {
            assert_eq!(pa, pb);
            assert_eq!(ta.shape(), tb.shape());
            assert_eq!(ta, tb, "bit-exact tensor roundtrip for {pa}");
        }
    }

    #[test]
    fn restore_rejects_task_mismatch() {
        let clf = classifier(AttentionKind::Vanilla, 1);
        let ckpt = Checkpoint::of_classifier(&clf, None);
        let err = ckpt.restore_imputer(&mut rng(2)).err().unwrap();
        assert!(matches!(err, CheckpointError::TaskMismatch { .. }), "{err}");
    }

    #[test]
    fn bad_magic_and_version_are_rejected() {
        let clf = classifier(AttentionKind::Vanilla, 3);
        let mut bytes = Checkpoint::of_classifier(&clf, None).to_bytes();
        let mut wrong = bytes.clone();
        wrong[0] = b'X';
        assert!(matches!(Checkpoint::from_bytes(&wrong), Err(CheckpointError::BadMagic)));
        // Bump the version field.
        bytes[8] = 99;
        assert!(matches!(
            Checkpoint::from_bytes(&bytes),
            Err(CheckpointError::UnsupportedVersion(99))
        ));
    }

    #[test]
    fn truncation_at_every_prefix_is_an_error_not_a_panic() {
        let clf = classifier(AttentionKind::default_group(), 4);
        let bytes = Checkpoint::of_classifier(&clf, None).to_bytes();
        // Every strict prefix must fail cleanly (never panic, never succeed).
        for cut in [0, 4, 7, 8, 11, 12, 20, 40, bytes.len() / 4, bytes.len() / 2, bytes.len() - 1] {
            let err = Checkpoint::from_bytes(&bytes[..cut]);
            assert!(err.is_err(), "prefix of {cut} bytes parsed successfully");
        }
    }

    /// Rewrites the last four bytes so the whole-file CRC matches again — the move a
    /// buggy-but-checksumming copy tool would make, and what lets these tests reach
    /// the structural guards *behind* the checksum gate.
    fn refresh_file_crc(bytes: &mut [u8]) {
        let n = bytes.len();
        let crc = crc32(&bytes[..n - 4]);
        bytes[n - 4..].copy_from_slice(&crc.to_le_bytes());
    }

    #[test]
    fn corrupted_counts_fail_cleanly() {
        let clf = classifier(AttentionKind::Vanilla, 5);
        let ckpt = Checkpoint::of_classifier(&clf, None);
        let bytes = ckpt.to_bytes();
        // The tensor-count u32 sits right after the fixed header + scheduler section;
        // the scheduler count right after the header, whose seventh dim is n_layers.
        // Corrupt them to huge values: the reader must refuse without allocating (a
        // scheduler section sized by u32::MAX layers would be 32 GiB). The file CRC is
        // refreshed so the count guards themselves stay exercised.
        let dims_at = 8 + 4 + 1 + 4;
        let sched_at = dims_at + 8 * 4 + 4 + 1;
        let count_at = sched_at + 4 + ckpt.scheduler.len() * 5;
        for sites in [&[count_at][..], &[dims_at + 6 * 4, sched_at]] {
            let mut corrupt = bytes.clone();
            for &at in sites {
                corrupt[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
            }
            refresh_file_crc(&mut corrupt);
            let err = Checkpoint::from_bytes(&corrupt).unwrap_err();
            assert!(
                matches!(err, CheckpointError::Corrupted(_) | CheckpointError::Truncated(_)),
                "{err}"
            );
        }
    }

    #[test]
    fn a_config_breaking_a_check_rule_is_corrupted_naming_the_rule() {
        let clf = classifier(AttentionKind::Vanilla, 6);
        let bytes = Checkpoint::of_classifier(&clf, None).to_bytes();
        // The eight config dims (u32) follow magic, version, task tag and class count;
        // the dropout (f32) follows them. d_model is 16, so 3 heads do not divide it.
        let dims_at = 8 + 4 + 1 + 4;
        let heads_at = dims_at + 5 * 4;
        let dropout_at = dims_at + 8 * 4;
        for (at, value, rule) in [
            (heads_at, 3u32.to_le_bytes(), "d_model must be divisible by n_heads"),
            (dropout_at, 1.0f32.to_le_bytes(), "dropout must be in [0, 1)"),
        ] {
            let mut corrupt = bytes.clone();
            corrupt[at..at + 4].copy_from_slice(&value);
            refresh_file_crc(&mut corrupt);
            match Checkpoint::from_bytes(&corrupt) {
                Err(CheckpointError::Corrupted(why)) => assert!(why.contains(rule), "{why}"),
                other => panic!("expected Corrupted naming '{rule}', got {other:?}"),
            }
        }
    }

    /// The rules the attention constructors assert are `check` rules too, so a
    /// CRC-valid checkpoint that breaks one is refused by the reader instead of
    /// panicking in `restore_classifier`.
    #[test]
    fn attention_rules_the_constructors_assert_are_corrupted_naming_the_rule() {
        let group = |epsilon, initial_groups| AttentionKind::Group {
            epsilon,
            initial_groups,
            adaptive: true,
        };
        let mut ckpt = Checkpoint::of_classifier(&classifier(AttentionKind::Vanilla, 7), None);
        for (attention, rule) in [
            (group(0.5, 4), "group epsilon must be finite and > 1"),
            (group(1.0, 4), "group epsilon must be finite and > 1"),
            (group(f32::NAN, 4), "group epsilon must be finite and > 1"),
            (group(f32::INFINITY, 4), "group epsilon must be finite and > 1"),
            (group(2.0, 0), "group initial_groups must be at least 1"),
            (AttentionKind::Performer { features: 0 }, "performer features must be at least 1"),
            (AttentionKind::Linformer { proj_dim: 0 }, "linformer proj_dim must be at least 1"),
        ] {
            ckpt.config.attention = attention;
            // `to_bytes` writes a fresh CRC, so only the config rule can refuse the file.
            match Checkpoint::from_bytes(&ckpt.to_bytes()) {
                Err(CheckpointError::Corrupted(why)) => assert!(why.contains(rule), "{why}"),
                other => panic!(
                    "{attention:?}: expected Corrupted naming '{rule}', got {:?}",
                    other.map(|c| c.config)
                ),
            }
        }
    }

    /// Header fields size the positional table and every weight before a record is
    /// read, so a CRC-valid header asking for a tensor over `MAX_TENSOR_ELEMS` elements
    /// is refused by the reader instead of aborting the loader on the allocation.
    #[test]
    fn a_header_implying_an_oversized_tensor_is_corrupted_naming_the_cap() {
        let base = Checkpoint::of_classifier(&classifier(AttentionKind::Vanilla, 8), None);
        const MAX: usize = u32::MAX as usize;
        type Corrupt = fn(&mut Checkpoint);
        let cases: [(&str, Corrupt); 8] = [
            ("max_len", |c| c.config.max_len = MAX),
            ("d_model", |c| (c.config.d_model, c.config.n_heads) = (1 << 17, 1)),
            ("ff_hidden", |c| c.config.ff_hidden = MAX),
            ("channels", |c| c.config.channels = MAX),
            ("window", |c| (c.config.window, c.config.max_len) = (MAX, MAX)),
            ("performer features", |c| {
                c.config.attention = AttentionKind::Performer { features: MAX }
            }),
            ("linformer proj_dim", |c| {
                c.config.attention = AttentionKind::Linformer { proj_dim: MAX }
            }),
            ("num_classes", |c| c.task = TaskKind::Classifier { num_classes: MAX }),
        ];
        for (field, corrupt) in cases {
            let mut ckpt = base.clone();
            corrupt(&mut ckpt);
            // `to_bytes` writes a fresh CRC, so only the cap can refuse the file.
            match Checkpoint::from_bytes(&ckpt.to_bytes()) {
                Err(CheckpointError::Corrupted(why)) => {
                    let cap = format!("over the cap of {MAX_TENSOR_ELEMS}");
                    assert!(why.contains(&cap), "{field}: {why}")
                }
                other => panic!(
                    "{field}: expected Corrupted naming the cap, got {:?}",
                    other.map(|c| c.config)
                ),
            }
        }
    }

    #[test]
    fn crc32_matches_the_ieee_reference_vectors() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926, "the classic IEEE check value");
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    #[test]
    fn any_single_flipped_byte_is_rejected() {
        let clf = classifier(AttentionKind::default_group(), 12);
        let bytes = Checkpoint::of_classifier(&clf, None).to_bytes();
        // Sweep flip sites across the whole file (a prime stride so every region —
        // header, scheduler, tensor data, trailer — is hit); every damaged copy must
        // fail to load. Flips in the magic/version fields surface as BadMagic /
        // UnsupportedVersion; everything else as a checksum mismatch.
        for site in (0..bytes.len()).step_by(211) {
            let mut damaged = bytes.clone();
            damaged[site] ^= 0x01; // a single flipped *bit* — the hardest case
            let err = Checkpoint::from_bytes(&damaged);
            assert!(err.is_err(), "flipping byte {site} went undetected");
        }
    }

    #[test]
    fn per_tensor_checksum_pinpoints_the_damaged_record() {
        let clf = classifier(AttentionKind::Vanilla, 13);
        let ckpt = Checkpoint::of_classifier(&clf, None);
        let mut bytes = ckpt.to_bytes();
        // Damage one byte inside the head.weight record, then refresh the *file* CRC:
        // only the per-tensor checksum can catch this, and it must name the tensor.
        let needle = b"head.weight";
        let at = bytes
            .windows(needle.len())
            .position(|w| w == needle)
            .expect("head.weight path present");
        let in_data = at + needle.len() + 25; // past the dtype + rank + dims + paylen
        bytes[in_data] ^= 0xFF;
        refresh_file_crc(&mut bytes);
        match Checkpoint::from_bytes(&bytes) {
            Err(CheckpointError::ChecksumMismatch { what, .. }) => {
                assert!(what.contains("head.weight"), "mismatch blamed on {what}")
            }
            other => panic!("expected a per-tensor checksum mismatch, got {other:?}"),
        }
    }

    /// Decodes a golden file of a down-level format (`tests/fixtures/*.hex`, 32 bytes
    /// per line). Both were written once by the version-1 and version-2 writers of
    /// commit `2ff91ed`, the last to carry them, from one checkpoint: a classifier
    /// (5 classes) with `RitaConfig { channels: 1, max_len: 20, window: 5, stride: 5,
    /// d_model: 4, n_heads: 1, n_layers: 1, ff_hidden: 8, dropout: 0.0, attention:
    /// Group { epsilon: 2.0, initial_groups: 2, adaptive: true } }` built from seed 42,
    /// after one AdamW step (lr 1e-2, weight decay 1e-4, loop seed 43) on the two
    /// univariate (channel 0) length-20 HHAR series of `generate_reduced(Hhar, 2, 0,
    /// 20, seed 41)`, saved with its optimiser.
    fn golden(hex: &str) -> Vec<u8> {
        let digits: Vec<u8> = hex.bytes().filter(|b| !b.is_ascii_whitespace()).collect();
        digits
            .chunks(2)
            .map(|d| u8::from_str_radix(std::str::from_utf8(d).unwrap(), 16).unwrap())
            .collect()
    }

    const GOLDEN_V1: &str = include_str!("../../../tests/fixtures/ckpt_v1.hex");
    const GOLDEN_V2: &str = include_str!("../../../tests/fixtures/ckpt_v2.hex");

    /// A checkpoint decoded from a golden file is, bit for bit, the one the old writer
    /// held in memory: re-encoded as version 3 it is the 4 956-byte file the parent's
    /// `to_bytes` made of it (whose last four bytes hash all the others: tensors,
    /// config, task, scheduler targets and AdamW moments), and that file round-trips.
    fn assert_is_the_golden_checkpoint(ckpt: &Checkpoint) {
        assert_eq!(ckpt.task, TaskKind::Classifier { num_classes: 5 });
        assert_eq!((ckpt.config.channels, ckpt.config.d_model, ckpt.config.n_layers), (1, 4, 1));
        assert_eq!(ckpt.scheduler, vec![Some(2.0)]);
        let state = ckpt.optimizer.as_ref().expect("saved with its optimiser");
        assert_eq!((state.steps, state.moments.len()), (1, ckpt.tensors.len()));
        let v3 = ckpt.to_bytes();
        assert_eq!(v3.len(), 4956);
        assert_eq!(v3[v3.len() - 4..], [0x98, 0x55, 0x4b, 0xef], "the parent's v3 file CRC");
        assert_eq!(Checkpoint::from_bytes(&v3).unwrap().to_bytes(), v3);
    }

    #[test]
    fn version_1_files_without_a_trailer_still_load() {
        let v1 = golden(GOLDEN_V1);
        assert_eq!(&v1[8..12], &1u32.to_le_bytes());
        assert_is_the_golden_checkpoint(&Checkpoint::from_bytes(&v1).expect("v1 keeps loading"));
        // A v1 file is *not* integrity-checked: a flip loads fine or fails structurally,
        // which is exactly why the version was bumped. It must not panic.
        let mut flipped = v1.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0xFF;
        let _ = Checkpoint::from_bytes(&flipped);
    }

    #[test]
    fn file_roundtrip_and_atomic_save() {
        let clf = classifier(AttentionKind::Performer { features: 8 }, 6);
        let ckpt = Checkpoint::of_classifier(&clf, None);
        let dir = std::env::temp_dir().join("rita-ckpt-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("clf.ckpt");
        ckpt.save(&path).unwrap();
        let loaded = Checkpoint::load(&path).unwrap();
        assert_eq!(loaded.tensors.len(), ckpt.tensors.len());
        // Performer's ω must be among the buffers.
        assert!(loaded.tensors.iter().any(|(p, _)| p.ends_with("attention.omega")));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn missing_and_unexpected_tensors_are_reported() {
        let clf = classifier(AttentionKind::Vanilla, 7);
        let mut ckpt = Checkpoint::of_classifier(&clf, None);
        let removed = ckpt.tensors.remove(0);
        let err = ckpt.restore_classifier(&mut rng(8)).err().unwrap();
        assert!(matches!(err, CheckpointError::MissingTensor(_)), "{err}");

        let mut extra = Checkpoint::of_classifier(&clf, None);
        extra.tensors.push(("ghost.weight".into(), removed.1));
        let err = extra.restore_classifier(&mut rng(9)).err().unwrap();
        assert!(matches!(err, CheckpointError::UnexpectedTensors(_)), "{err}");
    }

    #[test]
    fn shape_mismatch_is_reported() {
        let clf = classifier(AttentionKind::Vanilla, 10);
        let mut ckpt = Checkpoint::of_classifier(&clf, None);
        ckpt.tensors[0].1 = TensorRecord::F32(NdArray::zeros(&[1, 1]));
        let err = ckpt.restore_classifier(&mut rng(11)).err().unwrap();
        assert!(matches!(err, CheckpointError::ShapeMismatch { .. }), "{err}");
    }

    // ------------------------------------------------------------ v3 dtype records

    #[test]
    fn quantize_pass_targets_rank2_weights_and_is_idempotent() {
        let clf = classifier(AttentionKind::default_group(), 20);
        let ckpt = Checkpoint::of_classifier(&clf, None);
        let q = ckpt.quantize();
        assert!(q.optimizer.is_none(), "a quantized checkpoint is a serving artifact");
        let mut converted = 0;
        for ((path, orig), (_, rec)) in ckpt.tensors.iter().zip(&q.tensors) {
            let expect_int8 = path.ends_with(".weight") && orig.shape().len() == 2;
            match rec {
                TensorRecord::Int8 { shape, data, scales } => {
                    assert!(expect_int8, "{path} should have stayed f32");
                    assert_eq!(shape, orig.shape());
                    assert_eq!(data.len(), shape[0] * shape[1]);
                    assert_eq!(scales.len(), shape[1], "one scale per output column");
                    converted += 1;
                    // Dequantization error is bounded by half a scale step per element.
                    let back = rec.to_f32();
                    let w = orig.to_f32();
                    for (j, &sj) in scales.iter().enumerate() {
                        for p in 0..shape[0] {
                            let err = (w.as_slice()[p * shape[1] + j]
                                - back.as_slice()[p * shape[1] + j])
                                .abs();
                            assert!(err <= sj * 0.5 + 1e-12, "{path} ({p},{j}): {err}");
                        }
                    }
                }
                TensorRecord::F32(_) => assert!(!expect_int8, "{path} should be int8"),
            }
        }
        assert!(converted > 0, "a classifier carries quantizable weights");
        // Idempotent: re-running converts nothing further.
        let qq = q.quantize();
        for ((pa, ta), (pb, tb)) in q.tensors.iter().zip(&qq.tensors) {
            assert_eq!(pa, pb);
            assert_eq!(ta, tb);
        }
    }

    #[test]
    fn v3_int8_records_roundtrip_bit_exactly() {
        let clf = classifier(AttentionKind::default_group(), 21);
        let ckpt = Checkpoint::of_classifier(&clf, None).quantize();
        let restored = Checkpoint::from_bytes(&ckpt.to_bytes()).unwrap();
        assert!(restored.tensors.iter().any(|(_, t)| matches!(t, TensorRecord::Int8 { .. })));
        assert!(restored.tensors.iter().any(|(_, t)| matches!(t, TensorRecord::F32(_))));
        for ((pa, ta), (pb, tb)) in ckpt.tensors.iter().zip(&restored.tensors) {
            assert_eq!(pa, pb);
            assert_eq!(ta, tb, "bit-exact v3 record roundtrip for {pa}");
        }
    }

    #[test]
    fn v2_bytes_from_the_versioned_writer_load_bit_exactly() {
        let v2 = golden(GOLDEN_V2);
        assert_eq!(&v2[8..12], &2u32.to_le_bytes());
        assert_is_the_golden_checkpoint(&Checkpoint::from_bytes(&v2).expect("v2 keeps loading"));
        // v2 is still integrity-checked: a flipped data byte is caught.
        let mut damaged = v2.clone();
        let mid = damaged.len() / 2;
        damaged[mid] ^= 0xFF;
        assert!(matches!(
            Checkpoint::from_bytes(&damaged),
            Err(CheckpointError::ChecksumMismatch { .. })
        ));
    }

    /// Byte span of each serialized tensor record (path length field through payload),
    /// computed from the in-memory checkpoint — used to corrupt records surgically
    /// while keeping both CRC layers consistent.
    fn record_spans(ckpt: &Checkpoint) -> Vec<std::ops::Range<usize>> {
        let attn_extra = match ckpt.config.attention {
            AttentionKind::Vanilla => 0,
            AttentionKind::Group { .. } => 9,
            AttentionKind::Performer { .. } | AttentionKind::Linformer { .. } => 4,
        };
        let sched_bytes = 4 + ckpt.scheduler.len() * 5;
        let mut pos = 8 + 4 + 1 + 4 + 8 * 4 + 4 + 1 + attn_extra + sched_bytes + 4;
        ckpt.tensors
            .iter()
            .map(|(p, t)| {
                let extra = match t {
                    TensorRecord::Int8 { .. } => 4, // the scale-count field
                    _ => 0,
                };
                let len = 4 + p.len() + 1 + 4 + 4 * t.shape().len() + extra + 8 + t.payload_bytes();
                let start = pos;
                pos += len;
                start..pos
            })
            .collect()
    }

    /// Re-stamps tensor CRC `idx` and the whole-file CRC after a surgical edit, so the
    /// bytes reach the structural guards *behind* both checksum gates.
    fn refresh_crcs(bytes: &mut [u8], spans: &[std::ops::Range<usize>], idx: usize) {
        let n = spans.len();
        let at = bytes.len() - 4 - 4 * (n - idx);
        let crc = crc32(&bytes[spans[idx].clone()]);
        bytes[at..at + 4].copy_from_slice(&crc.to_le_bytes());
        refresh_file_crc(bytes);
    }

    #[test]
    fn rotted_dtype_tag_is_structural_damage_not_misparsed_weights() {
        let clf = classifier(AttentionKind::Vanilla, 24);
        let ckpt = Checkpoint::of_classifier(&clf, None).quantize();
        let bytes = ckpt.to_bytes();
        let spans = record_spans(&ckpt);
        let idx = ckpt
            .tensors
            .iter()
            .position(|(_, t)| matches!(t, TensorRecord::Int8 { .. }))
            .expect("quantized checkpoint has int8 records");
        let (path, _) = &ckpt.tensors[idx];
        // The dtype byte sits right after the length-prefixed path.
        let dtype_at = spans[idx].start + 4 + path.len();
        assert_eq!(bytes[dtype_at], DTYPE_INT8);
        // 2 is the tag once reserved for bf16: no writer ever produced it, and it is as
        // unknown as 7.
        for wrong in [DTYPE_F32, 2u8, 7u8] {
            let mut damaged = bytes.clone();
            damaged[dtype_at] = wrong;
            refresh_crcs(&mut damaged, &spans, idx);
            let err = Checkpoint::from_bytes(&damaged).unwrap_err();
            assert!(
                matches!(err, CheckpointError::Corrupted(_) | CheckpointError::Truncated(_)),
                "dtype {wrong}: {err}"
            );
            if wrong != DTYPE_F32 {
                assert!(
                    matches!(&err, CheckpointError::Corrupted(m) if m.contains("unknown dtype tag")),
                    "dtype {wrong}: {err}"
                );
            }
        }
    }

    #[test]
    fn payload_length_disagreeing_with_dtype_is_rejected() {
        let clf = classifier(AttentionKind::Vanilla, 25);
        let ckpt = Checkpoint::of_classifier(&clf, None).quantize();
        let bytes = ckpt.to_bytes();
        let spans = record_spans(&ckpt);
        let idx =
            ckpt.tensors.iter().position(|(_, t)| matches!(t, TensorRecord::Int8 { .. })).unwrap();
        let (path, rec) = &ckpt.tensors[idx];
        // paylen (u64) sits after path, dtype, rank, dims, and the scale count.
        let paylen_at = spans[idx].start + 4 + path.len() + 1 + 4 + 4 * rec.shape().len() + 4;
        let stored = u64::from_le_bytes(bytes[paylen_at..paylen_at + 8].try_into().unwrap());
        assert_eq!(stored as usize, rec.payload_bytes(), "span arithmetic is right");
        let mut damaged = bytes.clone();
        damaged[paylen_at..paylen_at + 8].copy_from_slice(&(stored + 4).to_le_bytes());
        refresh_crcs(&mut damaged, &spans, idx);
        let err = Checkpoint::from_bytes(&damaged).unwrap_err();
        assert!(
            matches!(err, CheckpointError::Corrupted(_) | CheckpointError::Truncated(_)),
            "{err}"
        );
    }
}
