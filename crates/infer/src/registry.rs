//! The model registry: versioned, atomically hot-swappable checkpoints for the
//! serving tier.
//!
//! Publishing loads a checkpoint into an [`InferModel`] (which validates every tensor
//! against the architecture, and every int8 record's payload and scales, before
//! anything is exposed) and installs it as the current version under a monotonically
//! increasing version id. Workers take a
//! [`ModelHandle`] — an `Arc` snapshot of `(version, model)` — per *batch*, so a swap
//! is atomic from a request's point of view: every batch runs start-to-finish on
//! exactly one version, in-flight batches finish on the weights they started with, and
//! the old model's memory is reclaimed by the last `Arc` drop once its final batch
//! completes. The PR-1 tensor sharing makes the handle itself free: cloning the `Arc`
//! shares every weight buffer zero-copy.
//!
//! Rollback is re-activation: every published version stays archived (weights are
//! `Arc`-shared with the checkpoint they came from, so archiving is cheap), and
//! [`ModelRegistry::rollback`] or [`ModelRegistry::activate`] repoints the current
//! version without reloading anything.
//!
//! ## Last-good pinning and quarantine
//!
//! The registry additionally tracks the **last-good** version: the most recent
//! version that either survived a successful publish or was explicitly blessed via
//! [`ModelRegistry::activate`]. When the serving tier detects a fault in a live model
//! (non-finite logits, an executor error), it calls
//! [`ModelRegistry::quarantine`] — the damaged version is barred from automatic
//! re-selection and, if it was current, traffic atomically repoints to last-good.
//! A failed publish (load, static verification, or a checksum mismatch in the
//! checkpoint's CRC trailer) never touches the current pointer at all, so the
//! "rollback" for publish-time corruption is simply that traffic keeps flowing from
//! the pinned last-good version.

use std::collections::HashSet;
use std::path::Path;
use std::sync::{Arc, RwLock};

use rita_core::checkpoint::{Checkpoint, CheckpointError};
use rita_verify::Report;

use crate::model::InferModel;

/// Why a checkpoint could not be published.
#[derive(Debug)]
pub enum PublishError {
    /// Loading the checkpoint failed: missing, wrong-shape or leftover tensors, a
    /// corrupt config, an unknown format.
    Checkpoint(CheckpointError),
    /// The independent static analyzer found error-severity defects: in the records
    /// themselves, which every loader checks before packing them (a non-finite
    /// dequantization scale, an int8 payload that disagrees with its shape), or, on
    /// publish, in the checkpoint × graph pair (a serving graph that differs from the
    /// emitted one…). The full diagnostic report rides along; the registry's current
    /// version is untouched.
    Rejected(Report),
}

impl std::fmt::Display for PublishError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PublishError::Checkpoint(e) => write!(f, "checkpoint failed to load: {e}"),
            PublishError::Rejected(report) => {
                write!(f, "checkpoint rejected by static verification: {report}")
            }
        }
    }
}

impl std::error::Error for PublishError {}

impl From<CheckpointError> for PublishError {
    fn from(e: CheckpointError) -> Self {
        PublishError::Checkpoint(e)
    }
}

/// A snapshot of the registry's current model: the version id and the `Arc`-shared
/// loaded weights. Holding a handle keeps that version's weights alive even across a
/// concurrent swap — the registry never mutates a published model.
#[derive(Clone)]
pub struct ModelHandle {
    /// Monotonic version id assigned at publish time.
    pub version: u64,
    /// The loaded, servable model.
    pub model: Arc<InferModel>,
}

struct Published {
    version: u64,
    model: Arc<InferModel>,
}

struct RegistryInner {
    /// Every published version, in publish order (version ids are its indices + 1).
    history: Vec<Published>,
    /// Index into `history` of the active version, `None` before the first publish.
    current: Option<usize>,
    /// Index of the last version known good (successfully published or explicitly
    /// activated, and not since quarantined).
    last_good: Option<usize>,
    /// History indices barred from automatic re-selection after a serve-time fault.
    quarantined: HashSet<usize>,
}

/// A versioned store of servable models with atomic swap and rollback.
pub struct ModelRegistry {
    inner: RwLock<RegistryInner>,
}

impl Default for ModelRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl ModelRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self {
            inner: RwLock::new(RegistryInner {
                history: Vec::new(),
                current: None,
                last_good: None,
                quarantined: HashSet::new(),
            }),
        }
    }

    /// Loads `ckpt` into servable form, runs the full independent static analysis
    /// (`rita_verify`) over the checkpoint × graph pair, and only then atomically
    /// installs it as the current version, returning its version id. Any
    /// error-severity diagnostic refuses activation with the report attached
    /// ([`PublishError::Rejected`]), so a rotted int8 scale is caught before a single
    /// request sees the new version; requests admitted before the swap finish on the
    /// version they started with.
    pub fn publish(&self, ckpt: &Checkpoint) -> Result<u64, PublishError> {
        // Load and verify outside the lock: they are the slow part, and readers
        // should keep serving the old version meanwhile.
        self.install(ckpt, InferModel::from_checkpoint(ckpt)?)
    }

    /// [`publish`](Self::publish) with an explicit numeric precision instead of the
    /// checkpoint's own default: `Precision::Int8` quantizes eligible f32 weights at
    /// load (the canary step of a mixed-precision rollout), `Precision::F32` inflates
    /// a quantized checkpoint back to f32 (the escape hatch). The same static
    /// verification gates activation either way.
    pub fn publish_with(
        &self,
        ckpt: &Checkpoint,
        precision: crate::Precision,
    ) -> Result<u64, PublishError> {
        self.install(ckpt, InferModel::from_checkpoint_with(ckpt, precision)?)
    }

    fn install(&self, ckpt: &Checkpoint, model: InferModel) -> Result<u64, PublishError> {
        let model = Arc::new(model);
        let report = rita_verify::verify_with_graph(ckpt, model.graph());
        if report.has_errors() {
            return Err(PublishError::Rejected(report));
        }
        let mut inner = crate::write_rw(&self.inner);
        let version = inner.history.len() as u64 + 1;
        inner.history.push(Published { version, model });
        let idx = inner.history.len() - 1;
        inner.current = Some(idx);
        inner.last_good = Some(idx);
        Ok(version)
    }

    /// Reads, decodes, verifies, and publishes the checkpoint file at `path`.
    ///
    /// This is the full publish pipeline a deployment would run: bytes → format +
    /// checksum check (`Checkpoint::from_bytes`, which rejects any single flipped byte
    /// via the CRC trailer every file carries) → architecture load → static
    /// analysis → atomic swap. Any failure leaves the registry untouched — traffic
    /// keeps flowing from the pinned last-good version. The chaos point
    /// `corrupt_publish` taps the byte buffer here, so `tests/fault_tolerance.rs` can
    /// deterministically exercise the corrupt-artifact path end to end.
    pub fn publish_path(&self, path: &Path) -> Result<u64, PublishError> {
        let mut bytes =
            std::fs::read(path).map_err(|e| PublishError::Checkpoint(CheckpointError::Io(e)))?;
        crate::chaos::corrupt_publish(&mut bytes);
        let ckpt = Checkpoint::from_bytes(&bytes)?;
        self.publish(&ckpt)
    }

    /// The current model, if any version has been published.
    pub fn current(&self) -> Option<ModelHandle> {
        let inner = crate::read_rw(&self.inner);
        inner.current.map(|i| ModelHandle {
            version: inner.history[i].version,
            model: Arc::clone(&inner.history[i].model),
        })
    }

    /// The active version id, if any.
    pub fn current_version(&self) -> Option<u64> {
        crate::read_rw(&self.inner).current.map(|i| i as u64 + 1)
    }

    /// Every published version id, in publish order.
    pub fn versions(&self) -> Vec<u64> {
        crate::read_rw(&self.inner).history.iter().map(|p| p.version).collect()
    }

    /// Re-activates an archived `version` (from a previous [`ModelRegistry::publish`]).
    /// Returns `false` when no such version exists. The swap is atomic exactly like a
    /// publish — in-flight batches finish on the version they snapshotted.
    ///
    /// Activation is an operator blessing: it clears any quarantine on `version` and
    /// pins it as the new last-good.
    pub fn activate(&self, version: u64) -> bool {
        let mut inner = crate::write_rw(&self.inner);
        if version == 0 || version as usize > inner.history.len() {
            return false;
        }
        let idx = version as usize - 1;
        inner.quarantined.remove(&idx);
        inner.current = Some(idx);
        inner.last_good = Some(idx);
        true
    }

    /// Steps the current version back by one (publish-order, not activation-order).
    /// Returns the version now active, or `None` when there is no earlier version to
    /// roll back to (the current version stays unchanged).
    pub fn rollback(&self) -> Option<u64> {
        let mut inner = crate::write_rw(&self.inner);
        match inner.current {
            Some(i) if i > 0 => {
                inner.current = Some(i - 1);
                Some(i as u64)
            }
            _ => None,
        }
    }

    /// The last-good version id: the most recent version that survived a publish or
    /// was explicitly [`activate`](Self::activate)d, and has not since been
    /// quarantined.
    pub fn last_good(&self) -> Option<u64> {
        let inner = crate::read_rw(&self.inner);
        inner.last_good.map(|i| inner.history[i].version)
    }

    /// Whether `version` has been quarantined by a serve-time fault.
    pub fn is_quarantined(&self, version: u64) -> bool {
        version != 0 && crate::read_rw(&self.inner).quarantined.contains(&(version as usize - 1))
    }

    /// Marks `version` as faulty (non-finite logits, executor error observed at serve
    /// time) and, when it was the current version, atomically repoints traffic to the
    /// last-good version — or, failing that, the newest non-quarantined version.
    ///
    /// Returns `Some(now_active)` when the current pointer moved, `None` when it did
    /// not (the version was not current, was already quarantined, or nothing healthy
    /// remains to roll back to — in the last case the damaged version keeps serving
    /// best-effort rather than going dark).
    pub fn quarantine(&self, version: u64) -> Option<u64> {
        let mut inner = crate::write_rw(&self.inner);
        if version == 0 || version as usize > inner.history.len() {
            return None;
        }
        let idx = version as usize - 1;
        if !inner.quarantined.insert(idx) {
            return None;
        }
        if inner.last_good == Some(idx) {
            inner.last_good = None;
        }
        if inner.current != Some(idx) {
            return None;
        }
        let fallback = inner
            .last_good
            .filter(|i| !inner.quarantined.contains(i))
            .or_else(|| (0..inner.history.len()).rev().find(|i| !inner.quarantined.contains(i)));
        match fallback {
            Some(i) => {
                inner.current = Some(i);
                inner.last_good = Some(i);
                Some(inner.history[i].version)
            }
            None => None,
        }
    }

    /// A specific archived version's handle, current or not.
    pub fn get(&self, version: u64) -> Option<ModelHandle> {
        let inner = crate::read_rw(&self.inner);
        if version == 0 || version as usize > inner.history.len() {
            return None;
        }
        let p = &inner.history[version as usize - 1];
        Some(ModelHandle { version: p.version, model: Arc::clone(&p.model) })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rita_core::attention::AttentionKind;
    use rita_core::model::RitaConfig;
    use rita_core::tasks::Classifier;
    use rita_tensor::SeedableRng64;

    fn checkpoint(seed: u64) -> Checkpoint {
        let mut rng = SeedableRng64::seed_from_u64(seed);
        let config = RitaConfig {
            channels: 2,
            max_len: 40,
            d_model: 16,
            n_layers: 1,
            ff_hidden: 32,
            dropout: 0.0,
            attention: AttentionKind::Group { epsilon: 2.0, initial_groups: 4, adaptive: false },
            ..Default::default()
        };
        Checkpoint::of_classifier(&Classifier::new(config, 3, &mut rng), None)
    }

    #[test]
    fn publish_assigns_monotonic_versions_and_swaps_current() {
        let reg = ModelRegistry::new();
        assert!(reg.current().is_none());
        assert_eq!(reg.current_version(), None);
        let v1 = reg.publish(&checkpoint(1)).unwrap();
        let v2 = reg.publish(&checkpoint(2)).unwrap();
        assert_eq!((v1, v2), (1, 2));
        assert_eq!(reg.current_version(), Some(2));
        assert_eq!(reg.versions(), vec![1, 2]);
        assert_eq!(reg.current().unwrap().version, 2);
    }

    #[test]
    fn handles_outlive_swaps() {
        let reg = ModelRegistry::new();
        reg.publish(&checkpoint(1)).unwrap();
        let held = reg.current().unwrap();
        reg.publish(&checkpoint(2)).unwrap();
        // The held handle still points at version 1's weights.
        assert_eq!(held.version, 1);
        assert_eq!(held.model.num_classes(), Some(3));
        assert_eq!(reg.current().unwrap().version, 2);
    }

    #[test]
    fn rollback_and_activate_repoint_without_reloading() {
        let reg = ModelRegistry::new();
        reg.publish(&checkpoint(1)).unwrap();
        reg.publish(&checkpoint(2)).unwrap();
        reg.publish(&checkpoint(3)).unwrap();
        assert_eq!(reg.rollback(), Some(2));
        assert_eq!(reg.current_version(), Some(2));
        assert_eq!(reg.rollback(), Some(1));
        assert_eq!(reg.rollback(), None, "nothing before version 1");
        assert_eq!(reg.current_version(), Some(1));
        assert!(reg.activate(3));
        assert_eq!(reg.current_version(), Some(3));
        assert!(!reg.activate(4));
        assert!(!reg.activate(0));
        // The re-activated handle is the *same* loaded model, not a reload.
        let v3_via_get = reg.get(3).unwrap();
        assert!(Arc::ptr_eq(&v3_via_get.model, &reg.current().unwrap().model));
    }

    /// The atomics-audit stress test for the registry's pointer moves (see DESIGN.md
    /// "Atomics audit"): the current-version swap is an index store under the
    /// `RwLock` write guard, and a handle clones `(version, Arc)` under one read
    /// guard — so every handle a reader ever observes must be *internally*
    /// consistent (its version id and its model pointer name the same published
    /// entry), no matter how many writers are flipping the active version.
    #[test]
    fn concurrent_swaps_yield_internally_consistent_handles() {
        let reg = Arc::new(ModelRegistry::new());
        reg.publish(&checkpoint(1)).unwrap();
        reg.publish(&checkpoint(2)).unwrap();
        let pinned: Vec<ModelHandle> = (1..=2).map(|v| reg.get(v).unwrap()).collect();

        let writers: Vec<_> = (0..2u64)
            .map(|t| {
                let reg = Arc::clone(&reg);
                std::thread::spawn(move || {
                    for i in 0..2_000u64 {
                        assert!(reg.activate(1 + (i + t) % 2));
                    }
                })
            })
            .collect();
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let reg = Arc::clone(&reg);
                let pinned = pinned.clone();
                std::thread::spawn(move || {
                    for _ in 0..2_000 {
                        let h = reg.current().expect("published");
                        let expected = &pinned[h.version as usize - 1];
                        assert!(
                            Arc::ptr_eq(&h.model, &expected.model),
                            "handle version {} paired with another version's model",
                            h.version
                        );
                    }
                })
            })
            .collect();
        for t in writers.into_iter().chain(readers) {
            t.join().unwrap();
        }
    }

    #[test]
    fn quarantine_rolls_current_back_to_last_good() {
        let reg = ModelRegistry::new();
        reg.publish(&checkpoint(1)).unwrap();
        reg.publish(&checkpoint(2)).unwrap();
        assert_eq!(reg.last_good(), Some(2));
        // v2 faults at serve time: traffic must land on the newest healthy version.
        assert_eq!(reg.quarantine(2), Some(1));
        assert_eq!(reg.current_version(), Some(1));
        assert_eq!(reg.last_good(), Some(1));
        assert!(reg.is_quarantined(2));
        assert!(!reg.is_quarantined(1));
        // Quarantining a non-current version bars it without moving traffic...
        reg.publish(&checkpoint(3)).unwrap();
        assert_eq!(reg.quarantine(1), None);
        assert_eq!(reg.current_version(), Some(3));
        // ...and double-quarantine is a no-op.
        assert_eq!(reg.quarantine(1), None);
        // Operator blessing clears the mark and re-pins last-good.
        assert!(reg.activate(2));
        assert!(!reg.is_quarantined(2));
        assert_eq!(reg.last_good(), Some(2));
    }

    #[test]
    fn quarantining_the_only_version_keeps_serving_best_effort() {
        let reg = ModelRegistry::new();
        reg.publish(&checkpoint(1)).unwrap();
        assert_eq!(reg.quarantine(1), None, "nothing healthy to fall back to");
        // Going dark would be worse than serving a suspect model: current stays.
        assert_eq!(reg.current_version(), Some(1));
        assert_eq!(reg.last_good(), None);
    }

    #[test]
    fn bad_checkpoints_never_become_current() {
        let reg = ModelRegistry::new();
        reg.publish(&checkpoint(1)).unwrap();
        let before = reg.current().unwrap();
        let mut broken = checkpoint(2);
        // Drop a required tensor: the load must fail.
        broken.tensors.retain(|(p, _)| p != "head.weight");
        assert!(matches!(reg.publish(&broken), Err(PublishError::Checkpoint(_))));
        let after = reg.current().unwrap();
        assert_eq!(after.version, before.version);
        assert!(Arc::ptr_eq(&after.model, &before.model));
        assert_eq!(reg.versions(), vec![1]);
    }

    /// PR 9's extension of the PR 8 stress pattern: publish / activate / rollback /
    /// quarantine race freely across threads. Two invariants must hold at every
    /// observation point: (a) any handle is internally consistent (its version id and
    /// model pointer name the same published entry — the PR 8 property), and (b)
    /// `last_good`, whenever set, names a published version that is not currently
    /// quarantined (readers use it as the rollback target, so a stale or quarantined
    /// last-good would re-route traffic onto a faulty model).
    #[test]
    fn concurrent_publish_activate_rollback_quarantine_stay_consistent() {
        let reg = Arc::new(ModelRegistry::new());
        reg.publish(&checkpoint(1)).unwrap();
        reg.publish(&checkpoint(2)).unwrap();
        reg.publish(&checkpoint(3)).unwrap();
        let pinned: Vec<ModelHandle> = (1..=3).map(|v| reg.get(v).unwrap()).collect();

        let mut workers = Vec::new();
        // Publisher: keeps appending fresh versions.
        workers.push({
            let reg = Arc::clone(&reg);
            std::thread::spawn(move || {
                for s in 4..24u64 {
                    reg.publish(&checkpoint(s)).unwrap();
                }
            })
        });
        // Flipper: activates among the first three versions.
        workers.push({
            let reg = Arc::clone(&reg);
            std::thread::spawn(move || {
                for i in 0..1_500u64 {
                    assert!(reg.activate(1 + i % 3));
                }
            })
        });
        // Roller: steps back whenever possible.
        workers.push({
            let reg = Arc::clone(&reg);
            std::thread::spawn(move || {
                for _ in 0..1_500 {
                    let _ = reg.rollback();
                }
            })
        });
        // Fault reporter: quarantines whatever is current, as the serve path would.
        workers.push({
            let reg = Arc::clone(&reg);
            std::thread::spawn(move || {
                for _ in 0..400 {
                    if let Some(v) = reg.current_version() {
                        let _ = reg.quarantine(v);
                    }
                    std::thread::yield_now();
                }
            })
        });
        // Readers: check both invariants continuously.
        let readers: Vec<_> = (0..3)
            .map(|_| {
                let reg = Arc::clone(&reg);
                let pinned = pinned.clone();
                std::thread::spawn(move || {
                    for _ in 0..2_000 {
                        let h = reg.current().expect("published");
                        if h.version <= 3 {
                            let expected = &pinned[h.version as usize - 1];
                            assert!(
                                Arc::ptr_eq(&h.model, &expected.model),
                                "handle version {} paired with another version's model",
                                h.version
                            );
                        }
                        // One read guard = one atomic observation of the invariant
                        // (two separate calls could straddle a concurrent quarantine).
                        let inner = crate::read_rw(&reg.inner);
                        if let Some(lg) = inner.last_good {
                            assert!(lg < inner.history.len(), "last_good names unpublished");
                            assert!(
                                !inner.quarantined.contains(&lg),
                                "last_good {lg} is quarantined"
                            );
                        }
                        drop(inner);
                    }
                })
            })
            .collect();
        for t in workers.into_iter().chain(readers) {
            t.join().unwrap();
        }
        // Terminal state: still serving something, and it is a real version.
        let h = reg.current().expect("still serving");
        assert!(reg.get(h.version).is_some());
    }

    /// The mixed-precision rollout contract: publish the int8 quantization of the
    /// live f32 version, observe per-version precision on the handles, and when the
    /// canary "regresses", quarantine rolls traffic back onto the f32 weights.
    #[test]
    fn mixed_precision_rollout_rolls_back_through_quarantine() {
        let reg = ModelRegistry::new();
        let f32_ckpt = checkpoint(1);
        let v1 = reg.publish(&f32_ckpt).unwrap();
        assert_eq!(reg.get(v1).unwrap().model.precision(), crate::Precision::F32);

        // Canary: the quantized twin publishes as int8 automatically (its records
        // carry the dtype), with weights bound as packed panels, not inflated f32.
        let v2 = reg.publish(&f32_ckpt.quantize()).unwrap();
        let canary = reg.get(v2).unwrap();
        assert_eq!(canary.model.precision(), crate::Precision::Int8);
        assert!(canary.model.quantized_params() > 0, "int8 records must bind as panels");
        assert_eq!(reg.current_version(), Some(v2));

        // publish_with is the other rollout direction: force-quantize the f32
        // checkpoint at load, and force-inflate the quantized one back to f32.
        let v3 = reg.publish_with(&f32_ckpt, crate::Precision::Int8).unwrap();
        assert_eq!(reg.get(v3).unwrap().model.precision(), crate::Precision::Int8);
        let v4 = reg.publish_with(&f32_ckpt.quantize(), crate::Precision::F32).unwrap();
        let inflated = reg.get(v4).unwrap();
        assert_eq!(inflated.model.precision(), crate::Precision::F32);
        assert_eq!(inflated.model.quantized_params(), 0);

        // Accuracy regression detected on the canary: quarantine repoints traffic.
        assert!(reg.activate(v2));
        assert_eq!(reg.quarantine(v2), Some(v4));
        assert_eq!(reg.current_version(), Some(v4));
        assert_eq!(reg.current().unwrap().model.precision(), crate::Precision::F32);
        assert!(reg.is_quarantined(v2));
    }

    #[test]
    fn statically_rejected_checkpoints_never_become_current() {
        let reg = ModelRegistry::new();
        reg.publish(&checkpoint(1)).unwrap();
        let before = reg.current().unwrap();
        let mut bad = checkpoint(2).quantize();
        // Every record binds (so loading succeeds) but a dequantization scale is NaN —
        // only the static analyzer can refuse this before a request trips on it.
        let scales = bad
            .tensors
            .iter_mut()
            .find_map(|(_, t)| match t {
                rita_core::checkpoint::TensorRecord::Int8 { scales, .. } => Some(scales),
                rita_core::checkpoint::TensorRecord::F32(_) => None,
            })
            .expect("a quantized checkpoint has int8 records");
        scales[0] = f32::NAN;
        match reg.publish(&bad) {
            Err(PublishError::Rejected(report)) => {
                assert!(report.has_errors(), "rejection must carry error diagnostics")
            }
            other => panic!("expected static rejection, got {other:?}"),
        }
        let after = reg.current().unwrap();
        assert_eq!(after.version, before.version);
        assert!(Arc::ptr_eq(&after.model, &before.model));
    }
}
