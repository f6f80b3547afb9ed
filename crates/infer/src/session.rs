//! The serving session: request batching over a loaded [`InferModel`].
//!
//! Concurrent requests arrive as individual `(channels, length)` series of possibly
//! mixed lengths. The session groups them with the same length-bucketed batcher the
//! training engine uses (`rita_data::batch::batch_indices_by_length`), stacks each
//! bucket into one rectangular batch, runs the planned forward, and scatters the
//! answers back into request order. Activation buffers are recycled through the
//! thread-local arena between batches, so differently-shaped buckets share one working
//! set.

use rand::SeedableRng;
use rita_core::checkpoint::Checkpoint;
use rita_data::batch::{batch_indices_by_length, stack_samples};
use rita_tensor::{NdArray, SeedableRng64};

use crate::model::InferModel;
use crate::registry::PublishError;

/// Largest number of same-length requests a session answers in one stacked batch.
const MAX_BATCH: usize = 64;

/// One class prediction for one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Prediction {
    /// Predicted class index (argmax of the logits).
    pub class: usize,
}

/// Why a request set was rejected before any compute ran.
///
/// Validation happens up front for the *whole* set: a malformed request never aborts a
/// half-served batch, and the caller learns exactly which request to drop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RequestError {
    /// The request is not a rank-2 `(channels, length)` array.
    BadRank {
        /// Index of the offending request.
        index: usize,
        /// Its actual shape.
        shape: Vec<usize>,
    },
    /// The request's channel count does not match the model's.
    WrongChannels {
        /// Index of the offending request.
        index: usize,
        /// Channels the request carries.
        found: usize,
        /// Channels the model expects.
        expected: usize,
    },
    /// The series is shorter than one convolution window or longer than the model's
    /// positional table supports.
    BadLength {
        /// Index of the offending request.
        index: usize,
        /// The request's length in timestamps.
        length: usize,
        /// Accepted length range (inclusive).
        accepted: (usize, usize),
    },
    /// The series carries a NaN or infinite value. Rejected at admission: a single NaN
    /// propagates through every reduction in a stacked forward, poisoning the answers
    /// of the *other* requests sharing the batch mid-flight.
    NonFinite {
        /// Index of the offending request.
        index: usize,
    },
    /// The loaded checkpoint has no head for the requested operation.
    WrongHead {
        /// The operation the caller asked for.
        requested: &'static str,
    },
    /// The planned forward pass itself failed — e.g. a malformed checkpoint tensor
    /// caught by plan compilation. The request set is rejected; nothing panics.
    Infer(crate::InferError),
}

impl std::fmt::Display for RequestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RequestError::BadRank { index, shape } => {
                write!(f, "request {index} is not (channels, length): shape {shape:?}")
            }
            RequestError::WrongChannels { index, found, expected } => {
                write!(f, "request {index} has {found} channels, model expects {expected}")
            }
            RequestError::BadLength { index, length, accepted } => write!(
                f,
                "request {index} has length {length}, model accepts {}..={}",
                accepted.0, accepted.1
            ),
            RequestError::NonFinite { index } => {
                write!(f, "request {index} carries a NaN or infinite value")
            }
            RequestError::WrongHead { requested } => {
                write!(f, "checkpoint has no head for '{requested}'")
            }
            RequestError::Infer(e) => write!(f, "forward pass failed: {e}"),
        }
    }
}

impl std::error::Error for RequestError {}

/// Validates one `(channels, length)` request against a model's architecture: rank 2,
/// matching channel count, length within `[window, max_len]`, every value finite. The
/// single checkpoint both the session's set validation and the server's per-request
/// admission control go through — `index` only labels the error.
pub(crate) fn validate_request(
    config: &rita_core::model::RitaConfig,
    index: usize,
    r: &NdArray,
) -> Result<(), RequestError> {
    let shape = r.shape();
    if shape.len() != 2 {
        return Err(RequestError::BadRank { index, shape: shape.to_vec() });
    }
    if shape[0] != config.channels {
        return Err(RequestError::WrongChannels {
            index,
            found: shape[0],
            expected: config.channels,
        });
    }
    let accepted = (config.window, config.max_len);
    if shape[1] < accepted.0 || shape[1] > accepted.1 {
        return Err(RequestError::BadLength { index, length: shape[1], accepted });
    }
    // One linear scan at admission beats one NaN silently spreading through the
    // shared reductions (softmax, layer-norm means) of a stacked mixed-tenant batch.
    let finite = if r.is_contiguous() {
        r.as_slice().iter().all(|v| v.is_finite())
    } else {
        r.materialize().as_slice().iter().all(|v| v.is_finite())
    };
    if !finite {
        return Err(RequestError::NonFinite { index });
    }
    Ok(())
}

/// A loaded model answering request sets in length-bucketed batches.
pub struct InferSession {
    model: InferModel,
}

impl InferSession {
    /// Wraps an already-loaded model.
    pub fn new(model: InferModel) -> Self {
        Self { model }
    }

    /// Loads a checkpoint and wraps it in a session; refused as
    /// [`InferModel::from_checkpoint`] refuses it.
    pub fn from_checkpoint(ckpt: &Checkpoint) -> Result<Self, PublishError> {
        Ok(Self::new(InferModel::from_checkpoint(ckpt)?))
    }

    /// The loaded model.
    pub fn model(&self) -> &InferModel {
        &self.model
    }

    /// Validates every request up front: rank 2, matching channel count, length within
    /// `[window, max_len]`, all values finite. Nothing is computed when any request is
    /// malformed, so a bad request can never abort (or poison) a half-served batch.
    fn validate(&self, requests: &[NdArray]) -> Result<(), RequestError> {
        for (index, r) in requests.iter().enumerate() {
            validate_request(self.model.config(), index, r)?;
        }
        Ok(())
    }

    /// Answers a set of concurrent classification requests (each `(channels, length)`,
    /// lengths may differ) in request order. Requests are grouped into rectangular
    /// length-bucketed batches of at most 64 (`MAX_BATCH`) before the forward pass. The
    /// whole set is validated first — a malformed request rejects the call without
    /// running any compute.
    pub fn classify(&self, requests: &[NdArray]) -> Result<Vec<Prediction>, RequestError> {
        if self.model.num_classes().is_none() {
            return Err(RequestError::WrongHead { requested: "classify" });
        }
        self.validate(requests)?;
        let mut out = vec![Prediction { class: 0 }; requests.len()];
        for (indices, logits) in self.bucketed(requests, |batch| self.model.try_logits(batch)) {
            let logits = logits.map_err(RequestError::Infer)?;
            for (row, &req) in logits.argmax_last().iter().zip(&indices) {
                out[req] = Prediction { class: *row };
            }
            crate::reclaim(logits);
        }
        Ok(out)
    }

    /// Class logits for a set of concurrent requests, in request order (one `(classes,)`
    /// row per request).
    pub fn classify_logits(&self, requests: &[NdArray]) -> Result<Vec<NdArray>, RequestError> {
        if self.model.num_classes().is_none() {
            return Err(RequestError::WrongHead { requested: "classify" });
        }
        self.validate(requests)?;
        let mut out: Vec<Option<NdArray>> = vec![None; requests.len()];
        for (indices, logits) in self.bucketed(requests, |batch| self.model.try_logits(batch)) {
            let logits = logits.map_err(RequestError::Infer)?;
            for (i, &req) in indices.iter().enumerate() {
                out[req] = Some(logits.index_axis(0, i).expect("logits row").materialize());
            }
            crate::reclaim(logits);
        }
        Ok(out.into_iter().map(|o| o.expect("every request answered")).collect())
    }

    /// Reconstructs a set of (masked) series in request order.
    pub fn reconstruct(&self, requests: &[NdArray]) -> Result<Vec<NdArray>, RequestError> {
        if !self.model.has_decoder() {
            return Err(RequestError::WrongHead { requested: "reconstruct" });
        }
        self.validate(requests)?;
        let mut out: Vec<Option<NdArray>> = vec![None; requests.len()];
        for (indices, recon) in self.bucketed(requests, |batch| self.model.try_reconstruct(batch)) {
            let recon = recon.map_err(RequestError::Infer)?;
            for (i, &req) in indices.iter().enumerate() {
                out[req] = Some(recon.index_axis(0, i).expect("recon row").materialize());
            }
            crate::reclaim(recon);
        }
        Ok(out.into_iter().map(|o| o.expect("every request answered")).collect())
    }

    /// Runs `f` over length-bucketed stacked batches of `requests`, yielding each
    /// bucket's request indices alongside the batch result.
    fn bucketed<'a>(
        &'a self,
        requests: &'a [NdArray],
        f: impl Fn(&NdArray) -> Result<NdArray, crate::InferError> + 'a,
    ) -> impl Iterator<Item = (Vec<usize>, Result<NdArray, crate::InferError>)> + 'a {
        let lengths: Vec<usize> = requests.iter().map(|r| r.shape()[1]).collect();
        // Deterministic bucketing (shuffle off): the rng is never consulted.
        let mut rng = SeedableRng64::seed_from_u64(0);
        let batches = batch_indices_by_length(&lengths, |_| MAX_BATCH, false, &mut rng);
        batches.into_iter().map(move |indices| {
            let samples: Vec<NdArray> = indices.iter().map(|&i| requests[i].clone()).collect();
            let batch = stack_samples(&samples);
            let result = f(&batch);
            crate::reclaim(batch);
            (indices, result)
        })
    }
}
