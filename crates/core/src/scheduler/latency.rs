//! Spending a *latency* budget: the serve-time batch-size bound.
//!
//! At training time, `B = f(L, N)` answers "how many samples fit in accelerator
//! memory?". At serving time the scarce resource is the tail-latency SLO: a batch may
//! only be as large as can be computed inside the slice of the deadline reserved for
//! compute. Both questions have the same shape — find the largest `B` whose *cost*
//! stays under a budget — but they differ in what the cost oracle costs.
//!
//! The bound works by converting seconds to bytes. A tape-free CPU forward is
//! memory-bandwidth bound, so its wall time is roughly proportional to the bytes it
//! touches ([`MemoryModel::serve_bytes_for`]). A measured serving throughput
//! (`bytes_per_sec`, calibrated by timing one representative forward) turns the compute
//! slice of the SLO — a fixed half, [`LatencyBudget::COMPUTE_FRACTION`] — into a byte
//! budget `S`. The serving cost is affine in the batch,
//! `(p + B·a(L, N))·bpe`, so the largest batch under `S` is one division
//! ([`LatencyBudget::max_batch_size`]). Training fits §5.2's `B = f(L, N)` because the
//! paper's oracle is a real forward and backward pass; this oracle is one formula, so
//! a fit would only add error.

use std::time::Duration;

use super::memory::MemoryModel;

/// A serve-time latency budget: the SLO slice one batch's compute may consume,
/// expressed through a calibrated byte throughput.
#[derive(Debug, Clone, Copy)]
pub struct LatencyBudget {
    /// The per-request latency SLO the serving tier promises.
    pub slo: Duration,
    /// Calibrated serving throughput in cost-model bytes per second: how fast the
    /// actual kernels chew through [`MemoryModel::serve_bytes_for`] on this machine.
    pub bytes_per_sec: f64,
}

impl LatencyBudget {
    /// Fraction of the SLO one batch's compute may consume; the rest is headroom for
    /// queueing, batch assembly, and response delivery. The paper's Alg. 2 keeps 90 %
    /// of GPU memory occupied; a latency budget needs more slack because queueing time
    /// is paid *before* compute starts.
    pub const COMPUTE_FRACTION: f64 = 0.5;

    /// The byte budget one batch's compute may spend: `slo × COMPUTE_FRACTION`
    /// converted through the calibrated throughput. Always at least 1.
    pub fn serve_budget_bytes(&self) -> usize {
        let seconds = self.slo.as_secs_f64() * Self::COMPUTE_FRACTION;
        (seconds * self.bytes_per_sec).max(1.0) as usize
    }

    /// The largest batch in `1..=max_batch` whose serving cost
    /// ([`MemoryModel::serve_bytes_for`]) fits [`serve_budget_bytes`](Self::serve_budget_bytes):
    /// `⌊(⌊S / bpe⌋ − p) / a(L, N)⌋`. Like Alg. 2's search, the floor is 1 even when
    /// one request is already over budget — serving at all means serving one.
    pub fn max_batch_size(
        &self,
        memory: &MemoryModel,
        len: usize,
        groups: usize,
        max_batch: usize,
    ) -> usize {
        let budget_elements = self.serve_budget_bytes() / memory.bytes_per_element.max(1);
        let spare = budget_elements.saturating_sub(memory.parameter_elements());
        let batch = spare / memory.activation_elements(len, groups).max(1);
        batch.clamp(1, max_batch.max(1))
    }

    /// Estimated wall time of one `(batch, len, groups)` forward under the calibrated
    /// throughput — what the continuous batcher compares against a request's remaining
    /// deadline when deciding to close a batch early.
    pub fn estimated_compute(
        &self,
        memory: &MemoryModel,
        batch: usize,
        len: usize,
        groups: usize,
    ) -> Duration {
        let bytes = memory.serve_bytes_for(batch, len, groups) as f64;
        Duration::from_secs_f64(bytes / self.bytes_per_sec.max(1.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn max_batch_size_is_the_brute_force_bound() {
        // Against a linear scan over serve_bytes_for on a grid that crosses every
        // regime: one request already over budget (floor 1), an interior bound, and
        // the cap.
        let mut budgets = Vec::new();
        for slo_ms in [1u64, 5, 10, 50, 250, 1000] {
            for bytes_per_sec in [1e6, 1e7, 1e8, 1e9, 1e10] {
                budgets.push(LatencyBudget { slo: Duration::from_millis(slo_ms), bytes_per_sec });
            }
        }
        let f32_model = MemoryModel::default();
        let one_byte = MemoryModel { bytes_per_element: 1, ..f32_model };
        let cap = 48;
        let (mut floors, mut interior, mut capped) = (0, 0, 0);
        for m in [f32_model, one_byte] {
            for len in [5usize, 48, 120, 480, 2000] {
                for groups in [1usize, 8, 64, m.windows(len)] {
                    for lb in &budgets {
                        let s = lb.serve_budget_bytes();
                        let brute = (1..=cap)
                            .rev()
                            .find(|&b| m.serve_bytes_for(b, len, groups) <= s)
                            .unwrap_or(1);
                        let got = lb.max_batch_size(&m, len, groups, cap);
                        assert_eq!(
                            got, brute,
                            "len {len} N {groups} {lb:?} bpe {}",
                            m.bytes_per_element
                        );
                        if m.serve_bytes_for(1, len, groups) > s {
                            floors += 1;
                        } else if got == cap {
                            capped += 1;
                        } else {
                            interior += 1;
                        }
                    }
                }
            }
        }
        assert!(floors > 0 && interior > 0 && capped > 0, "{floors} {interior} {capped}");
    }
}
