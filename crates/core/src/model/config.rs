//! Model configuration shared by every attention variant.

use crate::attention::AttentionKind;
use crate::scheduler::MemoryModel;

/// Number of windows a `(window, stride)` convolution produces on a series of `len`
/// timestamps — the single home of this arithmetic (config, embedding and scheduler all
/// rely on it agreeing). Panics with a clear message when the series is shorter than the
/// window: the naive `len - window` underflows `usize` otherwise.
pub fn windows_for(len: usize, window: usize, stride: usize) -> usize {
    assert!(
        len >= window,
        "series length {len} is shorter than the convolution window {window}; \
         pad the series or configure a smaller window"
    );
    (len - window) / stride.max(1) + 1
}

/// Most elements any one tensor a config implies may hold (2^26 f32, 256 MiB): checkpoint
/// header fields alone size them before a record is read, so [`RitaConfig::check`] caps them.
pub const MAX_TENSOR_ELEMS: usize = 1 << 26;

/// Hyper-parameters of a RITA model (Fig. 1 of the paper).
///
/// The defaults follow Appendix A.1: an 8-layer stack of 2-head attention with hidden
/// dimension 64 and a convolution kernel of 5 timestamps. Harness code typically shrinks
/// `n_layers` so the full experiment suite runs on a laptop CPU.
#[derive(Debug, Clone, Copy)]
pub struct RitaConfig {
    /// Number of input channels (variables) of the timeseries.
    pub channels: usize,
    /// Maximum series length the model will see (determines the positional table).
    pub max_len: usize,
    /// Convolution window width `w` — timestamps per window.
    pub window: usize,
    /// Convolution stride; the paper chunks the series into windows, i.e. stride = width.
    pub stride: usize,
    /// Hidden dimension d of the encoder.
    pub d_model: usize,
    /// Number of attention heads.
    pub n_heads: usize,
    /// Number of stacked encoder layers.
    pub n_layers: usize,
    /// Feed-forward hidden size.
    pub ff_hidden: usize,
    /// Dropout probability.
    pub dropout: f32,
    /// Attention mechanism used by every layer.
    pub attention: AttentionKind,
}

impl Default for RitaConfig {
    fn default() -> Self {
        Self {
            channels: 3,
            max_len: 200,
            window: 5,
            stride: 5,
            d_model: 64,
            n_heads: 2,
            n_layers: 8,
            ff_hidden: 128,
            dropout: 0.1,
            attention: AttentionKind::default_group(),
        }
    }
}

impl RitaConfig {
    /// A small configuration suitable for unit tests and CPU-scale experiments.
    pub fn tiny(channels: usize, max_len: usize, attention: AttentionKind) -> Self {
        Self {
            channels,
            max_len,
            window: 5,
            stride: 5,
            d_model: 16,
            n_heads: 2,
            n_layers: 2,
            ff_hidden: 32,
            dropout: 0.0,
            attention,
        }
    }

    /// Number of windows a series of length `len` produces.
    pub fn windows_for(&self, len: usize) -> usize {
        windows_for(len, self.window, self.stride)
    }

    /// Maximum number of windows (for `max_len`).
    pub fn max_windows(&self) -> usize {
        self.windows_for(self.max_len)
    }

    /// Per-head feature dimension.
    pub fn head_dim(&self) -> usize {
        assert_eq!(self.d_model % self.n_heads, 0, "d_model must be divisible by n_heads");
        self.d_model / self.n_heads
    }

    /// The memory-relevant shape of this architecture (f32 elements), for the §5.2
    /// batch-size machinery and serve-time latency budgeting.
    pub fn memory_model(&self) -> MemoryModel {
        MemoryModel {
            d_model: self.d_model,
            layers: self.n_layers,
            heads: self.n_heads,
            ff_hidden: self.ff_hidden,
            channels: self.channels,
            window: self.window,
            stride: self.stride,
            bytes_per_element: 4,
        }
    }

    /// Checks internal consistency without panicking, naming the first constraint
    /// violated. The publish path uses this so a corrupt checkpoint is *rejected*
    /// rather than crashing a serving worker.
    pub fn check(&self) -> Result<(), String> {
        if self.channels == 0 {
            return Err("channels must be positive".into());
        }
        if self.window == 0 || self.stride == 0 {
            return Err("window and stride must be positive".into());
        }
        if self.max_len < self.window {
            return Err("max_len must cover at least one window".into());
        }
        if self.n_heads == 0 || !self.d_model.is_multiple_of(self.n_heads) {
            return Err("d_model must be divisible by n_heads".into());
        }
        if self.n_layers == 0 {
            return Err("need at least one encoder layer".into());
        }
        if !(0.0..1.0).contains(&self.dropout) {
            return Err("dropout must be in [0, 1)".into());
        }
        // Every weight and the positional table (a row per window plus the class token)
        // are `d_model` wide.
        let (d, rows) = (self.d_model, self.max_windows().saturating_add(1));
        let longest = [rows, self.channels.saturating_mul(self.window), d, self.ff_hidden];
        let largest = longest.into_iter().fold(0, usize::max).saturating_mul(d);
        if largest > MAX_TENSOR_ELEMS {
            return Err(format!(
                "an implied tensor of {largest} elements is over the cap of {MAX_TENSOR_ELEMS}"
            ));
        }
        // The rules the attention constructors assert, so a restore cannot panic on them.
        match self.attention {
            AttentionKind::Group { epsilon, .. } if !(epsilon.is_finite() && epsilon > 1.0) => {
                Err("group epsilon must be finite and > 1".into())
            }
            AttentionKind::Group { initial_groups: 0, .. } => {
                Err("group initial_groups must be at least 1".into())
            }
            _ => Ok(()),
        }
    }

    /// Validates internal consistency, panicking with a descriptive message otherwise
    /// (training-side convenience; serving uses [`RitaConfig::check`]).
    pub fn validate(&self) {
        if let Err(msg) = self.check() {
            panic!("{msg}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_paper() {
        let c = RitaConfig::default();
        assert_eq!(c.d_model, 64);
        assert_eq!(c.n_heads, 2);
        assert_eq!(c.n_layers, 8);
        assert_eq!(c.window, 5);
        c.validate();
    }

    #[test]
    fn window_arithmetic() {
        let c = RitaConfig { window: 10, stride: 10, max_len: 200, ..Default::default() };
        assert_eq!(c.windows_for(200), 20);
        assert_eq!(c.windows_for(10), 1);
        assert_eq!(c.max_windows(), 20);
        assert_eq!(c.head_dim(), 32);
    }

    #[test]
    #[should_panic(expected = "shorter than the convolution window")]
    fn windows_for_rejects_short_series() {
        let c = RitaConfig::default();
        let _ = c.windows_for(2);
    }

    #[test]
    #[should_panic(expected = "divisible")]
    fn validate_rejects_bad_heads() {
        let c = RitaConfig { d_model: 10, n_heads: 3, ..Default::default() };
        c.validate();
    }

    #[test]
    fn check_reports_instead_of_panicking() {
        assert!(RitaConfig::default().check().is_ok());
        let c = RitaConfig { n_layers: 0, ..Default::default() };
        assert!(c.check().unwrap_err().contains("encoder layer"));
        let c = RitaConfig { dropout: 1.5, ..Default::default() };
        assert!(c.check().unwrap_err().contains("dropout"));
    }

    #[test]
    fn tiny_config_is_valid() {
        let c = RitaConfig::tiny(12, 100, AttentionKind::Vanilla);
        c.validate();
        assert_eq!(c.channels, 12);
        assert_eq!(c.n_layers, 2);
    }
}
