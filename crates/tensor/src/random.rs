//! Random initialisation helpers with deterministic seeding.
//!
//! All stochastic components in the RITA stack (parameter initialisation, data
//! generation, masking) accept an explicit RNG so experiments are reproducible; this
//! module re-exports a concrete seedable RNG type and provides the distributions the
//! stack needs.

use crate::NdArray;
use rand::Rng;
use rand::SeedableRng;

/// The deterministic RNG used across the workspace (ChaCha8, seeded from a `u64`).
pub type SeedableRng64 = rand_chacha::ChaCha8Rng;

/// Creates a deterministic RNG from a `u64` seed.
pub fn rng_from_seed(seed: u64) -> SeedableRng64 {
    SeedableRng64::seed_from_u64(seed)
}

impl NdArray {
    /// Standard-normal samples (Box–Muller) scaled by `std`.
    pub fn randn(shape: &[usize], std: f32, rng: &mut impl Rng) -> Self {
        let n: usize = shape.iter().product();
        let mut data = Vec::with_capacity(n);
        while data.len() < n {
            // Box–Muller transform: two uniforms -> two normals.
            let u1: f32 = rng.gen_range(f32::MIN_POSITIVE..1.0);
            let u2: f32 = rng.gen_range(0.0..1.0);
            let r = (-2.0 * u1.ln()).sqrt();
            let theta = 2.0 * std::f32::consts::PI * u2;
            data.push(r * theta.cos() * std);
            if data.len() < n {
                data.push(r * theta.sin() * std);
            }
        }
        Self::from_buffer(data, shape)
    }

    /// Uniform samples in `[lo, hi)`.
    pub fn rand_uniform(shape: &[usize], lo: f32, hi: f32, rng: &mut impl Rng) -> Self {
        let n: usize = shape.iter().product();
        let data: Vec<f32> = (0..n).map(|_| rng.gen_range(lo..hi)).collect();
        Self::from_buffer(data, shape)
    }

    /// Kaiming/He-style initialisation for a weight of shape `[fan_in, fan_out]`.
    pub fn kaiming(shape: &[usize], fan_in: usize, rng: &mut impl Rng) -> Self {
        let std = (2.0 / fan_in.max(1) as f32).sqrt();
        Self::randn(shape, std, rng)
    }

    /// Bernoulli 0/1 mask with probability `p` of a 1.
    pub fn bernoulli(shape: &[usize], p: f32, rng: &mut impl Rng) -> Self {
        let n: usize = shape.iter().product();
        let data: Vec<f32> = (0..n).map(|_| if rng.gen::<f32>() < p { 1.0 } else { 0.0 }).collect();
        Self::from_buffer(data, shape)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn randn_moments_are_plausible() {
        let mut rng = rng_from_seed(7);
        let a = NdArray::randn(&[10_000], 1.0, &mut rng);
        let mean = a.mean_all();
        let var = a.map(|x| x * x).mean_all() - mean * mean;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "var {var}");
    }

    #[test]
    fn seeding_is_deterministic() {
        let a = NdArray::randn(&[16], 1.0, &mut rng_from_seed(42));
        let b = NdArray::randn(&[16], 1.0, &mut rng_from_seed(42));
        let c = NdArray::randn(&[16], 1.0, &mut rng_from_seed(43));
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn uniform_respects_bounds() {
        let mut rng = rng_from_seed(3);
        let a = NdArray::rand_uniform(&[1000], -2.0, 3.0, &mut rng);
        assert!(a.min_all() >= -2.0);
        assert!(a.max_all() < 3.0);
    }

    #[test]
    fn bernoulli_rate() {
        let mut rng = rng_from_seed(5);
        let m = NdArray::bernoulli(&[10_000], 0.2, &mut rng);
        let rate = m.mean_all();
        assert!((rate - 0.2).abs() < 0.02, "rate {rate}");
        assert!(m.as_slice().iter().all(|&x| x == 0.0 || x == 1.0));
    }

    #[test]
    fn kaiming_scales_with_fan_in() {
        let mut rng = rng_from_seed(11);
        let w = NdArray::kaiming(&[512, 64], 512, &mut rng);
        let std = (w.map(|x| x * x).mean_all()).sqrt();
        let expect = (2.0f32 / 512.0).sqrt();
        assert!((std - expect).abs() < 0.01, "std {std} vs {expect}");
    }
}
