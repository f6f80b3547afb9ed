use std::hint::black_box;
use std::time::Instant;

/// Per-iteration timing of one routine: the median and quartiles of its samples by the
/// exclusive rule of Python's `statistics.quantiles(n=4)`, which `e2e` uses too.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Median per-iteration time, nanoseconds.
    pub median_ns: f64,
    /// First quartile, nanoseconds.
    pub q1_ns: f64,
    /// Third quartile, nanoseconds.
    pub q3_ns: f64,
}

impl Sample {
    /// The statistics of per-iteration times (nanoseconds, any order; at least two).
    fn of(per_iter_ns: &[f64]) -> Self {
        let mut v = per_iter_ns.to_vec();
        v.sort_by(f64::total_cmp);
        let m = v.len();
        assert!(m >= 2, "quartiles need at least two samples");
        let cut = |i: usize| {
            let j = (i * (m + 1) / 4).clamp(1, m - 1);
            let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
            (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
        };
        Self { median_ns: cut(2), q1_ns: cut(1), q3_ns: cut(3) }
    }
}

/// Times `routine`: one warm-up call, then `samples` samples of enough iterations each to
/// last at least 5 ms (1 to 1 000 000 iterations, from the warm-up's time).
pub fn sample<O>(samples: usize, mut routine: impl FnMut() -> O) -> Sample {
    let t0 = Instant::now();
    black_box(routine());
    let iters = (5_000_000 / t0.elapsed().as_nanos().max(1)).clamp(1, 1_000_000) as u32;
    let mut per_iter = Vec::with_capacity(samples);
    for _ in 0..samples {
        let start = Instant::now();
        for _ in 0..iters {
            black_box(routine());
        }
        per_iter.push((start.elapsed() / iters).as_nanos() as f64);
    }
    Sample::of(&per_iter)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(s: Sample) -> (f64, f64, f64) {
        (s.q1_ns, s.median_ns, s.q3_ns)
    }

    /// Expected values from `statistics.quantiles(data, n=4)` (exclusive method) and
    /// `statistics.median(data)`.
    #[test]
    fn quartiles_follow_the_exclusive_rule() {
        // Quick mode: three samples, so q1 and q3 are the extremes.
        assert_eq!(stats(Sample::of(&[30.0, 10.0, 20.0])), (10.0, 20.0, 30.0));
        // Full mode: ten samples, given out of order.
        let ten = [7.0, 1.0, 9.0, 3.0, 10.0, 2.0, 8.0, 4.0, 6.0, 5.0];
        assert_eq!(stats(Sample::of(&ten)), (2.75, 5.5, 8.25));
        // An even count whose quartiles land between ranks: [1, 2, 4, 8, 16, 32].
        assert_eq!(stats(Sample::of(&[32.0, 1.0, 16.0, 2.0, 8.0, 4.0])), (1.75, 6.0, 20.0));
    }

    #[test]
    fn sample_warms_up_then_times_every_sample() {
        let mut calls = 0u64;
        let s = sample(3, || calls += 1);
        assert!(s.q1_ns <= s.median_ns && s.median_ns <= s.q3_ns, "{s:?}");
        // The warm-up call plus at least one iteration per sample.
        assert!(calls >= 4);
    }
}
