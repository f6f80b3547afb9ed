//! Order statistics for benchmark samples: medians, quartiles, nearest-rank
//! percentiles with an "enough samples beyond it" check, sub-window rates, and the
//! comparison a regression check holds against a bound. Independent of the
//! `crates/compat/criterion` sampler.

/// Sorts a sample ascending; panics on NaN, which no timing sample may contain.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN in a benchmark sample"));
    v
}

/// Median of an unsorted sample (mean of the two middle values for even counts).
/// `NaN` for an empty sample.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Quartiles `(q1, q2, q3)` by the same rule as Python's
/// `statistics.quantiles(values, n=4)` (the "exclusive" method), so spreads computed
/// here agree with the ones the driver computes. Needs at least two values.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let v = sorted(values);
    let m = v.len();
    assert!(m >= 2, "quartiles need at least two values");
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// Inter-quartile distance as a share of the median — the spread the driver holds
/// against a metric's bound.
pub fn iqr_spread(values: &[f64]) -> f64 {
    let (q1, q2, q3) = quartiles(values);
    (q3 - q1) / q2.abs()
}

/// A nearest-rank percentile together with how many samples lie beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The sample value at the rank.
    pub value: f64,
    /// Total number of samples.
    pub samples: usize,
    /// Samples strictly above the rank.
    pub beyond: usize,
}

impl Percentile {
    /// A percentile is only reported as steady when at least ten samples lie beyond it.
    pub fn has_enough_beyond(&self) -> bool {
        self.beyond >= 10
    }
}

/// Nearest-rank percentile `q ∈ (0, 1]` of an ascending sample: the value at rank
/// `ceil(q · n)`. `None` for an empty sample.
pub fn percentile(sorted: &[f64], q: f64) -> Option<Percentile> {
    if sorted.is_empty() {
        return None;
    }
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    Some(Percentile { value: sorted[rank - 1], samples: n, beyond: n - rank })
}

/// A percentile that one bad stretch of the box cannot move: the window is cut into
/// equal sub-windows, the nearest-rank percentile is taken in each, and the median of
/// those is reported. A 200 ms stall on a server at 60 % load inflates the latency of
/// a few hundred requests, which shifts a whole-window p90 by a tenth but touches only
/// one sub-window.
///
/// `samples` are `(completion time, value)` pairs. As many sub-windows are used (at
/// most `max_parts`) as leave `min_per_part` samples in each on average, so the rule
/// "ten samples beyond the percentile" keeps holding per sub-window; with fewer
/// samples this is the plain whole-window percentile. `beyond` is the smallest count
/// over the sub-windows. `None` for an empty sample.
pub fn subwindow_percentile(
    samples: &[(f64, f64)],
    start: f64,
    end: f64,
    q: f64,
    max_parts: usize,
    min_per_part: usize,
) -> Option<Percentile> {
    assert!(end > start && max_parts > 0 && min_per_part > 0, "need a non-empty window");
    let parts = (samples.len() / min_per_part).clamp(1, max_parts);
    let width = (end - start) / parts as f64;
    let mut by_part = vec![Vec::new(); parts];
    for &(t, value) in samples {
        let slot = (((t - start) / width).max(0.0) as usize).min(parts - 1);
        by_part[slot].push(value);
    }
    let each: Vec<Percentile> =
        by_part.iter().filter_map(|part| percentile(&sorted(part), q)).collect();
    Some(Percentile {
        value: median(&each.iter().map(|p| p.value).collect::<Vec<_>>()),
        samples: samples.len(),
        beyond: each.iter().map(|p| p.beyond).min()?,
    })
}

/// Median work rate over `parts` equal sub-windows of `[start, end)`.
///
/// `ops` are `(began, ended, weight)` triples — a weight is the number of items the
/// operation completed (a training step completes a whole batch). An operation's
/// weight accrues evenly over its duration, so one that straddles a boundary counts
/// on both sides in proportion; counting whole completions instead would quantise a
/// sub-window of twenty 200 ms steps to ±5 %. One slow stretch moves one sub-window,
/// not the reported rate.
pub fn subwindow_rate_median(ops: &[(f64, f64, f64)], start: f64, end: f64, parts: usize) -> f64 {
    assert!(parts > 0 && end > start, "need a non-empty window");
    let width = (end - start) / parts as f64;
    let mut work = vec![0.0f64; parts];
    for &(began, ended, weight) in ops {
        let length = ended - began;
        for (slot, w) in work.iter_mut().enumerate() {
            let (lo, hi) = (start + slot as f64 * width, start + (slot + 1) as f64 * width);
            if length > 0.0 {
                let overlap = ended.min(hi) - began.max(lo);
                if overlap > 0.0 {
                    *w += weight * overlap / length;
                }
            } else if ended >= lo && ended < hi {
                *w += weight;
            }
        }
    }
    let rates: Vec<f64> = work.iter().map(|w| w / width).collect();
    median(&rates)
}

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, memory).
    Lower,
    /// Larger is better (rates).
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// How much worse `candidate` is than `baseline`, as a share of `baseline`
/// (negative when it is better).
pub fn worse_by(baseline: f64, candidate: f64, better: Better) -> f64 {
    let delta = match better {
        Better::Lower => candidate - baseline,
        Better::Higher => baseline - candidate,
    };
    delta / baseline.abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([2, 9, 4, 7, 5], n=4) == [3.0, 5.0, 8.0]
        assert_eq!(quartiles(&[2.0, 9.0, 4.0, 7.0, 5.0]), (3.0, 5.0, 8.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        assert!((iqr_spread(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn nearest_rank_percentile_counts_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let p90 = percentile(&v, 0.9).unwrap();
        assert_eq!((p90.value, p90.samples, p90.beyond), (90.0, 100, 10));
        assert!(p90.has_enough_beyond());
        let p99 = percentile(&v, 0.99).unwrap();
        assert_eq!((p99.value, p99.beyond), (99.0, 1));
        assert!(!p99.has_enough_beyond());
        assert_eq!(percentile(&v, 0.5).unwrap().value, 50.0);
        assert_eq!(percentile(&[7.0], 0.9).unwrap().value, 7.0);
        assert!(percentile(&[], 0.5).is_none());
    }

    #[test]
    fn subwindow_percentile_ignores_one_bad_stretch() {
        // 500 operations of 1 ms, one per 10 ms, except a stall: the 40 that complete
        // in [2.0, 2.4) take 50 ms. The whole-window p90 is untouched (8 % are slow),
        // but the whole-window p95 is 50; per sub-window only one of five sees it.
        let samples: Vec<(f64, f64)> = (0..500)
            .map(|i| {
                let t = i as f64 * 0.01;
                (t, if (2.0..2.4).contains(&t) { 50.0 } else { 1.0 })
            })
            .collect();
        let values = sorted(&samples.iter().map(|s| s.1).collect::<Vec<_>>());
        assert_eq!(percentile(&values, 0.95).unwrap().value, 50.0);
        let p95 = subwindow_percentile(&samples, 0.0, 5.0, 0.95, 5, 100).unwrap();
        assert_eq!((p95.value, p95.samples, p95.beyond), (1.0, 500, 5));
        // Too few samples for five sub-windows of 100: fewer, down to the whole window.
        let two = subwindow_percentile(&samples[..250], 0.0, 2.5, 0.5, 5, 100).unwrap();
        assert_eq!((two.value, two.beyond), (1.0, 62));
        let whole = subwindow_percentile(&samples[..99], 0.0, 1.0, 0.9, 5, 100).unwrap();
        assert_eq!(whole, percentile(&vec![1.0; 99], 0.9).unwrap());
        assert!(subwindow_percentile(&[], 0.0, 1.0, 0.9, 5, 100).is_none());
    }

    #[test]
    fn subwindow_median_ignores_one_stalled_part() {
        // Back-to-back 100 ms operations, except nothing runs during [3, 4).
        let mut ops = Vec::new();
        for i in 0..50 {
            let t = i as f64 * 0.1;
            if !(3.0..4.0).contains(&t) {
                ops.push((t, t + 0.1, 1.0));
            }
        }
        assert!((subwindow_rate_median(&ops, 0.0, 5.0, 5) - 10.0).abs() < 1e-9);
        // Weights count items: the same operations with batches of 4.
        let batched: Vec<_> = ops.iter().map(|&(a, b, _)| (a, b, 4.0)).collect();
        assert!((subwindow_rate_median(&batched, 0.0, 5.0, 5) - 40.0).abs() < 1e-9);
        // Operations outside the window do not count; an instantaneous one counts whole.
        assert_eq!(subwindow_rate_median(&[(9.0, 9.5, 1.0)], 0.0, 5.0, 5), 0.0);
        assert_eq!(subwindow_rate_median(&[(0.5, 0.5, 3.0)], 0.0, 1.0, 1), 3.0);
    }

    #[test]
    fn subwindow_rates_split_an_operation_across_a_boundary() {
        // 0.3 s operations do not divide the 1 s sub-windows: whole-completion counting
        // would report 3, 3, 4 per second; proportional accrual reports the true 3.33.
        let ops: Vec<_> = (0..10).map(|i| (i as f64 * 0.3, (i + 1) as f64 * 0.3, 1.0)).collect();
        let rate = subwindow_rate_median(&ops, 0.0, 3.0, 3);
        assert!((rate - 1.0 / 0.3).abs() < 1e-9, "{rate}");
    }

    #[test]
    fn bound_comparison_respects_direction() {
        assert!((worse_by(100.0, 104.0, Better::Lower) - 0.04).abs() < 1e-12);
        assert!((worse_by(100.0, 96.0, Better::Higher) - 0.04).abs() < 1e-12);
        assert!(worse_by(100.0, 90.0, Better::Lower) < 0.0);
        assert!(worse_by(100.0, 120.0, Better::Higher) < 0.0);
        assert_eq!(Better::Lower.as_str(), "lower");
        assert_eq!(Better::Higher.as_str(), "higher");
    }
}
