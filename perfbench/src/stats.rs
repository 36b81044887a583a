//! The benchmark's own arithmetic: medians, quartiles, the tail
//! percentile rule and failure counting.

/// Sorts a copy of `xs` ascending (NaN-free input assumed; NaNs sort
/// last under `total_cmp`).
fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median: the middle value, or the mean of the two middle values.
/// `0.0` for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The three quartile cut points exactly as Python's
/// `statistics.quantiles(xs, n=4)` (default `'exclusive'` method)
/// computes them (extrapolating past the ends of short samples). Needs
/// at least two values; a single value is returned three times.
pub fn quartiles(xs: &[f64]) -> [f64; 3] {
    let v = sorted(xs);
    let ld = v.len();
    match ld {
        0 => return [0.0; 3],
        1 => return [v[0]; 3],
        _ => {}
    }
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (k, slot) in out.iter_mut().enumerate() {
        let i = k + 1;
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Mean of the values left after dropping the lowest and the highest
/// `⌊trim·n⌋` each. `0.0` for an empty slice.
pub fn trimmed_mean(xs: &[f64], trim: f64) -> f64 {
    let v = sorted(xs);
    let cut = (trim * v.len() as f64) as usize;
    let kept = &v[cut..v.len() - cut];
    if kept.is_empty() {
        0.0
    } else {
        kept.iter().sum::<f64>() / kept.len() as f64
    }
}

/// Interquartile distance as a share of the median — the spread rule
/// the benchmark's bounds are judged by.
pub fn spread(xs: &[f64]) -> f64 {
    let [q1, _, q3] = quartiles(xs);
    let med = median(xs);
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    }
}

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// A tail latency: the percentile it stands for and its value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// Percentile in `[0, 100]`.
    pub percentile: f64,
    /// The sample at that percentile.
    pub value: f64,
}

/// The highest percentile with at least [`TAIL_BEYOND`] samples beyond
/// it, by nearest rank: with `n` sorted samples that is the sample of
/// rank `n − 10`, i.e. percentile `100·(n − 10)/n` (p99 at n = 1000).
///
/// Below 21 samples that rank falls under the upper median, and no tail
/// can be stated: the upper median (rank ⌊n/2⌋ + 1) is reported instead,
/// so a tail never reads below the median. `None` for an empty slice.
pub fn tail(xs: &[f64]) -> Option<Tail> {
    let v = sorted(xs);
    let n = v.len();
    if n == 0 {
        return None;
    }
    let rank = n.saturating_sub(TAIL_BEYOND).max(n / 2 + 1);
    Some(Tail {
        percentile: 100.0 * rank as f64 / n as f64,
        value: v[rank - 1],
    })
}

/// Operations attempted and failed. An operation fails when it panics,
/// returns a score that is not finite or lies outside `[0, 1]`, or
/// breaks a correctness check (count, repeatability, parity).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
}

impl Tally {
    /// Records one operation.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Failed operations over attempted ones (`0` when none attempted).
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// Whether a defense score is valid: finite and in `[0, 1]`.
pub fn valid_score(s: f32) -> bool {
    s.is_finite() && (0.0..=1.0).contains(&s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trimmed_mean_drops_both_ends() {
        assert_eq!(trimmed_mean(&[], 0.05), 0.0);
        assert_eq!(trimmed_mean(&[3.0, 1.0], 0.05), 2.0);
        // 20 values, 5% trim: one dropped at each end.
        let mut xs: Vec<f64> = (1..=18).map(|_| 2.0).collect();
        xs.extend([100.0, -50.0]);
        assert_eq!(trimmed_mean(&xs, 0.05), 2.0);
        assert_eq!(trimmed_mean(&[1.0, 2.0, 3.0, 4.0], 0.25), 2.5);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 2.0, 1.0, 3.0]), [1.25, 2.5, 3.75]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]: the
        // exclusive method extrapolates past the ends of short samples.
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), [1.5, 3.0, 4.5]);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&xs) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(spread(&[7.0; 10]), 0.0);
    }

    #[test]
    fn tail_is_p99_at_a_thousand_samples() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&xs).unwrap();
        assert_eq!(t.percentile, 99.0);
        assert_eq!(t.value, 990.0);
        // Exactly ten samples lie beyond it.
        assert_eq!(xs.iter().filter(|&&x| x > t.value).count(), TAIL_BEYOND);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_at_any_count() {
        for n in [21usize, 37, 250, 999, 1001, 4096] {
            let xs: Vec<f64> = (0..n).rev().map(|i| i as f64).collect();
            let t = tail(&xs).unwrap();
            let beyond = xs.iter().filter(|&&x| x > t.value).count();
            assert_eq!(beyond, TAIL_BEYOND, "n = {n}");
            assert!((t.percentile - 100.0 * (n - 10) as f64 / n as f64).abs() < 1e-9);
        }
    }

    #[test]
    fn short_samples_fall_back_to_the_upper_median() {
        let t = tail(&[5.0, 9.0, 1.0]).unwrap();
        assert_eq!(t.value, 5.0);
        assert!((t.percentile - 200.0 / 3.0).abs() < 1e-9);
        assert_eq!(tail(&[3.0, 8.0]).unwrap().value, 8.0);
        // 20 samples: rank 11 (the upper median), not rank 10.
        let xs: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&xs).unwrap().value, 11.0);
        assert_eq!(tail(&[4.0]).unwrap().value, 4.0);
        assert!(tail(&[]).is_none());
    }

    #[test]
    fn tally_counts_failures_against_attempts() {
        let mut t = Tally::default();
        for ok in [true, false, true, true] {
            t.record(ok);
        }
        assert_eq!((t.attempted, t.failed), (4, 1));
        assert_eq!(t.failed_frac(), 0.25);
        assert_eq!(Tally::default().failed_frac(), 0.0);
    }

    #[test]
    fn score_validity_rejects_nan_and_out_of_range() {
        assert!(valid_score(0.0) && valid_score(1.0) && valid_score(0.42));
        for bad in [f32::NAN, f32::INFINITY, -0.01, 1.01] {
            assert!(!valid_score(bad), "{bad}");
        }
    }
}
