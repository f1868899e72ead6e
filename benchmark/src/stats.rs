//! Sample statistics for the benchmark's reports.
//!
//! Quantiles interpolate linearly between order statistics (the
//! "inclusive" definition, numpy's default): with `n` sorted samples the
//! `q`-quantile sits at fractional index `(n - 1) q`. The median of an
//! even count is therefore the mean of the two middle samples, never the
//! upper one, and every statistic is defined from a single sample up.

/// Order statistics of one metric's samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Median.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// 90th percentile.
    pub p90: f64,
}

impl Summary {
    /// Summarizes `samples`; `None` when there are none or any is not
    /// finite (a non-finite timing is a defect, not a sample).
    pub fn of(samples: &[f64]) -> Option<Self> {
        if samples.is_empty() || samples.iter().any(|v| !v.is_finite()) {
            return None;
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        Some(Self {
            n: sorted.len(),
            median: quantile_sorted(&sorted, 0.5),
            q1: quantile_sorted(&sorted, 0.25),
            q3: quantile_sorted(&sorted, 0.75),
            p90: quantile_sorted(&sorted, 0.9),
        })
    }

    /// Interquartile range as a share of the median (0 when the median
    /// is 0, where a relative spread has no meaning).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }

    /// Whether at least ten samples lie beyond the 90th percentile, the
    /// condition for reporting it as a tail latency.
    pub fn p90_supported(&self) -> bool {
        tail_count(self.n, 0.9) >= 10
    }
}

/// The `q`-quantile (`q` in `[0, 1]`) of ascending `sorted` samples.
///
/// # Panics
/// If `sorted` is empty.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let h = (sorted.len() - 1) as f64 * q.clamp(0.0, 1.0);
    let lo = h.floor() as usize;
    let hi = (lo + 1).min(sorted.len() - 1);
    sorted[lo] + (h - lo as f64) * (sorted[hi] - sorted[lo])
}

/// Samples strictly beyond the `q`-quantile of `n` samples.
pub fn tail_count(n: usize, q: f64) -> usize {
    let h = (n.saturating_sub(1)) as f64 * q;
    n.saturating_sub(h.floor() as usize + 1)
}

/// Removes one occurrence of each value of `subtract` from `all` (both
/// ascending) and returns the rest, ascending: the samples recorded after
/// a snapshot, recovered from two sorted reservoirs.
pub fn multiset_difference(all: &[u64], subtract: &[u64]) -> Vec<u64> {
    let mut out = Vec::with_capacity(all.len().saturating_sub(subtract.len()));
    let mut j = 0;
    for &v in all {
        while j < subtract.len() && subtract[j] < v {
            j += 1;
        }
        if j < subtract.len() && subtract[j] == v {
            j += 1;
        } else {
            out.push(v);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_sample_is_every_statistic() {
        let s = Summary::of(&[4.5]).unwrap();
        assert_eq!((s.n, s.median, s.q1, s.q3, s.p90), (1, 4.5, 4.5, 4.5, 4.5));
        assert_eq!(s.spread(), 0.0);
    }

    #[test]
    fn even_count_median_is_the_midpoint_not_the_upper_sample() {
        let s = Summary::of(&[7.41, 4.50]).unwrap();
        assert!((s.median - 5.955).abs() < 1e-12);
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(s.median, 2.5);
        assert_eq!(s.q1, 1.75);
        assert_eq!(s.q3, 3.25);
    }

    #[test]
    fn odd_count_median_is_the_middle_sample_in_any_input_order() {
        let s = Summary::of(&[9.0, 1.0, 5.0, 3.0, 7.0]).unwrap();
        assert_eq!(s.median, 5.0);
        assert_eq!(s.q1, 3.0);
        assert_eq!(s.q3, 7.0);
        assert!((s.spread() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn quantiles_match_linear_interpolation_at_every_count() {
        // numpy.percentile(range(1, n + 1), [25, 50, 75, 90]) for n = 1..=12.
        let expected: [[f64; 4]; 12] = [
            [1.0, 1.0, 1.0, 1.0],
            [1.25, 1.5, 1.75, 1.9],
            [1.5, 2.0, 2.5, 2.8],
            [1.75, 2.5, 3.25, 3.7],
            [2.0, 3.0, 4.0, 4.6],
            [2.25, 3.5, 4.75, 5.5],
            [2.5, 4.0, 5.5, 6.4],
            [2.75, 4.5, 6.25, 7.3],
            [3.0, 5.0, 7.0, 8.2],
            [3.25, 5.5, 7.75, 9.1],
            [3.5, 6.0, 8.5, 10.0],
            [3.75, 6.5, 9.25, 10.9],
        ];
        for (i, want) in expected.iter().enumerate() {
            let n = i + 1;
            let samples: Vec<f64> = (1..=n).rev().map(|v| v as f64).collect();
            let s = Summary::of(&samples).unwrap();
            let got = [s.q1, s.median, s.q3, s.p90];
            for (g, w) in got.iter().zip(want) {
                assert!((g - w).abs() < 1e-12, "n = {n}: got {got:?}, want {want:?}");
            }
        }
    }

    #[test]
    fn empty_or_non_finite_samples_have_no_summary() {
        assert!(Summary::of(&[]).is_none());
        assert!(Summary::of(&[1.0, f64::NAN]).is_none());
        assert!(Summary::of(&[f64::INFINITY]).is_none());
    }

    #[test]
    fn p90_needs_ten_samples_beyond_it() {
        assert_eq!(tail_count(10, 0.9), 1);
        assert_eq!(tail_count(100, 0.9), 10);
        assert_eq!(tail_count(1, 0.9), 0);
        assert_eq!(tail_count(0, 0.9), 0);
        // 91 samples: p90 is exactly the 82nd, 9 lie beyond; 92: 10 do.
        let few: Vec<f64> = (0..91).map(f64::from).collect();
        let many: Vec<f64> = (0..92).map(f64::from).collect();
        assert!(!Summary::of(&few).unwrap().p90_supported());
        assert!(Summary::of(&many).unwrap().p90_supported());
    }

    #[test]
    fn multiset_difference_keeps_repeated_values() {
        let all = [1, 2, 2, 2, 5, 7, 7, 9];
        assert_eq!(multiset_difference(&all, &[2, 7]), vec![1, 2, 2, 5, 7, 9]);
        assert_eq!(multiset_difference(&all, &[]), all.to_vec());
        assert_eq!(multiset_difference(&all, &all), Vec::<u64>::new());
        assert_eq!(multiset_difference(&[3, 3], &[1, 3, 4]), vec![3]);
    }
}
