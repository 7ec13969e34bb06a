//! Order statistics shared by the benchmark and the compare command.
//!
//! Timings are reported as a median plus a *tail*: the highest whole
//! percentile that still has at least [`TAIL_BEYOND`] samples strictly
//! beyond it. Below [`TAIL_MIN_SAMPLES`] samples no such percentile is a
//! tail worth the name, so only the median is reported.

/// Samples that must lie beyond the reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// Fewest samples for which a tail is reported at all.
pub const TAIL_MIN_SAMPLES: usize = 40;

/// The highest whole percentile `p ≤ 99` with at least [`TAIL_BEYOND`]
/// samples beyond its nearest-rank value, or `None` below
/// [`TAIL_MIN_SAMPLES`] samples.
///
/// Nearest rank `⌈p·n/100⌉` leaves `n − ⌈p·n/100⌉` samples beyond, which
/// is at least 10 exactly when `p ≤ 100 − 1000/n`.
pub fn tail_percentile(n: usize) -> Option<u32> {
    if n < TAIL_MIN_SAMPLES {
        return None;
    }
    let p = 100 - (TAIL_BEYOND * 100).div_ceil(n);
    Some((p as u32).min(99))
}

/// Nearest-rank percentile of `sorted` (ascending, non-empty).
pub fn nearest_rank(sorted: &[f64], p: u32) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (u64::from(p) * sorted.len() as u64).div_ceil(100).max(1) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// Median as `statistics.median` computes it: the middle sample, or the
/// mean of the two middle samples.
pub fn median(values: &[f64]) -> f64 {
    let sorted = sorted(values);
    assert!(!sorted.is_empty(), "median of no samples");
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// A timing summary: median, and the tail when there are enough samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Samples summarized.
    pub count: usize,
    /// The median.
    pub p50: f64,
    /// `(percentile, value)` of the tail, when `count ≥ TAIL_MIN_SAMPLES`.
    pub tail: Option<(u32, f64)>,
}

/// Summarizes `values` by the median-and-tail rule of this module.
pub fn summarize(values: &[f64]) -> Summary {
    let sorted = sorted(values);
    let tail = tail_percentile(sorted.len()).map(|p| (p, nearest_rank(&sorted, p)));
    Summary { count: sorted.len(), p50: median(&sorted), tail }
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (the default *exclusive* method). Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    let data = sorted(values);
    let ld = data.len();
    if ld < 2 {
        return None;
    }
    let n = 4usize;
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        (data[j - 1] * (n as f64 - delta) + data[j] * delta) / n as f64
    };
    Some((q(1), q(2), q(3)))
}

/// Interquartile distance as a share of the median (`None` when the
/// quartiles are undefined or the median is 0).
pub fn relative_spread(values: &[f64]) -> Option<f64> {
    let (q1, _, q3) = quartiles(values)?;
    let med = median(values);
    (med != 0.0).then(|| (q3 - q1) / med.abs())
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    fn beyond(sorted: &[f64], p: u32) -> usize {
        let v = nearest_rank(sorted, p);
        sorted.iter().filter(|&&x| x > v).count()
    }

    #[test]
    fn no_tail_below_forty_samples() {
        for n in 0..TAIL_MIN_SAMPLES {
            assert_eq!(tail_percentile(n), None, "n = {n}");
        }
        let s = summarize(&(0..39).map(f64::from).collect::<Vec<_>>());
        assert_eq!(s.tail, None);
        assert_eq!(s.p50, 19.0);
    }

    #[test]
    fn tail_keeps_at_least_ten_samples_beyond() {
        for n in TAIL_MIN_SAMPLES..5000 {
            let p = tail_percentile(n).expect("tail from 40 samples on");
            let data: Vec<f64> = (0..n).map(|i| i as f64).collect();
            assert!(beyond(&data, p) >= TAIL_BEYOND, "n = {n}, p = {p}");
            // And it is the highest such whole percentile (capped at 99).
            if p < 99 {
                assert!(beyond(&data, p + 1) < TAIL_BEYOND, "n = {n}: p{} also qualifies", p + 1);
            }
        }
    }

    #[test]
    fn tail_percentile_known_points() {
        assert_eq!(tail_percentile(40), Some(75));
        assert_eq!(tail_percentile(80), Some(87));
        assert_eq!(tail_percentile(100), Some(90));
        assert_eq!(tail_percentile(200), Some(95));
        assert_eq!(tail_percentile(1000), Some(99));
        assert_eq!(tail_percentile(1_000_000), Some(99));
    }

    #[test]
    fn summary_of_forty_samples_reports_p75() {
        let data: Vec<f64> = (1..=40).map(f64::from).collect();
        let s = summarize(&data);
        assert_eq!(s.tail, Some((75, 30.0)));
        assert_eq!(s.p50, 20.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let data: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&data), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 2.0, 3.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 1.5, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn relative_spread_is_iqr_over_median() {
        let data: Vec<f64> = (1..=10).map(f64::from).collect();
        let spread = relative_spread(&data).expect("defined");
        assert!((spread - (8.25 - 2.75) / 5.5).abs() < 1e-12);
    }
}
