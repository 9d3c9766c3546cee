//! Order statistics over timing samples.

/// Samples sorted ascending (NaN-free input assumed).
fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median; the mean of the middle two for an even count.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let v = sorted(samples);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Nearest-rank percentile: the smallest sample with at least `q`% of the
/// samples at or below it (rank `⌈q·n/100⌉`, 1-based).
pub fn percentile(samples: &[f64], q: u32) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let v = sorted(samples);
    v[nearest_rank(v.len(), q) - 1]
}

fn nearest_rank(n: usize, q: u32) -> usize {
    (q as usize * n).div_ceil(100).clamp(1, n)
}

/// Samples a reported tail percentile must leave above it.
pub const TAIL_BEYOND: usize = 10;

/// The highest percentile in `50..=99` whose nearest-rank sample has at
/// least [`TAIL_BEYOND`] samples beyond it, with its value; `None` when
/// fewer than 20 samples leave no such percentile.
pub fn tail(samples: &[f64]) -> Option<(u32, f64)> {
    let n = samples.len();
    (50..=99)
        .rev()
        .find(|&q| n >= 1 && n - nearest_rank(n, q) >= TAIL_BEYOND)
        .map(|q| (q, percentile(samples, q)))
}

/// Interquartile range over the median, with the quartiles taken as
/// Python's `statistics.quantiles(values, n=4)` takes them (the exclusive
/// method). `0` for fewer than two samples.
pub fn quartile_spread(samples: &[f64]) -> f64 {
    let v = sorted(samples);
    let n = v.len();
    if n < 2 {
        return 0.0;
    }
    // The same integer arithmetic as CPython, clamp included (which can
    // extrapolate slightly for n < 3).
    let quantile = |i: usize| {
        let m = (n + 1) * i;
        let j = (m / 4).clamp(1, n - 1);
        let delta = m as f64 - (4 * j) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    let med = median(samples);
    if med == 0.0 {
        return 0.0;
    }
    (quantile(3) - quantile(1)) / med
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn nearest_rank_percentile() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 50), 5.0);
        assert_eq!(percentile(&v, 90), 9.0);
        assert_eq!(percentile(&v, 91), 10.0);
        assert_eq!(percentile(&v, 99), 10.0);
        assert_eq!(percentile(&[7.0], 50), 7.0);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        // 100 samples: p90 is rank 90, ten beyond; p91 would leave nine.
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&v), Some((90, 90.0)));
        // 40 samples: p75 is rank 30 (ten beyond); p76 is rank 31.
        let v: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(tail(&v), Some((75, 30.0)));
        // 20 samples: only the median leaves ten beyond.
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&v), Some((50, 10.0)));
        // 19 samples: no percentile from 50 up qualifies.
        let v: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(tail(&v), None);
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn spread_matches_python_exclusive_quartiles() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25].
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quartile_spread(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4, 8], n=4) == [1.25, 3.0, 7.0].
        assert!((quartile_spread(&[8.0, 1.0, 4.0, 2.0]) - (7.0 - 1.25) / 3.0).abs() < 1e-12);
        // statistics.quantiles([1, 5], n=4) == [0.0, 3.0, 6.0].
        assert!((quartile_spread(&[5.0, 1.0]) - 6.0 / 3.0).abs() < 1e-12);
        assert_eq!(quartile_spread(&[5.0]), 0.0);
    }
}
