//! Order statistics shared by the runs and the compare tool.

/// Percentiles a timing may be reported at, lowest first.
pub const PERCENTILE_LADDER: [f64; 6] = [50.0, 75.0, 90.0, 95.0, 99.0, 99.9];

/// Nearest-rank position (1-based) of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    // The epsilon keeps `0.99 * 1000` from rounding up to rank 991.
    ((p / 100.0 * n as f64) - 1e-9).ceil().max(1.0) as usize
}

/// The highest percentile of [`PERCENTILE_LADDER`] that still has at least
/// ten samples beyond it, or `None` when even the median has fewer.
pub fn supported_percentile(n: usize) -> Option<f64> {
    PERCENTILE_LADDER.iter().copied().rfind(|&p| n >= 1 && n - rank(n, p).min(n) >= 10)
}

/// Nearest-rank percentile `p` (0 < p ≤ 100) of `samples`; `NaN` when
/// empty. Infinite samples sort last, so failed requests count as misses.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[rank(sorted.len(), p).min(sorted.len()) - 1]
}

/// Median of `samples` (mean of the two middle values for even counts);
/// `NaN` when empty.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// First, second and third quartiles as Python's
/// `statistics.quantiles(samples, n=4)` computes them (the default
/// "exclusive" method). A single sample is its own quartiles.
pub fn quartiles(samples: &[f64]) -> (f64, f64, f64) {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => (f64::NAN, f64::NAN, f64::NAN),
        1 => (sorted[0], sorted[0], sorted[0]),
        n => {
            let m = n as i64 + 1;
            let q = |i: i64| {
                let j = (i * m / 4).clamp(1, n as i64 - 1);
                let delta = (i * m - j * 4) as f64;
                let (lo, hi) = (sorted[j as usize - 1], sorted[j as usize]);
                (lo * (4.0 - delta) + hi * delta) / 4.0
            };
            (q(1), q(2), q(3))
        }
    }
}

/// Events per second in each whole `width`-second window of `[start,
/// end)`, given the event times; a trailing partial window is dropped.
pub fn windowed_rates(times: &[f64], start: f64, end: f64, width: f64) -> Vec<f64> {
    let windows = ((end - start) / width).floor().max(0.0) as usize;
    let mut counts = vec![0usize; windows];
    for &t in times {
        let i = ((t - start) / width).floor();
        if i >= 0.0 && (i as usize) < windows {
            counts[i as usize] += 1;
        }
    }
    counts.into_iter().map(|c| c as f64 / width).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn supported_percentile_needs_ten_samples_beyond() {
        assert_eq!(supported_percentile(0), None);
        assert_eq!(supported_percentile(19), None);
        assert_eq!(supported_percentile(20), Some(50.0));
        assert_eq!(supported_percentile(40), Some(75.0));
        assert_eq!(supported_percentile(100), Some(90.0));
        assert_eq!(supported_percentile(999), Some(95.0));
        assert_eq!(supported_percentile(1_000), Some(99.0));
        assert_eq!(supported_percentile(9_999), Some(99.0));
        assert_eq!(supported_percentile(10_000), Some(99.9));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 500.0);
        assert_eq!(percentile(&xs, 99.0), 990.0);
        assert_eq!(percentile(&xs, 100.0), 1000.0);
        // Failures recorded as infinite latency land in the tail.
        let mut with_miss = vec![1.0; 99];
        with_miss.push(f64::INFINITY);
        assert_eq!(percentile(&with_miss, 99.0), 1.0);
        with_miss.push(f64::INFINITY);
        assert!(percentile(&with_miss, 99.0).is_infinite());
    }

    #[test]
    fn windowed_rates_drop_the_partial_window() {
        let times = [0.1, 0.2, 0.6, 1.4, 1.6, 2.2];
        assert_eq!(windowed_rates(&times, 0.0, 1.7, 0.5), vec![4.0, 2.0, 2.0]);
        assert!(windowed_rates(&times, 0.0, 0.4, 0.5).is_empty());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
