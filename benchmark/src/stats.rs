//! Order statistics: every timing is reported as a median plus the highest
//! percentile the sample count supports.

/// Sort a sample in place (NaN-free by construction: all inputs are
/// durations or rates).
pub fn sort(v: &mut [f64]) {
    v.sort_unstable_by(f64::total_cmp);
}

/// Nearest-rank percentile of a sorted sample; `q` in `[0, 1]`.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of an unsorted sample.
pub fn median(v: &mut [f64]) -> f64 {
    sort(v);
    percentile(v, 0.5)
}

/// The percentiles a tail may be reported at, lowest first, as
/// `1 - 1/denominator`: p50, p90, p99, p99.9, p99.99. Integer arithmetic,
/// because `100.0 * (1.0 - 0.9)` is not 10.
const TAIL_DENOMINATORS: [usize; 5] = [2, 10, 100, 1000, 10_000];

/// The highest percentile with at least ten samples beyond it, and its
/// value: a p99 from 200 samples rests on two of them and is not reported.
/// `None` below 20 samples, where not even the median qualifies.
pub fn supported_tail(sorted: &[f64]) -> Option<(f64, f64)> {
    let n = sorted.len();
    TAIL_DENOMINATORS
        .iter()
        .rev()
        .find(|&&d| n / d >= 10)
        .map(|&d| (1.0 - 1.0 / d as f64, sorted[n - n / d - 1]))
}

/// First quartile, median and third quartile as Python's
/// `statistics.quantiles(values, n=4)` gives them (the driver's rule).
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut d = values.to_vec();
    sort(&mut d);
    let n = d.len();
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4) {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        *slot = (d[j - 1] * (4.0 - delta) + d[j] * delta) / 4.0;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let of = |n: usize| {
            let v: Vec<f64> = (0..n).map(|i| i as f64).collect();
            supported_tail(&v).map(|(q, _)| q)
        };
        assert_eq!(of(19), None);
        assert_eq!(of(20), Some(0.5));
        assert_eq!(of(99), Some(0.5));
        assert_eq!(of(100), Some(0.9));
        assert_eq!(of(999), Some(0.9));
        assert_eq!(of(1000), Some(0.99));
        assert_eq!(of(10_000), Some(0.999));
        assert_eq!(of(100_000), Some(0.9999));
        // The value is the nearest-rank percentile of that level.
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(supported_tail(&v), Some((0.99, 990.0)));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), [1.5, 4.0, 12.0]);
    }
}
