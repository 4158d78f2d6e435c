//! Order statistics for the reported metrics.

/// Sorts ascending; latencies are never NaN.
pub fn sort(samples: &mut [f64]) {
    samples.sort_by(f64::total_cmp);
}

/// Nearest-rank percentile of an ascending slice (`q` in 0..=1).
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The ten-samples-beyond rule: a percentile is reported only when at least
/// ten samples lie above its rank, so p90 needs 100 samples and p99 1000.
pub fn supported_percentile(sorted: &[f64], q: f64) -> Option<f64> {
    let rank = (q * sorted.len() as f64).ceil() as usize;
    (sorted.len() >= rank + 10).then(|| percentile(sorted, q))
}

pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sort(&mut sorted);
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// The three cut points of Python's `statistics.quantiles(values, n=4)`
/// (the default "exclusive" method), which is what the driver uses to judge
/// a metric's spread. Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let mut data = values.to_vec();
    sort(&mut data);
    let len = data.len();
    if len < 2 {
        return None;
    }
    let m = len + 1;
    let mut cuts = [0.0; 3];
    for (slot, i) in cuts.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, len - 1);
        // i*m - j*4 goes negative when j was clamped down from above.
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    Some(cuts)
}

/// Interquartile range as a share of the median: the driver's steadiness
/// measure for one metric over a set of runs.
pub fn spread(values: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles(values)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p90_is_withheld_below_one_hundred_samples() {
        let ninety_nine: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(supported_percentile(&ninety_nine, 0.90), None);
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(supported_percentile(&hundred, 0.90), Some(90.0));
        // p50 needs 20 samples, p99 needs 1000.
        assert_eq!(supported_percentile(&hundred[..19], 0.50), None);
        assert_eq!(supported_percentile(&hundred[..20], 0.50), Some(10.0));
        assert_eq!(supported_percentile(&hundred, 0.99), None);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let data = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&data, 0.5), 2.0);
        assert_eq!(percentile(&data, 0.75), 3.0);
        assert_eq!(percentile(&data, 1.0), 4.0);
        assert_eq!(percentile(&data, 0.0), 1.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[3.0, 1.0]), Some([0.5, 2.0, 3.5]));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(
            quartiles(&[1.0, 2.0, 4.0, 8.0, 16.0]),
            Some([1.5, 4.0, 12.0])
        );
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(spread(&ten), Some(1.0));
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
