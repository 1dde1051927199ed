//! Order statistics over the benchmark's own timing samples.

/// The three quartile cut points of `values`, computed exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method) so
/// the spread this benchmark prints is the spread its driver computes.
///
/// # Panics
/// Panics on fewer than two values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need at least two values");
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let ld = data.len();
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4) {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    out
}

/// The median of `values` (0 for an empty slice).
pub fn median(values: &[f64]) -> f64 {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    match data.len() {
        0 => 0.0,
        n if n % 2 == 1 => data[n / 2],
        n => (data[n / 2 - 1] + data[n / 2]) / 2.0,
    }
}

/// The 10th-percentile value (the `⌊n/10⌋`-th smallest; 0 for an empty
/// slice): what a rep takes when nothing else disturbs the box.
/// Interference from other tenants only ever adds time, so this low
/// quantile repeats from run to run far better than the median does.
pub fn low_decile(values: &[f64]) -> f64 {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    data.get(data.len() / 10).copied().unwrap_or(0.0)
}

/// Mean of `cost` over the quarter of samples with the lowest `wall` (at
/// least one; 0 for empty input): the per-rep cost of the reps the box
/// disturbed least.  Summing over a quarter of the reps also averages away
/// the 10 ms granularity `/proc` reports CPU time in.
pub fn quiet_quarter_mean(wall: &[f64], cost: &[f64]) -> f64 {
    let mut order: Vec<usize> = (0..wall.len().min(cost.len())).collect();
    order.sort_by(|&a, &b| wall[a].total_cmp(&wall[b]));
    order.truncate((order.len() / 4).max(1));
    match order.len() {
        0 => 0.0,
        n => order.iter().map(|&i| cost[i]).sum::<f64>() / n as f64,
    }
}

/// Median of the pairwise ratios `numerator[i] / denominator[i]` (0 for
/// empty input).
pub fn median_ratio(numerator: &[f64], denominator: &[f64]) -> f64 {
    let ratios: Vec<f64> = numerator
        .iter()
        .zip(denominator)
        .map(|(n, d)| n / d)
        .collect();
    median(&ratios)
}

/// Inter-quartile range as a share of the median (0 when it cannot be
/// computed: fewer than two values or a zero median).
pub fn iqr_rel(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let [q1, q2, q3] = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2
    }
}

/// The highest percentile that still has at least ten samples beyond it,
/// as `(percentile, value)`; with ten samples or fewer no percentile
/// qualifies and the maximum is returned as the 100th.
pub fn tail(values: &[f64]) -> (f64, f64) {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    match data.len() {
        0 => (100.0, 0.0),
        n if n <= 10 => (100.0, data[n - 1]),
        n => (100.0 * (n - 10) as f64 / n as f64, data[n - 11]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4)
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3.0, 1.0, 2.0], n=4)
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([1.0, 2.0], n=4)
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
    }

    #[test]
    fn median_and_spread() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(iqr_rel(&v), 1.0);
        assert_eq!(iqr_rel(&[1.0]), 0.0);
    }

    #[test]
    fn low_decile_picks_the_tenth_of_the_way_up() {
        let v: Vec<f64> = (1..=20).rev().map(f64::from).collect();
        assert_eq!(low_decile(&v), 3.0);
        assert_eq!(low_decile(&[4.0, 2.0]), 2.0);
        assert_eq!(low_decile(&[]), 0.0);
    }

    #[test]
    fn quiet_quarter_mean_follows_the_fastest_reps() {
        let wall = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 8.0, 7.0];
        let cost = [50.0, 10.0, 40.0, 30.0, 30.0, 90.0, 80.0, 70.0];
        // The two fastest reps are the 1.0 and the 2.0.
        assert_eq!(quiet_quarter_mean(&wall, &cost), 20.0);
        assert_eq!(quiet_quarter_mean(&[3.0], &[7.0]), 7.0);
        assert_eq!(quiet_quarter_mean(&[], &[]), 0.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&v), (50.0, 10.0));
        assert_eq!(tail(&[2.0, 9.0]), (100.0, 9.0));
    }
}
