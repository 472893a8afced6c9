//! Order statistics over measured samples.

/// The `q`-quantile (0 ≤ q ≤ 1) of `values` by the nearest-rank rule:
/// the smallest sample with at least `q` of the samples at or below it.
/// Returns 0 for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median (nearest-rank 0.5-quantile).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Number of samples strictly greater than the `q`-quantile.
pub fn beyond(values: &[f64], q: f64) -> usize {
    let cut = quantile(values, q);
    values.iter().filter(|&&v| v > cut).count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&values, 0.5), 50.0);
        assert_eq!(quantile(&values, 0.9), 90.0);
        assert_eq!(beyond(&values, 0.9), 10);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[]), 0.0);
    }
}
