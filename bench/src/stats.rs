//! The harness's own arithmetic: medians, quartiles, percentiles.

/// Percentile levels a timing may be reported at, ascending.
const LEVELS: [f64; 6] = [50.0, 75.0, 90.0, 95.0, 99.0, 99.9];

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the exclusive method) — the rule the acceptance spread is
/// checked with, so `ledger all` and the driver agree on a spread.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(f64::NAN);
        return (x, x);
    }
    let cut = |k: usize| {
        // Position k*(n+1)/4 on a 1-based axis, clamped to the sample.
        let j = (k * (n + 1) / 4).clamp(1, n - 1);
        let delta = (k * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta.clamp(0.0, 1.0)
    };
    (cut(1), cut(3))
}

/// Nearest rank (1-based) of `level` in a sample of `n`. The tolerance
/// keeps 99.9 % of 10 000 at 9 990, not one float error higher.
fn rank(n: usize, level: f64) -> usize {
    ((level / 100.0 * n as f64 - 1e-9).ceil() as usize).clamp(1, n.max(1))
}

/// Nearest-rank percentile.
pub fn percentile(values: &[f64], level: f64) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return f64::NAN;
    }
    v[rank(v.len(), level) - 1]
}

/// The highest level with at least ten samples beyond it (p50 when even
/// that has fewer): a tail read off fewer samples is one outlier's value.
pub fn supported_level(n: usize) -> f64 {
    LEVELS
        .iter()
        .copied()
        .rev()
        .find(|&l| n.saturating_sub(rank(n, l)) >= 10)
        .unwrap_or(LEVELS[0])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_level_needs_ten_samples_beyond() {
        assert_eq!(supported_level(5), 50.0);
        assert_eq!(supported_level(20), 50.0);
        assert_eq!(supported_level(40), 75.0);
        assert_eq!(supported_level(99), 75.0);
        assert_eq!(supported_level(100), 90.0);
        assert_eq!(supported_level(120), 90.0);
        assert_eq!(supported_level(200), 95.0);
        assert_eq!(supported_level(1_000), 99.0);
        assert_eq!(supported_level(3_000), 99.0);
        assert_eq!(supported_level(10_000), 99.9);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        assert_eq!(median(&v), 5.5);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
    }
}
