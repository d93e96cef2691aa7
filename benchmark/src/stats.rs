//! Order statistics: nearest-rank percentiles, the "at least ten samples
//! beyond" tail rule, and the quartiles `compare` uses for run-to-run
//! spread.

/// 1-based nearest rank of percentile `q` (in percent) among `n`
/// samples: ⌈q/100 · n⌉, clamped to `1..=n`. Integer arithmetic in
/// hundredths of a percent, so `p99` of 1000 samples is rank 990, not
/// 991 from a float that lands a hair above it.
pub fn rank(n: usize, q: f64) -> usize {
    let hundredths = (q * 100.0).round() as usize;
    (hundredths * n).div_ceil(10_000).clamp(1, n.max(1))
}

/// Nearest-rank percentile of ascending, non-empty `sorted`.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    sorted[rank(sorted.len(), q) - 1]
}

/// Percentiles the tail rule may report, highest first.
const TAIL_CANDIDATES: [f64; 6] = [99.9, 99.0, 98.0, 95.0, 90.0, 50.0];

/// The highest candidate percentile that still has at least ten samples
/// strictly beyond its rank (`None` below 20 samples, where not even the
/// median has).
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_CANDIDATES
        .into_iter()
        .find(|&q| n > 0 && n - rank(n, q) >= 10)
}

/// Sort a sample in place (NaN-free by construction: every value here is
/// a measured duration or count).
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Median of a non-empty sample (nearest-rank p50).
pub fn median(v: &[f64]) -> f64 {
    percentile(&sorted(v.to_vec()), 50.0)
}

/// `(q1, median, q3)` exactly as Python's
/// `statistics.quantiles(data, n=4)` (the default "exclusive" method)
/// gives them; a single sample is its own quartiles.
pub fn quartiles(v: &[f64]) -> (f64, f64, f64) {
    let data = sorted(v.to_vec());
    let ld = data.len();
    assert!(ld > 0, "quartiles of an empty sample");
    if ld == 1 {
        return (data[0], data[0], data[0]);
    }
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    (q(1), q(2), q(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_the_definition() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 500.0);
        assert_eq!(percentile(&v, 99.0), 990.0);
        assert_eq!(percentile(&v, 99.9), 999.0);
        assert_eq!(percentile(&v, 100.0), 1000.0);
        assert_eq!(percentile(&[4.0], 99.0), 4.0);
        // Rank rounds up: p50 of 5 samples is the 3rd.
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0, 5.0], 50.0), 3.0);
    }

    #[test]
    fn tail_rule_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        // ~625 cold jobs: p99 leaves 6 beyond, p98 leaves 12.
        assert_eq!(tail_percentile(625), Some(98.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        for n in 20..3000 {
            let q = tail_percentile(n).unwrap();
            assert!(n - rank(n, q) >= 10, "n={n} q={q}");
        }
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
    }
}
