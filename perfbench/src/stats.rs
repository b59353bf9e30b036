//! Summary statistics: medians and the tail-percentile rule.

/// Percentiles a tail may be reported at, in rising order. The ladder
/// stops at p95: with two busy clients on a shared two-core machine, the
/// mixed workload's p99 swung twofold from run to run with the host's load.
pub const LADDER: [f64; 4] = [50.0, 80.0, 90.0, 95.0];

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// Nearest-rank position (1-based) of percentile `p` among `n` samples.
fn rank(p: f64, n: usize) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// The highest percentile of [`LADDER`] with at least [`TAIL_BEYOND`]
/// of `n` samples beyond it, or `None` when even the median has fewer.
pub fn tail_percentile(n: usize) -> Option<f64> {
    LADDER.iter().rev().copied().find(|&p| n >= rank(p, n) + TAIL_BEYOND)
}

/// Nearest-rank percentile `p` of `values` (which need not be sorted).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[rank(p, sorted.len()) - 1]
}

/// The tail by [`tail_percentile`], falling back to the median when too
/// few samples exist for any tail.
pub fn tail(values: &[f64]) -> f64 {
    percentile(values, tail_percentile(values.len()).unwrap_or(50.0))
}

/// The median; the mean of the middle two for an even count.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The arithmetic mean, 0 for no samples.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_corpus_pass_reports_p80() {
        // 54 fragments: the 44th of 54 leaves exactly ten beyond it.
        assert_eq!(tail_percentile(54), Some(80.0));
        assert_eq!(tail_percentile(53), Some(80.0));
    }

    #[test]
    fn two_hundred_pages_report_p95() {
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(199), Some(90.0));
        assert_eq!(tail_percentile(100_000), Some(95.0));
    }

    #[test]
    fn too_few_samples_have_no_tail() {
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(0), None);
    }

    #[test]
    fn every_ladder_choice_leaves_ten_beyond() {
        for n in 20..3000 {
            let p = tail_percentile(n).expect("20+ samples have a tail");
            assert!(n - rank(p, n) >= TAIL_BEYOND, "n={n} p={p}");
            if let Some(&next) = LADDER.iter().find(|&&q| q > p) {
                assert!(n - rank(next, n) < TAIL_BEYOND, "n={n}: p{next} also qualifies");
            }
        }
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=54).rev().map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 27.0);
        assert_eq!(percentile(&v, 80.0), 44.0);
        assert_eq!(tail(&v), 44.0);
        assert_eq!(percentile(&[3.0], 99.0), 3.0);
    }

    #[test]
    fn medians_of_odd_and_even_counts() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[1.0, 2.0]), 1.5);
    }
}
