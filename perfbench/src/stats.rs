//! Order statistics over repeated samples.
//!
//! Every timing the benchmark reports is a nearest-rank percentile of
//! many samples from one run. A tail percentile is only reported at a
//! rank that leaves at least [`MIN_BEYOND`] samples beyond it, so a
//! single outlier cannot become the tail.

/// Samples a reported tail percentile must leave beyond it.
pub const MIN_BEYOND: usize = 10;

/// The 1-based nearest rank of percentile `pct` among `n` samples:
/// the smallest rank with at least `pct`% of the samples at or below it.
#[must_use]
pub fn rank(n: usize, pct: u32) -> usize {
    (n * pct as usize).div_ceil(100).clamp(1, n.max(1))
}

/// Nearest-rank percentile `pct` of `samples` (any order); `None` when
/// there are no samples.
#[must_use]
pub fn percentile(samples: &[f64], pct: u32) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank(sorted.len(), pct) - 1])
}

/// Median (nearest-rank p50), or `0.0` for no samples.
#[must_use]
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50).unwrap_or(0.0)
}

/// Samples lying strictly beyond the nearest-rank percentile `pct` of `n`.
#[must_use]
pub fn beyond(n: usize, pct: u32) -> usize {
    n.saturating_sub(rank(n, pct))
}

/// The smallest sample count at which percentile `pct` leaves
/// [`MIN_BEYOND`] samples beyond it.
#[must_use]
pub fn min_samples_for(pct: u32) -> usize {
    (1..)
        .find(|&n| beyond(n, pct) >= MIN_BEYOND)
        .unwrap_or(usize::MAX)
}

/// The highest of `candidates` that leaves [`MIN_BEYOND`] of `n` samples
/// beyond it, or `None` when even the lowest does not.
#[must_use]
pub fn tail_rank(n: usize, candidates: &[u32]) -> Option<u32> {
    candidates
        .iter()
        .copied()
        .filter(|&p| beyond(n, p) >= MIN_BEYOND)
        .max()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_the_textbook_definition() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&s, 50), Some(5.0));
        assert_eq!(percentile(&s, 90), Some(9.0));
        assert_eq!(percentile(&s, 91), Some(10.0));
        assert_eq!(percentile(&s, 100), Some(10.0));
        assert_eq!(percentile(&s, 0), Some(1.0));
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 50), Some(2.0));
        assert_eq!(percentile(&[], 50), None);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn integer_ranks_avoid_float_rounding() {
        // 0.99 * 1000 is not exactly 990 in binary floating point.
        assert_eq!(rank(1000, 99), 990);
        assert_eq!(rank(200, 95), 190);
        assert_eq!(rank(40, 75), 30);
        assert_eq!(rank(1, 99), 1);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(beyond(1000, 99), 10);
        assert_eq!(beyond(999, 99), 9);
        assert_eq!(min_samples_for(99), 1000);
        assert_eq!(min_samples_for(95), 200);
        assert_eq!(min_samples_for(75), 40);
        assert_eq!(min_samples_for(66), 30);
        assert_eq!(min_samples_for(50), 20);
    }

    #[test]
    fn tail_rank_picks_the_highest_admissible_percentile() {
        let candidates = [50, 75, 90, 95, 99];
        assert_eq!(tail_rank(19, &candidates), None);
        assert_eq!(tail_rank(20, &candidates), Some(50));
        assert_eq!(tail_rank(45, &candidates), Some(75));
        assert_eq!(tail_rank(100, &candidates), Some(90));
        assert_eq!(tail_rank(250, &candidates), Some(95));
        assert_eq!(tail_rank(5000, &candidates), Some(99));
    }
}
