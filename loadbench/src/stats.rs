//! Order statistics over latency samples.

/// The nearest-rank `p`-th percentile (`0 < p <= 100`) of `samples`: the
/// smallest sample such that at least `p` percent of all samples are at
/// or below it. `None` for an empty slice.
pub fn nearest_rank(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Number of samples strictly above the nearest-rank `p`-th percentile —
/// the tail a percentile estimate rests on.
pub fn beyond(samples: &[f64], p: f64) -> usize {
    nearest_rank(samples, p).map_or(0, |cut| samples.iter().filter(|&&s| s > cut).count())
}

/// The median as the mean of the two middle samples for an even count.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    })
}

/// Arithmetic mean, `0.0` for an empty slice.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_on_known_vectors() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(nearest_rank(&v, 50.0), Some(5.0));
        assert_eq!(nearest_rank(&v, 90.0), Some(9.0));
        assert_eq!(nearest_rank(&v, 91.0), Some(10.0));
        assert_eq!(nearest_rank(&v, 100.0), Some(10.0));
        assert_eq!(nearest_rank(&v, 1.0), Some(1.0));
        // Order of the input does not matter.
        let shuffled = [7.0, 3.0, 10.0, 1.0, 5.0, 2.0, 9.0, 4.0, 8.0, 6.0];
        assert_eq!(nearest_rank(&shuffled, 50.0), Some(5.0));
        // The classic textbook vector: 15 20 35 40 50.
        let t = [15.0, 20.0, 35.0, 40.0, 50.0];
        assert_eq!(nearest_rank(&t, 5.0), Some(15.0));
        assert_eq!(nearest_rank(&t, 30.0), Some(20.0));
        assert_eq!(nearest_rank(&t, 40.0), Some(20.0));
        assert_eq!(nearest_rank(&t, 50.0), Some(35.0));
        assert_eq!(nearest_rank(&t, 100.0), Some(50.0));
        assert_eq!(nearest_rank(&[], 50.0), None);
        assert_eq!(nearest_rank(&[4.0], 99.0), Some(4.0));
    }

    #[test]
    fn p99_of_a_thousand_leaves_ten_beyond() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(nearest_rank(&v, 99.0), Some(990.0));
        assert_eq!(beyond(&v, 99.0), 10);
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(mean(&[]), 0.0);
    }
}
