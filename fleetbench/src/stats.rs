//! Order statistics over latency samples, and frame attribution.

/// Median of `xs` (mean of the middle pair for even lengths; 0 when empty).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// 1-based nearest rank of the `pct`-th percentile among `n` samples.
fn rank(pct: usize, n: usize) -> usize {
    (pct * n).div_ceil(100).clamp(1, n)
}

/// The nearest-rank `pct`-th percentile of `xs`, defined only when at
/// least `min_beyond` samples lie above it: a tail estimate resting on
/// one or two outliers is noise, not a measurement.
pub fn tail_percentile(xs: &[f64], pct: usize, min_beyond: usize) -> Option<f64> {
    let n = xs.len();
    if n == 0 || n - rank(pct, n) < min_beyond {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    Some(v[rank(pct, n) - 1])
}

/// Fewest samples for which [`tail_percentile`] is defined.
pub fn samples_needed(pct: usize, min_beyond: usize) -> usize {
    (1..).find(|&n| n - rank(pct, n) >= min_beyond).unwrap()
}

/// Attribute pushed frames to the appends that produced them. Frames
/// arrive in emission order, and each append's ack says how many frames
/// it emitted, so frame `j` belongs to the append whose cumulative
/// emission range covers `j`. Returns `(append index, index within that
/// append's emissions)` per frame.
pub fn attribute_frames(windows_emitted: &[usize]) -> Vec<(usize, usize)> {
    windows_emitted
        .iter()
        .enumerate()
        .flat_map(|(i, &n)| (0..n).map(move |k| (i, k)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_lengths() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn p95_needs_two_hundred_samples_for_ten_beyond() {
        assert_eq!(samples_needed(95, 10), 200);
        assert_eq!(samples_needed(99, 10), 1000);
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        // Rank 190 of 200 leaves exactly ten samples above it.
        assert_eq!(tail_percentile(&xs, 95, 10), Some(190.0));
        assert_eq!(tail_percentile(&xs[..199], 95, 10), None);
        assert_eq!(tail_percentile(&[], 95, 0), None);
    }

    #[test]
    fn tail_percentile_ignores_sample_order() {
        let mut xs: Vec<f64> = (1..=400).map(f64::from).collect();
        xs.reverse();
        assert_eq!(tail_percentile(&xs, 50, 10), Some(200.0));
        assert_eq!(tail_percentile(&xs, 95, 10), Some(380.0));
    }

    #[test]
    fn frames_attribute_to_the_append_whose_ack_covers_them() {
        // Appends emitting 0, 2, 0, 1 frames: frames 0-1 came from
        // append 1, frame 2 from append 3.
        assert_eq!(
            attribute_frames(&[0, 2, 0, 1]),
            vec![(1, 0), (1, 1), (3, 0)]
        );
        assert!(attribute_frames(&[0, 0]).is_empty());
    }
}
