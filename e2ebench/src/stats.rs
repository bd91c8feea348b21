//! Order statistics over measured samples and over the workspace's log2
//! telemetry histograms.

/// Sorts a copy of `values` ascending (NaN-free input assumed; NaN sorts
/// last rather than panicking).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// Linear-interpolated percentile (`p` in `[0, 1]`) of unsorted samples,
/// the same rule as NumPy's default: rank `p·(n−1)` between neighbours.
/// `None` for an empty slice.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    let v = sorted(values);
    let last = v.len().checked_sub(1)?;
    let rank = p.clamp(0.0, 1.0) * last as f64;
    let lo = rank.floor() as usize;
    let hi = (lo + 1).min(last);
    let frac = rank - lo as f64;
    Some(v[lo] + (v[hi] - v[lo]) * frac)
}

/// The median of unsorted samples.
pub fn median(values: &[f64]) -> Option<f64> {
    percentile(values, 0.5)
}

/// First and third quartiles by Python's `statistics.quantiles(data,
/// n=4)` default ("exclusive") method, so run-to-run spreads printed
/// here match the ones a reader computes from the same values in
/// Python. Needs at least two samples.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values);
    let ld = v.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((q(1), q(3)))
}

/// The highest percentile among `candidates` (ascending) that leaves at
/// least ten samples above it in `n` samples — the tail a run of `n`
/// samples can actually resolve. Falls back to the median.
pub fn resolvable_tail(n: usize, candidates: &[f64]) -> f64 {
    candidates
        .iter()
        .rev()
        .copied()
        .find(|p| (n as f64) * (1.0 - p) >= 10.0)
        .unwrap_or(0.5)
}

/// The fastest sample of each position (`pos[i]` is the position of
/// `values[i]`), in position order; positions never sampled are
/// skipped. Applied to repeated passes over the same work, this is the
/// best-of-N repeat: a shared host only ever adds time to a sample.
pub fn best_per_position(values: &[f64], pos: &[usize]) -> Vec<f64> {
    let mut best: Vec<Option<f64>> = Vec::new();
    for (&v, &p) in values.iter().zip(pos) {
        if best.len() <= p {
            best.resize(p + 1, None);
        }
        best[p] = Some(best[p].map_or(v, |b: f64| b.min(v)));
    }
    best.into_iter().flatten().collect()
}

/// Interpolated quantile of a log2-bucket histogram snapshot (bucket 0
/// holds recorded zeros, bucket `i > 0` holds `[2^(i-1), 2^i)`).
///
/// The workspace histograms record whole microseconds truncated from
/// the real duration, so a recorded `v` stands for a true value in
/// `[v, v + 1)`: bucket 0 spans `[0, 1)` and bucket `i` spans
/// `[2^(i-1), 2^i)`. The rank is placed linearly inside its bucket,
/// which gives a finer figure than the bucket's upper bound that
/// [`nvc::telemetry::Histogram::quantile`] reports. `None` when empty.
pub fn bucket_quantile(buckets: &[u64], q: f64) -> Option<f64> {
    let total: u64 = buckets.iter().sum();
    if total == 0 {
        return None;
    }
    let rank = q.clamp(0.0, 1.0) * total as f64;
    let mut seen = 0u64;
    for (i, &n) in buckets.iter().enumerate() {
        if n == 0 {
            continue;
        }
        if (seen + n) as f64 >= rank {
            let (lo, hi) = if i == 0 {
                (0.0, 1.0)
            } else {
                (2f64.powi(i as i32 - 1), 2f64.powi(i as i32))
            };
            let frac = ((rank - seen as f64) / n as f64).clamp(0.0, 1.0);
            return Some(lo + (hi - lo) * frac);
        }
        seen += n;
    }
    None
}

/// Per-bucket difference `after − before` of two snapshots of one
/// histogram, isolating what a phase of the run recorded.
pub fn bucket_delta(before: &[u64], after: &[u64]) -> Vec<u64> {
    after
        .iter()
        .zip(before)
        .map(|(a, b)| a.saturating_sub(*b))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentile_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(percentile(&[10.0, 20.0, 30.0, 40.0, 50.0], 0.9), Some(46.0));
        assert_eq!(percentile(&[7.0], 0.99), Some(7.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 2.25)));
        // statistics.quantiles([5, 1, 4, 2, 3], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), Some((1.5, 4.5)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn best_per_position_keeps_each_positions_minimum() {
        let ms = [5.0, 9.0, 4.0, 8.0, 6.0, 7.0, 3.0];
        let pos = [0, 1, 0, 1, 0, 1, 3];
        assert_eq!(best_per_position(&ms, &pos), vec![4.0, 7.0, 3.0]);
        assert_eq!(best_per_position(&[], &[]), Vec::<f64>::new());
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let c = [0.9, 0.99];
        assert_eq!(resolvable_tail(5000, &c), 0.99);
        assert_eq!(resolvable_tail(400, &c), 0.9);
        assert_eq!(resolvable_tail(50, &c), 0.5);
    }

    #[test]
    fn bucket_quantile_interpolates_inside_log2_buckets() {
        // Four zeros and four values in [4, 8): the median sits at the
        // top of bucket 0, p75 halfway through bucket 3.
        let mut b = vec![0u64; 65];
        b[0] = 4;
        b[3] = 4;
        assert_eq!(bucket_quantile(&b, 0.5), Some(1.0));
        assert_eq!(bucket_quantile(&b, 0.75), Some(6.0));
        assert_eq!(bucket_quantile(&[0; 65], 0.5), None);
        assert_eq!(bucket_delta(&[1, 2, 3], &[1, 5, 3]), vec![0, 3, 0]);
    }
}
