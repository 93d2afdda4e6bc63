//! Order statistics the benchmark reports: medians, quartiles and the
//! tail percentile a sample can support.

/// Samples that must lie beyond a percentile before the benchmark
/// reports it as the tail.
pub const TAIL_BEYOND: usize = 10;

/// `values` sorted ascending (NaN-free input).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `values` (mean of the middle pair for an even count).
/// `None` for an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// Interquartile mean of `values`: the mean of the middle half, with
/// the lowest and highest quarter dropped (a boundary sample counts by
/// the share of it inside). A request class that mixes tenants whose
/// costs differ a hundredfold (a 16-rank solve takes 0.1 ms, a 64-rank
/// K-means one 14 ms) has no steady median: it falls between the
/// tenants' clusters and jumps with the seed-drawn solver seeds. The
/// interquartile mean averages over half the sample instead, and the
/// stalled requests of the top quarter (a 40 ms delayed ACK) do not
/// reach it. `None` for an empty sample.
pub fn iqm(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    let n = v.len() as f64;
    if v.is_empty() {
        return None;
    }
    let (lo, hi) = (n / 4.0, 3.0 * n / 4.0);
    let sum: f64 = v
        .iter()
        .enumerate()
        .map(|(i, x)| {
            let (a, b) = (i as f64, i as f64 + 1.0);
            x * (b.min(hi) - a.max(lo)).max(0.0)
        })
        .sum();
    Some(sum / (hi - lo))
}

/// First, second and third quartile by the same rule as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive"
/// method), so the spread the benchmark prints matches the one its
/// acceptance check computes. Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let m = n + 1;
    let mut out = [0.0; 3];
    for (i, q) in out.iter_mut().enumerate() {
        let k = (i + 1) * m;
        let j = (k / 4).clamp(1, n - 1);
        // Python takes the remainder against the clamped index, so it
        // can leave [0, 4) and extrapolate at the ends of tiny samples.
        let delta = k as f64 - (4 * j) as f64;
        *q = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// The percentiles a tail is read at, per mille (so ranks come out
/// exact). Reading the 11th-largest sample itself would swing with
/// every scheduler hiccup; the conventional p90/p99 steps keep the same
/// percentile, and a steadier value, from run to run.
pub const TAIL_GRID: [usize; 3] = [500, 900, 990];

/// The tail of a sample: the highest percentile of [`TAIL_GRID`] that
/// still has at least [`TAIL_BEYOND`] samples above its nearest-rank
/// value, as `(percentile, value)`. `None` when even the median lacks
/// that many.
pub fn tail(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values);
    let n = v.len();
    TAIL_GRID.iter().rev().find_map(|&per_mille| {
        let rank = (per_mille * n).div_ceil(1000).max(1);
        (n >= rank + TAIL_BEYOND).then(|| (per_mille as f64 / 10.0, v[rank - 1]))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn iqm_averages_the_middle_half() {
        assert_eq!(iqm(&[]), None);
        assert_eq!(iqm(&[3.0]), Some(3.0));
        // 8 samples: the middle four, whatever the outliers.
        let v = [1000.0, 4.0, 3.0, 0.0, 5.0, 6.0, -50.0, 2.0];
        assert_eq!(iqm(&v), Some(3.5));
        // 6 samples: 1.5 through 4.5, so halves of the 2nd and 5th.
        let v = [1.0, 2.0, 3.0, 4.0, 5.0, 60.0];
        assert_eq!(iqm(&v), Some((0.5 * 2.0 + 3.0 + 4.0 + 0.5 * 5.0) / 3.0));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), Some([1.5, 3.0, 4.5]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn tail_is_the_highest_grid_percentile_with_ten_samples_beyond() {
        assert_eq!(tail(&[1.0; 19]), None);
        // 20 samples: p50 is rank 10, with 10 above it; p90 has 2.
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&v), Some((50.0, 10.0)));
        // 100 samples: p90 (rank 90) has exactly 10 beyond.
        let v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(tail(&v), Some((90.0, 90.0)));
        // 999 samples: p99 would leave 9 beyond, so p90.
        let v: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(tail(&v), Some((90.0, 900.0)));
        // 1000 samples: p99.
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let (pct, value) = tail(&v).unwrap();
        assert_eq!((pct, value), (99.0, 990.0));
        assert_eq!(v.iter().filter(|&&x| x > value).count(), TAIL_BEYOND);
        // 10^5 samples: the grid stops at p99.
        let v: Vec<f64> = (1..=100_000).map(f64::from).collect();
        assert_eq!(tail(&v), Some((99.0, 99_000.0)));
    }
}
