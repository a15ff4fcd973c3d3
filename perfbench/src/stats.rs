//! Harness math: order statistics over latency samples and run summaries.

/// One latency percentile read off a sample, with the evidence behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile actually reported (at most the one asked for).
    pub pct: f64,
    /// Its value.
    pub value: f64,
    /// Samples the percentile was read from.
    pub n: usize,
}

/// Nearest-rank percentile of an ascending-sorted sample (`pct` in 0..=100).
pub fn percentile(sorted: &[f64], pct: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (pct / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The percentile ladder a tail is chosen from, highest first.
const LADDER: [f64; 6] = [99.9, 99.0, 98.0, 95.0, 90.0, 50.0];

/// The highest percentile, no higher than `want`, that leaves at least
/// ten samples above it — a tail read from fewer is one outlier's value.
/// Falls back to the median (and reports so) for tiny samples.
pub fn tail(sorted: &[f64], want: f64) -> Tail {
    let n = sorted.len();
    let pct = LADDER
        .iter()
        .copied()
        .filter(|&p| p <= want)
        .find(|&p| beyond(n, p) >= 10)
        .unwrap_or(50.0);
    Tail {
        pct,
        value: percentile(sorted, pct),
        n,
    }
}

/// Samples strictly above the nearest-rank position of `pct`.
fn beyond(n: usize, pct: f64) -> usize {
    let rank = (pct / 100.0 * n as f64).ceil() as usize;
    n - rank.min(n)
}

/// Latency of a phase run as several slices: the median over slices of
/// each slice's p50 and of each slice's tail (at most p99, read as
/// [`tail`] does). A stall that hits one slice moves one of the values
/// the median is taken over, not the phase's whole tail. The returned
/// tail reports the lowest percentile and the smallest slice used.
pub fn sliced(slices: &[Vec<f64>]) -> (f64, Tail) {
    let mut p50s = Vec::new();
    let mut tails = Vec::new();
    let mut pct = f64::INFINITY;
    let mut n = usize::MAX;
    for slice in slices.iter().filter(|s| !s.is_empty()) {
        let mut v = slice.clone();
        v.sort_by(f64::total_cmp);
        p50s.push(percentile(&v, 50.0));
        let t = tail(&v, 99.0);
        tails.push(t.value);
        pct = pct.min(t.pct);
        n = n.min(t.n);
    }
    let value = median(&tails);
    (median(&p50s), Tail { pct, value, n })
}

/// Work over time across rounds of `(items, seconds)`: total items over
/// total time. Host CPU speed switches between regimes lasting seconds; a
/// median over rounds flips between them as their mix changes, while this
/// moves in proportion to the mix.
pub fn rate(rounds: &[(f64, f64)]) -> f64 {
    let (items, secs) = rounds
        .iter()
        .fold((0.0, 0.0), |(i, s), &(di, ds)| (i + di, s + ds));
    items / secs
}

/// Median of an unsorted sample.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of an empty sample");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartile, computed exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method),
/// so the spread printed here is the spread the run-to-run check sees.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n >= 2, "quartiles need at least two values");
    let cut = |i: usize| {
        // Position i*(n+1)/4 in 1-based order statistics, interpolated.
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (cut(1), cut(3))
}

/// Interquartile range as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v = ramp(100);
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        // 1000 samples: p99 leaves exactly 10 above it.
        let t = tail(&ramp(1000), 99.0);
        assert_eq!((t.pct, t.value, t.n), (99.0, 990.0, 1000));
        // 999 samples: p99 would leave 9, so fall to p98 (19 beyond).
        let t = tail(&ramp(999), 99.0);
        assert_eq!(t.pct, 98.0);
        assert_eq!(t.n, 999);
        // 200 samples: p95 leaves 10.
        assert_eq!(tail(&ramp(200), 99.0).pct, 95.0);
        // Never above the percentile asked for, however large the sample.
        assert_eq!(tail(&ramp(100_000), 99.0).pct, 99.0);
        assert_eq!(tail(&ramp(100_000), 99.9).pct, 99.9);
        // Tiny samples report the median.
        let t = tail(&ramp(12), 99.0);
        assert_eq!((t.pct, t.value), (50.0, 6.0));
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        assert_eq!(quartiles(&ramp(10)), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 1.0, 3.0, 2.0]), (1.25, 3.75));
        // statistics.quantiles([5, 9], n=4) == [4.0, 7.0, 10.0]
        assert_eq!(quartiles(&[9.0, 5.0]), (4.0, 10.0));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[1.0, 2.0, 4.0, 8.0, 16.0]), (1.5, 12.0));
    }

    #[test]
    fn sliced_takes_medians_over_slices() {
        let calm: Vec<f64> = ramp(1000);
        let mut stalled = ramp(1000);
        for x in stalled.iter_mut().skip(900) {
            *x = 1e6;
        }
        let (p50, t) = sliced(&[calm.clone(), stalled, calm.clone(), ramp(200)]);
        // p50s 500, 500, 500, 100; tails 990, 1e6, 990, 190 (p95 of 200).
        assert_eq!(p50, 500.0);
        assert_eq!(t.value, 990.0);
        assert_eq!((t.pct, t.n), (95.0, 200));
    }

    #[test]
    fn rate_is_total_work_over_total_time() {
        assert_eq!(rate(&[(100.0, 1.0), (100.0, 3.0)]), 50.0);
    }

    #[test]
    fn median_and_spread() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!((spread(&ramp(10)) - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(spread(&[2.0; 7]), 0.0);
    }
}
