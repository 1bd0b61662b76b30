//! Plexbench's own arithmetic: exact percentiles over raw samples,
//! medians and quartiles. The start-up self-check exercises it, because
//! every reported latency goes through it.

/// Exact nearest-rank percentile of an ascending slice: the smallest
/// sample with at least `p` percent of the samples at or below it.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest percentile that still has at least ten samples beyond it,
/// as `(percent, value)`; `None` with fewer than eleven samples.
pub fn tail_percentile(sorted: &[u64]) -> Option<(f64, u64)> {
    let n = sorted.len();
    (n > 10).then(|| (100.0 * (n - 10) as f64 / n as f64, sorted[n - 11]))
}

/// Mean of a slice (0 when empty).
pub fn mean(samples: &[u64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().map(|&s| s as f64).sum::<f64>() / samples.len() as f64
    }
}

/// Median of unsorted floats (sorts in place; 0 when empty).
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(|a, b| a.total_cmp(b));
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// `[first quartile, median, third quartile]` of unsorted floats, computed
/// exactly as Python's `statistics.quantiles(values, n=4)` does (the
/// exclusive method), so the spread printed here is the one the
/// acceptance procedure computes. Needs at least two values.
pub fn quartiles(values: &mut [f64]) -> [f64; 3] {
    values.sort_by(|a, b| a.total_cmp(b));
    let len = values.len() as i64;
    assert!(len >= 2, "quartiles need two values");
    [1i64, 2, 3].map(|i| {
        let j = (i * (len + 1) / 4).clamp(1, len - 1);
        let delta = (i * (len + 1) - j * 4) as f64;
        (values[j as usize - 1] * (4.0 - delta) + values[j as usize] * delta) / 4.0
    })
}
