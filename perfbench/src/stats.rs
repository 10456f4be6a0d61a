//! Summary statistics: percentiles under the "at least ten samples
//! beyond" rule, and the run-to-run spread the steadiness check uses.

/// A percentile is reported only if at least this many samples lie
/// beyond it.
pub const MIN_BEYOND: usize = 10;

/// Tail percentiles considered for reporting, highest first.
pub const TAIL_LADDER: [f64; 3] = [0.999, 0.99, 0.9];

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64).ceil() as usize).clamp(1, n)
}

/// Samples strictly beyond the nearest-rank percentile `p` of `n`.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, p)
    }
}

/// Nearest-rank percentile of an ascending slice; `None` if empty.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        None
    } else {
        Some(sorted[rank(sorted.len(), p) - 1])
    }
}

/// The highest percentile of [`TAIL_LADDER`] with at least
/// [`MIN_BEYOND`] samples beyond it, as `(p, value)`; `None` when the
/// sample is too small for any of them.
pub fn tail(sorted: &[f64]) -> Option<(f64, f64)> {
    TAIL_LADDER
        .iter()
        .find(|&&p| samples_beyond(sorted.len(), p) >= MIN_BEYOND)
        .and_then(|&p| percentile(sorted, p).map(|v| (p, v)))
}

/// Sorts a sample ascending (NaN-free by construction: durations).
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// The median, averaging the middle pair (Python's
/// `statistics.median`).
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values.to_vec());
    let n = v.len();
    assert!(n > 0, "median of an empty sample");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartile as Python's
/// `statistics.quantiles(values, n=4)` (exclusive method) gives them.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values.to_vec());
    let ld = v.len();
    assert!(ld >= 2, "quartiles need at least two values");
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(3))
}

/// Interquartile range over the median: the run-to-run spread that
/// must stay within a metric's bound.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values).abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_a_thousand_samples() {
        // 999 samples: rank(0.99) = 990, 9 beyond -> no p99.
        assert_eq!(samples_beyond(999, 0.99), 9);
        assert_eq!(samples_beyond(1000, 0.99), 10);
        let small = sorted((0..999).map(f64::from).collect());
        assert_eq!(tail(&small).map(|(p, _)| p), Some(0.9));
        let big = sorted((0..1000).map(f64::from).collect());
        assert_eq!(tail(&big), Some((0.99, 989.0)));
        let huge = sorted((0..10_000).map(f64::from).collect());
        assert_eq!(tail(&huge).map(|(p, _)| p), Some(0.999));
    }

    #[test]
    fn tiny_samples_have_no_tail() {
        // An infer-mesh window holds a few passes of five descriptions:
        // not even p90 has ten samples beyond it, so no tail is shown.
        let mesh = sorted((0..15).map(f64::from).collect());
        assert_eq!(tail(&mesh), None);
        assert_eq!(percentile(&mesh, 0.5), Some(7.0));
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn quartiles_match_python() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert_eq!(median(&v), 5.5);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles([5, 1], n=4) == [0.0, 3.0, 6.0]
        assert_eq!(quartiles(&[5.0, 1.0]), (0.0, 6.0));
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }
}
