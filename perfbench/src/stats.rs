//! Exact-sample statistics: every timing is a per-request nanosecond
//! sample, and quantiles are nearest-rank over the sorted samples.

/// Nearest-rank quantile `q` in `(0, 1]` of ascending `sorted` samples:
/// the smallest sample with at least `q` of the samples at or below it.
pub fn nearest_rank(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Summary of one set of nanosecond samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Nearest-rank median, ns.
    pub p50: u64,
    /// Nearest-rank 90th percentile, ns.
    pub p90: u64,
    /// Nearest-rank 99th percentile, ns.
    pub p99: u64,
    /// Arithmetic mean, ns.
    pub mean: f64,
}

impl Summary {
    /// Summarizes `samples` (any order); `None` when empty.
    pub fn of(samples: &[u64]) -> Option<Summary> {
        if samples.is_empty() {
            return None;
        }
        let mut sorted = samples.to_vec();
        sorted.sort_unstable();
        Some(Summary {
            n: sorted.len(),
            p50: nearest_rank(&sorted, 0.50),
            p90: nearest_rank(&sorted, 0.90),
            p99: nearest_rank(&sorted, 0.99),
            mean: sorted.iter().map(|&s| s as f64).sum::<f64>() / sorted.len() as f64,
        })
    }
}

/// One window of a timed phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Window {
    /// Nearest-rank median latency, ns.
    pub p50: u64,
    /// Nearest-rank tail-quantile latency, ns.
    pub tail: u64,
    /// Requests completed per second.
    pub rate: f64,
}

/// Cuts a phase of `phase_us` into `count` equal windows by completion
/// time (`timeline` holds `(completion µs, latency ns)`) and summarizes
/// each. Windows without samples are skipped.
pub fn windows(timeline: &[(u32, u32)], phase_us: u64, count: usize, tail: f64) -> Vec<Window> {
    let count = count.max(1);
    let width = (phase_us / count as u64).max(1);
    let mut buckets: Vec<Vec<u64>> = vec![Vec::new(); count];
    for &(end, ns) in timeline {
        let w = ((u64::from(end) / width) as usize).min(count - 1);
        buckets[w].push(u64::from(ns));
    }
    buckets
        .into_iter()
        .filter(|b| !b.is_empty())
        .map(|mut b| {
            b.sort_unstable();
            Window {
                p50: nearest_rank(&b, 0.5),
                tail: nearest_rank(&b, tail),
                rate: b.len() as f64 / (width as f64 / 1e6),
            }
        })
        .collect()
}

/// Nearest-rank quantile `q` in `(0, 1]` of `values` (any order).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of nothing");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_the_definition() {
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(nearest_rank(&sorted, 0.50), 50);
        assert_eq!(nearest_rank(&sorted, 0.90), 90);
        assert_eq!(nearest_rank(&sorted, 0.99), 99);
        assert_eq!(nearest_rank(&sorted, 1.0), 100);
        assert_eq!(nearest_rank(&[7], 0.5), 7);
        assert_eq!(nearest_rank(&[1, 2], 0.5), 1);
    }

    #[test]
    fn summary_sorts_before_ranking() {
        let samples: Vec<u64> = (1..=2000).rev().collect();
        let s = Summary::of(&samples).expect("non-empty");
        assert_eq!((s.n, s.p50, s.p90, s.p99), (2000, 1000, 1800, 1980));
        assert!((s.mean - 1000.5).abs() < 1e-9);
        assert!(Summary::of(&[]).is_none());
    }

    #[test]
    fn windows_cut_by_completion_time() {
        // 10 requests of 1 µs each in the first half, 5 of 3 µs in the second.
        let mut timeline: Vec<(u32, u32)> = (0..10).map(|i| (i * 50, 1_000)).collect();
        timeline.extend((0..5).map(|i| (500 + i * 100, 3_000)));
        let w = windows(&timeline, 1_000, 2, 0.99);
        assert_eq!(w.len(), 2);
        assert_eq!((w[0].p50, w[0].tail, w[0].rate), (1_000, 1_000, 20_000.0));
        assert_eq!((w[1].p50, w[1].rate), (3_000, 10_000.0));
    }

    #[test]
    fn float_quantiles_rank_like_integer_ones() {
        let values: Vec<f64> = (1..=20).rev().map(f64::from).collect();
        assert_eq!(quantile(&values, 0.25), 5.0);
        assert_eq!(quantile(&values, 0.75), 15.0);
        assert_eq!(quantile(&[3.0], 0.25), 3.0);
    }

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
