//! Order statistics for the benchmark's reports.

/// A sample's median and quartiles, by the same rule as Python's
/// `statistics.quantiles(values, n=4)` (the "exclusive" method), so the
/// spreads this tool prints match those computed from its raw values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Summary {
    /// Summarises `values` (any order). A single value is its own
    /// quartiles. Panics on an empty sample: every metric has one.
    pub fn of(values: &[f64]) -> Summary {
        assert!(!values.is_empty(), "summary of an empty sample");
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        if n == 1 {
            return Summary {
                q1: v[0],
                median: v[0],
                q3: v[0],
            };
        }
        let cut = |i: usize| -> f64 {
            let m = n + 1;
            let j = (i * m / 4).clamp(1, n - 1);
            let delta = (i * m) as f64 - (j * 4) as f64;
            (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
        };
        Summary {
            q1: cut(1),
            median: cut(2),
            q3: cut(3),
        }
    }

    /// Distance between the quartiles as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            return 0.0;
        }
        (self.q3 - self.q1) / self.median.abs()
    }
}

/// The exact nearest-rank percentile of a sorted sample: the value at
/// rank `ceil(p * n)`, with `p = per_10k / 10_000` (integer arithmetic,
/// so 95 % of 200 samples is rank 190, not 191).
pub fn nearest_rank(sorted: &[u64], per_10k: u64) -> u64 {
    sorted[rank(sorted.len(), per_10k) - 1]
}

fn rank(n: usize, per_10k: u64) -> usize {
    assert!(n > 0, "percentile of an empty sample");
    let r = (per_10k as usize * n).div_ceil(10_000);
    r.clamp(1, n)
}

/// Samples strictly beyond the nearest-rank percentile.
fn beyond(n: usize, per_10k: u64) -> usize {
    n - rank(n, per_10k)
}

/// Whether a sample of `n` supports reporting the percentile: at least
/// ten samples must lie beyond it.
pub fn supported(n: usize, per_10k: u64) -> bool {
    n > 0 && beyond(n, per_10k) >= 10
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        let s = Summary::of(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.5, 3.0, 4.5));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.25, 2.5, 3.75));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = Summary::of(&[2.0, 1.0]);
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
        let s = Summary::of(&[7.0]);
        assert_eq!((s.q1, s.median, s.q3), (7.0, 7.0, 7.0));
        assert_eq!(Summary::of(&[1.0, 2.0, 3.0, 4.0]).spread(), 1.0);
    }

    #[test]
    fn nearest_rank_is_exact() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(nearest_rank(&v, 5000), 50);
        assert_eq!(nearest_rank(&v, 9500), 95);
        assert_eq!(nearest_rank(&v, 9999), 100);
        assert_eq!(nearest_rank(&v, 0), 1);
        assert_eq!(nearest_rank(&v, 10_000), 100);
        // 95 % of 200 is rank 190 exactly (float math would say 191).
        let v: Vec<u64> = (1..=200).collect();
        assert_eq!(nearest_rank(&v, 9500), 190);
        assert_eq!(nearest_rank(&[42], 5000), 42);
    }

    #[test]
    fn ten_samples_beyond_rule() {
        // 199 999 round trips: p99.99 is rank 199 980, 19 samples beyond.
        assert_eq!(beyond(199_999, 9999), 19);
        assert!(supported(199_999, 9999));
        assert!(!supported(99_999, 9999));
        assert!(supported(100_000, 9999));
        // 256 traced PDUs support p95 (12 beyond) but not p99 (2 beyond);
        // the anatomy run's 1024 leave exactly 10 beyond p99.
        assert!(supported(256, 9500));
        assert!(!supported(256, 9900));
        assert_eq!(beyond(1024, 9900), 10);
        assert!(supported(1000, 9900));
        assert!(!supported(999, 9900));
        assert!(!supported(0, 5000));
    }
}
