//! Fixed-bucket latency histograms.
//!
//! Power-of-two nanosecond buckets: bucket 0 holds the value 0, bucket
//! `i >= 1` holds values in `[2^(i-1), 2^i)`. 64 buckets therefore cover
//! every `u64` duration with no allocation and O(1) recording — cheap
//! enough to build one per `(cat, name)` row of the run ledger.

/// A 64-bucket power-of-two histogram of nanosecond durations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; 64],
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

/// Bucket index for a value: 0 for 0, else `floor(log2(v)) + 1`.
#[inline]
fn bucket_of(v: u64) -> usize {
    (64 - v.leading_zeros()) as usize
}

impl Histogram {
    /// An empty histogram.
    pub const fn new() -> Self {
        Histogram {
            buckets: [0; 64],
            count: 0,
            sum: 0,
            max: 0,
        }
    }

    /// Record one duration (nanoseconds).
    #[inline]
    pub fn record(&mut self, ns: u64) {
        self.buckets[bucket_of(ns).min(63)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(ns);
        self.max = self.max.max(ns);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded values (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest recorded value (exact).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Approximate quantile `q` in `[0, 1]`: the geometric midpoint of
    /// the bucket containing the `ceil(q * count)`-th smallest value
    /// (clamped to the exact maximum). Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        if rank >= self.count {
            return self.max;
        }
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let est = if i == 0 {
                    0
                } else {
                    // Geometric midpoint of [2^(i-1), 2^i).
                    let lo = 1u64 << (i - 1);
                    lo + lo / 2
                };
                return est.min(self.max);
            }
        }
        self.max
    }

    /// Median shorthand.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 95th percentile shorthand.
    pub fn p95(&self) -> u64 {
        self.quantile(0.95)
    }

    /// 99th percentile shorthand.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_powers_of_two() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(1023), 10);
        assert_eq!(bucket_of(1024), 11);
        assert_eq!(bucket_of(u64::MAX), 64); // clamped to 63 in record()
    }

    #[test]
    fn record_tracks_count_sum_max() {
        let mut h = Histogram::new();
        for v in [5, 10, 100, 0] {
            h.record(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 115);
        assert_eq!(h.max(), 100);
    }

    #[test]
    fn extreme_values_do_not_panic() {
        let mut h = Histogram::new();
        h.record(u64::MAX);
        h.record(u64::MAX);
        assert_eq!(h.count(), 2);
        assert_eq!(h.max(), u64::MAX);
        assert_eq!(h.quantile(1.0), u64::MAX);
    }

    #[test]
    fn quantiles_bracket_the_data() {
        let mut h = Histogram::new();
        // 90 fast values (~1µs) and 10 slow (~1ms).
        for _ in 0..90 {
            h.record(1_000);
        }
        for _ in 0..10 {
            h.record(1_000_000);
        }
        let p50 = h.p50();
        let p95 = h.p95();
        let p99 = h.p99();
        // Power-of-two buckets: estimates are within 2x of the truth.
        assert!((512..=2048).contains(&p50), "p50 {p50}");
        assert!((524_288..=1_048_576 * 2).contains(&p95), "p95 {p95}");
        assert!((524_288..=1_048_576 * 2).contains(&p99), "p99 {p99}");
        assert!(p50 < p99);
        assert!(p95 <= p99);
    }

    #[test]
    fn quantile_of_empty_is_zero() {
        let h = Histogram::new();
        assert_eq!(h.quantile(0.5), 0);
    }

    #[test]
    fn quantile_never_exceeds_exact_max() {
        let mut h = Histogram::new();
        h.record(1_000_000);
        assert_eq!(h.quantile(0.5), 1_000_000);
        assert_eq!(h.quantile(1.0), 1_000_000);
    }
}
