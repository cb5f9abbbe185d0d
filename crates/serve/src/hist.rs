//! A dependency-free log-bucketed latency histogram.
//!
//! The serve bench needs p50/p99/p999 over millions of samples without
//! storing them, and without a crates.io histogram dependency (the
//! workspace is registry-free). The classic trick: bucket by the
//! sample's binary magnitude plus a few linear sub-bucket bits — here
//! [`SUB_BITS`] = 3, i.e. 8 sub-buckets per power of two — giving a
//! fixed 512-slot array covering the full `u64` nanosecond range with a
//! worst-case relative quantization error of 1/8 (12.5%), which is far
//! below the 50 µs acceptance ceiling's slack.

/// Linear sub-bucket bits per binary magnitude.
const SUB_BITS: u32 = 3;
/// Sub-buckets per power of two.
const SUBS: usize = 1 << SUB_BITS;
/// Total bucket count: 64 magnitudes × 8 sub-buckets.
const BUCKETS: usize = 64 * SUBS;

/// Fixed-footprint histogram of `u64` samples (nanoseconds, by
/// convention here, though the math is unit-agnostic).
#[derive(Clone)]
pub struct LatencyHistogram {
    buckets: Box<[u64; BUCKETS]>,
    count: u64,
    max: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

fn bucket_of(v: u64) -> usize {
    // Values below SUBS map 1:1 onto the first buckets; larger values
    // take the top SUB_BITS bits after the leading one as the
    // sub-bucket.
    if v < SUBS as u64 {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros();
    let sub = (v >> (msb - SUB_BITS)) as usize & (SUBS - 1);
    (msb as usize) * SUBS + sub
}

/// The (inclusive) upper bound of a bucket — the value reported for any
/// sample that landed in it, biasing percentiles conservatively upward.
fn bucket_upper(b: usize) -> u64 {
    if b < SUBS {
        return b as u64;
    }
    let msb = (b / SUBS) as u32;
    let sub = (b % SUBS) as u128;
    // First value of the next sub-bucket, minus one. Addition, not OR:
    // when `sub + 1 == SUBS` the carry must propagate into the next
    // magnitude. Widened to u128 before shifting: for msb=63 the
    // sub-bucket term `(sub + 1) << 60` itself overflows u64 on the top
    // sub-bucket, so the whole expression — not just the add — must be
    // computed wide, then clamped to the top of the u64 range.
    let upper = (1u128 << msb) + ((sub + 1) << (msb - SUB_BITS)) - 1;
    u64::try_from(upper).unwrap_or(u64::MAX)
}

impl LatencyHistogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Self { buckets: Box::new([0; BUCKETS]), count: 0, max: 0 }
    }

    /// Record one sample.
    pub fn record(&mut self, v: u64) {
        self.buckets[bucket_of(v)] += 1;
        self.count += 1;
        self.max = self.max.max(v);
    }

    /// Samples recorded.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Largest sample recorded (exact, not bucketed).
    #[must_use]
    pub fn max(&self) -> u64 {
        self.max
    }

    /// The value at quantile `q` in `[0, 1]` — the upper bound of the
    /// bucket holding the `ceil(q · count)`-th smallest sample (so the
    /// estimate can only over-report, never under-report, a latency).
    /// Returns 0 for an empty histogram.
    #[must_use]
    pub fn percentile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let clamped = q.clamp(0.0, 1.0);
        // .ceil() then u64: rank is in [1, count], an exact integer.
        #[allow(clippy::cast_possible_truncation)]
        let rank = ((clamped * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (b, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                // The top bucket's upper bound can overshoot the true
                // maximum by up to 12.5%; the exact max is tighter.
                return bucket_upper(b).min(self.max);
            }
        }
        self.max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        let mut h = LatencyHistogram::new();
        for v in 0..8u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 8);
        assert_eq!(h.percentile(0.0), 0);
        assert_eq!(h.percentile(1.0), 7);
    }

    #[test]
    fn relative_error_is_bounded() {
        let mut h = LatencyHistogram::new();
        for exp in 0..50u32 {
            let v = (1u64 << exp) + (1u64 << exp) / 3;
            h.record(v);
            let b = bucket_of(v);
            let upper = bucket_upper(b);
            assert!(upper >= v, "upper {upper} < {v}");
            assert!(
                (upper - v) as f64 <= v as f64 / 8.0 + 1.0,
                "error too large at {v}: upper {upper}"
            );
        }
    }

    #[test]
    fn percentiles_are_ordered_and_conservative() {
        let mut h = LatencyHistogram::new();
        // 10000 samples at ~1µs, 10 at ~100µs, 1 at ~5ms.
        for i in 0..10_000u64 {
            h.record(1_000 + i % 32);
        }
        for _ in 0..10 {
            h.record(100_000);
        }
        h.record(5_000_000);
        let p50 = h.percentile(0.50);
        let p99 = h.percentile(0.99);
        let p999 = h.percentile(0.999);
        assert!(p50 >= 1_000 && p50 <= 1_200, "p50 {p50}");
        assert!(p99 <= 1_200, "p99 {p99} should still be in the bulk");
        assert!(p999 >= 100_000, "p999 {p999} should see the outliers");
        assert!(p50 <= p99 && p99 <= p999);
        assert_eq!(h.percentile(1.0), 5_000_000);
    }

    /// Edge values around the linear/log boundary and at the very top of
    /// the u64 range. Before the widening fix, `bucket_upper` computed
    /// `(sub + 1) << 60` in u64 for the top sub-bucket of msb 63 —
    /// overflow panic in debug, silent wrap (and a tiny bogus upper
    /// bound) in release.
    #[test]
    fn round_trip_holds_at_the_edges() {
        for v in [0, SUBS as u64 - 1, SUBS as u64, u64::MAX] {
            let b = bucket_of(v);
            assert!(b < BUCKETS, "bucket {b} out of range for {v}");
            let upper = bucket_upper(b);
            assert!(upper >= v, "bucket_upper({b}) = {upper} < sample {v}");
        }
        // The linear region is exact; the top bucket saturates exactly at
        // the end of the u64 range.
        assert_eq!(bucket_upper(bucket_of(0)), 0);
        assert_eq!(bucket_upper(bucket_of(SUBS as u64 - 1)), SUBS as u64 - 1);
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
        assert_eq!(bucket_upper(BUCKETS - 1), u64::MAX);
    }

    /// Recording near-u64::MAX samples must keep percentiles sane (the
    /// user-visible symptom of the overflow was a corrupted p100).
    #[test]
    fn extreme_samples_report_conservatively() {
        let mut h = LatencyHistogram::new();
        h.record(u64::MAX);
        h.record(u64::MAX - 1);
        h.record(1);
        assert_eq!(h.percentile(1.0), u64::MAX);
        assert!(h.percentile(0.9) >= u64::MAX - 1);
    }
}
