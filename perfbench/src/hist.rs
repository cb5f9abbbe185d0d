//! Fixed-size timing storage for the benchmark.
//!
//! [`Hist`] is a log-linear histogram with 128 sub-buckets per octave:
//! values below 128 are exact, larger ones land in buckets at most
//! 1/128 (0.78%) wide and are read back at the bucket midpoint, so a
//! percentile is off by at most 0.4% — far finer than any bound in
//! `BENCHMARK.json`. Its storage is allocated once and never grows, so
//! recording millions of samples does not move `peak_rss_mb`.
//!
//! [`SpanRing`] is the benchmark's own span recorder: a fixed-capacity
//! ring of `(id, name, duration)` records with `&'static str` names.
//! Spans that share an id belong to one sampled operation (one serve
//! batch, one fleet epoch); a full ring drops the oldest record and
//! counts it.

/// Sub-buckets per octave, as a power of two.
const SUB_BITS: u32 = 7;
/// Sub-buckets per octave.
const SUBS: usize = 1 << SUB_BITS;
/// Bucket count covering the whole `u64` range.
const BUCKETS: usize = (64 - SUB_BITS as usize + 1) * SUBS;

/// A fixed-size log-linear histogram of `u64` samples (nanoseconds).
pub struct Hist {
    counts: Vec<u64>,
    total: u64,
}

impl Default for Hist {
    fn default() -> Self {
        Self::new()
    }
}

impl Hist {
    /// An empty histogram; its storage is allocated here, once.
    #[must_use]
    pub fn new() -> Self {
        Self {
            counts: vec![0; BUCKETS],
            total: 0,
        }
    }

    fn index(v: u64) -> usize {
        if v < SUBS as u64 {
            return v as usize;
        }
        let msb = 63 - v.leading_zeros();
        let shift = msb - SUB_BITS;
        let sub = ((v >> shift) as usize) - SUBS;
        (shift as usize + 1) * SUBS + sub
    }

    /// The midpoint of bucket `i`.
    fn midpoint(i: usize) -> f64 {
        if i < SUBS {
            return i as f64;
        }
        let shift = (i / SUBS - 1) as u32;
        let lower = ((SUBS + i % SUBS) as u64) << shift;
        let width = 1u64 << shift;
        lower as f64 + (width as f64 - 1.0) / 2.0
    }

    /// Record one sample.
    pub fn record(&mut self, v: u64) {
        self.counts[Self::index(v)] += 1;
        self.total += 1;
    }

    /// Record a duration in nanoseconds, saturating at `u64::MAX`.
    pub fn record_duration(&mut self, d: std::time::Duration) {
        self.record(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Samples recorded.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Forget every sample; the storage is kept.
    pub fn clear(&mut self) {
        self.counts.iter_mut().for_each(|c| *c = 0);
        self.total = 0;
    }

    /// The `q` quantile (`0 < q <= 1`) by the nearest-rank rule, read at
    /// the bucket midpoint; 0 when empty.
    #[must_use]
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = (q.clamp(0.0, 1.0) * self.total as f64).ceil().max(1.0);
        let mut seen = 0u64;
        for (i, c) in self.counts.iter().enumerate() {
            seen += c;
            if seen as f64 >= rank {
                return Self::midpoint(i);
            }
        }
        Self::midpoint(BUCKETS - 1)
    }
}

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct SpanRec {
    /// The sampled operation this span belongs to.
    pub id: u64,
    /// What was timed.
    pub name: &'static str,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
}

/// A fixed-capacity ring of spans.
pub struct SpanRing {
    buf: Vec<SpanRec>,
    cap: usize,
    next: usize,
    recorded: u64,
    dropped: u64,
}

impl SpanRing {
    /// A ring holding at most `cap` spans (allocated here, once).
    #[must_use]
    pub fn with_capacity(cap: usize) -> Self {
        let cap = cap.max(1);
        Self {
            buf: Vec::with_capacity(cap),
            cap,
            next: 0,
            recorded: 0,
            dropped: 0,
        }
    }

    /// Record one span, overwriting the oldest when full.
    pub fn record(&mut self, id: u64, name: &'static str, dur: std::time::Duration) {
        let rec = SpanRec {
            id,
            name,
            dur_ns: u64::try_from(dur.as_nanos()).unwrap_or(u64::MAX),
        };
        if self.buf.len() < self.cap {
            self.buf.push(rec);
        } else {
            self.buf[self.next] = rec;
            self.dropped += 1;
        }
        self.next = (self.next + 1) % self.cap;
        self.recorded += 1;
    }

    /// Spans recorded, including any since dropped.
    #[must_use]
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// Spans overwritten because the ring was full.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Sum of the durations of spans named `name` with this id.
    #[must_use]
    pub fn sum_for(&self, id: u64, name: &str) -> Option<u64> {
        let mut found = false;
        let mut sum = 0u64;
        for s in self.buf.iter().filter(|s| s.id == id && s.name == name) {
            found = true;
            sum = sum.saturating_add(s.dur_ns);
        }
        found.then_some(sum)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact_and_large_ones_within_half_a_percent() {
        let mut h = Hist::new();
        h.record(5);
        assert_eq!(h.quantile(0.5), 5.0);
        for v in [1_000u64, 123_456, 9_876_543_210] {
            let mut h = Hist::new();
            h.record(v);
            let got = h.quantile(0.5);
            assert!(
                (got - v as f64).abs() / (v as f64) < 0.004,
                "{v} read back as {got}"
            );
        }
    }

    #[test]
    fn quantiles_follow_the_nearest_rank_rule() {
        let mut h = Hist::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.quantile(0.5), 50.0);
        assert_eq!(h.quantile(0.99), 99.0);
        assert_eq!(h.quantile(1.0), 100.0);
        h.clear();
        assert_eq!(h.quantile(0.5), 0.0);
    }

    #[test]
    fn bucket_index_is_monotone_and_in_range() {
        let mut last = 0;
        for shift in 0..64 {
            for v in [1u64 << shift, (1u64 << shift) | 1, u64::MAX >> (63 - shift)] {
                let i = Hist::index(v);
                assert!(i < BUCKETS);
                assert!(i >= last || v < (1u64 << shift));
                last = last.max(i);
            }
        }
    }

    #[test]
    fn ring_keeps_a_fixed_capacity_and_joins_by_id() {
        let mut r = SpanRing::with_capacity(3);
        let d = std::time::Duration::from_nanos(10);
        r.record(1, "a", d);
        r.record(1, "a", d);
        r.record(2, "b", d);
        assert_eq!(r.sum_for(1, "a"), Some(20));
        r.record(3, "a", d);
        assert_eq!(r.dropped(), 1);
        assert_eq!(r.recorded(), 4);
        assert_eq!(r.sum_for(1, "a"), Some(10));
        assert_eq!(r.sum_for(9, "a"), None);
    }
}
