//! Statistics for experiment metrics.

use crate::time::SimTime;

/// A full-sample summary with percentiles, built from stored samples.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    sorted: Vec<f64>,
    sum: f64,
    nan_dropped: usize,
}

impl Summary {
    /// Builds a summary from samples (any order).
    ///
    /// NaN samples are dropped (and counted in
    /// [`Summary::nan_dropped`]) rather than panicking: a single NaN
    /// from a metrics path is a missing datum, not a reason to abort a
    /// run mid-flight — the same convention [`Summary::percentile`]
    /// applies to out-of-range requests.
    pub fn from_samples(mut samples: Vec<f64>) -> Self {
        let before = samples.len();
        samples.retain(|s| !s.is_nan());
        let nan_dropped = before - samples.len();
        samples.sort_by(f64::total_cmp);
        let sum = samples.iter().sum();
        Summary {
            sorted: samples,
            sum,
            nan_dropped,
        }
    }

    /// Builds a summary of latencies in seconds.
    pub fn from_times(times: &[SimTime]) -> Self {
        Self::from_samples(times.iter().map(|t| t.as_secs_f64()).collect())
    }

    /// Number of samples.
    pub fn count(&self) -> usize {
        self.sorted.len()
    }

    /// NaN samples dropped while building the summary.
    pub fn nan_dropped(&self) -> usize {
        self.nan_dropped
    }

    /// Mean, or `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        (!self.sorted.is_empty()).then(|| self.sum / self.sorted.len() as f64)
    }

    /// Minimum.
    pub fn min(&self) -> Option<f64> {
        self.sorted.first().copied()
    }

    /// Maximum.
    pub fn max(&self) -> Option<f64> {
        self.sorted.last().copied()
    }

    /// The `p`-th percentile (0–100), nearest-rank method.
    ///
    /// Returns `None` when the summary is empty, or when `p` is NaN or
    /// outside `[0, 100]` — an out-of-range request is a caller bug,
    /// but report code feeding user-supplied percentiles should get a
    /// missing datum, not a panic mid-run.
    pub fn percentile(&self, p: f64) -> Option<f64> {
        // `!(contains)` rather than a negated range test so NaN (for
        // which every comparison is false) also lands in the None arm.
        if !(0.0..=100.0).contains(&p) {
            return None;
        }
        if self.sorted.is_empty() {
            return None;
        }
        let rank = ((p / 100.0) * self.sorted.len() as f64).ceil() as usize;
        Some(self.sorted[rank.saturating_sub(1).min(self.sorted.len() - 1)])
    }

    /// Median (50th percentile).
    pub fn median(&self) -> Option<f64> {
        self.percentile(50.0)
    }
}

/// Fixed-width time-bucketed counter, e.g. committed transactions per
/// second over the run — the series behind throughput plots.
///
/// The dense bucket vector is capped at [`TimeBuckets::MAX_BUCKETS`]
/// entries: one stray event at a huge `SimTime` must not allocate a
/// bucket per intervening width (which could exhaust memory on long
/// runs). Events past the cap land in a single overflow counter
/// ([`TimeBuckets::overflow`]) instead.
#[derive(Debug, Clone, PartialEq)]
pub struct TimeBuckets {
    width: SimTime,
    counts: Vec<u64>,
    overflow: u64,
}

impl TimeBuckets {
    /// Maximum number of dense buckets (64 Ki); later events count into
    /// the overflow bucket.
    pub const MAX_BUCKETS: usize = 1 << 16;

    /// Creates buckets of the given width.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero.
    pub fn new(width: SimTime) -> Self {
        assert!(width > SimTime::ZERO, "bucket width must be positive");
        TimeBuckets {
            width,
            counts: Vec::new(),
            overflow: 0,
        }
    }

    /// Records one occurrence at time `at`. Events beyond
    /// [`TimeBuckets::MAX_BUCKETS`] widths go to the overflow bucket.
    pub fn record(&mut self, at: SimTime) {
        let idx = (at.as_micros() / self.width.as_micros()) as usize;
        if idx >= Self::MAX_BUCKETS {
            self.overflow += 1;
            return;
        }
        if idx >= self.counts.len() {
            self.counts.resize(idx + 1, 0);
        }
        self.counts[idx] += 1;
    }

    /// The per-bucket counts (dense region only; see
    /// [`TimeBuckets::overflow`]).
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Events recorded past the dense bucket cap.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Peak bucket count (dense region; the overflow bucket aggregates
    /// an unbounded time span, so it is not a comparable bucket).
    pub fn peak(&self) -> u64 {
        self.counts.iter().copied().max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_percentiles() {
        let s = Summary::from_samples((1..=100).map(f64::from).collect());
        assert_eq!(s.percentile(50.0), Some(50.0));
        assert_eq!(s.percentile(95.0), Some(95.0));
        assert_eq!(s.percentile(100.0), Some(100.0));
        assert_eq!(s.percentile(0.0), Some(1.0));
        assert_eq!(s.median(), Some(50.0));
        assert_eq!(s.mean(), Some(50.5));
    }

    #[test]
    fn summary_empty() {
        let s = Summary::from_samples(vec![]);
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), None);
        assert_eq!(s.percentile(50.0), None);
    }

    #[test]
    fn summary_single_sample() {
        let s = Summary::from_samples(vec![7.5]);
        assert_eq!(s.median(), Some(7.5));
        assert_eq!(s.min(), s.max());
    }

    #[test]
    fn summary_from_times() {
        let s = Summary::from_times(&[SimTime::from_millis(100), SimTime::from_millis(300)]);
        assert_eq!(s.mean(), Some(0.2));
    }

    #[test]
    fn out_of_range_percentile_is_none() {
        let s = Summary::from_samples(vec![1.0, 2.0, 3.0]);
        assert_eq!(s.percentile(101.0), None);
        assert_eq!(s.percentile(-0.5), None);
        assert_eq!(s.percentile(f64::NAN), None);
        // Boundary values stay valid.
        assert_eq!(s.percentile(0.0), Some(1.0));
        assert_eq!(s.percentile(100.0), Some(3.0));
    }

    #[test]
    fn nan_samples_are_dropped_not_fatal() {
        // Regression: a single NaN from a metrics path used to panic
        // mid-run via `partial_cmp(..).expect(..)`.
        let s = Summary::from_samples(vec![3.0, f64::NAN, 1.0, f64::NAN, 2.0]);
        assert_eq!(s.count(), 3);
        assert_eq!(s.nan_dropped(), 2);
        assert_eq!(s.min(), Some(1.0));
        assert_eq!(s.max(), Some(3.0));
        assert_eq!(s.median(), Some(2.0));
        assert_eq!(s.mean(), Some(2.0));
        // All-NaN input degenerates to the empty summary.
        let empty = Summary::from_samples(vec![f64::NAN]);
        assert_eq!(empty.count(), 0);
        assert_eq!(empty.nan_dropped(), 1);
        assert_eq!(empty.percentile(50.0), None);
    }

    #[test]
    fn time_buckets() {
        let mut b = TimeBuckets::new(SimTime::from_secs(1));
        b.record(SimTime::from_millis(100));
        b.record(SimTime::from_millis(900));
        b.record(SimTime::from_millis(1500));
        assert_eq!(b.counts(), &[2, 1]);
        assert_eq!(b.peak(), 2);
    }

    #[test]
    fn sparse_late_event_does_not_exhaust_memory() {
        // Regression: one event ~10^9 bucket widths out used to resize
        // the dense vector to `idx + 1` entries (gigabytes of zeros).
        let mut b = TimeBuckets::new(SimTime::from_millis(1));
        b.record(SimTime::from_millis(5));
        b.record(SimTime::from_secs(1_000_000));
        assert!(b.counts().len() <= TimeBuckets::MAX_BUCKETS);
        assert_eq!(b.overflow(), 1);
        assert_eq!(b.peak(), 1);
        // The last dense bucket still records normally.
        b.record(SimTime::from_millis(TimeBuckets::MAX_BUCKETS as u64 - 1));
        assert_eq!(b.counts().len(), TimeBuckets::MAX_BUCKETS);
        assert_eq!(b.counts()[TimeBuckets::MAX_BUCKETS - 1], 1);
        assert_eq!(b.overflow(), 1);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_bucket_width_panics() {
        TimeBuckets::new(SimTime::ZERO);
    }
}
