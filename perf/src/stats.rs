//! Order statistics for the noise protocol (README "Noise protocol").

/// The percentiles a latency distribution may be reported at, ascending,
/// each with the share of samples beyond it in parts per thousand.
const LADDER: [(f64, usize); 5] = [(50.0, 500), (90.0, 100), (95.0, 50), (99.0, 10), (99.9, 1)];

/// The highest percentile of [`LADDER`] that still has at least ten of
/// `samples` lying beyond it, or `None` when even the median does not.
pub fn highest_supported_percentile(samples: usize) -> Option<f64> {
    LADDER
        .iter()
        .rfind(|(_, beyond)| samples * beyond >= 10 * 1000)
        .map(|(percentile, _)| *percentile)
}

/// Fastest, quartiles and median of a set of host timings.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spread {
    pub fastest: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
}

impl Spread {
    /// # Panics
    ///
    /// Panics on an empty sample set: every caller times at least one
    /// repetition.
    pub fn of(samples: &[f64]) -> Spread {
        assert!(!samples.is_empty(), "no samples to summarise");
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        Spread {
            fastest: sorted[0],
            q1: quantile(&sorted, 0.25),
            median: quantile(&sorted, 0.5),
            q3: quantile(&sorted, 0.75),
        }
    }

    pub fn iqr(&self) -> f64 {
        self.q3 - self.q1
    }
}

/// Linear interpolation between closest ranks of an ascending slice.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_rule_keeps_ten_samples_beyond() {
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(199), Some(90.0));
        assert_eq!(highest_supported_percentile(200), Some(95.0));
        assert_eq!(highest_supported_percentile(999), Some(95.0));
        assert_eq!(highest_supported_percentile(1_000), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
    }

    #[test]
    fn spread_picks_fastest_median_and_quartiles() {
        let s = Spread::of(&[5.0, 1.0, 3.0, 2.0, 4.0]);
        assert_eq!(
            s,
            Spread {
                fastest: 1.0,
                q1: 2.0,
                median: 3.0,
                q3: 4.0
            }
        );
        assert_eq!(s.iqr(), 2.0);
        // Even count: the median interpolates, the fastest does not.
        let s = Spread::of(&[4.0, 1.0, 2.0, 3.0]);
        assert_eq!((s.fastest, s.median), (1.0, 2.5));
        assert_eq!(Spread::of(&[7.0]).iqr(), 0.0);
    }
}
