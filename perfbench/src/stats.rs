//! Sample summaries: medians, and the highest percentile that still has
//! at least ten samples beyond it.

/// A summarized sample set.
#[derive(Clone, Debug)]
pub struct Summary {
    /// Median (mean of the two middle samples for an even count).
    pub median: f64,
    /// `(percentile, value)` of the highest whole percentile with at least
    /// [`TAIL_SAMPLES`] samples strictly beyond its rank, if any.
    pub tail: Option<(u32, f64)>,
    /// Number of samples.
    pub count: usize,
}

/// Samples a tail percentile must have beyond it to be reported.
pub const TAIL_SAMPLES: usize = 10;

/// Median of `samples`, or 0 for an empty set.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Summarizes `samples`: the median, the tail percentile, and the count.
pub fn summarize(samples: &[f64]) -> Summary {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    // Nearest rank of percentile p is ceil(p·n/100); the samples beyond it
    // number n − rank. Take the highest p that leaves TAIL_SAMPLES beyond.
    let tail = (1..100u32).rev().find_map(|p| {
        let rank = (p as usize * n).div_ceil(100);
        (rank >= 1 && n - rank >= TAIL_SAMPLES).then(|| (p, s[rank - 1]))
    });
    Summary { median: median(&s), tail, count: n }
}

impl Summary {
    /// One-line rendering with `unit`, e.g. `12.5 ms (p80 14.1, n=60)`.
    pub fn render(&self, unit: &str) -> String {
        match self.tail {
            Some((p, v)) => format!("{:.4} {unit} (p{p} {v:.4}, n={})", self.median, self.count),
            None => format!("{:.4} {unit} (n={}, no tail percentile)", self.median, self.count),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_sets() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let few: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!(summarize(&few).tail.is_none());
        let many: Vec<f64> = (1..=100).map(f64::from).collect();
        let s = summarize(&many);
        // p90 has rank 90 and exactly 10 samples beyond it.
        assert_eq!(s.tail, Some((90, 90.0)));
        assert_eq!(s.count, 100);
    }
}
