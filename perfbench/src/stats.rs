//! Latency samples and the percentile rules every timing is reported by.

/// Nearest-rank percentile of an ascending slice: the smallest sample with
/// at least `p`% of the samples at or below it. `None` when empty.
pub fn nearest_rank(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[rank(p, sorted.len()).clamp(1, sorted.len()) - 1])
}

/// 1-based nearest rank of percentile `p` among `n` samples. The epsilon
/// keeps decimal percentiles such as 99.9 from rounding up a rank.
fn rank(p: f64, n: usize) -> usize {
    (p * n as f64 / 100.0 - 1e-9).ceil().max(0.0) as usize
}

/// Percentiles a tail may be reported at, highest first.
const TAIL_PERCENTILES: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// The highest of [`TAIL_PERCENTILES`] whose nearest-rank sample still has
/// at least ten samples above it, so a tail figure never rests on fewer
/// than ten observations. `None` when even the median has fewer.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_PERCENTILES
        .into_iter()
        .find(|&p| n >= 1 && n.saturating_sub(rank(p, n).max(1)) >= 10)
}

/// One timing's samples (any unit), summarised as the report prints it.
#[derive(Clone, Debug, Default)]
pub struct Samples {
    values: Vec<f64>,
}

impl Samples {
    pub fn push(&mut self, v: f64) {
        self.values.push(v);
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    pub fn values(&self) -> &[f64] {
        &self.values
    }

    pub fn sum(&self) -> f64 {
        self.values.iter().sum()
    }

    /// The same samples in another unit.
    pub fn scaled(&self, factor: f64) -> Samples {
        Samples {
            values: self.values.iter().map(|v| v * factor).collect(),
        }
    }

    fn sorted(&self) -> Vec<f64> {
        let mut v = self.values.clone();
        v.sort_by(f64::total_cmp);
        v
    }

    pub fn median(&self) -> f64 {
        nearest_rank(&self.sorted(), 50.0).unwrap_or(0.0)
    }

    pub fn percentile(&self, p: f64) -> Option<f64> {
        nearest_rank(&self.sorted(), p)
    }

    /// `(percentile, value)` of the highest tail with ≥10 samples beyond it.
    pub fn tail(&self) -> Option<(f64, f64)> {
        let p = tail_percentile(self.len())?;
        Some((p, self.percentile(p)?))
    }

    /// `"median 1.23 ms, p99 4.56 ms, n=1234"` — the form every timing takes
    /// in the human-readable report.
    pub fn describe(&self, unit: &str) -> String {
        let tail = match self.tail() {
            Some((p, v)) => format!("p{p} {v:.4} {unit}"),
            None => "no tail (<11 samples)".to_string(),
        };
        format!(
            "median {:.4} {unit}, {tail}, n={}",
            self.median(),
            self.len()
        )
    }
}

/// `part / whole`, 0 when there is nothing to divide.
pub fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// Traced median over untraced median, as a percentage above 100%.
pub fn overhead_pct(untraced: &Samples, traced: &Samples) -> f64 {
    (traced.median() / untraced.median() - 1.0) * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_the_covering_sample() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(nearest_rank(&v, 50.0), Some(5.0));
        assert_eq!(nearest_rank(&v, 51.0), Some(6.0));
        assert_eq!(nearest_rank(&v, 90.0), Some(9.0));
        assert_eq!(nearest_rank(&v, 100.0), Some(10.0));
        assert_eq!(nearest_rank(&v, 0.0), Some(1.0));
        assert_eq!(nearest_rank(&[], 50.0), None);
        assert_eq!(nearest_rank(&[7.0], 99.0), Some(7.0));
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        // p99 of 1000 samples is rank 990: exactly ten above it.
        assert_eq!(tail_percentile(1000), Some(99.0));
        // 999 samples: p99 is rank 990 with nine above; p95 rank 950 has 49.
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        // The median of 20 samples (rank 10) has ten above it; of 19 only nine.
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(0), None);
    }

    #[test]
    fn samples_report_median_and_tail() {
        let mut s = Samples::default();
        for v in 1..=1000 {
            s.push(f64::from(v));
        }
        assert_eq!(s.median(), 500.0);
        assert_eq!(s.tail(), Some((99.0, 990.0)));
        assert!(s.describe("ms").contains("n=1000"));
    }
}
