//! Order statistics and accuracy summaries used by every workload.

/// Nearest-rank percentile of an ascending-sorted sample: the value at
/// rank `ceil(p / 100 · n)` (1-based, clamped to `1..=n`). `None` on an
/// empty sample.
pub fn nearest_rank(sorted: &[f64], p: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    Some(sorted[rank(n, p) - 1])
}

/// The 1-based nearest rank of percentile `p` in a sample of `n`.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// Percentiles the tail rule may pick, highest first. The ladder stops
/// at p90: on a shared machine the slowest 1 % of serving steps are the
/// ones the host preempted for tens of milliseconds, so p99 measures the
/// neighbours rather than the program.
const TAIL_LADDER: [f64; 2] = [90.0, 50.0];

/// The highest percentile of [`TAIL_LADDER`] that has at least ten
/// samples strictly beyond its nearest rank. Below twenty samples no
/// percentile qualifies and the median is the only figure reported.
pub fn tail_percentile(n: usize) -> f64 {
    TAIL_LADDER
        .into_iter()
        .find(|&p| n >= 1 && n - rank(n, p) >= 10)
        .unwrap_or(50.0)
}

/// A latency sample summarised as its median and its tail percentile.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub count: usize,
    /// Nearest-rank median.
    pub p50: f64,
    /// The percentile [`tail_percentile`] picked for `count`.
    pub tail_pct: f64,
    /// The value at `tail_pct`.
    pub tail: f64,
}

/// Summarises an unsorted sample; `None` when it is empty.
pub fn summarize(values: &[f64]) -> Option<Summary> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let tail_pct = tail_percentile(sorted.len());
    Some(Summary {
        count: sorted.len(),
        p50: nearest_rank(&sorted, 50.0)?,
        tail_pct,
        tail: nearest_rank(&sorted, tail_pct)?,
    })
}

/// Nearest-rank median of an unsorted sample (`None` when empty).
pub fn median(values: &[f64]) -> Option<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    nearest_rank(&sorted, 50.0)
}

/// Arithmetic mean (`0` for an empty sample).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Geometric mean of positive values (`NaN` when empty or any value is
/// not positive, so a broken input cannot pass as a small error).
pub fn geometric_mean(values: &[f64]) -> f64 {
    if values.is_empty() || values.iter().any(|&v| v <= 0.0 || !v.is_finite()) {
        return f64::NAN;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Running one-step accuracy of a forecaster against the last-value
/// forecast on the same steps.
#[derive(Debug, Clone, Copy, Default)]
pub struct RelError {
    sse: f64,
    naive_sse: f64,
    steps: usize,
}

impl RelError {
    /// Adds one step: the forecast, the value that was then revealed,
    /// and the last value known when the forecast was made.
    pub fn push(&mut self, forecast: f64, actual: f64, last: f64) {
        self.sse += (forecast - actual).powi(2);
        self.naive_sse += (last - actual).powi(2);
        self.steps += 1;
    }

    /// RMSE divided by the last-value forecast's RMSE (`NaN` before the
    /// first step or when the last-value forecast is exact).
    pub fn ratio(&self) -> f64 {
        if self.steps == 0 || self.naive_sse <= 0.0 {
            return f64::NAN;
        }
        (self.sse / self.naive_sse).sqrt()
    }
}

/// FNV-1a digest over the exact bits of every output, so two builds can
/// be compared for bit-identical results.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds one value into the digest.
    pub fn push(&mut self, value: f64) {
        for byte in value.to_bits().to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// The digest as 16 hex digits.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_matches_the_textbook_definition() {
        let five = [15.0, 20.0, 35.0, 40.0, 50.0];
        assert_eq!(nearest_rank(&five, 5.0), Some(15.0));
        assert_eq!(nearest_rank(&five, 30.0), Some(20.0));
        assert_eq!(nearest_rank(&five, 40.0), Some(20.0));
        assert_eq!(nearest_rank(&five, 50.0), Some(35.0));
        assert_eq!(nearest_rank(&five, 100.0), Some(50.0));
        assert_eq!(nearest_rank(&five, 0.0), Some(15.0));
        assert_eq!(nearest_rank(&[], 50.0), None);
        // Even counts take the lower middle value, never an average.
        assert_eq!(nearest_rank(&ramp(4), 50.0), Some(2.0));
        assert_eq!(nearest_rank(&ramp(1000), 99.0), Some(990.0));
    }

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        // p90 needs n - ceil(0.9 n) >= 10: first true at n = 100.
        assert_eq!(tail_percentile(100), 90.0);
        assert_eq!(tail_percentile(99), 50.0);
        assert_eq!(tail_percentile(20), 50.0);
        // Too few samples for any tail: the median is all there is.
        assert_eq!(tail_percentile(5), 50.0);
        assert_eq!(tail_percentile(0), 50.0);
        // Never above the top of the ladder, however large the sample.
        assert_eq!(tail_percentile(1_000_000), 90.0);
        for n in 1..3000 {
            let p = tail_percentile(n);
            if p > 50.0 {
                assert!(n - rank(n, p) >= 10, "n={n} p={p}");
            }
        }
    }

    #[test]
    fn summary_reports_median_and_rule_tail() {
        let mut values = ramp(2000);
        values.reverse();
        let s = summarize(&values).expect("non-empty");
        assert_eq!(s.count, 2000);
        assert_eq!(s.p50, 1000.0);
        assert_eq!(s.tail_pct, 90.0);
        assert_eq!(s.tail, 1800.0);
        assert_eq!(summarize(&[]), None);
        let few = summarize(&[3.0, 1.0, 2.0]).expect("non-empty");
        assert_eq!((few.p50, few.tail_pct, few.tail), (2.0, 50.0, 2.0));
    }

    #[test]
    fn relative_error_and_geometric_mean() {
        let mut e = RelError::default();
        assert!(e.ratio().is_nan());
        e.push(1.0, 2.0, 4.0); // error 1, last-value error 2
        e.push(3.0, 3.0, 3.0); // both exact
        assert!((e.ratio() - 0.5).abs() < 1e-12);
        assert!((geometric_mean(&[0.5, 2.0]) - 1.0).abs() < 1e-12);
        assert!(geometric_mean(&[]).is_nan());
        assert!(geometric_mean(&[1.0, f64::NAN]).is_nan());
    }

    #[test]
    fn digest_sees_every_bit() {
        let mut a = Digest::default();
        let mut b = Digest::default();
        a.push(1.0);
        b.push(f64::from_bits(1.0f64.to_bits() + 1));
        assert_ne!(a.hex(), b.hex());
        let mut c = Digest::default();
        c.push(1.0);
        assert_eq!(a.hex(), c.hex());
        assert_eq!(a.hex().len(), 16);
    }
}
