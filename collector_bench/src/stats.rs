//! Order statistics over raw samples.

/// Fewest samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Latency samples of one kind of operation. A failed operation is kept
/// as an infinitely slow sample, so it misses every latency limit and a
/// percentile that lands on it has no number.
#[derive(Debug, Default)]
pub struct LatencyLog {
    samples_ms: Vec<f64>,
    failed: u64,
}

impl LatencyLog {
    /// Record one completed operation.
    pub fn ok(&mut self, ms: f64) {
        self.samples_ms.push(ms);
    }

    /// Record one failed operation (error, refusal or short ack).
    pub fn fail(&mut self) {
        self.failed += 1;
    }

    /// Operations attempted.
    pub fn attempted(&self) -> u64 {
        self.samples_ms.len() as u64 + self.failed
    }

    /// Operations failed.
    pub fn failed(&self) -> u64 {
        self.failed
    }

    /// Completed operations.
    pub fn completed(&self) -> usize {
        self.samples_ms.len()
    }

    /// Fold another log into this one.
    pub fn absorb(&mut self, other: LatencyLog) {
        self.samples_ms.extend(other.samples_ms);
        self.failed += other.failed;
    }

    /// Every sample, sorted, with failed operations as `+inf` at the end.
    pub fn sorted(&self) -> Vec<f64> {
        let mut all = self.samples_ms.clone();
        all.extend(std::iter::repeat_n(f64::INFINITY, self.failed as usize));
        all.sort_by(f64::total_cmp);
        all
    }

    /// The `p`-th percentile (see [`percentile`]).
    pub fn percentile(&self, p: f64) -> Result<f64, String> {
        percentile(&self.sorted(), p)
    }
}

/// Nearest-rank percentile of sorted samples: the smallest sample with
/// at least `p`% of all samples at or below it. Fails unless at least
/// [`MIN_BEYOND`] samples lie beyond it, and when it lands on a failed
/// (infinite) sample.
pub fn percentile(sorted: &[f64], p: f64) -> Result<f64, String> {
    let n = sorted.len();
    let beyond = n.saturating_sub(nearest_rank(n, p));
    if n == 0 || beyond < MIN_BEYOND {
        return Err(format!(
            "p{p} needs {MIN_BEYOND} samples beyond it; {n} samples leave {beyond}"
        ));
    }
    let value = sorted[nearest_rank(n, p) - 1];
    if value.is_finite() {
        Ok(value)
    } else {
        Err(format!("p{p} lands on a failed operation"))
    }
}

/// 1-based nearest rank of the `p`-th percentile among `n` samples.
pub fn nearest_rank(n: usize, p: f64) -> usize {
    // The slack keeps e.g. 99.9% of 1000 at rank 999 despite rounding.
    ((p / 100.0 * n as f64 - 1e-9).ceil() as usize).clamp(1, n.max(1))
}

/// Median of a small set of repeated measurements (no tail rule: used
/// for phases repeated a fixed few times within one run).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Ok(50.0));
        assert_eq!(percentile(&v, 90.0), Ok(90.0));
        // p90 of 100 samples leaves exactly ten beyond it: allowed.
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 99.0), Ok(990.0));
        assert_eq!(percentile(&v, 0.0), Ok(1.0));
        // The bare rank, shared with the printed distribution.
        assert_eq!(nearest_rank(1000, 99.9), 999);
        assert_eq!(nearest_rank(1000, 100.0), 1000);
        assert_eq!(nearest_rank(7, 0.0), 1);
    }

    #[test]
    fn fewer_than_ten_beyond_is_refused() {
        let v: Vec<f64> = (1..=99).map(f64::from).collect();
        assert!(percentile(&v, 90.0).unwrap_err().contains("beyond"));
        let v: Vec<f64> = (1..=999).map(f64::from).collect();
        assert!(percentile(&v, 99.0).is_err());
        assert!(percentile(&[], 50.0).is_err());
        // p50 needs at least 20 samples.
        let v: Vec<f64> = (1..=19).map(f64::from).collect();
        assert!(percentile(&v, 50.0).is_err());
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Ok(10.0));
    }

    #[test]
    fn failed_operations_count_as_infinitely_slow() {
        let mut log = LatencyLog::default();
        for i in 0..95 {
            log.ok(f64::from(i));
        }
        for _ in 0..5 {
            log.fail();
        }
        assert_eq!(log.attempted(), 100);
        assert_eq!(log.failed(), 5);
        assert_eq!(log.percentile(50.0), Ok(49.0));
        // The top five ranks are failures: p96 lands on one.
        let mut log2 = LatencyLog::default();
        for i in 0..1000 {
            log2.ok(f64::from(i));
        }
        for _ in 0..20 {
            log2.fail();
        }
        assert!(log2.percentile(99.0).unwrap_err().contains("failed"));
    }

    #[test]
    fn median_of_small_sets() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }
}
