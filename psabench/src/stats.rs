//! Summary statistics for the benchmark's samples.

use std::time::{Duration, Instant};

/// Median of `samples` (mean of the two middle values for an even count);
/// 0 for no samples.
pub fn median(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Arithmetic mean; 0 for no samples.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// A tail percentile together with the evidence behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    pub value: f64,
    /// Samples the percentile was taken over.
    pub samples: usize,
    /// Samples strictly above the percentile's rank.
    pub beyond: usize,
}

/// Samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `q` (0 < q < 1) of `samples`, refused unless at
/// least [`MIN_BEYOND`] samples lie beyond it: a p90 needs 100 samples, a
/// p99 needs 1000.
pub fn tail_percentile(samples: &[f64], q: f64) -> Result<Tail, String> {
    let n = samples.len();
    let rank = ((q * n as f64).ceil() as usize).max(1);
    let beyond = n.saturating_sub(rank);
    if n == 0 || beyond < MIN_BEYOND {
        return Err(format!(
            "p{} over {n} samples leaves {beyond} beyond it; at least {MIN_BEYOND} are needed",
            q * 100.0
        ));
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    Ok(Tail {
        value: v[rank - 1],
        samples: n,
        beyond,
    })
}

/// Per-job latency of a service that only reports how many jobs have
/// finished: the k-th accepted job counts as done when the k-th job
/// finishes. With one FIFO queue this tracks each job's latency to within
/// one job's service time.
#[derive(Debug, Default)]
pub struct CountedLatency {
    submitted: Vec<Instant>,
    completed: Vec<Instant>,
}

impl CountedLatency {
    pub fn submitted(&mut self, at: Instant) {
        self.submitted.push(at);
    }

    /// `count` jobs have finished as of `at`.
    pub fn finished(&mut self, count: usize, at: Instant) {
        while self.completed.len() < count.min(self.submitted.len()) {
            self.completed.push(at);
        }
    }

    /// Jobs seen finished.
    pub fn completed(&self) -> usize {
        self.completed.len()
    }

    /// Jobs submitted and not yet seen finished.
    pub fn open(&self) -> usize {
        self.submitted.len() - self.completed.len()
    }

    pub fn latencies_ms(&self) -> Vec<f64> {
        self.submitted
            .iter()
            .zip(&self.completed)
            .map(|(s, c)| c.saturating_duration_since(*s).as_secs_f64() * 1e3)
            .collect()
    }
}

/// A service client's poll interval while its window is full.
pub const POLL: Duration = Duration::from_millis(1);

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn p90_needs_ten_samples_beyond() {
        let t = tail_percentile(&ramp(100), 0.9).expect("100 samples support p90");
        assert_eq!(t.value, 90.0);
        assert_eq!(t.samples, 100);
        assert_eq!(t.beyond, 10);
        let err = tail_percentile(&ramp(99), 0.9).expect_err("99 samples leave 9 beyond");
        assert!(err.contains("9 beyond"), "{err}");
        assert!(tail_percentile(&[], 0.5).is_err());
    }

    #[test]
    fn order_of_samples_does_not_matter() {
        let mut v = ramp(250);
        v.reverse();
        let t = tail_percentile(&v, 0.9).expect("250 samples support p90");
        assert_eq!(t.value, 225.0);
        assert_eq!(t.beyond, 25);
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }

    #[test]
    fn counted_latency_pairs_kth_submit_with_kth_completion() {
        let t0 = Instant::now();
        let ms = |n: u64| t0 + Duration::from_millis(n);
        let mut l = CountedLatency::default();
        for n in 0..3 {
            l.submitted(ms(n));
        }
        l.finished(1, ms(5));
        assert_eq!(l.open(), 2);
        l.finished(5, ms(9));
        assert_eq!(l.open(), 0);
        let got: Vec<u64> = l.latencies_ms().iter().map(|v| v.round() as u64).collect();
        assert_eq!(got, [5, 8, 7]);
    }
}
