//! The benchmark's own statistics: percentiles under the ten-beyond rule,
//! busy-time accumulators and failure accounting.

use std::time::Duration;

/// Samples a percentile must leave beyond it before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Most windows a windowed percentile is taken over.
pub const MAX_WINDOWS: usize = 9;

/// Timing samples in microseconds, kept in the order they were taken.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    values: Vec<f64>,
}

impl Samples {
    pub fn new() -> Self {
        Samples::default()
    }

    pub fn push(&mut self, value: f64) {
        self.values.push(value);
    }

    pub fn push_duration(&mut self, d: Duration) {
        self.push(d.as_secs_f64() * 1e6);
    }

    pub fn extend(&mut self, other: &Samples) {
        self.values.extend_from_slice(&other.values);
    }

    /// Merges per-thread samples taken on one schedule back into schedule
    /// order: the first of each, then the second of each, and so on.
    pub fn interleave<'a>(parts: impl Iterator<Item = &'a Samples> + Clone) -> Samples {
        let longest = parts.clone().map(Samples::len).max().unwrap_or(0);
        let mut out = Samples::new();
        for i in 0..longest {
            for part in parts.clone() {
                if let Some(&v) = part.values.get(i) {
                    out.push(v);
                }
            }
        }
        out
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn sum(&self) -> f64 {
        self.values.iter().sum()
    }

    /// Samples strictly beyond percentile `p` (in percent): `n - ceil(n*p/100)`.
    pub fn beyond(n: usize, p: f64) -> usize {
        n - nearest_rank(n, p)
    }

    /// The `p`-th percentile by the nearest-rank method, or `None` when
    /// fewer than [`MIN_BEYOND`] samples lie beyond it (or there are none).
    pub fn percentile(&self, p: f64) -> Option<f64> {
        percentile_of(&self.values, p)
    }

    /// The median, over up to [`MAX_WINDOWS`] consecutive windows of the
    /// samples in the order they were taken, of each window's `p`-th
    /// percentile; every window keeps [`MIN_BEYOND`] samples beyond it.
    /// A burst of noise from outside the benchmark then moves one window,
    /// not the figure. Returns the value and the number of windows.
    pub fn windowed(&self, p: f64) -> Option<(f64, usize)> {
        let n = self.values.len();
        let mut windows = MAX_WINDOWS.min(n);
        while windows > 1 && Self::beyond(n / windows, p) < MIN_BEYOND {
            windows -= 1;
        }
        let size = n.checked_div(windows)?;
        let per_window: Option<Vec<f64>> = (0..windows)
            .map(|w| {
                let end = if w + 1 == windows { n } else { (w + 1) * size };
                percentile_of(&self.values[w * size..end], p)
            })
            .collect();
        Some((median_of(&per_window?), windows))
    }
}

fn percentile_of(values: &[f64], p: f64) -> Option<f64> {
    let n = values.len();
    if n == 0 || Samples::beyond(n, p) < MIN_BEYOND {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[nearest_rank(n, p) - 1])
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn nearest_rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// The median of a handful of repeated measurements (set-up times,
/// recovery times): no ten-beyond rule, since it summarises repeats
/// rather than estimating a tail.
pub fn median_of(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Operations attempted and failed in one run. A failure is any non-2xx
/// answer, degraded answer, I/O error or output check that did not hold.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Books one operation and whether it succeeded.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Books an output check as one attempted operation.
    pub fn check(&mut self, ok: bool, what: &str) {
        if !ok {
            println!("CHECK FAILED: {what}");
        }
        self.op(ok);
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// Failed over attempted; 0 when nothing was attempted.
    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// Time spent inside one layer's calls, with the call count.
#[derive(Debug, Clone, Copy, Default)]
pub struct Busy {
    pub calls: u64,
    pub total: Duration,
}

impl Busy {
    pub fn add(&mut self, d: Duration) {
        self.calls += 1;
        self.total += d;
    }

    pub fn total_us(&self) -> f64 {
        self.total.as_secs_f64() * 1e6
    }

    /// Mean busy time per call in microseconds (0 with no calls).
    pub fn mean_us(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.total_us() / self.calls as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples(n: usize) -> Samples {
        let mut s = Samples::new();
        // Pushed in reverse so the estimator has to sort.
        for v in (1..=n).rev() {
            s.push(v as f64);
        }
        s
    }

    #[test]
    fn nearest_rank_percentiles() {
        let s = samples(1000);
        assert_eq!(s.percentile(50.0), Some(500.0));
        assert_eq!(s.percentile(99.0), Some(990.0));
        assert_eq!(s.percentile(90.0), Some(900.0));
        assert_eq!(s.len(), 1000);
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        // 999 samples leave 9 beyond the 99th percentile: refused.
        assert_eq!(Samples::beyond(999, 99.0), 9);
        assert_eq!(samples(999).percentile(99.0), None);
        // 1000 leave exactly 10: reported.
        assert_eq!(Samples::beyond(1000, 99.0), 10);
        assert_eq!(samples(1000).percentile(99.0), Some(990.0));
    }

    #[test]
    fn median_needs_ten_samples_above_it() {
        assert_eq!(samples(19).percentile(50.0), None);
        assert_eq!(samples(20).percentile(50.0), Some(10.0));
        assert_eq!(Samples::new().percentile(50.0), None);
    }

    #[test]
    fn extend_pools_samples() {
        let a = samples(500);
        assert_eq!(a.percentile(50.0), Some(250.0));
        let mut b = a.clone();
        let mut c = Samples::new();
        for _ in 0..500 {
            c.push(10_000.0);
        }
        b.extend(&c);
        assert_eq!(b.len(), 1000);
        assert_eq!(b.percentile(50.0), Some(500.0));
        assert_eq!(b.percentile(99.0), Some(10_000.0));
        // Taking a percentile leaves the samples in the order taken.
        assert_eq!(a.values[0], 500.0);
    }

    #[test]
    fn windowed_p99_keeps_ten_beyond_in_every_window() {
        // 2999 samples fit two windows of >= 1000, not three.
        let s = samples(2999);
        assert_eq!(s.windowed(99.0).map(|(_, w)| w), Some(2));
        assert_eq!(samples(999).windowed(99.0), None);
        assert_eq!(samples(1000).windowed(99.0), Some((990.0, 1)));
        // Small p: capped at MAX_WINDOWS.
        assert_eq!(
            samples(10_000).windowed(50.0).map(|(_, w)| w),
            Some(MAX_WINDOWS)
        );
    }

    #[test]
    fn windowed_percentile_ignores_one_noisy_window() {
        let mut s = Samples::new();
        for w in 0..9 {
            for i in 0..1000 {
                // One window in nine is ten times slower throughout.
                let base = if w == 4 { 1000.0 } else { 100.0 };
                s.push(base + (i % 100) as f64);
            }
        }
        let (p99, windows) = s.windowed(99.0).expect("supported");
        assert_eq!(windows, 9);
        assert_eq!(p99, 198.0);
        // The pooled p99 is dragged up by the noisy window.
        assert!(s.percentile(99.0).unwrap() > 1000.0);
    }

    #[test]
    fn median_of_repeats() {
        assert_eq!(median_of(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median_of(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn tally_counts_failed_over_attempted() {
        let mut t = Tally::default();
        assert_eq!(t.error_rate(), 0.0);
        for k in 0..8 {
            t.op(k != 3);
        }
        t.check(false, "deliberately failing check");
        assert_eq!(
            t,
            Tally {
                attempted: 9,
                failed: 2
            }
        );
        assert!((t.error_rate() - 2.0 / 9.0).abs() < 1e-12);
        let mut u = Tally {
            attempted: 1,
            failed: 0,
        };
        u.merge(t);
        assert_eq!(
            u,
            Tally {
                attempted: 10,
                failed: 2
            }
        );
        assert!((u.error_rate() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn busy_mean_per_call() {
        let mut b = Busy::default();
        assert_eq!(b.mean_us(), 0.0);
        b.add(Duration::from_micros(10));
        b.add(Duration::from_micros(30));
        assert_eq!(b.calls, 2);
        assert!((b.total_us() - 40.0).abs() < 1e-9);
        assert!((b.mean_us() - 20.0).abs() < 1e-9);
    }
}
