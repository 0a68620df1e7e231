//! Scalar statistics accumulators used across the simulation: a
//! streaming series and a time-weighted mean. Latency histograms are
//! [`lapobs::HistogramData`], which the simulation records into
//! directly.
//!
//! Everything here is streaming and O(1) per observation, so the hot
//! simulation loop never allocates while recording metrics.

use std::fmt;

use crate::time::{SimDuration, SimTime};

/// Streaming mean/min/max/variance of a scalar series (Welford's
/// algorithm, numerically stable).
#[derive(Clone, Copy, Debug)]
pub struct Series {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Default for Series {
    fn default() -> Self {
        Self::new()
    }
}

impl Series {
    /// An empty series.
    pub fn new() -> Self {
        Series {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Record one observation.
    pub fn record(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Record a duration in milliseconds (the paper's reporting unit).
    pub fn record_duration_ms(&mut self, d: SimDuration) {
        self.record(d.as_millis_f64());
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Arithmetic mean, or 0 if empty.
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance, or 0 if fewer than two observations.
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Minimum observation, or 0 if empty.
    pub fn min(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Maximum observation, or 0 if empty.
    pub fn max(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Register this series under `name` in a metrics registry.
    pub fn register_into(&self, reg: &mut lapobs::Registry, name: &str) {
        reg.series(
            name,
            self.count(),
            self.mean(),
            self.std_dev(),
            self.min(),
            self.max(),
        );
    }

    /// Merge another series into this one (parallel reduction).
    pub fn merge(&mut self, other: &Series) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let n = (self.n + other.n) as f64;
        let delta = other.mean - self.mean;
        let mean = self.mean + delta * other.n as f64 / n;
        let m2 = self.m2 + other.m2 + delta * delta * (self.n as f64 * other.n as f64) / n;
        self.n += other.n;
        self.mean = mean;
        self.m2 = m2;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

impl fmt::Display for Series {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={:.4} sd={:.4} min={:.4} max={:.4}",
            self.n,
            self.mean(),
            self.std_dev(),
            self.min(),
            self.max()
        )
    }
}

/// A time-weighted average of a piecewise-constant quantity (queue
/// length, blocks in cache, …).
#[derive(Clone, Copy, Debug)]
pub struct TimeWeighted {
    value: f64,
    last_change: SimTime,
    weighted_sum: f64,
    start: SimTime,
}

impl TimeWeighted {
    /// Start tracking at `start` with initial value `value`.
    pub fn new(start: SimTime, value: f64) -> Self {
        TimeWeighted {
            value,
            last_change: start,
            weighted_sum: 0.0,
            start,
        }
    }

    /// Record that the quantity changed to `value` at time `now`.
    pub fn set(&mut self, now: SimTime, value: f64) {
        self.weighted_sum += self.value * now.saturating_since(self.last_change).as_nanos() as f64;
        self.value = value;
        self.last_change = now;
    }

    /// Adjust the quantity by `delta` at time `now`.
    pub fn add(&mut self, now: SimTime, delta: f64) {
        let v = self.value + delta;
        self.set(now, v);
    }

    /// Current value of the quantity.
    pub fn current(&self) -> f64 {
        self.value
    }

    /// Register the time-weighted mean over `[start, now]` under
    /// `name` in a metrics registry.
    pub fn register_into(&self, reg: &mut lapobs::Registry, name: &str, now: SimTime) {
        reg.time_weighted(name, self.mean(now));
    }

    /// Time-weighted mean over `[start, now]`.
    pub fn mean(&self, now: SimTime) -> f64 {
        let span = now.saturating_since(self.start).as_nanos() as f64;
        if span == 0.0 {
            return self.value;
        }
        let tail = self.value * now.saturating_since(self.last_change).as_nanos() as f64;
        (self.weighted_sum + tail) / span
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_mean_and_variance() {
        let mut s = Series::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.record(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.variance() - 4.0).abs() < 1e-12);
        assert!((s.std_dev() - 2.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn default_equals_new() {
        // A derived Default would zero min/max instead of using the
        // +/-infinity sentinels, corrupting the first observations.
        let mut s = Series::default();
        s.record(5.0);
        s.record(7.0);
        assert_eq!(s.min(), 5.0);
        assert_eq!(s.max(), 7.0);
    }

    #[test]
    fn empty_series_is_zeroed() {
        let s = Series::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.min(), 0.0);
        assert_eq!(s.max(), 0.0);
    }

    #[test]
    fn series_merge_matches_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut whole = Series::new();
        for &x in &xs {
            whole.record(x);
        }
        let mut left = Series::new();
        let mut right = Series::new();
        for &x in &xs[..37] {
            left.record(x);
        }
        for &x in &xs[37..] {
            right.record(x);
        }
        left.merge(&right);
        assert_eq!(left.count(), whole.count());
        assert!((left.mean() - whole.mean()).abs() < 1e-9);
        assert!((left.variance() - whole.variance()).abs() < 1e-9);
    }

    #[test]
    fn time_weighted_mean() {
        let mut tw = TimeWeighted::new(SimTime::ZERO, 0.0);
        tw.set(SimTime::from_nanos(10), 4.0); // 0 for 10ns
        tw.set(SimTime::from_nanos(30), 1.0); // 4 for 20ns
                                              // 1 for 10ns => (0*10 + 4*20 + 1*10) / 40 = 90/40
        assert!((tw.mean(SimTime::from_nanos(40)) - 2.25).abs() < 1e-12);
        assert_eq!(tw.current(), 1.0);
    }

    #[test]
    fn time_weighted_add() {
        let mut tw = TimeWeighted::new(SimTime::ZERO, 1.0);
        tw.add(SimTime::from_nanos(10), 2.0);
        assert_eq!(tw.current(), 3.0);
    }
}
