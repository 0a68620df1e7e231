//! The unified metrics registry.
//!
//! Every stats module in the workspace registers its aggregates here
//! under a dotted prefix (`disk0.completed`, `cache.local_hits`,
//! `prefetch.restarts`, `read.time`...), giving one namespace for the
//! CSV exporter instead of four ad-hoc report formats.

use std::fmt::Write as _;

/// A power-of-two-bucketed latency histogram: bucket `i` counts
/// observations in `[2^i, 2^{i+1})` µs (bucket 0 also absorbs
/// sub-microsecond values). The simulator records into it directly.
///
/// Unlike a pre-aggregated p95/p99 summary, raw buckets are
/// *mergeable*: per-disk histograms can be combined into a fleet-wide
/// one and the quantiles derived after the fact, at export time.
#[derive(Clone, PartialEq, Debug)]
pub struct HistogramData {
    /// Number of recorded observations.
    pub count: u64,
    /// Exact sum of all observations, in nanoseconds.
    pub total_ns: u64,
    /// Log-2 bucket counts (index = floor(log2(µs))).
    pub buckets: Vec<u64>,
}

impl Default for HistogramData {
    fn default() -> Self {
        Self::new()
    }
}

impl HistogramData {
    /// An empty histogram with the standard 48 buckets.
    pub fn new() -> Self {
        HistogramData {
            count: 0,
            total_ns: 0,
            buckets: vec![0; 48],
        }
    }

    /// Record one observation of `ns` nanoseconds, bucketed by whole
    /// microseconds.
    pub fn record_ns(&mut self, ns: u64) {
        let us = ns / 1_000;
        let idx = if us == 0 {
            0
        } else {
            (63 - us.leading_zeros()) as usize
        };
        let idx = idx.min(self.buckets.len() - 1);
        self.buckets[idx] += 1;
        self.count += 1;
        self.total_ns = self
            .total_ns
            .checked_add(ns)
            .expect("histogram total overflow");
    }

    /// Sum of all observations, in microseconds.
    pub fn total_us(&self) -> f64 {
        self.total_ns as f64 / 1e3
    }

    /// Mean observation (µs), or zero if empty.
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_us() / self.count as f64
        }
    }

    /// Approximate quantile (`q` in `[0,1]`) from bucket boundaries —
    /// the upper edge (µs) of the bucket containing the quantile.
    pub fn quantile_us(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile out of range: {q}");
        if self.count == 0 {
            return 0.0;
        }
        let target = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= target {
                return (1u64 << (i + 1)) as f64;
            }
        }
        unreachable!("histogram counts are consistent");
    }

    /// Merge another histogram into this one (bucket-wise sum).
    pub fn merge(&mut self, other: &HistogramData) {
        if other.buckets.len() > self.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.total_ns = self
            .total_ns
            .checked_add(other.total_ns)
            .expect("histogram total overflow");
    }
}

/// One registered metric value.
#[derive(Clone, PartialEq, Debug)]
pub enum MetricValue {
    /// A monotonic count of events.
    Counter(u64),
    /// A point-in-time scalar.
    Gauge(f64),
    /// Summary of a sampled series (e.g. per-request latencies).
    Series {
        /// Number of samples.
        count: u64,
        /// Sample mean.
        mean: f64,
        /// Sample standard deviation.
        std_dev: f64,
        /// Smallest sample.
        min: f64,
        /// Largest sample.
        max: f64,
    },
    /// Mean of a value weighted by how long it held (e.g. queue
    /// length).
    TimeWeighted {
        /// The time-weighted mean over the observation window.
        mean: f64,
    },
    /// A latency histogram stored as raw log-2 bucket counts (µs);
    /// p50/p95/p99 are derived at export time.
    Histogram(HistogramData),
    /// A free-form label (configuration name, workload id...).
    Text(String),
}

/// An ordered collection of named metrics.
///
/// Registration order is preserved — exports are byte-deterministic
/// for a deterministic simulation.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct Registry {
    entries: Vec<(String, MetricValue)>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a counter.
    pub fn counter(&mut self, name: impl Into<String>, value: u64) {
        self.entries
            .push((name.into(), MetricValue::Counter(value)));
    }

    /// Register a gauge.
    pub fn gauge(&mut self, name: impl Into<String>, value: f64) {
        self.entries.push((name.into(), MetricValue::Gauge(value)));
    }

    /// Register a sampled-series summary.
    pub fn series(
        &mut self,
        name: impl Into<String>,
        count: u64,
        mean: f64,
        std_dev: f64,
        min: f64,
        max: f64,
    ) {
        self.entries.push((
            name.into(),
            MetricValue::Series {
                count,
                mean,
                std_dev,
                min,
                max,
            },
        ));
    }

    /// Register a time-weighted mean.
    pub fn time_weighted(&mut self, name: impl Into<String>, mean: f64) {
        self.entries
            .push((name.into(), MetricValue::TimeWeighted { mean }));
    }

    /// Register a latency histogram by its raw bucket data
    /// (microsecond log-2 buckets).
    pub fn histogram(&mut self, name: impl Into<String>, data: HistogramData) {
        self.entries
            .push((name.into(), MetricValue::Histogram(data)));
    }

    /// Register a free-form text label.
    pub fn text(&mut self, name: impl Into<String>, value: impl Into<String>) {
        self.entries
            .push((name.into(), MetricValue::Text(value.into())));
    }

    /// Number of registered metrics.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Look up a metric by exact name (first match).
    pub fn get(&self, name: &str) -> Option<&MetricValue> {
        self.entries.iter().find(|(n, _)| n == name).map(|(_, v)| v)
    }

    /// Iterate metrics in registration order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &MetricValue)> {
        self.entries.iter().map(|(n, v)| (n.as_str(), v))
    }

    /// Export as a `metric,value` CSV. Composite metrics flatten into
    /// dotted sub-rows (`read.time.mean`, `read.time.p95_us`, ...).
    /// Floats print in Rust's shortest-roundtrip form, so output is
    /// byte-stable for identical values.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("metric,value\n");
        for (name, value) in &self.entries {
            match value {
                MetricValue::Counter(v) => {
                    let _ = writeln!(out, "{name},{v}");
                }
                MetricValue::Gauge(v) | MetricValue::TimeWeighted { mean: v } => {
                    let _ = writeln!(out, "{name},{v}");
                }
                MetricValue::Series {
                    count,
                    mean,
                    std_dev,
                    min,
                    max,
                } => {
                    let _ = writeln!(out, "{name}.count,{count}");
                    let _ = writeln!(out, "{name}.mean,{mean}");
                    let _ = writeln!(out, "{name}.std_dev,{std_dev}");
                    let _ = writeln!(out, "{name}.min,{min}");
                    let _ = writeln!(out, "{name}.max,{max}");
                }
                MetricValue::Histogram(h) => {
                    let _ = writeln!(out, "{name}.count,{}", h.count);
                    let _ = writeln!(out, "{name}.mean_us,{}", h.mean_us());
                    let _ = writeln!(out, "{name}.p50_us,{}", h.quantile_us(0.5));
                    let _ = writeln!(out, "{name}.p95_us,{}", h.quantile_us(0.95));
                    let _ = writeln!(out, "{name}.p99_us,{}", h.quantile_us(0.99));
                    // Raw buckets (non-empty only) so exported
                    // histograms stay mergeable downstream.
                    for (i, &b) in h.buckets.iter().enumerate() {
                        if b > 0 {
                            let _ = writeln!(out, "{name}.bucket{i},{b}");
                        }
                    }
                }
                MetricValue::Text(v) => {
                    let _ = writeln!(out, "{name},{v}");
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_hist() -> HistogramData {
        let mut h = HistogramData::new();
        for _ in 0..5 {
            h.record_ns(1_500_000); // bucket 10, upper edge 2048
        }
        for _ in 0..5 {
            h.record_ns(3_000_000); // bucket 11, upper edge 4096
        }
        h
    }

    fn sample() -> Registry {
        let mut r = Registry::new();
        r.counter("cache.local_hits", 42);
        r.gauge("cache.hit_ratio", 0.875);
        r.time_weighted("disk0.queue_len", 1.5);
        r.series("read.time_ms", 10, 2.5, 0.5, 1.0, 4.0);
        r.histogram("read.latency", sample_hist());
        r.text("sim.label", "PAFS/Ln_Agr @ 4MB");
        r
    }

    #[test]
    fn registration_order_is_preserved() {
        let r = sample();
        let names: Vec<&str> = r.iter().map(|(n, _)| n).collect();
        assert_eq!(
            names,
            vec![
                "cache.local_hits",
                "cache.hit_ratio",
                "disk0.queue_len",
                "read.time_ms",
                "read.latency",
                "sim.label"
            ]
        );
        assert_eq!(r.get("cache.local_hits"), Some(&MetricValue::Counter(42)));
        assert_eq!(r.get("missing"), None);
    }

    #[test]
    fn csv_is_flat_and_stable() {
        let a = sample().to_csv();
        let b = sample().to_csv();
        assert_eq!(a, b);
        assert!(a.starts_with("metric,value\n"));
        assert!(a.contains("cache.local_hits,42\n"));
        assert!(a.contains("read.time_ms.mean,2.5\n"));
        assert!(a.contains("read.latency.p50_us,2048\n"));
        assert!(a.contains("read.latency.p95_us,4096\n"));
        assert!(a.contains("read.latency.bucket10,5\n"));
        assert!(a.contains("read.latency.bucket11,5\n"));
        assert!(a.contains("sim.label,PAFS/Ln_Agr @ 4MB\n"));
        // One header + 2 scalars + 1 time-weighted + 5 series
        // + (5 derived + 2 non-empty bucket) histogram rows + 1 text.
        assert_eq!(a.lines().count(), 1 + 2 + 1 + 5 + 7 + 1);
    }

    /// Property: merging per-source histograms is exactly the histogram
    /// of the concatenated samples — quantiles derived after a merge
    /// are as good as if one recorder had seen everything.
    #[test]
    fn merged_histograms_equal_concatenated_samples() {
        // Deterministic LCG so the test needs no external crates.
        let mut state = 0x2545F4914F6CDD1Du64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % 1_000_000_000 // ns in [0, 1s)
        };
        let samples: Vec<u64> = (0..1000).map(|_| next()).collect();

        let mut whole = HistogramData::new();
        for &ns in &samples {
            whole.record_ns(ns);
        }
        // Split into three unequal shards and merge.
        let mut merged = HistogramData::new();
        for chunk in [&samples[..100], &samples[100..421], &samples[421..]] {
            let mut shard = HistogramData::new();
            for &ns in chunk {
                shard.record_ns(ns);
            }
            merged.merge(&shard);
        }
        assert_eq!(merged, whole);
        for q in [0.5, 0.9, 0.95, 0.99] {
            assert_eq!(merged.quantile_us(q), whole.quantile_us(q));
        }
        assert_eq!(merged.mean_us(), whole.mean_us());
    }

    #[test]
    fn histogram_quantiles_match_bucket_edges() {
        let h = sample_hist();
        assert_eq!(h.count, 10);
        assert_eq!(h.mean_us(), 2250.0);
        assert_eq!(h.quantile_us(0.5), 2048.0);
        assert_eq!(h.quantile_us(0.99), 4096.0);
        assert_eq!(HistogramData::new().quantile_us(0.5), 0.0);
    }

    /// Property: quantiles are monotone in `q` over random samples,
    /// and every observation is counted.
    #[test]
    fn histogram_quantiles_are_monotone() {
        for seed in 0..64u64 {
            let mut state = seed ^ 0x4157;
            let mut next = move |hi: u64| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 33) % hi
            };
            let n = 1 + next(199);
            let mut h = HistogramData::new();
            for _ in 0..n {
                h.record_ns(next(1_000_000) * 1_000);
            }
            let mut prev = 0.0;
            for q in [0.0, 0.1, 0.5, 0.9, 0.99, 1.0] {
                let v = h.quantile_us(q);
                assert!(v >= prev, "quantile({q}) regressed (seed {seed})");
                prev = v;
            }
            assert_eq!(h.count, n, "seed {seed}");
        }
    }

    #[test]
    fn registries_compare_by_value() {
        assert_eq!(sample(), sample());
        let mut other = sample();
        other.counter("extra", 1);
        assert_ne!(sample(), other);
    }
}
