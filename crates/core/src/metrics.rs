//! Simulation metrics and the final report.

use coopcache::CacheStats;
use ioworkload::BlockId;
use lapobs::HistogramData;
use prefetch::{FxHashMap, PrefetchStats};
use simkit::stats::Series;
use simkit::{SimDuration, SimTime};

/// Where a completed read's latency went — one duration per span
/// component, summing exactly to the request's end-to-end latency.
///
/// The components mirror the stages a request can spend time in:
/// disk-queue wait, seek, rotational wait, the on-platter transfer,
/// the final local memory copy, the remote-delivery startup hops
/// (`coordination`), the wire time (`network`), time re-paid on failed
/// attempts plus backoff under an active fault plan (`retry`), and
/// time spent waiting out a disk outage before the fetch failed over
/// (`failover`). The last two are exactly zero without a fault plan.
#[derive(Clone, Copy, Default, Debug)]
pub(crate) struct SpanBreakdown {
    pub queue: SimDuration,
    pub seek: SimDuration,
    pub rotation: SimDuration,
    pub disk_transfer: SimDuration,
    pub transfer: SimDuration,
    pub coordination: SimDuration,
    pub network: SimDuration,
    pub retry: SimDuration,
    pub failover: SimDuration,
}

impl SpanBreakdown {
    /// Sum of every component — must equal the request latency.
    pub fn total(&self) -> SimDuration {
        self.queue
            + self.seek
            + self.rotation
            + self.disk_transfer
            + self.transfer
            + self.coordination
            + self.network
            + self.retry
            + self.failover
    }
}

/// How prefetching worked out for one completed read.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum ReadOutcome {
    /// Every block was cached and none of them came from a prefetch.
    DemandHit,
    /// Every block was cached and at least one was prefetched — the
    /// prefetcher fully hid the disk.
    CoveredByPrefetch,
    /// The read waited on an in-flight prefetch: the prediction was
    /// right but late. The slack is how long the read stalled.
    LatePrefetch,
    /// At least one block needed a fresh demand fetch (or the read
    /// waited on another request's demand fetch).
    Miss,
}

/// Per-component latency histograms plus prefetch-outcome counters,
/// accumulated for every post-warm-up read. Always on — the breakdown
/// is pure arithmetic on state the simulation already tracks, so the
/// traced and untraced paths stay identical.
#[derive(Debug, Default)]
pub(crate) struct SpanMetrics {
    pub queue: HistogramData,
    pub seek: HistogramData,
    pub rotation: HistogramData,
    pub disk_transfer: HistogramData,
    pub transfer: HistogramData,
    pub coordination: HistogramData,
    pub network: HistogramData,
    pub retry: HistogramData,
    pub failover: HistogramData,
    /// Stall time of late-prefetch reads only.
    pub late_slack: HistogramData,
    pub demand_hit: u64,
    pub covered: u64,
    pub late: u64,
    pub miss: u64,
}

impl SpanMetrics {
    fn record(&mut self, b: &SpanBreakdown, outcome: ReadOutcome, slack: SimDuration) {
        self.queue.record_ns(b.queue.as_nanos());
        self.seek.record_ns(b.seek.as_nanos());
        self.rotation.record_ns(b.rotation.as_nanos());
        self.disk_transfer.record_ns(b.disk_transfer.as_nanos());
        self.transfer.record_ns(b.transfer.as_nanos());
        self.coordination.record_ns(b.coordination.as_nanos());
        self.network.record_ns(b.network.as_nanos());
        self.retry.record_ns(b.retry.as_nanos());
        self.failover.record_ns(b.failover.as_nanos());
        match outcome {
            ReadOutcome::DemandHit => self.demand_hit += 1,
            ReadOutcome::CoveredByPrefetch => self.covered += 1,
            ReadOutcome::LatePrefetch => {
                self.late += 1;
                self.late_slack.record_ns(slack.as_nanos());
            }
            ReadOutcome::Miss => self.miss += 1,
        }
    }

    fn register_into(&self, reg: &mut lapobs::Registry) {
        for (name, h) in [
            ("span.queue_us", &self.queue),
            ("span.seek_us", &self.seek),
            ("span.rotation_us", &self.rotation),
            ("span.disk_transfer_us", &self.disk_transfer),
            ("span.transfer_us", &self.transfer),
            ("span.coordination_us", &self.coordination),
            ("span.network_us", &self.network),
            ("span.retry_us", &self.retry),
            ("span.failover_us", &self.failover),
            ("prefetch.late_slack_us", &self.late_slack),
        ] {
            reg.histogram(name, h.clone());
        }
        reg.counter("span.outcome_demand_hit", self.demand_hit);
        reg.counter("span.outcome_covered_by_prefetch", self.covered);
        reg.counter("span.outcome_late_prefetch", self.late);
        reg.counter("span.outcome_miss", self.miss);
    }
}

/// Live metric accumulators, updated by the simulation loop. Samples
/// taken before the warm-up boundary are kept separately and excluded
/// from the headline numbers, like the paper's warm-up hours.
#[derive(Debug)]
pub(crate) struct Metrics {
    pub warmup_end: SimTime,
    /// Bucket width of the read-latency time series.
    pub interval: SimDuration,
    /// Per-interval read-latency series, indexed by bucket number
    /// (includes the warm-up stretch — that is the point: it shows the
    /// warm-up happening).
    pub read_series: Vec<Series>,
    /// Per-request read latency (ms), post-warm-up.
    pub read_time: Series,
    /// Read-latency distribution (post-warm-up), for percentiles.
    pub read_hist: HistogramData,
    /// Per-request read latency during warm-up (reported separately).
    pub read_time_warmup: Series,
    /// Per-request write latency (ms), post-warm-up.
    pub write_time: Series,
    /// Write requests completed during warm-up (count only — warm-up
    /// writes carry no latency statistics, but request-conservation
    /// checks need the total).
    pub warmup_writes: u64,
    /// Disk read operations post-warm-up, split by what issued them.
    pub disk_reads_demand: u64,
    pub disk_reads_prefetch: u64,
    /// Disk write operations post-warm-up.
    pub disk_writes: u64,
    /// Disk operations during warm-up (all kinds).
    pub disk_ops_warmup: u64,
    /// How many times each block was written to disk (post-warm-up) —
    /// Table 2's statistic.
    pub writes_per_block: FxHashMap<BlockId, u32>,
    /// Prefetch fetches that a demand request joined while in flight
    /// (correct predictions with perfect timing).
    pub prefetch_absorbed: u64,
    /// Demand fetches coalesced onto an already-pending demand fetch.
    pub demand_coalesced: u64,
    /// Per-read latency attribution and prefetch outcomes.
    pub spans: SpanMetrics,
}

impl Metrics {
    pub fn new(warmup_end: SimTime, interval: SimDuration) -> Self {
        Metrics {
            warmup_end,
            interval,
            read_series: Vec::new(),
            read_time: Series::new(),
            read_hist: HistogramData::new(),
            read_time_warmup: Series::new(),
            write_time: Series::new(),
            warmup_writes: 0,
            disk_reads_demand: 0,
            disk_reads_prefetch: 0,
            disk_writes: 0,
            disk_ops_warmup: 0,
            writes_per_block: FxHashMap::default(),
            prefetch_absorbed: 0,
            demand_coalesced: 0,
            spans: SpanMetrics::default(),
        }
    }

    pub fn warm(&self, now: SimTime) -> bool {
        now >= self.warmup_end
    }

    pub fn record_read(&mut self, now: SimTime, latency: SimDuration) {
        if self.warm(now) {
            self.read_time.record_duration_ms(latency);
            self.read_hist.record_ns(latency.as_nanos());
        } else {
            self.read_time_warmup.record_duration_ms(latency);
        }
        let bucket = (now.as_nanos() / self.interval.as_nanos().max(1)) as usize;
        if bucket >= self.read_series.len() {
            self.read_series.resize_with(bucket + 1, Series::new);
        }
        self.read_series[bucket].record_duration_ms(latency);
    }

    pub fn record_write(&mut self, now: SimTime, latency: SimDuration) {
        if self.warm(now) {
            self.write_time.record_duration_ms(latency);
        } else {
            self.warmup_writes += 1;
        }
    }

    /// Record one completed read's latency attribution, classified by
    /// the request *start* time like [`record_read`](Self::record_read)
    /// (warm-up reads are dropped).
    pub fn record_span(
        &mut self,
        started: SimTime,
        b: &SpanBreakdown,
        outcome: ReadOutcome,
        slack: SimDuration,
    ) {
        if self.warm(started) {
            self.spans.record(b, outcome, slack);
        }
    }

    pub fn record_disk_read(&mut self, now: SimTime, prefetch: bool) {
        if !self.warm(now) {
            self.disk_ops_warmup += 1;
        } else if prefetch {
            self.disk_reads_prefetch += 1;
        } else {
            self.disk_reads_demand += 1;
        }
    }

    pub fn record_disk_write(&mut self, now: SimTime, block: BlockId) {
        if self.warm(now) {
            self.disk_writes += 1;
            *self.writes_per_block.entry(block).or_insert(0) += 1;
        } else {
            self.disk_ops_warmup += 1;
        }
    }

    /// Register the loop-level accumulators into the unified metrics
    /// registry.
    pub fn register_into(&self, reg: &mut lapobs::Registry) {
        self.read_time.register_into(reg, "read.latency_ms");
        reg.histogram("read.latency_us", self.read_hist.clone());
        self.read_time_warmup
            .register_into(reg, "read.warmup_latency_ms");
        self.write_time.register_into(reg, "write.latency_ms");
        reg.counter("disk.reads_demand", self.disk_reads_demand);
        reg.counter("disk.reads_prefetch", self.disk_reads_prefetch);
        reg.counter("disk.writes", self.disk_writes);
        reg.counter("disk.warmup_ops", self.disk_ops_warmup);
        reg.counter("prefetch.absorbed_in_flight", self.prefetch_absorbed);
        reg.counter("demand.coalesced", self.demand_coalesced);
        self.spans.register_into(reg);
    }
}

/// One bucket of the read-latency time series.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TimeBucket {
    /// Bucket start, in simulated seconds.
    pub start_s: f64,
    /// Mean read latency of requests starting in this bucket, ms.
    pub mean_ms: f64,
    /// Requests in the bucket.
    pub reads: u64,
}

/// The span model's prefetch score: how many reads prefetching
/// reached, how many prefetched blocks were used, and how many of the
/// reached reads found their block already in the cache. Each ratio is
/// 0 when its denominator is empty.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SpanScore {
    /// `(covered + late) / reads`: share of reads a prefetch reached.
    pub coverage: f64,
    /// `used / (used + wasted)`: share of judged prefetches that a
    /// read consumed.
    pub accuracy: f64,
    /// `covered / (covered + late)`: share of reached reads whose
    /// prefetch had already landed.
    pub timeliness: f64,
}

impl SpanScore {
    /// Score the five counts: measured reads, reads covered by a
    /// landed prefetch, reads that caught a prefetch still in flight,
    /// prefetched blocks used (absorbed fetches included), and
    /// prefetched blocks evicted unused.
    pub fn new(reads: u64, covered: u64, late: u64, used: u64, wasted: u64) -> Self {
        let ratio = |num: u64, den: u64| {
            if den == 0 {
                0.0
            } else {
                num as f64 / den as f64
            }
        };
        SpanScore {
            coverage: ratio(covered + late, reads),
            accuracy: ratio(used, used + wasted),
            timeliness: ratio(covered, covered + late),
        }
    }
}

/// Final report of one simulation run — everything the paper's figures
/// and tables plot.
///
/// `PartialEq` compares every field, including the metrics registry —
/// the A/B determinism test relies on a traced and an untraced run
/// producing equal reports.
#[derive(Clone, Debug, PartialEq)]
pub struct SimReport {
    /// `"PAFS/Ln_Agr_IS_PPM:1 @ 4MB"`-style label.
    pub label: String,
    /// Workload name.
    pub workload: String,
    /// Mean read latency in milliseconds — the y-axis of Figures 4–7.
    pub avg_read_ms: f64,
    /// Median read latency in ms (upper bucket edge of a log-2
    /// histogram — coarse but distribution-shaped).
    pub read_p50_ms: f64,
    /// 95th-percentile read latency in ms (same caveat).
    pub read_p95_ms: f64,
    /// 99th-percentile read latency in ms (same caveat).
    pub read_p99_ms: f64,
    /// Number of read requests measured.
    pub reads: u64,
    /// Read requests that fell inside the warm-up window (excluded
    /// from all other read statistics).
    pub warmup_reads: u64,
    /// Mean write latency in milliseconds.
    pub avg_write_ms: f64,
    /// Number of write requests measured.
    pub writes: u64,
    /// Write requests that fell inside the warm-up window (excluded
    /// from all other write statistics).
    pub warmup_writes: u64,
    /// Disk reads issued by demand misses.
    pub disk_reads_demand: u64,
    /// Disk reads issued by the prefetcher.
    pub disk_reads_prefetch: u64,
    /// Disk writes (write-back sweeps + dirty evictions).
    pub disk_writes: u64,
    /// Mean number of times a written block was written to disk —
    /// Table 2's statistic.
    pub writes_per_block: f64,
    /// Cache counters.
    pub cache: CacheStats,
    /// Prefetch-engine counters aggregated over all files.
    pub prefetch: PrefetchStats,
    /// Prefetch fetches absorbed by demand requests while in flight.
    pub prefetch_absorbed: u64,
    /// Fraction of prefetched blocks never used (§5.2). Absorbed
    /// fetches count as used.
    pub mispredict_ratio: f64,
    /// Mean disk utilization over the run.
    pub disk_utilization: f64,
    /// Dispatches that drew at least one transient disk error under
    /// the active fault plan (zero without one).
    pub faults_injected: u64,
    /// Disk jobs aborted by an outage and re-queued (timeout-and-
    /// failover events).
    pub failovers: u64,
    /// Total node-seconds spent in degraded mode (summed over nodes).
    pub degraded_s: f64,
    /// Total simulated time, seconds.
    pub sim_seconds: f64,
    /// Read latency per metrics interval over the *whole* run
    /// (including warm-up) — shows cache warm-up and steady state.
    pub read_time_series: Vec<TimeBucket>,
    /// The unified metrics registry: every layer's counters under one
    /// namespace (`read.*`, `disk.*`, `cache.*`, `prefetch.*`,
    /// `disk<N>.*`), exportable as CSV or a human summary.
    pub obs: lapobs::Registry,
}

impl SimReport {
    /// Total disk accesses (the y-axis of Figures 8–11).
    pub fn disk_accesses(&self) -> u64 {
        self.disk_reads_demand + self.disk_reads_prefetch + self.disk_writes
    }

    /// A counter of the unified metrics registry, 0 when absent.
    pub fn counter(&self, name: &str) -> u64 {
        match self.obs.get(name) {
            Some(lapobs::MetricValue::Counter(v)) => *v,
            _ => 0,
        }
    }

    /// The span model's prefetch score of this run.
    pub fn span_score(&self) -> SpanScore {
        SpanScore::new(
            self.reads,
            self.counter("span.outcome_covered_by_prefetch"),
            self.counter("span.outcome_late_prefetch"),
            self.counter("cache.prefetch_used") + self.counter("prefetch.absorbed_in_flight"),
            self.counter("cache.prefetch_wasted"),
        )
    }

    /// A multi-line, human-readable rendering of every metric (used by
    /// `lapsim --verbose`).
    pub fn render_detailed(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        writeln!(out, "{}", self.summary()).unwrap();
        writeln!(out, "  workload            {}", self.workload).unwrap();
        writeln!(
            out,
            "  reads / writes      {} / {}",
            self.reads, self.writes
        )
        .unwrap();
        writeln!(
            out,
            "  read p50/p95/p99    {:.3} / {:.3} / {:.3} ms",
            self.read_p50_ms, self.read_p95_ms, self.read_p99_ms
        )
        .unwrap();
        writeln!(out, "  warm-up reads       {}", self.warmup_reads).unwrap();
        writeln!(out, "  avg write           {:.3} ms", self.avg_write_ms).unwrap();
        writeln!(
            out,
            "  disk reads          {} demand + {} prefetch",
            self.disk_reads_demand, self.disk_reads_prefetch
        )
        .unwrap();
        writeln!(out, "  disk writes         {}", self.disk_writes).unwrap();
        writeln!(out, "  writes per block    {:.2}", self.writes_per_block).unwrap();
        writeln!(
            out,
            "  hits                {} local + {} remote",
            self.cache.local_hits, self.cache.remote_hits
        )
        .unwrap();
        writeln!(
            out,
            "  hit ratio           {:.2}%",
            self.cache.hit_ratio() * 100.0
        )
        .unwrap();
        writeln!(
            out,
            "  prefetch            {} issued, {} absorbed in flight, {:.1}% fallback",
            self.prefetch.issued,
            self.prefetch_absorbed,
            self.prefetch.fallback_share() * 100.0
        )
        .unwrap();
        writeln!(
            out,
            "  mispredict ratio    {:.2}%",
            self.mispredict_ratio * 100.0
        )
        .unwrap();
        writeln!(
            out,
            "  disk utilization    {:.2}%",
            self.disk_utilization * 100.0
        )
        .unwrap();
        if self.faults_injected > 0 || self.failovers > 0 || self.degraded_s > 0.0 {
            writeln!(
                out,
                "  faults              {} injected, {} failovers, {:.1} node-s degraded",
                self.faults_injected, self.failovers, self.degraded_s
            )
            .unwrap();
        }
        writeln!(out, "  simulated time      {:.1} s", self.sim_seconds).unwrap();
        out
    }

    /// One-line summary for harness output.
    pub fn summary(&self) -> String {
        format!(
            "{:<32} read {:7.3} ms ({:>8} reads)  disk r/w {:>8}/{:>7}  hit {:5.1}%  mispred {:4.1}%",
            self.label,
            self.avg_read_ms,
            self.reads,
            self.disk_reads_demand + self.disk_reads_prefetch,
            self.disk_writes,
            self.cache.hit_ratio() * 100.0,
            self.mispredict_ratio * 100.0,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ioworkload::FileId;

    #[test]
    fn warmup_boundary_splits_reads() {
        let mut m = Metrics::new(SimTime::from_nanos(1000), SimDuration::from_secs(60));
        m.record_read(SimTime::from_nanos(500), SimDuration::from_millis(2));
        m.record_read(SimTime::from_nanos(1500), SimDuration::from_millis(4));
        assert_eq!(m.read_time.count(), 1);
        assert_eq!(m.read_time_warmup.count(), 1);
        assert!((m.read_time.mean() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn disk_counters_split_by_kind_and_warmup() {
        let mut m = Metrics::new(SimTime::from_nanos(10), SimDuration::from_secs(60));
        m.record_disk_read(SimTime::from_nanos(5), false); // warmup
        m.record_disk_read(SimTime::from_nanos(20), false);
        m.record_disk_read(SimTime::from_nanos(20), true);
        m.record_disk_write(SimTime::from_nanos(20), BlockId::new(FileId(0), 1));
        m.record_disk_write(SimTime::from_nanos(30), BlockId::new(FileId(0), 1));
        assert_eq!(m.disk_ops_warmup, 1);
        assert_eq!(m.disk_reads_demand, 1);
        assert_eq!(m.disk_reads_prefetch, 1);
        assert_eq!(m.disk_writes, 2);
        assert_eq!(m.writes_per_block[&BlockId::new(FileId(0), 1)], 2);
    }

    #[test]
    fn report_disk_accesses_sums() {
        let r = SimReport {
            label: "x".into(),
            workload: "w".into(),
            avg_read_ms: 0.0,
            read_p50_ms: 0.0,
            read_p95_ms: 0.0,
            read_p99_ms: 0.0,
            reads: 0,
            warmup_reads: 0,
            avg_write_ms: 0.0,
            writes: 0,
            warmup_writes: 0,
            disk_reads_demand: 3,
            disk_reads_prefetch: 4,
            disk_writes: 5,
            writes_per_block: 0.0,
            cache: CacheStats::default(),
            prefetch: PrefetchStats::default(),
            prefetch_absorbed: 0,
            mispredict_ratio: 0.0,
            disk_utilization: 0.0,
            faults_injected: 0,
            failovers: 0,
            degraded_s: 0.0,
            sim_seconds: 0.0,
            read_time_series: Vec::new(),
            obs: lapobs::Registry::default(),
        };
        assert_eq!(r.disk_accesses(), 12);
        assert!(r.summary().contains("read"));
        let detail = r.render_detailed();
        assert!(detail.contains("hit ratio"));
        assert!(detail.contains("disk reads"));
    }

    /// The zero cases of the one span score. `lapreport` used to guard
    /// coverage with `reads == 0` and `experiments` divided by
    /// `reads.max(1)`; with no reads there is nothing covered or late,
    /// so both gave 0 and the shared definition must too.
    #[test]
    fn span_score_zero_cases() {
        let zero = SpanScore {
            coverage: 0.0,
            accuracy: 0.0,
            timeliness: 0.0,
        };
        // No reads at all.
        assert_eq!(SpanScore::new(0, 0, 0, 0, 0), zero);
        // No judged prefetches: accuracy is 0, the rest still scores.
        let s = SpanScore::new(8, 2, 2, 0, 0);
        assert_eq!((s.coverage, s.accuracy, s.timeliness), (0.5, 0.0, 0.5));
        // No prefetch-attributed reads: coverage and timeliness are 0.
        let s = SpanScore::new(8, 0, 0, 3, 1);
        assert_eq!((s.coverage, s.accuracy, s.timeliness), (0.0, 0.75, 0.0));
        // And the formula itself, against the old `reads.max(1)` form.
        let s = SpanScore::new(7, 3, 1, 5, 2);
        assert_eq!(s.coverage, (3.0 + 1.0) / 7f64.max(1.0));
        assert_eq!(s.accuracy, 5.0 / 7.0);
        assert_eq!(s.timeliness, 3.0 / 4.0);
    }

    #[test]
    fn time_series_buckets_by_interval() {
        let mut m = Metrics::new(SimTime::ZERO, SimDuration::from_secs(10));
        m.record_read(SimTime::from_nanos(1), SimDuration::from_millis(2));
        m.record_read(
            SimTime::ZERO + SimDuration::from_secs(25),
            SimDuration::from_millis(6),
        );
        assert_eq!(m.read_series.len(), 3);
        assert_eq!(m.read_series[0].count(), 1);
        assert_eq!(m.read_series[1].count(), 0);
        assert_eq!(m.read_series[2].count(), 1);
        assert!((m.read_series[2].mean() - 6.0).abs() < 1e-9);
    }

    #[test]
    fn histogram_feeds_percentiles() {
        let mut m = Metrics::new(SimTime::ZERO, SimDuration::from_secs(60));
        for ms in [1u64, 1, 1, 1, 1, 1, 1, 1, 1, 50] {
            m.record_read(SimTime::from_nanos(1), SimDuration::from_millis(ms));
        }
        assert_eq!(m.read_hist.count, 10);
        // p50 lives in the 1ms bucket, p99 in the 50ms one.
        assert!(m.read_hist.quantile_us(0.5) < m.read_hist.quantile_us(0.99));
    }
}
