//! Property tests for the simulation substrate, driven by a seeded
//! in-file PRNG (no external dependencies — the workspace must build
//! offline). Each test sweeps many seeds; a failure message names the
//! seed so the case can be replayed exactly.

use simkit::{EventQueue, Priority, SimDuration, SimTime, Station, StationId};

/// SplitMix64 — enough randomness for generating test cases.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi)`.
    fn below(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo)
    }

    fn f64(&mut self) -> f64 {
        (self.next() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Events always come out in nondecreasing time order, and events
/// scheduled for the same instant keep their scheduling order.
#[test]
fn event_queue_is_ordered_and_stable() {
    for seed in 0..64u64 {
        let mut rng = Rng(seed);
        let n = rng.below(1, 200) as usize;
        let times: Vec<u64> = (0..n).map(|_| rng.below(0, 1_000)).collect();
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime::from_nanos(t), (t, i));
        }
        let mut last_time = 0u64;
        let mut last_seq_at_time = std::collections::BTreeMap::new();
        while let Some((at, (t, i))) = q.pop() {
            assert_eq!(at.as_nanos(), t, "seed {seed}");
            assert!(t >= last_time, "seed {seed}");
            last_time = t;
            if let Some(&prev) = last_seq_at_time.get(&t) {
                assert!(i > prev, "FIFO violated at t={t} (seed {seed})");
            }
            last_seq_at_time.insert(t, i);
        }
    }
}

/// The station conserves jobs: every arrival is eventually either
/// completed or cancelled, never duplicated or lost.
#[test]
fn station_conserves_jobs() {
    for seed in 0..64u64 {
        let mut rng = Rng(seed ^ 0x5747_4154);
        let n = rng.below(1, 100) as usize;
        let jobs: Vec<(u8, u64)> = (0..n)
            .map(|_| (rng.below(0, 2) as u8, rng.below(1, 100)))
            .collect();

        let mut station: Station<usize> = Station::new(StationId::disk(0));
        let mut queue: EventQueue<usize> = EventQueue::new();
        let mut started = std::collections::BTreeSet::new();
        let mut completed = std::collections::BTreeSet::new();

        // Jobs arrive 1ns apart; completions are processed in order.
        let mut t = SimTime::ZERO;
        for (id, &(prio, service)) in jobs.iter().enumerate() {
            // Drain completions that precede this arrival.
            while queue.peek_time().is_some_and(|ct| ct <= t) {
                let (ct, done_id) = queue.pop().unwrap();
                assert!(completed.insert(done_id), "seed {seed}");
                if let Some(next) = station.complete(ct) {
                    assert!(started.insert(next.tag), "seed {seed}");
                    queue.schedule(next.completes_at, next.tag);
                }
            }
            if let Some(sj) =
                station.arrive(t, Priority(prio), SimDuration::from_nanos(service), id)
            {
                assert!(started.insert(sj.tag), "seed {seed}");
                queue.schedule(sj.completes_at, sj.tag);
            }
            t += SimDuration::from_nanos(1);
        }
        // Drain everything.
        while let Some((ct, done_id)) = queue.pop() {
            assert!(completed.insert(done_id), "seed {seed}");
            if let Some(next) = station.complete(ct) {
                assert!(started.insert(next.tag), "seed {seed}");
                queue.schedule(next.completes_at, next.tag);
            }
        }
        assert_eq!(completed.len(), jobs.len(), "seed {seed}");
        assert!(!station.is_busy(), "seed {seed}");
        assert_eq!(station.queue_len(), 0, "seed {seed}");
        assert_eq!(station.stats().completed, jobs.len() as u64, "seed {seed}");
    }
}

/// Within one priority class the station is strictly FIFO.
#[test]
fn station_fifo_within_class() {
    for seed in 0..32u64 {
        let mut rng = Rng(seed ^ 0xF1F0);
        let n = rng.below(2, 50) as usize;
        let mut station: Station<usize> = Station::new(StationId::disk(0));
        let first = station
            .arrive(
                SimTime::ZERO,
                Priority::DEMAND,
                SimDuration::from_nanos(10),
                usize::MAX,
            )
            .unwrap();
        for id in 0..n {
            let r = station.arrive(
                SimTime::from_nanos(1 + id as u64),
                Priority::DEMAND,
                SimDuration::from_nanos(5),
                id,
            );
            assert!(r.is_none(), "seed {seed}");
        }
        let mut t = first.completes_at;
        for expect in 0..n {
            let next = station.complete(t).unwrap();
            assert_eq!(next.tag, expect, "seed {seed}");
            t = next.completes_at;
        }
    }
}

/// Series::merge is equivalent to sequential recording regardless of
/// the split point.
#[test]
fn series_merge_is_split_invariant() {
    use simkit::stats::Series;
    for seed in 0..64u64 {
        let mut rng = Rng(seed ^ 0x5E51E5);
        let n = rng.below(2, 100) as usize;
        let xs: Vec<f64> = (0..n).map(|_| (rng.f64() - 0.5) * 2e6).collect();
        let split = (n as f64 * rng.f64()) as usize;
        let mut whole = Series::new();
        for &x in &xs {
            whole.record(x);
        }
        let mut left = Series::new();
        let mut right = Series::new();
        for &x in &xs[..split] {
            left.record(x);
        }
        for &x in &xs[split..] {
            right.record(x);
        }
        left.merge(&right);
        assert_eq!(left.count(), whole.count(), "seed {seed}");
        assert!((left.mean() - whole.mean()).abs() < 1e-6, "seed {seed}");
        assert!(
            (left.variance() - whole.variance()).abs() < 1e-3,
            "seed {seed}"
        );
        assert_eq!(left.min(), whole.min(), "seed {seed}");
        assert_eq!(left.max(), whole.max(), "seed {seed}");
    }
}

/// A time-weighted average always lies between the min and max of the
/// recorded values.
#[test]
fn time_weighted_mean_is_bounded() {
    use simkit::stats::TimeWeighted;
    for seed in 0..64u64 {
        let mut rng = Rng(seed ^ 0x0071_37ED);
        let n = rng.below(1, 50) as usize;
        let mut tw = TimeWeighted::new(SimTime::ZERO, 0.0);
        let mut t = 0u64;
        let mut lo = 0.0f64;
        let mut hi = 0.0f64;
        for _ in 0..n {
            t += rng.below(1, 1000);
            let v = (rng.f64() - 0.5) * 200.0;
            tw.set(SimTime::from_nanos(t), v);
            lo = lo.min(v);
            hi = hi.max(v);
        }
        let mean = tw.mean(SimTime::from_nanos(t + 10));
        assert!(
            mean >= lo - 1e-9 && mean <= hi + 1e-9,
            "mean {mean} not in [{lo}, {hi}] (seed {seed})"
        );
    }
}

/// Histogram quantiles are monotone in q and bounded by the bucket
/// grid.
#[test]
fn histogram_quantiles_are_monotone() {
    use simkit::stats::LatencyHistogram;
    for seed in 0..64u64 {
        let mut rng = Rng(seed ^ 0x4157);
        let n = rng.below(1, 200) as usize;
        let us: Vec<u64> = (0..n).map(|_| rng.below(0, 1_000_000)).collect();
        let mut h = LatencyHistogram::new();
        for &u in &us {
            h.record(SimDuration::from_micros(u));
        }
        let mut prev = SimDuration::ZERO;
        for q in [0.0, 0.1, 0.5, 0.9, 0.99, 1.0] {
            let v = h.quantile(q);
            assert!(v >= prev, "quantile({q}) regressed (seed {seed})");
            prev = v;
        }
        assert_eq!(h.count(), us.len() as u64, "seed {seed}");
    }
}
