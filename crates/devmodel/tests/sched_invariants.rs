//! Seeded-sweep invariants for the reordering schedulers.
//!
//! Three guarantees the scheduling ablation rests on:
//! 1. SSTF/C-LOOK never serve a prefetch while a demand job waits —
//!    the priority class is chosen before the scheduler runs.
//! 2. Under a bounded arrival stream nothing starves: every submitted
//!    job eventually completes, exactly once.
//! 3. Both schedulers really reorder: on many seeds their completion
//!    sequence differs from the plain FIFO station's, so neither
//!    ablation arm is wired to a no-op.

use devmodel::{Clook, DiskGeometry, DiskModel, Sstf};
use simkit::{
    DeviceOp, EventQueue, FifoSched, JobSpec, Priority, Scheduler, SimTime, Station, StationId,
};

/// SplitMix64 — seeded case generation without external dependencies.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo)
    }
}

/// One generated arrival: (time offset ns, priority, file, block).
type Arrival = (u64, Priority, u32, u64);

fn gen_arrivals(rng: &mut Rng, n: usize) -> Vec<Arrival> {
    let mut t = 0u64;
    (0..n)
        .map(|_| {
            // Bursty arrivals: often back-to-back, sometimes a lull.
            t += if rng.below(0, 4) == 0 {
                rng.below(0, 30_000_000)
            } else {
                rng.below(0, 2_000_000)
            };
            let prio = if rng.below(0, 3) == 0 {
                Priority::PREFETCH
            } else {
                Priority::DEMAND
            };
            (t, prio, rng.below(0, 20) as u32, rng.below(0, 2048))
        })
        .collect()
}

/// Drive one station with `sched` over `arrivals`; returns the
/// completion sequence as (tag, completion time) and asserts the
/// demand-before-prefetch invariant at every dispatch.
fn drive(sched: Box<dyn Scheduler>, arrivals: &[Arrival], seed: u64) -> Vec<(usize, u64)> {
    let mut disk = DiskModel::geometry(DiskGeometry::tiny(), 8192);
    let mut station: Station<usize> = Station::with_scheduler(StationId::disk(0), sched);
    let mut queue: EventQueue<usize> = EventQueue::new();
    let mut rec = lapobs::NoopRecorder;
    // Mirror of waiting jobs: tag → priority.
    let mut waiting: std::collections::BTreeMap<usize, Priority> =
        std::collections::BTreeMap::new();
    let mut done: Vec<(usize, u64)> = Vec::new();

    let dispatch = |started: Option<simkit::StartedJob<usize>>,
                    waiting: &mut std::collections::BTreeMap<usize, Priority>,
                    queue: &mut EventQueue<usize>| {
        if let Some(j) = started {
            let prio = waiting.remove(&j.tag);
            if let Some(prio) = prio {
                // The demand-before-prefetch rule: a prefetch may start
                // only when no demand job is waiting.
                if prio == Priority::PREFETCH {
                    assert!(
                        !waiting.values().any(|&p| p == Priority::DEMAND),
                        "seed {seed}: prefetch {} served while a demand job waited",
                        j.tag
                    );
                }
            }
            queue.schedule(j.completes_at, j.tag);
        }
    };

    for (id, &(at, prio, file, block)) in arrivals.iter().enumerate() {
        let t = SimTime::from_nanos(at);
        // Drain completions that precede this arrival.
        while queue.peek_time().is_some_and(|ct| ct <= t) {
            let (ct, tag) = queue.pop().unwrap();
            done.push((tag, ct.as_nanos()));
            let next = station.complete_job(ct, &mut disk, &mut rec);
            dispatch(next, &mut waiting, &mut queue);
        }
        let spec = JobSpec {
            op: DeviceOp::Read,
            pos: disk.lba_of(file, block),
            bytes: 8192,
            blocks: 1,
            rid: id as u32,
        };
        waiting.insert(id, prio);
        let started = station.arrive_job(t, prio, spec, id, &mut disk, &mut rec);
        if started.is_some() {
            // Started immediately: it was never "waiting" for the
            // invariant's purposes.
            waiting.remove(&id);
        }
        dispatch(started, &mut waiting, &mut queue);
    }
    // Bounded stream over — everything must drain (no starvation).
    while let Some((ct, tag)) = queue.pop() {
        done.push((tag, ct.as_nanos()));
        let next = station.complete_job(ct, &mut disk, &mut rec);
        dispatch(next, &mut waiting, &mut queue);
    }
    assert!(!station.is_busy(), "seed {seed}: station left busy");
    assert_eq!(station.queue_len(), 0, "seed {seed}: jobs left queued");
    done
}

#[test]
fn reordering_never_serves_prefetch_over_waiting_demand() {
    for seed in 0..40u64 {
        let mut rng = Rng(seed ^ 0xD15C);
        let arrivals = gen_arrivals(&mut rng, 150);
        drive(Box::new(Sstf), &arrivals, seed);
        drive(Box::new(Clook), &arrivals, seed);
    }
}

#[test]
fn no_job_starves_under_bounded_arrivals() {
    for seed in 0..40u64 {
        let mut rng = Rng(seed ^ 0x57A4);
        let n = rng.below(20, 250) as usize;
        let arrivals = gen_arrivals(&mut rng, n);
        for sched in [Box::new(Sstf) as Box<dyn Scheduler>, Box::new(Clook)] {
            let done = drive(sched, &arrivals, seed);
            assert_eq!(done.len(), n, "seed {seed}: jobs lost");
            let mut tags: Vec<usize> = done.iter().map(|&(t, _)| t).collect();
            tags.sort_unstable();
            tags.dedup();
            assert_eq!(tags.len(), n, "seed {seed}: a job completed twice");
        }
    }
}

/// Across the sweep, SSTF and C-LOOK must each actually change the
/// completion order on a healthy fraction of seeds — otherwise that
/// ablation arm is wired to a no-op.
#[test]
fn live_schedulers_reorder_somewhere() {
    let (mut sstf_changed, mut clook_changed) = (0, 0);
    for seed in 0..40u64 {
        let mut rng = Rng(seed ^ 0x0BEE);
        let arrivals = gen_arrivals(&mut rng, 200);
        let fifo = drive(Box::new(FifoSched), &arrivals, seed);
        sstf_changed += usize::from(drive(Box::new(Sstf), &arrivals, seed) != fifo);
        clook_changed += usize::from(drive(Box::new(Clook), &arrivals, seed) != fifo);
    }
    assert!(
        sstf_changed >= 10,
        "SSTF only diverged from FIFO on {sstf_changed}/40 seeds"
    );
    assert!(
        clook_changed >= 10,
        "C-LOOK only diverged from FIFO on {clook_changed}/40 seeds"
    );
}
