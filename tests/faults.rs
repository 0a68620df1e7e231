//! Fault-injection guarantees at the whole-simulator level
//! (DESIGN.md §10): an *active* fault plan keeps every determinism
//! contract the clean simulator makes — tracing changes nothing,
//! replay is bit-identical — while a *zero* plan is indistinguishable
//! from having no fault layer at all; and the new span components
//! (`span.retry_us`, `span.failover_us`) are populated exactly when
//! faults are active, without ever breaking the nine-component sum.

use std::sync::Arc;

use lap::ioworkload::{FileMeta, ProcessTrace};
use lap::lapobs::MetricValue;
use lap::prelude::*;

mod common;
use common::{scenario, small_pm, small_workload};

/// The `experiments faults` "heavy" plan: transient errors with
/// bursts, disk and node outage windows, network loss and delay.
fn heavy_plan() -> FaultPlan {
    FaultPlan::parse(
        "seed=7,disk-error=0.02,disk-retries=5,backoff-ms=5,burst=10:2,\
         outage=30:3,node-outage=45:5,net-loss=0.02,net-delay=0.05:2",
    )
    .unwrap()
}

fn hist(report: &SimReport, key: &str) -> (u64, f64) {
    match report.obs.get(key) {
        Some(MetricValue::Histogram(h)) => (h.count, h.total_us()),
        other => panic!("{key}: expected a histogram, got {other:?}"),
    }
}

/// The zero-overhead tracing contract survives fault injection: a
/// `TraceRecorder` run under an active plan produces the same
/// `SimReport` (every metric, via `PartialEq`) as the no-op run.
#[test]
fn tracing_does_not_change_faulted_results() {
    let wl = Arc::new(small_workload(42));
    let mut cfg = small_pm(PrefetchConfig::ln_agr_is_ppm(1), 1);
    cfg.fault_plan = Some(heavy_plan());

    let baseline = run_simulation(cfg.clone(), Arc::clone(&wl));
    let run = Simulation::try_new(cfg, wl, TraceRecorder::new())
        .unwrap()
        .run();
    let (traced, rec) = (run.report, run.rec);

    assert!(
        baseline.faults_injected > 0,
        "plan inert — the A/B says nothing"
    );
    assert_eq!(baseline, traced, "tracing perturbed a faulted simulation");
    assert!(!rec.is_empty(), "the traced run captured no events");
}

/// Same seed, same plan, same report — the fault layer draws from its
/// own seeded stream and from simulated time only, so a faulted run
/// replays bit-identically.
#[test]
fn faulted_runs_replay_bit_identically() {
    let wl = small_workload(42);
    let mut cfg = small_pm(PrefetchConfig::ln_agr_oba(), 2);
    cfg.fault_plan = Some(heavy_plan());

    let a = run_simulation(cfg.clone(), wl.clone());
    let b = run_simulation(cfg, wl);
    assert!(
        a.faults_injected > 0,
        "plan inert — replay check is vacuous"
    );
    assert_eq!(a, b, "same (workload, config, plan) must replay exactly");
}

/// A plan with no fault sources — whether `FaultPlan::default()` or a
/// parsed spec that only sets a seed — must be indistinguishable from
/// `fault_plan: None`: every injection site short-circuits and the
/// report is equal down to the last bit of the registry.
#[test]
fn zero_fault_plan_is_identical_to_no_plan() {
    let wl = small_workload(42);
    let cfg = small_pm(PrefetchConfig::ln_agr_is_ppm(1), 1);

    let clean = run_simulation(cfg.clone(), wl.clone());

    for plan in [FaultPlan::default(), FaultPlan::parse("seed=9").unwrap()] {
        assert!(plan.is_empty(), "these plans must carry no fault sources");
        let mut faulted_cfg = cfg.clone();
        faulted_cfg.fault_plan = Some(plan);
        let zero = run_simulation(faulted_cfg, wl.clone());
        assert_eq!(
            clean.avg_read_ms.to_bits(),
            zero.avg_read_ms.to_bits(),
            "zero-fault read time drifted"
        );
        assert_eq!(clean, zero, "zero-fault plan perturbed the simulation");
    }
    assert_eq!(clean.faults_injected, 0);
    assert_eq!(clean.failovers, 0);
    assert_eq!(clean.degraded_s, 0.0);
}

/// Span attribution under stress: the retry and failover components
/// cover every post-warmup read (schema: count == reads even when the
/// value is zero), are nonzero exactly when the plan is active, and
/// the nine components still sum to the mean read time — faults are
/// attributed, never lost or invented. Demand reads themselves are
/// neither lost nor double counted.
#[test]
fn retry_and_failover_are_attributed_exactly() {
    const SPAN_KEYS: [&str; 9] = [
        "span.queue_us",
        "span.failover_us",
        "span.seek_us",
        "span.rotation_us",
        "span.disk_transfer_us",
        "span.retry_us",
        "span.coordination_us",
        "span.network_us",
        "span.transfer_us",
    ];

    let wl = small_workload(42);
    let cfg = small_pm(PrefetchConfig::ln_agr_is_ppm(1), 1);
    let clean = run_simulation(cfg.clone(), wl.clone());
    let mut faulted_cfg = cfg;
    faulted_cfg.fault_plan = Some(heavy_plan());
    let faulted = run_simulation(faulted_cfg, wl);

    // No read lost to an aborted job, none double counted by a reissue.
    assert_eq!(clean.reads, faulted.reads, "fault plan changed read count");
    assert_eq!(clean.writes, faulted.writes, "fault plan changed writes");

    for (report, active) in [(&clean, false), (&faulted, true)] {
        let mut sum_us = 0.0;
        for key in SPAN_KEYS {
            let (count, total_us) = hist(report, key);
            assert_eq!(count, report.reads, "{key} must cover every read");
            sum_us += total_us;
        }
        let sum_ms = sum_us / 1e3 / report.reads as f64;
        assert!(
            (sum_ms - report.avg_read_ms).abs() <= 1e-3_f64.max(report.avg_read_ms * 1e-3),
            "components sum to {sum_ms} ms but reads averaged {} ms (faults: {active})",
            report.avg_read_ms
        );

        let (_, retry_us) = hist(report, "span.retry_us");
        let (_, failover_us) = hist(report, "span.failover_us");
        if active {
            assert!(report.faults_injected > 0, "heavy plan injected nothing");
            assert!(retry_us > 0.0, "injected retries left no span.retry_us");
            assert!(failover_us > 0.0, "outage windows left no span.failover_us");
            assert!(report.degraded_s > 0.0, "node outages left no residency");
        } else {
            assert_eq!(retry_us, 0.0, "clean run accrued retry time");
            assert_eq!(failover_us, 0.0, "clean run accrued failover time");
        }
    }
}

/// The stale-completion edge of the outage protocol: when an outage
/// window ends at exactly the instant the aborted job's original
/// `DiskDone` was scheduled, the stale completion and the `DiskUp`
/// event land on the same timestamp. The read must complete exactly
/// once (reissued, not lost to the abort and not double-completed by
/// the stale event), with the oracle on.
#[test]
fn outage_ending_at_disk_done_instant_completes_read_once() {
    // Geometry: one node, one disk, one cold 1-block read. A cold read
    // dispatched at t0 completes at exactly t0 + S (fixed service
    // model, no contention). With an outage of length L < S starting
    // at P, scheduling the read at t0 = P + L - S makes the abort
    // happen mid-service at P and the stale DiskDone arrive exactly at
    // the DiskUp instant P + L.
    let mut cfg = SimConfig::pm(CacheSystem::Pafs, PrefetchConfig::np(), 1);
    cfg.machine.nodes = 1;
    cfg.machine.disks = 1;
    cfg.check = CheckMode::On;
    let s = cfg.machine.disk_read_service();
    let l = SimDuration::from_millis(5);
    assert!(l < s, "outage must end mid-service for the edge to exist");

    // The outage phase is seed-derived; deterministically take the
    // first seed that leaves room for a non-negative compute lead-in.
    let (plan, p) = (0u64..)
        .find_map(|seed| {
            let plan = FaultPlan::parse(&format!("seed={seed},outage=30:0.005")).unwrap();
            let p = plan.first_disk_down(0).unwrap() - SimTime::ZERO;
            (p >= s).then_some((plan, p))
        })
        .unwrap();

    let bs = cfg.machine.block_size;
    let wl = Workload {
        name: "doneseq-edge".into(),
        block_size: bs,
        nodes: 1,
        files: vec![FileMeta {
            id: FileId(0),
            size: bs,
        }],
        processes: vec![ProcessTrace {
            proc: ProcId(0),
            node: NodeId(0),
            ops: vec![
                Op::Compute(p + l - s),
                Op::Read {
                    file: FileId(0),
                    offset: 0,
                    len: bs,
                },
            ],
        }],
    };
    wl.validate();
    cfg.fault_plan = Some(plan);

    let r = run_simulation(cfg, wl);
    assert_eq!(
        r.reads + r.warmup_reads,
        1,
        "the read must complete exactly once"
    );
    assert_eq!(r.failovers, 1, "the outage must abort and reissue the job");
    assert!(
        r.avg_read_ms * 1e6 >= s.as_nanos() as f64,
        "a reissued read cannot beat one clean service"
    );
}

/// `node-outage-wipe` models a crash, not a nap: the rejoining node
/// comes back with an empty cache. Same seed and schedule as the
/// intact variant, so demand-read conservation and degraded residency
/// are identical — but the wiped runs must re-read lost buffers from
/// disk.
#[test]
fn wiped_node_outages_rejoin_cold_and_pay_for_it() {
    let wl = small_workload(42);
    let run = |spec: &str| {
        let mut cfg = small_pm(PrefetchConfig::ln_agr_is_ppm(1), 1);
        cfg.check = CheckMode::On;
        cfg.fault_plan = Some(FaultPlan::parse(spec).unwrap());
        run_simulation(cfg, wl.clone())
    };
    let intact = run("seed=7,node-outage=45:5");
    let wiped = run("seed=7,node-outage-wipe=45:5");

    assert!(
        intact.degraded_s > 0.0,
        "plan inert — comparison is vacuous"
    );
    assert_eq!(
        intact.degraded_s, wiped.degraded_s,
        "wipe must not change the outage schedule itself"
    );
    assert_eq!(
        (
            intact.reads + intact.warmup_reads,
            intact.writes + intact.warmup_writes
        ),
        (
            wiped.reads + wiped.warmup_reads,
            wiped.writes + wiped.warmup_writes
        ),
        "wipe lost or double-counted requests"
    );
    assert!(
        wiped.disk_accesses() > intact.disk_accesses(),
        "a cold rejoin must re-read wiped buffers from disk \
         (wiped {} vs intact {})",
        wiped.disk_accesses(),
        intact.disk_accesses()
    );
}

/// A disk job an outage aborts goes back on its queue with its own
/// read id and priority, even when its stale completion overtakes an
/// older one's. Retries that back off for seconds make one service
/// outlast a whole 2 s outage period, so stale completions arrive out
/// of abort order hundreds of times per disk here; the oracle checks
/// every requeue against what its abort recorded.
#[test]
fn requeued_jobs_keep_their_own_read_and_priority() {
    let (mut cfg, wl) = scenario(
        "charisma",
        CacheSystem::Pafs,
        PrefetchConfig::ln_agr_is_ppm(1),
        4,
    );
    cfg.check = CheckMode::On;
    cfg.fault_plan =
        Some(FaultPlan::parse("disk-error=0.9,disk-retries=5,backoff-ms=1800,outage=2:1").unwrap());
    let r = run_simulation(cfg, wl);
    assert!(r.failovers > 0, "plan inert: no outage aborted a job");
}

/// The same plan on extent-granular runs: outages abort and requeue
/// multi-block jobs, held queues credit failover to every member of a
/// run, and demand promotes whole runs. No read or write is lost or
/// double counted, tracing changes nothing, and the read time is
/// pinned bit for bit.
#[test]
fn extent_runs_survive_outages_and_retries() {
    let (mut cfg, wl) = scenario(
        "charisma",
        CacheSystem::Pafs,
        PrefetchConfig::ln_agr_is_ppm(1),
        4,
    );
    cfg.machine = cfg.machine.with_geometry_extent(8);
    cfg.machine.prefetch_granularity = PrefetchGranularity::Extent;
    cfg.check = CheckMode::On;
    cfg.fault_plan =
        Some(FaultPlan::parse("disk-error=0.9,disk-retries=5,backoff-ms=1800,outage=2:1").unwrap());
    let ops = || wl.processes.iter().flat_map(|p| &p.ops);
    let trace_reads = ops().filter(|op| matches!(op, Op::Read { .. })).count() as u64;
    let trace_writes = ops().filter(|op| matches!(op, Op::Write { .. })).count() as u64;

    let wl = Arc::new(wl);
    let r = run_simulation(cfg.clone(), Arc::clone(&wl));
    assert_eq!(
        r.reads + r.warmup_reads,
        trace_reads,
        "reads lost or doubled"
    );
    assert_eq!(
        r.writes + r.warmup_writes,
        trace_writes,
        "writes lost or doubled"
    );
    assert!(r.failovers > 0, "plan inert: no outage aborted a job");
    assert!(r.prefetch.extent_batches > 0, "no extent run was issued");
    let traced = Simulation::try_new(cfg, wl, TraceRecorder::new())
        .unwrap()
        .run()
        .report;
    assert_eq!(r, traced, "tracing perturbed a faulted extent run");
    assert_eq!(
        r.avg_read_ms.to_bits(),
        154092.05192800952_f64.to_bits(),
        "avg_read_ms {:?} drifted",
        r.avg_read_ms
    );
}
