//! The untraced run: the workload repeated until the measuring time is
//! used up, each repetition on a workload freshly set up (and that
//! set-up timed) from trace text generated afresh from the seed. Every
//! end-to-end metric comes from here.
//!
//! Set-ups are spread over the whole run, like the repetitions, so that
//! `setup_s` sees the same host as `run_s` does. `peak_rss_mb` covers
//! the first repetition only, one ingested workload and the simulations
//! running on it: the trace text and every earlier set-up's workload
//! are dropped, and the peak is reset, before it starts. Every
//! repetition's peak is printed.

use std::sync::Arc;
use std::time::{Duration, Instant};

use bench::Scale;
use ioworkload::Workload;
use lap_core::Simulation;
use lapobs::NoopRecorder;

use crate::measure::{median, peak_rss_mb, percentile, reset_peak_rss};
use crate::workload::{check, ingest, run_cell, Bench, TraceCounts};
use crate::{Metric, Outcome};

/// Set-ups timed before every repetition; `setup_s` is the median of
/// all of them.
const SETUPS_PER_REP: usize = 2;

/// Time one set-up: ingest the trace text and construct every cell's
/// simulation (each dropped before the next is built, untimed).
fn time_setup(bench: Bench, scale: Scale, text: &str) -> (Duration, Arc<Workload>) {
    let t = Instant::now();
    let wl = ingest(text);
    let mut total = t.elapsed();
    for cfg in bench.cells(scale) {
        let t = Instant::now();
        let sim = Simulation::new_shared(cfg, Arc::clone(&wl));
        total += t.elapsed();
        drop(sim);
    }
    (total, wl)
}

/// One pass over every cell of the workload.
struct Rep {
    run_s: f64,
    cpu_s: f64,
    events: u64,
    /// Construction plus run, per cell, in roster order.
    cell_s: Vec<f64>,
    digests: Vec<u64>,
}

pub fn run(bench: Bench, scale: Scale, seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    let cells = bench.cells(scale);
    let workers = bench.workers();
    let mut setup = Vec::new();
    let mut counts = None;
    let (mut peaks, mut peak_reset) = (Vec::new(), true);

    let mut reps: Vec<Rep> = Vec::new();
    let (mut sim_read_ms, mut sim_disk): (f64, f64);
    let t0 = Instant::now();
    loop {
        let rep_start = Instant::now();
        let text = bench.trace_text(scale, seed);
        let mut wl = None;
        for _ in 0..SETUPS_PER_REP {
            drop(wl.take());
            let (d, w) = time_setup(bench, scale, &text);
            setup.push(d.as_secs_f64());
            wl = Some(w);
        }
        drop(text);
        let wl = wl.expect("at least one set-up");
        let counts = *counts.get_or_insert_with(|| TraceCounts::of(&wl));
        peak_reset &= reset_peak_rss();

        let runs = bench::par_map(&cells, workers, |cfg| run_cell(cfg, &wl, NoopRecorder));
        let mut rep = Rep {
            run_s: 0.0,
            cpu_s: 0.0,
            events: 0,
            cell_s: Vec::new(),
            digests: Vec::new(),
        };
        let (mut first, mut last) = (None::<Instant>, None::<Instant>);
        let (mut read_ms, mut disk) = (0.0, 0u64);
        for r in runs {
            out.attempted += 1;
            let cell = match r.and_then(|c| check(&c.report, &counts).map(|d| (c, d))) {
                Ok((c, d)) => {
                    rep.digests.push(d);
                    c
                }
                Err(e) => {
                    out.fail(e);
                    rep.digests.push(0);
                    continue;
                }
            };
            first = Some(first.map_or(cell.start, |f| f.min(cell.start)));
            last = Some(last.map_or(cell.end, |l| l.max(cell.end)));
            rep.cell_s.push((cell.end - cell.start).as_secs_f64());
            rep.events += cell.profile.counters.events;
            read_ms += cell.report.avg_read_ms;
            disk += cell.report.disk_accesses();
            if cells.len() == 1 {
                rep.run_s = cell.run.as_secs_f64();
                rep.cpu_s = cell.run_cpu.as_secs_f64();
            } else {
                rep.cpu_s += cell.cell_cpu.as_secs_f64();
            }
        }
        if cells.len() > 1 {
            if let (Some(f), Some(l)) = (first, last) {
                rep.run_s = (l - f).as_secs_f64();
            }
        }
        sim_read_ms = read_ms / cells.len() as f64;
        sim_disk = disk as f64;
        if let Some(prev) = reps.first() {
            if prev.digests != rep.digests {
                out.mismatch("report digests differ between repetitions of the same seed".into());
            }
        }
        peaks.push(peak_rss_mb());
        reps.push(rep);
        let used = t0.elapsed() + rep_start.elapsed();
        if used.as_secs_f64() > seconds {
            break;
        }
    }

    let per_rep = |f: fn(&Rep) -> f64| median(&reps.iter().map(f).collect::<Vec<_>>());
    // A single-cell workload gives one cell timing per repetition; the
    // sweep gives one per cell, each the median over repetitions.
    let samples: Vec<f64> = if cells.len() == 1 {
        reps.iter()
            .filter_map(|r| r.cell_s.first().copied())
            .collect()
    } else {
        (0..cells.len())
            .map(|i| {
                median(
                    &reps
                        .iter()
                        .filter_map(|r| r.cell_s.get(i).copied())
                        .collect::<Vec<_>>(),
                )
            })
            .collect()
    };
    let (p85, above) = percentile(&samples, 0.85);
    out.note(format!(
        "setups={} repetitions={} cell_samples={} cell_samples_above_p85={above} digest={:016x}",
        setup.len(),
        reps.len(),
        samples.len(),
        reps.first().map_or(0, |r| combined_digest(&r.digests))
    ));
    if !peak_reset {
        out.note("peak_rss_mb could not be reset; it includes set-up".into());
    }
    let rep_runs: Vec<String> = reps.iter().map(|r| format!("{:.3}", r.run_s)).collect();
    out.note(format!("run_s per repetition: {}", rep_runs.join(" ")));
    let rep_peaks: Vec<String> = peaks.iter().map(|p| format!("{p:.1}")).collect();
    out.note(format!(
        "peak_rss_mb per repetition: {}",
        rep_peaks.join(" ")
    ));
    out.note(format!(
        "failed_frac={}",
        out.failed as f64 / out.attempted.max(1) as f64
    ));
    out.metrics = vec![
        Metric::new("setup_s", median(&setup), "s"),
        Metric::new("run_s", per_rep(|r| r.run_s), "s"),
        Metric::new("cpu_s", per_rep(|r| r.cpu_s), "s"),
        Metric::new(
            "events_per_s",
            per_rep(|r| r.events as f64 / r.run_s.max(1e-9)),
            "1/s",
        ),
        Metric::new("cell_p50_s", median(&samples), "s"),
        Metric::new("cell_p85_s", p85, "s"),
        Metric::new(
            "peak_rss_mb",
            // The first repetition runs on a heap no earlier one has
            // fragmented; later peaks drift up by up to a fifth.
            peaks[0],
            "MB",
        ),
        Metric::new("sim_read_ms", sim_read_ms, "ms"),
        Metric::new("sim_disk_accesses", sim_disk, "count"),
    ];
    out
}

/// Digest of a whole workload: the cell digests in roster order.
pub fn combined_digest(digests: &[u64]) -> u64 {
    let mut h = crate::measure::Fnv::new();
    for d in digests {
        h.write(&d.to_le_bytes());
    }
    h.finish()
}
