//! Regenerate every table and figure of the paper's evaluation.
//!
//! ```text
//! experiments all                    # every figure + table, paper scale
//! experiments fig4 fig8              # specific artifacts
//! experiments all --scale small      # quick, scaled-down sweep
//! experiments table1                 # print the simulation parameters
//! experiments fallback-share         # §2.2's OBA-fallback percentages
//! experiments mispredict             # §5.2's miss-prediction ratios
//! experiments --out results          # also write CSVs
//! experiments all --out results --obs  # plus per-cell unified metrics
//! ```

use std::fs;
use std::path::PathBuf;

use bench::{
    build_config, build_workload, experiment, render_csv, render_table, run_grid, Scale,
    WorkloadKind, CACHE_MBS, EXPERIMENTS,
};
use coopcache::MetaLayout;
use devmodel::DiskSched;
use faultkit::FaultPlan;
use lap_core::{
    run_simulation, run_simulation_profiled, CacheSystem, CheckMode, MachineConfig,
    PrefetchGranularity, Replacement,
};
use lapobs::MetricValue;
use prefetch::{AggressiveLimit, EdgeChoice, PredictorSpec, PrefetchConfig};
use simkit::QueueBackend;
use workzoo::WorkloadSpec;

struct Options {
    ids: Vec<String>,
    scale: Scale,
    seed: u64,
    out: Option<PathBuf>,
    threads: usize,
    obs: bool,
    bench_out: Option<PathBuf>,
    /// Restrict the `predictors` ablation to one registry spec.
    predictor: Option<PredictorSpec>,
    /// Restrict the `zoo`/`mithril-sweep` ablations to one workload.
    workload: Option<WorkloadSpec>,
    /// Number of seeded random fault plans the `chaos` sweep runs.
    plans: usize,
}

fn scale_name(s: Scale) -> &'static str {
    match s {
        Scale::Small => "small",
        Scale::Paper => "paper",
    }
}

fn parse_args() -> Options {
    let mut opts = Options {
        ids: Vec::new(),
        scale: Scale::Paper,
        seed: 42,
        out: None,
        threads: std::thread::available_parallelism().map_or(4, |n| n.get()),
        obs: false,
        bench_out: None,
        predictor: None,
        workload: None,
        plans: 500,
    };
    let mut workload_raw: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--smoke" => {
                // CI sanity mode: a fast, deterministic subset at small
                // scale. Any panic (bad table, broken invariant) fails
                // the run.
                opts.scale = Scale::Small;
                opts.ids = vec![
                    "table1".into(),
                    "devmodel".into(),
                    "extent".into(),
                    "faults".into(),
                    "predictors".into(),
                    "zoo".into(),
                ];
            }
            "--workload" => {
                workload_raw = Some(args.next().unwrap_or_else(|| {
                    eprintln!("--workload needs a registry SPEC");
                    eprint!("{}", workzoo::registry_help());
                    std::process::exit(2);
                }));
            }
            "--predictor" => {
                let spec = args.next().unwrap_or_else(|| {
                    eprintln!("--predictor needs a registry SPEC");
                    eprint!("{}", prefetch::registry_help());
                    std::process::exit(2);
                });
                match PredictorSpec::parse(&spec) {
                    Ok(s) => opts.predictor = Some(s),
                    Err(e) => {
                        // The error's Display carries the full registry
                        // listing (names, syntax, examples).
                        eprint!("bad --predictor: {e}");
                        std::process::exit(2);
                    }
                }
            }
            "--scale" => {
                opts.scale = match args.next().as_deref() {
                    Some("small") => Scale::Small,
                    Some("paper") => Scale::Paper,
                    other => {
                        eprintln!("--scale needs small|paper, got {other:?}");
                        std::process::exit(2);
                    }
                }
            }
            "--seed" => {
                opts.seed = args.next().and_then(|s| s.parse().ok()).unwrap_or_else(|| {
                    eprintln!("--seed needs an integer");
                    std::process::exit(2);
                })
            }
            "--out" => {
                opts.out = Some(PathBuf::from(args.next().unwrap_or_else(|| {
                    eprintln!("--out needs a directory");
                    std::process::exit(2);
                })))
            }
            "--threads" | "--workers" => {
                opts.threads = args.next().and_then(|s| s.parse().ok()).unwrap_or_else(|| {
                    eprintln!("--threads/--workers needs an integer");
                    std::process::exit(2);
                })
            }
            "--plans" => {
                opts.plans = args.next().and_then(|s| s.parse().ok()).unwrap_or_else(|| {
                    eprintln!("--plans needs an integer");
                    std::process::exit(2);
                })
            }
            "--obs" => opts.obs = true,
            "--bench-out" => {
                opts.bench_out = Some(PathBuf::from(args.next().unwrap_or_else(|| {
                    eprintln!("--bench-out needs a file path");
                    std::process::exit(2);
                })))
            }
            "--help" | "-h" => {
                print_help();
                std::process::exit(0);
            }
            id => opts.ids.push(id.to_string()),
        }
    }
    if opts.ids.is_empty() && opts.bench_out.is_none() {
        print_help();
        std::process::exit(2);
    }
    if opts.obs && opts.out.is_none() {
        eprintln!("--obs writes per-cell metrics CSVs and needs --out DIR");
        std::process::exit(2);
    }
    // Parse --workload after the loop so a later --scale still applies
    // to a bare charisma/sprite spec.
    if let Some(raw) = workload_raw {
        match WorkloadSpec::parse_cli(&raw, scale_name(opts.scale)) {
            Ok(s) => opts.workload = Some(s),
            Err(e) => {
                // The error's Display carries the full registry listing.
                eprint!("bad --workload: {e}");
                std::process::exit(2);
            }
        }
    }
    opts
}

fn print_help() {
    eprintln!(
        "usage: experiments <ids...> [--scale small|paper] [--seed N] [--out DIR] [--threads N] [--obs] [--smoke]"
    );
    eprintln!(
        "  --smoke  CI sanity mode: runs table1 + devmodel + extent + faults + predictors at small scale"
    );
    eprintln!("  --workers N       alias for --threads: worker-pool size for the parallel");
    eprintln!("                    sweeps (figure grids, devmodel/extent ablations);");
    eprintln!("                    results are byte-identical for any worker count");
    eprintln!("  --bench-out FILE  write a machine-readable BENCH.json snapshot of the");
    eprintln!("                    seed scenarios (diff with `lapreport bench-diff`)");
    eprintln!("  --predictor SPEC  restrict the predictors ablation to one registry spec");
    eprintln!("  --workload SPEC   restrict the zoo/mithril-sweep ablations to one workload");
    eprintln!("                    (registry spec, e.g. web:64,0.8,256 or strace:FILE)");
    eprintln!("  --plans N         seeded random fault plans for the chaos sweep (default 500)");
    eprintln!(
        "ids: all, table1, fallback-share, mispredict, ablations, cooperation, robustness, devmodel, extent, faults, predictors, zoo, mithril-sweep, chaos, or any of:"
    );
    for e in EXPERIMENTS {
        eprintln!("  {:<8} {}", e.id, e.title);
    }
}

fn main() {
    let opts = parse_args();
    if let Some(dir) = &opts.out {
        fs::create_dir_all(dir).expect("create output directory");
    }

    let mut ids: Vec<String> = Vec::new();
    for id in &opts.ids {
        if id == "all" {
            ids.extend(EXPERIMENTS.iter().map(|e| e.id.to_string()));
            ids.push("fallback-share".into());
            ids.push("mispredict".into());
            ids.push("ablations".into());
            ids.push("cooperation".into());
            ids.push("robustness".into());
            ids.push("devmodel".into());
            ids.push("extent".into());
            ids.push("faults".into());
            ids.push("predictors".into());
            ids.push("zoo".into());
            ids.push("mithril-sweep".into());
        } else {
            ids.push(id.clone());
        }
    }

    for id in ids {
        match id.as_str() {
            "table1" => print_table1(),
            "fallback-share" => fallback_share(&opts),
            "mispredict" => mispredict(&opts),
            "ablations" => ablations(&opts),
            "cooperation" => cooperation(&opts),
            "robustness" => robustness(&opts),
            "devmodel" => devmodel_ablation(&opts),
            "extent" => extent_ablation(&opts),
            "faults" => faults_ablation(&opts),
            "predictors" => predictors_ablation(&opts),
            "zoo" => zoo_ablation(&opts),
            "mithril-sweep" => mithril_sweep(&opts),
            "chaos" => chaos(&opts),
            id => {
                let Some(exp) = experiment(id) else {
                    eprintln!("unknown experiment {id:?}");
                    std::process::exit(2);
                };
                let t0 = std::time::Instant::now();
                let cells = run_grid(exp, opts.scale, opts.seed, &CACHE_MBS, opts.threads);
                println!("{}", render_table(exp, &cells, &CACHE_MBS));
                println!(
                    "({} runs, {:.1}s wall, seed {}, scale {:?})\n",
                    cells.len(),
                    t0.elapsed().as_secs_f64(),
                    opts.seed,
                    opts.scale
                );
                if let Some(dir) = &opts.out {
                    let path = dir.join(format!("{id}.csv"));
                    fs::write(&path, render_csv(exp, &cells)).expect("write CSV");
                    println!("wrote {}", path.display());
                    let svg = dir.join(format!("{id}.svg"));
                    fs::write(&svg, bench::plot::render_svg(exp, &cells, &CACHE_MBS))
                        .expect("write SVG");
                    println!("wrote {}", svg.display());
                    if opts.obs {
                        let path = dir.join(format!("{id}.metrics.csv"));
                        fs::write(&path, obs_csv(&cells)).expect("write metrics CSV");
                        println!("wrote {}", path.display());
                    }
                }
            }
        }
    }

    if let Some(path) = &opts.bench_out {
        bench_json(&opts, path);
    }
}

/// The benchmark seed scenarios: one cell per workload × system ×
/// predictor that the regression snapshot tracks (mirrors the seed
/// scenarios in `tests/devmodel.rs`).
fn bench_scenarios() -> [(&'static str, WorkloadKind, CacheSystem, PrefetchConfig, u64); 4] {
    [
        (
            "charisma/pafs/ln_agr_is_ppm:1/4MB",
            WorkloadKind::CharismaPm,
            CacheSystem::Pafs,
            PrefetchConfig::ln_agr_is_ppm(1),
            4,
        ),
        (
            "charisma/pafs/np/4MB",
            WorkloadKind::CharismaPm,
            CacheSystem::Pafs,
            PrefetchConfig::np(),
            4,
        ),
        (
            "charisma/pafs/oba/4MB",
            WorkloadKind::CharismaPm,
            CacheSystem::Pafs,
            PrefetchConfig::oba(),
            4,
        ),
        (
            "sprite/xfs/ln_agr_is_ppm:1/2MB",
            WorkloadKind::SpriteNow,
            CacheSystem::Xfs,
            PrefetchConfig::ln_agr_is_ppm(1),
            2,
        ),
    ]
}

/// Write a machine-readable benchmark snapshot (schema 3): one
/// scenario object per line (so `lapreport bench-diff` can scan it
/// without a JSON parser). Every field is deterministic, so a same-seed
/// regeneration is byte-identical and the differ compares each field
/// exactly. Host speed is measured by `perfbench`, not here.
fn bench_json(opts: &Options, path: &PathBuf) {
    use std::fmt::Write as _;
    let mut out = String::from("{\n\"schema\": 3,\n\"scenarios\": [\n");
    for (i, (name, kind, system, pf, mb)) in bench_scenarios().into_iter().enumerate() {
        let wl = build_workload(kind, opts.scale, opts.seed);
        let cfg = build_config(kind, opts.scale, system, pf, mb);
        let (r, p) = run_simulation_profiled(cfg, wl);
        let _ = writeln!(
            out,
            "{{\"name\":\"{name}\",\"avg_read_ms\":{},\"reads\":{},\"disk_accesses\":{},\"perf\":{}}}{}",
            r.avg_read_ms,
            r.reads,
            r.disk_accesses(),
            perf_json(&p),
            if i + 1 < 4 { "," } else { "" }
        );
    }
    out.push_str("]\n}\n");
    fs::write(path, &out).expect("write bench snapshot");
    println!("wrote {}", path.display());
}

/// The `perf` object of one BENCH.json scenario line: the integer
/// cost counters, then the ratios derived from them.
fn perf_json(p: &lap_core::SimProfile) -> String {
    let c = &p.counters;
    let mut s = format!(
        "{{\"events\":{},\"queue_pushes\":{},\"peak_queue_depth\":{},\"station_dispatches\":{},\
         \"pred_lookups\":{},\"pred_updates\":{},\"cache_probes\":{},\
         \"events_per_read\":{},\"mean_queue_depth\":{}",
        c.events,
        c.queue_pushes,
        c.peak_queue_depth,
        c.station_dispatches,
        c.pred_lookups,
        c.pred_updates,
        c.cache_probes,
        c.events_per_read(p.reads),
        c.mean_queue_depth(),
    );
    if let Some(apr) = p.allocs_per_read() {
        s.push_str(&format!(",\"allocs_per_read\":{apr}"));
    }
    s.push('}');
    s
}

/// Flatten every cell's unified metrics registry into one long-format
/// CSV (`algorithm,cache_mb,metric,value`).
fn obs_csv(cells: &[bench::Cell]) -> String {
    use std::fmt::Write;
    let mut out = String::from("algorithm,cache_mb,metric,value\n");
    for c in cells {
        for line in c.report.obs.to_csv().lines().skip(1) {
            let _ = writeln!(out, "{},{},{line}", c.algorithm, c.cache_mb);
        }
    }
    out
}

/// Table 1: the simulation parameters, verbatim.
fn print_table1() {
    println!("table1 — Simulation parameters");
    let pm = MachineConfig::pm();
    let now = MachineConfig::now();
    let rows: Vec<(&str, String, String)> = vec![
        ("Nodes", pm.nodes.to_string(), now.nodes.to_string()),
        (
            "Buffer Size",
            format!("{} KB", pm.block_size / 1024),
            format!("{} KB", now.block_size / 1024),
        ),
        (
            "Memory Bandwidth",
            format!("{:.0} MB/s", pm.memory_bandwidth / 1e6),
            format!("{:.0} MB/s", now.memory_bandwidth / 1e6),
        ),
        (
            "Network Bandwidth",
            format!("{:.1} MB/s", pm.network_bandwidth / 1e6),
            format!("{:.1} MB/s", now.network_bandwidth / 1e6),
        ),
        (
            "Local-Port Startup",
            format!("{} us", pm.local_startup.as_micros()),
            format!("{} us", now.local_startup.as_micros()),
        ),
        (
            "Remote-Port Startup",
            format!("{} us", pm.remote_startup.as_micros()),
            format!("{} us", now.remote_startup.as_micros()),
        ),
        (
            "Local Memory copy Startup",
            format!("{} us", pm.local_copy_startup.as_micros()),
            format!("{} us", now.local_copy_startup.as_micros()),
        ),
        (
            "Remote Memory copy Startup",
            format!("{} us", pm.remote_copy_startup.as_micros()),
            format!("{} us", now.remote_copy_startup.as_micros()),
        ),
        (
            "Number of Disks",
            pm.disks.to_string(),
            now.disks.to_string(),
        ),
        (
            "Disk-Block Size",
            format!("{} KB", pm.block_size / 1024),
            format!("{} KB", now.block_size / 1024),
        ),
        (
            "Disk Bandwidth",
            format!("{:.0} MB/s", pm.disk_bandwidth / 1e6),
            format!("{:.0} MB/s", now.disk_bandwidth / 1e6),
        ),
        (
            "Disk Read Seek",
            format!("{:.1} ms", pm.disk_read_seek.as_millis_f64()),
            format!("{:.1} ms", now.disk_read_seek.as_millis_f64()),
        ),
        (
            "Disk Write Seek",
            format!("{:.1} ms", pm.disk_write_seek.as_millis_f64()),
            format!("{:.1} ms", now.disk_write_seek.as_millis_f64()),
        ),
    ];
    println!("{:<28} {:>12} {:>12}", "", "PM", "NOW");
    for (name, pm_v, now_v) in rows {
        println!("{name:<28} {pm_v:>12} {now_v:>12}");
    }
    println!();
}

/// §2.2: share of prefetched blocks issued by the OBA fallback inside
/// the IS_PPM configurations — "<1% when the files were large
/// (CHARISMA) and around 25% when the files were small (Sprite)".
fn fallback_share(opts: &Options) {
    println!("fallback-share — blocks prefetched via OBA fallback inside IS_PPM (\u{a7}2.2)");
    for (kind, label) in [
        (WorkloadKind::CharismaPm, "CHARISMA"),
        (WorkloadKind::SpriteNow, "Sprite"),
    ] {
        let wl = build_workload(kind, opts.scale, opts.seed);
        let cfg = build_config(
            kind,
            opts.scale,
            CacheSystem::Pafs,
            PrefetchConfig::ln_agr_is_ppm(1),
            4,
        );
        let r = run_simulation(cfg, wl);
        println!(
            "  {label:<10} {:>6.2}%  (paper: {} )",
            r.prefetch.fallback_share() * 100.0,
            if kind == WorkloadKind::CharismaPm {
                "<1%"
            } else {
                "~25%"
            }
        );
    }
    println!();
}

/// Seed robustness: re-run Figure 4's key cells across several
/// workload seeds and report mean ± standard deviation — the shape
/// claims should not hinge on one synthetic trace.
fn robustness(opts: &Options) {
    use bench::{run_grid, CACHE_MBS};
    const SEEDS: [u64; 5] = [1, 2, 3, 42, 1999];
    let exp = experiment("fig4").unwrap();
    println!(
        "robustness — fig4 across seeds {:?} (mean ± sd of avg read ms, scale {:?})",
        SEEDS, opts.scale
    );
    // Collect per-seed grids.
    let grids: Vec<Vec<bench::Cell>> = SEEDS
        .iter()
        .map(|&seed| run_grid(exp, opts.scale, seed, &CACHE_MBS, opts.threads))
        .collect();

    print!("{:<18}", "algorithm");
    for mb in CACHE_MBS {
        print!(" {mb:>15}MB");
    }
    println!();
    let mut algos: Vec<String> = Vec::new();
    for c in &grids[0] {
        if !algos.contains(&c.algorithm) {
            algos.push(c.algorithm.clone());
        }
    }
    for algo in &algos {
        print!("{algo:<18}");
        for mb in CACHE_MBS {
            let vals: Vec<f64> = grids
                .iter()
                .filter_map(|g| {
                    g.iter()
                        .find(|c| &c.algorithm == algo && c.cache_mb == mb)
                        .map(|c| c.report.avg_read_ms)
                })
                .collect();
            let n = vals.len() as f64;
            let mean = vals.iter().sum::<f64>() / n;
            let var = vals.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n;
            print!(" {:>9.3}±{:<7.3}", mean, var.sqrt());
        }
        println!();
    }
    println!();
}

/// Extension experiment: how much of the performance comes from the
/// *cooperation* itself? Sweep cache sizes for the two cooperative
/// systems and the non-cooperative per-node baseline, with and without
/// prefetching.
fn cooperation(opts: &Options) {
    let kind = WorkloadKind::CharismaPm;
    let wl = build_workload(kind, opts.scale, opts.seed);
    println!(
        "cooperation — CHARISMA, read time in ms (seed {}, scale {:?})",
        opts.seed, opts.scale
    );
    for pf in [PrefetchConfig::np(), PrefetchConfig::ln_agr_is_ppm(1)] {
        println!("\n[{}]", pf.paper_name());
        print!("{:<22}", "system");
        for mb in bench::CACHE_MBS {
            print!(" {:>8}MB", mb);
        }
        println!();
        for system in [CacheSystem::Pafs, CacheSystem::Xfs, CacheSystem::LocalOnly] {
            print!("{:<22}", system.name());
            for mb in bench::CACHE_MBS {
                let cfg = build_config(kind, opts.scale, system, pf, mb);
                let r = run_simulation(cfg, wl.clone());
                print!(" {:>9.3}", r.avg_read_ms);
            }
            println!();
        }
    }
    println!();
}

/// Ablations of the design choices the paper argues for (and the one
/// engineering guard this reproduction adds):
///
/// * MRU vs most-frequent edge selection in IS_PPM (§2.2 argues MRU);
/// * the linear limit vs a k-block window vs unlimited aggressiveness
///   (§3.2 argues for the linear limit);
/// * the Markov order j (§5.2: "the order of the Markov predictor does
///   not make a significant difference");
/// * the aggressive-walk lead cap (this reproduction's read-ahead
///   window; `None` is the paper-pure unbounded walk).
fn ablations(opts: &Options) {
    let kind = WorkloadKind::CharismaPm;
    let wl = build_workload(kind, opts.scale, opts.seed);
    let run = |pf: PrefetchConfig, mb: u64| {
        let cfg = build_config(kind, opts.scale, CacheSystem::Pafs, pf, mb);
        run_simulation(cfg, wl.clone())
    };
    let show = |name: &str, r: &lap_core::SimReport| {
        println!(
            "  {name:<28} read {:>7.3} ms   disk {:>9}   mispred {:>5.1}%",
            r.avg_read_ms,
            r.disk_accesses(),
            r.mispredict_ratio * 100.0
        );
    };

    println!(
        "ablations — CHARISMA on PAFS at 4 MB (seed {}, scale {:?})",
        opts.seed, opts.scale
    );

    println!("\n[edge selection in IS_PPM — the paper argues most-recent beats most-frequent]");
    for (name, choice) in [
        ("MRU (paper)", EdgeChoice::MostRecent),
        ("most-frequent", EdgeChoice::MostFrequent),
    ] {
        let pf = PrefetchConfig {
            edge_choice: choice,
            ..PrefetchConfig::ln_agr_is_ppm(1)
        };
        show(name, &run(pf, 4));
    }

    println!("\n[aggressiveness limit — the paper argues for the linear (one-block) limit]");
    for (name, limit) in [
        ("linear (paper)", AggressiveLimit::One),
        ("window 4", AggressiveLimit::Window(4)),
        ("window 16", AggressiveLimit::Window(16)),
        ("unlimited", AggressiveLimit::Unlimited),
    ] {
        let pf = PrefetchConfig {
            aggressive: Some(limit),
            ..PrefetchConfig::ln_agr_is_ppm(1)
        };
        show(name, &run(pf, 4));
    }

    println!("\n[Markov order j — the paper finds it barely matters]");
    for order in [1usize, 2, 3, 4] {
        let pf = PrefetchConfig::ln_agr_is_ppm(order);
        show(&format!("IS_PPM:{order}"), &run(pf, 4));
    }

    println!("\n[walk lead cap — this reproduction's read-ahead window; None = paper-pure]");
    for (name, cap) in [
        ("cap 256", Some(256)),
        ("cap 1024 (default)", Some(1024)),
        ("cap 4096", Some(4096)),
        ("unbounded (paper)", None),
    ] {
        let pf = PrefetchConfig {
            lead_cap: cap,
            ..PrefetchConfig::ln_agr_is_ppm(1)
        };
        show(name, &run(pf, 4));
    }

    println!("\n[order back-off — extension: escape to lower orders instead of straight to OBA]");
    for (name, pf) in [
        ("IS_PPM:3 (paper)", PrefetchConfig::ln_agr_is_ppm(3)),
        (
            "IS_PPM*:3 (back-off)",
            PrefetchConfig::ln_agr_is_ppm_backoff(3),
        ),
    ] {
        show(name, &run(pf, 4));
    }

    println!("\n[prefetch disk priority — the paper's \"never delay other operations\" rule]");
    for (name, prio) in [
        ("lowest priority (paper)", true),
        ("demand priority", false),
    ] {
        let mut cfg = build_config(
            kind,
            opts.scale,
            CacheSystem::Pafs,
            PrefetchConfig::ln_agr_is_ppm(1),
            4,
        );
        cfg.prefetch_priority = prio;
        show(name, &run_simulation(cfg, wl.clone()));
    }

    println!("\n[replacement policy — both systems assume LRU]");
    for (name, policy) in [
        ("global LRU (paper)", Replacement::Lru),
        ("global FIFO", Replacement::Fifo),
    ] {
        let mut cfg = build_config(
            kind,
            opts.scale,
            CacheSystem::Pafs,
            PrefetchConfig::ln_agr_is_ppm(1),
            4,
        );
        cfg.replacement = policy;
        show(name, &run_simulation(cfg, wl.clone()));
    }

    println!("\n[cooperation — cooperative caches vs independent per-node caches]");
    for (name, system) in [
        ("PAFS (cooperative)", CacheSystem::Pafs),
        ("xFS (cooperative)", CacheSystem::Xfs),
        ("local-only (none)", CacheSystem::LocalOnly),
    ] {
        let cfg = build_config(
            kind,
            opts.scale,
            system,
            PrefetchConfig::ln_agr_is_ppm(1),
            4,
        );
        show(name, &run_simulation(cfg, wl.clone()));
    }
    println!();
}

/// Device-model ablation: NP / OBA / IS_PPM (linear and unlimited
/// aggressive) × disk scheduler, on the calibrated geometry preset.
/// The first column is the fixed Table-1 service-time model; under
/// FIFO the geometry column must sit within a couple percent of it
/// (the calibration contract), while SSTF/C-LOOK shift read times —
/// most visibly for the prefetch-heavy configurations whose queued
/// requests give the scheduler something to reorder.
fn devmodel_ablation(opts: &Options) {
    let kind = WorkloadKind::CharismaPm;
    let wl = std::sync::Arc::new(build_workload(kind, opts.scale, opts.seed));
    println!(
        "devmodel — CHARISMA on PAFS at 4 MB: disk model × scheduler, read time in ms \
         (seed {}, scale {:?})",
        opts.seed, opts.scale
    );
    let algos: [(&str, PrefetchConfig); 4] = [
        ("NP", PrefetchConfig::np()),
        ("OBA", PrefetchConfig::oba()),
        (
            "Agr_IS_PPM:1",
            PrefetchConfig {
                aggressive: Some(AggressiveLimit::Unlimited),
                ..PrefetchConfig::ln_agr_is_ppm(1)
            },
        ),
        ("Ln_Agr_IS_PPM:1", PrefetchConfig::ln_agr_is_ppm(1)),
    ];
    print!("{:<18} {:>9}", "algorithm", "fixed");
    for sched in DiskSched::ALL {
        print!(" {:>9}", format!("geom/{}", sched.name()));
    }
    println!();
    // One job per table cell (`None` is the fixed-model column); the
    // sweep fans out and returns cells in job order, so the printed
    // table is byte-identical for any worker count.
    let jobs: Vec<(&str, PrefetchConfig, Option<DiskSched>)> = algos
        .iter()
        .flat_map(|&(name, pf)| {
            std::iter::once((name, pf, None))
                .chain(DiskSched::ALL.iter().map(move |&s| (name, pf, Some(s))))
        })
        .collect();
    let reports = bench::par_map(&jobs, opts.threads, |&(_, pf, sched)| {
        let mut cfg = build_config(kind, opts.scale, CacheSystem::Pafs, pf, 4);
        if let Some(s) = sched {
            cfg.machine = cfg.machine.with_geometry();
            cfg.machine.disk_sched = s;
        }
        lap_core::run_simulation_shared(cfg, std::sync::Arc::clone(&wl))
    });
    let per_row = 1 + DiskSched::ALL.len();
    for (i, ((name, _, sched), r)) in jobs.iter().zip(&reports).enumerate() {
        match sched {
            None => print!("{name:<18} {:>9.3}", r.avg_read_ms),
            Some(s) => {
                print!(" {:>9.3}", r.avg_read_ms);
                // Smoke-level sanity: the simulation must have done
                // real work and produced a finite, positive read time.
                assert!(
                    r.avg_read_ms.is_finite() && r.avg_read_ms > 0.0 && r.reads > 0,
                    "degenerate devmodel cell: {name} geom/{}",
                    s.name()
                );
            }
        }
        if i % per_row == per_row - 1 {
            println!();
        }
    }
    println!();
}

/// Extent-granularity ablation: the seven paper configurations on the
/// `pm_extent` geometry at `extent_blocks ∈ {1, 4, 8, 16}`, comparing
/// block-granular vs extent-granular prefetch issue *on the same
/// geometry* (the only apples-to-apples pair: extent size changes both
/// the layout and the striping, so columns with different sizes are
/// different disks — see docs/CALIBRATION.md). Non-aggressive
/// configurations ignore the granularity switch, and at one-block
/// extents the batcher degenerates to per-block issue, so those rows
/// double as a bit-identity sanity gate.
fn extent_ablation(opts: &Options) {
    let kind = WorkloadKind::CharismaPm;
    let wl = std::sync::Arc::new(build_workload(kind, opts.scale, opts.seed));
    println!(
        "extent — CHARISMA on PAFS at 4 MB: prefetch granularity × extent size, geometry \
         disks (seed {}, scale {:?})",
        opts.seed, opts.scale
    );
    println!(
        "{:<22} {:>4} {:>9} {:>9} {:>8} {:>9} {:>8}",
        "algorithm", "ext", "blk ms", "ext ms", "delta%", "covered%", "blk/iss"
    );
    let covered_rate = |r: &lap_core::SimReport| {
        let covered = match r.obs.get("span.outcome_covered_by_prefetch") {
            Some(MetricValue::Counter(v)) => *v,
            _ => 0,
        };
        covered as f64 / r.reads.max(1) as f64
    };
    let mut csv = String::from(
        "algorithm,extent_blocks,block_read_ms,extent_read_ms,delta_pct,extent_covered_rate,blocks_per_issue\n",
    );
    // One job per (algorithm, extent size): both granularities of a
    // pair stay in one job so the comparison logic below reads them
    // together; the sweep returns pairs in job order, so the table and
    // CSV are byte-identical for any worker count.
    let jobs: Vec<(PrefetchConfig, u64)> = PrefetchConfig::paper_suite()
        .iter()
        .flat_map(|&pf| [1u64, 4, 8, 16].into_iter().map(move |n| (pf, n)))
        .collect();
    let pairs = bench::par_map(&jobs, opts.threads, |&(pf, n)| {
        let run_with = |gran: PrefetchGranularity| {
            let mut cfg = build_config(kind, opts.scale, CacheSystem::Pafs, pf, 4);
            cfg.machine = cfg.machine.with_geometry_extent(n);
            cfg.machine.prefetch_granularity = gran;
            lap_core::run_simulation_shared(cfg, std::sync::Arc::clone(&wl))
        };
        (
            run_with(PrefetchGranularity::Block),
            run_with(PrefetchGranularity::Extent),
        )
    });
    {
        for (&(pf, n), (blk, ext)) in jobs.iter().zip(&pairs) {
            assert!(
                blk.avg_read_ms.is_finite() && blk.avg_read_ms > 0.0 && blk.reads > 0,
                "degenerate extent cell: {} n={n}",
                pf.paper_name()
            );
            if n == 1 || !pf.is_aggressive() {
                // One-block extents (or a non-aggressive engine) must
                // reduce extent mode to exactly the per-block simulator.
                assert_eq!(
                    (blk.avg_read_ms, blk.reads, blk.disk_accesses()),
                    (ext.avg_read_ms, ext.reads, ext.disk_accesses()),
                    "extent mode must degenerate to block mode: {} n={n}",
                    pf.paper_name()
                );
            }
            let delta = (ext.avg_read_ms - blk.avg_read_ms) / blk.avg_read_ms * 100.0;
            println!(
                "{:<22} {:>4} {:>9.3} {:>9.3} {:>+8.2} {:>9.2} {:>8.2}",
                pf.paper_name(),
                n,
                blk.avg_read_ms,
                ext.avg_read_ms,
                delta,
                covered_rate(ext) * 100.0,
                ext.prefetch.blocks_per_issue(),
            );
            use std::fmt::Write as _;
            let _ = writeln!(
                csv,
                "{},{n},{:.6},{:.6},{:.4},{:.6},{:.4}",
                pf.paper_name(),
                blk.avg_read_ms,
                ext.avg_read_ms,
                delta,
                covered_rate(ext),
                ext.prefetch.blocks_per_issue(),
            );
        }
    }
    println!();
    if let Some(dir) = &opts.out {
        let path = dir.join("extent.csv");
        fs::write(&path, csv).expect("write extent CSV");
        println!("wrote {}", path.display());
    }
}

/// Fault-injection ablation: the seven paper configurations under
/// four deterministic fault plans (none / light transient errors /
/// heavy bursts + outages + degraded-mode windows / heavy with
/// crash-style node outages that wipe the rejoining node's cache).
/// The wipe/heavy delta reported at the end is the read-time cost of
/// re-warming the wiped buffers. Checks the robustness invariants the
/// fault layer promises:
///
/// * no demand read is lost or double-counted — total completed reads
///   and writes (warm + warm-up) are identical across plans for every
///   configuration;
/// * every cell stays finite and does real work;
/// * under the heavy plan's error bursts the aggressive walkers stand
///   down (`fault.prefetch_suppressed > 0`) while demand reads keep
///   completing — the paper's "never delay other operations" rule,
///   extended to fault handling.
fn faults_ablation(opts: &Options) {
    let kind = WorkloadKind::CharismaPm;
    let wl = build_workload(kind, opts.scale, opts.seed);
    let plans: [(&str, Option<&str>); 4] = [
        ("none", None),
        (
            "light",
            Some("seed=7,disk-error=0.01,disk-retries=4,backoff-ms=2,net-loss=0.005,net-delay=0.02:1"),
        ),
        (
            "heavy",
            Some(
                "seed=7,disk-error=0.02,disk-retries=5,backoff-ms=5,burst=10:2,\
                 outage=30:3,node-outage=45:5,net-loss=0.02,net-delay=0.05:2",
            ),
        ),
        // The heavy plan with node outages turned into *crashes*: a
        // rejoining node comes back with an empty cache
        // (node-outage-wipe). The wipe/heavy read-time delta is the
        // cost of recovering the wiped buffers.
        (
            "wipe",
            Some(
                "seed=7,disk-error=0.02,disk-retries=5,backoff-ms=5,burst=10:2,\
                 outage=30:3,node-outage-wipe=45:5,net-loss=0.02,net-delay=0.05:2",
            ),
        ),
    ];
    println!(
        "faults — CHARISMA on PAFS at 4 MB under deterministic fault plans (seed {}, scale {:?})",
        opts.seed, opts.scale
    );
    println!(
        "{:<22} {:<6} {:>9} {:>7} {:>8} {:>9} {:>8} {:>10}",
        "algorithm", "plan", "read ms", "reads", "injected", "failovers", "pf-supp", "degraded-s"
    );
    let suppressed = |r: &lap_core::SimReport| match r.obs.get("fault.prefetch_suppressed") {
        Some(MetricValue::Counter(v)) => *v,
        _ => 0,
    };
    let mut csv = String::from(
        "algorithm,plan,read_ms,reads,writes,faults_injected,failovers,prefetch_suppressed,degraded_s\n",
    );
    let mut recovery: Vec<(String, f64, f64)> = Vec::new();
    for pf in PrefetchConfig::paper_suite() {
        let mut baseline: Option<(u64, u64)> = None;
        let mut heavy_ms = 0.0;
        for (plan_name, spec) in plans {
            let mut cfg = build_config(kind, opts.scale, CacheSystem::Pafs, pf, 4);
            cfg.fault_plan = spec.map(|s| {
                FaultPlan::parse(&s.replace(char::is_whitespace, ""))
                    .expect("ablation fault plan parses")
            });
            let r = run_simulation(cfg, wl.clone());
            assert!(
                r.avg_read_ms.is_finite() && r.avg_read_ms > 0.0 && r.reads > 0,
                "degenerate faults cell: {} plan={plan_name}",
                pf.paper_name()
            );
            // Conservation must compare warm + warm-up totals: fault
            // delays shift when later requests *start*, so a request
            // near the warm-up boundary can migrate between the two
            // buckets across plans even though none is lost.
            let totals = (r.reads + r.warmup_reads, r.writes + r.warmup_writes);
            match baseline {
                None => baseline = Some(totals),
                Some(base) => assert_eq!(
                    base,
                    totals,
                    "fault injection lost or double-counted requests: {} plan={plan_name}",
                    pf.paper_name()
                ),
            }
            if plan_name == "heavy" && pf.is_aggressive() {
                assert!(
                    suppressed(&r) > 0,
                    "{}: aggressive walk never stood down during heavy error bursts",
                    pf.paper_name()
                );
            }
            if plan_name == "none" {
                assert_eq!(
                    (r.faults_injected, r.failovers, r.degraded_s),
                    (0, 0, 0.0),
                    "{}: fault counters nonzero without a plan",
                    pf.paper_name()
                );
            }
            if plan_name == "heavy" {
                heavy_ms = r.avg_read_ms;
            }
            if plan_name == "wipe" {
                assert!(
                    r.degraded_s > 0.0,
                    "{}: wipe plan never degraded a node",
                    pf.paper_name()
                );
                recovery.push((pf.paper_name(), heavy_ms, r.avg_read_ms));
            }
            println!(
                "{:<22} {:<6} {:>9.3} {:>7} {:>8} {:>9} {:>8} {:>10.3}",
                pf.paper_name(),
                plan_name,
                r.avg_read_ms,
                r.reads,
                r.faults_injected,
                r.failovers,
                suppressed(&r),
                r.degraded_s
            );
            use std::fmt::Write as _;
            let _ = writeln!(
                csv,
                "{},{plan_name},{:.6},{},{},{},{},{},{:.6}",
                pf.paper_name(),
                r.avg_read_ms,
                r.reads,
                r.writes,
                r.faults_injected,
                r.failovers,
                suppressed(&r),
                r.degraded_s
            );
        }
    }
    println!();
    println!("recovery cost of cold rejoin (wipe vs heavy, same fault schedule):");
    for (name, heavy_ms, wipe_ms) in &recovery {
        println!(
            "{:<22} heavy {:>9.3} ms   wipe {:>9.3} ms   delta {:>+8.3} ms",
            name,
            heavy_ms,
            wipe_ms,
            wipe_ms - heavy_ms
        );
    }
    println!();
    if let Some(dir) = &opts.out {
        let path = dir.join("faults.csv");
        fs::write(&path, csv).expect("write faults CSV");
        println!("wrote {}", path.display());
    }
}

/// Predictor-zoo ablation: every registry predictor under every
/// aggressiveness mode (none / Ln_Agr:1..3 / unlimited) on both
/// workloads, scored with the span model's coverage, accuracy, and
/// timeliness plus the `pred.*` table-size and emit counters. The NP
/// baseline anchors each workload. Degeneracy checks:
///
/// * every cell is finite and serves real reads;
/// * NP never covers a read and never emits a prediction;
/// * the MITHRIL miner actually mines associations on both workloads;
/// * at least one aggressive MITHRIL cell covers reads.
fn predictors_ablation(opts: &Options) {
    let workloads: [(&str, WorkloadKind, CacheSystem, u64); 2] = [
        (
            "charisma/pafs/4MB",
            WorkloadKind::CharismaPm,
            CacheSystem::Pafs,
            4,
        ),
        (
            "sprite/xfs/2MB",
            WorkloadKind::SpriteNow,
            CacheSystem::Xfs,
            2,
        ),
    ];
    let all_specs = [
        "oba",
        "is_ppm:1",
        "is_ppm:3",
        "markov:1",
        "markov:2",
        "mithril",
        "mithril+oba",
    ];
    let specs: Vec<PredictorSpec> = match &opts.predictor {
        Some(s) => vec![*s],
        None => all_specs
            .iter()
            .map(|s| PredictorSpec::parse(s).expect("ablation spec parses"))
            .collect(),
    };
    let modes: [(&str, Option<AggressiveLimit>); 5] = [
        ("simple", None),
        ("Ln_Agr:1", Some(AggressiveLimit::One)),
        ("Ln_Agr:2", Some(AggressiveLimit::Window(2))),
        ("Ln_Agr:3", Some(AggressiveLimit::Window(3))),
        ("Agr", Some(AggressiveLimit::Unlimited)),
    ];
    println!(
        "predictors — registry predictors × aggressiveness × workload, span-model scoring \
         (seed {}, scale {:?})",
        opts.seed, opts.scale
    );
    println!(
        "{:<18} {:<14} {:<9} {:>8} {:>6} {:>6} {:>6} {:>7} {:>7} {:>6}",
        "workload",
        "predictor",
        "mode",
        "read ms",
        "cov%",
        "acc%",
        "tml%",
        "table",
        "emits",
        "mined"
    );
    let counter = |r: &lap_core::SimReport, key: &str| match r.obs.get(key) {
        Some(MetricValue::Counter(v)) => *v,
        _ => 0,
    };
    let gauge = |r: &lap_core::SimReport, key: &str| match r.obs.get(key) {
        Some(MetricValue::Gauge(v)) => *v,
        _ => 0.0,
    };
    let mut csv = String::from(
        "workload,predictor,mode,read_ms,coverage,accuracy,timeliness,table_size,emits,mined\n",
    );
    let mut saw_mithril = false;
    let mut mithril_covered = false;
    for (wl_name, kind, system, mb) in workloads {
        let wl = build_workload(kind, opts.scale, opts.seed);
        let mut rows: Vec<(String, String, PrefetchConfig)> =
            vec![("np".into(), "-".into(), PrefetchConfig::np())];
        for spec in &specs {
            for (mode_name, aggressive) in modes {
                rows.push((
                    spec.canonical(),
                    mode_name.into(),
                    PrefetchConfig::with_predictor(spec.kind, aggressive),
                ));
            }
        }
        for (pred_name, mode_name, pf) in rows {
            let cfg = build_config(kind, opts.scale, system, pf, mb);
            let r = run_simulation(cfg, wl.clone());
            assert!(
                r.avg_read_ms.is_finite() && r.avg_read_ms > 0.0 && r.reads > 0,
                "degenerate predictors cell: {wl_name} {pred_name} {mode_name}"
            );
            let covered = counter(&r, "span.outcome_covered_by_prefetch") as f64;
            let late = counter(&r, "span.outcome_late_prefetch") as f64;
            let used = (counter(&r, "cache.prefetch_used")
                + counter(&r, "prefetch.absorbed_in_flight")) as f64;
            let wasted = counter(&r, "cache.prefetch_wasted") as f64;
            let coverage = (covered + late) / r.reads.max(1) as f64;
            let accuracy = if used + wasted == 0.0 {
                0.0
            } else {
                used / (used + wasted)
            };
            let timeliness = if covered + late == 0.0 {
                0.0
            } else {
                covered / (covered + late)
            };
            let table = gauge(&r, "pred.table_size");
            let emits = counter(&r, "pred.emits");
            let mined = counter(&r, "pred.mined");
            if pred_name == "np" {
                assert_eq!(
                    (coverage, emits),
                    (0.0, 0),
                    "NP covered reads or emitted predictions on {wl_name}"
                );
            }
            if pred_name.starts_with("mithril") {
                saw_mithril = true;
                assert!(
                    mined > 0,
                    "MITHRIL mined no associations: {wl_name} {mode_name}"
                );
                if mode_name != "simple" && coverage > 0.0 {
                    mithril_covered = true;
                }
            }
            println!(
                "{:<18} {:<14} {:<9} {:>8.3} {:>6.2} {:>6.2} {:>6.2} {:>7.0} {:>7} {:>6}",
                wl_name,
                pred_name,
                mode_name,
                r.avg_read_ms,
                coverage * 100.0,
                accuracy * 100.0,
                timeliness * 100.0,
                table,
                emits,
                mined
            );
            use std::fmt::Write as _;
            let _ = writeln!(
                csv,
                "{wl_name},{pred_name},{mode_name},{:.6},{:.6},{:.6},{:.6},{:.0},{emits},{mined}",
                r.avg_read_ms, coverage, accuracy, timeliness, table
            );
        }
    }
    if saw_mithril {
        assert!(
            mithril_covered,
            "no aggressive MITHRIL cell covered a single read on either workload"
        );
    }
    println!();
    if let Some(dir) = &opts.out {
        let path = dir.join("predictors.csv");
        fs::write(&path, csv).expect("write predictors CSV");
        println!("wrote {}", path.display());
    }
}

/// The default workload-zoo grid: the three synthetic generators at
/// their cache-overflow presets, each run with 1 MB of cache per node
/// so the working set genuinely exceeds the aggregate cooperative
/// cache (web ≈ 20 MB over 8 MB aggregate; db ≈ 33 MB and mltrain =
/// 16 MB over 4 MB). `--workload SPEC` narrows the grid to one entry.
fn zoo_grid(opts: &Options) -> Vec<(WorkloadSpec, u64)> {
    match &opts.workload {
        Some(s) => vec![(s.clone(), 1)],
        None => ["web:64,0.8,256", "db:0.3,4096", "mltrain:4,2048"]
            .iter()
            .map(|s| (WorkloadSpec::parse(s).expect("zoo grid spec parses"), 1))
            .collect(),
    }
}

/// Workload-zoo ablation: the paper's seven configurations plus the
/// unlimited-aggressive IS_PPM and the history-replay predictors
/// (markov, MITHRIL) on the modern synthetic workloads, scored with
/// the span model. The point of the zoo: the stock CHARISMA/Sprite
/// pair never re-reads evicted data, so history-replay predictors are
/// degenerate there (PR 6's open finding); the zoo's overflow
/// workloads make them bite, and re-ask the paper's central question —
/// does the linear limit still beat unlimited aggressiveness? — per
/// workload (the `verdict` lines).
fn zoo_ablation(opts: &Options) {
    println!(
        "zoo — workload zoo × predictors on PAFS/NOW at 1 MB per node, span-model scoring \
         (seed {}, workload sizes fixed by spec)",
        opts.seed
    );
    println!(
        "{:<22} {:<20} {:>8} {:>6} {:>6} {:>6} {:>7} {:>7} {:>6}",
        "workload", "algorithm", "read ms", "cov%", "acc%", "tml%", "table", "emits", "mined"
    );
    let counter = |r: &lap_core::SimReport, key: &str| match r.obs.get(key) {
        Some(MetricValue::Counter(v)) => *v,
        _ => 0,
    };
    let gauge = |r: &lap_core::SimReport, key: &str| match r.obs.get(key) {
        Some(MetricValue::Gauge(v)) => *v,
        _ => 0.0,
    };
    let mut csv = String::from(
        "workload,algorithm,read_ms,coverage,accuracy,timeliness,table_size,emits,mined\n",
    );
    let mut replay_covered = false;
    let mut verdicts: Vec<String> = Vec::new();
    for (spec, mb) in zoo_grid(opts) {
        let wl = spec.build(opts.seed).unwrap_or_else(|e| {
            eprintln!("bad --workload: {e}");
            std::process::exit(2);
        });
        // The paper suite, the unlimited-aggressive IS_PPM twin of
        // Ln_Agr_IS_PPM:1 (the verdict pair), and the history-replay
        // predictors under both aggressiveness regimes.
        let mut rows: Vec<PrefetchConfig> = PrefetchConfig::paper_suite().to_vec();
        rows.push(PrefetchConfig {
            aggressive: Some(AggressiveLimit::Unlimited),
            ..PrefetchConfig::ln_agr_is_ppm(1)
        });
        for pred in ["markov:1", "mithril"] {
            let ps = PredictorSpec::parse(pred).expect("zoo predictor spec parses");
            for limit in [AggressiveLimit::One, AggressiveLimit::Unlimited] {
                rows.push(PrefetchConfig::with_predictor(ps.kind, Some(limit)));
            }
        }
        let (mut ln_ms, mut agr_ms) = (None, None);
        for pf in rows {
            let name = pf.paper_name();
            let mut cfg = lap_core::SimConfig::now(CacheSystem::Pafs, pf, mb);
            cfg.fit_to_workload(&wl);
            let r = run_simulation(cfg, wl.clone());
            assert!(
                r.avg_read_ms.is_finite() && r.avg_read_ms > 0.0 && r.reads > 0,
                "degenerate zoo cell: {} {name}",
                wl.name
            );
            let covered = counter(&r, "span.outcome_covered_by_prefetch") as f64;
            let late = counter(&r, "span.outcome_late_prefetch") as f64;
            let used = (counter(&r, "cache.prefetch_used")
                + counter(&r, "prefetch.absorbed_in_flight")) as f64;
            let wasted = counter(&r, "cache.prefetch_wasted") as f64;
            let coverage = (covered + late) / r.reads.max(1) as f64;
            let accuracy = if used + wasted == 0.0 {
                0.0
            } else {
                used / (used + wasted)
            };
            let timeliness = if covered + late == 0.0 {
                0.0
            } else {
                covered / (covered + late)
            };
            if name == "Ln_Agr_IS_PPM:1" {
                ln_ms = Some(r.avg_read_ms);
            } else if name == "Agr_IS_PPM:1" {
                agr_ms = Some(r.avg_read_ms);
            }
            if (name.contains("MARKOV") || name.contains("MITHRIL")) && coverage > 0.0 {
                replay_covered = true;
            }
            println!(
                "{:<22} {:<20} {:>8.3} {:>6.2} {:>6.2} {:>6.2} {:>7.0} {:>7} {:>6}",
                wl.name,
                name,
                r.avg_read_ms,
                coverage * 100.0,
                accuracy * 100.0,
                timeliness * 100.0,
                gauge(&r, "pred.table_size"),
                counter(&r, "pred.emits"),
                counter(&r, "pred.mined")
            );
            use std::fmt::Write as _;
            let _ = writeln!(
                csv,
                "{},{name},{:.6},{:.6},{:.6},{:.6},{:.0},{},{}",
                wl.name,
                r.avg_read_ms,
                coverage,
                accuracy,
                timeliness,
                gauge(&r, "pred.table_size"),
                counter(&r, "pred.emits"),
                counter(&r, "pred.mined")
            );
        }
        // The paper's central claim, re-asked per workload: does the
        // linear (one-block-per-file) limit still beat the unlimited
        // aggressive walk once the working set overflows the cache?
        let (ln, agr) = (
            ln_ms.expect("zoo rows include Ln_Agr_IS_PPM:1"),
            agr_ms.expect("zoo rows include Agr_IS_PPM:1"),
        );
        verdicts.push(format!(
            "verdict {}: Ln_Agr_IS_PPM:1 {ln:.3} ms vs Agr_IS_PPM:1 {agr:.3} ms — {}",
            wl.name,
            if ln <= agr {
                "linear limit wins (paper ordering preserved)"
            } else {
                "unlimited aggressiveness wins (paper ordering flips)"
            }
        ));
    }
    for v in &verdicts {
        println!("{v}");
    }
    if opts.workload.is_none() {
        // On the default grid the zoo must deliver what it exists for:
        // a workload where a history-replay predictor actually covers
        // reads (impossible on stock CHARISMA/Sprite).
        assert!(
            replay_covered,
            "no history-replay predictor covered a single read on any zoo workload"
        );
    }
    println!();
    if let Some(dir) = &opts.out {
        let path = dir.join("zoo.csv");
        fs::write(&path, csv).expect("write zoo CSV");
        println!("wrote {}", path.display());
    }
}

/// MITHRIL parameter sweep on the zoo workloads: association-window W
/// × support threshold S under the linear limit. Small W misses
/// repeats separated by interleaved traffic; large W plus low S mines
/// noise (visible as accuracy loss). Results feed
/// docs/CALIBRATION.md's choice of the registry defaults.
fn mithril_sweep(opts: &Options) {
    println!(
        "mithril-sweep — MITHRIL W×S on the zoo workloads, Ln_Agr:1 on PAFS/NOW at 1 MB \
         per node (seed {})",
        opts.seed
    );
    println!(
        "{:<22} {:>4} {:>3} {:>8} {:>6} {:>6} {:>7} {:>7} {:>6}",
        "workload", "W", "S", "read ms", "cov%", "acc%", "table", "emits", "mined"
    );
    let counter = |r: &lap_core::SimReport, key: &str| match r.obs.get(key) {
        Some(MetricValue::Counter(v)) => *v,
        _ => 0,
    };
    let gauge = |r: &lap_core::SimReport, key: &str| match r.obs.get(key) {
        Some(MetricValue::Gauge(v)) => *v,
        _ => 0.0,
    };
    let mut csv =
        String::from("workload,window,support,read_ms,coverage,accuracy,table_size,emits,mined\n");
    for (spec, mb) in zoo_grid(opts) {
        let wl = spec.build(opts.seed).unwrap_or_else(|e| {
            eprintln!("bad --workload: {e}");
            std::process::exit(2);
        });
        for w in [4usize, 16, 64] {
            for s in [1usize, 2, 4] {
                let ps =
                    PredictorSpec::parse(&format!("mithril:{w},{s}")).expect("sweep spec parses");
                let pf = PrefetchConfig::with_predictor(ps.kind, Some(AggressiveLimit::One));
                let mut cfg = lap_core::SimConfig::now(CacheSystem::Pafs, pf, mb);
                cfg.fit_to_workload(&wl);
                let r = run_simulation(cfg, wl.clone());
                assert!(
                    r.avg_read_ms.is_finite() && r.avg_read_ms > 0.0 && r.reads > 0,
                    "degenerate sweep cell: {} W={w} S={s}",
                    wl.name
                );
                let covered = counter(&r, "span.outcome_covered_by_prefetch") as f64;
                let late = counter(&r, "span.outcome_late_prefetch") as f64;
                let used = (counter(&r, "cache.prefetch_used")
                    + counter(&r, "prefetch.absorbed_in_flight")) as f64;
                let wasted = counter(&r, "cache.prefetch_wasted") as f64;
                let coverage = (covered + late) / r.reads.max(1) as f64;
                let accuracy = if used + wasted == 0.0 {
                    0.0
                } else {
                    used / (used + wasted)
                };
                println!(
                    "{:<22} {:>4} {:>3} {:>8.3} {:>6.2} {:>6.2} {:>7.0} {:>7} {:>6}",
                    wl.name,
                    w,
                    s,
                    r.avg_read_ms,
                    coverage * 100.0,
                    accuracy * 100.0,
                    gauge(&r, "pred.table_size"),
                    counter(&r, "pred.emits"),
                    counter(&r, "pred.mined")
                );
                use std::fmt::Write as _;
                let _ = writeln!(
                    csv,
                    "{},{w},{s},{:.6},{:.6},{:.6},{:.0},{},{}",
                    wl.name,
                    r.avg_read_ms,
                    coverage,
                    accuracy,
                    gauge(&r, "pred.table_size"),
                    counter(&r, "pred.emits"),
                    counter(&r, "pred.mined")
                );
            }
        }
    }
    println!();
    if let Some(dir) = &opts.out {
        let path = dir.join("mithril_sweep.csv");
        fs::write(&path, csv).expect("write mithril-sweep CSV");
        println!("wrote {}", path.display());
    }
}

/// One (plan × system) outcome of the chaos sweep.
struct ChaosCell {
    system: &'static str,
    /// `"ok"`, `"violation"` (an invariant-oracle panic) or
    /// `"mismatch"` (layout/backend variants disagreed).
    status: &'static str,
    /// Panic message / mismatch description, empty when ok.
    detail: String,
    read_ms: f64,
    reads: u64,
    injected: u64,
    failovers: u64,
}

/// One seeded random fault plan's outcomes across both systems.
struct ChaosRow {
    plan: usize,
    seed: u64,
    spec: String,
    cells: Vec<ChaosCell>,
}

/// `experiments chaos`: the seeded chaos sweep (DESIGN.md §15). Each
/// plan index derives a random-but-valid fault plan spec from
/// `FaultPlan::random_spec(seed + index)`, and every plan runs on both
/// cooperative systems × both cache-metadata layouts × both
/// event-queue backends with the invariant oracle forced **on**. A
/// plan passes when all four layout/backend variants finish without an
/// oracle violation and produce bit-identical `SimReport`s.
///
/// Always runs at small scale on the stock CHARISMA/Sprite pair — the
/// point is plan count, not workload size; workload, algorithm and
/// cache size rotate with the plan index so the sweep crosses fault
/// plans with simulator states, not just with each other. Plans fan
/// out over `bench::par_map`, so stdout and the `--out` CSV are
/// byte-identical for any `--workers` value.
fn chaos(opts: &Options) {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::Arc;

    let systems = [CacheSystem::Pafs, CacheSystem::Xfs];
    let variants: [(MetaLayout, QueueBackend); 4] = [
        (MetaLayout::Classic, QueueBackend::Heap),
        (MetaLayout::Classic, QueueBackend::Calendar),
        (MetaLayout::Dense, QueueBackend::Heap),
        (MetaLayout::Dense, QueueBackend::Calendar),
    ];
    let algos = [
        PrefetchConfig::ln_agr_is_ppm(1),
        PrefetchConfig::ln_agr_oba(),
        PrefetchConfig::ln_agr_is_ppm(3),
        PrefetchConfig::np(),
    ];
    let kinds = [WorkloadKind::CharismaPm, WorkloadKind::SpriteNow];
    let mbs = [1u64, 2, 4];
    let workloads: Vec<Arc<ioworkload::Workload>> = kinds
        .iter()
        .map(|&k| Arc::new(build_workload(k, Scale::Small, opts.seed)))
        .collect();

    // No worker count in the header: chaos output must stay
    // byte-identical for any --workers (CI diffs runs).
    println!(
        "chaos — {} seeded random fault plans × {{PAFS, xFS}} × {{classic, dense}} × \
         {{heap, calendar}}, invariant oracle on (seed base {}, small scale)",
        opts.plans, opts.seed
    );
    let panic_msg = |e: Box<dyn std::any::Any + Send>| -> String {
        e.downcast_ref::<String>()
            .cloned()
            .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "non-string panic payload".into())
    };
    let jobs: Vec<usize> = (0..opts.plans).collect();
    let rows: Vec<ChaosRow> = bench::par_map(&jobs, opts.threads, |&i| {
        let plan_seed = opts.seed.wrapping_add(i as u64);
        let spec = FaultPlan::random_spec(plan_seed);
        let plan = FaultPlan::parse(&spec).expect("random_spec emits valid specs");
        let kind = kinds[i % kinds.len()];
        let wl = &workloads[i % kinds.len()];
        let pf = algos[i % algos.len()];
        let mb = mbs[i % mbs.len()];
        let mut cells = Vec::with_capacity(systems.len());
        for system in systems {
            let mut reports = Vec::with_capacity(variants.len());
            let mut cell = ChaosCell {
                system: system.name(),
                status: "ok",
                detail: String::new(),
                read_ms: 0.0,
                reads: 0,
                injected: 0,
                failovers: 0,
            };
            for (layout, backend) in variants {
                let mut cfg = build_config(kind, Scale::Small, system, pf, mb);
                cfg.fault_plan = Some(plan);
                cfg.meta_layout = layout;
                cfg.event_queue = backend;
                cfg.check = CheckMode::On;
                let wl = Arc::clone(wl);
                match catch_unwind(AssertUnwindSafe(|| {
                    lap_core::run_simulation_shared(cfg, wl)
                })) {
                    Ok(r) => reports.push((layout, backend, r)),
                    Err(e) => {
                        cell.status = "violation";
                        cell.detail = format!(
                            "{}/{:?}/{:?}: {}",
                            system.name(),
                            layout,
                            backend,
                            panic_msg(e)
                        );
                        break;
                    }
                }
            }
            if cell.status == "ok" {
                let (_, _, first) = &reports[0];
                if let Some((layout, backend, _)) = reports.iter().find(|(_, _, r)| r != first) {
                    cell.status = "mismatch";
                    cell.detail = format!(
                        "{}/{:?}/{:?} differs from {:?}/{:?}",
                        system.name(),
                        layout,
                        backend,
                        variants[0].0,
                        variants[0].1
                    );
                } else {
                    cell.read_ms = first.avg_read_ms;
                    cell.reads = first.reads;
                    cell.injected = first.faults_injected;
                    cell.failovers = first.failovers;
                }
            }
            cells.push(cell);
        }
        ChaosRow {
            plan: i,
            seed: plan_seed,
            spec,
            cells,
        }
    });

    let mut csv =
        String::from("plan,seed,system,status,read_ms,reads,faults_injected,failovers,spec\n");
    let (mut violations, mut mismatches, mut injected_total) = (0u64, 0u64, 0u64);
    for row in &rows {
        for c in &row.cells {
            match c.status {
                "violation" => violations += 1,
                "mismatch" => mismatches += 1,
                _ => {}
            }
            injected_total += c.injected;
            if c.status != "ok" {
                println!(
                    "  plan {:>4} seed {:>8} {:<5} {}: {}\n    spec: {}",
                    row.plan, row.seed, c.system, c.status, c.detail, row.spec
                );
            }
            use std::fmt::Write as _;
            let _ = writeln!(
                csv,
                "{},{},{},{},{:.6},{},{},{},{}",
                row.plan,
                row.seed,
                c.system,
                c.status,
                c.read_ms,
                c.reads,
                c.injected,
                c.failovers,
                row.spec
            );
        }
    }
    let runs = rows.len() * systems.len() * variants.len();
    println!(
        "  plans {:>5}   runs {:>6}   faults injected {:>8}   violations {}   mismatches {}",
        rows.len(),
        runs,
        injected_total,
        violations,
        mismatches
    );
    if let Some(dir) = &opts.out {
        let path = dir.join("chaos.csv");
        fs::write(&path, csv).expect("write chaos CSV");
        println!("wrote {}", path.display());
    }
    if violations + mismatches > 0 {
        eprintln!(
            "chaos: {violations} invariant violation(s), {mismatches} layout/backend mismatch(es)"
        );
        std::process::exit(1);
    }
    println!("  all invariants green; classic/dense and heap/calendar bit-identical per plan\n");
}

/// §5.2: miss-prediction ratios on Sprite at 4 MB — "Ln_Agr_OBA has a
/// miss-prediction ratio of 32% while Ln_Agr_IS_PPM only miss-predicts
/// 15% of the prefetched blocks".
fn mispredict(opts: &Options) {
    println!("mispredict — Sprite on PAFS at 4 MB (\u{a7}5.2)");
    let wl = build_workload(WorkloadKind::SpriteNow, opts.scale, opts.seed);
    for (pf, paper) in [
        (PrefetchConfig::ln_agr_oba(), "32%"),
        (PrefetchConfig::ln_agr_is_ppm(1), "15%"),
        (PrefetchConfig::ln_agr_is_ppm(3), "~15%"),
    ] {
        let cfg = build_config(
            WorkloadKind::SpriteNow,
            opts.scale,
            CacheSystem::Pafs,
            pf,
            4,
        );
        let r = run_simulation(cfg, wl.clone());
        println!(
            "  {:<18} {:>6.2}%  (paper: {paper})",
            pf.paper_name(),
            r.mispredict_ratio * 100.0
        );
    }
    println!();
}
