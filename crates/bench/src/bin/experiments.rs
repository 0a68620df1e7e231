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
//!
//! Every ablation is a list of labelled cells: [`bench::sweep()`] runs
//! them on the worker pool and checks each one, the ablation scores
//! and prints the results in cell order, and [`write_out`] writes its
//! files.
//! [`IDS`] is the one table of runnable ids.

use std::fmt::{Display, Write as _};
use std::fs;
use std::path::PathBuf;
use std::process::exit;
use std::sync::Arc;

use bench::{
    build_config, build_workload, experiment, render_csv, render_table, run_grid, sweep,
    Experiment, Scale, WorkloadKind, CACHE_MBS, EXPERIMENTS,
};
use devmodel::DiskSched;
use faultkit::FaultPlan;
use ioworkload::Workload;
use lap_core::{
    run_simulation, CacheSystem, CheckMode, MachineConfig, PrefetchGranularity, Replacement,
    SimConfig, SimReport, Simulation,
};
use lapobs::MetricValue;
use prefetch::{AggressiveLimit, EdgeChoice, PredictorSpec, PrefetchConfig};
use workzoo::WorkloadSpec;

struct Options {
    ids: Vec<&'static str>,
    scale: Scale,
    seed: u64,
    out: Option<PathBuf>,
    workers: usize,
    obs: bool,
    bench_out: Option<PathBuf>,
    /// Restrict the `predictors` ablation to one registry spec.
    predictor: Option<PredictorSpec>,
    /// Restrict the `zoo`/`mithril-sweep` ablations to one workload.
    workload: Option<WorkloadSpec>,
    /// Number of seeded random fault plans the `chaos` sweep runs.
    plans: usize,
}

type IdEntry = (&'static str, fn(&Options), bool, bool);

/// Every runnable id besides the figure grids of [`EXPERIMENTS`], in
/// run order: `(id, entry point, part of all, part of --smoke)`. `all`
/// runs the figures and then every id marked for it; `--smoke` runs
/// the ids marked for it at small scale.
const IDS: [IdEntry; 13] = [
    ("table1", print_table1, false, true),
    ("fallback-share", fallback_share, true, false),
    ("mispredict", mispredict, true, false),
    ("ablations", ablations, true, false),
    ("cooperation", cooperation, true, false),
    ("robustness", robustness, true, false),
    ("devmodel", devmodel_ablation, true, true),
    ("extent", extent_ablation, true, true),
    ("faults", faults_ablation, true, true),
    ("predictors", predictors_ablation, true, true),
    ("zoo", zoo_ablation, true, true),
    ("mithril-sweep", mithril_sweep, true, false),
    ("chaos", chaos, false, false),
];

fn scale_name(s: Scale) -> &'static str {
    match s {
        Scale::Small => "small",
        Scale::Paper => "paper",
    }
}

/// Report a command-line error on stderr and exit 2.
fn bad_usage(msg: impl Display) -> ! {
    eprintln!("{}", msg.to_string().trim_end());
    exit(2)
}

/// The value after a flag, or a usage error.
fn value(args: &mut impl Iterator<Item = String>, err: &str) -> String {
    args.next().unwrap_or_else(|| bad_usage(err))
}

/// The numeric value after a flag, or a usage error.
fn number<T: std::str::FromStr>(args: &mut impl Iterator<Item = String>, err: &str) -> T {
    value(args, err).parse().unwrap_or_else(|_| bad_usage(err))
}

fn parse_args() -> Options {
    let mut opts = Options {
        ids: Vec::new(),
        scale: Scale::Paper,
        seed: 42,
        out: None,
        workers: std::thread::available_parallelism().map_or(4, |n| n.get()),
        obs: false,
        bench_out: None,
        predictor: None,
        workload: None,
        plans: 2000,
    };
    let mut ids: Vec<String> = Vec::new();
    let mut workload_raw: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--smoke" => {
                // CI sanity mode: a fast, deterministic subset at small
                // scale. Any panic (bad table, broken invariant) fails
                // the run.
                opts.scale = Scale::Small;
                ids = IDS.iter().filter(|e| e.3).map(|e| e.0.into()).collect();
            }
            "--workload" => {
                let err = format!(
                    "--workload needs a registry SPEC\n{}",
                    workzoo::registry_help()
                );
                workload_raw = Some(value(&mut args, &err));
            }
            "--predictor" => {
                let err = format!(
                    "--predictor needs a registry SPEC\n{}",
                    prefetch::registry_help()
                );
                // The parse error's Display carries the full registry
                // listing (names, syntax, examples).
                match PredictorSpec::parse(&value(&mut args, &err)) {
                    Ok(s) => opts.predictor = Some(s),
                    Err(e) => bad_usage(format!("bad --predictor: {e}")),
                }
            }
            "--scale" => {
                opts.scale = match args.next().as_deref() {
                    Some("small") => Scale::Small,
                    Some("paper") => Scale::Paper,
                    other => bad_usage(format!("--scale needs small|paper, got {other:?}")),
                }
            }
            "--seed" => opts.seed = number(&mut args, "--seed needs an integer"),
            "--out" => opts.out = Some(value(&mut args, "--out needs a directory").into()),
            "--workers" => opts.workers = number(&mut args, "--workers needs an integer"),
            "--plans" => opts.plans = number(&mut args, "--plans needs an integer"),
            "--obs" => opts.obs = true,
            "--bench-out" => {
                opts.bench_out = Some(value(&mut args, "--bench-out needs a file path").into())
            }
            "--help" | "-h" => {
                print_help();
                exit(0);
            }
            flag if flag.starts_with('-') => {
                eprintln!("unknown option {flag:?}");
                print_help();
                exit(2);
            }
            id => ids.push(id.to_string()),
        }
    }
    if ids.is_empty() && opts.bench_out.is_none() {
        print_help();
        exit(2);
    }
    if opts.obs && opts.out.is_none() {
        bad_usage("--obs writes per-cell metrics CSVs and needs --out DIR");
    }
    // Expand `all` and reject an unknown id before anything runs.
    for id in &ids {
        if id == "all" {
            opts.ids.extend(EXPERIMENTS.iter().map(|e| e.id));
            opts.ids.extend(IDS.iter().filter(|e| e.2).map(|e| e.0));
        } else if let Some(known) = EXPERIMENTS
            .iter()
            .map(|e| e.id)
            .chain(IDS.iter().map(|e| e.0))
            .find(|k| *k == id.as_str())
        {
            opts.ids.push(known);
        } else {
            eprintln!("unknown experiment {id:?}");
            print_help();
            exit(2);
        }
    }
    // Parse --workload after the loop so a later --scale still applies
    // to a bare charisma/sprite spec. The error's Display carries the
    // full registry listing.
    if let Some(raw) = workload_raw {
        match WorkloadSpec::parse_cli(&raw, scale_name(opts.scale)) {
            Ok(s) => opts.workload = Some(s),
            Err(e) => bad_usage(format!("bad --workload: {e}")),
        }
    }
    opts
}

fn print_help() {
    let ids: Vec<&str> = IDS.iter().map(|e| e.0).collect();
    let smoke: Vec<&str> = IDS.iter().filter(|e| e.3).map(|e| e.0).collect();
    eprintln!(
        "usage: experiments <ids...> [--scale small|paper] [--seed N] [--out DIR] [--workers N] [--obs] [--smoke]"
    );
    eprintln!(
        "  --smoke           CI sanity mode: runs {} at small scale",
        smoke.join(" + ")
    );
    eprintln!("  --workers N       worker-pool size for the parallel sweeps (every figure");
    eprintln!("                    grid and ablation); results are byte-identical for any");
    eprintln!("                    worker count");
    eprintln!("  --bench-out FILE  write a machine-readable BENCH.json snapshot of the");
    eprintln!("                    seed scenarios (diff with `lapreport bench-diff`)");
    eprintln!("  --predictor SPEC  restrict the predictors ablation to one registry spec");
    eprintln!("  --workload SPEC   restrict the zoo/mithril-sweep ablations to one workload");
    eprintln!("                    (registry spec, e.g. web:64,0.8,256 or strace:FILE)");
    eprintln!("  --plans N         seeded random fault plans for the chaos sweep (default 2000)");
    eprintln!("ids: all, {}, or any of:", ids.join(", "));
    for e in EXPERIMENTS {
        eprintln!("  {:<8} {}", e.id, e.title);
    }
}

fn main() {
    let opts = parse_args();
    if let Some(dir) = &opts.out {
        fs::create_dir_all(dir).expect("create output directory");
    }
    for &id in &opts.ids {
        match experiment(id) {
            Some(exp) => figure(&opts, exp),
            None => (IDS.iter().find(|e| e.0 == id).expect("ids are validated").1)(&opts),
        }
    }
    if let Some(path) = &opts.bench_out {
        bench_json(&opts, path);
    }
}

/// The one output sink: write `name` into the `--out` directory, when
/// one was given, and say so on stdout.
fn write_out(opts: &Options, name: &str, contents: impl FnOnce() -> String) {
    if let Some(dir) = &opts.out {
        let path = dir.join(name);
        fs::write(&path, contents()).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
        println!("wrote {}", path.display());
    }
}

fn workload(opts: &Options, kind: WorkloadKind) -> Arc<Workload> {
    Arc::new(build_workload(kind, opts.scale, opts.seed))
}

/// One figure or table of §5: its grid, rendered as the paper prints
/// it, plus CSV, SVG and (with `--obs`) per-cell metrics files.
fn figure(opts: &Options, exp: Experiment) {
    let t0 = std::time::Instant::now();
    let cells = run_grid(exp, opts.scale, opts.seed, &CACHE_MBS, opts.workers);
    println!("{}", render_table(exp, &cells, &CACHE_MBS));
    println!(
        "({} runs, {:.1}s wall, seed {}, scale {:?})\n",
        cells.len(),
        t0.elapsed().as_secs_f64(),
        opts.seed,
        opts.scale
    );
    write_out(opts, &format!("{}.csv", exp.id), || render_csv(exp, &cells));
    write_out(opts, &format!("{}.svg", exp.id), || {
        bench::plot::render_svg(exp, &cells, &CACHE_MBS)
    });
    if opts.obs {
        write_out(opts, &format!("{}.metrics.csv", exp.id), || obs_csv(&cells));
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
/// exactly. Host speed is measured by `perfbench`, not here. The four
/// runs stay serial on purpose: the `count-alloc` counter is
/// process-wide, so parallel runs would mix their allocation counts.
fn bench_json(opts: &Options, path: &PathBuf) {
    let mut out = String::from("{\n\"schema\": 3,\n\"scenarios\": [\n");
    for (i, (name, kind, system, pf, mb)) in bench_scenarios().into_iter().enumerate() {
        let wl = build_workload(kind, opts.scale, opts.seed);
        let cfg = build_config(kind, opts.scale, system, pf, mb);
        let run = Simulation::try_new(cfg, wl, lapobs::NoopRecorder)
            .unwrap_or_else(|e| panic!("{name}: {e}"))
            .run();
        let (r, p) = (run.report, run.profile);
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
    let mut out = String::from("algorithm,cache_mb,metric,value\n");
    for c in cells {
        for line in c.report.obs.to_csv().lines().skip(1) {
            let _ = writeln!(out, "{},{},{line}", c.algorithm, c.cache_mb);
        }
    }
    out
}

/// Table 1: the simulation parameters, verbatim.
fn print_table1(_: &Options) {
    type Row = (&'static str, fn(&MachineConfig) -> String);
    let rows: [Row; 13] = [
        ("Nodes", |m| m.nodes.to_string()),
        ("Buffer Size", |m| format!("{} KB", m.block_size / 1024)),
        ("Memory Bandwidth", |m| {
            format!("{:.0} MB/s", m.memory_bandwidth / 1e6)
        }),
        ("Network Bandwidth", |m| {
            format!("{:.1} MB/s", m.network_bandwidth / 1e6)
        }),
        ("Local-Port Startup", |m| {
            format!("{} us", m.local_startup.as_micros())
        }),
        ("Remote-Port Startup", |m| {
            format!("{} us", m.remote_startup.as_micros())
        }),
        ("Local Memory copy Startup", |m| {
            format!("{} us", m.local_copy_startup.as_micros())
        }),
        ("Remote Memory copy Startup", |m| {
            format!("{} us", m.remote_copy_startup.as_micros())
        }),
        ("Number of Disks", |m| m.disks.to_string()),
        ("Disk-Block Size", |m| format!("{} KB", m.block_size / 1024)),
        ("Disk Bandwidth", |m| {
            format!("{:.0} MB/s", m.disk_bandwidth / 1e6)
        }),
        ("Disk Read Seek", |m| {
            format!("{:.1} ms", m.disk_read_seek.as_millis_f64())
        }),
        ("Disk Write Seek", |m| {
            format!("{:.1} ms", m.disk_write_seek.as_millis_f64())
        }),
    ];
    let (pm, now) = (MachineConfig::pm(), MachineConfig::now());
    println!("table1 — Simulation parameters");
    println!("{:<28} {:>12} {:>12}", "", "PM", "NOW");
    for (name, value) in rows {
        println!("{name:<28} {:>12} {:>12}", value(&pm), value(&now));
    }
    println!();
}

/// §2.2: share of prefetched blocks issued by the OBA fallback inside
/// the IS_PPM configurations — "<1% when the files were large
/// (CHARISMA) and around 25% when the files were small (Sprite)".
fn fallback_share(opts: &Options) {
    println!("fallback-share — blocks prefetched via OBA fallback inside IS_PPM (\u{a7}2.2)");
    let pf = PrefetchConfig::ln_agr_is_ppm(1);
    let cells = [
        (WorkloadKind::CharismaPm, "CHARISMA", "<1%"),
        (WorkloadKind::SpriteNow, "Sprite", "~25%"),
    ]
    .map(|(kind, label, paper)| {
        let cfg = build_config(kind, opts.scale, CacheSystem::Pafs, pf, 4);
        ((label, paper), cfg, workload(opts, kind))
    });
    for ((label, paper), r) in sweep(cells.into(), opts.workers) {
        println!(
            "  {label:<10} {:>6.2}%  (paper: {paper} )",
            r.prefetch.fallback_share() * 100.0
        );
    }
    println!();
}

/// §5.2: miss-prediction ratios on Sprite at 4 MB — "Ln_Agr_OBA has a
/// miss-prediction ratio of 32% while Ln_Agr_IS_PPM only miss-predicts
/// 15% of the prefetched blocks".
fn mispredict(opts: &Options) {
    println!("mispredict — Sprite on PAFS at 4 MB (\u{a7}5.2)");
    let kind = WorkloadKind::SpriteNow;
    let wl = workload(opts, kind);
    let cells = [
        (PrefetchConfig::ln_agr_oba(), "32%"),
        (PrefetchConfig::ln_agr_is_ppm(1), "15%"),
        (PrefetchConfig::ln_agr_is_ppm(3), "~15%"),
    ]
    .map(|(pf, paper)| {
        let cfg = build_config(kind, opts.scale, CacheSystem::Pafs, pf, 4);
        ((pf.paper_name(), paper), cfg, Arc::clone(&wl))
    });
    for ((name, paper), r) in sweep(cells.into(), opts.workers) {
        println!(
            "  {name:<18} {:>6.2}%  (paper: {paper})",
            r.mispredict_ratio * 100.0
        );
    }
    println!();
}

/// Seed robustness: re-run Figure 4's key cells across several
/// workload seeds and report mean ± standard deviation — the shape
/// claims should not hinge on one synthetic trace.
fn robustness(opts: &Options) {
    const SEEDS: [u64; 5] = [1, 2, 3, 42, 1999];
    let exp = experiment("fig4").unwrap();
    println!(
        "robustness — fig4 across seeds {:?} (mean ± sd of avg read ms, scale {:?})",
        SEEDS, opts.scale
    );
    // Every grid lists its cells in the same roster order (algorithm,
    // then cache size), so cell i is the same cell on every seed.
    let grids: Vec<Vec<bench::Cell>> = SEEDS
        .iter()
        .map(|&seed| run_grid(exp, opts.scale, seed, &CACHE_MBS, opts.workers))
        .collect();

    print!("{:<18}", "algorithm");
    for mb in CACHE_MBS {
        print!(" {mb:>15}MB");
    }
    println!();
    for (i, c) in grids[0].iter().enumerate() {
        if c.cache_mb == CACHE_MBS[0] {
            print!("{:<18}", c.algorithm);
        }
        let vals: Vec<f64> = grids.iter().map(|g| g[i].report.avg_read_ms).collect();
        let n = vals.len() as f64;
        let mean = vals.iter().sum::<f64>() / n;
        let var = vals.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n;
        print!(" {:>9.3}±{:<7.3}", mean, var.sqrt());
        if c.cache_mb == CACHE_MBS[CACHE_MBS.len() - 1] {
            println!();
        }
    }
    println!();
}

/// Extension experiment: how much of the performance comes from the
/// *cooperation* itself? Sweep cache sizes for the two cooperative
/// systems and the non-cooperative per-node baseline, with and without
/// prefetching.
fn cooperation(opts: &Options) {
    let kind = WorkloadKind::CharismaPm;
    let wl = workload(opts, kind);
    let pfs = [PrefetchConfig::np(), PrefetchConfig::ln_agr_is_ppm(1)];
    let systems = [CacheSystem::Pafs, CacheSystem::Xfs, CacheSystem::LocalOnly];
    let mut cells = Vec::new();
    for pf in pfs {
        for system in systems {
            for mb in CACHE_MBS {
                let cfg = build_config(kind, opts.scale, system, pf, mb);
                cells.push(((pf.paper_name(), system.name(), mb), cfg, Arc::clone(&wl)));
            }
        }
    }
    println!(
        "cooperation — CHARISMA, read time in ms (seed {}, scale {:?})",
        opts.seed, opts.scale
    );
    let mut results = sweep(cells, opts.workers).into_iter();
    for pf in pfs {
        println!("\n[{}]", pf.paper_name());
        print!("{:<22}", "system");
        for mb in CACHE_MBS {
            print!(" {:>8}MB", mb);
        }
        println!();
        for system in systems {
            print!("{:<22}", system.name());
            for (_, r) in results.by_ref().take(CACHE_MBS.len()) {
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
    use AggressiveLimit::{One, Unlimited, Window};
    let kind = WorkloadKind::CharismaPm;
    let wl = workload(opts, kind);
    let ln1 = PrefetchConfig::ln_agr_is_ppm(1);
    let on = |system, pf| build_config(kind, opts.scale, system, pf, 4);
    let pafs = |pf| on(CacheSystem::Pafs, pf);
    let edge = |edge_choice| pafs(PrefetchConfig { edge_choice, ..ln1 });
    let limit = |l| {
        pafs(PrefetchConfig {
            aggressive: Some(l),
            ..ln1
        })
    };
    let order = |j| pafs(PrefetchConfig::ln_agr_is_ppm(j));
    let cap = |lead_cap| pafs(PrefetchConfig { lead_cap, ..ln1 });
    let priority = |prefetch_priority| SimConfig {
        prefetch_priority,
        ..pafs(ln1)
    };
    let replacement = |replacement| SimConfig {
        replacement,
        ..pafs(ln1)
    };
    let sections = [
        (
            "edge selection in IS_PPM — the paper argues most-recent beats most-frequent",
            vec![
                ("MRU (paper)", edge(EdgeChoice::MostRecent)),
                ("most-frequent", edge(EdgeChoice::MostFrequent)),
            ],
        ),
        (
            "aggressiveness limit — the paper argues for the linear (one-block) limit",
            vec![
                ("linear (paper)", limit(One)),
                ("window 4", limit(Window(4))),
                ("window 16", limit(Window(16))),
                ("unlimited", limit(Unlimited)),
            ],
        ),
        (
            "Markov order j — the paper finds it barely matters",
            vec![
                ("IS_PPM:1", order(1)),
                ("IS_PPM:2", order(2)),
                ("IS_PPM:3", order(3)),
                ("IS_PPM:4", order(4)),
            ],
        ),
        (
            "walk lead cap — this reproduction's read-ahead window; None = paper-pure",
            vec![
                ("cap 256", cap(Some(256))),
                ("cap 1024 (default)", cap(Some(1024))),
                ("cap 4096", cap(Some(4096))),
                ("unbounded (paper)", cap(None)),
            ],
        ),
        (
            "order back-off — extension: escape to lower orders instead of straight to OBA",
            vec![
                ("IS_PPM:3 (paper)", order(3)),
                (
                    "IS_PPM*:3 (back-off)",
                    pafs(PrefetchConfig::ln_agr_is_ppm_backoff(3)),
                ),
            ],
        ),
        (
            "prefetch disk priority — the paper's \"never delay other operations\" rule",
            vec![
                ("lowest priority (paper)", priority(true)),
                ("demand priority", priority(false)),
            ],
        ),
        (
            "replacement policy — both systems assume LRU",
            vec![
                ("global LRU (paper)", replacement(Replacement::Lru)),
                ("global FIFO", replacement(Replacement::Fifo)),
            ],
        ),
        (
            "cooperation — cooperative caches vs independent per-node caches",
            vec![
                ("PAFS (cooperative)", on(CacheSystem::Pafs, ln1)),
                ("xFS (cooperative)", on(CacheSystem::Xfs, ln1)),
                ("local-only (none)", on(CacheSystem::LocalOnly, ln1)),
            ],
        ),
    ];
    let cells = sections
        .into_iter()
        .flat_map(|(title, rows)| {
            rows.into_iter()
                .map(move |(name, cfg)| ((title, name), cfg))
        })
        .map(|(key, cfg)| (key, cfg, Arc::clone(&wl)))
        .collect();

    println!(
        "ablations — CHARISMA on PAFS at 4 MB (seed {}, scale {:?})",
        opts.seed, opts.scale
    );
    let mut section = "";
    for ((title, name), r) in sweep(cells, opts.workers) {
        if title != section {
            println!("\n[{title}]");
            section = title;
        }
        println!(
            "  {name:<28} read {:>7.3} ms   disk {:>9}   mispred {:>5.1}%",
            r.avg_read_ms,
            r.disk_accesses(),
            r.mispredict_ratio * 100.0
        );
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
    let wl = workload(opts, kind);
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
    // One cell per table cell; `None` is the fixed-model column.
    let scheds = std::iter::once(None).chain(DiskSched::ALL.map(Some));
    let mut cells = Vec::new();
    for (name, pf) in algos {
        for sched in scheds.clone() {
            let mut cfg = build_config(kind, opts.scale, CacheSystem::Pafs, pf, 4);
            if let Some(s) = sched {
                cfg.machine = cfg.machine.with_geometry();
                cfg.machine.disk_sched = s;
            }
            cells.push(((name, sched), cfg, Arc::clone(&wl)));
        }
    }
    let last = DiskSched::ALL.last().copied();
    for ((name, sched), r) in sweep(cells, opts.workers) {
        if sched.is_none() {
            print!("{name:<18}");
        }
        print!(" {:>9.3}", r.avg_read_ms);
        if sched == last {
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
    let wl = workload(opts, kind);
    println!(
        "extent — CHARISMA on PAFS at 4 MB: prefetch granularity × extent size, geometry \
         disks (seed {}, scale {:?})",
        opts.seed, opts.scale
    );
    println!(
        "{:<22} {:>4} {:>9} {:>9} {:>8} {:>9} {:>8}",
        "algorithm", "ext", "blk ms", "ext ms", "delta%", "covered%", "blk/iss"
    );
    // Each (algorithm, extent size) runs as two adjacent cells, block-
    // then extent-granular, on the same geometry.
    let mut cells = Vec::new();
    for pf in PrefetchConfig::paper_suite() {
        for n in [1u64, 4, 8, 16] {
            for gran in [PrefetchGranularity::Block, PrefetchGranularity::Extent] {
                let mut cfg = build_config(kind, opts.scale, CacheSystem::Pafs, pf, 4);
                cfg.machine = cfg.machine.with_geometry_extent(n);
                cfg.machine.prefetch_granularity = gran;
                cells.push(((pf, n, gran), cfg, Arc::clone(&wl)));
            }
        }
    }
    let mut csv = String::from(
        "algorithm,extent_blocks,block_read_ms,extent_read_ms,delta_pct,extent_covered_rate,blocks_per_issue\n",
    );
    for pair in sweep(cells, opts.workers).chunks(2) {
        let (((pf, n, _), blk), (_, ext)) = (&pair[0], &pair[1]);
        let name = pf.paper_name();
        if *n == 1 || !pf.is_aggressive() {
            // One-block extents (or a non-aggressive engine) must
            // reduce extent mode to exactly the per-block simulator.
            assert_eq!(
                (blk.avg_read_ms, blk.reads, blk.disk_accesses()),
                (ext.avg_read_ms, ext.reads, ext.disk_accesses()),
                "extent mode must degenerate to block mode: {name} n={n}"
            );
        }
        let delta = (ext.avg_read_ms - blk.avg_read_ms) / blk.avg_read_ms * 100.0;
        let covered = ext.counter("span.outcome_covered_by_prefetch") as f64 / ext.reads as f64;
        let per_issue = ext.prefetch.blocks_per_issue();
        println!(
            "{name:<22} {n:>4} {:>9.3} {:>9.3} {delta:>+8.2} {:>9.2} {per_issue:>8.2}",
            blk.avg_read_ms,
            ext.avg_read_ms,
            covered * 100.0,
        );
        let _ = writeln!(
            csv,
            "{name},{n},{:.6},{:.6},{delta:.4},{covered:.6},{per_issue:.4}",
            blk.avg_read_ms, ext.avg_read_ms,
        );
    }
    println!();
    write_out(opts, "extent.csv", || csv);
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
    let wl = workload(opts, kind);
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
    let mut cells = Vec::new();
    for pf in PrefetchConfig::paper_suite() {
        for (plan, spec) in plans {
            let mut cfg = build_config(kind, opts.scale, CacheSystem::Pafs, pf, 4);
            cfg.fault_plan = spec.map(|s| {
                FaultPlan::parse(&s.replace(char::is_whitespace, ""))
                    .expect("ablation fault plan parses")
            });
            cells.push(((pf, plan), cfg, Arc::clone(&wl)));
        }
    }
    let mut csv = String::from(
        "algorithm,plan,read_ms,reads,writes,faults_injected,failovers,prefetch_suppressed,degraded_s\n",
    );
    let mut recovery: Vec<(String, f64, f64)> = Vec::new();
    for runs in sweep(cells, opts.workers).chunks(plans.len()) {
        let name = runs[0].0 .0.paper_name();
        // Conservation must compare warm + warm-up totals: fault
        // delays shift when later requests *start*, so a request
        // near the warm-up boundary can migrate between the two
        // buckets across plans even though none is lost.
        let totals = |r: &SimReport| (r.reads + r.warmup_reads, r.writes + r.warmup_writes);
        for ((pf, plan), r) in runs {
            assert_eq!(
                totals(&runs[0].1),
                totals(r),
                "fault injection lost or double-counted requests: {name} plan={plan}"
            );
            let suppressed = r.counter("fault.prefetch_suppressed");
            match *plan {
                "none" => assert_eq!(
                    (r.faults_injected, r.failovers, r.degraded_s),
                    (0, 0, 0.0),
                    "{name}: fault counters nonzero without a plan"
                ),
                "heavy" => assert!(
                    suppressed > 0 || !pf.is_aggressive(),
                    "{name}: aggressive walk never stood down during heavy error bursts"
                ),
                "wipe" => assert!(
                    r.degraded_s > 0.0,
                    "{name}: wipe plan never degraded a node"
                ),
                _ => {}
            }
            println!(
                "{name:<22} {plan:<6} {:>9.3} {:>7} {:>8} {:>9} {suppressed:>8} {:>10.3}",
                r.avg_read_ms, r.reads, r.faults_injected, r.failovers, r.degraded_s
            );
            let _ = writeln!(
                csv,
                "{name},{plan},{:.6},{},{},{},{},{suppressed},{:.6}",
                r.avg_read_ms, r.reads, r.writes, r.faults_injected, r.failovers, r.degraded_s
            );
        }
        let read_ms = |plan| {
            let run = runs.iter().find(|(k, _)| k.1 == plan);
            run.expect("every plan ran").1.avg_read_ms
        };
        recovery.push((name, read_ms("heavy"), read_ms("wipe")));
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
    write_out(opts, "faults.csv", || csv);
}

/// The header over [`score_cols`]' stdout columns.
fn score_header(with_tml: bool) -> String {
    let tml = if with_tml {
        format!(" {:>6}", "tml%")
    } else {
        String::new()
    };
    format!(
        "{:>8} {:>6} {:>6}{tml} {:>7} {:>7} {:>6}",
        "read ms", "cov%", "acc%", "table", "emits", "mined"
    )
}

/// The span-model columns of the predictors, zoo and mithril-sweep
/// tables — read time, coverage, accuracy, timeliness (left out when
/// `with_tml` is false), predictor table size, emits and mined — as a
/// stdout row tail and a CSV row tail.
fn score_cols(r: &SimReport, with_tml: bool) -> (String, String) {
    let s = r.span_score();
    let table = match r.obs.get("pred.table_size") {
        Some(MetricValue::Gauge(v)) => *v,
        _ => 0.0,
    };
    let (emits, mined) = (r.counter("pred.emits"), r.counter("pred.mined"));
    let mut row = format!(
        "{:>8.3} {:>6.2} {:>6.2}",
        r.avg_read_ms,
        s.coverage * 100.0,
        s.accuracy * 100.0
    );
    let mut csv = format!("{:.6},{:.6},{:.6}", r.avg_read_ms, s.coverage, s.accuracy);
    if with_tml {
        let _ = write!(row, " {:>6.2}", s.timeliness * 100.0);
        let _ = write!(csv, ",{:.6}", s.timeliness);
    }
    let _ = write!(row, " {table:>7.0} {emits:>7} {mined:>6}");
    let _ = write!(csv, ",{table:.0},{emits},{mined}");
    (row, csv)
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
    use CacheSystem::{Pafs, Xfs};
    use WorkloadKind::{CharismaPm, SpriteNow};
    let workloads = [
        ("charisma/pafs/4MB", CharismaPm, Pafs, 4),
        ("sprite/xfs/2MB", SpriteNow, Xfs, 2),
    ];
    let specs: Vec<PredictorSpec> = match &opts.predictor {
        Some(s) => vec![*s],
        None => [
            "oba",
            "is_ppm:1",
            "is_ppm:3",
            "markov:1",
            "markov:2",
            "mithril",
            "mithril+oba",
        ]
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
    let header = score_header(true);
    println!(
        "{:<18} {:<14} {:<9} {header}",
        "workload", "predictor", "mode"
    );
    let mut cells = Vec::new();
    for (wl_name, kind, system, mb) in workloads {
        let wl = workload(opts, kind);
        let np = ("np".to_string(), "-", PrefetchConfig::np());
        let rows = specs.iter().flat_map(|spec| {
            modes.map(|(mode, aggressive)| {
                let pf = PrefetchConfig::with_predictor(spec.kind, aggressive);
                (spec.canonical(), mode, pf)
            })
        });
        for (pred, mode, pf) in std::iter::once(np).chain(rows) {
            let cfg = build_config(kind, opts.scale, system, pf, mb);
            cells.push(((wl_name, pred, mode), cfg, Arc::clone(&wl)));
        }
    }
    let mut csv = String::from(
        "workload,predictor,mode,read_ms,coverage,accuracy,timeliness,table_size,emits,mined\n",
    );
    let mut saw_mithril = false;
    let mut mithril_covered = false;
    for ((wl_name, pred, mode), r) in sweep(cells, opts.workers) {
        let coverage = r.span_score().coverage;
        if pred == "np" {
            assert_eq!(
                (coverage, r.counter("pred.emits")),
                (0.0, 0),
                "NP covered reads or emitted predictions on {wl_name}"
            );
        }
        if pred.starts_with("mithril") {
            saw_mithril = true;
            assert!(
                r.counter("pred.mined") > 0,
                "MITHRIL mined no associations: {wl_name} {mode}"
            );
            mithril_covered |= mode != "simple" && coverage > 0.0;
        }
        let (row, csv_row) = score_cols(&r, true);
        println!("{wl_name:<18} {pred:<14} {mode:<9} {row}");
        let _ = writeln!(csv, "{wl_name},{pred},{mode},{csv_row}");
    }
    if saw_mithril {
        assert!(
            mithril_covered,
            "no aggressive MITHRIL cell covered a single read on either workload"
        );
    }
    println!();
    write_out(opts, "predictors.csv", || csv);
}

/// The workloads of the zoo grid: the three synthetic generators at
/// their cache-overflow presets, or the one `--workload SPEC`. Each
/// runs with 1 MB of cache per node (see [`zoo_config`]), so the
/// working set genuinely exceeds the aggregate cooperative cache
/// (web ≈ 20 MB over 8 MB aggregate; db ≈ 33 MB and mltrain = 16 MB
/// over 4 MB).
fn zoo_workloads(opts: &Options) -> Vec<Arc<Workload>> {
    let specs = match &opts.workload {
        Some(s) => vec![s.clone()],
        None => ["web:64,0.8,256", "db:0.3,4096", "mltrain:4,2048"]
            .iter()
            .map(|s| WorkloadSpec::parse(s).expect("zoo grid spec parses"))
            .collect(),
    };
    specs
        .iter()
        .map(|spec| match spec.build(opts.seed) {
            Ok(wl) => Arc::new(wl),
            Err(e) => bad_usage(format!("bad --workload: {e}")),
        })
        .collect()
}

/// A zoo cell: PAFS on the NOW machine at 1 MB per node, shrunk to the
/// workload's node count.
fn zoo_config(pf: PrefetchConfig, wl: &Workload) -> SimConfig {
    let mut cfg = SimConfig::now(CacheSystem::Pafs, pf, 1);
    cfg.fit_to_workload(wl);
    cfg
}

/// Workload-zoo ablation: the paper's seven configurations plus the
/// unlimited-aggressive IS_PPM and the history-replay predictors
/// (markov, MITHRIL) on the modern synthetic workloads, scored with
/// the span model. The point of the zoo: the stock CHARISMA/Sprite
/// pair never re-reads evicted data, so history-replay predictors are
/// degenerate there; the zoo's overflow workloads make them bite, and
/// re-ask the paper's central question — does the linear limit still
/// beat unlimited aggressiveness? — per workload (the `verdict` lines).
fn zoo_ablation(opts: &Options) {
    let workloads = zoo_workloads(opts);
    println!(
        "zoo — workload zoo × predictors on PAFS/NOW at 1 MB per node, span-model scoring \
         (seed {}, workload sizes fixed by spec)",
        opts.seed
    );
    println!(
        "{:<22} {:<20} {}",
        "workload",
        "algorithm",
        score_header(true)
    );
    // The paper suite, the unlimited-aggressive IS_PPM twin of
    // Ln_Agr_IS_PPM:1 (the verdict pair), and the history-replay
    // predictors under both aggressiveness regimes.
    let mut algos: Vec<PrefetchConfig> = PrefetchConfig::paper_suite().to_vec();
    algos.push(PrefetchConfig {
        aggressive: Some(AggressiveLimit::Unlimited),
        ..PrefetchConfig::ln_agr_is_ppm(1)
    });
    for pred in ["markov:1", "mithril"] {
        let ps = PredictorSpec::parse(pred).expect("zoo predictor spec parses");
        for limit in [AggressiveLimit::One, AggressiveLimit::Unlimited] {
            algos.push(PrefetchConfig::with_predictor(ps.kind, Some(limit)));
        }
    }
    let mut cells = Vec::new();
    for wl in &workloads {
        for &pf in &algos {
            let key = (wl.name.clone(), pf.paper_name());
            cells.push((key, zoo_config(pf, wl), Arc::clone(wl)));
        }
    }
    let mut csv = String::from(
        "workload,algorithm,read_ms,coverage,accuracy,timeliness,table_size,emits,mined\n",
    );
    let mut replay_covered = false;
    let mut verdicts: Vec<String> = Vec::new();
    for runs in sweep(cells, opts.workers).chunks(algos.len()) {
        for ((wl_name, name), r) in runs {
            let replay = name.contains("MARKOV") || name.contains("MITHRIL");
            replay_covered |= replay && r.span_score().coverage > 0.0;
            let (row, csv_row) = score_cols(r, true);
            println!("{wl_name:<22} {name:<20} {row}");
            let _ = writeln!(csv, "{wl_name},{name},{csv_row}");
        }
        // The paper's central claim, re-asked per workload: does the
        // linear (one-block-per-file) limit still beat the unlimited
        // aggressive walk once the working set overflows the cache?
        let ms = |algo: &str| {
            let run = runs.iter().find(|(k, _)| k.1 == algo);
            run.expect("zoo rows include the verdict pair")
                .1
                .avg_read_ms
        };
        let (ln, agr) = (ms("Ln_Agr_IS_PPM:1"), ms("Agr_IS_PPM:1"));
        verdicts.push(format!(
            "verdict {}: Ln_Agr_IS_PPM:1 {ln:.3} ms vs Agr_IS_PPM:1 {agr:.3} ms — {}",
            runs[0].0 .0,
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
    write_out(opts, "zoo.csv", || csv);
}

/// MITHRIL parameter sweep on the zoo workloads: association-window W
/// × support threshold S under the linear limit. Small W misses
/// repeats separated by interleaved traffic; large W plus low S mines
/// noise (visible as accuracy loss). Results feed
/// docs/CALIBRATION.md's choice of the registry defaults.
fn mithril_sweep(opts: &Options) {
    let workloads = zoo_workloads(opts);
    println!(
        "mithril-sweep — MITHRIL W×S on the zoo workloads, Ln_Agr:1 on PAFS/NOW at 1 MB \
         per node (seed {})",
        opts.seed
    );
    println!(
        "{:<22} {:>4} {:>3} {}",
        "workload",
        "W",
        "S",
        score_header(false)
    );
    let mut cells = Vec::new();
    for wl in &workloads {
        for w in [4usize, 16, 64] {
            for s in [1usize, 2, 4] {
                let ps =
                    PredictorSpec::parse(&format!("mithril:{w},{s}")).expect("sweep spec parses");
                let pf = PrefetchConfig::with_predictor(ps.kind, Some(AggressiveLimit::One));
                cells.push(((wl.name.clone(), w, s), zoo_config(pf, wl), Arc::clone(wl)));
            }
        }
    }
    let mut csv =
        String::from("workload,window,support,read_ms,coverage,accuracy,table_size,emits,mined\n");
    for ((wl_name, w, s), r) in sweep(cells, opts.workers) {
        let (row, csv_row) = score_cols(&r, false);
        println!("{wl_name:<22} {w:>4} {s:>3} {row}");
        let _ = writeln!(csv, "{wl_name},{w},{s},{csv_row}");
    }
    println!();
    write_out(opts, "mithril_sweep.csv", || csv);
}

/// One (plan × system) outcome of the chaos sweep.
struct ChaosCell {
    plan: usize,
    seed: u64,
    spec: String,
    system: &'static str,
    /// The invariant oracle's panic message, if the run violated one.
    violation: Option<String>,
    read_ms: f64,
    reads: u64,
    injected: u64,
    failovers: u64,
}

/// `experiments chaos`: the seeded chaos sweep (DESIGN.md §15). Each
/// plan index derives a random-but-valid fault plan spec from
/// `FaultPlan::random_spec(seed + index)`, and every plan runs once on
/// each cooperative system with the invariant oracle forced **on**. A
/// plan passes when neither run trips an oracle violation.
///
/// Always runs at small scale on the stock CHARISMA/Sprite pair — the
/// point is plan count, not workload size; workload, algorithm and
/// cache size rotate with the plan index so the sweep crosses fault
/// plans with simulator states, not just with each other. The
/// (plan × system) cells fan out over `bench::par_map`, so stdout and
/// the `--out` CSV are byte-identical for any `--workers` value.
fn chaos(opts: &Options) {
    use std::panic::{catch_unwind, AssertUnwindSafe};

    let systems = [CacheSystem::Pafs, CacheSystem::Xfs];
    let algos = [
        PrefetchConfig::ln_agr_is_ppm(1),
        PrefetchConfig::ln_agr_oba(),
        PrefetchConfig::ln_agr_is_ppm(3),
        PrefetchConfig::np(),
    ];
    let kinds = [WorkloadKind::CharismaPm, WorkloadKind::SpriteNow];
    let mbs = [1u64, 2, 4];
    let workloads: Vec<Arc<Workload>> = kinds
        .iter()
        .map(|&k| Arc::new(build_workload(k, Scale::Small, opts.seed)))
        .collect();

    // No worker count in the header: chaos output must stay
    // byte-identical for any --workers (CI diffs runs).
    println!(
        "chaos — {} seeded random fault plans × {{PAFS, xFS}}, invariant oracle on \
         (seed base {}, small scale)",
        opts.plans, opts.seed
    );
    let panic_msg = |e: Box<dyn std::any::Any + Send>| -> String {
        e.downcast_ref::<String>()
            .cloned()
            .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "non-string panic payload".into())
    };
    let jobs: Vec<(usize, CacheSystem)> = (0..opts.plans)
        .flat_map(|plan| systems.map(|system| (plan, system)))
        .collect();
    let cells: Vec<ChaosCell> = bench::par_map(&jobs, opts.workers, |&(plan, system)| {
        let seed = opts.seed.wrapping_add(plan as u64);
        let spec = FaultPlan::random_spec(seed);
        let mut cfg = build_config(
            kinds[plan % kinds.len()],
            Scale::Small,
            system,
            algos[plan % algos.len()],
            mbs[plan % mbs.len()],
        );
        cfg.fault_plan = Some(FaultPlan::parse(&spec).expect("random_spec emits valid specs"));
        cfg.check = CheckMode::On;
        let wl = Arc::clone(&workloads[plan % kinds.len()]);
        let mut cell = ChaosCell {
            plan,
            seed,
            spec,
            system: system.name(),
            violation: None,
            read_ms: 0.0,
            reads: 0,
            injected: 0,
            failovers: 0,
        };
        match catch_unwind(AssertUnwindSafe(|| run_simulation(cfg, wl))) {
            Ok(r) => {
                cell.read_ms = r.avg_read_ms;
                cell.reads = r.reads;
                cell.injected = r.faults_injected;
                cell.failovers = r.failovers;
            }
            Err(e) => cell.violation = Some(panic_msg(e)),
        }
        cell
    });

    let mut csv =
        String::from("plan,seed,system,status,read_ms,reads,faults_injected,failovers,spec\n");
    let (mut violations, mut injected_total) = (0u64, 0u64);
    for c in &cells {
        injected_total += c.injected;
        if let Some(msg) = &c.violation {
            violations += 1;
            println!(
                "  plan {:>4} seed {:>8} {:<5} violation: {}\n    spec: {}",
                c.plan, c.seed, c.system, msg, c.spec
            );
        }
        let _ = writeln!(
            csv,
            "{},{},{},{},{:.6},{},{},{},{}",
            c.plan,
            c.seed,
            c.system,
            if c.violation.is_some() {
                "violation"
            } else {
                "ok"
            },
            c.read_ms,
            c.reads,
            c.injected,
            c.failovers,
            c.spec
        );
    }
    println!(
        "  plans {:>5}   runs {:>6}   faults injected {:>8}   violations {}",
        opts.plans,
        cells.len(),
        injected_total,
        violations
    );
    write_out(opts, "chaos.csv", || csv);
    if violations > 0 {
        eprintln!("chaos: {violations} invariant violation(s)");
        exit(1);
    }
    println!("  all invariants green\n");
}
