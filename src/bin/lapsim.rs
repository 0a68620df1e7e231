//! `lapsim` — run one file-system simulation from the command line.
//!
//! ```text
//! # Generate-and-run:
//! lapsim --workload charisma --system pafs --algo ln_agr_is_ppm:1 --cache-mb 4
//!
//! # Run a trace file produced by lapgen (or by hand):
//! lapsim --trace charisma.trace --machine pm --system xfs --algo np --cache-mb 2
//!
//! # Capture a Chrome trace and a metrics CSV while simulating:
//! lapsim --workload charisma --trace-out trace.json --metrics-out metrics.csv
//! ```

use std::fs;
use std::process::exit;

use lap::prelude::*;

struct Args {
    trace: Option<String>,
    workload: Option<String>,
    machine: String,
    system: CacheSystem,
    algo: String,
    predictor: Option<String>,
    cache_mb: u64,
    seed: u64,
    scale: String,
    warmup_secs: u64,
    disk_model: String,
    disk_sched: DiskSched,
    prefetch_gran: PrefetchGranularity,
    extent_blocks: u64,
    fault_plan: Option<FaultPlan>,
    check: CheckMode,
    verbose: bool,
    trace_out: Option<String>,
    metrics_out: Option<String>,
    trace_sample: u64,
    profile: bool,
}

fn usage() -> ! {
    eprintln!("usage: lapsim [--trace FILE | --workload SPEC]");
    eprintln!("              [--machine pm|now] [--system pafs|xfs|local]");
    eprintln!("              [--algo NAME] [--predictor SPEC] [--cache-mb N] [--seed N]");
    eprintln!("              [--scale small|paper] [--warmup SECS] [-v]");
    eprintln!("              [--disk-model fixed|geom] [--disk-sched fifo|sstf|clook]");
    eprintln!("              [--prefetch-gran block|extent] [--extent-blocks N]");
    eprintln!("              [--trace-out FILE] [--metrics-out FILE]");
    eprintln!("              [--trace-sample N]   keep 1-in-N high-volume trace events");
    eprintln!("              [--fault-plan SPEC]  deterministic fault injection");
    eprintln!("              [--profile]          print a simulator self-profile (cost");
    eprintln!("                                   counters + phase timers; results stay");
    eprintln!("                                   bit-identical to an unprofiled run)");
    eprintln!("              [--check auto|on|off]  runtime invariant oracle (DESIGN.md");
    eprintln!("                                   §15); auto = on in debug builds only;");
    eprintln!("                                   results are bit-identical either way");
    eprintln!();
    eprintln!("fault plans: comma-separated key=value, e.g.");
    eprintln!("    seed=7,disk-error=0.02,disk-retries=4,backoff-ms=5,burst=60:5,");
    eprintln!("    outage=120:10,node-outage=300:20,net-loss=0.01,net-delay=0.05:2");
    eprintln!("  windows are PERIOD_S:LEN_S; an empty spec disables injection");
    eprintln!();
    eprintln!("workloads: --workload takes a registry spec (bare charisma/sprite");
    eprintln!("           pick up --scale); the registry is:");
    eprint!("{}", lap::workzoo::registry_help());
    eprintln!();
    eprintln!("algorithms: --algo takes an optional ln_agr_ prefix (the linear");
    eprintln!("            aggressive driver) and a predictor spec, e.g. np, oba,");
    eprintln!("            ln_agr_is_ppm:3; --predictor swaps the predictor of");
    eprintln!("            --algo's configuration while keeping its aggressiveness");
    eprintln!("            mode; the registry is:");
    eprint!("{}", lap::prefetch::registry_help());
    eprintln!();
    eprintln!("disk models: fixed = the paper's constant service times (default);");
    eprintln!("             geom  = calibrated geometry (seek curve + rotation)");
    eprintln!();
    eprintln!("extents: --extent-blocks N implies the geometry model with N-block");
    eprintln!("         layout extents; --prefetch-gran extent lets the aggressive");
    eprintln!("         walker fetch one extent per linear-limit unit as a single");
    eprintln!("         multi-block disk job (default: block, the paper's rule)");
    exit(2);
}

/// Reject a numeric flag value the simulator cannot represent.
fn bad_value(flag: &str, value: u64, why: &str) -> ! {
    eprintln!("bad {flag}: {value} {why}");
    exit(2);
}

fn parse_args() -> Args {
    let mut out = Args {
        trace: None,
        workload: None,
        machine: "pm".into(),
        system: CacheSystem::Pafs,
        algo: "ln_agr_is_ppm:1".into(),
        predictor: None,
        cache_mb: 4,
        seed: 42,
        scale: "small".into(),
        warmup_secs: 0,
        disk_model: "fixed".into(),
        disk_sched: DiskSched::Fifo,
        prefetch_gran: PrefetchGranularity::Block,
        extent_blocks: 1,
        fault_plan: None,
        check: CheckMode::Auto,
        verbose: false,
        trace_out: None,
        metrics_out: None,
        trace_sample: 1,
        profile: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--trace" => out.trace = Some(args.next().unwrap_or_else(|| usage())),
            "--workload" => out.workload = Some(args.next().unwrap_or_else(|| usage())),
            "--machine" => out.machine = args.next().unwrap_or_else(|| usage()),
            "--system" => {
                out.system = match args.next().as_deref() {
                    Some("pafs") => CacheSystem::Pafs,
                    Some("xfs") => CacheSystem::Xfs,
                    Some("local") => CacheSystem::LocalOnly,
                    _ => usage(),
                }
            }
            "--algo" => out.algo = args.next().unwrap_or_else(|| usage()),
            "--predictor" => out.predictor = Some(args.next().unwrap_or_else(|| usage())),
            "--cache-mb" => {
                out.cache_mb = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
                if out.cache_mb == 0 {
                    bad_value("--cache-mb", 0, "MB per node leaves no cache to simulate");
                }
                if out.cache_mb.checked_mul(1024 * 1024).is_none() {
                    bad_value(
                        "--cache-mb",
                        out.cache_mb,
                        "MB per node overflows a byte count",
                    );
                }
            }
            "--seed" => {
                out.seed = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--scale" => out.scale = args.next().unwrap_or_else(|| usage()),
            "--warmup" => {
                out.warmup_secs = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
                if out.warmup_secs > SimTime::MAX.as_nanos() / 1_000_000_000 {
                    bad_value(
                        "--warmup",
                        out.warmup_secs,
                        "s overflows the simulated clock",
                    );
                }
            }
            "--disk-model" => {
                out.disk_model = match args.next().as_deref() {
                    Some(m @ ("fixed" | "geom")) => m.into(),
                    _ => usage(),
                }
            }
            "--disk-sched" => {
                out.disk_sched = args
                    .next()
                    .as_deref()
                    .and_then(DiskSched::parse)
                    .unwrap_or_else(|| usage())
            }
            "--prefetch-gran" => {
                out.prefetch_gran = args
                    .next()
                    .as_deref()
                    .and_then(PrefetchGranularity::parse)
                    .unwrap_or_else(|| usage())
            }
            "--extent-blocks" => {
                out.extent_blocks = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| usage())
            }
            "--fault-plan" => {
                let spec = args.next().unwrap_or_else(|| usage());
                match FaultPlan::parse(&spec) {
                    Ok(plan) => out.fault_plan = Some(plan),
                    Err(e) => {
                        eprintln!("bad --fault-plan: {e}");
                        exit(2);
                    }
                }
            }
            "--trace-out" => out.trace_out = Some(args.next().unwrap_or_else(|| usage())),
            "--metrics-out" => out.metrics_out = Some(args.next().unwrap_or_else(|| usage())),
            "--trace-sample" => {
                out.trace_sample = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| usage())
            }
            "--check" => {
                out.check = args
                    .next()
                    .as_deref()
                    .and_then(CheckMode::parse)
                    .unwrap_or_else(|| usage())
            }
            "--profile" => out.profile = true,
            "-v" | "--verbose" => out.verbose = true,
            "-h" | "--help" => usage(),
            _ => usage(),
        }
    }
    if out.trace.is_none() && out.workload.is_none() {
        usage();
    }
    out
}

fn main() {
    let args = parse_args();

    let workload = if let Some(path) = &args.trace {
        let bytes = fs::read(path).unwrap_or_else(|e| {
            eprintln!("cannot read {path}: {e}");
            exit(1);
        });
        Workload::from_bytes(&bytes).unwrap_or_else(|e| {
            eprintln!("{path}: {e}");
            exit(2);
        })
    } else {
        // The workload registry: bare `charisma`/`sprite` pick up
        // --scale; everything else is a full spec (`web:64,0.8,256`,
        // `strace:FILE`, ...).
        let spec = match WorkloadSpec::parse_cli(args.workload.as_deref().unwrap(), &args.scale) {
            Ok(s) => s,
            Err(e) => {
                // A bad spec's Display carries the full registry listing.
                eprint!("{e}");
                exit(2);
            }
        };
        match spec.build(args.seed) {
            Ok(wl) => wl,
            Err(e) => {
                eprintln!("bad --workload: {e}");
                exit(2);
            }
        }
    };

    let Some(mut prefetch) = PrefetchConfig::parse(&args.algo) else {
        eprintln!("unknown algorithm {:?}", args.algo);
        eprintln!("--algo takes an optional ln_agr_ prefix and a predictor spec;");
        eprintln!("--predictor takes the spec alone:");
        eprint!("{}", lap::prefetch::registry_help());
        exit(2);
    };
    // --predictor swaps the predictor while keeping --algo's
    // aggressiveness mode (simple vs Ln_Agr etc.).
    if let Some(spec) = &args.predictor {
        match PredictorSpec::parse(spec) {
            Ok(s) => prefetch.algorithm = s.kind,
            Err(e) => {
                // The error's Display carries the full registry listing.
                eprint!("bad --predictor: {e}");
                exit(2);
            }
        }
    }

    let mut config = match args.machine.as_str() {
        "pm" => SimConfig::pm(args.system, prefetch, args.cache_mb),
        "now" => SimConfig::now(args.system, prefetch, args.cache_mb),
        _ => usage(),
    };
    // Shrink the machine to the workload if the trace needs fewer nodes.
    config.fit_to_workload(&workload);
    config.warmup = SimDuration::from_secs(args.warmup_secs);
    if args.extent_blocks > 1 {
        // Multi-block extents only exist in the geometry model, so this
        // implies `--disk-model geom` with an N-block layout extent,
        // which must fit on the disk.
        let disk_blocks = DiskGeometry::pm().blocks(config.machine.block_size);
        if args.extent_blocks > disk_blocks {
            let why = format!("blocks per extent exceeds the disk's {disk_blocks} blocks");
            bad_value("--extent-blocks", args.extent_blocks, &why);
        }
        config.machine = config.machine.with_geometry_extent(args.extent_blocks);
    } else if args.disk_model == "geom" {
        config.machine = config.machine.with_geometry();
    }
    config.machine.disk_sched = args.disk_sched;
    config.machine.prefetch_granularity = args.prefetch_gran;
    config.fault_plan = args.fault_plan;
    config.check = args.check;

    let t0 = std::time::Instant::now();
    let (report, profile) = if let Some(trace_path) = &args.trace_out {
        // Tracing requested: run with a recording backend and export
        // the event stream as Chrome trace-event JSON. `--trace-sample N`
        // keeps only 1-in-N of the high-volume per-block event kinds so
        // long runs fit the ring buffer; structural events always stay.
        let rec = TraceRecorder::with_sampling(TraceRecorder::DEFAULT_CAPACITY, args.trace_sample);
        let out = simulate(config, workload, &args.machine, rec);
        let rec = out.rec;
        if rec.sample_every() > 1 {
            for (label, seen, kept) in rec.sampled_counts() {
                eprintln!("trace-sample: {label}: kept {kept} of {seen}");
            }
        }
        if rec.dropped() > 0 {
            eprintln!(
                "warning: trace ring buffer overflowed, oldest {} events dropped",
                rec.dropped()
            );
        }
        let json = lap::lapobs::chrome::export(rec.events());
        fs::write(trace_path, json).unwrap_or_else(|e| {
            eprintln!("cannot write {trace_path}: {e}");
            exit(1);
        });
        (out.report, out.profile)
    } else {
        let out = simulate(config, workload, &args.machine, NoopRecorder);
        (out.report, out.profile)
    };
    if let Some(metrics_path) = &args.metrics_out {
        fs::write(metrics_path, report.obs.to_csv()).unwrap_or_else(|e| {
            eprintln!("cannot write {metrics_path}: {e}");
            exit(1);
        });
    }
    if args.verbose {
        print!("{}", report.render_detailed());
        println!("  wall time           {:.2} s", t0.elapsed().as_secs_f64());
    } else {
        println!("{}", report.summary());
    }
    // The profile is printed after (never inside) the report output, so
    // everything above stays byte-identical to an unprofiled run.
    if args.profile {
        print!("{}", profile.render());
    }
}

/// Build and run the simulation, recording into `rec`. A workload that
/// does not fit the machine is bad input, not a bug: say why and exit
/// 2 instead of panicking.
fn simulate<R: Recorder>(
    config: SimConfig,
    workload: Workload,
    machine: &str,
    rec: R,
) -> Outcome<R> {
    Simulation::try_new(config, workload, rec)
        .unwrap_or_else(|e| {
            eprintln!("bad workload for --machine {machine}: {e}");
            exit(2)
        })
        .run()
}
