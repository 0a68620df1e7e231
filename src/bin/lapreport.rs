//! `lapreport` — offline analysis of `lapsim` / `experiments` artifacts.
//!
//! Consumes the files the simulators already emit and renders the
//! paper-style tables without re-running anything:
//!
//! ```text
//! # Per-config read-time breakdown + prefetch quality + disk stats
//! # from one or more `--metrics-out` CSVs:
//! lapreport metrics metrics_a.csv metrics_b.csv
//! lapreport metrics metrics_a.csv --json       # regression-diffable
//!
//! # Skim a Chrome trace produced with `--trace-out`:
//! lapreport trace trace.json
//!
//! # Compare two BENCH.json files field by field, exactly:
//! lapreport bench-diff BENCH.json new.json
//!
//! # Render the simulator self-profile of a BENCH.json:
//! lapreport perf BENCH.json
//!
//! # Summarize a chaos-sweep CSV (experiments chaos --out DIR):
//! lapreport chaos chaos.csv
//! ```
//!
//! The `metrics` subcommand hard-fails on missing metric keys: a
//! renamed or dropped metric is schema drift, and this tool is the
//! tripwire that catches it in CI. The `perf` subcommand applies the
//! same rule to the `perf` section of BENCH.json.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::fs;
use std::process::exit;

use lap::lap_core::SpanScore;

fn usage() -> ! {
    eprintln!("usage: lapreport metrics FILE... [--json]");
    eprintln!("       lapreport trace FILE");
    eprintln!("       lapreport bench-diff OLD NEW");
    eprintln!("       lapreport perf FILE...");
    eprintln!("       lapreport chaos FILE");
    exit(2);
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = argv.first() else { usage() };
    let rest = &argv[1..];
    let code = match cmd.as_str() {
        "metrics" => cmd_metrics(rest),
        "trace" => cmd_trace(rest),
        "bench-diff" => cmd_bench_diff(rest),
        "perf" => cmd_perf(rest),
        "chaos" => cmd_chaos(rest),
        "-h" | "--help" => usage(),
        _ => usage(),
    };
    exit(code);
}

// ---------------------------------------------------------------------------
// metrics CSV model
// ---------------------------------------------------------------------------

/// One parsed `--metrics-out` CSV: a `metric -> value` map plus the
/// path for error messages.
struct MetricsFile {
    path: String,
    map: HashMap<String, String>,
}

impl MetricsFile {
    fn load(path: &str) -> Result<MetricsFile, String> {
        let text = fs::read_to_string(path).map_err(|e| format!("{path}: cannot read: {e}"))?;
        let mut map = HashMap::new();
        for (i, line) in text.lines().enumerate() {
            if i == 0 && line == "metric,value" {
                continue;
            }
            if line.is_empty() {
                continue;
            }
            let Some((k, v)) = line.split_once(',') else {
                return Err(format!(
                    "{path}:{}: not a metric,value row: {line:?}",
                    i + 1
                ));
            };
            map.insert(k.to_string(), v.to_string());
        }
        if map.is_empty() {
            return Err(format!("{path}: no metrics found"));
        }
        Ok(MetricsFile {
            path: path.to_string(),
            map,
        })
    }

    /// A required metric as text; missing keys are schema drift and
    /// abort the report.
    fn text(&self, key: &str) -> Result<&str, String> {
        self.map
            .get(key)
            .map(String::as_str)
            .ok_or_else(|| format!("{}: missing metric {key:?} (schema drift?)", self.path))
    }

    /// A required numeric metric.
    fn num(&self, key: &str) -> Result<f64, String> {
        let v = self.text(key)?;
        v.parse()
            .map_err(|_| format!("{}: metric {key:?} is not numeric: {v:?}", self.path))
    }

    /// An optional numeric metric (used to probe per-disk rows).
    fn opt_num(&self, key: &str) -> Option<f64> {
        self.map.get(key).and_then(|v| v.parse().ok())
    }
}

/// The ten additive read-latency components, in display order.
/// Each is a histogram whose per-read mean (in µs) is the component's
/// contribution to the average read time.
const SPAN_COMPONENTS: [(&str, &str); 10] = [
    ("span.cache_lookup_us", "lookup"),
    ("span.queue_us", "queue"),
    ("span.failover_us", "failover"),
    ("span.seek_us", "seek"),
    ("span.rotation_us", "rot"),
    ("span.disk_transfer_us", "disk-xfer"),
    ("span.retry_us", "retry"),
    ("span.coordination_us", "coord"),
    ("span.network_us", "network"),
    ("span.transfer_us", "deliver"),
];

/// Everything `lapreport metrics` derives from one CSV.
struct ConfigReport {
    label: String,
    workload: String,
    reads: u64,
    /// Per-component mean contribution, ms per read (display order).
    parts_ms: Vec<f64>,
    sum_ms: f64,
    read_mean_ms: f64,
    outcomes: Outcomes,
    score: SpanScore,
    late_slack_ms: f64,
    pred: PredRow,
    faults: FaultRow,
    disks: Vec<DiskRow>,
}

/// The `pred.*` rows: the configured predictor's registry name and its
/// model counters. Hard-failing like the fault block — every simulation
/// exports the full schema (zeros for NP), so a missing key is drift.
struct PredRow {
    name: String,
    table_size: u64,
    emits: u64,
    hits: u64,
    mined: u64,
}

/// The `fault.*` counters (all-zero for fault-free runs — the schema
/// is identical, so missing keys are drift even without a plan).
struct FaultRow {
    injected: u64,
    retries: u64,
    failovers: u64,
    disk_outages: u64,
    node_outages: u64,
    net_lost: u64,
    net_delayed: u64,
    prefetch_suppressed: u64,
    degraded_s: f64,
    /// Per-node degraded residency, probed optionally (only nodes with
    /// nonzero residency are exported).
    node_degraded_s: Vec<(usize, f64)>,
}

struct Outcomes {
    demand_hit: u64,
    covered: u64,
    late: u64,
    miss: u64,
}

struct DiskRow {
    index: usize,
    queue_len: f64,
    utilization: f64,
    completed: f64,
    reordered: f64,
    cancelled: f64,
    waited_s: f64,
}

/// Sum check tolerance: components sum to the per-request latency
/// exactly in integer nanoseconds, but `read.latency_ms` is a
/// streaming f64 mean, so allow small relative drift.
fn sum_matches(sum_ms: f64, mean_ms: f64) -> bool {
    (sum_ms - mean_ms).abs() <= 1e-3_f64.max(mean_ms.abs() * 1e-3)
}

fn analyze(f: &MetricsFile) -> Result<ConfigReport, String> {
    let reads = f.num("read.latency_ms.count")? as u64;
    let mut parts_ms = Vec::with_capacity(SPAN_COMPONENTS.len());
    for (key, _) in SPAN_COMPONENTS {
        let count = f.num(&format!("{key}.count"))? as u64;
        if count != reads {
            return Err(format!(
                "{}: {key}.count = {count} but read.latency_ms.count = {reads}; \
                 span accounting out of sync",
                f.path
            ));
        }
        parts_ms.push(f.num(&format!("{key}.mean_us"))? / 1e3);
    }
    let sum_ms: f64 = parts_ms.iter().sum();
    let read_mean_ms = f.num("read.latency_ms.mean")?;

    let outcomes = Outcomes {
        demand_hit: f.num("span.outcome_demand_hit")? as u64,
        covered: f.num("span.outcome_covered_by_prefetch")? as u64,
        late: f.num("span.outcome_late_prefetch")? as u64,
        miss: f.num("span.outcome_miss")? as u64,
    };
    let score = SpanScore::new(
        reads,
        outcomes.covered,
        outcomes.late,
        f.num("cache.prefetch_used")? as u64 + f.num("prefetch.absorbed_in_flight")? as u64,
        f.num("cache.prefetch_wasted")? as u64,
    );
    let late_slack_ms = f.num("prefetch.late_slack_us.mean_us")? / 1e3;

    let pred = PredRow {
        name: f.text("pred.name")?.to_string(),
        table_size: f.num("pred.table_size")? as u64,
        emits: f.num("pred.emits")? as u64,
        hits: f.num("pred.hits")? as u64,
        mined: f.num("pred.mined")? as u64,
    };

    let mut node_degraded_s = Vec::new();
    for n in 0.. {
        match f.opt_num(&format!("fault.node{n}.degraded_s")) {
            Some(v) => node_degraded_s.push((n, v)),
            // The exporter skips zero-residency nodes, so the rows need
            // not be contiguous — probe a generous range past a gap.
            None if n < 4096 => continue,
            None => break,
        }
    }
    let faults = FaultRow {
        injected: f.num("fault.injected")? as u64,
        retries: f.num("fault.retries")? as u64,
        failovers: f.num("fault.failovers")? as u64,
        disk_outages: f.num("fault.disk_outages")? as u64,
        node_outages: f.num("fault.node_outages")? as u64,
        net_lost: f.num("fault.net_lost")? as u64,
        net_delayed: f.num("fault.net_delayed")? as u64,
        prefetch_suppressed: f.num("fault.prefetch_suppressed")? as u64,
        degraded_s: f.num("fault.degraded_s")?,
        node_degraded_s,
    };

    let mut disks = Vec::new();
    while let Some(completed) = f.opt_num(&format!("disk{}.completed", disks.len())) {
        let i = disks.len();
        disks.push(DiskRow {
            index: i,
            queue_len: f.num(&format!("disk{i}.queue_len"))?,
            utilization: f.num(&format!("disk{i}.utilization"))?,
            completed,
            reordered: f.num(&format!("disk{i}.reordered"))?,
            cancelled: f.num(&format!("disk{i}.cancelled"))?,
            waited_s: f.num(&format!("disk{i}.waited_s"))?,
        });
    }
    if disks.is_empty() {
        return Err(format!("{}: no disk0.* metrics (schema drift?)", f.path));
    }

    Ok(ConfigReport {
        label: f.text("sim.label")?.to_string(),
        workload: f.text("sim.workload")?.to_string(),
        reads,
        parts_ms,
        sum_ms,
        read_mean_ms,
        outcomes,
        score,
        late_slack_ms,
        pred,
        faults,
        disks,
    })
}

fn cmd_metrics(args: &[String]) -> i32 {
    let mut json = false;
    let mut paths = Vec::new();
    for a in args {
        match a.as_str() {
            "--json" => json = true,
            _ if a.starts_with('-') => usage(),
            _ => paths.push(a.as_str()),
        }
    }
    if paths.is_empty() {
        usage();
    }
    let mut reports = Vec::new();
    for p in paths {
        let file = match MetricsFile::load(p) {
            Ok(f) => f,
            Err(e) => {
                eprintln!("lapreport: {e}");
                return 1;
            }
        };
        match analyze(&file) {
            Ok(r) => reports.push(r),
            Err(e) => {
                eprintln!("lapreport: {e}");
                return 1;
            }
        }
    }
    if json {
        println!("{}", render_json(&reports));
    } else {
        print!("{}", render_tables(&reports));
    }
    if reports
        .iter()
        .all(|r| sum_matches(r.sum_ms, r.read_mean_ms))
    {
        0
    } else {
        eprintln!("lapreport: span breakdown does not sum to the mean read time");
        1
    }
}

fn render_tables(reports: &[ConfigReport]) -> String {
    let mut out = String::new();
    let wl = reports
        .iter()
        .map(|r| r.label.len() + r.workload.len() + 1)
        .max()
        .unwrap_or(6)
        .max(6);

    let _ = writeln!(out, "read-time breakdown (ms per read)");
    let _ = write!(out, "  {:<wl$} {:>9}", "config", "reads");
    for (_, short) in SPAN_COMPONENTS {
        let _ = write!(out, " {short:>9}");
    }
    let _ = writeln!(out, " {:>9} {:>9} {:>5}", "sum", "read", "check");
    for r in reports {
        let _ = write!(
            out,
            "  {:<wl$} {:>9}",
            format!("{}@{}", r.label, r.workload),
            r.reads
        );
        for p in &r.parts_ms {
            let _ = write!(out, " {p:>9.4}");
        }
        let check = if sum_matches(r.sum_ms, r.read_mean_ms) {
            "ok"
        } else {
            "DRIFT"
        };
        let _ = writeln!(out, " {:>9.4} {:>9.4} {check:>5}", r.sum_ms, r.read_mean_ms);
    }

    let _ = writeln!(out);
    let _ = writeln!(out, "prefetch outcome per read");
    let _ = writeln!(
        out,
        "  {:<wl$} {:>9} {:>9} {:>9} {:>9} {:>8} {:>8} {:>8} {:>10}",
        "config", "hit", "covered", "late", "miss", "coverage", "accuracy", "timely", "slack-ms"
    );
    for r in reports {
        let _ = writeln!(
            out,
            "  {:<wl$} {:>9} {:>9} {:>9} {:>9} {:>8.4} {:>8.4} {:>8.4} {:>10.4}",
            format!("{}@{}", r.label, r.workload),
            r.outcomes.demand_hit,
            r.outcomes.covered,
            r.outcomes.late,
            r.outcomes.miss,
            r.score.coverage,
            r.score.accuracy,
            r.score.timeliness,
            r.late_slack_ms
        );
    }

    let _ = writeln!(out);
    let _ = writeln!(out, "predictor");
    let _ = writeln!(
        out,
        "  {:<wl$} {:>16} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8}",
        "config", "predictor", "coverage", "accuracy", "timely", "table", "emits", "mined"
    );
    for r in reports {
        let _ = writeln!(
            out,
            "  {:<wl$} {:>16} {:>8.4} {:>8.4} {:>8.4} {:>8} {:>8} {:>8}",
            format!("{}@{}", r.label, r.workload),
            r.pred.name,
            r.score.coverage,
            r.score.accuracy,
            r.score.timeliness,
            r.pred.table_size,
            r.pred.emits,
            r.pred.mined
        );
    }

    let _ = writeln!(out);
    let _ = writeln!(out, "faults");
    let _ = writeln!(
        out,
        "  {:<wl$} {:>8} {:>8} {:>9} {:>8} {:>8} {:>8} {:>8} {:>8} {:>10}",
        "config",
        "injected",
        "retries",
        "failovers",
        "disk-out",
        "node-out",
        "net-lost",
        "net-dly",
        "pf-supp",
        "degraded-s"
    );
    for r in reports {
        let f = &r.faults;
        let _ = writeln!(
            out,
            "  {:<wl$} {:>8} {:>8} {:>9} {:>8} {:>8} {:>8} {:>8} {:>8} {:>10.3}",
            format!("{}@{}", r.label, r.workload),
            f.injected,
            f.retries,
            f.failovers,
            f.disk_outages,
            f.node_outages,
            f.net_lost,
            f.net_delayed,
            f.prefetch_suppressed,
            f.degraded_s
        );
        for (n, s) in &f.node_degraded_s {
            let _ = writeln!(out, "  {:<wl$} {:>8}   node {n} degraded {s:.3} s", "", "");
        }
    }

    let _ = writeln!(out);
    let _ = writeln!(out, "disk queues");
    let _ = writeln!(
        out,
        "  {:<wl$} {:>5} {:>9} {:>6} {:>9} {:>9} {:>9} {:>9}",
        "config", "disk", "completed", "util", "queue-len", "reordered", "cancelled", "waited-s"
    );
    for r in reports {
        for d in &r.disks {
            let _ = writeln!(
                out,
                "  {:<wl$} {:>5} {:>9} {:>6.4} {:>9.4} {:>9} {:>9} {:>9.4}",
                format!("{}@{}", r.label, r.workload),
                d.index,
                d.completed as u64,
                d.utilization,
                d.queue_len,
                d.reordered as u64,
                d.cancelled as u64,
                d.waited_s
            );
        }
    }
    out
}

/// JSON floats in shortest-roundtrip form so two runs of the same
/// simulation diff byte-identically.
fn render_json(reports: &[ConfigReport]) -> String {
    let mut out = String::from("{\"schema\":1,\"configs\":[");
    for (i, r) in reports.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n {{\"label\":\"{}\",\"workload\":\"{}\",\"reads\":{},\"breakdown_ms\":{{",
            r.label, r.workload, r.reads
        );
        for (j, ((key, _), ms)) in SPAN_COMPONENTS.iter().zip(&r.parts_ms).enumerate() {
            let short = key.trim_start_matches("span.").trim_end_matches("_us");
            let _ = write!(out, "{}\"{short}\":{ms}", if j > 0 { "," } else { "" });
        }
        let _ = write!(
            out,
            "}},\"sum_ms\":{},\"read_mean_ms\":{},\"sum_ok\":{},",
            r.sum_ms,
            r.read_mean_ms,
            sum_matches(r.sum_ms, r.read_mean_ms)
        );
        let _ = write!(
            out,
            "\"outcomes\":{{\"demand_hit\":{},\"covered_by_prefetch\":{},\"late_prefetch\":{},\"miss\":{}}},",
            r.outcomes.demand_hit, r.outcomes.covered, r.outcomes.late, r.outcomes.miss
        );
        let _ = write!(
            out,
            "\"coverage\":{},\"accuracy\":{},\"timeliness\":{},\"late_slack_ms\":{},",
            r.score.coverage, r.score.accuracy, r.score.timeliness, r.late_slack_ms
        );
        let p = &r.pred;
        let _ = write!(
            out,
            "\"predictor\":{{\"name\":\"{}\",\"table_size\":{},\"emits\":{},\"hits\":{},\"mined\":{}}},",
            p.name, p.table_size, p.emits, p.hits, p.mined
        );
        let f = &r.faults;
        let _ = write!(
            out,
            "\"faults\":{{\"injected\":{},\"retries\":{},\"failovers\":{},\"disk_outages\":{},\"node_outages\":{},\"net_lost\":{},\"net_delayed\":{},\"prefetch_suppressed\":{},\"degraded_s\":{},\"node_degraded_s\":[",
            f.injected,
            f.retries,
            f.failovers,
            f.disk_outages,
            f.node_outages,
            f.net_lost,
            f.net_delayed,
            f.prefetch_suppressed,
            f.degraded_s
        );
        for (j, (n, sdeg)) in f.node_degraded_s.iter().enumerate() {
            let _ = write!(
                out,
                "{}{{\"node\":{n},\"degraded_s\":{sdeg}}}",
                if j > 0 { "," } else { "" }
            );
        }
        out.push_str("]},");
        let _ = write!(out, "\"disks\":[");
        for (j, d) in r.disks.iter().enumerate() {
            let _ = write!(
                out,
                "{}{{\"disk\":{},\"completed\":{},\"utilization\":{},\"queue_len\":{},\"reordered\":{},\"cancelled\":{},\"waited_s\":{}}}",
                if j > 0 { "," } else { "" },
                d.index,
                d.completed as u64,
                d.utilization,
                d.queue_len,
                d.reordered as u64,
                d.cancelled as u64,
                d.waited_s
            );
        }
        out.push_str("]}");
    }
    out.push_str("\n]}");
    out
}

// ---------------------------------------------------------------------------
// trace skim
// ---------------------------------------------------------------------------

/// Pull a `"key":"string"` field out of one trace line.
fn str_field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":\"");
    let start = line.find(&pat)? + pat.len();
    let end = line[start..].find('"')?;
    Some(&line[start..start + end])
}

/// Pull a `"key":number` field out of one trace line.
fn num_field(line: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\":");
    let start = line.find(&pat)? + pat.len();
    let tail = &line[start..];
    let end = tail
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-'))
        .unwrap_or(tail.len());
    tail[..end].parse().ok()
}

fn cmd_trace(args: &[String]) -> i32 {
    let [path] = args else { usage() };
    let text = match fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("lapreport: {path}: cannot read: {e}");
            return 1;
        }
    };

    // The exporter writes one event per line; scan without a JSON
    // parser so multi-hundred-MB traces stream through cheaply.
    let mut track_names: HashMap<u64, String> = HashMap::new();
    let mut instants: HashMap<String, u64> = HashMap::new();
    // tid -> (open service begin ts, busy us, spans)
    let mut busy: HashMap<u64, (Option<f64>, f64, u64)> = HashMap::new();
    let mut counters_max: HashMap<String, f64> = HashMap::new();
    let mut events = 0u64;
    let mut last_ts = 0f64;

    for line in text.lines() {
        let line = line.trim_start_matches([',', ' ']);
        if !line.starts_with('{') {
            continue;
        }
        let Some(ph) = str_field(line, "ph") else {
            continue;
        };
        let name = str_field(line, "name").unwrap_or("?");
        events += 1;
        if let Some(ts) = num_field(line, "ts") {
            last_ts = last_ts.max(ts);
        }
        match ph {
            "M" => {
                if name == "thread_name" {
                    if let Some(tid) = num_field(line, "tid") {
                        // args.name is the last "name": field on the line.
                        let track = line
                            .rfind("\"name\":\"")
                            .map(|i| {
                                let s = &line[i + 8..];
                                &s[..s.find('"').unwrap_or(s.len())]
                            })
                            .unwrap_or("?");
                        track_names.insert(tid as u64, track.to_string());
                    }
                }
                events -= 1; // metadata, not a sim event
            }
            "i" => *instants.entry(name.to_string()).or_insert(0) += 1,
            "B" => {
                if let (Some(tid), Some(ts)) = (num_field(line, "tid"), num_field(line, "ts")) {
                    busy.entry(tid as u64).or_insert((None, 0.0, 0)).0 = Some(ts);
                }
            }
            "E" => {
                if let (Some(tid), Some(ts)) = (num_field(line, "tid"), num_field(line, "ts")) {
                    let e = busy.entry(tid as u64).or_insert((None, 0.0, 0));
                    if let Some(b) = e.0.take() {
                        e.1 += ts - b;
                        e.2 += 1;
                    }
                }
            }
            "C" => {
                // Counter args hold a single numeric field whose key
                // varies ("len", "pending", ...): take whatever it is.
                if let Some(i) = line.find("\"args\":{\"") {
                    let tail = &line[i + 9..];
                    if let Some((key, _)) = tail.split_once("\":") {
                        if let Some(v) = num_field(&line[i..], key) {
                            let m = counters_max.entry(name.to_string()).or_insert(0.0);
                            *m = m.max(v);
                        }
                    }
                }
            }
            _ => {}
        }
    }

    println!("trace: {path}");
    println!("  events      {events}");
    println!("  span        {:.3} ms of simulated time", last_ts / 1e3);
    if !busy.is_empty() {
        println!("  service tracks (B/E pairs):");
        let mut tids: Vec<_> = busy.keys().copied().collect();
        tids.sort_unstable();
        for tid in tids {
            let (_, us, n) = busy[&tid];
            let name = track_names
                .get(&tid)
                .cloned()
                .unwrap_or_else(|| format!("tid {tid}"));
            println!("    {name:<12} {n:>8} services  busy {:>10.3} ms", us / 1e3);
        }
    }
    if !counters_max.is_empty() {
        println!("  counter peaks:");
        let mut names: Vec<_> = counters_max.keys().cloned().collect();
        names.sort();
        for n in names {
            println!("    {n:<20} max {}", counters_max[&n]);
        }
    }
    if !instants.is_empty() {
        println!("  instants:");
        let mut rows: Vec<_> = instants.iter().collect();
        rows.sort_by(|a, b| b.1.cmp(a.1).then(a.0.cmp(b.0)));
        for (name, n) in rows {
            println!("    {name:<20} {n}");
        }
    }
    0
}

// ---------------------------------------------------------------------------
// bench-diff
// ---------------------------------------------------------------------------

/// One BENCH.json scenario: its name and every other field as
/// `(key, value)` pairs in file order. Keys inside the nested `perf`
/// object carry a `perf.` prefix. Values keep their printed text, so
/// comparing them is exact.
struct Scenario {
    name: String,
    fields: Vec<(String, String)>,
}

impl Scenario {
    fn get(&self, key: &str) -> Option<&str> {
        self.fields
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// Flatten one scenario line (`{"name":"…","reads":825,…,"perf":{…}}`)
/// into `(key, value)` pairs. The writer puts one scenario object per
/// line, so this scanner is all the JSON the snapshot needs.
fn scenario_fields(line: &str) -> Vec<(String, String)> {
    let mut fields = Vec::new();
    let mut prefix = String::new();
    let mut rest = line;
    while let Some(q) = rest.find('"') {
        if rest[..q].contains('}') {
            prefix.clear();
        }
        let after = &rest[q + 1..];
        let Some(end) = after.find("\":") else { break };
        let key = format!("{prefix}{}", &after[..end]);
        let val = &after[end + 2..];
        if let Some(inner) = val.strip_prefix('{') {
            prefix = format!("{key}.");
            rest = inner;
            continue;
        }
        let len = match val.strip_prefix('"') {
            Some(s) => s.find('"').map_or(val.len(), |i| i + 2),
            None => val.find([',', '}']).unwrap_or(val.len()),
        };
        fields.push((key, val[..len].trim_matches('"').to_string()));
        rest = &val[len..];
    }
    fields
}

/// Load every scenario of a BENCH.json file. A scenario without a
/// `perf` object (a schema-1 file) is an error: the counters are half
/// of what the snapshot gates.
fn load_bench(path: &str) -> Result<Vec<Scenario>, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("{path}: cannot read: {e}"))?;
    let mut rows = Vec::new();
    for line in text.lines() {
        let mut fields = scenario_fields(line);
        let Some(i) = fields.iter().position(|(k, _)| k == "name") else {
            continue;
        };
        let name = fields.remove(i).1;
        if !fields.iter().any(|(k, _)| k.starts_with("perf.")) {
            return Err(format!(
                "{path}: scenario {name:?} has no perf section \
                 (schema-1 file? regenerate with experiments --bench-out)"
            ));
        }
        rows.push(Scenario { name, fields });
    }
    if rows.is_empty() {
        return Err(format!("{path}: no scenarios found"));
    }
    Ok(rows)
}

/// `lapreport bench-diff OLD NEW`: every field of every scenario must
/// match exactly as printed. Each drifted, missing or extra field is
/// named; any drift exits 1.
fn cmd_bench_diff(args: &[String]) -> i32 {
    let [old_path, new_path] = args else { usage() };
    let (old, new) = match (load_bench(old_path), load_bench(new_path)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("lapreport: {e}");
            return 1;
        }
    };
    let mut drift = false;
    for o in &old {
        let Some(n) = new.iter().find(|n| n.name == o.name) else {
            println!("- {}: removed", o.name);
            drift = true;
            continue;
        };
        let new_only = n.fields.iter().filter(|(k, _)| o.get(k).is_none());
        for (key, _) in o.fields.iter().chain(new_only) {
            let (ov, nv) = (o.get(key), n.get(key));
            if ov != nv {
                println!(
                    "! {}: {key} {} -> {}",
                    o.name,
                    ov.unwrap_or("(missing)"),
                    nv.unwrap_or("(missing)")
                );
                drift = true;
            }
        }
    }
    for n in &new {
        if !old.iter().any(|o| o.name == n.name) {
            println!("+ {}: added", n.name);
            drift = true;
        }
    }
    if drift {
        eprintln!("lapreport: benchmark results drifted");
        eprintln!(
            "lapreport: if the drift is intentional, regenerate the snapshot with:\n\
             lapreport:   ./target/debug/experiments --smoke --bench-out BENCH.json"
        );
        1
    } else {
        println!(
            "bench-diff: {} scenarios match ({old_path} vs {new_path})",
            old.len()
        );
        0
    }
}

/// `lapreport perf FILE...`: render the simulator self-profile table
/// of one or more BENCH.json files. Hard-fails (like `metrics`) when a
/// scenario has no perf section or a counter is missing — this
/// subcommand is the schema tripwire for the profile.
fn cmd_perf(args: &[String]) -> i32 {
    if args.is_empty() {
        usage();
    }
    for path in args {
        match render_perf(path) {
            Ok(table) => print!("{table}"),
            Err(e) => {
                eprintln!("lapreport: {e}");
                return 1;
            }
        }
    }
    0
}

fn render_perf(path: &str) -> Result<String, String> {
    let mut out = format!("{path}:\n");
    let _ = writeln!(
        out,
        "  {:<32} {:>8} {:>8} {:>6} {:>7} {:>18} {:>7}",
        "scenario", "ev/read", "pushes", "peak", "mean-q", "stn%/pred%/cache%", "alloc/r"
    );
    for s in load_bench(path)? {
        let need = |key: &str| {
            s.get(&format!("perf.{key}"))
                .and_then(|v| v.parse::<f64>().ok())
                .ok_or_else(|| format!("{path}: scenario {:?} missing perf.{key}", s.name))
        };
        let stations = need("station_dispatches")?;
        let pred = need("pred_lookups")? + need("pred_updates")?;
        let cache = need("cache_probes")?;
        let share = |part: f64| {
            let subsystem = stations + pred + cache;
            if subsystem == 0.0 {
                0.0
            } else {
                part / subsystem * 100.0
            }
        };
        let _ = writeln!(
            out,
            "  {:<32} {:>8.2} {:>8} {:>6} {:>7.2} {:>18} {:>7}",
            s.name,
            need("events_per_read")?,
            need("queue_pushes")?,
            need("peak_queue_depth")?,
            need("mean_queue_depth")?,
            format!(
                "{:.0}/{:.0}/{:.0}",
                share(stations),
                share(pred),
                share(cache)
            ),
            s.get("perf.allocs_per_read")
                .and_then(|v| v.parse::<f64>().ok())
                .map_or("-".into(), |a| format!("{a:.1}")),
        );
    }
    out.push_str("  (deterministic counters; bench-diff compares them exactly)\n");
    Ok(out)
}

// ---------------------------------------------------------------------------
// chaos sweep summary
// ---------------------------------------------------------------------------

/// One row of an `experiments chaos --out` CSV. The fault-plan spec is
/// the last column because it contains commas itself.
struct ChaosRow {
    plan: u64,
    system: String,
    status: String,
    read_ms: f64,
    reads: u64,
    injected: u64,
    failovers: u64,
    spec: String,
}

const CHAOS_HEADER: &str = "plan,seed,system,status,read_ms,reads,faults_injected,failovers,spec";

fn load_chaos(path: &str) -> Result<Vec<ChaosRow>, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("{path}: cannot read: {e}"))?;
    let mut lines = text.lines().enumerate();
    match lines.next() {
        Some((_, h)) if h == CHAOS_HEADER => {}
        other => {
            return Err(format!(
                "{path}: not a chaos CSV (expected header {CHAOS_HEADER:?}, got {:?})",
                other.map(|(_, h)| h).unwrap_or("<empty file>")
            ))
        }
    }
    let mut rows = Vec::new();
    for (i, line) in lines {
        if line.is_empty() {
            continue;
        }
        // splitn(9): everything after the eighth comma is the spec.
        let f: Vec<&str> = line.splitn(9, ',').collect();
        if f.len() != 9 {
            return Err(format!("{path}:{}: expected 9 columns: {line:?}", i + 1));
        }
        let num = |j: usize, what: &str| -> Result<f64, String> {
            f[j].parse()
                .map_err(|_| format!("{path}:{}: bad {what} {:?}", i + 1, f[j]))
        };
        rows.push(ChaosRow {
            plan: num(0, "plan")? as u64,
            system: f[2].to_string(),
            status: f[3].to_string(),
            read_ms: num(4, "read_ms")?,
            reads: num(5, "reads")? as u64,
            injected: num(6, "faults_injected")? as u64,
            failovers: num(7, "failovers")? as u64,
            spec: f[8].to_string(),
        });
    }
    if rows.is_empty() {
        return Err(format!("{path}: no chaos rows found"));
    }
    Ok(rows)
}

/// `lapreport chaos FILE`: per-system roll-up of a chaos-sweep CSV
/// (see EXPERIMENTS.md, "reading a chaos report"). Exits non-zero when
/// any plan ended in an invariant violation — the CSV is the
/// machine-readable verdict, this is the human one.
fn cmd_chaos(args: &[String]) -> i32 {
    let [path] = args else { usage() };
    let rows = match load_chaos(path) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("lapreport: {e}");
            return 1;
        }
    };
    let mut systems: Vec<&str> = Vec::new();
    for r in &rows {
        if !systems.contains(&r.system.as_str()) {
            systems.push(&r.system);
        }
    }
    println!("chaos sweep: {path}");
    println!(
        "  {:<6} {:>6} {:>6} {:>10} {:>10} {:>10} {:>10}",
        "system", "plans", "ok", "violation", "mean-ms", "injected", "failovers"
    );
    let mut bad = 0u64;
    for sys in &systems {
        let (mut ok, mut violation) = (0u64, 0u64);
        let (mut ms_sum, mut injected, mut failovers) = (0.0f64, 0u64, 0u64);
        for r in rows.iter().filter(|r| &r.system == sys) {
            match r.status.as_str() {
                "ok" => {
                    ok += 1;
                    ms_sum += r.read_ms;
                }
                "violation" => violation += 1,
                other => {
                    eprintln!("lapreport: {path}: unknown chaos status {other:?}");
                    return 1;
                }
            }
            injected += r.injected;
            failovers += r.failovers;
        }
        bad += violation;
        let mean_ms = if ok > 0 { ms_sum / ok as f64 } else { 0.0 };
        println!(
            "  {:<6} {:>6} {:>6} {:>10} {:>10.3} {:>10} {:>10}",
            sys,
            ok + violation,
            ok,
            violation,
            mean_ms,
            injected,
            failovers
        );
    }
    for r in rows.iter().filter(|r| r.status != "ok") {
        println!(
            "  FAILED plan {:>4} {:<5} {}: reads {}  spec {}",
            r.plan, r.system, r.status, r.reads, r.spec
        );
    }
    if bad > 0 {
        eprintln!("lapreport: chaos sweep recorded {bad} failing plan-system cell(s)");
        1
    } else {
        println!("  all {} plan-system cells green (oracle on)", rows.len());
        0
    }
}
