//! Paper-scale release benchmark of the simulator.
//!
//! ```text
//! perfbench --workload NAME --seconds S [--seed N] [--trace 0|1]
//! ```
//!
//! `--seconds` has no default: BENCHMARK.json's `run_seconds` sets it,
//! and a default here could silently differ from it.
//!
//! `--trace 0` prints the end-to-end metrics of an untraced run;
//! `--trace 1` prints the per-layer metrics of a traced run. Either
//! way every simulation passes the correctness gate, and the last line
//! of standard output is one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`. See README.md.

mod e2e;
mod layers;
mod measure;
mod workload;

use std::process::ExitCode;
use std::time::Instant;

use bench::Scale;

use workload::Bench;

/// One named measurement.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Metric { name, value, unit }
    }
}

/// What a run measured and how its checks went.
#[derive(Default)]
pub struct Outcome {
    pub metrics: Vec<Metric>,
    /// Simulations attempted and failed (panicked or broke the gate).
    pub attempted: u64,
    pub failed: u64,
    /// Every failed check, failed simulations included.
    pub errors: Vec<String>,
    /// Informational lines printed above the metrics.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Count a failed simulation.
    pub fn fail(&mut self, msg: String) {
        self.failed += 1;
        self.errors.push(msg);
    }

    /// Record a failed cross-check that is not one simulation's.
    pub fn mismatch(&mut self, msg: String) {
        self.errors.push(msg);
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }
}

struct Args {
    bench: Bench,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload charisma-pafs|charisma-xfs-flood|sprite-sweep \
--seconds S [--seed N] [--trace 0|1]";

fn parse_args() -> Result<Args, String> {
    let (mut bench, mut seconds) = (None, None);
    let mut args = Args {
        bench: Bench::CharismaPafs,
        seed: 42,
        seconds: 0.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => bench = Some(Bench::parse(&value).ok_or_else(bad)?),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad())?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(bad());
                }
                seconds = Some(s);
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    args.bench = bench.ok_or("--workload is required")?;
    args.seconds = seconds.ok_or("--seconds is required")?;
    Ok(args)
}

fn main() -> ExitCode {
    if cfg!(debug_assertions) {
        eprintln!("perfbench: refusing to time a debug build; build with --release");
        return ExitCode::from(2);
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    println!(
        "# perfbench {} ({}) {}",
        args.bench.name(),
        if args.trace {
            "traced, per-layer"
        } else {
            "untraced, end-to-end"
        },
        measure::environment_stamp(args.seed, args.bench.workers())
    );
    let out = if args.trace {
        let t = Instant::now();
        let text = args.bench.trace_text(Scale::Paper, args.seed);
        println!(
            "# trace generated from seed {} in {:.3} s: {} bytes",
            args.seed,
            t.elapsed().as_secs_f64(),
            text.len()
        );
        layers::run(args.bench, Scale::Paper, &text, args.seed)
    } else {
        e2e::run(args.bench, Scale::Paper, args.seed, args.seconds)
    };
    print_outcome(&out);
    ExitCode::SUCCESS
}

fn print_outcome(out: &Outcome) {
    for n in &out.notes {
        println!("# {n}");
    }
    for e in &out.errors {
        println!("# FAILED: {e}");
    }
    for m in &out.metrics {
        println!("{:<30} {:>20} {}", m.name, fmt_num(m.value), m.unit);
    }
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                fmt_num(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.errors.is_empty(),
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    );
}

/// A JSON number with every digit of the measurement (non-finite
/// values, which JSON cannot carry, print as 0).
fn fmt_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Metric names of one list in the repository's BENCHMARK.json.
    fn declared(list: &str) -> Vec<String> {
        let spec =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let body = &spec[spec.find(&format!("\"{list}\"")).expect("list present")..];
        let body = &body[..body.find(']').expect("list closes")];
        body.split("\"name\": \"")
            .skip(1)
            .map(|s| s[..s.find('"').expect("name closes")].to_string())
            .collect()
    }

    fn names(out: &Outcome) -> Vec<String> {
        out.metrics.iter().map(|m| m.name.to_string()).collect()
    }

    #[test]
    fn every_workload_passes_both_modes_at_tiny_scale() {
        for b in Bench::ALL {
            for seed in [42, 7] {
                let text = b.trace_text(Scale::Small, seed);
                let e2e = e2e::run(b, Scale::Small, seed, 0.01);
                assert!(e2e.errors.is_empty(), "{} e2e: {:?}", b.name(), e2e.errors);
                assert!(e2e.attempted >= b.cells(Scale::Small).len() as u64);
                assert_eq!(names(&e2e), declared("end_to_end"));
                assert!(
                    e2e.metrics.iter().all(|m| m.value > 0.0),
                    "{:?}",
                    e2e.metrics
                );

                let traced = layers::run(b, Scale::Small, &text, seed);
                assert!(
                    traced.errors.is_empty(),
                    "{} traced: {:?}",
                    b.name(),
                    traced.errors
                );
                assert_eq!(names(&traced), declared("per_layer"));
                let violations = traced
                    .metrics
                    .iter()
                    .find(|m| m.name == "simcheck.violations");
                assert_eq!(violations.map(|m| m.value), Some(0.0));
            }
        }
    }
}
