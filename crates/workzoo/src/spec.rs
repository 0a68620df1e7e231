//! The workload registry: [`ZooKind`] names every workload the zoo
//! knows, and [`WorkloadSpec`] parses/prints the CLI spelling of one
//! (`charisma:paper`, `web:64,0.8,256`, `strace:FILE`, …).

use std::fmt;

use ioworkload::Workload;

use crate::db::DbParams;
use crate::mltrain::MlTrainParams;
use crate::tracefile;
use crate::web::WebParams;

/// Which workload a spec selects, with its parsed parameters.
#[derive(Clone, PartialEq, Debug)]
pub enum ZooKind {
    /// CHARISMA-like parallel-scientific workload (built-in generator).
    Charisma {
        /// Paper-scale (128 nodes) instead of the small test scale.
        paper: bool,
    },
    /// Sprite-like network-of-workstations workload (built-in generator).
    Sprite {
        /// Paper-scale (50 nodes) instead of the small test scale.
        paper: bool,
    },
    /// Web-serving sessions: Zipf-skewed file popularity with session
    /// locality.
    Web {
        /// Number of user sessions replayed across the server nodes.
        sessions: u32,
        /// Zipf skew of the file-popularity distribution.
        zipf_s: f64,
        /// Number of distinct files — the cache-overflow knob.
        files: u32,
    },
    /// Database scan/point-lookup mix over one large table.
    Db {
        /// Fraction of transactions that are sequential range scans.
        scan_frac: f64,
        /// Table size in blocks — the cache-overflow knob.
        table_blocks: u64,
    },
    /// ML training: epoch-replayed shuffled reads over dataset shards.
    MlTrain {
        /// Number of training epochs (epoch 1 is cold; later epochs
        /// replay the identical per-shard sample order).
        epochs: u32,
        /// Dataset size in blocks — the cache-overflow knob.
        dataset_blocks: u64,
    },
    /// Replay an strace-style text trace from a file.
    Strace {
        /// Path of the trace file.
        path: String,
    },
    /// Replay a blkparse-style text trace from a file.
    Blktrace {
        /// Path of the trace file.
        path: String,
    },
}

/// A parsed workload specification — the registry entry selected by a
/// CLI string such as `charisma:paper` or `mltrain:4,2048`.
///
/// `parse` and [`canonical`](Self::canonical) round-trip:
///
/// ```
/// use workzoo::WorkloadSpec;
/// let spec = WorkloadSpec::parse("web:64,0.8,256").unwrap();
/// assert_eq!(spec.canonical(), "web:64,0.8,256");
/// assert_eq!(WorkloadSpec::parse(&spec.canonical()).unwrap(), spec);
/// ```
#[derive(Clone, PartialEq, Debug)]
pub struct WorkloadSpec {
    /// The workload this spec selects.
    pub kind: ZooKind,
}

/// The rejection of a workload spec string or of the CLI scale. A bad
/// spec's `Display` includes the full registry listing so CLI users see
/// every valid name and an example spelling on failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ZooSpecError {
    /// The spec names no workload or has bad parameters.
    Spec(String),
    /// The `--scale` value given to [`WorkloadSpec::parse_cli`] is
    /// neither `small` nor `paper`.
    Scale(String),
}

impl ZooSpecError {
    /// The rejected input string: the spec, or the scale.
    pub fn spec(&self) -> &str {
        match self {
            ZooSpecError::Spec(s) | ZooSpecError::Scale(s) => s,
        }
    }
}

impl fmt::Display for ZooSpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ZooSpecError::Spec(s) => {
                writeln!(f, "unknown workload spec {s:?}")?;
                f.write_str(&registry_help())
            }
            ZooSpecError::Scale(s) => writeln!(f, "bad --scale: {s} (expected small or paper)"),
        }
    }
}

impl std::error::Error for ZooSpecError {}

/// Building a parsed spec failed — the trace file was unreadable or its
/// records did not parse. (The synthetic generators cannot fail.)
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BuildError {
    spec: String,
    msg: String,
}

impl BuildError {
    /// The canonical spec that failed to build.
    pub fn spec(&self) -> &str {
        &self.spec
    }
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cannot build workload {}: {}", self.spec, self.msg)
    }
}

impl std::error::Error for BuildError {}

/// Registry rows: parameter syntax and a one-line description.
const REGISTRY: &[(&str, &str, &str)] = &[
    (
        "charisma",
        "charisma[:small|paper]",
        "CHARISMA-like parallel-scientific I/O (default small)",
    ),
    (
        "sprite",
        "sprite[:small|paper]",
        "Sprite-like NOW workstation I/O (default small)",
    ),
    (
        "web",
        "web[:SESSIONS[,ZIPF_S[,FILES]]]",
        "web sessions: Zipf popularity + locality; FILES overflows the cache",
    ),
    (
        "db",
        "db[:SCAN_FRAC[,TABLE_BLOCKS]]",
        "database scan/point mix; TABLE_BLOCKS overflows the cache",
    ),
    (
        "mltrain",
        "mltrain[:EPOCHS[,DATASET_BLOCKS]]",
        "epoch-replayed shuffled shard reads; DATASET_BLOCKS overflows the cache",
    ),
    ("strace", "strace:FILE", "replay an strace-style text trace"),
    (
        "blktrace",
        "blktrace:FILE",
        "replay a blkparse-style text trace",
    ),
];

/// The registry listing shown on parse errors and in `--help` output:
/// every valid workload name with its parameter syntax and examples.
pub fn registry_help() -> String {
    use std::fmt::Write;
    let mut out = String::from("valid workload specs:\n");
    for (_, syntax, desc) in REGISTRY {
        writeln!(out, "    {syntax:<32} {desc}").unwrap();
    }
    out.push_str("  examples: charisma:paper  web:64,0.8,256  db:0.3,4096  mltrain:4,2048\n");
    out.push_str("            strace:traces/app.strace  blktrace:traces/dev.blkparse\n");
    out
}

impl WorkloadSpec {
    /// Wrap a workload kind as a spec.
    pub const fn new(kind: ZooKind) -> Self {
        WorkloadSpec { kind }
    }

    /// Parse a CLI workload spec. See [`registry_help`] for the
    /// accepted grammar.
    pub fn parse(s: &str) -> Result<Self, ZooSpecError> {
        let err = || ZooSpecError::Spec(s.to_string());
        let (base, params) = match s.split_once(':') {
            Some((b, p)) => (b, Some(p)),
            None => (s, None),
        };
        let kind = match base {
            "charisma" | "sprite" => {
                let paper = match params {
                    None | Some("small") => false,
                    Some("paper") => true,
                    Some(_) => return Err(err()),
                };
                if base == "charisma" {
                    ZooKind::Charisma { paper }
                } else {
                    ZooKind::Sprite { paper }
                }
            }
            "web" => {
                let d = WebParams::default();
                let (sessions, zipf_s, files) =
                    parse_up_to_3(params, (d.sessions, d.zipf_s, d.files), err)?;
                if sessions < 1 || !(0.0..=5.0).contains(&zipf_s) || files < 2 {
                    return Err(err());
                }
                ZooKind::Web {
                    sessions,
                    zipf_s,
                    files,
                }
            }
            "db" => {
                let d = DbParams::default();
                let (scan_frac, table_blocks) =
                    parse_up_to_2(params, (d.scan_frac, d.table_blocks), err)?;
                if !(0.0..=1.0).contains(&scan_frac) || table_blocks < 64 {
                    return Err(err());
                }
                ZooKind::Db {
                    scan_frac,
                    table_blocks,
                }
            }
            "mltrain" => {
                let d = MlTrainParams::default();
                let (epochs, dataset_blocks) =
                    parse_up_to_2(params, (d.epochs, d.dataset_blocks), err)?;
                if epochs < 1 || dataset_blocks < 64 {
                    return Err(err());
                }
                ZooKind::MlTrain {
                    epochs,
                    dataset_blocks,
                }
            }
            "strace" | "blktrace" => {
                let path = match params {
                    Some(p) if !p.is_empty() => p.to_string(),
                    _ => return Err(err()),
                };
                if base == "strace" {
                    ZooKind::Strace { path }
                } else {
                    ZooKind::Blktrace { path }
                }
            }
            _ => return Err(err()),
        };
        Ok(WorkloadSpec { kind })
    }

    /// Parse a CLI spec with a CLI-level default scale: the bare
    /// built-in names `charisma` and `sprite` pick up `default_scale`
    /// (the `--scale` flag), while explicit parameters win. Zoo
    /// generators and traces ignore the scale, but a scale other than
    /// `small` or `paper` is rejected for every spec.
    pub fn parse_cli(s: &str, default_scale: &str) -> Result<Self, ZooSpecError> {
        if !matches!(default_scale, "small" | "paper") {
            return Err(ZooSpecError::Scale(default_scale.to_string()));
        }
        match s {
            "charisma" | "sprite" => Self::parse(&format!("{s}:{default_scale}")),
            _ => Self::parse(s),
        }
    }

    /// The canonical spelling of this spec — parsing it yields back the
    /// same spec (`parse(canonical()) == self`).
    pub fn canonical(&self) -> String {
        match &self.kind {
            ZooKind::Charisma { paper } => {
                format!("charisma:{}", if *paper { "paper" } else { "small" })
            }
            ZooKind::Sprite { paper } => {
                format!("sprite:{}", if *paper { "paper" } else { "small" })
            }
            ZooKind::Web {
                sessions,
                zipf_s,
                files,
            } => format!("web:{sessions},{zipf_s},{files}"),
            ZooKind::Db {
                scan_frac,
                table_blocks,
            } => format!("db:{scan_frac},{table_blocks}"),
            ZooKind::MlTrain {
                epochs,
                dataset_blocks,
            } => format!("mltrain:{epochs},{dataset_blocks}"),
            ZooKind::Strace { path } => format!("strace:{path}"),
            ZooKind::Blktrace { path } => format!("blktrace:{path}"),
        }
    }

    /// Build the workload this spec names. Deterministic for the
    /// synthetic kinds: a `(spec, seed)` pair always produces the
    /// identical workload. Trace kinds read and parse their file (the
    /// seed is ignored — a trace *is* its own randomness).
    pub fn build(&self, seed: u64) -> Result<Workload, BuildError> {
        let err = |msg: String| BuildError {
            spec: self.canonical(),
            msg,
        };
        Ok(match &self.kind {
            ZooKind::Charisma { paper } => {
                use ioworkload::charisma::CharismaParams;
                if *paper {
                    CharismaParams::paper().generate(seed)
                } else {
                    CharismaParams::small().generate(seed)
                }
            }
            ZooKind::Sprite { paper } => {
                use ioworkload::sprite::SpriteParams;
                if *paper {
                    SpriteParams::paper().generate(seed)
                } else {
                    SpriteParams::small().generate(seed)
                }
            }
            ZooKind::Web {
                sessions,
                zipf_s,
                files,
            } => WebParams {
                sessions: *sessions,
                zipf_s: *zipf_s,
                files: *files,
                ..WebParams::default()
            }
            .generate(seed),
            ZooKind::Db {
                scan_frac,
                table_blocks,
            } => DbParams {
                scan_frac: *scan_frac,
                table_blocks: *table_blocks,
                ..DbParams::default()
            }
            .generate(seed),
            ZooKind::MlTrain {
                epochs,
                dataset_blocks,
            } => MlTrainParams {
                epochs: *epochs,
                dataset_blocks: *dataset_blocks,
                ..MlTrainParams::default()
            }
            .generate(seed),
            ZooKind::Strace { path } => {
                let bytes = std::fs::read(path).map_err(|e| err(e.to_string()))?;
                let text = tracefile::utf8_text(path, &bytes).map_err(|e| err(e.to_string()))?;
                tracefile::parse_strace(path, text).map_err(|e| err(e.to_string()))?
            }
            ZooKind::Blktrace { path } => {
                let bytes = std::fs::read(path).map_err(|e| err(e.to_string()))?;
                let text = tracefile::utf8_text(path, &bytes).map_err(|e| err(e.to_string()))?;
                tracefile::parse_blktrace(path, text).map_err(|e| err(e.to_string()))?
            }
        })
    }
}

impl fmt::Display for WorkloadSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.canonical())
    }
}

/// Parse up to two comma-separated parameters, keeping defaults for the
/// ones not given. `Some("")` and trailing garbage reject.
fn parse_up_to_2<A, B>(
    params: Option<&str>,
    defaults: (A, B),
    err: impl Fn() -> ZooSpecError,
) -> Result<(A, B), ZooSpecError>
where
    A: std::str::FromStr + Copy,
    B: std::str::FromStr + Copy,
{
    let (mut a, mut b) = defaults;
    if let Some(p) = params {
        let mut it = p.split(',');
        a = it.next().unwrap_or("").parse().map_err(|_| err())?;
        if let Some(second) = it.next() {
            b = second.parse().map_err(|_| err())?;
        }
        if it.next().is_some() {
            return Err(err());
        }
    }
    Ok((a, b))
}

/// Like [`parse_up_to_2`] for three parameters.
fn parse_up_to_3<A, B, C>(
    params: Option<&str>,
    defaults: (A, B, C),
    err: impl Fn() -> ZooSpecError,
) -> Result<(A, B, C), ZooSpecError>
where
    A: std::str::FromStr + Copy,
    B: std::str::FromStr + Copy,
    C: std::str::FromStr + Copy,
{
    let (mut a, mut b, mut c) = defaults;
    if let Some(p) = params {
        let mut it = p.split(',');
        a = it.next().unwrap_or("").parse().map_err(|_| err())?;
        if let Some(second) = it.next() {
            b = second.parse().map_err(|_| err())?;
        }
        if let Some(third) = it.next() {
            c = third.parse().map_err(|_| err())?;
        }
        if it.next().is_some() {
            return Err(err());
        }
    }
    Ok((a, b, c))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_registry_name() {
        for (spec, kind) in [
            ("charisma", ZooKind::Charisma { paper: false }),
            ("charisma:small", ZooKind::Charisma { paper: false }),
            ("charisma:paper", ZooKind::Charisma { paper: true }),
            ("sprite:paper", ZooKind::Sprite { paper: true }),
            (
                "web",
                ZooKind::Web {
                    sessions: WebParams::default().sessions,
                    zipf_s: WebParams::default().zipf_s,
                    files: WebParams::default().files,
                },
            ),
            (
                "web:10",
                ZooKind::Web {
                    sessions: 10,
                    zipf_s: WebParams::default().zipf_s,
                    files: WebParams::default().files,
                },
            ),
            (
                "web:10,1.2,512",
                ZooKind::Web {
                    sessions: 10,
                    zipf_s: 1.2,
                    files: 512,
                },
            ),
            (
                "db:0.5",
                ZooKind::Db {
                    scan_frac: 0.5,
                    table_blocks: DbParams::default().table_blocks,
                },
            ),
            (
                "db:0.5,8192",
                ZooKind::Db {
                    scan_frac: 0.5,
                    table_blocks: 8192,
                },
            ),
            (
                "mltrain:6,4096",
                ZooKind::MlTrain {
                    epochs: 6,
                    dataset_blocks: 4096,
                },
            ),
            (
                "strace:a/b.txt",
                ZooKind::Strace {
                    path: "a/b.txt".into(),
                },
            ),
            (
                "blktrace:dev.txt",
                ZooKind::Blktrace {
                    path: "dev.txt".into(),
                },
            ),
        ] {
            assert_eq!(WorkloadSpec::parse(spec).unwrap().kind, kind, "{spec}");
        }
    }

    #[test]
    fn canonical_round_trips() {
        for spec in [
            "charisma:small",
            "charisma:paper",
            "sprite:small",
            "web:64,0.8,256",
            "web:10,1.25,512",
            "db:0.3,4096",
            "mltrain:4,2048",
            "strace:traces/app.strace",
            "blktrace:dev.blkparse",
        ] {
            let parsed = WorkloadSpec::parse(spec).unwrap();
            assert_eq!(parsed.canonical(), spec);
            assert_eq!(WorkloadSpec::parse(&parsed.canonical()).unwrap(), parsed);
        }
        // Defaulted parameters print explicitly in canonical form.
        assert_eq!(
            WorkloadSpec::parse("charisma").unwrap().canonical(),
            "charisma:small"
        );
        assert_eq!(
            WorkloadSpec::parse("mltrain").unwrap().canonical(),
            "mltrain:4,2048"
        );
    }

    #[test]
    fn cli_default_scale_applies_to_builtins_only() {
        let s = WorkloadSpec::parse_cli("charisma", "paper").unwrap();
        assert_eq!(s.kind, ZooKind::Charisma { paper: true });
        // Explicit parameters win over the CLI default.
        let s = WorkloadSpec::parse_cli("charisma:small", "paper").unwrap();
        assert_eq!(s.kind, ZooKind::Charisma { paper: false });
        // Zoo kinds ignore a valid scale.
        let s = WorkloadSpec::parse_cli("mltrain", "paper").unwrap();
        assert!(matches!(s.kind, ZooKind::MlTrain { .. }));
        // A bad scale is rejected as a scale, whatever the spec.
        for spec in ["charisma", "charisma:small", "mltrain"] {
            let e = WorkloadSpec::parse_cli(spec, "huge").unwrap_err();
            assert_eq!(e, ZooSpecError::Scale("huge".into()));
            assert_eq!(
                e.to_string(),
                "bad --scale: huge (expected small or paper)\n"
            );
        }
    }

    #[test]
    fn rejections() {
        for bad in [
            "",
            "minix",
            "charisma:huge",
            "sprite:8",
            "web:0",
            "web:x",
            "web:4,-1.0",
            "web:4,9.9",
            "web:4,0.8,1",
            "web:4,0.8,64,9",
            "db:1.5",
            "db:0.3,1",
            "db:0.3,4096,7",
            "mltrain:0",
            "mltrain:2,8",
            "strace",
            "strace:",
            "blktrace:",
        ] {
            let e = WorkloadSpec::parse(bad).unwrap_err();
            assert_eq!(e.spec(), bad);
            let msg = e.to_string();
            assert!(msg.contains("unknown workload spec"), "{bad}: {msg}");
            assert!(
                msg.contains("mltrain[:EPOCHS[,DATASET_BLOCKS]]"),
                "{bad}: {msg}"
            );
        }
    }

    #[test]
    fn registry_help_lists_every_name() {
        let help = registry_help();
        for (name, ..) in REGISTRY {
            assert!(help.contains(name), "registry help misses {name}");
        }
        assert!(help.contains("examples:"));
    }

    #[test]
    fn builtin_builds_match_direct_generation() {
        use ioworkload::charisma::CharismaParams;
        let a = WorkloadSpec::parse("charisma:small")
            .unwrap()
            .build(9)
            .unwrap();
        let b = CharismaParams::small().generate(9);
        assert_eq!(a.to_text(), b.to_text());
    }

    #[test]
    fn trace_build_reports_missing_file() {
        let e = WorkloadSpec::parse("strace:/nonexistent/x.txt")
            .unwrap()
            .build(0)
            .unwrap_err();
        assert!(e.to_string().contains("cannot build workload"), "{e}");
        assert_eq!(e.spec(), "strace:/nonexistent/x.txt");
    }

    #[test]
    fn every_synthetic_build_validates_and_is_deterministic() {
        for spec in ["web:12,0.8,64", "db:0.4,512", "mltrain:2,256"] {
            let s = WorkloadSpec::parse(spec).unwrap();
            let a = s.build(7).unwrap();
            a.validate();
            let b = s.build(7).unwrap();
            assert_eq!(a.to_text(), b.to_text(), "{spec} not deterministic");
            let c = s.build(8).unwrap();
            assert_ne!(a.to_text(), c.to_text(), "{spec} ignores the seed");
        }
    }
}
