//! The first text-trace parser — `str::lines`, a `Vec<&str>` of
//! Unicode-whitespace tokens per line and `str::parse` per field —
//! kept only as the oracle the differential fuzz in `text` drives
//! [`Workload::from_text`] against. Each step is the obvious library
//! call, so its behaviour is easy to check by eye.

use std::str::FromStr;

use simkit::SimDuration;

use crate::text::ParseError;
use crate::trace::{FileMeta, Op, ProcessTrace, Workload};
use crate::types::{FileId, NodeId, ProcId};

/// Parse a workload from the text format and [`check`](Workload::check) it.
pub(crate) fn from_text(text: &str) -> Result<Workload, ParseError> {
    let mut name = None;
    let mut block_size = None;
    let mut nodes = None;
    let mut files = Vec::new();
    let mut processes: Vec<ProcessTrace> = Vec::new();

    fn field<T: FromStr>(
        parts: &[&str],
        idx: usize,
        what: &str,
        line: usize,
    ) -> Result<T, ParseError> {
        parts
            .get(idx)
            .ok_or_else(|| ParseError {
                line,
                message: format!("missing {what}"),
            })?
            .parse()
            .map_err(|_| ParseError {
                line,
                message: format!("invalid {what}: {:?}", parts[idx]),
            })
    }

    for (i, raw) in text.lines().enumerate() {
        let lineno = i + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let parts: Vec<&str> = line.split_whitespace().collect();
        match parts[0] {
            "workload" => {
                name = Some(parts.get(1).map(|s| s.to_string()).ok_or(ParseError {
                    line: lineno,
                    message: "missing workload name".into(),
                })?)
            }
            "blocksize" => block_size = Some(field(&parts, 1, "block size", lineno)?),
            "nodes" => nodes = Some(field(&parts, 1, "node count", lineno)?),
            "file" => {
                let id: u32 = field(&parts, 1, "file id", lineno)?;
                let size: u64 = field(&parts, 2, "file size", lineno)?;
                files.push(FileMeta {
                    id: FileId(id),
                    size,
                });
            }
            "proc" => {
                let id: u32 = field(&parts, 1, "proc id", lineno)?;
                let node: u32 = field(&parts, 2, "proc node", lineno)?;
                processes.push(ProcessTrace {
                    proc: ProcId(id),
                    node: NodeId(node),
                    ops: Vec::new(),
                });
            }
            "c" | "r" | "w" => {
                let cur = processes.last_mut().ok_or(ParseError {
                    line: lineno,
                    message: "operation before any 'proc' line".into(),
                })?;
                let op = match parts[0] {
                    "c" => Op::Compute(SimDuration::from_nanos(field(
                        &parts, 1, "duration", lineno,
                    )?)),
                    kind => {
                        let file: u32 = field(&parts, 1, "file id", lineno)?;
                        let offset = field(&parts, 2, "offset", lineno)?;
                        let len = field(&parts, 3, "length", lineno)?;
                        let file = FileId(file);
                        if kind == "r" {
                            Op::Read { file, offset, len }
                        } else {
                            Op::Write { file, offset, len }
                        }
                    }
                };
                cur.ops.push(op);
            }
            other => {
                return Err(ParseError {
                    line: lineno,
                    message: format!("unknown directive {other:?}"),
                })
            }
        }
    }

    let wl = Workload {
        name: name.ok_or(ParseError {
            line: 0,
            message: "missing 'workload' line".into(),
        })?,
        block_size: block_size.ok_or(ParseError {
            line: 0,
            message: "missing 'blocksize' line".into(),
        })?,
        nodes: nodes.ok_or(ParseError {
            line: 0,
            message: "missing 'nodes' line".into(),
        })?,
        files,
        processes,
    };
    wl.check()
        .map_err(|message| ParseError { line: 0, message })?;
    Ok(wl)
}
