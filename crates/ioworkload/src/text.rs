//! A simple line-oriented text format for workload traces.
//!
//! The format is self-describing and diff-friendly:
//!
//! ```text
//! # anything after '#' is a comment
//! workload charisma-small
//! blocksize 8192
//! nodes 128
//! file 0 33554432          # id, size in bytes
//! proc 0 5                 # id, node
//! c 250000                 # compute 250000 ns
//! r 0 0 65536              # read  file 0, offset 0, 64 KB
//! w 0 65536 8192           # write file 0, offset 64K, 8 KB
//! ```
//!
//! Operations attach to the most recently declared `proc`.

use std::fmt::Write as _;
use std::str::FromStr;

use simkit::SimDuration;

use crate::trace::{FileMeta, Op, ProcessTrace, Workload};
use crate::types::{FileId, NodeId, ProcId};

/// Parsing failure with its line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number; 0 for a problem with the file as a whole.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.line == 0 {
            f.write_str(&self.message)
        } else {
            write!(f, "line {}: {}", self.line, self.message)
        }
    }
}

impl std::error::Error for ParseError {}

impl Workload {
    /// Render the workload in the text format.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        writeln!(out, "workload {}", self.name).unwrap();
        writeln!(out, "blocksize {}", self.block_size).unwrap();
        writeln!(out, "nodes {}", self.nodes).unwrap();
        for f in &self.files {
            writeln!(out, "file {} {}", f.id.0, f.size).unwrap();
        }
        for p in &self.processes {
            writeln!(out, "proc {} {}", p.proc.0, p.node.0).unwrap();
            for op in &p.ops {
                match op {
                    Op::Compute(d) => writeln!(out, "c {}", d.as_nanos()).unwrap(),
                    Op::Read { file, offset, len } => {
                        writeln!(out, "r {} {} {}", file.0, offset, len).unwrap()
                    }
                    Op::Write { file, offset, len } => {
                        writeln!(out, "w {} {} {}", file.0, offset, len).unwrap()
                    }
                }
            }
        }
        out
    }

    /// Parse a workload from the text format and [`check`](Workload::check) it.
    pub fn from_text(text: &str) -> Result<Workload, ParseError> {
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
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Workload {
        Workload {
            name: "sample".into(),
            block_size: 8192,
            nodes: 4,
            files: vec![
                FileMeta {
                    id: FileId(0),
                    size: 32768,
                },
                FileMeta {
                    id: FileId(1),
                    size: 8192,
                },
            ],
            processes: vec![
                ProcessTrace {
                    proc: ProcId(0),
                    node: NodeId(0),
                    ops: vec![
                        Op::Compute(SimDuration::from_micros(5)),
                        Op::Read {
                            file: FileId(0),
                            offset: 0,
                            len: 8192,
                        },
                    ],
                },
                ProcessTrace {
                    proc: ProcId(1),
                    node: NodeId(3),
                    ops: vec![Op::Write {
                        file: FileId(1),
                        offset: 0,
                        len: 4096,
                    }],
                },
            ],
        }
    }

    #[test]
    fn round_trip() {
        let wl = sample();
        let text = wl.to_text();
        let back = Workload::from_text(&text).unwrap();
        assert_eq!(back.name, wl.name);
        assert_eq!(back.block_size, wl.block_size);
        assert_eq!(back.nodes, wl.nodes);
        assert_eq!(back.files.len(), wl.files.len());
        assert_eq!(back.processes.len(), wl.processes.len());
        assert_eq!(back.processes[0].ops, wl.processes[0].ops);
        assert_eq!(back.processes[1].ops, wl.processes[1].ops);
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let text = "\n# header\nworkload t\nblocksize 8192\nnodes 1\nfile 0 8192\nproc 0 0 # on node 0\nr 0 0 10\n";
        let wl = Workload::from_text(text).unwrap();
        assert_eq!(wl.processes[0].ops.len(), 1);
    }

    #[test]
    fn error_carries_line_number() {
        let text = "workload t\nblocksize 8192\nnodes 1\nbogus 1 2\n";
        let err = Workload::from_text(text).unwrap_err();
        assert_eq!(err.line, 4);
        assert!(err.message.contains("bogus"));
    }

    #[test]
    fn op_before_proc_is_rejected() {
        let text = "workload t\nblocksize 8192\nnodes 1\nr 0 0 10\n";
        let err = Workload::from_text(text).unwrap_err();
        assert!(err.message.contains("before any 'proc'"));
    }

    #[test]
    fn missing_header_is_rejected() {
        let err = Workload::from_text("nodes 1\nblocksize 1\n").unwrap_err();
        assert!(err.message.contains("workload"));
    }
}
