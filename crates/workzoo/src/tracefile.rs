//! Trace ingestion: parse strace- and blkparse-style text records into
//! the [`ioworkload::Workload`] per-process demand model.
//!
//! Real traces arrive as text dumps, not as the repo's native trace
//! format. Two front-ends cover the common cases:
//!
//! * [`parse_strace`] — syscall-level records (`strace -f -ttt` style):
//!   `open`/`openat` bind fds to paths, `read`/`write` advance a
//!   per-fd offset, `pread64`/`pwrite64` carry explicit offsets,
//!   `lseek` repositions, `close` unbinds. Byte offsets and lengths
//!   are preserved exactly; the simulator maps them to blocks through
//!   the existing layout.
//! * [`parse_blktrace`] — block-level records (`blkparse` default
//!   output): `Q` (queue) actions become reads/writes of a per-device
//!   pseudo-file at `sector * 512`.
//!
//! Both preserve **dependency order**: every record lands on its
//! process (pid) in file order, and timestamp deltas between a pid's
//! records become [`Op::Compute`] think time, so the replay keeps the
//! trace's intra-process structure while the simulator re-times all
//! I/O under the configured machine, cache, and prefetcher. Lines the
//! subset grammar does not know (signals, unfinished/resumed halves,
//! unrelated syscalls, non-queue blktrace actions, summary footers)
//! are skipped; lines that *are* in the grammar but malformed fail
//! with a line number.

use std::collections::HashMap;

use ioworkload::{FileId, FileMeta, NodeId, Op, ProcId, ProcessTrace, Workload};
use simkit::SimDuration;

/// A trace line the parser recognises but cannot make sense of.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceParseError {
    /// Path (or label) of the trace being parsed.
    pub path: String,
    /// 1-based line number of the offending record.
    pub line: usize,
    /// What was wrong.
    pub msg: String,
}

impl std::fmt::Display for TraceParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}: {}", self.path, self.line, self.msg)
    }
}

impl std::error::Error for TraceParseError {}

/// The bytes of a trace file at `path` as text, or the line of the
/// first byte that is not UTF-8.
///
/// # Errors
/// A [`TraceParseError`] on the line of the first invalid byte.
pub fn utf8_text<'a>(path: &str, bytes: &'a [u8]) -> Result<&'a str, TraceParseError> {
    ioworkload::utf8_text(bytes).map_err(|e| TraceParseError {
        path: path.to_string(),
        line: e.line,
        msg: e.message,
    })
}

/// Per-pid accumulation state shared by both parsers.
struct PidState {
    ops: Vec<Op>,
    /// Seconds of trace time not yet emitted as compute.
    pending_gap: f64,
    /// Nanoseconds of think time emitted so far.
    compute_ns: u64,
    last_ts: Option<f64>,
    /// Open fds: fd -> (path, current offset). strace only.
    fds: HashMap<u64, (String, u64)>,
}

impl PidState {
    fn new() -> Self {
        PidState {
            ops: Vec::new(),
            pending_gap: 0.0,
            compute_ns: 0,
            last_ts: None,
            fds: HashMap::new(),
        }
    }

    /// Add the gap since this pid's last timestamp to its think time.
    /// The gap saturates at `f64::MAX` seconds, which
    /// [`SimDuration::from_secs_f64`] saturates in turn.
    fn observe_ts(&mut self, ts: Option<f64>) -> Result<(), String> {
        if let Some(t) = ts {
            if !t.is_finite() {
                return Err(format!("timestamp {t} is not a finite number of seconds"));
            }
            if let Some(last) = self.last_ts {
                if t > last {
                    self.pending_gap = (self.pending_gap + (t - last)).min(f64::MAX);
                }
            }
            self.last_ts = Some(t);
        }
        Ok(())
    }

    /// Emit the accumulated think time, then the I/O op.
    ///
    /// # Errors
    /// When the think time takes the pid's compute past
    /// [`Workload::MAX_COMPUTE_NS`] in total.
    fn push_io(&mut self, op: Op) -> Result<(), String> {
        if self.pending_gap > 0.0 {
            let gap = SimDuration::from_secs_f64(self.pending_gap);
            self.compute_ns = self.compute_ns.saturating_add(gap.as_nanos());
            if self.compute_ns > Workload::MAX_COMPUTE_NS {
                return Err(format!(
                    "think time of {} s takes this pid's compute past 2^62 ns \
                     (about 146 years), the headroom of simulated time",
                    self.pending_gap
                ));
            }
            self.ops.push(Op::Compute(gap));
            self.pending_gap = 0.0;
        }
        self.ops.push(op);
        Ok(())
    }
}

/// Files keyed by path, materialised only when actually accessed, in
/// first-access order (dense ids).
#[derive(Default)]
struct FileTable {
    by_path: HashMap<String, u32>,
    /// (path, max end offset seen).
    files: Vec<(String, u64)>,
}

impl FileTable {
    fn touch(&mut self, path: &str, end: u64) -> FileId {
        let id = *self.by_path.entry(path.to_string()).or_insert_with(|| {
            self.files.push((path.to_string(), 0));
            (self.files.len() - 1) as u32
        });
        let max = &mut self.files[id as usize].1;
        *max = (*max).max(end);
        FileId(id)
    }
}

/// Assemble the per-pid states into a checked workload. Pids with no
/// I/O are dropped; each remaining pid gets its own node.
fn assemble(
    name: String,
    pids: Vec<u64>,
    mut states: HashMap<u64, PidState>,
    table: FileTable,
    path: &str,
) -> Result<Workload, TraceParseError> {
    let mut processes = Vec::new();
    for pid in pids {
        let st = states.remove(&pid).expect("pid state exists");
        if st.ops.iter().any(|o| !matches!(o, Op::Compute(_))) {
            let n = processes.len() as u32;
            processes.push(ProcessTrace {
                proc: ProcId(n),
                node: NodeId(n),
                ops: st.ops,
            });
        }
    }
    if processes.is_empty() {
        return Err(TraceParseError {
            path: path.to_string(),
            line: 0,
            msg: "no I/O records found".into(),
        });
    }
    let wl = Workload {
        name,
        block_size: 8192,
        nodes: processes.len() as u32,
        files: table
            .files
            .iter()
            .enumerate()
            .map(|(i, (_, size))| FileMeta {
                id: FileId(i as u32),
                size: *size,
            })
            .collect(),
        processes,
    };
    wl.check().map_err(|msg| TraceParseError {
        path: path.to_string(),
        line: 0,
        msg,
    })?;
    Ok(wl)
}

/// Parse strace-style text records. `path` labels error messages and
/// the workload name.
pub fn parse_strace(path: &str, text: &str) -> Result<Workload, TraceParseError> {
    let err = |line: usize, msg: String| TraceParseError {
        path: path.to_string(),
        line,
        msg,
    };
    let mut pids: Vec<u64> = Vec::new();
    let mut states: HashMap<u64, PidState> = HashMap::new();
    let mut table = FileTable::default();

    for (i, raw) in text.lines().enumerate() {
        let lineno = i + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        // strace noise: signal deliveries and exit markers.
        if line.starts_with("---") || line.starts_with("+++") {
            continue;
        }
        let mut rest = line;

        // Optional leading pid (strace -f).
        let mut pid = 0u64;
        if let Some(tok) = first_token(rest) {
            if !tok.is_empty() && tok.bytes().all(|b| b.is_ascii_digit()) {
                pid = tok
                    .parse()
                    .map_err(|_| err(lineno, format!("bad pid {tok:?}: past 2^64")))?;
                rest = rest[tok.len()..].trim_start();
            }
        }
        // Optional timestamp: relative seconds (-r/-ttt) or wall clock
        // with colons (-tt).
        let mut ts = None;
        if let Some(tok) = first_token(rest) {
            if let Some(t) = parse_timestamp(tok) {
                ts = Some(t);
                rest = rest[tok.len()..].trim_start();
            }
        }

        let st = states.entry(pid).or_insert_with(|| {
            pids.push(pid);
            PidState::new()
        });
        st.observe_ts(ts).map_err(|m| err(lineno, m))?;

        // Unfinished/resumed halves of interrupted syscalls: the data
        // is split across lines; keep the subset grammar simple and
        // skip both halves.
        if rest.starts_with('<') || rest.contains("<unfinished") {
            continue;
        }
        let Some(paren) = rest.find('(') else {
            continue; // not a syscall record
        };
        let name = &rest[..paren];
        if !name.bytes().all(|b| b.is_ascii_alphanumeric() || b == b'_') {
            continue;
        }
        // Return value: after the LAST " = " (paths may contain '=').
        let Some(eq) = rest.rfind(" = ") else {
            continue;
        };
        let ret_str = rest[eq + 3..].split_whitespace().next().unwrap_or("");
        let args_str = rest[paren + 1..eq].trim().trim_end_matches(')');
        let args = split_args(args_str);
        let ret: i64 = match ret_str.parse::<i64>() {
            Ok(v) => v,
            Err(_) if ret_str == "?" => continue, // killed mid-syscall
            Err(_) => {
                // Known syscalls must have a numeric return.
                if matches!(
                    name,
                    "open"
                        | "openat"
                        | "creat"
                        | "read"
                        | "write"
                        | "pread64"
                        | "pwrite64"
                        | "pread"
                        | "pwrite"
                        | "lseek"
                        | "_llseek"
                        | "close"
                ) {
                    return Err(err(lineno, format!("bad return value {ret_str:?}")));
                }
                continue;
            }
        };

        match name {
            "open" | "openat" | "creat" => {
                if ret < 0 {
                    continue; // failed open binds nothing
                }
                let path_arg = if name == "openat" {
                    args.get(1)
                } else {
                    args.first()
                };
                let Some(p) = path_arg.map(|a| a.trim().trim_matches('"')) else {
                    return Err(err(lineno, format!("{name} without a path argument")));
                };
                st.fds.insert(ret as u64, (p.to_string(), 0));
            }
            "read" | "write" | "pread64" | "pwrite64" | "pread" | "pwrite" => {
                if ret <= 0 {
                    continue; // EOF or error: no bytes moved
                }
                let len = ret as u64;
                let fd: u64 = args
                    .first()
                    .and_then(|a| a.trim().parse().ok())
                    .ok_or_else(|| err(lineno, format!("{name} with a non-numeric fd")))?;
                let explicit_offset = if name.starts_with('p') {
                    Some(
                        args.get(3)
                            .and_then(|a| a.trim().parse::<u64>().ok())
                            .ok_or_else(|| err(lineno, format!("{name} without an offset")))?,
                    )
                } else {
                    None
                };
                // Unopened fds 0-2 are the console, not files.
                if !st.fds.contains_key(&fd) && fd <= 2 {
                    continue;
                }
                let (fpath, cur) = st
                    .fds
                    .entry(fd)
                    // A trace excerpt may start mid-stream: synthesise
                    // a pseudo-file for fds we never saw opened.
                    .or_insert_with(|| (format!("<pid{pid}:fd{fd}>"), 0));
                let offset = explicit_offset.unwrap_or(*cur);
                let end = offset.checked_add(len).ok_or_else(|| {
                    err(
                        lineno,
                        format!("{name} of {len} bytes at offset {offset} ends past 2^64 bytes"),
                    )
                })?;
                let file = table.touch(fpath, end);
                let op = if name.contains("read") {
                    Op::Read { file, offset, len }
                } else {
                    Op::Write { file, offset, len }
                };
                if explicit_offset.is_none() {
                    *cur = end;
                }
                st.push_io(op).map_err(|m| err(lineno, m))?;
            }
            "lseek" | "_llseek" => {
                if ret < 0 {
                    continue;
                }
                let fd: u64 = args
                    .first()
                    .and_then(|a| a.trim().parse().ok())
                    .ok_or_else(|| err(lineno, "lseek with a non-numeric fd".into()))?;
                if let Some((_, cur)) = st.fds.get_mut(&fd) {
                    *cur = ret as u64;
                }
            }
            "close" => {
                let fd: u64 = args
                    .first()
                    .and_then(|a| a.trim().parse().ok())
                    .ok_or_else(|| err(lineno, "close with a non-numeric fd".into()))?;
                st.fds.remove(&fd);
            }
            _ => {} // unrelated syscall
        }
    }

    assemble(format!("strace:{path}"), pids, states, table, path)
}

/// Parse blkparse-style text records (`blkparse` default output):
/// `dev cpu seq time pid action rwbs sector + sectors [comm]`. Only
/// `Q` (queue) actions are replayed; each device becomes a
/// pseudo-file, `sector * 512` the byte offset.
pub fn parse_blktrace(path: &str, text: &str) -> Result<Workload, TraceParseError> {
    let err = |line: usize, msg: String| TraceParseError {
        path: path.to_string(),
        line,
        msg,
    };
    let mut pids: Vec<u64> = Vec::new();
    let mut states: HashMap<u64, PidState> = HashMap::new();
    let mut table = FileTable::default();

    for (i, raw) in text.lines().enumerate() {
        let lineno = i + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let fields: Vec<&str> = line.split_whitespace().collect();
        // A record starts with a `maj,min` device field; anything else
        // (per-CPU summary footers, totals) is not a record.
        let is_dev = |s: &str| {
            s.split_once(',').is_some_and(|(a, b)| {
                !a.is_empty()
                    && !b.is_empty()
                    && a.bytes().all(|c| c.is_ascii_digit())
                    && b.bytes().all(|c| c.is_ascii_digit())
            })
        };
        if fields.len() < 7 || !is_dev(fields[0]) {
            continue;
        }
        let action = fields[5];
        if action != "Q" {
            continue; // only queue records carry the demand stream
        }
        let rwbs = fields[6];
        let is_write = rwbs.contains('W');
        if !is_write && !rwbs.contains('R') {
            continue; // barriers/discards/flushes
        }
        if fields.len() < 10 || fields[8] != "+" {
            return Err(err(lineno, "Q record without `sector + count`".into()));
        }
        let ts: f64 = fields[3]
            .parse()
            .map_err(|_| err(lineno, format!("bad timestamp {:?}", fields[3])))?;
        let pid: u64 = fields[4]
            .parse()
            .map_err(|_| err(lineno, format!("bad pid {:?}", fields[4])))?;
        let sector: u64 = fields[7]
            .parse()
            .map_err(|_| err(lineno, format!("bad sector {:?}", fields[7])))?;
        let sectors: u64 = fields[9]
            .parse()
            .map_err(|_| err(lineno, format!("bad sector count {:?}", fields[9])))?;
        if sectors == 0 {
            continue;
        }

        let st = states.entry(pid).or_insert_with(|| {
            pids.push(pid);
            PidState::new()
        });
        st.observe_ts(Some(ts)).map_err(|m| err(lineno, m))?;
        let bytes = |what: &str, n: u64| {
            n.checked_mul(512)
                .ok_or_else(|| err(lineno, format!("{what} {n} is past 2^64 bytes")))
        };
        let offset = bytes("sector", sector)?;
        let len = bytes("sector count", sectors)?;
        let end = offset.checked_add(len).ok_or_else(|| {
            err(
                lineno,
                format!("{sectors} sectors at sector {sector} end past 2^64 bytes"),
            )
        })?;
        let file = table.touch(&format!("<dev {}>", fields[0]), end);
        st.push_io(if is_write {
            Op::Write { file, offset, len }
        } else {
            Op::Read { file, offset, len }
        })
        .map_err(|m| err(lineno, m))?;
    }

    assemble(format!("blktrace:{path}"), pids, states, table, path)
}

/// First whitespace-delimited token of a line.
fn first_token(s: &str) -> Option<&str> {
    s.split_whitespace().next()
}

/// Parse an strace timestamp token: `1234.5678` (relative/epoch) or
/// `HH:MM:SS.ffff` (wall clock).
fn parse_timestamp(tok: &str) -> Option<f64> {
    if tok.contains(':') {
        let parts: Vec<&str> = tok.split(':').collect();
        if parts.len() != 3 {
            return None;
        }
        let h: f64 = parts[0].parse().ok()?;
        let m: f64 = parts[1].parse().ok()?;
        let s: f64 = parts[2].parse().ok()?;
        Some(h * 3600.0 + m * 60.0 + s)
    } else if tok.contains('.') {
        tok.parse().ok()
    } else {
        None
    }
}

/// Split a syscall argument list on top-level commas, respecting
/// double-quoted strings (paths and buffers may contain commas).
fn split_args(s: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let (mut depth, mut in_str, mut escaped, mut start) = (0usize, false, false, 0usize);
    for (i, b) in s.bytes().enumerate() {
        if escaped {
            escaped = false;
            continue;
        }
        match b {
            b'\\' if in_str => escaped = true,
            b'"' => in_str = !in_str,
            b'(' | b'[' | b'{' if !in_str => depth += 1,
            b')' | b']' | b'}' if !in_str => depth = depth.saturating_sub(1),
            b',' if !in_str && depth == 0 => {
                out.push(s[start..i].trim());
                start = i + 1;
            }
            _ => {}
        }
    }
    if start < s.len() || !s.is_empty() {
        out.push(s[start..].trim());
    }
    out
}

#[cfg(test)]
mod tests {
    use ioworkload::util::Rng64;

    use super::*;

    const STRACE: &str = r#"
1001 0.000100 openat(AT_FDCWD, "/data/a.bin", O_RDONLY) = 3
1001 0.000400 read(3, "x"..., 8192) = 8192
1001 0.050400 read(3, "x"..., 8192) = 8192
1001 0.050600 pread64(3, "x"..., 16384, 65536) = 16384
1001 0.050900 lseek(3, 131072, SEEK_SET) = 131072
1001 0.051000 read(3, "x"..., 8192) = 8192
1001 0.051200 close(3) = 0
1002 0.000200 open("/data/b.bin", O_WRONLY|O_CREAT, 0644) = 4
1002 0.000900 write(4, "y"..., 4096) = 4096
1002 0.001100 write(4, "y"..., 4096) = 4096
--- SIGCHLD {si_signo=SIGCHLD} ---
1002 0.001300 read(0, "", 128) = 0
1002 0.001400 close(4) = 0
+++ exited with 0 +++
"#;

    #[test]
    fn strace_subset_parses_and_validates() {
        let wl = parse_strace("t.strace", STRACE).unwrap();
        wl.validate();
        assert_eq!(wl.processes.len(), 2);
        assert_eq!(wl.files.len(), 2);
        // pid 1001: read@0, read@8192 (cursor), pread@65536 (explicit,
        // cursor untouched), lseek to 131072, read@131072.
        let reads: Vec<(u64, u64)> = wl.processes[0]
            .ops
            .iter()
            .filter_map(|o| match o {
                Op::Read { offset, len, .. } => Some((*offset, *len)),
                _ => None,
            })
            .collect();
        assert_eq!(
            reads,
            vec![(0, 8192), (8192, 8192), (65536, 16384), (131072, 8192)]
        );
        // File size = max end offset.
        assert_eq!(wl.files[0].size, 131072 + 8192);
        assert_eq!(wl.files[1].size, 8192);
        // Timestamp deltas became compute: pid 1001 thinks ~50 ms
        // between its second and third I/O.
        let computes: Vec<u64> = wl.processes[0]
            .ops
            .iter()
            .filter_map(|o| match o {
                Op::Compute(d) => Some(d.as_millis()),
                _ => None,
            })
            .collect();
        assert!(computes.contains(&50), "computes {computes:?}");
    }

    #[test]
    fn strace_preserves_per_process_order() {
        let wl = parse_strace("t.strace", STRACE).unwrap();
        // pid 1002's writes stay in trace order despite the
        // interleaved pid 1001 lines.
        let writes: Vec<u64> = wl.processes[1]
            .ops
            .iter()
            .filter_map(|o| match o {
                Op::Write { offset, .. } => Some(*offset),
                _ => None,
            })
            .collect();
        assert_eq!(writes, vec![0, 4096]);
    }

    #[test]
    fn strace_without_pids_or_timestamps() {
        let text = "open(\"/x\", O_RDONLY) = 5\nread(5, \"\", 8192) = 8192\n";
        let wl = parse_strace("t", text).unwrap();
        assert_eq!(wl.processes.len(), 1);
        assert_eq!(wl.files[0].size, 8192);
        assert!(wl.processes[0]
            .ops
            .iter()
            .all(|o| !matches!(o, Op::Compute(_))));
    }

    #[test]
    fn strace_synthesises_files_for_unseen_fds() {
        // An excerpt starting mid-stream: fd 7 was opened before the
        // capture began.
        let text = "2000 read(7, \"\", 4096) = 4096\n";
        let wl = parse_strace("t", text).unwrap();
        assert_eq!(wl.files.len(), 1);
        assert_eq!(wl.files[0].size, 4096);
    }

    #[test]
    fn strace_skips_console_and_failed_io() {
        let text = "\
read(0, \"\", 128) = 5
write(1, \"out\", 3) = 3
write(2, \"err\", 3) = 3
open(\"/gone\", O_RDONLY) = -1 ENOENT (No such file)
read(3, \"\", 8192) = -1 EBADF (Bad fd)
read(9, \"\", 8192) = 8192
";
        let wl = parse_strace("t", text).unwrap();
        assert_eq!(wl.io_ops(), 1, "only the fd-9 read survives");
    }

    #[test]
    fn strace_rejects_malformed_known_syscalls() {
        let e = parse_strace("t", "read(zzz, \"\", 1) = 1\n").unwrap_err();
        assert_eq!(e.line, 1);
        assert!(e.to_string().contains("t:1:"), "{e}");
        let e = parse_strace("t", "x\nread(3, \"\", 1) = banana\n").unwrap_err();
        assert_eq!(e.line, 2);
    }

    #[test]
    fn strace_with_no_io_is_an_error() {
        let e = parse_strace("t", "# just a comment\n").unwrap_err();
        assert!(e.msg.contains("no I/O"), "{e}");
    }

    const BLKTRACE: &str = r#"
  8,0    1        1     0.000000000  3001  Q   R 2048 + 8 [app]
  8,0    1        2     0.000120000  3001  G   R 2048 + 8 [app]
  8,0    1        3     0.030000000  3001  Q  RA 4096 + 16 [app]
  8,0    2        4     0.030500000  3002  Q  WS 512 + 8 [flusher]
  8,1    2        5     0.031000000  3002  Q   W 0 + 8 [flusher]
  8,0    2        6     0.040000000  3002  C   W 512 + 8 [0]
CPU1 (8,0):
 Reads Queued:           2,       12KiB
"#;

    #[test]
    fn blktrace_subset_parses_and_validates() {
        let wl = parse_blktrace("d.blk", BLKTRACE).unwrap();
        wl.validate();
        // Two devices -> two pseudo-files; two pids -> two processes.
        assert_eq!(wl.files.len(), 2);
        assert_eq!(wl.processes.len(), 2);
        // Only the four Q records with R/W survive (G and C skipped).
        assert_eq!(wl.io_ops(), 4);
        let reads: Vec<(u64, u64)> = wl.processes[0]
            .ops
            .iter()
            .filter_map(|o| match o {
                Op::Read { offset, len, .. } => Some((*offset, *len)),
                _ => None,
            })
            .collect();
        assert_eq!(reads, vec![(2048 * 512, 8 * 512), (4096 * 512, 16 * 512)]);
        // Timestamp delta (30 ms) became compute for pid 3001.
        assert!(wl.processes[0]
            .ops
            .iter()
            .any(|o| matches!(o, Op::Compute(d) if d.as_millis() == 30)));
    }

    #[test]
    fn blktrace_rejects_malformed_q_records() {
        let e = parse_blktrace("d", "8,0 1 1 0.0 10 Q R 2048 x 8 [a]\n").unwrap_err();
        assert_eq!(e.line, 1);
        let e = parse_blktrace("d", "8,0 1 1 0.0 10 Q R banana + 8 [a]\n").unwrap_err();
        assert!(e.msg.contains("sector"), "{e}");
    }

    #[test]
    fn blktrace_with_no_io_is_an_error() {
        assert!(parse_blktrace("d", "CPU0 (8,0):\n").is_err());
    }

    /// Offsets and sizes past 2^64 bytes are line-numbered errors, not
    /// a wrapped offset or a panic in the workload check.
    #[test]
    fn offsets_past_two_to_the_64_are_line_errors() {
        let open = "4211 0.000112 openat(AT_FDCWD, \"/d\", O_RDONLY) = 3\n";
        let text = format!(
            "{open}4211 0.000390 pread64(3, \"x\"..., 8192, 18446744073709551615) = 8192\n"
        );
        let e = parse_strace("t", &text).unwrap_err();
        assert_eq!(e.line, 2, "{e}");
        assert!(e.msg.contains("past 2^64"), "{e}");
        // The fd cursor: an lseek to 2^63 − 1 and two reads.
        let text = format!(
            "{open}4211 lseek(3, 0, SEEK_END) = 9223372036854775807\n\
             4211 read(3, \"x\", 8192) = 8192\n\
             4211 read(3, \"x\", 9223372036854775807) = 9223372036854775807\n"
        );
        assert_eq!(parse_strace("t", &text).unwrap_err().line, 4);
        for sector in ["36028797018963967", "36028797018963968"] {
            let text = format!("  8,0 1 1 0.000000000 3001 Q R {sector} + 8 [app]\n");
            let e = parse_blktrace("d", &text).unwrap_err();
            assert_eq!(e.line, 1, "{e}");
            assert!(e.msg.contains("past 2^64"), "{e}");
        }
        let e = parse_blktrace("d", "8,0 1 1 0.0 10 Q R 0 + 36028797018963968 [a]\n").unwrap_err();
        assert!(e.msg.contains("sector count"), "{e}");
    }

    /// A timestamp that is not finite is a line error (it used to make
    /// an infinite think time, which panicked), and gaps too large to
    /// add saturate instead of overflowing to infinity.
    #[test]
    fn timestamps_must_be_finite() {
        let blk = |ts: &str, sector: u32| format!("8,0 1 1 {ts} 10 Q R {sector} + 8 [a]\n");
        let e = parse_blktrace("d", &(blk("0.0", 0) + &blk("inf", 8))).unwrap_err();
        assert_eq!(e.line, 2, "{e}");
        assert!(e.msg.contains("finite"), "{e}");
        let e = parse_strace("t", "7 1.0e999 read(3, \"\", 8) = 8\n").unwrap_err();
        assert_eq!(e.line, 1, "{e}");
        // Two gaps of ~1e308 s with no I/O between them add up past
        // f64::MAX seconds, and saturate there.
        let mut st = PidState::new();
        for ts in [0.0, 1.0e308, 0.0, 1.7e308] {
            st.observe_ts(Some(ts)).unwrap();
        }
        assert_eq!(st.pending_gap, f64::MAX);
        // Such a gap is past the headroom of simulated time: the record
        // it leads to is an error on its line, not a panic mid-run.
        let text = "7 0.0 getpid() = 7\n7 1.0e308 getpid() = 7\n7 0.0 getpid() = 7\n\
                    7 1.7e308 read(3, \"\", 8) = 8\n";
        let e = parse_strace("t", text).unwrap_err();
        assert_eq!(e.line, 4, "{e}");
        assert!(e.msg.contains("2^62 ns"), "{e}");
    }

    /// Think time is bounded by the total, not per gap: gaps that each
    /// fit but add up past 2^62 ns fail on the record that crosses it.
    #[test]
    fn think_time_past_the_headroom_names_its_line() {
        let blk = |ts: &str, sector: u32| format!("8,0 1 1 {ts} 10 Q R {sector} + 8 [a]\n");
        let text = blk("0", 0) + &blk("4.0e9", 8) + &blk("8.0e9", 16);
        let e = parse_blktrace("d", &text).unwrap_err();
        assert_eq!(e.line, 3, "{e}");
        assert!(e.msg.contains("2^62 ns"), "{e}");
        let ok = blk("0", 0) + &blk("4.0e9", 8);
        assert_eq!(parse_blktrace("d", &ok).unwrap().processes.len(), 1);
    }

    /// A pid too large for a u64 is a line error, not pid 0.
    #[test]
    fn overflowing_pid_names_its_line() {
        let text = "5 open(\"/a\", O_RDONLY) = 3\n5 read(3, \"\", 8) = 8\n\
                    99999999999999999999 open(\"/b\", O_RDONLY) = 3\n";
        let e = parse_strace("t", text).unwrap_err();
        assert_eq!(e.line, 3, "{e}");
        assert!(e.msg.contains("bad pid \"99999999999999999999\""), "{e}");
        let max = text.replace("99999999999999999999", "18446744073709551615");
        assert!(parse_strace("t", &max).is_ok());
    }

    /// Numbers the fuzz writes over digit runs: 2^55 − 1 and 2^55 (a
    /// sector whose byte offset just fits and just overflows), 2^64 − 1,
    /// and a 20-digit run past it.
    const BIG: [&str; 4] = [
        "36028797018963967",
        "36028797018963968",
        "18446744073709551615",
        "98765432109876543210",
    ];

    /// One to three seeded mutations of `text`, each on one
    /// whitespace-separated field of a random line: a digit run
    /// replaced by a [`BIG`] number, the field dropped, or the field
    /// duplicated.
    fn mutate(rng: &mut Rng64, text: &str) -> String {
        let pick = |rng: &mut Rng64, n: usize| rng.range_u64(0, n as u64 - 1) as usize;
        let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
        for _ in 0..rng.range_u64(1, 3) {
            let i = pick(rng, lines.len());
            let mut fields: Vec<String> = lines[i].split_whitespace().map(str::to_string).collect();
            if fields.is_empty() {
                continue;
            }
            let f = pick(rng, fields.len());
            match rng.range_u64(0, 3) {
                0 | 1 => {
                    let runs = digit_runs(&fields[f]);
                    if !runs.is_empty() {
                        let (a, b) = runs[pick(rng, runs.len())];
                        fields[f].replace_range(a..b, BIG[pick(rng, BIG.len())]);
                    }
                }
                2 => {
                    fields.remove(f);
                }
                _ => {
                    let dup = fields[f].clone();
                    fields.insert(f, dup);
                }
            }
            lines[i] = fields.join(" ");
        }
        lines.join("\n")
    }

    /// Byte ranges of the ASCII digit runs in `s`.
    fn digit_runs(s: &str) -> Vec<(usize, usize)> {
        let mut runs = Vec::new();
        let mut start = None;
        for (i, b) in s.bytes().chain([b' ']).enumerate() {
            match (b.is_ascii_digit(), start) {
                (true, None) => start = Some(i),
                (false, Some(a)) => {
                    runs.push((a, i));
                    start = None;
                }
                _ => {}
            }
        }
        runs
    }

    /// Seeded mutations of the committed strace fixture and of the
    /// blkparse sample: every result is `Ok` or `Err`, never a panic.
    #[test]
    fn mutated_traces_never_panic() {
        type Parse = fn(&str, &str) -> Result<Workload, TraceParseError>;
        let strace_fixture = include_str!("../../../tests/golden/strace_small.txt");
        let cases: [(&str, Parse, &str); 2] = [
            ("strace", parse_strace, strace_fixture),
            ("blkparse", parse_blktrace, BLKTRACE),
        ];
        for (name, parse, text) in cases {
            let (mut ok, mut errs) = (0, 0);
            for seed in 0..3000u64 {
                let mut rng = Rng64::new(seed);
                let mutated = mutate(&mut rng, text);
                match std::panic::catch_unwind(|| parse("fuzz", &mutated)) {
                    Ok(Ok(wl)) => {
                        assert_eq!(wl.check(), Ok(()), "{name} seed {seed}");
                        ok += 1;
                    }
                    Ok(Err(e)) => {
                        assert!(
                            e.line > 0 || e.msg.contains("no I/O"),
                            "{name} seed {seed}: {e}"
                        );
                        errs += 1;
                    }
                    Err(_) => panic!("{name} seed {seed}: the parser panicked on\n{mutated}"),
                }
            }
            assert!(
                ok > 0 && errs > 0,
                "{name}: {ok} ok, {errs} errors — a vacuous fuzz"
            );
        }
    }

    #[test]
    fn split_args_respects_quotes_and_nesting() {
        assert_eq!(split_args("3, \"a,b\", 100"), vec!["3", "\"a,b\"", "100"]);
        assert_eq!(
            split_args("AT_FDCWD, \"/x/y\", O_RDONLY|O_CLOEXEC"),
            vec!["AT_FDCWD", "\"/x/y\"", "O_RDONLY|O_CLOEXEC"]
        );
        assert_eq!(
            split_args("{st_mode=S_IFREG, st_size=1}, 0"),
            vec!["{st_mode=S_IFREG, st_size=1}", "0"]
        );
    }
}
