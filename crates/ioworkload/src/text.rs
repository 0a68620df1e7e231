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
//! Operations attach to the most recently declared `proc`. Tokens are
//! separated by ASCII whitespace (space, `\t`, `\x0B`, `\x0C`, `\r`);
//! other Unicode spaces such as NBSP are token bytes, so a line that
//! uses one fails with a line-numbered error. Lines end at `\n` or
//! `\r\n`, and the last line needs no line end.

use std::fmt::Write as _;

use simkit::SimDuration;

use crate::trace::{FileMeta, Op, OpCheck, ProcessTrace, Workload};
use crate::types::{FileId, NodeId, ProcId};

/// The bytes of a text trace as a `&str`.
///
/// # Errors
/// A [`ParseError`] on the line (counted as `str::lines` counts) of the
/// first byte that is not part of valid UTF-8.
pub fn utf8_text(bytes: &[u8]) -> Result<&str, ParseError> {
    std::str::from_utf8(bytes).map_err(|e| {
        let at = e.valid_up_to();
        ParseError {
            line: 1 + bytes[..at].iter().filter(|&&b| b == b'\n').count(),
            message: format!("invalid UTF-8 (byte 0x{:02x})", bytes[at]),
        }
    })
}

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

    /// [`from_text`](Self::from_text) over the raw bytes of a trace
    /// file, which must be UTF-8.
    ///
    /// # Errors
    /// The line of the first byte that is not UTF-8, or any error of
    /// [`from_text`](Self::from_text).
    pub fn from_bytes(bytes: &[u8]) -> Result<Workload, ParseError> {
        Workload::from_text(utf8_text(bytes)?)
    }

    /// Parse a workload from the text format and [`check`](Workload::check) it.
    ///
    /// One pass over the bytes, with no allocation per line. An
    /// operation line under a `proc` in the form [`to_text`](Self::to_text)
    /// writes (`c N`, `r F O L` or `w F O L`, one space between fields,
    /// ending at `\n`) takes the fast path: one dispatch on its first
    /// byte, and each field read eight digits per step. Any other line —
    /// or an operation line with a sign, more than 19 digits, another
    /// byte, a value over the field's maximum, or too near the end of
    /// the text to read eight bytes — goes whole to a cursor that reads
    /// its directive and then only the fields it needs, stopping at
    /// `#`. The cursor reads a plain run of up to 19 digits with the same
    /// eight-digit reader and hands any other field to `str::parse`, so
    /// every field reads as `str::parse` reads it.
    ///
    /// `check`'s per-operation tests run as each operation is parsed,
    /// against the files declared so far, and the rest of `check` runs
    /// at the end. Only if an operation fails, or uses a file declared
    /// after it, does the full `check` walk run, to name the first
    /// inconsistency exactly as it would.
    ///
    /// # Errors
    /// The first malformed line, by number, or (line 0) a missing
    /// header line or a failed [`check`](Workload::check).
    pub fn from_text(text: &str) -> Result<Workload, ParseError> {
        let bytes = text.as_bytes();
        let mut name = None;
        let mut block_size = None;
        let mut nodes = None;
        let mut files = Vec::new();
        let mut processes: Vec<ProcessTrace> = Vec::new();
        // `check`'s per-operation tests over the current process, and
        // whether the full `check` must name an error at the end.
        let mut ops_check = OpCheck::default();
        let mut recheck = false;

        let mut cur = Cursor {
            text,
            at: 0,
            line: 0,
        };
        loop {
            if let Some(p) = processes.last_mut() {
                while let Some((op, next)) = fast_op(bytes, cur.at) {
                    ops_check.add(&op, &files);
                    p.ops.push(op);
                    cur.at = next;
                    cur.line += 1;
                }
            }
            if cur.at >= text.len() {
                break;
            }
            cur.line += 1;
            if let Some(directive) = cur.token() {
                match directive {
                    "r" | "w" | "c" => {
                        let ops = &mut processes
                            .last_mut()
                            .ok_or_else(|| cur.error("operation before any 'proc' line".into()))?
                            .ops;
                        let op = if directive == "c" {
                            Op::Compute(SimDuration::from_nanos(cur.u64("duration")?))
                        } else {
                            let file = FileId(cur.u32("file id")?);
                            let offset = cur.u64("offset")?;
                            let len = cur.u64("length")?;
                            if directive == "r" {
                                Op::Read { file, offset, len }
                            } else {
                                Op::Write { file, offset, len }
                            }
                        };
                        ops_check.add(&op, &files);
                        ops.push(op);
                    }
                    "workload" => name = Some(cur.field("workload name")?.to_string()),
                    "blocksize" => block_size = Some(cur.u64("block size")?),
                    "nodes" => nodes = Some(cur.u32("node count")?),
                    "file" => {
                        let id = FileId(cur.u32("file id")?);
                        let size = cur.u64("file size")?;
                        files.push(FileMeta { id, size });
                    }
                    "proc" => {
                        let proc = ProcId(cur.u32("proc id")?);
                        let node = NodeId(cur.u32("proc node")?);
                        processes.push(ProcessTrace {
                            proc,
                            node,
                            ops: Vec::new(),
                        });
                        recheck |= !std::mem::take(&mut ops_check).passed();
                    }
                    other => return Err(cur.error(format!("unknown directive {other:?}"))),
                }
            }
            cur.skip_line();
        }
        recheck |= !ops_check.passed();

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
        if recheck {
            wl.check()
        } else {
            wl.check_frame()
        }
        .map_err(|message| ParseError { line: 0, message })?;
        Ok(wl)
    }
}

/// The operation on the line at `at` and the start of the next line,
/// if the line is in exactly the form [`Workload::to_text`] writes;
/// `None` sends the line to the [`Cursor`].
#[inline]
fn fast_op(bytes: &[u8], at: usize) -> Option<(Op, usize)> {
    // The field at `at`, which must end at `sep`, and the index after `sep`.
    let field = |at: usize, sep: u8| -> Option<(u64, usize)> {
        let (value, end) = digits(bytes, at)?;
        (bytes[end] == sep).then_some((value, end + 1))
    };
    if bytes.get(at + 1) != Some(&b' ') {
        return None;
    }
    match bytes[at] {
        b'c' => {
            let (ns, next) = field(at + 2, b'\n')?;
            Some((Op::Compute(SimDuration::from_nanos(ns)), next))
        }
        kind @ (b'r' | b'w') => {
            let (file, at) = field(at + 2, b' ')?;
            let file = FileId(u32::try_from(file).ok()?);
            let (offset, at) = field(at, b' ')?;
            let (len, next) = field(at, b'\n')?;
            let op = if kind == b'r' {
                Op::Read { file, offset, len }
            } else {
                Op::Write { file, offset, len }
            };
            Some((op, next))
        }
        _ => None,
    }
}

/// `b` in every byte of a word.
const fn splat(b: u8) -> u64 {
    u64::from_ne_bytes([b; 8])
}

/// 10^k for the `k` digits one step of [`digits`] reads.
const POW10: [u64; 9] = [
    1,
    10,
    100,
    1_000,
    10_000,
    100_000,
    1_000_000,
    10_000_000,
    100_000_000,
];

/// The run of 1 to [`MAX_DIGITS`] ASCII digits at `at`, read eight
/// bytes per step (SWAR): its value and the index of the byte after
/// it. `None` for no digit, more than `MAX_DIGITS` digits, or a run
/// whose last eight-byte step would read past the end of the text.
#[inline]
fn digits(bytes: &[u8], at: usize) -> Option<(u64, usize)> {
    let (mut value, mut n) = (0u64, 0);
    loop {
        let word = u64::from_le_bytes(bytes.get(at + n..at + n + 8)?.try_into().ok()?);
        // Each byte's digit value; a byte under `0` or over `9` sets its
        // top bit in one of the two terms. Borrows and carries run only
        // upwards from a non-digit, so the lowest flagged byte is
        // exactly the first non-digit.
        let value_bytes = word.wrapping_sub(splat(b'0'));
        let non_digits = (value_bytes | word.wrapping_add(splat(0x7F - b'9'))) & splat(0x80);
        let k = (non_digits.trailing_zeros() / 8) as usize;
        if k > 0 {
            // The k digits into the top bytes, zeros before them, then
            // pairs, quads and the octet, first digit most significant.
            let d = value_bytes << (64 - 8 * k);
            let d = d.wrapping_mul(10 << 8 | 1) >> 8;
            let d = (d & 0x00FF_00FF_00FF_00FF).wrapping_mul(100 << 16 | 1) >> 16;
            let d = (d & 0x0000_FFFF_0000_FFFF).wrapping_mul(10_000 << 32 | 1) >> 32;
            // Wraps only past MAX_DIGITS digits, which fail below.
            value = value.wrapping_mul(POW10[k]).wrapping_add(d);
            n += k;
        }
        if k < 8 || n > MAX_DIGITS {
            break;
        }
    }
    (1..=MAX_DIGITS).contains(&n).then_some((value, at + n))
}

/// Most digits [`digits`] reads: 10^19 - 1 < 2^64, so 19 digits
/// cannot overflow.
const MAX_DIGITS: usize = 19;

/// Byte classes of the format: token bytes (every non-ASCII byte among
/// them), blanks (ASCII whitespace but `\n`), and the two bytes that
/// end a line's tokens, `\n` and `#`.
const TOKEN: u8 = 0;
const BLANK: u8 = 1;
const STOP: u8 = 2;

static CLASS: [u8; 256] = {
    let mut class = [TOKEN; 256];
    class[b' ' as usize] = BLANK;
    class[b'\t' as usize] = BLANK;
    class[0x0B] = BLANK;
    class[0x0C] = BLANK;
    class[b'\r' as usize] = BLANK;
    class[b'\n' as usize] = STOP;
    class[b'#' as usize] = STOP;
    class
};

/// A read position in the trace text and the number of its line.
struct Cursor<'a> {
    text: &'a str,
    at: usize,
    /// 1-based, counted as `str::lines` counts.
    line: usize,
}

impl<'a> Cursor<'a> {
    /// The text from the cursor on.
    fn rest(&self) -> &'a [u8] {
        &self.text.as_bytes()[self.at..]
    }

    /// Length of the run of `class` bytes at the cursor.
    fn run(&self, class: u8) -> usize {
        let rest = self.rest();
        rest.iter()
            .position(|&b| CLASS[b as usize] != class)
            .unwrap_or(rest.len())
    }

    /// The line's next token, or `None` once its tokens end (at the line
    /// end, a `#`, or the end of the text).
    fn token(&mut self) -> Option<&'a str> {
        self.at += self.run(BLANK);
        let start = self.at;
        self.at += self.run(TOKEN);
        // Both ends sit on an ASCII byte or the text's end, so the
        // slice always falls on char boundaries.
        (self.at > start).then(|| &self.text[start..self.at])
    }

    /// Past the rest of the line and its `\n`.
    fn skip_line(&mut self) {
        let rest = self.rest();
        self.at += rest
            .iter()
            .position(|&b| b == b'\n')
            .map_or(rest.len(), |p| p + 1);
    }

    fn error(&self, message: String) -> ParseError {
        ParseError {
            line: self.line,
            message,
        }
    }

    fn field(&mut self, what: &str) -> Result<&'a str, ParseError> {
        self.token()
            .ok_or_else(|| self.error(format!("missing {what}")))
    }

    /// The next field as a number no larger than `max`.
    fn number(&mut self, what: &str, max: u64) -> Result<u64, ParseError> {
        self.at += self.run(BLANK);
        let bytes = self.text.as_bytes();
        if let Some((value, end)) = digits(bytes, self.at) {
            if CLASS[bytes[end] as usize] != TOKEN && value <= max {
                self.at = end;
                return Ok(value);
            }
        }
        // Anything else — a sign, 20 or more digits, another byte, a
        // value over `max`, no token at all, a field in the text's last
        // bytes — takes the general path.
        let tok = self.field(what)?;
        tok.parse()
            .ok()
            .filter(|&v| v <= max)
            .ok_or_else(|| self.error(format!("invalid {what}: {tok:?}")))
    }

    fn u64(&mut self, what: &str) -> Result<u64, ParseError> {
        self.number(what, u64::MAX)
    }

    fn u32(&mut self, what: &str) -> Result<u32, ParseError> {
        let v = self.number(what, u32::MAX.into())?;
        Ok(u32::try_from(v).expect("number() bounds the value by u32::MAX"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::charisma::CharismaParams;
    use crate::reference;
    use crate::sprite::SpriteParams;
    use crate::util::Rng64;

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

    #[test]
    fn fields_parse_as_str_parse_does() {
        for tok in [
            "0",
            "+7",
            "007",
            "+",
            "-",
            "-1",
            "++1",
            "1+",
            "4294967295",
            "4294967296",
            "9999999999999999999",
            "18446744073709551615",
            "18446744073709551616",
            "00000000000000000000042",
            "99999999999999999999999",
            "1a",
            "\u{e9}",
        ] {
            // Unpadded, the field sits in the text's last bytes.
            for tail in ["", " 5", "\t#", "\r\n", "\n                "] {
                let text = format!(" {tok}{tail}");
                let mut cur = Cursor {
                    text: &text,
                    at: 0,
                    line: 1,
                };
                assert_eq!(cur.u64("n").ok(), tok.parse::<u64>().ok(), "{text:?}");
                cur.at = 0;
                assert_eq!(cur.u32("n").ok(), tok.parse::<u32>().ok(), "{text:?}");
            }
        }
    }

    /// The one deliberate narrowing from the reference parser: only
    /// ASCII whitespace separates tokens, so a line that uses NBSP fails
    /// with its line number instead of parsing.
    #[test]
    fn non_ascii_whitespace_fails_with_line_number() {
        let text = "workload t\nblocksize 8192\nnodes 1\nfile 0 8192\nproc 0 0\nr 0\u{a0}0 10\n";
        assert!(reference::from_text(text).is_ok());
        let err = Workload::from_text(text).unwrap_err();
        assert_eq!(err.line, 6);
        assert_eq!(err.message, format!("invalid file id: {:?}", "0\u{a0}0"));
    }

    /// A small CHARISMA or Sprite trace, seeded.
    fn generated_trace(rng: &mut Rng64) -> String {
        let seed = rng.range_u64(0, 499);
        let wl = if rng.chance(0.5) {
            let mut p = CharismaParams::small();
            p.nodes = rng.range_u32(1, 5);
            p.apps = rng.range_u32(1, 2) as usize;
            p.procs_per_app = rng.range_u32(1, 3);
            let fmin = rng.range_u64(16, 63);
            p.file_blocks = (fmin, fmin * 2);
            p.record_blocks = (1, rng.range_u64(1, 5));
            p.passes = (1, 1);
            p.generate(seed)
        } else {
            let mut p = SpriteParams::small();
            p.nodes = rng.range_u32(1, 5);
            p.users = rng.range_u32(1, 4);
            p.files_per_user = rng.range_u32(1, 4);
            p.file_blocks = (1, rng.range_u64(1, 19));
            p.opens_per_user = rng.range_u32(1, 9);
            p.shared_files = 0;
            p.shared_open_prob = 0.0;
            p.generate(seed)
        };
        wl.to_text()
    }

    /// Bytes the ASCII mutations draw from: token bytes, every ASCII
    /// blank, line ends, comment marks and signs.
    const ALPHABET: &[u8] = b"abcrwz019 \t\x0B\x0C\r\n#+-";

    /// One seeded ASCII mutation of `text`.
    fn mutate(rng: &mut Rng64, text: &mut Vec<u8>) {
        let pos = |rng: &mut Rng64, len: usize| rng.range_u64(0, len as u64) as usize;
        let byte = |rng: &mut Rng64| ALPHABET[rng.range_u64(0, ALPHABET.len() as u64 - 1) as usize];
        match rng.range_u64(0, 16) {
            0 if !text.is_empty() => {
                let at = pos(rng, text.len() - 1);
                text[at] = byte(rng);
            }
            1 => {
                let at = pos(rng, text.len());
                let b = byte(rng);
                text.insert(at, b);
            }
            2 if !text.is_empty() => {
                let at = pos(rng, text.len() - 1);
                text.remove(at);
            }
            3 => {
                // Duplicate the line that holds a random byte.
                let at = pos(rng, text.len());
                let start = text[..at]
                    .iter()
                    .rposition(|&b| b == b'\n')
                    .map_or(0, |p| p + 1);
                let end = text[at..]
                    .iter()
                    .position(|&b| b == b'\n')
                    .map_or(text.len(), |p| at + p + 1);
                let line = text[start..end].to_vec();
                text.splice(end..end, line);
            }
            4 => {
                // A `+` before the digit run at or after a random byte.
                let at = pos(rng, text.len());
                if let Some(p) = text[at..].iter().position(u8::is_ascii_digit) {
                    text.insert(at + p, b'+');
                }
            }
            5 => {
                // A 20-to-25-digit number in place of a digit run.
                if let Some(run) = digit_run(text, pos(rng, text.len())) {
                    let digits = rng.range_u64(20, 25) as usize;
                    let big: Vec<u8> = (0..digits).map(|i| b"98765432109"[i % 11]).collect();
                    text.splice(run, big);
                }
            }
            6 => {
                // CRLF line ends on every line.
                let crlf: Vec<u8> = text
                    .iter()
                    .flat_map(|&b| {
                        if b == b'\n' {
                            vec![b'\r', b'\n']
                        } else {
                            vec![b]
                        }
                    })
                    .collect();
                *text = crlf;
            }
            7 => {
                // Every space after a random byte becomes another blank.
                let at = pos(rng, text.len());
                let blank = [b'\t', 0x0B, 0x0C][rng.range_u64(0, 2) as usize];
                for b in &mut text[at..] {
                    if *b == b' ' {
                        *b = blank;
                    }
                }
            }
            8 => {
                let at = pos(rng, text.len());
                let comment: &[u8] =
                    [&b"# note 1 2"[..], b"#", b" #r 0 0 1"][rng.range_u64(0, 2) as usize];
                text.splice(at..at, comment.iter().copied());
            }
            9 if text.last() == Some(&b'\n') => {
                text.pop();
            }
            10 if rng.chance(0.1) => text.clear(),
            11 => {
                // A digit run of a length at an edge of the eight-digit
                // steps or of the 19 digits a u64 always holds.
                if let Some(run) = digit_run(text, pos(rng, text.len())) {
                    let digits = [7, 8, 9, 15, 16, 17, 19, 20][rng.range_u64(0, 7) as usize];
                    let first = [b'0', b'1', b'9'][rng.range_u64(0, 2) as usize];
                    let number: Vec<u8> = std::iter::once(first)
                        .chain((1..digits).map(|i| b"8765432109"[i % 10]))
                        .collect();
                    text.splice(run, number);
                }
            }
            12 => {
                // The file id of an access line at its widest, or one past.
                let at = pos(rng, text.len());
                if let Some(p) = text[at..]
                    .windows(3)
                    .position(|w| matches!(w, [b'\n', b'r' | b'w', b' ']))
                {
                    if let Some(run) = digit_run(text, at + p + 3) {
                        let id: &[u8] =
                            [&b"4294967295"[..], b"4294967296"][rng.range_u64(0, 1) as usize];
                        text.splice(run, id.iter().copied());
                    }
                }
            }
            13 => {
                // The text ends right after a number, with no line end.
                if let Some(run) = digit_run(text, pos(rng, text.len())) {
                    text.truncate(run.end);
                }
            }
            14 => {
                // A comment mark directly after a number.
                if let Some(run) = digit_run(text, pos(rng, text.len())) {
                    text.insert(run.end, b'#');
                }
            }
            15 => {
                // An operation line before the first `proc` line.
                let at = text
                    .windows(5)
                    .position(|w| w == b"proc ")
                    .unwrap_or(text.len());
                let op: &[u8] =
                    [&b"c 7\n"[..], b"r 0 0 1\n", b"w 0 8 8\n"][rng.range_u64(0, 2) as usize];
                text.splice(at..at, op.iter().copied());
            }
            16 => {
                // A `file` line moved to the end: declared after its use.
                if let Some(start) = text.windows(6).position(|w| w == b"\nfile ") {
                    let end = text[start + 1..]
                        .iter()
                        .position(|&b| b == b'\n')
                        .map_or(text.len(), |q| start + 2 + q);
                    let line: Vec<u8> = text.drain(start + 1..end).collect();
                    text.extend(line);
                }
            }
            _ => {}
        }
    }

    /// The digit run at or after byte `at` of `text`, if any.
    fn digit_run(text: &[u8], at: usize) -> Option<std::ops::Range<usize>> {
        let start = at + text[at..].iter().position(u8::is_ascii_digit)?;
        let end = text[start..]
            .iter()
            .position(|b| !b.is_ascii_digit())
            .map_or(text.len(), |q| start + q);
        Some(start..end)
    }

    /// Both parsers' verdicts on `text`, comparable: the rendered
    /// workload, or the error's line and message.
    fn verdict(r: Result<Workload, ParseError>) -> Result<String, (usize, String)> {
        r.map(|wl| wl.to_text()).map_err(|e| (e.line, e.message))
    }

    /// Differential fuzz: seeded ASCII mutations of generated CHARISMA
    /// and Sprite traces give the one-pass parser and the reference
    /// parser the same verdict — an equal workload or an equal error
    /// (line and message). Arbitrary non-ASCII bytes never panic, and
    /// agree too unless they put Unicode whitespace between tokens.
    #[test]
    fn parser_rejects_garbage_gracefully() {
        let (mut oks, mut errs) = (0, 0);
        for case in 0..160u64 {
            let mut rng = Rng64::new(case ^ 0x6A4B);
            let trace = generated_trace(&mut rng);
            for m in 0..12u64 {
                let mut text = trace.clone().into_bytes();
                for _ in 0..rng.range_u64(1, 4) {
                    mutate(&mut rng, &mut text);
                }
                let text = String::from_utf8(text).expect("ASCII mutations");
                let got = verdict(Workload::from_text(&text));
                assert_eq!(
                    got,
                    verdict(reference::from_text(&text)),
                    "case {case}/{m}:\n{text}"
                );
                if got.is_ok() {
                    oks += 1;
                } else {
                    errs += 1;
                }
            }
            // Raw bytes and whole non-ASCII chars (Unicode spaces among
            // them), read lossily. Parsing must not panic either way.
            let mut bytes = trace.into_bytes();
            for _ in 0..rng.range_u64(1, 8) {
                let at = rng.range_u64(0, bytes.len() as u64) as usize;
                let b = rng.range_u64(0, 255) as u8;
                if rng.chance(0.3) {
                    let c = [
                        "\u{a0}", "\u{85}", "\u{2003}", "\u{3000}", "\u{e9}", "\u{fffd}",
                    ][rng.range_u64(0, 5) as usize];
                    bytes.splice(at..at, c.bytes());
                } else if at < bytes.len() && rng.chance(0.5) {
                    bytes[at] = b;
                } else {
                    bytes.insert(at, b);
                }
            }
            let text = String::from_utf8_lossy(&bytes);
            let got = verdict(Workload::from_text(&text));
            if !text.chars().any(|c| c.is_whitespace() && !c.is_ascii()) {
                assert_eq!(
                    got,
                    verdict(reference::from_text(&text)),
                    "case {case}:\n{text}"
                );
            }
        }
        assert!(
            oks > 100 && errs > 100,
            "the fuzz reaches both verdicts: {oks} ok, {errs} err"
        );
    }

    /// The eight-digit reader gives `str::parse`'s value for every run
    /// of 1 to 19 digits, whatever ends it, and declines the rest.
    #[test]
    fn digits_read_as_str_parse_does() {
        for len in 0..=24 {
            for first in ['0', '1', '9'] {
                let run: String = std::iter::once(first)
                    .chain((1..len).map(|i| char::from(b"8765432109"[i % 10])))
                    .take(len)
                    .collect();
                for tail in [" ", "\n", "#", "x", "\u{e9}", "+"] {
                    let text = format!("{run}{tail}{}", " ".repeat(24));
                    let got = digits(text.as_bytes(), 0);
                    let want = (1..=MAX_DIGITS)
                        .contains(&len)
                        .then(|| (run.parse::<u64>().unwrap(), len));
                    assert_eq!(got, want, "{text:?}");
                    // Near the end of the text, it reads the run only if
                    // every word it loads fits in the text.
                    let short = format!("{run}{tail}");
                    let fits = short.len() >= 8 * (len / 8 + 1);
                    let want = want.filter(|_| fits);
                    assert_eq!(digits(short.as_bytes(), 0), want, "{short:?}");
                }
            }
        }
    }

    /// The fast path's operation is the one the cursor reads off the
    /// same line, and a line it does not take falls through whole.
    #[test]
    fn fast_path_takes_only_canonical_operation_lines() {
        let pad = " ".repeat(24);
        let op = |line: &str| fast_op(format!("{line}{pad}").as_bytes(), 0).map(|(op, _)| op);
        let read = |file, offset, len| Op::Read {
            file: FileId(file),
            offset,
            len,
        };
        assert_eq!(op("r 3 81920 8192\n"), Some(read(3, 81920, 8192)));
        assert_eq!(
            op("w 4294967295 0 1\n"),
            Some(Op::Write {
                file: FileId(u32::MAX),
                offset: 0,
                len: 1
            })
        );
        assert_eq!(
            op("c 18446744073709551615\n"),
            None,
            "20 digits go to the cursor"
        );
        assert_eq!(
            op("c 9999999999999999999\n"),
            Some(Op::Compute(SimDuration::from_nanos(
                9_999_999_999_999_999_999
            )))
        );
        for line in [
            "r 4294967296 0 1\n",
            "r 0 0 1 \n",
            "r 0 0 1#\n",
            "r 0 0 1\r\n",
            "r 0  0 1\n",
            "r\t0 0 1\n",
            " r 0 0 1\n",
            "r 0 +0 1\n",
            "r 0 0\n",
            "c 5 6\n",
            "rw 0 0 1\n",
            "x 0 0 1\n",
        ] {
            assert_eq!(op(line), None, "{line:?}");
        }
        // The next line starts after the line end.
        assert_eq!(
            fast_op(format!("c 12\nr{pad}").as_bytes(), 0).map(|(_, at)| at),
            Some(5)
        );
    }

    /// Paper-scale traces, the ones the benchmark ingests, render back
    /// to the same text.
    #[test]
    fn paper_scale_traces_round_trip() {
        for wl in [
            CharismaParams::paper().generate(42),
            SpriteParams::paper().generate(42),
        ] {
            let text = wl.to_text();
            let back = Workload::from_text(&text).unwrap();
            assert!(back.to_text() == text, "{} round-trips", wl.name);
        }
    }

    /// `check`'s per-operation tests, folded into the scan, give the
    /// verdict `check` gives, including for an access to a file the
    /// text declares only after it and for a compute total past the
    /// headroom of simulated time.
    #[test]
    fn folded_check_agrees_with_check() {
        let head = "workload t\nblocksize 8192\nnodes 2\nfile 0 8192\n";
        let max = Workload::MAX_COMPUTE_NS;
        for body in [
            "proc 0 0\nr 0 0 8192\n".to_string(),
            "proc 0 0\nr 0 1 8192\n".into(),
            "proc 0 0\nr 0 0 0\n".into(),
            "proc 0 0\nr 1 0 8\nfile 1 8\n".into(),
            "proc 0 0\nr 1 0 9\nfile 1 8\n".into(),
            "proc 0 5\nr 0 1 8192\n".into(),
            "proc 0 0\nr 0 18446744073709551615 1\n".into(),
            format!("proc 0 0\nc {max}\nr 0 0 1\nproc 1 1\nc {max}\n"),
            format!("proc 0 0\nc {max}\nc 1\nr 0 0 1\n"),
            format!("proc 0 0\nc {max}\nr 0 0 9999\nc 1\n"),
            "proc 0 0\nc 18446744073709551615\nc 18446744073709551615\n".into(),
        ] {
            let text = format!("{head}{body}");
            assert_eq!(
                verdict(Workload::from_text(&text)),
                verdict(reference::from_text(&text)),
                "{text}"
            );
        }
        let text = format!("{head}proc 0 0\nc {max}\nc 1\n");
        let err = Workload::from_text(&text).unwrap_err();
        assert_eq!(
            (err.line, err.message.contains("process 0 computes")),
            (0, true),
            "{err}"
        );
    }

    #[test]
    fn invalid_utf8_names_its_line() {
        let mut bytes = b"workload w\nblocksize 8\nnodes 1\nfile 0 64\nproc 0 0\nr 0 ".to_vec();
        bytes.extend_from_slice(b"\xff0 8\n");
        let err = Workload::from_bytes(&bytes).unwrap_err();
        assert_eq!(err.line, 6);
        assert_eq!(err.to_string(), "line 6: invalid UTF-8 (byte 0xff)");
        // A truncated multi-byte sequence on the last, unterminated line.
        let err = utf8_text(b"a\r\nb\nc\xe2\x82").unwrap_err();
        assert_eq!(err.line, 3);
        assert_eq!(utf8_text(b"ok\n").unwrap(), "ok\n");
    }
}
