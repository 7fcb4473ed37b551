//! Graph file formats: whitespace edge lists, DIMACS `.clq` and METIS.
//!
//! The three readers take any [`BufRead`] (a file behind a `BufReader`, or
//! `text.as_bytes()`) and share one byte-level tokenizer. Lines end at
//! `\n`; tokens are separated by ASCII blanks (space, tab, `\r`, vertical
//! tab, form feed), so CRLF files read like LF ones; numbers are ASCII
//! digits with an optional leading `+`. A file is tokenized once, in one
//! pass, into one flat edge buffer, and [`Graph::from_edges`] turns that
//! buffer into CSR in two passes (count degrees, then fill, sort and dedup
//! each row in place). Peak memory is that one edge buffer plus the CSR:
//! there is no whole-file string and no per-vertex list.
//!
//! Nothing is decoded as text, so comment lines may hold any bytes,
//! including non-UTF-8 ones. Vertex ids must fit `u32`: an id of `u32::MAX`
//! or more (after the 1-based shift), a DIMACS `p edge` or METIS vertex
//! count above `u32::MAX`, and a number that overflows `u64` are each a
//! line-numbered [`IoError::Parse`], raised before anything is sized by
//! them. No buffer is sized from a header's edge count.
//!
//! All readers are forgiving about comments and blank lines. DIMACS and
//! METIS ids are 1-based by specification; edge lists take an explicit
//! flag.

use crate::graph::{Graph, VertexId};
use std::fmt;
use std::fs;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::Path;

/// Errors produced by the parsers.
#[derive(Debug)]
pub enum IoError {
    /// Underlying filesystem error.
    Io(std::io::Error),
    /// Malformed content with a line number and message.
    Parse {
        /// 1-based line of the offending record (0 when file-level).
        line: usize,
        /// Human-readable description of the problem.
        msg: String,
    },
}

impl fmt::Display for IoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IoError::Io(e) => write!(f, "i/o error: {e}"),
            IoError::Parse { line, msg } => write!(f, "parse error at line {line}: {msg}"),
        }
    }
}

impl std::error::Error for IoError {}

impl From<std::io::Error> for IoError {
    fn from(e: std::io::Error) -> Self {
        IoError::Io(e)
    }
}

/// A file-level parse error (line 0).
fn file_error(msg: String) -> IoError {
    IoError::Parse { line: 0, msg }
}

/// Bytes that separate tokens within a line: the ASCII characters
/// `char::is_whitespace` accepts, minus the line feed that ends a line.
fn is_blank(b: u8) -> bool {
    matches!(b, b' ' | b'\t' | b'\r' | 0x0B | 0x0C)
}

fn ends_token(b: u8) -> bool {
    b == b'\n' || is_blank(b)
}

/// What a line holds after its leading blanks.
enum Head {
    /// End of input: the line has no bytes at all.
    Eof,
    /// Nothing but blanks up to the line feed or the end of input.
    Blank,
    /// The first non-blank byte, not yet consumed.
    Byte(u8),
}

/// The byte tokenizer the three readers share. It scans a window copied
/// out of the reader's buffer one `fill_buf` at a time, so every token
/// step is an index into a slice and tokens may straddle windows.
struct Lexer<R> {
    src: R,
    window: Box<[u8]>,
    /// Next unread byte of `window[..end]`.
    pos: usize,
    end: usize,
    /// 1-based line of the next unread byte.
    line: usize,
}

impl<R: BufRead> Lexer<R> {
    fn new(src: R) -> Self {
        Lexer {
            src,
            window: vec![0; 1 << 13].into_boxed_slice(),
            pos: 0,
            end: 0,
            line: 1,
        }
    }

    /// A parse error on the current line.
    fn error(&self, msg: impl Into<String>) -> IoError {
        IoError::Parse {
            line: self.line,
            msg: msg.into(),
        }
    }

    /// The next unread byte, `None` at the end of input.
    #[inline]
    fn peek(&mut self) -> Result<Option<u8>, IoError> {
        if self.pos < self.end {
            return Ok(Some(self.window[self.pos]));
        }
        self.refill()
    }

    #[cold]
    fn refill(&mut self) -> Result<Option<u8>, IoError> {
        let chunk = self.src.fill_buf()?;
        let n = chunk.len().min(self.window.len());
        self.window[..n].copy_from_slice(&chunk[..n]);
        self.src.consume(n);
        (self.pos, self.end) = (0, n);
        Ok(self.window[..n].first().copied())
    }

    /// Consumes blanks; returns whether there were any.
    fn skip_blanks(&mut self) -> Result<bool, IoError> {
        let mut skipped = false;
        while let Some(b) = self.peek()? {
            if !is_blank(b) {
                break;
            }
            self.pos += 1;
            skipped = true;
        }
        Ok(skipped)
    }

    /// Skips the line's leading blanks and reports what follows.
    fn head(&mut self) -> Result<Head, IoError> {
        let skipped = self.skip_blanks()?;
        Ok(match self.peek()? {
            None if !skipped => Head::Eof,
            None | Some(b'\n') => Head::Blank,
            Some(b) => Head::Byte(b),
        })
    }

    /// Consumes the rest of the line, its line feed included.
    fn next_line(&mut self) -> Result<(), IoError> {
        while let Some(b) = self.peek()? {
            self.pos += 1;
            if b == b'\n' {
                self.line += 1;
                break;
            }
        }
        Ok(())
    }

    /// Reads the line's next token, keeping its first `N` bytes. Returns
    /// them with the token's full length, 0 when the line has no more
    /// tokens.
    fn word<const N: usize>(&mut self) -> Result<([u8; N], usize), IoError> {
        self.skip_blanks()?;
        let (mut out, mut len) = ([0u8; N], 0);
        while let Some(b) = self.peek()? {
            if ends_token(b) {
                break;
            }
            if let Some(slot) = out.get_mut(len) {
                *slot = b;
            }
            self.pos += 1;
            len += 1;
        }
        Ok((out, len))
    }

    /// Reads the line's next token as a decimal number: `None` when the
    /// line has no more tokens, an error when the token is not a number or
    /// overflows `u64`.
    fn num(&mut self) -> Result<Option<u64>, IoError> {
        self.skip_blanks()?;
        let signed = self.peek()? == Some(b'+');
        if signed {
            self.pos += 1;
        }
        let (mut value, mut digits, mut overflow) = (0u64, 0, false);
        let stop = loop {
            match self.peek()? {
                Some(b) if b.is_ascii_digit() => {
                    let d = u64::from(b - b'0');
                    if digits < 19 {
                        value = value * 10 + d;
                    } else {
                        match value.checked_mul(10).and_then(|v| v.checked_add(d)) {
                            Some(v) => value = v,
                            None => overflow = true,
                        }
                    }
                    digits += 1;
                    self.pos += 1;
                }
                stop => break stop,
            }
        };
        match stop {
            Some(b) if !ends_token(b) => Err(self.error(format!(
                "invalid number: unexpected byte {:?}",
                char::from(b)
            ))),
            _ if digits == 0 && signed => Err(self.error("invalid number: `+` without digits")),
            _ if digits == 0 => Ok(None),
            _ if overflow => Err(self.error("number overflows u64")),
            _ => Ok(Some(value)),
        }
    }

    /// The line's next token as a number; `what` names it when missing.
    fn number(&mut self, what: &str) -> Result<u64, IoError> {
        self.num()?
            .ok_or_else(|| self.error(format!("missing {what}")))
    }

    /// A 0-based vertex id: it must leave room for `n = id + 1 ≤ u32::MAX`.
    fn vertex_id(&self, id: u64) -> Result<VertexId, IoError> {
        VertexId::try_from(id)
            .ok()
            .filter(|&v| v < VertexId::MAX)
            .ok_or_else(|| self.error(format!("vertex id {id} does not fit u32")))
    }

    /// A declared vertex count: at most `u32::MAX`.
    fn vertex_count(&self, n: u64) -> Result<usize, IoError> {
        u32::try_from(n)
            .map(|n| n as usize)
            .map_err(|_| self.error(format!("vertex count {n} does not fit u32")))
    }
}

/// Parses a whitespace-separated edge list. Lines starting with `#`, `%` or
/// `c ` are comments; columns after the first two are ignored. Vertex ids
/// may be any non-negative integers below `u32::MAX`; the graph is sized by
/// the maximum id (+1). If `one_based`, ids are shifted down by one.
pub fn parse_edge_list(src: impl BufRead, one_based: bool) -> Result<Graph, IoError> {
    let mut lex = Lexer::new(src);
    let mut edges: Vec<(VertexId, VertexId)> = Vec::new();
    let mut n = 0usize;
    let id = |lex: &mut Lexer<_>| -> Result<VertexId, IoError> {
        let raw = lex.number("vertex id (expected two)")?;
        let id = match (one_based, raw) {
            (true, 0) => return Err(lex.error("vertex id 0 in a 1-based edge list")),
            (true, _) => raw - 1,
            (false, _) => raw,
        };
        lex.vertex_id(id)
    };
    loop {
        match lex.head()? {
            Head::Eof => break,
            Head::Blank | Head::Byte(b'#' | b'%') => {}
            Head::Byte(b'c') => {
                // `c <text>` is a comment; any other token starting with
                // `c`, or a bare `c`, is a malformed record.
                let (_, len) = lex.word::<1>()?;
                let comment =
                    len == 1 && lex.peek()? == Some(b' ') && matches!(lex.head()?, Head::Byte(_));
                if !comment {
                    return Err(lex.error("expected two vertex ids"));
                }
            }
            Head::Byte(_) => {
                let u = id(&mut lex)?;
                let v = id(&mut lex)?;
                n = n.max(u.max(v) as usize + 1);
                edges.push((u, v));
            }
        }
        lex.next_line()?;
    }
    Ok(Graph::from_edges(n, &edges))
}

/// Parses a DIMACS `.clq`/`.col` graph: `c` comment lines, a
/// `p edge <n> <m>` header and `e <u> <v>` edge lines with 1-based ids.
/// The last header wins; its edge count is not used.
pub fn parse_dimacs(src: impl BufRead) -> Result<Graph, IoError> {
    let mut lex = Lexer::new(src);
    let mut n: Option<usize> = None;
    let mut edges: Vec<(VertexId, VertexId)> = Vec::new();
    let id = |lex: &mut Lexer<_>| -> Result<VertexId, IoError> {
        match lex.number("endpoint")? {
            0 => Err(lex.error("DIMACS ids are 1-based")),
            raw => lex.vertex_id(raw - 1),
        }
    };
    loop {
        match lex.head()? {
            Head::Eof => break,
            Head::Blank | Head::Byte(b'c') => {}
            Head::Byte(_) => match lex.word::<1>()? {
                ([b'p'], 1) => {
                    lex.word::<0>()?; // the format, `edge` or `col`
                    let count = lex.number("vertex count")?;
                    n = Some(lex.vertex_count(count)?);
                }
                ([b'e'], 1) => {
                    let u = id(&mut lex)?;
                    let v = id(&mut lex)?;
                    edges.push((u, v));
                }
                _ => return Err(lex.error("unknown record (expected `c`, `p` or `e`)")),
            },
        }
        lex.next_line()?;
    }
    let n = n.ok_or_else(|| file_error("missing `p edge` header".into()))?;
    if let Some(&(u, v)) = edges.iter().find(|&&(u, v)| u.max(v) as usize >= n) {
        return Err(file_error(format!(
            "edge ({}, {}) exceeds declared n = {n}",
            u + 1,
            v + 1
        )));
    }
    Ok(Graph::from_edges(n, &edges))
}

/// Parses a METIS graph file (the DIMACS10 distribution format): a header
/// `<n> <m> [fmt]` followed by one line per vertex listing its (1-based)
/// neighbours. Only unweighted graphs (`fmt` 0 or absent) are supported.
/// `%` lines are comments anywhere; one-sided adjacency entries are
/// symmetrised.
pub fn parse_metis(src: impl BufRead) -> Result<Graph, IoError> {
    let mut lex = Lexer::new(src);
    // Blank lines before the header are skipped, but *blank* lines after it
    // are meaningful: they are the adjacency rows of isolated vertices.
    loop {
        match lex.head()? {
            Head::Eof => return Err(file_error("empty METIS file".into())),
            Head::Blank | Head::Byte(b'%') => lex.next_line()?,
            Head::Byte(_) => break,
        }
    }
    let header = lex.line;
    let count = lex.number("vertex count")?;
    let n = lex.vertex_count(count)?;
    let declared_m = lex.number("edge count")?;
    let (fmt, len) = lex.word::<3>()?;
    if len > 3 || fmt[..len].iter().any(|&b| b != b'0') {
        return Err(lex.error("unsupported METIS fmt (weights not supported)"));
    }
    lex.next_line()?;
    let mut edges: Vec<(VertexId, VertexId)> = Vec::new();
    let mut row = 0usize;
    loop {
        match lex.head()? {
            Head::Eof => break,
            Head::Byte(b'%') => {}
            // Trailing blank lines are tolerated.
            Head::Blank if row >= n => {}
            _ if row >= n => return Err(lex.error("more adjacency rows than declared vertices")),
            _ => {
                while let Some(v) = lex.num()? {
                    if v == 0 || v > n as u64 {
                        return Err(lex.error(format!("neighbour id {v} out of range 1..={n}")));
                    }
                    edges.push((row as VertexId, (v - 1) as VertexId));
                }
                row += 1;
            }
        }
        lex.next_line()?;
    }
    if row != n {
        return Err(file_error(format!(
            "expected {n} adjacency rows, found {row}"
        )));
    }
    let g = Graph::from_edges(n, &edges);
    if g.m() as u64 != declared_m {
        return Err(IoError::Parse {
            line: header,
            msg: format!("header declares {declared_m} edges, file has {}", g.m()),
        });
    }
    Ok(g)
}

/// Parses `src` in the format `path`'s extension names: `.clq`/`.col`/
/// `.dimacs` → DIMACS, `.graph`/`.metis` → METIS, everything else →
/// 0-based edge list. `path` only selects the format; nothing is opened.
pub fn parse_by_extension(path: &Path, src: impl BufRead) -> Result<Graph, IoError> {
    match path.extension().and_then(|e| e.to_str()) {
        Some("clq" | "col" | "dimacs") => parse_dimacs(src),
        Some("graph" | "metis") => parse_metis(src),
        _ => parse_edge_list(src, false),
    }
}

/// Reads a graph file, streaming it through [`parse_by_extension`].
pub fn read_graph(path: &Path) -> Result<Graph, IoError> {
    let file = fs::File::open(path)?;
    parse_by_extension(path, BufReader::new(file))
}

/// Creates `path`, lets `body` write it through a buffer, and flushes,
/// so a failed write surfaces as an error instead of being dropped.
fn write_buffered(
    path: &Path,
    body: impl FnOnce(&mut BufWriter<fs::File>) -> std::io::Result<()>,
) -> Result<(), IoError> {
    let mut out = BufWriter::new(fs::File::create(path)?);
    body(&mut out)?;
    out.flush()?;
    Ok(())
}

/// Serialises a graph in METIS format.
pub fn write_metis(g: &Graph, path: &Path) -> Result<(), IoError> {
    write_buffered(path, |f| {
        writeln!(f, "{} {}", g.n(), g.m())?;
        for v in g.vertices() {
            for (i, w) in g.neighbors(v).iter().enumerate() {
                let sep = if i == 0 { "" } else { " " };
                write!(f, "{sep}{}", w + 1)?;
            }
            writeln!(f)?;
        }
        Ok(())
    })
}

/// Serialises a graph as a 0-based edge list with a `#` header.
pub fn write_edge_list(g: &Graph, path: &Path) -> Result<(), IoError> {
    write_buffered(path, |f| {
        writeln!(f, "# n = {} m = {}", g.n(), g.m())?;
        for (u, v) in g.edges() {
            writeln!(f, "{u} {v}")?;
        }
        Ok(())
    })
}

/// Serialises a graph in DIMACS `.clq` format (1-based).
pub fn write_dimacs(g: &Graph, path: &Path) -> Result<(), IoError> {
    write_buffered(path, |f| {
        writeln!(f, "c generated by kdc-suite")?;
        writeln!(f, "p edge {} {}", g.n(), g.m())?;
        for (u, v) in g.edges() {
            writeln!(f, "e {} {}", u + 1, v + 1)?;
        }
        Ok(())
    })
}

/// The line-based `&str` readers this module had before the byte
/// tokenizer, kept as the differential oracle for `tests`: the same logic
/// with shorter error messages. They build graphs through per-vertex
/// lists, independently of [`Graph::from_edges`].
#[cfg(test)]
mod oracle {
    use super::IoError;
    use crate::graph::{Graph, VertexId};
    use std::str::FromStr;

    fn from_edges(n: usize, edges: &[(VertexId, VertexId)]) -> Graph {
        let mut adj: Vec<Vec<VertexId>> = vec![Vec::new(); n];
        for &(u, v) in edges {
            assert!((u as usize) < n && (v as usize) < n);
            if u != v {
                adj[u as usize].push(v);
                adj[v as usize].push(u);
            }
        }
        Graph::from_adjacency(adj)
    }

    fn parse_token<T: FromStr>(tok: &str, line: usize) -> Result<T, IoError> {
        tok.parse().map_err(|_| IoError::Parse {
            line,
            msg: format!("invalid number {tok:?}"),
        })
    }

    pub(super) fn parse_edge_list(text: &str, one_based: bool) -> Result<Graph, IoError> {
        let mut edges: Vec<(VertexId, VertexId)> = Vec::new();
        let mut max_id: u64 = 0;
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with(['#', '%']) || line.starts_with("c ") {
                continue;
            }
            let mut it = line.split_whitespace();
            let (Some(a), Some(b)) = (it.next(), it.next()) else {
                return Err(IoError::Parse {
                    line: lineno + 1,
                    msg: "expected two vertex ids".into(),
                });
            };
            let mut u: u64 = parse_token(a, lineno + 1)?;
            let mut v: u64 = parse_token(b, lineno + 1)?;
            if one_based {
                if u == 0 || v == 0 {
                    return Err(IoError::Parse {
                        line: lineno + 1,
                        msg: "vertex id 0 in a 1-based edge list".into(),
                    });
                }
                u -= 1;
                v -= 1;
            }
            max_id = max_id.max(u).max(v);
            edges.push((u as VertexId, v as VertexId));
        }
        let n = if edges.is_empty() {
            0
        } else {
            (max_id + 1) as usize
        };
        Ok(from_edges(n, &edges))
    }

    pub(super) fn parse_dimacs(text: &str) -> Result<Graph, IoError> {
        let mut n: Option<usize> = None;
        let mut edges: Vec<(VertexId, VertexId)> = Vec::new();
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('c') {
                continue;
            }
            let missing = |msg: &str| IoError::Parse {
                line: lineno + 1,
                msg: msg.into(),
            };
            let mut it = line.split_whitespace();
            match it.next() {
                Some("p") => {
                    let _fmt = it.next();
                    let tok = it.next().ok_or(missing("missing vertex count"))?;
                    n = Some(parse_token(tok, lineno + 1)?);
                }
                Some("e") => {
                    let u: usize =
                        parse_token(it.next().ok_or(missing("missing endpoint"))?, lineno + 1)?;
                    let v: usize =
                        parse_token(it.next().ok_or(missing("missing endpoint"))?, lineno + 1)?;
                    if u == 0 || v == 0 {
                        return Err(missing("DIMACS ids are 1-based"));
                    }
                    edges.push(((u - 1) as VertexId, (v - 1) as VertexId));
                }
                Some(other) => {
                    return Err(missing(&format!("unknown record {other:?}")));
                }
                None => {}
            }
        }
        let n = n.ok_or(IoError::Parse {
            line: 0,
            msg: "missing `p edge` header".into(),
        })?;
        if edges
            .iter()
            .any(|&(u, v)| u as usize >= n || v as usize >= n)
        {
            return Err(IoError::Parse {
                line: 0,
                msg: "edge exceeds declared n".into(),
            });
        }
        Ok(from_edges(n, &edges))
    }

    pub(super) fn parse_metis(text: &str) -> Result<Graph, IoError> {
        let mut lines = text
            .lines()
            .enumerate()
            .filter(|(_, l)| !l.trim_start().starts_with('%'));
        let (header_no, header) =
            lines
                .by_ref()
                .find(|(_, l)| !l.trim().is_empty())
                .ok_or(IoError::Parse {
                    line: 0,
                    msg: "empty METIS file".into(),
                })?;
        let at_header = |msg: &str| IoError::Parse {
            line: header_no + 1,
            msg: msg.into(),
        };
        let mut it = header.split_whitespace();
        let n: usize = parse_token(
            it.next().ok_or(at_header("missing vertex count"))?,
            header_no + 1,
        )?;
        let declared_m: usize = parse_token(
            it.next().ok_or(at_header("missing edge count"))?,
            header_no + 1,
        )?;
        if let Some(fmt) = it.next() {
            if fmt != "0" && fmt != "00" && fmt != "000" {
                return Err(at_header("unsupported METIS fmt"));
            }
        }
        let mut adj: Vec<Vec<VertexId>> = vec![Vec::new(); n];
        let mut row = 0usize;
        for (lineno, line) in lines {
            if row >= n {
                if line.trim().is_empty() {
                    continue;
                }
                return Err(IoError::Parse {
                    line: lineno + 1,
                    msg: "more adjacency rows than declared vertices".into(),
                });
            }
            for tok in line.split_whitespace() {
                let v: usize = parse_token(tok, lineno + 1)?;
                if v == 0 || v > n {
                    return Err(IoError::Parse {
                        line: lineno + 1,
                        msg: "neighbour id out of range".into(),
                    });
                }
                adj[row].push((v - 1) as VertexId);
            }
            row += 1;
        }
        if row != n {
            return Err(IoError::Parse {
                line: 0,
                msg: "row count mismatch".into(),
            });
        }
        let mut edges: Vec<(VertexId, VertexId)> = Vec::new();
        for (u, list) in adj.iter().enumerate() {
            for &v in list {
                edges.push((u as VertexId, v));
            }
        }
        let g = from_edges(n, &edges);
        if g.m() != declared_m {
            return Err(at_header("edge count mismatch"));
        }
        Ok(g)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::seeded_rng;
    use proptest::prelude::*;
    use proptest::test_runner::TestCaseError;
    use rand::rngs::SmallRng;
    use rand::RngExt;

    #[test]
    fn edge_list_roundtrip() {
        let text = "# comment\n0 1\n1 2\n\n% another comment\n2 3\n";
        let g = parse_edge_list(text.as_bytes(), false).unwrap();
        assert_eq!(g.n(), 4);
        assert_eq!(g.m(), 3);
    }

    #[test]
    fn edge_list_one_based() {
        let g = parse_edge_list(&b"1 2\n2 3\n"[..], true).unwrap();
        assert_eq!(g.n(), 3);
        assert!(g.has_edge(0, 1) && g.has_edge(1, 2));
    }

    #[test]
    fn edge_list_rejects_zero_in_one_based() {
        assert!(parse_edge_list(&b"0 1\n"[..], true).is_err());
    }

    #[test]
    fn edge_list_rejects_garbage() {
        let err = parse_edge_list(&b"0 x\n"[..], false).unwrap_err();
        assert!(matches!(err, IoError::Parse { line: 1, .. }));
    }

    fn parse_line(r: Result<Graph, IoError>) -> usize {
        match r {
            Err(IoError::Parse { line, .. }) => line,
            other => panic!("expected a parse error, got {other:?}"),
        }
    }

    #[test]
    fn edge_list_rejects_ids_that_do_not_fit_u32() {
        let parse = |text: &str, one_based| parse_line(parse_edge_list(text.as_bytes(), one_based));
        assert_eq!(parse("0 1\n0 4294967297\n", false), 2);
        assert_eq!(parse("4294967295 0\n", false), 1, "u32::MAX itself");
        assert_eq!(
            parse("# x\n1 4294967296\n", true),
            2,
            "u32::MAX after the shift"
        );
        assert_eq!(parse("0 18446744073709551616\n", false), 1, "u64 overflow");
    }

    #[test]
    fn dimacs_roundtrip() {
        let text = "c sample\np edge 4 3\ne 1 2\ne 2 3\ne 3 4\n";
        let g = parse_dimacs(text.as_bytes()).unwrap();
        assert_eq!(g.n(), 4);
        assert_eq!(g.m(), 3);
        assert!(g.has_edge(0, 1));
    }

    #[test]
    fn dimacs_requires_header() {
        assert!(parse_dimacs(&b"e 1 2\n"[..]).is_err());
    }

    #[test]
    fn dimacs_bounds_check() {
        assert!(parse_dimacs(&b"p edge 2 1\ne 1 5\n"[..]).is_err());
    }

    #[test]
    fn dimacs_rejects_counts_and_ids_that_do_not_fit_u32() {
        let parse = |text: &str| parse_line(parse_dimacs(text.as_bytes()));
        assert_eq!(parse("c x\np edge 4294967296 1\n"), 2);
        assert_eq!(parse("p edge 99999999999999999999 1\n"), 1, "u64 overflow");
        // 4294967297 - 1 used to wrap to vertex 0 and read as a self-loop.
        assert_eq!(parse("p edge 3 1\ne 1 4294967297\n"), 2);
    }

    #[test]
    fn metis_parse_basic() {
        // A triangle plus a pendant vertex.
        let text = "% comment\n4 4\n2 3\n1 3 4\n1 2\n2\n";
        let g = parse_metis(text.as_bytes()).unwrap();
        assert_eq!(g.n(), 4);
        assert_eq!(g.m(), 4);
        assert!(g.has_edge(0, 1) && g.has_edge(1, 3) && !g.has_edge(0, 3));
    }

    #[test]
    fn metis_rejects_malformed() {
        let parse = |text: &str| parse_metis(text.as_bytes());
        assert!(parse("").is_err(), "empty file");
        assert!(parse("2 1\n2\n1\n1\n").is_err(), "extra rows");
        assert!(parse("2 1\n2\n").is_err(), "missing rows");
        assert!(parse("2 1\n3\n1\n").is_err(), "neighbour out of range");
        assert!(parse("2 1\n0\n1\n").is_err(), "neighbour id 0");
        assert!(parse("2 5\n2\n1\n").is_err(), "edge count mismatch");
        assert!(parse("2 1 011\n2\n1\n").is_err(), "weighted fmt");
    }

    #[test]
    fn metis_rejects_vertex_counts_that_do_not_fit_u32() {
        // The old reader allocated one list per declared vertex first.
        let parse = |text: &str| parse_line(parse_metis(text.as_bytes()));
        assert_eq!(parse("% c\n4294967296 0\n"), 2);
        assert_eq!(parse("18446744073709551616 0\n"), 1, "u64 overflow");
    }

    #[test]
    fn metis_isolated_vertices_are_empty_rows() {
        // Vertices 2 and 4 are isolated: their rows are empty lines.
        let g = parse_metis(&b"4 1\n3\n\n1\n\n"[..]).unwrap();
        assert_eq!(g.n(), 4);
        assert_eq!(g.m(), 1);
        assert!(g.has_edge(0, 2));
        assert_eq!(g.degree(1), 0);
        assert_eq!(g.degree(3), 0);
        // Trailing blank lines are tolerated.
        assert!(parse_metis(&b"2 1\n2\n1\n\n\n"[..]).is_ok());
    }

    #[test]
    fn comments_may_hold_any_bytes() {
        let g = parse_edge_list(&b"# \xff\xfe\n0 1\n"[..], false).unwrap();
        assert_eq!(g.m(), 1);
        let g = parse_dimacs(&b"c \xc3\x28\np edge 2 1\ne 1 2\n"[..]).unwrap();
        assert_eq!(g.m(), 1);
        let g = parse_metis(&b"%\x80\n2 1\n2\n%\xff\n1\n"[..]).unwrap();
        assert_eq!(g.m(), 1);
    }

    #[test]
    fn metis_file_roundtrip() {
        let dir = std::env::temp_dir().join("kdc_io_tests");
        fs::create_dir_all(&dir).unwrap();
        let g = crate::gen::gnp(30, 0.2, &mut seeded_rng(5));
        let p = dir.join("g.graph");
        write_metis(&g, &p).unwrap();
        assert_eq!(read_graph(&p).unwrap(), g);
    }

    #[test]
    fn file_roundtrips() {
        let dir = std::env::temp_dir().join("kdc_io_tests");
        fs::create_dir_all(&dir).unwrap();
        let g = crate::gen::complete(5);

        let p1 = dir.join("k5.txt");
        write_edge_list(&g, &p1).unwrap();
        assert_eq!(read_graph(&p1).unwrap(), g);

        let p2 = dir.join("k5.clq");
        write_dimacs(&g, &p2).unwrap();
        assert_eq!(read_graph(&p2).unwrap(), g);
    }

    // ---- differential property against the `&str` oracle -------------

    fn pick<'a>(rng: &mut SmallRng, options: &[&'a str]) -> &'a str {
        options[rng.random_range(0..options.len())]
    }

    /// Token separators, with plain spaces the most common.
    fn sep(rng: &mut SmallRng) -> &'static str {
        pick(
            rng,
            &[" ", " ", " ", "\t", "  ", " \t", "\x0b", "\x0c", "\r "],
        )
    }

    /// Leading or trailing blanks of a line.
    fn pad(rng: &mut SmallRng) -> &'static str {
        pick(rng, &["", "", "", " ", "\t", " \r", "\x0c"])
    }

    fn eol(rng: &mut SmallRng) -> &'static str {
        pick(rng, &["\n", "\n", "\r\n"])
    }

    /// Columns after the two ids, which every reader ignores.
    fn extra(rng: &mut SmallRng) -> String {
        match rng.random_range(0..8u32) {
            0 => format!("{}7", sep(rng)),
            1 => format!("{}w 1.5", sep(rng)),
            2 => format!("{}99999999999999999999999", sep(rng)),
            _ => String::new(),
        }
    }

    /// An id token: usually small, sometimes `+`-signed or malformed.
    fn id(rng: &mut SmallRng, lo: u32, hi: u32) -> String {
        let v = rng.random_range(lo..hi);
        match rng.random_range(0..80u32) {
            0 => format!("+{v}"),
            1 => pick(rng, &["x", "-1", "1x", "+", "18446744073709551616"]).to_string(),
            _ => v.to_string(),
        }
    }

    /// Ids that pass `u64` parsing but do not fit `u32` in either base. The
    /// oracle wraps them (and may then allocate billions of vertices), so it
    /// only ever sees the lines before the first one.
    fn oversized(rng: &mut SmallRng) -> &'static str {
        pick(rng, &["4294967296", "99999999999", "18446744073709551615"])
    }

    /// Appends one line; returns its 1-based number.
    fn push_line(text: &mut String, lines: &mut usize, body: &str, rng: &mut SmallRng) -> usize {
        let (lead, trail, end) = (pad(rng), pad(rng), eol(rng));
        text.push_str(&format!("{lead}{body}{trail}{end}"));
        *lines += 1;
        *lines
    }

    /// An edge-list file and the line of its first oversized id, if any.
    fn edge_list_file(rng: &mut SmallRng) -> (String, Option<usize>) {
        let (mut text, mut lines, mut big) = (String::new(), 0, None);
        for _ in 0..rng.random_range(0..30u32) {
            let body = match rng.random_range(0..32u32) {
                0..=13 => format!(
                    "{}{}{}{}",
                    id(rng, 0, 20),
                    sep(rng),
                    id(rng, 0, 20),
                    extra(rng)
                ),
                14 => {
                    let v = rng.random_range(0..20u32);
                    format!("{v}{}{v}", sep(rng))
                }
                15 => format!("#{}c 1 2", sep(rng)),
                16 => "%% 3 4".to_string(),
                17 => format!("c{}comment 5 6", pick(rng, &[" ", "  ", " \t"])),
                18 => String::new(),
                19 => pick(rng, &["c", "c ", "c\tx", "cx 1 2", "c\x0b1"]).to_string(),
                20 => pick(rng, &["x 1", "1", "1 2x", "-1 2", "+ 1", "1,2"]).to_string(),
                21 if rng.random_range(0..3u32) == 0 => {
                    let body = format!("{}{}{}", id(rng, 0, 20), sep(rng), oversized(rng));
                    let at = push_line(&mut text, &mut lines, &body, rng);
                    big.get_or_insert(at);
                    continue;
                }
                _ => format!(
                    "{} {}",
                    rng.random_range(0..20u32),
                    rng.random_range(0..20u32)
                ),
            };
            push_line(&mut text, &mut lines, &body, rng);
        }
        if rng.random_bool(0.3) {
            text.push_str(pad(rng)); // a last line with no line feed
            text.push_str(&format!(
                "{} {}",
                rng.random_range(1..20u32),
                rng.random_range(1..20u32)
            ));
        }
        (text, big)
    }

    /// A DIMACS file and the line of its first oversized number, if any.
    fn dimacs_file(rng: &mut SmallRng) -> (String, Option<usize>) {
        let (mut text, mut lines, mut big) = (String::new(), 0, None);
        let records = rng.random_range(0..30u32);
        let header_at = rng
            .random_bool(0.8)
            .then(|| rng.random_range(0..records.max(1)));
        for r in 0..records {
            let body = if Some(r) == header_at {
                let lo = if rng.random_bool(0.85) { 20 } else { 0 };
                let n = rng.random_range(lo..24u32);
                let s = sep(rng);
                pick(
                    rng,
                    &[
                        "p{s}edge{s}{n}{s}9",
                        "p{s}col{s}{n}",
                        "p{s}edge{s}{n}{s}9{s}x",
                    ],
                )
                .replace("{s}", s)
                .replace("{n}", &n.to_string())
            } else {
                let endpoint = |rng: &mut SmallRng| match rng.random_range(0..60u32) {
                    0 => "0".to_string(),
                    _ => id(rng, 1, 22),
                };
                match rng.random_range(0..32u32) {
                    0..=15 => {
                        let (u, v) = (endpoint(rng), endpoint(rng));
                        format!("e{}{u}{}{v}{}", sep(rng), sep(rng), extra(rng))
                    }
                    16 => format!("c{}any 1 2", pad(rng)),
                    17 => "comment".to_string(),
                    18 => String::new(),
                    19 => pick(
                        rng,
                        &[
                            "p",
                            "p edge",
                            "p edge x 1",
                            "x 1 2",
                            "e 1",
                            "e 1 y",
                            "ee 1 2",
                            "E 1 2",
                        ],
                    )
                    .to_string(),
                    20 if rng.random_range(0..3u32) == 0 => {
                        let body = pick(rng, &["e 1 {big}", "p edge {big} 1", "e{s}{big}{s}2"])
                            .replace("{s}", sep(rng))
                            .replace("{big}", oversized(rng));
                        let at = push_line(&mut text, &mut lines, &body, rng);
                        big.get_or_insert(at);
                        continue;
                    }
                    _ => format!(
                        "e {} {}",
                        rng.random_range(1..20u32),
                        rng.random_range(1..20u32)
                    ),
                }
            };
            push_line(&mut text, &mut lines, &body, rng);
        }
        (text, big)
    }

    /// A METIS file (usually well formed, with comments, duplicate,
    /// one-sided and self-loop entries) and the line of an oversized
    /// header, if any.
    fn metis_file(rng: &mut SmallRng) -> (String, Option<usize>) {
        let (mut text, mut lines) = (String::new(), 0);
        let n = rng.random_range(0..10usize);
        let mut rows: Vec<Vec<String>> = vec![Vec::new(); n];
        let mut m = 0usize;
        for u in 0..n {
            for v in u + 1..n {
                if rng.random_bool(0.3) {
                    m += 1;
                    // Usually both directions; sometimes only one.
                    match rng.random_range(0..10u32) {
                        0 => rows[u].push((v + 1).to_string()),
                        1 => rows[v].push((u + 1).to_string()),
                        _ => {
                            rows[u].push((v + 1).to_string());
                            rows[v].push((u + 1).to_string());
                        }
                    }
                }
            }
        }
        for (u, row) in rows.iter_mut().enumerate() {
            if rng.random_range(0..12u32) == 0 {
                row.push((u + 1).to_string()); // self-loop
            }
            if !row.is_empty() && rng.random_range(0..12u32) == 0 {
                row.push(row[0].clone()); // duplicate entry
            }
            if !row.is_empty() && rng.random_range(0..25u32) == 0 {
                row[0] = pick(rng, &["0", "x", "+1", "99", "1.0"]).to_string();
            }
            let mid = rng.random_range(0..row.len().max(1));
            row.rotate_left(mid);
        }
        let comment = |rng: &mut SmallRng| pick(rng, &["% c", "%", "%1 2", "  % x"]);
        for _ in 0..rng.random_range(0..3u32) {
            let body = if rng.random_bool(0.5) {
                comment(rng)
            } else {
                ""
            };
            push_line(&mut text, &mut lines, body, rng);
        }
        let declared_m = match rng.random_range(0..10u32) {
            0 => m + 1,
            1 => m.saturating_sub(1),
            _ => m,
        };
        let fmt = match rng.random_range(0..12u32) {
            0 => pick(rng, &[" 0", " 00", " 000", "\t0 x"]),
            1 => pick(rng, &[" 0000", " 1", " 011", " x"]),
            _ => "",
        };
        let oversized_header = rng.random_range(0..30u32) == 0;
        let header = if oversized_header {
            format!("{}{}{declared_m}", oversized(rng), sep(rng))
        } else if rng.random_range(0..30u32) == 0 {
            pick(rng, &["x 1", "3", "3 x"]).to_string()
        } else {
            format!("{n}{}{declared_m}{fmt}", sep(rng))
        };
        let at = push_line(&mut text, &mut lines, &header, rng);
        let big = oversized_header.then_some(at);
        let rows_written = match rng.random_range(0..15u32) {
            0 => n.saturating_sub(1),
            1 => n + 1,
            _ => n,
        };
        for r in 0..rows_written {
            if rng.random_range(0..8u32) == 0 {
                push_line(&mut text, &mut lines, comment(rng), rng);
            }
            let body = match rows.get(r) {
                Some(row) => {
                    let mut body = String::new();
                    for (i, tok) in row.iter().enumerate() {
                        if i > 0 {
                            body.push_str(sep(rng));
                        }
                        body.push_str(tok);
                    }
                    body
                }
                None => "1".to_string(),
            };
            push_line(&mut text, &mut lines, &body, rng);
        }
        for _ in 0..rng.random_range(0..3u32) {
            push_line(&mut text, &mut lines, "", rng);
        }
        (text, big)
    }

    /// The graph a parse built, or the line it stopped at.
    fn outcome(r: Result<Graph, IoError>) -> Result<Graph, usize> {
        r.map_err(|e| match e {
            IoError::Parse { line, .. } => line,
            IoError::Io(e) => panic!("in-memory read failed: {e}"),
        })
    }

    /// Checks one reader against its oracle on `text`, read both from one
    /// slice and through a tiny buffer that splits every token.
    fn agrees(
        text: &str,
        big: Option<usize>,
        cap: usize,
        new: impl Fn(&mut dyn BufRead) -> Result<Graph, IoError>,
        old: impl Fn(&str) -> Result<Graph, IoError>,
    ) -> Result<(), TestCaseError> {
        let want = match big {
            None => outcome(old(text)),
            // The lines before the oversized one decide; past them, only the
            // new line-numbered rejection can follow.
            Some(at) => {
                let prefix: String = text.split_inclusive('\n').take(at - 1).collect();
                match outcome(old(&prefix)) {
                    Err(line) if line > 0 => Err(line),
                    _ => Err(at),
                }
            }
        };
        let got = outcome(new(&mut text.as_bytes()));
        prop_assert_eq!(&got, &want, "text {:?}", text);
        let chunked = outcome(new(&mut std::io::BufReader::with_capacity(
            cap,
            text.as_bytes(),
        )));
        prop_assert_eq!(
            &chunked,
            &want,
            "text {:?} through a {}-byte buffer",
            text,
            cap
        );
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn edge_list_reader_matches_str_oracle(seed in any::<u64>(), cap in 1usize..8) {
            let (text, big) = edge_list_file(&mut seeded_rng(seed));
            for one_based in [false, true] {
                agrees(
                    &text,
                    big,
                    cap,
                    |src| parse_edge_list(src, one_based),
                    |t| oracle::parse_edge_list(t, one_based),
                )?;
            }
        }

        #[test]
        fn dimacs_reader_matches_str_oracle(seed in any::<u64>(), cap in 1usize..8) {
            let (text, big) = dimacs_file(&mut seeded_rng(seed));
            agrees(&text, big, cap, |src| parse_dimacs(src), oracle::parse_dimacs)?;
        }

        #[test]
        fn metis_reader_matches_str_oracle(seed in any::<u64>(), cap in 1usize..8) {
            let (text, big) = metis_file(&mut seeded_rng(seed));
            agrees(&text, big, cap, |src| parse_metis(src), oracle::parse_metis)?;
        }
    }
}
