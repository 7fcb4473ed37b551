//! Graph file formats: whitespace edge lists, DIMACS `.clq` and METIS.
//!
//! The three readers take any [`BufRead`] (a file behind a `BufReader`, or
//! `text.as_bytes()`) and share one line-batched tokenizer. Lines end at
//! `\n`; tokens are separated by ASCII blanks (space, tab, `\r`, vertical
//! tab, form feed), so CRLF files read like LF ones; numbers are ASCII
//! digits with an optional leading `+`.
//!
//! The tokenizer takes each `fill_buf` slice as the reader hands it out
//! and parses every complete line in it in place, indexing the slice once
//! per token step. Only a line that straddles two reads is assembled, in a
//! small carry buffer, and only as much of it as its reader looks at: the
//! first byte of a comment line, the first two or three tokens of an edge
//! or header line (trailing columns are skipped), and a METIS adjacency
//! row whole. [`read_graph`] reads through a 64 KiB `BufReader`.
//!
//! A file is tokenized once, in one pass, into one flat edge buffer, and
//! the builder behind [`Graph::from_edges`] turns that buffer into CSR in
//! two passes (count degrees, then fill, sort and dedup each row in
//! place). Peak memory is that edge buffer plus the CSR plus one carried
//! line: there is no whole-file buffer and no per-vertex list. The edge
//! buffer and the CSR arrays are reserved fallibly, so a graph that does
//! not fit in memory is an [`IoError::TooLarge`], not an abort.
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
    /// The edge buffer or the CSR arrays could not be allocated.
    TooLarge {
        /// Vertex count: the declared one, or the largest id read plus one.
        n: usize,
        /// Edges read when the allocation failed.
        m: usize,
    },
}

impl fmt::Display for IoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IoError::Io(e) => write!(f, "i/o error: {e}"),
            IoError::Parse { line, msg } => write!(f, "parse error at line {line}: {msg}"),
            IoError::TooLarge { n, m } => {
                write!(f, "out of memory for a graph of {n} vertices and {m} edges")
            }
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

/// The buffer [`read_graph`] reads a file through.
const READ_BUFFER: usize = 1 << 16;

/// Bytes that separate tokens within a line: the ASCII characters
/// `char::is_whitespace` accepts, minus the line feed that ends a line.
fn is_blank(b: u8) -> bool {
    matches!(b, b' ' | b'\t' | b'\r' | 0x0B | 0x0C)
}

/// What a line holds after its leading blanks.
enum Head {
    /// Nothing but blanks.
    Blank,
    /// The first non-blank byte, not yet consumed.
    Byte(u8),
}

/// A cursor over complete lines: every line of `bytes` ends at a `\n` or
/// at the end of `bytes`. Each token step is one index into the slice.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// 1-based line of `pos`.
    line: usize,
}

impl<'a> Cursor<'a> {
    /// A parse error on the current line. Cold, so the token steps that
    /// may fail stay small enough to inline.
    #[cold]
    #[inline(never)]
    fn error(&self, msg: impl Into<String>) -> IoError {
        IoError::Parse {
            line: self.line,
            msg: msg.into(),
        }
    }

    /// The line's next byte, `None` at its end.
    #[inline]
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied().filter(|&b| b != b'\n')
    }

    #[inline]
    fn skip_blanks(&mut self) {
        while self.peek().is_some_and(is_blank) {
            self.pos += 1;
        }
    }

    /// Skips the line's leading blanks and reports what follows.
    #[inline]
    fn head(&mut self) -> Head {
        self.skip_blanks();
        match self.peek() {
            None => Head::Blank,
            Some(b) => Head::Byte(b),
        }
    }

    /// Moves past the rest of the line and its line feed.
    #[inline]
    fn next_line(&mut self) {
        let rest = &self.bytes[self.pos..];
        self.pos += rest
            .iter()
            .position(|&b| b == b'\n')
            .map_or(rest.len(), |i| i + 1);
        self.line += 1;
    }

    /// The line's next token, empty when it has no more.
    #[inline]
    fn word(&mut self) -> &'a [u8] {
        self.skip_blanks();
        let start = self.pos;
        while self.peek().is_some_and(|b| !is_blank(b)) {
            self.pos += 1;
        }
        &self.bytes[start..self.pos]
    }

    /// Reads the line's next token as a decimal number: `None` when the
    /// line has no more tokens, an error when the token is not a number or
    /// overflows `u64`. Inlined into every reader's record loop: the error
    /// paths are cold calls, so a well-formed number costs one index, one
    /// compare and one multiply-add per digit.
    #[inline(always)]
    fn num(&mut self) -> Result<Option<u64>, IoError> {
        self.skip_blanks();
        let signed = self.peek() == Some(b'+');
        let start = self.pos + usize::from(signed);
        let (mut pos, mut value) = (start, 0u64);
        while let Some(d) = self.bytes.get(pos).map(|b| b.wrapping_sub(b'0')) {
            if d > 9 {
                break;
            }
            value = value.wrapping_mul(10).wrapping_add(u64::from(d));
            pos += 1;
        }
        self.pos = pos;
        let digits = pos - start;
        // Up to 19 digits cannot overflow `u64`.
        if self.peek().is_some_and(|b| !is_blank(b)) || (signed && digits == 0) || digits > 19 {
            return self.slow_number(start);
        }
        Ok((digits > 0).then_some(value))
    }

    /// A token [`Cursor::num`] could not take on its fast path: the digits
    /// from `start` to the cursor, then whatever stopped them. Either an
    /// error or a number of more than 19 digits that still fits `u64`.
    #[cold]
    #[inline(never)]
    fn slow_number(&self, start: usize) -> Result<Option<u64>, IoError> {
        let digits = &self.bytes[start..self.pos];
        match self.peek() {
            Some(b) if !is_blank(b) => Err(self.error(format!(
                "invalid number: unexpected byte {:?}",
                char::from(b)
            ))),
            _ if digits.is_empty() => Err(self.error("invalid number: `+` without digits")),
            _ => digits
                .iter()
                .try_fold(0u64, |v, &b| {
                    v.checked_mul(10)?.checked_add(u64::from(b - b'0'))
                })
                .map(Some)
                .ok_or_else(|| self.error("number overflows u64")),
        }
    }

    /// The line's next token as a number; `what` names it when missing.
    #[inline(always)]
    fn number(&mut self, what: &str) -> Result<u64, IoError> {
        match self.num()? {
            Some(v) => Ok(v),
            None => Err(self.error(format!("missing {what}"))),
        }
    }

    /// A 0-based vertex id: it must leave room for `n = id + 1 ≤ u32::MAX`.
    #[inline]
    fn vertex_id(&self, id: u64) -> Result<VertexId, IoError> {
        match VertexId::try_from(id) {
            Ok(v) if v < VertexId::MAX => Ok(v),
            _ => Err(self.error(format!("vertex id {id} does not fit u32"))),
        }
    }

    /// A declared vertex count: at most `u32::MAX`.
    fn vertex_count(&self, n: u64) -> Result<usize, IoError> {
        u32::try_from(n)
            .map(|n| n as usize)
            .map_err(|_| self.error(format!("vertex count {n} does not fit u32")))
    }
}

/// How much of a line its reader looks at, judged from the line's first
/// non-blank byte. Only a line that straddles two reads is cut to it.
#[derive(Clone, Copy)]
enum Keep {
    /// The first `k` tokens whole and the first byte of the next one, so
    /// the reader still sees whether the line goes on: `Tokens(0)` keeps a
    /// comment's marking byte, `Tokens(1)` tells `c <text>` from a bare `c`.
    Tokens(usize),
    /// The whole line: a METIS adjacency row.
    Line,
}

/// One file format: what it keeps of a straddling line, how it parses a
/// line, and the graph it builds at the end of the input.
trait Records {
    /// How much of a line whose first non-blank byte is `first` to keep.
    fn keep(&self, first: u8) -> Keep;

    /// Parses the cursor's current line, stopping anywhere on it.
    fn record(&mut self, line: &mut Cursor<'_>) -> Result<(), IoError>;

    /// The graph, once every line is parsed.
    fn finish(self) -> Result<Graph, IoError>;
}

/// The start of a line that straddles two reads, cut to what its reader
/// keeps. Leading blanks are dropped.
#[derive(Default)]
struct Carry {
    bytes: Vec<u8>,
    /// Whether a line is open; it may have no kept byte yet.
    open: bool,
    /// What to keep, once the line's first non-blank byte is seen.
    keep: Option<Keep>,
    /// Tokens begun in `bytes`.
    tokens: usize,
}

impl Carry {
    /// Appends `seg`, the next piece of the open line without its `\n`.
    fn feed(&mut self, seg: &[u8], reader: &impl Records) {
        self.open = true;
        let (keep, seg) = match self.keep {
            Some(keep) => (keep, seg),
            None => match seg.iter().position(|&b| !is_blank(b)) {
                Some(i) => (reader.keep(seg[i]), &seg[i..]),
                None => return,
            },
        };
        self.keep = Some(keep);
        match keep {
            Keep::Tokens(k) => {
                for &b in seg {
                    if self.tokens > k {
                        break;
                    }
                    let starts = !is_blank(b) && self.bytes.last().is_none_or(|&l| is_blank(l));
                    self.tokens += usize::from(starts);
                    self.bytes.push(b);
                }
            }
            Keep::Line => self.bytes.extend_from_slice(seg),
        }
    }

    /// Parses the carried line as line `line` and empties the carry.
    fn emit(&mut self, reader: &mut impl Records, line: usize) -> Result<(), IoError> {
        reader.record(&mut Cursor {
            bytes: &self.bytes,
            pos: 0,
            line,
        })?;
        self.bytes.clear();
        (self.open, self.keep, self.tokens) = (false, None, 0);
        Ok(())
    }
}

/// Feeds every line of `src` to `reader`: the complete lines of each
/// `fill_buf` slice in place, a straddling one through `carry`.
fn scan(
    mut src: impl BufRead,
    reader: &mut impl Records,
    carry: &mut Carry,
) -> Result<(), IoError> {
    let mut line = 1;
    loop {
        let chunk = src.fill_buf()?;
        let len = chunk.len();
        if len == 0 {
            break;
        }
        let mut start = 0;
        if carry.open {
            let Some(nl) = chunk.iter().position(|&b| b == b'\n') else {
                carry.feed(chunk, reader);
                src.consume(len);
                continue;
            };
            carry.feed(&chunk[..nl], reader);
            carry.emit(reader, line)?;
            line += 1;
            start = nl + 1;
        }
        // Every line of `chunk[start..end]` ends with its line feed.
        let end = chunk[start..]
            .iter()
            .rposition(|&b| b == b'\n')
            .map_or(start, |i| start + i + 1);
        let mut cursor = Cursor {
            bytes: &chunk[..end],
            pos: start,
            line,
        };
        while cursor.pos < end {
            reader.record(&mut cursor)?;
            cursor.next_line();
        }
        line = cursor.line;
        if end < len {
            carry.feed(&chunk[end..], reader);
        }
        src.consume(len);
    }
    if carry.open {
        carry.emit(reader, line)?;
    }
    Ok(())
}

/// Parses all of `src` with `reader` and builds its graph.
fn read_records(src: impl BufRead, mut reader: impl Records) -> Result<Graph, IoError> {
    scan(src, &mut reader, &mut Carry::default())?;
    reader.finish()
}

/// Appends an edge, growing the buffer fallibly; `n` is the vertex count
/// an allocation failure reports.
fn push_edge(
    edges: &mut Vec<(VertexId, VertexId)>,
    edge: (VertexId, VertexId),
    n: usize,
) -> Result<(), IoError> {
    if edges.len() == edges.capacity() {
        edges
            .try_reserve(1)
            .map_err(|_| IoError::TooLarge { n, m: edges.len() })?;
    }
    edges.push(edge);
    Ok(())
}

/// Builds the CSR of `edges` on `n` vertices, failing instead of aborting
/// when it does not fit in memory.
fn build(n: usize, edges: &[(VertexId, VertexId)]) -> Result<Graph, IoError> {
    Graph::try_from_edges(n, edges).map_err(|_| IoError::TooLarge { n, m: edges.len() })
}

/// A whitespace edge list.
struct EdgeList {
    one_based: bool,
    /// The largest id read plus one.
    n: usize,
    edges: Vec<(VertexId, VertexId)>,
}

impl EdgeList {
    #[inline(always)]
    fn id(&self, line: &mut Cursor<'_>) -> Result<VertexId, IoError> {
        let raw = line.number("vertex id (expected two)")?;
        let id = match (self.one_based, raw) {
            (true, 0) => return Err(line.error("vertex id 0 in a 1-based edge list")),
            (true, _) => raw - 1,
            (false, _) => raw,
        };
        line.vertex_id(id)
    }
}

impl Records for EdgeList {
    fn keep(&self, first: u8) -> Keep {
        match first {
            b'#' | b'%' => Keep::Tokens(0),
            // `c` and the start of a comment's text.
            b'c' => Keep::Tokens(1),
            _ => Keep::Tokens(2),
        }
    }

    #[inline(always)]
    fn record(&mut self, line: &mut Cursor<'_>) -> Result<(), IoError> {
        match line.head() {
            Head::Blank | Head::Byte(b'#' | b'%') => {}
            Head::Byte(b'c') => {
                // `c <text>` is a comment; any other token starting with
                // `c`, or a bare `c`, is a malformed record.
                let comment = line.word().len() == 1
                    && line.peek() == Some(b' ')
                    && matches!(line.head(), Head::Byte(_));
                if !comment {
                    return Err(line.error("expected two vertex ids"));
                }
            }
            Head::Byte(_) => {
                let u = self.id(line)?;
                let v = self.id(line)?;
                self.n = self.n.max(u.max(v) as usize + 1);
                push_edge(&mut self.edges, (u, v), self.n)?;
            }
        }
        Ok(())
    }

    fn finish(self) -> Result<Graph, IoError> {
        build(self.n, &self.edges)
    }
}

/// Parses a whitespace-separated edge list. Lines starting with `#`, `%` or
/// `c ` are comments; columns after the first two are ignored. Vertex ids
/// may be any non-negative integers below `u32::MAX`; the graph is sized by
/// the maximum id (+1). If `one_based`, ids are shifted down by one.
pub fn parse_edge_list(src: impl BufRead, one_based: bool) -> Result<Graph, IoError> {
    let reader = EdgeList {
        one_based,
        n: 0,
        edges: Vec::new(),
    };
    read_records(src, reader)
}

/// A DIMACS `.clq`/`.col` file.
#[derive(Default)]
struct Dimacs {
    /// The last header's vertex count.
    n: Option<usize>,
    edges: Vec<(VertexId, VertexId)>,
}

impl Dimacs {
    #[inline(always)]
    fn endpoint(line: &mut Cursor<'_>) -> Result<VertexId, IoError> {
        match line.number("endpoint")? {
            0 => Err(line.error("DIMACS ids are 1-based")),
            raw => line.vertex_id(raw - 1),
        }
    }
}

impl Records for Dimacs {
    fn keep(&self, first: u8) -> Keep {
        match first {
            b'c' => Keep::Tokens(0),
            // `p <format> <n>` or `e <u> <v>`.
            _ => Keep::Tokens(3),
        }
    }

    #[inline(always)]
    fn record(&mut self, line: &mut Cursor<'_>) -> Result<(), IoError> {
        match line.head() {
            Head::Blank | Head::Byte(b'c') => {}
            Head::Byte(_) => match line.word() {
                b"p" => {
                    line.word(); // the format, `edge` or `col`
                    let count = line.number("vertex count")?;
                    self.n = Some(line.vertex_count(count)?);
                }
                b"e" => {
                    let u = Self::endpoint(line)?;
                    let v = Self::endpoint(line)?;
                    push_edge(&mut self.edges, (u, v), self.n.unwrap_or(0))?;
                }
                _ => return Err(line.error("unknown record (expected `c`, `p` or `e`)")),
            },
        }
        Ok(())
    }

    fn finish(self) -> Result<Graph, IoError> {
        let n = self
            .n
            .ok_or_else(|| file_error("missing `p edge` header".into()))?;
        if let Some(&(u, v)) = self.edges.iter().find(|&&(u, v)| u.max(v) as usize >= n) {
            return Err(file_error(format!(
                "edge ({}, {}) exceeds declared n = {n}",
                u + 1,
                v + 1
            )));
        }
        build(n, &self.edges)
    }
}

/// Parses a DIMACS `.clq`/`.col` graph: `c` comment lines, a
/// `p edge <n> <m>` header and `e <u> <v>` edge lines with 1-based ids.
/// The last header wins; its edge count is not used.
pub fn parse_dimacs(src: impl BufRead) -> Result<Graph, IoError> {
    read_records(src, Dimacs::default())
}

/// A METIS file's header line.
struct MetisHeader {
    line: usize,
    n: usize,
    m: u64,
}

/// A METIS file: its header, then one adjacency row per vertex.
#[derive(Default)]
struct Metis {
    header: Option<MetisHeader>,
    /// Adjacency rows read so far.
    row: usize,
    edges: Vec<(VertexId, VertexId)>,
}

impl Records for Metis {
    fn keep(&self, first: u8) -> Keep {
        match first {
            b'%' => Keep::Tokens(0),
            // `<n> <m> [fmt]`.
            _ if self.header.is_none() => Keep::Tokens(3),
            _ => Keep::Line,
        }
    }

    #[inline(always)]
    fn record(&mut self, line: &mut Cursor<'_>) -> Result<(), IoError> {
        let head = line.head();
        let Some(header) = &self.header else {
            // Blank lines before the header are skipped, but *blank* lines
            // after it are meaningful: they are the adjacency rows of
            // isolated vertices.
            if let Head::Byte(b) = head {
                if b != b'%' {
                    self.header = Some(metis_header(line)?);
                }
            }
            return Ok(());
        };
        let n = header.n;
        match head {
            Head::Byte(b'%') => {}
            // Trailing blank lines are tolerated.
            Head::Blank if self.row >= n => {}
            _ if self.row >= n => {
                return Err(line.error("more adjacency rows than declared vertices"))
            }
            _ => {
                while let Some(v) = line.num()? {
                    if v == 0 || v > n as u64 {
                        return Err(line.error(format!("neighbour id {v} out of range 1..={n}")));
                    }
                    push_edge(
                        &mut self.edges,
                        (self.row as VertexId, (v - 1) as VertexId),
                        n,
                    )?;
                }
                self.row += 1;
            }
        }
        Ok(())
    }

    fn finish(self) -> Result<Graph, IoError> {
        let header = self
            .header
            .ok_or_else(|| file_error("empty METIS file".into()))?;
        if self.row != header.n {
            return Err(file_error(format!(
                "expected {} adjacency rows, found {}",
                header.n, self.row
            )));
        }
        let g = build(header.n, &self.edges)?;
        if g.m() as u64 != header.m {
            return Err(IoError::Parse {
                line: header.line,
                msg: format!("header declares {} edges, file has {}", header.m, g.m()),
            });
        }
        Ok(g)
    }
}

/// Parses a METIS header, `<n> <m> [fmt]`, from its first token on.
fn metis_header(line: &mut Cursor<'_>) -> Result<MetisHeader, IoError> {
    let count = line.number("vertex count")?;
    let n = line.vertex_count(count)?;
    let m = line.number("edge count")?;
    let fmt = line.word();
    if fmt.len() > 3 || fmt.iter().any(|&b| b != b'0') {
        return Err(line.error("unsupported METIS fmt (weights not supported)"));
    }
    Ok(MetisHeader {
        line: line.line,
        n,
        m,
    })
}

/// Parses a METIS graph file (the DIMACS10 distribution format): a header
/// `<n> <m> [fmt]` followed by one line per vertex listing its (1-based)
/// neighbours. Only unweighted graphs (`fmt` 0 or absent) are supported.
/// `%` lines are comments anywhere; one-sided adjacency entries are
/// symmetrised.
pub fn parse_metis(src: impl BufRead) -> Result<Graph, IoError> {
    read_records(src, Metis::default())
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
    parse_by_extension(path, BufReader::with_capacity(READ_BUFFER, file))
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
            other => panic!("in-memory read failed: {other}"),
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

    // ---- read boundaries at the production buffer size -----------------

    /// Reads `text` through a `READ_BUFFER`-byte buffer, as [`read_graph`]
    /// reads a file: reads end at every multiple of `READ_BUFFER`.
    fn buffered(text: &str) -> BufReader<&[u8]> {
        BufReader::with_capacity(READ_BUFFER, text.as_bytes())
    }

    /// Appends a comment line (`mark` and filler) that ends `text` at byte
    /// `at`, so the next line starts there.
    fn pad_to(text: &mut String, mark: char, at: usize) {
        let fill = at.checked_sub(text.len() + 2).expect("room for a comment");
        text.push(mark);
        text.extend(std::iter::repeat_n('x', fill));
        text.push('\n');
        assert_eq!(text.len(), at);
    }

    #[test]
    fn metis_row_longer_than_the_read_buffer() {
        // A star: vertex 1's row lists every other vertex, about 120 KB.
        let n = 20_001u32;
        let mut text = format!("{n} {}\n", n - 1);
        let row: Vec<String> = (2..=n).map(|v| v.to_string()).collect();
        text.push_str(&row.join(" "));
        text.push('\n');
        text.push_str(&"1\n".repeat(n as usize - 1));
        assert!(row.join(" ").len() > READ_BUFFER);
        let star: Vec<(VertexId, VertexId)> = (1..n).map(|v| (0, v)).collect();
        let g = parse_metis(buffered(&text)).unwrap();
        assert_eq!(g, Graph::from_edges(n as usize, &star));
        assert_eq!(g, oracle::parse_metis(&text).unwrap());
    }

    #[test]
    fn long_comments_and_ignored_columns_are_not_carried() {
        // Some comments are indented: what to keep is judged from the
        // first non-blank byte.
        let comment = "x".repeat(4 * READ_BUFFER);
        let columns = " 7".repeat(2 * READ_BUFFER);
        let edge_list = EdgeList {
            one_based: false,
            n: 0,
            edges: Vec::new(),
        };
        let path = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        for (name, (g, carried)) in [
            (
                "edge list",
                carry_peak(
                    &format!("0 1\n\t# {comment}\n1 2{columns}\nc {comment}\n2 3\n"),
                    edge_list,
                ),
            ),
            (
                "DIMACS",
                carry_peak(
                    &format!("p edge 4 3\n  c {comment}\ne 1 2\ne 2 3{columns}\ne 3 4\n"),
                    Dimacs::default(),
                ),
            ),
            (
                "METIS",
                carry_peak(
                    &format!("% {comment}\n4 3 0{columns}\n2\n1 3\n %{comment}\n2 4\n3\n"),
                    Metis::default(),
                ),
            ),
        ] {
            assert_eq!(g, path, "{name}");
            assert!(
                carried < READ_BUFFER,
                "{name}: the carry grew to {carried} bytes"
            );
        }
    }

    /// Reads `text` with `reader` through a production-size buffer; returns
    /// the graph and the capacity its carry reached.
    fn carry_peak(text: &str, mut reader: impl Records) -> (Graph, usize) {
        let mut carry = Carry::default();
        scan(buffered(text), &mut reader, &mut carry).unwrap();
        (reader.finish().unwrap(), carry.bytes.capacity())
    }

    #[test]
    fn last_line_without_a_line_feed_straddles_a_read() {
        for back in 1..=6 {
            let at = READ_BUFFER - back;
            let mut text = "0 1\n".to_string();
            pad_to(&mut text, '#', at);
            text.push_str("123 456");
            let g = parse_edge_list(buffered(&text), false).unwrap();
            assert!(g.has_edge(123, 456) && g.has_edge(0, 1), "split {back}");
            assert_eq!(g, oracle::parse_edge_list(&text, false).unwrap());

            let mut text = "p edge 500 2\ne 1 2\n".to_string();
            pad_to(&mut text, 'c', at);
            text.push_str("e 123 456");
            let g = parse_dimacs(buffered(&text)).unwrap();
            assert!(g.has_edge(122, 455) && g.has_edge(0, 1), "split {back}");
            assert_eq!(g, oracle::parse_dimacs(&text).unwrap());

            let mut text = "3 2\n3\n3\n".to_string();
            pad_to(&mut text, '%', at);
            text.push_str("1 2 1 2 1 2");
            let g = parse_metis(buffered(&text)).unwrap();
            assert_eq!(g, Graph::from_edges(3, &[(0, 2), (1, 2)]), "split {back}");
            assert_eq!(g, oracle::parse_metis(&text).unwrap());
        }
    }

    #[test]
    fn crlf_lines_read_like_lf_lines_across_reads() {
        // About 20,000 lines of 4 to 12 bytes, and METIS rows of about 500:
        // reads split lines at many offsets.
        let mut rng = seeded_rng(11);
        let edges: Vec<(u32, u32)> = (0..20_000)
            .map(|_| (rng.random_range(0..1000u32), rng.random_range(0..1000u32)))
            .collect();
        let mut lf = [String::new(), "p edge 1000 0\n".into()];
        for (u, v) in &edges {
            lf[0].push_str(&format!("{u} {v}\n"));
            lf[1].push_str(&format!("e {} {}\n", u + 1, v + 1));
        }
        let dir = std::env::temp_dir().join("kdc_io_tests");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("crlf.graph");
        write_metis(&crate::gen::gnp(600, 0.2, &mut rng), &path).unwrap();
        let metis = fs::read_to_string(&path).unwrap();
        for (i, text) in lf.iter().chain([&metis]).enumerate() {
            // A leading comment moves one `\r` to the last byte of the
            // first read, its `\n` to the first byte of the second.
            let crlf = text.replace('\n', "\r\n");
            let r = crlf[..READ_BUFFER - 3].rfind('\r').unwrap();
            let mark = ['#', 'c', '%'][i];
            let crlf = format!("{mark}{}\r\n{crlf}", "x".repeat(READ_BUFFER - 4 - r));
            assert_eq!(crlf.as_bytes()[READ_BUFFER - 1..][..2], *b"\r\n");
            let (want, got) = match i {
                0 => (
                    parse_edge_list(text.as_bytes(), false),
                    parse_edge_list(buffered(&crlf), false),
                ),
                1 => (parse_dimacs(text.as_bytes()), parse_dimacs(buffered(&crlf))),
                _ => (parse_metis(text.as_bytes()), parse_metis(buffered(&crlf))),
            };
            assert_eq!(got.unwrap(), want.unwrap(), "format {i}");
        }
    }

    #[test]
    fn malformed_number_straddling_a_read_reports_its_line() {
        for back in 1..=7 {
            let at = READ_BUFFER - back;
            let mut text = "0 1\n".to_string();
            pad_to(&mut text, '#', at);
            text.push_str("0 1234x678\n1 2\n");
            let want = parse_line(oracle::parse_edge_list(&text, false));
            assert_eq!(want, 3);
            assert_eq!(parse_line(parse_edge_list(buffered(&text), false)), want);

            let mut text = "p edge 9 1\n".to_string();
            pad_to(&mut text, 'c', at);
            text.push_str("e 1 12345678+\ne 1 2\n");
            let want = parse_line(oracle::parse_dimacs(&text));
            assert_eq!(want, 3);
            assert_eq!(parse_line(parse_dimacs(buffered(&text))), want);
        }
    }
}
