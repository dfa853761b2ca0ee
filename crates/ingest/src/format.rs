//! On-disk dataset formats and auto-detection.
//!
//! Two families are supported:
//!
//! * **text edge lists** — one edge per line, whitespace-, comma-, or
//!   tab-separated ([`EdgeListFormat`]), with `#`/`%`/`//` comments;
//! * **`.gnniecsr` snapshots** — the versioned, checksummed cache written
//!   by [`crate::snapshot`], magic [`SNAPSHOT_MAGIC`].
//!
//! [`detect_file_format`] sniffs the leading bytes: the snapshot magic
//! wins, otherwise the first data line's delimiter decides the text
//! dialect.

use std::fmt;
use std::fs::File;
use std::io::Read;
use std::path::Path;

use crate::error::IngestError;

/// Magic prefix of a `.gnniecsr` snapshot file.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"GNNIECSR";

/// Delimiter dialect of a text edge list.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EdgeListFormat {
    /// Fields separated by any run of spaces/tabs (the common `.edges`
    /// / SNAP / ogbn `edge.csv`-exported-to-text shape).
    Whitespace,
    /// Comma-separated (ogbn raw `edge.csv`).
    Csv,
    /// Tab-separated.
    Tsv,
}

impl EdgeListFormat {
    /// All dialects, for sweeps.
    pub const ALL: [EdgeListFormat; 3] =
        [EdgeListFormat::Whitespace, EdgeListFormat::Csv, EdgeListFormat::Tsv];

    /// The canonical file extension for the dialect.
    pub fn extension(self) -> &'static str {
        match self {
            EdgeListFormat::Whitespace => "edges",
            EdgeListFormat::Csv => "csv",
            EdgeListFormat::Tsv => "tsv",
        }
    }

    /// Splits one data line into trimmed fields under this dialect.
    /// Delimited dialects keep empty fields (so `1,,2` fails field-count
    /// validation loudly instead of silently collapsing).
    pub fn split(self, line: &str) -> FieldSplit<'_> {
        match self {
            EdgeListFormat::Whitespace => FieldSplit::Ws(line.split_whitespace()),
            EdgeListFormat::Csv => FieldSplit::Delim(line.split(',')),
            EdgeListFormat::Tsv => FieldSplit::Delim(line.split('\t')),
        }
    }
}

/// Iterator over one line's fields; see [`EdgeListFormat::split`].
#[derive(Debug, Clone)]
pub enum FieldSplit<'a> {
    /// Whitespace-run splitting.
    Ws(std::str::SplitWhitespace<'a>),
    /// Single-character delimiter splitting.
    Delim(std::str::Split<'a, char>),
}

impl<'a> Iterator for FieldSplit<'a> {
    type Item = &'a str;

    fn next(&mut self) -> Option<&'a str> {
        match self {
            FieldSplit::Ws(it) => it.next(),
            FieldSplit::Delim(it) => it.next().map(str::trim),
        }
    }
}

impl fmt::Display for EdgeListFormat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            EdgeListFormat::Whitespace => "whitespace",
            EdgeListFormat::Csv => "csv",
            EdgeListFormat::Tsv => "tsv",
        })
    }
}

/// A detected on-disk dataset format.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileFormat {
    /// A `.gnniecsr` snapshot ([`crate::snapshot`]).
    Snapshot,
    /// A text edge list in the given dialect.
    EdgeList(EdgeListFormat),
}

impl fmt::Display for FileFormat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FileFormat::Snapshot => f.write_str("gnniecsr snapshot"),
            FileFormat::EdgeList(el) => write!(f, "{el} edge list"),
        }
    }
}

/// `true` if a line is blank or a comment (`#`, `%`, or `//`).
pub(crate) fn is_comment(line: &str) -> bool {
    let t = line.trim_start();
    t.is_empty() || t.starts_with('#') || t.starts_with('%') || t.starts_with("//")
}

/// Classifies one data line by its delimiter.
fn classify_data_line(line: &str) -> EdgeListFormat {
    if line.contains(',') {
        EdgeListFormat::Csv
    } else if line.contains('\t') {
        EdgeListFormat::Tsv
    } else {
        EdgeListFormat::Whitespace
    }
}

/// Classifies the first data line of a text sample (whitespace when the
/// sample is empty or all comments).
#[cfg(test)]
fn detect_text_dialect(sample: &str) -> EdgeListFormat {
    sample
        .lines()
        .find(|l| !is_comment(l))
        .map_or(EdgeListFormat::Whitespace, classify_data_line)
}

/// Sniffs the format of the file at `path` from its leading bytes.
///
/// # Errors
///
/// [`IngestError::Io`] if the file cannot be read;
/// [`IngestError::Format`] if it looks binary but matches no known magic.
pub fn detect_file_format(path: &Path) -> Result<FileFormat, IngestError> {
    let mut head = [0u8; 4096];
    let mut file = File::open(path).map_err(|e| IngestError::io(path, e))?;
    let mut filled = 0;
    // Loop: Read::read may return short counts before EOF.
    loop {
        let n = file.read(&mut head[filled..]).map_err(|e| IngestError::io(path, e))?;
        if n == 0 {
            break;
        }
        filled += n;
        if filled == head.len() {
            break;
        }
    }
    let head = &head[..filled];
    if head.starts_with(&SNAPSHOT_MAGIC) {
        return Ok(FileFormat::Snapshot);
    }
    if head.contains(&0) {
        return Err(IngestError::Format(format!(
            "{}: binary data with no known magic (expected GNNIECSR)",
            path.display()
        )));
    }
    // Text: classify by the first data line, streaming from the start —
    // a comment header can be arbitrarily long (ogbn-style exports
    // front-load metadata), so the fixed-size head sample must not be
    // the thing that decides the dialect.
    let file = File::open(path).map_err(|e| IngestError::io(path, e))?;
    let mut reader = std::io::BufReader::new(file);
    let mut line = String::new();
    loop {
        line.clear();
        let n = std::io::BufRead::read_line(&mut reader, &mut line)
            .map_err(|e| IngestError::io(path, e))?;
        if n == 0 {
            // Empty or all-comment file: the parser will produce an
            // empty edge list either way.
            return Ok(FileFormat::EdgeList(EdgeListFormat::Whitespace));
        }
        if !is_comment(&line) {
            return Ok(FileFormat::EdgeList(classify_data_line(&line)));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_handles_each_dialect() {
        let ws: Vec<_> = EdgeListFormat::Whitespace.split("  3   7 ").collect();
        assert_eq!(ws, ["3", "7"]);
        let csv: Vec<_> = EdgeListFormat::Csv.split("3, 7").collect();
        assert_eq!(csv, ["3", "7"]);
        let tsv: Vec<_> = EdgeListFormat::Tsv.split("3\t7").collect();
        assert_eq!(tsv, ["3", "7"]);
    }

    #[test]
    fn dialect_detection_skips_comments() {
        assert_eq!(detect_text_dialect("# header\n% note\n1,2\n"), EdgeListFormat::Csv);
        assert_eq!(detect_text_dialect("// c\n1\t2\n"), EdgeListFormat::Tsv);
        assert_eq!(detect_text_dialect("1 2\n"), EdgeListFormat::Whitespace);
        // Empty / all-comment files default to whitespace.
        assert_eq!(detect_text_dialect("# only\n"), EdgeListFormat::Whitespace);
    }

    #[test]
    fn file_detection_prefers_magics() {
        let dir = std::env::temp_dir().join("gnnie-ingest-format-test");
        std::fs::create_dir_all(&dir).unwrap();
        let snap = dir.join("x.gnniecsr");
        std::fs::write(&snap, [&SNAPSHOT_MAGIC[..], &[1, 2, 3]].concat()).unwrap();
        assert_eq!(detect_file_format(&snap).unwrap(), FileFormat::Snapshot);
        // The magic of a retired binary graph layout is now just binary
        // data with no known magic.
        let retired = dir.join("x.gcsr");
        std::fs::write(&retired, [&b"GCSR"[..], b"BIN1", &[0; 8]].concat()).unwrap();
        match detect_file_format(&retired) {
            Err(IngestError::Format(msg)) => assert!(msg.contains("x.gcsr"), "{msg}"),
            other => panic!("expected a format error naming the file, got {other:?}"),
        }
        let txt = dir.join("x.edges");
        std::fs::write(&txt, "0 1\n1 2\n").unwrap();
        assert_eq!(
            detect_file_format(&txt).unwrap(),
            FileFormat::EdgeList(EdgeListFormat::Whitespace)
        );
        let junk = dir.join("x.bin");
        std::fs::write(&junk, [0u8, 159, 146, 150]).unwrap();
        assert!(detect_file_format(&junk).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn dialect_detection_streams_past_long_comment_headers() {
        // More than 4096 bytes of comments before the first data line:
        // the detector must keep reading, not default to whitespace.
        let dir = std::env::temp_dir().join("gnnie-ingest-longheader-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("long.csv");
        let mut content = String::new();
        for i in 0..200 {
            content.push_str(&format!("# metadata line {i} padding padding padding\n"));
        }
        assert!(content.len() > 4096);
        content.push_str("0,1\n1,2\n");
        std::fs::write(&path, &content).unwrap();
        assert_eq!(
            detect_file_format(&path).unwrap(),
            FileFormat::EdgeList(EdgeListFormat::Csv)
        );
        // All-comment file: defaults to whitespace, parses to empty.
        let empty = dir.join("allcomments.edges");
        std::fs::write(&empty, "# nothing\n% here\n").unwrap();
        assert_eq!(
            detect_file_format(&empty).unwrap(),
            FileFormat::EdgeList(EdgeListFormat::Whitespace)
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
