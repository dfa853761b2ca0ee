//! Streaming parsers for text edge lists (with header directives).
//!
//! Text parsing is line-oriented over a [`BufRead`] so multi-gigabyte
//! edge lists never live in memory as text; every error carries the
//! 1-based line number. Comment lines may carry `gnnie` directives —
//! written by [`crate::export`] — that record the vertex count and the
//! full [`DatasetSpec`] + seed, which is what makes an exported Table II
//! dataset reload to a bit-identical [`gnnie_graph::GraphDataset`].

use std::fs::File;
use std::io::{BufRead, BufReader};
use std::path::Path;

use gnnie_graph::{DatasetSpec, VertexId};

use crate::error::IngestError;
use crate::format::{is_comment, EdgeListFormat};

/// A [`DatasetSpec`] plus generation seed recovered from a `gnnie spec`
/// header directive: enough to regenerate the input features bit-exactly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecordedSpec {
    /// The (already scale-adjusted) spec of the exported dataset.
    pub spec: DatasetSpec,
    /// The seed the dataset was generated with.
    pub seed: u64,
}

/// Everything a streaming scan learns about an edge list *besides* the
/// pairs themselves (which go to the caller's sink).
///
/// This is the bounded-memory core shared by the collecting parser
/// ([`parse_edge_list`]) and the out-of-core chunked ingest path, which
/// replays the file through [`scan_edge_list`] instead of materializing
/// `pairs`.
#[derive(Debug, Clone)]
pub struct EdgeListMeta {
    /// The dialect that was parsed.
    pub format: EdgeListFormat,
    /// Vertex count from a `gnnie vertices` directive, if present.
    pub declared_vertices: Option<usize>,
    /// Spec + seed from a `gnnie spec` directive, if present.
    pub recorded: Option<RecordedSpec>,
    /// Lines that carried a third (edge weight) column. GNNIE graphs are
    /// unweighted, so the column is dropped — callers surface a warning
    /// so users know (see `gnnie ingest`).
    pub weighted_lines: usize,
    /// 1-based line number of the first dropped weight column.
    pub first_weight_line: Option<usize>,
    /// Largest id seen and the 1-based line it first appeared on.
    max_seen: Option<(VertexId, usize)>,
}

impl EdgeListMeta {
    /// The vertex count: the declared count when a directive is present,
    /// otherwise `max id + 1` (0 for an empty file).
    pub fn num_vertices(&self) -> usize {
        self.declared_vertices
            .unwrap_or_else(|| self.max_seen.map_or(0, |(m, _)| m as usize + 1))
    }
}

/// The outcome of parsing a text edge list: what the scan learned, plus
/// the pairs it collected.
#[derive(Debug, Clone)]
pub struct ParsedEdgeList {
    /// Dialect, directives, weight-column accounting and vertex count.
    pub meta: EdgeListMeta,
    /// The raw `(u, v)` pairs in file order (self-loops and duplicates
    /// included — the CSR builder accounts for them).
    pub pairs: Vec<(VertexId, VertexId)>,
}

/// Parses the edge list at `path` in a known dialect.
///
/// # Errors
///
/// [`IngestError::Io`] on read failure, [`IngestError::Parse`] (with
/// line number) on malformed content.
pub fn parse_edge_list(
    path: &Path,
    format: EdgeListFormat,
) -> Result<ParsedEdgeList, IngestError> {
    let file = File::open(path).map_err(|e| IngestError::io(path, e))?;
    parse_edge_list_reader(BufReader::new(file), path, format)
}

/// Parses an edge list from any buffered reader; `path` is used only for
/// error messages.
///
/// # Errors
///
/// See [`parse_edge_list`].
pub fn parse_edge_list_reader<R: BufRead>(
    reader: R,
    path: &Path,
    format: EdgeListFormat,
) -> Result<ParsedEdgeList, IngestError> {
    let mut pairs = Vec::new();
    let meta = scan_edge_list_reader(reader, path, format, |u, v| pairs.push((u, v)))?;
    Ok(ParsedEdgeList { meta, pairs })
}

/// Streams the edge list at `path` through `sink` without collecting the
/// pairs — the bounded-memory entry point for out-of-core ingest. The
/// sink receives every `(u, v)` pair in file order (self-loops and
/// duplicates included); directives, weight-column accounting, and
/// declared-vertex-count validation behave exactly like
/// [`parse_edge_list`].
///
/// # Errors
///
/// See [`parse_edge_list`].
pub fn scan_edge_list(
    path: &Path,
    format: EdgeListFormat,
    sink: impl FnMut(VertexId, VertexId),
) -> Result<EdgeListMeta, IngestError> {
    let file = File::open(path).map_err(|e| IngestError::io(path, e))?;
    scan_edge_list_reader(BufReader::new(file), path, format, sink)
}

/// [`scan_edge_list`] over any buffered reader; the streaming core under
/// every text-edge-list entry point.
///
/// # Errors
///
/// See [`parse_edge_list`].
pub fn scan_edge_list_reader<R: BufRead>(
    mut reader: R,
    path: &Path,
    format: EdgeListFormat,
    mut sink: impl FnMut(VertexId, VertexId),
) -> Result<EdgeListMeta, IngestError> {
    let mut out = EdgeListMeta {
        format,
        declared_vertices: None,
        recorded: None,
        weighted_lines: 0,
        first_weight_line: None,
        max_seen: None,
    };
    let mut line = String::new();
    let mut lineno = 0usize;
    loop {
        line.clear();
        let n = reader.read_line(&mut line).map_err(|e| IngestError::io(path, e))?;
        if n == 0 {
            break;
        }
        lineno += 1;
        if is_comment(&line) {
            parse_directive(&line, path, lineno, &mut out)?;
            continue;
        }
        let text = line.trim_end_matches(['\n', '\r']);
        let mut fields = format.split(text);
        let (u, v) = match (fields.next(), fields.next()) {
            (Some(u), Some(v)) => (u, v),
            _ => {
                return Err(IngestError::parse(
                    path,
                    lineno,
                    format!("expected `src{}dst`, got `{text}`", format_sep(format)),
                ))
            }
        };
        // A third column (edge weight) is tolerated but dropped — the
        // count and first line are recorded so callers can warn; more
        // fields are a malformed line. An *empty* third field (a
        // trailing delimiter, common in exported CSV/TSV) is not a
        // weight and stays warning-free.
        let extra = fields.next();
        if let Some(extra) = extra {
            if fields.next().is_some() {
                return Err(IngestError::parse(
                    path,
                    lineno,
                    format!("too many fields in `{text}` (expected 2, or 3 with a weight)"),
                ));
            }
            if !extra.is_empty() {
                out.weighted_lines += 1;
                out.first_weight_line.get_or_insert(lineno);
            }
        }
        let parse_id = |tok: &str| -> Result<VertexId, IngestError> {
            tok.parse::<VertexId>().map_err(|_| {
                IngestError::parse(path, lineno, format!("`{tok}` is not a vertex id"))
            })
        };
        let (u, v) = (parse_id(u)?, parse_id(v)?);
        if let Some(declared) = out.declared_vertices {
            for id in [u, v] {
                if id as usize >= declared {
                    return Err(IngestError::parse(
                        path,
                        lineno,
                        format!("vertex id {id} >= declared vertex count {declared}"),
                    ));
                }
            }
        }
        let line_max = u.max(v);
        let is_new_max = match out.max_seen {
            Some((m, _)) => line_max > m,
            None => true,
        };
        if is_new_max {
            out.max_seen = Some((line_max, lineno));
        }
        sink(u, v);
    }
    // A `vertices` directive may legally appear after edge lines; the
    // per-line check only covers lines parsed after it, so re-validate,
    // pointing at the line the offending id actually came from.
    if let (Some(declared), Some((max, max_line))) = (out.declared_vertices, out.max_seen) {
        if max as usize >= declared {
            return Err(IngestError::parse(
                path,
                max_line,
                format!("vertex id {max} >= declared vertex count {declared}"),
            ));
        }
    }
    Ok(out)
}

fn format_sep(format: EdgeListFormat) -> &'static str {
    match format {
        EdgeListFormat::Whitespace => " ",
        EdgeListFormat::Csv => ",",
        EdgeListFormat::Tsv => "\t",
    }
}

/// Interprets a comment line, harvesting `gnnie` directives.
fn parse_directive(
    line: &str,
    path: &Path,
    lineno: usize,
    out: &mut EdgeListMeta,
) -> Result<(), IngestError> {
    let body = line.trim_start().trim_start_matches(['#', '%']).trim_start_matches("//").trim();
    let Some(rest) = body.strip_prefix("gnnie ") else {
        return Ok(()); // an ordinary comment
    };
    let mut words = rest.split_whitespace();
    match words.next() {
        Some("edgelist") => Ok(()), // banner; version token ignored for now
        Some("vertices") => match words.next().and_then(|w| w.parse::<usize>().ok()) {
            // Ids are `VertexId`s, so no graph has more than 2^32 vertices.
            Some(n) if n > VertexId::MAX as usize + 1 => Err(IngestError::parse(
                path,
                lineno,
                format!("gnnie vertices: {n} exceeds the 2^32 vertex-id range"),
            )),
            Some(n) => {
                out.declared_vertices = Some(n);
                Ok(())
            }
            None => Err(IngestError::parse(path, lineno, "gnnie vertices: expected a count")),
        },
        Some("spec") => {
            out.recorded = Some(parse_spec_directive(words, path, lineno)?);
            Ok(())
        }
        Some(other) => Err(IngestError::parse(
            path,
            lineno,
            format!("unknown gnnie directive `{other}` (expected edgelist/vertices/spec)"),
        )),
        None => Err(IngestError::parse(path, lineno, "empty gnnie directive")),
    }
}

/// Widest feature vector a `gnnie spec` directive may declare. Citeseer,
/// the widest Table II dataset, has 3,703; the bound keeps feature
/// synthesis from exhausting memory or wrapping its `u32` column ids.
const MAX_FEATURE_LEN: usize = 1 << 20;

/// Parses the `k=v` pairs of a `gnnie spec` directive into a
/// [`RecordedSpec`]. All nine keys are required, and each value must be
/// one the feature synthesizer can honor.
fn parse_spec_directive<'a>(
    words: impl Iterator<Item = &'a str>,
    path: &Path,
    lineno: usize,
) -> Result<RecordedSpec, IngestError> {
    let bad = |msg: String| IngestError::parse(path, lineno, msg);
    let mut dataset = None;
    let mut seed = None;
    let mut vertices = None;
    let mut edges = None;
    let mut feature_len = None;
    let mut labels = None;
    let mut feature_sparsity = None;
    let mut degree_gamma = None;
    let mut uniform_frac = None;
    for word in words {
        let (k, v) = word
            .split_once('=')
            .ok_or_else(|| bad(format!("gnnie spec: `{word}` is not key=value")))?;
        let parse_usize =
            |v: &str| v.parse::<usize>().map_err(|_| bad(format!("{k}: bad count `{v}`")));
        let parse_f64 =
            |v: &str| v.parse::<f64>().map_err(|_| bad(format!("{k}: bad float `{v}`")));
        // A value past its bound is refused, naming the key and the text.
        let check = |ok: bool, bound: &str| {
            if ok {
                Ok(())
            } else {
                Err(bad(format!("{k}: `{v}` {bound}")))
            }
        };
        let fraction = |v: &str| {
            let x = parse_f64(v)?;
            check((0.0..=1.0).contains(&x), "is outside [0, 1]").map(|()| x)
        };
        match k {
            "dataset" => {
                dataset = Some(v.parse().map_err(|e: String| bad(format!("dataset: {e}")))?)
            }
            "seed" => {
                seed = Some(v.parse::<u64>().map_err(|_| bad(format!("seed: bad `{v}`")))?)
            }
            "vertices" => vertices = Some(parse_usize(v)?),
            "edges" => edges = Some(parse_usize(v)?),
            "feature_len" => {
                let n = parse_usize(v)?;
                check(n <= MAX_FEATURE_LEN, "exceeds the 2^20 bound")?;
                feature_len = Some(n);
            }
            "labels" => labels = Some(parse_usize(v)?),
            "feature_sparsity" => feature_sparsity = Some(fraction(v)?),
            "degree_gamma" => {
                let g = parse_f64(v)?;
                check(g.is_finite(), "is not finite")?;
                degree_gamma = Some(g);
            }
            "uniform_frac" => uniform_frac = Some(fraction(v)?),
            other => return Err(bad(format!("gnnie spec: unknown key `{other}`"))),
        }
    }
    let missing = |what: &str| bad(format!("gnnie spec: missing `{what}`"));
    Ok(RecordedSpec {
        spec: DatasetSpec {
            dataset: dataset.ok_or_else(|| missing("dataset"))?,
            vertices: vertices.ok_or_else(|| missing("vertices"))?,
            edges: edges.ok_or_else(|| missing("edges"))?,
            feature_len: feature_len.ok_or_else(|| missing("feature_len"))?,
            labels: labels.ok_or_else(|| missing("labels"))?,
            feature_sparsity: feature_sparsity.ok_or_else(|| missing("feature_sparsity"))?,
            degree_gamma: degree_gamma.ok_or_else(|| missing("degree_gamma"))?,
            uniform_frac: uniform_frac.ok_or_else(|| missing("uniform_frac"))?,
        },
        seed: seed.ok_or_else(|| missing("seed"))?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn parse_str(s: &str, format: EdgeListFormat) -> Result<ParsedEdgeList, IngestError> {
        parse_edge_list_reader(Cursor::new(s), Path::new("<test>"), format)
    }

    #[test]
    fn parses_all_dialects() {
        for (s, f) in [
            ("0 1\n1 2\n", EdgeListFormat::Whitespace),
            ("0,1\n1,2\n", EdgeListFormat::Csv),
            ("0\t1\n1\t2\n", EdgeListFormat::Tsv),
        ] {
            let p = parse_str(s, f).unwrap();
            assert_eq!(p.pairs, vec![(0, 1), (1, 2)], "{f}");
            assert_eq!(p.meta.num_vertices(), 3, "{f}");
        }
    }

    #[test]
    fn weight_column_is_tolerated_but_four_fields_are_not() {
        let p = parse_str("0 1 0.5\n", EdgeListFormat::Whitespace).unwrap();
        assert_eq!(p.pairs, vec![(0, 1)]);
        let err = parse_str("0 1 0.5 x\n", EdgeListFormat::Whitespace).unwrap_err();
        assert!(err.to_string().contains(":1:"), "{err}");
    }

    #[test]
    fn dropped_weight_columns_are_counted_with_the_first_line() {
        let p = parse_str("0 1\n1 2 0.5\n2 3\n3 4 1.5\n", EdgeListFormat::Whitespace).unwrap();
        assert_eq!(p.meta.weighted_lines, 2);
        assert_eq!(p.meta.first_weight_line, Some(2));
        let clean = parse_str("0 1\n1 2\n", EdgeListFormat::Whitespace).unwrap();
        assert_eq!(clean.meta.weighted_lines, 0);
        assert_eq!(clean.meta.first_weight_line, None);
        // Trailing delimiters produce an empty third field, not a weight.
        let trailing = parse_str("0,1,\n1,2,\n", EdgeListFormat::Csv).unwrap();
        assert_eq!(trailing.pairs, vec![(0, 1), (1, 2)]);
        assert_eq!(trailing.meta.weighted_lines, 0);
        assert_eq!(trailing.meta.first_weight_line, None);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let err = parse_str("0 1\n2 banana\n", EdgeListFormat::Whitespace).unwrap_err();
        let s = err.to_string();
        assert!(s.contains(":2:") && s.contains("banana"), "{s}");
        let err = parse_str("0 1\n\n3\n", EdgeListFormat::Whitespace).unwrap_err();
        assert!(err.to_string().contains(":3:"), "{err}");
    }

    #[test]
    fn late_vertices_directive_points_at_the_offending_line() {
        // The directive arrives after the edges: the error must name the
        // line the out-of-range id came from, not the directive/EOF line.
        let err = parse_str("0 1\n0 5\n1 2\n# gnnie vertices 3\n", EdgeListFormat::Whitespace)
            .unwrap_err();
        let s = err.to_string();
        assert!(s.contains(":2:") && s.contains("vertex id 5"), "{s}");
    }

    #[test]
    fn vertices_directive_declares_and_enforces_the_count() {
        let p = parse_str("# gnnie vertices 10\n0 1\n", EdgeListFormat::Whitespace).unwrap();
        assert_eq!(p.meta.num_vertices(), 10);
        let err =
            parse_str("# gnnie vertices 2\n0 5\n", EdgeListFormat::Whitespace).unwrap_err();
        let s = err.to_string();
        assert!(s.contains(":2:") && s.contains(">= declared vertex count 2"), "{s}");
    }

    #[test]
    fn spec_directive_roundtrips() {
        let s = "# gnnie spec dataset=cr vertices=135 edges=520 feature_len=1433 labels=7 \
                 feature_sparsity=0.9873 degree_gamma=2.2 uniform_frac=0 seed=42\n0 1\n";
        let p = parse_str(s, EdgeListFormat::Whitespace).unwrap();
        let rec = p.meta.recorded.unwrap();
        assert_eq!(rec.seed, 42);
        assert_eq!(rec.spec.vertices, 135);
        assert_eq!(rec.spec.feature_len, 1433);
        assert!((rec.spec.feature_sparsity - 0.9873).abs() < 1e-15);
    }

    #[test]
    fn malformed_directives_fail_with_line_numbers() {
        for s in [
            "# gnnie vertices many\n",
            "# gnnie teleport 3\n",
            "# gnnie spec dataset=cr\n", // missing keys
            "# gnnie spec notkv\n",
        ] {
            let err = parse_str(s, EdgeListFormat::Whitespace).unwrap_err();
            assert!(err.to_string().contains(":1:"), "{s} -> {err}");
        }
        // Values the synthesizer cannot honor are refused by key and line.
        let spec = |kv: &str| {
            let mut keys = vec![
                ("dataset", "cr"),
                ("vertices", "2"),
                ("edges", "1"),
                ("feature_len", "1433"),
                ("labels", "7"),
                ("feature_sparsity", "0.9873"),
                ("degree_gamma", "2.2"),
                ("uniform_frac", "0"),
                ("seed", "42"),
            ];
            let (k, v) = kv.split_once('=').unwrap();
            keys.iter_mut().find(|(key, _)| *key == k).unwrap().1 = v;
            let body: Vec<String> = keys.iter().map(|(k, v)| format!("{k}={v}")).collect();
            format!("0 1\n# gnnie spec {}\n", body.join(" "))
        };
        assert!(parse_str(&spec("feature_len=1048576"), EdgeListFormat::Whitespace).is_ok());
        for kv in [
            "feature_len=1048577",
            "feature_len=4294967296",
            "feature_len=10000000000",
            "feature_sparsity=NaN",
            "feature_sparsity=-3",
            "feature_sparsity=1.5",
            "uniform_frac=NaN",
            "uniform_frac=-0.1",
            "degree_gamma=inf",
            "degree_gamma=NaN",
        ] {
            let err = parse_str(&spec(kv), EdgeListFormat::Whitespace).unwrap_err();
            let key = kv.split_once('=').unwrap().0;
            let msg = err.to_string();
            assert!(msg.contains(":2:") && msg.contains(key), "{kv} -> {msg}");
        }
        // Ordinary comments are not directives.
        assert!(parse_str("# hello world\n0 1\n", EdgeListFormat::Whitespace).is_ok());
    }

    #[test]
    fn empty_file_parses_to_zero_vertices() {
        let p = parse_str("", EdgeListFormat::Whitespace).unwrap();
        assert!(p.pairs.is_empty());
        assert_eq!(p.meta.num_vertices(), 0);
    }
}
