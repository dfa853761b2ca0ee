//! Exporter: text edge lists (with `gnnie` header directives).
//!
//! Exports exist for two reasons: CI generates on-disk fixtures with
//! them, and the round-trip guarantee is stated through them — a Table
//! II dataset exported with its [`RecordedSpec`] and re-ingested yields a
//! bit-identical [`gnnie_graph::GraphDataset`], so `gnnie run --graph`
//! on the export reproduces `gnnie run --dataset` byte for byte.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;

use gnnie_graph::CsrGraph;

use crate::error::IngestError;
use crate::format::EdgeListFormat;
use crate::parse::RecordedSpec;

/// Writes `graph` as a text edge list at `path`.
///
/// A `gnnie vertices` directive always precedes the edges (so isolated
/// trailing vertices survive the round trip); when `recorded` is given,
/// a `gnnie spec` directive records the dataset spec + seed, making the
/// file self-describing for feature regeneration.
///
/// # Errors
///
/// [`IngestError::Io`] on any write failure.
pub fn export_edge_list(
    path: &Path,
    graph: &CsrGraph,
    format: EdgeListFormat,
    recorded: Option<&RecordedSpec>,
) -> Result<(), IngestError> {
    let file = File::create(path).map_err(|e| IngestError::io(path, e))?;
    let mut w = BufWriter::new(file);
    render_edge_list(&mut w, graph, format, recorded).map_err(|e| IngestError::io(path, e))?;
    w.flush().map_err(|e| IngestError::io(path, e))
}

/// The streaming core of [`export_edge_list`]: renders the header
/// directives and edge lines to any writer.
///
/// # Errors
///
/// Propagates any writer error.
pub fn render_edge_list(
    w: &mut impl Write,
    graph: &CsrGraph,
    format: EdgeListFormat,
    recorded: Option<&RecordedSpec>,
) -> std::io::Result<()> {
    let sep = match format {
        EdgeListFormat::Whitespace => ' ',
        EdgeListFormat::Csv => ',',
        EdgeListFormat::Tsv => '\t',
    };
    writeln!(w, "# gnnie edgelist v1")?;
    writeln!(w, "# gnnie vertices {}", graph.num_vertices())?;
    if let Some(rec) = recorded {
        writeln!(w, "{}", spec_directive(rec))?;
    }
    for (u, v) in graph.edges() {
        writeln!(w, "{u}{sep}{v}")?;
    }
    Ok(())
}

/// Renders the `gnnie spec` directive line for `rec`.
///
/// Floats use Rust's shortest round-trip formatting, so the parsed spec
/// is bit-identical to the recorded one.
pub fn spec_directive(rec: &RecordedSpec) -> String {
    let s = &rec.spec;
    format!(
        "# gnnie spec dataset={} vertices={} edges={} feature_len={} labels={} \
         feature_sparsity={} degree_gamma={} uniform_frac={} seed={}",
        s.dataset.abbrev().to_lowercase(),
        s.vertices,
        s.edges,
        s.feature_len,
        s.labels,
        s.feature_sparsity,
        s.degree_gamma,
        s.uniform_frac,
        rec.seed,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_edge_list;
    use gnnie_graph::{Dataset, GraphDataset};

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("gnnie-export-test");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn edge_list_roundtrips_in_every_dialect() {
        let ds = GraphDataset::generate(Dataset::Cora, 0.03, 11);
        let rec = RecordedSpec { spec: ds.spec, seed: 11 };
        for format in EdgeListFormat::ALL {
            let path = tmp(&format!("rt.{}", format.extension()));
            export_edge_list(&path, &ds.graph, format, Some(&rec)).unwrap();
            let parsed = parse_edge_list(&path, format).unwrap();
            assert_eq!(parsed.meta.num_vertices(), ds.graph.num_vertices(), "{format}");
            assert_eq!(parsed.meta.recorded, Some(rec), "{format}");
            let (rebuilt, stats) = CsrGraph::try_from_pairs(
                parsed.meta.num_vertices(),
                parsed.pairs.iter().copied(),
            )
            .unwrap();
            assert_eq!(rebuilt, ds.graph, "{format}");
            assert_eq!(stats.duplicates, 0, "exports write each edge once");
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn spec_directive_floats_roundtrip_exactly() {
        // A spec with floats that don't have short decimal forms.
        let mut spec = Dataset::Pubmed.spec().scaled(0.123456789);
        spec.feature_sparsity = 0.1 + 0.2; // 0.30000000000000004
        let rec = RecordedSpec { spec, seed: u64::MAX };
        let line = spec_directive(&rec);
        let parsed = crate::parse::parse_edge_list_reader(
            std::io::Cursor::new(format!("{line}\n0 1\n")),
            Path::new("<mem>"),
            EdgeListFormat::Whitespace,
        )
        .unwrap();
        let got = parsed.meta.recorded.unwrap();
        assert_eq!(got.seed, u64::MAX);
        assert_eq!(got.spec, spec);
        assert_eq!(got.spec.feature_sparsity.to_bits(), spec.feature_sparsity.to_bits());
    }
}
