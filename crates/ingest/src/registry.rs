//! The dataset registry: name/path → runnable [`GraphDataset`].
//!
//! Resolution order for a Table II dataset name:
//!
//! 1. a file in the data directory (`GNNIE_DATA_DIR` or an explicit
//!    path), probed as `<stem>.<ext>` for stems `cora`/`cr` (etc.) and
//!    extensions `.gnniecsr`, `.edges`, `.csv`, `.tsv` — in
//!    that priority order (cache beats raw);
//! 2. otherwise the existing Table II synthesizer — so everything keeps
//!    working offline with no data directory at all.
//!
//! Explicit paths skip the probe: [`DatasetRegistry::load_path`] detects
//! the format from the file's leading bytes and loads accordingly.
//! Files without a recorded spec (foreign edge lists) get features
//! synthesized from a fallback dataset's Table II statistics, sized to
//! the actual graph.

use std::path::{Path, PathBuf};

use gnnie_graph::features::generate_features;
use gnnie_graph::{CsrBuildStats, Dataset, DatasetSpec, GraphDataset, SimPool};

use crate::build::build_csr_parallel;
use crate::chunked::build_csr_chunked;
use crate::error::IngestError;
use crate::format::{detect_file_format, FileFormat};
use crate::parse::{parse_edge_list, scan_edge_list, EdgeListMeta, RecordedSpec};
use crate::snapshot::open_snapshot;
use crate::source::{Provenance, Resolved};

/// The seed-mixing constant of `DatasetSpec::generate`: features are
/// always generated with `seed ^ FEATURE_SEED_MIX`, so file-backed loads
/// reproduce synthesized features bit-for-bit.
const FEATURE_SEED_MIX: u64 = 0xFEA7_0000;

/// Resolves dataset names and paths to graphs; see the module docs.
#[derive(Debug, Clone, Default)]
pub struct DatasetRegistry {
    data_dir: Option<PathBuf>,
}

/// File stems probed for a dataset, most specific first.
fn stems(dataset: Dataset) -> [&'static str; 2] {
    match dataset {
        Dataset::Cora => ["cora", "cr"],
        Dataset::Citeseer => ["citeseer", "cs"],
        Dataset::Pubmed => ["pubmed", "pb"],
        Dataset::Ppi => ["ppi", "ppi"],
        Dataset::Reddit => ["reddit", "rd"],
    }
}

/// Extension probe order: the snapshot cache beats raw formats.
const EXTENSIONS: [&str; 4] = ["gnniecsr", "edges", "csv", "tsv"];

impl DatasetRegistry {
    /// A registry over an explicit data directory (`None` = synthesis
    /// only).
    pub fn new(data_dir: Option<PathBuf>) -> Self {
        Self { data_dir }
    }

    /// A registry over `$GNNIE_DATA_DIR` (unset/empty = synthesis only).
    pub fn from_env() -> Self {
        Self::new(std::env::var_os("GNNIE_DATA_DIR").filter(|v| !v.is_empty()).map(Into::into))
    }

    /// The data directory being probed, if any.
    pub fn data_dir(&self) -> Option<&Path> {
        self.data_dir.as_deref()
    }

    /// Where `dataset` currently resolves: the first existing candidate
    /// file, else the synthesizer. The probe goes by file name and loads
    /// nothing, so a snapshot reads `mmap: false` here; the load itself
    /// reports which path it took.
    pub fn source_for(&self, dataset: Dataset) -> Provenance {
        let Some(dir) = &self.data_dir else {
            return Provenance::Synth;
        };
        for ext in EXTENSIONS {
            for stem in stems(dataset) {
                let path = dir.join(format!("{stem}.{ext}"));
                if path.is_file() {
                    return match ext {
                        "gnniecsr" => Provenance::Snapshot { path, mmap: false },
                        _ => Provenance::EdgeList(path),
                    };
                }
            }
        }
        Provenance::Synth
    }

    /// Loads `dataset`: file-backed when a candidate file exists,
    /// otherwise synthesized at `scale` with `seed` (file-backed loads
    /// ignore `scale` — the file is what it is). Synthesis and edge-list
    /// builds run on `pool`.
    ///
    /// # Errors
    ///
    /// Any [`IngestError`] from the file path; a file recorded for a
    /// *different* dataset is rejected rather than silently served.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < scale <= 1` (synthesis path only).
    pub fn load(
        &self,
        dataset: Dataset,
        scale: f64,
        seed: u64,
        pool: &SimPool,
    ) -> Result<Resolved, IngestError> {
        let source = self.source_for(dataset);
        let Some(path) = source.path() else {
            return Ok(Self::synthesize(dataset, scale, seed, pool));
        };
        let resolved = self.load_path(path, dataset, seed, pool)?;
        let got = resolved.dataset.spec.dataset;
        if got != dataset {
            return Err(IngestError::Format(format!(
                "{}: file records dataset {} but {} was requested",
                path.display(),
                got.abbrev(),
                dataset.abbrev()
            )));
        }
        Ok(resolved)
    }

    /// Synthesizes `dataset` at `scale` with `seed`, bypassing any data
    /// directory — the canonical [`Resolved`] for the in-process
    /// synthesizer ([`crate::DataSource::Synth`] resolves through this).
    /// The graph's draws run on `pool`; the dataset is the same at every
    /// pool width.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < scale <= 1`.
    pub fn synthesize(dataset: Dataset, scale: f64, seed: u64, pool: &SimPool) -> Resolved {
        Resolved {
            dataset: GraphDataset::generate_on(dataset, scale, seed, pool),
            provenance: Provenance::Synth,
            stats: None,
            dropped_weights: None,
            recorded_spec: true,
        }
    }

    /// Loads the dataset file at `path`, auto-detecting its format. Text
    /// edge lists are built into CSR on `pool` (`gnnie ingest
    /// --sim-threads`). Foreign files (no recorded spec) synthesize
    /// features from `fallback`'s Table II statistics, sized to the
    /// actual graph, with `seed`.
    ///
    /// # Errors
    ///
    /// Any [`IngestError`] surfaced by detection, parsing, CSR
    /// construction, or snapshot verification.
    pub fn load_path(
        &self,
        path: &Path,
        fallback: Dataset,
        seed: u64,
        pool: &SimPool,
    ) -> Result<Resolved, IngestError> {
        match detect_file_format(path)? {
            FileFormat::Snapshot => {
                let load = open_snapshot(path)?;
                Ok(Resolved {
                    dataset: load.dataset,
                    provenance: Provenance::Snapshot {
                        path: path.to_path_buf(),
                        mmap: load.mmap,
                    },
                    stats: None,
                    dropped_weights: None,
                    recorded_spec: true,
                })
            }
            FileFormat::EdgeList(format) => {
                let parsed = parse_edge_list(path, format)?;
                let (graph, stats) =
                    build_csr_parallel(parsed.meta.num_vertices(), &parsed.pairs, pool)?;
                resolve_edge_list(path, graph, stats, &parsed.meta, fallback, seed)
            }
        }
    }

    /// Loads a text edge list with the chunked external COO→CSR builder
    /// ([`build_csr_chunked`]): the file is streamed three times
    /// (metadata, degree count, scatter) and intermediate records spill
    /// to the temp directory, so peak memory stays near `chunk_bytes`
    /// plus the final CSR — for graphs whose raw edge list does not fit
    /// in memory. The result is bit-identical to [`Self::load_path`].
    ///
    /// Snapshots delegate to [`Self::load_path`]: the layout is already
    /// compact and loads without a COO stage, so it needs no pool.
    ///
    /// # Errors
    ///
    /// See [`Self::load_path`], plus [`IngestError::Io`] from spill-file
    /// I/O.
    pub fn load_path_chunked(
        &self,
        path: &Path,
        fallback: Dataset,
        seed: u64,
        chunk_bytes: u64,
    ) -> Result<Resolved, IngestError> {
        let format = match detect_file_format(path)? {
            FileFormat::EdgeList(f) => f,
            _ => return self.load_path(path, fallback, seed, &SimPool::serial()),
        };
        // Metadata pass: directives and the vertex count, pairs discarded.
        let meta = scan_edge_list(path, format, |_, _| {})?;
        let (graph, stats) =
            build_csr_chunked(meta.num_vertices(), chunk_bytes, None, |sink| {
                scan_edge_list(path, format, sink).map(|_| ())
            })?;
        resolve_edge_list(path, graph, stats, &meta, fallback, seed)
    }
}

/// Builds the [`Resolved`] for a parsed-and-built edge list: recorded
/// specs are honored (and cross-checked against the actual vertex
/// count), foreign files get `fallback`-shaped features. Shared by the
/// in-memory and chunked load paths so they stay bit-identical.
fn resolve_edge_list(
    path: &Path,
    graph: gnnie_graph::CsrGraph,
    stats: CsrBuildStats,
    meta: &EdgeListMeta,
    fallback: Dataset,
    seed: u64,
) -> Result<Resolved, IngestError> {
    let (spec, feature_seed) = match meta.recorded {
        Some(RecordedSpec { spec, seed: recorded_seed }) => {
            if spec.vertices != graph.num_vertices() {
                return Err(IngestError::Format(format!(
                    "{}: recorded spec says {} vertices but the file has {}",
                    path.display(),
                    spec.vertices,
                    graph.num_vertices()
                )));
            }
            (spec, recorded_seed)
        }
        None => (spec_sized_to(fallback, graph.num_vertices(), graph.num_edges()), seed),
    };
    let features = regenerate_features(&spec, feature_seed);
    Ok(Resolved {
        dataset: GraphDataset::from_parts(spec, graph, features),
        provenance: Provenance::EdgeList(path.to_path_buf()),
        stats: Some(stats),
        dropped_weights: meta.first_weight_line.map(|l| (meta.weighted_lines, l)),
        recorded_spec: meta.recorded.is_some(),
    })
}

/// `fallback`'s Table II shape parameters, sized to an actual graph.
fn spec_sized_to(fallback: Dataset, vertices: usize, edges: usize) -> DatasetSpec {
    let mut spec = fallback.spec();
    spec.vertices = vertices;
    spec.edges = edges;
    spec
}

/// Regenerates input features exactly as `DatasetSpec::generate` does.
fn regenerate_features(spec: &DatasetSpec, seed: u64) -> gnnie_tensor::CsrMatrix {
    generate_features(
        spec.vertices,
        spec.feature_len,
        spec.feature_profile(),
        seed ^ FEATURE_SEED_MIX,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::export::export_edge_list;
    use crate::format::EdgeListFormat;
    use crate::snapshot::write_snapshot;

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("gnnie-registry-test").join(name);
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn no_data_dir_means_synthetic() {
        let reg = DatasetRegistry::new(None);
        assert_eq!(reg.source_for(Dataset::Cora), Provenance::Synth);
        let out = reg.load(Dataset::Cora, 0.02, 7, &SimPool::serial()).unwrap();
        assert_eq!(out.provenance, Provenance::Synth);
        let direct = GraphDataset::generate(Dataset::Cora, 0.02, 7);
        assert_eq!(out.dataset.graph, direct.graph);
        assert_eq!(out.dataset.features, direct.features);
    }

    #[test]
    fn snapshot_beats_edge_list_in_probe_order() {
        let dir = tmpdir("probe");
        let ds = GraphDataset::generate(Dataset::Cora, 0.02, 7);
        let rec = RecordedSpec { spec: ds.spec, seed: 7 };
        export_edge_list(
            &dir.join("cora.edges"),
            &ds.graph,
            EdgeListFormat::Whitespace,
            Some(&rec),
        )
        .unwrap();
        let reg = DatasetRegistry::new(Some(dir.clone()));
        assert!(matches!(reg.source_for(Dataset::Cora), Provenance::EdgeList(_)));
        write_snapshot(&dir.join("cora.gnniecsr"), &ds, false).unwrap();
        assert!(matches!(reg.source_for(Dataset::Cora), Provenance::Snapshot { .. }));
        // Other datasets still synthesize.
        assert_eq!(reg.source_for(Dataset::Reddit), Provenance::Synth);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn file_backed_load_reproduces_synthesis_exactly() {
        let dir = tmpdir("exact");
        let ds = GraphDataset::generate(Dataset::Citeseer, 0.05, 42);
        let rec = RecordedSpec { spec: ds.spec, seed: 42 };
        export_edge_list(&dir.join("cs.csv"), &ds.graph, EdgeListFormat::Csv, Some(&rec))
            .unwrap();
        let reg = DatasetRegistry::new(Some(dir.clone()));
        // The file ignores scale and seed.
        let out = reg.load(Dataset::Citeseer, 0.9, 1234, &SimPool::serial()).unwrap();
        assert_eq!(out.dataset.graph, ds.graph);
        assert_eq!(out.dataset.features, ds.features);
        assert_eq!(out.dataset.spec, ds.spec);
        assert_eq!(out.stats.unwrap().edges, ds.graph.num_edges());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn mismatched_dataset_file_is_rejected() {
        let dir = tmpdir("mismatch");
        let ds = GraphDataset::generate(Dataset::Cora, 0.02, 7);
        // A Cora snapshot masquerading under the Pubmed stem.
        write_snapshot(&dir.join("pubmed.gnniecsr"), &ds, false).unwrap();
        let reg = DatasetRegistry::new(Some(dir.clone()));
        let err = reg.load(Dataset::Pubmed, 1.0, 7, &SimPool::serial()).unwrap_err();
        assert!(err.to_string().contains("records dataset CR"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn foreign_files_get_fallback_features() {
        let dir = tmpdir("foreign");
        let path = dir.join("web.edges");
        std::fs::write(&path, "0 1\n1 2\n2 3\n0 3\n").unwrap();
        let reg = DatasetRegistry::new(None);
        let out = reg.load_path(&path, Dataset::Cora, 99, &SimPool::serial()).unwrap();
        assert_eq!(out.dataset.graph.num_vertices(), 4);
        assert_eq!(out.dataset.spec.dataset, Dataset::Cora);
        assert_eq!(out.dataset.spec.vertices, 4);
        assert_eq!(out.dataset.features.rows(), 4);
        assert_eq!(out.dataset.features.cols(), Dataset::Cora.spec().feature_len);
        // Deterministic in the seed.
        let again = reg.load_path(&path, Dataset::Cora, 99, &SimPool::serial()).unwrap();
        assert_eq!(again.dataset.features, out.dataset.features);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn chunked_load_is_bit_identical_to_in_memory_load() {
        let dir = tmpdir("chunked");
        let ds = GraphDataset::generate(Dataset::Cora, 0.05, 11);
        let rec = RecordedSpec { spec: ds.spec, seed: 11 };
        let path = dir.join("cr.edges");
        export_edge_list(&path, &ds.graph, EdgeListFormat::Whitespace, Some(&rec)).unwrap();
        let reg = DatasetRegistry::new(None);
        let whole = reg.load_path(&path, Dataset::Cora, 11, &SimPool::serial()).unwrap();
        // A deliberately tiny chunk budget forces many spill buckets.
        let chunked = reg.load_path_chunked(&path, Dataset::Cora, 11, 1024).unwrap();
        assert_eq!(chunked.dataset.graph, whole.dataset.graph);
        assert_eq!(chunked.dataset.features, whole.dataset.features);
        assert_eq!(chunked.dataset.spec, whole.dataset.spec);
        assert_eq!(chunked.stats, whole.stats);
        assert_eq!(chunked.recorded_spec, whole.recorded_spec);
        // Non-edge-list files silently take the regular path.
        let snap = dir.join("cr.gnniecsr");
        write_snapshot(&snap, &ds, false).unwrap();
        let via_chunked = reg.load_path_chunked(&snap, Dataset::Cora, 11, 1024).unwrap();
        assert!(matches!(via_chunked.provenance, Provenance::Snapshot { .. }));
        assert_eq!(via_chunked.dataset.graph, ds.graph);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recorded_vertex_mismatch_is_rejected() {
        let dir = tmpdir("vmismatch");
        let ds = GraphDataset::generate(Dataset::Cora, 0.02, 7);
        let mut spec = ds.spec;
        spec.vertices += 5; // lie about the count
        let rec = RecordedSpec { spec, seed: 7 };
        let path = dir.join("lie.edges");
        export_edge_list(&path, &ds.graph, EdgeListFormat::Whitespace, Some(&rec)).unwrap();
        // The vertices directive (truthful) wins for graph size, so the
        // recorded spec disagrees and the load is rejected.
        let reg = DatasetRegistry::new(None);
        let err = reg.load_path(&path, Dataset::Cora, 7, &SimPool::serial()).unwrap_err();
        assert!(err.to_string().contains("recorded spec"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
