//! The unified dataset-resolution API.
//!
//! Before this module existed, three call sites each rolled their own
//! dataset resolution: the CLI's `--dataset` flag (registry name lookup),
//! its `--graph` flag (explicit file load), and the bench harness
//! (in-process synthesis). [`DataSource`] folds all three into one enum
//! with a single [`DataSource::resolve`] entry point, and [`Resolved`]
//! carries uniform [`Provenance`] so every consumer can report *where the
//! bits actually came from* — synthesizer, edge list, or a snapshot
//! (and whether the snapshot load was zero-copy via `mmap`).

use std::fmt;
use std::path::{Path, PathBuf};

use gnnie_graph::{CsrBuildStats, Dataset, GraphDataset, SimPool, SimThreads};

use crate::error::IngestError;
use crate::registry::DatasetRegistry;
use crate::snapshot::SNAPSHOT_VERSION;

/// One description of where a dataset should come from.
///
/// Construct with [`DataSource::synth`], [`DataSource::named`], or
/// [`DataSource::file`], then call [`DataSource::resolve`].
#[derive(Debug, Clone, PartialEq)]
pub enum DataSource {
    /// Always the Table II synthesizer — never probes the data
    /// directory. The bench harness uses this for reproducible inputs.
    Synth {
        /// Which Table II dataset to synthesize.
        dataset: Dataset,
        /// Scale factor in `(0, 1]`.
        scale: f64,
        /// Synthesis seed.
        seed: u64,
    },
    /// A dataset *name*: file-backed when the registry's data directory
    /// has a candidate file, synthesized otherwise (the CLI `--dataset`
    /// path).
    Named {
        /// Which dataset name to resolve.
        dataset: Dataset,
        /// Scale factor for the synthesis fallback.
        scale: f64,
        /// Seed for the synthesis fallback.
        seed: u64,
    },
    /// An explicit file path, format auto-detected (the CLI `--graph`
    /// path).
    File {
        /// The file to load.
        path: PathBuf,
        /// Spec/feature fallback for files without a recorded spec.
        fallback: Dataset,
        /// Feature-synthesis seed for foreign files.
        seed: u64,
    },
}

impl DataSource {
    /// A source that always synthesizes.
    pub fn synth(dataset: Dataset, scale: f64, seed: u64) -> Self {
        DataSource::Synth { dataset, scale, seed }
    }

    /// A source resolving a dataset name through the registry probe.
    pub fn named(dataset: Dataset, scale: f64, seed: u64) -> Self {
        DataSource::Named { dataset, scale, seed }
    }

    /// A source loading an explicit file (text edge lists build on a
    /// pool of `GNNIE_SIM_THREADS` workers).
    pub fn file(path: impl Into<PathBuf>, fallback: Dataset, seed: u64) -> Self {
        DataSource::File { path: path.into(), fallback, seed }
    }

    /// Resolves this source to a runnable dataset through `registry`.
    /// Synthesis and text edge-list builds run on a pool of
    /// `GNNIE_SIM_THREADS` workers.
    ///
    /// # Errors
    ///
    /// Any [`IngestError`] from the underlying load; the synthesis paths
    /// cannot fail (they panic on an out-of-range `scale`, exactly like
    /// [`GraphDataset::generate`]).
    pub fn resolve(&self, registry: &DatasetRegistry) -> Result<Resolved, IngestError> {
        self.resolve_on(registry, &SimPool::new(SimThreads::from_env()))
    }

    /// [`DataSource::resolve`] with synthesis and text edge-list builds on
    /// `pool`. The dataset is the same at every pool width.
    ///
    /// # Errors
    ///
    /// As [`DataSource::resolve`].
    pub fn resolve_on(
        &self,
        registry: &DatasetRegistry,
        pool: &SimPool,
    ) -> Result<Resolved, IngestError> {
        match self {
            DataSource::Synth { dataset, scale, seed } => {
                Ok(DatasetRegistry::synthesize(*dataset, *scale, *seed, pool))
            }
            DataSource::Named { dataset, scale, seed } => {
                registry.load(*dataset, *scale, *seed, pool)
            }
            DataSource::File { path, fallback, seed } => {
                registry.load_path(path, *fallback, *seed, pool)
            }
        }
    }
}

/// A resolved dataset plus where it came from and, for parsed files, the
/// build accounting.
#[derive(Debug, Clone)]
pub struct Resolved {
    /// The runnable dataset.
    pub dataset: GraphDataset,
    /// Where the bits came from, in reportable form.
    pub provenance: Provenance,
    /// Parse/build accounting — present for edge-list loads, `None` for
    /// synthesis and snapshots (nothing is dropped on those paths).
    pub stats: Option<CsrBuildStats>,
    /// `(count, first 1-based line)` of edge-list lines whose third
    /// (weight) column was dropped — GNNIE graphs are unweighted. The
    /// CLI turns this into a one-line warning; `None` when no weights
    /// appeared (or the source was not a text edge list).
    pub dropped_weights: Option<(usize, usize)>,
    /// `true` when `dataset.spec` is authoritative (synthesis, snapshot,
    /// or a recorded `gnnie spec` header); `false` when it was sized
    /// from the fallback dataset's statistics (foreign edge list).
    pub recorded_spec: bool,
}

impl Resolved {
    /// The runnable dataset.
    pub fn dataset(&self) -> &GraphDataset {
        &self.dataset
    }

    /// Consumes the resolution, returning the dataset alone.
    pub fn into_dataset(self) -> GraphDataset {
        self.dataset
    }
}

/// Where a resolved dataset's bits came from.
///
/// The `Display` form is what `gnnie run`, `gnnie ingest` and `gnnie
/// datasets` print: `synthetic`, `edge-list <path>`, or `snapshot-v3
/// <path>` with an `(mmap)` marker when the load was zero-copy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Provenance {
    /// The offline Table II synthesizer.
    Synth,
    /// A parsed text edge list.
    EdgeList(PathBuf),
    /// A `.gnniecsr` snapshot.
    Snapshot {
        /// The snapshot file.
        path: PathBuf,
        /// `true` when the load was zero-copy via `mmap` (supported
        /// platforms only).
        mmap: bool,
    },
}

impl Provenance {
    /// The backing file, if any.
    pub fn path(&self) -> Option<&Path> {
        match self {
            Provenance::Synth => None,
            Provenance::EdgeList(p) => Some(p),
            Provenance::Snapshot { path, .. } => Some(path),
        }
    }
}

impl fmt::Display for Provenance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Provenance::Synth => f.write_str("synthetic"),
            Provenance::EdgeList(p) => write!(f, "edge-list {}", p.display()),
            Provenance::Snapshot { path, mmap } => {
                write!(f, "snapshot-v{SNAPSHOT_VERSION}")?;
                if *mmap {
                    f.write_str(" (mmap)")?;
                }
                write!(f, " {}", path.display())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::export::export_edge_list;
    use crate::format::EdgeListFormat;
    use crate::parse::RecordedSpec;
    use crate::snapshot::{mmap_supported, write_snapshot};

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("gnnie-source-test").join(name);
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn synth_matches_direct_generation_and_reports_synth() {
        let reg = DatasetRegistry::new(None);
        let r = DataSource::synth(Dataset::Cora, 0.02, 7).resolve(&reg).unwrap();
        assert_eq!(r.provenance, Provenance::Synth);
        assert_eq!(r.provenance.to_string(), "synthetic");
        let direct = GraphDataset::generate(Dataset::Cora, 0.02, 7);
        assert_eq!(r.dataset().graph, direct.graph);
        assert_eq!(r.dataset().features, direct.features);
    }

    #[test]
    fn synth_never_probes_the_data_directory() {
        let dir = tmpdir("noprobe");
        let ds = GraphDataset::generate(Dataset::Cora, 0.02, 7);
        write_snapshot(&dir.join("cora.gnniecsr"), &ds, false).unwrap();
        let reg = DatasetRegistry::new(Some(dir.clone()));
        // Named resolves to the snapshot, Synth ignores it.
        let named = DataSource::named(Dataset::Cora, 0.02, 7).resolve(&reg).unwrap();
        assert!(matches!(named.provenance, Provenance::Snapshot { .. }));
        let synth = DataSource::synth(Dataset::Cora, 0.02, 7).resolve(&reg).unwrap();
        assert_eq!(synth.provenance, Provenance::Synth);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn file_resolution_reports_snapshot_version_and_mmap() {
        let dir = tmpdir("snapv3");
        let ds = GraphDataset::generate(Dataset::Citeseer, 0.05, 42);
        let path = dir.join("cs.gnniecsr");
        write_snapshot(&path, &ds, false).unwrap();
        let reg = DatasetRegistry::new(None);
        let r = DataSource::file(&path, Dataset::Citeseer, 42).resolve(&reg).unwrap();
        assert_eq!(
            r.provenance,
            Provenance::Snapshot { path: path.clone(), mmap: mmap_supported() }
        );
        let shown = r.provenance.to_string();
        assert!(shown.starts_with("snapshot-v3"), "{shown}");
        assert_eq!(shown.contains("(mmap)"), mmap_supported(), "{shown}");
        assert_eq!(r.dataset().graph, ds.graph);
        assert_eq!(r.dataset().features, ds.features);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn edge_list_provenance_displays_the_path() {
        let dir = tmpdir("edges");
        let path = dir.join("web.edges");
        std::fs::write(&path, "0 1\n1 2\n2 3\n").unwrap();
        let reg = DatasetRegistry::new(None);
        let r = DataSource::file(&path, Dataset::Cora, 9).resolve(&reg).unwrap();
        assert_eq!(r.provenance, Provenance::EdgeList(path.clone()));
        assert!(r.provenance.to_string().contains("web.edges"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn every_source_resolves_the_same_on_every_pool() {
        let dir = tmpdir("pools");
        let ds = GraphDataset::generate(Dataset::Cora, 1.0, 3);
        let rec = RecordedSpec { spec: ds.spec, seed: 3 };
        let edges = dir.join("cora.edges");
        export_edge_list(&edges, &ds.graph, EdgeListFormat::Whitespace, Some(&rec)).unwrap();
        let snap = dir.join("frozen.gnniecsr");
        write_snapshot(&snap, &ds, false).unwrap();
        let reg = DatasetRegistry::new(Some(dir.clone()));
        let sources = [
            (DataSource::synth(Dataset::Reddit, 0.01, 5), Provenance::Synth),
            (DataSource::named(Dataset::Cora, 0.5, 3), Provenance::EdgeList(edges)),
            (
                DataSource::file(&snap, Dataset::Cora, 3),
                Provenance::Snapshot { path: snap.clone(), mmap: mmap_supported() },
            ),
        ];
        for (source, provenance) in &sources {
            let serial = source.resolve_on(&reg, &SimPool::serial()).unwrap();
            assert_eq!(&serial.provenance, provenance);
            for width in [2, 4] {
                let pool = SimPool::new(SimThreads::Fixed(width));
                let r = source.resolve_on(&reg, &pool).unwrap();
                assert_eq!(r.provenance, serial.provenance, "{source:?} at width {width}");
                assert_eq!(r.dataset.spec, serial.dataset.spec, "{source:?} at width {width}");
                assert_eq!(
                    r.dataset.graph, serial.dataset.graph,
                    "{source:?} at width {width}"
                );
                assert_eq!(r.dataset.features, serial.dataset.features, "{source:?}");
                assert_eq!(r.stats, serial.stats, "{source:?} at width {width}");
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
