//! Synthetic stand-ins for the five benchmark datasets of paper Table II.
//!
//! The real datasets cannot be redistributed in this offline environment, so
//! each is synthesized with matched *statistics*: vertex count, edge count,
//! input feature length, label count, feature sparsity, and a degree
//! distribution of the appropriate shape (strong power law for the citation
//! graphs and Reddit, weak power law for PPI — the paper explicitly notes
//! PPI's weaker power law explains its smaller caching gains, §VIII-B).
//! Every GNNIE mechanism consumes only these statistics, so the synthetic
//! datasets exercise identical code paths. See DESIGN.md §1.

use serde::{Deserialize, Serialize};

use gnnie_tensor::CsrMatrix;

use crate::csr::CsrGraph;
use crate::features::{generate_features, FeatureProfile};
use crate::generate;
use crate::par::{SimPool, SimThreads};

/// The five benchmark datasets of paper Table II.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Dataset {
    /// Cora citation network (CR).
    Cora,
    /// Citeseer citation network (CS).
    Citeseer,
    /// Pubmed citation network (PB).
    Pubmed,
    /// Protein–protein interaction graph (PPI).
    Ppi,
    /// Reddit post graph (RD).
    Reddit,
}

impl Dataset {
    /// All five datasets in the paper's order.
    pub const ALL: [Dataset; 5] =
        [Dataset::Cora, Dataset::Citeseer, Dataset::Pubmed, Dataset::Ppi, Dataset::Reddit];

    /// The paper's two-letter abbreviation.
    pub fn abbrev(self) -> &'static str {
        match self {
            Dataset::Cora => "CR",
            Dataset::Citeseer => "CS",
            Dataset::Pubmed => "PB",
            Dataset::Ppi => "PPI",
            Dataset::Reddit => "RD",
        }
    }

    /// Full display name.
    pub fn name(self) -> &'static str {
        match self {
            Dataset::Cora => "Cora",
            Dataset::Citeseer => "Citeseer",
            Dataset::Pubmed => "Pubmed",
            Dataset::Ppi => "Protein-protein interaction",
            Dataset::Reddit => "Reddit",
        }
    }

    /// Target statistics from paper Table II.
    pub fn spec(self) -> DatasetSpec {
        match self {
            Dataset::Cora => DatasetSpec {
                dataset: self,
                vertices: 2708,
                edges: 10_556,
                feature_len: 1433,
                labels: 7,
                feature_sparsity: 0.9873,
                degree_gamma: 2.2,
                uniform_frac: 0.0,
            },
            Dataset::Citeseer => DatasetSpec {
                dataset: self,
                vertices: 3327,
                edges: 9104,
                feature_len: 3703,
                labels: 6,
                feature_sparsity: 0.9915,
                degree_gamma: 2.3,
                uniform_frac: 0.0,
            },
            Dataset::Pubmed => DatasetSpec {
                dataset: self,
                vertices: 19_717,
                edges: 88_648,
                feature_len: 500,
                labels: 3,
                feature_sparsity: 0.90,
                degree_gamma: 2.1,
                uniform_frac: 0.0,
            },
            Dataset::Ppi => DatasetSpec {
                dataset: self,
                vertices: 56_944,
                edges: 1_630_000,
                feature_len: 50,
                labels: 121,
                feature_sparsity: 0.981,
                // Weak power law: mostly uniform attachment.
                degree_gamma: 2.5,
                uniform_frac: 0.7,
            },
            Dataset::Reddit => DatasetSpec {
                dataset: self,
                vertices: 232_965,
                edges: 114_600_000,
                feature_len: 602,
                labels: 41,
                feature_sparsity: 0.484,
                // Strong power law: 11% of vertices cover 88% of edges.
                degree_gamma: 1.9,
                uniform_frac: 0.0,
            },
        }
    }
}

impl std::str::FromStr for Dataset {
    type Err = String;

    /// Parses the paper abbreviation or the common lowercase name
    /// (`cr`/`cora`, `cs`/`citeseer`, `pb`/`pubmed`, `ppi`, `rd`/`reddit`),
    /// case-insensitively.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_lowercase().as_str() {
            "cr" | "cora" => Ok(Dataset::Cora),
            "cs" | "citeseer" => Ok(Dataset::Citeseer),
            "pb" | "pubmed" => Ok(Dataset::Pubmed),
            "ppi" => Ok(Dataset::Ppi),
            "rd" | "reddit" => Ok(Dataset::Reddit),
            other => Err(format!("unknown dataset `{other}`")),
        }
    }
}

/// Target statistics for one dataset (paper Table II plus the degree-shape
/// parameters our generators use).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DatasetSpec {
    /// Which dataset this describes.
    pub dataset: Dataset,
    /// Number of vertices (|V|).
    pub vertices: usize,
    /// Number of undirected edges (|E|).
    pub edges: usize,
    /// Input feature vector length (F⁰).
    pub feature_len: usize,
    /// Number of output labels.
    pub labels: usize,
    /// Average input-feature sparsity in `[0, 1]`.
    pub feature_sparsity: f64,
    /// Power-law exponent for the degree distribution generator.
    pub degree_gamma: f64,
    /// Fraction of edges from uniform attachment (weakens the power law).
    pub uniform_frac: f64,
}

impl DatasetSpec {
    /// Scales vertex and edge counts by `scale`, preserving all shape
    /// parameters. Used so the large datasets (PPI, Reddit) can run within
    /// a laptop-class harness budget; the paper's trends are scale-stable.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < scale <= 1`.
    pub fn scaled(mut self, scale: f64) -> Self {
        assert!(scale > 0.0 && scale <= 1.0, "scale must be in (0, 1]");
        if scale < 1.0 {
            self.vertices = ((self.vertices as f64 * scale) as usize).max(16);
            // Edges scale slightly super-linearly in practice; linear is a
            // faithful first order and keeps mean degree constant.
            self.edges = ((self.edges as f64 * scale) as usize).max(32);
        }
        self
    }

    /// Average nonzero count per input feature vector.
    pub fn avg_feature_nnz(&self) -> f64 {
        self.feature_len as f64 * (1.0 - self.feature_sparsity)
    }

    /// The feature profile used for generation: bimodal (Fig. 2) for the
    /// ultra-sparse datasets, unimodal for Reddit's comparatively dense
    /// features.
    pub fn feature_profile(&self) -> FeatureProfile {
        if self.feature_sparsity > 0.8 {
            FeatureProfile::bimodal_for_mean(self.avg_feature_nnz())
        } else {
            FeatureProfile::Unimodal { mean: self.avg_feature_nnz() }
        }
    }

    /// Generates the synthetic dataset for this spec, drawing the graph on
    /// a pool of [`SimThreads::from_env`] workers.
    pub fn generate(&self, seed: u64) -> GraphDataset {
        self.generate_on(seed, &SimPool::new(SimThreads::from_env()))
    }

    /// Generates the synthetic dataset for this spec, splitting the graph's
    /// draws across `pool`. The dataset is the same at every pool width.
    pub fn generate_on(&self, seed: u64, pool: &SimPool) -> GraphDataset {
        let graph = if self.uniform_frac > 0.0 {
            generate::mixed_powerlaw_on(
                self.vertices,
                self.edges,
                self.degree_gamma,
                self.uniform_frac,
                seed,
                pool,
            )
        } else {
            generate::powerlaw_chung_lu_on(
                self.vertices,
                self.edges,
                self.degree_gamma,
                seed,
                pool,
            )
        };
        let features = generate_features(
            self.vertices,
            self.feature_len,
            self.feature_profile(),
            seed ^ 0xFEA7_0000,
        );
        GraphDataset { spec: *self, graph, features }
    }
}

/// A runnable dataset: the graph plus its sparse input feature matrix and
/// the spec describing it.
///
/// Instances are synthesized from a [`DatasetSpec`] or, through the
/// `gnnie-ingest` crate, loaded from edge-list files and `.gnniecsr`
/// snapshots — the engine consumes all of them identically.
#[derive(Debug, Clone)]
pub struct GraphDataset {
    /// The statistics this dataset was generated to match (or the spec
    /// recovered from a dataset file's header).
    pub spec: DatasetSpec,
    /// The graph.
    pub graph: CsrGraph,
    /// Sparse input features, `|V| x feature_len`.
    pub features: CsrMatrix,
}

impl GraphDataset {
    /// Convenience: generate `dataset` at `scale` with `seed`, on a pool of
    /// [`SimThreads::from_env`] workers.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < scale <= 1`.
    pub fn generate(dataset: Dataset, scale: f64, seed: u64) -> Self {
        dataset.spec().scaled(scale).generate(seed)
    }

    /// [`GraphDataset::generate`] on `pool`; the dataset is the same at
    /// every pool width.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < scale <= 1`.
    pub fn generate_on(dataset: Dataset, scale: f64, seed: u64, pool: &SimPool) -> Self {
        dataset.spec().scaled(scale).generate_on(seed, pool)
    }

    /// Assembles a dataset from loader-produced parts (the `gnnie-ingest`
    /// registry and snapshot reload paths).
    ///
    /// # Panics
    ///
    /// Panics if `features` has a row count different from the graph's
    /// vertex count — a loader bug, not a data property.
    pub fn from_parts(spec: DatasetSpec, graph: CsrGraph, features: CsrMatrix) -> Self {
        assert_eq!(
            features.rows(),
            graph.num_vertices(),
            "feature rows must match vertex count"
        );
        Self { spec, graph, features }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_match_table_ii() {
        let cr = Dataset::Cora.spec();
        assert_eq!((cr.vertices, cr.edges, cr.feature_len, cr.labels), (2708, 10_556, 1433, 7));
        let rd = Dataset::Reddit.spec();
        assert_eq!(rd.vertices, 232_965);
        assert_eq!(rd.labels, 41);
        assert!((rd.feature_sparsity - 0.484).abs() < 1e-9);
    }

    #[test]
    fn cora_generation_matches_spec() {
        let ds = GraphDataset::generate(Dataset::Cora, 1.0, 42);
        assert_eq!(ds.graph.num_vertices(), 2708);
        let e = ds.graph.num_edges() as f64;
        assert!((e - 10_556.0).abs() / 10_556.0 < 0.02, "edges {e}");
        assert!((ds.features.sparsity() - 0.9873).abs() < 0.005);
        assert!(ds.graph.adjacency_sparsity() > 0.99);
    }

    #[test]
    fn scaled_dataset_preserves_mean_degree() {
        let full = Dataset::Pubmed.spec();
        let small = full.scaled(0.25);
        let ratio_full = full.edges as f64 / full.vertices as f64;
        let ratio_small = small.edges as f64 / small.vertices as f64;
        assert!((ratio_full - ratio_small).abs() / ratio_full < 0.05);
    }

    #[test]
    fn reddit_scaled_has_strong_power_law() {
        // Paper: 11% of vertices cover 88% of edges on real Reddit.
        // Linear scaling preserves the mean degree (~984), so a 1% scale
        // graph is ~40% dense and saturates — hubs cannot dominate a
        // near-complete graph. The power law still has to show: the top
        // 11% must cover far more than their uniform 11% share.
        let ds = GraphDataset::generate(Dataset::Reddit, 0.01, 7);
        let coverage = ds.graph.edge_coverage_of_top_vertices(0.11);
        assert!(coverage > 0.33, "coverage {coverage} too weak for Reddit-like graph");
        // At a larger (less saturated) scale the skew strengthens.
        let ds5 = GraphDataset::generate(Dataset::Reddit, 0.05, 7);
        let coverage5 = ds5.graph.edge_coverage_of_top_vertices(0.11);
        assert!(
            coverage5 > coverage,
            "less saturation must mean more skew: {coverage5} vs {coverage}"
        );
    }

    #[test]
    fn ppi_has_weaker_power_law_than_reddit() {
        let ppi = GraphDataset::generate(Dataset::Ppi, 0.02, 7);
        let rd = GraphDataset::generate(Dataset::Reddit, 0.01, 7);
        let c_ppi = ppi.graph.edge_coverage_of_top_vertices(0.11);
        let c_rd = rd.graph.edge_coverage_of_top_vertices(0.11);
        assert!(c_ppi < c_rd, "PPI coverage {c_ppi} should be below Reddit coverage {c_rd}");
    }

    #[test]
    #[should_panic(expected = "scale must be in (0, 1]")]
    fn zero_scale_panics() {
        let _ = Dataset::Cora.spec().scaled(0.0);
    }

    #[test]
    fn generation_is_deterministic() {
        let a = GraphDataset::generate(Dataset::Citeseer, 0.5, 3);
        let b = GraphDataset::generate(Dataset::Citeseer, 0.5, 3);
        assert_eq!(a.graph, b.graph);
        assert_eq!(a.features, b.features);
    }

    #[test]
    fn dataset_parses_abbrevs_and_names() {
        for d in Dataset::ALL {
            assert_eq!(d.abbrev().parse::<Dataset>().unwrap(), d);
        }
        assert_eq!("Cora".parse::<Dataset>().unwrap(), Dataset::Cora);
        assert_eq!("REDDIT".parse::<Dataset>().unwrap(), Dataset::Reddit);
        assert!("imdb".parse::<Dataset>().is_err());
    }

    #[test]
    fn from_parts_reassembles_a_generated_dataset() {
        let ds = GraphDataset::generate(Dataset::Cora, 0.05, 7);
        let re = GraphDataset::from_parts(ds.spec, ds.graph.clone(), ds.features.clone());
        assert_eq!(re.graph, ds.graph);
        assert_eq!(re.features, ds.features);
    }

    #[test]
    #[should_panic(expected = "feature rows")]
    fn from_parts_rejects_row_mismatch() {
        let ds = GraphDataset::generate(Dataset::Cora, 0.05, 7);
        let bad = gnnie_tensor::CsrMatrix::from_sparse_rows(4, &[]);
        let _ = GraphDataset::from_parts(ds.spec, ds.graph, bad);
    }
}
