//! Golden digests of whole engine reports: the full `Debug` rendering of
//! every `InferenceReport` — per-layer Weighting and Aggregation reports,
//! DRAM counters, energy, cache statistics — hashed with FNV-1a and pinned
//! per (model, dataset, weight residency).
//!
//! The host-side implementation of any phase (the Weighting block profile
//! and FM/LR scheduler, the cache walk, preprocessing) may be optimized
//! freely, but the simulated report must not move by a single byte. All
//! five models run on small Cora, Citeseer and Pubmed synthetics, cold and
//! with the layer weights already resident (the serving path); three-head
//! GAT and a small DiffPool are pinned beside them.
//!
//! When a change is *meant* to move simulated numbers, the failure
//! message prints the regenerated table to paste below.

use gnnie_core::config::AcceleratorConfig;
use gnnie_core::engine::{Engine, RunOptions};
use gnnie_gnn::model::{GnnModel, ModelConfig};
use gnnie_graph::{Dataset, GraphDataset};

const SEED: u64 = 7;
const DATASETS: [(Dataset, f64); 3] =
    [(Dataset::Cora, 0.5), (Dataset::Citeseer, 0.5), (Dataset::Pubmed, 0.1)];

/// `(model, dataset, [cold digest, weights-resident digest])`.
#[rustfmt::skip]
const GOLDEN: &[(&str, &str, [u64; 2])] = &[
    ("GCN", "Cora", [0xf70bac78432622ed, 0xd2fb02c17d852e31]),
    ("GraphSAGE", "Cora", [0xb6f8d8a285a0fb34, 0x89fe23cca949f164]),
    ("GAT", "Cora", [0x1fe5c2043c8bd1de, 0x9703fcbe5567dcc0]),
    ("GINConv", "Cora", [0x284888dc8a63aaaf, 0x1337a48c9ff81487]),
    ("DiffPool", "Cora", [0x08769ac785e94172, 0x267ffb43f93668f8]),
    ("GCN", "Citeseer", [0x9fec460a49150d49, 0x9c13ea0192bafd98]),
    ("GraphSAGE", "Citeseer", [0xb34ae0e5a4c63990, 0x634d5546fb07f994]),
    ("GAT", "Citeseer", [0x040f951f54255e92, 0x53b724924b935e1b]),
    ("GINConv", "Citeseer", [0xa9086ad65a71eb89, 0xa055a48aff50e83c]),
    ("DiffPool", "Citeseer", [0x3e647fe1d25434f9, 0x152a9f6e1229f873]),
    ("GCN", "Pubmed", [0x1f33b8212d2500de, 0xe502f23365040c68]),
    ("GraphSAGE", "Pubmed", [0x09e308e3a20b873b, 0xcb86bc43ff1f2ac4]),
    ("GAT", "Pubmed", [0x4ca8d7977d059a9d, 0xda16f136c7164141]),
    ("GINConv", "Pubmed", [0xa6f81bc7d946e205, 0xd7d98bea55452ba1]),
    ("DiffPool", "Pubmed", [0x39b383a879951c3f, 0xed853b5f38a7df6b]),
];

/// `(label, dataset, [cold digest, weights-resident digest])` for model
/// shapes the paper configs do not reach: three-head GAT, whose heads
/// share one cache walk per layer, and DiffPool at a scale where its
/// cluster count (`|V| / 4`) falls below the 128-wide hidden layer, so
/// the embedding and pooling GCNs walk two different payload widths.
#[rustfmt::skip]
const SHAPE_GOLDEN: &[(&str, &str, [u64; 2])] = &[
    ("GAT x3", "Cora", [0xf11cf81265a95979, 0xd2118f449db28c33]),
    ("GAT x3", "Citeseer", [0xf2b6f75cf8774fb6, 0xa18cff2c86474634]),
    ("DiffPool small", "Cora", [0xb08b471f0f5a2c0a, 0xf592107d9681d9c1]),
    ("DiffPool small", "Citeseer", [0xeb6f81927ed10cb9, 0x620ec0e92f5218bd]),
];

/// FNV-1a, 64-bit.
fn fnv64(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3))
}

/// The cold and weights-resident digests of `mc` over `ds`.
fn digests(engine: &Engine, mc: &ModelConfig, ds: &GraphDataset) -> [u64; 2] {
    [false, true].map(|weights_resident| {
        let opts = RunOptions { weights_resident, ..RunOptions::default() };
        fnv64(format!("{:?}", engine.run_with(mc, ds, opts)).as_bytes())
    })
}

/// Fails unless `actual` matches `golden` row for row, printing the
/// regenerated table when it does not.
fn assert_golden(actual: &[(String, String, [u64; 2])], golden: &[(&str, &str, [u64; 2])]) {
    let moved: Vec<String> = actual
        .iter()
        .filter(|(label, dataset, got)| {
            let want =
                golden.iter().find(|row| (row.0, row.1) == (label.as_str(), dataset.as_str()));
            want.map_or(true, |row| row.2 != *got)
        })
        .map(|(label, dataset, _)| format!("{label} on {dataset}"))
        .collect();
    let table: String = actual
        .iter()
        .map(|(label, dataset, [cold, hot])| {
            format!("    ({label:?}, {dataset:?}, [0x{cold:016x}, 0x{hot:016x}]),\n")
        })
        .collect();
    assert!(
        moved.is_empty() && actual.len() == golden.len(),
        "engine reports moved:\n  {}\nregenerated table:\n{table}",
        moved.join("\n  ")
    );
}

#[test]
fn engine_reports_match_the_golden_digests() {
    let mut actual = Vec::new();
    for (dataset, scale) in DATASETS {
        let ds = GraphDataset::generate(dataset, scale, SEED);
        let engine = Engine::new(AcceleratorConfig::paper(dataset));
        for model in GnnModel::ALL {
            let mc = ModelConfig::paper(model, &ds.spec);
            actual.push((
                model.to_string(),
                format!("{dataset:?}"),
                digests(&engine, &mc, &ds),
            ));
        }
    }
    assert_golden(&actual, GOLDEN);
}

#[test]
fn multihead_gat_and_small_diffpool_match_the_golden_digests() {
    let mut actual = Vec::new();
    for (dataset, scale) in [(Dataset::Cora, 0.5), (Dataset::Citeseer, 0.5)] {
        let ds = GraphDataset::generate(dataset, scale, SEED);
        let engine = Engine::new(AcceleratorConfig::paper(dataset));
        let mc = ModelConfig::gat_multihead(&ds.spec, 3);
        actual.push(("GAT x3".to_string(), format!("{dataset:?}"), digests(&engine, &mc, &ds)));
    }
    for (dataset, scale) in [(Dataset::Cora, 0.1), (Dataset::Citeseer, 0.1)] {
        let ds = GraphDataset::generate(dataset, scale, SEED);
        let engine = Engine::new(AcceleratorConfig::paper(dataset));
        let mc = ModelConfig::paper(GnnModel::DiffPool, &ds.spec);
        assert!(mc.diffpool_clusters.unwrap() < mc.hidden, "two distinct DiffPool walks");
        let label = "DiffPool small".to_string();
        actual.push((label, format!("{dataset:?}"), digests(&engine, &mc, &ds)));
    }
    assert_golden(&actual, SHAPE_GOLDEN);
}
