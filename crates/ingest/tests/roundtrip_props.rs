//! Property suite for the ingestion pipeline.
//!
//! Two invariants anchor the whole subsystem:
//!
//! 1. **parallel ≡ serial** — the pool-parallel CSR builder produces the
//!    exact graph and accounting of the serial path for *arbitrary* inputs
//!    (duplicates, self-loops, isolated vertices) at pool widths 1–4;
//! 2. **the round trip is lossless** — edge list → parse → CSR →
//!    `.gnniecsr` snapshot → reload reproduces identical offsets,
//!    neighbors, and features, in every text dialect.

use std::io::Cursor;
use std::path::Path;

use gnnie_graph::features::{generate_features, FeatureProfile};
use gnnie_graph::{CsrGraph, Dataset, GraphDataset, SimPool, SimThreads, VertexId};
use gnnie_ingest::build::build_csr_parallel;
use gnnie_ingest::export::render_edge_list;
use gnnie_ingest::parse::{parse_edge_list_reader, RecordedSpec};
use gnnie_ingest::snapshot::{decode_snapshot, encode_snapshot};
use gnnie_ingest::EdgeListFormat;
use proptest::prelude::*;

/// Strategy: a vertex count and an arbitrary raw pair list over it
/// (duplicates and self-loops included — ingest must account for both).
fn arb_input() -> impl Strategy<Value = (usize, Vec<(VertexId, VertexId)>)> {
    (1usize..48).prop_flat_map(|n| {
        prop::collection::vec((0..n as VertexId, 0..n as VertexId), 0..200)
            .prop_map(move |pairs| (n, pairs))
    })
}

/// A small dataset assembled from arbitrary pairs: CSR graph plus
/// features sized to it.
fn dataset_from(n: usize, pairs: &[(VertexId, VertexId)], seed: u64) -> GraphDataset {
    let (graph, _) = CsrGraph::try_from_pairs(n, pairs.iter().copied())
        .expect("ids in range by construction");
    let mut spec = Dataset::Cora.spec();
    spec.vertices = graph.num_vertices();
    spec.edges = graph.num_edges();
    spec.feature_len = 24;
    let features = generate_features(n, 24, FeatureProfile::Unimodal { mean: 5.0 }, seed);
    GraphDataset::from_parts(spec, graph, features)
}

proptest! {
    /// Parallel CSR build ≡ serial build, bit for bit, at pool widths
    /// 1–4 — graph *and* stats.
    #[test]
    fn parallel_build_equals_serial(input in arb_input(), width in 1usize..5) {
        let (n, pairs) = input;
        let (serial, serial_stats) = CsrGraph::try_from_pairs(n, pairs.iter().copied()).unwrap();
        let pool = SimPool::new(SimThreads::Fixed(width));
        let (parallel, stats) = build_csr_parallel(n, &pairs, &pool).unwrap();
        prop_assert_eq!(&parallel, &serial);
        prop_assert_eq!(stats, serial_stats);
        prop_assert_eq!(parallel.offsets(), serial.offsets());
        prop_assert_eq!(parallel.neighbors_flat(), serial.neighbors_flat());
    }

    /// Edge list → parse → CSR → snapshot → reload is lossless in every
    /// dialect: offsets, neighbors, and features all survive.
    #[test]
    fn full_roundtrip_is_lossless(
        input in arb_input(),
        fmt_idx in 0usize..EdgeListFormat::ALL.len(),
        width in 1usize..5,
        seed in 0u64..1000,
    ) {
        let (n, pairs) = input;
        let fmt = EdgeListFormat::ALL[fmt_idx];
        let original = dataset_from(n, &pairs, seed);

        // Export to the text dialect, reparse, rebuild in parallel.
        let mut text = Vec::new();
        render_edge_list(&mut text, &original.graph, fmt, None).unwrap();
        let parsed =
            parse_edge_list_reader(Cursor::new(&text), Path::new("<mem>"), fmt).unwrap();
        prop_assert_eq!(parsed.meta.num_vertices(), n);
        let pool = SimPool::new(SimThreads::Fixed(width));
        let (rebuilt, stats) = build_csr_parallel(n, &parsed.pairs, &pool).unwrap();
        prop_assert_eq!(&rebuilt, &original.graph);
        // Exports write each edge once, so nothing is dropped.
        prop_assert_eq!(stats.duplicates, 0);
        prop_assert_eq!(stats.self_loops, 0);

        // Freeze to a snapshot and reload.
        let reassembled =
            GraphDataset::from_parts(original.spec, rebuilt, original.features.clone());
        let bytes = encode_snapshot(&reassembled);
        let reloaded = decode_snapshot(&bytes, "<mem>").unwrap();
        prop_assert_eq!(reloaded.graph.offsets(), original.graph.offsets());
        prop_assert_eq!(reloaded.graph.neighbors_flat(), original.graph.neighbors_flat());
        prop_assert_eq!(&reloaded.features, &original.features);
        prop_assert_eq!(reloaded.spec, original.spec);
    }

    /// A recorded spec directive survives the text round trip exactly,
    /// including float fields.
    #[test]
    fn spec_directive_roundtrips(input in arb_input(), seed in 0u64..1000) {
        let (n, pairs) = input;
        let original = dataset_from(n, &pairs, seed);
        let rec = RecordedSpec { spec: original.spec, seed };
        let mut text = Vec::new();
        render_edge_list(&mut text, &original.graph, EdgeListFormat::Whitespace, Some(&rec))
            .unwrap();
        let parsed = parse_edge_list_reader(
            Cursor::new(&text),
            Path::new("<mem>"),
            EdgeListFormat::Whitespace,
        )
        .unwrap();
        prop_assert_eq!(parsed.meta.recorded, Some(rec));
    }

    /// Flipping any single byte of a snapshot is detected on reload.
    #[test]
    fn snapshot_byte_flips_are_detected(pos_seed in 0usize..10_000, bit in 0u8..8) {
        let ds = dataset_from(9, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (5, 6)], 3);
        let mut bytes = encode_snapshot(&ds);
        let pos = pos_seed % bytes.len();
        bytes[pos] ^= 1 << bit;
        prop_assert!(decode_snapshot(&bytes, "<mem>").is_err(), "flip at {} survived", pos);
    }
}
