//! Out-of-core load-path equivalence, end to end through the engine.
//!
//! The v3 snapshot has two readers — the copying decoder and the
//! zero-copy mmap path — and the engine must not be able to tell them
//! apart: an `InferenceReport` computed over a memory-mapped dataset
//! must be byte-identical (full `Debug` rendering) to one computed over
//! the same snapshot loaded by copying. Likewise the chunked external
//! ingest must feed the engine the exact bytes the in-memory builder
//! would have.

use gnnie::core::config::AcceleratorConfig;
use gnnie::core::engine::Engine;
use gnnie::gnn::model::ModelConfig;
use gnnie::graph::{Dataset, GraphDataset};
use gnnie::ingest::snapshot::decode_snapshot;
use gnnie::ingest::{
    build_csr_chunked, export_edge_list, mmap_supported, open_snapshot, scan_edge_list,
    write_snapshot, EdgeListFormat,
};
use gnnie::GnnModel;

fn report(ds: &GraphDataset) -> String {
    let cfg = AcceleratorConfig::paper(ds.spec.dataset);
    let mc = ModelConfig::paper(GnnModel::Gcn, &ds.spec);
    format!("{:?}", Engine::new(cfg).run(&mc, ds))
}

#[test]
fn mmap_and_copying_loads_produce_byte_identical_reports() {
    let ds = GraphDataset::generate(Dataset::Cora, 0.1, 17);
    let dir = std::env::temp_dir().join(format!("gnnie-outofcore-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let snap = dir.join("cora.gnniecsr");
    write_snapshot(&snap, &ds, true).unwrap();

    let copied = decode_snapshot(&std::fs::read(&snap).unwrap(), "cora").unwrap();
    let load = open_snapshot(&snap).unwrap();
    assert_eq!(load.mmap, mmap_supported(), "v3 loads zero-copy where the platform allows");
    assert_eq!(load.dataset.graph.is_memory_mapped(), mmap_supported());
    assert!(!copied.graph.is_memory_mapped());

    let from_copy = report(&copied);
    let from_mmap = report(&load.dataset);
    assert_eq!(from_copy, from_mmap, "the engine must not see the load path");
    assert_eq!(from_copy, report(&ds), "and neither differs from the in-memory original");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn chunked_external_ingest_feeds_the_engine_identically() {
    let ds = GraphDataset::generate(Dataset::Citeseer, 0.1, 23);
    let dir =
        std::env::temp_dir().join(format!("gnnie-outofcore-ingest-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("citeseer.edges");
    let format = EdgeListFormat::Whitespace;
    export_edge_list(&path, &ds.graph, format, None).unwrap();

    // Tiny 4 KB spill chunks force many buckets even at this scale.
    let meta = scan_edge_list(&path, format, |_, _| {}).unwrap();
    let (graph, _) = build_csr_chunked(meta.num_vertices(), 4096, None, |sink| {
        scan_edge_list(&path, format, sink).map(|_| ())
    })
    .unwrap();
    assert_eq!(graph, ds.graph, "chunked build must be bit-identical");

    let rebuilt = GraphDataset::from_parts(ds.spec, graph, ds.features.clone());
    assert_eq!(report(&rebuilt), report(&ds));

    std::fs::remove_dir_all(&dir).ok();
}
