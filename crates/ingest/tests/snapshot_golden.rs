//! The `.gnniecsr` format is frozen: new files must stay byte-identical
//! to the ones earlier builds wrote, and files earlier builds wrote must
//! keep loading.
//!
//! * `encode_snapshot` output is pinned by FNV-1a digest for three
//!   datasets. The digests were taken from a build that still wrote
//!   partition tables, encoding with none (an empty `PART` section), so
//!   they pin the layout, not just this build's own output.
//! * `fixtures/ring.gnniecsr` is `fixtures/ring.edges` as
//!   `gnnie ingest --shards 4` wrote it when snapshots carried six
//!   partition tables (range and edgecut at 2, 4 and 8 chips) in `PART`.
//!   Both load paths must still read it, to the dataset that ingesting
//!   the same edge list produces now.

use std::path::{Path, PathBuf};

use gnnie_graph::{Dataset, GraphDataset, SimPool, SimThreads};
use gnnie_ingest::snapshot::{decode_snapshot, encode_snapshot};
use gnnie_ingest::{mmap_supported, open_snapshot, DatasetRegistry, Provenance};

/// FNV-1a, 64-bit.
fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// `(dataset, scale, seed, encoded length, digest)`.
#[rustfmt::skip]
const GOLDEN: &[(Dataset, f64, u64, usize, u64)] = &[
    (Dataset::Cora, 0.02, 9, 11_600, 0xce92_72a7_36eb_2833),
    (Dataset::Citeseer, 0.05, 42, 48_080, 0xe702_e432_c14c_2250),
    (Dataset::Pubmed, 0.02, 7, 180_264, 0xb209_d884_af60_e5a5),
];

#[test]
fn encoded_snapshots_match_the_pinned_digests() {
    for &(dataset, scale, seed, len, digest) in GOLDEN {
        let bytes = encode_snapshot(&GraphDataset::generate(dataset, scale, seed));
        assert_eq!(
            (bytes.len(), fnv64(&bytes)),
            (len, digest),
            "{dataset:?} at {scale} seed {seed}: got ({}, {:#018x})",
            bytes.len(),
            fnv64(&bytes)
        );
    }
}

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name)
}

#[test]
fn a_snapshot_with_partition_tables_loads_on_both_paths() {
    let path = fixture("ring.gnniecsr");
    let bytes = std::fs::read(&path).unwrap();
    // `gnnie ingest`'s defaults: Cora fallback features, seed 42.
    let fresh = DatasetRegistry::new(None)
        .load_path(
            &fixture("ring.edges"),
            Dataset::Cora,
            42,
            &SimPool::new(SimThreads::Fixed(4)),
        )
        .unwrap();
    assert_eq!(fresh.provenance, Provenance::EdgeList(fixture("ring.edges")));
    let fresh = fresh.dataset;
    // The six tables are what makes the fixture longer than a fresh
    // encoding of the same dataset.
    assert_eq!(bytes.len(), 1_744);
    assert!(encode_snapshot(&fresh).len() < bytes.len());

    let copied = decode_snapshot(&bytes, "ring").unwrap();
    let load = open_snapshot(&path).unwrap();
    assert_eq!(load.mmap, mmap_supported());
    for (name, ds) in [("copying", &copied), ("open_snapshot", &load.dataset)] {
        assert_eq!(ds.spec, fresh.spec, "{name}");
        assert_eq!(ds.graph, fresh.graph, "{name}");
        assert_eq!(ds.features, fresh.features, "{name}");
    }
}
