//! Property suite for the out-of-core ingest path.
//!
//! The anchor invariant of `build_csr_chunked`: for *any* chunk budget —
//! from one that forces a spill bucket per handful of vertices up to one
//! holding the whole graph — the external build produces the exact graph
//! and accounting of the in-memory builders. Sorted-deduplicated
//! adjacency is a canonical form, so this is bit-identity, not just
//! isomorphism.

use gnnie_graph::{CsrGraph, SimPool, SimThreads, VertexId};
use gnnie_ingest::build::build_csr_parallel;
use gnnie_ingest::build_csr_chunked;
use proptest::prelude::*;

/// Strategy: a vertex count and an arbitrary raw pair list over it
/// (duplicates and self-loops included).
fn arb_input() -> impl Strategy<Value = (usize, Vec<(VertexId, VertexId)>)> {
    (1usize..48).prop_flat_map(|n| {
        prop::collection::vec((0..n as VertexId, 0..n as VertexId), 0..200)
            .prop_map(move |pairs| (n, pairs))
    })
}

proptest! {
    /// Chunked external build ≡ serial ≡ parallel, bit for bit, for
    /// arbitrary chunk budgets and pool widths 1–4 — graph *and* stats.
    #[test]
    fn chunked_build_equals_in_memory(
        input in arb_input(),
        chunk_bytes in 1u64..8192,
        width in 1usize..5,
    ) {
        let (n, pairs) = input;
        let (serial, serial_stats) = CsrGraph::try_from_pairs(n, pairs.iter().copied()).unwrap();
        let pool = SimPool::new(SimThreads::Fixed(width));
        let (parallel, parallel_stats) = build_csr_parallel(n, &pairs, &pool).unwrap();
        let (chunked, stats) = build_csr_chunked(n, chunk_bytes, None, |sink| {
            for &(u, v) in &pairs {
                sink(u, v);
            }
            Ok(())
        })
        .unwrap();
        prop_assert_eq!(&chunked, &serial);
        prop_assert_eq!(&chunked, &parallel);
        prop_assert_eq!(stats, serial_stats);
        prop_assert_eq!(stats, parallel_stats);
        prop_assert_eq!(chunked.offsets(), serial.offsets());
        prop_assert_eq!(chunked.neighbors_flat(), serial.neighbors_flat());
    }

    /// Out-of-range ids produce the serial builder's exact error, at any
    /// chunk budget and pool width.
    #[test]
    fn chunked_build_reports_serial_errors(
        input in arb_input(),
        chunk_bytes in 1u64..8192,
        bad_at in 0usize..200,
        width in 1usize..5,
    ) {
        let (n, mut pairs) = input;
        let bad_at = bad_at % (pairs.len() + 1);
        pairs.insert(bad_at, (n as VertexId, 0));
        let serial = CsrGraph::try_from_pairs(n, pairs.iter().copied())
            .unwrap_err();
        let pool = SimPool::new(SimThreads::Fixed(width));
        prop_assert_eq!(build_csr_parallel(n, &pairs, &pool).unwrap_err(), serial.clone());
        let err = build_csr_chunked(n, chunk_bytes, None, |sink| {
            for &(u, v) in &pairs {
                sink(u, v);
            }
            Ok(())
        })
        .unwrap_err();
        match err {
            gnnie_ingest::IngestError::Graph(g) => prop_assert_eq!(g, serial),
            other => prop_assert!(false, "expected a graph error, got {}", other),
        }
    }
}
