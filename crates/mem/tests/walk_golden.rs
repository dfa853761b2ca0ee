//! Golden digests of the cache walk: the full `Debug` rendering of every
//! `CacheSimResult` — counters, α histograms, per-iteration stats and
//! per-tier accounting — hashed with FNV-1a and pinned per policy.
//!
//! The walk's host-side bookkeeping (how `cached` is maintained, how
//! victims are ranked) may be optimized freely, but the simulated result
//! must not move by a single byte. Every shipped policy is covered on a
//! uniform graph and on two power-law tails, at capacities from the
//! two-vertex minimum up to a few dozen, over both the flat DRAM channel
//! and a three-tier workload-split hierarchy.
//!
//! When a change is *meant* to move simulated numbers, the failure
//! message prints the regenerated table to paste below.

use gnnie_graph::generate;
use gnnie_graph::reorder::Permutation;
use gnnie_graph::CsrGraph;
use gnnie_mem::cache::{build_edge_index, CacheConfig, CachePolicyKind, CacheSim};
use gnnie_mem::{HbmModel, MemoryHierarchy, SimPool, SplitMode, TierSpec};

const FEATURE_BYTES: u64 = 32;
const CAPACITIES: [usize; 4] = [2, 3, 16, 48];

/// `(graph, capacity, channel, digest per policy in CachePolicyKind::ALL order)`.
#[rustfmt::skip]
const GOLDEN: &[(&str, usize, &str, [u64; 6])] = &[
    ("er", 2, "flat", [0x96bcb28f92ab66c1, 0xc624e4f4f5fc8d23, 0x9be8ef44816bca9b, 0x0f46dd6914c9350a, 0x45a883058a9bc089, 0x4fa07947c0de21f0]),
    ("er", 2, "tiered", [0x0a62a00711d6f10e, 0x7b7818460df2821c, 0xbaf754721171fb7e, 0x5198f10f6d11ebdb, 0x1f6106fd14d93cc6, 0x9ef1b3451939858a]),
    ("er", 3, "flat", [0x05f5379e8fd03396, 0xf398d65840c508ef, 0x76bdcd86f195db4e, 0xdf5d8e7a2e26c7e6, 0x4d3729bac2a8104e, 0xe22580d3dcb1d1aa]),
    ("er", 3, "tiered", [0x978b1f1906a0d4a5, 0x16804833959cd5be, 0x7f5ac790abb5b259, 0x0aae72029b7f3b31, 0x69e5c5b03ccaa85d, 0x4a233d6fba87f558]),
    ("er", 16, "flat", [0x907cea9fe86e46cd, 0x85a45f2bee902099, 0x163d7bff06fb7457, 0x37bb7ace930ea3a9, 0xafe5e4963f1ea36d, 0x20dcfd95d10c7c53]),
    ("er", 16, "tiered", [0x423db8a8afebdb87, 0x21c4ef01ce0ba014, 0x4ac46d249a0fb4fc, 0x82940c4487fe2853, 0xbca0583cbd702522, 0x71b27dd9c5906c8c]),
    ("er", 48, "flat", [0x7c76d8f5b8f61dc3, 0x16a4783fb95a69b0, 0xe91bb2b61d881268, 0x96698ec5ff8e6de1, 0x0b8a747ebe26f0ec, 0xb3a570de3f4bba13]),
    ("er", 48, "tiered", [0xf91f73bb5bf5bc58, 0xa80f6ba534c17483, 0x06c61b1e050f9c81, 0x69f979cc511ba38e, 0xa2c24f1dced48ada, 0x6fa722bfb37f5160]),
    ("pl1.9", 2, "flat", [0x5a897606d63465a2, 0x7c630381ba2b5a88, 0x6c062bcaf708942a, 0x9724ff253114b608, 0xff3455c0f9836aaa, 0x565fe550e971da1a]),
    ("pl1.9", 2, "tiered", [0x192b2a578d323655, 0x606989c9ff23e24f, 0x4e059b8a33eeab68, 0xcbd111c965b5f0f8, 0x1f6abfe4259cc3cd, 0x6ce673e2810cf6a7]),
    ("pl1.9", 3, "flat", [0xd33819a17ee8ef3c, 0x7fe930d660e83442, 0x4d05246921501a14, 0xc7e5ac80b3a715de, 0xb0d1eed3cf50e154, 0x86feb9475e2d3a04]),
    ("pl1.9", 3, "tiered", [0x96611b6a9c38b8cd, 0x8fd898101b5e7782, 0x17187083dc6aedb0, 0x33d1c6db54f625da, 0xfd8f39b9e16bec45, 0xb9bdfc1d81a90d58]),
    ("pl1.9", 16, "flat", [0xd9e1d78b9c9bf1b9, 0x8a51043e491970c0, 0x23507b06647306b4, 0x214ed651b27e3961, 0xb813f6ad0ecd4cba, 0x3e1d7ea2f0d5ef1a]),
    ("pl1.9", 16, "tiered", [0x380b3d6853b3fbfe, 0x6def71fcbd3f399e, 0xac8ce270e7acb141, 0x7ee30245672e78e7, 0x5720237ff3eb2fd6, 0xa5df1da27d273f48]),
    ("pl1.9", 48, "flat", [0x333b04413f5a64c8, 0xaeee042d4893b59f, 0xa8008a83e8bb967a, 0x9fc508f031af0dbf, 0x2a216f9545969614, 0x10c2323cde0ccc89]),
    ("pl1.9", 48, "tiered", [0x9697cc9c95a06d20, 0xb94c99c60ce18c04, 0xa6f4917ac3670a61, 0xf9d9a09bc8ebc78e, 0x1c8735050b844dea, 0x8f10198cc317229a]),
    ("pl2.1", 2, "flat", [0x1e1b2d0d455a6fcb, 0xd1ef737288346a80, 0x965fbbc9dbe4ce7a, 0x264ef0ca08ae46e1, 0x323aa18d846fbdf3, 0xc69181c90280332a]),
    ("pl2.1", 2, "tiered", [0x66fca77e82939463, 0x1cd5aa6cd2466db9, 0xbd03aadaf297c1a9, 0xddaaea4219520336, 0x69078571ec1dab2b, 0xf8c41a7f2022c77a]),
    ("pl2.1", 3, "flat", [0xe74f9c2ccc6af148, 0x7afb33ce15b8ea46, 0xe1df712369edbbcb, 0x18c54597cf980691, 0x37f20d85790740e0, 0x21c8fe99c7dcf0a6]),
    ("pl2.1", 3, "tiered", [0x4e0be47c96819932, 0x4b8affe9c52c6b61, 0x7372e2462a653461, 0x2f659844dc95db8c, 0xd9aa973149a3d22a, 0xf72d0831f220f59d]),
    ("pl2.1", 16, "flat", [0x902df7cd52592440, 0x03e214580967da84, 0xfe31636307ad79dc, 0xf775c65c53743403, 0xa08d1a3feef48cfa, 0xd6274b67e7f62b69]),
    ("pl2.1", 16, "tiered", [0x215e1ac6253f1d86, 0xb5c80d3de25f3b3d, 0x93f097a4580a1754, 0xf686844d7a84268c, 0xf8de42eed6951cd4, 0x1e394c9400ec2a91]),
    ("pl2.1", 48, "flat", [0x1d6e49dd14a3c68e, 0xd35e322b2ec9470e, 0x2e1c157361b87d78, 0x45fde5a11154f1ad, 0x89a5f897d56a3907, 0xa2eff417c9296b22]),
    ("pl2.1", 48, "tiered", [0xbf5f45256a1fe276, 0xef832278e2d6d5c4, 0x043a1bde372120d7, 0x0e23d454f43d9f9d, 0x34418939f3a1ce52, 0x7c314ebbde2e3f26]),
];

/// FNV-1a, 64-bit.
fn fnv64(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3))
}

fn graphs() -> Vec<(&'static str, CsrGraph)> {
    let ordered = |g: CsrGraph| Permutation::descending_degree(&g).apply(&g);
    vec![
        ("er", ordered(generate::erdos_renyi(160, 640, 5))),
        ("pl1.9", ordered(generate::powerlaw_chung_lu(200, 1000, 1.9, 7))),
        ("pl2.1", ordered(generate::powerlaw_chung_lu(200, 1000, 2.1, 11))),
    ]
}

fn digests(g: &CsrGraph, capacity: usize, channel: &str) -> [u64; 6] {
    let cfg = CacheConfig::with_capacity(capacity, FEATURE_BYTES);
    let pool = SimPool::serial();
    let ids = build_edge_index(g);
    let sim = CacheSim::new(g, &ids, cfg, &pool);
    CachePolicyKind::ALL.map(|kind| {
        let mut policy = kind.instantiate();
        let result = match channel {
            "flat" => sim.run(policy.as_mut(), &mut HbmModel::hbm2_256gbps(1.3e9)),
            "tiered" => {
                // Line footprint of an average vertex: features plus a
                // handful of 4-byte neighbor ids.
                let line = FEATURE_BYTES + 32;
                let spec = TierSpec::Split {
                    total_bytes: line * g.num_vertices() as u64 / 4,
                    mode: SplitMode::Workload,
                };
                let tiers = spec.resolve(g, line);
                let mut hier =
                    MemoryHierarchy::new(&tiers, 1.3e9, g.num_vertices() as u32, line);
                sim.run_tiered(policy.as_mut(), &mut hier)
            }
            other => unreachable!("unknown channel {other}"),
        };
        fnv64(format!("{result:?}").as_bytes())
    })
}

#[test]
fn walk_results_match_the_golden_digests() {
    let mut actual = Vec::new();
    for (name, g) in graphs() {
        for capacity in CAPACITIES {
            for channel in ["flat", "tiered"] {
                actual.push((name, capacity, channel, digests(&g, capacity, channel)));
            }
        }
    }
    let moved: Vec<String> = actual
        .iter()
        .filter_map(|&(name, capacity, channel, got)| {
            let want =
                GOLDEN.iter().find(|row| (row.0, row.1, row.2) == (name, capacity, channel));
            let kinds: Vec<&str> = CachePolicyKind::ALL
                .iter()
                .enumerate()
                .filter(|&(i, _)| want.map_or(true, |row| row.3[i] != got[i]))
                .map(|(_, kind)| kind.name())
                .collect();
            (!kinds.is_empty())
                .then(|| format!("{name} capacity {capacity} {channel}: {}", kinds.join(", ")))
        })
        .collect();
    let table: String = actual
        .iter()
        .map(|(name, capacity, channel, d)| {
            let hex: Vec<String> = d.iter().map(|x| format!("0x{x:016x}")).collect();
            format!("    ({name:?}, {capacity}, {channel:?}, [{}]),\n", hex.join(", "))
        })
        .collect();
    assert!(
        moved.is_empty() && actual.len() == GOLDEN.len(),
        "walk results moved:\n  {}\nregenerated table:\n{table}",
        moved.join("\n  ")
    );
}
