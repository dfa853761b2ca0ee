//! Criterion microbenchmarks of the simulator's hot kernels: the Weighting
//! block profile and FM scheduler, the degree-aware cache walk, the RLC
//! codec, the full Weighting model, the linear vs. naïve GAT attention
//! orderings (the §V-A ablation), and the sampling graph generators.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use gnnie_core::config::AcceleratorConfig;
use gnnie_core::cpe::CpeArray;
use gnnie_core::gat::AttentionCost;
use gnnie_core::weighting::{
    schedule, simulate_weighting, BlockProfile, WeightingMode, WeightingParams,
};
use gnnie_graph::generate;
use gnnie_graph::reorder::Permutation;
use gnnie_graph::{Dataset, GraphDataset};
use gnnie_mem::cache::{build_edge_index, PaperAlphaGamma};
use gnnie_mem::{CacheConfig, CacheSim, HbmModel, SimPool, SimThreads};
use gnnie_tensor::rlc;
use gnnie_tensor::SparseVec;

fn bench_fm_scheduler(c: &mut Criterion) {
    // Cora at half scale, and full-scale Pubmed (19,717 vertices × 16
    // blocks): the largest session the `serve-mixed` benchmark workload
    // profiles.
    let inputs = [(Dataset::Cora, 0.5), (Dataset::Pubmed, 1.0)];
    let mut g = c.benchmark_group("weighting_schedule");
    for (dataset, scale) in inputs {
        let ds = GraphDataset::generate(dataset, scale, 7);
        let arr = CpeArray::new(&AcceleratorConfig::paper(dataset));
        let profile = BlockProfile::from_sparse(&ds.features, arr.rows());
        for mode in [WeightingMode::Baseline, WeightingMode::Fm, WeightingMode::FmLr] {
            let id = BenchmarkId::new(format!("{dataset:?}@{scale}"), mode);
            g.bench_with_input(id, &mode, |b, &mode| {
                b.iter(|| schedule(black_box(&profile), &arr, mode));
            });
        }
    }
    g.finish();
}

fn bench_block_profile(c: &mut Criterion) {
    let mut g = c.benchmark_group("weighting_block_profile");
    for (dataset, scale) in [(Dataset::Cora, 0.5), (Dataset::Pubmed, 1.0)] {
        let ds = GraphDataset::generate(dataset, scale, 7);
        let rows = AcceleratorConfig::paper(dataset).array_rows;
        let id = BenchmarkId::from_parameter(format!("{dataset:?}@{scale}"));
        g.bench_with_input(id, &ds.features, |b, features| {
            b.iter(|| BlockProfile::from_sparse(black_box(features), rows));
        });
    }
    g.finish();
}

fn bench_cache_walk(c: &mut Criterion) {
    let ds = GraphDataset::generate(Dataset::Cora, 0.5, 7);
    let graph = Permutation::descending_degree(&ds.graph).apply(&ds.graph);
    let ids = build_edge_index(&graph);
    let pool = SimPool::new(SimThreads::Auto);
    let mut g = c.benchmark_group("cache_walk");
    for capacity in [64usize, 256, 1024] {
        g.bench_with_input(BenchmarkId::from_parameter(capacity), &capacity, |b, &capacity| {
            b.iter(|| {
                let mut dram = HbmModel::hbm2_256gbps(1.3e9);
                let cfg = CacheConfig::with_capacity(capacity, 512);
                CacheSim::new(black_box(&graph), &ids, cfg, &pool)
                    .run(&mut PaperAlphaGamma::new(), &mut dram)
            });
        });
    }
    g.finish();
}

fn bench_rlc_codec(c: &mut Criterion) {
    let ds = GraphDataset::generate(Dataset::Cora, 0.5, 7);
    let rows: Vec<SparseVec> = (0..64).map(|i| ds.features.row(i)).collect();
    c.bench_function("rlc_encode_decode_64_rows", |b| {
        b.iter(|| {
            for row in &rows {
                let enc = rlc::encode(black_box(row));
                let dec = rlc::decode(&enc).expect("round trip");
                black_box(dec);
            }
        });
    });
}

fn bench_weighting_model(c: &mut Criterion) {
    let ds = GraphDataset::generate(Dataset::Citeseer, 0.5, 7);
    let cfg = AcceleratorConfig::paper(Dataset::Citeseer);
    let arr = CpeArray::new(&cfg);
    let profile = BlockProfile::from_sparse(&ds.features, arr.rows());
    let pool = SimPool::new(SimThreads::from_env());
    c.bench_function("simulate_weighting_citeseer", |b| {
        b.iter(|| {
            let mut dram = HbmModel::hbm2_256gbps(cfg.clock_hz);
            simulate_weighting(
                black_box(&cfg),
                &arr,
                &profile,
                WeightingParams::default(),
                &mut dram,
                &pool,
            )
        });
    });
}

fn bench_attention_orderings(c: &mut Criterion) {
    // The §V-A complexity claim as a micro-kernel: evaluate both cost
    // models across graph sizes.
    let mut g = c.benchmark_group("gat_attention_ordering");
    for (v, e) in [(10_000u64, 100_000u64), (100_000, 1_000_000)] {
        g.bench_with_input(BenchmarkId::new("linear", v), &(v, e), |b, &(v, e)| {
            b.iter(|| AttentionCost::linear(black_box(v), e, 128).compute_cycles(1216));
        });
        g.bench_with_input(BenchmarkId::new("naive", v), &(v, e), |b, &(v, e)| {
            b.iter(|| AttentionCost::naive(black_box(v), e, 128).compute_cycles(1216));
        });
    }
    g.finish();
}

fn bench_noc_rebalance(c: &mut Criterion) {
    // The §VII communication models: GNNIE's one-shot LR pricing vs the
    // iterative AWB-style rebalance on a worst-case skewed load.
    use gnnie_core::noc::{awb_rebalance_traffic, lr_traffic, AwbRebalanceParams};
    let ds = GraphDataset::generate(Dataset::Pubmed, 0.5, 7);
    let cfg = AcceleratorConfig::paper(Dataset::Pubmed);
    let arr = CpeArray::new(&cfg);
    let profile = BlockProfile::from_sparse(&ds.features, arr.rows());
    let lr_sched = schedule(&profile, &arr, WeightingMode::FmLr);
    let loads = schedule(&profile, &arr, WeightingMode::Baseline).per_row_cycles(&arr);
    let mut g = c.benchmark_group("noc_rebalance");
    g.bench_function("gnnie_lr_pricing", |b| {
        b.iter(|| lr_traffic(black_box(&lr_sched), profile.k()));
    });
    g.bench_function("awb_iterative_rebalance", |b| {
        b.iter(|| awb_rebalance_traffic(black_box(&loads), AwbRebalanceParams::default()));
    });
    g.finish();
}

fn bench_graph_generate(c: &mut Criterion) {
    // One graph per membership structure of the sampling generators:
    // Reddit at 0.01 (2,329 vertices, 1.146 M edges) is dense enough for
    // the pair bitmap; PPI at 0.1 is sparse and merges a sorted prefix.
    let reddit = Dataset::Reddit.spec().scaled(0.01);
    let ppi = Dataset::Ppi.spec().scaled(0.1);
    let mut g = c.benchmark_group("graph_generate");
    g.bench_function("powerlaw_chung_lu/Reddit@0.01", |b| {
        b.iter(|| {
            let (n, m) = (reddit.vertices, black_box(reddit.edges));
            generate::powerlaw_chung_lu(n, m, reddit.degree_gamma, 7)
        });
    });
    g.bench_function("mixed_powerlaw/Ppi@0.1", |b| {
        b.iter(|| {
            let (n, m) = (ppi.vertices, black_box(ppi.edges));
            generate::mixed_powerlaw(n, m, ppi.degree_gamma, ppi.uniform_frac, 7)
        });
    });
    g.finish();
}

criterion_group! {
    name = kernels;
    // Small sample counts: these kernels are deterministic simulators, so
    // variance is low and the default 100 samples would take minutes.
    config = Criterion::default()
        .sample_size(10)
        .measurement_time(std::time::Duration::from_secs(2))
        .warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_fm_scheduler,
    bench_block_profile,
    bench_cache_walk,
    bench_rlc_codec,
    bench_weighting_model,
    bench_attention_orderings,
    bench_noc_rebalance,
    bench_graph_generate
}
criterion_main!(kernels);
