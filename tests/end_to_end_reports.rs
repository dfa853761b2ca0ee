//! Integration: end-to-end engine reports are internally consistent,
//! deterministic, and behave sensibly across configurations.

use gnnie::core::config::Design;
use gnnie::gnn::model::ModelConfig;
use gnnie::graph::GraphDataset;
use gnnie::mem::Component;
use gnnie::{AcceleratorConfig, Dataset, Engine, GnnModel};

fn run(model: GnnModel, dataset: Dataset, scale: f64) -> gnnie::core::InferenceReport {
    let ds = GraphDataset::generate(dataset, scale, 42);
    let cfg = AcceleratorConfig::paper(dataset);
    Engine::new(cfg).run(&ModelConfig::paper(model, &ds.spec), &ds)
}

#[test]
fn every_model_runs_on_every_dataset_scaled() {
    for dataset in Dataset::ALL {
        let scale = match dataset {
            Dataset::Ppi => 0.02,
            Dataset::Reddit => 0.005,
            _ => 0.1,
        };
        for model in GnnModel::ALL {
            let r = run(model, dataset, scale);
            assert!(r.total_cycles > 0, "{model}/{dataset:?}");
            assert!(r.latency_s > 0.0);
            assert!(r.energy.total_pj() > 0.0);
            assert!(r.effective_ops > 0);
        }
    }
}

#[test]
fn phase_cycles_sum_to_total() {
    let r = run(GnnModel::Gat, Dataset::Cora, 0.3);
    let phase_sum: u64 = r.phases().iter().map(|p| p.cycles).sum();
    assert_eq!(phase_sum + r.coarsening_cycles, r.total_cycles);
}

#[test]
fn energy_components_cover_compute_and_dram() {
    let r = run(GnnModel::Gcn, Dataset::Citeseer, 0.3);
    for component in [Component::Mac, Component::DramInput, Component::DramOutput] {
        assert!(r.energy.pj_of(component) > 0.0, "{component} missing");
    }
    assert!(r.energy.dram_pj() > 0.0);
    assert!(r.energy.on_chip_pj() > 0.0);
    let total = r.energy.total_pj();
    let sum: f64 = r.energy.breakdown().iter().map(|(_, e)| e).sum();
    assert!((total - sum).abs() / total < 1e-9, "breakdown must sum to total");
}

#[test]
fn reports_are_deterministic() {
    let a = run(GnnModel::Gat, Dataset::Pubmed, 0.05);
    let b = run(GnnModel::Gat, Dataset::Pubmed, 0.05);
    assert_eq!(a.total_cycles, b.total_cycles);
    assert_eq!(a.dram, b.dram);
    assert_eq!(a.energy, b.energy);
}

#[test]
fn cycles_scale_with_graph_size() {
    let small = run(GnnModel::Gcn, Dataset::Pubmed, 0.05);
    let large = run(GnnModel::Gcn, Dataset::Pubmed, 0.2);
    assert!(large.total_cycles > small.total_cycles);
    assert!(large.dram.total_bytes() > small.dram.total_bytes());
}

#[test]
fn gat_exceeds_gcn_in_cycles_and_energy() {
    let gcn = run(GnnModel::Gcn, Dataset::Cora, 0.3);
    let gat = run(GnnModel::Gat, Dataset::Cora, 0.3);
    assert!(gat.total_cycles > gcn.total_cycles);
    assert!(gat.energy.total_pj() > gcn.energy.total_pj());
    assert!(gat.layers.iter().any(|l| l.aggregation.exp_evals > 0));
    assert!(gcn.layers.iter().all(|l| l.aggregation.exp_evals == 0));
}

#[test]
fn all_design_points_run_and_order_sanely() {
    let ds = GraphDataset::generate(Dataset::Cora, 0.3, 42);
    let model = ModelConfig::paper(GnnModel::Gcn, &ds.spec);
    let mut cycles = Vec::new();
    for design in Design::ALL {
        let cfg = AcceleratorConfig::with_design(design, 256 * 1024);
        let r = Engine::new(cfg).run(&model, &ds);
        cycles.push((design, r.total_cycles));
    }
    // More uniform MACs never slow down inference (A >= B >= C >= D).
    for pair in cycles[..4].windows(2) {
        assert!(
            pair[0].1 >= pair[1].1,
            "uniform MAC scaling must not slow inference: {pair:?}"
        );
    }
    // Design E with 1216 MACs beats Design A with 1024.
    assert!(cycles[4].1 < cycles[0].1, "Design E must beat Design A: {cycles:?}");
}

#[test]
fn dram_traffic_is_sequential_with_cache_policy() {
    let r = run(GnnModel::Gcn, Dataset::Citeseer, 0.3);
    assert_eq!(
        r.dram.random_bytes(),
        0,
        "the §VI policy guarantees sequential-only DRAM traffic"
    );
}

#[test]
fn disabling_cache_policy_costs_dram_cycles() {
    let ds = GraphDataset::generate(Dataset::Pubmed, 0.15, 42);
    let model = ModelConfig::paper(GnnModel::Gcn, &ds.spec);
    let with = Engine::new(AcceleratorConfig::paper(Dataset::Pubmed)).run(&model, &ds);
    let mut cfg = AcceleratorConfig::paper(Dataset::Pubmed);
    cfg.enable_cache_policy = false;
    let without = Engine::new(cfg).run(&model, &ds);
    let agg_with: u64 = with.layers.iter().map(|l| l.aggregation.dram_cycles).sum();
    let agg_without: u64 = without.layers.iter().map(|l| l.aggregation.dram_cycles).sum();
    assert!(
        agg_with < agg_without,
        "cache policy must reduce aggregation DRAM cycles: {agg_with} vs {agg_without}"
    );
    assert!(without.dram.random_bytes() > 0, "id-order processing goes random");
}
