//! Integration: the cross-platform orderings the paper's evaluation
//! rests on (Figs. 12, 13, 15) hold in this reproduction.

use gnnie::baselines::{AwbGcnModel, HygcnModel, PygCpuModel, PygGpuModel};
use gnnie::gnn::flops::ModelWorkload;
use gnnie::gnn::model::ModelConfig;
use gnnie::graph::GraphDataset;
use gnnie::{AcceleratorConfig, Dataset, Engine, GnnModel};

struct Shootout {
    gnnie_s: f64,
    gnnie_kj: f64,
    cpu_s: f64,
    gpu_s: f64,
    hygcn_s: Option<f64>,
    hygcn_kj: Option<f64>,
    awb_s: Option<f64>,
    awb_kj: Option<f64>,
}

fn shootout(model: GnnModel, dataset: Dataset, scale: f64) -> Shootout {
    let ds = GraphDataset::generate(dataset, scale, 42);
    let cfg = ModelConfig::paper(model, &ds.spec);
    let report = Engine::new(AcceleratorConfig::paper(dataset)).run(&cfg, &ds);
    let w = ModelWorkload::for_dataset(&cfg, &ds);
    let hygcn = HygcnModel::new().run(&w);
    let awb = AwbGcnModel::new().run(&w);
    Shootout {
        gnnie_s: report.latency_s,
        gnnie_kj: report.inferences_per_kj(),
        cpu_s: PygCpuModel::new().run(&w).latency_s,
        gpu_s: PygGpuModel::new().run(&w).latency_s,
        hygcn_s: hygcn.map(|r| r.latency_s),
        hygcn_kj: hygcn.map(|r| r.inferences_per_kj()),
        awb_s: awb.map(|r| r.latency_s),
        awb_kj: awb.map(|r| r.inferences_per_kj()),
    }
}

#[test]
fn gcn_latency_ordering_gnnie_awb_hygcn_gpu_cpu() {
    // The central Fig. 12/13 ordering on the GCN column, at the paper's
    // full dataset sizes (the AWB-GCN on-chip-fit threshold is absolute,
    // so scaled-down graphs flatter it).
    for dataset in [Dataset::Cora, Dataset::Citeseer, Dataset::Pubmed] {
        let s = shootout(GnnModel::Gcn, dataset, 1.0);
        let awb = s.awb_s.expect("AWB-GCN runs GCN");
        let hygcn = s.hygcn_s.expect("HyGCN runs GCN");
        assert!(s.gnnie_s < awb, "{dataset:?}: GNNIE {} vs AWB {awb}", s.gnnie_s);
        assert!(awb < hygcn, "{dataset:?}: AWB {awb} vs HyGCN {hygcn}");
        assert!(hygcn < s.cpu_s, "{dataset:?}: HyGCN {hygcn} vs CPU {}", s.cpu_s);
        assert!(s.gpu_s < s.cpu_s, "{dataset:?}: GPU must beat CPU on GCN");
    }
}

#[test]
fn gnnie_beats_every_platform_on_every_supported_model() {
    for model in GnnModel::ALL {
        let s = shootout(model, Dataset::Cora, 0.5);
        assert!(s.gnnie_s < s.cpu_s, "{model} vs CPU");
        assert!(s.gnnie_s < s.gpu_s, "{model} vs GPU");
        if let Some(h) = s.hygcn_s {
            assert!(s.gnnie_s < h, "{model} vs HyGCN");
        }
        if let Some(a) = s.awb_s {
            assert!(s.gnnie_s < a, "{model} vs AWB-GCN");
        }
    }
}

#[test]
fn awb_gcn_is_the_closest_competitor_on_gcn() {
    // Fig. 13: GNNIE/AWB ≈ 2.1× while GNNIE/HyGCN ≈ 25×.
    let s = shootout(GnnModel::Gcn, Dataset::Citeseer, 1.0);
    let awb_ratio = s.awb_s.unwrap() / s.gnnie_s;
    let hygcn_ratio = s.hygcn_s.unwrap() / s.gnnie_s;
    assert!(
        awb_ratio < hygcn_ratio,
        "AWB ratio {awb_ratio} must be under HyGCN ratio {hygcn_ratio}"
    );
    assert!(awb_ratio > 1.0 && awb_ratio < 40.0, "AWB ratio {awb_ratio} out of band");
    assert!(hygcn_ratio > 2.0, "HyGCN ratio {hygcn_ratio} too small");
}

#[test]
fn energy_efficiency_ordering_matches_fig15() {
    // Full scale: HyGCN's 24 MB buffers must actually overflow (they
    // swallow half-scale feature matrices, flattering its energy).
    for dataset in [Dataset::Cora, Dataset::Citeseer] {
        let s = shootout(GnnModel::Gcn, dataset, 1.0);
        let hygcn = s.hygcn_kj.unwrap();
        let awb = s.awb_kj.unwrap();
        assert!(
            s.gnnie_kj > awb && s.gnnie_kj > hygcn,
            "{dataset:?}: GNNIE must lead in inferences/kJ ({} vs {awb} / {hygcn})",
            s.gnnie_kj
        );
    }
}

#[test]
fn unsupported_model_platform_pairs_stay_unsupported() {
    assert!(!HygcnModel::supports(GnnModel::Gat));
    assert!(!HygcnModel::supports(GnnModel::DiffPool));
    assert!(!AwbGcnModel::supports(GnnModel::Gat));
    assert!(!AwbGcnModel::supports(GnnModel::GraphSage));
    assert!(!AwbGcnModel::supports(GnnModel::GinConv));
    assert!(AwbGcnModel::supports(GnnModel::Gcn));
    assert!(HygcnModel::supports(GnnModel::GraphSage));
}

#[test]
fn speedup_trends_are_scale_stable() {
    // The same orderings at two different scales (DESIGN.md §4 claim).
    for scale in [0.2, 0.6] {
        let s = shootout(GnnModel::Gcn, Dataset::Citeseer, scale);
        assert!(s.gnnie_s < s.awb_s.unwrap(), "scale {scale}");
        assert!(s.awb_s.unwrap() < s.hygcn_s.unwrap(), "scale {scale}");
        assert!(s.gnnie_s < s.gpu_s, "scale {scale}");
    }
}
