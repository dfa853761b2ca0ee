//! Quickstart: synthesize a dataset, run one inference on the GNNIE
//! accelerator model, and read the report.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use gnnie::core::report::InferenceReport;
use gnnie::gnn::model::ModelConfig;
use gnnie::graph::GraphDataset;
use gnnie::{AcceleratorConfig, Dataset, Engine, GnnModel};

fn print_summary(r: &InferenceReport) {
    println!(
        "{:10} on {:4}: {:>10} cycles  = {:>9.2} us   energy {:>8.1} uJ   {:>6.2} TOPS",
        r.model.name(),
        r.dataset.abbrev(),
        r.total_cycles,
        r.latency_s * 1e6,
        r.energy.total_pj() / 1e6,
        r.effective_tops(),
    );
    for phase in r.phases() {
        println!("    {:<14} {:>10} cycles", phase.name, phase.cycles);
    }
}

fn main() {
    // A Cora-like citation graph, full paper size (2708 vertices, ~10.5k
    // edges, 1433-dim features at 98.7% sparsity).
    let ds = GraphDataset::generate(Dataset::Cora, 1.0, 42);
    println!(
        "dataset: {} vertices, {} edges, features {}x{} ({:.2}% sparse)\n",
        ds.graph.num_vertices(),
        ds.graph.num_edges(),
        ds.features.rows(),
        ds.features.cols(),
        ds.features.sparsity() * 100.0
    );

    // The paper's evaluated configuration: 16x16 CPEs, flexible MACs
    // (4/5/6 per row group), 1216 MACs, 1.3 GHz, degree-aware caching.
    let engine = Engine::new(AcceleratorConfig::paper(Dataset::Cora));
    println!(
        "accelerator: {} CPEs, {} MACs, peak {:.2} TOPS\n",
        engine.config().num_cpes(),
        engine.config().total_macs(),
        engine.config().peak_tops()
    );

    // Run every model the paper evaluates.
    for model in GnnModel::ALL {
        let cfg = ModelConfig::paper(model, &ds.spec);
        let report = engine.run(&cfg, &ds);
        print_summary(&report);
    }
}
