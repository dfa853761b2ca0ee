//! Cross-platform shootout: GNNIE vs PyG-CPU, PyG-GPU, HyGCN, and
//! AWB-GCN on one dataset — the paper's Figs. 12/13 in miniature.
//!
//! ```sh
//! cargo run --example accelerator_comparison
//! ```

use gnnie::baselines::{AwbGcnModel, HygcnModel, PygCpuModel, PygGpuModel};
use gnnie::gnn::flops::ModelWorkload;
use gnnie::gnn::model::ModelConfig;
use gnnie::graph::GraphDataset;
use gnnie::{AcceleratorConfig, Dataset, Engine, GnnModel};

fn main() {
    let dataset = Dataset::Pubmed;
    let ds = GraphDataset::generate(dataset, 1.0, 42);
    let engine = Engine::new(AcceleratorConfig::paper(dataset));

    println!(
        "platform shootout on {} ({} vertices, {} edges)\n",
        dataset.name(),
        ds.graph.num_vertices(),
        ds.graph.num_edges()
    );
    println!(
        "{:10} {:>12} {:>12} {:>10} {:>10} {:>10}",
        "model", "GNNIE", "PyG-CPU", "PyG-GPU", "HyGCN", "AWB-GCN"
    );

    for model in GnnModel::ALL {
        let cfg = ModelConfig::paper(model, &ds.spec);
        let gnnie = engine.run(&cfg, &ds);
        let w = ModelWorkload::for_dataset(&cfg, &ds);
        let cpu = PygCpuModel::new().run(&w);
        let gpu = PygGpuModel::new().run(&w);
        let hygcn = HygcnModel::new().run(&w);
        let awb = AwbGcnModel::new().run(&w);

        let speedup = |latency: f64| format!("{:.0}x", latency / gnnie.latency_s);
        println!(
            "{:10} {:>9.1} us {:>12} {:>10} {:>10} {:>10}",
            model.name(),
            gnnie.latency_s * 1e6,
            speedup(cpu.latency_s),
            speedup(gpu.latency_s),
            hygcn.map(|r| speedup(r.latency_s)).unwrap_or_else(|| "--".into()),
            awb.map(|r| speedup(r.latency_s)).unwrap_or_else(|| "--".into()),
        );
    }
    println!(
        "\n(numbers are speedups over GNNIE's latency; -- means the platform cannot \
         run the model: HyGCN/AWB-GCN lack graph softmax, AWB-GCN is GCN-only)"
    );
}
