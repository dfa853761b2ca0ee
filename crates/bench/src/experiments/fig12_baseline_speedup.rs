//! Fig. 12 — GNNIE speedup over PyG-CPU (a) and PyG-GPU (b) for all five
//! models across all five datasets.
//!
//! The baselines are calibrated roofline models (see
//! `gnnie-baselines::calib`); absolute magnitudes are approximate by
//! construction, but the shape — GNNIE wins everywhere, the per-model
//! ordering, the CPU/GPU gap — is the reproduction target.

use gnnie_baselines::{PygCpuModel, PygGpuModel};
use gnnie_gnn::flops::ModelWorkload;
use gnnie_gnn::model::GnnModel;
use gnnie_graph::Dataset;

use crate::table::fmt_ratio;
use crate::{Ctx, ExperimentResult, Table};

/// Paper Fig. 12a reported average speedups over PyG-CPU per model.
pub const PAPER_CPU_AVG: [(GnnModel, f64); 5] = [
    (GnnModel::Gcn, 18556.0),
    (GnnModel::Gat, 12120.0),
    (GnnModel::GraphSage, 1827.0),
    (GnnModel::GinConv, 72954.0),
    (GnnModel::DiffPool, 615.0),
];

/// Paper Fig. 12b reported average speedups over PyG-GPU per model.
pub const PAPER_GPU_AVG: [(GnnModel, f64); 5] = [
    (GnnModel::Gcn, 11.0),
    (GnnModel::Gat, 416.0),
    (GnnModel::GraphSage, 2427.0),
    (GnnModel::GinConv, 412.0),
    (GnnModel::DiffPool, 231.0),
];

/// Measured speedups of GNNIE over (CPU, GPU) for one model × dataset.
pub fn speedups(ctx: &Ctx, model: GnnModel, dataset: Dataset) -> (f64, f64) {
    let report = ctx.run_gnnie(model, dataset);
    let ds = ctx.dataset(dataset);
    let cfg = ctx.model_config(model, dataset);
    let w = ModelWorkload::for_dataset(&cfg, &ds);
    let cpu = PygCpuModel::new().run(&w);
    let gpu = PygGpuModel::new().run(&w);
    (cpu.latency_s / report.latency_s, gpu.latency_s / report.latency_s)
}

/// Regenerates Fig. 12 (both panels).
pub fn run(ctx: &Ctx) -> ExperimentResult {
    let mut t = Table::new(&["model", "dataset", "vs PyG-CPU", "vs PyG-GPU"]);
    let mut lines_extra = Vec::new();
    for model in GnnModel::ALL {
        let mut cpu_prod = 1.0f64;
        let mut gpu_prod = 1.0f64;
        let mut n = 0u32;
        for dataset in Dataset::ALL {
            let (cpu, gpu) = speedups(ctx, model, dataset);
            cpu_prod *= cpu;
            gpu_prod *= gpu;
            n += 1;
            t.row(vec![
                model.name().to_string(),
                dataset.abbrev().to_string(),
                fmt_ratio(cpu),
                fmt_ratio(gpu),
            ]);
        }
        // Geometric means, as ratios across datasets span decades.
        let cpu_avg = cpu_prod.powf(1.0 / n as f64);
        let gpu_avg = gpu_prod.powf(1.0 / n as f64);
        let paper_cpu = PAPER_CPU_AVG.iter().find(|(m, _)| *m == model).unwrap().1;
        let paper_gpu = PAPER_GPU_AVG.iter().find(|(m, _)| *m == model).unwrap().1;
        lines_extra.push(format!(
            "{:10} measured geo-mean: CPU {:>9} GPU {:>8}   paper (arith. mean): CPU {:>8} GPU {:>7}",
            model.name(),
            fmt_ratio(cpu_avg),
            fmt_ratio(gpu_avg),
            fmt_ratio(paper_cpu),
            fmt_ratio(paper_gpu),
        ));
    }
    let mut lines = t.render();
    lines.push(String::new());
    lines.extend(lines_extra);
    ExperimentResult::new("Fig. 12", "GNNIE performance vs PyG-CPU (a) and PyG-GPU (b)", lines)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gnnie_beats_both_baselines_on_small_datasets() {
        let ctx = Ctx::with_scale(0.1);
        for model in [GnnModel::Gcn, GnnModel::Gat] {
            let (cpu, gpu) = speedups(&ctx, model, Dataset::Cora);
            assert!(cpu > 1.0, "{model} CPU speedup {cpu}");
            assert!(gpu > 1.0, "{model} GPU speedup {gpu}");
            assert!(cpu > gpu, "{model}: CPU speedup must exceed GPU speedup");
        }
    }

    #[test]
    fn cpu_speedup_is_orders_of_magnitude() {
        let ctx = Ctx::with_scale(0.2);
        let (cpu, _) = speedups(&ctx, GnnModel::Gcn, Dataset::Pubmed);
        assert!(cpu > 50.0, "expected well over an order of magnitude, got {cpu}");
    }
}
