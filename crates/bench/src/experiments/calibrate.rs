//! Calibration matrix: GNNIE vs every baseline, per model and dataset.
//! Used to sanity-check the FIT constants in `gnnie-baselines::calib`
//! against the paper's reported speedup shape. A diagnostic, printed
//! bare (no header) and run by name only, not by `gnnie-bench all`.

use gnnie_baselines::{AwbGcnModel, HygcnModel, PygCpuModel, PygGpuModel};
use gnnie_gnn::flops::ModelWorkload;
use gnnie_gnn::model::GnnModel;
use gnnie_graph::Dataset;

use crate::{Ctx, ExperimentResult};

/// Regenerates the calibration matrix: GNNIE latency and each
/// baseline's latency as a multiple of it.
pub fn run(ctx: &Ctx) -> ExperimentResult {
    let mut lines = vec![format!(
        "{:5} {:10} {:>12} {:>10} {:>10} {:>9} {:>9}",
        "ds", "model", "GNNIE", "cpu/x", "gpu/x", "hygcn/x", "awb/x"
    )];
    for dataset in Dataset::ALL {
        for model in GnnModel::ALL {
            let r = ctx.run_gnnie(model, dataset);
            let ds = ctx.dataset(dataset);
            let cfg = ctx.model_config(model, dataset);
            let w = ModelWorkload::for_dataset(&cfg, &ds);
            let ratio = |l: f64| format!("{:.1}", l / r.latency_s);
            lines.push(format!(
                "{:5} {:10} {:>9.1} us {:>10} {:>10} {:>9} {:>9}",
                dataset.abbrev(),
                model.name(),
                r.latency_s * 1e6,
                ratio(PygCpuModel::new().run(&w).latency_s),
                ratio(PygGpuModel::new().run(&w).latency_s),
                HygcnModel::new().run(&w).map(|b| ratio(b.latency_s)).unwrap_or("--".into()),
                AwbGcnModel::new().run(&w).map(|b| ratio(b.latency_s)).unwrap_or("--".into()),
            ));
        }
    }
    ExperimentResult::new("", "Calibration matrix", lines)
}
