//! Shared experiment context: dataset caching, scaling, and engine runs.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use gnnie_core::config::AcceleratorConfig;
use gnnie_core::engine::Engine;
use gnnie_core::report::InferenceReport;
use gnnie_gnn::model::{GnnModel, ModelConfig};
use gnnie_graph::{Dataset, SyntheticDataset};

/// Default seed for all harness runs (the experiments are deterministic).
pub const HARNESS_SEED: u64 = 0x0D0C_5EED;

/// The experiment context: scaling policy plus a dataset cache so the
/// expensive generators run once per process.
pub struct Ctx {
    seed: u64,
    scale_override: Option<f64>,
    cache: Mutex<HashMap<(Dataset, u64), Arc<SyntheticDataset>>>,
}

impl Ctx {
    /// A context with the default seed and the `GNNIE_SCALE` environment
    /// override (if set).
    ///
    /// # Errors
    ///
    /// `GNNIE_SCALE` is set but is not a number in `(0, 1]`.
    pub fn from_env() -> Result<Self, String> {
        let scale_override = parse_scale(std::env::var("GNNIE_SCALE").ok().as_deref())?;
        Ok(Ctx { seed: HARNESS_SEED, scale_override, cache: Mutex::new(HashMap::new()) })
    }

    /// A context with an explicit scale for every dataset (tests).
    pub fn with_scale(scale: f64) -> Self {
        Ctx {
            seed: HARNESS_SEED,
            scale_override: Some(scale),
            cache: Mutex::new(HashMap::new()),
        }
    }

    /// The scale used for `dataset`: the override if present, otherwise
    /// full size for the citation graphs and reduced sizes for the two
    /// large datasets (trends are scale-stable; see DESIGN.md §4).
    pub fn scale_for(&self, dataset: Dataset) -> f64 {
        if let Some(s) = self.scale_override {
            return s;
        }
        match dataset {
            Dataset::Cora | Dataset::Citeseer | Dataset::Pubmed => 1.0,
            Dataset::Ppi => 0.1,
            Dataset::Reddit => 0.02,
        }
    }

    /// The (cached) synthetic dataset at this context's scale.
    pub fn dataset(&self, dataset: Dataset) -> Arc<SyntheticDataset> {
        let scale = self.scale_for(dataset);
        let key = (dataset, scale.to_bits());
        let mut cache = self.cache.lock().expect("dataset cache poisoned");
        cache
            .entry(key)
            .or_insert_with(|| Arc::new(SyntheticDataset::generate(dataset, scale, self.seed)))
            .clone()
    }

    /// The paper's Table III model configuration at this context's scale.
    pub fn model_config(&self, model: GnnModel, dataset: Dataset) -> ModelConfig {
        ModelConfig::paper(model, &self.dataset(dataset).spec)
    }

    /// Runs GNNIE (paper configuration) on `model` × `dataset`.
    pub fn run_gnnie(&self, model: GnnModel, dataset: Dataset) -> InferenceReport {
        let ds = self.dataset(dataset);
        let cfg = AcceleratorConfig::paper(dataset);
        Engine::new(cfg).run(&self.model_config(model, dataset), &ds)
    }

    /// Runs GNNIE with a custom accelerator configuration.
    pub fn run_gnnie_with(
        &self,
        config: AcceleratorConfig,
        model: GnnModel,
        dataset: Dataset,
    ) -> InferenceReport {
        let ds = self.dataset(dataset);
        Engine::new(config).run(&self.model_config(model, dataset), &ds)
    }

    /// The seed in use.
    pub fn seed(&self) -> u64 {
        self.seed
    }
}

/// The `GNNIE_SCALE` override: `None` when unset, otherwise a number in
/// `(0, 1]`.
fn parse_scale(value: Option<&str>) -> Result<Option<f64>, String> {
    let Some(text) = value else { return Ok(None) };
    match text.parse::<f64>() {
        Ok(s) if s > 0.0 && s <= 1.0 => Ok(Some(s)),
        _ => Err(format!("GNNIE_SCALE must be a number in (0, 1], got `{text}`")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dataset_cache_returns_same_instance() {
        let ctx = Ctx::with_scale(0.05);
        let a = ctx.dataset(Dataset::Cora);
        let b = ctx.dataset(Dataset::Cora);
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn default_scales_shrink_large_datasets() {
        let ctx = Ctx { seed: 1, scale_override: None, cache: Mutex::new(HashMap::new()) };
        assert_eq!(ctx.scale_for(Dataset::Cora), 1.0);
        assert!(ctx.scale_for(Dataset::Reddit) < 0.1);
    }

    #[test]
    fn gnnie_run_smoke() {
        let ctx = Ctx::with_scale(0.05);
        let r = ctx.run_gnnie(GnnModel::Gcn, Dataset::Cora);
        assert!(r.total_cycles > 0);
    }
}
