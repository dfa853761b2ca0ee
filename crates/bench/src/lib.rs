//! The GNNIE experiment harness.
//!
//! One module per table/figure of the paper's evaluation section
//! ([`experiments`]); each regenerates its artifact — workload, parameter
//! sweep, baselines — and prints the measured rows next to the paper's
//! reported values. Each also returns a [`BenchReport`], which the six
//! gated experiments fill with their sweep rows and the headline metrics
//! the CI [`gate`] checks. The `gnnie-bench` binary runs one experiment
//! by module name, or `all`, and `--json PATH` writes the report as a
//! `BENCH_<experiment>.json` artifact:
//!
//! ```text
//! cargo run --release -p gnnie-bench -- fig12_baseline_speedup
//! cargo run --release -p gnnie-bench -- scaleout --json BENCH_scaleout.json
//! ```
//!
//! `cargo bench` times the simulator's kernels through the `kernels`
//! target.
//!
//! # Scaling
//!
//! `GNNIE_SCALE` (a float in `(0, 1]`) scales every dataset; per-dataset
//! defaults keep the harness laptop-friendly: full size for Cora,
//! Citeseer, and Pubmed, 10% for PPI, 2% for Reddit. The paper's trends
//! are scale-stable (verified in the integration tests).

pub mod ctx;
pub mod experiments;
pub mod gate;
pub mod json;
pub mod table;
pub mod trace;

pub use ctx::Ctx;
pub use table::Table;

use json::Json;

/// How a headline metric is measured, which decides how the gate treats
/// it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Simulated cycles and bit-identity flags: exact run to run, so
    /// their baselines are tight.
    Deterministic,
    /// Host wall-clock speedups: noisy on shared runners, so their
    /// baselines are conservative, frozen by `--write-baselines`, and
    /// not failed on a single-core runner.
    WallClock,
}

impl MetricKind {
    /// The artifact spelling.
    pub fn name(self) -> &'static str {
        match self {
            MetricKind::Deterministic => "deterministic",
            MetricKind::WallClock => "wall_clock",
        }
    }
}

/// One headline metric; every gated metric is higher-is-better.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Stable name, the baseline key.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Deterministic or wall clock.
    pub kind: MetricKind,
}

impl Metric {
    /// A deterministic metric.
    pub fn deterministic(name: &str, value: f64) -> Self {
        Metric { name: name.to_string(), value, kind: MetricKind::Deterministic }
    }

    /// A deterministic 0/1 flag (e.g. every row bit-identical).
    pub fn flag(name: &str, value: bool) -> Self {
        Metric::deterministic(name, f64::from(u8::from(value)))
    }

    /// A host wall-clock metric.
    pub fn wall_clock(name: &str, value: f64) -> Self {
        Metric { name: name.to_string(), value, kind: MetricKind::WallClock }
    }
}

/// An experiment's machine-readable result, empty when ungated.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BenchReport {
    /// The sweep, one JSON object per measurement.
    pub rows: Vec<Json>,
    /// The metrics the gate compares against the baseline.
    pub headline: Vec<Metric>,
}

impl BenchReport {
    /// The `{"experiment", "rows", "headline"}` artifact document; the
    /// gate reads it back with [`gate::read_headline`].
    pub fn to_json(&self, experiment: &str) -> Json {
        let headline = self.headline.iter().map(|m| {
            json_obj! {"name": m.name.as_str(), "value": m.value, "kind": m.kind.name()}
        });
        json_obj! {
            "experiment": experiment,
            "rows": Json::Arr(self.rows.clone()),
            "headline": Json::Arr(headline.collect()),
        }
    }
}

/// An experiment's rendered result: an id like `"Fig. 12a"`, a title,
/// the printable lines (already column-aligned), and the report.
#[derive(Debug, Clone, Default)]
pub struct ExperimentResult {
    /// Paper artifact id (e.g. "Fig. 12a", "Table IV"); empty for a bare
    /// diagnostic printed without a header.
    pub id: &'static str,
    /// Human title.
    pub title: &'static str,
    /// Rendered lines.
    pub lines: Vec<String>,
    /// Sweep rows and gated headline.
    pub report: BenchReport,
    /// A correctness check the run failed: the table is still printed,
    /// but no artifact is written and `gnnie-bench` exits 1.
    pub failed_check: Option<String>,
}

impl ExperimentResult {
    /// An ungated result: lines only.
    pub fn new(id: &'static str, title: &'static str, lines: Vec<String>) -> Self {
        ExperimentResult { id, title, lines, ..Default::default() }
    }

    /// This result gated: a headline that cannot be computed from the
    /// sweep is a failed check, so no artifact is written without one.
    pub fn gated(self, rows: Vec<Json>, headline: Result<Vec<Metric>, String>) -> Self {
        let (headline, failed_check) =
            headline.map_or_else(|e| (Vec::new(), Some(e)), |h| (h, None));
        ExperimentResult { report: BenchReport { rows, headline }, failed_check, ..self }
    }

    /// Prints the result to stdout with a header (none for an empty id).
    pub fn print(&self) {
        if !self.id.is_empty() {
            println!("==== {} — {} ====", self.id, self.title);
        }
        for line in &self.lines {
            println!("{line}");
        }
        if !self.id.is_empty() {
            println!();
        }
    }
}

/// An experiment entry point: regenerates one artifact from the shared
/// context.
pub type ExperimentFn = fn(&Ctx) -> ExperimentResult;

/// The suite `gnnie-bench all` runs, in paper order, by module name.
pub const EXPERIMENTS: &[(&str, ExperimentFn)] = &[
    ("fig01_accuracy", experiments::fig01_accuracy::run),
    ("table2_datasets", experiments::table2_datasets::run),
    ("table3_configs", experiments::table3_configs::run),
    ("fig02_feature_sparsity", experiments::fig02_feature_sparsity::run),
    ("fig10_alpha_rounds", experiments::fig10_alpha_rounds::run),
    ("fig11_gamma_ablation", experiments::fig11_gamma_ablation::run),
    ("fig12_baseline_speedup", experiments::fig12_baseline_speedup::run),
    ("fig13_cross_platform", experiments::fig13_cross_platform::run),
    ("fig14_energy_breakdown", experiments::fig14_energy_breakdown::run),
    ("fig15_energy_efficiency", experiments::fig15_energy_efficiency::run),
    ("fig16_weighting_balance", experiments::fig16_weighting_balance::run),
    ("fig17_beta_designs", experiments::fig17_beta_designs::run),
    ("fig18_optimizations", experiments::fig18_optimizations::run),
    ("table4_throughput", experiments::table4_throughput::run),
    ("table4_scaling", experiments::table4_scaling::run),
    // Ablations beyond the paper's figures (design choices DESIGN.md
    // calls out: attention reordering, exp-LUT sizing, 8-bit weights).
    ("ablation_attention", experiments::ablation_attention::run),
    ("ablation_buffers", experiments::ablation_buffers::run),
    ("ablation_cache_policy", experiments::ablation_cache_policy::run),
    ("ablation_comm", experiments::ablation_comm::run),
    ("ablation_lut", experiments::ablation_lut::run),
    ("ablation_multihead", experiments::ablation_multihead::run),
    ("ablation_psum", experiments::ablation_psum::run),
    ("ablation_psum_policy", experiments::ablation_psum_policy::run),
    ("ablation_quant", experiments::ablation_quant::run),
    ("dse", experiments::dse::run),
    ("ingest_throughput", experiments::ingest_throughput::run),
    ("online_serving", experiments::online_serving::run),
    ("parallel_speedup", experiments::parallel_speedup::run),
    ("scaleout", experiments::scaleout::run),
    ("serving_throughput", experiments::serving_throughput::run),
    ("tiered_cache", experiments::tiered_cache::run),
];

/// The calibration matrix: run by name only, not part of `all`.
pub const CALIBRATE: (&str, ExperimentFn) = ("calibrate", experiments::calibrate::run);

/// The experiment registered under `name` (a module name).
pub fn experiment(name: &str) -> Option<ExperimentFn> {
    EXPERIMENTS.iter().chain([&CALIBRATE]).find(|(n, _)| *n == name).map(|&(_, run)| run)
}
