//! `gnnie` — command-line front end for the accelerator simulator.
//!
//! ```text
//! gnnie run      --model gat (--dataset cora | --graph path) [--scale 1.0] [--design e]
//!                [--seed 42] [--heads 8] [--cache-policy paper|lru|lfu|belady|pinned|split]
//!                [--sim-threads auto|N] [--chips 4] [--partitioner range|edgecut]
//!                [--tiers onchip:256KB,dram:16MB,ssd:4GB | auto:SIZE | even:SIZE]
//!                [--trace out.json] [--trace-summary] [--metrics]
//! gnnie ingest   <path> [--out snapshot.gnniecsr] [--sim-threads auto|N] [--dataset cora]
//!                [--seed 42] [--force] [--chunk-mb N]
//! gnnie serve    [--requests 16] [--models gcn,gat] [--datasets cora,pubmed] [--scale 0.25]
//!                [--batch 8] [--policy fifo|affinity] [--workers 4] [--seed 42]
//!                [--sim-threads auto|N] [--trace out.json] [--metrics]
//! gnnie compare  --dataset pubmed [--scale 1.0]
//! gnnie verify   --model gcn [--vertices 300] [--edges 1500] [--seed 42]
//! gnnie comm     --dataset pubmed [--scale 1.0]
//! gnnie datasets
//! gnnie help
//! ```

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use gnnie::baselines::{AwbGcnModel, HygcnModel, PygCpuModel, PygGpuModel};
use gnnie::core::config::Design;
use gnnie::core::verify::{verify_layers, ExpMode};
use gnnie::gnn::flops::ModelWorkload;
use gnnie::gnn::model::ModelConfig;
use gnnie::gnn::params::ModelParams;
use gnnie::graph::{generate, GraphDataset, PartitionerKind};
use gnnie::ingest::{write_snapshot, DataSource, DatasetRegistry, Provenance, Resolved};
use gnnie::mem::{CachePolicyKind, SimPool, SimThreads};
use gnnie::serve::{InferenceRequest, SchedulerPolicy};
use gnnie::tensor::DenseMatrix;
use gnnie::{AcceleratorConfig, Dataset, Engine, GnnModel};

/// Restore the default SIGPIPE disposition so `gnnie ... | head` exits
/// quietly instead of panicking on a closed pipe (Rust ignores SIGPIPE by
/// default). Declared directly to stay dependency-free.
#[cfg(unix)]
fn reset_sigpipe() {
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGPIPE: i32 = 13;
    const SIG_DFL: usize = 0;
    unsafe {
        signal(SIGPIPE, SIG_DFL);
    }
}

#[cfg(not(unix))]
fn reset_sigpipe() {}

/// Every subcommand, in usage order (unknown-command errors list these).
const COMMANDS: [&str; 8] =
    ["run", "ingest", "serve", "compare", "verify", "comm", "datasets", "help"];

/// The flags each subcommand accepts; `parse_flags` rejects anything
/// else by name so a typo (`--modle`) fails loudly instead of being
/// silently ignored.
fn allowed_flags(command: &str) -> &'static [&'static str] {
    match command {
        "run" => &[
            "model",
            "dataset",
            "graph",
            "scale",
            "design",
            "seed",
            "heads",
            "cache-policy",
            "sim-threads",
            "chips",
            "partitioner",
            "tiers",
            "trace",
            "trace-summary",
            "metrics",
        ],
        "ingest" => &["out", "sim-threads", "dataset", "seed", "force", "chunk-mb"],
        "serve" => &[
            "requests",
            "models",
            "datasets",
            "scale",
            "seed",
            "batch",
            "policy",
            "workers",
            "sim-threads",
            "daemon",
            "arrival",
            "rate",
            "burst",
            "sla",
            "trace",
            "metrics",
        ],
        "compare" | "comm" => &["dataset", "scale", "seed"],
        "verify" => &["model", "vertices", "edges", "seed"],
        _ => &[],
    }
}

/// Flags that take no value (presence means `true`).
fn boolean_flags(command: &str) -> &'static [&'static str] {
    match command {
        "ingest" => &["force"],
        "serve" => &["daemon", "metrics"],
        "run" => &["trace-summary", "metrics"],
        _ => &[],
    }
}

fn main() -> ExitCode {
    reset_sigpipe();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        usage();
        return ExitCode::FAILURE;
    };
    let command = command.as_str();
    if !COMMANDS.contains(&command) && !matches!(command, "--help" | "-h") {
        eprintln!(
            "error: unknown command `{command}` (expected one of: {})",
            COMMANDS.join(", ")
        );
        usage();
        return ExitCode::FAILURE;
    }
    // `ingest` takes its input file as a positional argument.
    let (positional, flag_args) = if command == "ingest" {
        match args.get(1) {
            Some(p) if !p.starts_with("--") => (Some(p.as_str()), &args[2..]),
            _ => {
                eprintln!("error: ingest needs an input <path> before any flags");
                usage();
                return ExitCode::FAILURE;
            }
        }
    } else {
        (None, &args[1..])
    };
    let flags = match parse_flags(flag_args, allowed_flags(command), boolean_flags(command)) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("error: {e}");
            usage();
            return ExitCode::FAILURE;
        }
    };
    let result = match command {
        "run" => cmd_run(&flags),
        "ingest" => cmd_ingest(positional.expect("checked above"), &flags),
        "serve" => cmd_serve(&flags),
        "compare" => cmd_compare(&flags),
        "verify" => cmd_verify(&flags),
        "comm" => cmd_comm(&flags),
        "datasets" => cmd_datasets(),
        _ => {
            usage();
            Ok(())
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn usage() {
    eprintln!(
        "gnnie — GNN inference engine simulator (GNNIE, DAC 2022 reproduction)\n\
         \n\
         commands:\n\
         \x20 run      --model <gcn|sage|gat|gin|diffpool>\n\
         \x20          (--dataset <cr|cs|pb|ppi|rd> [--scale 0.0-1.0] | --graph <path>)\n\
         \x20          [--design a|b|c|d|e] [--seed N] [--heads K]\n\
         \x20          [--cache-policy paper|lru|lfu|belady|pinned|split]\n\
         \x20          [--sim-threads auto|N]\n\
         \x20          (--sim-threads sizes the pool synthesis and the simulation run\n\
         \x20          on; output is identical at any setting)\n\
         \x20          [--chips N] [--partitioner range|edgecut]\n\
         \x20          (--chips shards the cache walk across N simulated accelerators\n\
         \x20          and charges boundary features to an inter-chip link; --chips 1\n\
         \x20          is the unchanged single-chip engine; --partitioner needs --chips > 1)\n\
         \x20          [--tiers onchip:KB,dram:MB[,ssd:GB] | auto:SIZE | even:SIZE]\n\
         \x20          (tiered feature cache: explicit per-tier budgets, or one global\n\
         \x20          budget split workload-aware (`auto`) or in naive halves (`even`);\n\
         \x20          sizes take B/KB/MB/GB suffixes; unset keeps the flat DRAM engine)\n\
         \x20          [--trace out.json] [--trace-summary] [--metrics]\n\
         \x20          (--trace writes the simulated timeline as Chrome trace-event JSON\n\
         \x20          — open in Perfetto; timestamps are cycles. --trace-summary prints\n\
         \x20          a text flamegraph, --metrics dumps the metrics registry)\n\
         \x20 ingest   <path> [--out <snapshot.gnniecsr>] [--sim-threads auto|N]\n\
         \x20          [--dataset <...>] [--seed N] [--force] [--chunk-mb N]\n\
         \x20          parse an edge list and freeze a .gnniecsr snapshot\n\
         \x20          (--sim-threads sizes the pool the CSR build runs on; the\n\
         \x20          snapshot is byte-identical at any setting)\n\
         \x20          (--chunk-mb builds the CSR out-of-core: the edge list is streamed\n\
         \x20          and spilled in ~N MB chunks, for graphs larger than memory;\n\
         \x20          the result is bit-identical to the in-memory build; the\n\
         \x20          out-of-core build is serial, so it refuses --sim-threads)\n\
         \x20 serve    [--requests N] [--models gcn,gat] [--datasets cr,pb] [--scale ...]\n\
         \x20          [--batch N] [--policy fifo|affinity] [--workers N] [--seed N]\n\
         \x20          [--sim-threads auto|N]\n\
         \x20          batched + pipelined serving of a request mix\n\
         \x20          (--sim-threads shards the hot simulation loops; reports are\n\
         \x20          bit-identical at any setting; GNNIE_SIM_THREADS is the default)\n\
         \x20          online serving: [--daemon] [--arrival static|poisson|bursty]\n\
         \x20          [--rate RPS] [--burst N] [--sla interactive|standard|batch|mixed]\n\
         \x20          requests arrive on the simulated clock; --daemon serves them on a\n\
         \x20          long-lived worker pool with one persistent SimPool (graceful drain)\n\
         \x20          [--trace out.json] [--metrics] trace batch lifecycles / dump the\n\
         \x20          registry — online paths only (needs --daemon or a generated arrival)\n\
         \x20 compare  --dataset <...> [--scale ...]   GNNIE vs all baselines\n\
         \x20 verify   --model <...> [--vertices N] [--edges M] [--seed N]\n\
         \x20 comm     --dataset <...> [--scale ...]   inter-PE rebalancing traffic\n\
         \x20 datasets                                  list the Table II datasets\n\
         \x20 help"
    );
}

fn parse_flags(
    args: &[String],
    allowed: &[&str],
    boolean: &[&str],
) -> Result<HashMap<String, String>, String> {
    let mut flags = HashMap::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let Some(key) = arg.strip_prefix("--") else {
            return Err(format!("expected a --flag, got `{arg}`"));
        };
        if !allowed.contains(&key) {
            return Err(if allowed.is_empty() {
                format!("unknown flag `--{key}` (this command takes no flags)")
            } else {
                let expected =
                    allowed.iter().map(|f| format!("--{f}")).collect::<Vec<_>>().join(", ");
                format!("unknown flag `--{key}` (expected one of: {expected})")
            });
        }
        let value = if boolean.contains(&key) {
            "true".to_string()
        } else {
            it.next().ok_or_else(|| format!("flag `--{key}` needs a value"))?.clone()
        };
        if flags.insert(key.to_string(), value).is_some() {
            return Err(format!("flag `--{key}` given more than once"));
        }
    }
    Ok(flags)
}

fn model_token(tok: &str) -> Result<GnnModel, String> {
    match tok.to_lowercase().as_str() {
        "gcn" => Ok(GnnModel::Gcn),
        "sage" | "graphsage" => Ok(GnnModel::GraphSage),
        "gat" => Ok(GnnModel::Gat),
        "gin" | "ginconv" => Ok(GnnModel::GinConv),
        "diffpool" => Ok(GnnModel::DiffPool),
        other => Err(format!("unknown model `{other}`")),
    }
}

fn dataset_token(tok: &str) -> Result<Dataset, String> {
    tok.parse()
}

fn parse_model(flags: &HashMap<String, String>) -> Result<GnnModel, String> {
    match flags.get("model") {
        Some(tok) => model_token(tok),
        None => Err("--model is required".into()),
    }
}

fn parse_dataset(flags: &HashMap<String, String>) -> Result<Dataset, String> {
    match flags.get("dataset") {
        Some(tok) => dataset_token(tok),
        None => Err("--dataset is required".into()),
    }
}

/// Parses a comma-separated list flag (`--models gcn,gat`), defaulting to
/// `default` when absent.
fn parse_list<T>(
    flags: &HashMap<String, String>,
    key: &str,
    default: T,
    token: impl Fn(&str) -> Result<T, String>,
) -> Result<Vec<T>, String> {
    match flags.get(key) {
        None => Ok(vec![default]),
        Some(s) => {
            let items: Result<Vec<T>, String> =
                s.split(',').filter(|t| !t.is_empty()).map(|t| token(t.trim())).collect();
            let items = items?;
            if items.is_empty() {
                return Err(format!("--{key} needs at least one entry"));
            }
            Ok(items)
        }
    }
}

fn parse_scale(flags: &HashMap<String, String>, dataset: Dataset) -> Result<f64, String> {
    match flags.get("scale") {
        Some(s) => s
            .parse::<f64>()
            .ok()
            .filter(|&x| x > 0.0 && x <= 1.0)
            .ok_or_else(|| format!("--scale must be in (0, 1], got `{s}`")),
        None => Ok(match dataset {
            Dataset::Ppi => 0.1,
            Dataset::Reddit => 0.02,
            _ => 1.0,
        }),
    }
}

fn parse_seed(flags: &HashMap<String, String>) -> Result<u64, String> {
    match flags.get("seed") {
        Some(s) => s.parse().map_err(|_| format!("--seed must be an integer, got `{s}`")),
        None => Ok(42),
    }
}

fn parse_cache_policy(
    flags: &HashMap<String, String>,
) -> Result<Option<CachePolicyKind>, String> {
    flags.get("cache-policy").map(|s| s.parse::<CachePolicyKind>()).transpose()
}

/// Parses `--sim-threads` (`auto` or a positive worker count; 0 is
/// rejected). `None` means the flag was absent, in which case the
/// default — `GNNIE_SIM_THREADS`, else the machine's available
/// parallelism — applies. Reports are bit-identical at any
/// setting; this is purely a host-side knob.
fn parse_sim_threads(flags: &HashMap<String, String>) -> Result<Option<SimThreads>, String> {
    match flags.get("sim-threads") {
        None => Ok(None),
        Some(s) => s.parse::<SimThreads>().map(Some).map_err(|e| format!("--sim-threads: {e}")),
    }
}

/// Parses `--chips` (simulated accelerator count; 1 = the single-chip
/// engine, unchanged). Zero and garbage are rejected by name, matching
/// the `--sim-threads` error style.
fn parse_chips(flags: &HashMap<String, String>) -> Result<usize, String> {
    flags.get("chips").map_or(Ok(1), |s| {
        s.parse::<usize>()
            .ok()
            .filter(|&n| n >= 1)
            .ok_or_else(|| format!("--chips must be a positive integer, got `{s}`"))
    })
}

/// Parses `--partitioner` (how the graph is sharded across chips);
/// `None` keeps the configuration default. Only meaningful with
/// `--chips` > 1, but harmless otherwise.
fn parse_partitioner(
    flags: &HashMap<String, String>,
) -> Result<Option<PartitionerKind>, String> {
    match flags.get("partitioner") {
        None => Ok(None),
        Some(s) => {
            s.parse::<PartitionerKind>().map(Some).map_err(|e| format!("--partitioner: {e}"))
        }
    }
}

/// Parses a size token with an optional B/KB/MB/GB suffix (binary
/// multiples, case-insensitive); a bare number is bytes.
fn parse_size_bytes(token: &str) -> Result<u64, String> {
    let t = token.trim();
    let upper = t.to_ascii_uppercase();
    let (digits, mult) = if let Some(d) = upper.strip_suffix("KB") {
        (d, 1u64 << 10)
    } else if let Some(d) = upper.strip_suffix("MB") {
        (d, 1u64 << 20)
    } else if let Some(d) = upper.strip_suffix("GB") {
        (d, 1u64 << 30)
    } else if let Some(d) = upper.strip_suffix('B') {
        (d, 1)
    } else {
        (upper.as_str(), 1)
    };
    let n: u64 = digits.trim().parse().map_err(|_| {
        format!("bad size `{t}` (use a number with an optional B/KB/MB/GB suffix)")
    })?;
    n.checked_mul(mult).ok_or_else(|| format!("size `{t}` overflows"))
}

/// Parses `--tiers`. Three forms:
///
/// * `onchip:SIZE,dram:SIZE[,ssd:SIZE]` — explicit per-tier budgets;
/// * `auto:SIZE` — one global budget, workload-aware split;
/// * `even:SIZE` — one global budget, naive even split.
///
/// `None` means the flag was absent and the engine stays on the flat
/// single-channel DRAM path, byte-identical to builds without tiering.
fn parse_tiers(
    flags: &HashMap<String, String>,
) -> Result<Option<gnnie::mem::TierSpec>, String> {
    use gnnie::mem::{SplitMode, TierBudgets, TierSpec};
    let Some(spec) = flags.get("tiers") else {
        return Ok(None);
    };
    let parts: Vec<&str> = spec.split(',').map(str::trim).collect();
    let mut fields: Vec<(&str, &str)> = Vec::new();
    for part in &parts {
        let Some((name, size)) = part.split_once(':') else {
            return Err(format!(
                "--tiers: `{part}` is not `name:SIZE` (use onchip:...,dram:...[,ssd:...], \
                 auto:SIZE, or even:SIZE)"
            ));
        };
        fields.push((name.trim(), size.trim()));
    }
    // Split forms: a single `auto:SIZE` / `even:SIZE` entry.
    if let [(mode @ ("auto" | "even"), size)] = fields.as_slice() {
        let total_bytes = parse_size_bytes(size).map_err(|e| format!("--tiers: {e}"))?;
        if total_bytes == 0 {
            return Err(format!("--tiers: {mode} budget must be positive"));
        }
        let mode = if *mode == "auto" { SplitMode::Workload } else { SplitMode::Even };
        return Ok(Some(TierSpec::Split { total_bytes, mode }));
    }
    // Explicit form: onchip and dram required, ssd optional, order fixed.
    let mut onchip = None;
    let mut dram = None;
    let mut ssd = None;
    for (name, size) in &fields {
        let bytes = parse_size_bytes(size).map_err(|e| format!("--tiers {name}: {e}"))?;
        let slot = match *name {
            "onchip" => &mut onchip,
            "dram" => &mut dram,
            "ssd" => &mut ssd,
            other => {
                return Err(format!(
                    "--tiers: unknown tier `{other}` (use onchip, dram, ssd — or a single \
                     auto:SIZE / even:SIZE split)"
                ))
            }
        };
        if slot.replace(bytes).is_some() {
            return Err(format!("--tiers: tier `{name}` given more than once"));
        }
    }
    let (Some(onchip_bytes), Some(dram_bytes)) = (onchip, dram) else {
        return Err("--tiers: explicit form needs both onchip:SIZE and dram:SIZE".into());
    };
    Ok(Some(TierSpec::Explicit(TierBudgets { onchip_bytes, dram_bytes, ssd_bytes: ssd })))
}

fn parse_design(flags: &HashMap<String, String>) -> Result<Option<Design>, String> {
    match flags.get("design").map(|s| s.to_lowercase()).as_deref() {
        None => Ok(None),
        Some("a") => Ok(Some(Design::A)),
        Some("b") => Ok(Some(Design::B)),
        Some("c") => Ok(Some(Design::C)),
        Some("d") => Ok(Some(Design::D)),
        Some("e") => Ok(Some(Design::E)),
        Some(other) => Err(format!("unknown design `{other}` (use a-e)")),
    }
}

/// The observability selections of a command: an optional Chrome-trace
/// output path (`--trace out.json`, viewable in Perfetto), a text
/// flamegraph summary (`--trace-summary`), and a metrics-registry dump
/// (`--metrics`). All default off, and a flagless run never constructs
/// a recording sink, so its output stays byte-identical to
/// pre-observability builds.
#[derive(Debug)]
struct ObsFlags {
    trace_path: Option<PathBuf>,
    trace_summary: bool,
    metrics: bool,
}

impl ObsFlags {
    fn from_flags(flags: &HashMap<String, String>) -> Self {
        ObsFlags {
            trace_path: flags.get("trace").map(PathBuf::from),
            trace_summary: flags.contains_key("trace-summary"),
            metrics: flags.contains_key("metrics"),
        }
    }

    /// Builds the bundle to thread through the engine/scheduler: each
    /// surface records only if a flag asked for it.
    fn build(&self) -> gnnie::obs::Obs {
        gnnie::obs::Obs {
            trace: if self.trace_path.is_some() || self.trace_summary {
                gnnie::obs::Trace::recording()
            } else {
                gnnie::obs::Trace::off()
            },
            metrics: if self.metrics {
                gnnie::obs::Metrics::recording()
            } else {
                gnnie::obs::Metrics::off()
            },
        }
    }

    /// Emits everything the flags asked for, after the normal report:
    /// the trace file (errors name the path), the flamegraph summary,
    /// and the metrics dump.
    fn emit(&self, obs: &gnnie::obs::Obs) -> Result<(), String> {
        if let Some(path) = &self.trace_path {
            let events = obs.trace.events();
            let json = gnnie::obs::chrome_trace_json(&events);
            std::fs::write(path, json)
                .map_err(|e| format!("--trace {}: {e}", path.display()))?;
            println!("  trace    {:>12} events -> {}", events.len(), path.display());
        }
        if self.trace_summary {
            print!("{}", gnnie::obs::flame_summary(&obs.trace.events()));
        }
        if self.metrics {
            println!("metrics:");
            print!("{}", obs.metrics.snapshot().render());
        }
        Ok(())
    }
}

/// A dataset resolved for `run`, plus how to title it in the report.
#[derive(Debug)]
struct RunDataset {
    ds: GraphDataset,
    /// Display label: the dataset name, or the file name with the
    /// fallback profile for foreign graphs.
    label: String,
    /// Scale to print; `None` for foreign graphs where a Table II scale
    /// is meaningless.
    scale: Option<f64>,
}

/// Emits the stderr provenance line for a file-backed load (stdout stays
/// byte-comparable across file-backed and synthesized runs). The
/// provenance names the format — and, for v3 snapshots on supported
/// platforms, whether the load was zero-copy via `mmap`.
fn note_loaded(r: &Resolved) {
    eprintln!(
        "[loaded {} vertices / {} edges from {}]",
        r.dataset().graph.num_vertices(),
        r.dataset().graph.num_edges(),
        r.provenance
    );
    warn_dropped_weights(r);
}

/// One-line stderr warning when an edge list carried a third (weight)
/// column: GNNIE graphs are unweighted, so the column was dropped — say
/// so, with the first affected line, instead of ignoring it silently.
fn warn_dropped_weights(out: &Resolved) {
    if let Some((count, first_line)) = out.dropped_weights {
        eprintln!(
            "warning: dropped the third (weight) column on {count} line(s) — gnnie graphs \
             are unweighted (first at line {first_line})"
        );
    }
}

/// Scale implied by a loaded spec relative to the full-size dataset —
/// agrees with the `--scale` flag to two printed decimals for exported
/// datasets, keeping `run --graph` output byte-identical to the matching
/// `run --dataset` output.
fn derived_scale(ds: &GraphDataset) -> f64 {
    ds.spec.vertices as f64 / ds.spec.dataset.spec().vertices as f64
}

/// Resolves the dataset for `run` through the unified [`DataSource`]
/// API. `--graph <path>` loads any supported file format; `--dataset
/// <name>` goes through the registry too, so a file in `GNNIE_DATA_DIR`
/// wins over synthesis (exactly what `gnnie datasets` advertises). With
/// `--graph`, `--dataset` selects the fallback feature profile for files
/// that carry no recorded spec. Synthesis and text edge-list builds run
/// on `pool`.
fn resolve_run_dataset(
    flags: &HashMap<String, String>,
    pool: &SimPool,
) -> Result<RunDataset, String> {
    let seed = parse_seed(flags)?;
    let registry = DatasetRegistry::from_env();
    let Some(path) = flags.get("graph") else {
        let dataset = parse_dataset(flags)?;
        let scale = parse_scale(flags, dataset)?;
        let r = DataSource::named(dataset, scale, seed)
            .resolve_on(&registry, pool)
            .map_err(|e| e.to_string())?;
        let scale = match r.provenance {
            Provenance::Synth => scale,
            _ => {
                if flags.contains_key("scale") {
                    eprintln!("[note: --scale ignored, {} is file-backed]", dataset.abbrev());
                }
                note_loaded(&r);
                derived_scale(r.dataset())
            }
        };
        return Ok(RunDataset {
            ds: r.into_dataset(),
            label: dataset.name().to_string(),
            scale: Some(scale),
        });
    };
    if flags.contains_key("scale") {
        return Err("--scale applies only to synthesized --dataset runs".into());
    }
    let fallback = match flags.get("dataset") {
        Some(tok) => dataset_token(tok)?,
        None => Dataset::Cora,
    };
    let r = DataSource::file(Path::new(path), fallback, seed)
        .resolve_on(&registry, pool)
        .map_err(|e| e.to_string())?;
    if r.dataset().graph.num_vertices() == 0 {
        return Err(format!("--graph {path}: the graph has no vertices"));
    }
    note_loaded(&r);
    if r.recorded_spec {
        let recorded = r.dataset().spec.dataset;
        if flags.contains_key("dataset") && recorded != fallback {
            return Err(format!(
                "{path}: file records dataset {} but --dataset {} was given",
                recorded.abbrev(),
                fallback.abbrev()
            ));
        }
        let scale = derived_scale(r.dataset());
        Ok(RunDataset {
            label: recorded.name().to_string(),
            scale: Some(scale),
            ds: r.into_dataset(),
        })
    } else {
        // Foreign graph: title it by its file, not a dataset it isn't.
        let file = Path::new(path)
            .file_name()
            .map_or_else(|| path.to_string(), |f| f.to_string_lossy().into_owned());
        Ok(RunDataset {
            label: format!("{file} [{} feature profile]", fallback.name()),
            scale: None,
            ds: r.into_dataset(),
        })
    }
}

fn cmd_run(flags: &HashMap<String, String>) -> Result<(), String> {
    let model = parse_model(flags)?;
    // One pool, sized by `--sim-threads`, builds the graph and runs the
    // simulation.
    let pool = SimPool::new(parse_sim_threads(flags)?.unwrap_or_else(SimThreads::from_env));
    let RunDataset { ds, label, scale } = resolve_run_dataset(flags, &pool)?;
    let dataset = ds.spec.dataset;
    let mut config = match parse_design(flags)? {
        Some(d) => AcceleratorConfig::with_design(
            d,
            AcceleratorConfig::paper(dataset).input_buffer_bytes,
        ),
        None => AcceleratorConfig::paper(dataset),
    };
    if let Some(kind) = parse_cache_policy(flags)? {
        config.cache_policy = kind;
    }
    config.chips = parse_chips(flags)?;
    let vertices = ds.graph.num_vertices();
    if config.chips > vertices {
        return Err(format!(
            "--chips {} exceeds the graph's {vertices} vertices (each chip needs at least one)",
            config.chips
        ));
    }
    if let Some(kind) = parse_partitioner(flags)? {
        // A partitioner only runs when the graph is actually split, so
        // accepting it on a single-chip run would silently do nothing.
        if config.chips <= 1 {
            return Err(
                "--partitioner has no effect without --chips > 1 (pass --chips N to shard \
                 the graph)"
                    .into(),
            );
        }
        config.partitioner = kind;
    }
    config.tiers = parse_tiers(flags)?;
    let heads = parse_positive_at_most(flags, "heads", 1, MAX_HEADS)?;
    if heads > 1 && model != GnnModel::Gat {
        return Err("--heads applies only to --model gat".into());
    }
    let model_config = if heads > 1 {
        ModelConfig::gat_multihead(&ds.spec, heads)
    } else {
        ModelConfig::paper(model, &ds.spec)
    };
    let engine = Engine::new(config);
    let mut session = engine.begin_pooled(&model_config, &ds, Default::default(), &pool);
    session.run_to_completion();
    let report = session.finish();
    // With every observability flag off `obs` is `Obs::off()` — the
    // flagless report and stdout are unchanged.
    let obs_flags = ObsFlags::from_flags(flags);
    let obs = obs_flags.build();
    report.record_obs(&obs);
    let size = match scale {
        Some(s) => {
            format!("scale {s:.2}: {} vertices, {} edges", report.vertices, report.edges)
        }
        None => format!("{} vertices, {} edges", report.vertices, report.edges),
    };
    println!(
        "{}{} on {label} ({size})",
        model.name(),
        if heads > 1 { format!(" ({heads} heads)") } else { String::new() },
    );
    println!(
        "  latency  {:>12.2} us  ({} cycles @ {:.1} GHz)",
        report.latency_s * 1e6,
        report.total_cycles,
        engine.config().clock_hz / 1e9
    );
    for phase in report.phases() {
        println!("    {:<14} {:>12} cycles", phase.name, phase.cycles);
    }
    println!(
        "  energy   {:>12.2} uJ  ({:.3e} inferences/kJ)",
        report.energy.total_pj() / 1e6,
        report.inferences_per_kj()
    );
    println!(
        "  dram     {:>12} bytes ({} random)",
        report.dram.total_bytes(),
        report.dram.random_bytes()
    );
    let (evictions, refetches) = report
        .layers
        .iter()
        .filter_map(|l| l.aggregation.cache.as_ref())
        .fold((0u64, 0u64), |(e, r), c| (e + c.evictions, r + c.refetches));
    println!(
        "  cache    {:>12} policy ({} evictions, {} refetches)",
        engine.config().cache_policy,
        evictions,
        refetches
    );
    // Printed only for multi-chip runs so `--chips 1` output stays
    // byte-identical to a run without the flag.
    if engine.config().chips > 1 {
        println!(
            "  scaleout {:>12} chips ({} partitioner, {} inter-chip bytes, {} link cycles)",
            engine.config().chips,
            engine.config().partitioner,
            report.inter_chip_bytes(),
            report.inter_chip_cycles()
        );
    }
    // Printed only for tiered runs so an untiered run's output stays
    // byte-identical to builds without the tier subsystem.
    let tier_stats = report.tier_stats();
    if !tier_stats.is_empty() {
        let levels = tier_stats
            .iter()
            .map(|t| format!("{} {:.1}% hit", t.name, 100.0 * t.hit_rate()))
            .collect::<Vec<_>>()
            .join(", ");
        println!("  tiers    {:>12} levels ({levels})", tier_stats.len());
    }
    println!("  effective {:>11.2} TOPS", report.effective_tops());
    // Strictly flag-gated so flagless stdout stays byte-identical.
    obs_flags.emit(&obs)?;
    Ok(())
}

fn cmd_ingest(path: &str, flags: &HashMap<String, String>) -> Result<(), String> {
    let input = Path::new(path);
    let seed = parse_seed(flags)?;
    let threads = parse_sim_threads(flags)?.unwrap_or_else(SimThreads::from_env);
    let force = flags.contains_key("force");
    // Fallback dataset whose Table II statistics size the synthesized
    // features when the file carries no recorded spec.
    let fallback = match flags.get("dataset") {
        Some(tok) => dataset_token(tok)?,
        None => Dataset::Cora,
    };
    let out_path = match flags.get("out") {
        Some(p) => PathBuf::from(p),
        None => input.with_extension("gnniecsr"),
    };

    // `--chunk-mb` switches to the out-of-core builder: the edge list is
    // streamed (never held in memory as COO) and scatter records spill to
    // temp files in ~N MB chunks. Bit-identical to the in-memory build.
    let chunk_mb = flags
        .get("chunk-mb")
        .map(|s| {
            s.parse::<u64>()
                .ok()
                .filter(|&n| n >= 1)
                .ok_or_else(|| format!("--chunk-mb must be a positive integer, got `{s}`"))
                .and_then(|mb| {
                    mb.checked_mul(1 << 20)
                        .ok_or_else(|| format!("--chunk-mb {mb} overflows a byte count"))
                })
        })
        .transpose()?;
    if chunk_mb.is_some() && flags.contains_key("sim-threads") {
        // The out-of-core builder is serial, so accepting a pool size for
        // it would silently do nothing.
        return Err("--sim-threads has no effect with --chunk-mb (the out-of-core build is \
                    serial; drop one of the two)"
            .into());
    }

    let registry = DatasetRegistry::from_env();
    let t0 = Instant::now();
    let loaded = match chunk_mb {
        Some(bytes) => registry.load_path_chunked(input, fallback, seed, bytes),
        None => registry.load_path(input, fallback, seed, &SimPool::new(threads)),
    }
    .map_err(|e| e.to_string())?;
    let load_ms = t0.elapsed().as_secs_f64() * 1e3;
    let t1 = Instant::now();
    write_snapshot(&out_path, &loaded.dataset, force).map_err(|e| e.to_string())?;
    let write_ms = t1.elapsed().as_secs_f64() * 1e3;

    warn_dropped_weights(&loaded);
    let ds = &loaded.dataset;
    println!("ingested {} ({})", input.display(), loaded.provenance);
    println!(
        "  graph    {:>10} vertices  {:>12} edges  (max degree {})",
        ds.graph.num_vertices(),
        ds.graph.num_edges(),
        ds.graph.max_degree()
    );
    if let Some(stats) = loaded.stats {
        println!(
            "  cleaned  {:>10} input edges: {} self-loops dropped, {} duplicates collapsed",
            stats.input_edges, stats.self_loops, stats.duplicates
        );
    }
    println!(
        "  features {:>10} x {} ({:.2}% sparse)",
        ds.features.rows(),
        ds.features.cols(),
        ds.features.sparsity() * 100.0
    );
    match chunk_mb {
        Some(bytes) => {
            println!(
                "  parse+build {:>8.1} ms out-of-core ({} MB chunks)",
                load_ms,
                bytes >> 20
            )
        }
        None => {
            println!("  parse+build {:>8.1} ms on {} sim thread(s)", load_ms, threads.resolve())
        }
    }
    let bytes = std::fs::metadata(&out_path).map(|m| m.len()).unwrap_or(0);
    println!(
        "  snapshot {} ({} bytes, written in {:.1} ms)",
        out_path.display(),
        bytes,
        write_ms
    );
    Ok(())
}

/// Parses an optional positive-integer flag, defaulting when absent.
fn parse_positive(
    flags: &HashMap<String, String>,
    key: &str,
    default: usize,
) -> Result<usize, String> {
    flags.get(key).map_or(Ok(default), |s| {
        s.parse::<usize>()
            .ok()
            .filter(|&n| n >= 1)
            .ok_or_else(|| format!("--{key} must be a positive integer, got `{s}`"))
    })
}

/// Most attention heads `run --model gat` takes: every head re-runs the
/// layer's Aggregation walk, so run time grows linearly with the count.
/// Far above the multi-head ablation's sweep of 1–8 heads.
const MAX_HEADS: usize = 64;
/// Most requests `serve` queues: the queue is built up front.
const MAX_REQUESTS: usize = 1_000_000;
/// Most request workers `serve` takes: the daemon spawns every one.
const MAX_WORKERS: usize = 256;

/// [`parse_positive`] with an upper bound.
fn parse_positive_at_most(
    flags: &HashMap<String, String>,
    key: &str,
    default: usize,
    max: usize,
) -> Result<usize, String> {
    let n = parse_positive(flags, key, default)?;
    if n > max {
        return Err(format!("--{key} must be at most {max}, got `{n}`"));
    }
    Ok(n)
}

/// The `--arrival` token, validated. `static` is the legacy all-at-t=0
/// queue; the rate/burst knobs apply only to the generated processes.
fn parse_arrival(
    flags: &HashMap<String, String>,
) -> Result<gnnie::serve::ArrivalProcess, String> {
    use gnnie::serve::ArrivalProcess;
    let token = flags.get("arrival").map(String::as_str).unwrap_or("static");
    // A burst of at most MAX_REQUESTS at no less than MIN_RATE keeps every
    // arrival, in simulated cycles, far inside a u64.
    const MIN_RATE: f64 = 0.01;
    let rate = flags
        .get("rate")
        .map(|s| {
            s.parse::<f64>().ok().filter(|&r| r.is_finite() && r >= MIN_RATE).ok_or_else(|| {
                format!("--rate must be a number of at least {MIN_RATE}, got `{s}`")
            })
        })
        .transpose()?;
    let burst = flags
        .contains_key("burst")
        .then(|| parse_positive_at_most(flags, "burst", 1, MAX_REQUESTS))
        .transpose()?;
    let process = match token.to_ascii_lowercase().as_str() {
        "static" => {
            if rate.is_some() {
                return Err("--rate requires --arrival poisson|bursty".into());
            }
            if burst.is_some() {
                return Err("--burst requires --arrival bursty".into());
            }
            ArrivalProcess::Static
        }
        "poisson" => {
            if burst.is_some() {
                return Err("--burst requires --arrival bursty".into());
            }
            ArrivalProcess::Poisson { rate_rps: rate.unwrap_or(10_000.0) }
        }
        "bursty" => ArrivalProcess::Bursty {
            rate_rps: rate.unwrap_or(10_000.0),
            burst: burst.unwrap_or(4),
        },
        other => {
            return Err(format!(
                "unknown arrival process `{other}` (use static|poisson|bursty)"
            ))
        }
    };
    Ok(process)
}

fn cmd_serve(flags: &HashMap<String, String>) -> Result<(), String> {
    use gnnie::serve::{
        schedule_batched, ArrivalProcess, BatchScheduler, Daemon, DaemonConfig, LoadGen,
        OnlineConfig, SimClock, SlaMix,
    };

    let n = parse_positive_at_most(flags, "requests", 16, MAX_REQUESTS)?;
    let models = parse_list(flags, "models", GnnModel::Gcn, model_token)?;
    let datasets = parse_list(flags, "datasets", Dataset::Cora, dataset_token)?;
    let seed = parse_seed(flags)?;
    let max_batch = parse_positive(flags, "batch", 8)?;
    let policy: SchedulerPolicy =
        flags.get("policy").map_or(Ok(SchedulerPolicy::ModelAffinity), |s| s.parse())?;
    let workers =
        parse_positive_at_most(flags, "workers", DaemonConfig::default().workers, MAX_WORKERS)?;
    let sim_threads =
        parse_sim_threads(flags)?.unwrap_or_else(gnnie::mem::SimThreads::from_env);

    let daemon_mode = flags.contains_key("daemon");
    let process = parse_arrival(flags)?;
    // Online serving = a generated arrival process, or the daemon replay
    // of a static trace. The plain static path stays the legacy batch
    // planner.
    let online = daemon_mode || process != ArrivalProcess::Static;
    let sla: SlaMix = match flags.get("sla") {
        Some(s) if !online => {
            let _ = s;
            return Err("--sla requires --daemon or --arrival poisson|bursty".into());
        }
        Some(s) => s.parse()?,
        None => SlaMix::Mixed,
    };
    // `--trace`/`--metrics` observe the online scheduler; on the legacy
    // static batch planner they would silently record nothing, so they
    // are rejected by name — mirroring the `--sla` rule above.
    let obs_flags = ObsFlags::from_flags(flags);
    if !online {
        if obs_flags.trace_path.is_some() {
            return Err("--trace requires --daemon or --arrival poisson|bursty".into());
        }
        if obs_flags.metrics {
            return Err("--metrics requires --daemon or --arrival poisson|bursty".into());
        }
    }

    // The request mix: model varies fastest so a FIFO scheduler sees the
    // worst-case interleaving; every request gets its own seed (wrapping
    // past u64::MAX).
    let mut queue = Vec::with_capacity(n);
    for i in 0..n {
        let model = models[i % models.len()];
        let dataset = datasets[(i / models.len()) % datasets.len()];
        let scale = parse_scale(flags, dataset)?;
        let request_seed = seed.wrapping_add(i as u64);
        queue.push(InferenceRequest::new(i as u64, model, dataset, scale, request_seed));
    }

    // Both paths run the engine on the daemon and schedule over its cost
    // oracle. `--daemon` only adds the provenance and drain report on
    // stderr (so stdout stays byte-identical with and without it, and
    // across --sim-threads settings) and the profile-cache gauges in the
    // registry.
    if daemon_mode {
        eprintln!("[daemon: {workers} request workers, sim-threads {sim_threads}]");
    }
    let daemon = Daemon::new(DaemonConfig { workers, sim_threads, chips: 1 });
    let clock = SimClock::paper(datasets[0]);

    if online {
        let trace = LoadGen { process, sla, seed }.generate(&queue, &clock);
        let cfg = OnlineConfig { max_batch, admission_control: true };
        let mut obs = obs_flags.build();
        if daemon_mode && !obs.metrics.enabled() {
            // The drain report reads its per-class queue-wait percentiles
            // from the registry, so the daemon path always records
            // metrics; they reach stdout only under --metrics.
            obs.metrics = gnnie::obs::Metrics::recording();
        }
        let report = daemon.serve_online(&trace, &cfg);
        report.record_obs(&obs);
        let stats = daemon.profile_cache_stats();
        daemon.shutdown();
        if daemon_mode {
            // Gauges, not counters: the stats are already lifetime totals.
            obs.metrics.gauge_set("serve.daemon.profile_cache.hits", stats.hits as f64);
            obs.metrics.gauge_set("serve.daemon.profile_cache.misses", stats.misses as f64);
            obs.metrics.gauge_set("serve.daemon.profile_cache.entries", stats.entries as f64);
            eprintln!(
                "[daemon: drained and joined; profile cache {} hits / {} misses, {} entries]",
                stats.hits, stats.misses, stats.entries
            );
            // Drain report: per-SLA-class queue wait alongside service
            // latency, read back from the registry histograms.
            let registry = obs.metrics.snapshot();
            for class in gnnie::serve::SlaClass::ALL {
                let name = class.name();
                let wait = registry.histogram(&format!("serve.queue_wait_us.{name}"));
                let service = registry.histogram(&format!("serve.latency_us.{name}"));
                if let (Some(wait), Some(service)) = (wait, service) {
                    eprintln!(
                        "[daemon: {name} x{}: queue-wait {:.2} us p50 / {:.2} us p95, \
                         service {:.2} us p50 / {:.2} us p95]",
                        wait.count(),
                        wait.percentile(0.50),
                        wait.percentile(0.95),
                        service.percentile(0.50),
                        service.percentile(0.95),
                    );
                }
            }
        }

        println!(
            "online serving {n} requests (arrival {}, sla {sla}, max batch {max_batch})",
            process.name()
        );
        println!(
            "  mix      {} over {}",
            models.iter().map(|m| m.name()).collect::<Vec<_>>().join(","),
            datasets.iter().map(|d| d.abbrev()).collect::<Vec<_>>().join(",")
        );
        println!(
            "  served   {:>5} requests in {} batches   rejected {}   degraded {}",
            report.outcomes.len(),
            report.batches.len(),
            report.rejected.len(),
            report.outcomes.iter().filter(|o| o.degraded).count(),
        );
        println!(
            "  throughput {:>12.1} req/s (simulated @ {:.1} GHz)",
            report.throughput_rps(),
            report.clock_hz / 1e9
        );
        println!(
            "  latency  {:>12.2} us p50   {:>12.2} us p95   {:>12.2} us p99",
            report.p50_latency_s() * 1e6,
            report.p95_latency_s() * 1e6,
            report.p99_latency_s() * 1e6
        );
        for class in gnnie::serve::SlaClass::ALL {
            let served = report.class_served(class);
            if served == 0 {
                continue;
            }
            println!(
                "    {:<11} x{:<4} {:>10.2} us p50   {:>12.2} us p95   {:>12.2} us p99",
                class.name(),
                served,
                report.class_percentile(class, 0.50) * 1e6,
                report.class_percentile(class, 0.95) * 1e6,
                report.class_percentile(class, 0.99) * 1e6
            );
        }
        println!(
            "  deadlines {:>11.1} % met   ({} cycles makespan)",
            report.deadline_hit_rate() * 100.0,
            report.makespan_cycles
        );
        // Strictly flag-gated so flagless stdout stays byte-identical.
        obs_flags.emit(&obs)?;
        return Ok(());
    }

    let costs = daemon.profile_costs(&queue);
    daemon.shutdown();
    let report =
        schedule_batched(&queue, &BatchScheduler::new(policy, max_batch), &costs, &clock);

    println!(
        "serving {n} requests (policy {policy}, max batch {max_batch}, {workers} workers)"
    );
    println!(
        "  mix      {} over {}",
        models.iter().map(|m| m.name()).collect::<Vec<_>>().join(","),
        datasets.iter().map(|d| d.abbrev()).collect::<Vec<_>>().join(",")
    );
    println!("  batches:");
    for b in &report.batches {
        println!(
            "    #{:<2} {:<9} on {:<8} x{:<3} W {:>12}  A {:>12}  done @ {:>12}  saved {:>10}",
            b.index,
            b.model.name(),
            b.dataset.name(),
            b.size,
            b.weighting_cycles,
            b.aggregation_cycles,
            b.completion_cycle,
            b.weight_load_cycles_saved,
        );
    }
    println!(
        "  throughput {:>12.1} inferences/s (simulated @ {:.1} GHz)",
        report.throughput_inferences_per_s(),
        report.clock_hz / 1e9
    );
    println!(
        "  latency    {:>12.2} us p50   {:>12.2} us p95   {:>12.2} us p99",
        report.p50_latency_s() * 1e6,
        report.p95_latency_s() * 1e6,
        report.p99_latency_s() * 1e6
    );
    println!(
        "  cycles     {:>12} pipelined   {:>12} batched-serial   {:>12} serial loop",
        report.pipelined_total_cycles, report.batched_serial_cycles, report.serial_total_cycles
    );
    println!(
        "  weights    {:>12} load cycles saved across {} resident followers",
        report.weight_load_cycles_saved,
        report.requests.iter().filter(|r| r.weights_resident).count()
    );
    println!("  speedup    {:>12.2}x vs serial Engine::run loop", report.speedup_vs_serial());
    Ok(())
}

fn cmd_compare(flags: &HashMap<String, String>) -> Result<(), String> {
    let dataset = parse_dataset(flags)?;
    let scale = parse_scale(flags, dataset)?;
    let seed = parse_seed(flags)?;
    let ds = GraphDataset::generate(dataset, scale, seed);
    let engine = Engine::new(AcceleratorConfig::paper(dataset));
    println!("{} (scale {scale:.2}) — speedups over GNNIE per platform", dataset.name());
    println!(
        "{:10} {:>12} {:>10} {:>10} {:>9} {:>9}",
        "model", "GNNIE", "PyG-CPU", "PyG-GPU", "HyGCN", "AWB-GCN"
    );
    for model in GnnModel::ALL {
        let cfg = ModelConfig::paper(model, &ds.spec);
        let report = engine.run(&cfg, &ds);
        let w = ModelWorkload::for_dataset(&cfg, &ds);
        let ratio = |l: f64| format!("{:.1}x", l / report.latency_s);
        println!(
            "{:10} {:>9.1} us {:>10} {:>10} {:>9} {:>9}",
            model.name(),
            report.latency_s * 1e6,
            ratio(PygCpuModel::new().run(&w).latency_s),
            ratio(PygGpuModel::new().run(&w).latency_s),
            HygcnModel::new().run(&w).map(|b| ratio(b.latency_s)).unwrap_or("--".into()),
            AwbGcnModel::new().run(&w).map(|b| ratio(b.latency_s)).unwrap_or("--".into()),
        );
    }
    Ok(())
}

fn cmd_verify(flags: &HashMap<String, String>) -> Result<(), String> {
    let model = parse_model(flags)?;
    if model == GnnModel::DiffPool {
        return Err("verify supports the four flat models (DiffPool's coarse \
                    levels are plain dense matmuls)"
            .into());
    }
    let seed = parse_seed(flags)?;
    // The golden model is a plain host loop: keep the graph small.
    const MAX_VERTICES: usize = 100_000;
    const MAX_EDGES: usize = 10_000_000;
    let vertices: usize = flags.get("vertices").map_or(Ok(300), |s| {
        s.parse().ok().filter(|n| (2..=MAX_VERTICES).contains(n)).ok_or_else(|| {
            format!("--vertices must be an integer of at least 2 and at most {MAX_VERTICES}, got `{s}`")
        })
    })?;
    let edges: usize = flags.get("edges").map_or(Ok(vertices * 6), |s| {
        s.parse().ok().filter(|&m| m <= MAX_EDGES).ok_or_else(|| {
            format!("--edges must be an integer of at most {MAX_EDGES}, got `{s}`")
        })
    })?;
    let g = generate::powerlaw_chung_lu(vertices, edges, 2.0, seed);
    let params = ModelParams::init(ModelConfig::custom(model, &[32, 16, 8]), seed);
    let h0 = DenseMatrix::from_fn(vertices, 32, |r, c| {
        (((r * 13 + c * 29) % 19) as f32 - 9.0) * 0.07
    });
    let pool = SimPool::new(SimThreads::from_env());
    let outcome = verify_layers(&params.layers, &g, &h0, 16, 5, &ExpMode::Exact, &pool);
    println!(
        "functional datapath vs golden {} on {} vertices / {} edges:",
        model.name(),
        g.num_vertices(),
        g.num_edges()
    );
    for (i, err) in outcome.per_layer_rel_err.iter().enumerate() {
        println!("  layer {i}: max relative error {err:.3e}");
    }
    if outcome.passed(1e-3) {
        println!("PASS (tolerance 1e-3)");
        Ok(())
    } else {
        Err(format!("verification FAILED: max error {:.3e}", outcome.max_rel_err))
    }
}

fn cmd_comm(flags: &HashMap<String, String>) -> Result<(), String> {
    use gnnie::core::cpe::CpeArray;
    use gnnie::core::noc::{
        awb_rebalance_traffic, gnnie_aggregation_traffic, lr_traffic, rer_traffic,
        AwbRebalanceParams, LinkParams,
    };
    use gnnie::core::weighting::{schedule, BlockProfile, WeightingMode};

    let dataset = parse_dataset(flags)?;
    let scale = parse_scale(flags, dataset)?;
    let seed = parse_seed(flags)?;
    let ds = GraphDataset::generate(dataset, scale, seed);
    let cfg = AcceleratorConfig::paper(dataset);
    let arr = CpeArray::new(&cfg);
    let link = LinkParams::default();
    let profile = BlockProfile::from_sparse(&ds.features, arr.rows());

    let lr_sched = schedule(&profile, &arr, WeightingMode::FmLr);
    let gnnie = lr_traffic(&lr_sched, profile.k());
    let loads = schedule(&profile, &arr, WeightingMode::Baseline).per_row_cycles(&arr);
    let (awb, _) = awb_rebalance_traffic(&loads, AwbRebalanceParams::default());
    println!("{} (scale {scale:.2}) — inter-PE communication (§VII)", dataset.name());
    println!("  rebalancing during Weighting:");
    for (name, l) in [("GNNIE FM+LR", &gnnie), ("AWB-style", &awb)] {
        println!(
            "    {:<12} {:>10} word-hops  {:>2} rounds  {:>8.2} nJ",
            name,
            l.word_hops,
            l.rounds,
            l.energy_pj(&link) / 1e3
        );
    }
    let edge_updates = 2 * ds.graph.num_edges() as u64;
    let bus = gnnie_aggregation_traffic(edge_updates, 128);
    let rer = rer_traffic(edge_updates, 128, arr.cols());
    println!("  aggregation dataflow:");
    for (name, l) in [("GNNIE bus", &bus), ("EnGN RER", &rer)] {
        println!(
            "    {:<12} {:>10} word-hops             {:>8.1} nJ",
            name,
            l.word_hops,
            l.energy_pj(&link) / 1e3
        );
    }
    Ok(())
}

fn cmd_datasets() -> Result<(), String> {
    let registry = DatasetRegistry::from_env();
    println!(
        "{:6} {:>9} {:>12} {:>6} {:>7} {:>9} {:>5}  source",
        "name", "|V|", "|E|", "feat", "labels", "sparsity", "snap"
    );
    for dataset in Dataset::ALL {
        let s = dataset.spec();
        let source = registry.source_for(dataset);
        // The layout version a snapshot's header declares (only v3
        // loads; an older file needs `gnnie ingest --force`), with a
        // trailing `*` when this platform loads it zero-copy via mmap.
        // Non-snapshot sources show `-`.
        let snap = match source.path().and_then(gnnie::ingest::peek_snapshot_info) {
            Some(info) if matches!(source, Provenance::Snapshot { .. }) => {
                let mark = if info.mmap_eligible { "*" } else { "" };
                format!("v{}{}", info.version, mark)
            }
            _ => "-".to_string(),
        };
        println!(
            "{:6} {:>9} {:>12} {:>6} {:>7} {:>8.2}% {:>5}  {}",
            dataset.abbrev(),
            s.vertices,
            s.edges,
            s.feature_len,
            s.labels,
            s.feature_sparsity * 100.0,
            snap,
            source
        );
    }
    match registry.data_dir() {
        Some(dir) => println!(
            "\nfile-backed datasets resolve from GNNIE_DATA_DIR={} for `gnnie run \
             --dataset` (probe order: .gnniecsr, .edges, .csv, .tsv); \
             snap `*` = zero-copy mmap load",
            dir.display()
        ),
        None => println!(
            "\nall synthetic (set GNNIE_DATA_DIR, or pass --graph <path> to `gnnie run`, \
             to use real graphs)"
        ),
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flags(pairs: &[(&str, &str)]) -> HashMap<String, String> {
        pairs.iter().map(|&(k, v)| (k.to_string(), v.to_string())).collect()
    }

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parse_flags_accepts_pairs_and_rejects_bare_args() {
        let run = allowed_flags("run");
        let f = parse_flags(&args(&["--model", "gat", "--seed", "7"]), run, &[]).unwrap();
        assert_eq!(f.get("model").map(String::as_str), Some("gat"));
        assert_eq!(f.get("seed").map(String::as_str), Some("7"));
        assert!(parse_flags(&args(&["oops"]), run, &[]).is_err());
        let missing = parse_flags(&args(&["--model"]), run, &[]).unwrap_err();
        assert!(missing.contains("--model"), "names the flag: {missing}");
    }

    #[test]
    fn parse_flags_names_the_offending_flag() {
        // A typo must fail loudly, naming the flag and the valid set.
        let err =
            parse_flags(&args(&["--modle", "gat"]), allowed_flags("run"), &[]).unwrap_err();
        assert!(err.contains("--modle"), "offending flag named: {err}");
        assert!(err.contains("--model"), "valid flags listed: {err}");
        // Commands without flags say so.
        let err =
            parse_flags(&args(&["--x", "1"]), allowed_flags("datasets"), &[]).unwrap_err();
        assert!(err.contains("--x") && err.contains("no flags"), "{err}");
        // Duplicates are rejected by name.
        let err =
            parse_flags(&args(&["--seed", "1", "--seed", "2"]), allowed_flags("run"), &[])
                .unwrap_err();
        assert!(err.contains("--seed") && err.contains("more than once"), "{err}");
    }

    #[test]
    fn every_command_has_a_flag_table_entry() {
        for cmd in COMMANDS {
            // The table is total over COMMANDS (help/datasets take none).
            let _ = allowed_flags(cmd);
            let _ = boolean_flags(cmd);
        }
        assert!(allowed_flags("serve").contains(&"policy"));
        assert!(allowed_flags("run").contains(&"cache-policy"));
        assert!(allowed_flags("run").contains(&"graph"));
        assert!(allowed_flags("ingest").contains(&"out"));
        assert!(allowed_flags("ingest").contains(&"chunk-mb"));
        assert!(COMMANDS.contains(&"ingest"));
    }

    #[test]
    fn boolean_flags_take_no_value() {
        let f = parse_flags(
            &args(&["--force", "--sim-threads", "4"]),
            allowed_flags("ingest"),
            boolean_flags("ingest"),
        )
        .unwrap();
        assert_eq!(f.get("force").map(String::as_str), Some("true"));
        assert_eq!(f.get("sim-threads").map(String::as_str), Some("4"));
        // Without the boolean table, --force would swallow the next flag.
        assert!(parse_flags(&args(&["--force"]), allowed_flags("ingest"), &[]).is_err());
    }

    #[test]
    fn parse_size_bytes_accepts_suffixes_and_names_garbage() {
        assert_eq!(parse_size_bytes("512"), Ok(512));
        assert_eq!(parse_size_bytes("64B"), Ok(64));
        assert_eq!(parse_size_bytes("256kb"), Ok(256 << 10));
        assert_eq!(parse_size_bytes("16MB"), Ok(16 << 20));
        assert_eq!(parse_size_bytes("4GB"), Ok(4u64 << 30));
        let err = parse_size_bytes("lots").unwrap_err();
        assert!(err.contains("lots") && err.contains("KB"), "{err}");
    }

    #[test]
    fn parse_tiers_accepts_all_three_forms() {
        use gnnie::mem::{SplitMode, TierBudgets, TierSpec};
        assert_eq!(parse_tiers(&flags(&[])), Ok(None), "unset keeps the flat engine");
        let explicit = parse_tiers(&flags(&[("tiers", "onchip:256KB,dram:16MB,ssd:4GB")]))
            .unwrap()
            .unwrap();
        assert_eq!(
            explicit,
            TierSpec::Explicit(TierBudgets {
                onchip_bytes: 256 << 10,
                dram_bytes: 16 << 20,
                ssd_bytes: Some(4 << 30),
            })
        );
        let no_ssd =
            parse_tiers(&flags(&[("tiers", "onchip:64KB,dram:1MB")])).unwrap().unwrap();
        assert_eq!(
            no_ssd,
            TierSpec::Explicit(TierBudgets {
                onchip_bytes: 64 << 10,
                dram_bytes: 1 << 20,
                ssd_bytes: None,
            })
        );
        let auto = parse_tiers(&flags(&[("tiers", "auto:2MB")])).unwrap().unwrap();
        assert_eq!(auto, TierSpec::Split { total_bytes: 2 << 20, mode: SplitMode::Workload });
        let even = parse_tiers(&flags(&[("tiers", "even:2MB")])).unwrap().unwrap();
        assert_eq!(even, TierSpec::Split { total_bytes: 2 << 20, mode: SplitMode::Even });
    }

    #[test]
    fn parse_tiers_rejects_malformed_specs_by_name() {
        for (spec, needle) in [
            ("onchip:64KB", "dram"),    // missing required tier
            ("l2:64KB,dram:1MB", "l2"), // unknown tier name
            ("onchip:64KB,onchip:1MB,dram:1MB", "more than once"),
            ("auto:0", "positive"),           // empty split budget
            ("auto:64KB,dram:1MB", "auto"),   // split mixed with explicit
            ("onchip", "name:SIZE"),          // no colon
            ("onchip:fast,dram:1MB", "fast"), // garbage size
        ] {
            let err = parse_tiers(&flags(&[("tiers", spec)])).unwrap_err();
            assert!(err.contains(needle), "`{spec}` error must name `{needle}`: {err}");
        }
    }

    #[test]
    fn run_rejects_graph_conflicts_and_missing_files() {
        let err = resolve_run_dataset(
            &flags(&[("graph", "/nope"), ("scale", "0.5")]),
            &SimPool::serial(),
        )
        .unwrap_err();
        assert!(err.contains("--scale"), "{err}");
        // A missing file surfaces the ingest error, not a panic.
        let err = resolve_run_dataset(
            &flags(&[("graph", "/definitely/missing")]),
            &SimPool::serial(),
        )
        .unwrap_err();
        assert!(err.contains("missing"), "{err}");
        // --dataset alongside --graph is the fallback-profile selector and
        // must still validate its token.
        let err = resolve_run_dataset(
            &flags(&[("graph", "/nope"), ("dataset", "imdb")]),
            &SimPool::serial(),
        )
        .unwrap_err();
        assert!(err.contains("imdb"), "{err}");
    }

    #[test]
    fn parse_list_splits_and_validates() {
        let f = flags(&[("models", "gcn, gat,sage")]);
        let models = parse_list(&f, "models", GnnModel::Gcn, model_token).unwrap();
        assert_eq!(models, vec![GnnModel::Gcn, GnnModel::Gat, GnnModel::GraphSage]);
        let def = parse_list(&flags(&[]), "models", GnnModel::Gat, model_token).unwrap();
        assert_eq!(def, vec![GnnModel::Gat]);
        assert!(parse_list(
            &flags(&[("models", "gcn,bert")]),
            "models",
            GnnModel::Gcn,
            model_token
        )
        .is_err());
        assert!(parse_list(&flags(&[("models", ",")]), "models", GnnModel::Gcn, model_token)
            .is_err());
    }

    #[test]
    fn parse_model_covers_aliases() {
        assert_eq!(parse_model(&flags(&[("model", "sage")])).unwrap(), GnnModel::GraphSage);
        assert_eq!(parse_model(&flags(&[("model", "ginconv")])).unwrap(), GnnModel::GinConv);
        assert!(parse_model(&flags(&[("model", "bert")])).is_err());
        assert!(parse_model(&flags(&[])).is_err());
    }

    #[test]
    fn parse_dataset_covers_abbrevs_case_insensitively() {
        assert_eq!(parse_dataset(&flags(&[("dataset", "CR")])).unwrap(), Dataset::Cora);
        assert_eq!(parse_dataset(&flags(&[("dataset", "reddit")])).unwrap(), Dataset::Reddit);
        assert!(parse_dataset(&flags(&[("dataset", "imdb")])).is_err());
    }

    #[test]
    fn parse_scale_validates_range_and_defaults_per_dataset() {
        assert_eq!(parse_scale(&flags(&[("scale", "0.5")]), Dataset::Cora).unwrap(), 0.5);
        assert!(parse_scale(&flags(&[("scale", "1.5")]), Dataset::Cora).is_err());
        assert!(parse_scale(&flags(&[("scale", "0")]), Dataset::Cora).is_err());
        assert_eq!(parse_scale(&flags(&[]), Dataset::Cora).unwrap(), 1.0);
        assert_eq!(parse_scale(&flags(&[]), Dataset::Reddit).unwrap(), 0.02);
    }

    #[test]
    fn parse_design_maps_letters() {
        assert_eq!(parse_design(&flags(&[("design", "E")])).unwrap(), Some(Design::E));
        assert_eq!(parse_design(&flags(&[])).unwrap(), None);
        assert!(parse_design(&flags(&[("design", "f")])).is_err());
    }

    #[test]
    fn parse_cache_policy_maps_tokens_and_defaults_to_none() {
        assert_eq!(parse_cache_policy(&flags(&[])).unwrap(), None);
        assert_eq!(
            parse_cache_policy(&flags(&[("cache-policy", "belady")])).unwrap(),
            Some(CachePolicyKind::Belady)
        );
        assert_eq!(
            parse_cache_policy(&flags(&[("cache-policy", "LRU")])).unwrap(),
            Some(CachePolicyKind::Lru)
        );
        assert!(parse_cache_policy(&flags(&[("cache-policy", "arc")])).is_err());
    }

    #[test]
    fn parse_sim_threads_accepts_auto_and_positive_rejects_zero() {
        assert_eq!(parse_sim_threads(&flags(&[])).unwrap(), None);
        assert_eq!(
            parse_sim_threads(&flags(&[("sim-threads", "auto")])).unwrap(),
            Some(SimThreads::Auto)
        );
        assert_eq!(
            parse_sim_threads(&flags(&[("sim-threads", "4")])).unwrap(),
            Some(SimThreads::Fixed(4))
        );
        let err = parse_sim_threads(&flags(&[("sim-threads", "0")])).unwrap_err();
        assert!(err.contains("sim-threads") && err.contains("at least 1"), "{err}");
        assert!(parse_sim_threads(&flags(&[("sim-threads", "lots")])).is_err());
        assert!(allowed_flags("run").contains(&"sim-threads"));
        assert!(allowed_flags("serve").contains(&"sim-threads"));
        assert!(allowed_flags("ingest").contains(&"sim-threads"));
    }

    #[test]
    fn parse_chips_defaults_to_one_and_rejects_zero_by_name() {
        assert_eq!(parse_chips(&flags(&[])).unwrap(), 1);
        assert_eq!(parse_chips(&flags(&[("chips", "4")])).unwrap(), 4);
        let err = parse_chips(&flags(&[("chips", "0")])).unwrap_err();
        assert!(err.contains("--chips") && err.contains("positive"), "{err}");
        let err = parse_chips(&flags(&[("chips", "many")])).unwrap_err();
        assert!(err.contains("--chips") && err.contains("many"), "{err}");
        assert!(allowed_flags("run").contains(&"chips"));
    }

    #[test]
    fn parse_partitioner_maps_tokens_and_names_typos() {
        assert_eq!(parse_partitioner(&flags(&[])).unwrap(), None);
        assert_eq!(
            parse_partitioner(&flags(&[("partitioner", "range")])).unwrap(),
            Some(PartitionerKind::Range)
        );
        assert_eq!(
            parse_partitioner(&flags(&[("partitioner", "EdgeCut")])).unwrap(),
            Some(PartitionerKind::EdgeCut)
        );
        let err = parse_partitioner(&flags(&[("partitioner", "metis")])).unwrap_err();
        assert!(err.contains("--partitioner"), "flag named: {err}");
        assert!(err.contains("metis") && err.contains("range|edgecut"), "{err}");
        assert!(allowed_flags("run").contains(&"partitioner"));
    }

    #[test]
    fn obs_flags_default_off_and_map_the_three_knobs() {
        let off = ObsFlags::from_flags(&flags(&[]));
        let obs = off.build();
        assert!(
            !obs.trace.enabled() && !obs.metrics.enabled(),
            "flagless runs observe nothing"
        );

        let on = ObsFlags::from_flags(&flags(&[
            ("trace", "/tmp/out.json"),
            ("trace-summary", "true"),
            ("metrics", "true"),
        ]));
        assert_eq!(on.trace_path.as_deref(), Some(Path::new("/tmp/out.json")));
        let obs = on.build();
        assert!(obs.trace.enabled() && obs.metrics.enabled());
        // --trace-summary alone records a trace but no metrics.
        let summary_only = ObsFlags::from_flags(&flags(&[("trace-summary", "true")])).build();
        assert!(summary_only.trace.enabled() && !summary_only.metrics.enabled());
        // The flag tables know all three (and serve's two are boolean-correct).
        assert!(allowed_flags("run").contains(&"trace"));
        assert!(allowed_flags("run").contains(&"trace-summary"));
        assert!(allowed_flags("run").contains(&"metrics"));
        assert!(allowed_flags("serve").contains(&"trace"));
        assert!(allowed_flags("serve").contains(&"metrics"));
        assert!(boolean_flags("run").contains(&"metrics"));
        assert!(boolean_flags("serve").contains(&"metrics"));
        assert!(!boolean_flags("run").contains(&"trace"), "--trace takes a path");
    }

    #[test]
    fn obs_emit_surfaces_bad_trace_paths_by_name() {
        let obs_flags = ObsFlags {
            trace_path: Some(PathBuf::from("/no/such/dir/out.json")),
            trace_summary: false,
            metrics: false,
        };
        let err = obs_flags.emit(&obs_flags.build()).unwrap_err();
        assert!(err.contains("--trace") && err.contains("/no/such/dir/out.json"), "{err}");
    }

    #[test]
    fn parse_seed_defaults_and_validates() {
        assert_eq!(parse_seed(&flags(&[])).unwrap(), 42);
        assert_eq!(parse_seed(&flags(&[("seed", "9")])).unwrap(), 9);
        assert!(parse_seed(&flags(&[("seed", "x")])).is_err());
    }
}
