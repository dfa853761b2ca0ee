//! The three workloads. Each builds its inputs from the run seed alone,
//! drives the public API of the layers it exercises, and wraps every
//! call into a layer in a host span.
//!
//! Every inference starts with empty simulated caches (a cold start):
//! the engine builds fresh cache state per Aggregation phase and the
//! benchmark never reuses a session.

use std::collections::{BTreeMap, HashMap};
use std::path::PathBuf;

use gnnie_core::engine::{Engine, RunOptions};
use gnnie_core::{AcceleratorConfig, InferenceReport, SimThreads};
use gnnie_gnn::{GnnModel, ModelConfig};
use gnnie_graph::{Dataset, GraphDataset};
use gnnie_ingest::{
    export_edge_list, DataSource, DatasetRegistry, EdgeListFormat, RecordedSpec,
};
use gnnie_serve::{report_profile, Daemon, DaemonConfig, InferenceRequest, RequestCost};

use crate::host::Host;
use crate::serving::{self, ServeOutcome};

/// Input sizes. `full` is what the benchmark measures; `tiny` exists for
/// the smoke test.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// `synth-reddit` synthesis scale.
    pub reddit_scale: f64,
    /// `ppi-file-zoo` synthesis scale.
    pub ppi_scale: f64,
    /// `serve-mixed` Cora/Citeseer/Pubmed scale.
    pub citation_scale: f64,
    /// Distinct (model, dataset, seed) keys in the `serve-mixed` trace.
    pub serve_keys: usize,
    /// Requests in every replayed serving trace (replays are cheap; the
    /// simulation cost is in the distinct keys). Long enough that the
    /// whole trace cannot drain within a latency limit, even at tiny
    /// sizes.
    pub requests: usize,
}

impl Sizes {
    /// The measured sizes.
    pub const FULL: Sizes = Sizes {
        reddit_scale: 0.01,
        ppi_scale: 1.0,
        citation_scale: 1.0,
        serve_keys: 192,
        requests: 16384,
    };
    /// Smoke-test sizes. Reddit's mean degree (~980) needs about 0.5% of
    /// its vertices before the synthesizer can place every edge.
    pub const TINY: Sizes = Sizes {
        reddit_scale: 0.005,
        ppi_scale: 0.02,
        citation_scale: 0.05,
        serve_keys: 12,
        requests: 4096,
    };
}

/// What a workload needs from the driver.
pub struct Ctx<'a> {
    /// The span recorder.
    pub host: &'a Host,
    /// The run seed; every input derives from it.
    pub seed: u64,
    /// Input sizes.
    pub sizes: Sizes,
    /// Host threads (`available_parallelism`).
    pub threads: usize,
    /// Scratch directory for files the workload writes.
    pub work_dir: PathBuf,
}

/// Correctness bookkeeping: operations attempted, failed, and why.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations attempted (inferences, loads, served requests, checks).
    pub attempted: u64,
    /// Operations that failed, were refused, or did not reproduce.
    pub failed: u64,
    /// One line per failure, naming the workload part that failed.
    pub problems: Vec<String>,
}

impl Tally {
    /// Counts one operation that succeeded when `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.problems.push(what());
        }
    }
}

/// What the untimed check pass hands back for the metrics.
pub struct Summary {
    /// The inference reports the simulated totals are summed over.
    pub reports: Vec<InferenceReport>,
    /// Graph edges aggregated per timed iteration (|E| × Aggregation
    /// phases, over every session the iteration ran).
    pub edges_per_iteration: u64,
    /// The serving study.
    pub serve: ServeOutcome,
    /// Distinct cost profiles the serving trace needed.
    pub distinct_profiles: usize,
    /// Share of profile lookups the daemon's cache answered (0 without a
    /// daemon).
    pub profile_hit_ratio: f64,
    /// Digest lines of the check pass.
    pub digest: Vec<String>,
}

/// One workload: repeated set-up, timed iterations, one check pass.
pub trait Workload {
    /// Builds the inputs (run several times; the last one is used).
    fn setup(&mut self, cx: &Ctx) -> Result<(), String>;
    /// One timed iteration; returns its digest lines.
    fn iterate(&mut self, cx: &Ctx, tally: &mut Tally) -> Result<Vec<String>, String>;
    /// The untimed pass after the timed loop.
    fn check(&mut self, cx: &Ctx, tally: &mut Tally) -> Result<Summary, String>;
}

/// The workload names, as `BENCHMARK.json` lists them.
pub const NAMES: [&str; 3] = ["synth-reddit", "ppi-file-zoo", "serve-mixed"];

/// The workload called `name`.
pub fn by_name(name: &str) -> Option<Box<dyn Workload>> {
    match name {
        "synth-reddit" => Some(Box::new(SynthReddit::default())),
        "ppi-file-zoo" => Some(Box::new(PpiFileZoo::default())),
        "serve-mixed" => Some(Box::new(ServeMixed::default())),
        _ => None,
    }
}

/// One cold inference through the phased session API, each call in its
/// own span.
fn run_session(
    host: &Host,
    engine: &Engine,
    model: &ModelConfig,
    ds: &GraphDataset,
    threads: SimThreads,
) -> InferenceReport {
    let opts = RunOptions { sim_threads: Some(threads), ..RunOptions::default() };
    let mut session = host.span("core", "begin", || engine.begin_with(model, ds, opts));
    if model.model == GnnModel::DiffPool {
        host.span("core", "diffpool", || session.run_diffpool());
    } else {
        while !session.is_complete() {
            host.span("core", "weighting", || session.run_weighting());
            host.span("core", "aggregation", || session.run_aggregation());
        }
    }
    host.span("core", "finish", || session.finish())
}

/// Graph edges the report's Aggregation phases walked (|E| per phase).
pub fn edges_aggregated(r: &InferenceReport) -> u64 {
    r.edges * r.layers.iter().filter(|l| l.aggregation.edge_updates > 0).count() as u64
}

/// The per-inference digest: totals, energy and DRAM traffic.
pub fn report_digest(r: &InferenceReport) -> String {
    let seq = r.dram.seq_read_bytes + r.dram.seq_write_bytes;
    format!(
        "{} {} v={} e={} cycles={} energy_pj={:.9e} dram_seq={} dram_rand={}",
        r.model,
        r.dataset.abbrev(),
        r.vertices,
        r.edges,
        r.total_cycles,
        r.energy.total_pj(),
        seq,
        r.dram.random_bytes()
    )
}

/// splitmix64: the benchmark's own input generator.
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` and `stream`.
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    /// The next 64 random bits.
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A uniform index below `n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// A serving queue of `n` requests over `keys` (model, dataset, payload
/// seed) in seeded random order. Every key appears equally often (±1),
/// so the seed changes the order and the graphs but not the mix.
fn queue_over(
    keys: &[(GnnModel, Dataset, u64)],
    scale: f64,
    n: usize,
    rng: &mut Rng,
) -> Vec<InferenceRequest> {
    let mut picks: Vec<usize> = (0..n).map(|i| i % keys.len()).collect();
    for i in (1..picks.len()).rev() {
        picks.swap(i, rng.below(i + 1));
    }
    picks
        .iter()
        .enumerate()
        .map(|(id, &k)| {
            let (model, dataset, seed) = keys[k];
            InferenceRequest::new(id as u64, model, dataset, scale, seed)
        })
        .collect()
}

/// Serving study over the workload's own cold reports: with no resident
/// sessions simulated, every request is charged its cold profile.
fn study_reports(
    cx: &Ctx,
    reports: &[InferenceReport],
) -> Result<(ServeOutcome, usize), String> {
    let keys: Vec<(GnnModel, Dataset, u64)> =
        reports.iter().map(|r| (r.model, r.dataset, cx.seed)).collect();
    let mut rng = Rng::new(cx.seed, 3);
    let scale = reports[0].scale;
    let queue = queue_over(&keys, scale, cx.sizes.requests, &mut rng);
    let by_model: HashMap<GnnModel, RequestCost> = reports
        .iter()
        .map(|r| (r.model, RequestCost::new(report_profile(r), report_profile(r))))
        .collect();
    let costs = queue.iter().map(|q| (q.id, by_model[&q.model].clone())).collect();
    let outcome =
        cx.host.span("serve", "schedule", || serving::study(&queue, &costs, cx.seed))?;
    Ok((outcome, keys.len()))
}

/// Counts a nominal-rate replay: every offered request is attempted and
/// every refusal fails.
fn tally_serving(tally: &mut Tally, workload: &str, s: &ServeOutcome) {
    let offered = (s.nominal.outcomes.len() + s.nominal.rejected.len()) as u64;
    tally.attempted += offered;
    if !s.nominal.rejected.is_empty() {
        tally.failed += s.nominal.rejected.len() as u64;
        tally.problems.push(format!(
            "{workload}: {} of {offered} requests refused at the nominal rate",
            s.nominal.rejected.len()
        ));
    }
}

// ---------------------------------------------------------------- W1 --

/// `synth-reddit`: synthesize Reddit, run GCN. Synthesis dominates.
#[derive(Default)]
pub struct SynthReddit {
    registry: DatasetRegistry,
    last: Option<InferenceReport>,
}

impl SynthReddit {
    fn inference(
        &self,
        cx: &Ctx,
        dataset: Dataset,
        scale: f64,
    ) -> Result<InferenceReport, String> {
        let source = DataSource::synth(dataset, scale, cx.seed);
        // `DataSource::Synth` resolves straight to `GraphDataset::generate`,
        // so the call's host time is the synthesizer's.
        let resolved = cx
            .host
            .span("graph", "generate", || source.resolve(&self.registry))
            .map_err(|e| format!("resolve {}: {e}", dataset.abbrev()))?;
        let ds = resolved.dataset();
        let engine = Engine::new(AcceleratorConfig::paper(dataset));
        let model = ModelConfig::paper(GnnModel::Gcn, &ds.spec);
        Ok(run_session(cx.host, &engine, &model, ds, SimThreads::Fixed(cx.threads)))
    }
}

impl Workload for SynthReddit {
    fn setup(&mut self, cx: &Ctx) -> Result<(), String> {
        // Warm-up: fault in code and allocator pages on full-scale Pubmed.
        self.registry = DatasetRegistry::new(None);
        self.inference(cx, Dataset::Pubmed, 1.0).map(|_| ())
    }

    fn iterate(&mut self, cx: &Ctx, tally: &mut Tally) -> Result<Vec<String>, String> {
        let report = self.inference(cx, Dataset::Reddit, cx.sizes.reddit_scale);
        tally.check(report.is_ok(), || "synth-reddit gcn: resolve failed".into());
        let report = report?;
        tally.attempted += 1;
        let digest = vec![report_digest(&report)];
        self.last = Some(report);
        Ok(digest)
    }

    fn check(&mut self, cx: &Ctx, tally: &mut Tally) -> Result<Summary, String> {
        let report = self.last.take().ok_or("no iteration ran")?;
        let (serve, distinct) = study_reports(cx, std::slice::from_ref(&report))?;
        tally_serving(tally, "synth-reddit", &serve);
        Ok(Summary {
            edges_per_iteration: edges_aggregated(&report),
            digest: vec![serving::digest_line(&serve)],
            reports: vec![report],
            serve,
            distinct_profiles: distinct,
            profile_hit_ratio: 0.0,
        })
    }
}

// ---------------------------------------------------------------- W2 --

/// `ppi-file-zoo`: load a self-describing PPI edge list, run all five
/// models. The Aggregation cache walk dominates; synthesis is set-up.
#[derive(Default)]
pub struct PpiFileZoo {
    registry: DatasetRegistry,
    path: PathBuf,
    source: Option<GraphDataset>,
    last: Vec<InferenceReport>,
}

impl PpiFileZoo {
    fn zoo(&self, cx: &Ctx, ds: &GraphDataset, threads: SimThreads) -> Vec<InferenceReport> {
        let engine = Engine::new(AcceleratorConfig::paper(Dataset::Ppi));
        GnnModel::ALL
            .iter()
            .map(|&m| {
                run_session(cx.host, &engine, &ModelConfig::paper(m, &ds.spec), ds, threads)
            })
            .collect()
    }
}

impl Workload for PpiFileZoo {
    fn setup(&mut self, cx: &Ctx) -> Result<(), String> {
        self.registry = DatasetRegistry::new(None);
        let ds = cx.host.span("graph", "generate", || {
            GraphDataset::generate(Dataset::Ppi, cx.sizes.ppi_scale, cx.seed)
        });
        self.path = cx.work_dir.join(format!("ppi-{}.edges", cx.seed));
        // Unlinking the previous repetition's file drops its dirty pages
        // instead of waiting for them to be written back.
        std::fs::remove_file(&self.path).ok();
        let recorded = RecordedSpec { spec: ds.spec, seed: cx.seed };
        cx.host
            .span("ingest", "export", || {
                export_edge_list(
                    &self.path,
                    &ds.graph,
                    EdgeListFormat::Whitespace,
                    Some(&recorded),
                )
            })
            .map_err(|e| format!("export {}: {e}", self.path.display()))?;
        self.source = Some(ds);
        Ok(())
    }

    fn iterate(&mut self, cx: &Ctx, tally: &mut Tally) -> Result<Vec<String>, String> {
        let source = DataSource::file(&self.path, Dataset::Ppi, cx.seed);
        let resolved = cx.host.span("ingest", "resolve", || source.resolve(&self.registry));
        tally.check(resolved.is_ok(), || "ppi-file-zoo: resolve failed".into());
        let ds = resolved
            .map_err(|e| format!("resolve {}: {e}", self.path.display()))?
            .into_dataset();
        self.last = self.zoo(cx, &ds, SimThreads::Fixed(cx.threads));
        tally.attempted += self.last.len() as u64;
        Ok(self.last.iter().map(report_digest).collect())
    }

    fn check(&mut self, cx: &Ctx, tally: &mut Tally) -> Result<Summary, String> {
        let reports = std::mem::take(&mut self.last);
        let source = self.source.take().ok_or("set-up did not run")?;
        // The file round trip must reproduce the synthesized dataset.
        let loaded = DataSource::file(&self.path, Dataset::Ppi, cx.seed)
            .resolve(&self.registry)
            .map_err(|e| format!("resolve {}: {e}", self.path.display()))?
            .into_dataset();
        tally.check(loaded.graph == source.graph && loaded.features == source.features, || {
            "ppi-file-zoo: edge-list round trip changed the dataset".into()
        });
        // Reports must not depend on the host thread count.
        let engine = Engine::new(AcceleratorConfig::paper(Dataset::Ppi));
        let gcn = ModelConfig::paper(GnnModel::Gcn, &loaded.spec);
        let serial = run_session(cx.host, &engine, &gcn, &loaded, SimThreads::Fixed(1));
        tally.check(format!("{serial:?}") == format!("{:?}", reports[0]), || {
            format!("ppi-file-zoo gcn: report at sim width 1 differs from width {}", cx.threads)
        });
        std::fs::remove_file(&self.path).ok();
        let (serve, distinct) = study_reports(cx, &reports)?;
        tally_serving(tally, "ppi-file-zoo", &serve);
        Ok(Summary {
            edges_per_iteration: reports.iter().map(edges_aggregated).sum(),
            digest: vec![serving::digest_line(&serve)],
            reports,
            serve,
            distinct_profiles: distinct,
            profile_hit_ratio: 0.0,
        })
    }
}

// ---------------------------------------------------------------- W3 --

/// `serve-mixed`: a daemon profiles and serves a mixed open-loop trace
/// over many small cold sessions.
#[derive(Default)]
pub struct ServeMixed {
    queue: Vec<InferenceRequest>,
    costs: HashMap<u64, RequestCost>,
    serve: Option<ServeOutcome>,
    hit_ratio: f64,
}

impl ServeMixed {
    fn daemon_config(cx: &Ctx) -> DaemonConfig {
        // Workers × pool width = the host's threads.
        DaemonConfig { workers: cx.threads, sim_threads: SimThreads::Fixed(1), chips: 1 }
    }
}

impl Workload for ServeMixed {
    fn setup(&mut self, cx: &Ctx) -> Result<(), String> {
        let combos: Vec<(GnnModel, Dataset)> = GnnModel::ALL
            .iter()
            .flat_map(|&m| [Dataset::Cora, Dataset::Citeseer, Dataset::Pubmed].map(|d| (m, d)))
            .collect();
        let mut rng = Rng::new(cx.seed, 1);
        let mut keys: Vec<(GnnModel, Dataset, u64)> = Vec::new();
        while keys.len() < cx.sizes.serve_keys {
            let (m, d) = combos[keys.len() % combos.len()];
            let key = (m, d, rng.next() >> 16);
            if !keys.contains(&key) {
                keys.push(key);
            }
        }
        self.queue = queue_over(&keys, cx.sizes.citation_scale, cx.sizes.requests, &mut rng);
        // Warm-up: one daemon life on a small request.
        let daemon = cx.host.span("serve", "spawn", || Daemon::new(Self::daemon_config(cx)));
        let warm = InferenceRequest::new(0, GnnModel::Gcn, Dataset::Pubmed, 1.0, cx.seed);
        cx.host.span("serve", "profile", || daemon.profile_costs(&[warm]));
        cx.host.span("serve", "shutdown", || daemon.shutdown());
        Ok(())
    }

    fn iterate(&mut self, cx: &Ctx, tally: &mut Tally) -> Result<Vec<String>, String> {
        let daemon = cx.host.span("serve", "spawn", || Daemon::new(Self::daemon_config(cx)));
        let costs = cx.host.span("serve", "profile", || daemon.profile_costs(&self.queue));
        let serve = cx
            .host
            .span("serve", "schedule", || serving::study(&self.queue, &costs, cx.seed))?;
        let stats = daemon.profile_cache_stats();
        cx.host.span("serve", "shutdown", || daemon.shutdown());
        tally_serving(tally, "serve-mixed", &serve);
        self.hit_ratio = stats.hits as f64 / (stats.hits + stats.misses).max(1) as f64;
        let mut ids: Vec<&u64> = costs.keys().collect();
        ids.sort();
        let lines: String = ids
            .iter()
            .map(|id| {
                let c = &costs[id];
                format!("{id}:{}:{};", c.cold_cycles(), c.resident_cycles())
            })
            .collect();
        let digest = vec![
            format!("costs fnv={:016x}", fnv64(lines.as_bytes())),
            serving::digest_line(&serve),
        ];
        self.costs = costs;
        self.serve = Some(serve);
        Ok(digest)
    }

    fn check(&mut self, cx: &Ctx, tally: &mut Tally) -> Result<Summary, String> {
        let serve = self.serve.take().ok_or("no iteration ran")?;
        // Re-simulate every distinct key directly; the daemon's cold
        // profile must match the engine's report exactly.
        let mut first_of: BTreeMap<(&str, &str, u64), &InferenceRequest> = BTreeMap::new();
        for q in &self.queue {
            first_of.entry((q.model.name(), q.dataset.abbrev(), q.seed)).or_insert(q);
        }
        let mut reports = Vec::with_capacity(first_of.len());
        let mut lines = String::new();
        for q in first_of.values() {
            let ds = cx.host.span("graph", "generate", || q.synthesize());
            let engine = Engine::new(AcceleratorConfig::paper(q.dataset));
            let report = run_session(
                cx.host,
                &engine,
                &q.model_config(),
                &ds,
                SimThreads::Fixed(cx.threads),
            );
            tally.check(report_profile(&report) == self.costs[&q.id].cold, || {
                format!(
                    "serve-mixed {} {} seed {}: daemon cost differs from the engine",
                    q.model,
                    q.dataset.abbrev(),
                    q.seed
                )
            });
            lines.push_str(&report_digest(&report));
            lines.push('\n');
            reports.push(report);
        }
        // The daemon ran every distinct key cold and resident.
        let edges = 2 * reports.iter().map(edges_aggregated).sum::<u64>();
        Ok(Summary {
            digest: vec![format!(
                "direct keys={} fnv={:016x}",
                reports.len(),
                fnv64(lines.as_bytes())
            )],
            distinct_profiles: reports.len(),
            reports,
            edges_per_iteration: edges,
            serve,
            profile_hit_ratio: self.hit_ratio,
        })
    }
}

/// FNV-1a, 64-bit.
pub fn fnv64(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ b as u64).wrapping_mul(0x0100_0000_01b3))
}
