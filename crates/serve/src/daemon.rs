//! The serving daemon: the one place in this crate that runs the engine.
//!
//! A [`Daemon`] owns two channel-fed [`WorkerSet`]s, both started once:
//! `workers` request threads, and the shard threads of one shared
//! [`SimPool`]. Each request job drives its session through
//! [`Engine::begin_pooled`](gnnie_core::engine::Engine::begin_pooled)
//! on that pool, so the shard threads of every phase — the Weighting
//! scans and the Aggregation cache walk — start once per daemon, not once
//! per request. Request jobs never run on the pool's own workers: a job
//! waiting on its shards would then hold the very thread they need.
//!
//! The daemon answers one question, [`Daemon::profile_costs`]: each
//! request's cold and resident cost, memoized. One job per distinct key
//! answers both: it synthesizes the dataset once, runs its session cold,
//! rewinds it with resident weights and runs it again, so the graph, the
//! preprocessing and every Aggregation walk are paid once per key. Both
//! schedulers are pure functions over that oracle:
//! [`schedule_batched`](crate::schedule_batched) for a queue known at
//! t = 0, and [`schedule_online`] for an arrival trace
//! ([`Daemon::serve_online`] wraps the latter). Simulated cycle counts
//! are unaffected by the worker count or the pool width (host-side
//! parallelism only), which the serving test suites assert.
//!
//! Shutdown is a graceful drain: dropping the daemon (or calling
//! [`Daemon::shutdown`]) closes both queues, lets every queued job
//! finish, and joins the workers. A job that panics is dropped by its
//! worker, and the [`Daemon::profile_costs`] call waiting on it panics
//! instead of hanging.

use std::collections::HashMap;
use std::sync::{mpsc, Mutex};

use gnnie_core::config::AcceleratorConfig;
use gnnie_core::engine::{Engine, RunOptions};
use gnnie_core::{SimPool, SimThreads, WorkerSet};

use crate::clock::SimClock;
use crate::online::{schedule_online, OnlineConfig, OnlineReport, RequestCost};
use crate::request::{InferenceRequest, ModelKey, OnlineRequest};
use crate::server::report_profile;

/// Daemon parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DaemonConfig {
    /// Long-lived request workers (≥ 1). Host-side parallelism only.
    pub workers: usize,
    /// Width of the shared simulation pool, resolved once when the
    /// daemon starts. Defaults from `GNNIE_SIM_THREADS`.
    pub sim_threads: SimThreads,
    /// Simulated accelerator count each request runs on (1 = the
    /// single-chip engine). Participates in the profile-cache key.
    pub chips: usize,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        let workers = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1).min(8);
        DaemonConfig { workers, sim_threads: SimThreads::from_env(), chips: 1 }
    }
}

/// What a [`RequestCost`] depends on: the model/dataset/scale key, the
/// synthesis seed (requests of one trace usually differ only here — the
/// seed changes the graph, hence the cost), and the chip count. Two
/// requests agreeing on all three are guaranteed the same simulated
/// costs, so the daemon memoizes on this.
type ProfileKey = (ModelKey, u64, usize);

/// Cost-oracle cache statistics (reported in daemon stats).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProfileCacheStats {
    /// Requests answered from the memoized oracle.
    pub hits: u64,
    /// Requests that had to be simulated.
    pub misses: u64,
    /// Distinct profiles currently memoized.
    pub entries: usize,
}

/// The memoized cost oracle plus its hit/miss counters (one mutex so the
/// counters can never drift from the map they describe).
#[derive(Debug, Default)]
struct ProfileCache {
    map: HashMap<ProfileKey, RequestCost>,
    hits: u64,
    misses: u64,
}

/// The persistent serving daemon. See the module docs.
#[derive(Debug)]
pub struct Daemon {
    config: DaemonConfig,
    // Field order is drop order: the request workers drain and join
    // (dropping their pool clones) before the pool itself goes.
    jobs: WorkerSet,
    pool: SimPool,
    cache: Mutex<ProfileCache>,
}

impl Daemon {
    /// Starts the request workers and the shared simulation pool.
    ///
    /// # Panics
    ///
    /// Panics if `config.workers` or `config.chips` is 0.
    pub fn new(config: DaemonConfig) -> Self {
        assert!(config.workers >= 1, "the daemon needs at least one request worker");
        assert!(config.chips >= 1, "the daemon needs at least one simulated chip");
        Daemon {
            config,
            jobs: WorkerSet::new(config.workers),
            pool: SimPool::new(config.sim_threads),
            cache: Mutex::new(ProfileCache::default()),
        }
    }

    /// Queues one simulation job: `request`'s cold and resident costs on
    /// the shared pool. The job synthesizes the dataset on that pool too,
    /// so no job starts threads of its own. It then begins one session,
    /// runs it cold, rewinds it with resident weights
    /// ([`RunSession::finish_and_rewind`](gnnie_core::engine::RunSession::finish_and_rewind))
    /// and runs it again. Residency changes only the Weighting phases'
    /// weight loads, so the second run reuses the first run's graph,
    /// preprocessing and every Aggregation walk. The worker replies with
    /// the cycle profiles only: the full reports (per-iteration walk
    /// stats, α histograms) are dropped there instead of piling up until
    /// the batch completes. The reply carries `key`, the request's cache
    /// key. A panicking job drops `reply` unsent.
    fn submit(
        &self,
        key: ProfileKey,
        request: InferenceRequest,
        reply: mpsc::Sender<(ProfileKey, RequestCost)>,
    ) {
        let pool = self.pool.clone();
        let chips = self.config.chips;
        self.jobs.submit(Box::new(move || {
            let ds = request.synthesize_on(&pool);
            let model = request.model_config();
            let mut accel = AcceleratorConfig::paper(request.dataset);
            accel.chips = chips;
            let engine = Engine::new(accel);
            let mut session = engine.begin_pooled(&model, &ds, RunOptions::default(), &pool);
            session.run_to_completion();
            let resident = RunOptions { weights_resident: true, ..RunOptions::default() };
            let cold = report_profile(&session.finish_and_rewind(resident));
            session.run_to_completion();
            let resident = report_profile(&session.finish());
            // A dropped collector just means the caller gave up on this
            // batch of jobs; keep draining.
            let _ = reply.send((key, RequestCost::new(cold, resident)));
        }));
    }

    /// The daemon's parameters.
    pub fn config(&self) -> &DaemonConfig {
        &self.config
    }

    /// Pre-simulates every request cold and resident on the request
    /// workers, one job per distinct (model key, seed, chips) triple;
    /// returns the cost oracle keyed by request id.
    ///
    /// Profiles are **memoized** across calls: a request whose
    /// (model key, seed, chips) triple was simulated before is answered
    /// from the cache without touching the workers (see
    /// [`profile_cache_stats`](Self::profile_cache_stats)).
    ///
    /// # Panics
    ///
    /// Panics on duplicate request ids, or if a job panicked mid-batch.
    pub fn profile_costs(&self, requests: &[InferenceRequest]) -> HashMap<u64, RequestCost> {
        let key =
            |r: &InferenceRequest| -> ProfileKey { (r.model_key(), r.seed, self.config.chips) };
        // Decide hits/misses under the lock, then simulate the distinct
        // missing profiles without holding it.
        let to_profile: Vec<InferenceRequest> = {
            let mut cache = self.cache.lock().expect("profile cache poisoned");
            let mut missing: Vec<InferenceRequest> = Vec::new();
            for r in requests {
                if cache.map.contains_key(&key(r)) {
                    cache.hits += 1;
                } else {
                    cache.misses += 1;
                    if !missing.iter().any(|q| key(q) == key(r)) {
                        missing.push(*r);
                    }
                }
            }
            missing
        };
        if !to_profile.is_empty() {
            let (reply, collect) = mpsc::channel();
            for &request in &to_profile {
                self.submit(key(&request), request, reply.clone());
            }
            drop(reply);
            let costs: Vec<(ProfileKey, RequestCost)> = (0..to_profile.len())
                .map(|_| collect.recv().expect("a daemon job panicked mid-batch"))
                .collect();
            self.cache.lock().expect("profile cache poisoned").map.extend(costs);
        }
        let cache = self.cache.lock().expect("profile cache poisoned");
        let mut map = HashMap::new();
        for request in requests {
            let cost = cache.map.get(&key(request)).expect("profiled above").clone();
            let prior = map.insert(request.id, cost);
            assert!(prior.is_none(), "duplicate request id {} in the trace", request.id);
        }
        map
    }

    /// Hit/miss/entry counters of the memoized cost oracle.
    pub fn profile_cache_stats(&self) -> ProfileCacheStats {
        let cache = self.cache.lock().expect("profile cache poisoned");
        ProfileCacheStats { hits: cache.hits, misses: cache.misses, entries: cache.map.len() }
    }

    /// Replays an online arrival trace on the request workers: profiles
    /// every request's costs, then runs the continuous-batching
    /// scheduler on the clock of the trace's first dataset.
    pub fn serve_online(&self, trace: &[OnlineRequest], cfg: &OnlineConfig) -> OnlineReport {
        let requests: Vec<InferenceRequest> = trace.iter().map(|r| r.request).collect();
        let costs = self.profile_costs(&requests);
        let clock = trace
            .first()
            .map(|r| SimClock::paper(r.request.dataset))
            .unwrap_or_else(|| SimClock::new(1.3e9));
        schedule_online(trace, &costs, cfg, &clock)
    }

    /// Graceful drain: closes the job queue, lets every worker finish
    /// its queued requests, and joins them (as dropping the daemon does).
    pub fn shutdown(self) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Dataset, GnnModel};

    fn queue(n: u64) -> Vec<InferenceRequest> {
        (0..n)
            .map(|i| InferenceRequest::new(i, GnnModel::Gcn, Dataset::Cora, 0.08, 100 + i))
            .collect()
    }

    fn config(workers: usize, threads: usize) -> DaemonConfig {
        DaemonConfig { workers, sim_threads: SimThreads::Fixed(threads), chips: 1 }
    }

    #[test]
    fn costs_are_identical_across_pool_widths() {
        // Large enough (1,354 vertices) that a width-2 pool really shards
        // the per-vertex scans instead of running them inline.
        let requests: Vec<_> = (0..3)
            .map(|i| InferenceRequest::new(i, GnnModel::Gcn, Dataset::Cora, 0.5, 100 + i))
            .collect();
        let narrow = Daemon::new(config(1, 1));
        let wide = Daemon::new(config(3, 2));
        assert_eq!(
            narrow.profile_costs(&requests),
            wide.profile_costs(&requests),
            "workers and pool width must not change simulated cycles"
        );
        narrow.shutdown();
        wide.shutdown();
    }

    #[test]
    fn workers_survive_many_request_rounds() {
        let daemon = Daemon::new(config(2, 1));
        let first = daemon.profile_costs(&queue(2));
        let second = daemon.profile_costs(&queue(2));
        assert_eq!(first, second, "the same queue reprofiled must reproduce exactly");
    }

    #[test]
    fn shutdown_is_a_clean_drain() {
        let daemon = Daemon::new(config(4, 1));
        let _ = daemon.profile_costs(&queue(1));
        daemon.shutdown(); // joins without hanging or panicking
    }

    #[test]
    fn a_panicking_job_makes_profile_costs_panic_never_hang() {
        // Scale 2.0 is outside (0, 1]: synthesis panics inside the job.
        // Run on a watchdog thread so a hang fails the test instead of
        // stalling the suite.
        let (done, finished) = mpsc::channel();
        let watched = std::thread::spawn(move || {
            let daemon = Daemon::new(config(1, 2));
            let bad = InferenceRequest::new(0, GnnModel::Gcn, Dataset::Cora, 2.0, 1);
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                daemon.profile_costs(&[bad])
            }));
            // The worker caught the job's panic and still serves requests.
            let after = daemon.profile_costs(&queue(1));
            let _ = done.send((outcome.is_err(), after.len()));
        });
        let (panicked, served) = finished
            .recv_timeout(std::time::Duration::from_secs(120))
            .expect("profile_costs hung on a panicking job");
        watched.join().expect("the watched thread caught the panic");
        assert!(panicked, "a panicking job must make profile_costs panic");
        assert_eq!(served, 1, "the daemon survives the panicked job");
    }

    #[test]
    fn second_profile_round_is_all_cache_hits() {
        let daemon = Daemon::new(config(2, 1));
        let first = daemon.profile_costs(&queue(2));
        let stats = daemon.profile_cache_stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (0, 2, 2), "cold start");
        let second = daemon.profile_costs(&queue(2));
        assert_eq!(first, second, "memoized costs must equal the simulated ones");
        let stats = daemon.profile_cache_stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (2, 2, 2), "round two is free");
    }

    #[test]
    fn distinct_seeds_never_share_a_cache_entry() {
        // Same model/dataset/scale, different seeds → different graphs,
        // so the seed must participate in the key (the ISSUE's
        // (model, dataset, scale, chips) key would be lossy here).
        let daemon = Daemon::new(config(2, 1));
        let a = InferenceRequest::new(0, GnnModel::Gcn, Dataset::Cora, 0.08, 7);
        let b = InferenceRequest::new(1, GnnModel::Gcn, Dataset::Cora, 0.08, 8);
        let costs = daemon.profile_costs(&[a, b]);
        let stats = daemon.profile_cache_stats();
        assert_eq!(stats.entries, 2, "one entry per seed");
        assert_ne!(costs[&0], costs[&1], "different graphs cost differently");
    }

    #[test]
    fn chips_participate_in_the_key_and_the_simulation() {
        let single = Daemon::new(config(1, 1));
        let multi = Daemon::new(DaemonConfig {
            workers: 1,
            sim_threads: SimThreads::Fixed(1),
            chips: 4,
        });
        let req = queue(1);
        let one = single.profile_costs(&req);
        let four = multi.profile_costs(&req);
        assert_ne!(one[&0], four[&0], "a 4-chip run must not reuse single-chip costs");
    }
}
