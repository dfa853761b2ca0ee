//! Simulation-thread policy and the sharded worker pool the hot loops
//! run on.
//!
//! The engine's two dominant loops — the per-vertex Weighting profile
//! (`gnnie-core::weighting`) and the aggregation cache walk
//! (`crate::cache::CacheSim`) — shard their per-vertex scans across the
//! run's one [`SimPool`] handle, scoped or persistent (no dependencies,
//! like the ingest builder). The contract that makes this safe to enable by
//! default is **determinism**: every sharded computation partitions the
//! vertices into contiguous ranges, accumulates per-shard results
//! (histograms, byte counters, cycle profiles), and reduces them in shard
//! order, so the merged result is *bit-identical* to the serial path at
//! any thread count.
//!
//! [`SimThreads`] is the knob: it lives in
//! `AcceleratorConfig::sim_threads`, can be overridden per run through
//! `RunOptions`, and reaches the CLI as `gnnie run/serve --sim-threads N`
//! with the `GNNIE_SIM_THREADS` environment variable as the default.
//! `Auto` resolves to the machine's available parallelism; a `Fixed`
//! count is honored verbatim — even on a single-core host, where the
//! workers are still spawned (the sharded code path must stay exercised
//! everywhere, which is exactly what CI's `GNNIE_SIM_THREADS` matrix
//! relies on).

use std::ops::Range;
use std::sync::{mpsc, Arc, Condvar, Mutex};

use serde::{Deserialize, Serialize};

/// Hard cap on simulation worker threads (beyond this the per-shard
/// bookkeeping dominates any conceivable core count).
pub const MAX_SIM_THREADS: usize = 64;

/// How many worker threads the sharded simulation loops use.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SimThreads {
    /// The machine's available parallelism (1 when it cannot be probed).
    #[default]
    Auto,
    /// Exactly this many workers, spawned even on a single-core host.
    Fixed(usize),
}

impl SimThreads {
    /// The policy from `GNNIE_SIM_THREADS`: unset or empty means `Auto`;
    /// anything else must parse (`auto` or a positive count). An invalid
    /// value falls back to `Auto` with a stderr warning rather than
    /// poisoning every configuration constructor — the CLI's
    /// `--sim-threads` flag is the strict front door (it rejects `0` and
    /// garbage outright). The variable is read and parsed once per
    /// process; later calls return the cached policy.
    pub fn from_env() -> Self {
        static PARSED: std::sync::OnceLock<SimThreads> = std::sync::OnceLock::new();
        *PARSED.get_or_init(|| match std::env::var("GNNIE_SIM_THREADS") {
            Ok(s) if !s.trim().is_empty() => s.parse().unwrap_or_else(|e: String| {
                eprintln!("warning: GNNIE_SIM_THREADS=`{s}` ignored ({e}); using auto");
                SimThreads::Auto
            }),
            _ => SimThreads::Auto,
        })
    }

    /// The concrete worker count: `Auto` probes the host, `Fixed` is
    /// taken verbatim; both clamp into `1..=`[`MAX_SIM_THREADS`].
    pub fn resolve(self) -> usize {
        match self {
            SimThreads::Auto => {
                std::thread::available_parallelism().map_or(1, |n| n.get()).min(MAX_SIM_THREADS)
            }
            SimThreads::Fixed(n) => n.clamp(1, MAX_SIM_THREADS),
        }
    }
}

impl std::str::FromStr for SimThreads {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let t = s.trim();
        if t.eq_ignore_ascii_case("auto") {
            return Ok(SimThreads::Auto);
        }
        match t.parse::<usize>() {
            Ok(0) => Err("thread count must be at least 1 (or `auto`)".into()),
            Ok(n) => Ok(SimThreads::Fixed(n)),
            Err(_) => Err(format!("`{s}` is not a thread count (expected `auto` or N >= 1)")),
        }
    }
}

impl std::fmt::Display for SimThreads {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimThreads::Auto => f.write_str("auto"),
            SimThreads::Fixed(n) => write!(f, "{n}"),
        }
    }
}

/// Splits `0..n` into at most `shards` contiguous, near-even, nonempty
/// ranges (fewer when `n < shards`; empty when `n == 0`). The split
/// depends only on `n` and `shards`, never on timing, so per-shard
/// results merged in shard order are reproducible.
pub fn shard_ranges(n: usize, shards: usize) -> Vec<Range<usize>> {
    let shards = shards.max(1).min(n);
    let mut ranges = Vec::with_capacity(shards);
    if n == 0 {
        return ranges;
    }
    let base = n / shards;
    let extra = n % shards;
    let mut lo = 0usize;
    for s in 0..shards {
        let hi = lo + base + usize::from(s < extra);
        ranges.push(lo..hi);
        lo = hi;
    }
    debug_assert_eq!(lo, n);
    ranges
}

/// Minimum items per worker before [`SimPool::map_ranges`] actually
/// spawns OS threads: below this the *same* sharded computation (same
/// ranges, same shard-order merge) runs inline, because scope/spawn
/// overhead would dwarf the work being split. This keeps tiny scans
/// (a few hundred vertices) at serial speed while real workloads still
/// fan out; it never affects results — the merge is partition-invariant
/// by contract.
pub const MIN_ITEMS_PER_WORKER: usize = 256;

/// A lifetime-erased shard task queued to a persistent worker.
type Task = Box<dyn FnOnce() + Send + 'static>;

/// The long-lived worker threads behind a persistent [`SimPool`]: a
/// channel-fed task queue shared by `width` threads. Dropping the last
/// pool handle closes the channel and joins every worker (graceful
/// drain — queued shards still run).
struct WorkerSet {
    sender: Mutex<Option<mpsc::Sender<Task>>>,
    handles: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl std::fmt::Debug for WorkerSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let workers = self.handles.lock().map(|h| h.len()).unwrap_or(0);
        f.debug_struct("WorkerSet").field("workers", &workers).finish()
    }
}

impl WorkerSet {
    fn spawn(width: usize) -> Arc<WorkerSet> {
        let (tx, rx) = mpsc::channel::<Task>();
        let rx = Arc::new(Mutex::new(rx));
        let handles = (0..width)
            .map(|_| {
                let rx = Arc::clone(&rx);
                std::thread::spawn(move || loop {
                    // Take the next task *outside* the lock so workers
                    // drain the queue concurrently.
                    let task = {
                        let queue = rx.lock().expect("worker queue lock poisoned");
                        queue.recv()
                    };
                    match task {
                        Ok(task) => task(),
                        Err(_) => break, // channel closed: drain complete
                    }
                })
            })
            .collect();
        Arc::new(WorkerSet { sender: Mutex::new(Some(tx)), handles: Mutex::new(handles) })
    }

    /// Queues a task; hands it back if the channel is already closed so
    /// the caller can run it inline instead of losing it.
    fn submit(&self, task: Task) -> Result<(), Task> {
        match &*self.sender.lock().expect("worker sender lock poisoned") {
            Some(tx) => tx.send(task).map_err(|e| e.0),
            None => Err(task),
        }
    }
}

impl Drop for WorkerSet {
    fn drop(&mut self) {
        // Close the queue, then join: workers finish whatever is queued
        // and exit on the disconnect.
        drop(self.sender.lock().expect("worker sender lock poisoned").take());
        for handle in self.handles.lock().expect("worker handles lock poisoned").drain(..) {
            let _ = handle.join();
        }
    }
}

/// Countdown latch: the submitting thread blocks until every queued
/// shard of its parallel region has completed (or panicked).
struct Latch {
    state: Mutex<(usize, bool)>, // (shards remaining, any shard panicked)
    done: Condvar,
}

impl Latch {
    fn new(count: usize) -> Self {
        Latch { state: Mutex::new((count, false)), done: Condvar::new() }
    }

    fn complete(&self, panicked: bool) {
        let mut state = self.state.lock().expect("latch lock poisoned");
        state.0 -= 1;
        state.1 |= panicked;
        if state.0 == 0 {
            self.done.notify_all();
        }
    }

    /// Blocks until all shards complete; returns whether any panicked.
    fn wait(&self) -> bool {
        let mut state = self.state.lock().expect("latch lock poisoned");
        while state.0 > 0 {
            state = self.done.wait(state).expect("latch lock poisoned");
        }
        state.1
    }
}

/// The sharded worker dispatcher of one simulation run.
///
/// A `SimPool` is a resolved-width handle in one of two modes:
///
/// * **Scoped** ([`SimPool::new`]) — not a set of long-lived threads:
///   workers are `std::thread::scope`d per parallel region. This is what
///   `Engine::begin_with` resolves per `RunSession`.
/// * **Persistent** ([`SimPool::persistent`]) — `width` channel-fed
///   worker threads that live as long as any clone of the handle, so the
///   serving daemon (behind every `gnnie serve` path) amortizes the
///   per-region spawns across every request. Clones share the same
///   workers; dropping the last clone drains the queue and joins them.
///
/// Either way a session holds one handle, and every phase — the
/// Weighting scans and the Aggregation cache walk alike — dispatches
/// through it.
///
/// Both modes run the *identical* sharded ranges and shard-order merges:
/// `width == 1` runs inline with zero dispatch cost, and inputs below
/// [`MIN_ITEMS_PER_WORKER`] per worker run inline too — a forced
/// `Fixed(4)` therefore engages real threads on large inputs even on a
/// one-core box, and results are bit-identical everywhere by contract.
#[derive(Debug, Clone)]
pub struct SimPool {
    width: usize,
    workers: Option<Arc<WorkerSet>>,
}

impl SimPool {
    /// A scoped pool resolving `threads` against the host (see
    /// [`SimThreads::resolve`]); workers are spawned per parallel region.
    pub fn new(threads: SimThreads) -> Self {
        SimPool { width: threads.resolve(), workers: None }
    }

    /// A persistent pool: `threads` resolves as in [`SimPool::new`], but
    /// the workers are spawned once, fed over a channel, and kept alive
    /// until the last clone of the handle is dropped (which drains the
    /// queue and joins them). A width of 1 spawns nothing and runs
    /// inline, exactly like the scoped pool.
    pub fn persistent(threads: SimThreads) -> Self {
        let width = threads.resolve();
        let workers = (width > 1).then(|| WorkerSet::spawn(width));
        SimPool { width, workers }
    }

    /// The single-threaded pool: every `map_ranges` call runs inline.
    pub fn serial() -> Self {
        SimPool { width: 1, workers: None }
    }

    /// The resolved worker count.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Whether this handle dispatches to long-lived workers.
    pub fn is_persistent(&self) -> bool {
        self.workers.is_some()
    }

    /// Runs `f` over the contiguous shards of `0..n` and returns the
    /// per-shard results **in shard order**. `f` must depend only on the
    /// range it is given (not on shard timing); under that contract the
    /// caller's shard-order reduction is bit-identical to a serial pass.
    pub fn map_ranges<R, F>(&self, n: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(Range<usize>) -> R + Sync,
    {
        let ranges = shard_ranges(n, self.width);
        if self.width == 1 || ranges.len() <= 1 || n < self.width * MIN_ITEMS_PER_WORKER {
            return ranges.into_iter().map(f).collect();
        }
        if let Some(workers) = &self.workers {
            return Self::map_on_workers(workers, ranges, &f);
        }
        std::thread::scope(|scope| {
            let f = &f;
            let handles: Vec<_> =
                ranges.into_iter().map(|r| scope.spawn(move || f(r))).collect();
            handles.into_iter().map(|h| h.join().expect("simulation shard panicked")).collect()
        })
    }

    /// Dispatches the shards to the persistent workers and blocks until
    /// all complete; results come back in shard order, same as the
    /// scoped path.
    fn map_on_workers<R, F>(workers: &WorkerSet, ranges: Vec<Range<usize>>, f: &F) -> Vec<R>
    where
        R: Send,
        F: Fn(Range<usize>) -> R + Sync,
    {
        use std::panic::{catch_unwind, AssertUnwindSafe};

        let count = ranges.len();
        let latch = Latch::new(count);
        let mut slots: Vec<Option<R>> = std::iter::repeat_with(|| None).take(count).collect();
        for (slot, range) in slots.iter_mut().zip(ranges) {
            let latch = &latch;
            let task: Box<dyn FnOnce() + Send + '_> =
                Box::new(move || match catch_unwind(AssertUnwindSafe(|| f(range))) {
                    Ok(value) => {
                        *slot = Some(value);
                        latch.complete(false);
                    }
                    Err(_) => latch.complete(true),
                });
            // SAFETY: the tasks borrow `f`, `slots`, and `latch` from this
            // frame; `latch.wait()` below blocks until every task has run
            // (each task counts down exactly once, panics included), so
            // the borrows outlive all task execution. The latch's mutex
            // provides the release/acquire edge that makes the workers'
            // slot writes visible here.
            let task: Task =
                unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + '_>, Task>(task) };
            if let Err(task) = workers.submit(task) {
                task(); // queue closed (shutdown race): run inline
            }
        }
        if latch.wait() {
            panic!("simulation shard panicked");
        }
        slots.into_iter().map(|s| s.expect("completed shard has a result")).collect()
    }

    /// Sharded `u64` reduction over `0..n`: the per-shard sums are added
    /// in shard order (integer addition is associative, so the total
    /// equals the serial scan's for any shard count).
    pub fn sum_ranges<F>(&self, n: usize, f: F) -> u64
    where
        F: Fn(Range<usize>) -> u64 + Sync,
    {
        self.map_ranges(n, f).into_iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_ranges_partition_contiguously() {
        for n in [0usize, 1, 2, 7, 64, 1000] {
            for shards in [1usize, 2, 3, 8, 64] {
                let ranges = shard_ranges(n, shards);
                if n == 0 {
                    assert!(ranges.is_empty());
                    continue;
                }
                assert!(ranges.len() <= shards);
                assert_eq!(ranges.first().unwrap().start, 0);
                assert_eq!(ranges.last().unwrap().end, n);
                for w in ranges.windows(2) {
                    assert_eq!(w[0].end, w[1].start, "contiguous");
                }
                assert!(ranges.iter().all(|r| !r.is_empty()), "no empty shards");
                let sizes: Vec<usize> = ranges.iter().map(|r| r.len()).collect();
                let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
                assert!(max - min <= 1, "near-even: {sizes:?}");
            }
        }
    }

    #[test]
    fn map_ranges_is_identical_at_any_width() {
        // Straddles the spawn threshold: widths 2–3 spawn real threads
        // for n = 997, width 8 runs the sharded ranges inline — both
        // sides of MIN_ITEMS_PER_WORKER must merge to the same bytes.
        let n = 997usize;
        let serial: Vec<u64> = SimPool::serial()
            .map_ranges(n, |r| r.map(|i| (i as u64).wrapping_mul(31)).collect::<Vec<_>>())
            .concat();
        for width in [2usize, 3, 8] {
            let pool = SimPool::new(SimThreads::Fixed(width));
            assert_eq!(pool.width(), width, "Fixed is honored even on one core");
            let sharded: Vec<u64> = pool
                .map_ranges(n, |r| r.map(|i| (i as u64).wrapping_mul(31)).collect::<Vec<_>>())
                .concat();
            assert_eq!(sharded, serial, "width {width}");
            let total = pool.sum_ranges(n, |r| r.map(|i| i as u64).sum());
            assert_eq!(total, (n as u64) * (n as u64 - 1) / 2);
        }
    }

    #[test]
    fn persistent_pool_matches_scoped_results_across_reuse() {
        // One persistent pool serves many parallel regions (the daemon's
        // amortization case) and every merge stays bit-identical to the
        // serial pass.
        let n = 4096usize;
        let serial: Vec<u64> = SimPool::serial()
            .map_ranges(n, |r| r.map(|i| (i as u64).wrapping_mul(97)).collect::<Vec<_>>())
            .concat();
        let pool = SimPool::persistent(SimThreads::Fixed(3));
        assert!(pool.is_persistent());
        assert_eq!(pool.width(), 3);
        for _ in 0..5 {
            let got: Vec<u64> = pool
                .map_ranges(n, |r| r.map(|i| (i as u64).wrapping_mul(97)).collect::<Vec<_>>())
                .concat();
            assert_eq!(got, serial);
        }
        // Clones share the same workers and drop cleanly afterwards.
        let clone = pool.clone();
        assert_eq!(clone.sum_ranges(n, |r| r.map(|i| i as u64).sum()), {
            (n as u64) * (n as u64 - 1) / 2
        });
        drop(pool);
        // The surviving clone still dispatches after the original drops.
        assert_eq!(
            clone.sum_ranges(n, |r| r.map(|i| i as u64).sum()),
            (n as u64) * (n as u64 - 1) / 2
        );
    }

    #[test]
    fn persistent_width_one_is_inline() {
        let pool = SimPool::persistent(SimThreads::Fixed(1));
        assert!(!pool.is_persistent(), "width 1 spawns no workers");
        assert_eq!(pool.sum_ranges(1000, |r| r.len() as u64), 1000);
    }

    #[test]
    fn persistent_pool_survives_concurrent_submitters() {
        // Several request-level threads sharing one persistent pool (the
        // daemon topology): every submitter's merge must stay correct.
        let pool = SimPool::persistent(SimThreads::Fixed(2));
        let n = 2048usize;
        let expect = (n as u64) * (n as u64 - 1) / 2;
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let pool = pool.clone();
                scope.spawn(move || {
                    for _ in 0..3 {
                        assert_eq!(pool.sum_ranges(n, |r| r.map(|i| i as u64).sum()), expect);
                    }
                });
            }
        });
    }

    #[test]
    fn persistent_pool_propagates_shard_panics() {
        let pool = SimPool::persistent(SimThreads::Fixed(2));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.map_ranges(4096, |r| {
                assert!(r.start != 0, "shard 0 blows up");
                r.len()
            })
        }));
        assert!(result.is_err(), "the panic must reach the submitter");
        // The pool stays usable: the panicked task still counted down.
        assert_eq!(pool.sum_ranges(4096, |r| r.len() as u64), 4096);
    }

    #[test]
    fn sim_threads_parse_and_resolve() {
        assert_eq!("auto".parse::<SimThreads>().unwrap(), SimThreads::Auto);
        assert_eq!("4".parse::<SimThreads>().unwrap(), SimThreads::Fixed(4));
        assert!("0".parse::<SimThreads>().is_err());
        assert!("many".parse::<SimThreads>().is_err());
        assert!(SimThreads::Auto.resolve() >= 1);
        assert_eq!(SimThreads::Fixed(3).resolve(), 3);
        assert_eq!(SimThreads::Fixed(10_000).resolve(), MAX_SIM_THREADS);
        assert_eq!(SimThreads::Fixed(2).to_string(), "2");
        assert_eq!(SimThreads::Auto.to_string(), "auto");
    }
}
