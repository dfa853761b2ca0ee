//! Host-thread policy and the one worker pool every parallel loop in the
//! workspace runs on.
//!
//! Everything parallel — a dataset load's CSR build as much as a
//! simulation run — goes through one [`SimPool`] handle, whose
//! channel-fed [`WorkerSet`] is started once per handle. It lives in
//! `gnnie-graph`, the lowest crate that both `gnnie-ingest` and
//! `gnnie-mem` depend on, so graph loading and the simulator share it.
//! There are two dispatches:
//!
//! * [`SimPool::map_ranges`] shards a scan into contiguous ranges — the
//!   CSR builder's degree count (`gnnie-ingest::build`), the Weighting
//!   block profile (`gnnie-core::weighting`), a cache walk's α
//!   initialization and α histograms (`gnnie-mem::cache::CacheSim`);
//! * [`SimPool::map_items`] runs a few coarse, independent jobs, each
//!   whole on one thread: the CSR builder's scatter shards and sort/dedup
//!   slabs, the synthesizer's per-round draw shards (`generate`), and the
//!   engine's distinct cache walks over one session graph.
//!
//! The contract that makes this safe to enable by default is
//! **determinism**: every sharded computation partitions the vertices
//! into contiguous ranges, accumulates per-shard results (histograms,
//! byte counters, cycle profiles), and reduces them in shard order, and
//! per-item results come back in item order, so the merged result is
//! *bit-identical* to the serial path at any thread count.
//!
//! [`SimThreads`] is the knob. It is a run option, not simulated
//! hardware: `RunOptions::sim_threads` sets it per session, the serving
//! daemon's `DaemonConfig::sim_threads` per daemon, and the CLI's
//! `gnnie run/serve/ingest --sim-threads N` sets the run's, the
//! daemon's and the load's or synthesis's alike, with the
//! `GNNIE_SIM_THREADS` environment variable as the default.
//! `Auto` resolves to the machine's available parallelism; a `Fixed`
//! count is honored verbatim — even on a single-core host, where the
//! workers are still started (the sharded code path must stay exercised
//! everywhere, which is exactly what CI's `GNNIE_SIM_THREADS` matrix
//! relies on).

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
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
/// dispatches to the workers: below this the *same* sharded computation
/// (same ranges, same shard-order merge) runs inline, because dispatch
/// overhead would dwarf the work being split. This keeps tiny scans
/// (a few hundred vertices) at serial speed while real workloads still
/// fan out; it never affects results — the merge is partition-invariant
/// by contract.
pub const MIN_ITEMS_PER_WORKER: usize = 256;

/// A lifetime-erased job queued to a [`WorkerSet`].
pub type Task = Box<dyn FnOnce() + Send + 'static>;

/// Long-lived worker threads fed from one channel: the only place the
/// simulator's host code starts threads.
///
/// A [`SimPool`] of width > 1 owns one set for its shard tasks; the
/// serving daemon owns another for its request jobs. Workers take tasks
/// in submission order and run them one at a time; a task that panics is
/// caught and dropped (its captured values unwind normally), so the
/// worker survives and a submitter waiting on a reply sees the
/// disconnect instead of hanging. Dropping the set closes the channel and
/// joins every worker after the queued tasks have run (graceful drain).
pub struct WorkerSet {
    sender: Option<mpsc::Sender<Task>>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for WorkerSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerSet").field("workers", &self.handles.len()).finish()
    }
}

impl WorkerSet {
    /// Starts `workers` threads waiting on an empty queue.
    pub fn new(workers: usize) -> Self {
        let (tx, rx) = mpsc::channel::<Task>();
        let rx = Arc::new(Mutex::new(rx));
        let handles = (0..workers)
            .map(|_| {
                let rx = Arc::clone(&rx);
                std::thread::spawn(move || loop {
                    // Take the next task *outside* the lock so workers
                    // drain the queue concurrently.
                    let task = rx.lock().expect("worker queue lock poisoned").recv();
                    match task {
                        Ok(task) => {
                            let _ =
                                std::panic::catch_unwind(std::panic::AssertUnwindSafe(task));
                        }
                        Err(_) => break, // channel closed: drain complete
                    }
                })
            })
            .collect();
        WorkerSet { sender: Some(tx), handles }
    }

    /// Queues `task` for the next free worker.
    pub fn submit(&self, task: Task) {
        // The receiver lives as long as any worker, and workers exit only
        // after `Drop` closes the channel, so a send cannot fail here.
        self.sender
            .as_ref()
            .expect("worker set is open until dropped")
            .send(task)
            .expect("worker threads outlive the set");
    }
}

impl Drop for WorkerSet {
    fn drop(&mut self) {
        // Close the queue, then join: workers finish whatever is queued
        // and exit on the disconnect.
        drop(self.sender.take());
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Countdown latch: the submitting thread blocks until every queued
/// task of its parallel region has completed (or panicked).
struct Latch {
    state: Mutex<(usize, bool)>, // (tasks remaining, any shard panicked)
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

    /// Blocks until all tasks complete; returns whether any shard
    /// panicked.
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
/// A `SimPool` of width > 1 owns a [`WorkerSet`] of `width` threads,
/// started once by [`SimPool::new`] and fed shard tasks over its channel;
/// the submitting thread runs the first shard of each region itself and
/// then claims shards alongside the workers.
/// Clones share the same workers; dropping the last clone drains the
/// queue and joins them. `Engine::begin_with` builds one pool per
/// `RunSession`, and the serving daemon shares one across every request
/// through `Engine::begin_pooled`; either way every phase of a session —
/// the Weighting scans, the session's fanned-out cache walks and a lone
/// walk's scans alike — dispatches through that one handle.
///
/// `width == 1` starts no thread and runs every region inline. In
/// [`map_ranges`](SimPool::map_ranges), inputs below
/// [`MIN_ITEMS_PER_WORKER`] per worker run inline too, over the
/// *identical* shard ranges and shard-order merge. A forced
/// `Fixed(4)` therefore engages real threads on large inputs even on a
/// one-core box, and results are bit-identical at every width by
/// contract.
#[derive(Debug, Clone)]
pub struct SimPool {
    width: usize,
    workers: Option<Arc<WorkerSet>>,
}

impl SimPool {
    /// A pool resolving `threads` against the host (see
    /// [`SimThreads::resolve`]). A width above 1 starts that many workers
    /// now; they live until the last clone of the handle is dropped.
    pub fn new(threads: SimThreads) -> Self {
        let width = threads.resolve();
        let workers = (width > 1).then(|| Arc::new(WorkerSet::new(width)));
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

    /// Runs `f` over the contiguous shards of `0..n` and returns the
    /// per-shard results **in shard order**. `f` must depend only on the
    /// range it is given (not on shard timing); under that contract the
    /// caller's shard-order reduction is bit-identical to a serial pass.
    ///
    /// `f` must not call back into this pool (or a clone of it): its
    /// shards would queue behind the very shards waiting on them, and a
    /// nested call could deadlock.
    pub fn map_ranges<R, F>(&self, n: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(Range<usize>) -> R + Sync,
    {
        let ranges = shard_ranges(n, self.width);
        match &self.workers {
            Some(workers) if ranges.len() > 1 && n >= self.width * MIN_ITEMS_PER_WORKER => {
                Self::map_on_workers(workers, self.width, ranges, &f)
            }
            _ => ranges.into_iter().map(f).collect(),
        }
    }

    /// Runs `f` once per item, each item as its own job, and returns the
    /// results **in item order**. This is the dispatch for a few coarse,
    /// independent jobs (a session's cache walks), where
    /// [`map_ranges`](SimPool::map_ranges) would run inline below
    /// [`MIN_ITEMS_PER_WORKER`] items per worker. The calling thread runs
    /// the first item, then claims the rest alongside the workers. Width
    /// 1, and a single item, run inline on the calling thread.
    ///
    /// As with `map_ranges`, `f` must not call back into this pool: hand
    /// any nested sharded work [`SimPool::serial`]. A panicking item
    /// panics the caller once every item has finished.
    pub fn map_items<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        match &self.workers {
            Some(workers) if items.len() > 1 => {
                let ranges = (0..items.len()).map(|i| i..i + 1).collect();
                let f = |r: Range<usize>| f(&items[r.start]);
                Self::map_on_workers(workers, self.width, ranges, &f)
            }
            _ => items.iter().map(f).collect(),
        }
    }

    /// Runs the first shard on the calling thread, then has the caller and
    /// up to `width` worker tasks claim the other shards from one shared
    /// counter, and blocks until every task has finished; results come
    /// back in shard order. A worker that starts late finds its shards
    /// already taken by the caller instead of holding the region up.
    /// `ranges` holds at least two shards.
    fn map_on_workers<R, F>(
        workers: &WorkerSet,
        width: usize,
        ranges: Vec<Range<usize>>,
        f: &F,
    ) -> Vec<R>
    where
        R: Send,
        F: Fn(Range<usize>) -> R + Sync,
    {
        use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

        let slots: Vec<Mutex<Option<R>>> = ranges.iter().map(|_| Mutex::new(None)).collect();
        // Hands out shard indices only (results travel through the slot
        // mutexes), so `Relaxed` suffices.
        let next = AtomicUsize::new(1);
        // Runs unclaimed shards until none is left; true if one panicked.
        let claim = || {
            let mut panicked = false;
            loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(range) = ranges.get(i) else { return panicked };
                match catch_unwind(AssertUnwindSafe(|| f(range.clone()))) {
                    Ok(value) => *slots[i].lock().expect("one claim per shard") = Some(value),
                    Err(_) => panicked = true,
                }
            }
        };
        let tasks = width.min(ranges.len() - 1);
        let latch = Latch::new(tasks);
        for _ in 0..tasks {
            let (latch, claim) = (&latch, &claim);
            let task: Box<dyn FnOnce() + Send + '_> = Box::new(move || latch.complete(claim()));
            // SAFETY: the tasks borrow `claim` (and through it `f`,
            // `ranges`, `slots` and `next`) and `latch` from this frame;
            // `latch.wait()` below blocks until every task has run (each
            // counts down exactly once, since `claim` catches shard
            // panics), and the caller's own shards cannot unwind past it
            // (their panics are caught first), so the borrows outlive all
            // task execution. The slot mutexes make the workers' results
            // visible here.
            let task: Task =
                unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + '_>, Task>(task) };
            workers.submit(task);
        }
        // The caller works too: it keeps the first shard, whose
        // allocations stay with the calling thread, then claims shards
        // alongside the workers.
        let first = catch_unwind(AssertUnwindSafe(|| f(ranges[0].clone())));
        let caller_panicked = claim();
        let worker_panicked = latch.wait();
        let first = first.unwrap_or_else(|payload| resume_unwind(payload));
        if caller_panicked || worker_panicked {
            panic!("simulation shard panicked");
        }
        std::iter::once(first)
            .chain(slots.into_iter().skip(1).map(|slot| {
                slot.into_inner()
                    .expect("one claim per shard")
                    .expect("completed shard has a result")
            }))
            .collect()
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
    use std::time::{Duration, Instant};

    const TEN_SECONDS: Duration = Duration::from_secs(10);

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
        // Straddles the dispatch threshold: widths 2–3 hand n = 997 to
        // their workers, width 8 runs the sharded ranges inline — both
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
        // One pool reused across many parallel regions (a session's
        // phases, the daemon's requests) must merge exactly like a fresh
        // pool scoped to each region, and like the width-1 pass; clones
        // share the workers and outlive the original.
        let n = 4096usize;
        let region = |pool: &SimPool| -> Vec<u64> {
            pool.map_ranges(n, |r| r.map(|i| (i as u64).wrapping_mul(97)).collect::<Vec<_>>())
                .concat()
        };
        let expect = region(&SimPool::new(SimThreads::Fixed(1)));
        for width in [2usize, 3] {
            let pool = SimPool::new(SimThreads::Fixed(width));
            for _ in 0..5 {
                assert_eq!(region(&pool), expect, "reused pool, width {width}");
                assert_eq!(
                    region(&SimPool::new(SimThreads::Fixed(width))),
                    expect,
                    "fresh pool, width {width}"
                );
            }
            let clone = pool.clone();
            assert!(Arc::ptr_eq(
                pool.workers.as_ref().expect("width > 1 has workers"),
                clone.workers.as_ref().expect("clones share them"),
            ));
            drop(pool);
            assert_eq!(region(&clone), expect, "the surviving clone still dispatches");
        }
    }

    #[test]
    fn persistent_width_one_is_inline() {
        let pool = SimPool::new(SimThreads::Fixed(1));
        assert!(pool.workers.is_none(), "width 1 starts no workers");
        assert_eq!(pool.sum_ranges(1000, |r| r.len() as u64), 1000);
    }

    #[test]
    fn persistent_pool_survives_concurrent_submitters() {
        // Several request-level threads sharing one pool (the daemon
        // topology): every submitter's merge must stay correct.
        let pool = SimPool::new(SimThreads::Fixed(2));
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
        // Shard 0 runs on the caller, the others on whichever thread
        // claims them; a panic on either side must reach the submitter.
        let pool = SimPool::new(SimThreads::Fixed(2));
        for caller_side in [true, false] {
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                pool.map_ranges(4096, |r| {
                    assert!((r.start == 0) != caller_side, "one shard blows up");
                    r.len()
                })
            }));
            assert!(result.is_err(), "the panic must reach the submitter");
        }
        // The pool stays usable: the panicked task still counted down.
        assert_eq!(pool.sum_ranges(4096, |r| r.len() as u64), 4096);
    }

    #[test]
    fn a_panicking_task_leaves_its_worker_alive_and_drop_drains_the_queue() {
        let workers = WorkerSet::new(1);
        let (tx, rx) = mpsc::channel();
        workers.submit(Box::new(|| panic!("a job blows up")));
        for i in 0..3 {
            let tx = tx.clone();
            workers.submit(Box::new(move || tx.send(i).expect("receiver alive")));
        }
        drop(tx);
        drop(workers); // joins after the queued tasks ran
        assert_eq!(rx.iter().collect::<Vec<_>>(), vec![0, 1, 2]);
    }

    #[test]
    fn map_items_returns_results_in_item_order_at_any_width() {
        // Uneven item costs finish out of order on the workers; the
        // results must still come back in item order.
        let items: Vec<u64> = (0..7).collect();
        let work = |&i: &u64| (0..(7 - i) * 20_000).fold(i, |h, x| h.wrapping_mul(31) ^ x);
        let expect: Vec<u64> = items.iter().map(work).collect();
        for width in [1usize, 2, 3] {
            let pool = SimPool::new(SimThreads::Fixed(width));
            assert_eq!(pool.map_items(&items, work), expect, "width {width}");
        }
        assert!(SimPool::serial().map_items(&[] as &[u64], work).is_empty());
    }

    #[test]
    fn map_items_runs_inline_at_width_one() {
        let caller = std::thread::current().id();
        for pool in [SimPool::serial(), SimPool::new(SimThreads::Fixed(1))] {
            let threads = pool.map_items(&[0u8, 1, 2], |_| std::thread::current().id());
            assert!(threads.iter().all(|&t| t == caller), "width 1 never leaves the caller");
        }
        // Wider pools keep the first item on the caller, and the workers
        // take the rest while it is busy: the first item waits (up to
        // 10 s) until the other two have run.
        let pool = SimPool::new(SimThreads::Fixed(2));
        let (ran_tx, ran_rx) = mpsc::channel();
        let ran_rx = Mutex::new(ran_rx);
        let threads = pool.map_items(&[0u8, 1, 2], |&i| {
            if i == 0 {
                let ran = ran_rx.lock().expect("one first item");
                let deadline = Instant::now() + TEN_SECONDS;
                for _ in 0..2 {
                    ran.recv_timeout(deadline.saturating_duration_since(Instant::now())).ok();
                }
            } else {
                ran_tx.send(()).expect("the receiver outlives the region");
            }
            std::thread::current().id()
        });
        assert_eq!(threads[0], caller, "the caller runs the first item");
        assert!(threads[1..].iter().all(|&t| t != caller), "the rest run on the workers");
    }

    /// Holds every worker of `pool` in a blocking task, then runs
    /// `region` with a channel each of its shards reports on. A watcher
    /// releases the workers once `shards` shards have reported, or after
    /// 10 s, so a region that waits on a held worker fails instead of
    /// hanging.
    fn with_workers_held<R>(
        pool: &SimPool,
        shards: usize,
        region: impl FnOnce(&mpsc::Sender<()>) -> R,
    ) -> R {
        let workers = pool.workers.as_ref().expect("width > 1 has workers");
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let (held_tx, held_rx) = mpsc::channel();
        for _ in 0..pool.width() {
            let (gate, held_tx) = (Arc::clone(&gate), held_tx.clone());
            workers.submit(Box::new(move || {
                held_tx.send(()).expect("the test is waiting");
                let (open, opened) = &*gate;
                let mut open = open.lock().expect("gate lock");
                while !*open {
                    open = opened.wait(open).expect("gate lock");
                }
            }));
        }
        for _ in 0..pool.width() {
            held_rx.recv().expect("every worker is held");
        }
        let (done_tx, done_rx) = mpsc::channel();
        let (open, opened) = &*gate;
        std::thread::scope(|scope| {
            scope.spawn(move || {
                let deadline = Instant::now() + TEN_SECONDS;
                for _ in 0..shards {
                    let left = deadline.saturating_duration_since(Instant::now());
                    if done_rx.recv_timeout(left).is_err() {
                        break;
                    }
                }
                *open.lock().expect("gate lock") = true;
                opened.notify_all();
            });
            region(&done_tx)
        })
    }

    #[test]
    fn the_caller_takes_over_the_shards_of_held_workers() {
        let pool = SimPool::new(SimThreads::Fixed(2));
        let caller = std::thread::current().id();
        let run = |done: &mpsc::Sender<()>| {
            // The watcher stops listening after 10 s.
            let _ = done.send(());
            std::thread::current().id()
        };
        let n = 2 * pool.width() * MIN_ITEMS_PER_WORKER;
        let ranges = with_workers_held(&pool, 2, |done| pool.map_ranges(n, |_| run(done)));
        assert_eq!(ranges, [caller; 2], "map_ranges: every shard on the caller");
        let items =
            with_workers_held(&pool, 3, |done| pool.map_items(&[0u8, 1, 2], |_| run(done)));
        assert_eq!(items, [caller; 3], "map_items: every item on the caller");
        // The released workers serve the pool as before.
        assert_eq!(pool.sum_ranges(4096, |r| r.len() as u64), 4096);
    }

    #[test]
    fn map_items_propagates_a_panicking_item() {
        // A worker's item and the caller's own first item alike.
        let pool = SimPool::new(SimThreads::Fixed(2));
        for items in [[1u32, 0, 3], [0, 1, 3]] {
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                pool.map_items(&items, |&i| {
                    assert!(i != 0, "an item blows up");
                    i
                })
            }));
            assert!(result.is_err(), "{items:?}: the panic must reach the caller, not hang it");
        }
        // The pool stays usable afterwards.
        assert_eq!(pool.map_items(&[1u32, 2, 3], |&i| 2 * i), vec![2, 4, 6]);
    }

    #[test]
    fn map_items_on_a_reused_pool_matches_a_fresh_one() {
        let items: Vec<usize> = (0..5).collect();
        let job = |&i: &usize| (0..1000 * (i + 1)).map(|x| x as u64 * 7).sum::<u64>();
        for width in [2usize, 3] {
            let reused = SimPool::new(SimThreads::Fixed(width));
            for _ in 0..4 {
                let fresh = SimPool::new(SimThreads::Fixed(width)).map_items(&items, job);
                assert_eq!(reused.map_items(&items, job), fresh, "width {width}");
                // Interleave a sharded region on the same workers.
                assert_eq!(reused.sum_ranges(4096, |r| r.len() as u64), 4096);
            }
        }
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
