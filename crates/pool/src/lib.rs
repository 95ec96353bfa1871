//! Scoped work-stealing thread pool and task-DAG executor.
//!
//! The in-tree replacement for the `rayon` subset this workspace uses:
//! a global pool of workers, a [`scope`] primitive whose spawned closures
//! may borrow from the enclosing stack frame, a two-way [`join`], and a
//! dependency-graph executor ([`dag::DagBuilder`]) that runs an explicit
//! task DAG on the same workers. The DAG executor is what the Strassen
//! scheduler (`strassen::schedules::seven_temp`) uses to express each
//! recursion level as pre-add / product / post-add nodes whose edges are
//! the real data dependencies, so independent work from *different*
//! recursion levels coexists in the worker deques and is stolen freely,
//! instead of the old level-at-a-time spawn-and-join barrier.
//!
//! Design:
//!
//! - One deque per worker; plain spawns are distributed round-robin,
//!   [`Scope::spawn_at`] pins a task to a specific worker's deque
//!   (affinity hint — the worker keeps its thread-local pack buffers and
//!   arena slices warm for the slot it served last level). Idle workers
//!   pop from the back of their own deque (LIFO, cache-warm) or steal
//!   from the front of a victim's (FIFO, oldest first), so a hint is a
//!   preference, never a constraint: hinted work is still stolen when
//!   its preferred worker is busy.
//! - The thread that opens a [`scope`] or [`join`] *helps*: while
//!   waiting for its tasks it executes queued tasks itself. This keeps a
//!   single-threaded pool deadlock-free under nested scopes and joins
//!   (DAG product nodes recurse into deeper DAGs, GEMM column groups
//!   split recursively) and means the caller is never idle while work is
//!   queued.
//! - A queued entry is a `JobRef`: a data pointer plus the function
//!   that runs it. [`Scope::spawn`] boxes its closure; [`join`] stores
//!   its second closure in the joining thread's own stack frame (as
//!   rayon's `StackJob` does), so a warm `join` allocates nothing — the
//!   property the default DGEFMM path's zero-allocation test relies on.
//! - Thread count is config-driven: [`set_num_threads`] before first
//!   use, else the `STRASSEN_THREADS` environment variable (legacy alias
//!   `STRASSEN_NUM_THREADS`), else [`machine_threads`] — the number of
//!   distinct *physical* cores probed from
//!   `/sys/devices/system/cpu/cpu*/topology`, because the GEMM kernels
//!   saturate a core's FMA pipes and gain nothing from SMT siblings.
//!   Once the pool is running, [`set_num_threads`] reports the
//!   mismatch as a typed error instead of failing silently.
//! - Panics inside a spawned task are caught, the scope finishes its
//!   remaining tasks, and the first panic is re-thrown from [`scope`]
//!   on the spawning thread — the same contract as `rayon::scope`. A
//!   panicking DAG node poisons its successors (they never run) and the
//!   panic surfaces from [`dag::DagBuilder::run`].
//!
//! Per-worker telemetry ([`pool_stats`], [`worker_job_counts`]) makes
//! "did the parallel path really fan out, and were the workers busy?"
//! testable — the bench harness turns [`PoolStats::utilization`] into a
//! gate. The [`ring`] module adds an opt-in execution timeline on the
//! same paths: per-worker event rings recording spawn / steal / start /
//! finish / park with monotonic timestamps, which the trace exporter in
//! the core crate renders as Perfetto-loadable Chrome trace JSON.

#![warn(missing_docs)]

pub mod dag;
pub mod ring;

use std::any::Any;
use std::cell::{Cell, UnsafeCell};
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::Duration;

/// A boxed, type-erased task body (DAG node bodies). The `'static` here
/// is a lie told by a transmute; it is sound because [`scope`] never
/// returns until every task it spawned has completed.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// A queued task: a type-erased pointer to the job's data and the
/// function that runs it. Boxed jobs ([`Scope::spawn`]) point at a heap
/// closure that `execute` consumes; stack jobs ([`join`]) point into the
/// joining thread's frame, which stays alive until the job's latch is
/// set. `execute` never unwinds: both kinds catch panics themselves.
#[derive(Clone, Copy)]
struct JobRef {
    data: *const (),
    execute: unsafe fn(*const ()),
}

// SAFETY: a `JobRef` is only built from `Send` closures (`Scope::spawn`
// and `join` both require it), and the pointee outlives the job: a boxed
// job owns its closure, a stack job's frame waits for its latch.
unsafe impl Send for JobRef {}

impl JobRef {
    /// Box `f` and erase it. The closure's lifetime is erased too; the
    /// caller must keep its borrows alive until the job has run (the
    /// [`scope`] contract).
    fn boxed<F: FnOnce() + Send>(f: F) -> JobRef {
        unsafe fn call<F: FnOnce()>(data: *const ()) {
            // SAFETY: `data` came from `Box::into_raw` below and each
            // `JobRef` runs exactly once.
            let f = unsafe { Box::from_raw(data as *mut F) };
            f()
        }
        JobRef { data: Box::into_raw(Box::new(f)) as *const (), execute: call::<F> }
    }

    /// Run the job.
    ///
    /// # Safety
    /// Each `JobRef` must be run exactly once.
    unsafe fn run(self) {
        unsafe { (self.execute)(self.data) }
    }
}

/// Initial capacity of each worker deque, so steady-state pushes never
/// reallocate (a recursive `join` keeps only O(log groups) entries
/// queued per caller).
const DEQUE_CAPACITY: usize = 256;

struct Shared {
    /// One deque per worker; `Scope::spawn` and `join` push round-robin,
    /// `Scope::spawn_at` pushes to the hinted worker's deque.
    deques: Vec<Mutex<VecDeque<JobRef>>>,
    /// Tasks executed per worker, for observability and tests.
    executed: Vec<AtomicU64>,
    /// Nanoseconds each worker spent *running* jobs (not waiting).
    busy_ns: Vec<AtomicU64>,
    /// Jobs each worker popped from its own deque (LIFO, cache-warm).
    own_pops: Vec<AtomicU64>,
    /// Jobs each worker stole from another worker's deque.
    steals: Vec<AtomicU64>,
    /// Times each worker went to sleep on the wake condvar.
    parks: Vec<AtomicU64>,
    /// Jobs popped by helping non-worker threads (scope and join owners).
    helper_pops: AtomicU64,
    /// Wake notifications issued by `push` (one per queued job).
    wake_notifies: AtomicU64,
    /// Tasks queued but not yet popped, across all deques.
    queued: AtomicUsize,
    /// Round-robin push cursor.
    next: AtomicUsize,
    /// Sleep/wake plumbing for idle workers and for [`scope`] and
    /// [`join`] owners whose tasks are held by other threads.
    sleep: Mutex<()>,
    wake: Condvar,
    /// Scope and join owners asleep on `wake`; completions notify only
    /// while one is.
    join_sleepers: AtomicUsize,
    /// Timeline event rings: one per worker plus
    /// [`ring::EXTERNAL_LANES`] lanes for helping/spawning threads.
    rings: Vec<ring::Ring>,
}

impl Shared {
    fn push(&self, job: JobRef) {
        let i = self.next.fetch_add(1, Ordering::Relaxed);
        self.push_at(i, job);
    }

    /// Queue `job` on deque `i % nworkers` and wake sleepers.
    fn push_at(&self, i: usize, job: JobRef) {
        let i = i % self.deques.len();
        self.queued.fetch_add(1, Ordering::Release);
        self.deques[i].lock().unwrap().push_back(job);
        self.wake_notifies.fetch_add(1, Ordering::Relaxed);
        let _guard = self.sleep.lock().unwrap();
        self.wake.notify_all();
    }

    /// Pop for worker `me`: own deque from the back, then steal from the
    /// front of the others. `me == usize::MAX` marks a helping
    /// non-worker thread (steals only, round-robin from 0). Each
    /// successful pop is attributed to exactly one of the `own_pops` /
    /// `steals` / `helper_pops` counters, which is what makes the
    /// `own_pops + steals == executed` telemetry invariant hold.
    fn pop(&self, me: usize) -> Option<JobRef> {
        if self.queued.load(Ordering::Acquire) == 0 {
            return None;
        }
        let n = self.deques.len();
        if me < n {
            if let Some(job) = self.deques[me].lock().unwrap().pop_back() {
                self.queued.fetch_sub(1, Ordering::Release);
                self.own_pops[me].fetch_add(1, Ordering::Relaxed);
                return Some(job);
            }
        }
        for k in 0..n {
            let victim = if me < n { (me + 1 + k) % n } else { k };
            if victim == me {
                continue;
            }
            if let Some(job) = self.deques[victim].lock().unwrap().pop_front() {
                self.queued.fetch_sub(1, Ordering::Release);
                if me < n {
                    self.steals[me].fetch_add(1, Ordering::Relaxed);
                    if ring::is_recording() {
                        ring::record_worker(me, ring::EventKind::Steal, 0, victim as u32);
                    }
                } else {
                    self.helper_pops.fetch_add(1, Ordering::Relaxed);
                    ring::record(ring::EventKind::HelperPop, 0, victim as u32);
                }
                return Some(job);
            }
        }
        None
    }

    /// Run one queued job on the calling thread, if any. A pool worker
    /// waiting inside a job (a nested scope or join) pops as itself and
    /// counts the job as its own; any other thread pops as a helper.
    fn help(&self) -> bool {
        let me = WORKER.with(Cell::get);
        let Some(job) = self.pop(me) else { return false };
        if me < self.executed.len() {
            self.executed[me].fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: a popped job has left the queue, so it runs once.
        unsafe { job.run() };
        true
    }

    /// Help with queued work until `done()` holds. Sleeps only while
    /// the queues are empty, so every job it waits for is held by a
    /// running thread; a push or [`Shared::wake_joiners`] after the
    /// condition became true wakes it. `done` must read its state with
    /// `SeqCst`.
    fn wait_until(&self, done: impl Fn() -> bool) {
        while !done() {
            if self.help() {
                continue;
            }
            let guard = self.sleep.lock().unwrap();
            self.join_sleepers.fetch_add(1, Ordering::SeqCst);
            // SeqCst pairs with `wake_joiners`: either the setter sees
            // this sleeper, or `done` sees the setter's store. `queued`
            // is checked under the lock `push` notifies under, as in the
            // worker loop.
            if !done() && self.queued.load(Ordering::Acquire) == 0 {
                // Timeout bounds the cost of any lost wakeup race.
                let _ = self.wake.wait_timeout(guard, Duration::from_millis(50));
            }
            self.join_sleepers.fetch_sub(1, Ordering::SeqCst);
        }
    }

    /// Wake sleeping waiters after a stack-job latch was set or a scope's
    /// last task finished (both SeqCst). Touches only pool state, never
    /// the finished job's frame.
    fn wake_joiners(&self) {
        if self.join_sleepers.load(Ordering::SeqCst) > 0 {
            let _guard = self.sleep.lock().unwrap();
            self.wake.notify_all();
        }
    }
}

struct Pool {
    shared: Arc<Shared>,
    nthreads: usize,
}

impl Pool {
    fn start(nthreads: usize) -> Pool {
        let shared = Arc::new(Shared {
            deques: (0..nthreads).map(|_| Mutex::new(VecDeque::with_capacity(DEQUE_CAPACITY))).collect(),
            executed: (0..nthreads).map(|_| AtomicU64::new(0)).collect(),
            busy_ns: (0..nthreads).map(|_| AtomicU64::new(0)).collect(),
            own_pops: (0..nthreads).map(|_| AtomicU64::new(0)).collect(),
            steals: (0..nthreads).map(|_| AtomicU64::new(0)).collect(),
            parks: (0..nthreads).map(|_| AtomicU64::new(0)).collect(),
            helper_pops: AtomicU64::new(0),
            wake_notifies: AtomicU64::new(0),
            queued: AtomicUsize::new(0),
            next: AtomicUsize::new(0),
            sleep: Mutex::new(()),
            wake: Condvar::new(),
            join_sleepers: AtomicUsize::new(0),
            rings: {
                let cap = ring::ring_capacity();
                (0..nthreads + ring::EXTERNAL_LANES).map(|_| ring::Ring::new(cap)).collect()
            },
        });
        for me in 0..nthreads {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name(format!("strassen-pool-{me}"))
                .spawn(move || worker_loop(shared, me))
                .expect("spawning pool worker");
        }
        Pool { shared, nthreads }
    }
}

thread_local! {
    /// This thread's worker index, `usize::MAX` off the pool.
    static WORKER: Cell<usize> = const { Cell::new(usize::MAX) };
}

fn worker_loop(shared: Arc<Shared>, me: usize) {
    ring::set_worker_lane(me);
    WORKER.with(|w| w.set(me));
    loop {
        match shared.pop(me) {
            Some(job) => {
                shared.executed[me].fetch_add(1, Ordering::Relaxed);
                // Boxed and stack jobs both catch user panics; a panic
                // reaching here would be a pool bug, and even then the
                // worker must survive.
                let start = std::time::Instant::now();
                // SAFETY: popped jobs run exactly once.
                let _ = catch_unwind(AssertUnwindSafe(|| unsafe { job.run() }));
                shared.busy_ns[me].fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
            }
            None => {
                let guard = shared.sleep.lock().unwrap();
                if shared.queued.load(Ordering::Acquire) == 0 {
                    shared.parks[me].fetch_add(1, Ordering::Relaxed);
                    if ring::is_recording() {
                        ring::record_worker(me, ring::EventKind::Park, 0, 0);
                    }
                    // Timeout bounds the cost of any lost wakeup race.
                    let _ = shared.wake.wait_timeout(guard, Duration::from_millis(50));
                }
            }
        }
    }
}

/// Requested thread count, staged before the pool starts (0 = unset).
static REQUESTED: AtomicUsize = AtomicUsize::new(0);
static POOL: OnceLock<Pool> = OnceLock::new();

/// Distinct physical cores on this machine, probed from
/// `/sys/devices/system/cpu/cpu*/topology/{physical_package_id,core_id}`.
///
/// SMT siblings share FMA pipes and L1/L2, so the dense kernels gain
/// nothing from running two workers per core — this is the pool's
/// default size. Falls back to `available_parallelism` (which counts
/// hardware *threads*) when sysfs is absent or unreadable, and to 1 as a
/// last resort.
pub fn machine_threads() -> usize {
    physical_core_count().or_else(|| std::thread::available_parallelism().ok().map(|n| n.get())).unwrap_or(1)
}

fn physical_core_count() -> Option<usize> {
    let mut cores = std::collections::BTreeSet::new();
    for entry in std::fs::read_dir("/sys/devices/system/cpu").ok()?.flatten() {
        let name = entry.file_name();
        let Some(rest) = name.to_str().and_then(|s| s.strip_prefix("cpu")) else { continue };
        if rest.is_empty() || !rest.bytes().all(|b| b.is_ascii_digit()) {
            continue;
        }
        let topo = entry.path().join("topology");
        let read_id = |file: &str| -> Option<i64> {
            std::fs::read_to_string(topo.join(file)).ok()?.trim().parse().ok()
        };
        // Offline CPUs have no topology directory; skip them.
        if let (Some(pkg), Some(core)) = (read_id("physical_package_id"), read_id("core_id")) {
            cores.insert((pkg, core));
        }
    }
    if cores.is_empty() {
        None
    } else {
        Some(cores.len())
    }
}

fn default_threads() -> usize {
    for var in ["STRASSEN_THREADS", "STRASSEN_NUM_THREADS"] {
        if let Ok(v) = std::env::var(var) {
            if let Ok(n) = v.trim().parse::<usize>() {
                return n.max(1);
            }
        }
    }
    machine_threads()
}

fn global() -> &'static Pool {
    POOL.get_or_init(|| {
        let requested = REQUESTED.load(Ordering::Relaxed);
        let n = if requested > 0 { requested } else { default_threads() };
        Pool::start(n)
    })
}

/// The global pool's shared state (starts the pool on first call) — for
/// the [`ring`] module's lane accessors.
pub(crate) fn global_shared() -> &'static Shared {
    &global().shared
}

/// Error from [`set_num_threads`]: the global pool is already running
/// with a different worker count, which cannot be changed in-process.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PoolAlreadyRunning {
    /// Worker count the pool is actually running with.
    pub running: usize,
    /// Worker count the rejected call asked for.
    pub requested: usize,
}

impl std::fmt::Display for PoolAlreadyRunning {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "thread pool already running with {} worker(s); cannot resize to {} — \
             call set_num_threads before the pool's first use, or set STRASSEN_THREADS",
            self.running, self.requested
        )
    }
}

impl std::error::Error for PoolAlreadyRunning {}

/// Request `n` workers for the global pool (clamped to at least 1).
///
/// Effective only before the pool's first use. Once the pool is running
/// the worker count is fixed for the process: a call that asks for the
/// count the pool already has succeeds (idempotent), any other count
/// returns [`PoolAlreadyRunning`] carrying both counts so callers can
/// report the mismatch instead of silently computing with the wrong
/// parallelism. Entry points that care (`bench_quick`, the examples) set
/// the thread count up front, before touching any parallel path.
///
/// Pre-start staging is **last-write-wins**: each call before the pool
/// starts overwrites the staged request, and none of them takes effect
/// until first use. Two subsystems that each "set the thread count up
/// front" (say, a serving layer and a bench harness in one process)
/// therefore race on whichever touches the pool first — library code
/// that merely *wants* a size but must coexist with other components
/// should use [`pin_once`], which stages first-wins and resolves the
/// effective count immediately.
pub fn set_num_threads(n: usize) -> Result<(), PoolAlreadyRunning> {
    let n = n.max(1);
    let check = |pool: &Pool| {
        if pool.nthreads == n {
            Ok(())
        } else {
            Err(PoolAlreadyRunning { running: pool.nthreads, requested: n })
        }
    };
    if let Some(pool) = POOL.get() {
        return check(pool);
    }
    REQUESTED.store(n, Ordering::Relaxed);
    // A racing first use may have started the pool between the check and
    // the store; re-validate so the result is truthful.
    match POOL.get() {
        None => Ok(()),
        Some(pool) => check(pool),
    }
}

/// Number of worker threads in the pool (starts the pool on first call).
pub fn current_num_threads() -> usize {
    global().nthreads
}

/// Whether an environment override (`STRASSEN_THREADS` /
/// `STRASSEN_NUM_THREADS`) pins the pool size for this process.
fn env_threads_set() -> bool {
    ["STRASSEN_THREADS", "STRASSEN_NUM_THREADS"]
        .iter()
        .any(|var| std::env::var(var).is_ok_and(|v| v.trim().parse::<usize>().is_ok()))
}

/// Pin-once pool sizing for library components: stage `n` workers only
/// if nothing else has claimed the size yet, start the pool, and return
/// the count it actually runs with.
///
/// Resolution order, strongest first:
///
/// 1. a pool that is already running keeps its size;
/// 2. an environment override (`STRASSEN_THREADS`, legacy
///    `STRASSEN_NUM_THREADS`) wins over any `pin_once` — this is what
///    lets `scripts/verify.sh` run the whole suite at 1 and 4 workers
///    without every component opting in;
/// 3. an earlier staged request ([`set_num_threads`] or a previous
///    `pin_once`) wins over this call (**first**-wins, unlike
///    `set_num_threads`'s last-write-wins staging);
/// 4. otherwise `n` (clamped to ≥ 1) becomes the pool size.
///
/// Because `pin_once` *starts* the pool before returning, the answer is
/// final: later [`set_num_threads`] calls for a different count get a
/// truthful [`PoolAlreadyRunning`] instead of silently re-staging, so a
/// serving layer and a bench harness in one process cannot fight over
/// sizing — whoever pins first decides, and everyone else *observes*.
/// The regression test in `tests/parallel_smoke.rs` pins this contract.
pub fn pin_once(n: usize) -> usize {
    if !env_threads_set() {
        let _ = REQUESTED.compare_exchange(0, n.max(1), Ordering::Relaxed, Ordering::Relaxed);
    }
    current_num_threads()
}

/// Tasks executed so far by each worker, indexed by worker id.
///
/// Tasks run inline by a *helping* non-worker thread (a scope or join
/// owner off the pool) are not counted here; a worker that helps while
/// waiting inside a job counts what it runs. These counters answer
/// "which pool workers participated?", which is what the
/// parallel-dispatch smoke tests assert.
pub fn worker_job_counts() -> Vec<u64> {
    global().shared.executed.iter().map(|c| c.load(Ordering::Relaxed)).collect()
}

/// Telemetry snapshot for one pool worker (see [`PoolStats`]).
///
/// All counters are cumulative since pool start and only ever grow, so
/// two snapshots bracket a region: `after.jobs - before.jobs` is the
/// work that region dispatched. Every executed job was obtained by
/// exactly one pop, giving the invariant `own_pops + steals == jobs`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WorkerStats {
    /// Jobs this worker executed, including those it ran while waiting
    /// inside another job (a nested scope or join).
    pub jobs: u64,
    /// Jobs popped from the worker's own deque (LIFO, cache-warm).
    pub own_pops: u64,
    /// Jobs stolen from another worker's deque (FIFO, oldest first).
    pub steals: u64,
    /// Nanoseconds spent running jobs (excludes idle/steal-search time).
    pub busy_ns: u64,
    /// Times the worker parked on the wake condvar (queue was empty).
    pub parks: u64,
}

/// Utilization telemetry for the whole pool: a per-worker breakdown plus
/// the pool-wide counters that have no single owner.
///
/// Taken with [`pool_stats`]; subtract two snapshots with
/// [`PoolStats::since`] to attribute counts to a region of interest.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Per-worker counters, indexed by worker id.
    pub workers: Vec<WorkerStats>,
    /// Jobs executed inline by *helping* non-worker threads (scope and
    /// join owners off the pool, waiting in [`scope`] or [`join`], that
    /// picked up queued work instead of blocking). These jobs appear in
    /// no worker's counters.
    pub helper_pops: u64,
    /// Wake notifications issued by spawns (one per queued job).
    pub wake_notifies: u64,
}

impl PoolStats {
    /// Jobs executed by pool workers (excludes [`PoolStats::helper_pops`]).
    pub fn total_jobs(&self) -> u64 {
        self.workers.iter().map(|w| w.jobs).sum()
    }

    /// Total nanoseconds pool workers spent running jobs.
    pub fn total_busy_ns(&self) -> u64 {
        self.workers.iter().map(|w| w.busy_ns).sum()
    }

    /// Fraction of `wall_ns × workers` the pool spent busy — the
    /// parallel-region utilization figure the profile reports and the
    /// bench harness gates on. Returns 0 for an empty pool or a
    /// zero-length wall interval.
    pub fn utilization(&self, wall_ns: u64) -> f64 {
        let capacity = wall_ns.saturating_mul(self.workers.len() as u64);
        if capacity == 0 {
            return 0.0;
        }
        self.total_busy_ns() as f64 / capacity as f64
    }

    /// Counter-wise difference `self − earlier`, saturating at zero —
    /// the activity between two snapshots. Workers present in `self` but
    /// not in `earlier` (never the case for one process, where the pool
    /// size is fixed) are returned unchanged.
    pub fn since(&self, earlier: &PoolStats) -> PoolStats {
        let workers = self
            .workers
            .iter()
            .enumerate()
            .map(|(i, w)| {
                let e = earlier.workers.get(i).copied().unwrap_or_default();
                WorkerStats {
                    jobs: w.jobs.saturating_sub(e.jobs),
                    own_pops: w.own_pops.saturating_sub(e.own_pops),
                    steals: w.steals.saturating_sub(e.steals),
                    busy_ns: w.busy_ns.saturating_sub(e.busy_ns),
                    parks: w.parks.saturating_sub(e.parks),
                }
            })
            .collect();
        PoolStats {
            workers,
            helper_pops: self.helper_pops.saturating_sub(earlier.helper_pops),
            wake_notifies: self.wake_notifies.saturating_sub(earlier.wake_notifies),
        }
    }
}

/// Snapshot the pool's telemetry counters (starts the pool on first
/// call).
///
/// The counters are read with relaxed ordering while workers may still be
/// running: a snapshot taken mid-flight can observe a job in `jobs`
/// before its `busy_ns` lands. Snapshots taken while the caller's own
/// scopes are quiescent (after [`scope`] returned) are exact for the jobs
/// those scopes spawned, because `scope` does not return until every
/// spawned job has completed.
pub fn pool_stats() -> PoolStats {
    let shared = &global().shared;
    let workers = (0..shared.deques.len())
        .map(|i| WorkerStats {
            jobs: shared.executed[i].load(Ordering::Relaxed),
            own_pops: shared.own_pops[i].load(Ordering::Relaxed),
            steals: shared.steals[i].load(Ordering::Relaxed),
            busy_ns: shared.busy_ns[i].load(Ordering::Relaxed),
            parks: shared.parks[i].load(Ordering::Relaxed),
        })
        .collect();
    PoolStats {
        workers,
        helper_pops: shared.helper_pops.load(Ordering::Relaxed),
        wake_notifies: shared.wake_notifies.load(Ordering::Relaxed),
    }
}

struct ScopeState {
    /// Spawned-but-unfinished task count for this scope.
    pending: AtomicUsize,
    /// First panic payload from any task in this scope.
    panic: Mutex<Option<Box<dyn Any + Send + 'static>>>,
}

impl ScopeState {
    fn complete_one(&self) {
        if self.pending.fetch_sub(1, Ordering::SeqCst) == 1 {
            global().shared.wake_joiners();
        }
    }
}

/// Handle for spawning tasks that may borrow data outliving the
/// [`scope`] call. Created only by [`scope`].
pub struct Scope<'scope> {
    state: Arc<ScopeState>,
    /// Invariant over `'scope`, as for `std::thread::Scope`.
    _marker: PhantomData<fn(&'scope ()) -> &'scope ()>,
}

impl<'scope> Scope<'scope> {
    /// Queue `f` on the pool, round-robin across worker deques. It may
    /// borrow anything that outlives the enclosing [`scope`] call;
    /// [`scope`] does not return until every spawned task has finished.
    pub fn spawn<F>(&self, f: F)
    where
        F: FnOnce() + Send + 'scope,
    {
        self.spawn_job(None, 0, f);
    }

    /// Queue `f` with an affinity hint: the job lands on worker
    /// `hint % nworkers`'s deque instead of the round-robin slot, so a
    /// stable hint (e.g. a Strassen arena-slot index) keeps returning to
    /// the worker whose thread-local pack buffers and workspace arena
    /// are already sized and cache-warm for it. The hint is advisory —
    /// any idle worker (or helping scope owner) may still steal the job.
    pub fn spawn_at<F>(&self, hint: usize, f: F)
    where
        F: FnOnce() + Send + 'scope,
    {
        self.spawn_job(Some(hint), 0, f);
    }

    /// [`Scope::spawn`]/[`Scope::spawn_at`] with a timeline tag: when
    /// event recording is on ([`ring::start_recording`]) the task's
    /// spawn/start/finish ring events carry `tag` (see [`ring::tag`]),
    /// which is how the trace exporter names tasks and draws flow events
    /// along DAG edges. `tag == 0` means untagged; the tag never affects
    /// scheduling or execution.
    pub fn spawn_tagged<F>(&self, hint: Option<usize>, tag: u64, f: F)
    where
        F: FnOnce() + Send + 'scope,
    {
        self.spawn_job(hint, tag, f);
    }

    fn spawn_job<F>(&self, hint: Option<usize>, tag: u64, f: F)
    where
        F: FnOnce() + Send + 'scope,
    {
        self.state.pending.fetch_add(1, Ordering::AcqRel);
        let state = Arc::clone(&self.state);
        // The closure's `'scope` borrows are erased by `JobRef::boxed`;
        // this is sound because `scope` blocks (see `wait_all`) until
        // `pending` reaches zero, i.e. until this closure has run and
        // dropped — the same argument as `std::thread::scope`, enforced
        // dynamically by the counter.
        let job = JobRef::boxed(move || {
            // Latch the recording gate once so Start/Finish always pair,
            // even when recording toggles mid-job.
            let rec = ring::is_recording();
            if rec {
                ring::record(ring::EventKind::Start, tag, 0);
            }
            if let Err(payload) = catch_unwind(AssertUnwindSafe(f)) {
                let mut slot = state.panic.lock().unwrap();
                if slot.is_none() {
                    *slot = Some(payload);
                }
            }
            if rec {
                ring::record(ring::EventKind::Finish, tag, 0);
            }
            state.complete_one();
        });
        ring::record(ring::EventKind::Spawn, tag, 0);
        match hint {
            Some(i) => global().shared.push_at(i, job),
            None => global().shared.push(job),
        }
    }

    /// A second handle onto this scope's completion state, for crate
    /// internals (the DAG executor) that must spawn follow-up tasks
    /// *from inside* a running task, where no `&Scope` is in reach.
    fn alias(&self) -> Scope<'scope> {
        Scope { state: Arc::clone(&self.state), _marker: PhantomData }
    }

    /// Wait for every task in this scope, helping with queued work
    /// (from any scope) instead of blocking while tasks are available.
    fn wait_all(&self) {
        global().shared.wait_until(|| self.state.pending.load(Ordering::SeqCst) == 0);
    }
}

/// Run `f` with a [`Scope`] whose spawned closures may borrow locals of
/// the caller. Returns `f`'s result after all spawned tasks complete.
///
/// If `f` itself or any spawned task panics, the panic is re-thrown
/// here — but only after every task of the scope has finished, so
/// borrowed data is never observed by a still-running task after an
/// unwind.
///
/// # Example
///
/// Spawned tasks may write disjoint borrows of the caller's stack —
/// the shape of the seven-multiply Strassen fan-out:
///
/// ```
/// let mut parts = [0u64; 4];
/// pool::scope(|s| {
///     for (i, p) in parts.iter_mut().enumerate() {
///         s.spawn(move || *p = (i as u64 + 1) * 10);
///     }
/// });
/// assert_eq!(parts, [10, 20, 30, 40]);
/// ```
pub fn scope<'scope, F, R>(f: F) -> R
where
    F: FnOnce(&Scope<'scope>) -> R,
{
    let s = Scope {
        state: Arc::new(ScopeState { pending: AtomicUsize::new(0), panic: Mutex::new(None) }),
        _marker: PhantomData,
    };
    let result = catch_unwind(AssertUnwindSafe(|| f(&s)));
    s.wait_all();
    match result {
        Err(payload) => resume_unwind(payload),
        Ok(r) => {
            let panicked = s.state.panic.lock().unwrap().take();
            if let Some(payload) = panicked {
                resume_unwind(payload);
            }
            r
        }
    }
}

/// A [`join`] closure queued for the pool, stored in the joining
/// thread's stack frame. Whoever runs it (a worker, a helping thread, or
/// the joiner itself) writes the result and then sets `done` as its
/// **last** access to the frame, so the joiner may return — and the
/// frame die — as soon as it observes the latch.
struct StackJob<F, R> {
    func: UnsafeCell<Option<F>>,
    result: UnsafeCell<Option<std::thread::Result<R>>>,
    tag: u64,
    done: AtomicBool,
}

impl<F: FnOnce() -> R + Send, R: Send> StackJob<F, R> {
    fn new(func: F, tag: u64) -> Self {
        StackJob {
            func: UnsafeCell::new(Some(func)),
            result: UnsafeCell::new(None),
            tag,
            done: AtomicBool::new(false),
        }
    }

    /// Queue this job (recording its spawn).
    fn push(&self, shared: &Shared) {
        ring::record(ring::EventKind::Spawn, self.tag, 0);
        shared.push(self.job_ref());
    }

    /// The job's outcome; only after its latch was observed set.
    fn into_result(self) -> std::thread::Result<R> {
        self.result.into_inner().expect("stack job result is set before its latch")
    }

    fn job_ref(&self) -> JobRef {
        JobRef { data: self as *const Self as *const (), execute: Self::execute }
    }

    /// # Safety
    /// `data` points at a live `StackJob<F, R>` whose `done` is unset,
    /// and this is the only execution of it.
    unsafe fn execute(data: *const ()) {
        let this = unsafe { &*(data as *const Self) };
        // SAFETY: the joiner touches `func` and `result` only after
        // `done` is set, which happens below.
        let f = unsafe { (*this.func.get()).take() }.expect("stack job runs once");
        let rec = ring::is_recording();
        if rec {
            ring::record(ring::EventKind::Start, this.tag, 0);
        }
        let result = catch_unwind(AssertUnwindSafe(f));
        if rec {
            ring::record(ring::EventKind::Finish, this.tag, 0);
        }
        unsafe { *this.result.get() = Some(result) };
        let shared = &global().shared;
        this.done.store(true, Ordering::SeqCst);
        // `this` may be gone from here on.
        shared.wake_joiners();
    }
}

/// Run two closures, potentially in parallel, returning both results.
/// `b` is queued on the pool while `a` runs on the calling thread, which
/// then helps with queued work (possibly `b` itself) until `b` has
/// finished.
///
/// `b` lives in this call's stack frame rather than on the heap, so once
/// the pool's deques are warm a `join` performs no allocation. If either
/// closure panics, the panic is re-thrown here only after both have
/// finished (`a`'s first when both panic).
///
/// ```
/// let v: Vec<u64> = (1..=100).collect();
/// let (lo, hi) = v.split_at(50);
/// let (a, b) = pool::join(|| lo.iter().sum::<u64>(), || hi.iter().sum::<u64>());
/// assert_eq!(a + b, 5050);
/// ```
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA,
    B: FnOnce() -> RB + Send,
    RB: Send,
{
    join_tagged(0, a, b)
}

/// [`join`] with a timeline tag on the queued closure: when event
/// recording is on ([`ring::start_recording`]) its spawn/start/finish
/// ring events carry `tag`, as for [`Scope::spawn_tagged`]. The tag
/// never affects scheduling or execution.
pub fn join_tagged<A, B, RA, RB>(tag: u64, a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA,
    B: FnOnce() -> RB + Send,
    RB: Send,
{
    let shared = &global().shared;
    let job = StackJob::new(b, tag);
    job.push(shared);
    let ra = catch_unwind(AssertUnwindSafe(a));
    // Never return (or unwind) before `b` has finished with this frame.
    shared.wait_until(|| job.done.load(Ordering::SeqCst));
    match (ra, job.into_result()) {
        (Err(payload), _) | (Ok(_), Err(payload)) => resume_unwind(payload),
        (Ok(ra), Ok(rb)) => (ra, rb),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    /// Every test pins the pool to 4 workers before first use so the
    /// multi-worker assertions hold on single-CPU machines too. Only the
    /// first call wins; calling it from each test makes the suite
    /// order-independent.
    fn init() {
        let _ = set_num_threads(4);
    }

    #[test]
    fn scope_runs_all_tasks() {
        init();
        let counter = AtomicUsize::new(0);
        scope(|s| {
            for _ in 0..100 {
                s.spawn(|| {
                    counter.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn scoped_borrows_of_disjoint_chunks() {
        init();
        let mut v = vec![0u32; 64];
        scope(|s| {
            for (i, chunk) in v.chunks_mut(8).enumerate() {
                s.spawn(move || {
                    for x in chunk {
                        *x = i as u32 + 1;
                    }
                });
            }
        });
        for (i, &x) in v.iter().enumerate() {
            assert_eq!(x, (i / 8) as u32 + 1);
        }
    }

    #[test]
    fn spawn_at_runs_and_borrows_like_spawn() {
        init();
        let mut v = [0u32; 32];
        scope(|s| {
            for (i, chunk) in v.chunks_mut(8).enumerate() {
                // Pin every chunk to the same worker: correctness must
                // not depend on where a hinted job lands.
                s.spawn_at(2, move || {
                    for x in chunk {
                        *x = i as u32 + 1;
                    }
                });
            }
        });
        for (i, &x) in v.iter().enumerate() {
            assert_eq!(x, (i / 8) as u32 + 1);
        }
    }

    #[test]
    fn nested_scopes_do_not_deadlock() {
        init();
        let total = AtomicUsize::new(0);
        scope(|outer| {
            for _ in 0..4 {
                outer.spawn(|| {
                    scope(|inner| {
                        for _ in 0..4 {
                            inner.spawn(|| {
                                total.fetch_add(1, Ordering::Relaxed);
                            });
                        }
                    });
                });
            }
        });
        assert_eq!(total.load(Ordering::Relaxed), 16);
    }

    #[test]
    fn task_panic_propagates_and_pool_survives() {
        init();
        let ran_other = AtomicUsize::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            scope(|s| {
                s.spawn(|| panic!("boom in task"));
                s.spawn(|| {
                    ran_other.fetch_add(1, Ordering::Relaxed);
                });
            });
        }));
        assert!(result.is_err(), "scope should re-throw the task panic");
        // Sibling tasks of the panicking one still completed.
        assert_eq!(ran_other.load(Ordering::Relaxed), 1);
        // And the pool is still alive.
        let counter = AtomicUsize::new(0);
        scope(|s| {
            s.spawn(|| {
                counter.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(counter.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn join_returns_both() {
        init();
        let (a, b) = join(|| 2 + 2, || "forty".len());
        assert_eq!((a, b), (4, 5));
    }

    #[test]
    fn workers_participate() {
        init();
        // Three tasks that can only finish together: the helping caller
        // can run at most one of them, so with 4 workers at least two
        // distinct workers must pick one up — whatever the OS schedules.
        let before = worker_job_counts();
        let barrier = std::sync::Barrier::new(3);
        scope(|s| {
            for _ in 0..3 {
                s.spawn(|| {
                    barrier.wait();
                });
            }
        });
        let after = worker_job_counts();
        let active = before.iter().zip(&after).filter(|(b, a)| a > b).count();
        assert!(active >= 2, "only {active} of {} workers ran tasks", after.len());
    }

    #[test]
    fn stats_account_for_every_job() {
        init();
        // Other tests in this binary share the global pool and can run
        // jobs inside the bracket; like the ring reconciliation test,
        // retry the whole bracket until one with quiet edges shows only
        // this test's jobs.
        let mut executed = Vec::new();
        let (before, after, delta) = loop {
            let before = pool_stats();
            for _ in 0..4 {
                scope(|s| {
                    for _ in 0..32 {
                        s.spawn(|| {
                            std::hint::black_box((0..50_000).sum::<u64>());
                        });
                    }
                });
            }
            // Concurrent tests may hold the pool mid-increment; retry until
            // a consistent snapshot appears (immediate when quiescent).
            let mut after = pool_stats();
            for _ in 0..100 {
                if after.workers.iter().all(|w| w.own_pops + w.steals == w.jobs) {
                    break;
                }
                std::thread::sleep(Duration::from_millis(5));
                after = pool_stats();
            }
            let delta = after.since(&before);
            executed.push(delta.total_jobs() + delta.helper_pops);
            if executed.last() == Some(&(4 * 32)) || executed.len() == 10 {
                break (before, after, delta);
            }
        };
        // Every job this test spawned ran on a worker or a helper.
        assert_eq!(delta.total_jobs() + delta.helper_pops, 4 * 32, "jobs per bracket: {executed:?}");
        // One wake notification per push.
        assert!(delta.wake_notifies >= 4 * 32);
        // Attribution: each executed job came from exactly one pop kind.
        for (i, w) in after.workers.iter().enumerate() {
            assert_eq!(w.own_pops + w.steals, w.jobs, "worker {i}: pops must equal jobs");
        }
        // Busy time is monotonic and consistent with the legacy counter.
        for (w_after, w_before) in after.workers.iter().zip(&before.workers) {
            assert!(w_after.busy_ns >= w_before.busy_ns);
            assert!(w_after.jobs >= w_before.jobs);
        }
        assert_eq!(
            worker_job_counts(),
            pool_stats().workers.iter().map(|w| w.jobs).collect::<Vec<_>>(),
            "pool_stats and worker_job_counts must agree"
        );
    }

    #[test]
    fn stats_since_and_utilization() {
        // Pure snapshot arithmetic — no pool interaction.
        let w = |jobs, busy_ns| WorkerStats { jobs, own_pops: jobs, steals: 0, busy_ns, parks: 0 };
        let before = PoolStats { workers: vec![w(2, 100), w(1, 50)], helper_pops: 1, wake_notifies: 4 };
        let after = PoolStats { workers: vec![w(5, 400), w(1, 50)], helper_pops: 2, wake_notifies: 9 };
        let d = after.since(&before);
        assert_eq!(d.workers[0], w(3, 300));
        assert_eq!(d.workers[1], w(0, 0));
        assert_eq!(d.helper_pops, 1);
        assert_eq!(d.wake_notifies, 5);
        assert_eq!(d.total_jobs(), 3);
        assert_eq!(d.total_busy_ns(), 300);
        // 300 busy ns over 2 workers × 1000 ns wall = 15%.
        assert!((d.utilization(1000) - 0.15).abs() < 1e-12);
        assert_eq!(PoolStats::default().utilization(1000), 0.0);
        assert_eq!(d.utilization(0), 0.0);
    }

    #[test]
    fn thread_count_is_positive_and_resize_is_reported() {
        init();
        assert!(current_num_threads() >= 1);
        let n = current_num_threads();
        // Asking for the running count is idempotent…
        assert_eq!(set_num_threads(n), Ok(()));
        // …while a mismatch is a typed, displayable error.
        let err = set_num_threads(n + 12).unwrap_err();
        assert_eq!(err, PoolAlreadyRunning { running: n, requested: n + 12 });
        assert!(err.to_string().contains("already running"));
        assert_eq!(current_num_threads(), n, "rejected resize must not change the pool");
    }

    #[test]
    fn machine_threads_is_positive() {
        assert!(machine_threads() >= 1);
    }

    #[test]
    fn pin_once_observes_and_never_resizes() {
        init();
        // Whatever decided the size (env, an earlier staging, or this
        // call), `pin_once` must return the running count and stay
        // idempotent: later pins with other values merely observe.
        let effective = pin_once(9);
        assert_eq!(effective, current_num_threads());
        assert_eq!(pin_once(1), effective, "second pin must not resize");
        assert_eq!(pin_once(64), effective, "third pin must not resize");
        // And the pool is genuinely running afterwards, so a mismatched
        // explicit resize is a truthful typed error, not a silent stage.
        if effective != 9 {
            assert!(set_num_threads(9).is_err());
        }
    }
}
