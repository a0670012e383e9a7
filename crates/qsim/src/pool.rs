//! A persistent shard pool with one task queue.
//!
//! The assertion-sweep experiments issue thousands of short
//! [`Backend::run_compiled`](crate::Backend::run_compiled) calls — one
//! instrumented circuit per assertion point per noise level. Spawning
//! scoped threads per call (the previous sharding strategy) pays thread
//! creation and teardown on every one of them; this module amortizes
//! that cost to ~zero with a process-wide pool of worker threads that
//! outlives individual calls.
//!
//! # Design
//!
//! One FIFO task queue behind a `Mutex` and one `Condvar` its workers
//! park on, built directly on `std::thread` (the build environment has
//! no access to a crates registry, so rayon itself is unavailable):
//!
//! * submission pushes tasks on the **back** of the queue and wakes
//!   parked workers; a worker checks for an empty queue under the same
//!   lock before it parks, so wakeups cannot be lost,
//! * a worker pops the **front** (the oldest task) and runs it,
//! * the thread *waiting* in [`ShardPool::run_batch`] or
//!   [`ShardPool::scope`] runs tasks too, but only tasks of the latch it
//!   awaits, **newest first** (so it and the workers take from opposite
//!   ends), and parks on that latch once none of them is queued. A pool
//!   is therefore productive even on a single core, and worker count 0
//!   degrades to inline execution.
//!
//! A waiting thread never runs another latch's task, so it stacks only
//! the frames its own work nests: stack depth is bounded by how deeply
//! the workload nests pool calls, never by queue length. Nested waits
//! cannot deadlock on any worker count either. Every task of a latch is
//! queued before its thread starts waiting (a batch queues all of them
//! up front, a scope's body submits them before the scope waits), so a
//! waiter that finds none of its tasks queued waits only for tasks
//! already running on other threads — and each of those finishes by the
//! same argument one nesting level down.
//!
//! # Determinism
//!
//! The pool schedules *which thread* runs a shard, never *what* a shard
//! computes: shard seeding, shard sizing, and merge order are fixed by
//! the caller ([`crate::run_compiled_sharded`]) before submission.
//! Results are therefore bit-identical for a given `(seed, threads)`
//! regardless of pool size or which thread ran which task — the
//! equivalence suite pins pooled execution against the scoped-thread
//! reference shard-for-shard.
//!
//! # Lifetime erasure
//!
//! [`ShardPool::run_batch`] and [`PoolScope::submit`] accept
//! non-`'static` closures: tasks borrow the caller's compiled program
//! and result slots. The borrow is sound because neither `run_batch` nor
//! [`ShardPool::scope`] returns until every submitted task has finished
//! running (tracked by an atomic countdown latch), exactly like
//! `std::thread::scope`.
//!
//! # Latch groups
//!
//! [`ShardPool::scope`] opens a **latch group**: tasks can be submitted
//! one by one across the scope body (a sweep submits one task per
//! point), nested submissions are legal (a point task's shot shards
//! submit sub-batches to the same fixed worker set without deadlock, see
//! the design above), and the scope returns the group's own
//! [`PoolStats`]: exactly the tasks run on behalf of this scope,
//! including tasks transitively submitted from inside its tasks. Group
//! attribution is how sweep telemetry stays exact when several sweeps
//! share the process-wide pool concurrently — global counter deltas
//! would cross-count each other's tasks.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// Worker stack size: a worker runs whole sweep points (lowered
/// programs, simulation, and the nested shard waits), so give it a main
/// thread's headroom rather than the 2 MiB spawned-thread default.
const WORKER_STACK: usize = 8 << 20;

thread_local! {
    /// The latch group of the task currently executing on this thread,
    /// if any. Tasks submitted while a group is current (nested
    /// `run_batch` shards, nested scope submissions through
    /// [`ShardPool::run_batch`]) inherit it, so group counters cover a
    /// scope's work transitively.
    static CURRENT_GROUP: RefCell<Option<Arc<Group>>> = const { RefCell::new(None) };
    /// Nested [`run_task`] frames on this thread's stack.
    static NEST_DEPTH: Cell<usize> = const { Cell::new(0) };
}

/// A clone of the calling thread's current attribution group.
fn current_group() -> Option<Arc<Group>> {
    CURRENT_GROUP.with(|g| g.borrow().clone())
}

/// The calling thread's current nested task depth (test instrumentation
/// for the stack-bound guarantee; not part of the public API).
#[doc(hidden)]
pub fn nest_depth() -> usize {
    NEST_DEPTH.with(Cell::get)
}

/// A point-in-time snapshot of a pool's execution counters.
///
/// Counters are lifetime totals over the pool (process-wide for
/// [`ShardPool::global`]); take deltas with [`PoolStats::since`] to
/// attribute activity to one workload.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Tasks executed to completion (by workers, by waiting submitters,
    /// and inline when a batch bypasses the queue).
    pub tasks_run: u64,
    /// Tasks a pool worker ran for the thread waiting on them, rather
    /// than that thread running them itself. Scheduling-dependent.
    pub steals: u64,
}

impl PoolStats {
    /// The activity between `earlier` and `self` (counters are
    /// monotonic, so a plain field-wise difference).
    pub fn since(&self, earlier: &PoolStats) -> PoolStats {
        PoolStats {
            tasks_run: self.tasks_run - earlier.tasks_run,
            steals: self.steals - earlier.steals,
        }
    }
}

/// A point-in-time load snapshot of a pool: sizing plus instantaneous
/// queue depth.
///
/// Unlike [`PoolStats`] (monotonic lifetime counters), gauges describe
/// *now*: admission controllers and health endpoints read them to
/// report load without deltaing counters across racing workloads.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolGauges {
    /// Dedicated worker threads (0 for an inline pool).
    pub workers: usize,
    /// Tasks currently queued and not yet picked up. A momentary
    /// snapshot: tasks in flight on a thread no longer count, tasks
    /// queued after the read are missed.
    pub queue_depth: usize,
}

/// A lifetime-erased unit of work (see the module docs on why the
/// transmutes in [`ShardPool::run_batch`] and [`PoolScope::submit`] are
/// sound), tagged with the latch group its execution is attributed to.
struct Task {
    run: Box<dyn FnOnce() + Send + 'static>,
    /// The group charged for this task's execution: the submitting
    /// scope's for scope tasks, the submitting *thread's* current group
    /// for batch tasks (nested shards inherit their point's group).
    group: Option<Arc<Group>>,
    /// The completion latch this task counts down — its batch's for
    /// [`ShardPool::run_batch`] tasks, its scope's for
    /// [`PoolScope::submit`] tasks. A waiting thread runs only tasks of
    /// the latch it awaits.
    latch: Arc<Group>,
}

/// The completion latch (and, for scopes, execution counters) of one
/// [`ShardPool::run_batch`] batch or [`ShardPool::scope`] latch group.
struct Group {
    /// Tasks belonging to the latch and not yet finished (preset for
    /// batches, incremented per submission for scopes).
    remaining: AtomicUsize,
    /// Set when any task of the latch panicked (re-raised on the
    /// waiting thread once the latch drains).
    poisoned: AtomicBool,
    /// Signals the waiting thread when `remaining` reaches zero.
    done: Mutex<()>,
    cv: Condvar,
    /// Tasks run on behalf of this group (directly submitted or
    /// transitively inherited; scope attribution only).
    tasks_run: AtomicU64,
    /// Group tasks a pool worker ran (scope attribution only).
    steals: AtomicU64,
}

impl Group {
    fn new(remaining: usize) -> Arc<Group> {
        Arc::new(Group {
            remaining: AtomicUsize::new(remaining),
            poisoned: AtomicBool::new(false),
            done: Mutex::new(()),
            cv: Condvar::new(),
            tasks_run: AtomicU64::new(0),
            steals: AtomicU64::new(0),
        })
    }

    /// Marks one latch task finished, waking the waiter on the last one.
    fn complete_one(&self) {
        if self.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            let _guard = self.done.lock().expect("group lock");
            self.cv.notify_all();
        }
    }

    /// Parks until every latch task has finished. The notifier takes
    /// `done` after its decrement, so either this re-check sees zero or
    /// the notify arrives after the wait began.
    fn wait_done(&self) {
        let mut guard = self.done.lock().expect("group lock");
        while self.remaining.load(Ordering::Acquire) > 0 {
            guard = self.cv.wait(guard).expect("group wait");
        }
    }

    fn stats(&self) -> PoolStats {
        PoolStats {
            tasks_run: self.tasks_run.load(Ordering::Relaxed),
            steals: self.steals.load(Ordering::Relaxed),
        }
    }
}

/// Executes a queued (or inline) task: charges the shared counters and
/// the task's group counters, runs it with the group installed as the
/// thread's current group so nested submissions inherit it, and counts
/// its latch down. A panic poisons the latch instead of unwinding
/// through the pool.
fn run_task(shared: &Shared, task: Task, by_worker: bool) {
    shared.tasks_run.fetch_add(1, Ordering::Relaxed);
    if by_worker {
        shared.steals.fetch_add(1, Ordering::Relaxed);
    }
    if let Some(group) = &task.group {
        group.tasks_run.fetch_add(1, Ordering::Relaxed);
        if by_worker {
            group.steals.fetch_add(1, Ordering::Relaxed);
        }
    }
    // Install the task's group (or clear a stale one: an unattributed
    // task must not charge the running thread's group) and bump the
    // nest depth; the task's unwind is caught, so the restores are
    // always reached.
    let prev = CURRENT_GROUP.with(|g| g.replace(task.group));
    NEST_DEPTH.with(|d| d.set(d.get() + 1));
    if catch_unwind(AssertUnwindSafe(task.run)).is_err() {
        task.latch.poisoned.store(true, Ordering::Release);
    }
    NEST_DEPTH.with(|d| d.set(d.get() - 1));
    CURRENT_GROUP.with(|g| g.replace(prev));
    // Last: once the latch drains, the waiter may free what the task
    // borrowed.
    task.latch.complete_one();
}

/// The lazily-created process-wide pool ([`ShardPool::global`]).
static GLOBAL_POOL: OnceLock<ShardPool> = OnceLock::new();

/// State shared between workers and submitters.
struct Shared {
    /// Queued tasks, oldest first: workers pop the front, waiting
    /// threads take their own latch's newest.
    queue: Mutex<VecDeque<Task>>,
    /// Idle workers park here until a push or [`ShardPool::drop`].
    ready: Condvar,
    /// Set (under the queue lock) by [`ShardPool::drop`]: workers exit
    /// once the queue is empty.
    stop: AtomicBool,
    /// Tasks run, queued or inline.
    tasks_run: AtomicU64,
    /// Tasks a worker popped from the queue.
    steals: AtomicU64,
}

impl Shared {
    /// Queues `tasks` at the back and wakes parked workers.
    fn push(&self, tasks: impl IntoIterator<Item = Task>) {
        let mut queue = self.queue.lock().expect("queue lock");
        let before = queue.len();
        queue.extend(tasks);
        let added = queue.len() - before;
        drop(queue);
        if added == 1 {
            self.ready.notify_one();
        } else {
            self.ready.notify_all();
        }
    }

    /// Removes the newest queued task of `latch`, if any.
    fn take_newest(&self, latch: &Arc<Group>) -> Option<Task> {
        let mut queue = self.queue.lock().expect("queue lock");
        let i = queue.iter().rposition(|t| Arc::ptr_eq(&t.latch, latch))?;
        queue.remove(i)
    }
}

/// A persistent pool of shard workers shared across all backends.
///
/// Most callers go through [`ShardPool::global`] (used by
/// [`crate::run_compiled_sharded`]); tests and benchmarks build private
/// pools with [`ShardPool::new`] to pin behavior across worker counts.
pub struct ShardPool {
    shared: Arc<Shared>,
    workers: usize,
    /// Worker join handles, reaped by [`Drop`] (empty for the global
    /// pool only in the sense that it is never dropped).
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl ShardPool {
    /// Creates a pool with `workers` dedicated worker threads.
    ///
    /// `workers == 0` is valid: every batch then runs inline on the
    /// submitting thread (useful for tests pinning determinism).
    ///
    /// Dropping the pool stops and joins its workers (outstanding
    /// batches cannot exist at that point — [`ShardPool::run_batch`]
    /// borrows the pool until its batch drains).
    pub fn new(workers: usize) -> Self {
        let shared = Arc::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
            stop: AtomicBool::new(false),
            tasks_run: AtomicU64::new(0),
            steals: AtomicU64::new(0),
        });
        let mut handles = Vec::with_capacity(workers);
        for w in 0..workers {
            let shared = Arc::clone(&shared);
            handles.push(
                std::thread::Builder::new()
                    .name(format!("qsim-shard-{w}"))
                    .stack_size(WORKER_STACK)
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn shard worker"),
            );
        }
        ShardPool {
            shared,
            workers,
            handles,
        }
    }

    /// The process-wide pool, sized to the machine (one worker per
    /// available core, capped so the submitting thread — which executes
    /// tasks too — is counted).
    pub fn global() -> &'static ShardPool {
        GLOBAL_POOL.get_or_init(|| {
            let cores = std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1);
            ShardPool::new(cores.saturating_sub(1))
        })
    }

    /// [`ShardPool::stats`] of the global pool **without creating it**:
    /// zeros when no sharded execution has started the pool yet.
    /// Telemetry readers use this so that merely *observing* counters
    /// never spawns the worker threads.
    pub fn global_stats() -> PoolStats {
        GLOBAL_POOL.get().map(ShardPool::stats).unwrap_or_default()
    }

    /// Number of dedicated worker threads (the submitter adds one more
    /// executing thread to every batch).
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Tasks currently queued and not yet picked up. A momentary gauge
    /// (see [`PoolGauges`]): the read takes the queue lock briefly and
    /// never blocks behind task execution (tasks run outside the lock).
    pub fn queue_depth(&self) -> usize {
        self.shared.queue.lock().expect("queue lock").len()
    }

    /// The pool's current [`PoolGauges`] snapshot.
    pub fn gauges(&self) -> PoolGauges {
        PoolGauges {
            workers: self.workers,
            queue_depth: self.queue_depth(),
        }
    }

    /// [`ShardPool::gauges`] of the global pool **without creating
    /// it**: a default (zero-worker, empty-queue) snapshot when no
    /// sharded execution has started the pool yet. Like
    /// [`ShardPool::global_stats`], merely observing load never spawns
    /// the worker threads.
    pub fn global_gauges() -> PoolGauges {
        GLOBAL_POOL.get().map(ShardPool::gauges).unwrap_or_default()
    }

    /// Lifetime execution counters: tasks run and steals. For the
    /// global pool these aggregate every workload in the process —
    /// attribute activity to one caller with [`PoolStats::since`]
    /// deltas taken while nothing else submits.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            tasks_run: self.shared.tasks_run.load(Ordering::Relaxed),
            steals: self.shared.steals.load(Ordering::Relaxed),
        }
    }

    /// Runs `run(0), run(1), …, run(tasks - 1)` across the pool and the
    /// calling thread, returning once all have finished.
    ///
    /// Task *outputs* must flow through `run`'s captured state (e.g. a
    /// slot per index); the pool imposes no ordering between tasks, so
    /// captured state must be safe for concurrent per-index writes.
    ///
    /// # Panics
    ///
    /// Re-raises (as a panic on the calling thread) if any task
    /// panicked, after the whole batch has drained.
    pub fn run_batch<F>(&self, tasks: usize, run: F)
    where
        F: Fn(usize) + Send + Sync,
    {
        if tasks == 0 {
            return;
        }
        if tasks == 1 || self.workers == 0 {
            for i in 0..tasks {
                run(i);
            }
            self.shared
                .tasks_run
                .fetch_add(tasks as u64, Ordering::Relaxed);
            // Inline execution still belongs to the enclosing scope, if
            // any: a point task's single-shard run counts as its work.
            if let Some(group) = current_group() {
                group.tasks_run.fetch_add(tasks as u64, Ordering::Relaxed);
            }
            return;
        }

        let batch = Group::new(tasks);
        // Tasks of this batch are attributed to the *submitting thread's*
        // group: a shard batch submitted from inside a scope task (a
        // sweep point running its shots) charges that scope.
        let inherited = current_group();
        let run = &run;
        // The closures borrow `run` from this stack frame; the wait
        // below guarantees the frame outlives them.
        let queued: Vec<Task> = (0..tasks)
            .map(|i| {
                let task: Box<dyn FnOnce() + Send + '_> = Box::new(move || run(i));
                // SAFETY: `run_batch` blocks until `batch.remaining`
                // hits zero, i.e. until every queued closure has run to
                // completion, so the borrowed `run` outlives all tasks.
                let task: Box<dyn FnOnce() + Send + 'static> = unsafe { std::mem::transmute(task) };
                Task {
                    run: task,
                    group: inherited.clone(),
                    latch: Arc::clone(&batch),
                }
            })
            .collect();
        self.shared.push(queued);
        self.wait_for(&batch);

        if batch.poisoned.load(Ordering::Acquire) {
            panic!("shard task panicked");
        }
    }

    /// Opens a **latch group** over the pool: `f` receives a
    /// [`PoolScope`] through which it submits any number of tasks, and
    /// `scope` returns — after every submitted task (including tasks
    /// still in flight when `f` returns) has finished — `f`'s result
    /// plus the group's own [`PoolStats`]: exactly the tasks run on
    /// behalf of this scope, *including* tasks transitively submitted
    /// from inside scope tasks (a point task's nested shard batches).
    ///
    /// Unlike [`ShardPool::run_batch`], tasks need not be known up
    /// front, and the scoping thread keeps running `f` while early
    /// submissions already execute. Nested use is deadlock-free on any
    /// worker count (including zero): once `f` returns, the scoping
    /// thread runs the scope's queued tasks itself and waits only for
    /// those already running elsewhere.
    ///
    /// # Panics
    ///
    /// Re-raises (after the whole group has drained) if `f` or any
    /// submitted task panicked.
    pub fn scope<'env, F, R>(&'env self, f: F) -> (R, PoolStats)
    where
        F: FnOnce(&PoolScope<'env>) -> R,
    {
        let scope = PoolScope {
            pool: self,
            group: Group::new(0),
            _invariant: std::marker::PhantomData,
        };
        // Drain before unwinding out of a panicking `f`: in-flight tasks
        // may borrow `f`'s frame.
        let result = catch_unwind(AssertUnwindSafe(|| f(&scope)));
        self.wait_for(&scope.group);
        let stats = scope.group.stats();
        match result {
            Ok(value) => {
                if scope.group.poisoned.load(Ordering::Acquire) {
                    panic!("scoped pool task panicked");
                }
                (value, stats)
            }
            Err(payload) => std::panic::resume_unwind(payload),
        }
    }

    /// Returns once every task of `latch` has finished: runs the
    /// latch's queued tasks on the calling thread, newest first, then
    /// parks on the latch while the rest finish on other threads. Every
    /// task of the latch was queued before the wait began, so none can
    /// appear once the queue holds none.
    fn wait_for(&self, latch: &Arc<Group>) {
        while let Some(task) = self.shared.take_newest(latch) {
            run_task(&self.shared, task, false);
        }
        latch.wait_done();
    }
}

/// Submission handle of one [`ShardPool::scope`] latch group.
pub struct PoolScope<'p> {
    pool: &'p ShardPool,
    group: Arc<Group>,
    /// Invariance over `'p`. Without it `PoolScope` would be covariant,
    /// and the borrow checker could shrink `'p` at a `submit` call site
    /// — accepting tasks that capture borrows dying before the scope
    /// drains (a use-after-free once the lifetime is erased). Same trick
    /// as `std::thread::scope`'s `Scope`.
    _invariant: std::marker::PhantomData<&'p mut &'p ()>,
}

impl<'p> PoolScope<'p> {
    /// Submits one task to the scope's group. The task may borrow data
    /// that outlives the [`ShardPool::scope`] call (result slots
    /// declared before the call); [`ShardPool::scope`] does not return
    /// until every submitted task has finished, exactly like
    /// `std::thread::scope`.
    ///
    /// On a pool with zero workers the task runs inline, preserving the
    /// pool's single-core degradation.
    pub fn submit<F>(&self, task: F)
    where
        F: FnOnce() + Send + 'p,
    {
        self.group.remaining.fetch_add(1, Ordering::AcqRel);
        let run: Box<dyn FnOnce() + Send + 'p> = Box::new(task);
        // SAFETY: `ShardPool::scope` drains the group before returning
        // (even when its body panics), so every borrow the task captures
        // outlives the task's execution.
        let run: Box<dyn FnOnce() + Send + 'static> = unsafe { std::mem::transmute(run) };
        let task = Task {
            run,
            group: Some(Arc::clone(&self.group)),
            latch: Arc::clone(&self.group),
        };
        if self.pool.workers == 0 {
            run_task(&self.pool.shared, task, false);
        } else {
            self.pool.shared.push([task]);
        }
    }

    /// Runs `f` on the calling thread with this scope installed as the
    /// thread's attribution group: pool work `f` triggers indirectly
    /// (nested [`ShardPool::run_batch`] shard tasks, inline runs) is
    /// charged to the scope's [`PoolStats`] even though `f` itself never
    /// became a task. Serial sweep paths use this so serial and parallel
    /// execution attribute their pool activity identically.
    pub fn run_attributed<R>(&self, f: impl FnOnce() -> R) -> R {
        /// Restores the previous group even when `f` unwinds.
        struct Restore(Option<Arc<Group>>);
        impl Drop for Restore {
            fn drop(&mut self) {
                let prev = self.0.take();
                CURRENT_GROUP.with(|g| g.replace(prev));
            }
        }
        let _restore = Restore(CURRENT_GROUP.with(|g| g.replace(Some(Arc::clone(&self.group)))));
        f()
    }

    /// The group's counters so far. Exact once [`ShardPool::scope`] has
    /// returned (the scope's return value includes the final snapshot);
    /// mid-scope reads race in-flight tasks.
    pub fn stats(&self) -> PoolStats {
        self.group.stats()
    }
}

impl Drop for ShardPool {
    /// Stops and joins the workers. Sound with respect to in-flight
    /// work: `run_batch` holds `&self` until its batch has fully
    /// drained, so no tasks can be queued or running once `drop` has
    /// exclusive access — workers observe `stop` on an empty queue and
    /// exit.
    fn drop(&mut self) {
        {
            let _queue = self.shared.queue.lock().expect("queue lock");
            self.shared.stop.store(true, Ordering::Release);
        }
        self.shared.ready.notify_all();
        for handle in self.handles.drain(..) {
            handle.join().expect("shard worker exited cleanly");
        }
    }
}

impl std::fmt::Debug for ShardPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ShardPool {{ workers: {} }}", self.workers)
    }
}

/// The worker main loop: pop the queue's front, park on the queue's
/// condvar while it is empty, exit (with an empty queue) once the pool
/// stops.
fn worker_loop(shared: &Shared) {
    let mut queue = shared.queue.lock().expect("queue lock");
    loop {
        if let Some(task) = queue.pop_front() {
            drop(queue);
            run_task(shared, task, true);
            queue = shared.queue.lock().expect("queue lock");
        } else if shared.stop.load(Ordering::Acquire) {
            return;
        } else {
            queue = shared.ready.wait(queue).expect("worker wait");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn run_batch_executes_every_index_exactly_once() {
        let pool = ShardPool::new(3);
        let hits: Vec<AtomicU64> = (0..64).map(|_| AtomicU64::new(0)).collect();
        pool.run_batch(64, |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        for (i, h) in hits.iter().enumerate() {
            assert_eq!(h.load(Ordering::Relaxed), 1, "index {i}");
        }
    }

    #[test]
    fn zero_worker_pool_runs_inline() {
        let pool = ShardPool::new(0);
        assert_eq!(pool.workers(), 0);
        let sum = AtomicU64::new(0);
        pool.run_batch(10, |i| {
            sum.fetch_add(i as u64, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 45);
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        ShardPool::new(1).run_batch(0, |_| panic!("must not run"));
    }

    #[test]
    fn sequential_batches_reuse_the_pool() {
        let pool = ShardPool::new(2);
        for round in 0..50u64 {
            let sum = AtomicU64::new(0);
            pool.run_batch(8, |i| {
                sum.fetch_add(round + i as u64, Ordering::Relaxed);
            });
            assert_eq!(sum.load(Ordering::Relaxed), 8 * round + 28);
        }
    }

    #[test]
    fn concurrent_submitters_share_one_pool() {
        let pool = ShardPool::new(2);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    let sum = AtomicU64::new(0);
                    pool.run_batch(32, |i| {
                        sum.fetch_add(i as u64, Ordering::Relaxed);
                    });
                    assert_eq!(sum.load(Ordering::Relaxed), 496);
                });
            }
        });
    }

    #[test]
    fn panicking_task_poisons_the_batch_but_drains_it() {
        let pool = ShardPool::new(2);
        let ran = AtomicU64::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.run_batch(16, |i| {
                ran.fetch_add(1, Ordering::Relaxed);
                if i == 7 {
                    panic!("boom");
                }
            });
        }));
        assert!(result.is_err(), "panic must propagate to the submitter");
        assert_eq!(ran.load(Ordering::Relaxed), 16, "all tasks still ran");
        // The pool stays usable afterwards.
        let sum = AtomicU64::new(0);
        pool.run_batch(4, |i| {
            sum.fetch_add(i as u64, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 6);
    }

    #[test]
    fn stats_count_every_task_and_bound_steals() {
        let pool = ShardPool::new(2);
        let before = pool.stats();
        pool.run_batch(32, |_| {});
        pool.run_batch(16, |_| {});
        let delta = pool.stats().since(&before);
        assert_eq!(delta.tasks_run, 48);
        assert!(delta.steals <= delta.tasks_run);

        // The inline paths (single task / zero workers) count too.
        pool.run_batch(1, |_| {});
        assert_eq!(pool.stats().since(&before).tasks_run, 49);
        let inline_pool = ShardPool::new(0);
        inline_pool.run_batch(5, |_| {});
        assert_eq!(
            inline_pool.stats(),
            PoolStats {
                tasks_run: 5,
                steals: 0
            }
        );
    }

    #[test]
    fn scope_runs_every_submission_and_counts_exactly() {
        let pool = ShardPool::new(3);
        let hits: Vec<AtomicU64> = (0..40).map(|_| AtomicU64::new(0)).collect();
        let ((), stats) = pool.scope(|scope| {
            for (i, hit) in hits.iter().enumerate() {
                scope.submit(move || {
                    hit.fetch_add(i as u64 + 1, Ordering::Relaxed);
                });
            }
        });
        for (i, h) in hits.iter().enumerate() {
            assert_eq!(h.load(Ordering::Relaxed), i as u64 + 1, "index {i}");
        }
        assert_eq!(stats.tasks_run, 40, "group stats count exactly the scope");
        assert!(stats.steals <= stats.tasks_run);
    }

    #[test]
    fn scope_on_zero_worker_pool_runs_inline() {
        let pool = ShardPool::new(0);
        let sum = AtomicU64::new(0);
        let ((), stats) = pool.scope(|scope| {
            let sum = &sum;
            for i in 0..10u64 {
                scope.submit(move || {
                    sum.fetch_add(i, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(sum.load(Ordering::Relaxed), 45);
        assert_eq!(stats.tasks_run, 10);
        assert_eq!(stats.steals, 0);
    }

    #[test]
    fn nested_batches_inherit_the_scope_group() {
        // A scope task that runs a batch charges the batch's tasks to
        // the scope — the attribution path sweep telemetry relies on.
        for workers in [0, 1, 3] {
            let pool = ShardPool::new(workers);
            let sum = AtomicU64::new(0);
            let ((), stats) = pool.scope(|scope| {
                for _ in 0..4 {
                    scope.submit(|| {
                        pool.run_batch(8, |i| {
                            sum.fetch_add(i as u64, Ordering::Relaxed);
                        });
                    });
                }
            });
            assert_eq!(sum.load(Ordering::Relaxed), 4 * 28);
            assert_eq!(
                stats.tasks_run,
                4 + 4 * 8,
                "4 scope tasks + 32 inherited batch tasks ({workers} workers)"
            );
        }
    }

    #[test]
    fn concurrent_scopes_do_not_cross_attribute() {
        // Two scopes sharing one pool: each group's counters cover its
        // own submissions only, while the global counters cover both.
        let pool = ShardPool::new(2);
        let before = pool.stats();
        std::thread::scope(|threads| {
            let mut handles = Vec::new();
            for n in [16u64, 48] {
                let pool = &pool;
                handles.push(threads.spawn(move || {
                    let ((), stats) = pool.scope(|scope| {
                        for _ in 0..n {
                            scope.submit(|| {
                                std::hint::black_box(0u64);
                            });
                        }
                    });
                    assert_eq!(stats.tasks_run, n, "scope of {n} tasks");
                }));
            }
            for h in handles {
                h.join().expect("scope thread");
            }
        });
        assert_eq!(pool.stats().since(&before).tasks_run, 64);
    }

    #[test]
    fn run_attributed_charges_indirect_pool_work_to_the_scope() {
        let pool = ShardPool::new(2);
        let ((), stats) = pool.scope(|scope| {
            scope.run_attributed(|| {
                pool.run_batch(6, |_| {});
                pool.run_batch(1, |_| {}); // inline path attributes too
            });
        });
        assert_eq!(stats.tasks_run, 7, "6 batch tasks + 1 inline");
    }

    #[test]
    fn scope_panics_propagate_after_draining() {
        let pool = ShardPool::new(2);
        let ran = AtomicU64::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.scope(|scope| {
                let ran = &ran;
                for i in 0..12u64 {
                    scope.submit(move || {
                        ran.fetch_add(1, Ordering::Relaxed);
                        if i == 5 {
                            panic!("boom");
                        }
                    });
                }
            });
        }));
        assert!(result.is_err(), "panic must reach the scoping thread");
        assert_eq!(ran.load(Ordering::Relaxed), 12, "group fully drained");
        // The pool stays usable.
        let sum = AtomicU64::new(0);
        pool.run_batch(4, |i| {
            sum.fetch_add(i as u64, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 6);
    }

    #[test]
    fn empty_scope_returns_zero_stats() {
        let pool = ShardPool::new(1);
        let (value, stats) = pool.scope(|_| 7u32);
        assert_eq!(value, 7);
        assert_eq!(stats, PoolStats::default());
    }

    #[test]
    fn gauges_report_workers_and_momentary_depth() {
        let pool = ShardPool::new(2);
        let gauges = pool.gauges();
        assert_eq!(gauges.workers, 2);
        assert_eq!(gauges.queue_depth, 0, "idle pool has an empty queue");

        // While a batch is blocked on a gate, its queued tasks are
        // visible in the depth gauge; once released and drained, the
        // gauge returns to zero.
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let inner = Arc::clone(&gate);
        std::thread::scope(|threads| {
            let handle = threads.spawn(|| {
                pool.run_batch(16, move |_| {
                    let (lock, cv) = &*inner;
                    let mut open = lock.lock().expect("gate lock");
                    while !*open {
                        open = cv.wait(open).expect("gate wait");
                    }
                });
            });
            // Some tasks are necessarily still queued while the first
            // few block every executing thread on the gate.
            let mut saw_depth = false;
            for _ in 0..1_000 {
                if pool.queue_depth() > 0 {
                    saw_depth = true;
                    break;
                }
                std::thread::sleep(std::time::Duration::from_micros(100));
            }
            let (lock, cv) = &*gate;
            *lock.lock().expect("gate lock") = true;
            cv.notify_all();
            handle.join().expect("batch thread");
            assert!(saw_depth, "queued tasks must show up in queue_depth");
        });
        assert_eq!(pool.queue_depth(), 0, "drained pool has an empty queue");
    }

    #[test]
    fn zero_worker_gauges_are_empty() {
        let pool = ShardPool::new(0);
        assert_eq!(
            pool.gauges(),
            PoolGauges {
                workers: 0,
                queue_depth: 0
            }
        );
    }

    #[test]
    fn global_gauges_never_spawn_the_pool() {
        // Whether or not another test already started the global pool,
        // reading gauges must be consistent with reading stats: both
        // observe without creating.
        let before = GLOBAL_POOL.get().is_some();
        let _ = ShardPool::global_gauges();
        assert_eq!(GLOBAL_POOL.get().is_some(), before);
    }

    #[test]
    fn global_pool_is_a_singleton() {
        let a = ShardPool::global() as *const ShardPool;
        let b = ShardPool::global() as *const ShardPool;
        assert_eq!(a, b);
    }

    #[test]
    fn drop_joins_all_workers() {
        // Dropping a pool (even one that has executed work) terminates
        // its worker threads; repeated create/drop must not accumulate
        // live threads, which `join` in `Drop` guarantees by blocking
        // until each worker has exited.
        for _ in 0..20 {
            let pool = ShardPool::new(3);
            let sum = AtomicU64::new(0);
            pool.run_batch(8, |i| {
                sum.fetch_add(i as u64, Ordering::Relaxed);
            });
            assert_eq!(sum.load(Ordering::Relaxed), 28);
            drop(pool); // blocks until the 3 workers are gone
        }
    }
}
