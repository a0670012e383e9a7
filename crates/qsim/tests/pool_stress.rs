//! `ShardPool` stress tests: many submitters × nested submissions ×
//! worker counts of 0, 1, and N.
//!
//! The parallel sweep path stacks the pool's two APIs — whole-point
//! tasks submitted through a [`ShardPool::scope`] latch group, shot
//! shards submitted as nested [`ShardPool::run_batch`] calls *from
//! inside* those tasks — so the fixed worker set must never deadlock on
//! nested waits (every waiting thread drains queued tasks instead of
//! blocking), wakeups must never be lost across park/unpark cycles, and
//! [`PoolStats`] accounting must stay exact: `tasks_run` counts every
//! task exactly once (queued, stolen, or inline), and a scope's group
//! stats count exactly the tasks run on the scope's behalf.

use qsim::{PoolStats, ShardPool};
use std::sync::atomic::{AtomicU64, Ordering};

/// Worker counts every stress shape runs under: inline degradation,
/// a single worker (maximum contention on one deque), and more workers
/// than this container has cores (oversubscription).
const WORKER_COUNTS: [usize; 4] = [0, 1, 2, 4];

#[test]
fn many_submitters_with_nested_batches_account_exactly() {
    for workers in WORKER_COUNTS {
        let pool = ShardPool::new(workers);
        let before = pool.stats();
        let executed = AtomicU64::new(0);
        const SUBMITTERS: u64 = 4;
        const ROUNDS: u64 = 10;
        const OUTER: u64 = 8;
        const INNER: u64 = 4;
        std::thread::scope(|threads| {
            for _ in 0..SUBMITTERS {
                let (pool, executed) = (&pool, &executed);
                threads.spawn(move || {
                    for _ in 0..ROUNDS {
                        pool.run_batch(OUTER as usize, |_| {
                            // Nested batch from inside a pool task: the
                            // fixed worker set must keep making progress.
                            pool.run_batch(INNER as usize, |_| {
                                executed.fetch_add(1, Ordering::Relaxed);
                            });
                        });
                    }
                });
            }
        });
        assert_eq!(
            executed.load(Ordering::Relaxed),
            SUBMITTERS * ROUNDS * OUTER * INNER,
            "{workers} workers: every inner task runs exactly once"
        );
        let delta = pool.stats().since(&before);
        assert_eq!(
            delta.tasks_run,
            SUBMITTERS * ROUNDS * (OUTER + OUTER * INNER),
            "{workers} workers: outer + inner tasks each counted once"
        );
        assert!(delta.steals <= delta.tasks_run);
    }
}

#[test]
fn scopes_nesting_batches_nesting_batches_complete_at_any_depth() {
    // Depth-3 nesting: scope task → batch task → batch task. This is
    // one level deeper than the sweep path uses, so the sweep shape has
    // headroom rather than sitting at the edge of what works.
    for workers in WORKER_COUNTS {
        let pool = ShardPool::new(workers);
        let leaves = AtomicU64::new(0);
        let ((), stats) = pool.scope(|scope| {
            let (pool, leaves) = (&pool, &leaves);
            for _ in 0..6 {
                scope.submit(move || {
                    pool.run_batch(3, |_| {
                        pool.run_batch(2, |_| {
                            leaves.fetch_add(1, Ordering::Relaxed);
                        });
                    });
                });
            }
        });
        assert_eq!(leaves.load(Ordering::Relaxed), 6 * 3 * 2);
        // Group attribution is transitive through both nesting levels:
        // 6 scope tasks + 18 mid tasks + 36 leaf tasks.
        assert_eq!(stats.tasks_run, 6 + 18 + 36, "{workers} workers");
    }
}

#[test]
fn concurrent_scopes_with_nested_batches_attribute_exactly() {
    // The accounting contract behind parallel-sweep telemetry: scopes
    // sharing one pool each see exactly their own work, and the pool's
    // lifetime counters see the sum.
    for workers in WORKER_COUNTS {
        let pool = ShardPool::new(workers);
        let before = pool.stats();
        std::thread::scope(|threads| {
            for points in [3u64, 5, 8] {
                let pool = &pool;
                threads.spawn(move || {
                    let ((), stats) = pool.scope(|scope| {
                        let pool = &pool;
                        for _ in 0..points {
                            scope.submit(move || {
                                pool.run_batch(4, |_| {});
                            });
                        }
                    });
                    assert_eq!(
                        stats.tasks_run,
                        points * 5,
                        "{workers} workers, {points}-point scope"
                    );
                });
            }
        });
        assert_eq!(pool.stats().since(&before).tasks_run, (3 + 5 + 8) * 5);
    }
}

#[test]
fn park_unpark_cycles_lose_no_wakeups() {
    // Alternate idle gaps (workers park) with burst submissions: every
    // round must complete — a lost wakeup would strand the batch and
    // hang the test.
    let pool = ShardPool::new(2);
    for round in 0..60u64 {
        if round % 7 == 0 {
            // Long enough for the 50 ms park timeout *not* to have
            // fired: the wakeup must come from the notify path.
            std::thread::sleep(std::time::Duration::from_millis(3));
        }
        let sum = AtomicU64::new(0);
        pool.run_batch(5, |i| {
            sum.fetch_add(i as u64 + round, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 10 + 5 * round);
    }
}

#[test]
fn submitters_outnumbering_workers_make_progress() {
    // 8 submitting threads on a 1-worker pool: submitters must drain
    // their own batches rather than queue behind the lone worker.
    let pool = ShardPool::new(1);
    let executed = AtomicU64::new(0);
    std::thread::scope(|threads| {
        for _ in 0..8 {
            let (pool, executed) = (&pool, &executed);
            threads.spawn(move || {
                for _ in 0..20 {
                    pool.run_batch(6, |_| {
                        executed.fetch_add(1, Ordering::Relaxed);
                    });
                }
            });
        }
    });
    assert_eq!(executed.load(Ordering::Relaxed), 8 * 20 * 6);
}

#[test]
fn mixed_inline_and_pooled_paths_count_once_each() {
    // Exercise every accounting path in one pool lifetime: the empty
    // batch (no count), the single-task inline path, the pooled path,
    // scope submissions, and zero-worker inline scopes.
    let pool = ShardPool::new(2);
    let before = pool.stats();
    pool.run_batch(0, |_| panic!("empty batch must not run"));
    pool.run_batch(1, |_| {}); // inline: 1
    pool.run_batch(7, |_| {}); // pooled: 7
    let ((), scope_stats) = pool.scope(|scope| {
        scope.submit(|| {}); // 1
        scope.submit(|| {}); // 1
    });
    assert_eq!(scope_stats.tasks_run, 2);
    let delta = pool.stats().since(&before);
    assert_eq!(delta.tasks_run, 1 + 7 + 2);

    let inline = ShardPool::new(0);
    let ((), inline_stats) = inline.scope(|scope| {
        for _ in 0..3 {
            scope.submit(|| {});
        }
    });
    assert_eq!(inline_stats.tasks_run, 3);
    assert_eq!(
        inline.stats(),
        PoolStats {
            tasks_run: 3,
            steals: 0
        }
    );
}

#[test]
fn organic_point_chains_keep_bounded_stack_depth() {
    // The stack-bound guarantee behind large parallel sweeps: a thread
    // waiting on a latch runs only that latch's tasks, never another
    // point, so its frames nest only as deeply as the workload nests
    // pool calls — a point task plus the shard task it waits on — and
    // never grow with the number of queued points. 200 points on a
    // 1-worker pool maximizes chain pressure (the worker and the
    // scoping thread run everything between them); a waiter that ran
    // foreign points would stack one point frame per queued point.
    let pool = ShardPool::new(1);
    let max_depth = AtomicU64::new(0);
    let ((), stats) = pool.scope(|scope| {
        let (pool, max_depth) = (&pool, &max_depth);
        for _ in 0..200 {
            scope.submit(move || {
                pool.run_batch(2, |_| {
                    max_depth.fetch_max(qsim::pool::nest_depth() as u64, Ordering::Relaxed);
                });
            });
        }
    });
    assert_eq!(stats.tasks_run, 200 * 3);
    let observed = max_depth.load(Ordering::Relaxed);
    // One point frame plus the shard frame it waits on.
    assert!(
        observed <= 2,
        "drain chains must not scale with point count: saw depth {observed}"
    );
}

#[test]
fn scope_survives_panicking_nested_batches() {
    // A panic in a nested batch propagates to its submitting scope task
    // (run_batch re-raises), poisons the group, and must still drain
    // the whole scope — leaving the pool usable.
    let pool = ShardPool::new(2);
    let ran = AtomicU64::new(0);
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        pool.scope(|scope| {
            let (pool, ran) = (&pool, &ran);
            for task in 0..6u64 {
                scope.submit(move || {
                    pool.run_batch(2, |shard| {
                        ran.fetch_add(1, Ordering::Relaxed);
                        if task == 2 && shard == 1 {
                            panic!("nested boom");
                        }
                    });
                });
            }
        });
    }));
    assert!(result.is_err(), "nested panic must reach the scope");
    assert_eq!(
        ran.load(Ordering::Relaxed),
        6 * 2,
        "all nested tasks drained"
    );
    let sum = AtomicU64::new(0);
    pool.run_batch(3, |i| {
        sum.fetch_add(i as u64, Ordering::Relaxed);
    });
    assert_eq!(sum.load(Ordering::Relaxed), 3);
}
