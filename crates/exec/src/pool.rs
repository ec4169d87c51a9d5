//! Work-stealing thread pool.
//!
//! This is the reproduction's stand-in for the Cilkplus runtime the paper
//! uses: a fixed set of workers, each with a work-stealing deque
//! ([`crate::deque`]), fed through a global injector. The pool executes
//! *batches* of scope-bound tasks: the submitting thread erases the tasks'
//! lifetimes, injects them, then **helps execute** pending tasks while it
//! waits on a completion latch, so a batch can never deadlock and borrowed
//! data provably outlives every task (the batch call does not return until
//! the last task finished).
//!
//! Nesting policy: operators in this workspace parallelize one loop level
//! (over documents / files / clusters), matching the paper's code. If a
//! task running *on a worker* submits a nested batch, the batch runs inline
//! sequentially on that worker. This keeps the pool deadlock-free without
//! the full generality (and unsafety budget) of continuation stealing.
//!
//! ## Observability
//!
//! When `hpa_trace` is enabled, every executed task gets a `pool/task`
//! span on its worker's track, batches get a `pool/batch` span on the
//! submitter's track, parked intervals get `pool/park` spans, and each
//! worker periodically emits cumulative counters (`tasks`, `local-pops`,
//! `injector-pops`, `steals`) so steal imbalance is visible in Perfetto.
//! All of it is behind `hpa_trace::is_enabled()` — one relaxed atomic
//! load per call site when tracing is off. The same statistics are always
//! available programmatically through [`WorkStealingPool::worker_stats`].

use crate::deque::{Injector, Stealer, Worker as Deque};
use crate::sync::{tracked, Condvar, Counter, Mutex};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

type Task = Box<dyn FnOnce() + Send>;

thread_local! {
    /// Set while the current thread is a pool worker executing a task.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

struct Latch {
    remaining: AtomicUsize,
    panicked: AtomicBool,
    mutex: Mutex<()>,
    cv: Condvar,
}

impl Latch {
    fn new(count: usize) -> Self {
        Latch {
            remaining: AtomicUsize::new(count),
            panicked: AtomicBool::new(false),
            mutex: Mutex::new(()),
            cv: Condvar::new(),
        }
    }

    fn count_down(&self) {
        // ORDERING: AcqRel — Release publishes this task's writes to
        // whoever observes the counter reach zero, and Acquire makes the
        // final decrementer see every earlier task's effects before it
        // notifies the waiter.
        if self.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            let _guard = self.mutex.lock();
            self.cv.notify_all();
        }
    }

    fn done(&self) -> bool {
        // ORDERING: pairs with the AcqRel `fetch_sub` in `count_down`;
        // observing zero must also acquire every finished task's writes.
        self.remaining.load(Ordering::Acquire) == 0
    }
}

/// Where a worker found its task (for the steal/local statistics).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Source {
    Local,
    Injector,
    Stolen,
}

/// Per-worker counters, updated by the worker, readable by anyone.
///
/// The tracker records the worker's writes; the `worker_stats` snapshot
/// read is deliberately *not* hooked because it is racy by design
/// (relaxed totals, no ordering claimed). The pool always runs on real
/// OS threads (never under `hpa_check::model()`), so the hooks are inert
/// at runtime; they exist so a future modeled harness would verify the
/// single-writer discipline for free.
#[derive(Default)]
struct Stats {
    tasks: Counter,
    local_pops: Counter,
    injector_pops: Counter,
    steals: Counter,
    park_ns: Counter,
    track: tracked::Track,
}

/// A point-in-time snapshot of one worker's statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerStats {
    /// Tasks this worker executed.
    pub tasks: u64,
    /// Tasks popped from the worker's own deque.
    pub local_pops: u64,
    /// Tasks taken from the global injector.
    pub injector_pops: u64,
    /// Tasks stolen from sibling workers' deques.
    pub steals: u64,
    /// Total nanoseconds spent parked (idle).
    pub park_ns: u64,
}

struct Shared {
    injector: Injector<Task>,
    stealers: Vec<Stealer<Task>>,
    stats: Vec<Stats>,
    shutdown: AtomicBool,
    /// Sleep/wake machinery for idle workers.
    idle_mutex: Mutex<()>,
    idle_cv: Condvar,
}

impl Shared {
    /// Find a task: local deque first (when on a worker), then the
    /// global injector, then steal from sibling deques. Reports where
    /// it came from. The helping submitter passes `None` and takes the
    /// shared sources only.
    fn find_task(&self, local: Option<&Deque<Task>>) -> Option<(Task, Source)> {
        if let Some(local) = local {
            if let Some(t) = local.pop() {
                return Some((t, Source::Local));
            }
        }
        let taken = match local {
            Some(l) => self.injector.steal_batch_and_pop(l),
            None => self.injector.steal(),
        };
        if let Some(t) = taken {
            return Some((t, Source::Injector));
        }
        for s in &self.stealers {
            if let Some(t) = s.steal() {
                return Some((t, Source::Stolen));
            }
        }
        None
    }

    fn wake_all(&self) {
        let _guard = self.idle_mutex.lock();
        self.idle_cv.notify_all();
    }
}

/// A fixed-size work-stealing thread pool.
pub struct WorkStealingPool {
    shared: Arc<Shared>,
    threads: usize,
    handles: Vec<JoinHandle<()>>,
}

impl WorkStealingPool {
    /// Spawn a pool with `threads` workers. `threads` must be at least 1.
    pub fn new(threads: usize) -> Self {
        assert!(threads >= 1, "pool needs at least one worker");
        let deques: Vec<Deque<Task>> = (0..threads).map(|_| Deque::new_lifo()).collect();
        let stealers = deques.iter().map(|d| d.stealer()).collect();
        let shared = Arc::new(Shared {
            injector: Injector::new(),
            stealers,
            stats: (0..threads).map(|_| Stats::default()).collect(),
            shutdown: AtomicBool::new(false),
            idle_mutex: Mutex::new(()),
            idle_cv: Condvar::new(),
        });
        let handles = deques
            .into_iter()
            .enumerate()
            .map(|(i, deque)| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("hpa-worker-{i}"))
                    .spawn(move || worker_loop(shared, deque, i))
                    .expect("spawn pool worker")
            })
            .collect();
        WorkStealingPool {
            shared,
            threads,
            handles,
        }
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Snapshot of every worker's execution statistics (index = worker).
    pub fn worker_stats(&self) -> Vec<WorkerStats> {
        self.shared
            .stats
            .iter()
            .map(|s| WorkerStats {
                tasks: s.tasks.get(),
                local_pops: s.local_pops.get(),
                injector_pops: s.injector_pops.get(),
                steals: s.steals.get(),
                park_ns: s.park_ns.get(),
            })
            .collect()
    }

    /// Execute a batch of tasks that may borrow from the caller's stack and
    /// wait for all of them. Panics in tasks are propagated (as a generic
    /// panic) after the whole batch has completed, so the latch always
    /// drains.
    ///
    /// When called from inside a pool worker, the batch runs inline
    /// sequentially (see module docs on the nesting policy).
    pub fn run_batch<'scope>(&self, tasks: Vec<Box<dyn FnOnce() + Send + 'scope>>) {
        if tasks.is_empty() {
            return;
        }
        if IN_WORKER.with(|w| w.get()) {
            for t in tasks {
                t();
            }
            return;
        }

        let _batch_span = hpa_trace::span!("pool", "batch", tasks.len() as u64);
        let latch = Arc::new(Latch::new(tasks.len()));
        for task in tasks {
            // SAFETY: lifetime erasure. The closure (and everything it
            // borrows) outlives its execution because this function does
            // not return until the latch — decremented exactly once per
            // task, even on panic — reaches zero.
            let task: Box<dyn FnOnce() + Send + 'static> = unsafe { erase_lifetime(task) };
            let latch = Arc::clone(&latch);
            let wrapped = Box::new(move || {
                let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(task));
                if result.is_err() {
                    // ORDERING: pairs with the Acquire load after the
                    // batch drains — the submitter must see the flag once
                    // the latch reaches zero.
                    latch.panicked.store(true, Ordering::Release);
                }
                latch.count_down();
            });
            self.shared.injector.push(wrapped);
        }
        self.shared.wake_all();

        // Help while waiting: drain pending tasks (this batch's or another
        // concurrent submitter's — both are fine) instead of blocking.
        while !latch.done() {
            if let Some((task, _)) = self.shared.find_task(None) {
                let _span = hpa_trace::span!("pool", "task");
                task();
            } else {
                // Block on the *latch's* condvar — the one `count_down`
                // notifies. (An earlier version waited on `idle_cv` here,
                // so the final count_down's wakeup never landed and batch
                // completion rode on the wait timeout; found by the
                // hpa-check model suite, see crates/check/tests/
                // model_sync.rs::latch_waiter_on_wrong_condvar_deadlocks.)
                // `count_down` takes `latch.mutex` before notifying, so
                // re-checking `done()` under that lock closes the
                // missed-wakeup window and no timeout is needed.
                let mut guard = latch.mutex.lock();
                if !latch.done() {
                    latch.cv.wait(&mut guard);
                }
            }
        }

        // ORDERING: pairs with the Release store in the panic handler
        // above; `latch.done()` already ordered the tasks' normal writes.
        if latch.panicked.load(Ordering::Acquire) {
            panic!("a task in the parallel batch panicked");
        }
    }
}

/// Erase a scoped task's lifetime so it can cross into worker threads.
///
/// SAFETY: callers must guarantee the closure — and every borrow it
/// captures — outlives its execution. `run_batch` upholds this by not
/// returning until the completion latch (decremented exactly once per
/// task, even on panic, via `catch_unwind`) reaches zero; the fat-pointer
/// transmute itself only rewrites the lifetime parameter, which has no
/// runtime representation.
unsafe fn erase_lifetime<'scope>(
    task: Box<dyn FnOnce() + Send + 'scope>,
) -> Box<dyn FnOnce() + Send + 'static> {
    std::mem::transmute(task)
}

fn worker_loop(shared: Arc<Shared>, local: Deque<Task>, index: usize) {
    IN_WORKER.with(|w| w.set(true));
    let stats = &shared.stats[index];
    // Last counter values emitted to the trace, to skip no-op samples.
    let mut emitted_tasks = 0u64;
    loop {
        if let Some((task, source)) = shared.find_task(Some(&local)) {
            stats.track.on_write();
            match source {
                Source::Local => stats.local_pops.add(1),
                Source::Injector => stats.injector_pops.add(1),
                Source::Stolen => stats.steals.add(1),
            }
            // Bump `tasks` *before* running the task, at the same point as
            // the source counter: the task's closure ends with the batch
            // latch count_down, so a snapshot taken right after run_batch
            // returns must already include this task in both counters or
            // the tasks == local+injector+steals invariant is violated.
            stats.tasks.add(1);
            {
                let mut span = hpa_trace::span!("pool", "task");
                if source == Source::Stolen {
                    span.set_arg(1); // mark stolen tasks in the trace
                }
                task();
            }
            continue;
        }
        // ORDERING: pairs with the Release store in `Drop`, so a worker
        // that sees shutdown also sees everything the dropping thread did.
        if shared.shutdown.load(Ordering::Acquire) {
            break;
        }
        // Going idle: publish counters once per idle transition, so the
        // trace shows progress without a sample per task.
        if hpa_trace::is_enabled() && stats.tasks.get() != emitted_tasks {
            emitted_tasks = stats.tasks.get();
            hpa_trace::counter("pool", "tasks", emitted_tasks);
            hpa_trace::counter("pool", "local-pops", stats.local_pops.get());
            hpa_trace::counter("pool", "injector-pops", stats.injector_pops.get());
            hpa_trace::counter("pool", "steals", stats.steals.get());
        }
        let parked = Instant::now();
        {
            let _park_span = hpa_trace::span!("pool", "park");
            let mut guard = shared.idle_mutex.lock();
            // Re-check under the lock so a wake between the failed find and
            // this wait is not lost entirely (bounded by the timeout anyway).
            // ORDERING: pairs with the Release store in `Drop`, same as
            // the pre-park check above.
            if shared.shutdown.load(Ordering::Acquire) {
                break;
            }
            shared
                .idle_cv
                .wait_for(&mut guard, std::time::Duration::from_millis(5));
        }
        stats.track.on_write();
        stats
            .park_ns
            .add(parked.elapsed().as_nanos().min(u64::MAX as u128) as u64);
    }
}

impl Drop for WorkStealingPool {
    fn drop(&mut self) {
        // ORDERING: pairs with the workers' Acquire loads of `shutdown`;
        // Release makes the pool's final state visible to exiting workers.
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.wake_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn batch_runs_every_task_exactly_once() {
        let pool = WorkStealingPool::new(4);
        let counter = AtomicU64::new(0);
        let tasks: Vec<Box<dyn FnOnce() + Send>> = (0..100)
            .map(|i| {
                let counter = &counter;
                Box::new(move || {
                    counter.fetch_add(i + 1, Ordering::Relaxed);
                }) as Box<dyn FnOnce() + Send>
            })
            .collect();
        pool.run_batch(tasks);
        assert_eq!(counter.load(Ordering::Relaxed), (1..=100).sum::<u64>());
    }

    #[test]
    fn batch_can_borrow_stack_data() {
        let pool = WorkStealingPool::new(2);
        let data: Vec<u64> = (0..64).collect();
        let out: Vec<AtomicU64> = (0..64).map(|_| AtomicU64::new(0)).collect();
        let tasks: Vec<Box<dyn FnOnce() + Send>> = (0..64)
            .map(|i| {
                let data = &data;
                let out = &out;
                Box::new(move || out[i].store(data[i] * 2, Ordering::Relaxed))
                    as Box<dyn FnOnce() + Send>
            })
            .collect();
        pool.run_batch(tasks);
        for (i, o) in out.iter().enumerate() {
            assert_eq!(o.load(Ordering::Relaxed), (i as u64) * 2);
        }
    }

    #[test]
    fn empty_batch_is_noop() {
        let pool = WorkStealingPool::new(1);
        pool.run_batch(Vec::new());
    }

    #[test]
    fn sequential_order_not_required_but_all_complete() {
        let pool = WorkStealingPool::new(3);
        for _round in 0..10 {
            let counter = AtomicU64::new(0);
            let tasks: Vec<Box<dyn FnOnce() + Send>> = (0..31)
                .map(|_| {
                    let counter = &counter;
                    Box::new(move || {
                        counter.fetch_add(1, Ordering::Relaxed);
                    }) as Box<dyn FnOnce() + Send>
                })
                .collect();
            pool.run_batch(tasks);
            assert_eq!(counter.load(Ordering::Relaxed), 31);
        }
    }

    #[test]
    fn panicking_task_propagates_after_batch_completes() {
        let pool = WorkStealingPool::new(2);
        let completed = AtomicU64::new(0);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let tasks: Vec<Box<dyn FnOnce() + Send>> = (0..8)
                .map(|i| {
                    let completed = &completed;
                    Box::new(move || {
                        if i == 3 {
                            panic!("boom");
                        }
                        completed.fetch_add(1, Ordering::Relaxed);
                    }) as Box<dyn FnOnce() + Send>
                })
                .collect();
            pool.run_batch(tasks);
        }));
        assert!(result.is_err());
        assert_eq!(completed.load(Ordering::Relaxed), 7);
    }

    #[test]
    fn nested_batch_from_worker_runs_inline() {
        let pool = Arc::new(WorkStealingPool::new(2));
        let inner_ran = AtomicU64::new(0);
        let p2 = Arc::clone(&pool);
        let inner_ref = &inner_ran;
        let tasks: Vec<Box<dyn FnOnce() + Send>> = vec![Box::new(move || {
            let nested: Vec<Box<dyn FnOnce() + Send>> = (0..4)
                .map(|_| {
                    Box::new(move || {
                        inner_ref.fetch_add(1, Ordering::Relaxed);
                    }) as Box<dyn FnOnce() + Send>
                })
                .collect();
            p2.run_batch(nested);
        })];
        pool.run_batch(tasks);
        assert_eq!(inner_ran.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn pool_shuts_down_cleanly_on_drop() {
        for _ in 0..5 {
            let pool = WorkStealingPool::new(4);
            let c = AtomicU64::new(0);
            let tasks: Vec<Box<dyn FnOnce() + Send>> = (0..16)
                .map(|_| {
                    let c = &c;
                    Box::new(move || {
                        c.fetch_add(1, Ordering::Relaxed);
                    }) as Box<dyn FnOnce() + Send>
                })
                .collect();
            pool.run_batch(tasks);
            drop(pool);
            assert_eq!(c.load(Ordering::Relaxed), 16);
        }
    }

    #[test]
    fn worker_stats_account_for_executed_tasks() {
        let pool = WorkStealingPool::new(3);
        let c = AtomicU64::new(0);
        for _ in 0..5 {
            let tasks: Vec<Box<dyn FnOnce() + Send>> = (0..40)
                .map(|_| {
                    let c = &c;
                    Box::new(move || {
                        // A touch of work so workers actually interleave.
                        std::thread::yield_now();
                        c.fetch_add(1, Ordering::Relaxed);
                    }) as Box<dyn FnOnce() + Send>
                })
                .collect();
            pool.run_batch(tasks);
        }
        let stats = pool.worker_stats();
        assert_eq!(stats.len(), 3);
        let executed: u64 = stats.iter().map(|s| s.tasks).sum();
        // The submitter helps, so workers execute at most the total.
        assert!(executed <= 200);
        for s in &stats {
            assert_eq!(s.tasks, s.local_pops + s.injector_pops + s.steals);
        }
    }
}
