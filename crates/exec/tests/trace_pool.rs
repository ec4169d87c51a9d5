//! Concurrent tracing through the work-stealing pool: spans recorded
//! from many workers at once must all survive into the drained
//! recording, with sane timestamps. Also exercises concurrent batch
//! submission from several threads.

use hpa_exec::WorkStealingPool;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

#[test]
fn no_spans_lost_under_concurrent_workers() {
    hpa_trace::enable();
    let pool = WorkStealingPool::new(4);
    let executed = Arc::new(AtomicU64::new(0));

    const TASKS: usize = 500;
    let tasks: Vec<Box<dyn FnOnce() + Send>> = (0..TASKS)
        .map(|i| {
            let executed = Arc::clone(&executed);
            Box::new(move || {
                let _s = hpa_trace::span!("test", "unit", i as u64);
                // A little work so spans have nonzero-ish durations and
                // workers actually interleave.
                std::hint::black_box((0..50).sum::<u64>());
                executed.fetch_add(1, Ordering::Relaxed);
            }) as Box<dyn FnOnce() + Send>
        })
        .collect();
    pool.run_batch(tasks);
    assert_eq!(executed.load(Ordering::Relaxed), TASKS as u64);

    let recording = hpa_trace::take();
    hpa_trace::disable();

    // Every explicit per-task span survived (the pool adds its own
    // "pool" category spans on top; count only ours).
    let unit_spans: Vec<_> = recording.spans_in("test").collect();
    assert_eq!(unit_spans.len(), TASKS, "lost spans under concurrency");

    // Arguments 0..TASKS all present exactly once.
    let mut seen = vec![false; TASKS];
    for s in &unit_spans {
        let arg = s.arg.expect("unit spans carry their index") as usize;
        assert!(!seen[arg], "span {arg} recorded twice");
        seen[arg] = true;
    }

    // Timestamps are sane: the drained recording is sorted by start
    // time, and every span ends at-or-after it starts.
    let mut last_start = 0;
    for s in &recording.spans {
        assert!(s.start_ns >= last_start, "recording not time-sorted");
        last_start = s.start_ns;
        assert!(s.start_ns.checked_add(s.dur_ns).is_some());
    }

    // The pool recorded its own instrumentation from worker threads.
    assert!(
        recording.spans_in("pool").next().is_some(),
        "pool spans missing"
    );

    // Worker stats add up: every executed task was popped from somewhere.
    let stats = pool.worker_stats();
    for s in &stats {
        assert_eq!(s.tasks, s.local_pops + s.injector_pops + s.steals);
    }
}

#[test]
fn concurrent_submitters_all_complete() {
    let pool = Arc::new(WorkStealingPool::new(3));
    let total = Arc::new(AtomicU64::new(0));
    let handles: Vec<_> = (0..4)
        .map(|_| {
            let pool = Arc::clone(&pool);
            let total = Arc::clone(&total);
            std::thread::spawn(move || {
                for _ in 0..10 {
                    let total = Arc::clone(&total);
                    let tasks: Vec<Box<dyn FnOnce() + Send>> = (0..25)
                        .map(|_| {
                            let total = Arc::clone(&total);
                            Box::new(move || {
                                total.fetch_add(1, Ordering::Relaxed);
                            }) as Box<dyn FnOnce() + Send>
                        })
                        .collect();
                    pool.run_batch(tasks);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(total.load(Ordering::Relaxed), 4 * 10 * 25);
}

#[test]
fn pool_handles_concurrent_submitters() {
    // Multiple external threads submitting batches to one pool must all
    // complete (the helping loop may execute other submitters' tasks).
    // Each task adds a value tagged by its submitter, round and index,
    // so the total checks which tasks ran, not only how many.
    let pool = Arc::new(WorkStealingPool::new(3));
    let total = Arc::new(AtomicU64::new(0));
    let mut handles = Vec::new();
    for t in 0..4u64 {
        let pool = Arc::clone(&pool);
        let total = Arc::clone(&total);
        handles.push(std::thread::spawn(move || {
            for round in 0..20u64 {
                let tasks: Vec<Box<dyn FnOnce() + Send>> = (0..16)
                    .map(|i| {
                        let total = Arc::clone(&total);
                        Box::new(move || {
                            total.fetch_add(t * 1000 + round + i, Ordering::Relaxed);
                        }) as Box<dyn FnOnce() + Send>
                    })
                    .collect();
                pool.run_batch(tasks);
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let expected: u64 = (0..4u64)
        .map(|t| {
            (0..20u64)
                .map(|r| (0..16u64).map(|i| t * 1000 + r + i).sum::<u64>())
                .sum::<u64>()
        })
        .sum();
    assert_eq!(total.load(Ordering::Relaxed), expected);
}
