//! Property-based tests for the execution substrate: scheduling bounds
//! that must hold for every workload, and executor equivalence.
//!
//! Gated behind the non-default `proptest` feature because the `proptest`
//! crate is unavailable in offline builds (see workspace Cargo.toml).
#![cfg(feature = "proptest")]

use hpa_exec::{chunk_ranges, schedule_region_bounds_hold, CostMode, Exec, MachineModel, TaskCost};
use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};

// `schedule_region` is exercised through a re-exported helper so the
// greedy-scheduling invariants are checked on arbitrary task sets.

proptest! {
    #[test]
    fn chunk_ranges_partition_exactly(n in 0usize..5000, grain in 1usize..500) {
        let ranges = chunk_ranges(n, grain);
        let mut expect = 0usize;
        for r in &ranges {
            prop_assert_eq!(r.start, expect, "contiguous");
            prop_assert!(r.end > r.start, "non-empty");
            prop_assert!(r.end - r.start <= grain, "bounded by grain");
            expect = r.end;
        }
        prop_assert_eq!(expect, n, "covers 0..n");
    }

    #[test]
    fn greedy_schedule_respects_bounds(
        times in prop::collection::vec(1u64..100_000, 1..200),
        cores in 1usize..64,
    ) {
        prop_assert!(schedule_region_bounds_hold(&times, cores));
    }

    #[test]
    fn par_for_counts_match_sequential(n in 0usize..800, grain in 0usize..100) {
        for exec in [
            Exec::sequential(),
            Exec::pool(3),
            Exec::simulated_with(5, MachineModel::frictionless(), CostMode::Analytic),
        ] {
            let sum = AtomicU64::new(0);
            exec.par_chunks(
                n,
                grain,
                |range| {
                    for i in range {
                        sum.fetch_add(i as u64 + 1, Ordering::Relaxed);
                    }
                },
                |_| TaskCost::default(),
            );
            prop_assert_eq!(
                sum.into_inner(),
                (n as u64) * (n as u64 + 1) / 2,
                "n={} grain={} exec={:?}", n, grain, exec
            );
        }
    }

    #[test]
    fn fold_reduce_equals_sequential_fold(
        values in prop::collection::vec(-1000i64..1000, 0..300),
        grain in 0usize..64,
    ) {
        let expected: i64 = values.iter().sum();
        for exec in [Exec::sequential(), Exec::pool(2)] {
            let got = exec.par_fold_reduce(
                values.len(),
                grain,
                || 0i64,
                |acc, i| acc + values[i],
                |a, b| a + b,
                |_| TaskCost::default(),
                TaskCost::default(),
            );
            prop_assert_eq!(got.unwrap_or(0), expected);
        }
    }

    #[test]
    fn fold_reduce_is_order_preserving_concat(items in prop::collection::vec(0u32..1000, 0..64)) {
        // Merging strings by concatenation is associative but NOT
        // commutative: the tree reduction must preserve left-to-right
        // order regardless of executor.
        let expected: String = items.iter().map(|i| format!("{i},")).collect();
        for exec in [
            Exec::sequential(),
            Exec::pool(3),
            Exec::simulated(4, MachineModel::frictionless()),
        ] {
            let got = exec
                .par_fold_reduce(
                    items.len(),
                    1,
                    String::new,
                    |acc, i| acc + &format!("{},", items[i]),
                    |a, b| a + &b,
                    |_| TaskCost::default(),
                    TaskCost::default(),
                )
                .unwrap_or_default();
            prop_assert_eq!(&got, &expected, "under {:?}", exec);
        }
    }

    #[test]
    fn virtual_time_monotone_in_cores(
        task_ns in prop::collection::vec(1_000u64..1_000_000, 1..50),
    ) {
        let mut last = u128::MAX;
        for cores in [1usize, 2, 4, 8, 16] {
            let exec =
                Exec::simulated_with(cores, MachineModel::frictionless(), CostMode::Analytic);
            let task_ns = task_ns.clone();
            exec.par_chunks(
                task_ns.len(),
                1,
                |_| {},
                move |r| TaskCost::cpu(r.clone().map(|i| task_ns[i]).sum()),
            );
            let t = exec.sim_state().unwrap().clock_ns;
            prop_assert!(t <= last, "{cores} cores slower: {t} > {last}");
            last = t;
        }
    }
}

#[test]
fn pool_handles_concurrent_submitters() {
    // Multiple external threads submitting batches to one pool must all
    // complete (the helping loop may execute other submitters' tasks).
    let pool = std::sync::Arc::new(hpa_exec::WorkStealingPool::new(3));
    let total = std::sync::Arc::new(AtomicU64::new(0));
    let mut handles = Vec::new();
    for t in 0..4u64 {
        let pool = std::sync::Arc::clone(&pool);
        let total = std::sync::Arc::clone(&total);
        handles.push(std::thread::spawn(move || {
            for round in 0..20u64 {
                let tasks: Vec<Box<dyn FnOnce() + Send>> = (0..16)
                    .map(|i| {
                        let total = std::sync::Arc::clone(&total);
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
