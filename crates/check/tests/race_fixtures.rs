//! Seeded-defect fixtures for the vector-clock race detector and the
//! lock-order analyzer — each classic concurrency bug must be flagged
//! within bounded schedules, and each correctly-synchronized twin must
//! come back clean.
//!
//! Run with `cargo test -p hpa-check --features model-check`.
#![cfg(feature = "model-check")]

use hpa_check as check;
use hpa_check::race::{tracked::Cell, tracked_read, tracked_write, Track};
use hpa_check::sync::atomic::AtomicUsize;
use hpa_check::sync::Mutex;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Fixture 1: the textbook unsynchronized counter. Two threads mutate a
/// tracked cell with no ordering between them. The detector must flag it
/// on the *first* execution (vector-clock detection is a property of the
/// access pair, not of the schedule that exposes it) and report a
/// replayable schedule for *both* accesses.
#[test]
fn unsynchronized_counter_is_flagged_with_both_schedules() {
    let report = check::model_with(check::CheckConfig::default(), || {
        let c = Arc::new(Cell::new("fixture::counter", 0u64));
        let c2 = Arc::clone(&c);
        let t = check::thread::spawn(move || c2.with_mut(|v| *v += 1));
        c.with_mut(|v| *v += 1);
        t.join().unwrap();
    });
    let err = report.error.expect("the race must be detected");
    assert!(err.message.contains("data race"), "{}", err.message);
    assert!(err.message.contains("fixture::counter"), "{}", err.message);
    assert_eq!(
        err.message.matches("replay schedule").count(),
        2,
        "one replayable schedule per access:\n{}",
        err.message
    );
    assert_eq!(
        report.interleavings, 1,
        "clock-based detection fires on the very first execution"
    );
}

/// Publish a payload through an atomic flag with the given orderings and
/// report what the detector saw. The consumer reads the payload only
/// when it observed the flag set.
fn flag_publication(store: Ordering, load: Ordering) -> check::Report {
    check::model_with(check::CheckConfig::default(), move || {
        let data = Arc::new(Cell::new("fixture::payload", 0u64));
        let flag = Arc::new(AtomicUsize::new(0));
        let (d2, f2) = (Arc::clone(&data), Arc::clone(&flag));
        let t = check::thread::spawn(move || {
            d2.set(42);
            f2.store(1, store);
        });
        if flag.load(load) == 1 {
            assert_eq!(data.get(), 42, "flag observed, payload must be too");
        }
        t.join().unwrap();
    })
}

/// Fixture 2a: `Relaxed` publication misses the release edge — some
/// schedule lets the consumer observe the flag without inheriting the
/// producer's clock, and the payload read races the payload write.
#[test]
fn relaxed_flag_publication_misses_the_release_edge() {
    let report = flag_publication(Ordering::Relaxed, Ordering::Relaxed);
    let err = report.error.expect("relaxed publication must race");
    assert!(err.message.contains("data race"), "{}", err.message);
    assert!(err.message.contains("fixture::payload"), "{}", err.message);
}

/// Fixture 2b: the same protocol with `Release`/`Acquire` is clean in
/// every explored interleaving — the flag carries the producer's clock.
#[test]
fn release_acquire_flag_publication_is_clean() {
    let report = flag_publication(Ordering::Release, Ordering::Acquire);
    assert!(report.error.is_none(), "{report:?}");
    assert!(report.locks.is_acyclic());
    assert!(
        report.interleavings >= 2,
        "both flag outcomes must be explored, got {}",
        report.interleavings
    );
}

/// Fixture 3: lock-order inversion that never deadlocks in any explored
/// schedule (the join serializes the two critical sections), yet is one
/// unlucky preemption away from one. The lock-order analyzer must still
/// report the A→B→A cycle, with a DOT graph naming the witness.
#[test]
fn lock_order_inversion_is_reported_without_a_deadlock() {
    let report = check::model_with(check::CheckConfig::default(), || {
        let a = Arc::new(Mutex::new(()));
        let b = Arc::new(Mutex::new(()));
        let (a2, b2) = (Arc::clone(&a), Arc::clone(&b));
        let t = check::thread::spawn(move || {
            let _ga = a2.lock();
            let _gb = b2.lock();
        });
        // The join makes a real deadlock impossible here — which is the
        // point: the cycle is found from the order graph, not from an
        // explored deadlock.
        t.join().unwrap();
        let _gb = b.lock();
        let _ga = a.lock();
    });
    assert!(
        report.error.is_none(),
        "no explored schedule deadlocks: {report:?}"
    );
    assert!(!report.locks.is_acyclic());
    let cycle = report.locks.cycle.as_ref().expect("A→B→A cycle");
    assert!(
        cycle.len() >= 3,
        "closed walk with the head repeated: {cycle:?}"
    );
    let dot = report.locks.to_dot();
    assert!(dot.contains("digraph") && dot.contains("->"), "{dot}");
    assert!(dot.contains("red"), "cycle edges are highlighted: {dot}");
}

/// Fixture 3b: both threads take the locks in the same order — the order
/// graph has edges but no cycle.
#[test]
fn consistent_lock_order_is_acyclic() {
    let report = check::model(|| {
        let a = Arc::new(Mutex::new(()));
        let b = Arc::new(Mutex::new(()));
        let (a2, b2) = (Arc::clone(&a), Arc::clone(&b));
        let t = check::thread::spawn(move || {
            let _ga = a2.lock();
            let _gb = b2.lock();
        });
        let _ga = a.lock();
        let _gb = b.lock();
        drop(_gb);
        drop(_ga);
        t.join().unwrap();
    });
    assert!(report.locks.is_acyclic());
    assert!(
        !report.locks.edges.is_empty(),
        "the A-before-B edge must be recorded: {report:?}"
    );
}

/// Fixture 4: mutex-guarded writes with the tracker hooked *inside* the
/// critical section — the lock's release/acquire edges order every access
/// pair, so the detector stays quiet in all interleavings.
#[test]
fn lock_protected_counter_is_clean() {
    struct Guarded {
        m: Mutex<u64>,
        track: Track,
    }
    let report = check::model(|| {
        let s = Arc::new(Guarded {
            m: Mutex::new(0),
            track: Track::new("fixture::guarded"),
        });
        let s2 = Arc::clone(&s);
        let t = check::thread::spawn(move || {
            let mut g = s2.m.lock();
            tracked_write(&s2.track);
            *g += 1;
        });
        {
            let mut g = s.m.lock();
            tracked_write(&s.track);
            *g += 1;
        }
        t.join().unwrap();
    });
    assert!(report.locks.is_acyclic());
    assert!(report.interleavings >= 2, "{report:?}");
}

/// Fixture 5a: the bare `tracked_read`/`tracked_write` hooks with
/// spawn/join edges only — parent-before-spawn, child, after-join all
/// ordered, so three accesses from two threads are race-free.
#[test]
fn spawn_and_join_edges_order_bare_hook_accesses() {
    let report = check::model(|| {
        let track = Arc::new(Track::new("fixture::handoff"));
        let t2 = Arc::clone(&track);
        tracked_write(&track);
        let t = check::thread::spawn(move || tracked_read(&t2));
        t.join().unwrap();
        tracked_write(&track);
    });
    assert!(report.locks.is_acyclic());
}

/// Fixture 5b: two sibling threads, one writing and one reading the same
/// tracked state with no edge between them — flagged.
#[test]
fn sibling_write_read_without_an_edge_is_flagged() {
    let report = check::model_with(check::CheckConfig::default(), || {
        let track = Arc::new(Track::new("fixture::siblings"));
        let (ta, tb) = (Arc::clone(&track), Arc::clone(&track));
        let h1 = check::thread::spawn(move || tracked_write(&ta));
        let h2 = check::thread::spawn(move || tracked_read(&tb));
        h1.join().unwrap();
        h2.join().unwrap();
    });
    let err = report.error.expect("sibling write/read must race");
    assert!(err.message.contains("fixture::siblings"), "{}", err.message);
    assert!(err.message.contains("data race"), "{}", err.message);
}

/// The retrofitted substrate hooks under a modeled scatter/merge — the
/// shape `count_words` runs: two workers each build (and fold) arena
/// interners on their own thread (a tracked write there), the parent
/// merges the results after joining both. Every
/// tracked access is ordered by the join edges — clean — and the
/// deque/channel suites assert the same for their structures.
#[test]
fn arena_dict_scatter_merge_is_race_free() {
    use hpa_dict::{DictKind, Dictionary};
    let report = check::model(|| {
        let mk = || {
            let mut d = DictKind::Arena.new_dict();
            d.add("alpha", 1);
            let mut partial = DictKind::Arena.new_dict();
            partial.add("beta", 2);
            d.merge_from(&partial);
            d
        };
        let h1 = check::thread::spawn(mk);
        let h2 = check::thread::spawn(mk);
        let mut total = DictKind::Arena.new_dict();
        let d1 = h1.join().unwrap();
        let d2 = h2.join().unwrap();
        total.merge_from(&d1);
        total.merge_from(&d2);
        assert_eq!(total.get("alpha"), Some(2));
        assert_eq!(total.get("beta"), Some(4));
    });
    assert!(report.error.is_none(), "{report:?}");
    assert!(report.locks.is_acyclic());
}
