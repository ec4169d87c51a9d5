//! Model-check suite for the trace recorder's emitter pattern — the
//! structure `hpa-trace` uses to collect the ledger-relevant record
//! streams (spans, counters, cost-model predictions): one mutex-guarded
//! buffer per emitting thread, registered in a global list, drained by
//! a single reader that locks each buffer in turn.
//!
//! The run ledger (`hpa_trace::RunLedger`) joins predictions to spans positionally
//! per `(cat, name)`, so correctness needs two properties under every
//! interleaving: no record is lost or invented (conservation), and each
//! thread's records drain in its own emission order (the positional
//! pairing rule). These schedules drive concurrent emitters against a
//! racing drain through the `check` shims to prove both.
//!
//! Run with `cargo test -p hpa-check --features model-check`.
#![cfg(feature = "model-check")]

use hpa_check as check;
use std::sync::Arc;

/// A minimal stand-in for one thread's trace buffer: predictions and
/// spans interleave into per-kind vectors under one lock, exactly like
/// `hpa_trace::ThreadBuf`.
#[derive(Default)]
struct Buf {
    predictions: Vec<u64>,
    spans: Vec<u64>,
}

/// Concurrent emitters + one racing drain: every record emitted before
/// its buffer's drain lock must surface exactly once across the drain
/// and the post-join sweep; per-thread order is preserved.
#[test]
fn concurrent_emitters_conserve_records_across_a_racing_drain() {
    let report = check::model(|| {
        let bufs: Arc<Vec<check::sync::Mutex<Buf>>> = Arc::new(vec![
            check::sync::Mutex::new(Buf::default()),
            check::sync::Mutex::new(Buf::default()),
        ]);
        let workers: Vec<_> = (0..2u64)
            .map(|tid| {
                let bufs = Arc::clone(&bufs);
                check::thread::spawn(move || {
                    for k in 0..2u64 {
                        let value = tid * 10 + k;
                        // predict-then-span, like an instrumented call
                        // site; one lock per record, like the real
                        // `predict()` / `Span::drop` paths.
                        bufs[tid as usize].lock().predictions.push(value);
                        bufs[tid as usize].lock().spans.push(value);
                    }
                })
            })
            .collect();

        // Racing drain: locks each buffer once, mid-emission, like
        // `take()` snapshotting while workers still run.
        let drained: Vec<Buf> = bufs
            .iter()
            .map(|b| {
                let mut guard = b.lock();
                Buf {
                    predictions: std::mem::take(&mut guard.predictions),
                    spans: std::mem::take(&mut guard.spans),
                }
            })
            .collect();

        for w in workers {
            w.join().unwrap();
        }
        // Final sweep after all emitters quiesce.
        let swept: Vec<Buf> = bufs
            .iter()
            .map(|b| {
                let mut guard = b.lock();
                Buf {
                    predictions: std::mem::take(&mut guard.predictions),
                    spans: std::mem::take(&mut guard.spans),
                }
            })
            .collect();

        for tid in 0..2usize {
            // Conservation: drain + sweep together hold exactly the
            // emitted multiset, no loss, no duplication.
            let mut predictions = drained[tid].predictions.clone();
            predictions.extend(&swept[tid].predictions);
            let mut spans = drained[tid].spans.clone();
            spans.extend(&swept[tid].spans);
            let expect: Vec<u64> = (0..2).map(|k| tid as u64 * 10 + k).collect();
            assert_eq!(predictions, expect, "predictions lost or reordered");
            assert_eq!(spans, expect, "spans lost or reordered");
            // Pairing safety: a span can never drain ahead of its
            // prediction, because the emitter pushes predict first and
            // the drain takes both under the same lock hold.
            assert!(
                drained[tid].spans.len() <= drained[tid].predictions.len(),
                "drained a span whose prediction was left behind"
            );
        }
    });
    assert!(report.error.is_none(), "{report:?}");
    assert!(report.locks.is_acyclic(), "{report:?}");
    assert!(report.interleavings >= 2, "{report:?}");
}

/// Registration race: a thread registering its buffer while the drain
/// walks the registry either appears fully (buffer and records) or not
/// yet — the sweep after join never loses it, and no half-registered
/// state is observable.
#[test]
fn late_registration_is_all_or_nothing() {
    type SharedBuf = Arc<check::sync::Mutex<Vec<u64>>>;
    let report = check::model(|| {
        let registry: Arc<check::sync::Mutex<Vec<SharedBuf>>> =
            Arc::new(check::sync::Mutex::new(Vec::new()));

        let writer = {
            let registry = Arc::clone(&registry);
            check::thread::spawn(move || {
                let buf = Arc::new(check::sync::Mutex::new(Vec::new()));
                buf.lock().push(7u64);
                registry.lock().push(Arc::clone(&buf));
                buf.lock().push(8u64);
            })
        };

        // Racing drain: snapshot the registry, then drain each buffer.
        let snapshot: Vec<_> = registry.lock().iter().cloned().collect();
        let mut drained: Vec<u64> = Vec::new();
        for buf in snapshot {
            drained.append(&mut buf.lock());
        }

        writer.join().unwrap();
        let mut swept: Vec<u64> = Vec::new();
        for buf in registry.lock().iter() {
            swept.append(&mut buf.lock());
        }

        let mut all = drained.clone();
        all.extend(&swept);
        // 7 is pushed before registration, so any drain that saw the
        // buffer saw it with 7 already present or already drained; the
        // union is always exactly {7, 8} in order.
        assert_eq!(all, vec![7, 8], "registration must be all-or-nothing");
    });
    assert!(report.error.is_none(), "{report:?}");
    assert!(report.locks.is_acyclic(), "{report:?}");
    assert!(report.interleavings >= 2, "{report:?}");
}
