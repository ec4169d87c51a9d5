//! Model-check suite for the arena dictionary's shared-read path.
//!
//! The arena's lazily built sorted index lives in a `OnceLock`, so a
//! shared `ArenaDict` must stay safe when several threads trigger
//! `for_each_sorted` at once (index initialization races).
//!
//! Run with `cargo test -p hpa-check --features model-check`.
#![cfg(feature = "model-check")]

use hpa_check as check;
use hpa_dict::{DictKind, Dictionary};
use std::sync::Arc;

/// Racing sorted walks on one shared arena, racing the `OnceLock` index
/// initialization (the lock itself is std, outside the shim schedule,
/// but the walks still run under every thread interleaving the checker
/// generates around them). Both threads must see the full ascending
/// order.
#[test]
fn racing_sorted_walks_agree() {
    let report = check::model(|| {
        let mut d = DictKind::Arena.new_dict();
        for w in ["pear", "apple", "zebra"] {
            d.add(w, 1);
        }
        let d = Arc::new(d);
        let walkers: Vec<_> = (0..2)
            .map(|_| {
                let d = Arc::clone(&d);
                check::thread::spawn(move || {
                    let mut seen = Vec::new();
                    d.for_each_sorted(&mut |w, _| seen.push(w.to_string()));
                    assert_eq!(seen, ["apple", "pear", "zebra"]);
                })
            })
            .collect();
        for w in walkers {
            w.join().unwrap();
        }
    });
    assert!(report.error.is_none(), "{report:?}");
    assert!(report.locks.is_acyclic(), "{report:?}");
}
