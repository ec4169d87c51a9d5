#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! Workspace-wide span tracing with Chrome trace-event export.
//!
//! The paper's argument rests on *measured* per-phase times and
//! self-relative speedups; coarse wall-clock phase timers cannot show
//! where time goes inside a phase (work-stealing idle time, drain-thread
//! stalls, per-iteration assignment and update costs). This crate
//! provides that visibility:
//!
//! * [`Span`] / [`span!`] — RAII spans recorded into per-thread buffers;
//! * [`counter`] / [`instant`] — counter samples and point events;
//! * [`predict`] — cost-model predictions, recorded next to the
//!   measured span they price so `hpa-audit` can join the two;
//! * [`Histogram`] — fixed-bucket (power-of-two) latency histograms;
//! * [`Recording::to_chrome_json`] — Chrome trace-event JSON, loadable in
//!   Perfetto or `chrome://tracing`;
//! * [`Recording::summary`] — an aligned-text per-category summary
//!   (total/count/p50/p99, top-N spans) rendered with
//!   [`hpa_metrics::Table`].
//!
//! ## Activation and cost
//!
//! Tracing is **opt-in** and near-zero-cost when off: every recording
//! call starts with one relaxed atomic load and returns immediately when
//! tracing is disabled — no allocation, no lock, no timestamp. Enable
//! programmatically with [`enable`], or through the environment:
//! `HPA_TRACE=/path/out.json` (see [`init_from_env`] / [`finish`]).
//! The bench binaries expose the same switch as a `--trace` flag.
//!
//! ## Recording model
//!
//! Each thread records into a thread-local buffer (plain `Vec` pushes
//! behind an uncontended `Mutex`); a global registry holds an
//! `Arc<Mutex<ThreadBuf>>` per thread so [`take`] can drain every
//! buffer — including those of threads that have since exited — without
//! stopping the world. Timestamps are monotonic `Instant` nanoseconds
//! from a process-wide epoch, so spans from different threads align on
//! one time axis.

mod chrome;
mod hist;
mod summary;

pub use chrome::escape_json;
pub use hist::Histogram;

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// One completed span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRec {
    /// Category ("pool", "tfidf", "kmeans", "phase", ...).
    pub cat: &'static str,
    /// Span name within the category.
    pub name: &'static str,
    /// Start, nanoseconds since the trace epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Optional numeric argument (iteration index, chunk id, bytes, ...).
    pub arg: Option<u64>,
    /// Recording thread (registration order).
    pub tid: u32,
}

/// One counter sample (rendered as a counter track in Perfetto).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterRec {
    /// Category.
    pub cat: &'static str,
    /// Counter name (one track per name).
    pub name: &'static str,
    /// Sample time, nanoseconds since the trace epoch.
    pub ts_ns: u64,
    /// Sampled value.
    pub value: u64,
    /// Recording thread.
    pub tid: u32,
}

/// One instant event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EventRec {
    /// Category.
    pub cat: &'static str,
    /// Event name.
    pub name: &'static str,
    /// Event time, nanoseconds since the trace epoch.
    pub ts_ns: u64,
    /// Recording thread.
    pub tid: u32,
}

/// One cost-model prediction. Emitted by an operator immediately before
/// (or inside) the measured span it prices, under the *same* `(cat,
/// name)` pair, so the k-th prediction of a pair corresponds to the
/// k-th span of that pair in time order — the join rule `hpa-audit`'s
/// run ledger uses to compute predicted-vs-measured error ratios.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PredictRec {
    /// Category of the span being priced.
    pub cat: &'static str,
    /// Name of the span being priced.
    pub name: &'static str,
    /// Emission time, nanoseconds since the trace epoch.
    pub ts_ns: u64,
    /// Predicted duration of the priced span, nanoseconds.
    pub predicted_ns: u64,
    /// Recording thread.
    pub tid: u32,
}

#[derive(Debug, Default)]
struct ThreadBuf {
    spans: Vec<SpanRec>,
    counters: Vec<CounterRec>,
    events: Vec<EventRec>,
    predictions: Vec<PredictRec>,
}

struct ThreadEntry {
    tid: u32,
    name: String,
    buf: Mutex<ThreadBuf>,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_TID: AtomicU32 = AtomicU32::new(0);

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn registry() -> &'static Mutex<Vec<Arc<ThreadEntry>>> {
    static REGISTRY: OnceLock<Mutex<Vec<Arc<ThreadEntry>>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

fn output_path() -> &'static Mutex<Option<PathBuf>> {
    static OUT: OnceLock<Mutex<Option<PathBuf>>> = OnceLock::new();
    OUT.get_or_init(|| Mutex::new(None))
}

thread_local! {
    static LOCAL: OnceLock<Arc<ThreadEntry>> = const { OnceLock::new() };
}

fn with_local<R>(f: impl FnOnce(&ThreadEntry) -> R) -> R {
    LOCAL.with(|cell| {
        let entry = cell.get_or_init(|| {
            let entry = Arc::new(ThreadEntry {
                tid: NEXT_TID.fetch_add(1, Ordering::Relaxed),
                name: std::thread::current()
                    .name()
                    .unwrap_or("unnamed")
                    .to_string(),
                buf: Mutex::new(ThreadBuf::default()),
            });
            registry()
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .push(Arc::clone(&entry));
            entry
        });
        f(entry)
    })
}

/// Is tracing currently enabled? One relaxed atomic load — callers on hot
/// paths should check this (or rely on [`Span::enter`] doing so) before
/// computing anything expensive for the trace.
#[inline(always)]
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turn tracing on. Also pins the trace epoch (all timestamps are
/// relative to the first enable).
pub fn enable() {
    epoch();
    ENABLED.store(true, Ordering::Relaxed);
}

/// Turn tracing off. Already-recorded data is kept until [`take`].
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// Enable tracing and remember `path` for [`finish`] to write to.
pub fn enable_with_path(path: impl Into<PathBuf>) {
    *output_path().lock().unwrap_or_else(|e| e.into_inner()) = Some(path.into());
    enable();
}

/// Enable tracing if the `HPA_TRACE` environment variable names an output
/// file. Returns `true` when tracing was enabled.
pub fn init_from_env() -> bool {
    match std::env::var_os("HPA_TRACE") {
        Some(path) if !path.is_empty() => {
            enable_with_path(PathBuf::from(path));
            true
        }
        _ => false,
    }
}

/// Nanoseconds since the trace epoch (monotonic).
#[inline]
pub fn now_ns() -> u64 {
    epoch().elapsed().as_nanos().min(u64::MAX as u128) as u64
}

/// Record one counter sample. No-op when tracing is disabled.
#[inline]
pub fn counter(cat: &'static str, name: &'static str, value: u64) {
    if !is_enabled() {
        return;
    }
    let ts_ns = now_ns();
    with_local(|entry| {
        entry
            .buf
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .counters
            .push(CounterRec {
                cat,
                name,
                ts_ns,
                value,
                tid: entry.tid,
            });
    });
}

/// Record one instant event. No-op when tracing is disabled.
#[inline]
pub fn instant(cat: &'static str, name: &'static str) {
    if !is_enabled() {
        return;
    }
    let ts_ns = now_ns();
    with_local(|entry| {
        entry
            .buf
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .events
            .push(EventRec {
                cat,
                name,
                ts_ns,
                tid: entry.tid,
            });
    });
}

/// Record one cost-model prediction for the next span of `(cat, name)`.
/// No-op when tracing is disabled: like [`counter`], the disabled path
/// is one relaxed atomic load — no timestamp, no lock, no allocation —
/// so operators may call this unconditionally from hot paths *after*
/// checking [`is_enabled`] around any expensive cost computation.
#[inline]
pub fn predict(cat: &'static str, name: &'static str, predicted_ns: u64) {
    if !is_enabled() {
        return;
    }
    let ts_ns = now_ns();
    with_local(|entry| {
        entry
            .buf
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .predictions
            .push(PredictRec {
                cat,
                name,
                ts_ns,
                predicted_ns,
                tid: entry.tid,
            });
    });
}

/// An RAII span: created by [`Span::enter`] (or the [`span!`] macro),
/// recorded when dropped. When tracing is disabled at entry the guard is
/// inert — no timestamp is taken and nothing is recorded at drop.
#[must_use = "a span measures the scope it lives in"]
pub struct Span {
    live: Option<SpanStart>,
}

struct SpanStart {
    cat: &'static str,
    name: &'static str,
    start_ns: u64,
    arg: Option<u64>,
}

impl Span {
    /// Start a span. Near-free when tracing is disabled.
    #[inline]
    pub fn enter(cat: &'static str, name: &'static str) -> Span {
        Span::enter_with(cat, name, None)
    }

    /// Start a span carrying a numeric argument (iteration index, chunk
    /// id, byte count...).
    #[inline]
    pub fn enter_with(cat: &'static str, name: &'static str, arg: Option<u64>) -> Span {
        if !is_enabled() {
            return Span { live: None };
        }
        Span {
            live: Some(SpanStart {
                cat,
                name,
                start_ns: now_ns(),
                arg,
            }),
        }
    }

    /// Attach/replace the span's numeric argument after entry.
    pub fn set_arg(&mut self, arg: u64) {
        if let Some(live) = &mut self.live {
            live.arg = Some(arg);
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(live) = self.live.take() else {
            return;
        };
        // Tracing may have been disabled mid-span; drop the record then.
        if !is_enabled() {
            return;
        }
        let end = now_ns();
        with_local(|entry| {
            entry
                .buf
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .spans
                .push(SpanRec {
                    cat: live.cat,
                    name: live.name,
                    start_ns: live.start_ns,
                    dur_ns: end.saturating_sub(live.start_ns),
                    arg: live.arg,
                    tid: entry.tid,
                });
        });
    }
}

/// Open a span for the rest of the enclosing scope:
/// `let _s = span!("pool", "task");` or with an argument:
/// `let _s = span!("kmeans", "iter", iter as u64);`
#[macro_export]
macro_rules! span {
    ($cat:expr, $name:expr) => {
        $crate::Span::enter($cat, $name)
    };
    ($cat:expr, $name:expr, $arg:expr) => {
        $crate::Span::enter_with($cat, $name, Some($arg))
    };
}

/// Everything recorded since the last [`take`].
#[derive(Debug, Default, Clone)]
pub struct Recording {
    /// Completed spans, in per-thread recording order.
    pub spans: Vec<SpanRec>,
    /// Counter samples.
    pub counters: Vec<CounterRec>,
    /// Instant events.
    pub events: Vec<EventRec>,
    /// Cost-model predictions.
    pub predictions: Vec<PredictRec>,
    /// `(tid, thread name)` for every thread that ever recorded.
    pub threads: Vec<(u32, String)>,
}

impl Recording {
    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
            && self.counters.is_empty()
            && self.events.is_empty()
            && self.predictions.is_empty()
    }

    /// Spans of one category.
    pub fn spans_in<'a>(&'a self, cat: &'a str) -> impl Iterator<Item = &'a SpanRec> + 'a {
        self.spans.iter().filter(move |s| s.cat == cat)
    }

    /// Predictions of one category.
    pub fn predictions_in<'a>(&'a self, cat: &'a str) -> impl Iterator<Item = &'a PredictRec> + 'a {
        self.predictions.iter().filter(move |p| p.cat == cat)
    }

    /// Latency histogram of all span durations in one category.
    pub fn histogram_for(&self, cat: &str) -> Histogram {
        let mut h = Histogram::new();
        for s in self.spans_in(cat) {
            h.record(s.dur_ns);
        }
        h
    }
}

/// Drain all per-thread buffers into one [`Recording`]. Threads keep
/// their (now empty) buffers and continue recording; buffers of exited
/// threads are drained too.
pub fn take() -> Recording {
    let mut rec = Recording::default();
    let entries: Vec<Arc<ThreadEntry>> =
        registry().lock().unwrap_or_else(|e| e.into_inner()).clone();
    let mut threads: Vec<(u32, String)> = entries.iter().map(|e| (e.tid, e.name.clone())).collect();
    threads.sort_by_key(|(tid, _)| *tid);
    rec.threads = threads;
    for entry in entries {
        let mut buf = entry.buf.lock().unwrap_or_else(|e| e.into_inner());
        rec.spans.append(&mut buf.spans);
        rec.counters.append(&mut buf.counters);
        rec.events.append(&mut buf.events);
        rec.predictions.append(&mut buf.predictions);
    }
    rec.spans.sort_by_key(|s| (s.start_ns, s.tid));
    rec.counters.sort_by_key(|c| (c.ts_ns, c.tid));
    rec.events.sort_by_key(|e| (e.ts_ns, e.tid));
    rec.predictions.sort_by_key(|p| (p.ts_ns, p.tid));
    rec
}

/// Drain the buffers and write a Chrome trace-event JSON file to `path`.
pub fn flush_to(path: &Path) -> std::io::Result<Recording> {
    let rec = take();
    std::fs::write(path, rec.to_chrome_json())?;
    Ok(rec)
}

/// If tracing was enabled with an output path ([`enable_with_path`] /
/// `HPA_TRACE`), drain the buffers, write the Chrome JSON there, and
/// return the path together with the drained recording. Otherwise `None`.
pub fn finish() -> Option<(PathBuf, std::io::Result<Recording>)> {
    let path = output_path()
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .clone()?;
    let result = flush_to(&path);
    Some((path, result))
}

#[cfg(test)]
mod tests {
    use super::*;

    // Tests in this module share the process-global trace state
    // (ENABLED, the registry, the drain), so they serialize on one lock
    // and filter on per-test categories.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn serial() -> std::sync::MutexGuard<'static, ()> {
        TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_records_nothing() {
        let _g = serial();
        disable();
        {
            let _s = span!("test-disabled", "ignored");
            counter("test-disabled", "c", 1);
            instant("test-disabled", "e");
            predict("test-disabled", "p", 42);
        }
        let rec = take();
        assert!(rec.spans_in("test-disabled").next().is_none());
        assert!(!rec.counters.iter().any(|c| c.cat == "test-disabled"));
        assert!(!rec.events.iter().any(|e| e.cat == "test-disabled"));
        assert!(rec.predictions_in("test-disabled").next().is_none());
    }

    #[test]
    fn predictions_record_and_drain_in_order() {
        let _g = serial();
        enable();
        predict("test-predict", "phase", 1_000);
        {
            let _s = span!("test-predict", "phase");
        }
        predict("test-predict", "phase", 2_000);
        {
            let _s = span!("test-predict", "phase");
        }
        let rec = take();
        let preds: Vec<u64> = rec
            .predictions_in("test-predict")
            .map(|p| p.predicted_ns)
            .collect();
        assert_eq!(preds, vec![1_000, 2_000], "time-ordered predictions");
        assert_eq!(rec.spans_in("test-predict").count(), 2);
        let rec2 = take();
        assert!(
            rec2.predictions_in("test-predict").next().is_none(),
            "take must drain predictions"
        );
        disable();
    }

    #[test]
    fn concurrent_emitters_conserve_prediction_records() {
        let _g = serial();
        enable();
        let handles: Vec<_> = (0..4)
            .map(|i| {
                std::thread::Builder::new()
                    .name(format!("predict-test-{i}"))
                    .spawn(|| {
                        for v in 0..50u64 {
                            predict("test-predict-mt", "work", v);
                            let _s = span!("test-predict-mt", "work");
                        }
                    })
                    .unwrap()
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let rec = take();
        assert_eq!(rec.predictions_in("test-predict-mt").count(), 200);
        assert_eq!(rec.spans_in("test-predict-mt").count(), 200);
        // Per-thread prediction streams stay in emission order after the
        // global sort, so the per-pair index join remains well-defined.
        let tids: std::collections::HashSet<u32> = rec
            .predictions_in("test-predict-mt")
            .map(|p| p.tid)
            .collect();
        assert_eq!(tids.len(), 4);
        for tid in tids {
            let vals: Vec<u64> = rec
                .predictions_in("test-predict-mt")
                .filter(|p| p.tid == tid)
                .map(|p| p.predicted_ns)
                .collect();
            assert_eq!(vals, (0..50).collect::<Vec<u64>>());
        }
        disable();
    }

    #[test]
    fn span_records_duration_and_order() {
        let _g = serial();
        enable();
        {
            let _outer = span!("test-span", "outer");
            let _inner = span!("test-span", "inner", 7);
        }
        let rec = take();
        let spans: Vec<_> = rec.spans_in("test-span").collect();
        assert_eq!(spans.len(), 2);
        // Inner drops first but starts later: sorted by start time the
        // outer span comes first.
        assert_eq!(spans[0].name, "outer");
        assert_eq!(spans[1].name, "inner");
        assert_eq!(spans[1].arg, Some(7));
        assert!(spans[0].start_ns <= spans[1].start_ns);
        assert!(spans[0].dur_ns >= spans[1].dur_ns);
        disable();
    }

    #[test]
    fn counters_and_events_carry_values() {
        let _g = serial();
        enable();
        counter("test-counter", "depth", 3);
        counter("test-counter", "depth", 5);
        instant("test-counter", "tick");
        let rec = take();
        let vals: Vec<u64> = rec
            .counters
            .iter()
            .filter(|c| c.cat == "test-counter")
            .map(|c| c.value)
            .collect();
        assert_eq!(vals, vec![3, 5]);
        assert!(rec.events.iter().any(|e| e.cat == "test-counter"));
        disable();
    }

    #[test]
    fn take_drains_and_threads_are_registered() {
        let _g = serial();
        enable();
        {
            let _s = span!("test-drain", "x");
        }
        let rec = take();
        assert_eq!(rec.spans_in("test-drain").count(), 1);
        assert!(!rec.threads.is_empty());
        let rec2 = take();
        assert_eq!(rec2.spans_in("test-drain").count(), 0, "take must drain");
        disable();
    }

    #[test]
    fn spans_from_spawned_threads_are_collected() {
        let _g = serial();
        enable();
        let handles: Vec<_> = (0..4)
            .map(|i| {
                std::thread::Builder::new()
                    .name(format!("trace-test-{i}"))
                    .spawn(|| {
                        for _ in 0..50 {
                            let _s = span!("test-threads", "work");
                        }
                    })
                    .unwrap()
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let rec = take();
        assert_eq!(rec.spans_in("test-threads").count(), 200, "no lost spans");
        let tids: std::collections::HashSet<u32> =
            rec.spans_in("test-threads").map(|s| s.tid).collect();
        assert_eq!(tids.len(), 4, "distinct track per thread");
        // Per-thread timestamps are monotonic.
        for tid in tids {
            let mut last = 0;
            for s in rec.spans_in("test-threads").filter(|s| s.tid == tid) {
                assert!(s.start_ns >= last);
                last = s.start_ns;
            }
        }
        disable();
    }

    #[test]
    fn set_arg_after_entry() {
        let _g = serial();
        enable();
        {
            let mut s = span!("test-arg", "late");
            s.set_arg(99);
        }
        let rec = take();
        let span = rec.spans_in("test-arg").next().unwrap();
        assert_eq!(span.arg, Some(99));
        disable();
    }
}
