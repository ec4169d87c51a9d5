#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! Trace-backed cost-model conformance for the hpa workspace.
//!
//! The workspace's analytic cost model is load-bearing: it drives the
//! simulator's clock, the workflow planner's prices, and the
//! work-stealing grain heuristics. This crate closes the loop between
//! what that model *predicts* and what traced runs *measure*:
//!
//! * [`ledger`] — joins one [`hpa_trace::Recording`]'s measured spans,
//!   counters, and cost-model predictions into a per-phase
//!   [`ledger::RunLedger`] with error ratios and conformance statuses,
//!   exported as `results/LEDGER_*.json` plus readable text.
//! * [`calib`] — fits per-phase scale constants from measured ledgers
//!   (least squares through the origin), reports drift against the
//!   hard-coded constants, and flags a model ranking the measurements
//!   contradict (assignment kernel).
//!
//! The `calibrate` binary runs the loop: traced run → ledger → fits →
//! flip checks. See DESIGN.md §12.

pub mod calib;
pub mod ledger;
