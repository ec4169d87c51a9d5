#![warn(missing_docs)]
//! Measurement substrate for the HPA workspace.
//!
//! The paper's evaluation reports three kinds of numbers:
//!
//! * **per-phase execution times** of workflow stages (`input+wc`,
//!   `tfidf-output`, `kmeans-input`, `transform`, `kmeans`, `output`),
//! * **self-relative speedups** derived from those times, and
//! * **memory consumption** of internal data structures (420 MB with
//!   `std::map` versus 12.8 GB with `std::unordered_map` on the *Mix*
//!   data set).
//!
//! This crate provides the plumbing for all three: [`PhaseTimer`] and
//! [`PhaseReport`] for structured per-phase timing, [`alloc::CountingAllocator`]
//! plus [`alloc::HeapGauge`] for heap accounting, and [`table::Table`]
//! for rendering paper-style rows as aligned text or CSV.

pub mod alloc;
pub mod report;
pub mod svg;
pub mod table;
pub mod timer;

pub use alloc::{HeapGauge, HeapSnapshot};
pub use report::{ExperimentReport, Series};
pub use svg::{Bar, LineChart, StackedBarChart};
pub use table::Table;
pub use timer::{PhaseReport, PhaseTimer};

/// Format a `std::time::Duration` in seconds with millisecond resolution,
/// the way the paper's figures label their Y axes ("Execution Time (s)").
pub fn fmt_secs(d: std::time::Duration) -> String {
    format!("{:.3}", d.as_secs_f64())
}

/// Format a byte count using binary units (KiB/MiB/GiB), chosen to make the
/// paper's "420 MB vs 12.8 GB" contrast legible at a glance.
pub fn fmt_bytes(bytes: u64) -> String {
    const KIB: f64 = 1024.0;
    const MIB: f64 = 1024.0 * 1024.0;
    const GIB: f64 = 1024.0 * 1024.0 * 1024.0;
    let b = bytes as f64;
    if b >= GIB {
        format!("{:.2} GiB", b / GIB)
    } else if b >= MIB {
        format!("{:.1} MiB", b / MIB)
    } else if b >= KIB {
        format!("{:.1} KiB", b / KIB)
    } else {
        format!("{bytes} B")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn fmt_secs_millisecond_resolution() {
        assert_eq!(fmt_secs(Duration::from_millis(1500)), "1.500");
        assert_eq!(fmt_secs(Duration::ZERO), "0.000");
        assert_eq!(fmt_secs(Duration::from_micros(1499)), "0.001");
    }

    #[test]
    fn fmt_bytes_unit_selection() {
        assert_eq!(fmt_bytes(0), "0 B");
        assert_eq!(fmt_bytes(1023), "1023 B");
        assert_eq!(fmt_bytes(1024), "1.0 KiB");
        assert_eq!(fmt_bytes(420 * 1024 * 1024), "420.0 MiB");
        assert_eq!(fmt_bytes(13_743_895_347), "12.80 GiB");
    }
}
