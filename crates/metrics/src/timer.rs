//! Phase timing.
//!
//! The paper's workflow figures are stacked bar charts of named phases.
//! [`PhaseTimer`] accumulates durations under string labels, preserving
//! first-use order so reports list phases in workflow order; [`PhaseReport`]
//! is the immutable result. Durations are supplied by the caller rather
//! than read from a wall clock here, because under the execution simulator
//! (`hpa-exec`) phase durations are *virtual* — the operators time
//! themselves against the executor's clock and record the result.

use std::time::Duration;

/// Accumulates named phase durations in first-use order.
///
/// Phases may be recorded multiple times (e.g. one `kmeans` entry per Lloyd
/// iteration); durations under the same label add up, which matches how the
/// paper aggregates per-phase bars.
#[derive(Debug, Default, Clone)]
pub struct PhaseTimer {
    phases: Vec<(String, Duration)>,
}

impl PhaseTimer {
    /// Create an empty timer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `d` to the phase named `label`, creating it if new.
    pub fn record(&mut self, label: &str, d: Duration) {
        if let Some((_, total)) = self.phases.iter_mut().find(|(l, _)| l == label) {
            *total += d;
        } else {
            self.phases.push((label.to_string(), d));
        }
    }

    /// Finish and return the immutable report.
    pub fn finish(self) -> PhaseReport {
        PhaseReport {
            phases: self.phases,
        }
    }
}

/// Immutable set of named phase durations, in recording order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseReport {
    phases: Vec<(String, Duration)>,
}

impl PhaseReport {
    /// Phases in recording order.
    pub fn phases(&self) -> &[(String, Duration)] {
        &self.phases
    }

    /// Duration of one phase, if recorded.
    pub fn get(&self, label: &str) -> Option<Duration> {
        self.phases
            .iter()
            .find(|(l, _)| l == label)
            .map(|(_, d)| *d)
    }

    /// Sum of all phases — the workflow's total execution time.
    pub fn total(&self) -> Duration {
        self.phases.iter().map(|(_, d)| *d).sum()
    }

    /// Phase labels in recording order.
    pub fn labels(&self) -> Vec<&str> {
        self.phases.iter().map(|(l, _)| l.as_str()).collect()
    }
}

impl std::fmt::Display for PhaseReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (label, d) in &self.phases {
            writeln!(f, "{label:>16}  {:>10.3} s", d.as_secs_f64())?;
        }
        writeln!(f, "{:>16}  {:>10.3} s", "total", self.total().as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    #[test]
    fn record_accumulates_under_same_label() {
        let mut t = PhaseTimer::new();
        t.record("kmeans", ms(10));
        t.record("kmeans", ms(5));
        let r = t.finish();
        assert_eq!(r.get("kmeans"), Some(ms(15)));
        assert_eq!(r.total(), ms(15));
    }

    #[test]
    fn phases_keep_first_use_order() {
        let mut t = PhaseTimer::new();
        t.record("input+wc", ms(1));
        t.record("transform", ms(2));
        t.record("input+wc", ms(3));
        t.record("kmeans", ms(4));
        let r = t.finish();
        assert_eq!(r.labels(), vec!["input+wc", "transform", "kmeans"]);
    }

    #[test]
    fn display_includes_total() {
        let mut t = PhaseTimer::new();
        t.record("input+wc", ms(1500));
        let shown = format!("{}", t.finish());
        assert!(shown.contains("input+wc"));
        assert!(shown.contains("total"));
        assert!(shown.contains("1.500"));
    }
}
