//! Spans around the calls into each layer, recorded from the
//! benchmark's own files (spans inside the program are a later change).
//!
//! A traced repetition records one root span, `run`, and one child span
//! per layer call, in memory; it hands them to the harness when it ends.

use crate::alloc;
use crate::json::Json;
use std::time::Instant;

/// Name of the root span of a traced repetition.
pub const ROOT: &str = "run";

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the parent span in the repetition's list; `None` for the
    /// root.
    pub parent: Option<usize>,
    /// Allocations made inside the span; 0 unless this is the counted
    /// pass.
    pub allocs: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records the spans of one repetition, on the thread that composes the
/// workflow.
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    /// Opens the root span.
    pub fn start() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            spans: vec![Span {
                name: ROOT.to_string(),
                start_ns: 0,
                end_ns: 0,
                parent: None,
                allocs: alloc::allocs(),
            }],
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `body` inside a child span of the root.
    pub fn layer<R>(&mut self, name: &str, body: impl FnOnce() -> R) -> R {
        let start_ns = self.now_ns();
        let allocs_before = alloc::allocs();
        let result = body();
        let end_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns,
            parent: Some(0),
            allocs: alloc::allocs() - allocs_before,
        });
        result
    }

    /// Closes the root span and returns every span, root first.
    pub fn finish(mut self) -> Vec<Span> {
        let end_ns = self.now_ns();
        let root = &mut self.spans[0];
        root.end_ns = end_ns;
        root.allocs = alloc::allocs() - root.allocs;
        self.spans
    }
}

/// What a repetition's layer spans account for.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Coverage {
    pub root_ns: u64,
    /// Time inside the root span covered by its direct children.
    pub covered_ns: u64,
}

impl Coverage {
    pub fn share(&self) -> f64 {
        self.covered_ns as f64 / self.root_ns as f64
    }

    /// The root's self time: its duration minus what its children cover.
    pub fn unattributed_ns(&self) -> u64 {
        self.root_ns - self.covered_ns
    }
}

/// Coverage of the root span by its direct children. Overlapping
/// children are counted once and anything outside the root's interval is
/// cut off, so the share never exceeds 1. `None` without a root of
/// positive length.
pub fn coverage(spans: &[Span]) -> Option<Coverage> {
    let root_index = spans.iter().position(|s| s.parent.is_none())?;
    let root = &spans[root_index];
    if root.end_ns <= root.start_ns {
        return None;
    }
    let mut intervals: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == Some(root_index))
        .map(|s| (s.start_ns.max(root.start_ns), s.end_ns.min(root.end_ns)))
        .filter(|(start, end)| end > start)
        .collect();
    intervals.sort_unstable();
    let mut covered_ns = 0;
    let mut frontier = root.start_ns;
    for (start, end) in intervals {
        let start = start.max(frontier);
        if end > start {
            covered_ns += end - start;
            frontier = end;
        }
    }
    Some(Coverage {
        root_ns: root.duration_ns(),
        covered_ns,
    })
}

/// Total time of the spans called `name`.
pub fn total_ns(spans: &[Span], name: &str) -> u64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::duration_ns)
        .sum()
}

/// Total allocations of the spans called `name`.
pub fn total_allocs(spans: &[Span], name: &str) -> u64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.allocs)
        .sum()
}

/// One repetition's spans as the trace file holds them: the spans of a
/// repetition share `run_id`, and `parent` is an index into the same
/// repetition's spans.
pub fn to_json(run_id: usize, threads: usize, spans: &[Span]) -> Vec<Json> {
    spans
        .iter()
        .map(|s| {
            Json::obj([
                ("name", Json::str(&s.name)),
                ("start_ns", Json::Int(s.start_ns)),
                ("end_ns", Json::Int(s.end_ns)),
                (
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::Int(p as u64)),
                ),
                ("run_id", Json::Int(run_id as u64)),
                ("threads", Json::Int(threads as u64)),
            ])
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.to_string(),
            start_ns,
            end_ns,
            parent,
            allocs: 0,
        }
    }

    #[test]
    fn coverage_sums_disjoint_children() {
        let spans = [
            span(ROOT, 0, 1000, None),
            span("a", 10, 400, Some(0)),
            span("b", 400, 990, Some(0)),
        ];
        let c = coverage(&spans).unwrap();
        assert_eq!(
            (c.root_ns, c.covered_ns, c.unattributed_ns()),
            (1000, 980, 20)
        );
        assert!((c.share() - 0.98).abs() < 1e-12);
    }

    #[test]
    fn coverage_counts_overlap_once_and_clips_to_the_root() {
        let spans = [
            span(ROOT, 100, 1100, None),
            span("a", 100, 600, Some(0)),
            span("b", 500, 700, Some(0)),
            span("inside-a", 200, 300, Some(1)),
            span("late", 1000, 1500, Some(0)),
            span("empty", 800, 800, Some(0)),
        ];
        let c = coverage(&spans).unwrap();
        assert_eq!(c.covered_ns, 600 + 100);
        assert!(c.share() <= 1.0);
    }

    #[test]
    fn coverage_needs_a_root_of_positive_length() {
        assert_eq!(coverage(&[]), None);
        assert_eq!(coverage(&[span(ROOT, 5, 5, None)]), None);
        let childless = coverage(&[span(ROOT, 0, 10, None)]).unwrap();
        assert_eq!(childless.covered_ns, 0);
    }

    #[test]
    fn recorder_nests_layers_under_the_root() {
        let mut rec = Recorder::start();
        let x = rec.layer("a", || 7);
        rec.layer("a", || ());
        rec.layer("b", || ());
        let spans = rec.finish();
        assert_eq!(x, 7);
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[0].name, ROOT);
        assert!(spans[1..].iter().all(|s| s.parent == Some(0)));
        assert!(spans[0].end_ns >= spans[3].end_ns);
        assert_eq!(
            total_ns(&spans, "a"),
            spans[1].duration_ns() + spans[2].duration_ns()
        );
        assert!(coverage(&spans).unwrap().share() <= 1.0);
    }
}
