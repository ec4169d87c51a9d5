//! The benchmark's metrics by name, and `BENCHMARK.json`, which states
//! the same thing for the driver.

use crate::json::Json;
use crate::workload::WORKLOADS;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: what a user of `hpa cluster` sees.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the earlier median by which the metric may worsen before
    /// a change counts as a regression.
    pub bound: f64,
}

impl EndToEnd {
    /// How much worse `now` is than `before`, as a share of `before`;
    /// negative when it is better.
    pub fn worsening(&self, before: f64, now: f64) -> f64 {
        match self.better {
            Better::Lower => (now - before) / before,
            Better::Higher => (before - now) / before,
        }
    }
}

/// Seconds one driver run measures for (`run_seconds`).
pub const RUN_SECONDS: u64 = 20;

/// The bounds are set by what the build host can hold, not by what one
/// would like: its CPU speed drifts by itself (README, "Noise floor"), so
/// medians of the same code taken minutes apart differ by 10 to 20 %.
/// Everything derived from a time carries the widest bound the benchmark
/// contract allows; the memory peak is steadier and is bounded tighter.
pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "wall_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "wall_p1_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "speedup",
        unit: "ratio",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "mb_per_s",
        unit: "MB/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.08,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
];

/// Repetitions that errored, timed out or failed an output check, over
/// repetitions attempted. Printed and written beside [`END_TO_END`] but
/// not part of it: the driver takes failures as counts, and a metric
/// that should read 0 has no relative bound. Any value above 0 fails.
pub const FAILED_SHARE: EndToEnd = EndToEnd {
    name: "failed_share",
    unit: "ratio",
    better: Better::Lower,
    bound: 0.0,
};

/// A metric of one layer: name, unit, direction. No bound.
pub type PerLayer = (&'static str, &'static str, Better);

use Better::{Higher, Lower};

pub const PER_LAYER: [PerLayer; 39] = [
    ("io.load_s", "s", Lower),
    ("io.files", "count", Lower),
    ("io.bytes", "bytes", Lower),
    ("tfidf.count_words_s", "s", Lower),
    ("tfidf.tokens", "count", Lower),
    ("tfidf.build_vocab_s", "s", Lower),
    ("tfidf.vocab_terms", "count", Lower),
    ("tfidf.transform_s", "s", Lower),
    ("tfidf.nnz", "count", Lower),
    ("tfidf.free_s", "s", Lower),
    ("dict.counts_heap_mb", "MB", Lower),
    ("dict.vocab_heap_mb", "MB", Lower),
    ("arff.write_s", "s", Lower),
    ("arff.read_s", "s", Lower),
    ("arff.bytes", "bytes", Lower),
    ("colfmt.write_s", "s", Lower),
    ("colfmt.read_s", "s", Lower),
    ("colfmt.bytes", "bytes", Lower),
    ("kmeans.fit_s", "s", Lower),
    ("kmeans.iterations", "count", Lower),
    ("kmeans.s_per_iter", "s", Lower),
    ("kmeans.distances_computed", "count", Lower),
    ("kmeans.distances_pruned", "count", Higher),
    ("sparse.ns_per_distance", "ns", Lower),
    ("output.write_s", "s", Lower),
    ("output.bytes", "bytes", Lower),
    ("exec.load_speedup", "ratio", Higher),
    ("exec.count_words_speedup", "ratio", Higher),
    ("exec.transform_speedup", "ratio", Higher),
    ("exec.transport_write_speedup", "ratio", Higher),
    ("exec.transport_read_speedup", "ratio", Higher),
    ("exec.kmeans_speedup", "ratio", Higher),
    ("core.unattributed_s", "s", Lower),
    ("core.trace_delta_s", "s", Lower),
    ("mem.count_words_allocs", "count", Lower),
    ("mem.transform_allocs", "count", Lower),
    ("mem.transport_allocs", "count", Lower),
    ("mem.kmeans_allocs", "count", Lower),
    ("mem.peak_heap_mb", "MB", Lower),
];

/// `BENCHMARK.json` as this code defines it; a test holds the committed
/// file to it.
pub fn manifest() -> Json {
    let command = [
        "cargo",
        "run",
        "--release",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
    ];
    Json::obj([
        (
            "command",
            Json::Arr(command.iter().map(|s| Json::str(s)).collect()),
        ),
        ("paths", Json::Arr(vec![Json::str("benchmark")])),
        ("run_seconds", Json::Int(RUN_SECONDS)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.as_str())),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|(name, unit, better)| {
                        Json::obj([
                            ("name", Json::str(name)),
                            ("unit", Json::str(unit)),
                            ("better", Json::str(better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::valid_name;
    use std::collections::BTreeSet;

    #[test]
    fn committed_manifest_is_the_one_the_code_defines() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            committed,
            manifest().render_pretty(),
            "regenerate with `bench manifest > BENCHMARK.json`"
        );
    }

    #[test]
    fn names_units_and_bounds_meet_the_contract() {
        let mut names = BTreeSet::new();
        let units = END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|(n, u, _)| (*n, *u)))
            .chain(WORKLOADS.iter().map(|w| (w.name, "count")));
        for (name, unit) in units {
            assert!(valid_name(name), "{name}");
            assert!(names.insert(name), "{name} used twice");
            assert!(
                !unit.is_empty()
                    && unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{unit}"
            );
        }
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        for w in &WORKLOADS {
            assert!(
                w.why.len() <= 200 && !w.why.contains('\n'),
                "{}: {}",
                w.name,
                w.why.len()
            );
        }
    }

    #[test]
    fn worsening_follows_the_direction() {
        let wall = &END_TO_END[0];
        assert!((wall.worsening(1.0, 1.1) - 0.1).abs() < 1e-12);
        let speedup = &END_TO_END[2];
        assert!((speedup.worsening(2.0, 1.8) - 0.1).abs() < 1e-12);
        assert!(speedup.worsening(2.0, 2.2) < 0.0);
    }
}
