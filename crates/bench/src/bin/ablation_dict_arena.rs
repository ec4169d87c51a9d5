//! Ablation — arena dictionary: map vs u-map vs hash vs arena, per phase.
//!
//! Measures the word-count, document-frequency-merge, and vocabulary-
//! lookup phases under real execution for every dictionary backend at
//! P ∈ {1, 4, max} threads (deduplicated). Before any timing, the bin
//! asserts that every backend produces a bit-identical TF/IDF model —
//! term ids, df counts, and weight bits — so the numbers isolate the
//! data structure.
//!
//! Emits `BENCH_dict_arena.json` into the output directory (the CI
//! bench-smoke artifact) alongside the usual CSV report.

use hpa_bench::json::JsonWriter;
use hpa_bench::BenchConfig;
use hpa_corpus::{Corpus, Tokenizer};
use hpa_dict::{AnyDict, DictKind, Dictionary};
use hpa_exec::Exec;
use hpa_metrics::{ExperimentReport, Stopwatch, Table};
use hpa_tfidf::{TfIdf, TfIdfConfig};

const REPEATS: usize = 5;
/// Row label of the document-frequency merge phase.
const MERGE_LABEL: &str = "df-merge";
/// `(label, kind)` arms measured in every phase. `map`/`u-map` are the
/// paper's Figure 4 arms; `hash` and `arena` are the growable hash table
/// and the interned open-addressing table.
const ARMS: [(&str, DictKind); 4] = [
    ("map", DictKind::BTree),
    ("u-map", DictKind::PAPER_PRESIZE),
    ("hash", DictKind::Hash),
    ("arena", DictKind::Arena),
];

fn op(kind: DictKind) -> TfIdf {
    TfIdf::new(TfIdfConfig {
        dict_kind: kind,
        grain: 0,
        charge_input_io: false,
        ..Default::default()
    })
}

fn exec_for(threads: usize) -> Exec {
    if threads <= 1 {
        Exec::sequential()
    } else {
        Exec::pool(threads)
    }
}

/// Assert that `kind` produces the same model as the tree reference,
/// down to the f64 bits, under both a sequential and a pooled executor.
fn assert_bit_identical(reference: &hpa_tfidf::TfIdfModel, kind: DictKind, corpus: &Corpus) {
    for exec in [Exec::sequential(), Exec::pool(3)] {
        let model = op(kind).fit(&exec, corpus);
        assert_eq!(
            reference.vocab.len(),
            model.vocab.len(),
            "{kind:?}: vocabulary size diverged"
        );
        for id in 0..reference.vocab.len() as u32 {
            assert_eq!(
                reference.vocab.word(id),
                model.vocab.word(id),
                "{kind:?}: term id {id} names a different word"
            );
            assert_eq!(
                reference.vocab.df(id),
                model.vocab.df(id),
                "{kind:?}: df of term {id} diverged"
            );
        }
        for (i, (a, b)) in reference.vectors.iter().zip(&model.vectors).enumerate() {
            assert_eq!(a.terms(), b.terms(), "{kind:?}: doc {i} term ids diverged");
            assert_eq!(
                a.weights(),
                b.weights(),
                "{kind:?}: doc {i} weight bits diverged"
            );
        }
    }
}

/// Min-of-repeats wall time of the full input+wc phase.
fn time_wc(kind: DictKind, threads: usize, corpus: &Corpus) -> f64 {
    let exec = exec_for(threads);
    let o = op(kind);
    let _ = o.count_words(&exec, corpus); // warm-up
    (0..REPEATS)
        .map(|_| {
            let sw = Stopwatch::start();
            let counts = o.count_words(&exec, corpus);
            let t = sw.elapsed().as_secs_f64();
            std::hint::black_box(counts.df.len());
            t
        })
        .fold(f64::INFINITY, f64::min)
}

/// One chunk-local document-frequency dictionary per worker: the inputs
/// the serial merge tail folds together.
fn build_partials(kind: DictKind, workers: usize, corpus: &Corpus) -> Vec<AnyDict> {
    let docs = corpus.documents();
    let chunk = docs.len().div_ceil(workers.max(1)).max(1);
    docs.chunks(chunk)
        .map(|chunk_docs| {
            let mut df = kind.new_dict();
            let mut tok = Tokenizer::new();
            for doc in chunk_docs {
                let mut seen = kind.new_dict();
                tok.for_each(&doc.text, |w| {
                    if seen.add(w, 1) == 1 {
                        df.add(w, 1);
                    }
                });
            }
            df
        })
        .collect()
}

/// Min-of-repeats wall time of folding `partials` into a fresh global
/// dictionary — the word-count phase's serial merge tail. At P = 1 this
/// is one partial folded into an empty dictionary (every entry still
/// inserts once); at higher P the same entries arrive in more, smaller
/// partials.
fn time_merge(kind: DictKind, partials: &[AnyDict]) -> f64 {
    (0..REPEATS)
        .map(|_| {
            let mut global = kind.new_dict();
            let sw = Stopwatch::start();
            for p in partials {
                global.merge_from(p);
            }
            let t = sw.elapsed().as_secs_f64();
            std::hint::black_box(global.len());
            t
        })
        .fold(f64::INFINITY, f64::min)
}

/// Min-of-repeats wall time of probing every vocabulary word `rounds`
/// times — the transform phase's lookup traffic against the index.
fn time_lookup(kind: DictKind, words: &[String], rounds: usize) -> f64 {
    let mut index = kind.new_dict();
    for (i, w) in words.iter().enumerate() {
        index.insert(w, i as u64);
    }
    (0..REPEATS)
        .map(|_| {
            let sw = Stopwatch::start();
            let mut acc = 0u64;
            for _ in 0..rounds {
                for w in words {
                    acc += index.get(w).expect("indexed word");
                }
            }
            let t = sw.elapsed().as_secs_f64();
            std::hint::black_box(acc);
            t
        })
        .fold(f64::INFINITY, f64::min)
}

struct PhaseRow {
    label: &'static str,
    threads: usize,
    /// Times in ARMS order.
    times: [f64; ARMS.len()],
}

fn arm_index(kind: DictKind) -> usize {
    ARMS.iter()
        .position(|&(_, k)| k == kind)
        .expect("kind is a measured arm")
}

fn main() {
    let cfg = BenchConfig::from_env();
    let mut report = ExperimentReport::new(
        "ablation_dict_arena",
        "dictionary backends per phase: map vs u-map vs hash vs arena",
        "real execution; min of repeats",
        &cfg.scale_label(),
    );

    let corpus = cfg.mix();

    // Correctness first: a timing table comparing diverging backends
    // would be meaningless.
    let reference = op(DictKind::BTree).fit(&Exec::sequential(), &corpus);
    for kind in [DictKind::PAPER_PRESIZE, DictKind::Hash, DictKind::Arena] {
        assert_bit_identical(&reference, kind, &corpus);
    }
    eprintln!("bit-identity: all backends match the tree reference exactly");

    let max_p = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut thread_counts = vec![1usize, 4, max_p];
    thread_counts.sort_unstable();
    thread_counts.dedup();

    let words: Vec<String> = (0..reference.vocab.len() as u32)
        .map(|id| reference.vocab.word(id).to_string())
        .collect();
    let lookup_rounds = 20;

    let mut rows: Vec<PhaseRow> = Vec::new();
    for &t in &thread_counts {
        let mut wc = [0.0; ARMS.len()];
        let mut merge = [0.0; ARMS.len()];
        for (i, &(label, kind)) in ARMS.iter().enumerate() {
            wc[i] = time_wc(kind, t, &corpus);
            let partials = build_partials(kind, t, &corpus);
            merge[i] = time_merge(kind, &partials);
            eprintln!(
                "P={t} {label}: wc {:.4}s, merge of {} partial(s) {:.5}s",
                wc[i],
                partials.len(),
                merge[i]
            );
        }
        rows.push(PhaseRow {
            label: "input+wc",
            threads: t,
            times: wc,
        });
        rows.push(PhaseRow {
            label: MERGE_LABEL,
            threads: t,
            times: merge,
        });
    }
    // Lookup traffic is per-probe work; measure once and reuse across
    // thread counts.
    let mut lookup = [0.0; ARMS.len()];
    for (i, &(label, kind)) in ARMS.iter().enumerate() {
        lookup[i] = time_lookup(kind, &words, lookup_rounds);
        eprintln!(
            "lookup {label}: {:.5}s for {} probes",
            lookup[i],
            words.len() * lookup_rounds
        );
    }
    for &t in &thread_counts {
        rows.push(PhaseRow {
            label: "vocab-lookup",
            threads: t,
            times: lookup,
        });
    }

    // Acceptance check: the arena's cached-hash fold beats the
    // re-hashing fold of the growable hash table on the merge phase.
    for row in rows.iter().filter(|r| r.label == MERGE_LABEL) {
        let arena = row.times[arm_index(DictKind::Arena)];
        let hash = row.times[arm_index(DictKind::Hash)];
        assert!(
            arena < hash,
            "P={}: arena merge {arena:.6}s not faster than hash merge {hash:.6}s",
            row.threads
        );
    }

    // Arena instrumentation: fold the partials once with tracing on and
    // report the probe/rehash/arena-bytes counters the merge emitted.
    hpa_trace::enable();
    let _ = hpa_trace::take();
    {
        let partials = build_partials(DictKind::Arena, 4, &corpus);
        let mut global = DictKind::Arena.new_dict();
        for p in &partials {
            global.merge_from(p);
        }
    }
    let rec = hpa_trace::take();
    let counter_max = |name: &str| {
        rec.counters
            .iter()
            .filter(|c| c.cat == "dict" && c.name == name)
            .map(|c| c.value)
            .max()
            .unwrap_or(0)
    };
    let probe_steps = counter_max("probe-steps");
    let rehashes = counter_max("rehashes");
    let arena_bytes = counter_max("arena-bytes");

    let mut headers = vec!["phase", "threads"];
    headers.extend(ARMS.iter().map(|&(l, _)| l));
    let mut table = Table::new(
        "Dictionary backend per phase (seconds, min of repeats)",
        &headers,
    );
    for row in &rows {
        let mut cells = vec![row.label.to_string(), row.threads.to_string()];
        cells.extend(row.times.iter().map(|t| format!("{t:.5}")));
        table.row(&cells);
    }
    report.add_table(table);
    report.note("bit-identical TF/IDF output across all backends asserted before timing");
    report.note(&format!(
        "arena merge instrumentation: {probe_steps} probe steps, {rehashes} rehashes, {arena_bytes} arena bytes"
    ));

    let json = render_json(
        &cfg,
        &corpus.name,
        &thread_counts,
        &rows,
        probe_steps,
        rehashes,
        arena_bytes,
    );
    let json_path = cfg.out_dir.join("BENCH_dict_arena.json");
    if let Err(e) = std::fs::create_dir_all(&cfg.out_dir) {
        eprintln!("warning: could not create {}: {e}", cfg.out_dir.display());
    }
    match std::fs::write(&json_path, json) {
        Ok(()) => println!("wrote {}", json_path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", json_path.display()),
    }

    cfg.emit(&report);
}

#[allow(clippy::too_many_arguments)]
fn render_json(
    cfg: &BenchConfig,
    corpus: &str,
    thread_counts: &[usize],
    rows: &[PhaseRow],
    probe_steps: u64,
    rehashes: u64,
    arena_bytes: u64,
) -> String {
    JsonWriter::document(|w| {
        w.str_field("bench", "dict_arena");
        w.str_field("corpus", corpus);
        w.f64_field_display("scale", cfg.scale);
        w.u64_field("seed", cfg.seed);
        w.u64_array_field("threads", thread_counts.iter().map(|&t| t as u64));
        w.u64_field("arena_merge_probe_steps", probe_steps);
        w.u64_field("arena_merge_rehashes", rehashes);
        w.u64_field("arena_merge_arena_bytes", arena_bytes);
        w.array_field("phases", |w| {
            for row in rows {
                w.object_elem(|w| {
                    w.str_field("phase", row.label);
                    w.u64_field("threads", row.threads as u64);
                    for (j, &(label, _)) in ARMS.iter().enumerate() {
                        w.f64_field(&format!("{label}_s"), row.times[j], 6);
                    }
                });
            }
        });
    })
}
