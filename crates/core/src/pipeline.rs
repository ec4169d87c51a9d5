//! Trained-pipeline persistence and prediction.
//!
//! The paper's workflow ends at cluster assignments, but a downstream
//! user wants to *keep* the fitted model and classify new documents with
//! it. [`TrainedPipeline`] bundles what that takes — the vocabulary with
//! its document frequencies (to reproduce training-time IDF weights) and
//! the K-means centroids — with a versioned plain-text serialization and
//! a parallel nearest-centroid predictor.

use crate::{OperatorCtx, WorkflowError};
use hpa_corpus::{Corpus, Tokenizer};
use hpa_dict::{pack, DictKind, Dictionary as _};
use hpa_exec::{Exec, TaskCost};
use hpa_kmeans::{KMeans, KMeansConfig};
use hpa_metrics::PhaseTimer;
use hpa_sparse::{CentroidBlock, SparseVec};
use hpa_tfidf::{TfIdf, TfIdfConfig, Vocab};
use std::cmp::Reverse;
use std::io::{BufRead, Write};

/// A fitted TF/IDF → K-means pipeline, ready to classify new documents.
#[derive(Debug, Clone)]
pub struct TrainedPipeline {
    /// Dictionary kind used for the vocabulary index at prediction time.
    pub dict_kind: DictKind,
    /// Term vocabulary with training-time document frequencies.
    pub vocab: Vocab,
    /// Number of training documents (the `N` of the IDF formula).
    pub num_docs: usize,
    /// Cluster centroids in TF/IDF space, in the term-major layout the
    /// fit produced and the predictor reads.
    pub centroids: CentroidBlock,
}

/// Errors loading a serialized pipeline.
#[derive(Debug)]
pub struct PersistError {
    /// 1-based line number where the problem was found (0 = preamble).
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "pipeline load error at line {}: {}",
            self.line, self.message
        )
    }
}

impl std::error::Error for PersistError {}

const MAGIC: &str = "HPA-PIPELINE v1";

impl TrainedPipeline {
    /// Train on a corpus: fused TF/IDF → K-means, returning the pipeline
    /// and the training assignments.
    pub fn train(
        corpus: &Corpus,
        exec: &Exec,
        tfidf: TfIdfConfig,
        kmeans: KMeansConfig,
    ) -> Result<(Self, Vec<u32>), WorkflowError> {
        let mut timer = PhaseTimer::new();
        let mut ctx = OperatorCtx {
            exec,
            timer: &mut timer,
        };
        let tfidf = TfIdf::new(tfidf);
        let counts = ctx.timed("input+wc", |exec| tfidf.try_count_words(exec, corpus))?;
        let model = ctx.timed("transform", |exec| {
            let vocab = tfidf.build_vocab(exec, &counts);
            tfidf.transform(exec, &counts, &vocab)
        });
        drop(counts);
        let fitted = ctx.timed("kmeans", |exec| {
            KMeans::new(kmeans).fit(exec, &model.vectors, model.vocab.len())
        });
        Ok((
            TrainedPipeline {
                dict_kind: model.vocab.kind(),
                vocab: model.vocab,
                num_docs: model.num_docs,
                centroids: fitted.centroids,
            },
            fitted.assignments,
        ))
    }

    /// Vectorize one document with the *training* vocabulary and IDF,
    /// through the scoring function training used ([`Vocab::score`]).
    /// Unknown words are ignored (they have no trained weight).
    pub fn vectorize(&self, text: &str) -> SparseVec {
        let mut ids = Vec::new();
        Tokenizer::new().for_each(text, |w| ids.extend(self.vocab.lookup(w).map(|(id, _)| id)));
        ids.sort_unstable();
        let mut keys: Vec<u64> = ids
            .chunk_by(|a, b| a == b)
            .map(|same| {
                let tf = u32::try_from(same.len()).expect("a term frequency fits 32 bits");
                pack(same[0], tf)
            })
            .collect();
        self.vocab.score(&mut keys)
    }

    /// Assign each document of `corpus` to its nearest trained centroid
    /// (parallel over documents), through the term-major blocked kernel.
    /// The documents are cut by the executor's default grain — about
    /// eight chunks per thread, for stealing to balance — and each chunk
    /// reads its documents into one recycled buffer and returns its slice
    /// of the output.
    ///
    /// # Errors
    ///
    /// [`WorkflowError::Io`] when a document cannot be read; the first
    /// failing chunk's error, naming the file.
    pub fn predict(&self, exec: &Exec, corpus: &Corpus) -> Result<Vec<u32>, WorkflowError> {
        let chunks = exec.par_map_chunks(
            corpus.len(),
            0,
            |range| {
                let mut dist = vec![0.0; self.centroids.k()];
                let mut buf = String::new();
                let mut nearest = |i: usize| -> std::io::Result<u32> {
                    let text = corpus.text(i, &mut buf)?;
                    self.centroids
                        .distances_into(&self.vectorize(text), &mut dist);
                    let mut best = 0u32;
                    let mut best_d = f64::INFINITY;
                    for (c, &d) in dist.iter().enumerate() {
                        if d < best_d {
                            best_d = d;
                            best = c as u32;
                        }
                    }
                    Ok(best)
                };
                range
                    .map(&mut nearest)
                    .collect::<std::io::Result<Vec<u32>>>()
            },
            |range| {
                let bytes: u64 = range.map(|i| corpus.doc_bytes(i)).sum();
                TaskCost::cpu_mem((bytes as f64 * 3.0) as u64, bytes)
            },
        );
        let chunks = chunks.into_iter().collect::<std::io::Result<Vec<_>>>()?;
        Ok(chunks.concat())
    }

    /// Serialize as versioned plain text. Weights round-trip exactly
    /// (shortest-representation `f64` formatting).
    pub fn save<W: Write>(&self, mut out: W) -> std::io::Result<()> {
        writeln!(out, "{MAGIC}")?;
        writeln!(out, "num_docs {}", self.num_docs)?;
        writeln!(out, "dict {}", self.dict_kind.label())?;
        writeln!(out, "vocab {}", self.vocab.len())?;
        for id in 0..self.vocab.len() as u32 {
            writeln!(out, "{} {}", self.vocab.word(id), self.vocab.df(id))?;
        }
        let (k, dim) = (self.centroids.k(), self.centroids.dim());
        writeln!(out, "centroids {k} {dim}")?;
        for c in 0..k {
            let mut first = true;
            for x in self.centroids.centroid(c).as_slice() {
                if !first {
                    write!(out, " ")?;
                }
                write!(out, "{x}")?;
                first = false;
            }
            writeln!(out)?;
        }
        out.flush()
    }

    /// Load a pipeline serialized by [`TrainedPipeline::save`].
    pub fn load<R: BufRead>(input: R) -> Result<Self, PersistError> {
        let mut lines = input.lines().enumerate();
        let mut next = |what: &str| -> Result<(usize, String), PersistError> {
            match lines.next() {
                Some((i, Ok(l))) => Ok((i + 1, l)),
                Some((i, Err(e))) => Err(PersistError {
                    line: i + 1,
                    message: format!("i/o error: {e}"),
                }),
                None => Err(PersistError {
                    line: 0,
                    message: format!("unexpected end of file, expected {what}"),
                }),
            }
        };
        let err = |line: usize, message: String| PersistError { line, message };

        let (l, magic) = next("magic header")?;
        if magic.trim() != MAGIC {
            return Err(err(l, format!("bad magic '{magic}', expected '{MAGIC}'")));
        }
        let (l, nd) = next("num_docs")?;
        let num_docs: usize = nd
            .strip_prefix("num_docs ")
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| err(l, format!("bad num_docs line '{nd}'")))?;
        let (l, dk) = next("dict")?;
        let dict_kind: DictKind = dk
            .strip_prefix("dict ")
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| err(l, format!("bad dict line '{dk}'")))?;
        let (l, vc) = next("vocab")?;
        let vocab_len: usize = vc
            .strip_prefix("vocab ")
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| err(l, format!("bad vocab line '{vc}'")))?;

        // The entries must come in term-id order — descending df, words
        // ascending within one df — or the vocabulary rebuilt from them
        // would number its terms unlike the centroid rows.
        let mut df_dict = dict_kind.new_dict();
        let mut last: Option<(u64, String)> = None;
        for _ in 0..vocab_len {
            let (l, entry) = next("vocabulary entry")?;
            let (word, df) = entry
                .rsplit_once(' ')
                .ok_or_else(|| err(l, format!("bad vocab entry '{entry}'")))?;
            let df: u64 = df
                .parse()
                .map_err(|_| err(l, format!("bad df in '{entry}'")))?;
            // A df outside 1..=N is no count over the training documents;
            // `Vocab::from_df_dict` would drop a 0, leaving fewer terms
            // than centroid rows.
            if df == 0 || df > num_docs as u64 {
                return Err(err(l, format!("df outside 1..={num_docs} in '{entry}'")));
            }
            if let Some((prev_df, prev)) = &last {
                if (Reverse(*prev_df), prev.as_str()) >= (Reverse(df), word) {
                    return Err(err(l, format!("vocabulary out of rank order at '{word}'")));
                }
            }
            last = Some((df, word.to_string()));
            df_dict.insert(word, df);
        }
        let vocab = Vocab::from_df_dict(dict_kind, &df_dict, num_docs);

        let (l, ch) = next("centroids header")?;
        let rest = ch
            .strip_prefix("centroids ")
            .ok_or_else(|| err(l, format!("bad centroids line '{ch}'")))?;
        let (k_s, dim_s) = rest
            .split_once(' ')
            .ok_or_else(|| err(l, format!("bad centroids line '{ch}'")))?;
        let k: usize = k_s.parse().map_err(|_| err(l, format!("bad k '{k_s}'")))?;
        let dim: usize = dim_s
            .parse()
            .map_err(|_| err(l, format!("bad dim '{dim_s}'")))?;
        // `k × dim` is the file's claim: refuse what cannot be allocated
        // rather than abort inside `zeros`.
        let fits = k
            .checked_mul(dim)
            .is_some_and(|cells| Vec::<f64>::new().try_reserve_exact(cells).is_ok());
        if !fits {
            return Err(err(l, format!("cannot hold {k} centroids of {dim} terms")));
        }
        let mut centroids = CentroidBlock::zeros(k, dim);
        for c in 0..k {
            let (l, row) = next("centroid row")?;
            let values: Result<Vec<f64>, _> =
                row.split_whitespace().map(str::parse::<f64>).collect();
            let values = values.map_err(|e| err(l, format!("bad centroid value: {e}")))?;
            if values.len() != dim {
                return Err(err(
                    l,
                    format!("centroid has {} values, expected {dim}", values.len()),
                ));
            }
            centroids.set_centroid(c, &values);
        }
        Ok(TrainedPipeline {
            dict_kind,
            vocab,
            num_docs,
            centroids,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpa_corpus::CorpusSpec;

    fn train_small() -> (TrainedPipeline, Vec<u32>, Corpus) {
        let corpus = CorpusSpec::mix().scaled(0.002).generate(23);
        let exec = Exec::sequential();
        let (pipeline, assignments) = TrainedPipeline::train(
            &corpus,
            &exec,
            TfIdfConfig::default(),
            KMeansConfig {
                k: 4,
                max_iters: 10,
                seed: 8,
                grain: 16,
                ..Default::default()
            },
        )
        .unwrap();
        (pipeline, assignments, corpus)
    }

    #[test]
    fn predict_reads_a_directory_corpus_and_names_a_file_it_cannot_read() {
        let (pipeline, _, corpus) = train_small();
        let dir = std::env::temp_dir().join(format!("hpa_predict_dir_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        hpa_corpus::disk::write_corpus(&corpus, &dir).unwrap();
        let exec = Exec::pool(2);
        let disk = hpa_io::load_corpus_parallel(&exec, "disk", &dir).unwrap();
        assert_eq!(
            pipeline.predict(&exec, &disk).unwrap(),
            pipeline.predict(&exec, &corpus).unwrap()
        );
        std::fs::remove_file(dir.join("doc_000005.txt")).unwrap();
        match pipeline.predict(&exec, &disk) {
            Err(WorkflowError::Io(e)) => assert!(e.to_string().contains("doc_000005.txt"), "{e}"),
            other => panic!("expected an i/o error, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn predict_on_training_data_matches_final_assignment() {
        let (pipeline, assignments, corpus) = train_small();
        // Training assignments are the argmin against the *pre-recompute*
        // centroids; predict uses the final centroids, so it equals one
        // extra Lloyd assignment step. On converged runs they coincide.
        let predicted = pipeline.predict(&Exec::sequential(), &corpus).unwrap();
        let agree = predicted
            .iter()
            .zip(&assignments)
            .filter(|(a, b)| a == b)
            .count();
        assert!(
            agree as f64 >= 0.9 * corpus.len() as f64,
            "only {agree}/{} predictions match training assignments",
            corpus.len()
        );
    }

    #[test]
    fn save_load_round_trip_preserves_predictions() {
        let (pipeline, _, corpus) = train_small();
        let mut bytes = Vec::new();
        pipeline.save(&mut bytes).unwrap();
        let loaded = TrainedPipeline::load(std::io::Cursor::new(&bytes)).unwrap();
        assert_eq!(loaded.num_docs, pipeline.num_docs);
        assert_eq!(loaded.vocab.len(), pipeline.vocab.len());
        // Bit for bit: the weights through the text, the norms through
        // the same term-order sum the fit kept current.
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        let (a, b) = (&loaded.centroids, &pipeline.centroids);
        assert_eq!((a.k(), a.dim()), (b.k(), b.dim()));
        assert_eq!(bits(a.norms()), bits(b.norms()));
        for c in 0..a.k() {
            assert_eq!(
                bits(a.centroid(c).as_slice()),
                bits(b.centroid(c).as_slice())
            );
        }
        let exec = Exec::sequential();
        assert_eq!(
            pipeline.predict(&exec, &corpus).unwrap(),
            loaded.predict(&exec, &corpus).unwrap(),
            "loaded pipeline must predict identically"
        );
    }

    #[test]
    fn vectorize_ignores_unknown_words() {
        let (pipeline, _, _) = train_small();
        let v = pipeline.vectorize("zzzznotaword qqqqalsonot");
        assert!(v.is_empty());
    }

    #[test]
    fn vectorize_reproduces_the_training_vectors_bit_for_bit() {
        let corpus = CorpusSpec::mix().scaled(0.002).generate(23);
        for dict_kind in [DictKind::BTree, DictKind::Arena] {
            let tfidf = TfIdfConfig {
                dict_kind,
                min_df: 2,
                ..Default::default()
            };
            let exec = Exec::pool(2);
            let model = TfIdf::new(tfidf).fit(&exec, &corpus);
            let (pipeline, _) = TrainedPipeline::train(
                &corpus,
                &exec,
                tfidf,
                KMeansConfig {
                    k: 2,
                    max_iters: 1,
                    ..Default::default()
                },
            )
            .unwrap();
            let mut bytes = Vec::new();
            pipeline.save(&mut bytes).unwrap();
            let loaded = TrainedPipeline::load(std::io::Cursor::new(&bytes)).unwrap();
            for (doc, trained) in corpus.documents().unwrap().iter().zip(&model.vectors) {
                for p in [&pipeline, &loaded] {
                    let v = p.vectorize(&doc.text);
                    assert_eq!(v.terms(), trained.terms(), "{dict_kind:?} {}", doc.name);
                    let bits = |v: &SparseVec| -> Vec<u64> {
                        v.weights().iter().map(|w| w.to_bits()).collect()
                    };
                    assert_eq!(bits(&v), bits(trained), "{dict_kind:?} {}", doc.name);
                }
            }
        }
    }

    #[test]
    fn predict_parallel_matches_sequential() {
        let (pipeline, _, corpus) = train_small();
        let seq = pipeline.predict(&Exec::sequential(), &corpus).unwrap();
        let par = pipeline.predict(&Exec::pool(3), &corpus).unwrap();
        let sim = pipeline
            .predict(
                &Exec::simulated(4, hpa_exec::MachineModel::default()),
                &corpus,
            )
            .unwrap();
        assert_eq!(seq, par);
        assert_eq!(seq, sim);
    }

    #[test]
    fn load_rejects_corrupt_input() {
        for (input, needle) in [
            ("", "unexpected end"),
            ("WRONG MAGIC\n", "bad magic"),
            ("HPA-PIPELINE v1\nnum_docs x\n", "bad num_docs"),
            (
                "HPA-PIPELINE v1\nnum_docs 3\ndict map\nvocab 1\nzeta 1\ncentroids 1 2\n1.0\n",
                "expected 2",
            ),
            (
                "HPA-PIPELINE v1\nnum_docs 3\ndict map\nvocab 2\nbbb 1\naaa 1\ncentroids 0 0\n",
                "out of rank order at 'aaa'",
            ),
            (
                "HPA-PIPELINE v1\nnum_docs 3\ndict arena\nvocab 2\naaa 1\nbbb 0\ncentroids 1 2\n0.5 0.25\n",
                "df outside 1..=3 in 'bbb 0'",
            ),
            (
                "HPA-PIPELINE v1\nnum_docs 3\ndict map\nvocab 1\naaa 4\ncentroids 1 1\n0.5\n",
                "df outside 1..=3 in 'aaa 4'",
            ),
            // Ascending words, but a rarer term before a commoner one.
            (
                "HPA-PIPELINE v1\nnum_docs 3\ndict arena\nvocab 2\naaa 1\nbbb 2\ncentroids 0 0\n",
                "out of rank order at 'bbb'",
            ),
            (
                "HPA-PIPELINE v1\nnum_docs 3\ndict map\nvocab 1\nzeta 1\ncentroids 4611686018427387904 8\n",
                "cannot hold",
            ),
        ] {
            let e = TrainedPipeline::load(std::io::Cursor::new(input.as_bytes()))
                .err()
                .unwrap_or_else(|| panic!("input {input:?} should fail"));
            assert!(
                e.to_string().contains(needle),
                "error for {input:?} was '{e}', expected to contain '{needle}'"
            );
        }
    }
}
