#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! Synthetic text corpora calibrated to the paper's data sets.
//!
//! The paper evaluates on two document collections (Table 1):
//!
//! | Input         | Documents | Bytes    | Distinct words |
//! |---------------|-----------|----------|----------------|
//! | Mix           | 23 432    | 62.8 MB  | 184 743        |
//! | NSF Abstracts | 101 483   | 310.9 MB | 267 914        |
//!
//! Neither corpus is redistributable, so this crate synthesizes
//! statistically equivalent ones: Zipf-distributed vocabularies (word
//! frequencies in natural text follow Zipf's law), log-normal document
//! lengths, and deterministic per-document seeding so generation is
//! reproducible and order-independent (documents can be generated in
//! parallel or lazily). The TF/IDF and K-means code paths only see corpus
//! *statistics* — document count, length distribution, vocabulary size and
//! skew — all of which are matched; the actual English text is irrelevant
//! to the measured behaviour.
//!
//! [`CorpusSpec::mix`] and [`CorpusSpec::nsf_abstracts`] are the presets;
//! [`CorpusSpec::scaled`] shrinks them for CI (vocabulary shrinks with
//! Heaps' law so sparsity is preserved).

pub mod disk;
pub mod stats;
pub mod tokenize;
pub mod words;
pub mod zipf;

pub use stats::CorpusStats;
pub use tokenize::Tokenizer;

use hpa_rng::SplitMix64;
use std::borrow::Cow;
use std::fs;
use std::io::{self, Read as _};
use std::path::PathBuf;
use zipf::Zipf;

/// One text document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Document {
    /// Stable identifier, dense from 0.
    pub id: u32,
    /// File-style name, e.g. `doc_000042.txt`.
    pub name: String,
    /// The document text.
    pub text: String,
}

/// A document collection: documents held in memory (the generator and
/// tests), or the document files of one directory, whose text is read
/// only when a consumer asks for it ([`Corpus::text`]) — so a corpus on
/// disk is never resident as a whole.
#[derive(Debug, Clone, Default)]
pub struct Corpus {
    /// Human-readable corpus name (e.g. `"Mix"`).
    pub name: String,
    source: Source,
}

#[derive(Debug, Clone)]
enum Source {
    Memory(Vec<Document>),
    /// The path of each document's file, in id order.
    Files(Vec<PathBuf>),
}

impl Default for Source {
    fn default() -> Self {
        Source::Memory(Vec::new())
    }
}

impl Corpus {
    /// Build from documents.
    pub fn from_documents(name: &str, docs: Vec<Document>) -> Self {
        Corpus {
            name: name.to_string(),
            source: Source::Memory(docs),
        }
    }

    /// A corpus whose documents are the files at `paths`, with ids in
    /// the order given. Nothing is read here.
    pub fn from_files(name: &str, paths: Vec<PathBuf>) -> Self {
        Corpus {
            name: name.to_string(),
            source: Source::Files(paths),
        }
    }

    /// Number of documents.
    pub fn len(&self) -> usize {
        match &self.source {
            Source::Memory(docs) => docs.len(),
            Source::Files(paths) => paths.len(),
        }
    }

    /// True when the corpus holds no documents.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The documents in id order, when the corpus holds them in memory;
    /// `None` for a directory corpus, whose text is only read through
    /// [`Corpus::text`].
    pub fn documents(&self) -> Option<&[Document]> {
        match &self.source {
            Source::Memory(docs) => Some(docs),
            Source::Files(_) => None,
        }
    }

    /// The name of document `i`: its file name for a directory corpus
    /// (lossily decoded when it is no UTF-8).
    pub fn doc_name(&self, i: usize) -> Cow<'_, str> {
        match &self.source {
            Source::Memory(docs) => Cow::Borrowed(&docs[i].name),
            Source::Files(paths) => paths[i].file_name().unwrap_or_default().to_string_lossy(),
        }
    }

    /// The text of document `i`: borrowed from memory, or read from its
    /// file into `buf` (cleared first), whose capacity the caller
    /// recycles from one document to the next.
    ///
    /// # Errors
    ///
    /// The read's error — a missing or unreadable file, or text that is
    /// no UTF-8 — with the file's path in its message.
    pub fn text<'a>(&'a self, i: usize, buf: &'a mut String) -> io::Result<&'a str> {
        match &self.source {
            Source::Memory(docs) => Ok(&docs[i].text),
            Source::Files(paths) => {
                let path = &paths[i];
                // `File::read_to_string` asks for the file's size and
                // position (`statx`, `lseek`) before it reads; through
                // `Take`, the read goes on to EOF without asking.
                let mut bytes = std::mem::take(buf).into_bytes();
                bytes.clear();
                fs::File::open(path)
                    .and_then(|f| f.take(u64::MAX).read_to_end(&mut bytes))
                    .and_then(|_| {
                        String::from_utf8(bytes)
                            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
                    })
                    .map(|text| *buf = text)
                    .map_err(|e| io::Error::new(e.kind(), format!("{}: {e}", path.display())))?;
                Ok(buf.as_str())
            }
        }
    }

    /// Bytes of document `i`'s text. A directory corpus `stat`s the file
    /// (0 when that fails: the read reports the error), so only cost
    /// estimates and reports ask for it.
    pub fn doc_bytes(&self, i: usize) -> u64 {
        match &self.source {
            Source::Memory(docs) => docs[i].text.len() as u64,
            Source::Files(paths) => fs::metadata(&paths[i]).map_or(0, |m| m.len()),
        }
    }

    /// Total bytes of document text ([`Corpus::doc_bytes`] summed).
    pub fn total_bytes(&self) -> u64 {
        (0..self.len()).map(|i| self.doc_bytes(i)).sum()
    }

    /// Compute corpus statistics (Table 1's columns), reading every
    /// document once.
    ///
    /// # Errors
    ///
    /// The first document read that fails ([`Corpus::text`]).
    pub fn stats(&self) -> io::Result<CorpusStats> {
        stats::compute(self)
    }
}

/// Parameters of a synthetic corpus.
#[derive(Debug, Clone, PartialEq)]
pub struct CorpusSpec {
    /// Corpus name, used in reports.
    pub name: String,
    /// Number of documents to generate.
    pub num_docs: usize,
    /// Vocabulary size (upper bound on distinct words).
    pub vocab_size: usize,
    /// Zipf exponent of the word-frequency distribution (~1 for text).
    pub zipf_exponent: f64,
    /// Mean document length in words.
    pub mean_doc_words: usize,
    /// Spread of the log-normal document length distribution (sigma of
    /// ln(length)).
    pub doc_len_sigma: f64,
}

impl CorpusSpec {
    /// The *Mix* data set of Table 1: 23 432 documents, 62.8 MB, 184 743
    /// distinct words.
    pub fn mix() -> Self {
        CorpusSpec {
            name: "Mix".to_string(),
            num_docs: 23_432,
            vocab_size: 184_743,
            zipf_exponent: 1.0,
            mean_doc_words: 482,
            doc_len_sigma: 0.6,
        }
    }

    /// The *NSF Abstracts* data set of Table 1: 101 483 documents,
    /// 310.9 MB, 267 914 distinct words.
    pub fn nsf_abstracts() -> Self {
        CorpusSpec {
            name: "NSF abstracts".to_string(),
            num_docs: 101_483,
            vocab_size: 267_914,
            zipf_exponent: 1.0,
            mean_doc_words: 553,
            doc_len_sigma: 0.35,
        }
    }

    /// Scale the corpus by `factor` (0 < factor <= 1 typical): document
    /// count scales linearly, vocabulary by Heaps' law (`V ~ N^0.5`), so a
    /// scaled corpus keeps the same per-document sparsity character.
    pub fn scaled(&self, factor: f64) -> Self {
        assert!(factor > 0.0, "scale factor must be positive");
        let mut s = self.clone();
        s.num_docs = ((self.num_docs as f64 * factor).round() as usize).max(8);
        s.vocab_size = ((self.vocab_size as f64 * factor.sqrt()).round() as usize).max(64);
        s
    }

    /// Generate the corpus. Deterministic in (`spec`, `seed`); each
    /// document derives its own RNG stream, so any subset can be generated
    /// independently.
    pub fn generate(&self, seed: u64) -> Corpus {
        let zipf = Zipf::new(self.vocab_size, self.zipf_exponent);
        let vocab = words::Vocabulary::new(self.vocab_size, seed ^ 0x5eed_0001);
        let docs = (0..self.num_docs)
            .map(|i| self.generate_doc(i as u32, seed, &zipf, &vocab))
            .collect();
        Corpus::from_documents(&self.name, docs)
    }

    /// Generate a single document (public so loaders can stream lazily).
    pub fn generate_doc(
        &self,
        id: u32,
        seed: u64,
        zipf: &Zipf,
        vocab: &words::Vocabulary,
    ) -> Document {
        // One decorrelated stream per document (see `seed_from_parts`:
        // deriving these with multiples of the SplitMix64 gamma would
        // alias every document onto one shared state orbit).
        let mut rng = SplitMix64::seed_from_parts(seed, id as u64);
        let len = self.sample_doc_len(&mut rng);
        let mut text = String::with_capacity(len * 8);
        let mut words_on_line = 0usize;
        for w in 0..len {
            let rank = zipf.sample(&mut rng);
            let word = vocab.word(rank);
            if w > 0 {
                // Occasional punctuation and line breaks give the
                // tokenizer realistic separators to chew through.
                if words_on_line >= 12 {
                    text.push_str(".\n");
                    words_on_line = 0;
                } else if rng.gen_ratio(1, 24) {
                    text.push_str(", ");
                } else {
                    text.push(' ');
                }
            }
            text.push_str(word);
            words_on_line += 1;
        }
        text.push_str(".\n");
        Document {
            id,
            name: format!("doc_{id:06}.txt"),
            text,
        }
    }

    fn sample_doc_len(&self, rng: &mut SplitMix64) -> usize {
        // Log-normal with the configured mean: mu = ln(mean) - sigma^2/2.
        let mu = (self.mean_doc_words as f64).ln() - self.doc_len_sigma * self.doc_len_sigma / 2.0;
        let z = rng.gen_normal();
        let len = (mu + self.doc_len_sigma * z).exp();
        (len.round() as usize).clamp(8, self.mean_doc_words * 20)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> CorpusSpec {
        CorpusSpec::mix().scaled(0.002) // ~47 docs
    }

    #[test]
    fn generation_is_deterministic() {
        let a = tiny().generate(7);
        let b = tiny().generate(7);
        assert_eq!(a.documents(), b.documents());
        assert!(a.documents().is_some());
    }

    #[test]
    fn different_seeds_differ() {
        let a = tiny().generate(1);
        let b = tiny().generate(2);
        let mut buf = String::new();
        assert_ne!(
            a.text(0, &mut buf).unwrap(),
            b.text(0, &mut String::new()).unwrap()
        );
    }

    #[test]
    fn doc_ids_are_dense_and_named() {
        let c = tiny().generate(3);
        for (i, d) in c.documents().unwrap().iter().enumerate() {
            assert_eq!(d.id as usize, i);
            assert_eq!(d.name, format!("doc_{i:06}.txt"));
            assert!(!d.text.is_empty());
        }
    }

    #[test]
    fn scaled_reduces_docs_and_vocab() {
        let full = CorpusSpec::nsf_abstracts();
        let half = full.scaled(0.25);
        assert_eq!(
            half.num_docs,
            (full.num_docs as f64 * 0.25).round() as usize
        );
        assert_eq!(
            half.vocab_size,
            (full.vocab_size as f64 * 0.5).round() as usize
        );
        assert_eq!(half.mean_doc_words, full.mean_doc_words);
    }

    #[test]
    fn mean_doc_length_is_roughly_calibrated() {
        let c = CorpusSpec::mix().scaled(0.01).generate(11);
        let total_words: usize = {
            let mut tok = Tokenizer::new();
            c.documents()
                .unwrap()
                .iter()
                .map(|d| {
                    let mut n = 0;
                    tok.for_each(&d.text, |_| n += 1);
                    n
                })
                .sum()
        };
        let mean = total_words as f64 / c.len() as f64;
        let target = CorpusSpec::mix().mean_doc_words as f64;
        assert!(
            (mean - target).abs() / target < 0.35,
            "mean {mean} vs target {target}"
        );
    }

    #[test]
    fn bytes_per_doc_in_calibrated_band() {
        // Table 1: Mix is 62.8 MB / 23432 docs = ~2.8 KB per document.
        let c = CorpusSpec::mix().scaled(0.01).generate(5);
        let per_doc = c.total_bytes() as f64 / c.len() as f64;
        assert!((1_500.0..5_000.0).contains(&per_doc), "bytes/doc {per_doc}");
    }

    #[test]
    fn generate_doc_independent_of_order() {
        let spec = tiny();
        let zipf = Zipf::new(spec.vocab_size, spec.zipf_exponent);
        let vocab = words::Vocabulary::new(spec.vocab_size, 7 ^ 0x5eed_0001);
        let from_corpus = spec.generate(7);
        let direct = spec.generate_doc(5, 7, &zipf, &vocab);
        assert_eq!(&from_corpus.documents().unwrap()[5], &direct);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_scale_rejected() {
        CorpusSpec::mix().scaled(0.0);
    }
}
