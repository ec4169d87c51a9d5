//! Corpus statistics — the columns of the paper's Table 1.

use crate::tokenize::Tokenizer;
use crate::Corpus;
use std::collections::HashSet;
use std::io;

/// Document count, text bytes, and distinct-word count of a corpus.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CorpusStats {
    /// Number of documents.
    pub documents: usize,
    /// Total bytes of document text.
    pub bytes: u64,
    /// Number of distinct tokens across all documents.
    pub distinct_words: usize,
    /// Total token occurrences across all documents.
    pub total_words: u64,
}

impl CorpusStats {
    /// Megabytes, as Table 1 reports them.
    pub fn megabytes(&self) -> f64 {
        self.bytes as f64 / 1.0e6
    }

    /// Mean words per document.
    pub fn mean_doc_words(&self) -> f64 {
        if self.documents == 0 {
            0.0
        } else {
            self.total_words as f64 / self.documents as f64
        }
    }
}

/// Compute the statistics by tokenizing every document, each read once
/// into one recycled buffer.
pub fn compute(corpus: &Corpus) -> io::Result<CorpusStats> {
    let mut tok = Tokenizer::new();
    let mut distinct: HashSet<Box<str>> = HashSet::new();
    let mut total_words = 0u64;
    let mut bytes = 0u64;
    let mut buf = String::new();
    for i in 0..corpus.len() {
        let text = corpus.text(i, &mut buf)?;
        bytes += text.len() as u64;
        tok.for_each(text, |w| {
            total_words += 1;
            if !distinct.contains(w) {
                distinct.insert(w.into());
            }
        });
    }
    Ok(CorpusStats {
        documents: corpus.len(),
        bytes,
        distinct_words: distinct.len(),
        total_words,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CorpusSpec, Document};

    #[test]
    fn stats_on_handmade_corpus() {
        let c = Corpus::from_documents(
            "test",
            vec![
                Document {
                    id: 0,
                    name: "a".into(),
                    text: "the cat sat".into(),
                },
                Document {
                    id: 1,
                    name: "b".into(),
                    text: "the dog sat down".into(),
                },
            ],
        );
        let s = c.stats().unwrap();
        assert_eq!(s.documents, 2);
        assert_eq!(s.total_words, 7);
        assert_eq!(s.distinct_words, 5); // the, cat, sat, dog, down
        assert_eq!(
            s.bytes,
            ("the cat sat".len() + "the dog sat down".len()) as u64
        );
        assert!((s.mean_doc_words() - 3.5).abs() < 1e-12);
    }

    #[test]
    fn empty_corpus_stats() {
        let s = Corpus::default().stats().unwrap();
        assert_eq!(s.documents, 0);
        assert_eq!(s.distinct_words, 0);
        assert_eq!(s.mean_doc_words(), 0.0);
    }

    #[test]
    fn distinct_words_bounded_by_vocab() {
        let spec = CorpusSpec::mix().scaled(0.005);
        let c = spec.generate(13);
        let s = c.stats().unwrap();
        assert!(s.distinct_words <= spec.vocab_size);
        // With Zipf sampling most of the scaled vocabulary is observed.
        assert!(
            s.distinct_words as f64 > 0.3 * spec.vocab_size as f64,
            "observed {} of {}",
            s.distinct_words,
            spec.vocab_size
        );
    }

    #[test]
    fn megabytes_conversion() {
        let s = CorpusStats {
            documents: 1,
            bytes: 62_800_000,
            distinct_words: 1,
            total_words: 1,
        };
        assert!((s.megabytes() - 62.8).abs() < 1e-9);
    }
}
